//! `replication_fanout` — the read side of the cluster tick: the delta arm
//! of `ablation_replication` at a tenth of its size. Ten thousand clients
//! with zipf-skewed interest centres subscribe to the 4-zone hybrid, and
//! the hub's per-tick ingest and cohort flush dominate the host time.

use std::collections::BTreeMap;
use std::sync::Arc;

use servo::faas::AutoscalerConfig;
use servo::replication::{FanoutConfig, HubConfig, Interest, ReplicationConfig, SubscriberId};
use servo::server::BorderExchange;
use servo::simkit::SimRng;
use servo::types::ChunkPos;
use servo::workload::KeySkew;

use super::hybrid::Hybrid;
use super::{to_ms, Check, Outcome, Plan, ProbeInputs, Workload};
use crate::trace::Tracer;

const EDITS_PER_TICK: usize = 2;
const WARMUP_TICKS: u64 = 200;
const FULL_TICKS: u64 = 3_000;
const SUBSCRIBERS: usize = 10_000;
const RADIUS: i32 = 2;
const COHORTS: u64 = 8;
const ZIPF_EXPONENT: f64 = 1.1;
const RETARGETS_PER_TICK: usize = 2;

/// The running workload.
pub struct ReplicationFanout {
    hybrid: Hybrid,
    clients: Vec<SubscriberId>,
    /// Where each client's interest is currently centred.
    centers: Vec<ChunkPos>,
    targets: Vec<ChunkPos>,
    skew: KeySkew,
    mover_rng: SimRng,
    ticks: u64,
}

/// The zipf sampler of interest centres: a pure function of `seed`.
pub fn interest_skew(targets: usize, seed: u64) -> KeySkew {
    KeySkew::zipf(
        targets,
        ZIPF_EXPONENT,
        SimRng::seed(seed).substream("interest-skew"),
    )
}

impl Workload for ReplicationFanout {
    const NAME: &'static str = "replication_fanout";

    fn shape(plan: Plan) -> (usize, u64) {
        (1, plan.ticks(FULL_TICKS))
    }

    fn setup(seed: u64, _plan: Plan, tracer: &mut Tracer) -> Self {
        let mut hybrid = Hybrid::build(seed, BorderExchange::Batched, EDITS_PER_TICK);
        hybrid
            .deployment
            .cluster
            .enable_replication(ReplicationConfig {
                hub: HubConfig::default(),
                fanout: FanoutConfig {
                    scaler: AutoscalerConfig::elastic(4, 64).with_backlog_per_worker(1024),
                    ..FanoutConfig::default()
                },
                cohorts: COHORTS,
                border_via_subscription: false,
            });
        let targets = hybrid.interest_targets();
        let mut skew = interest_skew(targets.len(), seed);
        let centers: Vec<ChunkPos> = (0..SUBSCRIBERS).map(|_| targets[skew.sample()]).collect();
        let cluster = &mut hybrid.deployment.cluster;
        let clients = tracer.span("replication.subscribe", || {
            centers
                .iter()
                .map(|&center| {
                    cluster
                        .subscribe_client(Interest::new(center, RADIUS))
                        .expect("replication is attached")
                })
                .collect()
        });
        let mut workload = ReplicationFanout {
            hybrid,
            clients,
            centers,
            targets,
            skew,
            mover_rng: SimRng::seed(seed).substream("movers"),
            ticks: 0,
        };
        // Warm-up absorbs terrain loading and the initial keyframe wave, so
        // the measured window sees the steady delta protocol.
        let mut untraced = Tracer::new(false);
        for _ in 0..WARMUP_TICKS {
            workload.tick(&mut untraced);
        }
        workload.hybrid.start_measuring();
        workload.ticks = 0;
        workload
    }

    fn tick(&mut self, tracer: &mut Tracer) {
        let moves: Vec<(usize, ChunkPos)> = (0..RETARGETS_PER_TICK)
            .map(|_| {
                let who = (self.mover_rng.unit() * self.clients.len() as f64) as usize
                    % self.clients.len();
                (who, self.targets[self.skew.sample()])
            })
            .collect();
        let cluster = &mut self.hybrid.deployment.cluster;
        let clients = &self.clients;
        tracer.span("replication.retarget", || {
            for &(who, center) in &moves {
                cluster.retarget_client(clients[who], center);
            }
        });
        for (who, center) in moves {
            self.centers[who] = center;
        }
        self.hybrid.tick(tracer);
        self.ticks += 1;
    }

    fn finish(mut self, tracer: &mut Tracer) -> Outcome {
        let deployment = &mut self.hybrid.deployment;
        tracer.span("core.flush_persistence", || deployment.flush_persistence());

        let cluster = &self.hybrid.deployment.cluster;
        let repl = cluster
            .replication_stats()
            .expect("replication is attached");
        let fanout = cluster.fanout_stats().expect("replication is attached");
        let checks = vec![
            Check::new(
                "frames == keyframes + delta_frames",
                repl.frames == repl.keyframes + repl.delta_frames,
                format!(
                    "frames {}, keyframes {}, delta_frames {}",
                    repl.frames, repl.keyframes, repl.delta_frames
                ),
            ),
            Check::new(
                "every subscriber received a keyframe",
                repl.keyframes >= repl.subscribers,
                format!(
                    "keyframes {}, subscribers {}",
                    repl.keyframes, repl.subscribers
                ),
            ),
        ];

        let mut counts = self.hybrid.counts(self.ticks);
        counts.insert("replication.frames", repl.frames as f64);
        counts.insert("replication.keyframes", repl.keyframes as f64);
        counts.insert("replication.delta_frames", repl.delta_frames as f64);
        counts.insert("replication.bytes_sent", repl.bytes_sent as f64);
        counts.insert("replication.chunks_delivered", repl.chunks_delivered as f64);
        counts.insert("replication.coalesced_chunks", repl.coalesced_chunks as f64);
        counts.insert("replication.dropped_on_move", repl.dropped_on_move as f64);
        counts.insert("replication.fanout_charged_ms", fanout.charged_ms);

        let mut span_ops = BTreeMap::new();
        span_ops.insert("replication.subscribe", self.clients.len() as u64);
        span_ops.insert("replication.retarget", RETARGETS_PER_TICK as u64);

        let keep_probe_inputs = tracer.enabled();
        let (fingerprint, chunks) = self
            .hybrid
            .fingerprint(&[&repl, &fanout], keep_probe_inputs);
        let (failed_ops, attempted_ops) = self.hybrid.operations();
        let durations = self.hybrid.deployment.cluster.critical_path_durations();
        let probe = if keep_probe_inputs {
            let map = Arc::new(self.hybrid.deployment.cluster.shard_map().clone());
            let interests = self
                .centers
                .iter()
                .map(|&center| Interest::new(center, RADIUS))
                .collect();
            ProbeInputs {
                replication: Some((map, interests, COHORTS)),
                ..self.hybrid.probe_inputs(chunks)
            }
        } else {
            ProbeInputs::default()
        };
        Outcome {
            sim_tick_ms: to_ms(&durations),
            sim_hours: self.hybrid.sim_hours(),
            cost_usd: self.hybrid.cost_usd(),
            failed_ops,
            attempted_ops,
            checks,
            counts,
            span_ops,
            fingerprint,
            probe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_targets_are_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut skew = interest_skew(196, seed);
            (0..500).map(|_| skew.sample()).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        // Zipf 1.1: the head target is drawn far more often than the tail.
        let head = a.iter().filter(|&&t| t == 0).count();
        assert!(head > 50, "head drawn {head} times of 500");
        assert!(a.iter().all(|&t| t < 196));
    }
}
