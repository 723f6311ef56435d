//! `cluster_churn` — the write side of the cluster tick: a 4-zone hybrid
//! with per-zone persistence and write-ahead logs under block edits, a
//! fleet hotspot that triggers shard and construct migrations, and one
//! zone crash whose shards the survivors adopt.

use std::collections::BTreeMap;

use servo::server::cluster::zone_hotspot_sites;
use servo::server::BorderExchange;
use servo::storage::{chunk_key, ObjectStore};
use servo::types::consts::TICK_BUDGET;
use servo::types::SimTime;
use servo::workload::Hotspot;
use servo::world::{RebalanceConfig, RebalancePolicy};

use super::hybrid::{Hybrid, ZONES};
use super::{to_ms, Check, Outcome, Plan, ProbeInputs, Workload};
use crate::trace::Tracer;

const EDITS_PER_TICK: usize = 8;
const WARMUP_TICKS: u64 = 200;
const FULL_TICKS: u64 = 15_000;
const HOT_ZONE: usize = 0;
const HOTSPOT_SITES: usize = 4;
const CRASHED_ZONE: usize = 2;
/// Ticks between the driver's persistence checkpoint and the crash.
const CHECKPOINT_LEAD: u64 = 5;

/// The running workload.
pub struct ClusterChurn {
    hybrid: Hybrid,
    /// The cluster tick before which the driver checkpoints persistence.
    checkpoint_at: u64,
    ticks: u64,
}

/// `ablation_rebalance`'s hotspot policy with the border-traffic term of
/// `ablation_border` switched on.
fn policy() -> RebalancePolicy {
    RebalancePolicy::new(RebalanceConfig {
        warmup_ticks: 20,
        evaluate_every: 10,
        cooldown_ticks: 60,
        trigger_ratio: 1.3,
        min_gap_ms: 1.0,
        max_migrations_per_step: 8,
        smoothing: 0.25,
        border_traffic: true,
        ..RebalanceConfig::default()
    })
}

fn at_tick(tick: u64) -> SimTime {
    SimTime::ZERO + TICK_BUDGET * tick
}

impl Workload for ClusterChurn {
    const NAME: &'static str = "cluster_churn";

    fn shape(plan: Plan) -> (usize, u64) {
        (1, plan.ticks(FULL_TICKS))
    }

    fn setup(seed: u64, plan: Plan, _tracer: &mut Tracer) -> Self {
        let measured = plan.ticks(FULL_TICKS);
        let mut hybrid = Hybrid::build(seed, BorderExchange::Speculative, EDITS_PER_TICK);
        hybrid.deployment.enable_rebalancing(policy());

        // The schedule, in cluster ticks: the fleet converges on four
        // chunks of zone 0 early in the window (at 20 s of simulated time
        // at full size), zone 2 crashes a third of the way in, and the
        // fleet walks home after two thirds.
        let sites = zone_hotspot_sites(
            hybrid.deployment.cluster.shard_map(),
            HOT_ZONE,
            HOTSPOT_SITES,
        );
        hybrid.fleet_mut().set_hotspot(Hotspot {
            targets: Hotspot::chunk_centers(&sites),
            converge_at: at_tick(WARMUP_TICKS + (measured / 75).max(1)),
            disperse_at: at_tick(WARMUP_TICKS + measured * 2 / 3),
            travel_speed: 24.0,
            dwell_radius: 4.0,
        });
        // The crash lands in the middle of a write-back interval, a few
        // ticks after a checkpoint (`tick`). What recovery replays from the
        // log depends on how far the zone's asynchronous write-back got:
        // on an interval boundary the crash races the pass submitted one
        // tick earlier, and even mid-interval a chunk re-dirtied while the
        // last pass ran may or may not still be logged. Recovery messages,
        // the critical path of the adoption ticks and the final world then
        // differ between two runs of one seed. The synchronous checkpoint
        // empties staging and log; what the following ticks stage is a
        // function of the seed alone.
        let interval = hybrid
            .deployment
            .config
            .persistence
            .as_ref()
            .map_or(1, |p| p.write_back_interval.max(1));
        let crash_at = (WARMUP_TICKS + measured / 3) / interval * interval + interval / 2;
        hybrid.deployment.crash_zone(CRASHED_ZONE, crash_at);

        let mut untraced = Tracer::new(false);
        for _ in 0..WARMUP_TICKS {
            hybrid.tick(&mut untraced);
        }
        hybrid.start_measuring();
        ClusterChurn {
            hybrid,
            checkpoint_at: crash_at - CHECKPOINT_LEAD,
            ticks: 0,
        }
    }

    fn tick(&mut self, tracer: &mut Tracer) {
        if self.hybrid.ticks_run() == self.checkpoint_at {
            let deployment = &mut self.hybrid.deployment;
            tracer.span("core.flush_persistence", || deployment.flush_persistence());
        }
        self.hybrid.tick(tracer);
        self.ticks += 1;
    }

    fn finish(mut self, tracer: &mut Tracer) -> Outcome {
        let deployment = &mut self.hybrid.deployment;
        tracer.span("core.flush_persistence", || deployment.flush_persistence());

        let cluster = &self.hybrid.deployment.cluster;
        let recovery = cluster.recovery_stats();
        // After the final flush, what its owner persisted for a chunk the
        // edit stream wrote to must be the chunk's current bytes. (A
        // chunk's own modification counter cannot select the chunks: flat
        // terrain generated in place starts with a non-zero count.)
        let (mut compared, mut stale, mut missing) = (0u64, 0u64, 0u64);
        for pos in self.hybrid.edited_chunks() {
            let Some(zone) =
                (0..ZONES).find(|&z| !cluster.zone_is_dead(z) && cluster.server(z).owns_chunk(pos))
            else {
                missing += 1;
                continue;
            };
            let Some(bytes) = cluster
                .server(zone)
                .world()
                .read_chunk(pos, |c| c.to_bytes())
            else {
                continue;
            };
            compared += 1;
            let persisted = cluster
                .with_persisted(zone, |store| store.read(&chunk_key(pos), SimTime::ZERO))
                .expect("every zone persists");
            match persisted {
                Ok(read) if read.data == bytes => {}
                Ok(_) => stale += 1,
                Err(_) => missing += 1,
            }
        }
        let checks = vec![
            Check::new(
                "exactly one crash fired",
                recovery.crashes == 1,
                format!("crashes {}", recovery.crashes),
            ),
            Check::new(
                "every orphaned shard adopted",
                cluster.pending_adoption_count() == 0,
                format!("pending adoptions {}", cluster.pending_adoption_count()),
            ),
            Check::new(
                "no chunk lost",
                recovery.chunks_lost == 0,
                format!("chunks_lost {}", recovery.chunks_lost),
            ),
            Check::new(
                "persisted bytes equal world bytes for every edited chunk",
                compared > 0 && stale == 0 && missing == 0,
                format!("compared {compared}, stale {stale}, missing {missing}"),
            ),
        ];

        let keep_probe_inputs = tracer.enabled();
        let (fingerprint, chunks) = self.hybrid.fingerprint(&[], keep_probe_inputs);
        let (failed_ops, attempted_ops) = self.hybrid.operations();
        let durations = self.hybrid.deployment.cluster.critical_path_durations();
        Outcome {
            sim_tick_ms: to_ms(&durations),
            sim_hours: self.hybrid.sim_hours(),
            cost_usd: self.hybrid.cost_usd(),
            failed_ops,
            attempted_ops,
            checks,
            counts: self.hybrid.counts(self.ticks),
            span_ops: BTreeMap::new(),
            fingerprint,
            probe: if keep_probe_inputs {
                self.hybrid.probe_inputs(chunks)
            } else {
                ProbeInputs::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servo::world::shard_index;

    #[test]
    fn hotspot_sites_depend_on_the_partition_alone() {
        let sites = |seed| {
            let hybrid = Hybrid::build(seed, BorderExchange::Speculative, EDITS_PER_TICK);
            let map = hybrid.deployment.cluster.shard_map().clone();
            let sites = zone_hotspot_sites(&map, HOT_ZONE, HOTSPOT_SITES);
            for site in &sites {
                assert_eq!(map.zone_of_chunk(*site), HOT_ZONE);
            }
            let mut shards: Vec<usize> = sites
                .iter()
                .map(|&site| shard_index(site, map.shard_count()))
                .collect();
            shards.sort_unstable();
            shards.dedup();
            assert_eq!(shards.len(), HOTSPOT_SITES, "one shard per site");
            sites
        };
        // The seed moves players and edits, never the hotspot.
        assert_eq!(sites(7), sites(8));
    }
}
