//! What the two cluster workloads share: the 4-zone hybrid deployment of
//! `ablation_border` / `ablation_replication` (60 players, 160 border
//! constructs, per-zone persistence with a write-ahead log), its driver
//! iteration, and reading its counters.

use std::collections::BTreeSet;

use servo::core::{HybridDeployment, ServoDeployment};
use servo::metrics::StatsReport;
use servo::redstone::{generators, Blueprint};
use servo::server::cluster::{border_construct_sites, place_across_east_seam};
use servo::server::BorderExchange;
use servo::simkit::SimRng;
use servo::types::{BlockPos, ChunkPos, SimDuration};
use servo::workload::{BehaviorKind, PlayerFleet};
use servo::world::{Block, Chunk};

use super::{
    construct_probe, count_platform, count_speculation, count_terrain, edit_writes,
    flat_terrain_probe, fold_durations, fold_report, fold_world, Counts, EditStream, ProbeInputs,
    PROBE_CHUNKS, PROBE_EDIT_TICKS,
};
use crate::stats::Fingerprint;
use crate::trace::Tracer;

/// Zones of the cluster.
pub const ZONES: usize = 4;
/// Players wandering around spawn.
pub const PLAYERS: usize = 60;
/// Border-spanning constructs keeping the seam chunks dirty every tick.
pub const CONSTRUCTS: usize = 160;
/// Blocks of wire per border construct.
pub const CONSTRUCT_WIRES: usize = 14;

/// The blueprint every border construct is a translation of.
pub fn construct_blueprint() -> Blueprint {
    generators::wire_line(CONSTRUCT_WIRES)
}

/// The hybrid cluster with its fleet and edit stream.
pub struct Hybrid {
    /// The deployment under test.
    pub deployment: HybridDeployment,
    fleet: PlayerFleet,
    edits: EditStream,
    /// A copy of the edit stream as it was before the first tick.
    edits_from_start: EditStream,
    ticks_run: u64,
    /// `ticks_run` when the warm-up ended.
    measuring_from: u64,
    budget: SimDuration,
}

impl Hybrid {
    /// Builds the cluster, places the border constructs and connects the
    /// fleet. `edits_per_tick` seeded block edits hit the spawn area every
    /// tick.
    pub fn build(seed: u64, exchange: BorderExchange, edits_per_tick: usize) -> Hybrid {
        let mut deployment = ServoDeployment::builder()
            .seed(seed)
            .view_distance(32)
            .border_exchange(exchange)
            .hybrid(ZONES);
        let map = deployment.cluster.shard_map().clone();
        for site in border_construct_sites(&map, CONSTRUCTS) {
            deployment.cluster.add_construct(place_across_east_seam(
                &construct_blueprint(),
                site,
                6,
            ));
        }
        let mut fleet = PlayerFleet::new(
            BehaviorKind::Bounded { radius: 24.0 },
            SimRng::seed(seed ^ 0x5eed),
        );
        fleet.connect_all(PLAYERS);
        let budget = deployment.cluster.servers()[0].config().tick_budget();
        let edits = EditStream::new(seed, edits_per_tick, PLAYERS);
        Hybrid {
            deployment,
            fleet,
            edits_from_start: edits.clone(),
            edits,
            ticks_run: 0,
            measuring_from: 0,
            budget,
        }
    }

    /// Cluster ticks run so far, warm-up included.
    pub fn ticks_run(&self) -> u64 {
        self.ticks_run
    }

    /// The fleet, e.g. to script a hotspot.
    pub fn fleet_mut(&mut self) -> &mut PlayerFleet {
        &mut self.fleet
    }

    /// Ends the warm-up: the ticks recorded so far are discarded.
    pub fn start_measuring(&mut self) {
        self.deployment.cluster.discard_ticks();
        self.measuring_from = self.ticks_run;
    }

    /// One driver iteration: fleet tick, this tick's edits, cluster tick.
    pub fn tick(&mut self, tracer: &mut Tracer) {
        let cluster = &mut self.deployment.cluster;
        let fleet = &mut self.fleet;
        let edits = &mut self.edits;
        let now = cluster.now();
        let budget = self.budget;
        let (events, positions) = tracer.span("workload.fleet_tick", || {
            let mut events = fleet.tick(now, budget);
            events.extend(edits.next_events());
            (events, fleet.positions())
        });
        tracer.span("server.cluster_run_tick", || {
            cluster.run_tick(&positions, &events)
        });
        self.ticks_run += 1;
    }

    /// The edit stream's block writes, one batch per tick, replayed from
    /// the stream's start (the stream is a pure function of the seed, and
    /// the `Bounded` fleet itself never edits).
    fn replayed_edits(&self) -> impl Iterator<Item = Vec<(BlockPos, Block)>> {
        let mut replay = self.edits_from_start.clone();
        (0..self.ticks_run).map(move |_| edit_writes(&replay.next_events()))
    }

    /// Every chunk the edit stream has written to so far, warm-up included.
    pub fn edited_chunks(&self) -> BTreeSet<ChunkPos> {
        self.replayed_edits()
            .flatten()
            .map(|(pos, _)| ChunkPos::from(pos))
            .collect()
    }

    /// The block writes of the first measured ticks, for the layer probes.
    fn probe_edits(&self) -> Vec<Vec<(BlockPos, Block)>> {
        self.replayed_edits()
            .skip(self.measuring_from as usize)
            .take(PROBE_EDIT_TICKS)
            .collect()
    }

    /// Simulated hours since the cluster started.
    pub fn sim_hours(&self) -> f64 {
        self.deployment.cluster.now().as_secs_f64() / 3600.0
    }

    /// `total_cost_with_idle_usd` of the shared SC platform and every
    /// zone's generation platform.
    pub fn cost_usd(&self) -> f64 {
        let now = self.deployment.cluster.now();
        self.deployment
            .sc_billing_at(now)
            .total_cost_with_idle_usd()
            + self
                .deployment
                .terrain
                .iter()
                .map(|t| t.billing_at(now).total_cost_with_idle_usd())
                .sum::<f64>()
    }

    /// `(failed, attempted)` operations of the FaaS platforms, the storage
    /// caches and crash recovery.
    pub fn operations(&self) -> (u64, u64) {
        let cluster = &self.deployment.cluster;
        let sc = self.deployment.sc_platform_stats();
        let spec = self.deployment.speculation_stats_total();
        let recovery = cluster.recovery_stats();
        let mut failed = sc.rejected + spec.failed + recovery.chunks_lost;
        let mut attempted = sc.invocations
            + recovery.chunks_restored
            + recovery.chunks_replayed
            + recovery.chunks_lost;
        for handle in &self.deployment.terrain {
            let platform = handle.platform_stats();
            failed += platform.rejected + handle.stats().failed;
            attempted += platform.invocations;
        }
        for zone in 0..ZONES {
            if let Some(cache) = cluster.persistence_cache_stats(zone) {
                failed += cache.retries_exhausted;
                attempted += cache.total_reads() + cache.write_backs;
            }
        }
        (failed, attempted)
    }

    /// Per-layer counts of the server, core, faas and storage layers.
    pub fn counts(&self, measured_ticks: u64) -> Counts {
        let cluster = &self.deployment.cluster;
        let stats = cluster.stats();
        let rebalance = cluster.rebalance_stats();
        let recovery = cluster.recovery_stats();
        let spec = self.deployment.speculation_stats_total();
        let sc = self.deployment.sc_platform_stats();
        let persistence = cluster.persistence_stats_total();
        let measured_messages: u64 = cluster
            .ticks()
            .iter()
            .map(|d| d.tick.cross_server_messages)
            .sum();

        let mut counts = Counts::new();
        counts.insert(
            "server.msgs_per_tick",
            measured_messages as f64 / measured_ticks.max(1) as f64,
        );
        counts.insert(
            "server.border_chunk_updates",
            stats.border_chunk_updates as f64,
        );
        counts.insert(
            "server.construct_exchanges",
            stats.construct_exchanges as f64,
        );
        counts.insert(
            "server.speculative_replays",
            stats.speculative_replays as f64,
        );
        counts.insert(
            "server.speculation_handles",
            stats.speculation_handles as f64,
        );
        counts.insert("server.shard_migrations", rebalance.shard_migrations as f64);
        counts.insert(
            "server.construct_migrations",
            rebalance.construct_migrations as f64,
        );
        counts.insert("server.recovery_ticks", recovery.recovery_ticks as f64);
        counts.insert("server.chunks_restored", recovery.chunks_restored as f64);
        counts.insert("server.chunks_replayed", recovery.chunks_replayed as f64);
        count_speculation(&mut counts, &spec);
        count_platform(&mut counts, &sc);
        for handle in &self.deployment.terrain {
            count_platform(&mut counts, &handle.platform_stats());
            count_terrain(&mut counts, &handle.stats());
        }

        let (mut hits, mut misses, mut retries, mut appended) = (0u64, 0u64, 0u64, 0u64);
        for zone in 0..ZONES {
            if let Some(cache) = cluster.persistence_cache_stats(zone) {
                hits += cache.memory_hits;
                misses += cache.remote_misses;
                retries += cache.retries;
            }
            if let Some(wal) = cluster.persistence_wal(zone) {
                appended += wal.with(|w| w.appended());
            }
        }
        counts.insert("storage.chunks_flushed", persistence.chunks_flushed as f64);
        counts.insert(
            "storage.write_back_passes",
            persistence.write_back_passes as f64,
        );
        counts.insert("storage.memory_hits", hits as f64);
        counts.insert("storage.remote_misses", misses as f64);
        counts.insert("storage.retries", retries as f64);
        counts.insert("storage.wal_appended", appended as f64);
        counts
    }

    /// The fingerprint of the modelled outcome — critical-path durations,
    /// every statistics snapshot, every zone's world bytes — with `extra`
    /// snapshots folded in, and (with `sample`) a sample of the worlds'
    /// chunks.
    ///
    /// The persistence counters and `staged_dirty_handed_off` stay out:
    /// write-back runs on the library's worker threads, and how many chunks
    /// a pass flushes (or a migration still finds staged) depends on how
    /// those interleave with the tick thread — `storage.chunks_flushed`
    /// and `storage.wal_appended` differ by a few per mille between two
    /// runs of one seed. They are host-timing counts, not modelled outcome.
    pub fn fingerprint(
        &self,
        extra: &[&dyn StatsReport],
        sample: bool,
    ) -> (Fingerprint, Vec<Chunk>) {
        let cluster = &self.deployment.cluster;
        let mut fp = Fingerprint::default();
        fold_durations(&mut fp, &cluster.critical_path_durations());
        fold_report(&mut fp, &cluster.stats());
        fp.str(cluster.rebalance_stats().section());
        for (key, value) in cluster.rebalance_stats().report() {
            if key != "staged_dirty_handed_off" {
                fp.str(key);
                fp.str(&value);
            }
        }
        fold_report(&mut fp, &cluster.recovery_stats());
        fold_report(&mut fp, &self.deployment.speculation_stats_total());
        fold_report(&mut fp, &self.deployment.sc_platform_stats());
        for report in extra {
            fold_report(&mut fp, *report);
        }
        let mut chunks = Vec::new();
        for server in cluster.servers() {
            chunks.extend(fold_world(&mut fp, server, sample));
        }
        chunks.truncate(PROBE_CHUNKS);
        (fp, chunks)
    }

    /// The probe inputs both cluster workloads share; `chunks` is the
    /// sample [`Hybrid::fingerprint`] returned.
    pub fn probe_inputs(&self, chunks: Vec<Chunk>) -> ProbeInputs {
        ProbeInputs {
            construct: Some(construct_probe(
                construct_blueprint(),
                &self.deployment.config.speculation,
            )),
            terrain: Some(flat_terrain_probe(self.deployment.cluster.server(0))),
            chunks,
            edits: self.probe_edits(),
            persistence: true,
            replication: None,
        }
    }

    /// The interest-centre universe of the replication ablation: the spawn
    /// edit hot-spot first (the zipf head), then the border construct
    /// sites (the tail).
    pub fn interest_targets(&self) -> Vec<ChunkPos> {
        let mut targets = Vec::new();
        for x in -3..3 {
            for z in -3..3 {
                targets.push(ChunkPos::new(x, z));
            }
        }
        targets.extend(border_construct_sites(
            self.deployment.cluster.shard_map(),
            CONSTRUCTS,
        ));
        targets
    }
}
