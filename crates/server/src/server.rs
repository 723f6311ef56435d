//! The game loop.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use servo_metrics::TimePoint;
use servo_redstone::{Blueprint, Construct};
use servo_simkit::{SimClock, SimRng};
use servo_storage::{ChunkOutcome, ChunkRequest, ChunkService};
use servo_types::consts;
use servo_types::id::IdAllocator;
use servo_types::{BlockPos, ChunkPos, ConstructId, PlayerId, SimDuration, SimTime, Tick};
use servo_workload::{PlayerEvent, PlayerFleet};
use servo_world::{
    required_chunks, FxBuildHasher, ShardDelta, ShardMap, ShardedWorld, ViewTracker, WorldKind,
};

use crate::backends::{ScBackend, ScResolution};
use crate::costs::{CostModel, TickWork};

/// Static configuration of a game-server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Human-readable system name ("Opencraft", "Minecraft", "Servo").
    pub name: &'static str,
    /// The calibrated cost model of this implementation.
    pub costs: CostModel,
    /// Simulation rate in Hz (20 for all systems in the paper).
    pub tick_rate_hz: u32,
    /// View distance in blocks that must be covered with terrain.
    pub view_distance_blocks: i32,
    /// Extra distance beyond the view distance at which terrain generation
    /// is already requested, hiding generation latency. Negative values
    /// count as zero.
    pub generation_margin_blocks: i32,
    /// Maximum number of freshly generated or loaded chunks integrated into
    /// the world per tick; the remainder is queued for following ticks, as
    /// production servers do to bound per-tick work.
    pub max_chunk_loads_per_tick: usize,
    /// The kind of world the instance hosts.
    pub world_kind: WorldKind,
}

impl ServerConfig {
    /// The Opencraft baseline configuration.
    pub fn opencraft() -> Self {
        ServerConfig {
            name: "Opencraft",
            costs: CostModel::opencraft(),
            tick_rate_hz: consts::TICK_RATE_HZ,
            view_distance_blocks: consts::DEFAULT_VIEW_DISTANCE_BLOCKS,
            generation_margin_blocks: 16,
            max_chunk_loads_per_tick: 16,
            world_kind: WorldKind::Flat,
        }
    }

    /// The Minecraft baseline configuration.
    pub fn minecraft() -> Self {
        ServerConfig {
            costs: CostModel::minecraft(),
            name: "Minecraft",
            ..ServerConfig::opencraft()
        }
    }

    /// The base configuration Servo builds on (Servo is implemented on top
    /// of Opencraft; `servo-core` combines this with its backends).
    pub fn servo_base() -> Self {
        ServerConfig {
            costs: CostModel::servo(),
            name: "Servo",
            generation_margin_blocks: 48,
            ..ServerConfig::opencraft()
        }
    }

    /// Sets the view distance, returning the modified configuration.
    pub fn with_view_distance(mut self, blocks: i32) -> Self {
        self.view_distance_blocks = blocks.max(0);
        self
    }

    /// Sets the world kind, returning the modified configuration.
    pub fn with_world_kind(mut self, kind: WorldKind) -> Self {
        self.world_kind = kind;
        self
    }

    /// The tick budget implied by the tick rate.
    pub fn tick_budget(&self) -> SimDuration {
        SimDuration::from_micros(1_000_000 / self.tick_rate_hz as u64)
    }
}

/// Counters describing what a server instance did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Player events processed.
    pub events_processed: u64,
    /// Chunks integrated into the world.
    pub chunks_loaded: u64,
    /// Construct resolutions by kind.
    pub sc_local: u64,
    /// Constructs advanced by applying speculative results.
    pub sc_merged: u64,
    /// Constructs advanced by replaying a detected loop.
    pub sc_replayed: u64,
    /// Constructs skipped (baselines simulate every other tick).
    pub sc_skipped: u64,
}

/// The outcome of one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// The tick index.
    pub tick: Tick,
    /// The virtual time at which the tick started.
    pub started_at: SimTime,
    /// How long the tick took.
    pub duration: SimDuration,
    /// The work performed.
    pub work: TickWork,
    /// Distance from the closest player to the closest missing terrain, in
    /// blocks (the QoS metric of Figure 10); equals the view distance when
    /// all required terrain is loaded.
    pub view_range_blocks: f64,
}

/// A modifiable-virtual-environment game server over one [`ShardedWorld`].
///
/// See the crate-level documentation for the role this type plays; the
/// baselines and Servo are all instances of it with different backends and
/// cost models.
pub struct GameServer {
    config: ServerConfig,
    world: Arc<ShardedWorld>,
    /// When set, this instance is one zone of a sharded cluster: it ticks
    /// constructs, requests terrain, and drains dirty state only for the
    /// world shards its zone owns. `None` means the server owns the whole
    /// world (the single-server deployments).
    ownership: Option<(Arc<ShardMap>, usize)>,
    /// Constructs with the world shard that owns them (by the chunk of
    /// their first block), in the order they were added — the order the
    /// tick resolves them in.
    constructs: Vec<(ConstructId, usize, Construct)>,
    /// The constructs a block event at each position touches.
    footprints: Footprints,
    /// Adopted constructs this zone simulates even though their home shard
    /// belongs to another zone — the product of ownership-aware construct
    /// migration, where a cluster moves a border construct to the zone
    /// owning the majority of its blocks without moving any shard. Empty
    /// (and therefore free) on unrestricted servers and on zones that only
    /// ever adopt shard-aligned constructs.
    pinned: std::collections::HashSet<ConstructId>,
    construct_ids: IdAllocator<ConstructId>,
    sc_backend: Box<dyn ScBackend>,
    /// The terrain pipeline: every chunk the world is missing is submitted
    /// as a [`ChunkRequest::Read`] ticket and arrives back as a
    /// [`ChunkOutcome::Loaded`] completion — the loop never blocks on
    /// generation or storage.
    chunks: Box<dyn ChunkService>,
    clock: SimClock,
    tick: Tick,
    rng: SimRng,
    reports: Vec<TickReport>,
    stats: ServerStats,
    /// Generated chunks waiting to be integrated (per-tick integration is
    /// bounded by `max_chunk_loads_per_tick`).
    pending_integration: std::collections::VecDeque<servo_world::Chunk>,
    /// The owned terrain missing around the avatars, kept between ticks so
    /// a tick pays only for what changed.
    terrain: ViewTracker,
}

impl std::fmt::Debug for GameServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GameServer")
            .field("name", &self.config.name)
            .field("tick", &self.tick)
            .field("constructs", &self.constructs.len())
            .field("loaded_chunks", &self.world.loaded_chunks())
            .finish()
    }
}

impl GameServer {
    /// Creates a server instance with the given construct backend and
    /// terrain chunk service.
    pub fn new(
        config: ServerConfig,
        sc_backend: Box<dyn ScBackend>,
        chunks: Box<dyn ChunkService>,
        rng: SimRng,
    ) -> Self {
        let world = match config.world_kind {
            WorldKind::Flat => ShardedWorld::flat(4),
            WorldKind::Default => ShardedWorld::new(),
        };
        let terrain =
            ViewTracker::new(config.view_distance_blocks, config.generation_margin_blocks);
        GameServer {
            config,
            world: Arc::new(world),
            ownership: None,
            constructs: Vec::new(),
            footprints: Footprints::default(),
            pinned: std::collections::HashSet::new(),
            construct_ids: IdAllocator::new(),
            sc_backend,
            chunks,
            clock: SimClock::new(),
            tick: Tick::ZERO,
            rng,
            reports: Vec::new(),
            stats: ServerStats::default(),
            pending_integration: std::collections::VecDeque::new(),
            terrain,
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The server's world.
    pub fn world(&self) -> &ShardedWorld {
        &self.world
    }

    /// A shared handle to the server's world, for binding external
    /// consumers such as a persistence [`ChunkService`]
    /// (`PipelinedChunkService::with_world`) or a cluster's border
    /// protocol. All [`ShardedWorld`] mutation goes through `&self`, so the
    /// handle is safe to hold alongside the running server.
    pub fn world_handle(&self) -> Arc<ShardedWorld> {
        Arc::clone(&self.world)
    }

    /// Restricts this instance to the world shards that `map` assigns to
    /// `zone`: terrain is requested, constructs are stepped, and dirty
    /// state is drained ([`GameServer::drain_owned_dirty`]) only for owned
    /// shards. Used by `crate::cluster::ShardedGameCluster` to make each
    /// member simulate exactly its slice of the environment.
    ///
    /// # Panics
    ///
    /// Panics if the map's shard count differs from the world's, or `zone`
    /// is out of range.
    pub fn restrict_to_zone(&mut self, map: Arc<ShardMap>, zone: usize) {
        assert_eq!(
            map.shard_count(),
            self.world.shard_count(),
            "shard map must cover the world's shards"
        );
        assert!(zone < map.zones(), "zone {zone} out of range");
        self.ownership = Some((map, zone));
        self.terrain.invalidate();
    }

    /// The zone this instance simulates, when restricted via
    /// [`GameServer::restrict_to_zone`].
    pub fn zone(&self) -> Option<usize> {
        self.ownership.as_ref().map(|(_, zone)| *zone)
    }

    /// Whether this instance owns (simulates and persists) the world shard
    /// `shard`. Unrestricted servers own everything.
    #[inline]
    pub fn owns_shard(&self, shard: usize) -> bool {
        match &self.ownership {
            Some((map, zone)) => map.zone_of_shard(shard) == *zone,
            None => true,
        }
    }

    /// Whether this instance owns the chunk at `pos`.
    #[inline]
    pub fn owns_chunk(&self, pos: ChunkPos) -> bool {
        match &self.ownership {
            Some((map, zone)) => map.zone_of_chunk(pos) == *zone,
            None => true,
        }
    }

    /// Drains the dirty state of the shards this instance owns — the whole
    /// world for unrestricted servers, the zone's shards otherwise. The
    /// cluster's border protocol and per-zone write-back consume this
    /// instead of [`ShardedWorld::drain_dirty`] so one zone never flushes
    /// another zone's chunks.
    pub fn drain_owned_dirty(&self) -> Vec<ShardDelta> {
        match &self.ownership {
            Some((map, zone)) => self.world.drain_dirty_shards(&map.zone_shards(*zone)),
            None => self.world.drain_dirty(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The current tick index.
    pub fn current_tick(&self) -> Tick {
        self.tick
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Number of simulated constructs in the instance.
    pub fn construct_count(&self) -> usize {
        self.constructs.len()
    }

    /// Adds a simulated construct built from `blueprint` and returns its id.
    pub fn add_construct(&mut self, blueprint: Blueprint) -> ConstructId {
        let id = self.construct_ids.next();
        let shard = blueprint
            .positions()
            .first()
            .map(|&p| self.world.shard_of(ChunkPos::from(p)))
            .unwrap_or(0);
        self.push_construct(id, shard, Construct::new(blueprint));
        id
    }

    /// Appends a construct and indexes its blocks.
    fn push_construct(&mut self, id: ConstructId, shard: usize, construct: Construct) {
        self.constructs.push((id, shard, construct));
        self.index_footprint(self.constructs.len() - 1);
    }

    /// Adds construct `index` to the footprint of each of its blocks.
    /// Indexing constructs in ascending order keeps every list ascending.
    fn index_footprint(&mut self, index: usize) {
        for &pos in self.constructs[index].2.blueprint().positions() {
            self.footprints.insert(pos, index);
        }
    }

    /// Adds `count` identical constructs built by `builder`.
    pub fn add_constructs<F: Fn(usize) -> Blueprint>(&mut self, count: usize, builder: F) {
        for i in 0..count {
            self.add_construct(builder(i));
        }
    }

    /// Removes construct `id` from this server and returns it with its
    /// full simulation state — the source half of a cluster shard
    /// migration. The construct backend is told to release any
    /// per-construct state it holds (in-flight speculation, cached
    /// sequences), so a later reuse of the id cannot observe stale state.
    pub fn take_construct(&mut self, id: ConstructId) -> Option<Construct> {
        let index = self.constructs.iter().position(|(cid, _, _)| *cid == id)?;
        let (_, _, construct) = self.constructs.remove(index);
        // Every later construct moved down one place: re-index them all
        // (takes happen at migration rate, not per event).
        self.footprints.clear();
        for index in 0..self.constructs.len() {
            self.index_footprint(index);
        }
        self.pinned.remove(&id);
        self.sc_backend.release(id);
        Some(construct)
    }

    /// Adopts a construct taken from another server (the destination half
    /// of a cluster shard migration), preserving its simulation state and
    /// returning the id it carries *on this server*. The owning shard is
    /// re-derived from the construct's first block, exactly like
    /// [`GameServer::add_construct`] does.
    ///
    /// The adopted construct is *pinned*: a zone-restricted instance steps
    /// it even when its home shard belongs to another zone. For shard
    /// migrations (where the shard arrives with the construct) the pin is
    /// inert; for ownership-aware construct migrations it is what makes
    /// the construct run on its new owner at all.
    pub fn adopt_construct(&mut self, construct: Construct) -> ConstructId {
        let id = self.construct_ids.next();
        let shard = construct
            .blueprint()
            .positions()
            .first()
            .map(|&p| self.world.shard_of(ChunkPos::from(p)))
            .unwrap_or(0);
        self.push_construct(id, shard, construct);
        self.pinned.insert(id);
        id
    }

    /// Whether construct `id` is pinned to this instance — simulated here
    /// regardless of which zone owns its home shard (see
    /// [`GameServer::adopt_construct`]).
    pub fn is_pinned(&self, id: ConstructId) -> bool {
        self.pinned.contains(&id)
    }

    /// The precomputed speculative sequence currently serving construct
    /// `id` from shared remote storage, if the construct backend has one —
    /// the cluster-facing view of [`ScBackend::published_sequence`].
    pub fn published_sequence(&self, id: ConstructId) -> Option<crate::PublishedSequence> {
        self.sc_backend.published_sequence(id)
    }

    /// Tells the construct backend to release every construct's
    /// per-construct state — in-flight speculation, cached sequences. The
    /// cluster calls this when the zone *crashes*: whatever the substrate
    /// was computing on the dead server's behalf is abandoned, so a
    /// survivor adopting the constructs starts from their last committed
    /// state instead of racing stale speculative results.
    pub fn release_all_speculation(&mut self) {
        for (id, _, _) in &self.constructs {
            self.sc_backend.release(*id);
        }
    }

    /// Read access to a construct by id.
    pub fn construct(&self, id: ConstructId) -> Option<&Construct> {
        self.constructs
            .iter()
            .find(|(cid, _, _)| *cid == id)
            .map(|(_, _, c)| c)
    }

    /// All tick reports recorded so far.
    pub fn reports(&self) -> &[TickReport] {
        &self.reports
    }

    /// All recorded tick durations.
    pub fn tick_durations(&self) -> Vec<SimDuration> {
        self.reports.iter().map(|r| r.duration).collect()
    }

    /// Tick durations as a time series (milliseconds), for rolling-band
    /// plots.
    pub fn tick_duration_series(&self) -> Vec<TimePoint> {
        self.reports
            .iter()
            .map(|r| TimePoint {
                at: r.started_at,
                value: r.duration.as_millis_f64(),
            })
            .collect()
    }

    /// View-range samples over time (blocks), for the Figure 10 QoS plot.
    pub fn view_range_series(&self) -> Vec<TimePoint> {
        self.reports
            .iter()
            .map(|r| TimePoint {
                at: r.started_at,
                value: r.view_range_blocks,
            })
            .collect()
    }

    /// Clears recorded reports (e.g. to discard a warm-up phase) without
    /// resetting the world or the clock.
    pub fn discard_reports(&mut self) {
        self.reports.clear();
    }

    /// Runs a single tick given the current avatar positions and the player
    /// events that arrived since the previous tick.
    pub fn run_tick(
        &mut self,
        positions: &[BlockPos],
        events: &[(PlayerId, PlayerEvent)],
    ) -> TickReport {
        let now = self.clock.now();
        let mut work = TickWork {
            players: positions.len(),
            events: events.len(),
            ..TickWork::default()
        };

        // 1. Terrain management: harvest completed chunk tickets, then
        //    submit reads for everything missing out to the view distance
        //    plus the generation margin. The chunk service deduplicates
        //    re-submitted positions, so asking again costs no modelled
        //    time, and asking every tick is what retries a failed
        //    invocation; the tracker keeps the host cost of knowing what
        //    to ask for proportional to what changed since the last tick.
        for completion in self.chunks.poll(now) {
            if let ChunkOutcome::Loaded { chunk, .. } = completion.outcome {
                self.pending_integration.push_back(*chunk);
            }
        }
        // A zone-restricted instance provisions only the terrain it owns;
        // foreign chunks are the owning zone's responsibility (and the
        // view-range metric below treats them as such).
        let owner = self
            .ownership
            .as_ref()
            .map(|(map, zone)| (map.as_ref(), *zone));
        for &pos in self.terrain.refresh(&self.world, owner, positions) {
            self.chunks.submit(ChunkRequest::read(pos));
        }
        let to_integrate = self
            .pending_integration
            .len()
            .min(self.config.max_chunk_loads_per_tick);
        work.chunks_loaded = to_integrate;
        work.chunks_sent = to_integrate * positions.len().clamp(1, 4);
        // Integrate as one batch: the sharded world groups the chunks by
        // shard and takes each shard's write lock once.
        self.world
            .insert_chunks(self.pending_integration.drain(..to_integrate));
        work.busy_generation_workers = self.chunks.busy_local_workers(now);
        work.generation_backlog = self.chunks.pending() + self.pending_integration.len();

        // 2. Apply player events to the world and to any construct they
        //    touch (invalidating in-flight speculation via the modification
        //    stamp).
        for (_, event) in events {
            match event {
                PlayerEvent::BlockPlaced(pos) | PlayerEvent::BlockBroken(pos) => {
                    let block = match event {
                        PlayerEvent::BlockPlaced(_) => servo_world::Block::Stone,
                        _ => servo_world::Block::Air,
                    };
                    // Ignore writes into unloaded terrain; clients cannot
                    // modify terrain they have not received.
                    let _ = self.world.set_block(*pos, block);
                    // One probe finds the constructs holding the block. The
                    // modification only replaces a held block's kind, so
                    // no footprint changes.
                    for &index in self.footprints.get(*pos) {
                        let construct = &mut self.constructs[index as usize].2;
                        let blocks = construct.len();
                        construct.apply_modification(*pos, None);
                        debug_assert_eq!(construct.len(), blocks, "a footprint grew");
                    }
                }
                PlayerEvent::ChatMessage | PlayerEvent::InventoryChanged => {}
            }
        }

        // 3. Advance simulated constructs through the configured backend,
        //    one at a time in the order they were added. Zone-restricted
        //    instances step only the constructs living in shards they own,
        //    plus any constructs pinned here by an ownership-aware
        //    migration; other foreign constructs are another server's work.
        for (id, shard, construct) in &mut self.constructs {
            let owned = match &self.ownership {
                Some((map, zone)) => map.zone_of_shard(*shard) == *zone || self.pinned.contains(id),
                None => true,
            };
            if !owned {
                continue;
            }
            match self.sc_backend.resolve(*id, construct, self.tick, now) {
                ScResolution::LocalSimulated => {
                    work.sc_local += 1;
                    self.stats.sc_local += 1;
                }
                ScResolution::SpeculativeApplied => {
                    work.sc_merged += 1;
                    self.stats.sc_merged += 1;
                }
                ScResolution::LoopReplayed => {
                    work.sc_replayed += 1;
                    self.stats.sc_replayed += 1;
                }
                ScResolution::Skipped => {
                    self.stats.sc_skipped += 1;
                }
            }
        }

        // 4. QoS metric: distance to the nearest missing terrain. A
        //    zone-restricted instance is accountable only for owned
        //    terrain, which is all the tracker lists: foreign chunks are
        //    served to clients by the zone that owns them, so they count as
        //    present here — otherwise the interleaved shard layout would
        //    pin the metric to zero.
        let view_range_blocks = self.terrain.view_range_blocks(&self.world, positions);

        // 5. Derive the tick duration from the work performed.
        let duration = self.config.costs.tick_duration(&work, &mut self.rng);

        let report = TickReport {
            tick: self.tick,
            started_at: now,
            duration,
            work,
            view_range_blocks,
        };
        self.reports.push(report);
        self.stats.ticks += 1;
        self.stats.events_processed += events.len() as u64;
        self.stats.chunks_loaded += work.chunks_loaded as u64;

        // 6. Advance the clock: the next tick starts after the fixed tick
        //    interval, or later if this tick overran its budget.
        let tick_budget = self.config.tick_budget();
        self.clock.advance_by(duration.max(tick_budget));
        self.tick = self.tick.next();
        report
    }

    /// Drives the server with a player fleet for `duration` of virtual time,
    /// returning the reports of the executed ticks.
    pub fn run_with_fleet(
        &mut self,
        fleet: &mut PlayerFleet,
        duration: SimDuration,
    ) -> Vec<TickReport> {
        let end = self.clock.now() + duration;
        let tick_budget = self.config.tick_budget();
        let mut reports = Vec::new();
        while self.clock.now() < end {
            let events = fleet.tick(self.clock.now(), tick_budget);
            let positions = fleet.positions();
            reports.push(self.run_tick(&positions, &events));
        }
        reports
    }

    /// Convenience: the set of chunks currently required by the given
    /// positions at the configured view distance.
    pub fn required_chunk_set(&self, positions: &[BlockPos]) -> HashSet<ChunkPos> {
        required_chunks(positions, self.config.view_distance_blocks)
            .into_iter()
            .collect()
    }
}

/// For every block some construct's blueprint holds, the indices into a
/// server's constructs of those constructs, ascending. A block one
/// construct holds, the common case, costs one map entry and no list.
#[derive(Debug, Default)]
struct Footprints {
    /// Per block, the one construct holding it, or [`Footprints::SHARED`]
    /// plus the place of its list in `shared`.
    blocks: HashMap<BlockPos, u32, FxBuildHasher>,
    /// The lists of the blocks more than one construct holds.
    shared: Vec<Vec<u32>>,
}

impl Footprints {
    /// Marks a value of `blocks` as a place in `shared`.
    const SHARED: u32 = 1 << 31;

    /// Adds construct `index`, which must be above every index `pos`
    /// already lists.
    fn insert(&mut self, pos: BlockPos, index: usize) {
        assert!(index < Self::SHARED as usize, "fewer than 2^31 constructs");
        let index = index as u32;
        match self.blocks.entry(pos) {
            Entry::Vacant(slot) => {
                slot.insert(index);
            }
            Entry::Occupied(mut slot) if *slot.get() & Self::SHARED == 0 => {
                let place = self.shared.len();
                assert!(
                    place < Self::SHARED as usize,
                    "fewer than 2^31 shared blocks"
                );
                self.shared.push(vec![*slot.get(), index]);
                slot.insert(Self::SHARED | place as u32);
            }
            Entry::Occupied(slot) => {
                self.shared[(*slot.get() & !Self::SHARED) as usize].push(index)
            }
        }
    }

    /// The constructs holding `pos`, ascending.
    fn get(&self, pos: BlockPos) -> &[u32] {
        match self.blocks.get(&pos) {
            None => &[],
            Some(index) if index & Self::SHARED == 0 => std::slice::from_ref(index),
            Some(place) => &self.shared[(place & !Self::SHARED) as usize],
        }
    }

    fn clear(&mut self) {
        self.blocks.clear();
        self.shared.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{LocalGenerationBackend, LocalScBackend};
    use servo_pcg::FlatGenerator;
    use servo_redstone::generators;
    use servo_workload::BehaviorKind;

    fn flat_server(config: ServerConfig) -> GameServer {
        GameServer::new(
            config.with_view_distance(32),
            Box::new(LocalScBackend::every_other_tick()),
            Box::new(LocalGenerationBackend::new(
                Box::new(FlatGenerator::default()),
                8,
            )),
            SimRng::seed(7),
        )
    }

    fn bounded_fleet(players: usize, seed: u64) -> PlayerFleet {
        let mut fleet =
            PlayerFleet::new(BehaviorKind::Bounded { radius: 24.0 }, SimRng::seed(seed));
        fleet.connect_all(players);
        fleet
    }

    #[test]
    fn runs_at_twenty_ticks_per_second() {
        let mut server = flat_server(ServerConfig::opencraft());
        let mut fleet = bounded_fleet(5, 1);
        let reports = server.run_with_fleet(&mut fleet, SimDuration::from_secs(5));
        // A handful of early ticks overrun while the spawn terrain loads;
        // after that the loop runs at 20 ticks per second.
        assert!(
            (90..=100).contains(&reports.len()),
            "ticks {}",
            reports.len()
        );
        assert_eq!(server.stats().ticks, reports.len() as u64);
        // Virtual time advanced by at least the requested duration.
        assert!(server.now() >= SimTime::from_secs(5));
        // Steady state meets the tick budget.
        let tail = &reports[reports.len() / 2..];
        assert!(tail
            .iter()
            .all(|r| r.duration <= SimDuration::from_millis(50)));
    }

    #[test]
    fn terrain_appears_around_players() {
        let mut server = flat_server(ServerConfig::opencraft());
        let mut fleet = bounded_fleet(3, 2);
        server.run_with_fleet(&mut fleet, SimDuration::from_secs(5));
        assert!(server.world().loaded_chunks() > 0);
        // Eventually all required terrain is loaded: view range recovers to
        // the full view distance.
        let last = server.reports().last().unwrap();
        assert_eq!(last.view_range_blocks, 32.0);
        assert!(server.stats().chunks_loaded > 0);
    }

    #[test]
    fn constructs_advance_every_other_tick_for_baselines() {
        let mut server = flat_server(ServerConfig::opencraft());
        server.add_constructs(4, |_| generators::wire_line(10));
        assert_eq!(server.construct_count(), 4);
        let mut fleet = bounded_fleet(1, 3);
        server.run_with_fleet(&mut fleet, SimDuration::from_secs(2));
        // Constructs are stepped on even ticks only: exactly half of all
        // construct resolutions are skips, and every construct advanced one
        // step per non-skipped tick.
        let stats = server.stats();
        assert_eq!(stats.sc_local + stats.sc_skipped, 4 * stats.ticks);
        assert!(stats.sc_local >= stats.sc_skipped);
        assert!(stats.sc_local <= stats.sc_skipped + 4);
        let id = ConstructId::new(0);
        assert_eq!(
            server.construct(id).unwrap().state().step(),
            stats.sc_local / 4
        );
    }

    #[test]
    fn tick_duration_grows_with_construct_count() {
        let run = |constructs: usize| -> f64 {
            let mut server = flat_server(ServerConfig::opencraft());
            server.add_constructs(constructs, |_| generators::dense_circuit(64));
            let mut fleet = bounded_fleet(10, 4);
            // Let the spawn terrain load, then measure the steady state.
            server.run_with_fleet(&mut fleet, SimDuration::from_secs(2));
            server.discard_reports();
            server.run_with_fleet(&mut fleet, SimDuration::from_secs(3));
            let durations = server.tick_durations();
            durations.iter().map(|d| d.as_millis_f64()).sum::<f64>() / durations.len() as f64
        };
        let few = run(5);
        let many = run(60);
        assert!(many > few * 1.5, "few {few} many {many}");
    }

    #[test]
    fn baseline_distribution_is_bimodal_with_constructs() {
        let mut server = flat_server(ServerConfig::minecraft());
        server.add_constructs(100, |_| generators::dense_circuit(64));
        let mut fleet = bounded_fleet(10, 5);
        server.run_with_fleet(&mut fleet, SimDuration::from_secs(5));
        let reports = server.reports();
        let even: Vec<f64> = reports
            .iter()
            .filter(|r| r.tick.0 % 2 == 0)
            .map(|r| r.duration.as_millis_f64())
            .collect();
        let odd: Vec<f64> = reports
            .iter()
            .filter(|r| r.tick.0 % 2 == 1)
            .map(|r| r.duration.as_millis_f64())
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // SC ticks are clearly more expensive than non-SC ticks.
        assert!(mean(&even) > mean(&odd) + 5.0);
    }

    #[test]
    fn block_events_modify_world_and_invalidate_constructs() {
        let mut server = flat_server(ServerConfig::opencraft());
        let id = server.add_construct(generators::wire_line(5));
        // Pre-load the spawn chunk so block modifications apply.
        let mut fleet = bounded_fleet(1, 6);
        server.run_with_fleet(&mut fleet, SimDuration::from_secs(2));
        let stamp_before = server.construct(id).unwrap().modification_stamp();
        // A player breaks the block at the construct's origin.
        let events = vec![(
            PlayerId::new(0),
            PlayerEvent::BlockBroken(BlockPos::new(0, 0, 0)),
        )];
        let positions = fleet.positions();
        server.run_tick(&positions, &events);
        assert_eq!(server.stats().events_processed, 1);
        assert!(server.construct(id).unwrap().modification_stamp() > stamp_before);
    }

    #[test]
    fn overrunning_ticks_delay_the_clock() {
        let mut server = flat_server(ServerConfig::opencraft());
        // 300 constructs guarantee every SC tick overruns 50 ms.
        server.add_constructs(300, |_| generators::wire_line(3));
        let mut fleet = bounded_fleet(1, 7);
        server.run_with_fleet(&mut fleet, SimDuration::from_secs(1));
        // Fewer than 20 ticks fit in one virtual second because SC ticks
        // take longer than 50 ms.
        assert!(server.stats().ticks < 20, "ticks {}", server.stats().ticks);
    }

    #[test]
    fn discard_reports_keeps_world_state() {
        let mut server = flat_server(ServerConfig::opencraft());
        let mut fleet = bounded_fleet(2, 8);
        server.run_with_fleet(&mut fleet, SimDuration::from_secs(1));
        let chunks = server.world().loaded_chunks();
        server.discard_reports();
        assert!(server.reports().is_empty());
        assert_eq!(server.world().loaded_chunks(), chunks);
    }

    #[test]
    fn fleet_runs_are_reproducible() {
        let run = || {
            let mut server = flat_server(ServerConfig::opencraft());
            server.add_constructs(8, |_| generators::wire_line(6));
            let mut fleet = bounded_fleet(12, 21);
            server.run_with_fleet(&mut fleet, SimDuration::from_secs(3));
            (
                server.stats(),
                server.tick_durations(),
                server.world().total_modifications(),
            )
        };
        let (stats_a, durations_a, mods_a) = run();
        let (stats_b, durations_b, mods_b) = run();
        assert_eq!(stats_a, stats_b);
        assert_eq!(durations_a, durations_b);
        assert_eq!(mods_a, mods_b);
    }

    #[test]
    fn config_builders() {
        let cfg = ServerConfig::minecraft().with_view_distance(64);
        assert_eq!(cfg.view_distance_blocks, 64);
        assert_eq!(cfg.name, "Minecraft");
        assert_eq!(
            ServerConfig::opencraft().tick_budget(),
            SimDuration::from_millis(50)
        );
        assert_eq!(ServerConfig::servo_base().name, "Servo");
    }
}

#[cfg(test)]
mod footprint_tests {
    //! The footprint index against the scan it replaced: every construct
    //! probed with `Blueprint::index_of` for every block event.

    use super::*;
    use crate::backends::{LocalGenerationBackend, LocalScBackend};
    use proptest::prelude::*;
    use servo_pcg::FlatGenerator;
    use servo_redstone::CircuitBlock;

    /// A block inside the small box every drawn blueprint and event shares,
    /// so footprints overlap and most events hit something.
    fn arb_block() -> impl Strategy<Value = BlockPos> {
        (0i32..4, 5i32..7, 0i32..4).prop_map(|(x, y, z)| BlockPos::new(x, y, z))
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Adds a construct over these blocks.
        Add(Vec<(BlockPos, CircuitBlock)>),
        /// Takes the construct at this index (modulo the count).
        Take(usize),
        /// Adopts this construct of the taken ones (modulo their count), or
        /// a fresh one-block construct when none was taken.
        Adopt(usize),
        /// Runs one tick with these block events.
        Events(Vec<(BlockPos, bool)>),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let kind = prop::sample::select(vec![
            CircuitBlock::PowerSource,
            CircuitBlock::Wire,
            CircuitBlock::Lamp,
            CircuitBlock::Torch,
        ]);
        prop_oneof![
            3 => prop::collection::vec((arb_block(), kind), 1..6).prop_map(Op::Add),
            1 => (0usize..16).prop_map(Op::Take),
            1 => (0usize..16).prop_map(Op::Adopt),
            4 => prop::collection::vec((arb_block(), any::<bool>()), 0..5).prop_map(Op::Events),
        ]
    }

    fn server() -> GameServer {
        GameServer::new(
            ServerConfig::opencraft(),
            Box::new(LocalScBackend::every_tick()),
            Box::new(LocalGenerationBackend::new(
                Box::new(FlatGenerator::default()),
                1,
            )),
            SimRng::seed(7),
        )
    }

    /// The constructs holding `pos`, by scanning every construct.
    fn scan(constructs: &[(ConstructId, Construct)], pos: BlockPos) -> Vec<usize> {
        (0..constructs.len())
            .filter(|&i| constructs[i].1.blueprint().index_of(pos).is_some())
            .collect()
    }

    /// Applies `ops` to a server and to a scan-based reference of its
    /// constructs (events applied by scanning, then every construct
    /// stepped, as `LocalScBackend::every_tick` does), calling `check`
    /// after each step.
    fn drive(ops: &[Op], mut check: impl FnMut(&GameServer, &[(ConstructId, Construct)])) {
        let mut server = server();
        let mut reference: Vec<(ConstructId, Construct)> = Vec::new();
        let mut taken: Vec<Construct> = Vec::new();
        for op in ops {
            match op {
                Op::Add(blocks) => {
                    let mut blueprint = Blueprint::new();
                    for &(pos, kind) in blocks {
                        blueprint.add(pos, kind);
                    }
                    let id = server.add_construct(blueprint.clone());
                    reference.push((id, Construct::new(blueprint)));
                }
                Op::Take(k) if !reference.is_empty() => {
                    let (id, construct) = reference.remove(k % reference.len());
                    assert_eq!(server.take_construct(id).as_ref(), Some(&construct));
                    taken.push(construct);
                }
                Op::Take(_) => {}
                Op::Adopt(k) => {
                    let construct = if taken.is_empty() {
                        let mut blueprint = Blueprint::new();
                        blueprint.add(BlockPos::new(1, 5, 1), CircuitBlock::Wire);
                        Construct::new(blueprint)
                    } else {
                        taken.remove(k % taken.len())
                    };
                    let id = server.adopt_construct(construct.clone());
                    reference.push((id, construct));
                }
                Op::Events(events) => {
                    let events: Vec<(PlayerId, PlayerEvent)> = events
                        .iter()
                        .map(|&(pos, placed)| {
                            let event = if placed {
                                PlayerEvent::BlockPlaced(pos)
                            } else {
                                PlayerEvent::BlockBroken(pos)
                            };
                            (PlayerId::new(0), event)
                        })
                        .collect();
                    server.run_tick(&[], &events);
                    for (_, event) in &events {
                        let (PlayerEvent::BlockPlaced(pos) | PlayerEvent::BlockBroken(pos)) = event
                        else {
                            unreachable!("only block events are drawn");
                        };
                        for i in scan(&reference, *pos) {
                            reference[i].1.apply_modification(*pos, None);
                        }
                    }
                    for (_, construct) in &mut reference {
                        construct.step();
                    }
                }
            }
            check(&server, &reference);
        }
    }

    proptest! {
        /// After every add, take, adopt and tick, the index lists for each
        /// block exactly the constructs a scan finds holding it, in the
        /// server's construct order, and indexes no other block.
        #[test]
        fn the_index_lists_what_a_scan_finds(ops in prop::collection::vec(arb_op(), 1..40)) {
            drive(&ops, |server, _| {
                let held: Vec<(ConstructId, Construct)> = server
                    .constructs
                    .iter()
                    .map(|(id, _, construct)| (*id, construct.clone()))
                    .collect();
                for x in 0..4 {
                    for z in 0..4 {
                        for y in 4..8 {
                            let pos = BlockPos::new(x, y, z);
                            let hits: Vec<usize> =
                                server.footprints.get(pos).iter().map(|&i| i as usize).collect();
                            assert_eq!(hits, scan(&held, pos), "at {pos:?}");
                        }
                    }
                }
                let indexed: usize = server
                    .footprints
                    .blocks
                    .keys()
                    .map(|&pos| server.footprints.get(pos).len())
                    .sum();
                let blocks: usize = held.iter().map(|(_, c)| c.len()).sum();
                assert_eq!(indexed, blocks);
            });
        }

        /// A server applying block events through the index leaves every
        /// construct, in the same order, in the state the scan gives.
        #[test]
        fn indexed_events_match_the_scan(ops in prop::collection::vec(arb_op(), 1..40)) {
            drive(&ops, |server, reference| {
                let ids: Vec<ConstructId> = server.constructs.iter().map(|(id, _, _)| *id).collect();
                let expected: Vec<ConstructId> = reference.iter().map(|(id, _)| *id).collect();
                assert_eq!(ids, expected);
                for (id, construct) in reference {
                    assert_eq!(server.construct(*id), Some(construct));
                }
            });
        }
    }
}
