//! Zoned multi-server clusters over real [`GameServer`] instances.
//!
//! Zoning (paper Section II-B) partitions the world over servers. This
//! module *runs* it: a [`ShardedGameCluster`] is `N` real game servers,
//! each restricted ([`GameServer::restrict_to_zone`]) to a disjoint set of
//! [`ShardedWorld`](servo_world::ShardedWorld) shards assigned by a
//! [`ShardMap`], connected by a deterministic cross-zone message bus. Every
//! tick the cluster
//!
//! 1. routes avatars and player events to the zone owning the terrain
//!    under them (a [`ZoneRouter`]); an avatar that moved onto another
//!    zone's terrain is *handed off* — session state crosses the wire;
//! 2. runs one real tick on every member server (real constructs stepped,
//!    real chunks generated and inserted, per-zone cost model durations);
//! 3. executes the border protocol: dirty *border chunks* (chunks with a
//!    laterally adjacent chunk owned by another zone) are mirrored to the
//!    neighbouring servers, and every *border construct* (a construct whose
//!    blocks span zones) exchanges state between its owner and the other
//!    involved zones on each simulated tick;
//! 4. charges each message to both endpoint servers and reports the
//!    slowest member as the cluster's critical path, as a [`ClusterTick`].
//!
//! The cluster is deterministic: routing, the border protocol and message
//! accounting consume no randomness, zones tick in index order, and each
//! member server keeps its own seeded random stream — a 1-zone cluster is
//! tick-for-tick identical to a plain [`GameServer`] (asserted by the
//! `cluster_equivalence` test suite).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use servo_metrics::StatsReport;
use servo_pcg::generator_for;
use servo_redstone::Blueprint;
use servo_replication::{
    FanoutStage, FanoutStats, Interest, ReplicationConfig, ReplicationHub, ReplicationStats,
    SubscriberId,
};
use servo_simkit::{SimClock, SimRng};
use servo_storage::{
    BlobStore, ChunkService, PersistenceStats, PipelinedChunkService, SharedWal, WriteBackDriver,
};
use servo_types::{BlockPos, ChunkPos, ConstructId, PlayerId, SimDuration, SimTime};
use servo_workload::{PlayerEvent, PlayerFleet, ZoneRouter};
use servo_world::{
    required_chunks, shard_index, Chunk, ConstructFootprint, ConstructMigration, RebalanceConfig,
    RebalancePolicy, ShardDelta, ShardMap, ShardMigration, ZoneLoadSample,
};

use crate::backends::{LocalGenerationBackend, LocalScBackend};
use crate::server::{GameServer, ServerConfig, ServerStats, TickReport};

/// Milliseconds charged to an endpoint server per cross-zone message it
/// sends or receives (the sender serializes and transmits, the receiver
/// deserializes, validates and applies under its tick lock). Calibrated so
/// coordination is negligible for player-only workloads but dominates once
/// hundreds of border constructs must be synchronized every simulated
/// tick, matching the argument of paper Section II-B.
const MESSAGE_COST_MS: f64 = 0.5;

/// The cross-server messages of one cluster tick: how many were sent, and
/// how many each zone server sent or received. Every message the cluster
/// charges goes through one of the two methods below, so the count and the
/// per-zone coordination cost cannot drift apart.
struct MessageLedger {
    messages: u64,
    endpoints: Vec<u64>,
}

impl MessageLedger {
    fn new(zones: usize) -> Self {
        MessageLedger {
            messages: 0,
            endpoints: vec![0; zones],
        }
    }

    /// `count` messages between two servers: each burdens its sender and
    /// its receiver. The ledger never looks at liveness — a site that must
    /// skip or single-side a dead peer says so itself, and a player
    /// handoff out of a crashed zone charges both slots.
    fn charge(&mut self, a: usize, b: usize, count: u64) {
        self.messages += count;
        self.endpoints[a] += count;
        self.endpoints[b] += count;
    }

    /// `count` messages only `zone` pays for: the peer is a dead server
    /// (crash detection, adoption control, construct re-homing) or the
    /// storage substrate (chunk restore, WAL replay), neither of which has
    /// a tick to burden.
    fn charge_one_sided(&mut self, zone: usize, count: u64) {
        self.messages += count;
        self.endpoints[zone] += count;
    }
}

/// How border-construct state crosses zone seams each simulated tick.
///
/// Classic zoned deployments synchronize every cross-border entity
/// individually ([`BorderExchange::PerConstruct`]) — the per-entity
/// messaging the paper's Section II-B identifies as zoning's failure mode.
/// The hybrid zoned+offloading deployment instead bundles all border
/// construct states between one (owner, neighbour) server pair into a
/// single message per simulated tick ([`BorderExchange::Batched`]):
/// offloaded speculative sequences make construct states available as
/// compact precomputed bundles, so the coordinated deployment ships one
/// state bundle plus acknowledgement per server pair instead of one
/// round-trip per construct.
///
/// [`BorderExchange::Speculative`] goes one step further: when a
/// construct's owner is serving it from a precomputed speculative sequence
/// in *shared* remote storage ([`crate::ScBackend::published_sequence`]),
/// neighbours join the sequence instead of receiving state at all. The
/// owner publishes one handle message when the sequence identity changes
/// (new invocation, post-modification re-speculation, migration) and
/// nothing while it stays valid — neighbours replay the stored states
/// themselves. Constructs without a published sequence (invalidated,
/// in-flight, or locally simulated) fall back to the eager batched
/// exchange for exactly that tick, so the arm never under-delivers state:
/// with a backend that never publishes (the local baselines) it is
/// message-for-message identical to [`BorderExchange::Batched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BorderExchange {
    /// One state + acknowledgement (2 messages) per border construct and
    /// involved neighbour zone, every simulated tick — the classic zoned
    /// baseline the ablation measures.
    #[default]
    PerConstruct,
    /// One state bundle + acknowledgement (2 messages) per (owner,
    /// neighbour) zone pair with at least one simulated border construct —
    /// the hybrid deployment's coordinated exchange.
    Batched,
    /// Neighbours replay the owner's published speculative sequence from
    /// shared storage: one handle message per neighbour when the sequence
    /// identity changes, zero messages while it remains valid, eager
    /// batched fallback for constructs with nothing published.
    Speculative,
}

/// Builder-style description of one zone's persistence attachment,
/// consumed by [`ShardedGameCluster::bind_persistence`].
///
/// ```
/// use servo_server::PersistenceBinding;
/// use servo_simkit::SimRng;
/// use servo_storage::{BlobStore, BlobTier};
///
/// let rng = SimRng::seed(7);
/// let binding = PersistenceBinding::new(
///     BlobStore::new(BlobTier::Standard, rng.substream("blob")),
///     rng.substream("disk"),
/// )
/// .write_back_interval(20);
/// assert_eq!(binding.write_back_interval, 20);
/// ```
#[derive(Debug)]
pub struct PersistenceBinding {
    /// The zone's remote blob store.
    pub remote: BlobStore,
    /// Randomness for the pipeline's disk latency model.
    pub rng: SimRng,
    /// Cluster ticks between write-back passes (clamped to ≥ 1).
    pub write_back_interval: u64,
}

impl PersistenceBinding {
    /// A binding with the default write-back cadence (every 20 cluster
    /// ticks — one second at 20 Hz).
    pub fn new(remote: BlobStore, rng: SimRng) -> PersistenceBinding {
        PersistenceBinding {
            remote,
            rng,
            write_back_interval: 20,
        }
    }

    /// Sets the cluster ticks between write-back passes.
    pub fn write_back_interval(mut self, interval: u64) -> PersistenceBinding {
        self.write_back_interval = interval;
        self
    }
}

/// One zone's persistence pipeline: a [`PipelinedChunkService`] bound to
/// the zone's world restricted to its owned shards, fed by the dirty
/// deltas `run_tick` drains (`GameServer::drain_owned_dirty`) and driven
/// on the zone's write-back cadence.
struct ZonePersistence {
    driver: WriteBackDriver,
    /// The zone's write-ahead delta log. The cluster holds this clone in
    /// addition to the service's own: the log models a durable device
    /// (replicated log service, attached journal volume) that *survives*
    /// the zone server, so recovery replays it after the pipeline is
    /// fenced. `None` when durability was explicitly disabled
    /// ([`ShardedGameCluster::set_wal_enabled`]) — the configuration whose
    /// data-loss window the failure ablation measures.
    wal: Option<SharedWal>,
    /// Set when the zone crashes: a fenced pipeline accepts no more
    /// staging, cadence passes, or flushes — its remote store keeps
    /// exactly the bytes it held at the crash.
    fenced: bool,
}

/// Lifetime counters of a cluster's cross-zone coordination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Cluster ticks executed.
    pub ticks: u64,
    /// Total cross-server messages exchanged.
    pub cross_server_messages: u64,
    /// Avatars handed off between zone servers.
    pub handoffs: u64,
    /// Border-chunk updates mirrored to neighbouring zones.
    pub border_chunk_updates: u64,
    /// Border-construct state exchanges performed (one per construct and
    /// involved neighbour zone, on simulated ticks). This is the *logical*
    /// count — how many construct states crossed a seam — independent of
    /// how the wire carries them; [`ClusterStats::batched_bundles`],
    /// [`ClusterStats::speculation_handles`] and
    /// [`ClusterStats::speculative_replays`] break down the wire side.
    pub construct_exchanges: u64,
    /// Bundled (owner, neighbour) pair exchanges sent on the wire — one
    /// per pair per simulated tick under [`BorderExchange::Batched`], and
    /// for the eager-fallback pairs of [`BorderExchange::Speculative`].
    /// Zero in per-construct mode, where every exchange is its own
    /// round-trip.
    pub batched_bundles: u64,
    /// Speculation-handle messages published to neighbours under
    /// [`BorderExchange::Speculative`] — one per neighbour each time a
    /// border construct's published sequence identity changes.
    pub speculation_handles: u64,
    /// Border exchanges served with *zero* messages because the neighbour
    /// replayed the owner's still-valid published sequence from shared
    /// storage.
    pub speculative_replays: u64,
    /// Block events in border chunks forwarded to neighbouring zones (so
    /// replica terrain and cross-zone construct state observe the edit).
    pub forwarded_border_events: u64,
    /// Client replication frames pushed onto the bus's bulk lane by the
    /// fan-out stage. Zero while no replication hub is attached.
    pub replication_frames: u64,
}

impl StatsReport for ClusterStats {
    fn section(&self) -> &'static str {
        "cluster"
    }

    fn report(&self) -> Vec<(&'static str, String)> {
        vec![
            ("ticks", self.ticks.to_string()),
            (
                "cross_server_messages",
                self.cross_server_messages.to_string(),
            ),
            ("handoffs", self.handoffs.to_string()),
            (
                "border_chunk_updates",
                self.border_chunk_updates.to_string(),
            ),
            ("construct_exchanges", self.construct_exchanges.to_string()),
            ("batched_bundles", self.batched_bundles.to_string()),
            ("speculation_handles", self.speculation_handles.to_string()),
            ("speculative_replays", self.speculative_replays.to_string()),
            (
                "forwarded_border_events",
                self.forwarded_border_events.to_string(),
            ),
            ("replication_frames", self.replication_frames.to_string()),
        ]
    }
}

/// Lifetime counters of the dynamic rebalancing machinery — the cost side
/// of the migration storms a [`RebalancePolicy`] triggers. All zero while
/// no rebalancing is enabled or the policy never fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Migration batches applied (each batch is one policy decision).
    pub rebalance_events: u64,
    /// Individual shard ownership changes applied.
    pub shard_migrations: u64,
    /// Loaded chunks shipped from a shard's old owner to its new owner.
    pub chunks_transferred: u64,
    /// Constructs whose simulation state moved servers with their shard.
    pub constructs_transferred: u64,
    /// Border constructs migrated to the zone owning the majority of their
    /// blocks by the policy's border-traffic term — ownership-aware moves
    /// that carry no shard with them.
    pub construct_migrations: u64,
    /// Staged-but-unflushed dirty chunks handed from the source zone's
    /// persistence pipeline to the destination's during the quiesce.
    pub staged_dirty_handed_off: u64,
    /// Cross-server messages charged for migrations (control, chunk and
    /// construct transfers) — a subset of
    /// [`ClusterStats::cross_server_messages`].
    pub migration_messages: u64,
}

impl StatsReport for RebalanceStats {
    fn section(&self) -> &'static str {
        "rebalance"
    }

    fn report(&self) -> Vec<(&'static str, String)> {
        vec![
            ("rebalance_events", self.rebalance_events.to_string()),
            ("shard_migrations", self.shard_migrations.to_string()),
            ("chunks_transferred", self.chunks_transferred.to_string()),
            (
                "constructs_transferred",
                self.constructs_transferred.to_string(),
            ),
            (
                "construct_migrations",
                self.construct_migrations.to_string(),
            ),
            (
                "staged_dirty_handed_off",
                self.staged_dirty_handed_off.to_string(),
            ),
            ("migration_messages", self.migration_messages.to_string()),
        ]
    }
}

/// Lifetime counters of the crash-recovery machinery. All zero until a
/// zone crashes ([`ShardedGameCluster::crash_zone`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Zone crashes executed.
    pub crashes: u64,
    /// Orphaned shards adopted by surviving zones.
    pub shards_adopted: u64,
    /// Constructs re-homed onto surviving zones with their state.
    pub constructs_adopted: u64,
    /// Chunks rebuilt from the dead zone's remote store during adoption.
    pub chunks_restored: u64,
    /// Chunks rebuilt from the dead zone's write-ahead log — the
    /// staged-but-unflushed window the periodic write-back cadence leaves
    /// open, which only the WAL can close.
    pub chunks_replayed: u64,
    /// Staged-but-unflushed chunks whose bytes died with the zone's memory
    /// (not covered by any WAL record). Zero whenever the WAL is enabled;
    /// grows with the flush cadence when it is not.
    pub chunks_lost: u64,
    /// Cross-server messages charged for failure detection and adoption —
    /// a subset of [`ClusterStats::cross_server_messages`].
    pub recovery_messages: u64,
    /// Cluster ticks from the crash until the cluster was back inside its
    /// tick budget with no adoption pending.
    pub recovery_ticks: u64,
    /// Recovery ticks whose critical path overran the tick budget — the
    /// QoS dip the adoption storm causes.
    pub ticks_over_qos: u64,
}

impl StatsReport for RecoveryStats {
    fn section(&self) -> &'static str {
        "recovery"
    }

    fn report(&self) -> Vec<(&'static str, String)> {
        vec![
            ("crashes", self.crashes.to_string()),
            ("shards_adopted", self.shards_adopted.to_string()),
            ("constructs_adopted", self.constructs_adopted.to_string()),
            ("chunks_restored", self.chunks_restored.to_string()),
            ("chunks_replayed", self.chunks_replayed.to_string()),
            ("chunks_lost", self.chunks_lost.to_string()),
            ("recovery_messages", self.recovery_messages.to_string()),
            ("recovery_ticks", self.recovery_ticks.to_string()),
            ("ticks_over_qos", self.ticks_over_qos.to_string()),
        ]
    }
}

/// One registered construct as the cluster tracks it: where it currently
/// lives and which chunks its blocks cover, so a shard migration can move
/// it and recompute its border relationships under the new ownership.
#[derive(Debug, Clone)]
struct RegisteredConstruct {
    /// The zone currently simulating the construct.
    zone: usize,
    /// Its id *within that zone's server* (ids change when a construct is
    /// adopted by a new server).
    id: ConstructId,
    /// The chunk of the blueprint's first block — its shard decides which
    /// zone owns the construct. `None` for empty blueprints, which are
    /// pinned to zone 0 and never migrate.
    home: Option<ChunkPos>,
    /// The distinct chunks the blueprint's blocks cover, ascending.
    chunks: Vec<ChunkPos>,
    /// Every block position of the blueprint — the footprint the
    /// border-traffic rebalancing term counts per zone.
    blocks: Vec<BlockPos>,
    /// The published-sequence identity the neighbours last received a
    /// handle for, under [`BorderExchange::Speculative`]. `None` until a
    /// handle was published, and reset whenever the construct changes
    /// servers (the new backend has nothing published yet).
    published: Option<crate::PublishedSequence>,
}

/// The opt-in rebalancing state of a cluster.
struct Rebalancer {
    policy: RebalancePolicy,
    /// Dirty chunk counts per shard accumulated since the last policy
    /// observation (fed by the tick's owned-dirty drains).
    shard_dirty: Vec<u64>,
}

/// One zone's share of a cluster tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneTickBreakdown {
    /// The zone index.
    pub zone: usize,
    /// Avatars this zone simulated this tick.
    pub players: usize,
    /// The member server's own tick duration (simulation work).
    pub duration: SimDuration,
    /// Cross-zone coordination charged to this server this tick.
    pub coordination: SimDuration,
}

/// The per-tick outcome of a multi-server cluster: the longest tick duration
/// over all member servers (the cluster is only as fast as its slowest
/// member) plus some bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterTick {
    /// The slowest member's tick duration, which determines the cluster's
    /// effective simulation latency.
    pub critical_path: SimDuration,
    /// Cross-server messages exchanged this tick.
    pub cross_server_messages: u64,
}

/// A [`ClusterTick`] plus the per-zone detail behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTickDetail {
    /// The critical path and message count, in the shape the analytic
    /// models and the `servo_metrics` consumers expect.
    pub tick: ClusterTick,
    /// Per-zone simulation and coordination breakdown.
    pub zones: Vec<ZoneTickBreakdown>,
    /// Avatars handed off between zones at the start of this tick.
    pub handoffs: u64,
    /// Shard migrations applied at this tick's boundary (zero unless a
    /// rebalancing policy fired; their messages are charged to this tick).
    pub shard_migrations: u64,
}

/// A border construct: simulated by `owner`, with block state spanning
/// into `neighbors`, which must therefore receive its state every
/// simulated tick.
#[derive(Debug, Clone)]
struct BorderConstruct {
    /// The construct's index in the cluster registry (for the per-construct
    /// published-sequence bookkeeping of the speculative exchange).
    index: usize,
    owner: usize,
    neighbors: Vec<usize>,
}

/// A zoned cluster of real [`GameServer`]s partitioned over world shards.
///
/// See the module documentation for the tick protocol. Use
/// [`ShardedGameCluster::baseline`] for the configuration the zoning
/// ablation measures (local simulation and generation per zone, the way
/// classic zoned deployments work), or [`ShardedGameCluster::new`] to wire
/// custom per-zone servers.
pub struct ShardedGameCluster {
    map: Arc<ShardMap>,
    servers: Vec<GameServer>,
    router: ZoneRouter,
    border_exchange: BorderExchange,
    clock: SimClock,
    /// Derived from `registry` under the current map; rebuilt after every
    /// migration batch.
    border_constructs: Vec<BorderConstruct>,
    /// Every registered construct, in registration order.
    registry: Vec<RegisteredConstruct>,
    details: Vec<ClusterTickDetail>,
    stats: ClusterStats,
    /// Per-zone persistence pipelines (attached via
    /// [`ShardedGameCluster::bind_persistence`]).
    persistence: Vec<Option<ZonePersistence>>,
    /// Opt-in dynamic rebalancing (see
    /// [`ShardedGameCluster::enable_rebalancing`]).
    rebalancer: Option<Rebalancer>,
    rebalance_stats: RebalanceStats,
    /// The previous tick's per-zone load samples, fed to the policy at the
    /// next tick boundary. Empty until the first tick ran.
    last_zone_loads: Vec<ZoneLoadSample>,
    /// Per-zone liveness. A dead zone no longer ticks, persists, mirrors,
    /// or exchanges border state; its shards are adopted by survivors.
    dead: Vec<bool>,
    /// Scheduled crashes not yet executed, as `(tick, zone)`.
    failure_plan: Vec<(u64, usize)>,
    /// Orphaned shards awaiting adoption, each with its designated
    /// surviving adopter, in deterministic round-robin order. Drained by
    /// up to the migration budget per tick.
    pending_adoptions: VecDeque<(usize, usize)>,
    /// Shard → designated adopter for shards still awaiting adoption —
    /// the interim routing rule, so avatars and events on orphaned
    /// terrain reach the zone about to own it instead of the dead one.
    pending_owner: BTreeMap<usize, usize>,
    recovery_stats: RecoveryStats,
    /// Set from a crash until the cluster is back inside its tick budget
    /// with no adoption pending (the bounded recovery window
    /// [`RecoveryStats::recovery_ticks`] measures).
    recovering: bool,
    /// Opt-in client replication (see
    /// [`ShardedGameCluster::enable_replication`]). `None` leaves every
    /// observable byte of the tick unchanged.
    replication: Option<ClusterReplication>,
}

/// The cluster's replication attachment: the subscription index plus the
/// fan-out stage, and the switches controlling how they ride the tick.
struct ClusterReplication {
    hub: ReplicationHub,
    fanout: FanoutStage,
    /// Round-robin flush cohorts (≥ 1).
    cohorts: u64,
    /// Border mirroring routes through border subscriptions.
    border_via_subscription: bool,
}

impl std::fmt::Debug for ShardedGameCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGameCluster")
            .field("zones", &self.servers.len())
            .field("constructs", &self.registry.len())
            .field("border_constructs", &self.border_constructs.len())
            .field("ticks", &self.stats.ticks)
            .finish()
    }
}

impl ShardedGameCluster {
    /// Builds a cluster of `zones` servers produced by `build(zone)`, each
    /// restricted to the shards a contiguous [`ShardMap`] assigns to its
    /// zone. All member servers must share one world shard count (the
    /// map's) and tick rate.
    ///
    /// # Panics
    ///
    /// Panics if `zones` is zero, a member's world has a different shard
    /// count than zone 0's, or a member's tick rate differs from zone 0's.
    pub fn new(zones: usize, mut build: impl FnMut(usize) -> GameServer) -> Self {
        assert!(zones > 0, "a cluster needs at least one zone");
        let mut servers: Vec<GameServer> = (0..zones).map(&mut build).collect();
        let shard_count = servers[0].world().shard_count();
        let tick_rate = servers[0].config().tick_rate_hz;
        let map = Arc::new(ShardMap::contiguous(shard_count, zones));
        for (zone, server) in servers.iter_mut().enumerate() {
            assert_eq!(
                server.world().shard_count(),
                shard_count,
                "zone {zone} world has a different shard count"
            );
            assert_eq!(
                server.config().tick_rate_hz,
                tick_rate,
                "zone {zone} runs at a different tick rate"
            );
            server.restrict_to_zone(Arc::clone(&map), zone);
        }
        ShardedGameCluster {
            map,
            router: ZoneRouter::new(zones),
            servers,
            border_exchange: BorderExchange::default(),
            clock: SimClock::new(),
            border_constructs: Vec::new(),
            registry: Vec::new(),
            details: Vec::new(),
            stats: ClusterStats::default(),
            persistence: (0..zones).map(|_| None).collect(),
            rebalancer: None,
            rebalance_stats: RebalanceStats::default(),
            last_zone_loads: Vec::new(),
            dead: vec![false; zones],
            failure_plan: Vec::new(),
            pending_adoptions: VecDeque::new(),
            pending_owner: BTreeMap::new(),
            recovery_stats: RecoveryStats::default(),
            recovering: false,
            replication: None,
        }
    }

    /// Builds the classic zoned deployment the ablation measures: every
    /// zone is a baseline server (local construct simulation every other
    /// tick, bounded local terrain generation) with configuration `config`
    /// and its own `zone`-indexed random substream of `seed`.
    pub fn baseline(config: ServerConfig, zones: usize, seed: u64) -> Self {
        let root = SimRng::seed(seed);
        ShardedGameCluster::new(zones, |zone| {
            GameServer::new(
                config.clone(),
                Box::new(LocalScBackend::every_other_tick()),
                Box::new(LocalGenerationBackend::new(
                    generator_for(config.world_kind, seed),
                    8,
                )),
                root.substream_indexed("zone", zone as u64),
            )
        })
    }

    /// Selects how border-construct state crosses zone seams, returning
    /// the cluster. Defaults to [`BorderExchange::PerConstruct`] (the
    /// classic zoned baseline); hybrid deployments use
    /// [`BorderExchange::Batched`].
    pub fn with_border_exchange(mut self, exchange: BorderExchange) -> Self {
        self.border_exchange = exchange;
        self
    }

    /// The configured border-exchange mode.
    pub fn border_exchange(&self) -> BorderExchange {
        self.border_exchange
    }

    /// Enables dynamic rebalancing: every tick the cluster feeds `policy`
    /// the previous tick's per-zone loads and the avatar/dirty heat of
    /// every shard, and applies whatever migrations it proposes at the
    /// tick boundary (before routing, so avatars re-route to the new
    /// owners in the same tick). A policy that never proposes leaves the
    /// cluster tick-for-tick identical to a static one: the observation
    /// path consumes no randomness, sends no messages, and touches no
    /// clocks (asserted by the `cluster_equivalence` suite).
    pub fn enable_rebalancing(&mut self, policy: RebalancePolicy) {
        self.rebalancer = Some(Rebalancer {
            policy,
            shard_dirty: vec![0; self.map.shard_count()],
        });
    }

    /// Lifetime counters of the rebalancing machinery (all zero while no
    /// policy is enabled or it never fired).
    pub fn rebalance_stats(&self) -> RebalanceStats {
        self.rebalance_stats
    }

    /// Where the `index`-th registered construct (in
    /// [`ShardedGameCluster::add_construct`] order) currently lives:
    /// `(zone, id within that zone's server)`. Migrations move constructs
    /// between servers — and ids change on adoption — so this lookup is
    /// the stable handle.
    pub fn construct_location(&self, index: usize) -> Option<(usize, ConstructId)> {
        self.registry.get(index).map(|entry| (entry.zone, entry.id))
    }

    /// Attaches `zone`'s persistence pipeline from a [`PersistenceBinding`]:
    /// a [`PipelinedChunkService`] in front of the binding's remote store,
    /// staging exactly the owned dirty deltas the cluster tick drains (one
    /// zone never flushes another zone's chunks). Every
    /// `write_back_interval` cluster ticks the zone prefetches the owned
    /// terrain its players need and flushes its dirty shards — the per-zone
    /// equivalent of `ServoDeployment`'s persistence path, fed by the same
    /// `drain_owned_dirty` deltas the border protocol consumes.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is out of range.
    pub fn bind_persistence(&mut self, zone: usize, binding: PersistenceBinding) {
        let PersistenceBinding {
            remote,
            rng,
            write_back_interval,
        } = binding;
        // Bind the world with an EMPTY pull set: the tick's
        // `drain_owned_dirty` (step 3a) is the single consumer of the
        // world's dirty flags, and it feeds the service via `stage_dirty`.
        // If the service pulled dirty shards itself, a write-back pass
        // would take chunks out of that destructive drain before the
        // border protocol saw them, and mirroring would silently miss
        // them. The world binding remains so write-back re-snapshots
        // staged chunks from it.
        // Durability is on by default: a write-ahead delta log shared
        // between the pipeline's segments and the cluster, so the log (a
        // durable device in the model) survives a crash of the zone. WAL
        // maintenance consumes no randomness, messages, or clock, so a
        // no-failure run is byte-identical with or without it.
        let wal = SharedWal::new(self.servers[zone].world().shard_count());
        let service = PipelinedChunkService::new(remote, rng, 1)
            .with_world_shards(self.servers[zone].world_handle(), &[])
            .with_wal(wal.clone());
        self.persistence[zone] = Some(ZonePersistence {
            driver: WriteBackDriver::new(service, write_back_interval),
            wal: Some(wal),
            fenced: false,
        });
    }

    /// Enables or disables the write-ahead delta log of `zone`'s
    /// persistence pipeline. Attached pipelines have the WAL on by
    /// default; the failure ablation's no-WAL arms disable it to measure
    /// the data-loss window the write-back cadence leaves open. No-op when
    /// the zone has no pipeline attached.
    pub fn set_wal_enabled(&mut self, zone: usize, enabled: bool) {
        let shard_count = self.map.shard_count();
        let Some(persistence) = self.persistence.get_mut(zone).and_then(|p| p.as_mut()) else {
            return;
        };
        if enabled && persistence.wal.is_none() {
            let wal = SharedWal::new(shard_count);
            persistence.driver.service.set_wal(Some(wal.clone()));
            persistence.wal = Some(wal);
        } else if !enabled {
            persistence.driver.service.set_wal(None);
            persistence.wal = None;
        }
    }

    /// The write-ahead log handle of `zone`'s persistence pipeline, when
    /// one is attached with durability enabled.
    pub fn persistence_wal(&self, zone: usize) -> Option<SharedWal> {
        self.persistence
            .get(zone)
            .and_then(|p| p.as_ref())
            .and_then(|p| p.wal.clone())
    }

    /// The persistence counters of one zone, or `None` when the zone has
    /// no pipeline attached.
    pub fn persistence_stats(&self, zone: usize) -> Option<PersistenceStats> {
        self.persistence
            .get(zone)
            .and_then(|p| p.as_ref())
            .map(|p| p.driver.stats())
    }

    /// The persistence counters summed over all zones.
    pub fn persistence_stats_total(&self) -> PersistenceStats {
        let mut total = PersistenceStats::default();
        for persistence in self.persistence.iter().flatten() {
            total.absorb(persistence.driver.stats());
        }
        total
    }

    /// The cache-effectiveness counters of one zone's persistence
    /// pipeline, or `None` when the zone has no pipeline attached.
    pub fn persistence_cache_stats(&self, zone: usize) -> Option<servo_storage::CacheStats> {
        self.persistence
            .get(zone)
            .and_then(|p| p.as_ref())
            .map(|p| p.driver.service.stats())
    }

    /// Runs `f` against one zone's persisted blob store (e.g. to inspect
    /// what reached storage). Returns `None` when the zone has no pipeline
    /// attached.
    pub fn with_persisted<T>(&self, zone: usize, f: impl FnOnce(&mut BlobStore) -> T) -> Option<T> {
        self.persistence
            .get(zone)
            .and_then(|p| p.as_ref())
            .map(|p| p.driver.service.with_remote(f))
    }

    /// The one consumer of a destructive dirty drain of `zone`'s world —
    /// the tick's step 3a, a mid-run persistence flush and a migration's
    /// quiesce all come through here, so no drain can skip a reader. Feeds
    /// `deltas` to the client subscription index (when a hub is attached),
    /// then mirrors every border chunk into the replica worlds of the
    /// zones owning laterally adjacent terrain, one message per chunk and
    /// neighbour. Who the neighbours are comes from the shard map, or from
    /// the hub's border subscriptions when
    /// [`ReplicationConfig::border_via_subscription`] is set — the zones
    /// whose whole-shard interest covers the chunk, which is the same set.
    fn mirror_drained_deltas(
        &mut self,
        zone: usize,
        deltas: &[ShardDelta],
        ledger: &mut MessageLedger,
    ) {
        let mut border_hub = None;
        if let Some(repl) = self.replication.as_mut() {
            repl.hub.sync_partition();
            repl.hub.ingest(deltas);
            if repl.border_via_subscription {
                border_hub = Some(&mut repl.hub);
            }
        }
        for delta in deltas {
            for &pos in &delta.chunks {
                let neighbors = match &border_hub {
                    Some(hub) => hub.border_zones_covering(pos),
                    None => self.map.neighbor_zones(pos),
                };
                if neighbors.is_empty() {
                    continue;
                }
                // Read the owner's chunk once and copy it into each
                // neighbour's replica in place. The worlds differ, so the
                // owner's read lock never meets a neighbour's write lock.
                self.servers[zone].world().read_chunk(pos, |chunk| {
                    for &neighbor in &neighbors {
                        // A dead neighbour receives nothing: its replica
                        // terrain dies with it, and recovery rebuilds owned
                        // state only.
                        if self.dead[neighbor] {
                            continue;
                        }
                        debug_assert_ne!(neighbor, zone, "a chunk's owner is no neighbour");
                        self.servers[neighbor].world().copy_chunk(chunk);
                        ledger.charge(zone, neighbor, 1);
                        self.stats.border_chunk_updates += 1;
                        if let Some(hub) = border_hub.as_mut() {
                            hub.note_border_delivery();
                        }
                    }
                });
            }
        }
    }

    /// Flushes all remaining dirty terrain of every zone through its
    /// persistence pipeline and waits for the passes to complete. Returns
    /// the total number of chunks written (zero when no zone has a
    /// pipeline attached).
    pub fn flush_persistence(&mut self) -> u64 {
        let mut flushed = 0u64;
        let zones = self.servers.len();
        for zone in 0..zones {
            // Check for a pipeline BEFORE draining: on zones without one,
            // a drain here would destroy dirty flags the next tick's
            // border protocol still needs. A crashed zone's pipeline is
            // fenced — it flushes nothing, so its store keeps exactly the
            // bytes it held at the crash.
            match &self.persistence[zone] {
                Some(persistence) if !persistence.fenced => {}
                _ => continue,
            }
            // Stage whatever dirt the last tick left undrained — and since
            // this drain is destructive, run the border mirroring for it
            // too, or neighbour replicas would silently miss the chunks a
            // mid-run checkpoint happened to flush. The messages are
            // charged to the lifetime counters but to no tick (the flush
            // runs between ticks).
            let deltas = self.servers[zone].drain_owned_dirty();
            let mut ledger = MessageLedger::new(zones);
            self.mirror_drained_deltas(zone, &deltas, &mut ledger);
            self.stats.cross_server_messages += ledger.messages;
            let persistence = self.persistence[zone].as_mut().expect("checked above");
            persistence.driver.service.stage_dirty(deltas);
            flushed += persistence.driver.flush(self.servers[zone].now());
        }
        flushed
    }

    /// Number of zones (member servers).
    pub fn zones(&self) -> usize {
        self.servers.len()
    }

    /// The shard→zone assignment the cluster partitions the world by.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The member servers, in zone order.
    pub fn servers(&self) -> &[GameServer] {
        &self.servers
    }

    /// One member server.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is out of range.
    pub fn server(&self, zone: usize) -> &GameServer {
        &self.servers[zone]
    }

    /// The cluster's current virtual time (the lockstep tick clock the
    /// fleet is driven by; member servers keep their own clocks).
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Lifetime coordination counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Attaches the replication layer: an area-of-interest subscription
    /// index over the cluster's partition plus an autoscaled fan-out
    /// stage. When [`ReplicationConfig::border_via_subscription`] is set,
    /// every zone is additionally registered as a border subscriber and
    /// the border mirror asks the index, not the shard map, who receives
    /// each chunk — the same zones, so message-for-message identical.
    /// Without a hub attached no observable byte of the tick changes.
    pub fn enable_replication(&mut self, config: ReplicationConfig) {
        let mut hub = ReplicationHub::with_config(Arc::clone(&self.map), config.hub);
        if config.border_via_subscription {
            for zone in 0..self.servers.len() {
                hub.subscribe_border(zone);
            }
        }
        self.replication = Some(ClusterReplication {
            hub,
            fanout: FanoutStage::new(config.fanout),
            cohorts: config.cohorts.max(1),
            border_via_subscription: config.border_via_subscription,
        });
    }

    /// Registers a simulated client with the given area of interest.
    /// Returns `None` when no replication hub is attached.
    pub fn subscribe_client(&mut self, interest: Interest) -> Option<SubscriberId> {
        self.replication
            .as_mut()
            .map(|repl| repl.hub.subscribe(interest))
    }

    /// Moves a client subscriber's interest centre (re-resolving its
    /// subscription). No-op without a hub.
    pub fn retarget_client(&mut self, id: SubscriberId, center: ChunkPos) {
        if let Some(repl) = self.replication.as_mut() {
            repl.hub.retarget(id, center);
        }
    }

    /// Removes a client subscriber. No-op without a hub.
    pub fn unsubscribe_client(&mut self, id: SubscriberId) {
        if let Some(repl) = self.replication.as_mut() {
            repl.hub.unsubscribe(id);
        }
    }

    /// Counters of the subscription index and encoder, when replication is
    /// attached.
    pub fn replication_stats(&self) -> Option<ReplicationStats> {
        self.replication.as_ref().map(|repl| repl.hub.stats())
    }

    /// Counters of the fan-out stage, when replication is attached.
    pub fn fanout_stats(&self) -> Option<FanoutStats> {
        self.replication.as_ref().map(|repl| repl.fanout.stats())
    }

    /// The member servers' counters summed over all zones.
    pub fn server_stats_total(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for server in &self.servers {
            let s = server.stats();
            total.ticks += s.ticks;
            total.events_processed += s.events_processed;
            total.chunks_loaded += s.chunks_loaded;
            total.sc_local += s.sc_local;
            total.sc_merged += s.sc_merged;
            total.sc_replayed += s.sc_replayed;
            total.sc_skipped += s.sc_skipped;
        }
        total
    }

    /// Total constructs registered across all zones.
    pub fn construct_count(&self) -> usize {
        self.registry.len()
    }

    /// Number of registered constructs whose blocks span more than one
    /// zone and therefore require cross-zone state exchange.
    pub fn border_construct_count(&self) -> usize {
        self.border_constructs.len()
    }

    /// Registers a construct: the zone owning its first block simulates
    /// it, and if its blocks span further zones it becomes a border
    /// construct whose state is exchanged with those zones on every
    /// simulated tick. Returns the owning zone and the id within it (the
    /// *initial* location: a later rebalance may move the construct; track
    /// it via [`ShardedGameCluster::construct_location`]).
    pub fn add_construct(&mut self, blueprint: Blueprint) -> (usize, ConstructId) {
        let home = blueprint.positions().first().map(|&p| ChunkPos::from(p));
        let blocks = blueprint.positions().to_vec();
        let mut chunks: Vec<ChunkPos> = blueprint
            .positions()
            .iter()
            .map(|&p| ChunkPos::from(p))
            .collect();
        chunks.sort_by_key(|p| (p.x, p.z));
        chunks.dedup();
        let owner = home.map(|c| self.map.zone_of_chunk(c)).unwrap_or(0);
        let id = self.servers[owner].add_construct(blueprint);
        self.registry.push(RegisteredConstruct {
            zone: owner,
            id,
            home,
            chunks,
            blocks,
            published: None,
        });
        let index = self.registry.len() - 1;
        if let Some(border) = Self::border_entry(&self.map, index, &self.registry[index]) {
            self.border_constructs.push(border);
        }
        (owner, id)
    }

    /// The border relationship of the registered construct at `index`
    /// under `map`, or `None` when all its chunks live in its own zone.
    fn border_entry(
        map: &ShardMap,
        index: usize,
        entry: &RegisteredConstruct,
    ) -> Option<BorderConstruct> {
        let mut neighbors: Vec<usize> = entry
            .chunks
            .iter()
            .map(|&c| map.zone_of_chunk(c))
            .filter(|&z| z != entry.zone)
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        if neighbors.is_empty() {
            None
        } else {
            Some(BorderConstruct {
                index,
                owner: entry.zone,
                neighbors,
            })
        }
    }

    /// Recomputes the border-construct list from the registry under the
    /// current map — run after every migration batch, because both a
    /// construct's owner and its neighbour set can change when any shard
    /// its blocks touch moves.
    fn rebuild_border_constructs(&mut self) {
        self.border_constructs = self
            .registry
            .iter()
            .enumerate()
            .filter_map(|(index, entry)| Self::border_entry(&self.map, index, entry))
            .collect();
    }

    /// Registry indices of the constructs homed on `shard` that `zone`'s
    /// server currently simulates — the constructs that follow the shard
    /// when it changes owner.
    fn constructs_homed_on(&self, shard: usize, zone: usize) -> Vec<usize> {
        let shard_count = self.map.shard_count();
        (0..self.registry.len())
            .filter(|&index| {
                let entry = &self.registry[index];
                entry.zone == zone
                    && entry
                        .home
                        .is_some_and(|home| shard_index(home, shard_count) == shard)
            })
            .collect()
    }

    /// Moves the registered construct at `index`, with its full simulation
    /// state, from the server it lives on to `to`'s — the one way a
    /// construct changes servers (shard migration, traffic-driven
    /// migration, crash re-homing, recovery adoption). The source backend
    /// releases any in-flight speculation; the destination has nothing
    /// published yet, so neighbours need a fresh handle. Two messages,
    /// state plus acknowledgement: both servers pay between live zones,
    /// only the adopter when the source is dead (the state then comes from
    /// the offloading substrate, which outlives the zone server).
    fn rehome_construct(&mut self, index: usize, to: usize, ledger: &mut MessageLedger) {
        let RegisteredConstruct { zone: from, id, .. } = self.registry[index];
        let construct = self.servers[from]
            .take_construct(id)
            .expect("registered construct must exist on its zone server");
        let entry = &mut self.registry[index];
        entry.zone = to;
        entry.id = self.servers[to].adopt_construct(construct);
        entry.published = None;
        if self.dead[from] {
            ledger.charge_one_sided(to, 2);
        } else {
            ledger.charge(from, to, 2);
        }
    }

    /// Applies one batch of proposed shard migrations at a tick boundary,
    /// charging every transfer to `ledger` and returning the number of
    /// migrations applied. Per migration, in order:
    ///
    /// 1. *quiesce* — the source's dirty state for the shard is drained
    ///    and border-mirrored (a destructive drain must mirror), and the
    ///    staged-but-unflushed write-back set for the shard is pulled out
    ///    of the source zone's persistence pipeline;
    /// 2. *chunk transfer* — every loaded chunk of the shard is copied to
    ///    the destination server's world and removed from the source's
    ///    (one message per chunk, charged to both endpoint servers);
    /// 3. *ownership flip* — [`ShardMap::migrate`] re-assigns the shard;
    ///    every consumer of the shared map (restriction filters,
    ///    persistence pull views, the router) sees the new owner from here
    ///    on;
    /// 4. *persistence handoff* — the quiesced dirty set is staged into
    ///    the destination zone's pipeline, which owns the flush obligation
    ///    from now on;
    /// 5. *construct transfer* — constructs whose home chunk lives in the
    ///    shard move servers ([`ShardedGameCluster::rehome_construct`]).
    ///
    /// After the batch, border-construct relationships are rebuilt under
    /// the new ownership. Avatars are *not* moved here: the router
    /// re-routes them on this very tick, surfacing the moves as ordinary
    /// (charged) handoffs.
    fn apply_migrations(
        &mut self,
        migrations: &[ShardMigration],
        ledger: &mut MessageLedger,
    ) -> u64 {
        let before = ledger.messages;
        let mut applied = 0u64;
        for migration in migrations {
            let shard = migration.shard;
            let from = self.map.zone_of_shard(shard);
            let to = migration.to;
            // Revalidate against the live map: a stale or self-targeted
            // proposal is dropped, never misapplied. Dead zones are
            // neither sources (recovery, not rebalancing, empties them)
            // nor destinations (a policy reading a dead zone's zero load
            // as headroom must not resurrect it).
            if from != migration.from
                || to == from
                || to >= self.servers.len()
                || self.dead[from]
                || self.dead[to]
            {
                continue;
            }
            // Migration control: announcement + acknowledgement.
            ledger.charge(from, to, 2);

            // 1. Quiesce the shard's in-flight persistence. The drain is
            //    destructive, so it goes through the one drain consumer
            //    (under the pre-migration ownership): border replicas and
            //    subscribed clients see what it took.
            //    The staged write-back set is handed to the destination's
            //    pipeline only when one exists; migrating towards a
            //    pipeline-less zone instead flushes the source's staging
            //    synchronously while its world still holds the chunks —
            //    an obligation the source already accepted must never be
            //    silently dropped.
            let deltas = self.servers[from].world().drain_dirty_shards(&[shard]);
            self.mirror_drained_deltas(from, &deltas, ledger);
            let destination_persists = self.persistence[to].is_some();
            let now = self.servers[from].now();
            let world = self.servers[from].world_handle();
            let staged = match self.persistence[from].as_mut() {
                Some(persistence) if destination_persists => {
                    persistence.driver.service.take_staged_shard(shard)
                }
                Some(persistence) => {
                    // Destination has no pipeline to inherit the
                    // obligation: flush exactly this shard's dirty set
                    // synchronously to the source's store while the source
                    // world still holds the chunks — the same terrain keys
                    // and snapshot bytes its pipeline would write. Other
                    // shards' staging keeps its normal cadence.
                    use servo_storage::ObjectStore;
                    let mut dirty: BTreeSet<ChunkPos> = persistence
                        .driver
                        .service
                        .take_staged_shard(shard)
                        .into_iter()
                        .collect();
                    for delta in &deltas {
                        dirty.extend(delta.chunks.iter().copied());
                    }
                    let written = persistence.driver.service.with_remote(|remote| {
                        let mut written = 0u64;
                        for &pos in &dirty {
                            let Some(snapshot) = world.read_chunk(pos, |c| c.snapshot()) else {
                                continue;
                            };
                            let key = servo_storage::chunk_key(pos);
                            if remote.write(&key, snapshot.bytes, now).is_ok() {
                                written += 1;
                            }
                        }
                        written
                    });
                    persistence.driver.record_flushed(written);
                    Vec::new()
                }
                None => Vec::new(),
            };
            self.rebalance_stats.staged_dirty_handed_off += staged.len() as u64;

            // 2. Transfer the shard's loaded chunks to the new owner.
            let epoch = self.servers[from].world().shard_epoch(shard);
            let positions = self.servers[from].world().shard_positions(shard);
            let chunks: Vec<_> = positions
                .iter()
                .filter_map(|&pos| self.servers[from].world().read_chunk(pos, |c| c.clone()))
                .collect();
            let transferred = chunks.len() as u64;
            self.servers[to].world().insert_chunks(chunks);
            for &pos in &positions {
                self.servers[from].world().remove_chunk(pos);
            }
            ledger.charge(from, to, transferred);
            self.rebalance_stats.chunks_transferred += transferred;

            // 3. Flip ownership. From here on the destination requests,
            //    simulates and persists the shard's terrain.
            self.map.migrate(shard, to);

            // 4. Hand the write-back obligation to the new owner.
            let mut dirty: BTreeSet<ChunkPos> = staged.into_iter().collect();
            for delta in &deltas {
                dirty.extend(delta.chunks.iter().copied());
            }
            if !dirty.is_empty() {
                if let Some(persistence) = self.persistence[to].as_mut() {
                    persistence.driver.service.stage_dirty(vec![ShardDelta {
                        shard,
                        epoch,
                        chunks: dirty.into_iter().collect(),
                    }]);
                }
            }

            // 5. Move the shard's constructs with their simulation state.
            for index in self.constructs_homed_on(shard, from) {
                self.rehome_construct(index, to, ledger);
                self.rebalance_stats.constructs_transferred += 1;
            }

            applied += 1;
            self.rebalance_stats.shard_migrations += 1;
        }
        if applied > 0 {
            self.rebalance_stats.rebalance_events += 1;
            self.rebuild_border_constructs();
        }
        self.rebalance_stats.migration_messages += ledger.messages - before;
        applied
    }

    /// Per-zone block counts for every live border construct, as
    /// [`ConstructFootprint`]s for the policy's border-traffic term
    /// ([`RebalancePolicy::observe_border_traffic`]). Interior constructs
    /// are omitted — their footprint is trivially unanimous, so the term
    /// could never propose moving them.
    fn border_footprints(&self) -> Vec<ConstructFootprint> {
        self.border_constructs
            .iter()
            .filter(|border| !self.dead[border.owner])
            .map(|border| {
                let entry = &self.registry[border.index];
                let mut zone_blocks: Vec<(usize, u32)> = Vec::new();
                for &block in &entry.blocks {
                    let zone = self.map.zone_of_block(block);
                    match zone_blocks.binary_search_by_key(&zone, |&(z, _)| z) {
                        Ok(slot) => zone_blocks[slot].1 += 1,
                        Err(slot) => zone_blocks.insert(slot, (zone, 1)),
                    }
                }
                ConstructFootprint {
                    index: border.index,
                    zone: entry.zone,
                    zone_blocks,
                }
            })
            .collect()
    }

    /// Applies one batch of traffic-driven construct migrations: each
    /// construct moves to the zone owning the majority of its block
    /// footprint ([`ShardedGameCluster::rehome_construct`]). The
    /// construct's home shard stays where it is — the destination server
    /// *pins* the adopted construct, so it keeps simulating it across the
    /// ownership filter.
    fn apply_construct_migrations(
        &mut self,
        migrations: &[ConstructMigration],
        ledger: &mut MessageLedger,
    ) {
        let before = ledger.messages;
        let mut applied = false;
        for migration in migrations {
            let Some(entry) = self.registry.get(migration.index) else {
                continue;
            };
            let (from, to) = (migration.from, migration.to);
            // Revalidate against the live registry: a stale,
            // self-targeted, or dead-endpoint proposal is dropped, never
            // misapplied.
            if entry.zone != from
                || to == from
                || to >= self.servers.len()
                || self.dead[from]
                || self.dead[to]
            {
                continue;
            }
            self.rehome_construct(migration.index, to, ledger);
            self.rebalance_stats.construct_migrations += 1;
            applied = true;
        }
        if applied {
            self.rebuild_border_constructs();
        }
        self.rebalance_stats.migration_messages += ledger.messages - before;
    }

    /// Schedules `zone` to crash at the start of cluster tick `tick` (as
    /// counted by [`ClusterStats::ticks`]; an index at or before the
    /// current count fires at the next boundary). The crash is executed
    /// inside [`ShardedGameCluster::run_tick`]: the zone is marked dead,
    /// its in-flight construct speculation is released, its persistence
    /// pipeline is fenced, and its shards are queued for adoption by the
    /// surviving zones — spread over ticks by the same per-step migration
    /// budget dynamic rebalancing is bounded by.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is out of range (and, at execution time, if the
    /// crash would leave no live zone).
    pub fn crash_zone(&mut self, zone: usize, tick: u64) {
        assert!(zone < self.servers.len(), "zone {zone} out of range");
        self.failure_plan.push((tick, zone));
    }

    /// Lifetime counters of the crash-recovery machinery (all zero while
    /// no crash was scheduled and executed).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// Whether `zone` has crashed.
    pub fn zone_is_dead(&self, zone: usize) -> bool {
        self.dead.get(zone).copied().unwrap_or(false)
    }

    /// Orphaned shards still awaiting adoption by a survivor.
    pub fn pending_adoption_count(&self) -> usize {
        self.pending_adoptions.len()
    }

    /// Executes a scheduled crash of `zone`: marks it dead, releases its
    /// in-flight speculation (the substrate abandons whatever it was
    /// computing for the dead server), fences its persistence pipeline,
    /// sizes the data-loss window, and queues its shards for adoption.
    /// Charges one failure-detection message per survivor.
    fn execute_crash(&mut self, zone: usize, ledger: &mut MessageLedger) {
        if self.dead[zone] {
            return;
        }
        let before = ledger.messages;
        let survivors: Vec<usize> = (0..self.servers.len())
            .filter(|&z| z != zone && !self.dead[z])
            .collect();
        assert!(
            !survivors.is_empty(),
            "crashing zone {zone} would leave no live zone"
        );
        self.dead[zone] = true;
        self.recovering = true;
        self.recovery_stats.crashes += 1;
        self.servers[zone].release_all_speculation();

        // Fence persistence and size the loss window: every
        // staged-but-unflushed position not covered by a WAL record
        // existed only in the zone's memory — with the zone gone, the
        // remote store will forever hold the stale pre-staging bytes.
        let orphans = self.map.zone_shards(zone);
        let mut lost = 0u64;
        if let Some(persistence) = self.persistence[zone].as_mut() {
            persistence.fenced = true;
            for &shard in &orphans {
                for pos in persistence.driver.service.staged_positions(shard) {
                    let covered = persistence
                        .wal
                        .as_ref()
                        .is_some_and(|wal| wal.with(|wal| wal.covers(pos)));
                    if !covered {
                        lost += 1;
                    }
                }
            }
        }
        self.recovery_stats.chunks_lost += lost;

        // Round-robin the orphaned shards over the survivors and record
        // each designated adopter, so interim routing already targets the
        // zone about to own the terrain.
        for (index, &shard) in orphans.iter().enumerate() {
            let adopter = survivors[index % survivors.len()];
            self.pending_adoptions.push_back((shard, adopter));
            self.pending_owner.insert(shard, adopter);
        }

        // Constructs the dead zone simulated *away from their home
        // shard's zone* (traffic-driven migrations pin a construct to a
        // foreign server) are invisible to shard adoption — their home
        // shard belongs to a live zone and is never orphaned. Re-home
        // each to its home shard's effective owner now.
        let mut rehomed = false;
        for index in 0..self.registry.len() {
            let entry = &self.registry[index];
            if entry.zone != zone {
                continue;
            }
            let Some(home) = entry.home else { continue };
            if self.map.zone_of_chunk(home) == zone {
                // Orphaned together with its home shard: the normal
                // adoption path re-homes it with the terrain.
                continue;
            }
            let adopter = effective_zone(&self.map, &self.pending_owner, home);
            if self.dead[adopter] {
                continue;
            }
            self.rehome_construct(index, adopter, ledger);
            self.recovery_stats.constructs_adopted += 1;
            rehomed = true;
        }
        if rehomed {
            self.rebuild_border_constructs();
        }

        // Failure detection: one message announcing the death to each
        // survivor (the dead endpoint answers nothing).
        for &survivor in &survivors {
            ledger.charge_one_sided(survivor, 1);
        }
        self.recovery_stats.recovery_messages += ledger.messages - before;
    }

    /// Applies one batch of recovery adoptions: each orphaned `(shard,
    /// adopter)` pair rebuilds the shard on the adopter from the dead
    /// zone's remote store plus its write-ahead log, flips ownership, and
    /// re-homes the shard's constructs. Charges every transfer to
    /// `ledger`, adopter side only — the dead server sends nothing;
    /// recovery reads come from the storage substrate and the durable
    /// log — and returns the number of shards adopted.
    fn apply_recovery_migrations(
        &mut self,
        batch: &[(usize, usize)],
        ledger: &mut MessageLedger,
    ) -> u64 {
        let before = ledger.messages;
        let mut applied = 0u64;
        let now = self.clock.now();
        for &(shard, to) in batch {
            let from = self.map.zone_of_shard(shard);
            // Revalidate: the source must actually be dead and still own
            // the shard, and the adopter must be alive.
            if !self.dead[from] || to >= self.servers.len() || self.dead[to] {
                self.pending_owner.remove(&shard);
                continue;
            }
            // Adoption control: coordination announcement plus
            // acknowledgement.
            ledger.charge_one_sided(to, 2);

            // The dead zone's world is unreachable, but the shard's chunk
            // *directory* is knowable (the map and the store's key scheme
            // identify owned terrain); the in-memory copy here stands in
            // for it.
            let positions = self.servers[from].world().shard_positions(shard);

            // 1. Restore from the dead zone's remote store. Positions the
            //    adopter already holds are skipped: a border replica was
            //    mirrored fresh every tick, so it is never older than the
            //    last flush.
            for &pos in &positions {
                if self.servers[to].world().read_chunk(pos, |_| ()).is_some() {
                    continue;
                }
                let key = servo_storage::chunk_key(pos);
                let restored = self.persistence[from].as_ref().and_then(|p| {
                    p.driver.service.with_remote(|remote| {
                        use servo_storage::ObjectStore;
                        remote
                            .read(&key, now)
                            .ok()
                            .and_then(|r| Chunk::from_bytes(&r.data).ok())
                    })
                });
                if let Some(chunk) = restored {
                    self.servers[to].world().insert_chunk(chunk);
                    ledger.charge_one_sided(to, 1);
                    self.recovery_stats.chunks_restored += 1;
                }
            }

            // 2. Replay the write-ahead log over the restored terrain:
            //    WAL records carry the staged-but-unflushed bytes the
            //    remote store never received, so they win over whatever
            //    step 1 restored. A chain re-rooted on the last flush
            //    replays only if edits followed the root; a lone root is
            //    what step 1 restored. Replayed records are truncated —
            //    the durability obligation moves to the adopter.
            let mut replayed: Vec<ChunkPos> = Vec::new();
            let wal = self.persistence[from].as_ref().and_then(|p| p.wal.clone());
            if let Some(wal) = &wal {
                for record in wal.replay_shard(shard) {
                    let Ok(chunk) = Chunk::from_bytes(&record.bytes) else {
                        continue;
                    };
                    self.servers[to].world().insert_chunk(chunk);
                    ledger.charge_one_sided(to, 1);
                    self.recovery_stats.chunks_replayed += 1;
                    wal.truncate(record.pos, record.seq);
                    replayed.push(record.pos);
                }
                // What is left of the shard's chains are lone roots: the
                // store holds their bytes, so they protect nothing now.
                wal.with(|wal| {
                    for &pos in &positions {
                        wal.release_root(pos);
                    }
                });
            }

            // 3. Flip ownership: the adopter simulates, routes, and
            //    persists the shard from here on.
            self.map.migrate(shard, to);
            self.pending_owner.remove(&shard);

            // 4. Replayed bytes are ahead of remote storage — stage them
            //    into the adopter's pipeline so the *new* owner flushes
            //    them on its next pass (and, with its own WAL, makes them
            //    durable again immediately).
            if !replayed.is_empty() {
                if let Some(persistence) = self.persistence[to].as_mut() {
                    let epoch = self.servers[to].world().shard_epoch(shard);
                    persistence.driver.service.stage_dirty(vec![ShardDelta {
                        shard,
                        epoch,
                        chunks: replayed,
                    }]);
                }
            }

            // 5. Re-home the shard's constructs.
            for index in self.constructs_homed_on(shard, from) {
                self.rehome_construct(index, to, ledger);
                self.recovery_stats.constructs_adopted += 1;
            }

            // 6. The dead server's memory is gone: drop the shard's
            //    chunks from its world so nothing can read them back.
            for &pos in &positions {
                self.servers[from].world().remove_chunk(pos);
            }

            applied += 1;
            self.recovery_stats.shards_adopted += 1;
        }
        if applied > 0 {
            self.rebuild_border_constructs();
        }
        self.recovery_stats.recovery_messages += ledger.messages - before;
        applied
    }

    /// The per-tick details recorded so far.
    pub fn ticks(&self) -> &[ClusterTickDetail] {
        &self.details
    }

    /// The recorded critical-path durations, for feeding into the
    /// capacity/QoS metrics exactly like single-server tick durations.
    pub fn critical_path_durations(&self) -> Vec<SimDuration> {
        self.details.iter().map(|d| d.tick.critical_path).collect()
    }

    /// Clears recorded cluster ticks and every member's tick reports (e.g.
    /// to discard a warm-up phase) without resetting world state, clocks,
    /// or lifetime counters.
    pub fn discard_ticks(&mut self) {
        self.details.clear();
        for server in &mut self.servers {
            server.discard_reports();
        }
    }

    /// Runs one lockstep cluster tick for the given fleet state.
    ///
    /// `positions` are the avatar positions in fleet order; `events` this
    /// tick's player events. Each avatar is routed to — and simulated by —
    /// exactly one zone; the border protocol and message accounting run
    /// after all zones ticked. Returns the cluster-level tick outcome.
    pub fn run_tick(
        &mut self,
        positions: &[BlockPos],
        events: &[(PlayerId, PlayerEvent)],
    ) -> ClusterTick {
        let zones = self.servers.len();
        let mut ledger = MessageLedger::new(zones);

        // 0a. Failure injection: execute any crash scheduled for this
        //     boundary. With an empty plan this block touches nothing.
        if !self.failure_plan.is_empty() {
            let tick_index = self.stats.ticks;
            let due: Vec<usize> = self
                .failure_plan
                .iter()
                .filter(|&&(tick, _)| tick <= tick_index)
                .map(|&(_, zone)| zone)
                .collect();
            self.failure_plan.retain(|&(tick, _)| tick > tick_index);
            for zone in due {
                self.execute_crash(zone, &mut ledger);
            }
        }

        // 0b. Recovery adoption: survivors adopt orphaned shards through
        //     the migration path, consuming the same per-step budget
        //     dynamic rebalancing is bounded by. Recovery takes
        //     precedence — the policy below only gets what is left — so a
        //     crash and a hot policy can never compound into a migration
        //     storm that exceeds the configured bound.
        let mut shard_migrations = 0u64;
        let mut migration_budget = self
            .rebalancer
            .as_ref()
            .map(|r| r.policy.config().max_migrations_per_step)
            .unwrap_or_else(|| RebalanceConfig::default().max_migrations_per_step);
        if !self.pending_adoptions.is_empty() {
            let take = migration_budget.min(self.pending_adoptions.len());
            let batch: Vec<(usize, usize)> = self.pending_adoptions.drain(..take).collect();
            migration_budget -= take;
            shard_migrations += self.apply_recovery_migrations(&batch, &mut ledger);
        }

        // 0c. Dynamic rebalancing (opt-in): feed the policy the previous
        //    tick's per-zone loads plus the current shard-level heat, and
        //    apply any proposed migrations at this boundary — before
        //    routing, so the router hands affected avatars to their new
        //    owners in this very tick (charged as ordinary handoffs) and
        //    the migration storm lands in this tick's critical path. With
        //    no policy, or a policy that proposes nothing, this block
        //    leaves every observable byte of the tick unchanged.
        if self.rebalancer.is_some() && !self.last_zone_loads.is_empty() {
            let shard_count = self.map.shard_count();
            let mut shard_avatars = vec![0u32; shard_count];
            for &pos in positions {
                shard_avatars[shard_index(ChunkPos::from(pos), shard_count)] += 1;
            }
            let rebalancer = self.rebalancer.as_mut().expect("checked above");
            let proposed = rebalancer.policy.observe(
                &self.map,
                &self.last_zone_loads,
                &shard_avatars,
                &rebalancer.shard_dirty,
            );
            for slot in rebalancer.shard_dirty.iter_mut() {
                *slot = 0;
            }
            // Recovery already spent part of this tick's budget; the
            // policy's proposals are truncated to the remainder (a no-op
            // while no recovery is in flight, since the policy bounds
            // itself to the same maximum). Undropped proposals stay with
            // the policy's internal cooldown — they are simply re-derived
            // at a later boundary if the imbalance persists.
            let mut proposed = proposed;
            proposed.truncate(migration_budget);
            migration_budget -= proposed.len();
            if !proposed.is_empty() {
                shard_migrations += self.apply_migrations(&proposed, &mut ledger);
            }

            // Border-traffic term (opt-in): count each border construct's
            // block footprint per zone and migrate constructs towards the
            // zone owning the majority of their blocks. Shares the step's
            // migration budget — shard moves (and recovery above) come
            // first, the traffic term only gets what is left. The policy
            // builds the footprints only on the ticks it evaluates.
            if migration_budget > 0 {
                let rebalancer = self.rebalancer.as_ref().expect("checked above");
                let proposed = rebalancer
                    .policy
                    .observe_border_traffic(|| self.border_footprints(), migration_budget);
                if !proposed.is_empty() {
                    self.apply_construct_migrations(&proposed, &mut ledger);
                }
            }
        }

        // Route to the *effective* owner: while an orphaned shard awaits
        // adoption, its avatars and events go to the designated adopter
        // rather than the dead zone.
        let map = Arc::clone(&self.map);
        let pending = &self.pending_owner;
        let mut assignment = self.router.route(positions, events, |p| {
            effective_zone(&map, pending, ChunkPos::from(p))
        });

        // 1a. Player handoffs: two messages per crossing avatar (session
        //     state transfer plus acknowledgement). With a replication hub
        //     attached, the crossing is also an avatar event for the
        //     clients watching the destination chunk (piggybacked on their
        //     next frame, step 3d).
        let mut client_events: Vec<(ChunkPos, u32)> = Vec::new();
        let collect_events = self.replication.is_some();
        for handoff in &assignment.handoffs {
            ledger.charge(handoff.from, handoff.to, 2);
            if collect_events {
                if let Some(&pos) = positions.get(handoff.player.raw() as usize) {
                    client_events.push((ChunkPos::from(pos), 1));
                }
            }
        }
        self.stats.handoffs += assignment.handoffs.len() as u64;

        // 1b. Block events in border chunks are part of the coordinated
        //     border region: besides the owning zone, every laterally
        //     adjacent zone receives a copy, so its replica terrain — and
        //     any construct state it owns across the seam — observes the
        //     edit exactly as a single server would. One message per copy.
        for &(player, event) in events {
            let block = match event {
                PlayerEvent::BlockPlaced(pos) | PlayerEvent::BlockBroken(pos) => pos,
                PlayerEvent::ChatMessage | PlayerEvent::InventoryChanged => continue,
            };
            let chunk = ChunkPos::from(block);
            let origin = effective_zone(&map, &self.pending_owner, chunk);
            for neighbor in map.neighbor_zones(chunk) {
                // Dead neighbours receive nothing; a neighbour that IS
                // the effective origin (the adopter of a still-pending
                // shard) already gets the event through routing.
                if neighbor == origin || self.dead[neighbor] {
                    continue;
                }
                assignment.events[neighbor].push((player, event));
                ledger.charge(origin, neighbor, 1);
                self.stats.forwarded_border_events += 1;
            }
        }

        // 2. One real tick per zone, in zone order. A dead zone performs
        //    no work at all — its slot gets a zero report so the border
        //    and critical-path accounting below stay positional.
        let reports: Vec<TickReport> = (0..zones)
            .map(|zone| {
                if self.dead[zone] {
                    return TickReport {
                        tick: self.servers[zone].current_tick(),
                        started_at: self.clock.now(),
                        duration: SimDuration::ZERO,
                        work: Default::default(),
                        view_range_blocks: self.servers[zone].config().view_distance_blocks as f64,
                    };
                }
                self.servers[zone].run_tick(&assignment.positions[zone], &assignment.events[zone])
            })
            .collect();

        // 3a. Border protocol: mirror dirty border chunks to the zones
        //     owning adjacent terrain (one message per chunk and neighbour;
        //     the neighbour applies the fresh copy into its replica world),
        //     then route the same drained deltas into the zone's
        //     persistence pipeline — draining happens exactly once per
        //     tick, and both consumers see every owned dirty shard.
        for zone in 0..zones {
            if self.dead[zone] {
                continue;
            }
            let deltas = self.servers[zone].drain_owned_dirty();
            if let Some(rebalancer) = self.rebalancer.as_mut() {
                for delta in &deltas {
                    if let Some(slot) = rebalancer.shard_dirty.get_mut(delta.shard) {
                        *slot += delta.chunks.len() as u64;
                    }
                }
            }
            self.mirror_drained_deltas(zone, &deltas, &mut ledger);
            if let Some(persistence) = self.persistence[zone].as_mut() {
                persistence.driver.service.stage_dirty(deltas);
            }
        }

        // 3b. Border constructs: on every tick their owner actually
        //     simulated constructs, state crosses to each involved
        //     neighbour zone and is acknowledged. Per construct in the
        //     classic baseline; bundled per (owner, neighbour) server pair
        //     in the hybrid's batched exchange. The speculative exchange
        //     ships a *handle* to the owner's published sequence instead
        //     of state — one unacknowledged message per construct whose
        //     sequence identity changed, zero while neighbours keep
        //     replaying a still-valid sequence from the shared store —
        //     and degrades to the batched eager path for any construct
        //     whose backend publishes nothing.
        let mut exchange_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        for b in 0..self.border_constructs.len() {
            // A dead owner simulates nothing (its constructs await
            // adoption); dead neighbours receive nothing.
            let owner = self.border_constructs[b].owner;
            if self.dead[owner] {
                continue;
            }
            let work = reports[owner].work;
            if work.sc_local + work.sc_merged + work.sc_replayed == 0 {
                continue;
            }
            let index = self.border_constructs[b].index;
            let current = match self.border_exchange {
                BorderExchange::Speculative => {
                    self.servers[owner].published_sequence(self.registry[index].id)
                }
                _ => None,
            };
            for n in 0..self.border_constructs[b].neighbors.len() {
                let neighbor = self.border_constructs[b].neighbors[n];
                if self.dead[neighbor] {
                    continue;
                }
                self.stats.construct_exchanges += 1;
                if collect_events {
                    if let Some(&block) = self.registry[index].blocks.first() {
                        client_events.push((ChunkPos::from(block), 1));
                    }
                }
                match self.border_exchange {
                    BorderExchange::PerConstruct => ledger.charge(owner, neighbor, 2),
                    BorderExchange::Batched => {
                        exchange_pairs.insert((owner, neighbor));
                    }
                    BorderExchange::Speculative => match current {
                        // The neighbour already holds a handle for this
                        // exact sequence: it replays the next step from
                        // the shared store, no message at all.
                        Some(seq) if self.registry[index].published == Some(seq) => {
                            self.stats.speculative_replays += 1;
                        }
                        // New or invalidated sequence: publish one handle
                        // (sequence id, storage location, validity
                        // horizon) — fire-and-forget, half the eager
                        // exchange's cost.
                        Some(_) => {
                            ledger.charge(owner, neighbor, 1);
                            self.stats.speculation_handles += 1;
                        }
                        // Nothing published (local backend, or the
                        // substrate has not resolved yet): fall back to
                        // the eager batched exchange for this pair.
                        None => {
                            exchange_pairs.insert((owner, neighbor));
                        }
                    },
                }
            }
            if matches!(self.border_exchange, BorderExchange::Speculative) {
                self.registry[index].published = current;
            }
        }
        for (owner, neighbor) in exchange_pairs {
            ledger.charge(owner, neighbor, 2);
            self.stats.batched_bundles += 1;
        }

        // 3c. Per-zone persistence: on the configured cadence each zone
        //     prefetches the owned terrain its players need and flushes its
        //     staged dirty shards through its PipelinedChunkService — zoned
        //     clusters persist the way `ServoDeployment` does. The pass
        //     executes inside this poll; write latency is not modelled, so
        //     nothing here is charged to the tick.
        for zone in 0..zones {
            let Some(persistence) = self.persistence[zone].as_mut() else {
                continue;
            };
            // A fenced (crashed) pipeline runs no cadence and flushes
            // nothing more; its store is frozen at the crash.
            if persistence.fenced {
                continue;
            }
            let server = &self.servers[zone];
            persistence.driver.tick(server.now(), || {
                let view = server.config().view_distance_blocks;
                required_chunks(&assignment.positions[zone], view)
                    .into_iter()
                    .filter(|&pos| map.zone_of_chunk(pos) == zone)
            });
        }

        // 3d. Client replication (opt-in): flush the due cohort of area
        //     subscribers into epoch-keyed frames (keyframes priced from
        //     the owning zone's real chunk snapshots) and charge the
        //     fan-out through the autoscaled worker pool to each owning
        //     zone's tick, so replication load shows up in QoS like
        //     simulation work. Frames ride the bus's bulk lane: they count
        //     as cross-server messages, but their tick cost is the pool's
        //     amortised share, not the coordination round-trip rate. With
        //     no hub attached every byte below is zero.
        let mut replication_ms = vec![0.0f64; zones];
        let mut replication_frames = 0u64;
        if let Some(repl) = self.replication.as_mut() {
            if !client_events.is_empty() {
                repl.hub.ingest_events(&client_events);
            }
            let servers = &self.servers;
            let dead = &self.dead;
            let pending = &self.pending_owner;
            let zone_of = |pos: ChunkPos| effective_zone(&map, pending, pos);
            let frames = repl.hub.flush(repl.cohorts, |pos| {
                let zone = zone_of(pos);
                if dead[zone] {
                    return None;
                }
                servers[zone]
                    .world()
                    .read_chunk(pos, |c| c.serialized_size() as u64)
            });
            if !frames.is_empty() {
                replication_ms = repl
                    .fanout
                    .charge(self.clock.now(), zones, &frames, zone_of);
                replication_frames = frames.len() as u64;
                self.stats.replication_frames += replication_frames;
            }
        }

        // 4. Critical path: the cluster is as slow as its slowest member,
        //    simulation plus the coordination charged to it.
        let mut critical = SimDuration::ZERO;
        let mut breakdown = Vec::with_capacity(zones);
        for zone in 0..zones {
            let coordination = SimDuration::from_millis_f64(
                ledger.endpoints[zone] as f64 * MESSAGE_COST_MS + replication_ms[zone],
            );
            critical = critical.max(reports[zone].duration + coordination);
            breakdown.push(ZoneTickBreakdown {
                zone,
                players: assignment.positions[zone].len(),
                duration: reports[zone].duration,
                coordination,
            });
        }

        // Replication frames ride the bulk lane: they count as messages,
        // but the fan-out stage priced them above, not the ledger.
        let messages = ledger.messages + replication_frames;
        let tick = ClusterTick {
            critical_path: critical,
            cross_server_messages: messages,
        };
        // Feed the next tick boundary's policy observation: each zone's
        // cost this tick (simulation + coordination) and its avatar
        // count. Dead zones are excluded — a policy reading their zero
        // load as headroom would try to migrate shards into a grave.
        self.last_zone_loads = breakdown
            .iter()
            .filter(|zone| !self.dead[zone.zone])
            .map(|zone| ZoneLoadSample {
                zone: zone.zone,
                load_ms: (zone.duration + zone.coordination).as_millis_f64(),
                avatars: zone.players,
            })
            .collect();
        self.details.push(ClusterTickDetail {
            tick,
            zones: breakdown,
            handoffs: assignment.handoffs.len() as u64,
            shard_migrations,
        });
        self.stats.ticks += 1;
        self.stats.cross_server_messages += messages;

        // 5. Lockstep clock: the next cluster tick starts after the tick
        //    interval, or later if the slowest member overran it — the same
        //    rule each member applies to its own clock.
        let budget = self.servers[0].config().tick_budget();

        // Recovery window: from the crash until the cluster is back
        // inside its tick budget with no adoption pending, count every
        // tick (and every tick the adoption storm pushed over QoS).
        if self.recovering {
            self.recovery_stats.recovery_ticks += 1;
            if critical > budget {
                self.recovery_stats.ticks_over_qos += 1;
            } else if self.pending_adoptions.is_empty() {
                self.recovering = false;
            }
        }
        self.clock.advance_by(critical.max(budget));
        tick
    }

    /// Drives the cluster with a player fleet for `duration` of virtual
    /// time, mirroring [`GameServer::run_with_fleet`]: avatars act on the
    /// cluster's lockstep clock, then each tick is routed and executed via
    /// [`ShardedGameCluster::run_tick`].
    pub fn run_with_fleet(
        &mut self,
        fleet: &mut PlayerFleet,
        duration: SimDuration,
    ) -> Vec<ClusterTick> {
        let end = self.clock.now() + duration;
        let budget = self.servers[0].config().tick_budget();
        let mut ticks = Vec::new();
        while self.clock.now() < end {
            let events = fleet.tick(self.clock.now(), budget);
            let positions = fleet.positions();
            ticks.push(self.run_tick(&positions, &events));
        }
        ticks
    }
}

/// The zone that simulates the chunk at `pos` *this* tick: the map's
/// owner, unless the chunk's shard is orphaned and awaiting adoption — then
/// the designated adopter in `pending_owner` (which tolerates simulating
/// over terrain it does not own yet). Routing, border-event forwarding,
/// crash re-homing and the replication flush all ask here. Identical to the
/// map while no adoption is pending.
fn effective_zone(map: &ShardMap, pending_owner: &BTreeMap<usize, usize>, pos: ChunkPos) -> usize {
    let shard = shard_index(pos, map.shard_count());
    pending_owner
        .get(&shard)
        .copied()
        .unwrap_or_else(|| map.zone_of_shard(shard))
}

/// Finds `count` deterministic chunk positions whose eastern neighbour is
/// owned by a different zone of `map` — sites where a construct spanning
/// the chunk seam becomes a *border construct*. Scans columns outward from
/// the origin; panics only if the map has a single zone (no borders
/// exist).
///
/// # Panics
///
/// Panics if `map` has fewer than two zones.
pub fn border_construct_sites(map: &ShardMap, count: usize) -> Vec<ChunkPos> {
    assert!(map.zones() > 1, "a single-zone map has no border sites");
    let mut sites = Vec::with_capacity(count);
    let mut ring = 0i32;
    while sites.len() < count && ring < 10_000 {
        for cz in [-ring, ring] {
            for cx in -ring..=ring {
                let pos = ChunkPos::new(cx, cz);
                let east = ChunkPos::new(cx + 1, cz);
                if map.zone_of_chunk(pos) != map.zone_of_chunk(east) {
                    sites.push(pos);
                    if sites.len() == count {
                        return sites;
                    }
                }
            }
            if ring == 0 {
                break;
            }
        }
        for cx in [-ring, ring] {
            for cz in (-ring + 1)..ring {
                let pos = ChunkPos::new(cx, cz);
                let east = ChunkPos::new(cx + 1, cz);
                if map.zone_of_chunk(pos) != map.zone_of_chunk(east) {
                    sites.push(pos);
                    if sites.len() == count {
                        return sites;
                    }
                }
            }
        }
        ring += 1;
    }
    sites
}

/// Finds `count` chunks owned by `zone` of `map`, each in a *distinct*
/// shard, scanning outward from the origin. These are the natural targets
/// of a hotspot workload: players converging on them pile all their load
/// onto one zone, yet across several shards — exactly the skew a
/// [`RebalancePolicy`] can dissolve by migrating the hot shards apart
/// (whereas a hotspot inside a single shard can only ever be relocated).
///
/// # Panics
///
/// Panics if fewer than `count` qualifying chunks exist within a 64-chunk
/// radius (cannot happen for `count <=` the zone's shard count, since hash
/// sharding scatters every shard's chunks across the plane).
pub fn zone_hotspot_sites(map: &ShardMap, zone: usize, count: usize) -> Vec<ChunkPos> {
    let mut sites = Vec::with_capacity(count);
    let mut used_shards = Vec::new();
    for ring in 0..64i32 {
        for cx in -ring..=ring {
            for cz in -ring..=ring {
                if cx.abs().max(cz.abs()) != ring {
                    continue;
                }
                let pos = ChunkPos::new(cx, cz);
                if map.zone_of_chunk(pos) != zone {
                    continue;
                }
                let shard = servo_world::shard_index(pos, map.shard_count());
                if used_shards.contains(&shard) {
                    continue;
                }
                used_shards.push(shard);
                sites.push(pos);
                if sites.len() == count {
                    return sites;
                }
            }
        }
    }
    panic!(
        "only {} of {count} hotspot sites found for zone {zone}",
        sites.len()
    );
}

/// Translates `blueprint` so it starts eight blocks west of the eastern
/// seam of `site` at height `y` — laid out east-west, any construct longer
/// than eight blocks crosses into the neighbouring chunk. Combined with
/// [`border_construct_sites`] this builds construct fleets that are
/// border-spanning by construction.
pub fn place_across_east_seam(blueprint: &Blueprint, site: ChunkPos, y: i32) -> Blueprint {
    place_across_east_seam_at(blueprint, site, y, 8)
}

/// Like [`place_across_east_seam`], but starting `offset` blocks into
/// `site`'s chunk: an east-west construct of length `L > 16 - offset`
/// still crosses the seam, with `16 - offset` of its blocks west of it
/// and the rest east. Varying the offset skews which side of the seam
/// holds the majority of a border construct's footprint — the signal the
/// border-traffic rebalancing term keys on.
pub fn place_across_east_seam_at(
    blueprint: &Blueprint,
    site: ChunkPos,
    y: i32,
    offset: i32,
) -> Blueprint {
    let base = site.min_block();
    blueprint.translated(BlockPos::new(base.x + offset, y, base.z + 8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use servo_redstone::generators;

    fn flat_config() -> ServerConfig {
        ServerConfig::opencraft().with_view_distance(32)
    }

    fn bounded_fleet(players: usize, seed: u64) -> PlayerFleet {
        let mut fleet = PlayerFleet::new(
            servo_workload::BehaviorKind::Bounded { radius: 24.0 },
            SimRng::seed(seed),
        );
        fleet.connect_all(players);
        fleet
    }

    #[test]
    fn cluster_runs_and_partitions_players() {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 1);
        let mut fleet = bounded_fleet(24, 2);
        let ticks = cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(3));
        assert!(!ticks.is_empty());
        assert_eq!(cluster.stats().ticks, ticks.len() as u64);
        // Every tick simulates every avatar exactly once, across zones.
        for detail in cluster.ticks() {
            let total: usize = detail.zones.iter().map(|z| z.players).sum();
            assert_eq!(total, 24);
        }
        // With 4 hash-interleaved zones the spawn area spans several zones.
        let occupied = cluster
            .ticks()
            .last()
            .unwrap()
            .zones
            .iter()
            .filter(|z| z.players > 0)
            .count();
        assert!(occupied >= 2, "players all landed in {occupied} zone(s)");
        // Each member served terrain for its own shards only.
        for (zone, server) in cluster.servers().iter().enumerate() {
            assert_eq!(server.zone(), Some(zone));
        }
    }

    #[test]
    fn border_constructs_are_detected_and_exchanged() {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 3);
        let sites = border_construct_sites(cluster.shard_map(), 10);
        assert_eq!(sites.len(), 10);
        let map = cluster.shard_map().clone();
        for site in &sites {
            assert_ne!(
                map.zone_of_chunk(*site),
                map.zone_of_chunk(ChunkPos::new(site.x + 1, site.z)),
                "site {site:?} does not straddle zones"
            );
            let blueprint = place_across_east_seam(&generators::wire_line(14), *site, 6);
            cluster.add_construct(blueprint);
        }
        assert_eq!(cluster.construct_count(), 10);
        assert_eq!(cluster.border_construct_count(), 10);
        let mut fleet = bounded_fleet(4, 4);
        cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(2));
        let stats = cluster.stats();
        assert!(stats.construct_exchanges > 0);
        assert!(stats.cross_server_messages >= stats.construct_exchanges * 2);
    }

    #[test]
    fn interior_constructs_cost_no_coordination() {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 5);
        // A construct inside one chunk involves exactly one zone.
        cluster.add_construct(generators::wire_line(5).translated(BlockPos::new(2, 6, 2)));
        assert_eq!(cluster.border_construct_count(), 0);
    }

    #[test]
    fn border_chunk_edits_are_mirrored_to_neighbors() {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 6);
        let mut fleet = bounded_fleet(2, 7);
        // Let spawn terrain load so edits apply.
        cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(2));

        // Find a loaded border chunk in some zone and edit it.
        let map = cluster.shard_map().clone();
        let mut edited = None;
        'search: for (zone, server) in cluster.servers().iter().enumerate() {
            for pos in server.world().loaded_positions() {
                if map.zone_of_chunk(pos) == zone && map.is_border_chunk(pos) {
                    edited = Some((zone, pos));
                    break 'search;
                }
            }
        }
        let (zone, pos) = edited.expect("spawn area must contain a border chunk");
        let block = pos.min_block() + BlockPos::new(3, 9, 3);
        let event = (PlayerId::new(0), PlayerEvent::BlockPlaced(block));
        let positions = fleet.positions();
        let before = cluster.stats().border_chunk_updates;
        cluster.run_tick(&positions, &[event]);
        assert!(cluster.stats().border_chunk_updates > before);
        // Every neighbouring zone received the mirrored chunk copy.
        for neighbor in map.neighbor_zones(pos) {
            assert_eq!(
                cluster.server(neighbor).world().block(block),
                Some(servo_world::Block::Stone),
                "zone {neighbor} missing mirror of {pos:?} (edited by zone {zone})"
            );
        }
    }

    #[test]
    fn cross_zone_edits_invalidate_border_construct_owners() {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 12);
        let site = border_construct_sites(cluster.shard_map(), 1)[0];
        let blueprint = place_across_east_seam(&generators::wire_line(14), site, 6);
        let (owner, id) = cluster.add_construct(blueprint.clone());
        // Pick a construct block on the far side of the seam: its block
        // events route to the neighbouring zone, not the owner.
        let map = cluster.shard_map().clone();
        let foreign_block = blueprint
            .positions()
            .iter()
            .copied()
            .find(|&p| map.zone_of_block(p) != owner)
            .expect("a border construct spans zones");
        let stamp_before = cluster
            .server(owner)
            .construct(id)
            .unwrap()
            .modification_stamp();
        let event = (PlayerId::new(0), PlayerEvent::BlockBroken(foreign_block));
        cluster.run_tick(&[], &[event]);
        // The edit was forwarded across the border, so the owning zone's
        // construct saw the modification exactly as a single server would.
        assert!(cluster.stats().forwarded_border_events > 0);
        assert!(
            cluster
                .server(owner)
                .construct(id)
                .unwrap()
                .modification_stamp()
                > stamp_before,
            "owner's construct never observed the cross-zone edit"
        );
    }

    #[test]
    fn zoned_members_report_view_range_for_owned_terrain_only() {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 13);
        let mut fleet = bounded_fleet(6, 14);
        cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(5));
        // Once each zone's owned terrain is provisioned, the QoS metric
        // recovers to the full view distance on every member — foreign
        // chunks are the neighbouring zones' responsibility, not holes.
        for server in cluster.servers() {
            let last = server.reports().last().unwrap();
            assert_eq!(
                last.view_range_blocks,
                32.0,
                "zone {:?} reports degraded view range",
                server.zone()
            );
        }
    }

    #[test]
    fn mid_run_flush_still_mirrors_border_chunks() {
        use servo_storage::{BlobTier, ObjectStore};

        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 21);
        for zone in 0..4 {
            cluster.bind_persistence(
                zone,
                PersistenceBinding::new(
                    BlobStore::new(BlobTier::Standard, SimRng::seed(100 + zone as u64)),
                    SimRng::seed(200 + zone as u64),
                )
                .write_back_interval(20),
            );
        }
        let mut fleet = bounded_fleet(2, 22);
        cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(2));

        // Dirty a loaded border chunk directly (between ticks), then flush
        // BEFORE any further tick: the flush's destructive drain must still
        // mirror the chunk to the neighbouring replicas.
        let map = cluster.shard_map().clone();
        let mut edited = None;
        'search: for (zone, server) in cluster.servers().iter().enumerate() {
            for pos in server.world().loaded_positions() {
                if map.zone_of_chunk(pos) == zone && map.is_border_chunk(pos) {
                    edited = Some((zone, pos));
                    break 'search;
                }
            }
        }
        let (zone, pos) = edited.expect("spawn area must contain a border chunk");
        let block = pos.min_block() + BlockPos::new(4, 9, 4);
        cluster
            .server(zone)
            .world()
            .set_block(block, servo_world::Block::Lamp)
            .unwrap();
        let mirrored_before = cluster.stats().border_chunk_updates;
        let flushed = cluster.flush_persistence();
        assert!(flushed > 0, "the dirty chunk never reached storage");
        assert!(
            cluster.stats().border_chunk_updates > mirrored_before,
            "flush drained the chunk without mirroring it"
        );
        for neighbor in map.neighbor_zones(pos) {
            assert_eq!(
                cluster.server(neighbor).world().block(block),
                Some(servo_world::Block::Lamp),
                "zone {neighbor} missing the flush-time mirror of {pos:?}"
            );
        }
        // The owning zone persisted it; nobody else did.
        assert_eq!(
            cluster.with_persisted(zone, |remote| remote
                .contains(&format!("terrain/{}/{}", pos.x, pos.z))),
            Some(true)
        );
    }

    #[test]
    fn player_handoffs_cost_messages() {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 8);
        let map = cluster.shard_map().clone();
        // Move one synthetic avatar across a zone seam by hand.
        let sites = border_construct_sites(&map, 1);
        let west = sites[0].min_block() + BlockPos::new(8, 4, 8);
        let east = ChunkPos::new(sites[0].x + 1, sites[0].z).min_block() + BlockPos::new(8, 4, 8);
        cluster.run_tick(&[west], &[]);
        assert_eq!(cluster.stats().handoffs, 0);
        let tick = cluster.run_tick(&[east], &[]);
        assert_eq!(cluster.stats().handoffs, 1);
        assert!(tick.cross_server_messages >= 2);
    }

    #[test]
    fn single_zone_cluster_has_no_coordination() {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 1, 9);
        cluster.add_construct(generators::dense_circuit(64));
        let mut fleet = bounded_fleet(8, 10);
        cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(2));
        let stats = cluster.stats();
        assert_eq!(stats.cross_server_messages, 0);
        assert_eq!(stats.handoffs, 0);
        assert_eq!(stats.border_chunk_updates, 0);
        assert_eq!(stats.construct_exchanges, 0);
        assert_eq!(cluster.border_construct_count(), 0);
    }

    #[test]
    fn discard_ticks_keeps_state() {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 2, 11);
        let mut fleet = bounded_fleet(4, 12);
        cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(1));
        let loaded: usize = cluster
            .servers()
            .iter()
            .map(|s| s.world().loaded_chunks())
            .sum();
        assert!(!cluster.ticks().is_empty());
        cluster.discard_ticks();
        assert!(cluster.ticks().is_empty());
        assert!(cluster.critical_path_durations().is_empty());
        let still_loaded: usize = cluster
            .servers()
            .iter()
            .map(|s| s.world().loaded_chunks())
            .sum();
        assert_eq!(loaded, still_loaded);
    }

    #[test]
    #[should_panic(expected = "at least one zone")]
    fn zero_zones_is_rejected() {
        ShardedGameCluster::baseline(flat_config(), 0, 0);
    }
}
