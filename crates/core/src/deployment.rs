//! Wiring a complete Servo instance.

use std::sync::{Arc, Mutex, MutexGuard};

use servo_faas::{FaasPlatform, FunctionConfig, PlatformConfig};
use servo_pcg::generator_for;
use servo_server::cluster::{BorderExchange, PersistenceBinding, ShardedGameCluster};
use servo_server::ClusterTick;
use servo_server::{GameServer, ServerConfig};
use servo_simkit::SimRng;
use servo_storage::{
    BlobStore, BlobTier, PersistenceStats, PipelinedChunkService, WriteBackDriver,
};
use servo_types::{MemoryMb, SimDuration, SimTime};
use servo_workload::PlayerFleet;
use servo_world::{required_chunks, WorldKind};

use crate::speculative::{
    SharedScPlatform, SpeculationConfig, SpeculationHandle, SpeculationStats, SpeculativeScBackend,
};
use crate::terrain::{FaasTerrainBackend, TerrainOffloadHandle};

/// Configuration of the deployment's persistence pipeline: the
/// [`PipelinedChunkService`] that prefetches terrain from and writes dirty
/// terrain back to serverless blob storage while the game loop runs.
#[derive(Debug, Clone)]
pub struct PersistenceConfig {
    /// Game ticks between write-back (and prefetch) passes.
    pub write_back_interval: u64,
    /// The blob-storage tier terrain persists to.
    pub tier: BlobTier,
}

impl Default for PersistenceConfig {
    fn default() -> Self {
        PersistenceConfig {
            // One pass per simulated second at the 20 Hz tick rate.
            write_back_interval: 20,
            tier: BlobTier::Standard,
        }
    }
}

/// Configuration of a Servo deployment.
#[derive(Debug, Clone)]
pub struct ServoConfig {
    /// The game-server configuration (cost model, tick rate, view distance).
    pub server: ServerConfig,
    /// The speculative execution unit's configuration.
    pub speculation: SpeculationConfig,
    /// FaaS configuration of the SC-offloading function.
    pub sc_function: FunctionConfig,
    /// FaaS configuration of the terrain-generation function.
    pub generation_function: FunctionConfig,
    /// Platform friction (provisioning delay, keep-alive, queueing) of the
    /// SC-offloading function. The frictionless default reproduces the
    /// pre-platform-model behaviour exactly.
    pub sc_platform: PlatformConfig,
    /// Platform friction of the terrain-generation function.
    pub generation_platform: PlatformConfig,
    /// The persistence pipeline configuration; `None` disables remote
    /// persistence (terrain lives only in server memory, the seed
    /// behaviour).
    pub persistence: Option<PersistenceConfig>,
    /// How hybrid clusters built from this configuration exchange
    /// border-construct state across zone seams (ignored by single-server
    /// and classic zoned deployments). The batched default keeps existing
    /// hybrid baselines byte-stable; [`BorderExchange::Speculative`]
    /// ships per-construct sequence handles instead of eager state.
    pub border_exchange: BorderExchange,
    /// Seed for all random streams of the deployment.
    pub seed: u64,
}

impl Default for ServoConfig {
    fn default() -> Self {
        ServoConfig {
            server: ServerConfig::servo_base(),
            speculation: SpeculationConfig::default(),
            sc_function: FunctionConfig::aws_like(MemoryMb::new(2048)),
            generation_function: FunctionConfig::aws_like(MemoryMb::new(10240)),
            sc_platform: PlatformConfig::frictionless(),
            generation_platform: PlatformConfig::frictionless(),
            persistence: Some(PersistenceConfig::default()),
            border_exchange: BorderExchange::Batched,
            seed: 42,
        }
    }
}

/// Builder for [`ServoDeployment`].
#[derive(Debug, Clone, Default)]
pub struct ServoBuilder {
    config: ServoConfig,
}

impl ServoBuilder {
    /// Sets the random seed of the deployment.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the view distance of the game server, in blocks.
    pub fn view_distance(mut self, blocks: i32) -> Self {
        self.config.server.view_distance_blocks = blocks.max(0);
        self
    }

    /// Sets the world kind hosted by the instance.
    pub fn world_kind(mut self, kind: WorldKind) -> Self {
        self.config.server.world_kind = kind;
        self
    }

    /// Sets the speculation configuration.
    pub fn speculation(mut self, speculation: SpeculationConfig) -> Self {
        self.config.speculation = speculation;
        self
    }

    /// Sets the FaaS configuration of the SC-offloading function.
    pub fn sc_function(mut self, function: FunctionConfig) -> Self {
        self.config.sc_function = function;
        self
    }

    /// Sets the FaaS configuration of the terrain-generation function.
    pub fn generation_function(mut self, function: FunctionConfig) -> Self {
        self.config.generation_function = function;
        self
    }

    /// Sets the platform friction of the SC-offloading function.
    pub fn sc_platform(mut self, platform: PlatformConfig) -> Self {
        self.config.sc_platform = platform;
        self
    }

    /// Sets the platform friction of the terrain-generation function.
    pub fn generation_platform(mut self, platform: PlatformConfig) -> Self {
        self.config.generation_platform = platform;
        self
    }

    /// Replaces the full server configuration.
    pub fn server_config(mut self, server: ServerConfig) -> Self {
        self.config.server = server;
        self
    }

    /// Sets (or, with `None`, disables) the persistence pipeline
    /// configuration.
    pub fn persistence(mut self, persistence: Option<PersistenceConfig>) -> Self {
        self.config.persistence = persistence;
        self
    }

    /// Sets how hybrid clusters exchange border-construct state across
    /// zone seams (defaults to [`BorderExchange::Batched`]).
    pub fn border_exchange(mut self, exchange: BorderExchange) -> Self {
        self.config.border_exchange = exchange;
        self
    }

    /// Builds the deployment.
    pub fn build(self) -> ServoDeployment {
        ServoDeployment::from_config(self.config)
    }

    /// Builds a *zoned* cluster instead of a single Servo instance:
    /// `zones` real game servers sharing the configured cost model, view
    /// distance and world kind, each wired its own per-zone
    /// [`ChunkService`](servo_storage::ChunkService) generation backend
    /// and restricted to its own slice of world shards. Constructs are
    /// simulated locally per zone (every other tick, as the production
    /// baselines do) — zoning is the classic
    /// alternative to Servo's offloading, which is exactly the comparison
    /// the multiserver ablation runs on [`ShardedGameCluster::baseline`].
    pub fn zoned(self, zones: usize) -> ShardedGameCluster {
        ShardedGameCluster::baseline(self.config.server.clone(), zones, self.config.seed)
    }

    /// Builds a *hybrid* zoned+offloading cluster: zoning for players and
    /// terrain, serverless offloading for constructs, per-zone persistence.
    /// See [`HybridDeployment`].
    pub fn hybrid(self, zones: usize) -> HybridDeployment {
        HybridDeployment::from_config(self.config, zones)
    }
}

/// A complete Servo instance: the game server with Servo's serverless
/// backends plugged in, plus handles for inspecting the serverless side
/// after an experiment.
pub struct ServoDeployment {
    /// The running game server.
    pub server: GameServer,
    /// Handle to the speculative execution unit's statistics and billing.
    pub speculation: SpeculationHandle,
    /// Handle to the terrain-offloading statistics and billing.
    pub terrain: TerrainOffloadHandle,
    /// The configuration the deployment was built from.
    pub config: ServoConfig,
    /// The persistence pipeline, bound to the server's world so per-shard
    /// dirty deltas flow into write-back (Section III-E). Driven by
    /// [`ServoDeployment::run_with_fleet`].
    persistence: Option<WriteBackDriver>,
}

impl std::fmt::Debug for ServoDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServoDeployment")
            .field("server", &self.server)
            .field("seed", &self.config.seed)
            .finish()
    }
}

impl ServoDeployment {
    /// Starts building a deployment with default configuration.
    pub fn builder() -> ServoBuilder {
        ServoBuilder::default()
    }

    /// Builds a deployment from an explicit configuration.
    pub fn from_config(config: ServoConfig) -> Self {
        let rng = SimRng::seed(config.seed);

        let sc_platform = FaasPlatform::with_platform_config(
            config.sc_function.clone(),
            config.sc_platform,
            rng.substream("sc-faas"),
        );
        let sc_backend = SpeculativeScBackend::new(config.speculation, sc_platform);
        let (server, speculation, terrain) = serverless_server(&config, sc_backend, &rng);

        let persistence = config.persistence.as_ref().map(|p| {
            let remote = BlobStore::new(p.tier, rng.substream("persistence-blob"));
            let service = PipelinedChunkService::new(remote, rng.substream("persistence-disk"), 1);
            WriteBackDriver::new(
                service.with_world(server.world_handle()),
                p.write_back_interval,
            )
        });

        ServoDeployment {
            server,
            speculation,
            terrain,
            config,
            persistence,
        }
    }

    /// Counters of the persistence pipeline (all zero when persistence is
    /// disabled or the deployment is driven through the bare server).
    pub fn persistence_stats(&self) -> PersistenceStats {
        self.persistence
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default()
    }

    /// Runs `f` against the persistence pipeline's remote blob store, e.g.
    /// to inspect what has been persisted. Returns `None` when persistence
    /// is disabled.
    pub fn with_persisted<T>(&self, f: impl FnOnce(&mut BlobStore) -> T) -> Option<T> {
        self.persistence.as_ref().map(|p| p.service.with_remote(f))
    }

    /// Drives the server with a player fleet for `duration` of virtual
    /// time — like [`GameServer::run_with_fleet`] — while also driving the
    /// persistence pipeline: every
    /// [`PersistenceConfig::write_back_interval`] ticks the deployment
    /// prefetches the terrain the fleet currently needs and flushes dirty
    /// shards to blob storage, all through the measured
    /// [`PipelinedChunkService`] rather than ad-hoc storage calls.
    pub fn run_with_fleet(
        &mut self,
        fleet: &mut PlayerFleet,
        duration: SimDuration,
    ) -> Vec<servo_server::TickReport> {
        let end = self.server.now() + duration;
        let tick_budget = self.server.config().tick_budget();
        let view_distance = self.server.config().view_distance_blocks;
        let mut reports = Vec::new();
        // Every call starts its own cadence: the first pass comes a full
        // interval after the call, however the previous one ended.
        if let Some(persistence) = self.persistence.as_mut() {
            persistence.restart_cadence();
        }
        while self.server.now() < end {
            let events = fleet.tick(self.server.now(), tick_budget);
            let positions = fleet.positions();
            reports.push(self.server.run_tick(&positions, &events));
            if let Some(persistence) = self.persistence.as_mut() {
                persistence.tick(self.server.now(), || {
                    required_chunks(&positions, view_distance)
                });
            }
        }
        reports
    }

    /// Flushes all remaining dirty terrain through the persistence
    /// pipeline and waits for the pass to complete. Returns the number of
    /// chunks written, or zero when persistence is disabled.
    pub fn flush_persistence(&mut self) -> u64 {
        let now = self.server.now();
        self.persistence.as_mut().map_or(0, |p| p.flush(now))
    }

    /// Builds the Opencraft baseline with the same world kind and view
    /// distance as this configuration would use — convenience for
    /// comparative experiments.
    pub fn opencraft_baseline(seed: u64, config: &ServerConfig) -> GameServer {
        Self::local_baseline(
            ServerConfig {
                costs: servo_server::CostModel::opencraft(),
                name: "Opencraft",
                ..config.clone()
            },
            seed,
        )
    }

    /// Builds the Minecraft baseline with the same world kind and view
    /// distance as this configuration would use.
    pub fn minecraft_baseline(seed: u64, config: &ServerConfig) -> GameServer {
        Self::local_baseline(
            ServerConfig {
                costs: servo_server::CostModel::minecraft(),
                name: "Minecraft",
                ..config.clone()
            },
            seed,
        )
    }

    fn local_baseline(config: ServerConfig, seed: u64) -> GameServer {
        let generator = generator_for(config.world_kind, seed);
        let rng = SimRng::seed(seed);
        GameServer::new(
            config,
            Box::new(servo_server::LocalScBackend::every_other_tick()),
            Box::new(servo_server::LocalGenerationBackend::new(generator, 8)),
            rng.substream("server"),
        )
    }
}

/// A game server with Servo's serverless backends plugged in — what a
/// [`ServoDeployment`] is and what every zone of a [`HybridDeployment`]
/// runs: `sc_backend` for constructs, a FaaS terrain-generation service on
/// `rng`'s `generation-faas` stream, the server itself on its `server`
/// stream. Returns the server with the inspection handles of both backends.
fn serverless_server(
    config: &ServoConfig,
    sc_backend: SpeculativeScBackend,
    rng: &SimRng,
) -> (GameServer, SpeculationHandle, TerrainOffloadHandle) {
    let speculation = sc_backend.handle();
    let generation_platform = FaasPlatform::with_platform_config(
        config.generation_function.clone(),
        config.generation_platform,
        rng.substream("generation-faas"),
    );
    let terrain_backend = FaasTerrainBackend::new(
        generator_for(config.server.world_kind, config.seed),
        generation_platform,
    );
    let terrain = terrain_backend.handle();
    let server = GameServer::new(
        config.server.clone(),
        Box::new(sc_backend),
        Box::new(terrain_backend),
        rng.substream("server"),
    );
    (server, speculation, terrain)
}

/// A hybrid zoned+offloading deployment — the configuration operators
/// would actually run (argued by the paper's extended technical report):
/// the world is partitioned over `zones` real game servers (zoning handles
/// players and terrain locality), while **every** zone plugs in Servo's
/// serverless backends — a [`SpeculativeScBackend`] over one *shared* FaaS
/// platform (cluster-level concurrency limits and billing), a per-zone
/// FaaS terrain-generation service, and a per-zone persistence pipeline
/// flushing exactly the zone's owned world shards to blob storage.
///
/// Border-construct state crosses zone seams in *batched* form
/// ([`BorderExchange::Batched`]) by default: offloaded speculative
/// sequences make construct states available as precomputed bundles, so
/// each (owner, neighbour) server pair exchanges one bundle per simulated
/// tick instead of one round-trip per construct — which is what lets the
/// hybrid stay within QoS on border-construct workloads where classic
/// zoning collapses (measured by `ablation_hybrid`).
/// [`ServoBuilder::border_exchange`] switches the cluster to the
/// speculation-aware handle exchange ([`BorderExchange::Speculative`]):
/// neighbours replay published sequences from the shared substrate and
/// the seam only carries per-construct handles on invalidation (measured
/// by `ablation_border`).
///
/// A 1-zone hybrid derives exactly the random streams of the single
/// [`ServoDeployment`], so it is tick-for-tick — and persisted-byte-for-
/// byte — identical to it (asserted by the `hybrid_equivalence` suite).
pub struct HybridDeployment {
    /// The running cluster (drive it with
    /// [`ShardedGameCluster::run_with_fleet`] or
    /// [`HybridDeployment::run_with_fleet`]).
    pub cluster: ShardedGameCluster,
    /// Per-zone handles to the speculative execution units' statistics.
    pub speculation: Vec<SpeculationHandle>,
    /// Per-zone handles to the terrain-offloading statistics.
    pub terrain: Vec<TerrainOffloadHandle>,
    /// The configuration the deployment was built from.
    pub config: ServoConfig,
    sc_platform: SharedScPlatform,
}

impl std::fmt::Debug for HybridDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridDeployment")
            .field("zones", &self.cluster.zones())
            .field("seed", &self.config.seed)
            .finish()
    }
}

impl HybridDeployment {
    /// Builds a hybrid deployment from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `zones` is zero.
    pub fn from_config(config: ServoConfig, zones: usize) -> Self {
        assert!(zones > 0, "a hybrid deployment needs at least one zone");
        let root = SimRng::seed(config.seed);
        // One platform for the SC-offload function, shared by every zone:
        // concurrency limits, the warm-container pool and the billing
        // meter are cluster-level, as for a real shared function
        // deployment.
        let sc_platform: SharedScPlatform =
            Arc::new(Mutex::new(FaasPlatform::with_platform_config(
                config.sc_function.clone(),
                config.sc_platform,
                root.substream("sc-faas"),
            )));
        // A 1-zone hybrid *is* the single Servo deployment: derive the same
        // streams `ServoDeployment::from_config` uses, so the equivalence
        // is exact. Multi-zone deployments give every zone its own
        // substream family.
        let zone_rng = |zone: usize| {
            if zones == 1 {
                root.clone()
            } else {
                root.substream_indexed("zone", zone as u64)
            }
        };
        let mut speculation = Vec::with_capacity(zones);
        let mut terrain = Vec::with_capacity(zones);
        let mut cluster = ShardedGameCluster::new(zones, |zone| {
            let sc_backend =
                SpeculativeScBackend::over(config.speculation, Arc::clone(&sc_platform));
            let (server, sc_handle, terrain_handle) =
                serverless_server(&config, sc_backend, &zone_rng(zone));
            speculation.push(sc_handle);
            terrain.push(terrain_handle);
            server
        })
        .with_border_exchange(config.border_exchange);
        if let Some(persistence) = &config.persistence {
            for zone in 0..zones {
                let rng = zone_rng(zone);
                let binding = PersistenceBinding::new(
                    BlobStore::new(persistence.tier, rng.substream("persistence-blob")),
                    rng.substream("persistence-disk"),
                )
                .write_back_interval(persistence.write_back_interval);
                cluster.bind_persistence(zone, binding);
            }
        }
        HybridDeployment {
            cluster,
            speculation,
            terrain,
            config,
            sc_platform,
        }
    }

    /// Enables dynamic zone rebalancing on the underlying cluster. The
    /// hybrid's speculative backends survive mid-run ownership changes:
    /// when a shard migration moves a construct to another zone's server,
    /// the source zone's `SpeculativeScBackend` releases its in-flight
    /// speculation (counted as `discarded_migrated`) and the destination
    /// zone re-establishes speculation from the construct's live state —
    /// over the same shared platform, so billing and concurrency stay
    /// cluster-level.
    pub fn enable_rebalancing(&mut self, policy: servo_world::RebalancePolicy) {
        self.cluster.enable_rebalancing(policy);
    }

    /// Schedules zone `zone` to crash at the start of cluster tick
    /// `tick`. The hybrid survives the crash: the substrate abandons the
    /// dead zone's in-flight speculation, its persistence pipeline is
    /// fenced, and the surviving zones adopt its shards — rebuilding
    /// terrain from the dead zone's remote store plus its write-ahead
    /// log and re-homing its constructs (see
    /// [`ShardedGameCluster::crash_zone`]).
    pub fn crash_zone(&mut self, zone: usize, tick: u64) {
        self.cluster.crash_zone(zone, tick);
    }

    /// Lifetime counters of the crash-recovery machinery.
    pub fn recovery_stats(&self) -> servo_server::RecoveryStats {
        self.cluster.recovery_stats()
    }

    /// Drives the cluster with a player fleet for `duration` of virtual
    /// time (persistence is driven inside the cluster tick).
    pub fn run_with_fleet(
        &mut self,
        fleet: &mut PlayerFleet,
        duration: SimDuration,
    ) -> Vec<ClusterTick> {
        self.cluster.run_with_fleet(fleet, duration)
    }

    /// Flushes all remaining dirty terrain of every zone and returns the
    /// number of chunks written.
    pub fn flush_persistence(&mut self) -> u64 {
        self.cluster.flush_persistence()
    }

    /// The persistence counters summed over all zones.
    pub fn persistence_stats(&self) -> PersistenceStats {
        self.cluster.persistence_stats_total()
    }

    /// The speculation statistics merged over all zones.
    pub fn speculation_stats_total(&self) -> SpeculationStats {
        let mut total = SpeculationStats::default();
        for handle in &self.speculation {
            total.merge(&handle.stats());
        }
        total
    }

    /// The cluster-level billing meter of the shared SC-offload function.
    pub fn sc_billing(&self) -> servo_faas::BillingMeter {
        self.sc_platform().billing().clone()
    }

    /// The cluster-level platform statistics of the shared SC-offload
    /// function (invocations, cold starts, peak concurrency).
    pub fn sc_platform_stats(&self) -> servo_faas::PlatformStats {
        self.sc_platform().stats()
    }

    /// The cluster-level billing meter as it reads at `now`, including the
    /// warm-idle time accrued by containers the keep-alive policy holds
    /// open.
    pub fn sc_billing_at(&self, now: SimTime) -> servo_faas::BillingMeter {
        self.sc_platform().billing_at(now)
    }

    fn sc_platform(&self) -> MutexGuard<'_, FaasPlatform> {
        self.sc_platform.lock().expect("SC platform lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servo_redstone::generators;
    use servo_storage::ObjectStore;
    use servo_types::SimDuration;
    use servo_workload::{BehaviorKind, PlayerFleet};

    fn bounded_fleet(players: usize, seed: u64) -> PlayerFleet {
        let mut fleet =
            PlayerFleet::new(BehaviorKind::Bounded { radius: 24.0 }, SimRng::seed(seed));
        fleet.connect_all(players);
        fleet
    }

    #[test]
    fn deployment_runs_and_offloads() {
        let mut deployment = ServoDeployment::builder().seed(3).view_distance(32).build();
        deployment
            .server
            .add_constructs(20, |_| generators::dense_circuit(64));
        let mut fleet = bounded_fleet(30, 4);
        deployment
            .server
            .run_with_fleet(&mut fleet, SimDuration::from_secs(10));
        let stats = deployment.server.stats();
        // The overwhelming majority of construct-ticks are served from
        // offloaded results, not local simulation.
        assert!(stats.sc_merged + stats.sc_replayed > stats.sc_local * 3);
        assert!(deployment.speculation.stats().invocations > 0);
        // Terrain was generated through FaaS.
        assert!(deployment.terrain.stats().invocations > 0);
        assert!(deployment.server.world().loaded_chunks() > 0);
    }

    #[test]
    fn servo_beats_opencraft_with_many_constructs() {
        let constructs = 150usize;
        let players = 40usize;
        let seconds = 8u64;

        let mut servo = ServoDeployment::builder().seed(5).view_distance(32).build();
        servo
            .server
            .add_constructs(constructs, |_| generators::dense_circuit(64));
        let mut fleet = bounded_fleet(players, 6);
        servo
            .server
            .run_with_fleet(&mut fleet, SimDuration::from_secs(seconds));

        let mut opencraft = ServoDeployment::opencraft_baseline(
            5,
            &ServerConfig::opencraft().with_view_distance(32),
        );
        opencraft.add_constructs(constructs, |_| generators::dense_circuit(64));
        let mut fleet = bounded_fleet(players, 6);
        opencraft.run_with_fleet(&mut fleet, SimDuration::from_secs(seconds));

        let mean = |s: &GameServer| {
            let d = s.tick_durations();
            d.iter().map(|x| x.as_millis_f64()).sum::<f64>() / d.len() as f64
        };
        assert!(
            mean(&servo.server) * 2.0 < mean(&opencraft),
            "servo {} vs opencraft {}",
            mean(&servo.server),
            mean(&opencraft)
        );
    }

    #[test]
    fn persistence_pipeline_flushes_player_edits() {
        let mut deployment = ServoDeployment::builder()
            .seed(11)
            .view_distance(32)
            .build();
        let mut fleet = PlayerFleet::new(BehaviorKind::Random, SimRng::seed(12));
        fleet.connect_all(10);
        deployment.run_with_fleet(&mut fleet, SimDuration::from_secs(10));
        deployment.flush_persistence();
        let stats = deployment.persistence_stats();
        assert!(stats.write_back_passes > 0, "no write-back pass ran");
        assert!(stats.chunks_flushed > 0, "no dirty chunk reached storage");
        let persisted = deployment.with_persisted(|remote| remote.len()).unwrap();
        assert!(persisted > 0, "remote blob store is empty");
        // A second flush with no new edits writes nothing further.
        assert_eq!(deployment.flush_persistence(), 0);
    }

    #[test]
    fn persistence_can_be_disabled() {
        let mut deployment = ServoDeployment::builder()
            .seed(13)
            .view_distance(32)
            .persistence(None)
            .build();
        let mut fleet = bounded_fleet(5, 14);
        let reports = deployment.run_with_fleet(&mut fleet, SimDuration::from_secs(2));
        assert!(!reports.is_empty());
        assert_eq!(deployment.flush_persistence(), 0);
        assert_eq!(deployment.persistence_stats(), PersistenceStats::default());
        assert!(deployment.with_persisted(|remote| remote.len()).is_none());
    }

    #[test]
    fn hybrid_offloads_constructs_and_batches_border_exchanges() {
        use servo_server::cluster::{border_construct_sites, place_across_east_seam};

        let mut hybrid = ServoDeployment::builder()
            .seed(51)
            .view_distance(32)
            .hybrid(4);
        assert_eq!(hybrid.cluster.border_exchange(), BorderExchange::Batched);
        assert_eq!(hybrid.cluster.zones(), 4);
        // A fleet of border-spanning constructs: far more constructs than
        // (owner, neighbour) zone pairs, which is where batching wins.
        let sites = border_construct_sites(hybrid.cluster.shard_map(), 40);
        for site in &sites {
            hybrid.cluster.add_construct(place_across_east_seam(
                &generators::wire_line(14),
                *site,
                6,
            ));
        }
        assert_eq!(hybrid.cluster.border_construct_count(), 40);
        let mut fleet = bounded_fleet(8, 52);
        hybrid.run_with_fleet(&mut fleet, SimDuration::from_secs(6));

        // Constructs are served from offloaded results, not local stepping.
        let stats = hybrid.cluster.server_stats_total();
        assert!(
            stats.sc_merged + stats.sc_replayed > stats.sc_local,
            "offloading never took over: local {} merged {} replayed {}",
            stats.sc_local,
            stats.sc_merged,
            stats.sc_replayed
        );
        // Batched exchange: messages stay far below the two-per-exchange
        // cost the per-construct baseline pays.
        let cluster_stats = hybrid.cluster.stats();
        assert!(cluster_stats.construct_exchanges > 0);
        assert!(
            cluster_stats.cross_server_messages < cluster_stats.construct_exchanges * 2,
            "batching never paid off: {} messages for {} exchanges",
            cluster_stats.cross_server_messages,
            cluster_stats.construct_exchanges
        );
        // The shared platform meters the union of all zones' invocations.
        let per_zone: u64 = (0..4)
            .map(|zone| hybrid.speculation[zone].stats().invocations)
            .sum();
        assert!(per_zone > 0);
        assert_eq!(hybrid.sc_platform_stats().invocations, per_zone);
        assert_eq!(hybrid.sc_billing().invocations(), per_zone);
        assert_eq!(hybrid.speculation_stats_total().invocations, per_zone);
    }

    #[test]
    fn hybrid_speculation_survives_mid_run_ownership_changes() {
        use servo_server::cluster::zone_hotspot_sites;
        use servo_types::{BlockPos, SimTime};
        use servo_workload::Hotspot;
        use servo_world::{RebalanceConfig, RebalancePolicy};

        let mut hybrid = ServoDeployment::builder()
            .seed(83)
            .view_distance(32)
            .hybrid(4);
        hybrid.enable_rebalancing(RebalancePolicy::new(RebalanceConfig {
            warmup_ticks: 10,
            evaluate_every: 5,
            cooldown_ticks: 20,
            trigger_ratio: 1.2,
            min_gap_ms: 0.5,
            max_migrations_per_step: 8,
            ..RebalanceConfig::default()
        }));
        // Constructs inside the future-hot chunks: their speculation is in
        // flight on zone 0's backend when the migration moves them away.
        let sites = zone_hotspot_sites(hybrid.cluster.shard_map(), 0, 4);
        for site in &sites {
            let base = site.min_block() + BlockPos::new(2, 6, 2);
            hybrid
                .cluster
                .add_construct(generators::dense_circuit(48).translated(base));
        }
        let mut fleet = bounded_fleet(40, 84);
        fleet.set_hotspot(Hotspot {
            targets: Hotspot::chunk_centers(&sites),
            converge_at: SimTime::from_secs(2),
            disperse_at: SimTime::from_secs(3_600),
            travel_speed: 24.0,
            dwell_radius: 4.0,
        });
        hybrid.run_with_fleet(&mut fleet, SimDuration::from_secs(12));

        let rebalance = hybrid.cluster.rebalance_stats();
        assert!(
            rebalance.constructs_transferred > 0,
            "no construct ever migrated: {rebalance:?}"
        );
        // Speculation kept working across the ownership change: constructs
        // are still overwhelmingly served from offloaded results, and the
        // shared platform's meter still matches the per-zone sum.
        let stats = hybrid.cluster.server_stats_total();
        assert!(
            stats.sc_merged + stats.sc_replayed > stats.sc_local,
            "offloading never recovered after migration: {stats:?}"
        );
        let speculation = hybrid.speculation_stats_total();
        assert_eq!(
            hybrid.sc_platform_stats().invocations,
            speculation.invocations
        );
        // Every registered construct is still simulated by exactly one
        // server — none was lost or duplicated by the handoff.
        for index in 0..hybrid.cluster.construct_count() {
            let (zone, id) = hybrid
                .cluster
                .construct_location(index)
                .expect("registered construct");
            assert!(
                hybrid.cluster.server(zone).construct(id).is_some(),
                "construct {index} missing from zone {zone} after migration"
            );
        }
    }

    #[test]
    fn zoned_builder_produces_a_restricted_cluster() {
        let cluster = ServoDeployment::builder()
            .seed(15)
            .view_distance(32)
            .zoned(4);
        assert_eq!(cluster.zones(), 4);
        for (zone, server) in cluster.servers().iter().enumerate() {
            assert_eq!(server.zone(), Some(zone));
            assert_eq!(server.config().view_distance_blocks, 32);
        }
    }

    #[test]
    fn builder_options_are_applied() {
        let deployment = ServoDeployment::builder()
            .seed(9)
            .view_distance(64)
            .world_kind(WorldKind::Default)
            .speculation(SpeculationConfig {
                tick_lead: 5,
                ..SpeculationConfig::default()
            })
            .build();
        assert_eq!(deployment.config.seed, 9);
        assert_eq!(deployment.config.server.view_distance_blocks, 64);
        assert_eq!(deployment.config.speculation.tick_lead, 5);
        assert_eq!(deployment.server.config().name, "Servo");
    }

    #[test]
    fn baselines_share_world_settings() {
        let config = ServerConfig::minecraft().with_view_distance(48);
        let baseline = ServoDeployment::minecraft_baseline(1, &config);
        assert_eq!(baseline.config().view_distance_blocks, 48);
        assert_eq!(baseline.config().name, "Minecraft");
        let opencraft = ServoDeployment::opencraft_baseline(1, &config);
        assert_eq!(opencraft.config().name, "Opencraft");
    }
}
