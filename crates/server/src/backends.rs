//! Pluggable backends for construct simulation and terrain provisioning.
//!
//! Construct simulation plugs in through [`ScBackend`]. Terrain flows
//! through the unified [`ChunkService`] request/completion API of
//! `servo-storage`: the game loop submits [`ChunkRequest::Read`]s for
//! chunks it is missing and integrates whatever [`ChunkOutcome::Loaded`]
//! completions come back, never blocking on generation or storage. The
//! baselines use [`LocalGenerationBackend`] (a bounded worker pool on the
//! game server, modelled on the simulated clock); Servo plugs in its FaaS
//! generation service from `servo-core`.
//!
//! The pre-redesign `TerrainBackend` trait and its `TerrainBackendShim`
//! adapter rode out their one-release deprecation window and are gone;
//! terrain providers implement [`ChunkService`] directly.

use std::collections::{HashMap, HashSet};

use servo_faas::{Autoscaler, AutoscalerConfig, AutoscalerStats, RequestQueue};
use servo_pcg::TerrainGenerator;
use servo_redstone::Construct;
use servo_storage::{
    ChunkCompletion, ChunkLocation, ChunkOutcome, ChunkRequest, ChunkService, ShardDelta, Ticket,
};
use servo_types::{ChunkPos, ConstructId, SimTime, Tick};
use servo_world::Chunk;

/// How a construct's state was advanced during a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScResolution {
    /// The construct was stepped locally on the game server.
    LocalSimulated,
    /// A speculative state computed by an offloaded function was applied.
    SpeculativeApplied,
    /// A state from a detected loop was replayed without any simulation.
    LoopReplayed,
    /// The construct was not simulated this tick (the baselines simulate
    /// constructs only every other tick).
    Skipped,
}

/// A strategy for advancing simulated constructs each tick.
///
/// The baselines use [`LocalScBackend`]; Servo plugs in its speculative
/// execution unit (implemented in the `servo-core` crate). Each tick the
/// game loop calls [`ScBackend::resolve`] once per construct it owns, in
/// the order the constructs were added.
pub trait ScBackend {
    /// Advances `construct` for game tick `tick` at virtual time `now` and
    /// reports how its state was obtained.
    fn resolve(
        &mut self,
        id: ConstructId,
        construct: &mut Construct,
        tick: Tick,
        now: SimTime,
    ) -> ScResolution;

    /// Notifies the backend that construct `id` is leaving this server —
    /// e.g. a zoned cluster migrating the construct's shard to another
    /// zone. Backends holding per-construct state (in-flight speculation,
    /// cached sequences) must drop it here so a later id reuse or a stale
    /// completion cannot corrupt a construct the server no longer owns.
    /// The default is a no-op, which is correct for stateless backends.
    fn release(&mut self, _id: ConstructId) {}

    /// The precomputed speculative sequence currently serving construct
    /// `id` from shared remote storage, if the backend has one. A zoned
    /// cluster running `BorderExchange::Speculative` uses this to let
    /// neighbour zones *join* the sequence — one handle message when the
    /// identity changes, zero messages while it stays valid — instead of
    /// shipping per-tick state bundles. Backends that simulate locally
    /// (the baselines) have no shareable sequence and keep the default
    /// `None`, which makes the speculative exchange degrade to the eager
    /// batched path.
    fn published_sequence(&self, _id: ConstructId) -> Option<PublishedSequence> {
        None
    }

    /// A short name for experiment output.
    fn name(&self) -> &'static str;
}

/// The identity of a precomputed construct sequence available in shared
/// remote storage — what a `BorderExchange::Speculative` cluster ships to
/// neighbour zones instead of per-tick state bundles (one message per
/// *sequence*, not per simulated tick).
///
/// Two handles are the same sequence exactly when they compare equal: the
/// platform `stamp` names the invocation that produced it and `start_step`
/// anchors where in the construct's life it applies, so any modification
/// (which re-invokes under a fresh stamp) or migration (which releases the
/// slot) changes the identity and forces a new handle message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishedSequence {
    /// The platform invocation stamp that produced the sequence.
    pub stamp: u64,
    /// The construct step the sequence's first state applies to.
    pub start_step: u64,
    /// The construct step up to which the sequence can serve states —
    /// `u64::MAX` when the sequence detected a loop (replay serves any
    /// future step).
    pub horizon: u64,
}

/// Local construct simulation, as Opencraft and Minecraft do it.
///
/// Both baselines simulate constructs every *other* tick — the
/// implementation detail the paper identifies as the cause of their bimodal
/// tick-duration distributions (Section IV-B).
#[derive(Debug, Clone, Copy)]
pub struct LocalScBackend {
    every_other_tick: bool,
}

impl LocalScBackend {
    /// Simulates constructs on every tick.
    pub fn every_tick() -> Self {
        LocalScBackend {
            every_other_tick: false,
        }
    }

    /// Simulates constructs only on even ticks (the baseline behaviour).
    pub fn every_other_tick() -> Self {
        LocalScBackend {
            every_other_tick: true,
        }
    }
}

impl ScBackend for LocalScBackend {
    fn resolve(
        &mut self,
        _id: ConstructId,
        construct: &mut Construct,
        tick: Tick,
        _now: SimTime,
    ) -> ScResolution {
        if self.every_other_tick && tick.0 % 2 == 1 {
            return ScResolution::Skipped;
        }
        construct.step();
        ScResolution::LocalSimulated
    }

    fn name(&self) -> &'static str {
        "local"
    }
}

/// The submit/complete bookkeeping every generation-style [`ChunkService`]
/// shares: the virtual clock observed from `poll`, ticket allocation,
/// duplicate suppression, and the ticket/issue-time record per chunk in
/// generation. Used by [`LocalGenerationBackend`] and the FaaS generation
/// backend of `servo-core`.
#[derive(Debug, Default)]
pub struct GenerationClock {
    now: SimTime,
    ticket_seq: u64,
    /// Every position admitted so far and not forgotten: a chunk is
    /// generated once, however often the game loop asks for it.
    admitted: HashSet<ChunkPos>,
    /// The admitted positions whose chunk has not been delivered yet.
    issued: HashMap<ChunkPos, (Ticket, SimTime)>,
}

impl GenerationClock {
    /// The virtual time observed from the most recent `poll` — the issue
    /// time subsequent submissions should use.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the observed virtual time (call at the top of `poll`).
    pub fn advance(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Un-admits `pos` and drops its issue record (e.g. when an invocation
    /// failed and the position may be retried under a fresh ticket).
    pub fn forget(&mut self, pos: ChunkPos) {
        self.admitted.remove(&pos);
        self.issued.remove(&pos);
    }

    fn next_ticket(&mut self) -> Ticket {
        self.ticket_seq += 1;
        Ticket(self.ticket_seq)
    }

    /// Allocates a ticket for `request` and returns the chunk positions it
    /// is the first to ask for — the ones the service must now generate
    /// (none for maintenance requests, which generation services treat as
    /// no-ops). Positions admitted before keep their original ticket, which
    /// their completion carries, and are not returned again, delivered or
    /// not.
    pub fn admit(&mut self, request: &ChunkRequest) -> (Ticket, Vec<ChunkPos>) {
        let ticket = self.next_ticket();
        let mut positions: Vec<ChunkPos> = match request {
            ChunkRequest::Read { pos, .. } => vec![*pos],
            ChunkRequest::Prefetch { positions, .. } => positions.clone(),
            ChunkRequest::WriteBack { .. } | ChunkRequest::Evict { .. } => Vec::new(),
        };
        positions.retain(|&pos| self.admitted.insert(pos));
        for &pos in &positions {
            self.issued.insert(pos, (ticket, self.now));
        }
        (ticket, positions)
    }

    /// Wraps generated chunks into completions carrying the ticket and
    /// issue time of the request that first asked for them.
    pub fn complete(&mut self, ready: Vec<Chunk>, now: SimTime) -> Vec<ChunkCompletion> {
        ready
            .into_iter()
            .map(|chunk| {
                let pos = chunk.pos();
                let (ticket, issued) = self.issued.remove(&pos).unwrap_or((Ticket(0), now));
                ChunkCompletion {
                    ticket,
                    outcome: ChunkOutcome::Loaded {
                        pos,
                        chunk: Box::new(chunk),
                        location: ChunkLocation::Generated,
                        latency: now.saturating_since(issued),
                    },
                }
            })
            .collect()
    }
}

/// Terrain generation in a bounded pool of workers on the game server, the
/// way the monolithic baselines do it. The workers are modelled on the
/// simulated clock: a job occupies one worker for the generator's cost,
/// and no host thread runs. Plugs into the game
/// loop as a [`ChunkService`]: `Read`/`Prefetch` requests queue generation
/// jobs, completed chunks surface as [`ChunkOutcome::Loaded`] completions
/// with [`ChunkLocation::Generated`].
pub struct LocalGenerationBackend {
    generator: Box<dyn TerrainGenerator>,
    /// Sizes the worker pool each time the queue is drained. The default
    /// (`AutoscalerConfig::fixed`) reproduces the statically-sized pool
    /// exactly; [`LocalGenerationBackend::elastic`] lets the pool follow
    /// the generation backlog instead.
    scaler: Autoscaler,
    /// Queued positions, drained FIFO (generation has one priority class).
    queue: RequestQueue<(), ChunkPos>,
    running: Vec<(ChunkPos, SimTime)>,
    generated: u64,
    clock: GenerationClock,
}

impl LocalGenerationBackend {
    /// Creates a backend with a fixed pool of `workers` modelled
    /// generation workers.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(generator: Box<dyn TerrainGenerator>, workers: usize) -> Self {
        assert!(workers > 0, "at least one generation worker is required");
        Self::with_autoscaler(generator, AutoscalerConfig::fixed(workers))
    }

    /// Creates a backend whose worker pool elastically follows the queue
    /// depth between `min` and `max` workers. Provisioning delay and
    /// scale-down cooldown come from `config`; a fixed config reproduces
    /// [`LocalGenerationBackend::new`] exactly.
    pub fn elastic(generator: Box<dyn TerrainGenerator>, config: AutoscalerConfig) -> Self {
        Self::with_autoscaler(generator, config)
    }

    fn with_autoscaler(generator: Box<dyn TerrainGenerator>, config: AutoscalerConfig) -> Self {
        LocalGenerationBackend {
            generator,
            scaler: Autoscaler::new(config),
            queue: RequestQueue::bounded(usize::MAX),
            running: Vec::new(),
            generated: 0,
            clock: GenerationClock::default(),
        }
    }

    /// Total chunks generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Lifetime counters of the worker-pool autoscaler (all zero for a
    /// fixed pool).
    pub fn autoscaler_stats(&self) -> AutoscalerStats {
        self.scaler.stats()
    }

    /// Queues generation of `pos` at virtual time `now` and starts it as
    /// soon as a worker is free.
    fn request_at(&mut self, pos: ChunkPos, now: SimTime) {
        self.queue
            .push((), pos)
            .expect("the generation queue is unbounded");
        self.start_queued(now);
    }

    /// Collects every chunk finished by `now` and refills the workers.
    fn take_ready(&mut self, now: SimTime) -> Vec<Chunk> {
        let mut ready = Vec::new();
        let mut still_running = Vec::new();
        for (pos, done_at) in self.running.drain(..) {
            if done_at <= now {
                ready.push(self.generator.generate(pos));
            } else {
                still_running.push((pos, done_at));
            }
        }
        self.running = still_running;
        self.generated += ready.len() as u64;
        self.start_queued(now);
        ready
    }

    fn start_queued(&mut self, now: SimTime) {
        let workers = self.scaler.observe(now, self.queue.len());
        while self.running.len() < workers {
            let Some(((), pos)) = self.queue.pop() else {
                break;
            };
            let done_at = now + self.generator.cost().duration_at_speed(1.0);
            self.running.push((pos, done_at));
        }
    }
}

impl std::fmt::Debug for LocalGenerationBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalGenerationBackend")
            .field("workers", &self.scaler.ready_workers())
            .field("queued", &self.queue.len())
            .field("running", &self.running.len())
            .field("generated", &self.generated)
            .finish()
    }
}

impl ChunkService for LocalGenerationBackend {
    fn submit(&mut self, request: ChunkRequest) -> Ticket {
        let (ticket, positions) = self.clock.admit(&request);
        let now = self.clock.now;
        for pos in positions {
            self.request_at(pos, now);
        }
        ticket
    }

    fn poll(&mut self, now: SimTime) -> Vec<ChunkCompletion> {
        self.clock.now = now;
        let ready = self.take_ready(now);
        self.clock.complete(ready, now)
    }

    fn drain_dirty(&mut self) -> Vec<ShardDelta> {
        // Generation has no persistence side: nothing ever becomes dirty.
        Vec::new()
    }

    fn pending(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    fn busy_local_workers(&self, now: SimTime) -> usize {
        self.running.iter().filter(|(_, done)| *done > now).count()
    }

    fn name(&self) -> &'static str {
        "local-generation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servo_pcg::{DefaultGenerator, FlatGenerator};
    use servo_redstone::generators;
    use servo_types::SimDuration;

    /// Submits a read and advances the service clock to `now` first.
    fn read_at(service: &mut dyn ChunkService, pos: ChunkPos, now: SimTime) -> Ticket {
        service.poll(now);
        service.submit(ChunkRequest::read(pos))
    }

    fn loaded_chunks(completions: Vec<ChunkCompletion>) -> Vec<Chunk> {
        completions
            .into_iter()
            .filter_map(|c| match c.outcome {
                ChunkOutcome::Loaded { chunk, .. } => Some(*chunk),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn local_sc_backend_every_other_tick_skips_odd_ticks() {
        let mut backend = LocalScBackend::every_other_tick();
        let mut construct = Construct::new(generators::wire_line(5));
        let r0 = backend.resolve(ConstructId::new(0), &mut construct, Tick(0), SimTime::ZERO);
        let r1 = backend.resolve(ConstructId::new(0), &mut construct, Tick(1), SimTime::ZERO);
        assert_eq!(r0, ScResolution::LocalSimulated);
        assert_eq!(r1, ScResolution::Skipped);
        assert_eq!(construct.state().step(), 1);
    }

    #[test]
    fn local_sc_backend_every_tick_always_steps() {
        let mut backend = LocalScBackend::every_tick();
        let mut construct = Construct::new(generators::wire_line(5));
        for t in 0..10 {
            assert_eq!(
                backend.resolve(ConstructId::new(0), &mut construct, Tick(t), SimTime::ZERO),
                ScResolution::LocalSimulated
            );
        }
        assert_eq!(construct.state().step(), 10);
        assert_eq!(backend.name(), "local");
    }

    #[test]
    fn local_generation_completes_after_cost_duration() {
        let mut backend = LocalGenerationBackend::new(Box::new(FlatGenerator::default()), 2);
        let t0 = read_at(&mut backend, ChunkPos::new(0, 0), SimTime::ZERO);
        let t1 = read_at(&mut backend, ChunkPos::new(1, 0), SimTime::ZERO);
        assert_ne!(t0, t1);
        assert_eq!(backend.pending(), 2);
        assert_eq!(backend.busy_local_workers(SimTime::ZERO), 2);
        // Nothing is ready immediately.
        assert!(backend.poll(SimTime::ZERO).is_empty());
        // After the flat-generation cost (30 work units = 30 ms) both are
        // done, with the completion carrying the observed latency.
        let completions = backend.poll(SimTime::from_millis(31));
        assert_eq!(completions.len(), 2);
        for completion in &completions {
            match &completion.outcome {
                ChunkOutcome::Loaded {
                    location, latency, ..
                } => {
                    assert_eq!(*location, ChunkLocation::Generated);
                    assert_eq!(*latency, SimDuration::from_millis(31));
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(backend.pending(), 0);
        assert_eq!(backend.generated(), 2);
        assert!(backend.drain_dirty().is_empty());
    }

    #[test]
    fn local_generation_throughput_is_bounded_by_workers() {
        let mut backend = LocalGenerationBackend::new(Box::new(DefaultGenerator::new(1)), 2);
        for i in 0..10 {
            read_at(&mut backend, ChunkPos::new(i, 0), SimTime::ZERO);
        }
        // A default chunk costs 550 ms at one vCPU; with 2 workers only 2
        // chunks can be ready after 600 ms.
        let ready = loaded_chunks(backend.poll(SimTime::from_millis(600)));
        assert_eq!(ready.len(), 2);
        assert_eq!(backend.pending(), 8);
        // After 10 x 550 ms everything is done even with 2 workers.
        let mut total = ready.len();
        let mut now = SimTime::from_millis(600);
        for _ in 0..20 {
            now += SimDuration::from_millis(550);
            total += loaded_chunks(backend.poll(now)).len();
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn duplicate_requests_are_ignored() {
        let mut backend = LocalGenerationBackend::new(Box::new(FlatGenerator::default()), 1);
        let first = read_at(&mut backend, ChunkPos::new(3, 3), SimTime::ZERO);
        for _ in 0..4 {
            read_at(&mut backend, ChunkPos::new(3, 3), SimTime::ZERO);
        }
        assert_eq!(backend.pending(), 1);
        let completions = backend.poll(SimTime::from_secs(1));
        assert_eq!(completions.len(), 1);
        // The completion carries the first request's ticket.
        assert_eq!(completions[0].ticket, first);
        match &completions[0].outcome {
            ChunkOutcome::Loaded { pos, .. } => assert_eq!(*pos, ChunkPos::new(3, 3)),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn re_asking_for_a_delivered_chunk_leaves_no_issue_record() {
        let mut backend = LocalGenerationBackend::new(Box::new(FlatGenerator::default()), 1);
        let pos = ChunkPos::new(2, 2);
        read_at(&mut backend, pos, SimTime::ZERO);
        assert_eq!(backend.clock.issued.len(), 1);
        assert_eq!(backend.poll(SimTime::from_secs(1)).len(), 1);
        assert!(backend.clock.issued.is_empty());
        // The game loop asks again every tick while the delivered chunk
        // waits behind the per-tick integration cap: no `complete` will
        // follow, so nothing may be recorded.
        let (_, fresh) = backend.clock.admit(&ChunkRequest::read(pos));
        assert!(fresh.is_empty());
        assert!(backend.clock.issued.is_empty());
        // Forgetting a position is what makes it admissible again.
        backend.clock.forget(pos);
        let (ticket, fresh) = backend.clock.admit(&ChunkRequest::read(pos));
        assert_eq!(fresh, vec![pos]);
        assert_eq!(
            backend.clock.issued.get(&pos).map(|(t, _)| *t),
            Some(ticket)
        );
    }

    #[test]
    fn prefetch_requests_queue_generation() {
        let mut backend = LocalGenerationBackend::new(Box::new(FlatGenerator::default()), 4);
        backend.submit(ChunkRequest::prefetch([
            ChunkPos::new(0, 0),
            ChunkPos::new(1, 1),
        ]));
        // Maintenance requests are accepted but are no-ops here.
        backend.submit(ChunkRequest::write_back());
        backend.submit(ChunkRequest::evict([ChunkPos::new(0, 0)]));
        assert_eq!(backend.pending(), 2);
        assert_eq!(loaded_chunks(backend.poll(SimTime::from_secs(1))).len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one generation worker")]
    fn zero_workers_is_rejected() {
        LocalGenerationBackend::new(Box::new(FlatGenerator::default()), 0);
    }

    #[test]
    fn elastic_generation_pool_follows_backlog() {
        // One worker per two queued chunks, capped at 8: a 10-chunk burst
        // scales the pool out and finishes well before a 2-worker fixed
        // pool could; an idle stretch scales it back down to min.
        let config = AutoscalerConfig::elastic(2, 8).with_backlog_per_worker(2);
        let mut backend =
            LocalGenerationBackend::elastic(Box::new(DefaultGenerator::new(1)), config);
        for i in 0..10 {
            read_at(&mut backend, ChunkPos::new(i, 0), SimTime::ZERO);
        }
        // A default chunk costs 550 ms; the scaled-out pool clears twice
        // what a fixed 2-worker pool can finish in the first wave.
        let ready = loaded_chunks(backend.poll(SimTime::from_millis(600)));
        assert!(
            ready.len() >= 4,
            "elastic pool only finished {} chunks",
            ready.len()
        );
        let stats = backend.autoscaler_stats();
        assert!(stats.scale_up_events > 0);
        assert!(stats.peak_workers > 2);
        // The backlog is gone: the next drain releases workers to min.
        backend.poll(SimTime::from_secs(30));
        assert!(backend.autoscaler_stats().workers_retired > 0);
    }

    #[test]
    fn fixed_autoscaler_matches_static_pool_exactly() {
        // A fixed autoscaler config is the frictionless configuration: the
        // elastic constructor reproduces the static pool tick for tick.
        let mut fixed = LocalGenerationBackend::new(Box::new(DefaultGenerator::new(1)), 2);
        let mut elastic = LocalGenerationBackend::elastic(
            Box::new(DefaultGenerator::new(1)),
            AutoscalerConfig::fixed(2),
        );
        for i in 0..10 {
            read_at(&mut fixed, ChunkPos::new(i, 0), SimTime::ZERO);
            read_at(&mut elastic, ChunkPos::new(i, 0), SimTime::ZERO);
        }
        let mut now = SimTime::ZERO;
        for _ in 0..12 {
            now += SimDuration::from_millis(550);
            let a = loaded_chunks(fixed.poll(now));
            let b = loaded_chunks(elastic.poll(now));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.pos(), y.pos());
            }
        }
        assert_eq!(fixed.generated(), elastic.generated());
        assert_eq!(elastic.autoscaler_stats().workers_provisioned, 0);
    }
}
