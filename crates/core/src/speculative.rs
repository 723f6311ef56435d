//! Replicated speculative execution for simulated constructs
//! (paper Section III-C).
//!
//! # Concurrency model
//!
//! The unit's in-flight speculation state is split **per construct** into
//! [`SLOT_SHARDS`] lock shards (keyed by construct id), so the game loop
//! can fan per-construct resolution out across worker threads through the
//! [`PartitionedResolver`] table: each worker touches only the slot shards
//! of its constructs and **never** the shared FaaS platform. Everything
//! that must happen in a deterministic global order — statistics pushes
//! and platform invocations, whose RNG stream must be consumed exactly
//! like the sequential path consumes it — is *deferred* during the
//! fan-out and replayed by [`ScBackend::reconcile`] in ascending construct
//! id order (the order the sequential path visits constructs in). The
//! sequential [`ScBackend::resolve`] path is implemented as "defer, then
//! immediately replay", so both paths are identical by construction
//! (asserted end-to-end by `crates/core/tests/speculative_differential.rs`).
//!
//! Lock order (never violated): slot shard → stats → platform. Phase A
//! (planning/fan-out) takes only slot-shard locks; phase B (reconcile)
//! re-locks one slot shard at a time and then stats/platform, so planning
//! on one zone server and reconciliation on another can run concurrently
//! against one shared platform.
//!
//! # Sharing the platform
//!
//! [`SpeculativeScBackend::over`] builds a unit on an existing
//! [`SharedScPlatform`], so several backends — e.g. the zone servers of a
//! hybrid zoned+offloading cluster — offload to **one** platform whose
//! concurrency limit, container pool and billing meter are cluster-level,
//! exactly like a real per-function deployment shared by many game
//! servers.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use servo_faas::FaasPlatform;
use servo_redstone::{simulate_sequence, Construct, SimulationOutcome};
use servo_server::{
    PartitionedResolver, PublishedSequence, ResolutionPlan, ScBackend, ScResolution,
};
use servo_types::{ConstructId, SimDuration, SimTime, Tick};

/// Number of lock shards the per-construct speculation slots are split
/// into.
pub const SLOT_SHARDS: usize = 16;

/// A FaaS platform shared between several [`SpeculativeScBackend`]s (the
/// zone servers of a hybrid cluster offload to one platform, preserving
/// cluster-level concurrency limits and billing).
pub type SharedScPlatform = Arc<Mutex<FaasPlatform>>;

/// The compute-cost model of the offloaded construct simulation function.
///
/// Section IV-G of the paper measures that a 252-block construct simulates at
/// roughly 488 steps per second inside a function and a 484-block construct
/// at roughly 105 steps per second — a super-linear cost in construct size.
/// The model `work = coefficient * blocks^exponent` (milliseconds of compute
/// per step at one vCPU) reproduces that relationship.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScWorkModel {
    /// Multiplicative coefficient.
    pub coefficient: f64,
    /// Exponent applied to the block count.
    pub exponent: f64,
}

impl Default for ScWorkModel {
    fn default() -> Self {
        // Calibrated so that 484 blocks -> ~7.3 ms/step (137 steps/s) and
        // 252 blocks -> ~1.6 ms/step, matching the order of magnitude of the
        // paper's Section IV-G measurements, and so that a 200-step
        // simulation of the 484-block construct takes ~1.5 s end to end
        // (Figure 9).
        ScWorkModel {
            coefficient: 3.6e-6,
            exponent: 2.35,
        }
    }
}

impl ScWorkModel {
    /// Milliseconds of compute (at one full vCPU) to simulate one step of a
    /// construct with `blocks` blocks.
    pub fn work_per_step(&self, blocks: usize) -> f64 {
        self.coefficient * (blocks.max(1) as f64).powf(self.exponent)
    }

    /// Total work units for simulating `steps` steps.
    pub fn work_for(&self, blocks: usize, steps: usize) -> f64 {
        self.work_per_step(blocks) * steps as f64
    }
}

/// Configuration of the speculative execution unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// How many ticks before the current speculative sequence runs out the
    /// next function invocation is issued (the paper's *tick lead*).
    pub tick_lead: u64,
    /// How many simulation steps each function invocation computes.
    pub simulation_steps: usize,
    /// Whether the remote function performs loop detection and the server
    /// replays detected loops without further invocations.
    pub loop_detection: bool,
    /// The compute-cost model of the remote function.
    pub work_model: ScWorkModel,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            tick_lead: 20,
            simulation_steps: 100,
            loop_detection: true,
            work_model: ScWorkModel::default(),
        }
    }
}

/// Aggregate statistics of the speculative execution unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpeculationStats {
    /// Function invocations issued.
    pub invocations: u64,
    /// Invocations whose results were discarded because the construct was
    /// modified while they were in flight.
    pub discarded_stale: u64,
    /// Speculative sequences (in flight or awaiting application) dropped
    /// because the construct's zone ownership migrated mid-run.
    pub discarded_migrated: u64,
    /// Invocations that failed on the platform (timeout, concurrency).
    pub failed: u64,
    /// Invocations that waited in the platform's saturation queue before a
    /// container slot freed up.
    pub queued_invocations: u64,
    /// Total saturation-queue wait accumulated by queued invocations, in
    /// milliseconds (already included in the invocation latencies).
    pub queue_wait_ms: f64,
    /// Construct-ticks served by applying a speculative state.
    pub speculative_applied: u64,
    /// Construct-ticks served by replaying a detected loop.
    pub loop_replayed: u64,
    /// Construct-ticks that fell back to local simulation.
    pub local_fallback: u64,
    /// Per-invocation efficiency samples (fraction of offloaded steps that
    /// were not wasted), as defined in Section III-C of the paper.
    pub efficiency_samples: Vec<f64>,
    /// End-to-end latency of each completed invocation.
    pub invocation_latencies: Vec<SimDuration>,
    /// Completion times of invocations (for invocations-per-minute plots).
    pub invocation_completions: Vec<SimTime>,
}

impl servo_metrics::StatsReport for SpeculationStats {
    fn section(&self) -> &'static str {
        "speculation"
    }

    fn report(&self) -> Vec<(&'static str, String)> {
        vec![
            ("invocations", self.invocations.to_string()),
            ("discarded_stale", self.discarded_stale.to_string()),
            ("discarded_migrated", self.discarded_migrated.to_string()),
            ("failed", self.failed.to_string()),
            ("queued_invocations", self.queued_invocations.to_string()),
            ("queue_wait_ms", format!("{:.3}", self.queue_wait_ms)),
            ("speculative_applied", self.speculative_applied.to_string()),
            ("loop_replayed", self.loop_replayed.to_string()),
            ("local_fallback", self.local_fallback.to_string()),
            (
                "median_efficiency",
                self.median_efficiency()
                    .map(|e| format!("{e:.3}"))
                    .unwrap_or_else(|| "n/a".to_string()),
            ),
        ]
    }
}

impl SpeculationStats {
    /// The median efficiency over all completed invocations, or `None` if no
    /// invocation completed.
    pub fn median_efficiency(&self) -> Option<f64> {
        if self.efficiency_samples.is_empty() {
            return None;
        }
        let mut sorted = self.efficiency_samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Some(sorted[sorted.len() / 2])
    }

    /// Merges another unit's statistics into this one (counters add,
    /// sample vectors concatenate) — e.g. to aggregate the per-zone units
    /// of a hybrid zoned+offloading cluster.
    pub fn merge(&mut self, other: &SpeculationStats) {
        self.invocations += other.invocations;
        self.discarded_stale += other.discarded_stale;
        self.discarded_migrated += other.discarded_migrated;
        self.failed += other.failed;
        self.queued_invocations += other.queued_invocations;
        self.queue_wait_ms += other.queue_wait_ms;
        self.speculative_applied += other.speculative_applied;
        self.loop_replayed += other.loop_replayed;
        self.local_fallback += other.local_fallback;
        self.efficiency_samples
            .extend_from_slice(&other.efficiency_samples);
        self.invocation_latencies
            .extend_from_slice(&other.invocation_latencies);
        self.invocation_completions
            .extend_from_slice(&other.invocation_completions);
    }

    /// Invocations per minute, averaged over `elapsed`.
    pub fn invocations_per_minute(&self, elapsed: SimDuration) -> f64 {
        if elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.invocations as f64 / (elapsed.as_secs_f64() / 60.0)
    }
}

/// A cloneable handle to the speculation unit's statistics and billing.
#[derive(Debug, Clone)]
pub struct SpeculationHandle {
    platform: SharedScPlatform,
    stats: Arc<Mutex<SpeculationStats>>,
}

impl SpeculationHandle {
    /// A snapshot of the current statistics.
    pub fn stats(&self) -> SpeculationStats {
        self.stats.lock().clone()
    }

    /// A snapshot of the FaaS billing meter for the SC-offload function.
    /// When the platform is shared between several backends, the meter is
    /// the *platform-level* (cluster) aggregate.
    pub fn billing(&self) -> servo_faas::BillingMeter {
        self.platform.lock().billing().clone()
    }

    /// A snapshot of the FaaS platform statistics (cold starts, peak
    /// concurrency); platform-level when the platform is shared.
    pub fn platform_stats(&self) -> servo_faas::PlatformStats {
        self.platform.lock().stats()
    }

    /// The billing meter as it reads at `now`, including the warm-idle
    /// time accrued by containers the keep-alive policy is holding open —
    /// the full cost of the platform configuration at the end of a run.
    pub fn billing_at(&self, now: SimTime) -> servo_faas::BillingMeter {
        self.platform.lock().billing_at(now)
    }
}

/// A pending (in-flight) function invocation for one construct.
#[derive(Debug, Clone)]
struct PendingInvocation {
    completes_at: SimTime,
    latency: SimDuration,
    /// The modification stamp of the construct at request time; a mismatch
    /// at completion means the result is outdated (Section III-C).
    stamp: u64,
    /// The construct step the offloaded simulation started from.
    start_step: u64,
    /// The precomputed result, applied only once `completes_at` is reached.
    outcome: SimulationOutcome,
}

/// The speculative state sequence currently available for application.
#[derive(Debug, Clone)]
struct AvailableSequence {
    stamp: u64,
    start_step: u64,
    outcome: SimulationOutcome,
}

#[derive(Debug, Default)]
struct ConstructSlot {
    pending: Option<PendingInvocation>,
    available: Option<AvailableSequence>,
}

/// A completed invocation delivered by phase A, with the derived
/// efficiency sample (`None` when the result was stale and must count as
/// discarded).
#[derive(Debug)]
struct Delivered {
    latency: SimDuration,
    completes_at: SimTime,
    efficiency: Option<f64>,
}

/// The engine work of a prepared invocation: normally precomputed in
/// phase A (on the worker thread), but deferred to phase B while the
/// platform looks saturated — an invoke that fails would discard the
/// whole simulation, so there is no point paying for it up front.
#[derive(Debug)]
enum IssuePayload {
    Ready(SimulationOutcome),
    Deferred(Construct),
}

/// An invocation phase A decided to issue: the platform call — which
/// consumes the shared RNG stream and must happen in construct order — is
/// left to phase B.
#[derive(Debug)]
struct PreparedIssue {
    stamp: u64,
    start_step: u64,
    work: f64,
    payload: IssuePayload,
}

/// Everything one construct's phase-A resolution deferred to phase B.
#[derive(Debug)]
struct Deferred {
    id: ConstructId,
    resolution: ScResolution,
    delivered: Option<Delivered>,
    issue: Option<PreparedIssue>,
}

/// One lock shard of the per-construct speculation state.
#[derive(Debug, Default)]
struct SlotShard {
    slots: HashMap<ConstructId, ConstructSlot>,
    /// Phase-A actions of the current tick, drained by `reconcile`.
    deferred: Vec<Deferred>,
}

/// The speculative execution unit: Servo's [`ScBackend`].
///
/// See the crate- and module-level documentation and the paper's
/// Section III-C for the mechanism. The unit is deterministic given the
/// platform's RNG seed, for every `ServerConfig::with_parallelism` value:
/// the partitioned fan-out defers all shared-state effects and replays
/// them in the sequential path's order.
pub struct SpeculativeScBackend {
    config: SpeculationConfig,
    slot_shards: Vec<Mutex<SlotShard>>,
    platform: SharedScPlatform,
    stats: Arc<Mutex<SpeculationStats>>,
    /// Hint set by phase B when the platform rejected the last invocation
    /// (concurrency limit) and cleared when one succeeds. While set,
    /// phase A defers the speculative engine work instead of eagerly
    /// computing results a failing invoke would throw away. Purely a
    /// where-does-the-work-run hint: the computed outcome is identical.
    saturated: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for SpeculativeScBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeculativeScBackend")
            .field("config", &self.config)
            .field("slot_shards", &self.slot_shards.len())
            .finish()
    }
}

impl SpeculativeScBackend {
    /// Creates a speculative execution unit that offloads to its own
    /// exclusive `platform`.
    pub fn new(config: SpeculationConfig, platform: FaasPlatform) -> Self {
        Self::over(config, Arc::new(Mutex::new(platform)))
    }

    /// Creates a speculative execution unit over an existing (possibly
    /// shared) platform. Zone servers of a hybrid cluster use this to
    /// offload to one platform with cluster-level concurrency and billing.
    pub fn over(config: SpeculationConfig, platform: SharedScPlatform) -> Self {
        SpeculativeScBackend {
            config,
            slot_shards: (0..SLOT_SHARDS)
                .map(|_| Mutex::new(SlotShard::default()))
                .collect(),
            platform,
            stats: Arc::new(Mutex::new(SpeculationStats::default())),
            saturated: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The platform this unit offloads to, for sharing with further units.
    pub fn platform(&self) -> SharedScPlatform {
        Arc::clone(&self.platform)
    }

    /// A handle for reading statistics and billing after the unit has been
    /// moved into a [`GameServer`](servo_server::GameServer).
    pub fn handle(&self) -> SpeculationHandle {
        SpeculationHandle {
            platform: Arc::clone(&self.platform),
            stats: Arc::clone(&self.stats),
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> SpeculationConfig {
        self.config
    }

    #[inline]
    fn slot_shard_of(id: ConstructId) -> usize {
        (id.raw() as usize) & (SLOT_SHARDS - 1)
    }

    /// Phase A for one construct: advance it using only its slot's state,
    /// deferring every shared-state effect. Runs under the construct's
    /// slot-shard lock and touches neither the platform nor the statistics.
    fn resolve_slot(
        config: &SpeculationConfig,
        slot: &mut ConstructSlot,
        construct: &mut Construct,
        now: SimTime,
        saturated: bool,
    ) -> (ScResolution, Option<Delivered>, Option<PreparedIssue>) {
        let mut delivered = None;

        // Drop an available sequence that a player interaction invalidated.
        if let Some(available) = &slot.available {
            if available.stamp != construct.modification_stamp() {
                slot.available = None;
            }
        }

        // Try to apply a speculative state, delivering a completed pending
        // invocation first if the current sequence cannot serve this tick.
        for attempt in 0..2 {
            // Attempt 0 uses whatever is already available; attempt 1 runs
            // after delivering a completed pending invocation.
            let application = slot.available.as_ref().and_then(|available| {
                let target_step = construct.state().step() + 1;
                if target_step <= available.start_step {
                    // The sequence starts in the future (it was issued with a
                    // tick lead and the server has not caught up, e.g. after
                    // a modification); keep it and fall back locally.
                    return None;
                }
                let offset = (target_step - available.start_step) as usize;
                available.outcome.state_at(offset).map(|state| {
                    let replaying = available.outcome.loop_info.is_some()
                        && offset > available.outcome.simulated_steps;
                    let remaining = available.outcome.simulated_steps.saturating_sub(offset) as u64;
                    let refresh_base = if !replaying
                        && available.outcome.loop_info.is_none()
                        && remaining <= config.tick_lead
                        && slot.pending.is_none()
                    {
                        // Tick lead: speculate onward from the *end* of the
                        // current sequence, a state the server has not
                        // reached yet (Figure 6 of the paper).
                        available.outcome.states.last().map(|last| {
                            Construct::with_state(construct.blueprint().clone(), last.clone())
                        })
                    } else {
                        None
                    };
                    (state, target_step, replaying, refresh_base)
                })
            });

            if let Some((state, target_step, replaying, refresh_base)) = application {
                // Preserve the construct's global step counter and
                // modification stamp when replaying loop states.
                construct.apply_state(state, target_step);
                let issue = refresh_base.map(|base| Self::prepare_issue(config, base, saturated));
                let resolution = if replaying {
                    ScResolution::LoopReplayed
                } else {
                    ScResolution::SpeculativeApplied
                };
                return (resolution, delivered, issue);
            }

            // The current sequence cannot serve this tick. If it is a
            // finished, non-looping sequence that is simply exhausted,
            // discard it so a delivered pending invocation can take over.
            if let Some(available) = &slot.available {
                let target_step = construct.state().step() + 1;
                if target_step > available.start_step && available.outcome.loop_info.is_none() {
                    slot.available = None;
                }
            }

            if attempt == 0 {
                // Deliver a completed invocation, discarding it if the
                // construct was modified while it was in flight.
                let completed = slot
                    .pending
                    .as_ref()
                    .map(|p| p.completes_at <= now)
                    .unwrap_or(false);
                if completed && slot.available.is_none() {
                    let pending = slot.pending.take().expect("checked above");
                    let mut record = Delivered {
                        latency: pending.latency,
                        completes_at: pending.completes_at,
                        efficiency: None,
                    };
                    if pending.stamp == construct.modification_stamp() {
                        // Efficiency: the fraction of offloaded steps the
                        // server did not already compute locally while
                        // waiting (Section III-C). Steps the server stepped
                        // locally during the invocation's flight are wasted
                        // — but only up to the point where the sequence
                        // loops: a looping sequence serves *every* later
                        // tick by replay, so its usable steps are never
                        // exhausted by the wait.
                        let total = pending.outcome.simulated_steps.max(1) as f64;
                        let already_local =
                            construct.state().step().saturating_sub(pending.start_step) as f64;
                        let wasted = match pending.outcome.loop_info {
                            Some(info) => already_local.min(info.start as f64),
                            None => already_local,
                        };
                        record.efficiency = Some(((total - wasted) / total).clamp(0.0, 1.0));
                        slot.available = Some(AvailableSequence {
                            stamp: pending.stamp,
                            start_step: pending.start_step,
                            outcome: pending.outcome,
                        });
                        delivered = Some(record);
                        continue;
                    }
                    // Stale: the delivery is still recorded (latency and
                    // completion time), but counts as discarded.
                    delivered = Some(record);
                }
            }
            break;
        }

        // Fall back to local simulation while (re)starting speculation.
        construct.step();
        let issue = if slot.pending.is_none() {
            Some(Self::prepare_issue(config, construct.clone(), saturated))
        } else {
            None
        };
        (ScResolution::LocalSimulated, delivered, issue)
    }

    /// Prepares a new invocation speculating from `base`. The deterministic
    /// engine work normally runs here — on the worker thread during a
    /// partitioned fan-out — while the platform call is deferred to
    /// phase B. While the platform looks saturated the engine work is
    /// deferred too, so a rejected invoke wastes nothing.
    fn prepare_issue(
        config: &SpeculationConfig,
        base: Construct,
        saturated: bool,
    ) -> PreparedIssue {
        let start_step = base.state().step();
        let stamp = base.state().modification_stamp();
        let work = config
            .work_model
            .work_for(base.len(), config.simulation_steps);
        let payload = if saturated {
            IssuePayload::Deferred(base)
        } else {
            IssuePayload::Ready(Self::compute_outcome(config, base))
        };
        PreparedIssue {
            stamp,
            start_step,
            work,
            payload,
        }
    }

    /// The remote function's deterministic engine work for one invocation.
    fn compute_outcome(config: &SpeculationConfig, base: Construct) -> SimulationOutcome {
        let mut remote = base;
        if config.loop_detection {
            simulate_sequence(&mut remote, config.simulation_steps)
        } else {
            let states = remote.step_many(config.simulation_steps);
            SimulationOutcome {
                simulated_steps: states.len(),
                states,
                loop_info: None,
            }
        }
    }

    /// Phase B for one construct: replay the deferred statistics pushes and
    /// platform invocation. Lock order: the caller holds the construct's
    /// slot shard; stats, then the platform, are taken here.
    fn apply_deferred(&self, slot: &mut ConstructSlot, deferred: Deferred, now: SimTime) {
        use std::sync::atomic::Ordering;
        let mut stats = self.stats.lock();
        if let Some(record) = deferred.delivered {
            stats.invocation_latencies.push(record.latency);
            stats.invocation_completions.push(record.completes_at);
            match record.efficiency {
                Some(efficiency) => stats.efficiency_samples.push(efficiency),
                None => stats.discarded_stale += 1,
            }
        }
        match deferred.resolution {
            ScResolution::LocalSimulated => stats.local_fallback += 1,
            ScResolution::SpeculativeApplied => stats.speculative_applied += 1,
            ScResolution::LoopReplayed => stats.loop_replayed += 1,
            ScResolution::Skipped => {}
        }
        if let Some(issue) = deferred.issue {
            match self.platform.lock().invoke(now, issue.work) {
                Ok(invocation) => {
                    self.saturated.store(false, Ordering::Relaxed);
                    stats.invocations += 1;
                    if invocation.queue_wait > SimDuration::ZERO {
                        stats.queued_invocations += 1;
                        stats.queue_wait_ms += invocation.queue_wait.as_millis_f64();
                    }
                    let outcome = match issue.payload {
                        IssuePayload::Ready(outcome) => outcome,
                        // The platform looked saturated in phase A but the
                        // invoke got through: pay the engine work now (the
                        // result is identical — the computation is pure).
                        IssuePayload::Deferred(base) => Self::compute_outcome(&self.config, base),
                    };
                    slot.pending = Some(PendingInvocation {
                        completes_at: invocation.completed_at,
                        latency: invocation.latency,
                        stamp: issue.stamp,
                        start_step: issue.start_step,
                        outcome,
                    });
                }
                Err(_) => {
                    self.saturated.store(true, Ordering::Relaxed);
                    stats.failed += 1;
                }
            }
        }
    }
}

impl ScBackend for SpeculativeScBackend {
    fn resolve(
        &mut self,
        id: ConstructId,
        construct: &mut Construct,
        _tick: Tick,
        now: SimTime,
    ) -> ScResolution {
        // The sequential reference path is "phase A, then immediately
        // phase B" — which is exactly what the partitioned path replays,
        // making the two identical by construction.
        let mut guard = self.slot_shards[Self::slot_shard_of(id)].lock();
        let slot = guard.slots.entry(id).or_default();
        let saturated = self.saturated.load(std::sync::atomic::Ordering::Relaxed);
        let (resolution, delivered, issue) =
            Self::resolve_slot(&self.config, slot, construct, now, saturated);
        self.apply_deferred(
            slot,
            Deferred {
                id,
                resolution,
                delivered,
                issue,
            },
            now,
        );
        resolution
    }

    fn plan(&mut self, _tick: Tick) -> ResolutionPlan {
        // Speculative stepping always runs on the parallel
        // shard-partitioned path: per-construct state lives behind sharded
        // locks and shared effects are deferred to `reconcile`.
        ResolutionPlan::Partitioned
    }

    fn partitioned(&self) -> Option<&dyn PartitionedResolver> {
        Some(self)
    }

    fn reconcile(&mut self, _tick: Tick, now: SimTime) {
        let mut all: Vec<Deferred> = Vec::new();
        for shard in &self.slot_shards {
            all.append(&mut shard.lock().deferred);
        }
        // Ascending construct id is the order the sequential path visits
        // constructs in (ids are allocated in registration order), so the
        // platform's RNG stream and the stats vectors are consumed and
        // filled identically.
        all.sort_by_key(|deferred| deferred.id);
        for deferred in all {
            let mut guard = self.slot_shards[Self::slot_shard_of(deferred.id)].lock();
            let slot = guard
                .slots
                .get_mut(&deferred.id)
                .expect("deferred action for a construct phase A never saw");
            self.apply_deferred(slot, deferred, now);
        }
    }

    fn release(&mut self, id: ConstructId) {
        // The construct is migrating to another zone's backend: drop its
        // slot so a later reuse of the id on this server starts clean. A
        // result still in flight (or available but unapplied) is counted as
        // discarded — the offloaded steps are lost to the migration, the
        // same way a modification mid-flight loses them. The new owner's
        // backend re-establishes speculation from the construct's live
        // state on its first resolve.
        let mut guard = self.slot_shards[Self::slot_shard_of(id)].lock();
        if let Some(slot) = guard.slots.remove(&id) {
            let in_flight = slot.pending.is_some() as u64 + slot.available.is_some() as u64;
            if in_flight > 0 {
                self.stats.lock().discarded_migrated += in_flight;
            }
        }
    }

    fn published_sequence(&self, id: ConstructId) -> Option<PublishedSequence> {
        // The sequence serving this construct already lives in shared
        // remote storage (the FaaS platform wrote it there); publishing is
        // just naming it. Identity is (stamp, start_step): a modification
        // re-invokes under a fresh stamp and a migration releases the
        // slot, so neighbours holding an old handle observe the change.
        let guard = self.slot_shards[Self::slot_shard_of(id)].lock();
        let slot = guard.slots.get(&id)?;
        let available = slot.available.as_ref()?;
        let horizon = if available.outcome.loop_info.is_some() {
            // A looping sequence replays forever: any future step can be
            // served from the stored states.
            u64::MAX
        } else {
            available.start_step + available.outcome.simulated_steps as u64
        };
        Some(PublishedSequence {
            stamp: available.stamp,
            start_step: available.start_step,
            horizon,
        })
    }

    fn name(&self) -> &'static str {
        "servo-speculative"
    }
}

impl PartitionedResolver for SpeculativeScBackend {
    fn resolve_partitioned(
        &self,
        id: ConstructId,
        _shard: usize,
        construct: &mut Construct,
        _tick: Tick,
        now: SimTime,
    ) -> ScResolution {
        let mut guard = self.slot_shards[Self::slot_shard_of(id)].lock();
        let slot = guard.slots.entry(id).or_default();
        let saturated = self.saturated.load(std::sync::atomic::Ordering::Relaxed);
        let (resolution, delivered, issue) =
            Self::resolve_slot(&self.config, slot, construct, now, saturated);
        guard.deferred.push(Deferred {
            id,
            resolution,
            delivered,
            issue,
        });
        resolution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servo_faas::FunctionConfig;
    use servo_redstone::generators;
    use servo_simkit::SimRng;
    use servo_types::{BlockPos, MemoryMb};

    fn backend(config: SpeculationConfig, seed: u64) -> SpeculativeScBackend {
        let platform = FaasPlatform::new(
            FunctionConfig::aws_like(MemoryMb::new(2048)),
            SimRng::seed(seed),
        );
        SpeculativeScBackend::new(config, platform)
    }

    /// Drives a single construct for `ticks` game ticks at 20 Hz.
    fn drive(
        backend: &mut SpeculativeScBackend,
        construct: &mut Construct,
        ticks: u64,
    ) -> Vec<ScResolution> {
        let mut out = Vec::new();
        for t in 0..ticks {
            let now = SimTime::from_millis(t * 50);
            out.push(backend.resolve(ConstructId::new(0), construct, Tick(t), now));
        }
        out
    }

    #[test]
    fn construct_advances_one_step_per_tick() {
        let mut b = backend(SpeculationConfig::default(), 1);
        let mut c = Construct::new(generators::dense_circuit(64));
        drive(&mut b, &mut c, 200);
        assert_eq!(c.state().step(), 200);
    }

    #[test]
    fn speculation_takes_over_after_initial_local_phase() {
        let mut b = backend(SpeculationConfig::default(), 2);
        let mut c = Construct::new(generators::dense_circuit(200));
        let resolutions = drive(&mut b, &mut c, 300);
        // The very first ticks are local (the function reply has not arrived
        // yet); later ticks are dominated by speculative application.
        assert_eq!(resolutions[0], ScResolution::LocalSimulated);
        let late = &resolutions[100..];
        let local_late = late
            .iter()
            .filter(|r| **r == ScResolution::LocalSimulated)
            .count();
        assert!(
            (local_late as f64) < late.len() as f64 * 0.2,
            "late local fallbacks: {local_late}/{}",
            late.len()
        );
        let handle = b.handle();
        assert!(handle.stats().invocations >= 1);
        assert!(handle.billing().total_cost_usd() > 0.0);
    }

    #[test]
    fn planning_is_partitioned_with_a_resolver() {
        let mut b = backend(SpeculationConfig::default(), 9);
        assert_eq!(b.plan(Tick(0)), ResolutionPlan::Partitioned);
        assert!(b.partitioned().is_some());
    }

    #[test]
    fn partitioned_path_matches_sequential_resolve() {
        // Drive the same workload once through `resolve` and once through
        // `resolve_partitioned` + `reconcile`; construct states and all
        // statistics (including vector order) must agree exactly.
        let run = |partitioned: bool| {
            let mut b = backend(SpeculationConfig::default(), 11);
            let mut constructs: Vec<Construct> = (0..6)
                .map(|i| Construct::new(generators::dense_circuit(40 + i * 13)))
                .collect();
            for t in 0..240u64 {
                let now = SimTime::from_millis(t * 50);
                if t == 77 {
                    // A player modification invalidates one construct.
                    constructs[2].apply_modification(BlockPos::new(0, 0, 0), None);
                }
                if partitioned {
                    // Resolve in reverse order to prove order independence.
                    for (i, c) in constructs.iter_mut().enumerate().rev() {
                        b.resolve_partitioned(ConstructId::new(i as u64), 0, c, Tick(t), now);
                    }
                    b.reconcile(Tick(t), now);
                } else {
                    for (i, c) in constructs.iter_mut().enumerate() {
                        b.resolve(ConstructId::new(i as u64), c, Tick(t), now);
                    }
                }
            }
            let hashes: Vec<u64> = constructs.iter().map(|c| c.state().hash()).collect();
            let handle = b.handle();
            (hashes, handle.stats(), handle.billing())
        };
        let (seq_hashes, seq_stats, seq_billing) = run(false);
        let (par_hashes, par_stats, par_billing) = run(true);
        assert_eq!(seq_hashes, par_hashes);
        assert_eq!(seq_stats, par_stats);
        assert_eq!(seq_billing, par_billing);
        assert!(seq_stats.invocations > 0);
    }

    #[test]
    fn saturated_platform_stays_identical_across_paths() {
        // A tiny concurrency limit forces invoke failures: the saturation
        // hint defers engine work, which must not change any observable
        // state between the sequential and partitioned paths.
        let run = |partitioned: bool| {
            let mut function = FunctionConfig::aws_like(MemoryMb::new(2048));
            function.max_concurrency = Some(2);
            let config = SpeculationConfig {
                loop_detection: false,
                ..SpeculationConfig::default()
            };
            let mut b =
                SpeculativeScBackend::new(config, FaasPlatform::new(function, SimRng::seed(31)));
            let mut constructs: Vec<Construct> = (0..8)
                .map(|i| Construct::new(generators::dense_circuit(40 + i * 9)))
                .collect();
            for t in 0..200u64 {
                let now = SimTime::from_millis(t * 50);
                if partitioned {
                    for (i, c) in constructs.iter_mut().enumerate().rev() {
                        b.resolve_partitioned(ConstructId::new(i as u64), 0, c, Tick(t), now);
                    }
                    b.reconcile(Tick(t), now);
                } else {
                    for (i, c) in constructs.iter_mut().enumerate() {
                        b.resolve(ConstructId::new(i as u64), c, Tick(t), now);
                    }
                }
            }
            let hashes: Vec<u64> = constructs.iter().map(|c| c.state().hash()).collect();
            (hashes, b.handle().stats())
        };
        let (seq_hashes, seq_stats) = run(false);
        let (par_hashes, par_stats) = run(true);
        assert!(seq_stats.failed > 0, "the limit never rejected an invoke");
        assert_eq!(seq_hashes, par_hashes);
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn shared_platform_aggregates_billing_across_backends() {
        let platform: SharedScPlatform = Arc::new(Mutex::new(FaasPlatform::new(
            FunctionConfig::aws_like(MemoryMb::new(2048)),
            SimRng::seed(21),
        )));
        let mut a = SpeculativeScBackend::over(SpeculationConfig::default(), Arc::clone(&platform));
        let mut b = SpeculativeScBackend::over(SpeculationConfig::default(), a.platform());
        let mut ca = Construct::new(generators::dense_circuit(64));
        let mut cb = Construct::new(generators::dense_circuit(64));
        drive(&mut a, &mut ca, 100);
        drive(&mut b, &mut cb, 100);
        // Per-backend stats stay separate...
        assert!(a.handle().stats().invocations > 0);
        assert!(b.handle().stats().invocations > 0);
        // ...while the platform meters the union.
        let platform_invocations = platform.lock().stats().invocations;
        assert_eq!(
            platform_invocations,
            a.handle().stats().invocations + b.handle().stats().invocations
        );
        assert_eq!(
            a.handle().billing().invocations(),
            platform_invocations,
            "the billing meter is platform-level"
        );
    }

    #[test]
    fn speculative_states_match_pure_local_simulation() {
        // Correctness: offloading must not change the construct's evolution.
        let blueprint = generators::dense_circuit(100);
        let mut offloaded = Construct::new(blueprint.clone());
        let mut reference = Construct::new(blueprint);
        let mut b = backend(SpeculationConfig::default(), 3);
        for t in 0..400u64 {
            let now = SimTime::from_millis(t * 50);
            b.resolve(ConstructId::new(0), &mut offloaded, Tick(t), now);
            reference.step();
            assert_eq!(
                offloaded.state().hash(),
                reference.state().hash(),
                "divergence at tick {t}"
            );
        }
    }

    #[test]
    fn looping_construct_switches_to_replay_and_stops_invoking() {
        let mut b = backend(SpeculationConfig::default(), 4);
        let mut c = Construct::new(generators::clock(6));
        drive(&mut b, &mut c, 600);
        let stats = b.handle().stats();
        assert!(
            stats.loop_replayed > 300,
            "replayed {}",
            stats.loop_replayed
        );
        // One or two invocations at the start, then the loop replays forever.
        assert!(stats.invocations <= 3, "invocations {}", stats.invocations);
    }

    #[test]
    fn disabling_loop_detection_keeps_invoking() {
        let config = SpeculationConfig {
            loop_detection: false,
            ..SpeculationConfig::default()
        };
        let mut b = backend(config, 5);
        let mut c = Construct::new(generators::clock(6));
        drive(&mut b, &mut c, 600);
        let stats = b.handle().stats();
        assert_eq!(stats.loop_replayed, 0);
        assert!(stats.invocations > 3);
    }

    #[test]
    fn player_modification_discards_stale_speculation() {
        let mut b = backend(SpeculationConfig::default(), 6);
        let mut c = Construct::new(generators::dense_circuit(80));
        // Let speculation get established.
        drive(&mut b, &mut c, 100);
        // Modify the construct: in-flight and available results are stale.
        c.apply_modification(BlockPos::new(0, 0, 0), None);
        let resolutions = drive(&mut b, &mut c, 100);
        // Immediately after the modification the server falls back to local
        // simulation (the old sequence is unusable).
        assert_eq!(resolutions[0], ScResolution::LocalSimulated);
        // And it recovers: offloaded results (fresh speculation or loop
        // replay of the re-simulated construct) take over again, with local
        // fallbacks limited to the re-invocation window.
        let local_after = resolutions
            .iter()
            .filter(|r| **r == ScResolution::LocalSimulated)
            .count();
        assert!(
            local_after < 20,
            "local fallbacks after modification: {local_after}"
        );
        assert!(resolutions.iter().any(|r| matches!(
            r,
            ScResolution::SpeculativeApplied | ScResolution::LoopReplayed
        )));
        assert_eq!(c.state().step(), 200);
    }

    #[test]
    fn higher_tick_lead_gives_higher_efficiency() {
        let run = |lead: u64| -> f64 {
            let config = SpeculationConfig {
                tick_lead: lead,
                simulation_steps: 100,
                loop_detection: false,
                ..SpeculationConfig::default()
            };
            let mut b = backend(config, 7);
            let mut c = Construct::new(generators::paper_medium());
            drive(&mut b, &mut c, 1200);
            b.handle().stats().median_efficiency().unwrap_or(0.0)
        };
        let none = run(0);
        let generous = run(40);
        assert!(generous > none, "lead 0: {none}, lead 40: {generous}");
        assert!(generous > 0.98, "lead 40 efficiency {generous}");
        assert!(none > 0.5, "lead 0 efficiency {none}");
    }

    #[test]
    fn work_model_matches_section_4g_shape() {
        let model = ScWorkModel::default();
        let small_rate = 1000.0 / model.work_per_step(252);
        let medium_rate = 1000.0 / model.work_per_step(484);
        // Small constructs simulate several times faster than medium ones,
        // and both are far above the 20 Hz game rate.
        assert!(small_rate > 3.0 * medium_rate);
        assert!(medium_rate > 20.0 * 5.0);
        assert!(
            small_rate > 400.0 && small_rate < 900.0,
            "rate {small_rate}"
        );
        assert!(
            medium_rate > 90.0 && medium_rate < 250.0,
            "rate {medium_rate}"
        );
    }

    #[test]
    fn stats_track_invocation_latency_and_rate() {
        let mut b = backend(SpeculationConfig::default(), 8);
        let mut c = Construct::new(generators::dense_circuit(64));
        drive(&mut b, &mut c, 400);
        let stats = b.handle().stats();
        assert!(!stats.invocation_latencies.is_empty());
        assert!(stats.invocations_per_minute(SimDuration::from_secs(20)) > 0.0);
        assert!(stats.median_efficiency().is_some());
        assert_eq!(
            stats.invocation_latencies.len(),
            stats.invocation_completions.len()
        );
    }
}
