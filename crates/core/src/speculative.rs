//! Replicated speculative execution for simulated constructs
//! (paper Section III-C).
//!
//! # Resolution order
//!
//! The game loop resolves its constructs one at a time, in server order,
//! through [`ScBackend::resolve`]. One call advances one construct from
//! its slot in an Fx-hashed per-construct map, records the statistics,
//! and — when a new invocation is due — invokes the FaaS platform, so the
//! platform's RNG stream is consumed in construct order and a seed alone
//! decides every outcome. The remote function's engine work is a pure
//! simulation of the construct; it runs only once the platform accepted
//! the invocation, so a rejected invoke costs no host time.
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
use std::sync::{Arc, Mutex};

use servo_faas::FaasPlatform;
use servo_redstone::{
    simulate_sequence, simulate_steps, Construct, ConstructState, SimulationOutcome,
};
use servo_server::{PublishedSequence, ScBackend, ScResolution};
use servo_types::{ConstructId, SimDuration, SimTime, Tick};
use servo_world::FxBuildHasher;

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
        self.stats
            .lock()
            .expect("speculation stats lock poisoned")
            .clone()
    }

    /// A snapshot of the FaaS billing meter for the SC-offload function.
    /// When the platform is shared between several backends, the meter is
    /// the *platform-level* (cluster) aggregate.
    pub fn billing(&self) -> servo_faas::BillingMeter {
        self.platform().billing().clone()
    }

    /// A snapshot of the FaaS platform statistics (cold starts, peak
    /// concurrency); platform-level when the platform is shared.
    pub fn platform_stats(&self) -> servo_faas::PlatformStats {
        self.platform().stats()
    }

    /// The billing meter as it reads at `now`, including the warm-idle
    /// time accrued by containers the keep-alive policy is holding open —
    /// the full cost of the platform configuration at the end of a run.
    pub fn billing_at(&self, now: SimTime) -> servo_faas::BillingMeter {
        self.platform().billing_at(now)
    }

    fn platform(&self) -> std::sync::MutexGuard<'_, FaasPlatform> {
        self.platform.lock().expect("SC platform lock poisoned")
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

/// The speculative execution unit: Servo's [`ScBackend`].
///
/// See the crate- and module-level documentation and the paper's
/// Section III-C for the mechanism. The unit is deterministic given the
/// platform's RNG seed and the order the game loop resolves constructs in.
pub struct SpeculativeScBackend {
    config: SpeculationConfig,
    slots: HashMap<ConstructId, ConstructSlot, FxBuildHasher>,
    platform: SharedScPlatform,
    stats: Arc<Mutex<SpeculationStats>>,
}

impl std::fmt::Debug for SpeculativeScBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeculativeScBackend")
            .field("config", &self.config)
            .field("slots", &self.slots.len())
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
            slots: HashMap::default(),
            platform,
            stats: Arc::new(Mutex::new(SpeculationStats::default())),
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

    /// Advances one construct from its slot and records any delivered
    /// invocation in `stats`. Returns how the construct advanced and, when
    /// a new invocation is due, the construct state to speculate from.
    fn advance(
        config: &SpeculationConfig,
        slot: &mut ConstructSlot,
        construct: &mut Construct,
        now: SimTime,
        stats: &mut SpeculationStats,
    ) -> (ScResolution, Option<Construct>) {
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
                let steps = available.outcome.simulated_steps();
                available.outcome.state_at(offset).map(|state| {
                    let replaying = available.outcome.loop_info.is_some() && offset > steps;
                    let remaining = steps.saturating_sub(offset) as u64;
                    let refresh_base = if !replaying
                        && available.outcome.loop_info.is_none()
                        && remaining <= config.tick_lead
                        && slot.pending.is_none()
                    {
                        // Tick lead: speculate onward from the *end* of the
                        // current sequence, a state the server has not
                        // reached yet (Figure 6 of the paper): its last
                        // row, at its last step, under its stamp.
                        available.outcome.state_at(steps).map(|last| {
                            let last = ConstructState::from_powers(
                                last.to_vec(),
                                available.start_step + steps as u64,
                                available.stamp,
                            );
                            Construct::with_state(construct.blueprint().clone(), last)
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
                let resolution = if replaying {
                    ScResolution::LoopReplayed
                } else {
                    ScResolution::SpeculativeApplied
                };
                return (resolution, refresh_base);
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
                    stats.invocation_latencies.push(pending.latency);
                    stats.invocation_completions.push(pending.completes_at);
                    if pending.stamp == construct.modification_stamp() {
                        // Efficiency: the fraction of offloaded steps the
                        // server did not already compute locally while
                        // waiting (Section III-C). Steps the server stepped
                        // locally during the invocation's flight are wasted
                        // — but only up to the point where the sequence
                        // loops: a looping sequence serves *every* later
                        // tick by replay, so its usable steps are never
                        // exhausted by the wait.
                        let total = pending.outcome.simulated_steps().max(1) as f64;
                        let already_local =
                            construct.state().step().saturating_sub(pending.start_step) as f64;
                        let wasted = match pending.outcome.loop_info {
                            Some(info) => already_local.min(info.start as f64),
                            None => already_local,
                        };
                        stats
                            .efficiency_samples
                            .push(((total - wasted) / total).clamp(0.0, 1.0));
                        slot.available = Some(AvailableSequence {
                            stamp: pending.stamp,
                            start_step: pending.start_step,
                            outcome: pending.outcome,
                        });
                        continue;
                    }
                    // Stale: the delivery is still recorded (latency and
                    // completion time), but counts as discarded.
                    stats.discarded_stale += 1;
                }
            }
            break;
        }

        // Fall back to local simulation while (re)starting speculation.
        construct.step();
        let base = slot.pending.is_none().then(|| construct.clone());
        (ScResolution::LocalSimulated, base)
    }

    /// The remote function's deterministic engine work for one invocation.
    fn compute_outcome(config: &SpeculationConfig, base: Construct) -> SimulationOutcome {
        let mut remote = base;
        if config.loop_detection {
            simulate_sequence(&mut remote, config.simulation_steps)
        } else {
            simulate_steps(&mut remote, config.simulation_steps)
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
        let mut stats = self.stats.lock().expect("speculation stats lock poisoned");
        let slot = self.slots.entry(id).or_default();
        let (resolution, base) = Self::advance(&self.config, slot, construct, now, &mut stats);
        match resolution {
            ScResolution::LocalSimulated => stats.local_fallback += 1,
            ScResolution::SpeculativeApplied => stats.speculative_applied += 1,
            ScResolution::LoopReplayed => stats.loop_replayed += 1,
            ScResolution::Skipped => {}
        }
        let Some(base) = base else {
            return resolution;
        };
        let work = self
            .config
            .work_model
            .work_for(base.len(), self.config.simulation_steps);
        let invoked = self
            .platform
            .lock()
            .expect("SC platform lock poisoned")
            .invoke(now, work);
        match invoked {
            Ok(invocation) => {
                stats.invocations += 1;
                if invocation.queue_wait > SimDuration::ZERO {
                    stats.queued_invocations += 1;
                    stats.queue_wait_ms += invocation.queue_wait.as_millis_f64();
                }
                slot.pending = Some(PendingInvocation {
                    completes_at: invocation.completed_at,
                    latency: invocation.latency,
                    stamp: base.state().modification_stamp(),
                    start_step: base.state().step(),
                    outcome: Self::compute_outcome(&self.config, base),
                });
            }
            Err(_) => stats.failed += 1,
        }
        resolution
    }

    fn release(&mut self, id: ConstructId) {
        // The construct is migrating to another zone's backend: drop its
        // slot so a later reuse of the id on this server starts clean. A
        // result still in flight (or available but unapplied) is counted as
        // discarded — the offloaded steps are lost to the migration, the
        // same way a modification mid-flight loses them. The new owner's
        // backend re-establishes speculation from the construct's live
        // state on its first resolve.
        if let Some(slot) = self.slots.remove(&id) {
            let in_flight = slot.pending.is_some() as u64 + slot.available.is_some() as u64;
            if in_flight > 0 {
                self.stats
                    .lock()
                    .expect("speculation stats lock poisoned")
                    .discarded_migrated += in_flight;
            }
        }
    }

    fn published_sequence(&self, id: ConstructId) -> Option<PublishedSequence> {
        // The sequence serving this construct already lives in shared
        // remote storage (the FaaS platform wrote it there); publishing is
        // just naming it. Identity is (stamp, start_step): a modification
        // re-invokes under a fresh stamp and a migration releases the
        // slot, so neighbours holding an old handle observe the change.
        let available = self.slots.get(&id)?.available.as_ref()?;
        let horizon = if available.outcome.loop_info.is_some() {
            // A looping sequence replays forever: any future step can be
            // served from the stored states.
            u64::MAX
        } else {
            available.start_step + available.outcome.simulated_steps() as u64
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
    fn saturated_platform_rejects_invokes_and_stays_transparent() {
        // A tiny concurrency limit forces invoke failures: each rejection
        // is counted, and the constructs evolve exactly as plain local
        // stepping evolves them.
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
        let mut references = constructs.clone();
        for t in 0..200u64 {
            let now = SimTime::from_millis(t * 50);
            for (i, (c, reference)) in constructs.iter_mut().zip(&mut references).enumerate() {
                b.resolve(ConstructId::new(i as u64), c, Tick(t), now);
                reference.step();
                assert_eq!(c.state().hash(), reference.state().hash(), "tick {t}");
            }
        }
        let stats = b.handle().stats();
        assert!(stats.failed > 0, "the limit never rejected an invoke");
        assert!(stats.invocations > 0);
        assert_eq!(b.handle().platform_stats().invocations, stats.invocations);
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
        let platform_invocations = platform.lock().unwrap().stats().invocations;
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
