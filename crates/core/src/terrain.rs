//! Serverless terrain generation (paper Section III-D).

use std::sync::{Arc, Mutex, MutexGuard};

use servo_faas::FaasPlatform;
use servo_pcg::TerrainGenerator;
use servo_server::GenerationClock;
use servo_storage::{ChunkCompletion, ChunkRequest, ChunkService, ShardDelta, Ticket};
use servo_types::{ChunkPos, SimDuration, SimTime};

/// Statistics of the terrain-offloading backend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TerrainOffloadStats {
    /// Generation function invocations issued.
    pub invocations: u64,
    /// Invocations that failed on the platform.
    pub failed: u64,
    /// Invocations that waited in the platform's saturation queue.
    pub queued: u64,
    /// Chunks delivered to the game server.
    pub chunks_delivered: u64,
    /// Per-invocation end-to-end latency.
    pub latencies: Vec<SimDuration>,
}

/// A cloneable handle to the terrain backend's statistics and billing.
#[derive(Debug, Clone)]
pub struct TerrainOffloadHandle {
    inner: Arc<Mutex<Shared>>,
}

impl TerrainOffloadHandle {
    /// A snapshot of the current statistics.
    pub fn stats(&self) -> TerrainOffloadStats {
        self.lock().stats.clone()
    }

    /// A snapshot of the FaaS billing meter for the generation function.
    pub fn billing(&self) -> servo_faas::BillingMeter {
        self.lock().platform.billing().clone()
    }

    /// A snapshot of the FaaS platform statistics.
    pub fn platform_stats(&self) -> servo_faas::PlatformStats {
        self.lock().platform.stats()
    }

    /// The billing meter as it reads at `now`, including warm-idle time
    /// accrued by containers held open by the keep-alive policy.
    pub fn billing_at(&self, now: SimTime) -> servo_faas::BillingMeter {
        self.lock().platform.billing_at(now)
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.inner.lock().expect("terrain offload lock poisoned")
    }
}

#[derive(Debug)]
struct Shared {
    platform: FaasPlatform,
    stats: TerrainOffloadStats,
}

/// Servo's terrain generation backend: every chunk is generated by its own
/// serverless function invocation, so any number of chunks can be generated
/// concurrently. Plugs into the game loop as a
/// [`ChunkService`]: `Read`/`Prefetch` requests invoke the generation
/// function, completed invocations surface as
/// [`Loaded`](servo_storage::ChunkOutcome::Loaded) completions with
/// [`Generated`](servo_storage::ChunkLocation::Generated).
pub struct FaasTerrainBackend {
    generator: Box<dyn TerrainGenerator>,
    shared: Arc<Mutex<Shared>>,
    in_flight: Vec<(ChunkPos, SimTime)>,
    /// Shared submit/complete bookkeeping of generation-style services.
    clock: GenerationClock,
}

impl std::fmt::Debug for FaasTerrainBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasTerrainBackend")
            .field("generator", &self.generator.name())
            .field("in_flight", &self.in_flight.len())
            .finish()
    }
}

impl FaasTerrainBackend {
    /// Creates a backend generating terrain with `generator` on `platform`.
    pub fn new(generator: Box<dyn TerrainGenerator>, platform: FaasPlatform) -> Self {
        FaasTerrainBackend {
            generator,
            shared: Arc::new(Mutex::new(Shared {
                platform,
                stats: TerrainOffloadStats::default(),
            })),
            in_flight: Vec::new(),
            clock: GenerationClock::default(),
        }
    }

    /// A handle for reading statistics and billing after the backend has
    /// been moved into a server.
    pub fn handle(&self) -> TerrainOffloadHandle {
        TerrainOffloadHandle {
            inner: Arc::clone(&self.shared),
        }
    }
}

impl FaasTerrainBackend {
    /// Invokes the generation function for `pos` at virtual time `now`
    /// (failed invocations may be retried later).
    fn request(&mut self, pos: ChunkPos, now: SimTime) {
        let mut shared = self.shared.lock().expect("terrain offload lock poisoned");
        let work = self.generator.cost().work_units;
        match shared.platform.invoke(now, work) {
            Ok(invocation) => {
                shared.stats.invocations += 1;
                if invocation.queue_wait > SimDuration::ZERO {
                    shared.stats.queued += 1;
                }
                shared.stats.latencies.push(invocation.latency);
                self.in_flight.push((pos, invocation.completed_at));
            }
            Err(_) => {
                shared.stats.failed += 1;
                // Allow a retry on a later tick.
                self.clock.forget(pos);
            }
        }
    }
}

impl ChunkService for FaasTerrainBackend {
    fn submit(&mut self, request: ChunkRequest) -> Ticket {
        let (ticket, positions) = self.clock.admit(&request);
        let now = self.clock.now();
        for pos in positions {
            self.request(pos, now);
        }
        ticket
    }

    fn poll(&mut self, now: SimTime) -> Vec<ChunkCompletion> {
        self.clock.advance(now);
        let mut ready = Vec::new();
        let mut still_in_flight = Vec::new();
        for (pos, completes_at) in self.in_flight.drain(..) {
            if completes_at <= now {
                ready.push(self.generator.generate(pos));
            } else {
                still_in_flight.push((pos, completes_at));
            }
        }
        self.in_flight = still_in_flight;
        {
            let mut shared = self.shared.lock().expect("terrain offload lock poisoned");
            shared.stats.chunks_delivered += ready.len() as u64;
        }
        self.clock.complete(ready, now)
    }

    fn drain_dirty(&mut self) -> Vec<ShardDelta> {
        Vec::new()
    }

    fn pending(&self) -> usize {
        self.in_flight.len()
    }

    fn busy_local_workers(&self, _now: SimTime) -> usize {
        // Generation happens in the cloud, not on the game server.
        0
    }

    fn name(&self) -> &'static str {
        "servo-faas-generation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servo_faas::FunctionConfig;
    use servo_pcg::DefaultGenerator;
    use servo_simkit::SimRng;
    use servo_storage::ChunkOutcome;
    use servo_types::MemoryMb;

    fn backend(memory: u32, seed: u64) -> FaasTerrainBackend {
        FaasTerrainBackend::new(
            Box::new(DefaultGenerator::new(7)),
            FaasPlatform::new(
                FunctionConfig::aws_like(MemoryMb::new(memory)),
                SimRng::seed(seed),
            ),
        )
    }

    fn loaded(completions: Vec<ChunkCompletion>) -> Vec<servo_world::Chunk> {
        completions
            .into_iter()
            .filter_map(|c| match c.outcome {
                ChunkOutcome::Loaded { chunk, .. } => Some(*chunk),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn requests_fan_out_concurrently() {
        let mut b = backend(10240, 1);
        for x in 0..50 {
            b.submit(ChunkRequest::read(ChunkPos::new(x, 0)));
        }
        assert_eq!(b.pending(), 50);
        assert_eq!(b.busy_local_workers(SimTime::ZERO), 0);
        // A 10 GB function generates a chunk in well under a second; all 50
        // chunks complete in parallel within ~2 s despite cold starts.
        let ready = loaded(b.poll(SimTime::from_secs(3)));
        assert_eq!(ready.len(), 50);
        let stats = b.handle().stats();
        assert_eq!(stats.invocations, 50);
        assert_eq!(stats.chunks_delivered, 50);
        assert!(b.handle().platform_stats().peak_concurrency >= 50);
    }

    #[test]
    fn duplicate_requests_are_deduplicated() {
        let mut b = backend(2048, 2);
        let first = b.submit(ChunkRequest::read(ChunkPos::new(1, 1)));
        for _ in 0..9 {
            b.submit(ChunkRequest::read(ChunkPos::new(1, 1)));
        }
        assert_eq!(b.handle().stats().invocations, 1);
        // The single completion carries the first request's ticket.
        let completions = b.poll(SimTime::from_secs(30));
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].ticket, first);
    }

    #[test]
    fn generated_chunks_are_real_terrain() {
        let mut b = backend(10240, 3);
        b.submit(ChunkRequest::read(ChunkPos::new(2, -3)));
        let ready = loaded(b.poll(SimTime::from_secs(5)));
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].pos(), ChunkPos::new(2, -3));
        assert!(ready[0].non_air_blocks() > 0);
        // Deterministic: the same generator seed yields identical bytes.
        let again = DefaultGenerator::new(7).generate(ChunkPos::new(2, -3));
        assert_eq!(ready[0].to_bytes(), again.to_bytes());
    }

    #[test]
    fn smaller_functions_deliver_later() {
        let run = |memory: u32| -> u64 {
            let mut b = backend(memory, 4);
            b.submit(ChunkRequest::read(ChunkPos::new(0, 0)));
            // Find the first half-second boundary at which the chunk is ready.
            for half_seconds in 1..40 {
                let t = SimTime::from_millis(half_seconds * 500);
                if !b.poll(t).is_empty() {
                    return half_seconds;
                }
            }
            u64::MAX
        };
        assert!(run(320) > run(10240));
    }

    #[test]
    fn billing_accounts_generation_cost() {
        let mut b = backend(2048, 5);
        let positions: Vec<ChunkPos> = (0..20).map(|x| ChunkPos::new(x, 5)).collect();
        b.submit(ChunkRequest::prefetch(positions));
        b.poll(SimTime::from_secs(10));
        assert!(b.handle().billing().total_cost_usd() > 0.0);
        assert_eq!(b.handle().billing().invocations(), 20);
    }
}
