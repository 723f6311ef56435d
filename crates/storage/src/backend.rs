//! Object-store backends and their latency models.

use std::collections::HashMap;
use std::sync::Arc;

use servo_simkit::{Distribution, LatencyModel, SimRng};
use servo_types::{ServoError, SimDuration, SimTime};

/// The outcome of a successful read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// The stored bytes.
    pub data: Vec<u8>,
    /// End-to-end latency of the read as observed by the game server.
    pub latency: SimDuration,
    /// The instant the data is available to the caller.
    pub completed_at: SimTime,
}

/// The outcome of a successful write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteResult {
    /// End-to-end latency of the write.
    pub latency: SimDuration,
    /// The instant the write is durable.
    pub completed_at: SimTime,
}

/// A key-value object store with latency-modelled operations.
///
/// Implementations store real bytes; only the *timing* is synthetic, which
/// keeps the code path identical to a production backend (serialize, write,
/// read, deserialize) while making experiments reproducible.
pub trait ObjectStore {
    /// Reads the object at `key`, starting at instant `now`.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::NotFound`] if the key does not exist and
    /// [`ServoError::StorageFailed`] on injected faults.
    fn read(&mut self, key: &str, now: SimTime) -> Result<ReadResult, ServoError>;

    /// Writes `data` at `key`, starting at instant `now`. Stored objects
    /// are immutable, so a store keeps the shared bytes it is handed: a
    /// caller passing an `Arc<[u8]>` it also holds elsewhere (the cache's
    /// memory tier, the write-ahead log's root record) copies nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::StorageFailed`] on injected faults.
    fn write(
        &mut self,
        key: &str,
        data: impl Into<Arc<[u8]>>,
        now: SimTime,
    ) -> Result<WriteResult, ServoError>;

    /// Whether an object exists at `key` (no latency accounted).
    fn contains(&self, key: &str) -> bool;

    /// Number of stored objects.
    fn len(&self) -> usize;

    /// Whether the store holds no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short name for experiment output.
    fn name(&self) -> &'static str;
}

/// Local disk storage: the baseline the paper compares managed storage
/// against in Figure 13 (99.9% of requests within 16 ms, outliers only
/// during boot).
#[derive(Debug, Clone)]
pub struct LocalDiskStore {
    objects: HashMap<String, Arc<[u8]>>,
    rng: SimRng,
    latency: LatencyModel,
    boot_latency: LatencyModel,
    /// Reads served so far; the first few pay the boot penalty.
    reads: u64,
    boot_reads: u64,
    fail_next: Option<String>,
}

impl LocalDiskStore {
    /// Creates a local-disk store.
    pub fn new(rng: SimRng) -> Self {
        LocalDiskStore {
            objects: HashMap::new(),
            rng,
            // Body ~1.5 ms, 99.9p well under 16 ms.
            latency: LatencyModel::new(1.5, 0.45)
                .with_outliers(0.0005, 10.0, 3.0)
                .with_ceiling(16.0),
            // Cold page cache / JIT during boot: up to ~123 ms.
            boot_latency: LatencyModel::new(35.0, 0.5).with_ceiling(123.0),
            reads: 0,
            boot_reads: 12,
            fail_next: None,
        }
    }

    /// Injects a failure: the next operation returns
    /// [`ServoError::StorageFailed`] with the given reason.
    pub fn inject_failure(&mut self, reason: impl Into<String>) {
        self.fail_next = Some(reason.into());
    }
}

impl ObjectStore for LocalDiskStore {
    fn read(&mut self, key: &str, now: SimTime) -> Result<ReadResult, ServoError> {
        if let Some(reason) = self.fail_next.take() {
            return Err(ServoError::storage_failed(reason));
        }
        let data = self
            .objects
            .get(key)
            .map(|data| data.to_vec())
            .ok_or_else(|| ServoError::not_found(format!("object {key}")))?;
        self.reads += 1;
        let model = if self.reads <= self.boot_reads {
            &self.boot_latency
        } else {
            &self.latency
        };
        let latency = model.sample(&mut self.rng);
        Ok(ReadResult {
            data,
            latency,
            completed_at: now + latency,
        })
    }

    fn write(
        &mut self,
        key: &str,
        data: impl Into<Arc<[u8]>>,
        now: SimTime,
    ) -> Result<WriteResult, ServoError> {
        if let Some(reason) = self.fail_next.take() {
            return Err(ServoError::storage_failed(reason));
        }
        self.objects.insert(key.to_string(), data.into());
        let latency = self.latency.sample(&mut self.rng);
        Ok(WriteResult {
            latency,
            completed_at: now + latency,
        })
    }

    fn contains(&self, key: &str) -> bool {
        self.objects.contains_key(key)
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    fn name(&self) -> &'static str {
        "local"
    }
}

/// Deterministic transient-failure rates for a [`BlobStore`], driven by a
/// dedicated [`SimRng`] substream so an armed-but-zero-rate profile leaves
/// the store's latency stream — and therefore every derived statistic —
/// untouched. Failed operations consume no latency sample and do not count
/// toward the read/write counters, matching the single-shot
/// [`BlobStore::inject_failure`] behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability in `[0, 1]` that a read fails transiently.
    pub read_fail_rate: f64,
    /// Probability in `[0, 1]` that a write fails transiently.
    pub write_fail_rate: f64,
}

impl FaultProfile {
    /// A profile that never fails (useful as a default arm in sweeps).
    pub fn none() -> Self {
        FaultProfile {
            read_fail_rate: 0.0,
            write_fail_rate: 0.0,
        }
    }
}

/// The service tier of the blob store, matching the Premium/Standard plans
/// compared in Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlobTier {
    /// The cheaper plan with higher and more variable latency.
    Standard,
    /// The SSD-backed plan with lower latency and higher throughput.
    Premium,
}

/// Serverless blob storage (Azure Blob Storage / AWS S3 class).
///
/// Latency is a per-request base (log-normal body with a heavy tail) plus a
/// size-dependent transfer time, so small player-data objects are quick
/// while multi-hundred-kilobyte terrain objects take hundreds of
/// milliseconds on the Standard tier — the contrast shown in Figure 3.
#[derive(Debug, Clone)]
pub struct BlobStore {
    objects: HashMap<String, Arc<[u8]>>,
    rng: SimRng,
    tier: BlobTier,
    base_latency: LatencyModel,
    /// Sustained download throughput in bytes per millisecond.
    throughput_bytes_per_ms: f64,
    fail_next: Option<String>,
    /// Transient fault injection: rates plus a dedicated RNG, armed via
    /// [`BlobStore::with_faults`]. Kept separate from the latency RNG so an
    /// unarmed store's streams are bit-identical to a pre-fault build.
    faults: Option<(FaultProfile, SimRng)>,
    /// Counters for experiment output.
    reads: u64,
    writes: u64,
}

impl BlobStore {
    /// Creates a blob store of the given tier.
    pub fn new(tier: BlobTier, rng: SimRng) -> Self {
        let (base_latency, throughput_bytes_per_ms) = match tier {
            // Body median ~8 ms, 99.9p ~226 ms, outliers to ~500 ms
            // (Figure 13, "Serverless" curve).
            BlobTier::Standard => (
                LatencyModel::new(8.0, 0.55)
                    .with_outliers(0.0035, 120.0, 1.9)
                    .with_ceiling(520.0),
                9_000.0, // ~9 MB/s
            ),
            BlobTier::Premium => (
                LatencyModel::new(4.0, 0.4)
                    .with_outliers(0.0015, 60.0, 2.2)
                    .with_ceiling(260.0),
                28_000.0, // ~28 MB/s
            ),
        };
        BlobStore {
            objects: HashMap::new(),
            rng,
            tier,
            base_latency,
            throughput_bytes_per_ms,
            fail_next: None,
            faults: None,
            reads: 0,
            writes: 0,
        }
    }

    /// Arms deterministic transient faults: each read (write) independently
    /// fails with the profile's rate, sampled from `rng`. Use a dedicated
    /// substream (e.g. `rng.substream("faults")`) — the latency RNG stays
    /// untouched either way.
    pub fn with_faults(mut self, profile: FaultProfile, rng: SimRng) -> Self {
        self.faults = Some((profile, rng));
        self
    }

    fn transient_fault(&mut self, is_read: bool) -> bool {
        match &mut self.faults {
            Some((profile, rng)) => {
                let rate = if is_read {
                    profile.read_fail_rate
                } else {
                    profile.write_fail_rate
                };
                rate > 0.0 && rng.unit() < rate
            }
            None => false,
        }
    }

    /// The tier this store was created with.
    pub fn tier(&self) -> BlobTier {
        self.tier
    }

    /// Number of read operations served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write operations served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Every stored key, sorted (no latency accounted) — audit surface for
    /// ownership tests and recovery tooling.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.objects.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Injects a failure: the next operation returns
    /// [`ServoError::StorageFailed`] with the given reason.
    pub fn inject_failure(&mut self, reason: impl Into<String>) {
        self.fail_next = Some(reason.into());
    }

    fn transfer_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_millis_f64(bytes as f64 / self.throughput_bytes_per_ms)
    }
}

impl ObjectStore for BlobStore {
    fn read(&mut self, key: &str, now: SimTime) -> Result<ReadResult, ServoError> {
        if let Some(reason) = self.fail_next.take() {
            return Err(ServoError::storage_failed(reason));
        }
        if self.transient_fault(true) {
            return Err(ServoError::storage_failed("transient blob read fault"));
        }
        let data = self
            .objects
            .get(key)
            .map(|data| data.to_vec())
            .ok_or_else(|| ServoError::not_found(format!("object {key}")))?;
        self.reads += 1;
        let latency = self.base_latency.sample(&mut self.rng) + self.transfer_time(data.len());
        Ok(ReadResult {
            completed_at: now + latency,
            latency,
            data,
        })
    }

    fn write(
        &mut self,
        key: &str,
        data: impl Into<Arc<[u8]>>,
        now: SimTime,
    ) -> Result<WriteResult, ServoError> {
        if let Some(reason) = self.fail_next.take() {
            return Err(ServoError::storage_failed(reason));
        }
        if self.transient_fault(false) {
            return Err(ServoError::storage_failed("transient blob write fault"));
        }
        self.writes += 1;
        let data = data.into();
        let latency = self.base_latency.sample(&mut self.rng) + self.transfer_time(data.len());
        self.objects.insert(key.to_string(), data);
        Ok(WriteResult {
            latency,
            completed_at: now + latency,
        })
    }

    fn contains(&self, key: &str) -> bool {
        self.objects.contains_key(key)
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    fn name(&self) -> &'static str {
        match self.tier {
            BlobTier::Standard => "blob-standard",
            BlobTier::Premium => "blob-premium",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servo_metrics_helpers::percentile_ms;

    /// Tiny local helper: percentile of read latencies in milliseconds.
    mod servo_metrics_helpers {
        use super::*;
        pub fn percentile_ms(mut samples: Vec<f64>, q: f64) -> f64 {
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let idx = ((samples.len() - 1) as f64 * q).round() as usize;
            samples[idx]
        }
        pub fn collect_read_latencies<S: ObjectStore>(
            store: &mut S,
            key: &str,
            n: usize,
        ) -> Vec<f64> {
            let mut out = Vec::with_capacity(n);
            let mut now = SimTime::ZERO;
            for _ in 0..n {
                let r = store.read(key, now).unwrap();
                now = r.completed_at;
                out.push(r.latency.as_millis_f64());
            }
            out
        }
    }
    use servo_metrics_helpers::collect_read_latencies;

    #[test]
    fn read_returns_written_bytes() {
        let mut store = LocalDiskStore::new(SimRng::seed(1));
        assert!(store.is_empty());
        store.write("a", vec![9, 9, 9], SimTime::ZERO).unwrap();
        let r = store.read("a", SimTime::ZERO).unwrap();
        assert_eq!(r.data, vec![9, 9, 9]);
        assert_eq!(store.len(), 1);
        assert!(store.contains("a"));
    }

    #[test]
    fn missing_key_is_not_found() {
        let mut store = BlobStore::new(BlobTier::Standard, SimRng::seed(1));
        let err = store.read("missing", SimTime::ZERO).unwrap_err();
        assert!(matches!(err, ServoError::NotFound { .. }));
    }

    #[test]
    fn injected_failures_surface_once() {
        let mut store = LocalDiskStore::new(SimRng::seed(1));
        store.write("a", vec![1], SimTime::ZERO).unwrap();
        store.inject_failure("disk offline");
        assert!(store.read("a", SimTime::ZERO).is_err());
        assert!(store.read("a", SimTime::ZERO).is_ok());

        let mut blob = BlobStore::new(BlobTier::Premium, SimRng::seed(1));
        blob.inject_failure("throttled");
        assert!(blob.write("k", vec![0], SimTime::ZERO).is_err());
        assert!(blob.write("k", vec![0], SimTime::ZERO).is_ok());
    }

    #[test]
    fn local_disk_tail_is_tight_after_boot() {
        let mut store = LocalDiskStore::new(SimRng::seed(7));
        store
            .write("chunk", vec![0u8; 20_000], SimTime::ZERO)
            .unwrap();
        let latencies = collect_read_latencies(&mut store, "chunk", 5_000);
        // Ignore the boot reads, as the paper does when explaining outliers.
        let steady = latencies[20..].to_vec();
        assert!(percentile_ms(steady.clone(), 0.999) <= 16.0);
        // Boot reads are visibly slower.
        assert!(latencies[..10].iter().cloned().fold(0.0, f64::max) > 16.0);
    }

    #[test]
    fn blob_standard_has_heavy_tail() {
        let mut store = BlobStore::new(BlobTier::Standard, SimRng::seed(3));
        store
            .write("chunk", vec![0u8; 20_000], SimTime::ZERO)
            .unwrap();
        let latencies = collect_read_latencies(&mut store, "chunk", 8_000);
        let p999 = percentile_ms(latencies.clone(), 0.999);
        let p50 = percentile_ms(latencies, 0.5);
        assert!(p999 > 100.0, "99.9p was {p999}");
        assert!(p50 < 30.0, "median was {p50}");
    }

    #[test]
    fn premium_is_faster_than_standard_for_large_objects() {
        let big = vec![0u8; 2_000_000];
        let mut standard = BlobStore::new(BlobTier::Standard, SimRng::seed(5));
        let mut premium = BlobStore::new(BlobTier::Premium, SimRng::seed(5));
        standard
            .write("terrain", big.clone(), SimTime::ZERO)
            .unwrap();
        premium.write("terrain", big, SimTime::ZERO).unwrap();
        let s: f64 = collect_read_latencies(&mut standard, "terrain", 50)
            .iter()
            .sum();
        let p: f64 = collect_read_latencies(&mut premium, "terrain", 50)
            .iter()
            .sum();
        assert!(s > 2.0 * p, "standard {s} premium {p}");
        assert_eq!(standard.reads(), 50);
    }

    #[test]
    fn large_objects_take_longer_than_small_ones() {
        let mut store = BlobStore::new(BlobTier::Standard, SimRng::seed(9));
        store
            .write("player", vec![0u8; 2_000], SimTime::ZERO)
            .unwrap();
        store
            .write("terrain", vec![0u8; 2_000_000], SimTime::ZERO)
            .unwrap();
        let small: f64 = collect_read_latencies(&mut store, "player", 100)
            .iter()
            .sum();
        let large: f64 = collect_read_latencies(&mut store, "terrain", 100)
            .iter()
            .sum();
        assert!(large > small * 3.0);
    }

    #[test]
    fn store_names_are_distinct() {
        assert_eq!(LocalDiskStore::new(SimRng::seed(1)).name(), "local");
        assert_eq!(
            BlobStore::new(BlobTier::Standard, SimRng::seed(1)).name(),
            "blob-standard"
        );
        assert_eq!(
            BlobStore::new(BlobTier::Premium, SimRng::seed(1)).name(),
            "blob-premium"
        );
        assert_eq!(
            BlobStore::new(BlobTier::Premium, SimRng::seed(1)).tier(),
            BlobTier::Premium
        );
    }
}
