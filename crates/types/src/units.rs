//! Resource and rate units.

use std::fmt;

/// Memory allocated to a serverless function, in mebibytes.
///
/// On AWS Lambda the amount of compute (vCPUs) scales with the configured
/// memory; the paper sweeps 320 MB to 10240 MB in Figure 11.
///
/// # Example
///
/// ```
/// use servo_types::MemoryMb;
/// let m = MemoryMb::new(1024);
/// assert!((m.vcpus() - 0.5714).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemoryMb(pub u32);

impl MemoryMb {
    /// Creates a memory configuration of `mb` mebibytes.
    pub const fn new(mb: u32) -> Self {
        MemoryMb(mb)
    }

    /// The raw number of mebibytes.
    pub const fn as_mb(self) -> u32 {
        self.0
    }

    /// The memory expressed in gibibytes.
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// Approximate number of vCPUs allocated by AWS Lambda for this memory
    /// size: 1 full vCPU per 1792 MB, capped at 6 vCPUs at 10240 MB.
    pub fn vcpus(self) -> f64 {
        (self.0 as f64 / 1792.0).min(6.0)
    }

    /// The memory configurations evaluated in the paper (Figure 11).
    pub const PAPER_SWEEP: [MemoryMb; 6] = [
        MemoryMb(320),
        MemoryMb(512),
        MemoryMb(1024),
        MemoryMb(2048),
        MemoryMb(4096),
        MemoryMb(10240),
    ];
}

impl Default for MemoryMb {
    fn default() -> Self {
        MemoryMb(1024)
    }
}

impl fmt::Display for MemoryMb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MB", self.0)
    }
}

/// A horizontal movement speed, in blocks per second.
///
/// The paper's workloads move avatars at 1–8 blocks per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct BlocksPerSecond(pub f64);

impl BlocksPerSecond {
    /// Creates a speed of `v` blocks per second.
    pub const fn new(v: f64) -> Self {
        BlocksPerSecond(v)
    }

    /// The raw speed value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Distance covered over `secs` seconds, in blocks.
    pub fn distance_over(self, secs: f64) -> f64 {
        self.0 * secs
    }
}

impl fmt::Display for BlocksPerSecond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} blocks/s", self.0)
    }
}

/// A cost rate in United States dollars per hour.
///
/// Used by the billing model to compare offloading cost with the cost of a
/// `c5n.xlarge` instance ($0.216/h) as the paper does in Section IV-C.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct UsdPerHour(pub f64);

impl UsdPerHour {
    /// Hourly price of the `c5n.xlarge` instance the paper compares against.
    pub const C5N_XLARGE: UsdPerHour = UsdPerHour(0.216);

    /// Creates a rate of `v` dollars per hour.
    pub const fn new(v: f64) -> Self {
        UsdPerHour(v)
    }

    /// The raw dollars-per-hour value.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for UsdPerHour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.3}/h", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sweep_matches_paper() {
        let mbs: Vec<u32> = MemoryMb::PAPER_SWEEP.iter().map(|m| m.as_mb()).collect();
        assert_eq!(mbs, vec![320, 512, 1024, 2048, 4096, 10240]);
    }

    #[test]
    fn vcpus_scale_with_memory_and_cap() {
        assert!(MemoryMb::new(320).vcpus() < MemoryMb::new(10240).vcpus());
        assert!((MemoryMb::new(1792).vcpus() - 1.0).abs() < 1e-9);
        assert!(MemoryMb::new(20480).vcpus() <= 6.0);
    }

    #[test]
    fn speed_distance() {
        let v = BlocksPerSecond::new(3.0);
        assert!((v.distance_over(10.0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn c5n_price_matches_paper() {
        assert!((UsdPerHour::C5N_XLARGE.value() - 0.216).abs() < 1e-9);
    }

    #[test]
    fn displays_are_nonempty() {
        assert!(!MemoryMb::default().to_string().is_empty());
        assert!(!BlocksPerSecond::new(1.0).to_string().is_empty());
        assert!(!UsdPerHour::new(0.1).to_string().is_empty());
    }
}
