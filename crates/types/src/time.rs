//! Virtual time primitives.
//!
//! All experiments in this repository run on a deterministic virtual clock
//! rather than wall-clock time; [`SimTime`] is an absolute instant on that
//! clock, [`SimDuration`] a span between instants, and [`Tick`] a discrete
//! game-loop iteration index.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the virtual clock, with microsecond resolution.
///
/// # Example
///
/// ```
/// use servo_types::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(50);
/// assert_eq!(t.as_micros(), 50_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the virtual clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `micros` microseconds after the clock origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the clock origin.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the clock origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the clock origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the clock origin (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the clock origin, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

/// A span of virtual time, with microsecond resolution.
///
/// # Example
///
/// ```
/// use servo_types::SimDuration;
/// let d = SimDuration::from_millis(50) * 3;
/// assert_eq!(d.as_millis(), 150);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from a floating-point number of milliseconds,
    /// truncating sub-microsecond precision. Negative values clamp to zero.
    pub fn from_millis_f64(millis: f64) -> Self {
        if millis <= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration((millis * 1_000.0) as u64)
        }
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Subtraction that saturates at zero instead of underflowing.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, rhs: SimDuration) -> SimDuration {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs).max(0.0) as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

/// A discrete game-loop iteration index.
///
/// The game loop advances one tick every `1/R` seconds of virtual time
/// (50 ms at the paper's fixed R = 20 Hz).
///
/// # Example
///
/// ```
/// use servo_types::Tick;
/// let t = Tick(5);
/// assert_eq!(t.advance(3), Tick(8));
/// assert_eq!(Tick(8).saturating_ticks_since(t), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u64);

impl Tick {
    /// Tick zero, the first iteration of the game loop.
    pub const ZERO: Tick = Tick(0);

    /// The tick `n` iterations after this one.
    pub const fn advance(self, n: u64) -> Tick {
        Tick(self.0 + n)
    }

    /// The next tick.
    pub const fn next(self) -> Tick {
        self.advance(1)
    }

    /// Number of ticks elapsed since `earlier`, saturating at zero.
    pub const fn saturating_ticks_since(self, earlier: Tick) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The virtual-time instant at which this tick begins, for a given tick
    /// rate in Hz.
    pub fn start_time(self, tick_rate_hz: u32) -> SimTime {
        SimTime::from_micros(self.0 * 1_000_000 / tick_rate_hz as u64)
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tick {}", self.0)
    }
}

impl Add<u64> for Tick {
    type Output = Tick;
    fn add(self, rhs: u64) -> Tick {
        self.advance(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t0 = SimTime::from_millis(100);
        let d = SimDuration::from_millis(50);
        assert_eq!((t0 + d) - t0, d);
        assert_eq!((t0 + d).as_millis(), 150);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn duration_float_conversions() {
        let d = SimDuration::from_millis_f64(12.5);
        assert_eq!(d.as_micros(), 12_500);
        assert!((d.as_millis_f64() - 12.5).abs() < 1e-9);
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 5, SimDuration::from_millis(50));
        assert_eq!(d * 0.5, SimDuration::from_micros(5_000));
        assert_eq!((d * 5) / 5, d);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (0..10).map(|_| SimDuration::from_millis(5)).sum();
        assert_eq!(total, SimDuration::from_millis(50));
    }

    #[test]
    fn tick_start_time_at_20hz() {
        assert_eq!(Tick(0).start_time(20), SimTime::ZERO);
        assert_eq!(Tick(1).start_time(20), SimTime::from_millis(50));
        assert_eq!(Tick(20).start_time(20), SimTime::from_secs(1));
    }

    #[test]
    fn tick_ordering_and_advance() {
        let t = Tick(7);
        assert!(t.next() > t);
        assert_eq!(t + 13, Tick(20));
        assert_eq!(Tick(3).saturating_ticks_since(Tick(9)), 0);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", SimTime::from_millis(1)).is_empty());
        assert!(!format!("{}", SimDuration::from_millis(1)).is_empty());
        assert!(!format!("{}", Tick(1)).is_empty());
    }
}
