//! Property-based tests for the simulation kit.

use proptest::prelude::*;
use rand::Rng;
use servo_simkit::{dist, Distribution, LatencyModel, SimClock, SimRng};
use servo_types::{SimDuration, SimTime};

proptest! {
    /// The clock is monotone under any interleaving of advance operations.
    #[test]
    fn clock_is_monotone(ops in prop::collection::vec((any::<bool>(), 0u64..100_000), 1..200)) {
        let mut clock = SimClock::new();
        let mut last = clock.now();
        for (advance_to, value) in ops {
            if advance_to {
                clock.advance_to(SimTime::from_micros(value));
            } else {
                clock.advance_by(SimDuration::from_micros(value % 1000));
            }
            prop_assert!(clock.now() >= last);
            last = clock.now();
        }
    }

    /// Identical seeds give identical random streams; substreams with
    /// different names diverge.
    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed(seed);
        let mut b = SimRng::seed(seed);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        prop_assert_eq!(xs, ys);

        let mut s1 = SimRng::seed(seed).substream("alpha");
        let mut s2 = SimRng::seed(seed).substream("beta");
        let v1: Vec<u64> = (0..4).map(|_| s1.gen()).collect();
        let v2: Vec<u64> = (0..4).map(|_| s2.gen()).collect();
        prop_assert_ne!(v1, v2);
    }

    /// Latency samples are never negative and never exceed the configured
    /// ceiling.
    #[test]
    fn latency_samples_respect_bounds(
        median in 0.1f64..500.0,
        sigma in 0.01f64..1.5,
        ceiling in 10.0f64..2000.0,
        seed in any::<u64>(),
    ) {
        let model = LatencyModel::new(median, sigma)
            .with_outliers(0.05, median * 10.0, 1.8)
            .with_ceiling(ceiling);
        let mut rng = SimRng::seed(seed);
        for _ in 0..200 {
            let sample = model.sample_ms(&mut rng);
            prop_assert!(sample >= 0.0);
            prop_assert!(sample <= ceiling + 1e-9);
            let duration = model.sample(&mut rng);
            prop_assert!(duration.as_millis_f64() <= ceiling + 1e-9);
        }
    }

    /// The uniform distribution stays within its bounds.
    #[test]
    fn uniform_stays_in_bounds(lo in 0.0f64..100.0, width in 0.1f64..100.0, seed in any::<u64>()) {
        let d = dist::Uniform { lo, hi: lo + width };
        let mut rng = SimRng::seed(seed);
        for _ in 0..100 {
            let s = d.sample_ms(&mut rng);
            prop_assert!(s >= lo && s < lo + width);
        }
    }
}
