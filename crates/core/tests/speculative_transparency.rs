//! Speculation is transparent inside the game loop: for a seeded workload
//! — mixed construct sizes, looping constructs, and player modifications
//! arriving mid-run — a `GameServer` on `SpeculativeScBackend` leaves
//! every construct in the state a server on
//! `LocalScBackend::every_tick()` leaves it in, after every tick, while
//! genuinely offloading; and one seed gives one run. Every check runs with
//! loop detection on and off.

use proptest::prelude::*;

mod speculative_workload;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn speculation_matches_local_stepping_in_the_game_loop(seed in 0u64..100_000) {
        for config in speculative_workload::configs() {
            speculative_workload::assert_transparent(seed, 120, config, None);
        }
    }
}

/// A longer single-seed soak with modifications on.
#[test]
fn long_run_with_modifications_stays_transparent() {
    for config in speculative_workload::configs() {
        speculative_workload::assert_transparent(77, 300, config, None);
    }
}

/// A platform that admits two concurrent invocations rejects most of the
/// fleet's: the rejections are counted, and the constructs still evolve
/// exactly as local stepping evolves them.
#[test]
fn rejected_invokes_stay_transparent() {
    for config in speculative_workload::configs() {
        let run = speculative_workload::assert_transparent(77, 300, config, Some(2));
        assert!(run.stats.failed > 0, "the limit never rejected an invoke");
    }
}
