//! Property test for [`servo_world::ViewTracker`]: over arbitrary sequences
//! of avatar moves, chunk loads and unloads and shard migrations, the
//! tracker's list and view range equal what `required_chunks` and
//! `nearest_missing_distance_blocks` derive from scratch.

use proptest::prelude::*;

mod view_tracker_model;

proptest! {
    #[test]
    fn tracker_matches_the_reference_functions(scenario in view_tracker_model::scenario()) {
        view_tracker_model::run(&scenario);
    }
}
