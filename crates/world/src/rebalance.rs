//! Dynamic zone rebalancing: deciding *when* to migrate shards and *which*.
//!
//! The paper's zoning model assumes a static chunk→zone assignment, but its
//! own QoS analysis makes the cluster's critical path the most loaded
//! zone's tick — so a player hotspot that happens to concentrate inside one
//! zone's shards leaves the other zones idle while the hot one violates
//! QoS. The [`RebalancePolicy`] watches per-zone load samples (fed back
//! from the cluster's tick breakdown) together with per-shard *heat*
//! (avatars standing in a shard's chunks plus the dirty volume its chunks
//! produce) and, when the hottest zone's smoothed load pulls far enough
//! away from the mean, proposes a bounded batch of [`ShardMigration`]s that
//! greedily re-packs the hot zone's hottest shards onto the coldest zones.
//!
//! The policy is *pure decision-making*: it never touches a
//! [`ShardMap`] and never performs a migration itself. The
//! cluster layer applies the proposals at a tick boundary (quiescing
//! persistence, transferring chunks and constructs, re-routing avatars) and
//! charges the migration storm to its message accounting. A policy that
//! never proposes anything leaves the cluster bit-for-bit on the static
//! path — the zero-migration equivalence the cluster test suite asserts.
//!
//! Everything here is deterministic: observations are folded into
//! exponentially weighted moving averages with fixed coefficients, and all
//! ties (hottest zone, hottest shard, coldest destination) break towards
//! the lowest index.

use crate::partition::ShardMap;

/// One zone's share of a cluster tick, as fed back to the policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneLoadSample {
    /// The zone the sample describes.
    pub zone: usize,
    /// The zone's tick cost in milliseconds — simulation plus the
    /// cross-zone coordination charged to it (its contribution to the
    /// cluster's critical path).
    pub load_ms: f64,
    /// Avatars the zone simulated this tick.
    pub avatars: usize,
}

/// One proposed shard ownership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMigration {
    /// The shard to move.
    pub shard: usize,
    /// The zone that owned the shard when the proposal was made. The
    /// applier revalidates this against the live map, so a stale proposal
    /// is dropped instead of moving the wrong zone's shard.
    pub from: usize,
    /// The destination zone.
    pub to: usize,
}

/// One proposed construct ownership change — moving a *border construct*
/// (not a shard) to the zone that owns the majority of its blocks, so the
/// per-simulated-tick border exchange for it stops crossing that seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructMigration {
    /// The cluster's registry index of the construct to move.
    pub index: usize,
    /// The zone that owned the construct when the proposal was made; the
    /// applier revalidates against the live registry, dropping stale
    /// proposals.
    pub from: usize,
    /// The destination zone — the majority owner of the construct's
    /// blocks.
    pub to: usize,
}

/// One border construct's per-zone block footprint, as the cluster feeds
/// it to [`RebalancePolicy::observe_border_traffic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructFootprint {
    /// The cluster's registry index of the construct.
    pub index: usize,
    /// The zone currently simulating the construct.
    pub zone: usize,
    /// `(zone, blocks)` pairs counting how many of the construct's blocks
    /// each involved zone owns, ascending by zone.
    pub zone_blocks: Vec<(usize, u32)>,
}

/// Tuning knobs of the [`RebalancePolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Ticks between decision evaluations (observations are folded in
    /// every tick regardless).
    pub evaluate_every: u64,
    /// Observations required before the first decision — lets the EWMAs
    /// settle so a single noisy tick cannot trigger a storm.
    pub warmup_ticks: u64,
    /// Ticks after a proposed batch during which no further batch is
    /// proposed, bounding migration churn while handoffs settle.
    pub cooldown_ticks: u64,
    /// The hottest zone must exceed `trigger_ratio` times the mean zone
    /// load before a batch is proposed.
    pub trigger_ratio: f64,
    /// The hottest zone must also exceed the coldest by this many
    /// milliseconds — keeps idle clusters (everyone near zero) stable.
    pub min_gap_ms: f64,
    /// Upper bound on migrations per proposed batch (the storm bound).
    pub max_migrations_per_step: usize,
    /// EWMA coefficient for both zone loads and shard heat, in `0..=1`;
    /// higher reacts faster.
    pub smoothing: f64,
    /// Heat contribution of one dirty chunk relative to one avatar.
    pub dirty_weight: f64,
    /// Makes border-traffic a rebalancing objective: when set, the policy
    /// also proposes [`ConstructMigration`]s through
    /// [`RebalancePolicy::observe_border_traffic`], moving each border
    /// construct towards the zone owning the majority of its blocks. Off
    /// by default, so existing clusters (and the zero-migration
    /// equivalence proofs) are untouched.
    pub border_traffic: bool,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            evaluate_every: 10,
            warmup_ticks: 40,
            cooldown_ticks: 60,
            trigger_ratio: 1.35,
            min_gap_ms: 2.0,
            max_migrations_per_step: 4,
            smoothing: 0.2,
            dirty_weight: 0.05,
            border_traffic: false,
        }
    }
}

/// The shard-migration decision maker. Feed it one observation per cluster
/// tick via [`RebalancePolicy::observe`]; it returns a (usually empty)
/// batch of migrations for the cluster to apply.
///
/// # Example
///
/// ```
/// use servo_world::{RebalanceConfig, RebalancePolicy, ShardMap, ZoneLoadSample};
///
/// let map = ShardMap::contiguous(16, 2);
/// let mut policy = RebalancePolicy::new(RebalanceConfig {
///     warmup_ticks: 2,
///     evaluate_every: 1,
///     ..RebalanceConfig::default()
/// });
/// // Zone 0 carries all the load; its shard 0 holds all the avatars.
/// let mut shard_avatars = vec![0u32; 16];
/// shard_avatars[0] = 30;
/// let zones = [
///     ZoneLoadSample { zone: 0, load_ms: 20.0, avatars: 30 },
///     ZoneLoadSample { zone: 1, load_ms: 2.0, avatars: 0 },
/// ];
/// let mut proposed = Vec::new();
/// for _ in 0..8 {
///     proposed.extend(policy.observe(&map, &zones, &shard_avatars, &[0; 16]));
/// }
/// // A hot single shard cannot be split: the policy moves nothing, because
/// // moving the only hot shard would just relocate the hotspot.
/// assert!(proposed.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RebalancePolicy {
    config: RebalanceConfig,
    /// Smoothed per-zone load in milliseconds.
    zone_load: Vec<f64>,
    /// Smoothed per-shard heat (avatars + weighted dirty volume).
    shard_heat: Vec<f64>,
    ticks_observed: u64,
    cooldown_remaining: u64,
    proposed_batches: u64,
}

impl RebalancePolicy {
    /// Creates a policy with the given tuning.
    pub fn new(config: RebalanceConfig) -> Self {
        RebalancePolicy {
            config: RebalanceConfig {
                smoothing: config.smoothing.clamp(0.0, 1.0),
                max_migrations_per_step: config.max_migrations_per_step,
                evaluate_every: config.evaluate_every.max(1),
                ..config
            },
            zone_load: Vec::new(),
            shard_heat: Vec::new(),
            ticks_observed: 0,
            cooldown_remaining: 0,
            proposed_batches: 0,
        }
    }

    /// A policy that observes but never proposes a migration — the
    /// rebalance-enabled configuration that must be tick-for-tick identical
    /// to a static cluster (asserted by the cluster equivalence suite).
    pub fn never() -> Self {
        RebalancePolicy::new(RebalanceConfig {
            warmup_ticks: u64::MAX,
            ..RebalanceConfig::default()
        })
    }

    /// The policy's tuning.
    pub fn config(&self) -> RebalanceConfig {
        self.config
    }

    /// Number of migration batches proposed so far.
    pub fn proposed_batches(&self) -> u64 {
        self.proposed_batches
    }

    /// Folds in one cluster tick's observation and returns the migrations
    /// to apply at this tick boundary (usually none).
    ///
    /// `zones` carries one load sample per zone (order and completeness do
    /// not matter; zones without a sample keep their smoothed value).
    /// `shard_avatars[s]` counts the avatars currently standing in shard
    /// `s`'s chunks and `shard_dirty[s]` the dirty chunks shard `s`
    /// produced since the previous observation; slices shorter than the
    /// map's shard count are treated as zero-padded.
    pub fn observe(
        &mut self,
        map: &ShardMap,
        zones: &[ZoneLoadSample],
        shard_avatars: &[u32],
        shard_dirty: &[u64],
    ) -> Vec<ShardMigration> {
        let zone_count = map.zones();
        let shard_count = map.shard_count();
        self.zone_load.resize(zone_count, 0.0);
        self.shard_heat.resize(shard_count, 0.0);
        let alpha = self.config.smoothing;
        for sample in zones {
            if sample.zone < zone_count {
                let slot = &mut self.zone_load[sample.zone];
                *slot += alpha * (sample.load_ms - *slot);
            }
        }
        for shard in 0..shard_count {
            let avatars = shard_avatars.get(shard).copied().unwrap_or(0) as f64;
            let dirty = shard_dirty.get(shard).copied().unwrap_or(0) as f64;
            let heat = avatars + self.config.dirty_weight * dirty;
            let slot = &mut self.shard_heat[shard];
            *slot += alpha * (heat - *slot);
        }
        self.ticks_observed += 1;
        if self.cooldown_remaining > 0 {
            self.cooldown_remaining -= 1;
            return Vec::new();
        }
        if zone_count < 2 || !self.evaluating() {
            return Vec::new();
        }

        // Trigger: the hottest zone's smoothed load must stand clearly
        // above both the mean and the coldest zone.
        let mean = self.zone_load.iter().sum::<f64>() / zone_count as f64;
        let (hot, &hot_load) = self
            .zone_load
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
            .expect("at least two zones");
        let cold_load = self.zone_load.iter().cloned().fold(f64::INFINITY, f64::min);
        if hot_load < self.config.trigger_ratio * mean
            || hot_load - cold_load < self.config.min_gap_ms
        {
            return Vec::new();
        }

        // Greedy re-pack: move the hot zone's hottest shards onto the
        // currently coldest zones (by accumulated shard heat), while each
        // move strictly improves the pair and the hot zone stays above its
        // fair share. Heat — not milliseconds — is the packing unit because
        // it is the only per-shard signal; the ms trigger above decides
        // *whether* to act, heat decides *what* to move.
        let mut zone_heat = vec![0.0f64; zone_count];
        for shard in 0..shard_count {
            zone_heat[map.zone_of_shard(shard)] += self.shard_heat[shard];
        }
        let fair_share = zone_heat.iter().sum::<f64>() / zone_count as f64;
        let mut candidates: Vec<usize> = map
            .zone_shards(hot)
            .into_iter()
            .filter(|&s| self.shard_heat[s] > 0.0)
            .collect();
        // Hottest first; ties towards the lowest shard index.
        candidates.sort_by(|&a, &b| {
            self.shard_heat[b]
                .partial_cmp(&self.shard_heat[a])
                .unwrap()
                .then(a.cmp(&b))
        });
        let mut migrations = Vec::new();
        for shard in candidates {
            if migrations.len() >= self.config.max_migrations_per_step
                || zone_heat[hot] <= fair_share
            {
                break;
            }
            let heat = self.shard_heat[shard];
            let (dest, &dest_heat) = zone_heat
                .iter()
                .enumerate()
                .filter(|&(z, _)| z != hot)
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(&b.0)))
                .expect("at least two zones");
            // Skip moves that merely relocate the hotspot: the destination
            // must end up cooler than the source currently is.
            if dest_heat + heat >= zone_heat[hot] {
                continue;
            }
            zone_heat[hot] -= heat;
            zone_heat[dest] += heat;
            migrations.push(ShardMigration {
                shard,
                from: hot,
                to: dest,
            });
        }
        if !migrations.is_empty() {
            self.cooldown_remaining = self.config.cooldown_ticks;
            self.proposed_batches += 1;
        }
        migrations
    }

    /// Whether the latest observed tick is one the policy decides at: past
    /// the warmup and on the `evaluate_every` cadence. The one gate both
    /// [`RebalancePolicy::observe`] and
    /// [`RebalancePolicy::observe_border_traffic`] pass through.
    fn evaluating(&self) -> bool {
        self.ticks_observed >= self.config.warmup_ticks
            && self
                .ticks_observed
                .is_multiple_of(self.config.evaluate_every)
    }

    /// The border-traffic term: proposes moving border constructs to the
    /// zone owning the majority of their block footprint, so their
    /// per-simulated-tick state exchange stops crossing that seam. Called
    /// by the cluster right after [`RebalancePolicy::observe`] at each tick
    /// boundary, with `budget` migrations left of the shared
    /// `max_migrations_per_step` storm bound (recovery and shard proposals
    /// are served first).
    ///
    /// Inert unless [`RebalanceConfig::border_traffic`] is set, and gated
    /// on the same warmup and evaluation cadence as shard decisions: the
    /// `footprints` source is consulted only on a tick that passes both,
    /// so a caller pays for building them one tick in `evaluate_every`.
    /// A construct is proposed only when another zone owns *strictly more*
    /// of its blocks than the current owner — after the move the owner
    /// *is* the majority, so the term has built-in hysteresis and never
    /// ping-pongs a construct. Candidates are ordered by descending block
    /// advantage (ties towards the lowest registry index), deterministic
    /// like every other decision here.
    pub fn observe_border_traffic(
        &self,
        footprints: impl FnOnce() -> Vec<ConstructFootprint>,
        budget: usize,
    ) -> Vec<ConstructMigration> {
        if !self.config.border_traffic || !self.evaluating() {
            return Vec::new();
        }
        let mut candidates: Vec<(u32, ConstructMigration)> = Vec::new();
        for footprint in &footprints() {
            let owned = footprint
                .zone_blocks
                .iter()
                .find(|(zone, _)| *zone == footprint.zone)
                .map(|&(_, blocks)| blocks)
                .unwrap_or(0);
            let Some(&(majority, blocks)) = footprint
                .zone_blocks
                .iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            else {
                continue;
            };
            if majority == footprint.zone || blocks <= owned {
                continue;
            }
            candidates.push((
                blocks - owned,
                ConstructMigration {
                    index: footprint.index,
                    from: footprint.zone,
                    to: majority,
                },
            ));
        }
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.index.cmp(&b.1.index)));
        candidates
            .into_iter()
            .take(budget.min(self.config.max_migrations_per_step))
            .map(|(_, migration)| migration)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_samples(zones: usize, hot: usize, hot_ms: f64) -> Vec<ZoneLoadSample> {
        (0..zones)
            .map(|zone| ZoneLoadSample {
                zone,
                load_ms: if zone == hot { hot_ms } else { 2.0 },
                avatars: if zone == hot { 60 } else { 0 },
            })
            .collect()
    }

    /// Avatars spread over every shard the hot zone owns.
    fn heat_on_zone(map: &ShardMap, zone: usize, per_shard: u32) -> Vec<u32> {
        let mut avatars = vec![0u32; map.shard_count()];
        for shard in map.zone_shards(zone) {
            avatars[shard] = per_shard;
        }
        avatars
    }

    #[test]
    fn balanced_load_proposes_nothing() {
        let map = ShardMap::contiguous(16, 4);
        let mut policy = RebalancePolicy::new(RebalanceConfig {
            warmup_ticks: 1,
            evaluate_every: 1,
            ..RebalanceConfig::default()
        });
        let zones: Vec<ZoneLoadSample> = (0..4)
            .map(|zone| ZoneLoadSample {
                zone,
                load_ms: 5.0,
                avatars: 10,
            })
            .collect();
        let avatars = vec![4u32; 16];
        for _ in 0..100 {
            assert!(policy.observe(&map, &zones, &avatars, &[0; 16]).is_empty());
        }
        assert_eq!(policy.proposed_batches(), 0);
    }

    #[test]
    fn skewed_load_moves_hot_shards_to_cold_zones() {
        let map = ShardMap::contiguous(16, 4);
        let mut policy = RebalancePolicy::new(RebalanceConfig {
            warmup_ticks: 5,
            evaluate_every: 1,
            max_migrations_per_step: 8,
            ..RebalanceConfig::default()
        });
        let zones = skewed_samples(4, 0, 30.0);
        let avatars = heat_on_zone(&map, 0, 15);
        let mut proposed = Vec::new();
        for _ in 0..20 {
            proposed.extend(policy.observe(&map, &zones, &avatars, &[0; 16]));
        }
        assert!(!proposed.is_empty(), "policy never fired");
        // Proposals come from the hot zone, towards other zones, and never
        // move more than the batch bound at once.
        for migration in &proposed {
            assert_eq!(migration.from, 0);
            assert_ne!(migration.to, 0);
            assert_eq!(map.zone_of_shard(migration.shard), 0);
        }
        assert!(proposed.len() <= 8);
        // The batch leaves the hot zone at least one shard (4 owned, fair
        // share is a quarter of the heat).
        assert!(proposed.len() < map.zone_shards(0).len() + 1);
        assert_eq!(policy.proposed_batches(), 1, "cooldown did not hold");
    }

    #[test]
    fn dirty_volume_counts_as_heat() {
        let map = ShardMap::contiguous(16, 2);
        let mut policy = RebalancePolicy::new(RebalanceConfig {
            warmup_ticks: 5,
            evaluate_every: 1,
            dirty_weight: 1.0,
            max_migrations_per_step: 8,
            ..RebalanceConfig::default()
        });
        // No avatars at all: the skew is pure edit (dirty chunk) volume on
        // the shards of zone 0.
        let mut dirty = vec![0u64; 16];
        for shard in map.zone_shards(0) {
            dirty[shard] = 20;
        }
        let zones = skewed_samples(2, 0, 25.0);
        let mut proposed = Vec::new();
        for _ in 0..20 {
            proposed.extend(policy.observe(&map, &zones, &[0; 16], &dirty));
        }
        assert!(!proposed.is_empty(), "dirty heat never registered");
        assert!(proposed.iter().all(|m| m.from == 0 && m.to == 1));
    }

    #[test]
    fn never_policy_is_inert() {
        let map = ShardMap::contiguous(16, 4);
        let mut policy = RebalancePolicy::never();
        let zones = skewed_samples(4, 0, 500.0);
        let avatars = heat_on_zone(&map, 0, 100);
        for _ in 0..500 {
            assert!(policy.observe(&map, &zones, &avatars, &[0; 16]).is_empty());
        }
    }

    #[test]
    fn cooldown_spaces_out_batches() {
        let map = ShardMap::contiguous(16, 4);
        let mut policy = RebalancePolicy::new(RebalanceConfig {
            warmup_ticks: 1,
            evaluate_every: 1,
            cooldown_ticks: 10,
            max_migrations_per_step: 1,
            ..RebalanceConfig::default()
        });
        let zones = skewed_samples(4, 0, 40.0);
        let avatars = heat_on_zone(&map, 0, 15);
        let mut fired_at = Vec::new();
        for tick in 0..40u64 {
            // Apply nothing: the map stays skewed, so without the cooldown
            // every evaluation would fire.
            if !policy.observe(&map, &zones, &avatars, &[0; 16]).is_empty() {
                fired_at.push(tick);
            }
        }
        for pair in fired_at.windows(2) {
            assert!(pair[1] - pair[0] > 10, "batches too close: {fired_at:?}");
        }
    }

    fn footprint(index: usize, zone: usize, zone_blocks: &[(usize, u32)]) -> ConstructFootprint {
        ConstructFootprint {
            index,
            zone,
            zone_blocks: zone_blocks.to_vec(),
        }
    }

    /// A warmed-up policy with the border-traffic term armed.
    fn traffic_policy() -> RebalancePolicy {
        let map = ShardMap::contiguous(16, 2);
        let mut policy = RebalancePolicy::new(RebalanceConfig {
            warmup_ticks: 1,
            evaluate_every: 1,
            border_traffic: true,
            ..RebalanceConfig::default()
        });
        policy.observe(&map, &[], &[], &[]);
        policy
    }

    #[test]
    fn traffic_term_moves_constructs_to_their_majority_zone() {
        let policy = traffic_policy();
        let footprints = vec![
            // Majority elsewhere: proposed, towards zone 1.
            footprint(0, 0, &[(0, 6), (1, 8)]),
            // Already home with the majority: untouched (hysteresis).
            footprint(1, 1, &[(0, 6), (1, 8)]),
            // Exact tie: not strictly better anywhere, untouched.
            footprint(2, 0, &[(0, 7), (1, 7)]),
        ];
        let proposed = policy.observe_border_traffic(|| footprints.clone(), usize::MAX);
        assert_eq!(
            proposed,
            vec![ConstructMigration {
                index: 0,
                from: 0,
                to: 1,
            }]
        );
    }

    #[test]
    fn traffic_term_orders_by_advantage_and_respects_the_budget() {
        let policy = traffic_policy();
        let footprints = vec![
            footprint(0, 0, &[(0, 6), (1, 8)]),  // advantage 2
            footprint(1, 0, &[(0, 2), (1, 12)]), // advantage 10
            footprint(2, 0, &[(0, 5), (1, 9)]),  // advantage 4
        ];
        let proposed = policy.observe_border_traffic(|| footprints.clone(), 2);
        assert_eq!(proposed.len(), 2);
        assert_eq!(proposed[0].index, 1);
        assert_eq!(proposed[1].index, 2);
        // The shared storm bound caps the batch even with a huge budget.
        let capped = policy.observe_border_traffic(
            || {
                (0..10)
                    .map(|i| footprint(i, 0, &[(0, 2), (1, 12)]))
                    .collect()
            },
            usize::MAX,
        );
        assert_eq!(
            capped.len(),
            RebalanceConfig::default().max_migrations_per_step
        );
    }

    #[test]
    fn traffic_term_is_inert_unless_armed() {
        let map = ShardMap::contiguous(16, 2);
        let footprints = vec![footprint(0, 0, &[(0, 2), (1, 12)])];
        // Default config: flag off.
        let mut off = RebalancePolicy::new(RebalanceConfig {
            warmup_ticks: 1,
            evaluate_every: 1,
            ..RebalanceConfig::default()
        });
        off.observe(&map, &[], &[], &[]);
        assert!(off
            .observe_border_traffic(|| footprints.clone(), usize::MAX)
            .is_empty());
        // Armed but still warming up: inert too.
        let cold = &mut RebalancePolicy::new(RebalanceConfig {
            warmup_ticks: 100,
            evaluate_every: 1,
            border_traffic: true,
            ..RebalanceConfig::default()
        });
        cold.observe(&map, &[], &[], &[]);
        assert!(cold
            .observe_border_traffic(|| footprints.clone(), usize::MAX)
            .is_empty());
    }

    #[test]
    fn footprints_are_built_only_on_evaluating_ticks() {
        let map = ShardMap::contiguous(16, 2);
        for border_traffic in [false, true] {
            let mut policy = RebalancePolicy::new(RebalanceConfig {
                warmup_ticks: 4,
                evaluate_every: 3,
                border_traffic,
                ..RebalanceConfig::default()
            });
            let mut consulted = Vec::new();
            for tick in 1..=13u64 {
                policy.observe(&map, &[], &[], &[]);
                let proposed = policy.observe_border_traffic(
                    || {
                        consulted.push(tick);
                        vec![footprint(0, 0, &[(0, 2), (1, 12)])]
                    },
                    usize::MAX,
                );
                assert_eq!(proposed.is_empty(), consulted.last() != Some(&tick));
            }
            let expected: &[u64] = if border_traffic { &[6, 9, 12] } else { &[] };
            assert_eq!(consulted, expected, "border_traffic {border_traffic}");
        }
    }

    #[test]
    fn short_slices_are_zero_padded() {
        let map = ShardMap::contiguous(16, 2);
        let mut policy = RebalancePolicy::new(RebalanceConfig::default());
        // Must not panic with empty or short observation slices.
        assert!(policy.observe(&map, &[], &[], &[]).is_empty());
        assert!(policy
            .observe(
                &map,
                &[ZoneLoadSample {
                    zone: 9,
                    load_ms: 1.0,
                    avatars: 0
                }],
                &[1, 2],
                &[3]
            )
            .is_empty());
    }
}
