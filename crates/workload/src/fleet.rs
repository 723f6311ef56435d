//! A fleet of players joining a game instance over time.

use servo_simkit::SimRng;
use servo_types::{consts, BlockPos, BlocksPerSecond, ChunkPos, PlayerId, SimDuration, SimTime};

use crate::avatar::{Avatar, PlayerEvent};
use crate::behavior::{Behavior, BehaviorKind};

/// A scripted load-skew scenario layered over a fleet's base behaviour:
/// the hotspot workload of the zone-rebalancing experiments.
///
/// From `converge_at` every avatar abandons its base behaviour and walks
/// to its assigned hotspot target (`targets[player_index % targets.len()]`),
/// then dwells on a small deterministic ring around it; from `disperse_at`
/// avatars walk home and resume their base behaviour once they reach their
/// spawn point. Pointing all targets at chunks owned by one zone
/// concentrates the whole fleet's simulation load on that zone's server —
/// the imbalance a static `ShardMap` cannot answer and a rebalancing
/// cluster migrates its way out of.
///
/// The scripted phases consume no randomness and depend only on the
/// avatar's id and the virtual time: while the script controls an avatar,
/// the fleet's random stream is left untouched.
#[derive(Debug, Clone)]
pub struct Hotspot {
    /// Hotspot centers in world coordinates; avatar `i` converges on
    /// `targets[i % targets.len()]`.
    pub targets: Vec<(f64, f64)>,
    /// When avatars start walking towards their targets.
    pub converge_at: SimTime,
    /// When avatars head home again.
    pub disperse_at: SimTime,
    /// Walking speed during the scripted phases, in blocks per second.
    pub travel_speed: f64,
    /// Radius of the dwell ring around each target, in blocks. Keep it
    /// below half a chunk (8 blocks) so every dweller stays inside the
    /// target's chunk — and therefore its shard.
    pub dwell_radius: f64,
}

impl Hotspot {
    /// The block-space centers of whole-chunk hotspot sites — the target
    /// convention used when players should converge on specific chunks
    /// (and so land inside specific world shards).
    pub fn chunk_centers(sites: &[ChunkPos]) -> Vec<(f64, f64)> {
        let half = consts::CHUNK_SIZE as f64 / 2.0;
        sites
            .iter()
            .map(|site| {
                let base = site.min_block();
                (base.x as f64 + half, base.z as f64 + half)
            })
            .collect()
    }
}

/// A set of synthetic players connected (or connecting) to one game
/// instance.
///
/// Players can either all be present from the start
/// ([`PlayerFleet::connect_all`]) or join on a schedule (a new player every
/// `interval`, as in the paper's Figure 12a where a player joins every ten
/// seconds).
#[derive(Debug, Clone)]
pub struct PlayerFleet {
    kind: BehaviorKind,
    rng: SimRng,
    avatars: Vec<Avatar>,
    behaviors: Vec<Behavior>,
    /// Total players that will eventually join.
    target_players: usize,
    /// Interval between joins; `None` means all players join immediately.
    join_interval: Option<SimDuration>,
    /// Spawn location of all players.
    spawn: (f64, f64),
    /// Optional scripted hotspot scenario overriding the base behaviour.
    hotspot: Option<Hotspot>,
    /// Per-avatar flag: reached home again after the hotspot dispersed
    /// (base behaviour resumed for good).
    hotspot_returned: Vec<bool>,
}

impl PlayerFleet {
    /// Creates an empty fleet whose players follow `kind`.
    pub fn new(kind: BehaviorKind, rng: SimRng) -> Self {
        PlayerFleet {
            kind,
            rng,
            avatars: Vec::new(),
            behaviors: Vec::new(),
            target_players: 0,
            join_interval: None,
            spawn: (8.0, 8.0),
            hotspot: None,
            hotspot_returned: Vec::new(),
        }
    }

    /// Installs a scripted [`Hotspot`] scenario over the fleet's base
    /// behaviour (replacing any previous one).
    pub fn set_hotspot(&mut self, hotspot: Hotspot) {
        self.hotspot_returned = vec![false; self.avatars.len()];
        self.hotspot = Some(hotspot);
    }

    /// Advances one avatar through the scripted hotspot phases, returning
    /// `true` when the script controlled the avatar this tick (the base
    /// behaviour is skipped, no randomness is consumed).
    fn hotspot_act(
        hotspot: &Hotspot,
        avatar: &mut Avatar,
        returned: &mut bool,
        now: SimTime,
        dt: SimDuration,
    ) -> bool {
        if hotspot.targets.is_empty() || now < hotspot.converge_at {
            return false;
        }
        let speed = BlocksPerSecond::new(hotspot.travel_speed.max(0.1));
        let index = avatar.id.raw() as usize;
        if now < hotspot.disperse_at {
            *returned = false;
            let (cx, cz) = hotspot.targets[index % hotspot.targets.len()];
            // Deterministic dwell point: a golden-angle ring spreads the
            // avatars over the target chunk without stacking on one block.
            let angle = index as f64 * 2.399_963_229_728_653;
            let radius = hotspot.dwell_radius.max(0.5) * (0.4 + 0.6 * (index % 7) as f64 / 6.0);
            avatar.move_towards(
                cx + angle.cos() * radius,
                cz + angle.sin() * radius,
                speed,
                dt,
            );
            true
        } else if *returned {
            false
        } else {
            let (sx, sz) = avatar.spawn();
            avatar.move_towards(sx, sz, speed, dt);
            let dx = avatar.x - sx;
            let dz = avatar.z - sz;
            if (dx * dx + dz * dz).sqrt() < 1.5 {
                *returned = true;
            }
            true
        }
    }

    /// Sets the spawn location for newly joining players.
    pub fn set_spawn(&mut self, x: f64, z: f64) {
        self.spawn = (x, z);
    }

    /// Connects `count` players immediately.
    pub fn connect_all(&mut self, count: usize) {
        self.target_players = count;
        self.join_interval = None;
        while self.avatars.len() < count {
            self.join_one();
        }
    }

    /// Schedules `count` players to join one every `interval`, starting with
    /// the first player at time zero.
    pub fn set_join_schedule(&mut self, count: usize, interval: SimDuration) {
        self.target_players = count;
        self.join_interval = Some(interval);
    }

    fn join_one(&mut self) {
        let index = self.avatars.len();
        let id = PlayerId::new(index as u64);
        self.avatars
            .push(Avatar::new(id, self.spawn.0, self.spawn.1));
        self.behaviors
            .push(Behavior::new(self.kind, index, self.target_players.max(1)));
        self.hotspot_returned.push(false);
    }

    /// Number of players currently connected.
    pub fn connected_players(&self) -> usize {
        self.avatars.len()
    }

    /// The behaviour kind of this fleet.
    pub fn kind(&self) -> BehaviorKind {
        self.kind
    }

    /// The avatars currently connected.
    pub fn avatars(&self) -> &[Avatar] {
        &self.avatars
    }

    /// Current block positions of all avatars (used for view-distance and
    /// terrain-loading decisions).
    pub fn positions(&self) -> Vec<BlockPos> {
        self.avatars.iter().map(|a| a.block_pos()).collect()
    }

    /// Advances the fleet by one tick ending at `now`: connects any players
    /// whose join time has arrived and lets every connected player act.
    ///
    /// Returns the server-visible events of this tick, tagged by player.
    pub fn tick(&mut self, now: SimTime, dt: SimDuration) -> Vec<(PlayerId, PlayerEvent)> {
        self.process_joins(now);
        let mut events = Vec::new();
        let hotspot = self.hotspot.as_ref();
        for (index, (avatar, behavior)) in self
            .avatars
            .iter_mut()
            .zip(self.behaviors.iter_mut())
            .enumerate()
        {
            if let Some(hotspot) = hotspot {
                if Self::hotspot_act(hotspot, avatar, &mut self.hotspot_returned[index], now, dt) {
                    continue;
                }
            }
            for event in behavior.act(avatar, dt, &mut self.rng) {
                events.push((avatar.id, event));
            }
        }
        events
    }

    fn process_joins(&mut self, now: SimTime) {
        if let Some(interval) = self.join_interval {
            let due = if interval.as_micros() == 0 {
                self.target_players
            } else {
                (now.as_micros() / interval.as_micros()) as usize + 1
            };
            while self.avatars.len() < due.min(self.target_players) {
                self.join_one();
            }
        } else {
            while self.avatars.len() < self.target_players {
                self.join_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: SimDuration = SimDuration::from_millis(50);

    #[test]
    fn connect_all_connects_immediately() {
        let mut fleet = PlayerFleet::new(BehaviorKind::Bounded { radius: 20.0 }, SimRng::seed(1));
        fleet.connect_all(25);
        assert_eq!(fleet.connected_players(), 25);
        assert_eq!(fleet.positions().len(), 25);
    }

    #[test]
    fn join_schedule_adds_players_over_time() {
        let mut fleet = PlayerFleet::new(BehaviorKind::Star { speed: 3.0 }, SimRng::seed(1));
        fleet.set_join_schedule(10, SimDuration::from_secs(10));
        fleet.tick(SimTime::ZERO, TICK);
        assert_eq!(fleet.connected_players(), 1);
        fleet.tick(SimTime::from_secs(35), TICK);
        assert_eq!(fleet.connected_players(), 4);
        fleet.tick(SimTime::from_secs(1000), TICK);
        assert_eq!(fleet.connected_players(), 10);
    }

    #[test]
    fn star_fleet_spreads_out_from_spawn() {
        let mut fleet = PlayerFleet::new(BehaviorKind::Star { speed: 8.0 }, SimRng::seed(2));
        fleet.connect_all(8);
        let mut now = SimTime::ZERO;
        for _ in 0..(20 * 30) {
            now += TICK;
            fleet.tick(now, TICK);
        }
        // After 30 s at 8 blocks/s every avatar is ~240 blocks from spawn.
        for avatar in fleet.avatars() {
            assert!(avatar.distance_from_spawn() > 200.0);
        }
        // And they went in different directions.
        let first = &fleet.avatars()[0];
        let any_far_apart = fleet.avatars()[1..]
            .iter()
            .any(|a| ((a.x - first.x).powi(2) + (a.z - first.z).powi(2)).sqrt() > 100.0);
        assert!(any_far_apart);
    }

    #[test]
    fn random_fleet_produces_events() {
        let mut fleet = PlayerFleet::new(BehaviorKind::Random, SimRng::seed(3));
        fleet.connect_all(20);
        let mut events = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..(20 * 60) {
            now += TICK;
            events.extend(fleet.tick(now, TICK));
        }
        assert!(!events.is_empty());
        // Events are tagged with valid player ids.
        assert!(events.iter().all(|(id, _)| id.raw() < 20));
    }

    fn hotspot(targets: Vec<(f64, f64)>) -> Hotspot {
        Hotspot {
            targets,
            converge_at: SimTime::from_secs(2),
            disperse_at: SimTime::from_secs(30),
            travel_speed: 8.0,
            dwell_radius: 4.0,
        }
    }

    #[test]
    fn hotspot_converges_then_disperses() {
        let mut fleet = PlayerFleet::new(BehaviorKind::Bounded { radius: 20.0 }, SimRng::seed(9));
        fleet.connect_all(12);
        fleet.set_hotspot(hotspot(vec![(120.0, 80.0), (-100.0, 40.0)]));
        let mut now = SimTime::ZERO;
        // Before converge_at: ordinary bounded wandering near spawn.
        for _ in 0..20 {
            now += TICK;
            fleet.tick(now, TICK);
        }
        assert!(fleet
            .avatars()
            .iter()
            .all(|a| a.distance_from_spawn() < 25.0));
        // Converge phase: everyone ends up on their target's dwell ring.
        while now < SimTime::from_secs(29) {
            now += TICK;
            fleet.tick(now, TICK);
        }
        for (i, avatar) in fleet.avatars().iter().enumerate() {
            let (tx, tz) = if i % 2 == 0 {
                (120.0, 80.0)
            } else {
                (-100.0, 40.0)
            };
            let distance = ((avatar.x - tx).powi(2) + (avatar.z - tz).powi(2)).sqrt();
            assert!(distance <= 4.5, "avatar {i} is {distance} blocks out");
        }
        // Disperse phase: everyone walks home and resumes base behaviour.
        while now < SimTime::from_secs(70) {
            now += TICK;
            fleet.tick(now, TICK);
        }
        assert!(
            fleet
                .avatars()
                .iter()
                .all(|a| a.distance_from_spawn() < 25.0),
            "avatars never came home"
        );
    }

    #[test]
    fn spawn_can_be_relocated() {
        let mut fleet = PlayerFleet::new(BehaviorKind::Bounded { radius: 5.0 }, SimRng::seed(4));
        fleet.set_spawn(1000.0, -500.0);
        fleet.connect_all(3);
        for avatar in fleet.avatars() {
            assert_eq!(avatar.spawn(), (1000.0, -500.0));
        }
    }
}
