//! The fan-out stage: modelled cost of pushing encoded frames to their
//! subscribers through an autoscaled worker pool.

use servo_faas::{Autoscaler, AutoscalerConfig, AutoscalerStats};
use servo_metrics::StatsReport;
use servo_types::{ChunkPos, SimTime};

use crate::hub::Frames;

/// Cost model of the fan-out stage. Encoding is charged to the tick of
/// the zone owning the subscriber's terrain (the zone serialised the
/// payload); dispatch rides the worker pool, so its tick-visible share
/// shrinks as the autoscaler adds workers to absorb the frame backlog.
#[derive(Debug, Clone)]
pub struct FanoutConfig {
    /// Worker-pool policy; defaults to an elastic pool so a subscriber
    /// storm scales workers instead of the tick.
    pub scaler: AutoscalerConfig,
    /// Tick-path encode cost per megabyte of frame payload.
    pub encode_ms_per_mb: f64,
    /// Dispatch cost per frame on one worker; the tick sees
    /// `frames / workers` of it.
    pub dispatch_ms_per_frame: f64,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        FanoutConfig {
            scaler: AutoscalerConfig::elastic(2, 64).with_backlog_per_worker(4096),
            encode_ms_per_mb: 2.0,
            dispatch_ms_per_frame: 0.002,
        }
    }
}

/// Counters of the fan-out stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FanoutStats {
    /// Ticks on which frames were charged.
    pub charges: u64,
    /// Frames pushed through the stage.
    pub frames: u64,
    /// Total frame bytes pushed.
    pub bytes: u64,
    /// Largest single-tick frame backlog observed.
    pub peak_backlog: u64,
    /// Largest ready worker count observed.
    pub peak_workers: u64,
    /// Total tick-visible cost charged, in milliseconds.
    pub charged_ms: f64,
}

impl StatsReport for FanoutStats {
    fn section(&self) -> &'static str {
        "fanout"
    }

    fn report(&self) -> Vec<(&'static str, String)> {
        vec![
            ("charges", self.charges.to_string()),
            ("frames", self.frames.to_string()),
            ("bytes", self.bytes.to_string()),
            ("peak_backlog", self.peak_backlog.to_string()),
            ("peak_workers", self.peak_workers.to_string()),
            ("charged_ms", format!("{:.3}", self.charged_ms)),
        ]
    }
}

/// Pushes encoded frames to subscribers on an autoscaled worker pool and
/// reports the tick-visible cost per zone.
#[derive(Debug)]
pub struct FanoutStage {
    scaler: Autoscaler,
    config: FanoutConfig,
    stats: FanoutStats,
}

impl FanoutStage {
    /// A stage with the given cost model.
    pub fn new(config: FanoutConfig) -> FanoutStage {
        FanoutStage {
            scaler: Autoscaler::new(config.scaler),
            config,
            stats: FanoutStats::default(),
        }
    }

    /// Charges one tick's frames: `zone_of` attributes each frame to the
    /// zone owning its subscriber's home chunk, and the returned vector is
    /// the tick-visible fan-out cost per zone in milliseconds. A group of
    /// `n` members is charged as `n` frames of its size, with one
    /// `zone_of` call. With no frames the stage is inert — zero cost, no
    /// autoscaler observation — so a replication-free tick is
    /// byte-identical to a hub-less one.
    pub fn charge(
        &mut self,
        now: SimTime,
        zones: usize,
        frames: &Frames,
        mut zone_of: impl FnMut(ChunkPos) -> usize,
    ) -> Vec<f64> {
        let mut cost = vec![0.0; zones];
        if frames.is_empty() {
            return cost;
        }
        let workers = self.scaler.observe(now, frames.len()).max(1);

        let mut zone_frames = vec![0u64; zones];
        let mut zone_bytes = vec![0u64; zones];
        for (group, members) in frames.groups() {
            let zone = zone_of(group.home).min(zones.saturating_sub(1));
            let n = members.len() as u64;
            zone_frames[zone] += n;
            zone_bytes[zone] += n * group.bytes;
        }
        for zone in 0..zones {
            let encode = zone_bytes[zone] as f64 / (1024.0 * 1024.0) * self.config.encode_ms_per_mb;
            let dispatch =
                zone_frames[zone] as f64 * self.config.dispatch_ms_per_frame / workers as f64;
            cost[zone] = encode + dispatch;
            self.stats.charged_ms += cost[zone];
        }

        self.stats.charges += 1;
        self.stats.frames += frames.len() as u64;
        self.stats.bytes += zone_bytes.iter().sum::<u64>();
        self.stats.peak_backlog = self.stats.peak_backlog.max(frames.len() as u64);
        self.stats.peak_workers = self.stats.peak_workers.max(workers as u64);
        cost
    }

    /// Ready workers in the pool right now.
    pub fn workers(&self) -> usize {
        self.scaler.ready_workers()
    }

    /// Counters of the stage.
    pub fn stats(&self) -> FanoutStats {
        self.stats
    }

    /// Counters of the underlying autoscaler.
    pub fn scaler_stats(&self) -> AutoscalerStats {
        self.scaler.stats()
    }
}
