//! The metric names and units of `BENCHMARK.json`, in reporting order.
//! A test keeps this file and `BENCHMARK.json` in step.

/// `(name, unit)` of every end-to-end metric. Every workload reports all
/// of them, from the untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("tick_host_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("sim_tick_p50_ms", "sim_ms"),
    ("sim_tick_p99_ms", "sim_ms"),
    ("sim_qos_ok_frac", "fraction"),
    ("sim_cost_usd_per_hour", "USD/sim_h"),
    ("ok_frac", "fraction"),
];

/// `(name, unit)` of every per-layer metric, from the traced run. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("workload.fleet_tick_ns", "ns"),
    ("server.run_tick_ns", "ns"),
    ("server.cluster_run_tick_ns", "ns"),
    ("server.msgs_per_tick", "count"),
    ("server.border_chunk_updates", "count"),
    ("server.construct_exchanges", "count"),
    ("server.speculative_replays", "count"),
    ("server.speculation_handles", "count"),
    ("server.shard_migrations", "count"),
    ("server.construct_migrations", "count"),
    ("server.recovery_ticks", "count"),
    ("server.chunks_restored", "count"),
    ("server.chunks_replayed", "count"),
    ("core.spec_invocations", "count"),
    ("core.spec_applied", "count"),
    ("core.spec_loop_replayed", "count"),
    ("core.spec_local_fallback", "count"),
    ("core.spec_discarded", "count"),
    ("core.spec_efficiency_p50", "fraction"),
    ("core.terrain_invocations", "count"),
    ("core.terrain_chunks_delivered", "count"),
    ("core.flush_persistence_ns", "ns"),
    ("redstone.step_ns", "ns"),
    ("redstone.simulate_sequence_ns", "ns"),
    ("redstone.loop_found_frac", "fraction"),
    ("faas.invoke_ns", "ns"),
    ("faas.invocations", "count"),
    ("faas.cold_starts", "count"),
    ("faas.queued", "count"),
    ("faas.rejected", "count"),
    ("pcg.generate_chunk_ns", "ns"),
    ("world.insert_chunk_ns", "ns"),
    ("world.set_block_ns", "ns"),
    ("world.drain_dirty_ns", "ns"),
    ("world.snapshot_ns", "ns"),
    ("world.snapshot_bytes", "B"),
    ("world.restore_ns", "ns"),
    ("storage.writeback_ns_per_chunk", "ns"),
    ("storage.wal_append_ns", "ns"),
    ("storage.wal_replay_ns", "ns"),
    ("storage.wal_truncate_ns", "ns"),
    ("storage.read_hit_ns", "ns"),
    ("storage.read_miss_ns", "ns"),
    ("storage.chunks_flushed", "count"),
    ("storage.write_back_passes", "count"),
    ("storage.memory_hits", "count"),
    ("storage.remote_misses", "count"),
    ("storage.retries", "count"),
    ("storage.wal_appended", "count"),
    ("replication.subscribe_ns", "ns"),
    ("replication.retarget_ns", "ns"),
    ("replication.ingest_ns_per_chunk", "ns"),
    ("replication.flush_ns_per_frame", "ns"),
    ("replication.frames", "count"),
    ("replication.keyframes", "count"),
    ("replication.delta_frames", "count"),
    ("replication.bytes_sent", "B"),
    ("replication.chunks_delivered", "count"),
    ("replication.coalesced_chunks", "count"),
    ("replication.dropped_on_move", "count"),
    ("replication.fanout_charged_ms", "sim_ms"),
    ("host.tick_p99_us", "us"),
    ("host.user_s", "s"),
    ("host.sys_s", "s"),
    ("host.minor_faults", "count"),
    ("host.allocs_per_tick", "count"),
    ("host.alloc_bytes_per_tick", "B"),
];

/// `(name, unit)` of what tracing costs: 1 − traced ÷ untraced
/// `ticks_per_s`. It takes both runs, so only the full set reports it (in
/// `results.json`, next to the per-layer metrics).
pub const TRACE_OVERHEAD: (&str, &str) = ("host.trace_overhead_frac", "fraction");

/// The full set flags a workload whose trace overhead exceeds this.
pub const TRACE_OVERHEAD_LIMIT: f64 = 0.05;

/// Whether a higher value of end-to-end metric `name` is better.
pub fn higher_is_better(name: &str) -> bool {
    matches!(name, "ticks_per_s" | "sim_qos_ok_frac" | "ok_frac")
}

/// End-to-end metrics that are a pure function of the seed: two runs of
/// one commit and seed must agree on them exactly.
pub fn is_deterministic(name: &str) -> bool {
    name.starts_with("sim_") || name == "ok_frac"
}
