//! The metric tables: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` lists the same names; `tests/contract.rs` holds the two
//! together. A run prints every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`) of these tables, for every workload: a
//! per-layer metric of a layer the workload does not call reads 0.

/// One metric's name, unit and which direction is better.
pub struct Def {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before a change counts as a regression.
pub static END_TO_END: [(Def, f64); 4] = [
    (def("wall_s", "s", "lower"), 0.20),
    (def("work_per_s", "1/s", "higher"), 0.20),
    (def("setup_s", "s", "lower"), 0.25),
    (def("peak_rss_mb", "MB", "lower"), 0.20),
];

/// Handler groups of `mpichv.handler_*`, with the event kinds they fold.
pub static HANDLER_GROUPS: [(&str, &[&str]); 5] = [
    ("net_delivered", &["net.delivered"]),
    ("compute_done", &["compute_done"]),
    (
        "net_conn",
        &[
            "net.accepted",
            "net.established",
            "net.closed",
            "net.connect_failed",
        ],
    ),
    (
        "recovery",
        &[
            "daemon_exit",
            "spawn_daemon",
            "boot_connect",
            "restore_done",
            "disk_loaded",
            "launch_failed",
            "retry_peer_connect",
        ],
    ),
    (
        "checkpoint",
        &["sched_tick", "server_write_done", "self_ckpt"],
    ),
];

/// Event kinds of the FAIL runtime (`core.fail_handler_ns`).
pub static FAIL_KINDS: [&str; 2] = ["fail_timer", "fail_msg"];

/// Model-check components of `analyze.mc_*`.
pub static MC_COMPONENTS: [&str; 7] = [
    "vcl4_full",
    "vcl9",
    "vcl16",
    "vcl25",
    "fig8_vcl25",
    "ulfm25",
    "replica9",
];

/// Per-layer metrics; the layer is the crate name before the first dot.
pub static PER_LAYER: [Def; 84] = [
    def("sim.events", "count", "lower"),
    def("sim.queue_depth_hwm", "count", "lower"),
    def("sim.engine_self_ns_per_event", "ns", "lower"),
    def("sim.queue_hold_ns.d64", "ns", "lower"),
    def("sim.queue_hold_ns.d512", "ns", "lower"),
    def("sim.queue_hold_ns.d4096", "ns", "lower"),
    def("sim.fingerprint_ns_per_record", "ns", "lower"),
    def("sim.engine_self_unexplained_share", "ratio", "lower"),
    def("mpichv.handler_ns.net_delivered", "ns", "lower"),
    def("mpichv.handler_ns.compute_done", "ns", "lower"),
    def("mpichv.handler_ns.net_conn", "ns", "lower"),
    def("mpichv.handler_ns.recovery", "ns", "lower"),
    def("mpichv.handler_ns.checkpoint", "ns", "lower"),
    def("mpichv.handler_count.net_delivered", "count", "lower"),
    def("mpichv.handler_count.compute_done", "count", "lower"),
    def("mpichv.handler_count.net_conn", "count", "lower"),
    def("mpichv.handler_count.recovery", "count", "lower"),
    def("mpichv.handler_count.checkpoint", "count", "lower"),
    def("mpichv.handler_share.net_delivered", "ratio", "lower"),
    def("mpichv.handler_share.compute_done", "ratio", "lower"),
    def("mpichv.handler_share.net_conn", "ratio", "lower"),
    def("mpichv.handler_share.recovery", "ratio", "lower"),
    def("mpichv.handler_share.checkpoint", "ratio", "lower"),
    def("mpichv.dispatch_ns_per_event", "ns", "lower"),
    def("mpichv.cluster_new_us", "us", "lower"),
    def("mpichv.ev_size_bytes", "bytes", "lower"),
    def("mpichv.wire_size_bytes", "bytes", "lower"),
    def("mpichv.recoveries", "count", "lower"),
    def("mpichv.waves_committed", "count", "lower"),
    def("net.messages", "count", "lower"),
    def("net.connects", "count", "lower"),
    def("net.drops", "count", "lower"),
    def("net.bytes_modelled", "bytes", "lower"),
    def("mpi.lockstep_ns_per_op", "ns", "lower"),
    def("mpi.ops", "count", "lower"),
    def("mpi.interp_size_bytes", "bytes", "lower"),
    def("workloads.bt_programs_us.n49", "us", "lower"),
    def("workloads.bt_programs_us.n196", "us", "lower"),
    def("workloads.program_ops", "count", "lower"),
    def("core.compile_us", "us", "lower"),
    def("core.fail_handler_ns", "ns", "lower"),
    def("analyze.lint_scenario_us", "us", "lower"),
    def("analyze.lint_programs_ms.n49", "ms", "lower"),
    def("analyze.mc_us_per_state.vcl4_full", "us", "lower"),
    def("analyze.mc_us_per_state.vcl9", "us", "lower"),
    def("analyze.mc_us_per_state.vcl16", "us", "lower"),
    def("analyze.mc_us_per_state.vcl25", "us", "lower"),
    def("analyze.mc_us_per_state.fig8_vcl25", "us", "lower"),
    def("analyze.mc_us_per_state.ulfm25", "us", "lower"),
    def("analyze.mc_us_per_state.replica9", "us", "lower"),
    def("analyze.mc_states.vcl4_full", "count", "lower"),
    def("analyze.mc_states.vcl9", "count", "lower"),
    def("analyze.mc_states.vcl16", "count", "lower"),
    def("analyze.mc_states.vcl25", "count", "lower"),
    def("analyze.mc_states.fig8_vcl25", "count", "lower"),
    def("analyze.mc_states.ulfm25", "count", "lower"),
    def("analyze.mc_states.replica9", "count", "lower"),
    def("analyze.mc_interned", "count", "lower"),
    def("analyze.mc_orbit_hits", "count", "higher"),
    def("analyze.mc_por_pruned", "count", "higher"),
    def("analyze.mc_thread_scaling.t2", "ratio", "higher"),
    def("experiments.run_setup_us", "us", "lower"),
    def("experiments.classify_us", "us", "lower"),
    def("experiments.smoke_run_us", "us", "lower"),
    def("ulfm.ns_per_event", "ns", "lower"),
    def("ulfm.events", "count", "lower"),
    def("replica.ns_per_event", "ns", "lower"),
    def("replica.events", "count", "lower"),
    def("obs.telemetry_wall_ratio", "ratio", "lower"),
    def("obs.causal_ns_per_event", "ns", "lower"),
    def("obs.prof_ns_per_event", "ns", "lower"),
    def("obs.metrics_json_us", "us", "lower"),
    def("obs.causal_nodes", "count", "lower"),
    def("obs.profile_json_bytes", "bytes", "lower"),
    def("obs.allocs_per_event", "count", "lower"),
    def("obs.alloc_bytes_per_event", "bytes", "lower"),
    def("fuzz.candidates", "count", "higher"),
    def("fuzz.accepted", "count", "higher"),
    def("fuzz.errors", "count", "lower"),
    def("fuzz.warnings", "count", "lower"),
    def("fuzz.ms_per_candidate", "ms", "lower"),
    def("bench.trace_overhead_ratio", "ratio", "lower"),
    def("bench.sample_iqr_share", "ratio", "lower"),
    def("bench.first_setup_s", "s", "lower"),
];

/// Per-layer values of one traced run, every name of [`PER_LAYER`] present.
pub struct LayerValues(Vec<f64>);

impl Default for LayerValues {
    fn default() -> Self {
        LayerValues(vec![0.0; PER_LAYER.len()])
    }
}

impl LayerValues {
    /// Sets `name`; an unknown name is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let idx = PER_LAYER
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        self.0[idx] = value;
    }

    /// The value of `name` (0 until set).
    pub fn get(&self, name: &str) -> f64 {
        PER_LAYER
            .iter()
            .position(|d| d.name == name)
            .map_or(0.0, |i| self.0[i])
    }

    /// `(definition, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        PER_LAYER.iter().zip(self.0.iter().copied())
    }
}
