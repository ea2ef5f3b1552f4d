//! The names the ledger measures: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the root of the repository
//! declares the same names; `tests/contract.rs` holds the two together.

/// A workload and why it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric: name, unit, which direction is better, and whether its
/// value repeats exactly for one seed (a simulated statistic or a count,
/// as opposed to host time).
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact: true,
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim_light",
        why: "8x8 mesh at rate 0.02: 45% of router steps are idle-skipped, so the worklist scan and the sim step phases weigh most and the core stage kernels least; the class of config campaigns run in",
    },
    Workload {
        name: "sim_faulty",
        why: "x264 with accumulating faults (the paper's Fig. 8 experiment): every Shield mechanism fires, core and arbiter dominate, idle-skip is 0, so it bypasses the worklist that sim_light exercises",
    },
    Workload {
        name: "sim_chiplet_par2",
        why: "1024-router chiplet mesh on 2 stepper threads: the sharded parallel stepper, wire wheel, narrow d2d links and a large topology build, which the serial workloads bypass",
    },
    Workload {
        name: "campaign_mesh",
        why: "600 fault scenarios of ~340 cycles on 1 thread: the per-scenario network build (~10% of the time) and the drain tail ride on the stepping, so a stepping gain shows only by its share",
    },
    Workload {
        name: "daemon_jobs",
        why: "one closed-loop HTTP client posts small 4x4 jobs to noc-serviced and polls for results: service and telemetry dominate; the accept loop polls every 20 ms, so under 20 ms only cpu_ms_per_op moves",
    },
];

/// Metrics a user of the system sees. Every workload reports every one;
/// what one unit of work and one operation are is per workload (see the
/// README): simulated cycles and one `noc-cli simulate` process, scenario
/// simulations and one `noc-cli campaign` process, jobs and one job.
///
/// Tail latency is printed with every run but is not among them: an
/// operation of the four CLI workloads takes seconds, so a run holds a
/// dozen at most and no percentile has ten samples beyond it, and the daemon's
/// accept loop polls every 20 ms, which makes its job latency fall into
/// 20 ms classes and its 95th percentile flip between two of them.
pub const END_TO_END: [Metric; 7] = [
    host("work_per_s", "1/s", "higher"),
    host("op_latency_ms_p50", "ms", "lower"),
    host("cpu_ms_per_op", "ms", "lower"),
    host("peak_rss_mb", "MB", "lower"),
    host("setup_s", "s", "lower"),
    exact("mean_latency_cycles", "cycles", "lower"),
    exact("survival_frac", "frac", "higher"),
];

/// Metrics of single layers, from the traced run. A layer that is not
/// on a workload's path reports `0` there.
pub const PER_LAYER: [Metric; 53] = [
    host("cli.overhead_ms", "ms", "lower"),
    host("arbiter.rr_arbitrate_ns", "ns", "lower"),
    host("arbiter.separable_allocate_ns", "ns", "lower"),
    host("core.router_step_ns_healthy", "ns", "lower"),
    host("core.router_step_ns_faulted", "ns", "lower"),
    exact("core.mech_events_per_kcycle", "1/kcycle", "lower"),
    exact("core.fault_latency_increase_pct", "%", "lower"),
    host("topology.build_us", "us", "lower"),
    host("topology.route_ns", "ns", "lower"),
    host("faults.plan_build_us", "us", "lower"),
    exact("faults.plan_events", "count", "lower"),
    host("traffic.tick_ns_per_cycle", "ns", "lower"),
    exact("traffic.packets", "count", "higher"),
    host("sim.network_build_us", "us", "lower"),
    host("sim.offer_ns_per_cycle", "ns", "lower"),
    host("sim.step_ns_per_cycle", "ns", "lower"),
    host("sim.step_ns_per_router_step", "ns", "lower"),
    exact("sim.routers_stepped", "count", "lower"),
    exact("sim.routers_skipped", "count", "higher"),
    exact("sim.worklist_skip_rate", "frac", "higher"),
    host("sim.par_speedup", "x", "higher"),
    host("sim.par_shard_imbalance", "x", "lower"),
    host("sim.residual_pct", "%", "lower"),
    host("telemetry.snapshot_encode_us", "us", "lower"),
    host("telemetry.snapshot_restore_us", "us", "lower"),
    exact("telemetry.snapshot_bytes", "count", "lower"),
    host("telemetry.json_render_mb_s", "MB/s", "higher"),
    host("telemetry.json_parse_mb_s", "MB/s", "higher"),
    host("campaign.self_scenarios_per_s", "1/s", "higher"),
    host("campaign.build_share_pct", "%", "lower"),
    host("campaign.inject_share_pct", "%", "lower"),
    host("campaign.drain_share_pct", "%", "lower"),
    host("campaign.flight_record_share_pct", "%", "lower"),
    host("campaign.sample_us", "us", "lower"),
    host("campaign.residual_pct", "%", "lower"),
    exact("campaign.cycles_per_scenario", "cycles", "lower"),
    exact("campaign.delivered_all", "count", "higher"),
    exact("campaign.lost_packets", "count", "lower"),
    exact("campaign.deadlocked", "count", "lower"),
    host("campaign.stepped_cycles_per_s", "1/s", "higher"),
    host("campaign.report_render_us", "us", "lower"),
    host("service.spec_parse_us", "us", "lower"),
    host("service.submit_ms_p50", "ms", "lower"),
    host("service.run_ms_p50", "ms", "lower"),
    host("service.checkpoint_write_ms_mean", "ms", "lower"),
    host("service.queue_wait_ms_p50", "ms", "lower"),
    host("service.result_fetch_ms_p50", "ms", "lower"),
    exact("service.result_bytes", "count", "lower"),
    host("service.http_rtt_us_p50", "us", "lower"),
    host("service.polls_per_job", "count", "lower"),
    host("service.spool_bytes_per_job", "count", "lower"),
    exact("service.rejected_jobs", "count", "lower"),
    host("trace.overhead_pct", "%", "lower"),
];

/// The metrics a run with `--trace 0` (end to end) or `--trace 1` (per
/// layer) reports.
pub fn metrics_of(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
