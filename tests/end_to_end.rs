//! Cross-crate integration tests: the paper's headline numbers and the
//! full simulation stack, exercised through the public umbrella API.

use shield_noc::faults::{FaultPlan, InjectionConfig, PipelineStage};
use shield_noc::prelude::*;
use shield_noc::reliability::{AreaPowerModel, MttfReport, SpfAnalysis, TimingModel};
use shield_noc::traffic::AppId;
use shield_noc::types::{RouterConfig, SimConfig};

#[test]
fn paper_headline_numbers_reproduce() {
    // MTTF: ~6× with the paper's Equation 5.
    let mttf = MttfReport::paper();
    assert!((5.8..6.4).contains(&mttf.improvement_paper));
    assert!((mttf.baseline_fit - 2822.0).abs() / 2822.0 < 0.005);
    assert!((mttf.correction_fit - 646.0).abs() < 0.5);

    // SPF: 15 mean faults, ≈11.4, beating all published comparators.
    let spf = SpfAnalysis::analytic(&RouterConfig::paper(), 0.31);
    assert_eq!(spf.mean_faults_to_failure, 15.0);
    assert!((spf.spf - 11.4).abs() < 0.1);
    for c in shield_noc::reliability::PUBLISHED_COMPARATORS {
        assert!(spf.spf > c.spf, "beats {}", c.architecture);
    }

    // Area/power: 31% / 30% including detection.
    let ap = AreaPowerModel::paper().report();
    assert!((ap.area_overhead_total - 0.31).abs() < 0.015);
    assert!((ap.power_overhead_total - 0.30).abs() < 0.015);

    // Critical path: 0 / +20% / +10% / +25%.
    let t = TimingModel::paper();
    assert_eq!(t.increase(PipelineStage::Rc), 0.0);
    assert!((t.increase(PipelineStage::Va) - 0.20).abs() < 0.01);
    assert!((t.increase(PipelineStage::Sa) - 0.10).abs() < 0.01);
    assert!((t.increase(PipelineStage::Xb) - 0.25).abs() < 0.01);
}

fn small_net() -> NetworkConfig {
    let mut n = NetworkConfig::paper();
    n.mesh_k = 4;
    n
}

fn short_sim(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 500,
        measure_cycles: 4_000,
        drain_cycles: 6_000,
        seed,
    }
}

#[test]
fn app_traffic_through_the_full_stack() {
    let report = run_simulation(
        &small_net(),
        &short_sim(1),
        &TrafficConfig::app(AppId::Fft),
        RouterKind::Protected,
        &FaultPlan::none(),
    );
    assert!(report.delivered() > 200, "fft keeps the mesh busy");
    assert_eq!(report.misdelivered, 0);
    assert_eq!(report.flits_dropped, 0);
    assert!(report.total_latency.mean > 8.0);
    assert!(report.mean_hops >= 1.0);
}

#[test]
fn accumulating_fault_campaign_never_fails_a_protected_router() {
    let net = small_net();
    let sim = short_sim(2);
    let horizon = sim.warmup_cycles + sim.measure_cycles;
    let inj = InjectionConfig::accelerated_accumulating(horizon / 2, horizon);
    let plan = FaultPlan::uniform_random(&RouterConfig::paper(), net.nodes(), &inj, 11);
    assert!(plan.len() > net.nodes(), "accumulating campaign is dense");
    // Structurally: every router's final fault map is tolerated.
    let xbar = shield_noc::router::Crossbar::new(5);
    for r in 0..net.nodes() as u16 {
        let map = plan.final_map(&RouterConfig::paper(), shield_noc::types::RouterId(r));
        assert!(
            !map.router_failed(&RouterConfig::paper(), |o| xbar.secondary_source(o)),
            "router {r} must survive its campaign"
        );
    }
    // Behaviourally: traffic still flows with zero loss.
    let report = run_simulation(
        &net,
        &sim,
        &TrafficConfig::app(AppId::Ocean),
        RouterKind::Protected,
        &plan,
    );
    assert_eq!(report.flits_dropped, 0);
    assert_eq!(report.misdelivered, 0);
    assert!(report.delivered() > 200);
    assert!(!report.deadlock_suspected);
}

#[test]
fn faults_raise_latency_but_not_for_free_routers() {
    let net = small_net();
    let traffic = TrafficConfig::app(AppId::Radix);
    let clean = run_simulation(
        &net,
        &short_sim(3),
        &traffic,
        RouterKind::Protected,
        &FaultPlan::none(),
    );
    let sim = short_sim(3);
    let horizon = sim.warmup_cycles + sim.measure_cycles;
    let inj = InjectionConfig::accelerated_accumulating(horizon / 2, horizon);
    let plan = FaultPlan::uniform_random(&RouterConfig::paper(), net.nodes(), &inj, 5);
    let faulty = run_simulation(&net, &sim, &traffic, RouterKind::Protected, &plan);
    assert!(
        faulty.total_latency.mean > clean.total_latency.mean,
        "dense tolerated faults must cost latency: {} vs {}",
        faulty.total_latency.mean,
        clean.total_latency.mean
    );
    // And the correction mechanisms must actually have fired.
    let ev = faulty.router_events;
    assert!(ev.va_borrows > 0);
    assert!(ev.sa_bypass_grants > 0);
    assert!(ev.secondary_path_flits > 0);
}

#[test]
fn protected_equals_baseline_when_healthy_across_apps() {
    for app in [AppId::Barnes, AppId::Canneal] {
        let run = |kind| {
            run_simulation(
                &small_net(),
                &short_sim(9),
                &TrafficConfig::app(app),
                kind,
                &FaultPlan::none(),
            )
        };
        let b = run(RouterKind::Baseline);
        let p = run(RouterKind::Protected);
        assert_eq!(b.delivered(), p.delivered(), "{app}");
        assert_eq!(b.total_latency, p.total_latency, "{app}");
    }
}

#[test]
fn crossbar_topology_is_shared_between_crates() {
    // The fault planner and the router must agree on the secondary-path
    // topology, or tolerance checks would diverge from behaviour.
    let xbar = shield_noc::router::Crossbar::new(5);
    for p in 0..5u8 {
        assert_eq!(
            xbar.secondary_source(shield_noc::types::PortId(p)),
            shield_noc::faults::canonical_secondary_source(shield_noc::types::PortId(p))
        );
    }
}

#[test]
fn prelude_quickstart_shape() {
    // The README/lib.rs quickstart, kept compiling as a test.
    let net = NetworkConfig::paper();
    let sim = SimConfig::smoke(42);
    let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.05);
    let report = run_simulation(
        &net,
        &sim,
        &traffic,
        RouterKind::Protected,
        &FaultPlan::none(),
    );
    assert!(report.delivered() > 0);
}

/// Stdout of one `noc-cli` run whose environment is clean except for
/// `env`.
fn cli_stdout(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .args(args)
        .env_clear()
        .envs(env.iter().copied())
        .output()
        .expect("noc-cli starts");
    assert!(
        out.status.success(),
        "noc-cli {args:?} under {env:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("noc-cli prints UTF-8")
}

/// The environment cannot change what a production run simulates: the
/// variables CI uses to replay test suites on other topologies and
/// routing modes are read by the test harness only, never by the
/// library behind `noc-cli` and the daemon.
#[test]
fn inherited_replay_variables_do_not_change_a_cli_run() {
    let replay = [("NOC_TOPOLOGY", "torus"), ("NOC_ROUTING", "adaptive")];
    let simulate = ["simulate", "--mesh", "4", "--cycles", "2000", "--seed", "7"];
    assert_eq!(cli_stdout(&simulate, &[]), cli_stdout(&simulate, &replay));

    let campaign = [
        "campaign",
        "--quick",
        "--mesh",
        "4",
        "--routing",
        "both",
        "--scenarios",
        "3",
    ];
    // Everything but the wall-clock `throughput` line.
    let simulated = |env: &[(&str, &str)]| -> Vec<String> {
        cli_stdout(&campaign, env)
            .lines()
            .filter(|l| !l.starts_with("throughput"))
            .map(str::to_owned)
            .collect()
    };
    let clean = simulated(&[]);
    assert!(clean.iter().any(|l| l.starts_with("routing=static")));
    assert_eq!(clean, simulated(&[("NOC_ROUTING", "adaptive")]));
}

/// A reader that went away (`noc-cli … | head -1`) ends the process
/// quietly — killed by SIGPIPE, never by a `println!` panic on stderr.
/// The peer of stdout is closed before the child starts, so its first
/// write meets the closed pipe.
#[cfg(unix)]
#[test]
fn a_closed_stdout_is_a_quiet_exit() {
    use std::os::unix::process::ExitStatusExt;
    let (stdout, reader) = std::os::unix::net::UnixStream::pair().expect("socket pair");
    drop(reader);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .args(["analyze"])
        .stdout(std::os::fd::OwnedFd::from(stdout))
        .output()
        .expect("noc-cli starts");
    const SIGPIPE: i32 = 13;
    assert_eq!(out.status.signal(), Some(SIGPIPE), "{:?}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}

/// `noc-cli heatmap` refuses a crafted grid with exit status 2 and a
/// message, printing nothing: dimensions whose product wraps to zero
/// cells (which used to panic in the ASCII rendering), a zero side
/// (which used to print 10^8 blank lines) and an aliased key that
/// names one cell twice.
#[test]
fn heatmap_refuses_crafted_grids() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let aliased = shield_noc::telemetry::SpatialGrid::new(1, 2)
        .to_json()
        .render()
        .replace("\"0,0\"", "\"0,01\"");
    for (name, grid, why) in [
        (
            "wrapping",
            r#"{"width":4294967296,"height":4294967296,"grid":{}}"#,
            "zero or too large",
        ),
        (
            "zero",
            r#"{"width":0,"height":100000000,"grid":{}}"#,
            "zero or too large",
        ),
        ("aliased", aliased.as_str(), "twice"),
    ] {
        let path = dir.join(format!("heatmap_{name}.json"));
        std::fs::write(&path, format!(r#"{{"spatial":{grid}}}"#)).expect("write fixture");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_noc-cli"))
            .arg("heatmap")
            .arg(&path)
            .output()
            .expect("noc-cli starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains("malformed spatial grid"),
            "{name}: {stderr}"
        );
        assert!(stderr.contains(why), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: printed a grid");
    }
}
