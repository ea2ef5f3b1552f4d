//! End-to-end campaign engine checks on a small mesh: adaptive routing
//! must dominate static dimension-order routing, adaptive must never
//! deadlock, and results must be bit-identical at any thread count.

use noc_campaign::{report_json, run_campaign, summarise, CampaignConfig, Outcome};
use noc_telemetry::json::JsonValue;
use noc_types::{NetworkConfig, RoutingMode, TopologySpec};

fn mesh_cfg(k: u8) -> NetworkConfig {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = k;
    cfg.topology = TopologySpec::Mesh { w: k, h: k };
    cfg
}

/// A CI-sized campaign that still has enough scenarios for the
/// dominance signal to be unambiguous.
fn small_campaign(k: u8, scenarios: u32, max_faults: u32) -> CampaignConfig {
    let mut cc = CampaignConfig::quick(mesh_cfg(k));
    cc.scenarios_per_point = scenarios;
    cc.max_faults = max_faults;
    cc.inject_cycles = 150;
    cc.drain_cycles = 2_000;
    cc.stall_cycles = 800;
    cc.seed = 0xCA_3A16;
    cc
}

#[test]
fn adaptive_dominates_static_and_never_deadlocks() {
    let cc = small_campaign(6, 16, 3);
    let run = run_campaign(&cc).expect("campaign runs");
    assert_eq!(
        run.results.len(),
        2 * 3 * 16,
        "every (mode, faults, scenario) cell is present"
    );

    // Layer-1 tentpole claim at network scale: adaptive always drains
    // and never wedges. Packets physically on a link at the moment it
    // dies are unavoidable casualties (any routing loses them), so the
    // only loss adaptive may show is a handful per placed fault; all
    // traffic injected afterwards routes around the damage.
    for r in &run.results {
        if r.mode == RoutingMode::Adaptive {
            assert!(
                r.drained,
                "adaptive scenario wedged: faults={} scenario={} outcome={:?} wait_cycle={:?}",
                r.faults, r.scenario, r.outcome, r.wait_cycle,
            );
            assert_ne!(r.outcome, Outcome::Deadlocked);
            assert!(
                r.offered - r.delivered <= 5 * u64::from(r.placed),
                "adaptive lost more than the onset casualties: faults={} scenario={} \
                 offered={} delivered={}",
                r.faults,
                r.scenario,
                r.offered,
                r.delivered,
            );
        }
    }
    let static_losses = run
        .results
        .iter()
        .filter(|r| r.mode == RoutingMode::Static && !r.outcome.survived())
        .count();
    assert!(
        static_losses > 0,
        "static XY should lose packets somewhere across {} faulted scenarios",
        3 * 16
    );

    let summaries = summarise(&run);
    let curve_of = |mode| {
        &summaries
            .iter()
            .find(|s| s.mode == mode)
            .expect("mode summarised")
            .curve
    };
    assert!(
        curve_of(RoutingMode::Adaptive).dominates(curve_of(RoutingMode::Static)),
        "adaptive curve must dominate static:\nadaptive: {:?}\nstatic: {:?}",
        curve_of(RoutingMode::Adaptive),
        curve_of(RoutingMode::Static),
    );

    // The report round-trips through the JSON writer/parser and keeps
    // the envelope fields the bench/service consumers key on.
    let json = report_json(&run);
    let text = json.render();
    let back = JsonValue::parse(&text).expect("report JSON parses");
    assert_eq!(
        back.get("kind").and_then(JsonValue::as_str),
        Some("fault_campaign")
    );
    assert_eq!(
        back.get("topology").and_then(JsonValue::as_str),
        Some("mesh")
    );
    let modes = back
        .get("modes")
        .and_then(JsonValue::as_array)
        .expect("modes array");
    assert_eq!(modes.len(), 2);
    for m in modes {
        let curve = m
            .get("curve")
            .and_then(JsonValue::as_array)
            .expect("curve array");
        assert_eq!(curve.len(), 3, "one point per fault count");
    }
}

#[test]
fn campaign_results_are_identical_at_any_thread_count() {
    let mut cc = small_campaign(4, 6, 2);
    cc.modes = vec![RoutingMode::Adaptive, RoutingMode::Static];
    let runs: Vec<_> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let mut c = cc.clone();
            c.threads = threads;
            run_campaign(&c).expect("campaign runs")
        })
        .collect();
    assert_eq!(runs[0].baselines, runs[1].baselines);
    assert_eq!(runs[0].results.len(), runs[1].results.len());
    for (a, b) in runs[0].results.iter().zip(&runs[1].results) {
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.placed, b.placed);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.mean_latency_x100, b.mean_latency_x100);
        assert_eq!(a.cycles_run, b.cycles_run);
        assert_eq!(a.wait_cycle, b.wait_cycle);
    }
}

#[test]
fn degenerate_configs_are_rejected() {
    let mut cc = small_campaign(4, 4, 1);
    cc.modes.clear();
    assert!(run_campaign(&cc).is_err(), "no modes");
    let mut cc = small_campaign(4, 4, 1);
    cc.scenarios_per_point = 0;
    assert!(run_campaign(&cc).is_err(), "no scenarios");
    let mut cc = small_campaign(4, 4, 1);
    cc.rate_permille = 0;
    assert!(run_campaign(&cc).is_err(), "no traffic");
    // A fault set holds distinct links: a 2x2 mesh has four.
    let mut cc = small_campaign(2, 2, 5);
    let err = run_campaign(&cc).expect_err("more faults than links");
    assert!(err.contains("`max_faults`"), "{err}");
    cc.max_faults = 4;
    assert!(run_campaign(&cc).is_ok(), "every link may fail");
}

/// FNV-1a over every field of every [`noc_campaign::ScenarioResult`]
/// and over `baselines`, for the identity pin below.
fn run_fnv(run: &noc_campaign::CampaignRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (mode, latency) in &run.baselines {
        eat(mode.tag().as_bytes());
        eat(&latency.to_le_bytes());
    }
    for r in &run.results {
        eat(r.mode.tag().as_bytes());
        eat(r.outcome.tag().as_bytes());
        for n in [r.faults, r.placed, r.scenario, u32::from(r.drained)] {
            eat(&n.to_le_bytes());
        }
        for n in [r.offered, r.delivered, r.mean_latency_x100, r.cycles_run] {
            eat(&n.to_le_bytes());
        }
        for edge in &r.wait_cycle {
            eat(edge.as_bytes());
        }
    }
    h
}

#[test]
fn scenario_results_are_pinned() {
    let chiplet = TopologySpec::parse_arg("chipletmesh2x4", 8).expect("chiplet spec parses");
    // Recorded at the commit before scenarios became `Simulator` runs:
    // a change to the traffic draws, the fault sets, the injection
    // window, the drain test or the stall rule moves these.
    let pins: [(&str, u8, TopologySpec, u64); 3] = [
        (
            "6x6 mesh",
            6,
            TopologySpec::Mesh { w: 6, h: 6 },
            0xdb2f_1b4c_949a_2dfb,
        ),
        (
            "6x6 torus",
            6,
            TopologySpec::Torus { w: 6, h: 6 },
            0xb95e_9e28_cfaa_c4d1,
        ),
        ("chipletmesh2x4", 8, chiplet, 0xb87d_3268_a1e9_ab95),
    ];
    for (label, k, topology, fnv) in pins {
        let mut base = mesh_cfg(k);
        base.topology = topology;
        let mut cc = CampaignConfig::quick(base);
        cc.scenarios_per_point = 20;
        cc.seed = 0x1D_E117;
        let run = run_campaign(&cc).expect("campaign runs");
        assert_eq!(run.results.len(), 2 * 2 * 20, "{label}: cell count");
        assert_eq!(run_fnv(&run), fnv, "{label}: every scenario field");
    }
}

/// 64-bit FNV-1a, hex-rendered.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// The campaign report holds its bytes, its two wall-clock fields
/// (`elapsed_ms`, `scenarios_per_sec`) nulled.
#[test]
fn campaign_report_bytes_are_pinned() {
    let run = run_campaign(&small_campaign(4, 4, 2)).expect("campaign runs");
    let text = report_json(&run).render();
    let mut doc = JsonValue::parse(&text).unwrap();
    assert_eq!(doc.render(), text, "the report is canonical text");
    let JsonValue::Obj(fields) = &mut doc else {
        panic!("the report is an object");
    };
    for (key, value) in fields.iter_mut() {
        if key == "elapsed_ms" || key == "scenarios_per_sec" {
            *value = JsonValue::Null;
        }
    }
    assert_eq!(fnv1a(doc.render().as_bytes()), "e3092eb9b09e7745");
}
