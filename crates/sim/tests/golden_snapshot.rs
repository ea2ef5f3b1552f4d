//! Golden-snapshot pin and snapshot round-trip properties.
//!
//! The committed artefact `tests/golden/checkpoint_v4.json` is a full
//! checkpoint document (schema_version, cycle, delivery_offset,
//! epochs, source, network) captured mid-campaign from a fixed
//! configuration. The pin
//! test regenerates it from scratch and compares **bytes**: any change
//! to the snapshot encoding — field order, number formatting, a new or
//! renamed field — fails here and must come with a
//! `SNAPSHOT_SCHEMA_VERSION` bump and a re-blessed artefact
//! (`NOC_BLESS_GOLDEN=1 cargo test -p noc-sim --test golden_snapshot`).
//!
//! The property tests drive seeded-random campaigns on all three
//! topologies and check that snapshot → render → parse → restore →
//! snapshot is byte-identical mid-flight, without going through the
//! simulator loop at all.

use noc_faults::FaultPlan;
use noc_sim::{Network, Simulator};
use noc_telemetry::json::JsonValue;
use noc_telemetry::snapshot::{Restore, Snapshot, SNAPSHOT_SCHEMA_VERSION};
use noc_topology::Topology;
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{NetworkConfig, SimConfig, TopologySpec};
use shield_router::RouterKind;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/checkpoint_v4.json"
);

/// The fixed campaign behind the committed artefact. Small enough to
/// keep the golden file reviewable, busy enough that VC buffers,
/// wires, arbiters and the RNG are all mid-flight at the capture
/// point.
fn golden_checkpoint() -> String {
    let mut net_cfg = NetworkConfig::paper();
    net_cfg.mesh_k = 4;
    let sim_cfg = SimConfig {
        warmup_cycles: 50,
        measure_cycles: 200,
        drain_cycles: 100,
        seed: 0x601D,
    };
    let sim = Simulator::new(net_cfg, sim_cfg, RouterKind::Protected, FaultPlan::none())
        .with_sample_every(50)
        .with_checkpoint_every(100);
    let topo = Topology::from_spec(&net_cfg);
    let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.10);
    let mut gen = TrafficGenerator::for_topology(traffic, &topo, 0x601D ^ 0x5EED);
    let mut first = None;
    let (_report, _outcome) = sim
        .run_resumable(&mut gen, None, |doc| {
            if first.is_none() {
                first = Some(doc.render());
            }
            true
        })
        .expect("golden campaign runs");
    first.expect("campaign long enough to checkpoint")
}

#[test]
fn golden_checkpoint_is_pinned_byte_for_byte() {
    let fresh = golden_checkpoint();
    if std::env::var_os("NOC_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &fresh).expect("bless golden artefact");
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("committed golden artefact exists (bless with NOC_BLESS_GOLDEN=1)");
    assert_eq!(
        fresh, committed,
        "snapshot encoding changed: bump SNAPSHOT_SCHEMA_VERSION and re-bless"
    );
}

#[test]
fn golden_checkpoint_carries_the_schema_version() {
    let doc = JsonValue::parse(
        &std::fs::read_to_string(GOLDEN_PATH).expect("committed golden artefact exists"),
    )
    .expect("golden artefact is valid JSON");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(SNAPSHOT_SCHEMA_VERSION),
        "artefact schema_version must match the code"
    );
    for key in [
        "cycle",
        "delivery_offset",
        "epochs",
        "progress",
        "source",
        "network",
    ] {
        assert!(doc.get(key).is_some(), "golden checkpoint must carry {key}");
    }
    let net = doc.get("network").unwrap();
    assert_eq!(
        net.get("schema_version").and_then(|v| v.as_u64()),
        Some(SNAPSHOT_SCHEMA_VERSION)
    );
}

#[test]
fn committed_golden_artefact_restores_into_a_live_network() {
    let doc = JsonValue::parse(
        &std::fs::read_to_string(GOLDEN_PATH).expect("committed golden artefact exists"),
    )
    .unwrap();
    let mut net_cfg = NetworkConfig::paper();
    net_cfg.mesh_k = 4;
    let mut net = Network::with_faults(net_cfg, RouterKind::Protected, &FaultPlan::none());
    net.restore(doc.get("network").unwrap())
        .expect("golden network state restores");
    // Restored state re-snapshots to the exact committed bytes.
    assert_eq!(
        net.snapshot().render(),
        doc.get("network").unwrap().render()
    );
}

#[test]
fn checkpoint_with_a_fault_site_the_router_lacks_fails_typed() {
    use noc_faults::{DetectionModel, FaultSite};
    use noc_types::{PortId, RouterId};
    let mut net_cfg = NetworkConfig::paper();
    net_cfg.mesh_k = 4;
    let site = FaultSite::Sa1Arbiter { port: PortId(1) };
    let plan = FaultPlan::at_start([(RouterId(5), site)], DetectionModel::Ideal);
    let mut net = Network::with_faults(net_cfg, RouterKind::Protected, &plan);
    for cycle in 0..10 {
        net.step(cycle);
    }
    // A checkpoint edited (or corrupted) in the daemon's spool: the
    // codec parses any u8 port and VC, the 5-port 4-VC router has no
    // VC 9.
    let text = net.snapshot().render();
    assert_eq!(text.matches("\"SA1[P1]\"").count(), 1);
    let doctored = JsonValue::parse(&text.replace("\"SA1[P1]\"", "\"VA1[P2.VC9]\"")).unwrap();
    let mut fresh = Network::with_faults(net_cfg, RouterKind::Protected, &FaultPlan::none());
    let err = fresh
        .restore(&doctored)
        .expect_err("a site outside the router's shape must be refused")
        .to_string();
    assert!(
        err.contains("fault site VA1[P2.VC9] outside a 5-port 4-VC router"),
        "{err}"
    );
    // The undoctored text still restores.
    fresh
        .restore(&JsonValue::parse(&text).unwrap())
        .expect("the original checkpoint restores");
}

/// A network checkpoint corrupted in the daemon's spool fails typed:
/// never a panic, and never a restore into a state the stepper cannot
/// produce — a wheel longer than its horizon would make every later
/// cycle rotate the extra slots.
#[test]
fn corrupt_network_checkpoints_fail_typed() {
    fn field_mut<'a>(v: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
        match v {
            JsonValue::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1,
            _ => panic!("not an object"),
        }
    }
    fn items(v: &mut JsonValue) -> &mut Vec<JsonValue> {
        match v {
            JsonValue::Arr(items) => items,
            _ => panic!("not an array"),
        }
    }
    type Doctor = fn(&mut JsonValue);
    let cases: [(&str, Doctor, &str); 12] = [
        (
            "too few wire slots",
            |n| items(field_mut(n, "wires")).clear(),
            "`wires` has 0 slots, outside the horizon's 2..=2",
        ),
        (
            "too many wire slots",
            |n| items(field_mut(n, "wires")).resize(1_002, JsonValue::Arr(Vec::new())),
            "`wires` has 1002 slots, outside the horizon's 2..=2",
        ),
        (
            "a 4-entry link_flits row",
            |n| drop(items(&mut items(field_mut(n, "link_flits"))[0]).pop()),
            "`link_flits` row is not a 5-entry array",
        ),
        (
            "a non-numeric link_free entry",
            |n| items(&mut items(field_mut(n, "link_free"))[0])[0] = JsonValue::Bool(true),
            "`link_free` entry is not a number",
        ),
        (
            "a non-bool skip_idle",
            |n| *field_mut(n, "skip_idle") = JsonValue::Num(1.0),
            "`skip_idle` is not a bool",
        ),
        // The stepper indexes with a wire's router, port and VC, and
        // with a grant's ports, mux and VCs, unchecked: each restored
        // `Ok` once, then panicked at the next step or lost a flit.
        (
            "a flit wire to port 9",
            |n| *field_mut(&mut items(&mut items(field_mut(n, "wires"))[0])[0], "port") = 9u64.into(),
            "wires[0][0]: a wire to port 9 of 5",
        ),
        (
            "a grant from input port 9",
            |n| {
                let router = &mut items(field_mut(n, "routers"))[1];
                *field_mut(&mut items(field_mut(router, "xb_queue"))[0], "in_port") = 9u64.into();
            },
            "routers[1]: xb_queue[0]: a grant P9.VC1 -> P3 (mux P3) VC0 outside a 5-port 4-VC router",
        ),
        (
            "a flit wire to router 995",
            |n| *field_mut(&mut items(&mut items(field_mut(n, "wires"))[0])[0], "router") = 995u64.into(),
            "wires[0][0]: a wire to router 995 of 16",
        ),
        (
            "an active VC routed to port 9",
            |n| {
                let router = &mut items(field_mut(n, "routers"))[1];
                let port = &mut items(field_mut(router, "ports"))[2];
                let vc = &mut items(field_mut(port, "vcs"))[1];
                *field_mut(field_mut(vc, "fields"), "r") = 9u64.into();
            },
            "routers[1]: ports[2]: vcs[1]: fields: a port or VC outside a 5-port 4-VC router",
        ),
        (
            "credits past the buffer depth",
            |n| {
                let credits = field_mut(&mut items(field_mut(n, "routers"))[5], "credits");
                items(&mut items(credits)[2])[3] = 200u64.into();
            },
            "routers[5]: credits[2][3]: credit count 200 is not below 5",
        ),
        // Integers read only a run of digits that fits their field.
        (
            "a send_rr past u64",
            |n| *field_mut(&mut items(field_mut(n, "nis"))[15], "send_rr") = JsonValue::Num(1e20),
            "nis[15]: send_rr: JSON parse error",
        ),
        (
            "a send_rr past the sends",
            |n| *field_mut(&mut items(field_mut(n, "nis"))[15], "send_rr") = 1u64.into(),
            "nis[15]: `send_rr` 1 is not below 1",
        ),
    ];
    let golden = JsonValue::parse(
        &std::fs::read_to_string(GOLDEN_PATH).expect("committed golden artefact exists"),
    )
    .unwrap();
    let mut net_cfg = NetworkConfig::paper();
    net_cfg.mesh_k = 4;
    for (case, doctor, expected) in cases {
        let mut doc = golden.get("network").unwrap().clone();
        doctor(&mut doc);
        let mut net = Network::with_faults(net_cfg, RouterKind::Protected, &FaultPlan::none());
        let err = net.restore(&doc).expect_err(case).to_string();
        assert!(err.contains(expected), "{case}: {err}");
    }
    // A whole number written with a fraction is no integer either.
    let network = golden.get("network").unwrap();
    let (text, cycles) = (network.render(), network.get("cycles_stepped").unwrap());
    let cycles = format!("\"cycles_stepped\":{},", cycles.render());
    assert_eq!(text.matches(&cycles).count(), 1);
    let doctored = text.replace(&cycles, &cycles.replace(',', ".0,"));
    let mut net = Network::with_faults(net_cfg, RouterKind::Protected, &FaultPlan::none());
    let err = net
        .restore_text(&doctored)
        .expect_err("a fractional counter")
        .to_string();
    assert!(err.contains("cycles_stepped: JSON parse error"), "{err}");
}

/// A checkpoint cut short — a torn spool file — fails typed wherever
/// it is cut: at every 251st byte of the golden network's text, and at
/// every byte of its first and last 512.
#[test]
fn truncated_checkpoints_fail_typed() {
    let golden = JsonValue::parse(
        &std::fs::read_to_string(GOLDEN_PATH).expect("committed golden artefact exists"),
    )
    .unwrap();
    let text = golden.get("network").unwrap().render();
    let mut net_cfg = NetworkConfig::paper();
    net_cfg.mesh_k = 4;
    let mut net = Network::with_faults(net_cfg, RouterKind::Protected, &FaultPlan::none());
    let ends = (0..512).chain(text.len() - 512..text.len());
    for cut in (0..text.len()).step_by(251).chain(ends) {
        assert!(net.restore_text(&text[..cut]).is_err(), "cut at byte {cut}");
    }
    net.restore_text(&text).expect("the whole text restores");
    assert_eq!(net.snapshot().render(), text);
}

/// A tiny deterministic PRNG for the property tests (not `noc_types::rng`,
/// so the picks are independent of the workspace RNG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn random_mid_campaign_states_round_trip_byte_identically() {
    let mut rng = Lcg(0xFACADE);
    for case in 0..8 {
        let k = 3 + rng.pick(2) as u8; // 3x3 or 4x4
        let topology = match rng.pick(5) {
            0 => TopologySpec::MeshK,
            1 => TopologySpec::Torus { w: k, h: k },
            2 => TopologySpec::CutMesh {
                w: k,
                h: k,
                cuts: 1 + rng.pick(2) as u16,
                seed: rng.next(),
            },
            // The chiplet topologies put heterogeneous link classes —
            // and thus the serialisation pacing state and a deeper
            // wire wheel — mid-flight at the capture point.
            3 => TopologySpec::ChipletMesh {
                k_chip: 2,
                k_node: k,
                d2d: noc_types::LinkClass::D2D_DEFAULT,
            },
            _ => TopologySpec::ChipletStar {
                chiplets: 2,
                k_node: k,
                d2d: noc_types::LinkClass::D2D_DEFAULT,
                hub: noc_types::LinkClass::HUB_DEFAULT,
            },
        };
        let kind = if rng.pick(2) == 0 {
            RouterKind::Protected
        } else {
            RouterKind::Baseline
        };
        let rate = 0.05 + rng.pick(10) as f64 / 100.0;
        let cycles = 100 + rng.pick(300);
        let seed = rng.next();

        let mut cfg = NetworkConfig::paper();
        cfg.mesh_k = k;
        cfg.topology = topology;
        cfg.validate().unwrap();

        // Drive the network mid-campaign by hand: inject and step.
        let mut net = Network::with_faults(cfg, kind, &FaultPlan::none());
        let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, rate);
        let mut gen = TrafficGenerator::for_topology(traffic, net.topology(), seed);
        let mut pkts = Vec::new();
        for cycle in 0..cycles {
            pkts.clear();
            gen.tick_into(cycle, &mut pkts);
            net.offer_packets_from(&mut pkts);
            net.step(cycle);
        }

        let label = format!("case {case}: k={k} {topology:?} {kind:?} rate={rate} c={cycles}");
        let s1 = net.snapshot().render();
        let parsed = JsonValue::parse(&s1).unwrap_or_else(|e| panic!("{label}: parse {e:?}"));

        // Restore into a *fresh* network built from the same config.
        let mut fresh = Network::with_faults(cfg, kind, &FaultPlan::none());
        fresh
            .restore(&parsed)
            .unwrap_or_else(|e| panic!("{label}: restore {e}"));
        assert_eq!(fresh.snapshot().render(), s1, "{label}: network round-trip");
        // The deliveries are not snapshot state (the log lives in the
        // delivery stream, and a resume folds it into the tally).
        assert!(
            fresh.pending_deliveries().is_empty() && fresh.tally().seen() == 0,
            "{label}: restore must clear deliveries"
        );
        let delivered_before = net.pending_deliveries().len();

        // Same for the traffic source (its RNG is mid-stream).
        let g1 = gen.snapshot().render();
        let gparsed = JsonValue::parse(&g1).unwrap();
        let topo = Topology::from_spec(&cfg);
        let mut gfresh = TrafficGenerator::for_topology(traffic, &topo, seed);
        gfresh
            .restore(&gparsed)
            .unwrap_or_else(|e| panic!("{label}: source restore {e}"));
        assert_eq!(gfresh.snapshot().render(), g1, "{label}: source round-trip");

        // And the restored pair must keep producing identical traffic
        // and identical network evolution for a while.
        let mut more = Vec::new();
        for cycle in cycles..cycles + 50 {
            pkts.clear();
            more.clear();
            gen.tick_into(cycle, &mut pkts);
            gfresh.tick_into(cycle, &mut more);
            assert_eq!(pkts, more, "{label}: traffic diverged at {cycle}");
            let mut copy = pkts.clone();
            net.offer_packets_from(&mut copy);
            fresh.offer_packets_from(&mut more);
            net.step(cycle);
            fresh.step(cycle);
        }
        assert_eq!(
            fresh.snapshot().render(),
            net.snapshot().render(),
            "{label}: evolution diverged after restore"
        );
        assert_eq!(
            fresh.pending_deliveries(),
            &net.pending_deliveries()[delivered_before..],
            "{label}: delivery log diverged after restore"
        );
    }
}
