//! Integration tests for the telemetry subsystem against real runs:
//! every mechanism event is accounted for (trace counts equal the
//! router stat counters exactly), the merged stream is canonical
//! across thread counts, and the exporters render a fault campaign —
//! including the paper's +1-cycle SA bypass penalty, visible as a
//! longer packet span in the Chrome trace.

use noc_faults::{DetectionModel, FaultPlan, FaultSite, InjectionConfig};
use noc_sim::{NetworkReport, SimOutcome, Simulator};
use noc_telemetry::{chrome_trace, jsonl, Event, EventCounts, JsonValue, RouterStats};
use noc_types::rng::Rng;
use noc_types::{
    Coord, Direction, NetworkConfig, Packet, PacketId, PacketKind, RouterConfig, RouterId,
    SimConfig,
};
use shield_router::RouterKind;

/// Per-shard ring capacity large enough that no test run drops events
/// (every test asserts `dropped() == 0` before trusting counts).
const CAPACITY: usize = 1 << 17;

/// Deterministic uniform source (same shape as the equivalence suite).
struct Source {
    rng: Rng,
    k: u8,
    rate: f64,
    next: u64,
}

impl Source {
    fn new(k: u8, rate: f64, seed: u64) -> Self {
        Source {
            rng: Rng::seeded(seed),
            k,
            rate,
            next: 0,
        }
    }

    fn tick(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        for y in 0..self.k {
            for x in 0..self.k {
                if self.rng.next_f64() < self.rate {
                    let src = Coord::new(x, y);
                    let dst = loop {
                        let d = Coord::new(
                            self.rng.below(self.k.into()) as u8,
                            self.rng.below(self.k.into()) as u8,
                        );
                        if d != src {
                            break d;
                        }
                    };
                    let kind = if self.next.is_multiple_of(3) {
                        PacketKind::Data
                    } else {
                        PacketKind::Control
                    };
                    self.next += 1;
                    out.push(Packet::new(PacketId(self.next), kind, src, dst, cycle));
                }
            }
        }
    }
}

fn sim_cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 100,
        measure_cycles: 400,
        drain_cycles: 500,
        seed: 0,
    }
}

fn traced_run(
    k: u8,
    kind: RouterKind,
    plan: FaultPlan,
    threads: usize,
) -> (NetworkReport, Vec<Event>, u64) {
    let mut net_cfg = NetworkConfig::paper();
    net_cfg.mesh_k = k;
    let mut src = Source::new(k, 0.02, 0x7E1E);
    let sim = Simulator::new(net_cfg, sim_cfg(), kind, plan).with_threads(threads);
    let (report, _outcome, tracer) = sim.run_traced(|c, out| src.tick(c, out), CAPACITY);
    (report, tracer.merged(), tracer.dropped())
}

/// The fault campaigns the accounting test sweeps: both router kinds
/// under a permanent campaign, plus a transient storm, so every
/// mechanism (duplicate RC, borrows, bypasses, secondary paths, drops,
/// fault activation/detection/clearing) actually fires.
fn campaigns(k: u8) -> Vec<(String, RouterKind, FaultPlan)> {
    let nodes = (k as usize).pow(2);
    let cfg = RouterConfig::paper();
    let inj = InjectionConfig::accelerated_accumulating(300, 500);
    vec![
        (
            "permanent/protected".into(),
            RouterKind::Protected,
            FaultPlan::uniform_random(&cfg, nodes, &inj, 0xFA),
        ),
        (
            "permanent/baseline".into(),
            RouterKind::Baseline,
            FaultPlan::uniform_random(&cfg, nodes, &inj, 0xFB),
        ),
        (
            "transient/protected".into(),
            RouterKind::Protected,
            FaultPlan::transient_storm(&cfg, nodes, 1.0 / 300.0, 40, 500, 0xFC),
        ),
    ]
}

/// The acceptance criterion for lossless tracing: with rings sized so
/// nothing is dropped, per-mechanism event counts tallied from the
/// trace are *exactly* the counters the routers kept themselves.
#[test]
fn trace_counts_equal_router_event_totals() {
    for (name, kind, plan) in campaigns(4) {
        let (report, merged, dropped) = traced_run(4, kind, plan, 1);
        assert_eq!(dropped, 0, "{name}: ring too small for a lossless trace");
        let c = EventCounts::tally(&merged);
        assert!(c.stats.flits_out > 0, "{name}: trace is empty");
        for counter in RouterStats::MECHANISMS {
            let (traced, kept) = (c.stats.get(counter), report.router_events.get(counter));
            assert_eq!(traced, kept, "{name}: {}", counter.0);
        }
        assert_eq!(c.stats.flits_dropped, report.flits_dropped, "{name}");
    }
}

/// The merged stream is canonical: byte-identical for every stepper
/// thread count, including serial.
#[test]
fn merged_trace_is_identical_across_thread_counts() {
    let plan = FaultPlan::uniform_random(
        &RouterConfig::paper(),
        36,
        &InjectionConfig::accelerated_accumulating(300, 500),
        0xD0,
    );
    let (_, serial, dropped) = traced_run(6, RouterKind::Protected, plan.clone(), 1);
    assert_eq!(dropped, 0);
    assert!(!serial.is_empty());
    for threads in [2usize, 4] {
        let (_, parallel, dropped) = traced_run(6, RouterKind::Protected, plan.clone(), threads);
        assert_eq!(dropped, 0);
        assert_eq!(
            serial, parallel,
            "merged trace diverged at {threads} threads"
        );
    }
}

/// Trace one Control packet travelling down the west column of a 4x4
/// mesh and return the duration of its residency span in `router`,
/// plus the whole parsed trace document.
fn one_packet_run(plan: FaultPlan, router: u64) -> (u64, JsonValue) {
    let mut net_cfg = NetworkConfig::paper();
    net_cfg.mesh_k = 4;
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 10,
        drain_cycles: 200,
        seed: 0,
    };
    let sim = Simulator::new(net_cfg, cfg, RouterKind::Protected, plan);
    let (_, outcome, tracer) = sim.run_traced(
        |cycle, out| {
            if cycle == 0 {
                out.push(Packet::new(
                    PacketId(1),
                    PacketKind::Control,
                    Coord::new(0, 0),
                    Coord::new(0, 3),
                    cycle,
                ));
            }
        },
        CAPACITY,
    );
    assert_eq!(outcome, SimOutcome::DrainedEarly, "the packet must arrive");
    assert_eq!(tracer.dropped(), 0);
    let merged = tracer.merged();

    // Every JSONL line of a real trace parses back.
    for line in jsonl(&merged).lines() {
        JsonValue::parse(line).expect("JSONL line parses");
    }

    let text = chrome_trace(&merged, 1);
    let doc = JsonValue::parse(&text).expect("chrome trace parses");
    let dur = doc
        .get("traceEvents")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|e| {
            e.get("ph").unwrap().as_str() == Some("X")
                && e.get("pid").unwrap().as_u64() == Some(1)
                && e.get("tid").unwrap().as_u64() == Some(router)
        })
        .unwrap_or_else(|| panic!("no span for packet 1 in router {router}"))
        .get("dur")
        .unwrap()
        .as_u64()
        .unwrap();
    (dur, doc)
}

/// Count `"ph":"i"` mechanism instants named `name` in a parsed trace.
fn instants(doc: &JsonValue, name: &str) -> usize {
    doc.get("traceEvents")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e.get("name").unwrap().as_str() == Some(name))
        .count()
}

/// The paper's +1-cycle SA bypass penalty (Section V-C1), read straight
/// off the Chrome trace: a permanent SA-stage-1 arbiter fault on the
/// north input of router 4 — the second hop of the southbound path —
/// stretches the packet's residency span in that router by exactly one
/// cycle relative to the healthy run (one VC transfer to re-point the
/// default-winner register, then the bypass grant).
#[test]
fn chrome_trace_shows_sa_bypass_penalty() {
    let (healthy_dur, healthy_doc) = one_packet_run(FaultPlan::none(), 4);
    let faulty_plan = FaultPlan::at_start(
        [(
            RouterId(4),
            FaultSite::Sa1Arbiter {
                port: Direction::North.port(),
            },
        )],
        DetectionModel::Ideal,
    );
    let (faulty_dur, faulty_doc) = one_packet_run(faulty_plan, 4);
    assert_eq!(
        faulty_dur,
        healthy_dur + 1,
        "SA1 bypass must cost exactly one extra cycle in router 4"
    );
    assert_eq!(instants(&healthy_doc, "sa_bypass"), 0);
    assert_eq!(
        instants(&faulty_doc, "sa_bypass"),
        1,
        "the bypass grant must surface as a mechanism instant"
    );
    assert_eq!(
        instants(&faulty_doc, "vc_transfer"),
        1,
        "the register re-point is the cycle the penalty is spent on"
    );
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

/// The exporters hold their bytes: the JSONL log and the Chrome trace
/// of each fault campaign's traced run, which between them carry every
/// event kind.
#[test]
fn exporter_bytes_are_pinned() {
    let digests: Vec<[String; 2]> = campaigns(4)
        .into_iter()
        .map(|(name, kind, plan)| {
            let (_, merged, dropped) = traced_run(4, kind, plan, 1);
            assert_eq!(dropped, 0, "{name}");
            [
                fnv1a(jsonl(&merged).as_bytes()),
                fnv1a(chrome_trace(&merged, 1).as_bytes()),
            ]
        })
        .collect();
    // `(jsonl, chrome_trace)` per campaign, in `campaigns` order.
    assert_eq!(
        digests,
        [
            ["5ffca3dc8ce496b6", "9a2c9069b6465141"],
            ["8483479101cc046d", "b5d24ae5042fe18c"],
            ["f6e81a7dd8442fbe", "85b63e024fcfd2e7"],
        ]
    );
}
