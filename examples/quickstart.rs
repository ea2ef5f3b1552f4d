//! Quickstart: simulate the paper's 8×8 mesh of protected routers under
//! uniform-random traffic and print the headline statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! With `--trace` the run records the full event stream and validates
//! it against the routers' own counters — per-mechanism event counts
//! must equal [`NetworkReport::router_events`] exactly and the
//! Chrome-trace export must parse — then writes
//! `target/quickstart_trace.chrome.json` for `chrome://tracing` /
//! Perfetto. CI runs this mode as its telemetry leg.

use shield_noc::prelude::*;
use shield_noc::telemetry::{chrome_trace, EventCounts, JsonValue, RouterStats};
use shield_noc::traffic::TrafficGenerator;
use shield_noc::types::{Mesh, SimConfig};

/// Traced run: record, cross-validate, export.
fn traced(net: NetworkConfig, traffic: TrafficConfig) {
    // A shorter window than the untraced run so the per-shard rings
    // (2M events) losslessly hold the whole stream.
    let sim = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        drain_cycles: 5_000,
        seed: 42,
    };
    let mut gen = TrafficGenerator::new(traffic, Mesh::new(net.mesh_k), sim.seed ^ 0x5EED);
    let (report, _outcome, tracer) =
        Simulator::new(net, sim, RouterKind::Protected, FaultPlan::none())
            .run_traced(|cycle, out| gen.tick_into(cycle, out), 1 << 21);
    assert_eq!(tracer.dropped(), 0, "ring too small: trace is lossy");

    let merged = tracer.merged();
    let counts = EventCounts::tally(&merged);
    for counter in RouterStats::MECHANISMS {
        let (traced, kept) = (counts.stats.get(counter), report.router_events.get(counter));
        assert_eq!(traced, kept, "{}", counter.0);
    }
    assert_eq!(counts.stats.flits_dropped, report.flits_dropped);
    println!(
        "trace OK: {} events, per-mechanism counts equal the routers' counters",
        counts.total
    );

    let text = chrome_trace(&merged, 1);
    let doc = JsonValue::parse(&text).expect("chrome trace must be valid JSON");
    let spans = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!spans.is_empty(), "trace must contain events");
    println!("chrome trace OK: {} trace events", spans.len());

    let path = "target/quickstart_trace.chrome.json";
    std::fs::write(path, text).expect("write chrome trace");
    println!("wrote {path} ({} delivered packets)", report.delivered());
}

fn main() {
    // The paper's evaluation point: 8×8 mesh, 5-port routers, 4 VCs per
    // port, 4-flit buffers (Section VI).
    let net = NetworkConfig::paper();

    // Uniform-random traffic at 0.02 packets/node/cycle, 40% of which
    // are 5-flit data packets.
    let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.02);

    if std::env::args().any(|a| a == "--trace") {
        traced(net, traffic);
        return;
    }

    // 2k warm-up, 10k measured, then drain.
    let sim = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 10_000,
        drain_cycles: 10_000,
        seed: 42,
    };

    println!(
        "simulating {} routers for {} cycles...",
        net.nodes(),
        sim.total_cycles()
    );
    let report = run_simulation(
        &net,
        &sim,
        &traffic,
        RouterKind::Protected,
        &FaultPlan::none(),
    );

    println!("delivered packets : {}", report.delivered());
    println!(
        "mean latency      : {:.2} cycles (creation → tail ejection)",
        report.total_latency.mean
    );
    println!(
        "p95 / p99 latency : {} / {} cycles",
        report.total_latency.p95, report.total_latency.p99
    );
    println!("mean hops         : {:.2}", report.mean_hops);
    println!(
        "throughput        : {:.4} flits/node/cycle",
        report.throughput
    );
    println!("misdelivered      : {}", report.misdelivered);
    println!("flits dropped     : {}", report.flits_dropped);
    assert_eq!(
        report.flits_dropped, 0,
        "a healthy protected mesh never drops flits"
    );
}
