//! Whole-network simulation throughput: cycles/second under moderate
//! load — the cost that bounds Figure-7/8 runs. Tracks the serial hot
//! path (`BENCH_hotpath.json`) and, ad hoc, the sharded parallel stepper
//! plus active-router worklist (the recorded parallel numbers are the
//! ledger's `sim_chiplet_par2` rows, `benchmark/README.md`).
//!
//! Matrix: 8×8 and 16×16 meshes × uniform low/high load and canneal ×
//! a pre-worklist serial baseline and threads ∈ {1, 2, 4, 8}. Pass
//! `--quick` for a single-sample smoke run (CI); any other argument is
//! a substring filter on the bench names.

use noc_bench::{apply_topology_arg, bench_envelope, bench_with, measurement_json, Measurement};
use noc_sim::Network;
use noc_telemetry::json::{obj, JsonValue};
use noc_traffic::{AppId, SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::NetworkConfig;
use shield_router::RouterKind;
use std::hint::black_box;
use std::time::Duration;

const CYCLES: u64 = 2_000;

fn run_once(k: u8, traffic: &TrafficConfig, threads: usize, skip_idle: bool) {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = k;
    let cfg = apply_topology_arg(cfg);
    let mut net = Network::new(cfg, RouterKind::Protected);
    net.set_threads(threads);
    net.set_skip_idle(skip_idle);
    let mut gen = TrafficGenerator::new(*traffic, cfg.grid(), 1);
    let mut pkts = Vec::new();
    for cycle in 0..CYCLES {
        pkts.clear();
        gen.tick_into(cycle, &mut pkts);
        net.offer_packets_from(&mut pkts);
        net.step(cycle);
    }
    black_box(net.packet_counters());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `--topology <tag>` (handled by `apply_topology_arg` inside
    // `run_once`) must not leak its operand into the name filters.
    let mut filters: Vec<&String> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--topology" {
            skip_next = true;
        } else if !a.starts_with("--") {
            filters.push(a);
        }
    }
    let topology_tag = apply_topology_arg(NetworkConfig::paper()).topology.tag();
    let (samples, min_sample) = if quick {
        (1, Duration::from_millis(20))
    } else {
        (7, Duration::from_millis(100))
    };
    let run = |name: &str, k: u8, traffic: &TrafficConfig, threads: usize, skip: bool| {
        if !filters.is_empty() && !filters.iter().any(|f| name.contains(f.as_str())) {
            return None;
        }
        let m: Measurement = bench_with(name, samples, min_sample, || {
            run_once(k, traffic, threads, skip)
        });
        println!(
            "  -> {:.0} simulated cycles/sec",
            m.per_second() * CYCLES as f64
        );
        Some(measurement_json(&m, CYCLES))
    };

    let mut json = Vec::new();
    for k in [8u8, 16] {
        for (label, traffic) in [
            (
                "uniform_0.02",
                TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.02),
            ),
            (
                "uniform_0.10",
                TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.10),
            ),
            ("app_canneal", TrafficConfig::app(AppId::Canneal)),
        ] {
            // The pre-PR stepper: serial, stepping every router.
            json.push(run(
                &format!("mesh_{k}x{k}/2k_cycles/{label}/serial_no_worklist"),
                k,
                &traffic,
                1,
                false,
            ));
            for threads in [1usize, 2, 4, 8] {
                json.push(run(
                    &format!("mesh_{k}x{k}/2k_cycles/{label}/threads_{threads}"),
                    k,
                    &traffic,
                    threads,
                    true,
                ));
            }
        }
    }
    let rows: Vec<JsonValue> = json.into_iter().flatten().collect();
    let doc = bench_envelope(
        "mesh_sim",
        "Whole-network simulation throughput across mesh size, load and \
         stepper thread count.",
        topology_tag,
        "ad-hoc run; see the committed BENCH_*.json files for recorded numbers",
        obj([("results", JsonValue::Arr(rows))]),
    );
    println!("\nJSON:\n{}", doc.render());
}
