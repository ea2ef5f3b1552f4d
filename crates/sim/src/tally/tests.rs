//! The tally against the log it replaced: every report a run builds
//! from its [`DeliveryTally`] must equal, byte for byte, the report the
//! filter-and-sort construction ([`LatencySummary::of`], kept as the
//! oracle) gives on the delivery log collected in a [`MemoryStream`] —
//! and so must the epoch series, whose samples the log recomputes by
//! ejection cycle. Seeded cases cover both router kinds with faults, one
//! and two shards, a warm-up, resume from every checkpoint and a
//! campaign-style fork; the sample-level cases cover empty and
//! single-sample windows, p999 rank boundaries and latencies ≥ 2^32.

use super::*;
use crate::delivery::{MemoryStream, NullStream};
use crate::{Network, NetworkReport, Simulator};
use noc_faults::{FaultPlan, InjectionConfig};
use noc_topology::Topology;
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::rng::Rng;
use noc_types::{Coord, NetworkConfig, Packet, PacketId, PacketKind, RouterConfig, SimConfig};
use shield_router::RouterKind;

/// The report `report` would have been, built the old way from `log`:
/// filter to the window, sort, sum in delivery order. The epoch samples'
/// delivery fields are recomputed from the log by ejection cycle.
fn oracle(report: &NetworkReport, log: &[DeliveredPacket]) -> NetworkReport {
    let window = report.window;
    let in_window: Vec<&DeliveredPacket> = log
        .iter()
        .filter(|d| d.created_at >= window.0 && d.created_at < window.1)
        .collect();
    let mut r = report.clone();
    r.delivered = in_window.len() as u64;
    r.total_latency = LatencySummary::of(in_window.iter().map(|d| d.total_latency()).collect());
    r.network_latency = LatencySummary::of(in_window.iter().map(|d| d.network_latency()).collect());
    r.mean_hops = if in_window.is_empty() {
        0.0
    } else {
        in_window.iter().map(|d| d.hops as f64).sum::<f64>() / in_window.len() as f64
    };
    let flits: u64 = in_window.iter().map(|d| d.kind.flits() as u64).sum();
    let window_len = (window.1 - window.0).max(1) as f64;
    r.throughput = flits as f64 / window_len / r.nodes as f64;
    if let Some(series) = &mut r.epochs {
        for s in &mut series.samples {
            let latencies: Vec<u64> = log
                .iter()
                .filter(|d| d.ejected_at >= s.start_cycle && d.ejected_at < s.end_cycle)
                .map(|d| d.total_latency())
                .collect();
            s.delivered_packets = latencies.len() as u64;
            s.mean_latency = if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
            };
            s.max_latency = latencies.iter().copied().max().unwrap_or(0);
        }
    }
    r
}

fn assert_exact(label: &str, report: &NetworkReport, log: &[DeliveredPacket]) {
    assert_eq!(
        report.to_json().render(),
        oracle(report, log).to_json().render(),
        "{label}: the tally's report differs from the log's"
    );
}

/// A network whose tally holds exactly `log` under `window`, reported.
fn report_of(window: (Cycle, Cycle), log: &[DeliveredPacket]) -> NetworkReport {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = 2;
    let mut net = Network::new(cfg, RouterKind::Protected);
    net.set_window(window);
    for d in log {
        net.fold_delivery(d);
    }
    NetworkReport::build(&net, window.1, None, None)
}

fn delivery(id: u64, created_at: Cycle, injected_at: Cycle, ejected_at: Cycle) -> DeliveredPacket {
    DeliveredPacket {
        id: PacketId(id),
        kind: [PacketKind::Control, PacketKind::Data][id as usize % 2],
        src: Coord::new(0, 0),
        dst: Coord::new(1, 1),
        created_at,
        injected_at,
        ejected_at,
        hops: (id % 7) as u16,
    }
}

#[test]
fn summaries_equal_the_sorted_sample_at_the_edges() {
    let mut rng = Rng::seeded(0x7A11);
    let mut cases: Vec<Vec<u64>> = vec![vec![], vec![0], vec![7], vec![u64::from(u32::MAX) + 1]];
    // Sizes on both sides of the ranks where p99 and p999 step.
    for n in [99, 100, 101, 999, 1000, 1001, 1999, 2000, 2001, 3001] {
        cases.push((0..n).map(|_| 10 + rng.below(40)).collect());
        cases.push((0..n).map(|i| i as u64).rev().collect());
    }
    // Latencies at and past 2^32, with repeats.
    for n in [1, 2, 17, 1000] {
        cases.push(
            (0..n)
                .map(|_| (1u64 << (32 + rng.below(20))) + rng.below(3))
                .collect(),
        );
    }
    for samples in cases {
        let counts: LatencyCounts = samples.iter().copied().collect();
        assert_eq!(counts.count(), samples.len() as u64);
        assert_eq!(
            counts.sum(),
            samples.iter().map(|&s| u128::from(s)).sum::<u128>()
        );
        assert_eq!(
            counts.summary(),
            LatencySummary::of(samples.clone()),
            "{samples:?}"
        );
    }
}

#[test]
fn reports_equal_the_log_on_empty_single_and_huge_windows() {
    let window = (100, 200);
    let log: Vec<DeliveredPacket> = vec![
        delivery(1, 50, 60, 120),         // before the window
        delivery(2, 150, 151, 170),       // the one in it
        delivery(3, 250, 260, 300),       // after it
        delivery(4, 99, 150, 1u64 << 40), // before, huge
    ];
    assert_exact("empty", &report_of((300, 400), &log), &log);
    let single = report_of(window, &log);
    assert_eq!(single.delivered, 1);
    assert_exact("single", &single, &log);
    let far = 1u64 << 33;
    let huge: Vec<DeliveredPacket> = (0..1500)
        .map(|i| delivery(i, 100 + i % 100, 100 + i % 100, far + (i * 7919) % 5000))
        .collect();
    assert_exact("latencies past 2^32", &report_of(window, &huge), &huge);
}

/// A seeded checkpointed run, its log in a [`MemoryStream`]: the report
/// equals the oracle's, and so does every run resumed from each of its
/// checkpoints (from an over-long copy of the stream, so the truncate
/// folds exactly the kept prefix).
#[test]
fn checkpointed_and_resumed_runs_report_what_their_log_says() {
    let mut rng = Rng::seeded(0x7A11_E5AC);
    for kind in [RouterKind::Protected, RouterKind::Baseline] {
        for threads in [1, 2] {
            let label = format!("{kind:?} threads={threads}");
            let k = 4 + rng.below(2) as u8;
            let cfg = NetworkConfig {
                mesh_k: k,
                ..NetworkConfig::paper()
            };
            let phases = SimConfig {
                warmup_cycles: [0, 40 + rng.below(80)][threads - 1],
                measure_cycles: 250 + rng.below(150),
                drain_cycles: 300,
                seed: rng.next_u64(),
            };
            let plan = FaultPlan::uniform_random(
                &RouterConfig::paper(),
                cfg.nodes(),
                &InjectionConfig::accelerated_accumulating(250, 400),
                rng.next_u64(),
            );
            let rate = 0.05 + rng.below(10) as f64 / 100.0;
            let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, rate);
            let generator =
                || TrafficGenerator::for_topology(traffic, &Topology::from_spec(&cfg), 9);
            let sim = Simulator::new(cfg, phases, kind, plan)
                .with_threads(threads)
                .with_sample_every(50 + rng.below(30))
                .with_checkpoint_every(60 + rng.below(60));

            let mut stream = MemoryStream::new();
            let mut checkpoints = Vec::new();
            let (report, _) = sim
                .run_streamed(&mut generator(), &mut stream, None, |c| {
                    checkpoints.push(c.document());
                    true
                })
                .unwrap();
            let log = stream.into_entries();
            assert!(
                report.delivered > 20,
                "{label}: too quiet ({})",
                report.delivered
            );
            assert!(
                checkpoints.len() >= 3,
                "{label}: {} checkpoints",
                checkpoints.len()
            );
            assert_exact(&label, &report, &log);
            let reference = report.to_json().render();

            for (i, doc) in checkpoints.iter().enumerate() {
                let mut stream = MemoryStream::from_entries(log.clone());
                let (resumed, _) = sim
                    .run_streamed(&mut generator(), &mut stream, Some(doc), |_| true)
                    .unwrap();
                assert_eq!(resumed.to_json().render(), reference, "{label}: resume {i}");
                assert_eq!(
                    stream.entries(),
                    &log[..],
                    "{label}: stream after resume {i}"
                );
            }
        }
    }
}

/// The campaign's fork: a network advanced to an onset with a shorter
/// window, cloned, and both copies run on under the full window — each
/// equals a fresh full run, and the oracle on the log of both legs.
#[test]
fn a_forked_continuation_reports_what_its_log_says() {
    let cfg = NetworkConfig {
        mesh_k: 5,
        ..NetworkConfig::paper()
    };
    let phases = |measure, drain| SimConfig {
        warmup_cycles: 0,
        measure_cycles: measure,
        drain_cycles: drain,
        seed: 0,
    };
    // Stateless in the cycle, so both legs of the fork draw alike.
    let traffic = |cycle: Cycle, out: &mut Vec<Packet>| {
        let mut state = cycle ^ 0xF0;
        for node in 0..25u64 {
            if noc_types::rng::splitmix64_below(&mut state, 10) == 0 {
                let dst = (node + 1 + noc_types::rng::splitmix64_below(&mut state, 24)) % 25;
                let at = |n: u64| Coord::new((n % 5) as u8, (n / 5) as u8);
                let kind = [PacketKind::Control, PacketKind::Data][(node % 2) as usize];
                out.push(Packet::new(
                    PacketId(cycle << 8 | node),
                    kind,
                    at(node),
                    at(dst),
                    cycle,
                ));
            }
        }
    };
    let full = Simulator::new(
        cfg,
        phases(300, 400),
        RouterKind::Protected,
        FaultPlan::none(),
    )
    .with_sample_every(64);
    let (fresh, _) = full.run_with(traffic);

    let advance = Simulator::new(
        cfg,
        phases(120, 0),
        RouterKind::Protected,
        FaultPlan::none(),
    );
    let mut net = Network::new(cfg, RouterKind::Protected);
    let mut before = MemoryStream::new();
    advance.run_on(&mut net, &mut before, traffic);
    let mut twin = net.clone();
    for (leg, net) in [("original", &mut net), ("clone", &mut twin)] {
        let mut log = MemoryStream::from_entries(before.entries().to_vec());
        let (mut report, _) = full.run_on(net, &mut log, traffic);
        let label = format!("fork {leg}");
        assert_exact(&label, &report, log.entries());
        // The continuation's epochs cover only its own cycles.
        report.epochs = None;
        let mut whole = fresh.clone();
        whole.epochs = None;
        assert_eq!(
            report.to_json().render(),
            whole.to_json().render(),
            "{label}"
        );
    }
}

#[test]
#[should_panic(expected = "cannot continue under")]
fn continuing_a_tally_under_another_window_start_fails() {
    let cfg = NetworkConfig {
        mesh_k: 4,
        ..NetworkConfig::paper()
    };
    let phases = |warmup| SimConfig {
        warmup_cycles: warmup,
        measure_cycles: 200,
        drain_cycles: 0,
        seed: 0,
    };
    let source = |cycle: Cycle, out: &mut Vec<Packet>| {
        if cycle.is_multiple_of(3) {
            out.push(Packet::new(
                PacketId(cycle),
                PacketKind::Control,
                Coord::new(0, 0),
                Coord::new(3, 3),
                cycle,
            ));
        }
    };
    let mut net = Network::new(cfg, RouterKind::Protected);
    let second = Simulator::new(cfg, phases(50), RouterKind::Protected, FaultPlan::none());
    // Stop at cycle 100 (measure 100), then continue under warm-up 50.
    let stop = Simulator::new(
        cfg,
        SimConfig {
            measure_cycles: 100,
            ..phases(0)
        },
        RouterKind::Protected,
        FaultPlan::none(),
    );
    let mut spool = NullStream;
    stop.run_on(&mut net, &mut spool, source);
    assert!(net.tally().seen() > 0);
    second.run_on(&mut net, &mut spool, source);
}
