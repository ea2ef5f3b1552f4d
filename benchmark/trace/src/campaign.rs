//! The `campaign_mesh` workload in process: `run_campaign` as the CLI
//! calls it, and beside it scenarios of the benchmark's own, made of
//! public calls on the same configuration, which say how much of a
//! scenario is building the network, injecting, draining and dumping the
//! flight record.
//!
//! The engine keeps its seeds, its fault sets and its traffic source to
//! itself, so these scenarios are not the engine's: they are as many per
//! (mode, fault count) cell, with fault sets from `LinkPool::sample` and
//! uniform traffic at the campaign's rate from `noc-traffic`, on seeds
//! made here. Their shares describe the engine's scenarios as far as the
//! two agree, and `campaign.residual_pct` says how far that is.

use crate::{kernels, timed, Args, Traced};
use noc_campaign::{
    render_table, report_json, run_campaign, summarise, CampaignConfig, LinkPool, Outcome,
};
use noc_faults::{FaultPlan, LinkFaultEvent};
use noc_ledger::spans::Recorder;
use noc_ledger::stats::median;
use noc_sim::Network;
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator, TrafficSpec};
use noc_types::{NetworkConfig, RoutingMode, TopologySpec};
use std::time::Instant;

/// Share of data packets in the engine's traffic when this was written.
/// A number, not a copy of its source: if the engine changes its mix,
/// nothing here fails and `campaign.residual_pct` shows the difference.
const DATA_FRACTION: f64 = 1.0 / 3.0;

/// `noc-cli campaign --topology mesh --routing both --scenarios N
/// --max-faults F --threads 1 --seed S`.
fn config(scenarios: u32, max_faults: u32, seed: u64) -> Result<CampaignConfig, String> {
    let mut net = NetworkConfig::paper();
    net.topology = TopologySpec::parse_arg("mesh", net.mesh_k)?;
    net.validate()?;
    let mut cc = CampaignConfig::new(net);
    cc.modes = vec![RoutingMode::Static, RoutingMode::Adaptive];
    cc.scenarios_per_point = scenarios;
    cc.max_faults = max_faults;
    cc.seed = seed;
    cc.threads = 1;
    Ok(cc)
}

/// Where the time of the benchmark's scenarios went. Nanoseconds.
#[derive(Default)]
struct Phases {
    build_ns: u64,
    inject_ns: u64,
    drain_ns: u64,
    flight_record_ns: u64,
    sample_ns: u64,
    /// In `TrafficGenerator::tick`: in no phase, and not the engine's.
    traffic_ns: u64,
    samples: u64,
    scenarios: u64,
    cycles: u64,
}

impl Phases {
    fn covered_ns(&self) -> u64 {
        self.build_ns + self.inject_ns + self.drain_ns + self.flight_record_ns + self.sample_ns
    }
}

/// One scenario as `CampaignConfig` describes it: inject for
/// `inject_cycles`, then step until the network is empty, `drain_cycles`
/// are used up or nothing has moved for `stall_cycles`; a network that
/// did not drain dumps its flight record. Each phase under a span.
fn scenario(
    cc: &CampaignConfig,
    mode: RoutingMode,
    faults: &[LinkFaultEvent],
    traffic_seed: u64,
    phases: &mut Phases,
    rec: &mut Recorder,
) {
    let root = rec.enter("scenario");
    let mut cfg = cc.base;
    cfg.routing = mode;
    let plan = FaultPlan::none().with_link_faults(faults.to_vec());
    let (mut net, ns) = rec.span("sim.network_build", |_| {
        timed(|| Network::with_faults(cfg, cc.router_kind, &plan))
    });
    phases.build_ns += ns;
    let traffic = TrafficConfig {
        spec: TrafficSpec::Synthetic {
            pattern: SyntheticPattern::UniformRandom,
            rate: cc.rate_permille as f64 / 1000.0,
            data_fraction: DATA_FRACTION,
        },
    };
    let mut source = TrafficGenerator::new(traffic, net.topology().grid(), traffic_seed);

    // The engine draws its packets from a source of its own, not from
    // `noc-traffic`, so the generator's time is kept out of the phase.
    let mut cycle = 0;
    let mut tick_ns = 0;
    let ((), ns) = rec.span("campaign.inject", |rec| {
        let timed_loop = timed(|| {
            while cycle < cc.inject_cycles {
                let (packets, ns) = timed(|| source.tick(cycle));
                tick_ns += ns;
                net.offer_packets(packets);
                net.step(cycle);
                cycle += 1;
            }
        });
        rec.count("traffic.tick", tick_ns, cc.inject_cycles);
        timed_loop
    });
    phases.inject_ns += ns - tick_ns;
    phases.traffic_ns += tick_ns;

    let budget = cc.inject_cycles + cc.drain_cycles;
    let (drained, ns) = rec.span("campaign.drain", |_| {
        timed(|| loop {
            if net.in_flight_flits() == 0 && net.queued_packets() == 0 {
                break true;
            }
            if cycle >= budget || net.last_activity + cc.stall_cycles < cycle {
                break false;
            }
            net.step(cycle);
            cycle += 1;
        })
    });
    phases.drain_ns += ns;

    if !drained {
        let (record, ns) = rec.span("campaign.flight_record", |_| {
            timed(|| net.flight_record(cycle))
        });
        std::hint::black_box(record);
        phases.flight_record_ns += ns;
    }
    phases.scenarios += 1;
    phases.cycles += cycle;
    rec.exit(root);
}

/// As many scenarios as the campaign runs: per mode, `scenarios_per_point`
/// without faults and as many at each fault count, the modes sharing
/// their fault sets and their traffic as the engine's do.
fn scenarios(cc: &CampaignConfig, rec: &mut Recorder) -> Phases {
    let mut phases = Phases::default();
    let pool = LinkPool::new(&cc.base);
    for faults in 0..=cc.max_faults {
        for sc in 0..cc.scenarios_per_point {
            let seed = cc.seed ^ (u64::from(faults) << 32 | u64::from(sc));
            let set = if faults == 0 {
                Vec::new()
            } else {
                let (set, ns) = rec.span("campaign.sample", |_| {
                    timed(|| pool.sample(seed, faults as usize, cc.inject_cycles))
                });
                phases.sample_ns += ns;
                phases.samples += 1;
                set
            };
            for &mode in &cc.modes {
                scenario(cc, mode, &set, cc.seed ^ u64::from(sc), &mut phases, rec);
            }
        }
    }
    phases
}

pub fn trace(args: &Args, rec: &mut Recorder) -> Result<Traced, String> {
    let mut out = Traced::default();
    let cc = config(100, 2, args.seed)?;
    kernels::probe(&cc.base, &mut out, rec);

    // What the binary adds around the library, on the set-up command.
    let tiny = config(1, 1, args.seed)?;
    let mut in_process = Vec::new();
    for _ in 0..21 {
        let (run, ns) = timed(|| run_campaign(&tiny));
        run?;
        in_process.push(ns as f64 / 1e6);
    }
    out.set("cli.overhead_ms", args.setup_ms - median(&in_process));

    // The operation itself, once: its outcomes are the counters, and the
    // statistics that must equal the binary's.
    let run = run_campaign(&cc)?;

    // Host time from rounds a quarter as large, so that several fit. The
    // engine and the benchmark's scenarios of a round follow each other
    // within a second, so the machine's slow drift mostly cancels
    // between them.
    let part = config(25, 2, args.seed)?;
    let started = Instant::now();
    let (mut walls, mut self_rates) = (Vec::new(), Vec::new());
    let (mut residuals, mut overheads) = (Vec::new(), Vec::new());
    let phases = loop {
        let round = Instant::now();
        let (part_run, wall_ns) = timed(|| run_campaign(&part));
        let part_run = part_run?;
        let wall = wall_ns as f64;
        walls.push(wall);
        self_rates.push(part_run.scenarios_per_sec);
        let (phases, own_ns) = timed(|| scenarios(&part, rec));
        residuals.push((wall - phases.covered_ns() as f64) / wall * 100.0);
        // The spans and clocks around the phases, and what the loop
        // around the scenarios costs beside them.
        let untimed = own_ns - phases.covered_ns() - phases.traffic_ns;
        overheads.push(untimed as f64 / wall * 100.0);
        // Another round only if it fits in what is left of the budget.
        if started.elapsed().as_secs_f64() + round.elapsed().as_secs_f64() > args.seconds / 2.0 {
            break phases;
        }
    };
    let wall = median(&walls);

    let share = |ns: u64| ns as f64 / phases.covered_ns().max(1) as f64 * 100.0;
    out.set("campaign.self_scenarios_per_s", median(&self_rates));
    out.set("campaign.build_share_pct", share(phases.build_ns));
    out.set("campaign.inject_share_pct", share(phases.inject_ns));
    out.set("campaign.drain_share_pct", share(phases.drain_ns));
    out.set(
        "campaign.flight_record_share_pct",
        share(phases.flight_record_ns),
    );
    out.set(
        "campaign.sample_us",
        phases.sample_ns as f64 / 1e3 / phases.samples.max(1) as f64,
    );
    out.set("campaign.residual_pct", median(&residuals));
    out.set("trace.overhead_pct", median(&overheads));
    out.set(
        "sim.network_build_us",
        phases.build_ns as f64 / 1e3 / phases.scenarios.max(1) as f64,
    );
    out.set(
        "sim.step_ns_per_cycle",
        (phases.inject_ns + phases.drain_ns) as f64 / phases.cycles.max(1) as f64,
    );
    // The engine reports the cycles of its scenarios with faults.
    let engine_cycles: u64 = run.results.iter().map(|r| r.cycles_run).sum();
    let engine_mean = engine_cycles as f64 / run.results.len().max(1) as f64;
    out.set("campaign.cycles_per_scenario", engine_mean);
    eprintln!(
        "ledger-trace: cycles a scenario: the engine's with faults {engine_mean:.1}, the benchmark's own {:.1}",
        phases.cycles as f64 / phases.scenarios.max(1) as f64
    );
    // Cycles of the benchmark's scenarios over the engine's wall for as
    // many: the engine does not report the cycles of its baselines.
    out.set(
        "campaign.stepped_cycles_per_s",
        phases.cycles as f64 / (wall / 1e9),
    );
    let count = |o: Outcome| run.results.iter().filter(|r| r.outcome == o).count() as f64;
    out.set("campaign.delivered_all", count(Outcome::DeliveredAll));
    out.set("campaign.lost_packets", count(Outcome::LostPackets));
    out.set("campaign.deadlocked", count(Outcome::Deadlocked));
    let renders: Vec<f64> = (0..9)
        .map(|_| {
            rec.span("campaign.report_render", |_| {
                timed(|| (report_json(&run).render(), render_table(&run))).1
            })
        })
        .map(|ns| ns as f64 / 1e3)
        .collect();
    out.set("campaign.report_render_us", median(&renders));

    let adaptive = summarise(&run)
        .into_iter()
        .find(|s| s.mode == RoutingMode::Adaptive)
        .ok_or("campaign has no adaptive arm")?;
    out.checked(if adaptive.outcome_counts.iter().all(|c| c.4 == 0) {
        Ok(())
    } else {
        Err("adaptive routing deadlocked".into())
    });
    out.mean_latency_cycles = adaptive.baseline_latency_x100 as f64 / 100.0;
    out.survival_frac = adaptive
        .curve
        .points
        .iter()
        .find(|p| p.faults == 1)
        .map_or(0.0, |p| p.survival());
    Ok(out)
}
