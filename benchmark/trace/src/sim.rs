//! The three `sim_*` workloads in process: the same configuration
//! `noc-cli simulate` builds from its flags, run through
//! `Simulator::run_with` (what the CLI does) with a clock around
//! `tick_into` inside the source closure, and through a build / tick /
//! offer / step loop of public calls with a clock around the build, the
//! offers and the steps, which `run_with` keeps to itself.

use crate::{kernels, timed, Args, Traced};
use noc_faults::{FaultPlan, InjectionConfig};
use noc_ledger::spans::Recorder;
use noc_ledger::stats::{mean, median};
use noc_sim::{Network, NetworkReport, Simulator};
use noc_traffic::{AppId, SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{NetworkConfig, Packet, RouterConfig, SimConfig, TopologySpec};
use shield_router::RouterKind;
use std::time::Instant;

/// One simulation, fully specified.
pub struct SimSetup {
    pub net: NetworkConfig,
    pub sim: SimConfig,
    pub plan: FaultPlan,
    /// Stepper threads; `1` is the serial stepper.
    pub threads: usize,
    /// A fresh traffic generator for this simulation.
    pub generator: Box<dyn Fn() -> TrafficGenerator>,
}

impl SimSetup {
    /// What `noc-cli simulate` builds for workload `name` at `--cycles
    /// cycles --seed seed`: see `CLI_WORKLOADS` in the ledger for the
    /// flags, and `run_simulate` in `src/bin/noc-cli.rs` for what they
    /// mean.
    pub fn cli(name: &str, cycles: u64, seed: u64) -> Result<SimSetup, String> {
        let (topology, traffic, faults, threads) = match name {
            "sim_light" => (
                "mesh",
                TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.02),
                false,
                1,
            ),
            "sim_faulty" => ("mesh", TrafficConfig::app(AppId::X264), true, 1),
            "sim_chiplet_par2" => (
                "chipletmesh4x8:4:2",
                TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.02),
                false,
                2,
            ),
            other => return Err(format!("unknown workload {other:?}")),
        };
        let mut net = NetworkConfig::paper();
        net.topology = TopologySpec::parse_arg(topology, net.mesh_k)?;
        net.validate()?;
        let sim = SimConfig {
            warmup_cycles: cycles / 10,
            measure_cycles: cycles,
            drain_cycles: cycles / 2,
            seed,
        };
        let plan = if faults {
            fault_plan(&net, &sim)
        } else {
            FaultPlan::none()
        };
        let grid = net.grid();
        Ok(SimSetup {
            net,
            sim,
            plan,
            threads,
            generator: Box::new(move || TrafficGenerator::new(traffic, grid, seed ^ 0x5EED)),
        })
    }
}

/// `--faults accumulate`: one fault per (router, stage) by the end of
/// the horizon, on average.
fn fault_plan(net: &NetworkConfig, sim: &SimConfig) -> FaultPlan {
    let horizon = sim.warmup_cycles + sim.measure_cycles;
    let inj = InjectionConfig::accelerated_accumulating(horizon / 2, horizon);
    FaultPlan::uniform_random(&RouterConfig::paper(), net.nodes(), &inj, sim.seed ^ 0xFA17)
}

/// `--cycles` of each workload's operation (as in `CLI_WORKLOADS`).
fn op_cycles(name: &str) -> u64 {
    match name {
        "sim_light" => 200_000,
        "sim_faulty" => 30_000,
        _ => 3_000,
    }
}

/// Run `setup` the way the CLI does. With `TRACE` every `tick_into` is
/// timed inside the source closure (two clock reads a cycle) and the run
/// is a span with the ticks as its counter. Returns the report, the wall
/// time in nanoseconds, network build included, and the nanoseconds in
/// `tick_into` (`0` without `TRACE`).
pub fn run_with<const TRACE: bool>(
    setup: &SimSetup,
    rec: &mut Recorder,
) -> (NetworkReport, u64, u64) {
    let root = TRACE.then(|| rec.enter("sim.run_with"));
    let (mut tick_ns, mut ticks) = (0u64, 0u64);
    let (report, wall_ns) = timed(|| {
        let mut generator = (setup.generator)();
        Simulator::new(
            setup.net,
            setup.sim,
            RouterKind::Protected,
            setup.plan.clone(),
        )
        .with_threads(setup.threads)
        .run_with(|cycle, out: &mut Vec<Packet>| {
            let started = TRACE.then(Instant::now);
            generator.tick_into(cycle, out);
            if let Some(started) = started {
                tick_ns += started.elapsed().as_nanos() as u64;
                ticks += 1;
            }
        })
        .0
    });
    if let Some(span) = root {
        rec.count("traffic.tick", tick_ns, ticks);
        rec.exit(span);
    }
    (report, wall_ns, tick_ns)
}

/// The report must describe a run in which the protected routers lost
/// nothing.
pub fn check_report(report: &NetworkReport) -> Result<(), String> {
    if report.misdelivered != 0 {
        return Err(format!("{} packets misdelivered", report.misdelivered));
    }
    let dropped = report.flits_dropped + report.flits_edge_dropped;
    if dropped != 0 {
        return Err(format!("{dropped} flits dropped on protected routers"));
    }
    if report.deadlock_suspected {
        return Err("deadlock suspected".into());
    }
    Ok(())
}

/// Where the time of one round went. Nanoseconds.
#[derive(Default, Clone)]
pub struct Split {
    /// Wall of the loop below, build included.
    pub wall_ns: u64,
    pub build_ns: u64,
    /// Inside the closure handed to `Simulator::run_with`.
    pub tick_ns: u64,
    pub offer_ns: u64,
    pub step_ns: u64,
    pub cycles_run: u64,
    pub routers_stepped: u64,
    /// Mean over rebalance intervals of slowest shard / mean shard;
    /// `0` when the stepper is serial.
    pub shard_imbalance: f64,
}

impl Split {
    pub fn covered_ns(&self) -> u64 {
        self.build_ns + self.tick_ns + self.offer_ns + self.step_ns
    }
}

/// What `Simulator::run_with` does with its network, from public calls:
/// build, then tick, offer and step for the `cycles_run` cycles its
/// report says it ran (packets are offered during warm-up and measuring
/// only). With `TRACE` the build, the offers and the steps are timed
/// (two clock reads each) and recorded as spans; without it the loop
/// reads no clock, which gives the wall time that tracing is compared
/// against.
pub fn stepped<const TRACE: bool>(setup: &SimSetup, cycles_run: u64, rec: &mut Recorder) -> Split {
    let mut split = Split::default();
    let started = Instant::now();
    let root = TRACE.then(|| rec.enter("sim.stepped"));

    let build = TRACE.then(|| rec.enter("sim.network_build"));
    let (mut net, build_ns) = timed(|| {
        let mut net = Network::with_faults(setup.net, RouterKind::Protected, &setup.plan);
        net.set_threads(setup.threads);
        net
    });
    split.build_ns = build_ns;
    if let Some(span) = build {
        rec.exit(span);
    }
    let mut generator = (setup.generator)();

    let run_loop = TRACE.then(|| rec.enter("sim.loop"));
    let measure_end = setup.sim.warmup_cycles + setup.sim.measure_cycles;
    let mut packets: Vec<Packet> = Vec::new();
    let mut offers = 0u64;
    // A clock read when tracing, nothing otherwise.
    let clock = || TRACE.then(Instant::now);
    let since = |t: Option<Instant>| t.map_or(0, |t| t.elapsed().as_nanos() as u64);
    for cycle in 0..cycles_run {
        if cycle < measure_end {
            packets.clear();
            generator.tick_into(cycle, &mut packets);
            if !packets.is_empty() {
                let t = clock();
                net.offer_packets_from(&mut packets);
                split.offer_ns += since(t);
                offers += 1;
            }
        }
        let t = clock();
        net.step(cycle);
        split.step_ns += since(t);
    }
    split.cycles_run = cycles_run;
    if let Some(span) = run_loop {
        rec.count("sim.offer", split.offer_ns, offers);
        rec.count("sim.step", split.step_ns, cycles_run);
        rec.exit(span);
    }
    if let Some(span) = root {
        rec.exit(span);
    }
    split.wall_ns = started.elapsed().as_nanos() as u64;
    split.routers_stepped = net.routers_stepped();
    let imbalance: Vec<f64> = net
        .shard_profile()
        .iter()
        .map(|p| p.time_imbalance())
        .collect();
    split.shard_imbalance = mean(&imbalance);
    split
}

/// Per-cycle and per-build metrics of the simulation stack from the
/// splits of a set of rounds.
pub fn split_metrics(out: &mut Traced, splits: &[Split]) {
    let per = |f: &dyn Fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    out.set("sim.network_build_us", per(&|s| s.build_ns as f64 / 1e3));
    // All three per simulated cycle run, so that build + cycles x (tick +
    // offer + step) adds up to the covered time.
    let per_cycle = |ns: u64, s: &Split| ns as f64 / s.cycles_run.max(1) as f64;
    out.set(
        "traffic.tick_ns_per_cycle",
        per(&|s| per_cycle(s.tick_ns, s)),
    );
    out.set("sim.offer_ns_per_cycle", per(&|s| per_cycle(s.offer_ns, s)));
    out.set("sim.step_ns_per_cycle", per(&|s| per_cycle(s.step_ns, s)));
    out.set(
        "sim.step_ns_per_router_step",
        per(&|s| s.step_ns as f64 / s.routers_stepped.max(1) as f64),
    );
}

/// Counters of the report that explain how the workload used the stack.
pub fn report_metrics(out: &mut Traced, report: &NetworkReport) {
    out.set("traffic.packets", report.offered as f64);
    out.set("sim.routers_stepped", report.routers_stepped as f64);
    out.set("sim.routers_skipped", report.routers_skipped as f64);
    out.set("sim.worklist_skip_rate", report.worklist_skip_rate);
    let ev = &report.router_events;
    let mechanisms =
        ev.rc_duplicate_uses + ev.va_borrows + ev.sa_bypass_grants + ev.secondary_path_flits;
    out.set(
        "core.mech_events_per_kcycle",
        mechanisms as f64 * 1e3 / report.cycles_run.max(1) as f64,
    );
}

/// Run rounds of (`run_with`, `run_with` with timed ticks, the stepped
/// loop, the stepped loop traced) on `setup` for about `seconds` and
/// fill in the host-time metrics of the simulation stack. The four runs
/// of a round follow each other within seconds, so the machine's slow
/// drift mostly cancels in their differences; the residual and the
/// tracing overhead are medians of per-round values. Returns the median
/// wall of the untraced stepped loop in nanoseconds and the cycles a run
/// of `setup` takes.
pub fn measure(setup: &SimSetup, seconds: f64, out: &mut Traced, rec: &mut Recorder) -> (f64, u64) {
    let started = Instant::now();
    let (mut plain, mut splits) = (Vec::new(), Vec::new());
    let (mut residuals, mut overheads) = (Vec::new(), Vec::new());
    loop {
        let round = Instant::now();
        let (report, wall_ns, _) = run_with::<false>(setup, rec);
        out.checked(check_report(&report));
        let (_, ticked_ns, tick_ns) = run_with::<true>(setup, rec);
        let untraced = stepped::<false>(setup, report.cycles_run, rec).wall_ns;
        let mut split = stepped::<true>(setup, report.cycles_run, rec);
        split.tick_ns = tick_ns;
        let wall = wall_ns as f64;
        residuals.push((wall - split.covered_ns() as f64) / wall * 100.0);
        let (traced, bare) = (ticked_ns + split.wall_ns, wall_ns + untraced);
        overheads.push((traced as f64 - bare as f64) / bare as f64 * 100.0);
        plain.push(untraced as f64);
        splits.push(split);
        // Another round only if it fits in what is left of the budget.
        if started.elapsed().as_secs_f64() + round.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    split_metrics(out, &splits);
    out.set("sim.residual_pct", median(&residuals));
    out.set("trace.overhead_pct", median(&overheads));
    (median(&plain), splits[0].cycles_run)
}

pub fn trace(name: &str, args: &Args, rec: &mut Recorder) -> Result<Traced, String> {
    let mut out = Traced::default();
    let setup = SimSetup::cli(name, op_cycles(name), args.seed)?;
    kernels::probe(&setup.net, &mut out, rec);

    if !setup.plan.is_empty() {
        let builds: Vec<f64> = (0..7)
            .map(|_| {
                rec.span("faults.plan_build", |_| {
                    timed(|| fault_plan(&setup.net, &setup.sim)).1
                })
            })
            .map(|ns| ns as f64 / 1e3)
            .collect();
        out.set("faults.plan_build_us", median(&builds));
        out.set("faults.plan_events", setup.plan.len() as f64);
    }

    // What the binary adds around the library: process start, argument
    // parsing and printing. Both sides run the `--cycles 1` set-up
    // command, fault plan included; the binary's median comes from
    // `ledger`.
    let mut in_process = Vec::new();
    for _ in 0..21 {
        let (tiny, ns) =
            timed(|| SimSetup::cli(name, 1, args.seed).map(|tiny| run_with::<false>(&tiny, rec)));
        tiny?;
        in_process.push(ns as f64 / 1e6);
    }
    out.set("cli.overhead_ms", args.setup_ms - median(&in_process));

    // The operation itself, once: its report gives the counters, and the
    // statistics that must equal the binary's.
    let (report, _, _) = run_with::<false>(&setup, rec);
    out.checked(check_report(&report));
    report_metrics(&mut out, &report);
    out.mean_latency_cycles = report.total_latency.mean;
    out.survival_frac = 1.0;
    out.delivered = report.delivered();

    // Host time from rounds a third as long, so that several fit.
    let part = SimSetup::cli(name, op_cycles(name) / 3, args.seed)?;
    let (plain_wall, part_cycles) = measure(&part, args.seconds / 2.0, &mut out, rec);

    if !setup.plan.is_empty() {
        // The same run without its faults: what the paper's Fig. 8
        // measures, for this one application.
        let clean = SimSetup {
            plan: FaultPlan::none(),
            ..SimSetup::cli(name, op_cycles(name), args.seed)?
        };
        let (clean_report, _, _) = run_with::<false>(&clean, rec);
        out.checked(check_report(&clean_report));
        let base = clean_report.total_latency.mean;
        out.set(
            "core.fault_latency_increase_pct",
            (report.total_latency.mean - base) / base * 100.0,
        );
    }
    if setup.threads > 1 {
        let serial = SimSetup {
            threads: 1,
            ..SimSetup::cli(name, op_cycles(name) / 3, args.seed)?
        };
        let serial_wall = stepped::<false>(&serial, part_cycles, rec).wall_ns as f64;
        out.set("sim.par_speedup", serial_wall / plain_wall);
        // The shards are re-cut every 1024 cycles and profiled per
        // interval, so only a full-length run has a profile to read.
        out.set(
            "sim.par_shard_imbalance",
            stepped::<true>(&setup, report.cycles_run, rec).shard_imbalance,
        );
    }
    Ok(out)
}
