//! Campaign execution: thousands of seeded fault scenarios per
//! configuration, run in parallel over serial networks and classified.
//!
//! A scenario is a [`Simulator`] run — no warm-up, `inject_cycles` of
//! measurement, `drain_cycles` of drain, `stall_cycles` forwarded as
//! the stall horizon; the run loop is the simulator's (ARCHITECTURE.md §2).
//!
//! Every scenario is a fully deterministic function of the campaign
//! seed, the fault count and the scenario index — the same fault sets
//! and the same traffic are replayed under every routing mode, so the
//! static-vs-adaptive comparison is paired.
//!
//! The unit of work is the *cell*: one routing arm and one scenario
//! index, i.e. a fault-free baseline and one faulted sibling per fault
//! count. They share their traffic, so each sibling is cycle-identical
//! to the baseline until its first fault onset. A cell therefore builds
//! one network and runs the baseline once, forking it by `Clone` at each
//! sibling's first onset (`run_cell`, ARCHITECTURE.md §8.3).
//! Parallelism comes from [`run_batch`] over independent cells (each
//! simulated serially), with results placed by index, which keeps them
//! bit-identical at any thread count.

use crate::scenario::LinkPool;
use noc_faults::{FaultPlan, LinkFaultEvent};
use noc_sim::{run_batch, Network, NetworkReport, NullStream, SimOutcome, Simulator};
use noc_types::{
    splitmix64, Cycle, Mesh, NetworkConfig, Packet, PacketId, PacketKind, RouterId, RoutingMode,
    SimConfig,
};
use shield_router::RouterKind;

/// Mass fault-campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Network under test. `base.routing` is overridden per arm.
    pub base: NetworkConfig,
    /// Router variant (protected by default).
    pub router_kind: RouterKind,
    /// Routing arms to compare (the same scenarios run under each).
    pub modes: Vec<RoutingMode>,
    /// Curve points: every fault count in `1..=max_faults`.
    pub max_faults: u32,
    /// Scenarios per (mode, fault count) point.
    pub scenarios_per_point: u32,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Cycles of traffic injection per scenario.
    pub inject_cycles: Cycle,
    /// Offered load in packets per node per 1000 cycles.
    pub rate_permille: u64,
    /// Extra cycles allowed for draining after injection stops.
    pub drain_cycles: Cycle,
    /// No observable progress for this many cycles ⇒ wedged.
    pub stall_cycles: Cycle,
    /// A drained scenario whose mean latency exceeds
    /// `baseline × threshold / 100` is Degraded rather than
    /// DeliveredAll.
    pub degraded_threshold_pct: u64,
    /// Worker threads for the scenario sweep (`0` = all cores,
    /// `1` = serial). Results are identical at any setting.
    pub threads: usize,
}

impl CampaignConfig {
    /// A campaign over `base` with the paper-scale defaults: both
    /// routing arms, 1000 scenarios per point, faults 1..=6.
    pub fn new(base: NetworkConfig) -> Self {
        CampaignConfig {
            base,
            router_kind: RouterKind::Protected,
            modes: vec![RoutingMode::Static, RoutingMode::Adaptive],
            max_faults: 6,
            scenarios_per_point: 1_000,
            seed: 1,
            inject_cycles: 300,
            rate_permille: 30,
            drain_cycles: 4_000,
            stall_cycles: 1_500,
            degraded_threshold_pct: 150,
            threads: 0,
        }
    }

    /// CI-sized variant: 100 scenarios per point, faults 1..=2.
    pub fn quick(base: NetworkConfig) -> Self {
        CampaignConfig {
            max_faults: 2,
            scenarios_per_point: 100,
            inject_cycles: 200,
            drain_cycles: 2_500,
            ..CampaignConfig::new(base)
        }
    }

    /// Check the configuration [`run_campaign`] would run; the CLI and
    /// the daemon's spec validation both call this. The base network is
    /// checked under every routing mode the campaign runs, and a fault
    /// set holds distinct links, so `max_faults` may not exceed the
    /// topology's link count.
    pub fn validate(&self) -> Result<(), String> {
        if self.modes.is_empty() {
            return Err("campaign needs at least one routing mode".into());
        }
        if self.max_faults == 0 || self.scenarios_per_point == 0 {
            return Err("campaign needs at least one fault point and one scenario".into());
        }
        if self.inject_cycles == 0 || self.rate_permille == 0 {
            return Err("campaign needs non-zero traffic".into());
        }
        for &routing in &self.modes {
            NetworkConfig {
                routing,
                ..self.base
            }
            .validate()?;
        }
        let links = LinkPool::new(&self.base).len();
        if self.max_faults as usize > links {
            return Err(format!(
                "`max_faults` {} exceeds the {links} links of the topology",
                self.max_faults
            ));
        }
        Ok(())
    }
}

/// How one scenario ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Drained, every offered packet delivered, latency within the
    /// degradation threshold of the fault-free baseline.
    DeliveredAll,
    /// Drained and delivered everything, but slower than the threshold
    /// allows — the faults cost real performance.
    Degraded,
    /// Packets were lost (dropped on dead links, misdelivered, or the
    /// network wedged without a circular wait — truncated in-flight
    /// packets starving a buffer).
    LostPackets,
    /// The network wedged and the flight recorder found a circular
    /// wait.
    Deadlocked,
}

impl Outcome {
    /// Stable tag for JSON and tables.
    pub fn tag(self) -> &'static str {
        match self {
            Outcome::DeliveredAll => "delivered_all",
            Outcome::Degraded => "degraded",
            Outcome::LostPackets => "lost_packets",
            Outcome::Deadlocked => "deadlocked",
        }
    }

    /// Whether the scenario counts as surviving for the
    /// faults-to-failure curve.
    pub fn survived(self) -> bool {
        matches!(self, Outcome::DeliveredAll | Outcome::Degraded)
    }
}

/// One classified scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Routing arm.
    pub mode: RoutingMode,
    /// Requested fault count (the curve's x-coordinate).
    pub faults: u32,
    /// Faults actually placed (≤ `faults` when the keep-connected
    /// filter ran out of candidates).
    pub placed: u32,
    /// Scenario index within the point.
    pub scenario: u32,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Packets offered.
    pub offered: u64,
    /// Packets delivered to the right destination.
    pub delivered: u64,
    /// Mean end-to-end latency ×100 (0 when nothing delivered).
    pub mean_latency_x100: u64,
    /// Whether the network fully drained within the cycle budget
    /// (false ⇒ wedged: deadlocked or starved).
    pub drained: bool,
    /// Cycles simulated.
    pub cycles_run: Cycle,
    /// Rendered wait-for cycle when deadlocked.
    pub wait_cycle: Vec<String>,
}

/// A finished campaign: every classified scenario plus throughput
/// metadata.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Configuration the campaign ran with.
    pub config: CampaignConfig,
    /// Every scenario, ordered (mode, faults, scenario).
    pub results: Vec<ScenarioResult>,
    /// Fault-free mean latency ×100 per (mode, scenario) — the
    /// Degraded classification baseline.
    pub baselines: Vec<(RoutingMode, u64)>,
    /// Wall-clock milliseconds for the whole sweep.
    pub elapsed_ms: u64,
    /// Scenario simulations per wall-clock second (includes the
    /// fault-free baseline runs).
    pub scenarios_per_sec: f64,
}

/// Deterministic uniform-random source over all routers. `Clone`, so a
/// forked scenario carries its traffic stream on with its network.
#[derive(Clone)]
struct Source {
    rng: u64,
    grid: Mesh,
    rate_permille: u64,
    next: u64,
}

impl Source {
    fn tick_into(&mut self, cycle: Cycle, out: &mut Vec<Packet>) {
        let n = self.grid.len() as u64;
        for src in self.grid.coords() {
            if splitmix64(&mut self.rng) % 1000 >= self.rate_permille {
                continue;
            }
            let dst = loop {
                let d = self
                    .grid
                    .coord_of(RouterId((splitmix64(&mut self.rng) % n) as u16));
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

fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for &p in parts {
        h ^= p;
        splitmix64(&mut h);
    }
    h
}

/// One (mode, scenario) cell's network configuration and traffic
/// seed. The traffic seed depends on the scenario index only, so a
/// baseline pairs exactly with the faulted runs it classifies.
fn cell_setup(cc: &CampaignConfig, mode: RoutingMode, scenario: u32) -> (NetworkConfig, u64) {
    let mut cfg = cc.base;
    cfg.routing = mode;
    (cfg, mix(&[cc.seed, 0x7_72AF, scenario as u64]))
}

/// The scenario's traffic source over `grid`.
fn source(cc: &CampaignConfig, traffic_seed: u64, grid: Mesh) -> Source {
    Source {
        rng: traffic_seed,
        grid,
        rate_permille: cc.rate_permille,
        next: 0,
    }
}

/// A simulator whose phases inject until `inject_end` and then drain for
/// `drain`: `(inject_cycles, drain_cycles)` is a whole scenario, and
/// `(t, 0)` advances a network to cycle `t` without leaving the
/// injection phase.
fn simulator(
    cc: &CampaignConfig,
    cfg: NetworkConfig,
    traffic_seed: u64,
    inject_end: Cycle,
    drain: Cycle,
) -> Simulator {
    let phases = SimConfig {
        warmup_cycles: 0,
        measure_cycles: inject_end,
        drain_cycles: drain,
        seed: traffic_seed,
    };
    // The campaign's stall rule is `cycles_run − last_activity >
    // stall_cycles`; the simulator compares the cycle it just stepped,
    // which is `cycles_run − 1`.
    Simulator::new(cfg, phases, cc.router_kind, FaultPlan::none())
        .with_watchdog(cc.stall_cycles.saturating_sub(1))
}

/// What a finished run leaves for classification.
#[derive(Debug, Clone, PartialEq)]
struct Measured {
    offered: u64,
    delivered: u64,
    /// Packets lost or misdelivered.
    lost: bool,
    mean_latency_x100: u64,
    drained: bool,
    cycles_run: Cycle,
    wait_cycle: Vec<String>,
}

impl Measured {
    /// Read a run that ended with `report` and `outcome` off `net`.
    fn of(net: &Network, report: &NetworkReport, outcome: SimOutcome) -> Self {
        let drained = outcome == SimOutcome::DrainedEarly;
        // Every packet of a scenario is created in its window (no
        // warm-up, and the source stops with the window), so the tally
        // holds every delivery's exact latency sum.
        let latency = net.tally().total_latency();
        let mean_latency_x100 = match latency.count() {
            0 => 0,
            n => (latency.sum() * 100 / u128::from(n)) as u64,
        };
        // A run that reached its horizon undrained has no flight record
        // in its report (only the watchdog attaches one), so ask the
        // network.
        let wait_cycle: Vec<String> = if drained {
            Vec::new()
        } else {
            net.flight_record(report.cycles_run)
                .cycle_edges
                .map(|edges| edges.iter().map(|e| e.to_string()).collect())
                .unwrap_or_default()
        };
        Measured {
            offered: report.offered,
            delivered: report.delivered,
            lost: report.delivered < report.offered || report.misdelivered > 0,
            mean_latency_x100,
            drained,
            cycles_run: report.cycles_run,
            wait_cycle,
        }
    }

    /// The scenario result of this run as the curve point `faults` with
    /// `placed` faults, against the fault-free `baseline_x100`.
    fn result(
        &self,
        cc: &CampaignConfig,
        mode: RoutingMode,
        faults: u32,
        placed: usize,
        scenario: u32,
        baseline_x100: u64,
    ) -> ScenarioResult {
        ScenarioResult {
            mode,
            faults,
            placed: placed as u32,
            scenario,
            outcome: classify(
                self.drained,
                !self.wait_cycle.is_empty(),
                self.lost,
                self.mean_latency_x100,
                baseline_x100,
                cc.degraded_threshold_pct,
            ),
            offered: self.offered,
            delivered: self.delivered,
            mean_latency_x100: self.mean_latency_x100,
            drained: self.drained,
            cycles_run: self.cycles_run,
            wait_cycle: self.wait_cycle.clone(),
        }
    }
}

/// A finished cell: the fault-free baseline's run, one run per fault
/// set (in the order the sets were given), and the network-cycles the
/// cell stepped.
struct Cell {
    baseline: Measured,
    siblings: Vec<Measured>,
    /// Read only by the test that pins the saving of forking.
    #[allow(dead_code)]
    stepped: Cycle,
}

/// Run one (mode, scenario) cell: the fault-free baseline and one
/// sibling per fault set in `sets`, every one exactly the run a fresh
/// network built from its fault plan would make.
///
/// One network is built, fault-free. The siblings are visited in order
/// of their first fault onset `t` (a set with no faults is the baseline
/// itself). For each, the baseline is advanced to `t`, cloned — network
/// and traffic source — and the sibling's faults are scheduled on the
/// *original*, which runs the sibling to its end; the clone carries the
/// baseline on. The original, whose buffers have grown to their working
/// capacity, does the long run, and the clone holds only the occupied
/// part of each buffer, so a cell holds at most one extra compact
/// network at a time. Onset 0 and tied onsets are zero-length advances.
/// The baseline drains last.
///
/// Should the watchdog end the baseline before some onset, every
/// sibling not yet forked ends with it: until its first onset a
/// sibling's run *is* the baseline's.
fn run_cell(
    cc: &CampaignConfig,
    mode: RoutingMode,
    scenario: u32,
    sets: &[&[LinkFaultEvent]],
) -> Cell {
    let (cfg, traffic_seed) = cell_setup(cc, mode, scenario);
    let full = simulator(cc, cfg, traffic_seed, cc.inject_cycles, cc.drain_cycles);
    let mut net = Network::new(cfg, cc.router_kind);
    let mut src = source(cc, traffic_seed, net.topology().grid());
    let mut order: Vec<(Cycle, usize)> = sets
        .iter()
        .enumerate()
        .filter_map(|(i, set)| first_onset(set).map(|t| (t, i)))
        .collect();
    order.sort_unstable();

    let mut siblings: Vec<Option<Measured>> = vec![None; sets.len()];
    let mut ended = None;
    let mut stepped = 0;
    for (onset, i) in order {
        let before = net.cycle();
        let (report, outcome) = simulator(cc, cfg, traffic_seed, onset, 0).run_on(
            &mut net,
            &mut NullStream,
            |cycle, out| src.tick_into(cycle, out),
        );
        stepped += net.cycle() - before;
        if outcome != SimOutcome::Completed {
            ended = Some(Measured::of(&net, &report, outcome));
            break;
        }
        assert_eq!(net.cycle(), onset, "the baseline stops at the onset");
        let carry_on = (net.clone(), src.clone());
        net.schedule_link_faults(sets[i]);
        let (report, outcome) = full.run_on(&mut net, &mut NullStream, |cycle, out| {
            src.tick_into(cycle, out)
        });
        stepped += net.cycle() - onset;
        siblings[i] = Some(Measured::of(&net, &report, outcome));
        (net, src) = carry_on;
    }
    let baseline = ended.unwrap_or_else(|| {
        let before = net.cycle();
        let (report, outcome) = full.run_on(&mut net, &mut NullStream, |cycle, out| {
            src.tick_into(cycle, out)
        });
        stepped += net.cycle() - before;
        Measured::of(&net, &report, outcome)
    });
    Cell {
        siblings: siblings
            .into_iter()
            .map(|s| s.unwrap_or_else(|| baseline.clone()))
            .collect(),
        baseline,
        stepped,
    }
}

/// The cycle a fault set's first link dies (`None` for no faults).
fn first_onset(set: &[LinkFaultEvent]) -> Option<Cycle> {
    set.iter().map(|f| f.cycle).min()
}

/// Classify a finished run: whether it drained, whether the flight
/// record of an undrained run named a circular wait, whether packets
/// were lost or misdelivered, and its mean latency against the
/// fault-free baseline (both ×100; a baseline of 0 never degrades).
fn classify(
    drained: bool,
    circular_wait: bool,
    lost: bool,
    latency_x100: u64,
    baseline_x100: u64,
    threshold_pct: u64,
) -> Outcome {
    if !drained {
        return if circular_wait {
            Outcome::Deadlocked
        } else {
            Outcome::LostPackets
        };
    }
    if lost {
        return Outcome::LostPackets;
    }
    if baseline_x100 > 0 && latency_x100 * 100 > baseline_x100 * threshold_pct {
        return Outcome::Degraded;
    }
    Outcome::DeliveredAll
}

/// The fault sets: one per (faults, scenario), shared by every mode,
/// indexed `(faults − 1) × scenarios_per_point + scenario`.
fn fault_sets(cc: &CampaignConfig, pool: &LinkPool) -> Vec<Vec<LinkFaultEvent>> {
    let mut sets = Vec::new();
    for faults in 1..=cc.max_faults {
        for sc in 0..cc.scenarios_per_point {
            sets.push(pool.sample(
                mix(&[cc.seed, 0xFA_17, faults as u64, sc as u64]),
                faults as usize,
                cc.inject_cycles,
            ));
        }
    }
    sets
}

/// Run the full campaign: every (mode × scenario) cell — its fault-free
/// baseline and every fault count — with each faulted run classified
/// against its cell's baseline.
pub fn run_campaign(cc: &CampaignConfig) -> Result<CampaignRun, String> {
    cc.validate()?;
    let started = std::time::Instant::now();
    let fault_sets = fault_sets(cc, &LinkPool::new(&cc.base));
    let spp = cc.scenarios_per_point as usize;
    let sets_of = |sc: u32| -> Vec<&[LinkFaultEvent]> {
        (0..cc.max_faults as usize)
            .map(|f| fault_sets[f * spp + sc as usize].as_slice())
            .collect()
    };

    let cells: Vec<(RoutingMode, u32)> = cc
        .modes
        .iter()
        .flat_map(|&m| (0..cc.scenarios_per_point).map(move |s| (m, s)))
        .collect();
    let runs = run_batch(cells.clone(), cc.threads, |(mode, sc)| {
        run_cell(cc, mode, sc, &sets_of(sc))
    });

    // Placed by index: results run (mode, faults, scenario), cells
    // (mode, scenario).
    let mut results = Vec::with_capacity(runs.len() * cc.max_faults as usize);
    for (m, &mode) in cc.modes.iter().enumerate() {
        for faults in 1..=cc.max_faults {
            let f = (faults - 1) as usize;
            for sc in 0..cc.scenarios_per_point {
                let cell = &runs[m * spp + sc as usize];
                results.push(cell.siblings[f].result(
                    cc,
                    mode,
                    faults,
                    fault_sets[f * spp + sc as usize].len(),
                    sc,
                    cell.baseline.mean_latency_x100,
                ));
            }
        }
    }

    let elapsed_ms = started.elapsed().as_millis().max(1) as u64;
    let total_runs = (cells.len() + results.len()) as f64;
    Ok(CampaignRun {
        config: cc.clone(),
        baselines: cells
            .iter()
            .zip(&runs)
            .map(|(&(mode, _), cell)| (mode, cell.baseline.mean_latency_x100))
            .collect(),
        results,
        elapsed_ms,
        scenarios_per_sec: total_runs * 1000.0 / elapsed_ms as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_names_the_four_outcomes() {
        // An undrained run is judged by its flight record alone.
        assert_eq!(classify(false, true, false, 0, 0, 150), Outcome::Deadlocked);
        assert_eq!(
            classify(false, false, false, 0, 0, 150),
            Outcome::LostPackets
        );
        // A drained run that lost packets is lost however fast it was.
        assert_eq!(
            classify(true, false, true, 2_000, 2_000, 150),
            Outcome::LostPackets
        );
        assert_eq!(
            classify(true, false, false, 2_000, 2_000, 150),
            Outcome::DeliveredAll
        );
        assert_eq!(
            classify(true, false, false, 9_000, 2_000, 150),
            Outcome::Degraded
        );
    }

    #[test]
    fn degraded_starts_strictly_past_the_threshold() {
        // Baseline 20.00 cycles at 150 %: 30.00 is still within, 30.01 is not.
        assert_eq!(
            classify(true, false, false, 3_000, 2_000, 150),
            Outcome::DeliveredAll
        );
        assert_eq!(
            classify(true, false, false, 3_001, 2_000, 150),
            Outcome::Degraded
        );
        // Nothing delivered fault-free: no baseline to degrade from.
        assert_eq!(
            classify(true, false, false, 3_001, 0, 150),
            Outcome::DeliveredAll
        );
    }

    use noc_types::{Direction, TopologySpec};

    /// The reference: how every scenario ran before cells forked — a
    /// network built from the scenario's own fault plan, run from
    /// cycle 0.
    fn replay(
        cc: &CampaignConfig,
        mode: RoutingMode,
        scenario: u32,
        set: &[LinkFaultEvent],
    ) -> Measured {
        let (cfg, traffic_seed) = cell_setup(cc, mode, scenario);
        let plan = FaultPlan::none().with_link_faults(set.to_vec());
        let mut net = Network::with_faults(cfg, cc.router_kind, &plan);
        let mut src = source(cc, traffic_seed, net.topology().grid());
        let (report, outcome) = simulator(cc, cfg, traffic_seed, cc.inject_cycles, cc.drain_cycles)
            .run_on(&mut net, &mut NullStream, |cycle, out| {
                src.tick_into(cycle, out)
            });
        Measured::of(&net, &report, outcome)
    }

    /// Run one cell both ways: every sibling and the baseline must equal
    /// the replay reference, and the cell must have stepped exactly the
    /// reference's cycles less every shared prefix — Σ `cycles_run` −
    /// Σ first onsets. Returns the reference baseline and siblings.
    fn assert_cell_matches_replay(
        label: &str,
        cc: &CampaignConfig,
        mode: RoutingMode,
        scenario: u32,
        sets: &[&[LinkFaultEvent]],
    ) -> (Measured, Vec<Measured>, usize) {
        let cell = run_cell(cc, mode, scenario, sets);
        let baseline = replay(cc, mode, scenario, &[]);
        assert_eq!(cell.baseline, baseline, "{label}: baseline {scenario}");
        let mut expect_stepped = baseline.cycles_run;
        let mut siblings = Vec::new();
        let mut unreached = 0;
        for (i, set) in sets.iter().enumerate() {
            let reference = replay(cc, mode, scenario, set);
            assert_eq!(
                cell.siblings[i], reference,
                "{label}: {mode:?} scenario {scenario}, set {i} {set:?}"
            );
            // A sibling shares the baseline's first `t` cycles; one whose
            // onset the baseline never reached (the watchdog ended it
            // first) is the baseline's run and costs nothing.
            match first_onset(set) {
                Some(t) if t < baseline.cycles_run => expect_stepped += reference.cycles_run - t,
                Some(_) => unreached += 1,
                None => {}
            }
            siblings.push(reference);
        }
        assert_eq!(cell.stepped, expect_stepped, "{label}: cycles stepped");
        (baseline, siblings, unreached)
    }

    /// `run_campaign` against the replay reference, every field of every
    /// result and baseline. Returns how many siblings had an onset their
    /// baseline never reached.
    fn assert_campaign_matches_replay(label: &str, cc: &CampaignConfig) -> usize {
        let run = run_campaign(cc).expect("campaign runs");
        let sets = fault_sets(cc, &LinkPool::new(&cc.base));
        let spp = cc.scenarios_per_point as usize;
        let mut expected = Vec::new();
        let mut baselines = Vec::new();
        let mut per_cell = Vec::new();
        let mut unreached = 0;
        for &mode in &cc.modes {
            for sc in 0..cc.scenarios_per_point {
                let cell_sets: Vec<&[LinkFaultEvent]> = (0..cc.max_faults as usize)
                    .map(|f| sets[f * spp + sc as usize].as_slice())
                    .collect();
                let (baseline, siblings, skipped) =
                    assert_cell_matches_replay(label, cc, mode, sc, &cell_sets);
                unreached += skipped;
                baselines.push((mode, baseline.mean_latency_x100));
                per_cell.push((baseline, siblings));
            }
        }
        for (m, &mode) in cc.modes.iter().enumerate() {
            for faults in 1..=cc.max_faults {
                let f = (faults - 1) as usize;
                for sc in 0..cc.scenarios_per_point {
                    let (baseline, siblings) = &per_cell[m * spp + sc as usize];
                    expected.push(siblings[f].result(
                        cc,
                        mode,
                        faults,
                        sets[f * spp + sc as usize].len(),
                        sc,
                        baseline.mean_latency_x100,
                    ));
                }
            }
        }
        let fields = |r: &ScenarioResult| {
            (
                (r.mode, r.faults, r.placed, r.scenario, r.outcome),
                (r.offered, r.delivered, r.mean_latency_x100, r.drained),
                (r.cycles_run, r.wait_cycle.clone()),
            )
        };
        assert_eq!(run.baselines, baselines, "{label}: baselines");
        assert_eq!(run.results.len(), expected.len(), "{label}: result count");
        for (got, want) in run.results.iter().zip(&expected) {
            assert_eq!(fields(got), fields(want), "{label}");
        }
        unreached
    }

    fn small(topology: TopologySpec, k: u8) -> CampaignConfig {
        let mut base = NetworkConfig::paper();
        base.mesh_k = k;
        base.topology = topology;
        let mut cc = CampaignConfig::quick(base);
        cc.scenarios_per_point = 3;
        cc.max_faults = 3;
        cc.inject_cycles = 60;
        cc.drain_cycles = 1_500;
        cc.stall_cycles = 400;
        cc.seed = 0xF0_12C;
        cc.threads = 1;
        cc
    }

    #[test]
    fn forked_cells_equal_replayed_scenarios_on_every_family() {
        let parse = |arg: &str, k| TopologySpec::parse_arg(arg, k).expect("spec parses");
        for (label, k, topology) in [
            ("mesh", 4, TopologySpec::Mesh { w: 4, h: 4 }),
            ("torus", 4, TopologySpec::Torus { w: 4, h: 4 }),
            ("cutmesh", 4, parse("cutmesh2:5", 4)),
            ("chipletmesh2x4", 8, parse("chipletmesh2x4", 8)),
            ("chipletstar", 4, parse("chipletstar2x2", 4)),
        ] {
            assert_eq!(
                assert_campaign_matches_replay(label, &small(topology, k)),
                0
            );
        }
    }

    #[test]
    fn forks_at_onset_zero_and_past_a_watchdog_end_equal_replay() {
        let mesh = TopologySpec::Mesh { w: 4, h: 4 };
        // One injection cycle: every fault lands at cycle 0, so every
        // fork is a zero-length advance of a fresh network.
        let mut cc = small(mesh, 4);
        cc.inject_cycles = 1;
        assert_campaign_matches_replay("every onset at 0", &cc);
        // A stall horizon shorter than a hop: the watchdog ends runs in
        // the injection phase, some baselines before a sibling's onset.
        let mut cc = small(mesh, 4);
        cc.stall_cycles = 2;
        let unreached = assert_campaign_matches_replay("watchdog inside the injection phase", &cc);
        assert!(unreached > 0, "some baseline must end before an onset");
    }

    #[test]
    fn tied_and_unordered_onsets_fork_in_onset_order() {
        let cc = small(TopologySpec::Mesh { w: 4, h: 4 }, 4);
        let cut = |router: u16, dir, cycle| LinkFaultEvent {
            cycle,
            router: RouterId(router),
            dir,
        };
        let a = [cut(5, Direction::East, 20)];
        let b = [cut(9, Direction::East, 35), cut(6, Direction::South, 20)];
        let c = [cut(1, Direction::East, 0)];
        let d = [cut(10, Direction::North, 20)];
        let sets: [&[LinkFaultEvent]; 5] = [&a, &b, &[], &c, &d];
        for mode in [RoutingMode::Static, RoutingMode::Adaptive] {
            assert_cell_matches_replay("tied onsets", &cc, mode, 1, &sets);
        }
    }
}
