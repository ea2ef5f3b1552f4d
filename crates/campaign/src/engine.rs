//! Campaign execution: thousands of seeded fault scenarios per
//! configuration, run in parallel over serial networks and classified.
//!
//! A scenario is a [`Simulator`] run — no warm-up, `inject_cycles` of
//! measurement, `drain_cycles` of drain, `stall_cycles` forwarded as
//! the stall horizon — on the network built here from the scenario's
//! [`FaultPlan`]; the run loop is the simulator's (ARCHITECTURE.md §2).
//!
//! Every scenario is a fully deterministic function of the campaign
//! seed, the fault count and the scenario index — the same fault sets
//! and the same traffic are replayed under every routing mode, so the
//! static-vs-adaptive comparison is paired. Parallelism comes from
//! [`run_batch`] over independent scenarios (each simulated serially),
//! which keeps results bit-identical at any thread count.

use crate::scenario::LinkPool;
use noc_faults::{FaultPlan, LinkFaultEvent};
use noc_sim::{run_batch, Network, SimOutcome, Simulator};
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

    fn validate(&self) -> Result<(), String> {
        if self.modes.is_empty() {
            return Err("campaign needs at least one routing mode".into());
        }
        if self.max_faults == 0 || self.scenarios_per_point == 0 {
            return Err("campaign needs at least one fault point and one scenario".into());
        }
        if self.inject_cycles == 0 || self.rate_permille == 0 {
            return Err("campaign needs non-zero traffic".into());
        }
        self.base.validate()
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

/// Deterministic uniform-random source over all routers.
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

/// Simulate and classify one scenario: `set` is the fault set behind
/// the curve point `faults` (empty for a fault-free baseline run, which
/// passes `baseline_x100 = 0` and is read for its latency only).
fn run_one(
    cc: &CampaignConfig,
    mode: RoutingMode,
    faults: u32,
    scenario: u32,
    set: &[LinkFaultEvent],
    baseline_x100: u64,
) -> ScenarioResult {
    let mut cfg = cc.base;
    cfg.routing = mode;
    let plan = FaultPlan::none().with_link_faults(set.to_vec());
    let mut net = Network::with_faults(cfg, cc.router_kind, &plan);
    // The traffic seed depends on the scenario index only, so a
    // baseline pairs exactly with the faulted runs it classifies.
    let traffic_seed = mix(&[cc.seed, 0x7_72AF, scenario as u64]);
    let mut src = Source {
        rng: traffic_seed,
        grid: net.topology().grid(),
        rate_permille: cc.rate_permille,
        next: 0,
    };
    let phases = SimConfig {
        warmup_cycles: 0,
        measure_cycles: cc.inject_cycles,
        drain_cycles: cc.drain_cycles,
        seed: traffic_seed,
    };
    // The campaign's stall rule is `cycles_run − last_activity >
    // stall_cycles`; the simulator compares the cycle it just stepped,
    // which is `cycles_run − 1`.
    let (report, outcome) = Simulator::new(cfg, phases, cc.router_kind, plan)
        .with_watchdog(cc.stall_cycles.saturating_sub(1))
        .run_on(&mut net, |cycle, out| src.tick_into(cycle, out));
    let drained = outcome == SimOutcome::DrainedEarly;
    let deliveries = net.deliveries();
    let mean_latency_x100 = if deliveries.is_empty() {
        0
    } else {
        let total: u64 = deliveries
            .iter()
            .map(|d| d.ejected_at.saturating_sub(d.created_at))
            .sum();
        total * 100 / deliveries.len() as u64
    };
    // A run that reached its horizon undrained has no flight record in
    // its report (only the watchdog attaches one), so ask the network.
    let wait_cycle: Vec<String> = if drained {
        Vec::new()
    } else {
        net.flight_record(report.cycles_run)
            .cycle_edges
            .map(|edges| edges.iter().map(|e| e.to_string()).collect())
            .unwrap_or_default()
    };
    ScenarioResult {
        mode,
        faults,
        placed: set.len() as u32,
        scenario,
        outcome: classify(
            drained,
            !wait_cycle.is_empty(),
            report.delivered < report.offered || report.misdelivered > 0,
            mean_latency_x100,
            baseline_x100,
            cc.degraded_threshold_pct,
        ),
        offered: report.offered,
        delivered: report.delivered,
        mean_latency_x100,
        drained,
        cycles_run: report.cycles_run,
        wait_cycle,
    }
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

/// Run the full campaign: fault-free baselines first, then every
/// (mode × fault count × scenario) cell, classified against the
/// baselines.
pub fn run_campaign(cc: &CampaignConfig) -> Result<CampaignRun, String> {
    cc.validate()?;
    let pool = LinkPool::new(&cc.base);
    if pool.is_empty() {
        return Err("topology has no links to fault".into());
    }
    let started = std::time::Instant::now();

    // Fault-free baselines: one per (mode, scenario) traffic stream.
    let base_jobs: Vec<(RoutingMode, u32)> = cc
        .modes
        .iter()
        .flat_map(|&m| (0..cc.scenarios_per_point).map(move |s| (m, s)))
        .collect();
    let base_x100 = run_batch(base_jobs.clone(), cc.threads, |(mode, sc)| {
        run_one(cc, mode, 0, sc, &[], 0).mean_latency_x100
    });
    let baseline_of = |mode: RoutingMode, sc: u32| -> u64 {
        let ix = cc.modes.iter().position(|&m| m == mode).unwrap_or(0);
        base_x100[ix * cc.scenarios_per_point as usize + sc as usize]
    };

    // Fault sets: one per (faults, scenario), shared by every mode.
    let mut fault_sets: Vec<Vec<LinkFaultEvent>> = Vec::new();
    for faults in 1..=cc.max_faults {
        for sc in 0..cc.scenarios_per_point {
            fault_sets.push(pool.sample(
                mix(&[cc.seed, 0xFA_17, faults as u64, sc as u64]),
                faults as usize,
                cc.inject_cycles,
            ));
        }
    }
    let set_of = |faults: u32, sc: u32| {
        &fault_sets[(faults - 1) as usize * cc.scenarios_per_point as usize + sc as usize]
    };

    let jobs: Vec<(RoutingMode, u32, u32)> = cc
        .modes
        .iter()
        .flat_map(|&m| {
            (1..=cc.max_faults)
                .flat_map(move |f| (0..cc.scenarios_per_point).map(move |s| (m, f, s)))
        })
        .collect();
    let results = run_batch(jobs, cc.threads, |(mode, faults, sc)| {
        run_one(
            cc,
            mode,
            faults,
            sc,
            set_of(faults, sc),
            baseline_of(mode, sc),
        )
    });

    let elapsed_ms = started.elapsed().as_millis().max(1) as u64;
    let total_runs = (base_x100.len() + results.len()) as f64;
    Ok(CampaignRun {
        config: cc.clone(),
        baselines: base_jobs
            .iter()
            .map(|&(mode, _)| mode)
            .zip(base_x100)
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
}
