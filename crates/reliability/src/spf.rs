//! Silicon Protection Factor (Section VIII, Table III).
//!
//! `SPF = mean faults-to-failure / (1 + area overhead)`. The paper
//! derives the mean analytically as the midpoint of the minimum and
//! maximum number of faults that cause failure; we reproduce that
//! analysis (parameterised over the router configuration, with the
//! crossbar bounds computed from the real secondary-path topology) and
//! additionally estimate the *expected* faults-to-failure by Monte-Carlo
//! injection into the actual fault-site graph — the experimental
//! methodology BulletProof and Vicis used.

use crate::gates::{Component, GateLibrary};
use noc_faults::{FaultMap, FaultSite};
use noc_types::rng::Rng;
use noc_types::{PortId, RouterConfig};
use shield_router::Crossbar;

/// Per-stage and overall faults-to-failure bounds (Section VIII-A..E).
#[derive(Debug, Clone)]
pub struct SpfAnalysis {
    /// Minimum faults to cause failure, per stage (RC, VA, SA, XB).
    pub stage_min: [u32; 4],
    /// Maximum faults *tolerated*, per stage.
    pub stage_max_tolerated: [u32; 4],
    /// Overall minimum faults to cause failure.
    pub min_to_fail: u32,
    /// Overall maximum faults tolerated.
    pub max_tolerated: u32,
    /// Overall maximum faults to cause failure (`max_tolerated + 1`).
    pub max_to_fail: u32,
    /// The paper's mean: `(min + max_to_fail) / 2`.
    pub mean_faults_to_failure: f64,
    /// Area overhead used in the SPF denominator.
    pub area_overhead: f64,
    /// `SPF = mean / (1 + area overhead)`.
    pub spf: f64,
    /// Maximum primary-mux faults the *reconstructed topology* actually
    /// tolerates (exhaustive search). The paper states 2 for its Figure-6
    /// crossbar, but the same topology also survives the {M1, M3, M5}
    /// triple; the analytic SPF above uses the paper's own bound so
    /// Table III is reproduced, and this field records the stronger
    /// topology-derived bound (see EXPERIMENTS.md).
    pub xb_max_tolerated_topology: u32,
}

impl SpfAnalysis {
    /// Run the analytic Section-VIII analysis.
    ///
    /// ```
    /// use noc_reliability::SpfAnalysis;
    /// use noc_types::RouterConfig;
    ///
    /// let a = SpfAnalysis::analytic(&RouterConfig::paper(), 0.31);
    /// assert_eq!(a.mean_faults_to_failure, 15.0);   // (2 + 28) / 2
    /// assert!((a.spf - 11.45).abs() < 0.01);        // paper: 11.4
    /// ```
    pub fn analytic(cfg: &RouterConfig, area_overhead: f64) -> Self {
        let p = cfg.ports as u32;
        let v = cfg.vcs as u32;
        let xbar = Crossbar::new(cfg.ports);

        // RC (VIII-A): one duplicate per port → tolerate one fault per
        // port; two faults on one port (primary + duplicate) fail.
        let rc = (2, p);

        // VA (VIII-B): an affected VC borrows from the other v−1 VCs of
        // its port → tolerate (v−1) per port; all v sets of one port
        // faulty fails.
        let va = (v, (v - 1) * p);

        // SA (VIII-C): bypass per port → one fault per arbiter
        // tolerated; arbiter + bypass of one port fails.
        let sa = (2, p);

        // XB (VIII-D): the minimum is computed from the topology
        // (exhaustive pair search); the maximum uses the paper's own
        // stated bound of 2 so that the Table-III arithmetic is
        // reproduced exactly. The (slightly larger) topology-derived
        // maximum is reported separately.
        let (xb_min, xb_max_topology) = xb_bounds(cfg, &xbar);
        let xb = (xb_min, 2u32);

        let stage_min = [rc.0, va.0, sa.0, xb.0];
        let stage_max_tolerated = [rc.1, va.1, sa.1, xb.1];
        let min_to_fail = *stage_min.iter().min().expect("four stages");
        let max_tolerated: u32 = stage_max_tolerated.iter().sum();
        let max_to_fail = max_tolerated + 1;
        let mean = (min_to_fail + max_to_fail) as f64 / 2.0;
        SpfAnalysis {
            stage_min,
            stage_max_tolerated,
            min_to_fail,
            max_tolerated,
            max_to_fail,
            mean_faults_to_failure: mean,
            area_overhead,
            spf: mean / (1.0 + area_overhead),
            xb_max_tolerated_topology: xb_max_topology,
        }
    }
}

/// `(min faults to fail, max primary-mux faults tolerated)` for the
/// crossbar stage, by exhaustive search over the real topology.
fn xb_bounds(cfg: &RouterConfig, xbar: &Crossbar) -> (u32, u32) {
    let p = cfg.ports;
    // Max tolerated: the largest set of primary-mux faults such that
    // every output is still reachable.
    let mut max_tolerated = 0u32;
    for mask in 0u32..(1 << p) {
        let sites: Vec<FaultSite> = (0..p)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| FaultSite::XbMux {
                out_port: PortId(i as u8),
            })
            .collect();
        let count = sites.len() as u32;
        let map = FaultMap::from_sites(cfg, sites);
        let alive = PortId::all(p).all(|o| xbar.path_to(&map, o).is_some());
        if alive {
            max_tolerated = max_tolerated.max(count);
        }
    }
    // Min to fail: smallest set of XB-stage sites (muxes, secondaries,
    // SA2 arbiters) that makes some output unreachable. Any single
    // fault is tolerated by construction; search pairs.
    let all_sites = FaultSite::enumerate_stage(cfg, noc_faults::PipelineStage::Xb);
    let single_fatal = all_sites.iter().any(|&s| {
        let map = FaultMap::from_sites(cfg, [s]);
        PortId::all(p).any(|o| xbar.path_to(&map, o).is_none())
    });
    if single_fatal {
        return (1, max_tolerated);
    }
    let mut pair_fatal = false;
    'outer: for (i, &a) in all_sites.iter().enumerate() {
        for &b in &all_sites[i + 1..] {
            let map = FaultMap::from_sites(cfg, [a, b]);
            if PortId::all(p).any(|o| xbar.path_to(&map, o).is_none()) {
                pair_fatal = true;
                break 'outer;
            }
        }
    }
    (if pair_fatal { 2 } else { 3 }, max_tolerated)
}

/// Monte-Carlo estimate of the expected faults-to-failure: inject
/// uniformly-random distinct faults (over *all* sites, correction
/// circuitry included) until the router fails; average over `trials`.
pub fn monte_carlo_faults_to_failure(
    cfg: &RouterConfig,
    trials: usize,
    seed: u64,
) -> MonteCarloSpf {
    let xbar = Crossbar::new(cfg.ports);
    let sites = FaultSite::enumerate(cfg);
    let mut rng = Rng::seeded(seed);
    let mut counts: Vec<u32> = Vec::with_capacity(trials);
    for _ in 0..trials {
        let mut order = sites.clone();
        rng.shuffle(&mut order);
        let mut map = FaultMap::healthy(cfg);
        let mut n = 0u32;
        for site in order {
            map.inject(site);
            n += 1;
            if map.router_failed(cfg, |o| xbar.secondary_source(o)) {
                break;
            }
        }
        counts.push(n);
    }
    let sum: u64 = counts.iter().map(|&c| c as u64).sum();
    let mean = sum as f64 / trials.max(1) as f64;
    let min = counts.iter().copied().min().unwrap_or(0);
    let max = counts.iter().copied().max().unwrap_or(0);
    MonteCarloSpf {
        trials,
        mean_faults_to_failure: mean,
        min_observed: min,
        max_observed: max,
    }
}

/// The FIT-bearing hardware behind one fault site, used to weight the
/// physical Monte-Carlo: TDDB strikes a component with probability
/// proportional to its (transistor count ⇒) FIT.
pub fn site_component(site: FaultSite, cfg: &RouterConfig, dest_bits: u32) -> Component {
    let v = cfg.vcs as u32;
    let p = cfg.ports as u32;
    let w = cfg.flit_width_bits as u32;
    match site {
        // An RC unit is two comparators; model as one 2×-width comparator.
        FaultSite::RcPrimary { .. } | FaultSite::RcDuplicate { .. } => Component::Comparator {
            bits: 2 * dest_bits,
        },
        // A VA1 *set* is `po` v:1 arbiters; fold into one arbiter with
        // p·v inputs (FIT is nearly linear in inputs).
        FaultSite::Va1ArbiterSet { .. } => Component::Arbiter { inputs: p * v },
        FaultSite::Va2Arbiter { .. } => Component::Arbiter { inputs: p * v },
        FaultSite::Sa1Arbiter { .. } => Component::Arbiter { inputs: v },
        // Bypass = 2:1 mux + default-winner register bits.
        FaultSite::Sa1Bypass { .. } => Component::Mux {
            inputs: 2,
            width: 2,
        },
        FaultSite::Sa2Arbiter { .. } => Component::Arbiter { inputs: p },
        FaultSite::XbMux { .. } => Component::Mux {
            inputs: p,
            width: w,
        },
        // Secondary path = 2:1 output mux + a demux branch per bit.
        FaultSite::XbSecondary { .. } => Component::Mux {
            inputs: 3,
            width: w,
        },
    }
}

/// FIT-weighted Monte-Carlo faults-to-failure: each successive fault
/// strikes a (still-healthy) site with probability proportional to that
/// site's FIT — the physically-grounded version of the uniform
/// experiment, since TDDB hits big structures (the crossbar muxes) far
/// more often than a flip-flop.
pub fn monte_carlo_weighted(
    cfg: &RouterConfig,
    lib: &GateLibrary,
    dest_bits: u32,
    trials: usize,
    seed: u64,
) -> MonteCarloSpf {
    let xbar = Crossbar::new(cfg.ports);
    let sites = FaultSite::enumerate(cfg);
    let weights: Vec<f64> = sites
        .iter()
        .map(|&s| lib.fit(site_component(s, cfg, dest_bits)))
        .collect();
    let mut rng = Rng::seeded(seed);
    let mut counts: Vec<u32> = Vec::with_capacity(trials);
    for _ in 0..trials {
        let mut alive: Vec<usize> = (0..sites.len()).collect();
        let mut map = FaultMap::healthy(cfg);
        let mut n = 0u32;
        while !alive.is_empty() {
            let total: f64 = alive.iter().map(|&i| weights[i]).sum();
            let mut draw = rng.next_f64() * total;
            let mut chosen = alive.len() - 1;
            for (pos, &i) in alive.iter().enumerate() {
                draw -= weights[i];
                if draw <= 0.0 {
                    chosen = pos;
                    break;
                }
            }
            let site_ix = alive.swap_remove(chosen);
            map.inject(sites[site_ix]);
            n += 1;
            if map.router_failed(cfg, |o| xbar.secondary_source(o)) {
                break;
            }
        }
        counts.push(n);
    }
    let sum: u64 = counts.iter().map(|&c| c as u64).sum();
    MonteCarloSpf {
        trials,
        mean_faults_to_failure: sum as f64 / trials.max(1) as f64,
        min_observed: counts.iter().copied().min().unwrap_or(0),
        max_observed: counts.iter().copied().max().unwrap_or(0),
    }
}

/// Result of the Monte-Carlo faults-to-failure experiment.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloSpf {
    /// Number of random fault sequences.
    pub trials: usize,
    /// Mean faults injected before failure.
    pub mean_faults_to_failure: f64,
    /// Smallest observed faults-to-failure.
    pub min_observed: u32,
    /// Largest observed faults-to-failure.
    pub max_observed: u32,
}

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct SpfComparison {
    /// Architecture name.
    pub architecture: &'static str,
    /// Area overhead of the fault-tolerance circuitry (None = not
    /// reported).
    pub area_overhead: Option<f64>,
    /// Mean faults to cause failure.
    pub faults_to_failure: f64,
    /// SPF (for RoCo this is the paper's `< 5.5` upper bound).
    pub spf: f64,
    /// True when the SPF value is an upper bound rather than a point.
    pub upper_bound: bool,
}

/// The published comparison points the paper tabulates (Table III):
/// BulletProof (the design with comparable area overhead), Vicis and
/// RoCo, taken from their respective papers as cited.
pub const PUBLISHED_COMPARATORS: [SpfComparison; 3] = [
    SpfComparison {
        architecture: "BulletProof",
        area_overhead: Some(0.52),
        faults_to_failure: 3.15,
        spf: 2.07,
        upper_bound: false,
    },
    SpfComparison {
        architecture: "Vicis",
        area_overhead: Some(0.42),
        faults_to_failure: 9.3,
        spf: 6.55,
        upper_bound: false,
    },
    SpfComparison {
        architecture: "RoCo",
        area_overhead: None,
        faults_to_failure: 5.5,
        spf: 5.5,
        upper_bound: true,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_AREA: f64 = 0.31;

    #[test]
    fn section_viii_bounds_for_the_paper_router() {
        let a = SpfAnalysis::analytic(&RouterConfig::paper(), PAPER_AREA);
        assert_eq!(a.stage_min, [2, 4, 2, 2]);
        assert_eq!(a.stage_max_tolerated, [5, 15, 5, 2]);
        assert_eq!(a.min_to_fail, 2);
        assert_eq!(a.max_tolerated, 27);
        assert_eq!(a.max_to_fail, 28);
        assert_eq!(a.mean_faults_to_failure, 15.0);
    }

    #[test]
    fn paper_spf_value() {
        let a = SpfAnalysis::analytic(&RouterConfig::paper(), PAPER_AREA);
        // 15 / 1.31 = 11.45; the paper prints 11.4 (and 11 in the text).
        assert!((a.spf - 11.45).abs() < 0.05, "spf = {}", a.spf);
    }

    #[test]
    fn two_vc_router_has_lower_spf() {
        // Section VIII-E: with 2 VCs the SPF drops to ≈7.
        let mut cfg = RouterConfig::paper();
        cfg.vcs = 2;
        let a = SpfAnalysis::analytic(&cfg, PAPER_AREA);
        assert_eq!(a.stage_max_tolerated[1], 5); // (2−1)·5
        assert!(a.spf < 9.0 && a.spf > 6.0, "spf = {}", a.spf);
        let four = SpfAnalysis::analytic(&RouterConfig::paper(), PAPER_AREA);
        assert!(a.spf < four.spf);
    }

    #[test]
    fn more_vcs_raise_spf() {
        // Section VIII-E: SPF grows beyond 11 with more than 4 VCs.
        let mut cfg = RouterConfig::paper();
        cfg.vcs = 8;
        let a = SpfAnalysis::analytic(&cfg, PAPER_AREA);
        let four = SpfAnalysis::analytic(&RouterConfig::paper(), PAPER_AREA);
        assert!(a.spf > four.spf);
    }

    #[test]
    fn proposed_router_beats_all_published_comparators() {
        let a = SpfAnalysis::analytic(&RouterConfig::paper(), PAPER_AREA);
        for c in PUBLISHED_COMPARATORS {
            assert!(
                a.spf > c.spf,
                "proposed ({}) must exceed {} ({})",
                a.spf,
                c.architecture,
                c.spf
            );
        }
    }

    #[test]
    fn monte_carlo_respects_structural_bounds() {
        // The Monte-Carlo injects over *all* 75 sites (the paper's
        // scenario counting covers a subset), so its mean exceeds the
        // analytic midpoint; the structural lower bound still holds.
        let cfg = RouterConfig::paper();
        let a = SpfAnalysis::analytic(&cfg, PAPER_AREA);
        let mc = monte_carlo_faults_to_failure(&cfg, 2_000, 42);
        assert!(mc.min_observed >= a.min_to_fail, "no single fault is fatal");
        let total_sites = FaultSite::enumerate(&cfg).len() as f64;
        assert!(mc.mean_faults_to_failure > a.min_to_fail as f64);
        assert!(mc.mean_faults_to_failure < total_sites);
        assert!(mc.max_observed as usize <= FaultSite::enumerate(&cfg).len());
    }

    #[test]
    fn weighted_monte_carlo_fails_faster_than_uniform() {
        // TDDB strikes the 204.8-FIT crossbar muxes far more often than
        // 0.5-FIT flip-flops; since the crossbar tolerates only two mux
        // faults, FIT weighting lowers the expected faults-to-failure.
        let cfg = RouterConfig::paper();
        let lib = GateLibrary::paper();
        let uniform = monte_carlo_faults_to_failure(&cfg, 3_000, 3);
        let weighted = monte_carlo_weighted(&cfg, &lib, 6, 3_000, 3);
        assert!(
            weighted.mean_faults_to_failure < uniform.mean_faults_to_failure,
            "weighted {} vs uniform {}",
            weighted.mean_faults_to_failure,
            uniform.mean_faults_to_failure
        );
        assert!(
            weighted.min_observed >= 2,
            "still no single point of failure"
        );
    }

    #[test]
    fn site_weights_are_positive_and_ranked() {
        let cfg = RouterConfig::paper();
        let lib = GateLibrary::paper();
        let mux = lib.fit(site_component(
            FaultSite::XbMux {
                out_port: PortId(0),
            },
            &cfg,
            6,
        ));
        let dff_mux = lib.fit(site_component(
            FaultSite::Sa1Bypass { port: PortId(0) },
            &cfg,
            6,
        ));
        assert!(
            mux > 50.0 * dff_mux,
            "crossbar muxes dominate: {mux} vs {dff_mux}"
        );
        for s in FaultSite::enumerate(&cfg) {
            assert!(lib.fit(site_component(s, &cfg, 6)) > 0.0, "{s}");
        }
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let cfg = RouterConfig::paper();
        let a = monte_carlo_faults_to_failure(&cfg, 200, 7);
        let b = monte_carlo_faults_to_failure(&cfg, 200, 7);
        assert_eq!(a.mean_faults_to_failure, b.mean_faults_to_failure);
    }

    #[test]
    fn xb_bounds_of_the_reconstructed_topology() {
        let cfg = RouterConfig::paper();
        let (min, max) = xb_bounds(&cfg, &Crossbar::new(cfg.ports));
        assert_eq!(min, 2, "two faults (e.g. mux + its secondary) fail");
        // The paper states 2 (its M2+M4 example); the same topology in
        // fact also survives the alternating {M1, M3, M5} triple.
        assert_eq!(max, 3, "topology-derived maximum");
        let a = SpfAnalysis::analytic(&cfg, PAPER_AREA);
        assert_eq!(
            a.stage_max_tolerated[3], 2,
            "Table III uses the paper's bound"
        );
        assert_eq!(a.xb_max_tolerated_topology, 3);
    }
}
