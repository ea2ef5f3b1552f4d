//! The analytic experiments: Tables I–III, the MTTF equations, the
//! area/power and timing models, and the reliability sweeps built on
//! them. None simulates a network.

use crate::harness::{ExperimentScale, Options};
use crate::tables::Table;
use noc_reliability::inventory::{dest_bits, total_fit, PAPER_DEST_BITS};
use noc_reliability::{
    baseline_inventory, correction_inventory, derive_comparators, monte_carlo_faults_to_failure,
    monte_carlo_weighted, mttf_paper_eq5, AreaPowerModel, GateLibrary, MttfReport, SpfAnalysis,
    TimingModel, PUBLISHED_COMPARATORS,
};
use noc_types::RouterConfig;

/// Regenerates **Table I**: FIT values of the baseline pipeline stages.
pub(crate) fn table1(_: &Options) {
    let lib = GateLibrary::paper();
    let cfg = RouterConfig::paper();
    let stages = baseline_inventory(&cfg, PAPER_DEST_BITS);

    println!(
        "FIT-per-FET = {:.6} (FORC TDDB, Vdd=1V, T=300K, A_TDDB calibrated to the\n6-bit-comparator anchor of Table I)\n",
        lib.tddb.fit_per_fet()
    );

    let mut t = Table::new(
        "Table I: FIT values of baseline pipeline stages (5x5 router, 4 VCs, 8x8 mesh)",
        &["stage", "fundamental components", "FIT_stage", "paper"],
    );
    let paper = [117.0, 1478.0, 203.0, 1024.0];
    for (s, p) in stages.iter().zip(paper) {
        let parts: Vec<String> = s
            .items
            .iter()
            .map(|(c, n)| format!("{n} x {c:?} @ {:.1} FIT", lib.fit(*c)))
            .collect();
        t.row(&[
            s.stage.to_string(),
            parts.join("; "),
            format!("{:.1}", s.fit(&lib)),
            format!("{p:.0}"),
        ]);
    }
    t.print();
    let total = total_fit(&stages, &lib);
    println!(
        "\nTotal baseline pipeline FIT = {total:.1} (paper: 2822; the 3.5-FIT gap is the\npaper's own VA row arithmetic, 100*7.4 + 20*36.7 = 1474, printed as 1478 — see EXPERIMENTS.md)"
    );
}

/// Regenerates **Table II**: FIT rates of the correction circuitry.
pub(crate) fn table2(_: &Options) {
    let lib = GateLibrary::paper();
    let cfg = RouterConfig::paper();
    let stages = correction_inventory(&cfg, PAPER_DEST_BITS);

    let mut t = Table::new(
        "Table II: FIT rates of the correction circuitry",
        &["stage", "components", "FIT", "paper"],
    );
    let paper = [117.0, 60.0, 53.0, 416.0];
    for (s, p) in stages.iter().zip(paper) {
        let parts: Vec<String> = s
            .items
            .iter()
            .map(|(c, n)| format!("{n} x {c:?}"))
            .collect();
        t.row(&[
            s.stage.to_string(),
            parts.join("; "),
            format!("{:.1}", s.fit(&lib)),
            format!("{p:.0}"),
        ]);
    }
    t.print();
    println!(
        "\nTotal correction-circuitry FIT = {:.1} (paper: 646)",
        total_fit(&stages, &lib)
    );
}

/// Regenerates the **MTTF analysis** (Section VII, Equations 4–7): the
/// headline 6× reliability improvement.
pub(crate) fn mttf(_: &Options) {
    let r = MttfReport::paper();
    let mut t = Table::new(
        "MTTF analysis (Equations 4-7)",
        &["quantity", "value", "paper"],
    );
    t.row(&[
        "baseline pipeline FIT".into(),
        format!("{:.1}", r.baseline_fit),
        "2822".into(),
    ]);
    t.row(&[
        "correction circuitry FIT".into(),
        format!("{:.1}", r.correction_fit),
        "646".into(),
    ]);
    t.row(&[
        "MTTF baseline (Eq. 4)".into(),
        format!("{:.0} h", r.mttf_baseline_hours),
        "354,358 h".into(),
    ]);
    t.row(&[
        "MTTF protected (paper Eq. 5)".into(),
        format!("{:.0} h", r.mttf_protected_paper_hours),
        "2,190,696 h".into(),
    ]);
    t.row(&[
        "improvement (Eq. 7)".into(),
        format!("{:.2}x", r.improvement_paper),
        "~6x".into(),
    ]);
    t.row(&[
        "MTTF protected (textbook parallel)".into(),
        format!("{:.0} h", r.mttf_protected_textbook_hours),
        "-".into(),
    ]);
    t.row(&[
        "improvement (textbook)".into(),
        format!("{:.2}x", r.improvement_textbook),
        "-".into(),
    ]);
    t.print();
    println!(
        "\nNote: the paper's Equation 5 uses 1/l1 + 1/l2 + 1/(l1+l2); the textbook\ntwo-unit parallel system uses '-' for the last term. Both are reported; the\npaper's printed 2,190,696 h / 6x follow from its own equation (EXPERIMENTS.md)."
    );
}

/// Regenerates **Table III**: SPF comparison with BulletProof, Vicis and
/// RoCo, plus the Monte-Carlo faults-to-failure experiment.
pub(crate) fn table3_spf(opts: &Options) {
    let quick = opts.scale == ExperimentScale::Quick;
    let cfg = RouterConfig::paper();
    let analysis = SpfAnalysis::analytic(&cfg, 0.31);

    let mut breakdown = Table::new(
        "Section VIII: faults-to-failure bounds per stage",
        &["stage", "min faults to fail", "max faults tolerated"],
    );
    for (i, name) in ["RC", "VA", "SA", "XB"].iter().enumerate() {
        breakdown.row(&[
            name.to_string(),
            analysis.stage_min[i].to_string(),
            analysis.stage_max_tolerated[i].to_string(),
        ]);
    }
    breakdown.print();
    println!(
        "min {} / max tolerated {} / max to fail {} / mean {}\n(topology-derived XB max: {} — the reconstructed Figure-6 crossbar also\nsurvives the alternating mux triple; Table III uses the paper's bound of 2)\n",
        analysis.min_to_fail,
        analysis.max_tolerated,
        analysis.max_to_fail,
        analysis.mean_faults_to_failure,
        analysis.xb_max_tolerated_topology,
    );

    let mut t = Table::new(
        "Table III: SPF comparison",
        &[
            "architecture",
            "area overhead",
            "# faults to failure",
            "SPF",
        ],
    );
    for c in PUBLISHED_COMPARATORS {
        t.row(&[
            c.architecture.to_string(),
            c.area_overhead
                .map(|a| format!("{:.0}%", a * 100.0))
                .unwrap_or_else(|| "N/A".into()),
            format!("{:.2}", c.faults_to_failure),
            if c.upper_bound {
                format!("<{:.1}", c.spf)
            } else {
                format!("{:.2}", c.spf)
            },
        ]);
    }
    t.row(&[
        "Proposed Router".into(),
        format!("{:.0}%", analysis.area_overhead * 100.0),
        format!("{:.1}", analysis.mean_faults_to_failure),
        format!("{:.1}", analysis.spf),
    ]);
    t.print();
    println!("(paper: Proposed Router 31% / 15 / 11.4)\n");

    let mut derived = Table::new(
        "Comparator redundancy models: re-derived faults-to-failure",
        &["architecture", "model mean (exact)", "published"],
    );
    for d in derive_comparators() {
        derived.row(&[
            d.name.to_string(),
            format!("{:.2}", d.model_mean),
            format!("{:.2}", d.published),
        ]);
    }
    derived.print();
    println!("(each architecture's redundancy structure, injected to death — see\nnoc-reliability::comparators for the models)\n");

    let trials = if quick { 2_000 } else { 20_000 };
    let mc = monte_carlo_faults_to_failure(&cfg, trials, 0xD1E5);
    println!(
        "Monte-Carlo faults-to-failure over the full 75-site graph ({} trials):\n  mean {:.2}, min {}, max {} — the experimental methodology of BulletProof/\n  Vicis. It differs from the analytic min/max midpoint because random\n  sequences mix scenarios: some faults are never fatal alone (e.g. single\n  VA2 arbiters) while unlucky pairs fail early.",
        mc.trials, mc.mean_faults_to_failure, mc.min_observed, mc.max_observed
    );
    let weighted = monte_carlo_weighted(&cfg, &GateLibrary::paper(), 6, trials, 0xD1E5);
    println!(
        "FIT-weighted Monte-Carlo (fault probability ∝ component FIT):\n  mean {:.2}, min {}, max {} — TDDB strikes the large crossbar muxes far\n  more often than state flip-flops, so the physical expectation sits below\n  the uniform one (the XB stage tolerates only two mux faults).",
        weighted.mean_faults_to_failure, weighted.min_observed, weighted.max_observed
    );
}

/// Regenerates **Section VI-A**: area and power overhead of the
/// correction circuitry (paper: 28%/29% alone, 31%/30% with detection).
pub(crate) fn area_power(_: &Options) {
    let r = AreaPowerModel::paper().report();
    let mut t = Table::new(
        "Section VI-A: area and power overhead (gate-level accounting model)",
        &["quantity", "model", "paper"],
    );
    t.row(&[
        "area overhead, correction only".into(),
        format!("{:.1}%", r.area_overhead_correction * 100.0),
        "28%".into(),
    ]);
    t.row(&[
        "area overhead incl. detection".into(),
        format!("{:.1}%", r.area_overhead_total * 100.0),
        "31%".into(),
    ]);
    t.row(&[
        "power overhead, correction only".into(),
        format!("{:.1}%", r.power_overhead_correction * 100.0),
        "29%".into(),
    ]);
    t.row(&[
        "power overhead incl. detection".into(),
        format!("{:.1}%", r.power_overhead_total * 100.0),
        "30%".into(),
    ]);
    t.print();
    println!(
        "\nbaseline area {:.0} u, correction area {:.0} u; baseline power {:.0} u,\ncorrection power {:.0} u. Calibration of the two global factors is recorded\nin EXPERIMENTS.md.",
        r.baseline_area, r.correction_area, r.baseline_power, r.correction_power
    );
}

/// Regenerates **Section VI-B**: per-stage critical-path increase
/// (paper: RC ~0%, VA +20%, SA +10%, XB +25%).
pub(crate) fn critical_path(_: &Options) {
    let model = TimingModel::paper();
    let report = model.report();
    let paper = ["~0%", "+20%", "+10%", "+25%"];
    let mut t = Table::new(
        "Section VI-B: critical path per pipeline stage (FO4 gate-depth model)",
        &[
            "stage",
            "baseline (FO4)",
            "protected (FO4)",
            "increase",
            "paper",
        ],
    );
    for (s, p) in report.per_stage.iter().zip(paper) {
        t.row(&[
            s.stage.to_string(),
            format!("{:.0}", s.baseline_fo4),
            format!("{:.0}", s.protected_fo4),
            format!("{:+.0}%", s.increase * 100.0),
            p.to_string(),
        ]);
    }
    t.print();
    let lim = report.clock_limiting_stage();
    println!(
        "\nClock-limiting stage: {} at {:.0} FO4 — the allocators, not the crossbar,\nset the protected router's cycle time.",
        lim.stage, lim.protected_fo4
    );
}

/// Ablation (Section VIII-E): SPF as a function of the number of VCs
/// per input port. The paper notes SPF = 7 at 2 VCs, 11 at 4 VCs, and
/// higher beyond.
pub(crate) fn spf_vc_sweep(opts: &Options) {
    let quick = opts.scale == ExperimentScale::Quick;
    let trials = if quick { 1_000 } else { 10_000 };
    let mut t = Table::new(
        "SPF vs. virtual channels per port (area overhead held at 31%)",
        &[
            "VCs",
            "min to fail",
            "max tolerated",
            "mean faults",
            "SPF",
            "MC mean faults (all sites)",
        ],
    );
    for vcs in [2usize, 3, 4, 6, 8] {
        let mut cfg = RouterConfig::paper();
        cfg.vcs = vcs;
        let a = SpfAnalysis::analytic(&cfg, 0.31);
        let mc = monte_carlo_faults_to_failure(&cfg, trials, 7 + vcs as u64);
        t.row(&[
            vcs.to_string(),
            a.min_to_fail.to_string(),
            a.max_tolerated.to_string(),
            format!("{:.1}", a.mean_faults_to_failure),
            format!("{:.2}", a.spf),
            format!("{:.1}", mc.mean_faults_to_failure),
        ]);
    }
    t.print();
    println!("(paper: SPF 7 at 2 VCs, 11.4 at 4 VCs, increasing beyond)");
}

/// Extension: MTTF across operating conditions.
///
/// The paper evaluates the FORC TDDB model at one point (Vdd = 1 V,
/// T = 300 K). `A_TDDB` is a technology constant, so the same calibrated
/// model predicts how both routers age at other operating points — the
/// voltage/temperature acceleration designers actually care about.
pub(crate) fn mttf_conditions(_: &Options) {
    let cfg = RouterConfig::paper();
    let base_lib = GateLibrary::paper();
    let points = [
        (0.9, 300.0),
        (1.0, 300.0), // the paper's point
        (1.0, 330.0),
        (1.0, 360.0),
        (1.1, 300.0),
        (1.1, 360.0),
    ];

    let mut t = Table::new(
        "MTTF vs operating conditions (TDDB, calibrated A_TDDB held fixed)",
        &[
            "Vdd (V)",
            "T (K)",
            "FIT scale",
            "baseline MTTF (h)",
            "protected MTTF (h)",
            "improvement",
        ],
    );
    for (vdd, temp) in points {
        let lib = GateLibrary {
            tddb: base_lib.tddb.at(vdd, temp),
        };
        let scale = lib.tddb.fit_per_fet() / base_lib.tddb.fit_per_fet();
        let baseline_fit = total_fit(&baseline_inventory(&cfg, PAPER_DEST_BITS), &lib);
        let correction_fit = total_fit(&correction_inventory(&cfg, PAPER_DEST_BITS), &lib);
        let mttf_base = 1e9 / baseline_fit;
        let mttf_prot = mttf_paper_eq5(baseline_fit, correction_fit);
        t.row(&[
            format!("{vdd:.1}"),
            format!("{temp:.0}"),
            format!("x{scale:.2}"),
            format!("{mttf_base:.0}"),
            format!("{mttf_prot:.0}"),
            format!("{:.2}x", mttf_prot / mttf_base),
        ]);
    }
    t.print();
    println!(
        "\nThe protection *ratio* is condition-independent (both circuits age with\nthe same per-FET rate); the absolute lifetimes shift by orders of\nmagnitude with voltage and temperature — TDDB's well-known acceleration."
    );
}

/// Extension: the paper notes its design "can be applied to a router
/// with any radix in any kind of topology" (Section VI). This sweep
/// evaluates the reliability analyses across radices — e.g. 7-port
/// routers for meshes with express channels, or 9-port for concentrated
/// topologies — with the VC count held at the paper's 4.
pub(crate) fn radix_sweep(_: &Options) {
    let lib = GateLibrary::paper();
    let bits = dest_bits(64);
    let mut t = Table::new(
        "Radix sweep: reliability of the protected router at other port counts",
        &[
            "ports",
            "baseline FIT",
            "correction FIT",
            "MTTF gain",
            "SPF",
            "area overhead",
        ],
    );
    for ports in [3usize, 5, 7, 9] {
        let mut cfg = RouterConfig::paper();
        cfg.ports = ports;
        let base = total_fit(&baseline_inventory(&cfg, bits), &lib);
        let corr = total_fit(&correction_inventory(&cfg, bits), &lib);
        let mttf = MttfReport::compute(&lib, &cfg, bits);
        let ap = AreaPowerModel::new(cfg, bits).report();
        let spf = SpfAnalysis::analytic(&cfg, ap.area_overhead_total);
        t.row(&[
            ports.to_string(),
            format!("{base:.0}"),
            format!("{corr:.0}"),
            format!("{:.2}x", mttf.improvement_paper),
            format!("{:.2}", spf.spf),
            format!("{:.1}%", ap.area_overhead_total * 100.0),
        ]);
    }
    t.print();
    println!(
        "\nHigher radices add correction-circuitry FIT slower than baseline FIT\n(the crossbar and VA arbiters grow quadratically, the per-port correction\nonly linearly), so the MTTF gain and SPF improve with radix — the paper's\n5-port mesh router is the conservative case."
    );
}
