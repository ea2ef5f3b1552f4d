//! MTTF analysis (Section VII, Equations 4–7).

use crate::gates::GateLibrary;
use crate::inventory::{baseline_inventory, correction_inventory, total_fit};
use noc_types::RouterConfig;

/// MTTF in hours of a component with the given FIT (Equation 1/4):
/// `MTTF = 10⁹ / FIT`.
pub fn mttf_hours(fit: f64) -> f64 {
    1e9 / fit
}

/// Equation 5 **as printed in the paper**: for a system of two
/// components with failure rates `λ₁`, `λ₂` where either suffices,
///
/// ```text
/// MTTF = 1/λ₁ + 1/λ₂ + 1/(λ₁+λ₂)
/// ```
///
/// (rates in FIT, result in hours). This is the formula that produces
/// the paper's 2,190,696 h and its headline 6× improvement.
pub fn mttf_paper_eq5(lambda1_fit: f64, lambda2_fit: f64) -> f64 {
    1e9 / lambda1_fit + 1e9 / lambda2_fit + 1e9 / (lambda1_fit + lambda2_fit)
}

/// The textbook MTTF of a two-unit active-parallel system (e.g. Trivedi):
///
/// ```text
/// MTTF = 1/λ₁ + 1/λ₂ − 1/(λ₁+λ₂)
/// ```
///
/// The paper's Equation 5 has `+` where the standard derivation has `−`;
/// we compute both and report the difference (see EXPERIMENTS.md).
pub fn mttf_parallel_textbook(lambda1_fit: f64, lambda2_fit: f64) -> f64 {
    1e9 / lambda1_fit + 1e9 / lambda2_fit - 1e9 / (lambda1_fit + lambda2_fit)
}

/// The full Section-VII analysis for one router configuration.
#[derive(Debug, Clone)]
pub struct MttfReport {
    /// FIT of the baseline pipeline (sum of Table I).
    pub baseline_fit: f64,
    /// FIT of the correction circuitry (sum of Table II).
    pub correction_fit: f64,
    /// MTTF of the baseline router (Equation 4), hours.
    pub mttf_baseline_hours: f64,
    /// MTTF of the protected router per the paper's Equation 5, hours.
    pub mttf_protected_paper_hours: f64,
    /// MTTF of the protected router per the textbook parallel formula.
    pub mttf_protected_textbook_hours: f64,
    /// Improvement ratio with the paper's equation (the headline ≈6×).
    pub improvement_paper: f64,
    /// Improvement ratio with the textbook equation (≈4.6×).
    pub improvement_textbook: f64,
}

impl MttfReport {
    /// Compute the analysis for a router configuration.
    pub fn compute(lib: &GateLibrary, cfg: &RouterConfig, dest_bits: u32) -> Self {
        let baseline_fit = total_fit(&baseline_inventory(cfg, dest_bits), lib);
        let correction_fit = total_fit(&correction_inventory(cfg, dest_bits), lib);
        let mttf_baseline_hours = mttf_hours(baseline_fit);
        let mttf_protected_paper_hours = mttf_paper_eq5(baseline_fit, correction_fit);
        let mttf_protected_textbook_hours = mttf_parallel_textbook(baseline_fit, correction_fit);
        MttfReport {
            baseline_fit,
            correction_fit,
            mttf_baseline_hours,
            mttf_protected_paper_hours,
            mttf_protected_textbook_hours,
            improvement_paper: mttf_protected_paper_hours / mttf_baseline_hours,
            improvement_textbook: mttf_protected_textbook_hours / mttf_baseline_hours,
        }
    }

    /// The paper-point report (5 ports, 4 VCs, 8×8 mesh).
    pub fn paper() -> Self {
        MttfReport::compute(
            &GateLibrary::paper(),
            &RouterConfig::paper(),
            crate::inventory::PAPER_DEST_BITS,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_four_baseline_mttf() {
        // Paper: 10⁹ / 2822 ≈ 354,358 h. Ours: 10⁹ / 2818.5 ≈ 354,799 h.
        let r = MttfReport::paper();
        assert!((r.mttf_baseline_hours - 354_799.0).abs() < 500.0);
        assert!(
            (r.mttf_baseline_hours - 354_358.0).abs() / 354_358.0 < 0.005,
            "within 0.5% of the paper's printed value"
        );
    }

    #[test]
    fn equation_six_protected_mttf_with_papers_equation() {
        // Paper: ≈ 2,190,696 h.
        let r = MttfReport::paper();
        let rel = (r.mttf_protected_paper_hours - 2_190_696.0).abs() / 2_190_696.0;
        assert!(
            rel < 0.005,
            "protected MTTF {} off by {rel}",
            r.mttf_protected_paper_hours
        );
    }

    #[test]
    fn equation_seven_headline_six_times() {
        let r = MttfReport::paper();
        assert!(
            (5.8..6.4).contains(&r.improvement_paper),
            "headline ratio ≈ 6, got {}",
            r.improvement_paper
        );
    }

    #[test]
    fn textbook_formula_gives_smaller_but_still_large_gain() {
        let r = MttfReport::paper();
        assert!(r.mttf_protected_textbook_hours < r.mttf_protected_paper_hours);
        assert!(
            (4.0..5.2).contains(&r.improvement_textbook),
            "textbook ratio ≈ 4.6, got {}",
            r.improvement_textbook
        );
    }

    #[test]
    fn paper_eq5_matches_its_arithmetic_example() {
        // With the paper's own rounded rates λ₁=2822, λ₂=646:
        let m = mttf_paper_eq5(2822.0, 646.0);
        assert!((m - 2_190_696.0).abs() < 2_000.0, "m = {m}");
    }

    #[test]
    fn parallel_mttf_exceeds_either_component_alone() {
        let m = mttf_parallel_textbook(2822.0, 646.0);
        assert!(m > mttf_hours(646.0));
        assert!(m > mttf_hours(2822.0));
        // And is bounded by the sum of the two (pure standby redundancy).
        assert!(m < mttf_hours(2822.0) + mttf_hours(646.0));
    }

    #[test]
    fn more_vcs_lower_baseline_mttf() {
        let lib = GateLibrary::paper();
        let mut cfg = RouterConfig::paper();
        cfg.vcs = 8;
        let big = MttfReport::compute(&lib, &cfg, 6);
        let paper = MttfReport::paper();
        assert!(big.baseline_fit > paper.baseline_fit);
        assert!(big.mttf_baseline_hours < paper.mttf_baseline_hours);
    }
}
