//! Gate-depth critical-path model (Section VI-B).
//!
//! The paper synthesises each pipeline stage at decreasing clock periods
//! until slack hits zero and reports the change in the critical path:
//! RC ≈ 0%, VA +20%, SA +10%, XB +25%. We model each stage as a chain of
//! logic elements with unit delays expressed in FO4-equivalents; the
//! correction circuitry inserts elements into (or around) the chain
//! exactly where Section V places them:
//!
//! * **RC** — the duplicate unit is spatially redundant and selected by
//!   a steering mux *outside* the comparator path (the mux switches once
//!   on fault detection, not per computation), so the path is unchanged.
//! * **VA** — the borrow-steering logic (VF check + R2/ID mux into the
//!   arbiter request inputs) sits in series with the stage-1 arbiter.
//! * **SA** — the 2:1 bypass mux sits after the stage-1 arbiter.
//! * **XB** — the demux branch and the 2:1 output mux `P_i` sit in
//!   series with the primary mux tree.

use noc_faults::PipelineStage;

/// One element on a stage's critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathElement {
    /// Element name (for reporting).
    pub name: &'static str,
    /// Delay in FO4-equivalents.
    pub delay: f64,
    /// Whether the element belongs to the correction circuitry.
    pub correction: bool,
}

const fn el(name: &'static str, delay: f64, correction: bool) -> PathElement {
    PathElement {
        name,
        delay,
        correction,
    }
}

/// The per-stage timing model.
#[derive(Debug, Clone)]
pub struct TimingModel {
    chains: Vec<(PipelineStage, Vec<PathElement>)>,
}

impl TimingModel {
    /// The paper's 5-port, 4-VC router.
    pub fn paper() -> Self {
        let chains = vec![
            (
                PipelineStage::Rc,
                vec![
                    el("dest-field decode", 1.0, false),
                    el("X/Y comparators", 9.0, false),
                    el("port encode", 2.0, false),
                    // The primary/duplicate steering mux is configured by
                    // the (slow) fault-detection path, not the per-cycle
                    // path: zero added per-cycle delay.
                ],
            ),
            (
                PipelineStage::Va,
                vec![
                    el("request formation", 2.0, false),
                    el("stage-1 v:1 arbiter", 8.0, false),
                    el("stage-2 (p·v):1 arbiter", 9.0, false),
                    el("grant encode", 1.0, false),
                    el("VF check + lender scan", 2.0, true),
                    el("R2/ID steering mux", 2.0, true),
                ],
            ),
            (
                PipelineStage::Sa,
                vec![
                    el("request formation", 2.0, false),
                    el("stage-1 v:1 arbiter", 8.0, false),
                    el("stage-2 p:1 arbiter", 9.0, false),
                    el("xbar select drive", 1.0, false),
                    el("bypass 2:1 mux", 1.0, true),
                    el("default-winner select", 1.0, true),
                ],
            ),
            (
                PipelineStage::Xb,
                vec![
                    el("input drive", 1.0, false),
                    el("5:1 mux tree", 6.0, false),
                    el("output drive", 1.0, false),
                    el("secondary demux", 1.0, true),
                    el("P output 2:1 mux", 1.0, true),
                ],
            ),
        ];
        TimingModel { chains }
    }

    /// Critical path of a stage in the baseline router.
    pub fn baseline_depth(&self, stage: PipelineStage) -> f64 {
        self.chain(stage)
            .iter()
            .filter(|e| !e.correction)
            .map(|e| e.delay)
            .sum()
    }

    /// Critical path of a stage in the protected router.
    pub fn protected_depth(&self, stage: PipelineStage) -> f64 {
        self.chain(stage).iter().map(|e| e.delay).sum()
    }

    /// Fractional critical-path increase of a stage.
    pub fn increase(&self, stage: PipelineStage) -> f64 {
        let b = self.baseline_depth(stage);
        (self.protected_depth(stage) - b) / b
    }

    /// The elements of one stage's chain.
    pub fn chain(&self, stage: PipelineStage) -> &[PathElement] {
        &self
            .chains
            .iter()
            .find(|(s, _)| *s == stage)
            .expect("all four stages modelled")
            .1
    }

    /// Full report for all four stages.
    pub fn report(&self) -> CriticalPathReport {
        let per_stage = PipelineStage::ALL.map(|s| StageTiming {
            stage: s,
            baseline_fo4: self.baseline_depth(s),
            protected_fo4: self.protected_depth(s),
            increase: self.increase(s),
        });
        CriticalPathReport { per_stage }
    }
}

/// Timing of one stage.
#[derive(Debug, Clone, Copy)]
pub struct StageTiming {
    /// Stage.
    pub stage: PipelineStage,
    /// Baseline critical path (FO4).
    pub baseline_fo4: f64,
    /// Protected critical path (FO4).
    pub protected_fo4: f64,
    /// Fractional increase.
    pub increase: f64,
}

/// All four stages' timing.
#[derive(Debug, Clone)]
pub struct CriticalPathReport {
    /// RC, VA, SA, XB in order.
    pub per_stage: [StageTiming; 4],
}

impl CriticalPathReport {
    /// The slowest protected stage — this sets the router's clock.
    pub fn clock_limiting_stage(&self) -> StageTiming {
        *self
            .per_stage
            .iter()
            .max_by(|a, b| a.protected_fo4.total_cmp(&b.protected_fo4))
            .expect("four stages")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_vi_b_percentages() {
        let m = TimingModel::paper();
        assert_eq!(m.increase(PipelineStage::Rc), 0.0, "RC: negligible impact");
        assert!(
            (m.increase(PipelineStage::Va) - 0.20).abs() < 0.01,
            "VA +20%"
        );
        assert!(
            (m.increase(PipelineStage::Sa) - 0.10).abs() < 0.01,
            "SA +10%"
        );
        assert!(
            (m.increase(PipelineStage::Xb) - 0.25).abs() < 0.01,
            "XB +25%"
        );
    }

    #[test]
    fn allocation_stages_dominate_the_clock() {
        // Peh & Dally: VA/SA are the long control stages; the protected
        // router's clock is set by an allocator, not the crossbar.
        let r = TimingModel::paper().report();
        let limiting = r.clock_limiting_stage();
        assert!(matches!(
            limiting.stage,
            PipelineStage::Va | PipelineStage::Sa
        ));
    }

    #[test]
    fn protected_never_faster_than_baseline() {
        let m = TimingModel::paper();
        for s in PipelineStage::ALL {
            assert!(m.protected_depth(s) >= m.baseline_depth(s));
        }
    }

    #[test]
    fn correction_elements_account_for_the_delta() {
        let m = TimingModel::paper();
        for s in PipelineStage::ALL {
            let delta: f64 = m
                .chain(s)
                .iter()
                .filter(|e| e.correction)
                .map(|e| e.delay)
                .sum();
            assert!((m.protected_depth(s) - m.baseline_depth(s) - delta).abs() < 1e-12);
        }
    }
}
