//! Faults-to-failure curve aggregation for mass fault campaigns.
//!
//! The SPF analysis of Section VIII reasons about a *single router's*
//! fault budget analytically; a network-level fault campaign measures
//! the same quantity empirically — how many faults the *network*
//! absorbs before it stops delivering — by sweeping the injected fault
//! count and counting surviving scenarios at each point. This module
//! owns the curve arithmetic: survival fractions per fault count and
//! the truncated mean faults-to-failure they imply.

/// One point of a faults-to-failure curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Faults injected per scenario at this point.
    pub faults: u32,
    /// Scenarios run at this point.
    pub total: u32,
    /// Scenarios that survived (delivered everything, possibly
    /// degraded).
    pub survived: u32,
    /// Mean fraction of offered packets delivered across the point's
    /// scenarios (1.0 when every scenario delivered everything).
    pub delivered_fraction: f64,
}

impl CurvePoint {
    /// Fraction of scenarios that survived.
    pub fn survival(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            f64::from(self.survived) / f64::from(self.total)
        }
    }
}

/// A survival curve over increasing fault counts, for one
/// (topology, routing mode) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsToFailureCurve {
    /// Points in increasing fault order.
    pub points: Vec<CurvePoint>,
}

impl FaultsToFailureCurve {
    /// Build from per-point `(faults, total, survived,
    /// delivered_fraction)` tuples; points are sorted by fault count.
    pub fn from_points(mut points: Vec<CurvePoint>) -> Self {
        points.sort_by_key(|p| p.faults);
        FaultsToFailureCurve { points }
    }

    /// Truncated mean faults-to-failure.
    ///
    /// With `F` the first fault count at which a scenario fails,
    /// `E[F] = Σ_{k≥0} P(F > k)`; estimating `P(F > k)` by the survival
    /// fraction at `k` (and 1 for `k = 0`, the fault-free network
    /// works) gives `1 + Σ_k survival(k)` over the measured points.
    /// The sum is truncated at the largest measured fault count, so
    /// this is a *lower bound* whenever the last point still has
    /// survivors.
    pub fn mean_faults_to_failure(&self) -> f64 {
        1.0 + self.points.iter().map(CurvePoint::survival).sum::<f64>()
    }

    /// Survival fraction at a given fault count, if measured.
    pub fn survival_at(&self, faults: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.faults == faults)
            .map(CurvePoint::survival)
    }

    /// Whether this curve dominates `other`: at every fault count both
    /// measured, this curve's delivered fraction is at least as high,
    /// and strictly higher somewhere.
    pub fn dominates(&self, other: &FaultsToFailureCurve) -> bool {
        let mut strict = false;
        for p in &self.points {
            let Some(q) = other.points.iter().find(|q| q.faults == p.faults) else {
                continue;
            };
            if p.delivered_fraction < q.delivered_fraction {
                return false;
            }
            if p.delivered_fraction > q.delivered_fraction {
                strict = true;
            }
        }
        strict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(faults: u32, total: u32, survived: u32, frac: f64) -> CurvePoint {
        CurvePoint {
            faults,
            total,
            survived,
            delivered_fraction: frac,
        }
    }

    #[test]
    fn mean_is_one_plus_survival_sum() {
        let c = FaultsToFailureCurve::from_points(vec![
            pt(2, 10, 5, 0.8),
            pt(1, 10, 10, 1.0),
            pt(3, 10, 0, 0.4),
        ]);
        assert_eq!(c.points[0].faults, 1, "points are sorted");
        assert!((c.mean_faults_to_failure() - 2.5).abs() < 1e-12);
        assert_eq!(c.survival_at(2), Some(0.5));
        assert_eq!(c.survival_at(9), None);
    }

    #[test]
    fn dominance_requires_a_strict_win_and_no_loss() {
        let hi = FaultsToFailureCurve::from_points(vec![pt(1, 10, 10, 1.0), pt(2, 10, 8, 0.95)]);
        let lo = FaultsToFailureCurve::from_points(vec![pt(1, 10, 9, 0.99), pt(2, 10, 4, 0.7)]);
        assert!(hi.dominates(&lo));
        assert!(!lo.dominates(&hi));
        assert!(!hi.dominates(&hi), "a curve never dominates itself");
    }

    #[test]
    fn empty_point_survival_is_zero() {
        assert_eq!(pt(1, 0, 0, 0.0).survival(), 0.0);
    }
}
