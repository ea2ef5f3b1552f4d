//! FORC: Failure-in-time Of a Reference Circuit, for TDDB.
//!
//! Equation 2 of the paper (from Shin et al., DSN 2007):
//!
//! ```text
//! FORC_TDDB = (10⁹ / A_TDDB) · Vdd^(a − bT) · e^( −(X + Y/T + Z·T) / kT )
//! ```
//!
//! with fitting parameters `a, b, X, Y, Z` from Srinivasan et al. (ISCA
//! 2004), Boltzmann's constant `k`, operating voltage `Vdd` (V) and
//! temperature `T` (K). Equation 3 then gives the per-FET FIT as
//! `duty_cycle × FORC_TDDB`.
//!
//! `A_TDDB` is a technology-dependent normalisation that the original
//! papers fold into their qualification data; the paper does not print
//! it. We fix it by the one anchor the paper *does* print: a 6-bit
//! comparator has 11.7 FIT at `Vdd = 1 V`, `T = 300 K` (Table I). Every
//! other number in Tables I and II then follows from transistor counts.

/// Boltzmann's constant in eV/K.
pub const BOLTZMANN_EV: f64 = 8.617_333e-5;

/// TDDB fitting parameters (Srinivasan et al., via Wu et al.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForcParams {
    /// Voltage-exponent intercept `a`.
    pub a: f64,
    /// Voltage-exponent temperature slope `b` (1/K).
    pub b: f64,
    /// Activation-energy constant `X` (eV).
    pub x: f64,
    /// Activation-energy `1/T` coefficient `Y` (eV·K).
    pub y: f64,
    /// Activation-energy `T` coefficient `Z` (eV/K).
    pub z: f64,
}

impl Default for ForcParams {
    fn default() -> Self {
        // Values used in the lifetime-reliability literature the paper
        // cites ([19]-[21]).
        ForcParams {
            a: 78.0,
            b: 0.081,
            x: 0.759,
            y: -66.8,
            z: -8.37e-4,
        }
    }
}

/// The calibrated TDDB model: evaluates FORC and per-FET FIT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TddbModel {
    /// Fitting parameters.
    pub params: ForcParams,
    /// Technology normalisation constant `A_TDDB`.
    pub a_tddb: f64,
    /// Operating voltage (V).
    pub vdd: f64,
    /// Operating temperature (K).
    pub temperature: f64,
    /// Device duty cycle (the paper assumes continuous stress, 1.0).
    pub duty_cycle: f64,
}

/// The paper's stated operating point.
pub const PAPER_VDD: f64 = 1.0;
/// The paper's stated operating temperature (K).
pub const PAPER_TEMPERATURE: f64 = 300.0;
/// Table I's anchor: FIT of a 6-bit comparator.
pub const ANCHOR_COMPARATOR_FIT: f64 = 11.7;
/// Effective stressed transistor count of the 6-bit comparator in the
/// calibrated gate library (see `gates.rs`).
pub const ANCHOR_COMPARATOR_TRANSISTORS: f64 = 468.0;

impl TddbModel {
    /// Evaluate the *un-normalised* FORC kernel
    /// `Vdd^(a−bT) · exp(−(X + Y/T + ZT)/kT)` at a given operating
    /// point.
    pub fn kernel(params: &ForcParams, vdd: f64, t: f64) -> f64 {
        let volt_term = vdd.powf(params.a - params.b * t);
        let e_act = params.x + params.y / t + params.z * t;
        volt_term * (-e_act / (BOLTZMANN_EV * t)).exp()
    }

    /// Calibrate `A_TDDB` so the anchor component reproduces Table I at
    /// the paper's operating point, then return the model.
    pub fn calibrated() -> Self {
        let params = ForcParams::default();
        let target_fit_per_fet = ANCHOR_COMPARATOR_FIT / ANCHOR_COMPARATOR_TRANSISTORS;
        let kernel = Self::kernel(&params, PAPER_VDD, PAPER_TEMPERATURE);
        // duty = 1: FIT_per_FET = FORC = 1e9/A · kernel  ⇒  A = 1e9·kernel/FIT.
        let a_tddb = 1e9 * kernel / target_fit_per_fet;
        TddbModel {
            params,
            a_tddb,
            vdd: PAPER_VDD,
            temperature: PAPER_TEMPERATURE,
            duty_cycle: 1.0,
        }
    }

    /// Equation 2: FORC_TDDB at this model's operating point.
    pub fn forc(&self) -> f64 {
        1e9 / self.a_tddb * Self::kernel(&self.params, self.vdd, self.temperature)
    }

    /// Equation 3: FIT per FET (duty-cycle weighted).
    pub fn fit_per_fet(&self) -> f64 {
        self.duty_cycle * self.forc()
    }

    /// FIT of a structure with `transistors` stressed FETs.
    pub fn fit_of(&self, transistors: f64) -> f64 {
        transistors * self.fit_per_fet()
    }

    /// The same model at a different operating point (for sensitivity
    /// studies): `A_TDDB` stays fixed — it is a technology constant.
    pub fn at(&self, vdd: f64, temperature: f64) -> TddbModel {
        TddbModel {
            vdd,
            temperature,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reproduces_the_anchor() {
        let m = TddbModel::calibrated();
        let fit = m.fit_of(ANCHOR_COMPARATOR_TRANSISTORS);
        assert!((fit - ANCHOR_COMPARATOR_FIT).abs() < 1e-9, "fit = {fit}");
    }

    #[test]
    fn fit_scales_linearly_with_transistors() {
        let m = TddbModel::calibrated();
        let one = m.fit_of(1.0);
        assert!((m.fit_of(100.0) - 100.0 * one).abs() < 1e-12);
    }

    #[test]
    fn higher_temperature_accelerates_tddb() {
        let m = TddbModel::calibrated();
        let hot = m.at(PAPER_VDD, 350.0);
        assert!(
            hot.fit_per_fet() > m.fit_per_fet(),
            "TDDB worsens with temperature: {} vs {}",
            hot.fit_per_fet(),
            m.fit_per_fet()
        );
    }

    #[test]
    fn higher_voltage_accelerates_tddb() {
        let m = TddbModel::calibrated();
        let stressed = m.at(1.1, PAPER_TEMPERATURE);
        assert!(stressed.fit_per_fet() > m.fit_per_fet());
    }

    #[test]
    fn duty_cycle_scales_fit() {
        let mut m = TddbModel::calibrated();
        let full = m.fit_per_fet();
        m.duty_cycle = 0.5;
        assert!((m.fit_per_fet() - full / 2.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_positive_and_finite() {
        let p = ForcParams::default();
        for t in [280.0, 300.0, 340.0, 380.0] {
            for v in [0.8, 1.0, 1.2] {
                let k = TddbModel::kernel(&p, v, t);
                assert!(k.is_finite() && k > 0.0);
            }
        }
    }
}
