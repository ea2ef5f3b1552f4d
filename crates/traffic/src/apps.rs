//! Stochastic models of the SPLASH-2 and PARSEC applications.
//!
//! The paper drives its latency experiments (Figures 7 and 8) with
//! SPLASH-2 and PARSEC traffic extracted from a GEM5 full-system
//! simulation using a MOESI directory protocol. We do not have those
//! traces, so each application is modelled by a small parameter vector
//! that captures what determines NoC behaviour:
//!
//! * `request_rate` — mean L1-miss requests per node per cycle. The
//!   relative ordering across applications follows published NoC-load
//!   characterisations of the suites (e.g. canneal, fft and radix are
//!   network-heavy; swaptions and blackscholes are nearly idle).
//! * `read_fraction` — fraction of requests answered with a 5-flit data
//!   packet (the rest receive a 1-flit acknowledgement).
//! * `locality` — probability that the address's home directory lies
//!   within Manhattan distance 2 of the requester.
//! * `burstiness` — on/off duty cycle of the per-node injection process
//!   (1.0 = smooth Bernoulli).
//! * `service_delay` — directory/memory latency between the request
//!   arriving at the home node and the response entering the network.
//!
//! The traffic shape (request→response coupling, control/data mix) is
//! what the fault-latency experiments are sensitive to; absolute rates
//! only set the operating point, which the harness reports alongside
//! the results.

/// Which benchmark suite an application belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPLASH-2 (Figure 7).
    Splash2,
    /// PARSEC (Figure 8).
    Parsec,
}

/// The sixteen modelled applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AppId {
    // SPLASH-2
    Barnes,
    Cholesky,
    Fft,
    Lu,
    Ocean,
    Radix,
    Raytrace,
    WaterSpatial,
    // PARSEC
    Blackscholes,
    Bodytrack,
    Canneal,
    Dedup,
    Ferret,
    Fluidanimate,
    Swaptions,
    X264,
}

impl AppId {
    /// All SPLASH-2 applications, in Figure-7 order.
    pub const SPLASH2: [AppId; 8] = [
        AppId::Barnes,
        AppId::Cholesky,
        AppId::Fft,
        AppId::Lu,
        AppId::Ocean,
        AppId::Radix,
        AppId::Raytrace,
        AppId::WaterSpatial,
    ];

    /// All PARSEC applications, in Figure-8 order.
    pub const PARSEC: [AppId; 8] = [
        AppId::Blackscholes,
        AppId::Bodytrack,
        AppId::Canneal,
        AppId::Dedup,
        AppId::Ferret,
        AppId::Fluidanimate,
        AppId::Swaptions,
        AppId::X264,
    ];

    /// Parse an `--app` argument: an application's [`AppId::name`].
    pub fn parse_arg(arg: &str) -> Result<AppId, String> {
        AppId::SPLASH2
            .iter()
            .chain(AppId::PARSEC.iter())
            .copied()
            .find(|a| a.name() == arg)
            .ok_or_else(|| format!("unrecognised application {arg:?}"))
    }

    /// The suite this application belongs to.
    pub fn suite(self) -> Suite {
        if AppId::SPLASH2.contains(&self) {
            Suite::Splash2
        } else {
            Suite::Parsec
        }
    }

    /// Display name (paper style, lower case).
    pub fn name(self) -> &'static str {
        match self {
            AppId::Barnes => "barnes",
            AppId::Cholesky => "cholesky",
            AppId::Fft => "fft",
            AppId::Lu => "lu",
            AppId::Ocean => "ocean",
            AppId::Radix => "radix",
            AppId::Raytrace => "raytrace",
            AppId::WaterSpatial => "water-spatial",
            AppId::Blackscholes => "blackscholes",
            AppId::Bodytrack => "bodytrack",
            AppId::Canneal => "canneal",
            AppId::Dedup => "dedup",
            AppId::Ferret => "ferret",
            AppId::Fluidanimate => "fluidanimate",
            AppId::Swaptions => "swaptions",
            AppId::X264 => "x264",
        }
    }

    /// The model parameters of this application.
    pub fn model(self) -> AppModel {
        use AppId::*;
        // (request_rate, read_fraction, locality, burstiness, service_delay)
        let (rate, read, loc, burst, delay) = match self {
            // ---- SPLASH-2 ----
            Barnes => (0.015, 0.75, 0.45, 0.85, 18),
            Cholesky => (0.021, 0.70, 0.40, 0.75, 18),
            Fft => (0.039, 0.80, 0.20, 0.65, 20),
            Lu => (0.024, 0.75, 0.50, 0.80, 18),
            Ocean => (0.039, 0.70, 0.35, 0.70, 20),
            Radix => (0.042, 0.65, 0.15, 0.60, 20),
            Raytrace => (0.012, 0.85, 0.30, 0.90, 16),
            WaterSpatial => (0.010, 0.80, 0.55, 0.90, 16),
            // ---- PARSEC ----
            Blackscholes => (0.010, 0.85, 0.50, 0.95, 16),
            Bodytrack => (0.023, 0.75, 0.40, 0.80, 18),
            Canneal => (0.046, 0.60, 0.10, 0.55, 22),
            Dedup => (0.032, 0.65, 0.30, 0.70, 20),
            Ferret => (0.036, 0.70, 0.25, 0.70, 20),
            Fluidanimate => (0.028, 0.70, 0.45, 0.75, 18),
            Swaptions => (0.008, 0.85, 0.55, 0.95, 16),
            X264 => (0.039, 0.70, 0.30, 0.65, 20),
        };
        AppModel {
            id: self,
            request_rate: rate,
            read_fraction: read,
            locality: loc,
            burstiness: burst,
            service_delay: delay,
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The parameter vector of one application model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppModel {
    /// Which application this is.
    pub id: AppId,
    /// Mean requests per node per cycle.
    pub request_rate: f64,
    /// Fraction of requests answered with a 5-flit data packet.
    pub read_fraction: f64,
    /// Probability the home directory is within Manhattan distance 2.
    pub locality: f64,
    /// On/off duty cycle of the injection process (1.0 = smooth).
    pub burstiness: f64,
    /// Directory service delay in cycles (request arrival → response).
    pub service_delay: u64,
}

impl AppModel {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        let in01 = |v: f64| (0.0..=1.0).contains(&v);
        if !(self.request_rate > 0.0 && self.request_rate < 0.5) {
            return Err(format!("{}: request_rate out of range", self.id));
        }
        if !in01(self.read_fraction) || !in01(self.locality) {
            return Err(format!("{}: fraction out of range", self.id));
        }
        if !(0.0 < self.burstiness && self.burstiness <= 1.0) {
            return Err(format!("{}: burstiness out of range", self.id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_applications_split_across_suites() {
        assert_eq!(AppId::SPLASH2.len(), 8);
        assert_eq!(AppId::PARSEC.len(), 8);
        for a in AppId::SPLASH2 {
            assert_eq!(a.suite(), Suite::Splash2);
        }
        for a in AppId::PARSEC {
            assert_eq!(a.suite(), Suite::Parsec);
        }
    }

    #[test]
    fn all_models_validate() {
        for a in AppId::SPLASH2.iter().chain(AppId::PARSEC.iter()) {
            a.model().validate().unwrap();
        }
    }

    #[test]
    fn network_heavy_apps_outrate_light_apps() {
        // The relative load ordering the model encodes.
        assert!(AppId::Radix.model().request_rate > AppId::WaterSpatial.model().request_rate);
        assert!(AppId::Fft.model().request_rate > AppId::Raytrace.model().request_rate);
        assert!(AppId::Canneal.model().request_rate > AppId::Swaptions.model().request_rate);
        assert!(AppId::Canneal.model().request_rate > AppId::Blackscholes.model().request_rate);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> = AppId::SPLASH2
            .iter()
            .chain(AppId::PARSEC.iter())
            .map(|a| a.name())
            .collect();
        assert_eq!(names.len(), 16);
    }
}
