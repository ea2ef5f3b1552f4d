//! Campaign specifications: the JSON job description accepted by
//! `POST /jobs` and stored in the spool, plus its translation into the
//! simulator's configuration types.

use noc_faults::FaultPlan;
use noc_sim::Simulator;
use noc_telemetry::json::{to_tree, JsonValue, JsonWriter};
use noc_topology::Topology;
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{NetworkConfig, RoutingMode, SimConfig, TopologySpec};
use shield_router::RouterKind;

/// One simulation campaign, as submitted over HTTP. Every field has a
/// default, so `{}` is a valid (small smoke-run) spec; [`CampaignSpec::to_json`]
/// always renders the fully-resolved form, which is what the spool
/// stores.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Job kind: `simulate` (one cycle-accurate run, checkpointed and
    /// resumable) or `fault_campaign` (a mass link-fault sweep over
    /// thousands of seeded scenarios, classified into a
    /// faults-to-failure curve per routing arm).
    pub kind: String,
    /// Free-form label echoed in status responses.
    pub name: String,
    /// Mesh side length `k`.
    pub mesh_k: u8,
    /// Topology argument: `mesh`, `torus`, `cutmesh<N>[:seed]`,
    /// `chipletmesh<KC>x<KN>[:lat[:den]]` or
    /// `chipletstar<C>x<KN>[:lat[:den]]` — the same grammar as the
    /// bench/CLI `--topology` flag ([`TopologySpec::parse_arg`]).
    pub topology: String,
    /// `baseline` or `protected`.
    pub router_kind: RouterKind,
    /// Synthetic pattern name, in the grammar of
    /// [`SyntheticPattern::parse_arg`] (`uniform_random`, `transpose`,
    /// `bit_reverse`, `hotspot:<fraction>`, …); the bit-permutation
    /// patterns need a power-of-two node count.
    pub pattern: String,
    /// Offered load in packets per node per cycle.
    pub rate: f64,
    /// Warm-up cycles before the measurement window.
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// Drain allowance after the window.
    pub drain_cycles: u64,
    /// Seed for everything stochastic in the run.
    pub seed: u64,
    /// Stepper threads (`1` = serial; results are identical either way).
    pub threads: usize,
    /// Epoch sampling cadence (`0` = no time series).
    pub sample_every: u64,
    /// Checkpoint cadence in cycles; `0` defers to the daemon default.
    pub checkpoint_every: u64,
    /// Routing mode: `static`, `adaptive`, or (for `fault_campaign`
    /// only) `both` — the paired static-vs-adaptive comparison.
    pub routing: String,
    /// `fault_campaign` only: scenarios per (mode, fault count) point.
    pub scenarios: u32,
    /// `fault_campaign` only: curve points run 1..=`max_faults` link
    /// faults per scenario.
    pub max_faults: u32,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            kind: "simulate".into(),
            name: String::new(),
            mesh_k: 4,
            topology: "mesh".into(),
            router_kind: RouterKind::Protected,
            pattern: "uniform_random".into(),
            rate: 0.1,
            warmup_cycles: 200,
            measure_cycles: 1_000,
            drain_cycles: 500,
            seed: 1,
            threads: 1,
            sample_every: 0,
            checkpoint_every: 0,
            routing: "static".into(),
            scenarios: 100,
            max_faults: 2,
        }
    }
}

/// The largest integer a spec field holds exactly: JSON numbers parse
/// to `f64`, whose integers are exact only below 2^53 — the bound
/// snapshots observe too (ARCHITECTURE.md §5). A larger one would be
/// rounded, and then run and echoed as a different number.
const MAX_EXACT_INT: u64 = (1 << 53) - 1;

fn opt_u64(v: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key).map(JsonValue::as_u64) {
        None => Ok(default),
        Some(Some(n)) if n <= MAX_EXACT_INT => Ok(n),
        Some(Some(_)) => Err(format!("`{key}` must be an integer below 2^53")),
        Some(None) => Err(format!("`{key}` must be a number")),
    }
}

fn opt_f64(v: &JsonValue, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_f64()
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

fn opt_str(v: &JsonValue, key: &str, default: &str) -> Result<String, String> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(JsonValue::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

impl CampaignSpec {
    /// Parse and validate a spec document. Unknown keys are rejected so
    /// a typo'd field name fails loudly instead of silently defaulting.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let JsonValue::Obj(entries) = v else {
            return Err("campaign spec must be a JSON object".into());
        };
        const KNOWN: &[&str] = &[
            "kind",
            "name",
            "mesh_k",
            "topology",
            "router_kind",
            "pattern",
            "rate",
            "warmup_cycles",
            "measure_cycles",
            "drain_cycles",
            "seed",
            "threads",
            "sample_every",
            "checkpoint_every",
            "routing",
            "scenarios",
            "max_faults",
        ];
        for (k, _) in entries {
            if !KNOWN.contains(&k.as_str()) {
                return Err(format!("unknown spec field {k:?}"));
            }
        }
        let d = CampaignSpec::default();
        let spec = CampaignSpec {
            kind: opt_str(v, "kind", &d.kind)?,
            name: opt_str(v, "name", &d.name)?,
            mesh_k: u8::try_from(opt_u64(v, "mesh_k", d.mesh_k as u64)?)
                .map_err(|_| "`mesh_k` out of range".to_string())?,
            topology: opt_str(v, "topology", &d.topology)?,
            router_kind: RouterKind::parse_arg(&opt_str(v, "router_kind", d.router_kind.tag())?)?,
            pattern: opt_str(v, "pattern", &d.pattern)?,
            rate: opt_f64(v, "rate", d.rate)?,
            warmup_cycles: opt_u64(v, "warmup_cycles", d.warmup_cycles)?,
            measure_cycles: opt_u64(v, "measure_cycles", d.measure_cycles)?,
            drain_cycles: opt_u64(v, "drain_cycles", d.drain_cycles)?,
            seed: opt_u64(v, "seed", d.seed)?,
            threads: opt_u64(v, "threads", d.threads as u64)? as usize,
            sample_every: opt_u64(v, "sample_every", d.sample_every)?,
            checkpoint_every: opt_u64(v, "checkpoint_every", d.checkpoint_every)?,
            routing: opt_str(v, "routing", &d.routing)?,
            scenarios: u32::try_from(opt_u64(v, "scenarios", d.scenarios as u64)?)
                .map_err(|_| "`scenarios` out of range".to_string())?,
            max_faults: u32::try_from(opt_u64(v, "max_faults", d.max_faults as u64)?)
                .map_err(|_| "`max_faults` out of range".to_string())?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parse from JSON text (the HTTP request body).
    pub fn from_text(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
        CampaignSpec::from_json(&doc)
    }

    /// The fully-resolved spec as a tree: the parse of
    /// [`CampaignSpec::encode`]'s text.
    pub fn to_json(&self) -> JsonValue {
        to_tree(|w| self.encode(w))
    }

    /// Write the fully-resolved spec as one JSON object.
    pub fn encode(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("kind").str(&self.kind);
            w.field("name").str(&self.name);
            w.field("mesh_k").u64(self.mesh_k as u64);
            w.field("topology").str(&self.topology);
            w.field("router_kind").str(self.router_kind.tag());
            w.field("pattern").str(&self.pattern);
            w.field("rate").num(self.rate);
            w.field("warmup_cycles").u64(self.warmup_cycles);
            w.field("measure_cycles").u64(self.measure_cycles);
            w.field("drain_cycles").u64(self.drain_cycles);
            w.field("seed").u64(self.seed);
            w.field("threads").u64(self.threads as u64);
            w.field("sample_every").u64(self.sample_every);
            w.field("checkpoint_every").u64(self.checkpoint_every);
            w.field("routing").str(&self.routing);
            w.field("scenarios").u64(u64::from(self.scenarios));
            w.field("max_faults").u64(u64::from(self.max_faults));
        });
    }

    /// Cheap validation: everything needed to build the simulator parses
    /// and the resulting network configuration is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.rate) {
            return Err("`rate` must be in [0, 1]".into());
        }
        if self.measure_cycles == 0 {
            return Err("`measure_cycles` must be positive".into());
        }
        self.warmup_cycles
            .checked_add(self.measure_cycles)
            .and_then(|c| c.checked_add(self.drain_cycles))
            .ok_or("`warmup_cycles` + `measure_cycles` + `drain_cycles` overflows")?;
        match self.kind.as_str() {
            "simulate" | "fault_campaign" => {}
            other => return Err(format!("unknown job kind {other:?}")),
        }
        match self.routing.as_str() {
            "static" | "adaptive" => {}
            "both" if self.kind == "fault_campaign" => {}
            "both" => return Err("`routing: both` only applies to `fault_campaign` jobs".into()),
            other => return Err(format!("unknown routing mode {other:?}")),
        }
        if self.kind == "fault_campaign" && (self.scenarios == 0 || self.max_faults == 0) {
            return Err("`fault_campaign` needs `scenarios` ≥ 1 and `max_faults` ≥ 1".into());
        }
        let cfg = self.network_config()?;
        cfg.validate()?;
        SyntheticPattern::parse_arg(&self.pattern, cfg.nodes())?;
        if self.kind == "fault_campaign" {
            // The engine's own check, so a campaign the worker would
            // refuse is refused at submission instead.
            self.campaign_config()?.validate()?;
        }
        Ok(())
    }

    /// Total cycles the campaign will run (before any early drain).
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles + self.drain_cycles
    }

    /// The network configuration this spec describes. `routing: both`
    /// (fault campaigns) resolves to Static here; the campaign engine
    /// overrides the mode per arm anyway.
    pub fn network_config(&self) -> Result<NetworkConfig, String> {
        Ok(NetworkConfig {
            mesh_k: self.mesh_k,
            topology: TopologySpec::parse_arg(&self.topology, self.mesh_k)?,
            routing: if self.routing == "adaptive" {
                RoutingMode::Adaptive
            } else {
                RoutingMode::Static
            },
            ..NetworkConfig::paper()
        })
    }

    /// The fault-campaign configuration this spec describes
    /// (`kind: fault_campaign`). Starts from the engine's CI-sized
    /// defaults; `scenarios`, `max_faults`, `routing`, `seed` and
    /// `threads` come from the spec.
    pub fn campaign_config(&self) -> Result<noc_campaign::CampaignConfig, String> {
        if self.kind != "fault_campaign" {
            return Err(format!("job kind {:?} is not a fault campaign", self.kind));
        }
        let mut cc = noc_campaign::CampaignConfig::quick(self.network_config()?);
        cc.router_kind = self.router_kind;
        cc.modes = match self.routing.as_str() {
            "static" => vec![RoutingMode::Static],
            "adaptive" => vec![RoutingMode::Adaptive],
            _ => vec![RoutingMode::Static, RoutingMode::Adaptive],
        };
        cc.scenarios_per_point = self.scenarios;
        cc.max_faults = self.max_faults;
        cc.seed = self.seed;
        cc.threads = self.threads;
        Ok(cc)
    }

    /// The simulation phase configuration this spec describes.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            warmup_cycles: self.warmup_cycles,
            measure_cycles: self.measure_cycles,
            drain_cycles: self.drain_cycles,
            seed: self.seed,
        }
    }

    /// Build the simulator for this campaign. `checkpoint_every` is the
    /// resolved cadence (spec value, or the daemon default when the spec
    /// left it 0).
    pub fn simulator(&self, checkpoint_every: u64) -> Result<Simulator, String> {
        Ok(Simulator::new(
            self.network_config()?,
            self.sim_config(),
            self.router_kind,
            FaultPlan::none(),
        )
        .with_threads(self.threads)
        .with_sample_every(self.sample_every)
        .with_checkpoint_every(checkpoint_every))
    }

    /// Build the campaign's traffic generator (deterministic in the
    /// spec: same spec → same packet stream).
    pub fn generator(&self) -> Result<TrafficGenerator, String> {
        let cfg = self.network_config()?;
        let pattern = SyntheticPattern::parse_arg(&self.pattern, cfg.nodes())?;
        let traffic = TrafficConfig::synthetic(pattern, self.rate);
        let topo = Topology::from_spec(&cfg);
        Ok(TrafficGenerator::for_topology(traffic, &topo, self.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_object_is_the_default_spec() {
        let spec = CampaignSpec::from_text("{}").unwrap();
        assert_eq!(spec, CampaignSpec::default());
    }

    #[test]
    fn round_trips_through_json() {
        let spec = CampaignSpec {
            name: "torus probe".into(),
            mesh_k: 6,
            topology: "torus".into(),
            router_kind: RouterKind::Baseline,
            pattern: "hotspot:0.2".into(),
            rate: 0.25,
            seed: 42,
            threads: 4,
            sample_every: 500,
            checkpoint_every: 1_000,
            ..CampaignSpec::default()
        };
        let text = spec.to_json().render();
        assert_eq!(CampaignSpec::from_text(&text).unwrap(), spec);
    }

    #[test]
    fn rejects_unknown_fields_and_bad_values() {
        assert!(CampaignSpec::from_text("{\"warmup\": 5}").is_err());
        assert!(CampaignSpec::from_text("{\"rate\": 1.5}").is_err());
        assert!(CampaignSpec::from_text("{\"pattern\": \"zigzag\"}").is_err());
        assert!(CampaignSpec::from_text("{\"topology\": \"klein-bottle\"}").is_err());
        assert!(CampaignSpec::from_text("not json").is_err());
    }

    #[test]
    fn patterns_share_the_cli_grammar_and_are_checked_against_the_grid() {
        let with = |fields: &str| CampaignSpec::from_text(&format!("{{{fields}}}"));
        for (a, b) in [
            ("uniform", "uniform_random"),
            ("bitcomplement", "bit_complement"),
            ("bitreverse", "bit_reverse"),
            ("neighbour", "neighbor"),
            ("hotspot", "hotspot:0.2"),
        ] {
            for name in [a, b] {
                let spec = with(&format!("\"pattern\": \"{name}\"")).unwrap();
                assert_eq!(spec.pattern, name, "echoed as submitted");
                assert!(spec.generator().is_ok());
            }
        }
        for bad in ["hotspot:NaN", "hotspot:-1", "hotspot:7"] {
            assert!(with(&format!("\"pattern\": \"{bad}\"")).is_err(), "{bad}");
        }
        for grid in [
            "\"mesh_k\": 5",
            "\"mesh_k\": 6",
            "\"topology\": \"chipletstar2x4\"",
        ] {
            for name in ["bit_reverse", "shuffle", "bitcomplement"] {
                let err = with(&format!("{grid}, \"pattern\": \"{name}\"")).unwrap_err();
                assert!(err.contains(name) && err.contains("nodes"), "{err}");
            }
            assert!(with(&format!("{grid}, \"pattern\": \"transpose\"")).is_ok());
        }
        assert!(with("\"router_kind\": \"sideways\"").is_err());
    }

    #[test]
    fn fault_campaign_kind_round_trips_and_validates() {
        let spec = CampaignSpec::from_text(
            "{\"kind\": \"fault_campaign\", \"routing\": \"both\", \"mesh_k\": 6, \
             \"scenarios\": 250, \"max_faults\": 3, \"seed\": 9, \"threads\": 2}",
        )
        .unwrap();
        assert_eq!(spec.kind, "fault_campaign");
        let text = spec.to_json().render();
        assert_eq!(CampaignSpec::from_text(&text).unwrap(), spec);

        let cc = spec.campaign_config().unwrap();
        assert_eq!(cc.scenarios_per_point, 250);
        assert_eq!(cc.max_faults, 3);
        assert_eq!(cc.seed, 9);
        assert_eq!(cc.threads, 2);
        assert_eq!(cc.modes.len(), 2, "routing: both runs a paired comparison");
        assert_eq!(cc.base.mesh_k, 6);

        // `routing: both` is a campaign concept; plain simulations must
        // pick one mode. Unknown kinds and modes fail loudly, and a
        // simulate spec has no campaign configuration.
        assert!(CampaignSpec::from_text("{\"routing\": \"both\"}").is_err());
        assert!(CampaignSpec::from_text("{\"kind\": \"replay\"}").is_err());
        assert!(CampaignSpec::from_text("{\"routing\": \"zigzag\"}").is_err());
        assert!(
            CampaignSpec::from_text("{\"kind\": \"fault_campaign\", \"scenarios\": 0}").is_err()
        );
        let sim = CampaignSpec::from_text("{\"routing\": \"adaptive\"}").unwrap();
        assert!(sim.campaign_config().is_err());
        assert_eq!(
            sim.network_config().unwrap().routing,
            RoutingMode::Adaptive,
            "simulate jobs honour the routing field"
        );
    }

    #[test]
    fn integers_must_be_exact() {
        let with = |fields: &str| CampaignSpec::from_text(&format!("{{{fields}}}"));
        // 2^53 + 1 parses to 2^53: it would run, and echo, as another seed.
        let err = with("\"seed\": 9007199254740993").unwrap_err();
        assert!(err.contains("`seed`") && err.contains("2^53"), "{err}");
        let err = with("\"measure_cycles\": 1e30").unwrap_err();
        assert!(err.contains("`measure_cycles`"), "{err}");
        // The largest exact integer is accepted and echoed unchanged.
        let spec = with("\"seed\": 9007199254740991").unwrap();
        assert_eq!(spec.seed, 9_007_199_254_740_991);
        assert_eq!(
            CampaignSpec::from_text(&spec.to_json().render()).unwrap(),
            spec
        );
    }

    #[test]
    fn cycle_budgets_cannot_overflow() {
        let spec = CampaignSpec {
            measure_cycles: u64::MAX,
            drain_cycles: 1,
            ..CampaignSpec::default()
        };
        let err = spec.validate().unwrap_err();
        assert!(
            err.contains("`drain_cycles`") && err.contains("overflows"),
            "{err}"
        );
    }

    #[test]
    fn max_faults_is_bounded_by_the_links() {
        let with = |fields: &str| {
            CampaignSpec::from_text(&format!(
                "{{\"kind\": \"fault_campaign\", \"routing\": \"both\", {fields}}}"
            ))
        };
        let err = with("\"max_faults\": 4000000000").unwrap_err();
        assert!(err.contains("`max_faults`"), "{err}");
        // A 4x4 mesh has 24 links: every one may fail, no more.
        assert!(with("\"max_faults\": 24").is_ok());
        assert!(with("\"max_faults\": 25").is_err());
    }

    #[test]
    fn cutmesh_topology_arg_is_accepted() {
        let spec = CampaignSpec::from_text("{\"topology\": \"cutmesh3:7\"}").unwrap();
        let cfg = spec.network_config().unwrap();
        assert_eq!(
            cfg.topology,
            TopologySpec::CutMesh {
                w: 4,
                h: 4,
                cuts: 3,
                seed: 7
            }
        );
    }

    /// Up*/down* tables grow with the square of the router count, so a
    /// table-routed job past the bound is refused before it is built —
    /// also when only a fault campaign's adaptive arm would build them.
    #[test]
    fn table_routed_specs_past_the_router_bound_are_refused() {
        for fields in [
            r#""mesh_k": 255, "topology": "cutmesh1""#,
            r#""mesh_k": 128, "topology": "cutmesh1""#,
            r#""mesh_k": 200, "routing": "adaptive""#,
            r#""kind": "fault_campaign", "mesh_k": 200, "routing": "both""#,
        ] {
            let err = CampaignSpec::from_text(&format!("{{{fields}}}")).unwrap_err();
            assert!(err.contains("up*/down*-table routing"), "{fields}: {err}");
        }
        let static_xy = CampaignSpec::from_text(r#"{"mesh_k": 200}"#).unwrap();
        assert!(static_xy.validate().is_ok(), "XY routing builds no tables");
    }

    #[test]
    fn chiplet_topology_args_are_accepted_and_echoed() {
        let spec = CampaignSpec::from_text("{\"topology\": \"chipletmesh2x4:6:4\"}").unwrap();
        let cfg = spec.network_config().unwrap();
        assert_eq!(
            cfg.topology,
            TopologySpec::ChipletMesh {
                k_chip: 2,
                k_node: 4,
                d2d: noc_types::LinkClass {
                    latency: 6,
                    width_denom: 4
                },
            }
        );
        // The resolved echo (what the spool stores) keeps the argument
        // verbatim and survives a parse round trip.
        let echoed = spec.to_json().render();
        assert!(echoed.contains("\"chipletmesh2x4:6:4\""));
        assert_eq!(CampaignSpec::from_text(&echoed).unwrap(), spec);

        let star = CampaignSpec::from_text("{\"topology\": \"chipletstar3x4\"}").unwrap();
        assert_eq!(
            star.network_config().unwrap().topology,
            TopologySpec::ChipletStar {
                chiplets: 3,
                k_node: 4,
                d2d: noc_types::LinkClass::D2D_DEFAULT,
                hub: noc_types::LinkClass::HUB_DEFAULT,
            }
        );

        // Malformed chiplet arguments fail spec validation — the HTTP
        // layer turns this into a 400 (pinned in service_e2e).
        for bad in [
            "{\"topology\": \"chipletmesh2x\"}",
            "{\"topology\": \"chipletmeshx4\"}",
            "{\"topology\": \"chipletstar3x4:abc\"}",
            "{\"topology\": \"chipletmesh2x4:6:0\"}",
        ] {
            assert!(CampaignSpec::from_text(bad).is_err(), "{bad} must reject");
        }
    }
}
