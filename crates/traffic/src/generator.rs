//! The seeded packet generator driving `noc-sim`.

use crate::apps::{AppId, AppModel};
use crate::synthetic::SyntheticPattern;
use noc_types::rng::Rng;
use noc_types::{Coord, Cycle, Mesh, Packet, PacketId, PacketKind};
use std::collections::VecDeque;

/// What traffic to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficSpec {
    /// A synthetic pattern with Bernoulli injection.
    Synthetic {
        /// Destination pattern.
        pattern: SyntheticPattern,
        /// Packets per node per cycle.
        rate: f64,
        /// Fraction of packets that are 5-flit data packets.
        data_fraction: f64,
    },
    /// A SPLASH-2 / PARSEC application model.
    App(AppId),
}

/// Traffic configuration handed to the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// The traffic specification.
    pub spec: TrafficSpec,
}

impl TrafficConfig {
    /// Synthetic traffic with the default 40% data-packet mix.
    pub fn synthetic(pattern: SyntheticPattern, rate: f64) -> Self {
        TrafficConfig {
            spec: TrafficSpec::Synthetic {
                pattern,
                rate,
                data_fraction: 0.4,
            },
        }
    }

    /// Application-model traffic.
    pub fn app(id: AppId) -> Self {
        TrafficConfig {
            spec: TrafficSpec::App(id),
        }
    }
}

/// A directory response waiting for its service delay.
#[derive(Debug, Clone, Copy)]
struct PendingResponse {
    home: Coord,
    requester: Coord,
    kind: PacketKind,
}

/// A deterministic, seeded packet source.
///
/// ```
/// use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
/// use noc_types::Mesh;
///
/// let cfg = TrafficConfig::synthetic(SyntheticPattern::Transpose, 0.1);
/// let mut gen = TrafficGenerator::new(cfg, Mesh::new(8), 42);
/// let total: usize = (0..100).map(|c| gen.tick(c).len()).sum();
/// assert!(total > 0, "some packets within 100 cycles at rate 0.1");
/// // Same seed ⇒ same schedule.
/// let mut again = TrafficGenerator::new(cfg, Mesh::new(8), 42);
/// let repeat: usize = (0..100).map(|c| again.tick(c).len()).sum();
/// assert_eq!(total, repeat);
/// ```
pub struct TrafficGenerator {
    cfg: TrafficConfig,
    mesh: Mesh,
    /// The nodes packets may originate at or target: every grid
    /// coordinate by default, the topology's alive-node set under
    /// [`TrafficGenerator::for_topology`].
    nodes: Vec<Coord>,
    /// Whether `nodes` covers the whole grid (lets uniform draws sample
    /// coordinates directly instead of indexing the node list, which
    /// keeps the RNG stream of existing mesh campaigns unchanged).
    all_nodes: bool,
    rng: Rng,
    next_id: u64,
    /// App model, if the spec is an application.
    app: Option<AppModel>,
    /// Per-node burst state (on/off).
    node_on: Vec<bool>,
    /// Under an app spec, node `i`'s home-directory candidates within
    /// Manhattan distance 2 are `near[near_start[i]..near_start[i + 1]]`,
    /// in `nodes` order; empty otherwise. Built once with the node set.
    near_start: Vec<u32>,
    near: Vec<Coord>,
    /// Responses awaiting release, with their release cycles. Every
    /// response waits the model's one service delay and cycles are
    /// ticked in order, so release cycles never decrease along the
    /// queue.
    pending: VecDeque<(Cycle, PendingResponse)>,
    /// Total requests issued (diagnostics).
    pub requests_issued: u64,
    /// Total responses released (diagnostics).
    pub responses_issued: u64,
}

/// Probability per cycle of leaving the bursty ON state.
const BURST_EXIT_P: f64 = 0.02;

impl TrafficGenerator {
    /// Build a generator for `mesh` with a fixed seed.
    pub fn new(cfg: TrafficConfig, mesh: Mesh, seed: u64) -> Self {
        let app = match cfg.spec {
            TrafficSpec::App(id) => {
                let m = id.model();
                m.validate().expect("app model must validate");
                Some(m)
            }
            TrafficSpec::Synthetic { .. } => None,
        };
        let mut g = TrafficGenerator {
            cfg,
            mesh,
            nodes: mesh.coords().collect(),
            all_nodes: true,
            rng: Rng::seeded(seed),
            next_id: 0,
            app,
            node_on: vec![true; mesh.len()],
            near_start: Vec::new(),
            near: Vec::new(),
            pending: VecDeque::new(),
            requests_issued: 0,
            responses_issued: 0,
        };
        g.build_near_lists();
        g
    }

    /// Fill `near_start`/`near` from `nodes` (app specs only: synthetic
    /// traffic never picks a home node).
    fn build_near_lists(&mut self) {
        self.near_start.clear();
        self.near.clear();
        if self.app.is_none() {
            return;
        }
        for &src in &self.nodes {
            self.near_start.push(self.near.len() as u32);
            self.near.extend(
                self.nodes
                    .iter()
                    .filter(|&&c| c != src && c.manhattan(src) <= 2),
            );
        }
        self.near_start.push(self.near.len() as u32);
    }

    /// Build a generator whose sources and destinations are the
    /// topology's alive-node set (identical to [`TrafficGenerator::new`]
    /// on a full grid). Deterministic patterns whose image leaves the
    /// node set have those packets skipped, like self-addressed ones.
    pub fn for_topology(cfg: TrafficConfig, topo: &noc_topology::Topology, seed: u64) -> Self {
        let mesh = topo.grid();
        let nodes: Vec<Coord> = topo
            .alive_nodes()
            .into_iter()
            .map(|n| mesh.coord_of(noc_types::RouterId(n as u16)))
            .collect();
        let all_nodes = nodes.len() == mesh.len();
        let mut g = TrafficGenerator::new(cfg, mesh, seed);
        g.node_on = vec![true; nodes.len()];
        g.nodes = nodes;
        g.all_nodes = all_nodes;
        g.build_near_lists();
        g
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrafficConfig {
        &self.cfg
    }

    fn fresh_id(&mut self) -> PacketId {
        self.next_id += 1;
        PacketId(self.next_id)
    }

    /// Packets created this cycle, as a fresh vector.
    ///
    /// Hot loops should prefer [`TrafficGenerator::tick_into`], which
    /// reuses the caller's buffer instead of allocating every cycle.
    pub fn tick(&mut self, cycle: Cycle) -> Vec<Packet> {
        let mut out = Vec::new();
        self.tick_into(cycle, &mut out);
        out
    }

    /// Append the packets created this cycle to `out` (not cleared).
    pub fn tick_into(&mut self, cycle: Cycle, out: &mut Vec<Packet>) {
        match self.cfg.spec {
            TrafficSpec::Synthetic {
                pattern,
                rate,
                data_fraction,
            } => self.tick_synthetic(cycle, pattern, rate, data_fraction, out),
            TrafficSpec::App(_) => self.tick_app(cycle, out),
        }
    }

    fn tick_synthetic(
        &mut self,
        cycle: Cycle,
        pattern: SyntheticPattern,
        rate: f64,
        data_fraction: f64,
        out: &mut Vec<Packet>,
    ) {
        let mesh = self.mesh;
        for ix in 0..self.nodes.len() {
            let src = self.nodes[ix];
            if self.rng.next_f64() >= rate {
                continue;
            }
            let dst = if self.all_nodes || !matches!(pattern, SyntheticPattern::UniformRandom) {
                pattern.destination(src, mesh, &mut self.rng)
            } else {
                // Restricted node set: draw uniformly from it directly.
                loop {
                    let d = self.nodes[self.rng.index(self.nodes.len())];
                    if d != src || self.nodes.len() == 1 {
                        break d;
                    }
                }
            };
            if dst == src {
                continue; // deterministic patterns may self-address; skip
            }
            if !self.all_nodes && !self.nodes.contains(&dst) {
                continue; // pattern image left the alive-node set; skip
            }
            let kind = if self.rng.next_f64() < data_fraction {
                PacketKind::Data
            } else {
                PacketKind::Control
            };
            let id = self.fresh_id();
            out.push(Packet::new(id, kind, src, dst, cycle));
        }
    }

    fn tick_app(&mut self, cycle: Cycle, out: &mut Vec<Packet>) {
        let model = self.app.expect("app spec has a model");

        // 1. Release matured directory responses.
        while let Some(&(release, r)) = self.pending.front() {
            if release > cycle {
                break;
            }
            self.pending.pop_front();
            let id = self.fresh_id();
            out.push(Packet::new(id, r.kind, r.home, r.requester, cycle));
            self.responses_issued += 1;
        }

        // 2. Per-node request issue, modulated by the burst process.
        let duty = model.burstiness;
        let rate_on = model.request_rate / duty;
        let p_on_off = if duty >= 0.999 { 0.0 } else { BURST_EXIT_P };
        let p_off_on = if duty >= 0.999 {
            1.0
        } else {
            // Stationary distribution: P(on) = duty.
            (BURST_EXIT_P * duty / (1.0 - duty)).min(1.0)
        };
        for ix in 0..self.nodes.len() {
            let src = self.nodes[ix];
            // Burst state transition.
            let on = self.node_on[ix];
            let flip = self.rng.next_f64();
            self.node_on[ix] = if on {
                flip >= p_on_off
            } else {
                flip < p_off_on
            };
            if !self.node_on[ix] || self.rng.next_f64() >= rate_on {
                continue;
            }
            // Issue a 1-flit request to the home directory.
            let home = self.home_node(ix, model.locality);
            let id = self.fresh_id();
            out.push(Packet::new(id, PacketKind::Control, src, home, cycle));
            self.requests_issued += 1;
            // Schedule the response.
            let kind = if self.rng.next_f64() < model.read_fraction {
                PacketKind::Data
            } else {
                PacketKind::Control
            };
            let release = cycle + model.service_delay;
            self.pending.push_back((
                release,
                PendingResponse {
                    home,
                    requester: src,
                    kind,
                },
            ));
        }
    }

    /// Pick the home-directory node for `nodes[ix]`: within Manhattan
    /// distance 2 with probability `locality`, uniform otherwise.
    fn home_node(&mut self, ix: usize, locality: f64) -> Coord {
        let src = self.nodes[ix];
        if self.rng.next_f64() < locality {
            let near = &self.near[self.near_start[ix] as usize..self.near_start[ix + 1] as usize];
            if !near.is_empty() {
                return near[self.rng.index(near.len())];
            }
        }
        loop {
            let d = if self.all_nodes {
                Coord::new(
                    self.rng.below(self.mesh.w.into()) as u8,
                    self.rng.below(self.mesh.h.into()) as u8,
                )
            } else {
                self.nodes[self.rng.index(self.nodes.len())]
            };
            if d != src || self.nodes.len() == 1 {
                return d;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

use noc_telemetry::json::{JsonReader, JsonSink};
use noc_telemetry::snapshot::{
    decode_hex, encode_hex, FromSnapshot, Restore, Snapshot, SnapshotError,
};

noc_telemetry::record! {
    PendingResponse { home, requester, kind }
}

impl Snapshot for TrafficGenerator {
    /// The generator's resumable state: the RNG stream, the packet-id
    /// counter, per-node burst flags and the in-flight directory
    /// responses. The configuration (spec, mesh, node set, app model)
    /// is *not* stored — the generator is rebuilt from it before
    /// [`Restore::restore`]. `pending` renders as one group per release
    /// cycle, in release order, so equal state renders to equal bytes.
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| {
            sink.field("rng")
                .arr(self.rng.state(), |sink, w| encode_hex(sink, w));
            sink.field("next_id").u64(self.next_id);
            sink.field("node_on")
                .arr(&self.node_on, |sink, &b| sink.bool(b));
            sink.field("pending").begin_arr();
            for (i, &(release, p)) in self.pending.iter().enumerate() {
                if i == 0 || self.pending[i - 1].0 != release {
                    sink.begin_obj();
                    sink.field("release").u64(release);
                    sink.field("entries").begin_arr();
                }
                p.encode(sink);
                if self
                    .pending
                    .get(i + 1)
                    .is_none_or(|&(next, _)| next != release)
                {
                    sink.end_arr();
                    sink.end_obj();
                }
            }
            sink.end_arr();
            sink.field("requests_issued").u64(self.requests_issued);
            sink.field("responses_issued").u64(self.responses_issued);
        });
    }
}

impl Restore for TrafficGenerator {
    fn restore_from(&mut self, r: &mut JsonReader<'_>) -> Result<(), SnapshotError> {
        r.obj(|r| {
            let mut words = [0u64; 4];
            r.field_arr_of("rng", &[4], &mut |r, i| {
                words[i] = decode_hex(r)?;
                Ok(())
            })?;
            self.rng = Rng::from_state(words)
                .ok_or_else(|| SnapshotError::new("all four state words are zero").within("rng"))?;
            self.next_id = r.field("next_id")?;
            r.fill("node_on", &[self.node_on.len()], &mut self.node_on)?;
            self.pending.clear();
            r.field_with("pending", |r| {
                r.arr(|r, _| {
                    r.obj(|r| {
                        let release = r.field("release")?;
                        if self
                            .pending
                            .back()
                            .is_some_and(|&(last, _)| last >= release)
                        {
                            return Err(SnapshotError::new(format!(
                                "release {release} does not follow the previous group's"
                            )));
                        }
                        r.field_with("entries", |r| {
                            r.arr(|r, _| {
                                self.pending
                                    .push_back((release, PendingResponse::decode(r)?));
                                Ok(())
                            })
                        })?;
                        Ok(())
                    })
                })
            })?;
            self.requests_issued = r.field("requests_issued")?;
            self.responses_issued = r.field("responses_issued")?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_telemetry::JsonValue;

    fn mesh() -> Mesh {
        Mesh::new(8)
    }

    #[test]
    fn synthetic_rate_is_respected_on_average() {
        let cfg = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.02);
        let mut g = TrafficGenerator::new(cfg, mesh(), 1);
        let cycles = 5_000u64;
        let total: usize = (0..cycles).map(|c| g.tick(c).len()).sum();
        let expected = 0.02 * 64.0 * cycles as f64;
        let ratio = total as f64 / expected;
        assert!((0.93..1.07).contains(&ratio), "rate off: {ratio}");
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let cfg = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.05);
        let mut a = TrafficGenerator::new(cfg, mesh(), 9);
        let mut b = TrafficGenerator::new(cfg, mesh(), 9);
        for c in 0..200 {
            assert_eq!(a.tick(c), b.tick(c));
        }
        let mut c_gen = TrafficGenerator::new(cfg, mesh(), 10);
        let differs = (0..200).any(|c| {
            let x = TrafficGenerator::new(cfg, mesh(), 9);
            drop(x);
            a.tick(c + 200) != c_gen.tick(c + 200)
        });
        assert!(differs);
    }

    #[test]
    fn deterministic_patterns_skip_self_addressed_sources() {
        // Transpose maps the diagonal to itself; the generator must skip
        // those sources rather than emit self-addressed packets.
        let cfg = TrafficConfig::synthetic(SyntheticPattern::Transpose, 1.0);
        let mut g = TrafficGenerator::new(cfg, mesh(), 2);
        for c in 0..50 {
            for p in g.tick(c) {
                assert_ne!(p.src, p.dst);
                assert_ne!(p.src.x, p.src.y, "diagonal sources never inject");
            }
        }
    }

    #[test]
    fn hotspot_traffic_concentrates_on_centre() {
        let cfg = TrafficConfig {
            spec: TrafficSpec::Synthetic {
                pattern: SyntheticPattern::Hotspot { fraction: 0.6 },
                rate: 0.5,
                data_fraction: 0.0,
            },
        };
        let mut g = TrafficGenerator::new(cfg, mesh(), 4);
        let hot = Coord::new(4, 4);
        let mut to_hot = 0usize;
        let mut total = 0usize;
        for c in 0..400 {
            for p in g.tick(c) {
                total += 1;
                if p.dst == hot {
                    to_hot += 1;
                }
            }
        }
        let frac = to_hot as f64 / total as f64;
        assert!(frac > 0.45, "≈60% to the hotspot, got {frac}");
    }

    #[test]
    fn app_requests_are_single_flit_to_home() {
        let mut g = TrafficGenerator::new(TrafficConfig::app(AppId::Fft), mesh(), 3);
        let mut saw_request = false;
        for c in 0..200 {
            for p in g.tick(c) {
                if p.created_at == c && p.kind == PacketKind::Control {
                    saw_request = true;
                }
                assert_ne!(p.src, p.dst);
            }
        }
        assert!(saw_request);
        assert!(g.requests_issued > 0);
    }

    #[test]
    fn responses_follow_requests_after_service_delay() {
        let model = AppId::Radix.model();
        let mut g = TrafficGenerator::new(TrafficConfig::app(AppId::Radix), mesh(), 7);
        let mut requests = 0u64;
        let mut responses = 0u64;
        let horizon = 3_000;
        for c in 0..horizon {
            for p in g.tick(c) {
                // Responses flow home→requester; tally by bookkeeping.
                let _ = p;
            }
            requests = g.requests_issued;
            responses = g.responses_issued;
        }
        assert!(requests > 0);
        // All but the last `service_delay` worth of requests answered.
        assert!(responses > 0);
        assert!(responses <= requests);
        let unanswered = requests - responses;
        let recent_window = model.service_delay as f64 * 64.0 * model.request_rate * 3.0;
        assert!(
            (unanswered as f64) <= recent_window.max(10.0),
            "unanswered {unanswered} vs window {recent_window}"
        );
    }

    #[test]
    fn read_fraction_controls_data_mix() {
        let mut g = TrafficGenerator::new(TrafficConfig::app(AppId::Raytrace), mesh(), 5);
        let mut data = 0usize;
        for c in 0..20_000 {
            for p in g.tick(c) {
                // Responses are the only Data packets in the app model;
                // control responses are indistinguishable from requests,
                // so only measure the data fraction among responses.
                if p.kind == PacketKind::Data {
                    data += 1;
                }
            }
        }
        let control_responses = (g.responses_issued as usize).saturating_sub(data);
        let frac = data as f64 / (data + control_responses).max(1) as f64;
        let expect = AppId::Raytrace.model().read_fraction;
        assert!(
            (frac - expect).abs() < 0.06,
            "data fraction {frac} vs model {expect}"
        );
    }

    #[test]
    fn locality_biases_home_selection() {
        let mut g = TrafficGenerator::new(TrafficConfig::app(AppId::WaterSpatial), mesh(), 11);
        let mut near = 0usize;
        let mut total = 0usize;
        for c in 0..30_000 {
            for p in g.tick(c) {
                if p.kind == PacketKind::Control && p.created_at == c {
                    // Count requests only (responses reuse Control too);
                    // requests always originate this cycle with src→home.
                    total += 1;
                    if p.src.manhattan(p.dst) <= 2 {
                        near += 1;
                    }
                }
            }
        }
        let frac = near as f64 / total.max(1) as f64;
        let expect = AppId::WaterSpatial.model().locality;
        // Control responses pollute the sample a little; allow slack.
        assert!(
            frac > expect * 0.7,
            "locality fraction {frac} vs model {expect}"
        );
    }

    #[test]
    fn snapshot_restore_resumes_the_exact_stream() {
        for cfg in [
            TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.1),
            TrafficConfig::app(AppId::Fft),
        ] {
            let mut original = TrafficGenerator::new(cfg, mesh(), 42);
            for c in 0..500 {
                let _ = original.tick(c);
            }
            let snap = original.snapshot();
            let text = snap.render();
            let reparsed = noc_telemetry::JsonValue::parse(&text).unwrap();
            let mut resumed = TrafficGenerator::new(cfg, mesh(), 42);
            resumed.restore(&reparsed).unwrap();
            assert_eq!(resumed.snapshot().render(), text, "canonical bytes");
            for c in 500..1_000 {
                assert_eq!(original.tick(c), resumed.tick(c), "cycle {c}");
            }
        }
    }

    #[test]
    fn pending_groups_must_come_in_release_order() {
        let mut g = TrafficGenerator::new(TrafficConfig::app(AppId::Fft), mesh(), 42);
        for c in 0..100 {
            let _ = g.tick(c);
        }
        let mut snap = g.snapshot();
        let JsonValue::Obj(fields) = &mut snap else {
            panic!("snapshot is an object")
        };
        let (_, JsonValue::Arr(pending)) = fields.iter_mut().find(|(k, _)| k == "pending").unwrap()
        else {
            panic!("pending is an array")
        };
        assert!(pending.len() > 2, "responses of several cycles wait");
        pending.swap(1, 2);
        let err = g.restore(&snap).unwrap_err();
        assert!(err.message.starts_with("pending[2]: release "), "{err}");
    }

    #[test]
    fn all_zero_rng_words_fail_typed_and_leave_the_generator_usable() {
        let cfg = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.1);
        let mut g = TrafficGenerator::new(cfg, mesh(), 42);
        let before = g.snapshot().render();
        let mut snap = g.snapshot();
        let JsonValue::Obj(fields) = &mut snap else {
            panic!("snapshot is an object")
        };
        let (_, rng) = fields.iter_mut().find(|(k, _)| k == "rng").unwrap();
        *rng = JsonValue::Arr(vec![JsonValue::Str("0x0".into()); 4]);
        let err = g.restore(&snap).unwrap_err();
        assert!(err.to_string().contains("rng"), "{err}");
        assert_eq!(g.snapshot().render(), before, "nothing restored");
        assert!((0..200).map(|c| g.tick(c).len()).sum::<usize>() > 0);
    }

    #[test]
    fn bursty_apps_have_quiet_periods() {
        // radix (burstiness 0.6) must show cycles with zero injections
        // from a node that is OFF; aggregate variance shows up as cycles
        // with zero packets despite a decent mean rate.
        let mut g = TrafficGenerator::new(TrafficConfig::app(AppId::Radix), Mesh::new(2), 13);
        let mut zero_cycles = 0;
        for c in 0..5_000 {
            if g.tick(c).is_empty() {
                zero_cycles += 1;
            }
        }
        assert!(
            zero_cycles > 1_000,
            "quiet cycles expected, got {zero_cycles}"
        );
    }
}
