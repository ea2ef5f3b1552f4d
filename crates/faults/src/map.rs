//! Per-router fault state.

use crate::site::{FaultSite, PipelineStage};
use noc_types::{PortId, RouterConfig, VcId};

// Indices into `FaultMap::per_port`, one per per-port site kind...
const RC_PRIMARY: usize = 0;
const RC_DUPLICATE: usize = 1;
const SA1: usize = 2;
const SA1_BYPASS: usize = 3;
const SA2: usize = 4;
const XB_MUX: usize = 5;
const XB_SECONDARY: usize = 6;
// ...and into `FaultMap::per_vc`, one per per-VC kind.
const VA1: usize = 0;
const VA2: usize = 1;

/// All-ones over the low `width` bits.
#[inline]
fn width_mask(width: usize) -> u32 {
    if width >= 32 {
        !0
    } else {
        (1u32 << width) - 1
    }
}

/// The set of faulty sites of one router, plus the helper queries the
/// protected pipeline needs every cycle.
///
/// A heap-free value of nine words, one per site kind: a `u32` with bit
/// `port` for each of the seven per-port kinds, a `u64` with bit
/// `port · V + vc` for VA1 and for VA2. That holds `ports ≤ 32` and
/// `ports · vcs ≤ 64` — every router `RouterConfig::validate` admits
/// (`ports · vcs ≤ 32`), and the 5-port 8-VC point of the analytical
/// SPF sweep (Section VIII-E), which is never simulated. The shape is
/// fixed at construction, which is also what lets [`FaultMap::inject`]
/// refuse a site the router does not have. The stage kernels read
/// whole words (`va1_word`, `xb_primary_dead_word`, …); `is_faulty` is
/// the site-by-site view of the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMap {
    per_vc: [u64; 2],
    per_port: [u32; 7],
    ports: u8,
    vcs: u8,
}

/// Where one site lives in a [`FaultMap`].
enum Slot {
    PerPort(usize, u32),
    PerVc(usize, u64),
}

impl FaultMap {
    /// An all-healthy router of configuration `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg` has more than 32 ports, 32 VCs per port or 64
    /// (port, VC) pairs.
    pub fn healthy(cfg: &RouterConfig) -> Self {
        assert!(
            cfg.ports <= 32 && cfg.vcs <= 32 && cfg.ports * cfg.vcs <= 64,
            "a fault map holds at most 32 ports, 32 VCs a port and 64 (port, vc) pairs (got {} x {})",
            cfg.ports,
            cfg.vcs
        );
        FaultMap {
            per_vc: [0; 2],
            per_port: [0; 7],
            ports: cfg.ports as u8,
            vcs: cfg.vcs as u8,
        }
    }

    /// Build a map from a list of sites.
    pub fn from_sites(cfg: &RouterConfig, sites: impl IntoIterator<Item = FaultSite>) -> Self {
        let mut map = FaultMap::healthy(cfg);
        for site in sites {
            map.inject(site);
        }
        map
    }

    /// Mark every site healthy again, keeping the shape.
    pub fn clear(&mut self) {
        self.per_vc = [0; 2];
        self.per_port = [0; 7];
    }

    /// `Ok` when a router of this map's shape has `site`, else a message
    /// naming the site and the shape. A site read from outside the
    /// program must pass this before it is injected.
    pub fn check(&self, site: FaultSite) -> Result<(), String> {
        if site.fits(self.ports(), self.vcs()) {
            return Ok(());
        }
        Err(format!(
            "fault site {site} outside a {}-port {}-VC router",
            self.ports, self.vcs
        ))
    }

    fn ports(&self) -> usize {
        self.ports.into()
    }

    fn vcs(&self) -> usize {
        self.vcs.into()
    }

    /// The word holding `site` and its bit there; `None` for a site
    /// outside the map's shape.
    #[inline]
    fn locate(&self, site: FaultSite) -> Option<Slot> {
        if !site.fits(self.ports(), self.vcs()) {
            return None;
        }
        let per_port = |kind, port: PortId| Slot::PerPort(kind, 1 << port.index());
        let per_vc = |kind, port: PortId, vc: VcId| {
            Slot::PerVc(kind, 1 << (port.index() * self.vcs() + vc.index()))
        };
        Some(match site {
            FaultSite::RcPrimary { port } => per_port(RC_PRIMARY, port),
            FaultSite::RcDuplicate { port } => per_port(RC_DUPLICATE, port),
            FaultSite::Va1ArbiterSet { port, vc } => per_vc(VA1, port, vc),
            FaultSite::Va2Arbiter { out_port, out_vc } => per_vc(VA2, out_port, out_vc),
            FaultSite::Sa1Arbiter { port } => per_port(SA1, port),
            FaultSite::Sa1Bypass { port } => per_port(SA1_BYPASS, port),
            FaultSite::Sa2Arbiter { out_port } => per_port(SA2, out_port),
            FaultSite::XbMux { out_port } => per_port(XB_MUX, out_port),
            FaultSite::XbSecondary { out_port } => per_port(XB_SECONDARY, out_port),
        })
    }

    /// Mark a site permanently faulty. Returns `true` if the site was
    /// previously healthy.
    ///
    /// # Panics
    /// Panics on a site the router does not have
    /// ([`FaultSite::in_range`]): it has no bit to set.
    pub fn inject(&mut self, site: FaultSite) -> bool {
        match self.locate(site) {
            Some(Slot::PerPort(kind, bit)) => {
                let fresh = self.per_port[kind] & bit == 0;
                self.per_port[kind] |= bit;
                fresh
            }
            Some(Slot::PerVc(kind, bit)) => {
                let fresh = self.per_vc[kind] & bit == 0;
                self.per_vc[kind] |= bit;
                fresh
            }
            None => panic!("{}", self.check(site).expect_err("no slot")),
        }
    }

    /// Whether a site is faulty (never, for a site outside the shape).
    #[inline]
    pub fn is_faulty(&self, site: FaultSite) -> bool {
        match self.locate(site) {
            Some(Slot::PerPort(kind, bit)) => self.per_port[kind] & bit != 0,
            Some(Slot::PerVc(kind, bit)) => self.per_vc[kind] & bit != 0,
            None => false,
        }
    }

    /// Number of faulty sites.
    pub fn len(&self) -> usize {
        PipelineStage::ALL
            .iter()
            .map(|&stage| self.count_stage(stage))
            .sum()
    }

    /// Whether the router is fully healthy.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.per_vc == [0; 2] && self.per_port == [0; 7]
    }

    /// Iterate over the faulty sites, in [`FaultSite::enumerate`] order.
    pub fn iter(&self) -> impl Iterator<Item = FaultSite> + '_ {
        FaultSite::all(self.ports(), self.vcs()).filter(|&s| self.is_faulty(s))
    }

    /// Number of faults in a given pipeline stage.
    pub fn count_stage(&self, stage: PipelineStage) -> usize {
        let per_port =
            |kinds: &[usize]| -> u32 { kinds.iter().map(|&k| self.per_port[k].count_ones()).sum() };
        (match stage {
            PipelineStage::Rc => per_port(&[RC_PRIMARY, RC_DUPLICATE]),
            PipelineStage::Va => self.per_vc[VA1].count_ones() + self.per_vc[VA2].count_ones(),
            PipelineStage::Sa => per_port(&[SA1, SA1_BYPASS]),
            PipelineStage::Xb => per_port(&[SA2, XB_MUX, XB_SECONDARY]),
        }) as usize
    }

    // ---- Whole words, for the stage kernels (bit = port) ----

    /// Input ports whose original RC unit is faulty.
    #[inline]
    pub fn rc_primary_word(&self) -> u32 {
        self.per_port[RC_PRIMARY]
    }

    /// Input ports whose duplicate RC unit is faulty.
    #[inline]
    pub fn rc_duplicate_word(&self) -> u32 {
        self.per_port[RC_DUPLICATE]
    }

    /// VCs of input `port` whose VA stage-1 arbiter set is faulty
    /// (bit = vc).
    #[inline]
    pub fn va1_word(&self, port: PortId) -> u32 {
        self.vc_word(VA1, port)
    }

    /// Downstream VCs of output `out_port` whose VA stage-2 arbiter is
    /// faulty (bit = vc).
    #[inline]
    pub fn va2_word(&self, out_port: PortId) -> u32 {
        self.vc_word(VA2, out_port)
    }

    #[inline]
    fn vc_word(&self, kind: usize, port: PortId) -> u32 {
        debug_assert!(port.index() < self.ports());
        (self.per_vc[kind] >> (port.index() * self.vcs())) as u32 & width_mask(self.vcs())
    }

    /// Input ports whose SA stage-1 arbiter is faulty.
    #[inline]
    pub fn sa1_word(&self) -> u32 {
        self.per_port[SA1]
    }

    /// Input ports whose SA stage-1 bypass path is faulty.
    #[inline]
    pub fn sa1_bypass_word(&self) -> u32 {
        self.per_port[SA1_BYPASS]
    }

    /// Output ports whose SA stage-2 arbiter is faulty.
    #[inline]
    pub fn sa2_word(&self) -> u32 {
        self.per_port[SA2]
    }

    /// Output ports whose crossbar mux `M_i` is faulty.
    #[inline]
    pub fn xb_mux_word(&self) -> u32 {
        self.per_port[XB_MUX]
    }

    /// Output ports whose *normal* path is unusable: the crossbar mux or
    /// the SA2 arbiter is faulty ([`FaultMap::xb_primary_dead`]).
    #[inline]
    pub fn xb_primary_dead_word(&self) -> u32 {
        self.per_port[XB_MUX] | self.per_port[SA2]
    }

    // ---- Queries used by the protected router, matching Section V ----

    /// RC is impossible at `port`: both the original and the duplicate RC
    /// unit are faulty (Section VIII-A's minimum-failure case).
    pub fn rc_dead(&self, port: PortId) -> bool {
        self.is_faulty(FaultSite::RcPrimary { port })
            && self.is_faulty(FaultSite::RcDuplicate { port })
    }

    /// The VA-stage-1 arbiter set of `(port, vc)` is unusable.
    pub fn va1_set_faulty(&self, port: PortId, vc: VcId) -> bool {
        self.is_faulty(FaultSite::Va1ArbiterSet { port, vc })
    }

    /// VA is impossible at `port`: every VC's arbiter set is faulty
    /// (Section VIII-B's minimum-failure case).
    pub fn va_dead(&self, port: PortId, vcs: usize) -> bool {
        VcId::all(vcs).all(|vc| self.va1_set_faulty(port, vc))
    }

    /// Switch allocation is impossible at `port`: both the SA1 arbiter
    /// and its bypass path are faulty (Section VIII-C).
    pub fn sa1_dead(&self, port: PortId) -> bool {
        self.is_faulty(FaultSite::Sa1Arbiter { port })
            && self.is_faulty(FaultSite::Sa1Bypass { port })
    }

    /// The *normal* path to output `out_port` is unusable: either its
    /// crossbar mux `M_i` or its SA2 arbiter is faulty. (Either condition
    /// forces the secondary path; Section V-C2/V-D.)
    pub fn xb_primary_dead(&self, out_port: PortId) -> bool {
        self.is_faulty(FaultSite::XbMux { out_port })
            || self.is_faulty(FaultSite::Sa2Arbiter { out_port })
    }

    /// The secondary path to `out_port` is unusable.
    pub fn xb_secondary_dead(&self, out_port: PortId) -> bool {
        self.is_faulty(FaultSite::XbSecondary { out_port })
    }

    /// Output `out_port` is completely unreachable (primary and secondary
    /// paths both dead — Section VIII-D's minimum-failure case). The
    /// caller must additionally check that the *source* mux of the
    /// secondary path is alive; that routing decision lives in the
    /// crossbar model, which knows the secondary topology.
    pub fn xb_dead(&self, out_port: PortId) -> bool {
        self.xb_primary_dead(out_port) && self.xb_secondary_dead(out_port)
    }

    /// Whether the router, as a whole, can still perform its function for
    /// every port — the failure predicate used by the Monte-Carlo SPF
    /// estimator and the fault planner's tolerance test, so it is word
    /// tests throughout. `secondary_source` maps each output port to the
    /// primary mux that feeds its secondary path (from the crossbar
    /// topology).
    pub fn router_failed(
        &self,
        cfg: &RouterConfig,
        secondary_source: impl Fn(PortId) -> PortId,
    ) -> bool {
        debug_assert_eq!((cfg.ports, cfg.vcs), (self.ports(), self.vcs()));
        // A port with both RC units, or both SA1 paths, dead.
        if self.per_port[RC_PRIMARY] & self.per_port[RC_DUPLICATE] != 0
            || self.per_port[SA1] & self.per_port[SA1_BYPASS] != 0
        {
            return true;
        }
        let all_vcs = width_mask(self.vcs());
        let primary_dead = self.xb_primary_dead_word();
        let bit = |word: u32, port: PortId| word >> port.index() & 1 != 0;
        PortId::all(self.ports()).any(|port| {
            // Every VA1 set of an input, or every VA2 arbiter of an
            // output, dead.
            self.va1_word(port) == all_vcs
                || self.va2_word(port) == all_vcs
                // A dead primary path must fall back to the secondary:
                // it needs the secondary circuitry, and the source mux
                // with its SA2 arbiter to arbitrate through, alive.
                || bit(primary_dead, port)
                    && (bit(self.per_port[XB_SECONDARY], port)
                        || bit(primary_dead, secondary_source(port)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u8) -> PortId {
        PortId(i)
    }

    fn healthy() -> FaultMap {
        FaultMap::healthy(&RouterConfig::paper())
    }

    #[test]
    fn healthy_map_reports_nothing() {
        let m = healthy();
        assert!(m.is_empty());
        assert!(!m.rc_dead(p(0)));
        assert!(!m.va_dead(p(0), 4));
        assert!(!m.sa1_dead(p(0)));
        assert!(!m.xb_dead(p(0)));
    }

    #[test]
    fn inject_is_idempotent() {
        let mut m = healthy();
        let site = FaultSite::Sa1Arbiter { port: p(2) };
        assert!(m.inject(site));
        assert!(!m.inject(site));
        assert_eq!(m.len(), 1);
        assert!(m.is_faulty(site));
    }

    #[test]
    fn rc_dead_requires_both_units() {
        let mut m = healthy();
        m.inject(FaultSite::RcPrimary { port: p(1) });
        assert!(!m.rc_dead(p(1)));
        m.inject(FaultSite::RcDuplicate { port: p(1) });
        assert!(m.rc_dead(p(1)));
        assert!(!m.rc_dead(p(0)));
    }

    #[test]
    fn va_dead_requires_all_vc_sets() {
        let mut m = healthy();
        for vc in 0..3 {
            m.inject(FaultSite::Va1ArbiterSet {
                port: p(0),
                vc: VcId(vc),
            });
        }
        assert!(
            !m.va_dead(p(0), 4),
            "three of four sets faulty: still alive"
        );
        m.inject(FaultSite::Va1ArbiterSet {
            port: p(0),
            vc: VcId(3),
        });
        assert!(m.va_dead(p(0), 4));
    }

    #[test]
    fn sa1_dead_requires_arbiter_and_bypass() {
        let mut m = healthy();
        m.inject(FaultSite::Sa1Arbiter { port: p(3) });
        assert!(!m.sa1_dead(p(3)));
        m.inject(FaultSite::Sa1Bypass { port: p(3) });
        assert!(m.sa1_dead(p(3)));
    }

    #[test]
    fn xb_primary_dead_on_mux_or_sa2_fault() {
        let mut m = healthy();
        m.inject(FaultSite::XbMux { out_port: p(2) });
        assert!(m.xb_primary_dead(p(2)));
        let mut m2 = healthy();
        m2.inject(FaultSite::Sa2Arbiter { out_port: p(2) });
        assert!(m2.xb_primary_dead(p(2)));
    }

    #[test]
    fn router_failed_matches_paper_examples() {
        let cfg = RouterConfig::paper();
        // secondary source per the Figure 6 reconstruction:
        // sec(out_i) = M_{i-1} for i>=1, sec(out_0) = M_1 (0-indexed).
        let sec = |out: PortId| {
            if out.0 == 0 {
                PortId(1)
            } else {
                PortId(out.0 - 1)
            }
        };
        // M2 and M4 faulty (paper's tolerated example, 1-indexed M2/M4 →
        // 0-indexed muxes 1 and 3).
        let mut m = healthy();
        m.inject(FaultSite::XbMux { out_port: p(1) });
        m.inject(FaultSite::XbMux { out_port: p(3) });
        assert!(!m.router_failed(&cfg, sec), "M2+M4 are tolerated");
        // One more mux fault is fatal.
        m.inject(FaultSite::XbMux { out_port: p(2) });
        assert!(m.router_failed(&cfg, sec));
    }

    #[test]
    fn stays_within_the_hash_set_it_replaced() {
        // One pair of these per router: the 1024-router chiplet mesh
        // must not grow because healthy routers carry fault words.
        assert!(std::mem::size_of::<FaultMap>() <= 48);
    }

    #[test]
    fn iterates_in_enumeration_order_and_words_agree_with_sites() {
        // The widest shape in use: the SPF sweep's 5 ports x 8 VCs,
        // whose VA words run past bit 32.
        let cfg = RouterConfig {
            ports: 5,
            vcs: 8,
            ..RouterConfig::paper()
        };
        let all = FaultSite::enumerate(&cfg);
        let picked: Vec<FaultSite> = all.iter().copied().step_by(3).collect();
        // Injected back to front: iteration order is the map's own.
        let m = FaultMap::from_sites(&cfg, picked.iter().rev().copied());
        assert_eq!(m.iter().collect::<Vec<_>>(), picked);
        assert_eq!(m.len(), picked.len());
        for port in PortId::all(cfg.ports) {
            for vc in VcId::all(cfg.vcs) {
                let bit = 1 << vc.index();
                assert_eq!(m.va1_word(port) & bit != 0, m.va1_set_faulty(port, vc));
                assert_eq!(
                    m.va2_word(port) & bit != 0,
                    m.is_faulty(FaultSite::Va2Arbiter {
                        out_port: port,
                        out_vc: vc
                    })
                );
            }
            let bit = 1 << port.index();
            assert_eq!(m.xb_primary_dead_word() & bit != 0, m.xb_primary_dead(port));
            assert_eq!(
                m.rc_primary_word() & m.rc_duplicate_word() & bit != 0,
                m.rc_dead(port)
            );
            assert_eq!(
                m.sa1_word() & m.sa1_bypass_word() & bit != 0,
                m.sa1_dead(port)
            );
        }
    }

    #[test]
    fn sites_outside_the_shape_are_never_faulty_and_cannot_be_injected() {
        let mut m = healthy();
        let outside = FaultSite::Va1ArbiterSet {
            port: p(2),
            vc: VcId(9),
        };
        assert!(m.check(outside).is_err());
        assert!(!m.is_faulty(outside));
        assert!(!m.is_faulty(FaultSite::RcPrimary { port: p(200) }));
        let refused = std::panic::catch_unwind(move || m.inject(outside));
        assert!(refused.is_err(), "an out-of-range site has no bit to set");
    }

    #[test]
    fn count_stage_partitions_faults() {
        let mut m = healthy();
        m.inject(FaultSite::RcPrimary { port: p(0) });
        m.inject(FaultSite::Va1ArbiterSet {
            port: p(0),
            vc: VcId(0),
        });
        m.inject(FaultSite::Sa1Arbiter { port: p(0) });
        m.inject(FaultSite::XbMux { out_port: p(0) });
        m.inject(FaultSite::Sa2Arbiter { out_port: p(0) });
        assert_eq!(m.count_stage(PipelineStage::Rc), 1);
        assert_eq!(m.count_stage(PipelineStage::Va), 1);
        assert_eq!(m.count_stage(PipelineStage::Sa), 1);
        assert_eq!(m.count_stage(PipelineStage::Xb), 2);
    }
}
