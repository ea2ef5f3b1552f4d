//! Fault-site addressing over the router component graph.

use noc_types::{Direction, PortId, RouterConfig, RouterId, VcId};

/// The four stages of the router control pipeline (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PipelineStage {
    /// Routing computation.
    Rc,
    /// Virtual-channel allocation (both separable stages).
    Va,
    /// Switch allocation (both separable stages).
    Sa,
    /// Crossbar traversal.
    Xb,
}

impl PipelineStage {
    /// All four stages in pipeline order.
    pub const ALL: [PipelineStage; 4] = [
        PipelineStage::Rc,
        PipelineStage::Va,
        PipelineStage::Sa,
        PipelineStage::Xb,
    ];
}

impl std::fmt::Display for PipelineStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PipelineStage::Rc => "RC",
            PipelineStage::Va => "VA",
            PipelineStage::Sa => "SA",
            PipelineStage::Xb => "XB",
        };
        f.write_str(s)
    }
}

/// One permanently-faultable component inside a router.
///
/// The granularity follows the paper's correction circuitry exactly:
/// these are the units Section V either protects or adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The original RC unit of an input port (baseline circuit).
    RcPrimary {
        /// Input port whose RC unit is affected.
        port: PortId,
    },
    /// The duplicate RC unit of an input port (correction circuitry,
    /// Section V-A).
    RcDuplicate {
        /// Input port whose redundant RC unit is affected.
        port: PortId,
    },
    /// The complete set of `po` `v:1` first-stage VA arbiters belonging to
    /// one input VC. The paper treats the whole set as faulty as soon as
    /// one of its arbiters fails (Section V-B1).
    Va1ArbiterSet {
        /// Input port.
        port: PortId,
        /// VC within the port whose arbiter set is affected.
        vc: VcId,
    },
    /// A second-stage VA arbiter, associated with one VC of one
    /// downstream router (Section V-B3).
    Va2Arbiter {
        /// Output port the downstream router hangs off.
        out_port: PortId,
        /// Downstream VC the arbiter is associated with.
        out_vc: VcId,
    },
    /// The first-stage SA `v:1` arbiter of an input port (Section V-C1).
    Sa1Arbiter {
        /// Input port.
        port: PortId,
    },
    /// The bypass path (2:1 mux + default-winner register) added for the
    /// first-stage SA arbiter of an input port (correction circuitry).
    Sa1Bypass {
        /// Input port.
        port: PortId,
    },
    /// The second-stage SA `pi:1` arbiter of an output port
    /// (Section V-C2). Tolerated via the crossbar secondary path.
    Sa2Arbiter {
        /// Output port.
        out_port: PortId,
    },
    /// The primary crossbar multiplexer `M_i` of an output port
    /// (Section V-D).
    XbMux {
        /// Output port.
        out_port: PortId,
    },
    /// The secondary path of an output port — the demultiplexer branch and
    /// the 2:1 output mux `P_i` (correction circuitry, Figure 6).
    XbSecondary {
        /// Output port.
        out_port: PortId,
    },
}

impl FaultSite {
    /// The pipeline stage this site belongs to.
    pub fn stage(self) -> PipelineStage {
        match self {
            FaultSite::RcPrimary { .. } | FaultSite::RcDuplicate { .. } => PipelineStage::Rc,
            FaultSite::Va1ArbiterSet { .. } | FaultSite::Va2Arbiter { .. } => PipelineStage::Va,
            FaultSite::Sa1Arbiter { .. } | FaultSite::Sa1Bypass { .. } => PipelineStage::Sa,
            FaultSite::Sa2Arbiter { .. }
            | FaultSite::XbMux { .. }
            | FaultSite::XbSecondary { .. } => PipelineStage::Xb,
        }
    }

    /// Whether this site is part of the added correction circuitry (as
    /// opposed to the baseline router).
    pub fn is_correction_circuitry(self) -> bool {
        matches!(
            self,
            FaultSite::RcDuplicate { .. }
                | FaultSite::Sa1Bypass { .. }
                | FaultSite::XbSecondary { .. }
        )
    }

    /// Whether a `ports`-port, `vcs`-VC router has this component.
    pub(crate) fn fits(self, ports: usize, vcs: usize) -> bool {
        let (port, vc) = match self {
            FaultSite::RcPrimary { port }
            | FaultSite::RcDuplicate { port }
            | FaultSite::Sa1Arbiter { port }
            | FaultSite::Sa1Bypass { port } => (port, None),
            FaultSite::Sa2Arbiter { out_port }
            | FaultSite::XbMux { out_port }
            | FaultSite::XbSecondary { out_port } => (out_port, None),
            FaultSite::Va1ArbiterSet { port, vc } => (port, Some(vc)),
            FaultSite::Va2Arbiter { out_port, out_vc } => (out_port, Some(out_vc)),
        };
        port.index() < ports && vc.is_none_or(|vc| vc.index() < vcs)
    }

    /// Whether a router of configuration `cfg` has this component. The
    /// codec parses any `u8` port or VC, so a site read from outside the
    /// program (a fault plan, a snapshot) must pass this before it is
    /// injected.
    pub fn in_range(self, cfg: &RouterConfig) -> bool {
        self.fits(cfg.ports, cfg.vcs)
    }

    /// Every fault site of a `ports`-port, `vcs`-VC router, in the
    /// canonical order of [`FaultSite::enumerate`], without allocating.
    pub(crate) fn all(ports: usize, vcs: usize) -> impl Iterator<Item = FaultSite> {
        let per_vc =
            move || PortId::all(ports).flat_map(move |p| VcId::all(vcs).map(move |vc| (p, vc)));
        PortId::all(ports)
            .flat_map(|port| {
                [
                    FaultSite::RcPrimary { port },
                    FaultSite::RcDuplicate { port },
                ]
            })
            .chain(per_vc().map(|(port, vc)| FaultSite::Va1ArbiterSet { port, vc }))
            .chain(per_vc().map(|(out_port, out_vc)| FaultSite::Va2Arbiter { out_port, out_vc }))
            .chain(PortId::all(ports).flat_map(|port| {
                [
                    FaultSite::Sa1Arbiter { port },
                    FaultSite::Sa1Bypass { port },
                ]
            }))
            .chain(PortId::all(ports).flat_map(|out_port| {
                [
                    FaultSite::Sa2Arbiter { out_port },
                    FaultSite::XbMux { out_port },
                    FaultSite::XbSecondary { out_port },
                ]
            }))
    }

    /// Enumerate every fault site of a router with the given
    /// configuration, in a fixed canonical order: RC units (original,
    /// duplicate) per port; VA1 sets, then VA2 arbiters, port-major;
    /// SA1 (arbiter, bypass) per port; SA2, crossbar mux and secondary
    /// path per output.
    pub fn enumerate(cfg: &RouterConfig) -> Vec<FaultSite> {
        Self::all(cfg.ports, cfg.vcs).collect()
    }

    /// Enumerate the fault sites belonging to one pipeline stage.
    pub fn enumerate_stage(cfg: &RouterConfig, stage: PipelineStage) -> Vec<FaultSite> {
        Self::enumerate(cfg)
            .into_iter()
            .filter(|s| s.stage() == stage)
            .collect()
    }
}

/// The canonical secondary-path source of the protected crossbar
/// (reconstructed from Figure 6): output `i`'s secondary taps primary
/// mux `i−1`, and output 0 taps mux 1. `shield_router::Crossbar` builds
/// on this same rule — it lives here so the fault planner can reason
/// about tolerance without depending on the router crate.
pub fn canonical_secondary_source(out: PortId) -> PortId {
    if out.0 == 0 {
        PortId(1)
    } else {
        PortId(out.0 - 1)
    }
}

impl std::str::FromStr for FaultSite {
    type Err = String;

    /// Parse the compact form produced by `Display` — the canonical
    /// fault-site codec used by fault plans and simulation snapshots.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, rest) = s
            .split_once('[')
            .ok_or_else(|| format!("`{s}`: expected NAME[ADDR]"))?;
        let addr = rest
            .strip_suffix(']')
            .ok_or_else(|| format!("`{s}`: missing closing bracket"))?;
        let port = |a: &str| -> Result<PortId, String> {
            a.strip_prefix('P')
                .and_then(|d| d.parse::<u8>().ok())
                .map(PortId)
                .ok_or_else(|| format!("`{a}` is not a port id"))
        };
        let port_vc = |a: &str| -> Result<(PortId, VcId), String> {
            let (p, v) = a
                .split_once('.')
                .ok_or_else(|| format!("`{a}`: expected PORT.VC"))?;
            let vc = v
                .strip_prefix("VC")
                .and_then(|d| d.parse::<u8>().ok())
                .map(VcId)
                .ok_or_else(|| format!("`{v}` is not a VC id"))?;
            Ok((port(p)?, vc))
        };
        match name {
            "RC" => Ok(FaultSite::RcPrimary { port: port(addr)? }),
            "RCdup" => Ok(FaultSite::RcDuplicate { port: port(addr)? }),
            "VA1" => {
                let (port, vc) = port_vc(addr)?;
                Ok(FaultSite::Va1ArbiterSet { port, vc })
            }
            "VA2" => {
                let (out_port, out_vc) = port_vc(addr)?;
                Ok(FaultSite::Va2Arbiter { out_port, out_vc })
            }
            "SA1" => Ok(FaultSite::Sa1Arbiter { port: port(addr)? }),
            "SA1byp" => Ok(FaultSite::Sa1Bypass { port: port(addr)? }),
            "SA2" => Ok(FaultSite::Sa2Arbiter {
                out_port: port(addr)?,
            }),
            "XB" => Ok(FaultSite::XbMux {
                out_port: port(addr)?,
            }),
            "XBsec" => Ok(FaultSite::XbSecondary {
                out_port: port(addr)?,
            }),
            other => Err(format!("unknown fault-site kind `{other}`")),
        }
    }
}

/// The address of a network link, as a fault-campaign site: one
/// endpoint router plus the outgoing direction. Deliberately *not* a
/// [`FaultSite`] variant — the in-router site enumeration (75 sites on
/// the paper's router, pinned by tests and the SPF analysis) addresses
/// components the correction circuitry routes around, while a link
/// fault is a network-level event the routing layer heals. The codec
/// renders `Link[12@east]` and round-trips through `FromStr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSite {
    /// One endpoint of the link.
    pub router: RouterId,
    /// The direction of the link out of `router`.
    pub dir: Direction,
}

impl std::fmt::Display for LinkSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = match self.dir {
            Direction::Local => "local",
            Direction::North => "north",
            Direction::East => "east",
            Direction::South => "south",
            Direction::West => "west",
        };
        write!(f, "Link[{}@{dir}]", self.router.0)
    }
}

impl std::str::FromStr for LinkSite {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let addr = s
            .strip_prefix("Link[")
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| format!("`{s}`: expected Link[ROUTER@DIR]"))?;
        let (router, dir) = addr
            .split_once('@')
            .ok_or_else(|| format!("`{addr}`: expected ROUTER@DIR"))?;
        let router = router
            .parse::<u16>()
            .map(RouterId)
            .map_err(|_| format!("`{router}` is not a router id"))?;
        let dir = match dir {
            "north" => Direction::North,
            "east" => Direction::East,
            "south" => Direction::South,
            "west" => Direction::West,
            other => return Err(format!("`{other}` is not a link direction")),
        };
        Ok(LinkSite { router, dir })
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::RcPrimary { port } => write!(f, "RC[{port}]"),
            FaultSite::RcDuplicate { port } => write!(f, "RCdup[{port}]"),
            FaultSite::Va1ArbiterSet { port, vc } => write!(f, "VA1[{port}.{vc}]"),
            FaultSite::Va2Arbiter { out_port, out_vc } => write!(f, "VA2[{out_port}.{out_vc}]"),
            FaultSite::Sa1Arbiter { port } => write!(f, "SA1[{port}]"),
            FaultSite::Sa1Bypass { port } => write!(f, "SA1byp[{port}]"),
            FaultSite::Sa2Arbiter { out_port } => write!(f, "SA2[{out_port}]"),
            FaultSite::XbMux { out_port } => write!(f, "XB[{out_port}]"),
            FaultSite::XbSecondary { out_port } => write!(f, "XBsec[{out_port}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn enumeration_counts_match_paper_router() {
        // 5 ports, 4 VCs: 10 RC + 20 VA1 + 20 VA2 + 10 SA1 + 5 SA2 +
        // 10 XB = 75 sites.
        let cfg = RouterConfig::paper();
        let sites = FaultSite::enumerate(&cfg);
        assert_eq!(sites.len(), 75);
        let unique: HashSet<_> = sites.iter().collect();
        assert_eq!(unique.len(), 75, "sites must be distinct");
    }

    #[test]
    fn per_stage_enumeration_partitions_all_sites() {
        let cfg = RouterConfig::paper();
        let total: usize = PipelineStage::ALL
            .iter()
            .map(|&st| FaultSite::enumerate_stage(&cfg, st).len())
            .sum();
        assert_eq!(total, FaultSite::enumerate(&cfg).len());
        assert_eq!(
            FaultSite::enumerate_stage(&cfg, PipelineStage::Rc).len(),
            10
        );
        assert_eq!(
            FaultSite::enumerate_stage(&cfg, PipelineStage::Va).len(),
            40
        );
        assert_eq!(
            FaultSite::enumerate_stage(&cfg, PipelineStage::Sa).len(),
            10
        );
        assert_eq!(
            FaultSite::enumerate_stage(&cfg, PipelineStage::Xb).len(),
            15
        );
    }

    #[test]
    fn in_range_follows_the_router_shape() {
        let cfg = RouterConfig::paper();
        assert!(FaultSite::enumerate(&cfg).iter().all(|s| s.in_range(&cfg)));
        for outside in [
            "RC[P5]",
            "RC[P200]",
            "XBsec[P32]",
            "VA1[P2.VC4]",
            "VA2[P5.VC0]",
        ] {
            let site: FaultSite = outside.parse().expect("the codec takes any u8");
            assert!(!site.in_range(&cfg), "{outside}");
        }
    }

    #[test]
    fn correction_circuitry_flag() {
        let p = PortId(0);
        assert!(FaultSite::RcDuplicate { port: p }.is_correction_circuitry());
        assert!(FaultSite::Sa1Bypass { port: p }.is_correction_circuitry());
        assert!(FaultSite::XbSecondary { out_port: p }.is_correction_circuitry());
        assert!(!FaultSite::RcPrimary { port: p }.is_correction_circuitry());
        assert!(!FaultSite::Sa1Arbiter { port: p }.is_correction_circuitry());
        assert!(!FaultSite::XbMux { out_port: p }.is_correction_circuitry());
    }

    #[test]
    fn stage_classification() {
        let p = PortId(1);
        let v = VcId(2);
        assert_eq!(FaultSite::RcPrimary { port: p }.stage(), PipelineStage::Rc);
        assert_eq!(
            FaultSite::Va1ArbiterSet { port: p, vc: v }.stage(),
            PipelineStage::Va
        );
        assert_eq!(
            FaultSite::Va2Arbiter {
                out_port: p,
                out_vc: v
            }
            .stage(),
            PipelineStage::Va
        );
        assert_eq!(FaultSite::Sa1Arbiter { port: p }.stage(), PipelineStage::Sa);
        // SA2 is tolerated by the crossbar mechanism; the paper counts it
        // with the crossbar in the SPF analysis, and so do we.
        assert_eq!(
            FaultSite::Sa2Arbiter { out_port: p }.stage(),
            PipelineStage::Xb
        );
        assert_eq!(FaultSite::XbMux { out_port: p }.stage(), PipelineStage::Xb);
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let cfg = RouterConfig::paper();
        for site in FaultSite::enumerate(&cfg) {
            let parsed: FaultSite = site.to_string().parse().expect("canonical form parses");
            assert_eq!(parsed, site);
        }
        assert!("VA1[P0]".parse::<FaultSite>().is_err(), "VA1 needs a VC");
        assert!("RC[3]".parse::<FaultSite>().is_err(), "port needs P prefix");
        assert!("BOGUS[P0]".parse::<FaultSite>().is_err());
        assert!("RC".parse::<FaultSite>().is_err());
    }

    #[test]
    fn link_site_codec_round_trips() {
        use noc_types::Direction;
        for dir in [
            Direction::North,
            Direction::East,
            Direction::South,
            Direction::West,
        ] {
            let site = LinkSite {
                router: RouterId(12),
                dir,
            };
            let parsed: LinkSite = site.to_string().parse().expect("canonical form parses");
            assert_eq!(parsed, site);
        }
        assert_eq!(
            LinkSite {
                router: RouterId(12),
                dir: Direction::East
            }
            .to_string(),
            "Link[12@east]"
        );
        assert!("Link[12@local]".parse::<LinkSite>().is_err());
        assert!("Link[x@east]".parse::<LinkSite>().is_err());
        assert!("Link[3]".parse::<LinkSite>().is_err());
        assert!("RC[P0]".parse::<LinkSite>().is_err());
    }

    #[test]
    fn display_is_compact_and_unique() {
        let cfg = RouterConfig::paper();
        let rendered: HashSet<String> = FaultSite::enumerate(&cfg)
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(rendered.len(), 75);
    }
}
