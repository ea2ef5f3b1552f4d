//! Configuration structs for the router model and the network simulator.

use crate::geometry::Mesh;

/// Microarchitectural parameters of one router.
///
/// The paper's evaluation point (Section VI) is `ports = 5`, `vcs = 4`,
/// `buffer_depth = 4`, with a 32-bit datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Number of input (= output) ports, `P`.
    pub ports: usize,
    /// Virtual channels per input port, `V`.
    pub vcs: usize,
    /// Buffer slots per VC, in flits (`1..=255`).
    pub buffer_depth: usize,
    /// Datapath (flit) width in bits — used by the reliability models.
    pub flit_width_bits: usize,
}

impl RouterConfig {
    /// The paper's 5-port, 4-VC, 4-deep, 32-bit configuration.
    pub const fn paper() -> Self {
        RouterConfig {
            ports: 5,
            vcs: 4,
            buffer_depth: 4,
            flit_width_bits: 32,
        }
    }

    /// Total number of input VCs in the router (`P · V`).
    #[inline]
    pub const fn total_vcs(&self) -> usize {
        self.ports * self.vcs
    }

    /// Validate invariants required by the models.
    pub fn validate(&self) -> Result<(), String> {
        if self.ports < 2 {
            return Err("a router needs at least 2 ports".into());
        }
        if self.ports > 32 {
            return Err("at most 32 ports are supported".into());
        }
        if self.vcs == 0 || self.vcs > 32 {
            return Err("1..=32 virtual channels per port are supported".into());
        }
        if self.ports * self.vcs > 32 {
            return Err(format!(
                "ports * vcs must not exceed 32 (got {} * {} = {}): router \
                 state masks and allocator request words are 32-bit",
                self.ports,
                self.vcs,
                self.ports * self.vcs
            ));
        }
        if self.buffer_depth == 0 {
            return Err("VC buffers need at least one slot".into());
        }
        if self.buffer_depth > 255 {
            return Err(format!(
                "buffer depth must not exceed 255 flits (got {}): the router's \
                 per-VC credit counters and buffer ring indices are u8",
                self.buffer_depth
            ));
        }
        if self.flit_width_bits == 0 {
            return Err("flit width must be positive".into());
        }
        Ok(())
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig::paper()
    }
}

/// Physical class of one link: traversal latency plus a serialization
/// width factor.
///
/// The historical model had a single global scalar
/// ([`NetworkConfig::link_latency`], full-width); hierarchical
/// topologies attach a `LinkClass` to the links that differ — long
/// off-die d2d links, hub-chip wiring — while intra-chiplet links keep
/// the global default. `width_denom` is the reciprocal of the
/// width factor: a `width_denom = 4` link carries one flit per 4
/// cycles (quarter width), so flits serialize onto it with 4-cycle
/// spacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClass {
    /// Link traversal latency in cycles (`>= 1`).
    pub latency: u32,
    /// Serialization factor: cycles of link occupancy per flit (`>= 1`;
    /// `1` = full width).
    pub width_denom: u32,
}

impl LinkClass {
    /// A full-width link of the given latency (the uniform default).
    pub const fn full(latency: u32) -> Self {
        LinkClass {
            latency,
            width_denom: 1,
        }
    }

    /// Default die-to-die boundary link: 4-cycle traversal at half
    /// width (flits serialize with 2-cycle spacing), in the spirit of
    /// the off-chip serial interfaces of the chiplet exemplars.
    pub const D2D_DEFAULT: LinkClass = LinkClass {
        latency: 4,
        width_denom: 2,
    };

    /// Default hub-chip link for [`TopologySpec::ChipletStar`]: the
    /// popnet-style "outer" wire delay, full width.
    pub const HUB_DEFAULT: LinkClass = LinkClass {
        latency: 2,
        width_denom: 1,
    };

    /// Validate invariants: latency `1..=64` (bounds the wire wheel),
    /// width denominator `1..=32`.
    pub fn validate(&self) -> Result<(), String> {
        if self.latency == 0 || self.latency > 64 {
            return Err(format!(
                "link-class latency must be 1..=64 cycles (got {})",
                self.latency
            ));
        }
        if self.width_denom == 0 || self.width_denom > 32 {
            return Err(format!(
                "link-class width denominator must be 1..=32 (got {})",
                self.width_denom
            ));
        }
        Ok(())
    }
}

/// Which network graph to build on top of the `w × h` coordinate grid.
///
/// Route computation for each variant lives in the `noc-topology` crate;
/// this spec is the serialisable configuration handle. Every variant is
/// embedded in a rectangular grid, so router ids and coordinates keep
/// their row-major meaning throughout the stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TopologySpec {
    /// Square `mesh_k × mesh_k` mesh driven by [`NetworkConfig::mesh_k`]
    /// — the historical (and default) configuration.
    #[default]
    MeshK,
    /// Rectangular `w × h` mesh with XY routing.
    Mesh {
        /// Columns.
        w: u8,
        /// Rows.
        h: u8,
    },
    /// `w × h` torus: wraparound links in both dimensions, dimension-order
    /// routing with minimal wrap, dateline VCs for deadlock freedom
    /// (requires `vcs >= 2`).
    Torus {
        /// Columns.
        w: u8,
        /// Rows.
        h: u8,
    },
    /// A `w × h` mesh with `cuts` links removed (deterministically chosen
    /// from `seed`, keeping the graph connected), routed by precomputed
    /// up*/down* tables.
    CutMesh {
        /// Columns.
        w: u8,
        /// Rows.
        h: u8,
        /// Number of bidirectional links to cut.
        cuts: u16,
        /// Seed for the deterministic cut selection.
        seed: u64,
    },
    /// A `k_chip × k_chip` grid of chiplets, each an internal
    /// `k_node × k_node` mesh, with neighbouring chiplets joined along
    /// their full boundary by die-to-die links of class `d2d`. The
    /// global graph is a plain `(k_chip·k_node)²` mesh, XY-routed —
    /// only the link classes are hierarchical — so deadlock freedom is
    /// XY's, independent of per-link latency.
    ChipletMesh {
        /// Chiplets per side of the package.
        k_chip: u8,
        /// Routers per side of each chiplet (`>= 2`).
        k_node: u8,
        /// Class of the chiplet-boundary (die-to-die) links.
        d2d: LinkClass,
    },
    /// `chiplets` square dies in a row, each an internal
    /// `k_node × k_node` mesh with **no** direct chiplet-to-chiplet
    /// links; instead every bottom-row router connects down to a
    /// central hub chip (an extra grid row) over a `d2d` link, and the
    /// hub routers interconnect over `hub`-class links — popnet-style
    /// inner (on-die) vs outer (hub) wire delays. Routed up\*/down\*
    /// with the orientation rooted at the hub, so every legal route
    /// descends into the hub and back out, and the classic up\*/down\*
    /// argument gives cross-die deadlock freedom.
    ChipletStar {
        /// Number of chiplets around the hub.
        chiplets: u8,
        /// Routers per side of each chiplet (`>= 2`).
        k_node: u8,
        /// Class of the chiplet→hub (die-to-die) links.
        d2d: LinkClass,
        /// Class of the hub-internal links.
        hub: LinkClass,
    },
}

impl TopologySpec {
    /// A short lowercase tag for reports and bench envelopes.
    pub const fn tag(&self) -> &'static str {
        match self {
            TopologySpec::MeshK | TopologySpec::Mesh { .. } => "mesh",
            TopologySpec::Torus { .. } => "torus",
            TopologySpec::CutMesh { .. } => "cutmesh",
            TopologySpec::ChipletMesh { .. } => "chipletmesh",
            TopologySpec::ChipletStar { .. } => "chipletstar",
        }
    }

    /// For hierarchical (chiplet) topologies, the chiplet side length
    /// `k_node` — the block size that groups global grid coordinates
    /// into chiplets (`cx = x / k_node`). `None` for flat topologies.
    pub const fn chiplet_k(&self) -> Option<u8> {
        match self {
            TopologySpec::ChipletMesh { k_node, .. } | TopologySpec::ChipletStar { k_node, .. } => {
                Some(*k_node)
            }
            _ => None,
        }
    }

    /// Parse a topology argument over a `k × k` grid: `mesh`,
    /// `torus`, `cutmesh<N>[:seed]` (`N` = links to cut; the optional
    /// seed drives the deterministic cut selection and defaults to
    /// `0xC0FFEE ^ k`),
    /// `chipletmesh<KC>x<KN>[:lat[:den]]` (a `KC × KC` grid of
    /// `KN × KN` chiplets; `lat`/`den` override the d2d link latency
    /// and width denominator), or `chipletstar<C>x<KN>[:lat[:den]]`
    /// (`C` chiplets around a hub row). Bare `chipletmesh` /
    /// `chipletstar` derive their shape from `k` (a `k × k` grid split
    /// into chiplets where `k` is even, and two chiplets of side
    /// `k / 2` around the hub respectively), so a default mesh config
    /// maps onto a chiplet graph of comparable size. The one shared
    /// parser behind the bench `--topology` flag and the CLI/service
    /// campaign specs, so every entry point names the same graph for
    /// the same string.
    ///
    /// Cut counts are clamped to what connectivity allows: a `k × k`
    /// grid has `2k(k−1)` links and needs `n−1` of them to stay
    /// connected.
    pub fn parse_arg(arg: &str, k: u8) -> Result<TopologySpec, String> {
        match arg.trim() {
            "" | "mesh" => Ok(TopologySpec::MeshK),
            "torus" => Ok(TopologySpec::Torus { w: k, h: k }),
            "chipletmesh" => {
                // Preserve the k × k grid of the config being
                // overridden: split an even side into 2 × 2 chiplets,
                // else fall back to a single chiplet (degenerate but
                // dimension-preserving).
                let (k_chip, k_node) = if k >= 4 && k.is_multiple_of(2) {
                    (2, k / 2)
                } else {
                    (1, k.max(2))
                };
                Ok(TopologySpec::ChipletMesh {
                    k_chip,
                    k_node,
                    d2d: LinkClass::D2D_DEFAULT,
                })
            }
            "chipletstar" => Ok(TopologySpec::ChipletStar {
                chiplets: 2,
                k_node: (k / 2).max(2),
                d2d: LinkClass::D2D_DEFAULT,
                hub: LinkClass::HUB_DEFAULT,
            }),
            s if s.starts_with("chipletmesh") => {
                let (a, b, d2d) = parse_chiplet_dims(&s["chipletmesh".len()..], s)?;
                Ok(TopologySpec::ChipletMesh {
                    k_chip: a,
                    k_node: b,
                    d2d,
                })
            }
            s if s.starts_with("chipletstar") => {
                let (a, b, d2d) = parse_chiplet_dims(&s["chipletstar".len()..], s)?;
                Ok(TopologySpec::ChipletStar {
                    chiplets: a,
                    k_node: b,
                    d2d,
                    hub: LinkClass::HUB_DEFAULT,
                })
            }
            s if s.starts_with("cutmesh") => {
                let rest = &s["cutmesh".len()..];
                let (cuts_str, seed) = match rest.split_once(':') {
                    None => (rest, 0xC0FFEE ^ k as u64),
                    Some((c, seed_str)) => {
                        let seed = seed_str
                            .parse::<u64>()
                            .map_err(|_| format!("bad cut-mesh seed in {s:?}"))?;
                        (c, seed)
                    }
                };
                let cuts: u16 = cuts_str
                    .parse()
                    .map_err(|_| format!("bad cut count in {s:?}"))?;
                let side = u32::from(k);
                let links = 2 * side * side.saturating_sub(1);
                let spare = links.saturating_sub((side * side).saturating_sub(1));
                let cuts = cuts.min(u16::try_from(spare).unwrap_or(u16::MAX));
                Ok(TopologySpec::CutMesh {
                    w: k,
                    h: k,
                    cuts,
                    seed,
                })
            }
            other => Err(format!(
                "unrecognised topology {other:?} (expected mesh | torus | cutmesh<N>[:seed] | \
                 chipletmesh<KC>x<KN>[:lat[:den]] | chipletstar<C>x<KN>[:lat[:den]])"
            )),
        }
    }
}

/// Parse the `<A>x<B>[:lat[:den]]` tail of a chiplet topology argument:
/// two grid factors plus an optional d2d link-class override.
fn parse_chiplet_dims(rest: &str, whole: &str) -> Result<(u8, u8, LinkClass), String> {
    let (dims, class) = match rest.split_once(':') {
        None => (rest, None),
        Some((d, c)) => (d, Some(c)),
    };
    let (a, b) = dims
        .split_once('x')
        .and_then(|(a, b)| Some((a.parse::<u8>().ok()?, b.parse::<u8>().ok()?)))
        .ok_or_else(|| format!("bad chiplet dimensions in {whole:?} (expected <A>x<B>)"))?;
    let mut d2d = LinkClass::D2D_DEFAULT;
    if let Some(class) = class {
        let (lat, den) = match class.split_once(':') {
            None => (class, None),
            Some((l, d)) => (l, Some(d)),
        };
        d2d.latency = lat
            .parse()
            .map_err(|_| format!("bad d2d latency in {whole:?}"))?;
        if let Some(den) = den {
            d2d.width_denom = den
                .parse()
                .map_err(|_| format!("bad d2d width denominator in {whole:?}"))?;
        }
    }
    Ok((a, b, d2d))
}

/// How packets pick their output port at each hop.
///
/// `Static` is the historical behaviour: the topology's deterministic
/// scheme (XY on meshes, dimension-order with dateline VCs on tori,
/// precomputed up\*/down\* tables on irregular graphs). `Adaptive`
/// switches the grid families (mesh / torus / chiplet mesh) to
/// fault-aware congestion-adaptive routing: route computation emits the
/// set of minimal-quadrant directions whose link is still alive, VC
/// allocation picks among them by local credit occupancy, and deadlock
/// freedom comes from a reserved escape VC class (the lower half of
/// each port's VCs) that always falls back to a deadlock-free
/// up\*/down\* path over the surviving non-wraparound links. Requires
/// `vcs >= 2` so the escape class is non-empty. Topologies that are
/// already table-routed and self-healing (cut mesh, chiplet star) keep
/// their up\*/down\* tables under either mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoutingMode {
    /// The topology's deterministic scheme (XY / DOR-dateline /
    /// up\*/down\*).
    #[default]
    Static,
    /// Fault-aware congestion-adaptive routing with an escape VC class.
    Adaptive,
}

impl RoutingMode {
    /// A short lowercase tag for reports and bench envelopes.
    pub const fn tag(&self) -> &'static str {
        match self {
            RoutingMode::Static => "static",
            RoutingMode::Adaptive => "adaptive",
        }
    }

    /// Parse a routing argument: `static` (or empty) and `adaptive` —
    /// the one grammar behind the CLI `--routing` flag and the service
    /// spec field.
    pub fn parse_arg(arg: &str) -> Result<RoutingMode, String> {
        match arg.trim() {
            "" | "static" => Ok(RoutingMode::Static),
            "adaptive" => Ok(RoutingMode::Adaptive),
            other => Err(format!(
                "unrecognised routing mode {other:?} (expected static | adaptive)"
            )),
        }
    }
}

/// Parameters of the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Mesh side length `k` for the default [`TopologySpec::MeshK`]
    /// topology (the paper's latency study uses `k = 8`). Ignored by the
    /// other topology variants, which carry their own dimensions.
    pub mesh_k: u8,
    /// Which network graph to build (default: square mesh of side
    /// [`NetworkConfig::mesh_k`]).
    pub topology: TopologySpec,
    /// How packets pick output ports (default: the topology's static
    /// scheme).
    pub routing: RoutingMode,
    /// Per-router configuration.
    pub router: RouterConfig,
    /// Link traversal latency in cycles (1 in GARNET's fixed pipeline).
    pub link_latency: u32,
    /// Depth of each NI injection queue, in packets (0 = unbounded).
    pub ni_queue_packets: usize,
}

impl NetworkConfig {
    /// The paper's 8×8 mesh with the 5-port 4-VC router.
    pub const fn paper() -> Self {
        NetworkConfig {
            mesh_k: 8,
            topology: TopologySpec::MeshK,
            routing: RoutingMode::Static,
            router: RouterConfig::paper(),
            link_latency: 1,
            ni_queue_packets: 0,
        }
    }

    /// The `(w, h)` dimensions of the bounding coordinate grid.
    #[inline]
    pub const fn dims(&self) -> (u8, u8) {
        match self.topology {
            TopologySpec::MeshK => (self.mesh_k, self.mesh_k),
            TopologySpec::Mesh { w, h }
            | TopologySpec::Torus { w, h }
            | TopologySpec::CutMesh { w, h, .. } => (w, h),
            // Saturate at the u8 coordinate ceiling; validate() rejects
            // shapes that actually exceed it.
            TopologySpec::ChipletMesh { k_chip, k_node, .. } => {
                let side = k_chip as u16 * k_node as u16;
                let side = if side > 255 { 255 } else { side as u8 };
                (side, side)
            }
            TopologySpec::ChipletStar {
                chiplets, k_node, ..
            } => {
                let w = chiplets as u16 * k_node as u16;
                let w = if w > 255 { 255 } else { w as u8 };
                let h = if k_node == 255 { 255 } else { k_node + 1 };
                (w, h)
            }
        }
    }

    /// The bounding coordinate grid (id ↔ coordinate mapping).
    #[inline]
    pub fn grid(&self) -> Mesh {
        let (w, h) = self.dims();
        Mesh::rect(w, h)
    }

    /// Number of routers (`w · h`).
    #[inline]
    pub const fn nodes(&self) -> usize {
        let (w, h) = self.dims();
        (w as usize) * (h as usize)
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        let (w, h) = self.dims();
        if w == 0 || h == 0 {
            return Err("grid dimensions must be positive".into());
        }
        if self.router.ports != 5 {
            return Err("the grid simulator requires 5-port routers".into());
        }
        if self.link_latency == 0 {
            return Err("link latency must be at least 1 cycle".into());
        }
        if self.routing == RoutingMode::Adaptive && self.router.vcs < 2 {
            return Err(
                "adaptive routing reserves the lower half of each port's VCs as the \
                 escape class and needs at least 2 VCs per port"
                    .into(),
            );
        }
        match self.topology {
            TopologySpec::Torus { w, h } => {
                if w < 2 || h < 2 {
                    return Err("a torus needs both dimensions >= 2".into());
                }
                if self.router.vcs < 2 {
                    return Err(
                        "torus dateline deadlock avoidance needs at least 2 VCs per port".into(),
                    );
                }
            }
            TopologySpec::CutMesh { w, h, cuts, .. } => {
                if (w as usize) * (h as usize) < 2 && cuts > 0 {
                    return Err("cannot cut links of a single-node mesh".into());
                }
            }
            TopologySpec::ChipletMesh {
                k_chip,
                k_node,
                d2d,
            } => {
                if k_chip == 0 {
                    return Err("a chiplet mesh needs at least one chiplet".into());
                }
                if k_node < 2 {
                    return Err("chiplets need side length >= 2".into());
                }
                if k_chip as u16 * k_node as u16 > 255 {
                    return Err(format!(
                        "chiplet mesh side {k_chip}·{k_node} exceeds the 255-router \
                         coordinate ceiling"
                    ));
                }
                d2d.validate()?;
            }
            TopologySpec::ChipletStar {
                chiplets,
                k_node,
                d2d,
                hub,
            } => {
                if chiplets == 0 {
                    return Err("a chiplet star needs at least one chiplet".into());
                }
                if k_node < 2 {
                    return Err("chiplets need side length >= 2".into());
                }
                if chiplets as u16 * k_node as u16 > 255 {
                    return Err(format!(
                        "chiplet star width {chiplets}·{k_node} exceeds the 255-router \
                         coordinate ceiling"
                    ));
                }
                // Up*/down* tables are O(n²): keep the star family in
                // the regime they were built for.
                let nodes = chiplets as usize * k_node as usize * (k_node as usize + 1);
                if nodes > 2048 {
                    return Err(format!(
                        "chiplet star has {nodes} routers; up*/down* routing tables cap \
                         the family at 2048 (use chipletmesh for larger systems)"
                    ));
                }
                d2d.validate()?;
                hub.validate()?;
            }
            TopologySpec::MeshK | TopologySpec::Mesh { .. } => {}
        }
        let tables = matches!(
            self.topology,
            TopologySpec::CutMesh { .. } | TopologySpec::ChipletStar { .. }
        ) || self.routing == RoutingMode::Adaptive;
        if tables && self.nodes() > MAX_TABLE_ROUTERS {
            return Err(format!(
                "{} routers exceed the {MAX_TABLE_ROUTERS} that up*/down*-table routing \
                 allows (its tables grow with the square of the router count)",
                self.nodes()
            ));
        }
        self.router.validate()
    }
}

/// The most routers a network routed by up\*/down\* tables may have
/// (a cut mesh, a chiplet star, or any adaptive network's escape
/// tables). The tables take memory and build time quadratic in the
/// router count: at this bound (a 64×64 grid) the two distance fields
/// of one build alone hold 2 · 4096² `u32`s, 134 MB.
const MAX_TABLE_ROUTERS: usize = 4096;

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::paper()
    }
}

/// Parameters of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Cycles to run before statistics start (pipeline warm-up).
    pub warmup_cycles: u64,
    /// Measured cycles after warm-up.
    pub measure_cycles: u64,
    /// Extra cycles allowed for in-flight packets to drain after the
    /// measurement window (statistics still recorded for packets created
    /// during measurement).
    pub drain_cycles: u64,
    /// RNG seed for everything stochastic in the run.
    pub seed: u64,
}

impl SimConfig {
    /// A small configuration suitable for unit tests.
    pub const fn smoke(seed: u64) -> Self {
        SimConfig {
            warmup_cycles: 500,
            measure_cycles: 3_000,
            drain_cycles: 2_000,
            seed,
        }
    }

    /// Total cycles the simulator will execute.
    #[inline]
    pub const fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles + self.drain_cycles
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            warmup_cycles: 10_000,
            measure_cycles: 100_000,
            drain_cycles: 20_000,
            seed: 0xC0FFEE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_validate() {
        assert!(RouterConfig::paper().validate().is_ok());
        assert!(NetworkConfig::paper().validate().is_ok());
        assert_eq!(RouterConfig::paper().total_vcs(), 20);
        assert_eq!(NetworkConfig::paper().nodes(), 64);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut r = RouterConfig::paper();
        r.ports = 1;
        assert!(r.validate().is_err());
        let mut r = RouterConfig::paper();
        r.vcs = 0;
        assert!(r.validate().is_err());
        let mut r = RouterConfig::paper();
        r.buffer_depth = 0;
        assert!(r.validate().is_err());
        let mut n = NetworkConfig::paper();
        n.mesh_k = 0;
        assert!(n.validate().is_err());
        let mut n = NetworkConfig::paper();
        n.link_latency = 0;
        assert!(n.validate().is_err());
    }

    #[test]
    fn buffer_depth_is_bounded_by_the_u8_credit_counters() {
        let mut r = RouterConfig::paper();
        r.buffer_depth = 255;
        assert_eq!(r.validate(), Ok(()));
        r.buffer_depth = 256;
        let err = r.validate().unwrap_err();
        assert!(err.contains("255") && err.contains("u8"), "{err}");
        r.buffer_depth = 300;
        assert!(r.validate().is_err());
    }

    #[test]
    fn topology_spec_defaults_to_square_mesh() {
        let n = NetworkConfig::paper();
        assert_eq!(n.topology, TopologySpec::MeshK);
        assert_eq!(n.dims(), (8, 8));
        assert_eq!(n.grid(), Mesh::new(8));
        assert_eq!(n.topology.tag(), "mesh");
    }

    #[test]
    fn rectangular_and_torus_specs_carry_their_own_dims() {
        let mut n = NetworkConfig::paper();
        n.topology = TopologySpec::Mesh { w: 3, h: 5 };
        assert_eq!(n.nodes(), 15);
        assert!(n.validate().is_ok());
        n.topology = TopologySpec::Torus { w: 4, h: 4 };
        assert_eq!(n.topology.tag(), "torus");
        assert!(n.validate().is_ok());
    }

    #[test]
    fn table_routed_networks_are_bounded() {
        let cfg = |k: u8, topology: &str, routing| NetworkConfig {
            mesh_k: k,
            topology: TopologySpec::parse_arg(topology, k).unwrap(),
            routing,
            ..NetworkConfig::paper()
        };
        for (k, topology, routing) in [
            (255, "cutmesh1", RoutingMode::Static),
            (128, "cutmesh1", RoutingMode::Static),
            (200, "mesh", RoutingMode::Adaptive),
        ] {
            let err = cfg(k, topology, routing).validate().unwrap_err();
            assert!(err.contains("up*/down*-table routing"), "{err}");
        }
        // The bound itself is allowed, and XY routing has none.
        assert!(cfg(64, "cutmesh1", RoutingMode::Static).validate().is_ok());
        assert!(cfg(64, "mesh", RoutingMode::Adaptive).validate().is_ok());
        assert!(cfg(200, "mesh", RoutingMode::Static).validate().is_ok());
    }

    #[test]
    fn torus_needs_two_vcs_and_side_two() {
        let mut n = NetworkConfig::paper();
        n.topology = TopologySpec::Torus { w: 4, h: 4 };
        n.router.vcs = 1;
        assert!(n.validate().is_err(), "dateline scheme needs 2 VCs");
        let mut n = NetworkConfig::paper();
        n.topology = TopologySpec::Torus { w: 1, h: 4 };
        assert!(n.validate().is_err(), "a 1-wide torus is degenerate");
    }

    #[test]
    fn topology_args_parse_to_specs() {
        assert_eq!(TopologySpec::parse_arg("mesh", 8), Ok(TopologySpec::MeshK));
        assert_eq!(TopologySpec::parse_arg("", 8), Ok(TopologySpec::MeshK));
        assert_eq!(
            TopologySpec::parse_arg("torus", 6),
            Ok(TopologySpec::Torus { w: 6, h: 6 })
        );
        assert_eq!(
            TopologySpec::parse_arg("cutmesh4", 8),
            Ok(TopologySpec::CutMesh {
                w: 8,
                h: 8,
                cuts: 4,
                seed: 0xC0FFEE ^ 8,
            })
        );
        assert_eq!(
            TopologySpec::parse_arg("cutmesh6:99", 8),
            Ok(TopologySpec::CutMesh {
                w: 8,
                h: 8,
                cuts: 6,
                seed: 99,
            })
        );
        // A 2×2 grid has 4 links and needs 3: at most one cut survives.
        assert_eq!(
            TopologySpec::parse_arg("cutmesh9", 2),
            Ok(TopologySpec::CutMesh {
                w: 2,
                h: 2,
                cuts: 1,
                seed: 0xC0FFEE ^ 2,
            })
        );
        // Grids past 181 × 181 have more links than a u16 counts.
        for k in [182u8, 255] {
            assert_eq!(
                TopologySpec::parse_arg("cutmesh1", k),
                Ok(TopologySpec::CutMesh {
                    w: k,
                    h: k,
                    cuts: 1,
                    seed: 0xC0FFEE ^ k as u64,
                })
            );
        }
        // 2·255·254 links, 255² − 1 of them needed: 64,516 spare.
        assert_eq!(
            TopologySpec::parse_arg("cutmesh65535", 255).map(|t| match t {
                TopologySpec::CutMesh { cuts, .. } => cuts,
                _ => 0,
            }),
            Ok(64_516)
        );
        assert!(TopologySpec::parse_arg("cutmeshX", 8).is_err());
        assert!(TopologySpec::parse_arg("cutmesh4:zz", 8).is_err());
        assert!(TopologySpec::parse_arg("ring", 8).is_err());
    }

    #[test]
    fn chiplet_args_parse_to_specs() {
        assert_eq!(
            TopologySpec::parse_arg("chipletmesh4x8", 8),
            Ok(TopologySpec::ChipletMesh {
                k_chip: 4,
                k_node: 8,
                d2d: LinkClass::D2D_DEFAULT,
            })
        );
        assert_eq!(
            TopologySpec::parse_arg("chipletmesh2x4:6:4", 8),
            Ok(TopologySpec::ChipletMesh {
                k_chip: 2,
                k_node: 4,
                d2d: LinkClass {
                    latency: 6,
                    width_denom: 4,
                },
            })
        );
        assert_eq!(
            TopologySpec::parse_arg("chipletstar4x4:3", 8),
            Ok(TopologySpec::ChipletStar {
                chiplets: 4,
                k_node: 4,
                d2d: LinkClass {
                    latency: 3,
                    width_denom: 2,
                },
                hub: LinkClass::HUB_DEFAULT,
            })
        );
        // Bare forms derive a dimension-preserving shape from k.
        assert_eq!(
            TopologySpec::parse_arg("chipletmesh", 6),
            Ok(TopologySpec::ChipletMesh {
                k_chip: 2,
                k_node: 3,
                d2d: LinkClass::D2D_DEFAULT,
            })
        );
        assert_eq!(
            TopologySpec::parse_arg("chipletmesh", 5),
            Ok(TopologySpec::ChipletMesh {
                k_chip: 1,
                k_node: 5,
                d2d: LinkClass::D2D_DEFAULT,
            })
        );
        assert_eq!(
            TopologySpec::parse_arg("chipletstar", 8),
            Ok(TopologySpec::ChipletStar {
                chiplets: 2,
                k_node: 4,
                d2d: LinkClass::D2D_DEFAULT,
                hub: LinkClass::HUB_DEFAULT,
            })
        );
        assert!(TopologySpec::parse_arg("chipletmesh4", 8).is_err());
        assert!(TopologySpec::parse_arg("chipletmeshAxB", 8).is_err());
        assert!(TopologySpec::parse_arg("chipletmesh2x4:zz", 8).is_err());
        assert!(TopologySpec::parse_arg("chipletstar4x4:2:nope", 8).is_err());
    }

    #[test]
    fn chiplet_specs_validate_and_carry_dims() {
        let mut n = NetworkConfig::paper();
        n.topology = TopologySpec::ChipletMesh {
            k_chip: 8,
            k_node: 8,
            d2d: LinkClass::D2D_DEFAULT,
        };
        assert_eq!(n.dims(), (64, 64));
        assert_eq!(n.nodes(), 4096);
        assert_eq!(n.topology.tag(), "chipletmesh");
        assert_eq!(n.topology.chiplet_k(), Some(8));
        assert!(n.validate().is_ok());

        n.topology = TopologySpec::ChipletStar {
            chiplets: 4,
            k_node: 4,
            d2d: LinkClass::D2D_DEFAULT,
            hub: LinkClass::HUB_DEFAULT,
        };
        assert_eq!(n.dims(), (16, 5));
        assert_eq!(n.nodes(), 80);
        assert!(n.validate().is_ok());

        // Invalid shapes and link classes are rejected.
        n.topology = TopologySpec::ChipletMesh {
            k_chip: 40,
            k_node: 8,
            d2d: LinkClass::D2D_DEFAULT,
        };
        assert!(n.validate().is_err(), "side 320 > 255");
        n.topology = TopologySpec::ChipletMesh {
            k_chip: 2,
            k_node: 1,
            d2d: LinkClass::D2D_DEFAULT,
        };
        assert!(n.validate().is_err(), "1-wide chiplets are degenerate");
        n.topology = TopologySpec::ChipletMesh {
            k_chip: 2,
            k_node: 4,
            d2d: LinkClass {
                latency: 0,
                width_denom: 1,
            },
        };
        assert!(n.validate().is_err(), "zero-latency link class");
        n.topology = TopologySpec::ChipletStar {
            chiplets: 16,
            k_node: 12,
            d2d: LinkClass::D2D_DEFAULT,
            hub: LinkClass::HUB_DEFAULT,
        };
        assert!(n.validate().is_err(), "2496 routers exceed the star cap");
        assert!(LinkClass {
            latency: 4,
            width_denom: 33
        }
        .validate()
        .is_err());
    }

    #[test]
    fn routing_mode_parses_validates_and_tags() {
        assert_eq!(RoutingMode::parse_arg(""), Ok(RoutingMode::Static));
        assert_eq!(RoutingMode::parse_arg("static"), Ok(RoutingMode::Static));
        assert_eq!(
            RoutingMode::parse_arg(" adaptive "),
            Ok(RoutingMode::Adaptive)
        );
        assert!(RoutingMode::parse_arg("zigzag").is_err());
        assert_eq!(RoutingMode::Adaptive.tag(), "adaptive");
        assert_eq!(NetworkConfig::paper().routing, RoutingMode::Static);

        let mut n = NetworkConfig::paper();
        n.routing = RoutingMode::Adaptive;
        assert!(
            n.validate().is_ok(),
            "4 VCs leave room for the escape class"
        );
        n.router.vcs = 1;
        assert!(n.validate().is_err(), "adaptive needs vcs >= 2");
    }

    #[test]
    fn sim_config_total_cycles_adds_up() {
        let s = SimConfig::smoke(1);
        assert_eq!(s.total_cycles(), 5_500);
    }

    #[test]
    fn default_configs_match_paper_point() {
        assert_eq!(RouterConfig::default(), RouterConfig::paper());
        assert_eq!(NetworkConfig::default(), NetworkConfig::paper());
        assert_eq!(NetworkConfig::default().mesh_k, 8);
    }
}
