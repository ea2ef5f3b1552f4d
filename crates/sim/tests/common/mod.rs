//! How CI replays the topology-safe suites on other networks.
//!
//! `Network` builds exactly the `NetworkConfig` it is handed; nothing in
//! the library reads these variables. The replayed suites
//! (`parallel_step`, `topology_campaigns`, `link_model`,
//! `adaptive_routing`) instead pass every config they build through
//! [`replayed`], and the CI matrix legs (`.github/workflows/ci.yml`)
//! run them again with
//!
//! * `NOC_TOPOLOGY` = `torus` | `cutmesh<N>[:seed]` | `chipletmesh` |
//!   `chipletstar` (the [`TopologySpec::parse_arg`] grammar, dimensions
//!   derived from `mesh_k`), and
//! * `NOC_ROUTING` = `adaptive` ([`RoutingMode::parse_arg`]).
//!
//! Only defaults are rewritten — a config that names its topology or
//! routing mode keeps it — so a test that pins one is unaffected, and a
//! test whose expectation depends on the mode checks `cfg.routing` on
//! the config it got back. Some overrides change the grid (the chiplet
//! star does), so tests size sources and fault plans off the returned
//! config's `dims()`.

use noc_types::{NetworkConfig, RoutingMode, TopologySpec};

/// `cfg` as the current CI leg wants it: the default
/// [`TopologySpec::MeshK`] replaced by `NOC_TOPOLOGY` and the default
/// [`RoutingMode::Static`] by `NOC_ROUTING`, when set.
///
/// # Panics
/// Panics on a value the shared grammar rejects.
pub fn replayed(mut cfg: NetworkConfig) -> NetworkConfig {
    if cfg.topology == TopologySpec::MeshK {
        if let Ok(raw) = std::env::var("NOC_TOPOLOGY") {
            cfg.topology = TopologySpec::parse_arg(&raw, cfg.mesh_k)
                .unwrap_or_else(|e| panic!("NOC_TOPOLOGY: {e}"));
        }
    }
    if cfg.routing == RoutingMode::Static {
        if let Ok(raw) = std::env::var("NOC_ROUTING") {
            cfg.routing =
                RoutingMode::parse_arg(&raw).unwrap_or_else(|e| panic!("NOC_ROUTING: {e}"));
        }
    }
    cfg
}
