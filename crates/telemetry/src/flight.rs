//! The deadlock flight recorder.
//!
//! When the simulator's watchdog concludes a run has wedged, a bare
//! `deadlock_suspected: true` says nothing about *why*. The flight
//! recorder captures the full blocking structure at that instant:
//! every VC's pipeline state and occupancy, plus the wait-for graph
//! whose nodes are `(router, port, vc)` and whose edges say "this VC
//! cannot make progress until that VC drains". A cycle in that graph
//! *is* the deadlock; [`WaitForGraph::find_cycle`] names it.
//!
//! The sim crate builds these records (it owns the network state);
//! this module owns the data model, the cycle detector and the
//! renderings.

use crate::json::{to_tree, JsonValue, JsonWriter};
use crate::snapshot::Snapshot;
use noc_types::{Cycle, VcGlobalState};

/// Why one VC waits on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// The VC is `Active` but the downstream VC it allocated has no
    /// credits left — it waits for the holder of that buffer space.
    CreditStarved,
    /// The VC is in `VcAlloc` and every candidate downstream VC on its
    /// route is held by someone else.
    VcAllocBusy,
}

impl std::fmt::Display for WaitReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitReason::CreditStarved => f.write_str("credit-starved"),
            WaitReason::VcAllocBusy => f.write_str("va-busy"),
        }
    }
}

/// One `(router, input port, vc)` node of the wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WaitNode {
    /// Router id.
    pub router: u16,
    /// Input port within the router.
    pub port: u8,
    /// VC within the port.
    pub vc: u8,
}

impl std::fmt::Display for WaitNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}.p{}.v{}", self.router, self.port, self.vc)
    }
}

/// One directed wait-for edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked VC.
    pub from: WaitNode,
    /// The VC it waits on.
    pub to: WaitNode,
    /// Why it waits.
    pub reason: WaitReason,
}

impl std::fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -[{}]-> {}", self.from, self.reason, self.to)
    }
}

/// Snapshot of one VC at the moment the watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcDump {
    /// Input port.
    pub port: u8,
    /// VC within the port.
    pub vc: u8,
    /// Pipeline state of the VC.
    pub state: VcGlobalState,
    /// Buffered flits.
    pub occupancy: usize,
    /// Routed output port, if past RC.
    pub route: Option<u8>,
    /// Allocated downstream VC, if past VA.
    pub out_vc: Option<u8>,
    /// Credits remaining at the routed output for the allocated
    /// downstream VC, if any.
    pub credits: Option<u8>,
    /// Packet id of the flit at the head of the buffer, if any.
    pub head_packet: Option<u64>,
}

/// Snapshot of one router at the moment the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterDump {
    /// Router id.
    pub router: u16,
    /// Total flits buffered across the router's VCs.
    pub buffered_flits: u64,
    /// Every non-idle VC (idle, empty VCs are elided to keep dumps
    /// readable).
    pub vcs: Vec<VcDump>,
}

/// The wait-for graph over blocked VCs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WaitForGraph {
    /// Every wait-for edge observed at capture time.
    pub edges: Vec<WaitEdge>,
}

impl WaitForGraph {
    /// Find one directed cycle, returned as the edge sequence walking
    /// it, or `None` if the graph is acyclic (the stall is livelock or
    /// starvation rather than a circular wait).
    ///
    /// Iterative DFS with the classic white/grey/black colouring; the
    /// grey stack reconstructs the cycle when a back edge appears.
    pub fn find_cycle(&self) -> Option<Vec<WaitEdge>> {
        // Index the nodes.
        let mut nodes: Vec<WaitNode> = Vec::new();
        let mut index_of = std::collections::HashMap::new();
        let mut id = |n: WaitNode, nodes: &mut Vec<WaitNode>| -> usize {
            *index_of.entry(n).or_insert_with(|| {
                nodes.push(n);
                nodes.len() - 1
            })
        };
        let mut adj: Vec<Vec<(usize, usize)>> = Vec::new(); // (target, edge ix)
        for (e_ix, e) in self.edges.iter().enumerate() {
            let f = id(e.from, &mut nodes);
            let t = id(e.to, &mut nodes);
            if adj.len() < nodes.len() {
                adj.resize_with(nodes.len(), Vec::new);
            }
            adj[f].push((t, e_ix));
        }
        adj.resize_with(nodes.len(), Vec::new);

        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; nodes.len()];
        for start in 0..nodes.len() {
            if colour[start] != Colour::White {
                continue;
            }
            // Stack of (node, next out-edge cursor); `path_edges[i]` is
            // the edge that led to stack[i+1].
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            let mut path_edges: Vec<usize> = Vec::new();
            colour[start] = Colour::Grey;
            while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
                if *cursor < adj[node].len() {
                    let (next, e_ix) = adj[node][*cursor];
                    *cursor += 1;
                    match colour[next] {
                        Colour::Grey => {
                            // Back edge: the cycle is `next ... node`
                            // along the grey path, closed by e_ix.
                            let pos = stack
                                .iter()
                                .position(|&(n, _)| n == next)
                                .expect("grey node must be on the DFS stack");
                            let mut cycle: Vec<WaitEdge> =
                                path_edges[pos..].iter().map(|&ix| self.edges[ix]).collect();
                            cycle.push(self.edges[e_ix]);
                            return Some(cycle);
                        }
                        Colour::White => {
                            colour[next] = Colour::Grey;
                            stack.push((next, 0));
                            path_edges.push(e_ix);
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[node] = Colour::Black;
                    stack.pop();
                    path_edges.pop();
                }
            }
        }
        None
    }
}

/// Everything the watchdog knows at the moment it fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Cycle the watchdog fired on.
    pub cycle: Cycle,
    /// Cycle the network last made observable progress.
    pub last_activity: Cycle,
    /// Flits in flight (buffered or on links) at capture time.
    pub in_flight: u64,
    /// Packets queued at NIs, not yet injected.
    pub queued: u64,
    /// Per-router state (routers with no buffered flits are elided).
    pub routers: Vec<RouterDump>,
    /// The wait-for graph over blocked VCs.
    pub graph: WaitForGraph,
    /// The first circular wait found, if any.
    pub cycle_edges: Option<Vec<WaitEdge>>,
}

impl FlightRecord {
    /// Human-readable dump for logs and panics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "deadlock flight record @ cycle {} (last activity {}, {} flits in flight, {} queued)\n",
            self.cycle, self.last_activity, self.in_flight, self.queued
        ));
        match &self.cycle_edges {
            Some(cycle) => {
                out.push_str(&format!("circular wait of {} edges:\n", cycle.len()));
                for e in cycle {
                    out.push_str(&format!("  {e}\n"));
                }
            }
            None => out.push_str("no circular wait found (starvation or livelock)\n"),
        }
        out.push_str(&format!("wait-for edges: {}\n", self.graph.edges.len()));
        for e in &self.graph.edges {
            out.push_str(&format!("  {e}\n"));
        }
        for r in &self.routers {
            out.push_str(&format!(
                "router {} ({} buffered flits)\n",
                r.router, r.buffered_flits
            ));
            for v in &r.vcs {
                out.push_str(&format!(
                    "  p{}.v{}: {:?} occ={} route={} out_vc={} credits={} head={}\n",
                    v.port,
                    v.vc,
                    v.state,
                    v.occupancy,
                    fmt_opt(v.route),
                    fmt_opt(v.out_vc),
                    fmt_opt(v.credits),
                    v.head_packet.map_or("-".to_string(), |p| p.to_string()),
                ));
            }
        }
        out
    }

    /// JSON rendering for machine consumption: the parse of
    /// [`FlightRecord::encode`]'s text.
    pub fn to_json(&self) -> JsonValue {
        to_tree(|w| self.encode(w))
    }

    /// Write the record as one JSON object.
    pub fn encode(&self, w: &mut JsonWriter<'_>) {
        let edge = |w: &mut JsonWriter<'_>, e: &WaitEdge| {
            w.obj(|w| {
                e.from.encode(w.field("from"));
                e.to.encode(w.field("to"));
                w.field("reason").str(&e.reason.to_string());
            })
        };
        w.obj(|w| {
            w.field("cycle").u64(self.cycle);
            w.field("last_activity").u64(self.last_activity);
            w.field("in_flight").u64(self.in_flight);
            w.field("queued").u64(self.queued);
            match &self.cycle_edges {
                Some(c) => w.field("cycle_edges").arr(c, edge),
                None => w.field("cycle_edges").null(),
            }
            w.field("wait_for").arr(&self.graph.edges, edge);
            w.field("routers").arr(&self.routers, |w, r| {
                w.obj(|w| {
                    w.field("router").u64(u64::from(r.router));
                    w.field("buffered_flits").u64(r.buffered_flits);
                    w.field("vcs").arr(&r.vcs, |w, v| v.encode(w));
                })
            });
        });
    }
}

fn fmt_opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or("-".to_string(), |x| x.to_string())
}

impl WaitNode {
    fn encode(self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("router").u64(u64::from(self.router));
            w.field("port").u64(u64::from(self.port));
            w.field("vc").u64(u64::from(self.vc));
        });
    }
}

impl VcDump {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("port").u64(u64::from(self.port));
            w.field("vc").u64(u64::from(self.vc));
            w.field("state").str(&format!("{:?}", self.state));
            w.field("occupancy").u64(self.occupancy as u64);
            self.route.encode(w.field("route"));
            self.out_vc.encode(w.field("out_vc"));
            self.credits.encode(w.field("credits"));
            self.head_packet.encode(w.field("head_packet"));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(router: u16, port: u8, vc: u8) -> WaitNode {
        WaitNode { router, port, vc }
    }

    fn e(from: WaitNode, to: WaitNode) -> WaitEdge {
        WaitEdge {
            from,
            to,
            reason: WaitReason::CreditStarved,
        }
    }

    #[test]
    fn finds_a_simple_ring() {
        let a = n(0, 2, 0);
        let b = n(1, 4, 0);
        let c = n(3, 1, 0);
        let g = WaitForGraph {
            edges: vec![e(a, b), e(b, c), e(c, a)],
        };
        let cycle = g.find_cycle().expect("3-ring must be found");
        assert_eq!(cycle.len(), 3);
        // The cycle closes: each edge's `to` is the next edge's `from`.
        for (i, edge) in cycle.iter().enumerate() {
            assert_eq!(edge.to, cycle[(i + 1) % cycle.len()].from);
        }
    }

    #[test]
    fn acyclic_chains_and_diamonds_have_no_cycle() {
        let a = n(0, 0, 0);
        let b = n(1, 0, 0);
        let c = n(2, 0, 0);
        let d = n(3, 0, 0);
        let chain = WaitForGraph {
            edges: vec![e(a, b), e(b, c), e(c, d)],
        };
        assert!(chain.find_cycle().is_none());
        // Diamond: two paths a->d; the shared black node must not be
        // misreported as a cycle.
        let diamond = WaitForGraph {
            edges: vec![e(a, b), e(a, c), e(b, d), e(c, d)],
        };
        assert!(diamond.find_cycle().is_none());
    }

    #[test]
    fn self_wait_is_a_cycle_of_one() {
        let a = n(5, 1, 2);
        let g = WaitForGraph {
            edges: vec![e(a, a)],
        };
        let cycle = g.find_cycle().expect("self loop is a cycle");
        assert_eq!(cycle.len(), 1);
        assert_eq!(cycle[0].from, a);
        assert_eq!(cycle[0].to, a);
    }

    #[test]
    fn cycle_reachable_only_through_a_tail_is_found() {
        let t0 = n(9, 0, 0);
        let a = n(0, 0, 0);
        let b = n(1, 0, 0);
        let g = WaitForGraph {
            edges: vec![e(t0, a), e(a, b), e(b, a)],
        };
        let cycle = g.find_cycle().expect("tail->ring must be found");
        assert_eq!(cycle.len(), 2, "the tail edge is not part of the cycle");
        for edge in &cycle {
            assert_ne!(edge.from, t0);
        }
    }

    #[test]
    fn record_renders_and_serialises() {
        let a = n(0, 2, 0);
        let b = n(1, 4, 0);
        let g = WaitForGraph {
            edges: vec![e(a, b), e(b, a)],
        };
        let rec = FlightRecord {
            cycle: 12_000,
            last_activity: 1_500,
            in_flight: 8,
            queued: 3,
            routers: vec![RouterDump {
                router: 0,
                buffered_flits: 4,
                vcs: vec![VcDump {
                    port: 2,
                    vc: 0,
                    state: VcGlobalState::Active,
                    occupancy: 4,
                    route: Some(1),
                    out_vc: Some(0),
                    credits: Some(0),
                    head_packet: Some(42),
                }],
            }],
            cycle_edges: g.find_cycle(),
            graph: g,
        };
        let text = rec.render();
        assert!(text.contains("circular wait of 2 edges"));
        assert!(text.contains("r0.p2.v0"));
        let json = rec.to_json().render();
        let parsed = crate::json::JsonValue::parse(&json).expect("flight record JSON parses");
        assert_eq!(parsed.get("in_flight").unwrap().as_u64(), Some(8));
        assert!(parsed.get("cycle_edges").unwrap().as_array().is_some());
    }
}
