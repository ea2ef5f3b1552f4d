//! The links table: all per-link state of the network, one [`Link`] per
//! (router, output port) — where the link goes and how fast, when it
//! next accepts a flit, and how many flits it has carried. It is built
//! from the topology at construction; after that only the stepper
//! (pacing and utilisation, through each shard's disjoint slice of rows)
//! and a link fault's unplug write it.

use noc_telemetry::json::{JsonReader, JsonSink};
use noc_telemetry::snapshot::SnapshotError;
use noc_topology::Topology;
use noc_types::{Cycle, Direction, LinkClass, PortId};
use std::ops::RangeBounds;

/// One fully-resolved link out of a router: the downstream router, the
/// port the link enters it through, and the link's physical class —
/// traversal latency and serialization factor — baked in from the
/// topology at construction so the hot path never queries it.
#[derive(Debug, Clone, Copy)]
pub(super) struct LinkTarget {
    /// Downstream router id.
    pub(super) down: u32,
    /// Input port our link enters the downstream router through.
    pub(super) in_port: PortId,
    /// Serialization factor: cycles of link occupancy per flit (`1` =
    /// full width; [`LinkClass::validate`] bounds it to 32). A flit
    /// departing onto a busy narrow link waits for the link to free and
    /// spends `width_denom` cycles serialising, so its arrival is
    /// delayed accordingly; credits are single signals and never
    /// serialise.
    pub(super) width_denom: u8,
    /// Link traversal latency in cycles (`>= 1`; the config's uniform
    /// `link_latency` has no upper bound).
    pub(super) latency: u32,
}

/// Everything the network keeps about one (router, output port) link.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Link {
    /// The resolved link (`None` = no link — grid edge, cut link, or the
    /// local port, whose NI traffic takes the dedicated
    /// `Eject`/`NiCredit` wires).
    pub(super) to: Option<LinkTarget>,
    /// The first cycle the link accepts another flit — the serialisation
    /// pacing state of narrow (`width_denom > 1`) links. Full-width
    /// links neither consult nor advance it (it stays 0).
    pub(super) free_at: Cycle,
    /// Flits sent through this output port — the link-utilisation
    /// matrix behind congestion heatmaps.
    pub(super) flits: u64,
}

// The table is read for every departure: an entry may not outgrow the
// 32 bytes the old `Option<LinkTarget>` alone took.
const _: () = assert!(std::mem::size_of::<Link>() <= 32);

/// One router's links, by output port index.
pub(super) type LinkRow = [Link; 5];

/// The per-link table, one [`LinkRow`] per router in id order.
#[derive(Clone)]
pub(super) struct Links {
    rows: Vec<LinkRow>,
}

impl Links {
    /// Resolve every router's outgoing links from the topology. For
    /// every output direction the entry names the downstream router, the
    /// input port our link enters it through, and the link's physical
    /// class — [`Topology::link_class`] where the topology declares one,
    /// the uniform full-width `default_latency` otherwise. Links are
    /// symmetric, so the same entry also names where (and how fast) the
    /// reverse credit travels.
    pub(super) fn build(topo: &Topology, default_latency: u32) -> Self {
        let rows = (0..topo.len())
            .map(|n| {
                let mut row = LinkRow::default();
                // The topology has no link through the local port.
                for dir in Direction::ALL {
                    row[dir.port().index()].to = topo.link(n, dir).map(|m| {
                        let class = topo
                            .link_class(n, dir)
                            .unwrap_or(LinkClass::full(default_latency));
                        LinkTarget {
                            down: m as u32,
                            in_port: dir.opposite().port(),
                            width_denom: u8::try_from(class.width_denom)
                                .expect("LinkClass::validate bounds width to 32"),
                            latency: class.latency,
                        }
                    });
                }
                row
            })
            .collect();
        Links { rows }
    }

    /// Every router's row, in id order.
    pub(super) fn rows(&self) -> &[LinkRow] {
        &self.rows
    }

    /// Every router's row, mutably (the stepper hands each shard its
    /// band).
    pub(super) fn rows_mut(&mut self) -> &mut [LinkRow] {
        &mut self.rows
    }

    /// The link out of `router` through `port`, if there is one.
    pub(super) fn target(&self, router: usize, port: PortId) -> Option<LinkTarget> {
        self.rows[router][port.index()].to
    }

    /// Every existing link out of the routers in `band`.
    pub(super) fn targets(
        &self,
        band: impl RangeBounds<usize>,
    ) -> impl Iterator<Item = &LinkTarget> {
        let band = (band.start_bound().cloned(), band.end_bound().cloned());
        self.rows[band]
            .iter()
            .flatten()
            .filter_map(|l| l.to.as_ref())
    }

    /// Flits sent by `router` through each of its five output ports.
    pub(super) fn flits(&self, router: usize) -> [u64; 5] {
        self.rows[router].map(|l| l.flits)
    }

    /// Unplug the link out of `node` through `dir` in both directions
    /// and return the router at its other end, or `None` if there is no
    /// link there (grid edge, or already failed).
    pub(super) fn unplug(&mut self, node: usize, dir: Direction) -> Option<usize> {
        let other = self.rows[node][dir.port().index()].to.take()?.down as usize;
        self.rows[other][dir.opposite().port().index()].to = None;
        Some(other)
    }

    /// Encode the snapshot rows of one per-link counter: per router,
    /// its five output ports' values.
    pub(super) fn encode_rows<S: JsonSink>(&self, get: fn(&Link) -> u64, sink: &mut S) {
        sink.arr(&self.rows, |sink, row| {
            sink.arr(row, |sink, l| sink.u64(get(l)))
        });
    }

    /// Read one per-link counter from the rows of member `key` (the
    /// inverse of [`Links::encode_rows`]).
    pub(super) fn decode_rows(
        &mut self,
        r: &mut JsonReader<'_>,
        key: &str,
        set: fn(&mut Link) -> &mut u64,
    ) -> Result<(), SnapshotError> {
        let error = |what: &str| SnapshotError::new(format!("`{key}` {what}"));
        let rows = &mut self.rows;
        let n = r.member(key)?.arr(|r, i| {
            let mut row = rows.get_mut(i);
            let links = r.arr(|r, port| {
                let x = r.u64().map_err(|_| error("entry is not a number"))?;
                if let Some(link) = row.as_mut().and_then(|row| row.get_mut(port)) {
                    *set(link) = x;
                }
                Ok(())
            })?;
            match links == 5 {
                true => Ok(()),
                false => Err(error("row is not a 5-entry array")),
            }
        })?;
        match n == rows.len() {
            true => Ok(()),
            false => Err(error("length mismatch")),
        }
    }
}
