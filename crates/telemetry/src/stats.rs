//! The per-router event counters: one record, its counter names
//! written down once.
//!
//! [`RouterStats`] is the only per-router counter record. The stage
//! kernels increment its plain `u64` fields; only the shard stepping a
//! router touches them, so sums and grids read in router-id order are
//! bit-identical at every thread count (ARCHITECTURE.md §3).
//! [`RouterStats::COUNTERS`] names every counter once, and everything
//! that renders or parses counters runs over that table or one of its
//! two ordered views:
//!
//! * the table itself is the router snapshot codec;
//! * [`RouterStats::SPATIAL`] is the per-router heatmap of a
//!   [`crate::SpatialGrid`] (JSON, CSV, ASCII and its metric names);
//! * [`RouterStats::MECHANISMS`] is a run report's `router_events`, the
//!   Shield mechanism counters summed over routers.

use crate::json::{JsonReader, JsonSink, JsonValue, TreeBuilder};
use crate::snapshot::{FromSnapshot, Snapshot, SnapshotError};
use std::ops::AddAssign;

/// Event counters a router keeps for experiments and invariant checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Flits accepted into input buffers.
    pub flits_in: u64,
    /// Flits sent through the crossbar.
    pub flits_out: u64,
    /// Flits dropped by a faulty baseline crossbar mux.
    pub flits_dropped: u64,
    /// Head flits misrouted by a faulty baseline RC unit.
    pub rc_misroutes: u64,
    /// RC computations served by the duplicate unit.
    pub rc_duplicate_uses: u64,
    /// Successful VA allocations.
    pub va_grants: u64,
    /// VA allocations performed through a borrowed arbiter set.
    pub va_borrows: u64,
    /// Cycles a VC waited because its intended lender was busy
    /// (the paper's Scenario 2 extra latency).
    pub va_borrow_waits: u64,
    /// SA grants issued.
    pub sa_grants: u64,
    /// SA grants issued through the bypass path (default winner).
    pub sa_bypass_grants: u64,
    /// VC-to-VC flit transfers performed for the bypass path.
    pub vc_transfers: u64,
    /// Flits that traversed the crossbar via a secondary path.
    pub secondary_path_flits: u64,
    /// Sum over executed steps of the flits buffered at step entry
    /// (buffer-occupancy integral; divide by cycles for mean occupancy).
    pub occ_integral: u64,
    /// VC-allocation requests that went ungranted this cycle
    /// (requesting VCs minus VA grants, summed per step).
    pub va_stalls: u64,
    /// Switch-allocation requests that went ungranted this cycle
    /// (formed SA requests minus SA grants, summed per step).
    pub sa_stalls: u64,
}

/// One counter of [`RouterStats`]: its key and its field.
pub type Counter = (&'static str, fn(&mut RouterStats) -> &mut u64);

impl RouterStats {
    /// Every counter once, in snapshot key order.
    pub const COUNTERS: [Counter; 15] = [
        ("flits_in", |s| &mut s.flits_in),
        ("flits_out", |s| &mut s.flits_out),
        ("flits_dropped", |s| &mut s.flits_dropped),
        ("rc_misroutes", |s| &mut s.rc_misroutes),
        ("rc_duplicate_uses", |s| &mut s.rc_duplicate_uses),
        ("va_grants", |s| &mut s.va_grants),
        ("va_borrows", |s| &mut s.va_borrows),
        ("va_borrow_waits", |s| &mut s.va_borrow_waits),
        ("sa_grants", |s| &mut s.sa_grants),
        ("sa_bypass_grants", |s| &mut s.sa_bypass_grants),
        ("vc_transfers", |s| &mut s.vc_transfers),
        ("secondary_path_flits", |s| &mut s.secondary_path_flits),
        ("occ_integral", |s| &mut s.occ_integral),
        ("va_stalls", |s| &mut s.va_stalls),
        ("sa_stalls", |s| &mut s.sa_stalls),
    ];

    /// The spatial view: a [`crate::SpatialGrid`] cell's metrics, in
    /// CSV column order — `flits_out` (keyed `flits_routed` here),
    /// `occ_integral`, `va_grants`, `va_stalls`, `sa_grants`,
    /// `sa_stalls`, `sa_bypass_grants`, `va_borrows`, `vc_transfers`.
    /// The first six localise congestion, the last three the Shield
    /// mechanisms.
    pub const SPATIAL: [Counter; 9] = {
        let c = Self::COUNTERS;
        let mut view = [c[1], c[12], c[5], c[13], c[8], c[14], c[9], c[6], c[10]];
        view[0].0 = "flits_routed";
        view
    };

    /// The mechanism view: a run report's `router_events`, in key order
    /// — `rc_duplicate_uses`, `rc_misroutes`, `va_borrows`,
    /// `va_borrow_waits`, `sa_bypass_grants`, `vc_transfers`,
    /// `secondary_path_flits`.
    pub const MECHANISMS: [Counter; 7] = {
        let c = Self::COUNTERS;
        [c[4], c[3], c[6], c[7], c[9], c[10], c[11]]
    };

    /// The value of `counter`.
    pub fn get(mut self, counter: Counter) -> u64 {
        *(counter.1)(&mut self)
    }

    /// The counters of `view` as a JSON object, in view order.
    pub fn to_json(&self, view: &[Counter]) -> JsonValue {
        TreeBuilder::build(|tree| self.encode_view(view, tree))
    }

    /// Send [`RouterStats::to_json`]'s object to `sink`.
    pub fn encode_view<S: JsonSink>(&self, view: &[Counter], sink: &mut S) {
        sink.obj(|sink| {
            for &c in view {
                sink.field(c.0).u64(self.get(c));
            }
        });
    }

    /// Decode the counters of `view` from a [`RouterStats::to_json`]
    /// tree, in any key order; the others stay zero.
    pub fn from_json(v: &JsonValue, view: &[Counter]) -> Result<Self, SnapshotError> {
        let mut s = RouterStats::default();
        for (key, field) in view {
            *field(&mut s) = v.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
                SnapshotError::new(format!("field `{key}` is missing or not a u64"))
            })?;
        }
        Ok(s)
    }
}

impl AddAssign for RouterStats {
    fn add_assign(&mut self, mut rhs: RouterStats) {
        for (_, field) in Self::COUNTERS {
            *field(self) += *field(&mut rhs);
        }
    }
}

impl std::iter::Sum for RouterStats {
    fn sum<I: Iterator<Item = RouterStats>>(iter: I) -> Self {
        iter.fold(RouterStats::default(), |mut total, s| {
            total += s;
            total
        })
    }
}

impl Snapshot for RouterStats {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        self.encode_view(&Self::COUNTERS, sink);
    }
}

impl FromSnapshot for RouterStats {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        r.obj(|r| {
            let mut s = RouterStats::default();
            for (key, field) in Self::COUNTERS {
                *field(&mut s) = r.field(key)?;
            }
            Ok(s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct values in every field: counter `i` of the table is
    /// `i + 1`.
    fn numbered() -> RouterStats {
        let mut s = RouterStats::default();
        for (i, (_, field)) in RouterStats::COUNTERS.into_iter().enumerate() {
            *field(&mut s) = i as u64 + 1;
        }
        s
    }

    fn keys(view: &[Counter]) -> Vec<&'static str> {
        view.iter().map(|c| c.0).collect()
    }

    #[test]
    fn the_table_names_every_field_once() {
        let s = numbered();
        // Every row reads back its own number, so no two rows share a
        // field; a field per row, so no field is missing from the table.
        for (i, c) in RouterStats::COUNTERS.into_iter().enumerate() {
            assert_eq!(s.get(c), i as u64 + 1, "{}", c.0);
        }
        assert_eq!(
            std::mem::size_of::<RouterStats>(),
            8 * RouterStats::COUNTERS.len()
        );
    }

    #[test]
    fn the_views_keep_their_keys_and_order() {
        assert_eq!(
            keys(&RouterStats::SPATIAL),
            [
                "flits_routed",
                "occ_integral",
                "va_grants",
                "va_stalls",
                "sa_grants",
                "sa_stalls",
                "sa_bypass_grants",
                "va_borrows",
                "vc_transfers",
            ]
        );
        assert_eq!(
            keys(&RouterStats::MECHANISMS),
            [
                "rc_duplicate_uses",
                "rc_misroutes",
                "va_borrows",
                "va_borrow_waits",
                "sa_bypass_grants",
                "vc_transfers",
                "secondary_path_flits",
            ]
        );
        // Each view entry reads the field its key names in the table.
        let s = numbered();
        assert_eq!(s.get(RouterStats::SPATIAL[0]), s.flits_out);
        let views = RouterStats::SPATIAL[1..]
            .iter()
            .chain(&RouterStats::MECHANISMS);
        for &counter in views {
            let row = RouterStats::COUNTERS.into_iter().find(|c| c.0 == counter.0);
            assert_eq!(Some(s.get(counter)), row.map(|c| s.get(c)), "{}", counter.0);
        }
    }

    #[test]
    fn snapshot_round_trips_and_views_decode_only_their_counters() {
        let s = numbered();
        let text = s.snapshot().render();
        assert!(text.starts_with("{\"flits_in\":1,\"flits_out\":2,"));
        let back = RouterStats::from_snapshot(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        let cell = s.to_json(&RouterStats::SPATIAL);
        let decoded = RouterStats::from_json(&cell, &RouterStats::SPATIAL).unwrap();
        assert_eq!(decoded.flits_out, s.flits_out);
        assert_eq!(decoded.flits_in, 0, "flits_in is outside the view");
        assert!(RouterStats::from_json(&cell, &RouterStats::COUNTERS).is_err());
    }

    #[test]
    fn sums_add_every_counter() {
        let s = numbered();
        let total: RouterStats = [s, s, s].into_iter().sum();
        for c in RouterStats::COUNTERS {
            assert_eq!(total.get(c), 3 * s.get(c), "{}", c.0);
        }
    }
}
