//! The spatial metrics plane: a per-router counter grid.
//!
//! Every router already owns plain-`u64` event counters
//! ([`RouterStats`]) that only the shard stepping it mutates, so the
//! grid inherits the parallel stepper's determinism for free:
//! shard-local accumulation, merged in fixed shard order, makes serial
//! and N-thread totals bit-identical (ARCHITECTURE.md §3). This module owns the *data model* — the grid
//! itself plus its JSON / CSV / ASCII renderings — so the simulator,
//! the service's `/jobs/:id/progress` endpoint and `noc-cli heatmap`
//! all share one schema.

use crate::json::{JsonSink, JsonValue};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::stats::RouterStats;
use noc_types::Coord;
use std::fmt::Write as _;

/// A `width × height` grid of every router's [`RouterStats`], keyed by
/// [`Coord`] and stored row-major (`y * width + x`). It renders the
/// counters of the [`RouterStats::SPATIAL`] view, the grid's metrics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SpatialGrid {
    /// Routers per row.
    pub width: usize,
    /// Rows.
    pub height: usize,
    /// Hierarchical (chiplet) topologies only: the chiplet side length.
    /// When set, JSON grid keys are chiplet-major (`"cx,cy:x,y"` — the
    /// chiplet coordinate, then the router's position within it), CSV
    /// rows gain `cx,cy` columns and the ASCII rendering draws chiplet
    /// boundaries. Storage stays row-major over the global grid either
    /// way.
    pub chiplet_k: Option<usize>,
    /// Row-major cells (`y * width + x`).
    pub cells: Vec<RouterStats>,
}

/// Shade ramp of the text heatmaps, `.` idle to `#` busiest: the
/// normalised ASCII grid here and the network utilisation heatmap.
pub const RAMP: [char; 6] = ['.', ':', '-', '=', '+', '#'];

impl SpatialGrid {
    /// An all-zero grid of the given dimensions.
    pub fn new(width: usize, height: usize) -> Self {
        SpatialGrid {
            width,
            height,
            chiplet_k: None,
            cells: vec![RouterStats::default(); width * height],
        }
    }

    /// Mark the grid as hierarchical: cells group into `k × k` chiplets
    /// (`k >= 1`; the chiplet coordinate of `(x, y)` is `(x/k, y/k)`).
    pub fn with_chiplets(mut self, k: usize) -> Self {
        assert!(k >= 1, "chiplet side length must be >= 1");
        self.chiplet_k = Some(k);
        self
    }

    /// Write the JSON grid key for the cell at global `(x, y)` over
    /// `key`: `"x,y"` on flat grids, chiplet-major `"cx,cy:x,y"`
    /// (intra-chiplet `x,y`) on hierarchical ones.
    fn key(&self, x: usize, y: usize, key: &mut String) {
        key.clear();
        let _ = match self.chiplet_k {
            Some(k) => write!(key, "{},{}:{},{}", x / k, y / k, x % k, y % k),
            None => write!(key, "{x},{y}"),
        };
    }

    /// Parse a JSON grid key back to global `(x, y)` under the grid's
    /// keying scheme.
    fn parse_key(&self, key: &str) -> Option<(usize, usize)> {
        let pair = |s: &str| -> Option<(usize, usize)> {
            let (a, b) = s.split_once(',')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        };
        match self.chiplet_k {
            Some(k) => {
                let (chip, local) = key.split_once(':')?;
                let ((cx, cy), (lx, ly)) = (pair(chip)?, pair(local)?);
                if lx >= k || ly >= k {
                    return None;
                }
                Some((cx * k + lx, cy * k + ly))
            }
            None => pair(key),
        }
    }

    /// The cell for `coord`.
    pub fn cell(&self, coord: Coord) -> &RouterStats {
        &self.cells[coord.y as usize * self.width + coord.x as usize]
    }

    /// Mutable access to the cell for `coord`.
    pub fn cell_mut(&mut self, coord: Coord) -> &mut RouterStats {
        &mut self.cells[coord.y as usize * self.width + coord.x as usize]
    }

    /// The named metric for every cell, row-major, or `None` for a name
    /// outside [`RouterStats::SPATIAL`].
    pub fn metric(&self, name: &str) -> Option<Vec<u64>> {
        let counter = RouterStats::SPATIAL.into_iter().find(|c| c.0 == name)?;
        Some(self.cells.iter().map(|c| c.get(counter)).collect())
    }

    /// The grid as a tree: its [`Snapshot`], under the name the reports
    /// and the CLI use.
    pub fn to_json(&self) -> JsonValue {
        self.snapshot()
    }

    /// Rebuild a grid from its [`SpatialGrid::to_json`] rendering: the
    /// [`RouterStats::SPATIAL`] counters of each cell (the others stay
    /// zero). Fails on a zero or overflowing dimension, a cell count
    /// that does not match the dimensions, and a key that is malformed,
    /// outside the grid or names a cell twice.
    pub fn from_json(v: &JsonValue) -> Result<Self, SnapshotError> {
        let dim = |key: &str| {
            let n = v.get(key).and_then(JsonValue::as_u64);
            n.and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| SnapshotError::new(format!("field `{key}` is not a usize")))
        };
        let (width, height) = (dim("width")?, dim("height")?);
        let cells = width
            .checked_mul(height)
            .filter(|&n| n > 0)
            .ok_or_else(|| {
                SnapshotError::new(format!(
                    "grid dimensions {width}x{height} are zero or too large"
                ))
            })?;
        let chiplet_k = match v.get("chiplet_k") {
            None => None,
            Some(field) => Some(
                field
                    .as_u64()
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| SnapshotError::new("`chiplet_k` is not a positive number"))?
                    as usize,
            ),
        };
        let grid = match v.get("grid") {
            Some(JsonValue::Obj(fields)) => fields,
            _ => return Err(SnapshotError::new("missing `grid` object")),
        };
        if grid.len() != cells {
            return Err(SnapshotError::new(format!(
                "`grid` has {} cells but dimensions say {cells}",
                grid.len(),
            )));
        }
        let mut out = SpatialGrid::new(width, height);
        out.chiplet_k = chiplet_k;
        let mut seen = vec![false; cells];
        for (key, cell) in grid {
            let (x, y) = out
                .parse_key(key)
                .ok_or_else(|| SnapshotError::new(format!("bad grid key `{key}`")))?;
            if x >= width || y >= height {
                return Err(SnapshotError::new(format!(
                    "grid key `{key}` outside {width}x{height}"
                )));
            }
            let i = y * width + x;
            if std::mem::replace(&mut seen[i], true) {
                return Err(SnapshotError::new(format!(
                    "grid key `{key}` names cell ({x}, {y}) twice"
                )));
            }
            out.cells[i] = RouterStats::from_json(cell, &RouterStats::SPATIAL)
                .map_err(|e| e.within(&format!("grid[{key}]")))?;
        }
        Ok(out)
    }

    /// Render as CSV: one row per router, `x,y` first (prefixed with
    /// the `cx,cy` chiplet coordinate on hierarchical grids), then
    /// every metric in [`RouterStats::SPATIAL`] order.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        if self.chiplet_k.is_some() {
            out.push_str("cx,cy,");
        }
        out.push_str("x,y,");
        out.push_str(&RouterStats::SPATIAL.map(|c| c.0).join(","));
        out.push('\n');
        for y in 0..self.height {
            for x in 0..self.width {
                let c = &self.cells[y * self.width + x];
                if let Some(k) = self.chiplet_k {
                    out.push_str(&format!("{},{},", x / k, y / k));
                }
                out.push_str(&format!("{x},{y}"));
                for counter in RouterStats::SPATIAL {
                    out.push_str(&format!(",{}", c.get(counter)));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Render one metric as an aligned ASCII grid: right-justified
    /// counts, row `y = 0` at the top, plus a shaded miniature
    /// (normalised against the grid maximum) alongside each row. On
    /// hierarchical grids a `|` column and a `-` rule mark chiplet
    /// boundaries in both renderings. `None` for an unknown metric
    /// name.
    pub fn ascii(&self, name: &str) -> Option<String> {
        let values = self.metric(name)?;
        let max = values.iter().copied().max().unwrap_or(0);
        let cell_width = values
            .iter()
            .map(|v| v.to_string().len())
            .max()
            .unwrap_or(1);
        let boundary = |i: usize| self.chiplet_k.is_some_and(|k| i > 0 && i.is_multiple_of(k));
        let mut out = String::new();
        let mut line_len = 0;
        for y in 0..self.height {
            let row = &values[y * self.width..(y + 1) * self.width];
            let mut numbers = String::new();
            let mut shades = String::new();
            for (x, &v) in row.iter().enumerate() {
                if x > 0 {
                    numbers.push_str(if boundary(x) { " | " } else { " " });
                }
                if boundary(x) {
                    shades.push('|');
                }
                numbers.push_str(&format!("{v:>cell_width$}"));
                shades.push(if max == 0 {
                    RAMP[0]
                } else {
                    RAMP[((v as u128 * (RAMP.len() as u128 - 1)).div_ceil(max as u128)) as usize]
                });
            }
            let line = format!("{numbers}   {shades}");
            if boundary(y) {
                out.push_str(&"-".repeat(line_len));
                out.push('\n');
            }
            line_len = line.len();
            out.push_str(&line);
            out.push('\n');
        }
        Some(out)
    }
}

/// A JSON object: dimensions plus a grid keyed by coordinate (`"x,y"`
/// flat, `"cx,cy:x,y"` hierarchical), cells in row-major order. Flat
/// grids omit the `chiplet_k` field, so their encoding is
/// byte-identical to the pre-chiplet schema.
impl Snapshot for SpatialGrid {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| {
            sink.field("width").u64(self.width as u64);
            sink.field("height").u64(self.height as u64);
            if let Some(k) = self.chiplet_k {
                sink.field("chiplet_k").u64(k as u64);
            }
            sink.field("grid").obj(|sink| {
                let mut key = String::new();
                for y in 0..self.height {
                    for x in 0..self.width {
                        self.key(x, y, &mut key);
                        let cell = &self.cells[y * self.width + x];
                        cell.encode_view(&RouterStats::SPATIAL, sink.field(&key));
                    }
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_grid() -> SpatialGrid {
        let mut g = SpatialGrid::new(3, 2);
        for (i, cell) in g.cells.iter_mut().enumerate() {
            let i = i as u64;
            *cell = RouterStats {
                flits_out: i * 10,
                occ_integral: i * 7,
                va_grants: i,
                va_stalls: i * 2,
                sa_grants: i,
                sa_stalls: i * 3,
                sa_bypass_grants: i % 2,
                va_borrows: i % 3,
                vc_transfers: i % 5,
                ..RouterStats::default()
            };
        }
        g
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let g = sample_grid();
        let text = g.to_json().render();
        let back = SpatialGrid::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn csv_has_one_row_per_router_and_all_columns() {
        let g = sample_grid();
        let csv = g.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 2 + RouterStats::SPATIAL.len());
        assert_eq!(lines.count(), 6);
    }

    #[test]
    fn metric_and_cell_lookup_agree() {
        let g = sample_grid();
        for counter in RouterStats::SPATIAL {
            let values = g.metric(counter.0).unwrap();
            assert_eq!(values.len(), 6);
            // Row-major: (x=2, y=1) lives at index y*width + x = 5.
            assert_eq!(values[5], g.cell(Coord::new(2, 1)).get(counter));
        }
        assert!(g.metric("no_such_metric").is_none());
    }

    #[test]
    fn chiplet_grids_use_chiplet_major_keys_and_round_trip() {
        // A 4×4 grid of 2×2 chiplets: (3, 2) lives in chiplet (1, 1)
        // at intra-chiplet (1, 0). The key format is golden-pinned —
        // the service progress endpoint and `noc-cli heatmap` both
        // parse it.
        let mut g = SpatialGrid::new(4, 4).with_chiplets(2);
        g.cell_mut(Coord::new(3, 2)).flits_out = 99;
        let text = g.to_json().render();
        assert!(!text.contains("\"chiplet_k\":4"));
        assert!(text.contains("\"chiplet_k\":2"));
        assert!(text.contains("\"1,1:1,0\":{\"flits_routed\":99"));
        assert!(text.contains("\"0,0:0,0\":"));
        let back = SpatialGrid::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.to_json().render(), text);
        // Flat keys are rejected on hierarchical grids and vice versa.
        assert!(SpatialGrid::from_json(
            &JsonValue::parse(&text.replace("\"1,1:1,0\"", "\"3,2\"")).unwrap()
        )
        .is_err());
        // Intra-chiplet coordinates past the chiplet side are invalid.
        assert!(SpatialGrid::from_json(
            &JsonValue::parse(&text.replace("\"1,1:1,0\"", "\"1,1:2,0\"")).unwrap()
        )
        .is_err());
        // CSV rows carry the chiplet coordinate first.
        let csv = g.to_csv();
        assert!(csv.starts_with("cx,cy,x,y,"));
        assert!(csv.contains("\n1,1,3,2,99,"));
    }

    #[test]
    fn chiplet_ascii_draws_die_boundaries() {
        let mut g = SpatialGrid::new(4, 4).with_chiplets(2);
        for (i, cell) in g.cells.iter_mut().enumerate() {
            cell.flits_out = i as u64;
        }
        let art = g.ascii("flits_routed").unwrap();
        let lines: Vec<&str> = art.lines().collect();
        // 4 value rows plus one horizontal rule between chiplet rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[2].chars().all(|c| c == '-'), "rule between dies");
        assert_eq!(lines[2].len(), lines[1].len());
        // Vertical boundary in both the numbers and the shade strip.
        assert_eq!(lines[0].matches('|').count(), 2);
    }

    #[test]
    fn ascii_grid_is_aligned() {
        let g = sample_grid();
        let art = g.ascii("flits_routed").unwrap();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        // Every line has the same width: counts are right-justified.
        assert_eq!(lines[0].len(), lines[1].len());
        // The largest cell shades darkest; an all-zero grid stays light.
        assert!(lines[1].ends_with('#'));
        assert!(SpatialGrid::new(2, 2)
            .ascii("va_stalls")
            .unwrap()
            .lines()
            .all(|l| l.ends_with("..")));
    }

    fn parse(text: &str) -> Result<SpatialGrid, SnapshotError> {
        SpatialGrid::from_json(&JsonValue::parse(text).unwrap())
    }

    #[test]
    fn dimensions_whose_product_overflows_are_rejected() {
        // 2^32 × 2^32 wraps a 64-bit product to 0 cells, which an empty
        // grid object would match.
        let err = parse(r#"{"width":4294967296,"height":4294967296,"grid":{}}"#).unwrap_err();
        assert!(err.message.contains("4294967296x4294967296"), "{err}");
    }

    #[test]
    fn a_zero_dimension_is_rejected() {
        for text in [
            r#"{"width":0,"height":100000000,"grid":{}}"#,
            r#"{"width":3,"height":0,"grid":{}}"#,
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.message.contains("zero"), "{text}: {err}");
        }
    }

    #[test]
    fn a_cell_named_twice_is_rejected() {
        // The JSON parser refuses a repeated key, but an alias (`01`
        // parses as `1`) names cell (1, 0) twice and leaves (0, 0)
        // unset while the cell count still matches.
        let text = SpatialGrid::new(2, 1).to_json().render();
        let err = parse(&text.replace("\"0,0\"", "\"01,0\"")).unwrap_err();
        assert!(err.message.contains("names cell (1, 0) twice"), "{err}");
    }
}
