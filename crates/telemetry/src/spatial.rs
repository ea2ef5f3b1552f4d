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

use crate::json::{JsonReader, JsonValue, JsonWriter};
use crate::snapshot::{FromSnapshot, Snapshot, SnapshotError};
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

    /// The JSON grid key for the cell at global `(x, y)`: `"x,y"` on
    /// flat grids, chiplet-major `"cx,cy:x,y"` (intra-chiplet `x,y`) on
    /// hierarchical ones.
    fn key(&self, x: usize, y: usize) -> GridKey {
        let mut key = GridKey {
            text: [0; GridKey::MAX],
            len: 0,
        };
        let _ = match self.chiplet_k {
            Some(k) => write!(key, "{},{}:{},{}", x / k, y / k, x % k, y % k),
            None => write!(key, "{x},{y}"),
        };
        key
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

    /// The grid as a tree — the parse of its [`Snapshot`] text — under
    /// the name the reports and the CLI use.
    pub fn to_json(&self) -> JsonValue {
        self.snapshot()
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
    fn encode(&self, sink: &mut JsonWriter<'_>) {
        sink.obj(|sink| {
            sink.field("width").u64(self.width as u64);
            sink.field("height").u64(self.height as u64);
            if let Some(k) = self.chiplet_k {
                sink.field("chiplet_k").u64(k as u64);
            }
            sink.field("grid").obj(|sink| {
                for y in 0..self.height {
                    for x in 0..self.width {
                        let key = self.key(x, y);
                        let cell = &self.cells[y * self.width + x];
                        cell.encode_view(&RouterStats::SPATIAL, sink.field(key.as_str()));
                    }
                }
            });
        });
    }
}

/// A grid key, formatted on the stack: a grid is encoded and decoded
/// without a heap buffer for its keys.
struct GridKey {
    text: [u8; GridKey::MAX],
    len: usize,
}

impl GridKey {
    /// The longest key: four `usize`s and three separators.
    const MAX: usize = 4 * 20 + 3;

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.text[..self.len]).expect("digits and separators")
    }
}

impl std::fmt::Write for GridKey {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        let room = self.text.get_mut(self.len..end).ok_or(std::fmt::Error)?;
        room.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// What a grid key out of place means.
const OUT_OF_PLACE: &str =
    " (cells are keyed row-major: one is missing, out of place or named twice)";

/// Reads the encoder's order: `width`, `height`, `chiplet_k` when the
/// grid has one, then `grid`, its cells row-major, each under the key
/// its encoder writes (`SpatialGrid::key`); a cell carries the
/// [`RouterStats::SPATIAL`] counters (the others stay zero). Fails on a
/// zero or overflowing dimension and on a cell missing, out of place or
/// named twice. Cells are kept as they are read, so a crafted size
/// allocates nothing its text does not hold.
impl FromSnapshot for SpatialGrid {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        r.obj(|r| {
            let (width, height): (usize, usize) = (r.field("width")?, r.field("height")?);
            let cells = width.checked_mul(height).filter(|&n| n > 0);
            let cells = cells.ok_or_else(|| {
                SnapshotError::new(format!(
                    "grid dimensions {width}x{height} are zero or too large"
                ))
            })?;
            let chiplet_k = r.opt_field("chiplet_k")?;
            if chiplet_k == Some(0) {
                return Err(SnapshotError::new("`chiplet_k` is not a positive number"));
            }
            let mut grid = SpatialGrid {
                width,
                height,
                chiplet_k,
                cells: Vec::new(),
            };
            r.field_with("grid", |r| {
                r.obj(|r| {
                    for i in 0..cells {
                        let key = grid.key(i % width, i / width);
                        let key = key.as_str();
                        r.member(key)
                            .map_err(|e| SnapshotError::new(e.message + OUT_OF_PLACE))?;
                        let cell = RouterStats::decode_view(r, &RouterStats::SPATIAL);
                        grid.cells
                            .push(cell.map_err(|e| e.within(&format!("[{key}]")))?);
                    }
                    Ok(())
                })
            })?;
            Ok(grid)
        })
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
        let back = SpatialGrid::from_text(&text).unwrap();
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
        let back = SpatialGrid::from_text(&text).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.to_json().render(), text);
        // Flat keys are rejected on hierarchical grids and vice versa.
        let err = parse(&text.replace("\"1,1:1,0\"", "\"3,2\"")).unwrap_err();
        assert!(
            err.message.contains("expected key `1,1:1,0`, found `3,2`"),
            "{err}"
        );
        let flat = SpatialGrid::new(4, 4).to_json().render();
        let err = parse(&flat.replace("\"0,0\"", "\"0,0:0,0\"")).unwrap_err();
        assert!(
            err.message.contains("expected key `0,0`, found `0,0:0,0`"),
            "{err}"
        );
        // Intra-chiplet coordinates past the chiplet side are invalid.
        let err = parse(&text.replace("\"1,1:1,0\"", "\"1,1:2,0\"")).unwrap_err();
        assert!(
            err.message
                .contains("expected key `1,1:1,0`, found `1,1:2,0`"),
            "{err}"
        );
        let err = parse(&text.replace("\"chiplet_k\":2", "\"chiplet_k\":0")).unwrap_err();
        assert!(err.message.contains("not a positive number"), "{err}");
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
        SpatialGrid::from_text(text)
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
    fn a_cell_count_that_does_not_match_the_dimensions_is_rejected() {
        // A 3×2 grid holds six cells: four stop at the fifth key, seven
        // meet a key past the last.
        let six = sample_grid().to_json().render();
        let four = SpatialGrid::new(2, 2).to_json().render();
        let err = parse(&four.replacen("\"width\":2", "\"width\":3", 1)).unwrap_err();
        assert!(
            err.message.contains("expected key `2,0`, found `0,1`"),
            "{err}"
        );
        let err = parse(&six.replacen("\"height\":2", "\"height\":1", 1)).unwrap_err();
        assert!(err.message.contains("unexpected key `0,1`"), "{err}");
        let one = SpatialGrid::new(1, 1).to_json().render();
        let err = parse(&one.replacen("\"width\":1", "\"width\":2", 1)).unwrap_err();
        assert!(
            err.message
                .contains("expected key `1,0`, found the end of the object"),
            "{err}"
        );
    }

    #[test]
    fn a_cell_named_twice_is_rejected() {
        // The JSON parser refuses a repeated key, but an alias (`01`
        // for `0`) names a cell twice while the cell count still
        // matches: the key read is not the one the cell's place gives.
        let text = SpatialGrid::new(2, 1).to_json().render();
        let err = parse(&text.replace("\"0,0\"", "\"01,0\"")).unwrap_err();
        assert!(
            err.message.contains("expected key `0,0`, found `01,0`"),
            "{err}"
        );
        assert!(err.message.contains("named twice"), "{err}");
    }

    #[test]
    fn a_reordered_grid_is_rejected() {
        // Every key names a cell once, but not in row-major order.
        let text = sample_grid().to_json().render();
        let reordered = text
            .replace("\"0,0\"", "\"tmp\"")
            .replace("\"1,0\"", "\"0,0\"")
            .replace("\"tmp\"", "\"1,0\"");
        assert_ne!(reordered, text);
        let err = parse(&reordered).unwrap_err();
        assert!(
            err.message
                .contains("grid: expected key `0,0`, found `1,0`"),
            "{err}"
        );
        // Members out of the encoder's order fail the same way.
        let swapped = text.replacen("\"width\":3,\"height\":2", "\"height\":2,\"width\":3", 1);
        let err = parse(&swapped).unwrap_err();
        assert!(
            err.message.contains("expected key `width`, found `height`"),
            "{err}"
        );
    }
}
