//! Packet-trace record and replay.
//!
//! The paper drives GARNET from GEM5-generated traffic; the equivalent
//! workflow here is to *record* the packets a [`TrafficGenerator`]
//! produces into a portable text trace and *replay* it later — which
//! pins a workload exactly across router variants, fault campaigns and
//! code changes (the generator alone only guarantees this for identical
//! seeds and identical call sequences).
//!
//! The format is a line-oriented text file: a header line
//! `shield-noc-trace v1 mesh_k=<k>` followed by one record per line,
//! `cycle,packet_id,kind,src_x,src_y,dst_x,dst_y` with `kind` ∈
//! `{C, D}`. Human-diffable, no extra dependencies.

use crate::generator::TrafficGenerator;
use noc_types::{Coord, Cycle, Packet, PacketId, PacketKind};
use std::path::Path;

/// One recorded packet creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Creation cycle.
    pub cycle: Cycle,
    /// Packet id.
    pub id: PacketId,
    /// Packet class.
    pub kind: PacketKind,
    /// Source node.
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
}

/// A recorded workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Mesh side the trace was recorded on.
    pub mesh_k: u8,
    /// Records, sorted by cycle.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Record `cycles` of a generator's output.
    pub fn record(generator: &mut TrafficGenerator, mesh_k: u8, cycles: Cycle) -> Trace {
        let (mut records, mut packets) = (Vec::new(), Vec::new());
        for cycle in 0..cycles {
            generator.tick_into(cycle, &mut packets);
            records.extend(packets.drain(..).map(|p| TraceRecord {
                cycle,
                id: p.id,
                kind: p.kind,
                src: p.src,
                dst: p.dst,
            }));
        }
        Trace { mesh_k, records }
    }

    /// Serialise to the v1 text format.
    pub fn to_text(&self) -> String {
        let mut out = format!("shield-noc-trace v1 mesh_k={}\n", self.mesh_k);
        for r in &self.records {
            let kind = match r.kind {
                PacketKind::Control => 'C',
                PacketKind::Data => 'D',
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                r.cycle, r.id.0, kind, r.src.x, r.src.y, r.dst.x, r.dst.y
            ));
        }
        out
    }

    /// Parse the v1 text format.
    pub fn from_text(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty trace")?;
        let mesh_k = header
            .strip_prefix("shield-noc-trace v1 mesh_k=")
            .ok_or_else(|| format!("bad header: {header:?}"))?
            .trim()
            .parse::<u8>()
            .map_err(|e| format!("bad mesh_k: {e}"))?;
        let mut records = Vec::new();
        for (n, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 7 {
                return Err(format!(
                    "line {}: expected 7 fields, got {}",
                    n + 2,
                    fields.len()
                ));
            }
            let parse = |s: &str| -> Result<u64, String> {
                s.trim().parse().map_err(|e| format!("line {}: {e}", n + 2))
            };
            let coord = |x: &str, y: &str| -> Result<Coord, String> {
                let (x, y) = (parse(x)?, parse(y)?);
                if x.max(y) >= u64::from(mesh_k) {
                    return Err(format!(
                        "line {}: node ({x},{y}) outside the {mesh_k}x{mesh_k} mesh",
                        n + 2
                    ));
                }
                Ok(Coord::new(x as u8, y as u8))
            };
            let kind = match fields[2].trim() {
                "C" => PacketKind::Control,
                "D" => PacketKind::Data,
                other => return Err(format!("line {}: bad kind {other:?}", n + 2)),
            };
            records.push(TraceRecord {
                cycle: parse(fields[0])?,
                id: PacketId(parse(fields[1])?),
                kind,
                src: coord(fields[3], fields[4])?,
                dst: coord(fields[5], fields[6])?,
            });
        }
        records.sort_by_key(|r| r.cycle);
        Ok(Trace { mesh_k, records })
    }

    /// Write to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Read from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Trace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Trace::from_text(&text)
    }

    /// A replayer implementing the same `tick_into` contract as
    /// [`TrafficGenerator`].
    pub fn player(&self) -> TracePlayer<'_> {
        TracePlayer {
            trace: self,
            next: 0,
        }
    }

    /// Number of recorded packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Streams a [`Trace`] back out cycle by cycle.
#[derive(Debug)]
pub struct TracePlayer<'a> {
    trace: &'a Trace,
    next: usize,
}

impl TracePlayer<'_> {
    /// Append the packets created at `cycle` to `out` (not cleared).
    /// Must be called with non-decreasing cycles (records for skipped
    /// cycles are dropped, as a simulator fast-forwarding past them
    /// would expect).
    pub fn tick_into(&mut self, cycle: Cycle, out: &mut Vec<Packet>) {
        while let Some(r) = self.trace.records.get(self.next) {
            if r.cycle > cycle {
                break;
            }
            self.next += 1;
            if r.cycle == cycle {
                out.push(Packet::new(r.id, r.kind, r.src, r.dst, cycle));
            }
        }
    }

    /// Whether every record has been replayed.
    pub fn finished(&self) -> bool {
        self.next >= self.trace.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TrafficConfig;
    use crate::synthetic::SyntheticPattern;
    use noc_types::Mesh;

    fn recorded() -> Trace {
        let cfg = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.05);
        let mut g = TrafficGenerator::new(cfg, Mesh::new(4), 17);
        Trace::record(&mut g, 4, 200)
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let t = recorded();
        assert!(!t.is_empty());
        let parsed = Trace::from_text(&t.to_text()).unwrap();
        assert_eq!(t, parsed);
    }

    #[test]
    fn replay_reproduces_the_generator_schedule() {
        let cfg = TrafficConfig::synthetic(SyntheticPattern::Transpose, 0.1);
        let mut g1 = TrafficGenerator::new(cfg, Mesh::new(4), 5);
        let trace = Trace::record(&mut g1, 4, 100);
        let mut g2 = TrafficGenerator::new(cfg, Mesh::new(4), 5);
        let mut player = trace.player();
        for cycle in 0..100 {
            let live: Vec<_> = g2.tick(cycle);
            let mut replayed = Vec::new();
            player.tick_into(cycle, &mut replayed);
            assert_eq!(live.len(), replayed.len(), "cycle {cycle}");
            for (a, b) in live.iter().zip(&replayed) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.src, b.src);
                assert_eq!(a.dst, b.dst);
            }
        }
        assert!(player.finished());
    }

    #[test]
    fn player_skips_past_cycles() {
        let t = recorded();
        let mut p = t.player();
        // Jump straight past everything.
        let mut out = Vec::new();
        p.tick_into(10_000, &mut out);
        assert!(out.is_empty());
        assert!(p.finished());
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(Trace::from_text("").is_err());
        assert!(Trace::from_text("not a trace\n1,2,C,0,0,1,1").is_err());
        assert!(Trace::from_text("shield-noc-trace v1 mesh_k=4\n1,2,C,0,0").is_err());
        assert!(Trace::from_text("shield-noc-trace v1 mesh_k=4\n1,2,X,0,0,1,1").is_err());
        assert!(Trace::from_text("shield-noc-trace v1 mesh_k=4\n1,2,C,0,0,1,1").is_ok());
        // Nodes outside the recorded grid, including values a `u8`
        // would truncate (260 → 4).
        for (record, node) in [
            ("1,1,C,0,7,1,1", "(0,7)"),
            ("1,1,C,0,0,9,0", "(9,0)"),
            ("1,1,C,0,0,260,1", "(260,1)"),
            ("1,1,C,0,0,4,0", "(4,0)"),
        ] {
            let text = format!("shield-noc-trace v1 mesh_k=4\n0,0,C,0,0,3,3\n{record}");
            assert_eq!(
                Trace::from_text(&text).unwrap_err(),
                format!("line 3: node {node} outside the 4x4 mesh")
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let t = recorded();
        let path = std::env::temp_dir().join("shield_noc_trace_test.txt");
        t.save(&path).unwrap();
        let loaded = Trace::load(&path).unwrap();
        assert_eq!(t, loaded);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn app_trace_records_requests_and_responses() {
        let mut g =
            TrafficGenerator::new(TrafficConfig::app(crate::apps::AppId::Fft), Mesh::new(4), 3);
        let t = Trace::record(&mut g, 4, 1_000);
        assert!(t.records.iter().any(|r| r.kind == PacketKind::Data));
        assert!(t.records.iter().any(|r| r.kind == PacketKind::Control));
        // Sorted by cycle.
        assert!(t.records.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }
}
