//! Snapshot/restore of one router's complete dynamic state.
//!
//! A [`Router`] snapshot captures everything that evolves as the router
//! steps: per-VC buffers and architectural fields (one
//! `{"fields", "buffer"}` object per VC, grouped by input port), the
//! output-side credit and busy trackers, every round-robin priority
//! pointer across the four arbiter banks, the SA→XB grant queue, the RC
//! service pointers, the per-port bypass (default-winner) registers, the
//! fault schedule/clock (via [`crate::fault_state`]) and the event
//! counters.
//!
//! Deliberately *excluded* — pure functions of the construction-time
//! configuration, reproduced by building the router afresh before
//! calling [`Restore::restore`]: id, coordinates, [`crate::RouterKind`], the
//! routing algorithm and the (stateless) crossbar topology. The per-cycle
//! stage scratch is not router state: it lives in the caller's
//! `StepOutput`.

use crate::router::{Router, XbGrant};
use noc_arbiter::RoundRobinArbiter;
use noc_telemetry::json::{obj, JsonValue};
use noc_telemetry::snapshot::{
    arr_field, decode_field, field, narrow, FromSnapshot, Restore, Snapshot, SnapshotError,
};
use noc_types::Flit;

impl Snapshot for XbGrant {
    fn snapshot(&self) -> JsonValue {
        obj([
            ("in_port", self.in_port.snapshot()),
            ("in_vc", self.in_vc.snapshot()),
            ("logical_out", self.logical_out.snapshot()),
            ("mux", self.mux.snapshot()),
            ("out_vc", self.out_vc.snapshot()),
        ])
    }
}

impl FromSnapshot for XbGrant {
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        Ok(XbGrant {
            in_port: decode_field(v, "in_port")?,
            in_vc: decode_field(v, "in_vc")?,
            logical_out: decode_field(v, "logical_out")?,
            mux: decode_field(v, "mux")?,
            out_vc: decode_field(v, "out_vc")?,
        })
    }
}

fn pointer_json(a: &RoundRobinArbiter) -> JsonValue {
    (a.pointer() as u64).into()
}

/// Decode one arbiter pointer and check it is a line of a `width`-line
/// arbiter.
fn decode_pointer(v: &JsonValue, width: usize) -> Result<u8, SnapshotError> {
    let p = v
        .as_u64()
        .ok_or_else(|| SnapshotError::new("arbiter pointer is not a number"))?;
    if p >= width as u64 {
        return Err(SnapshotError::new(format!(
            "arbiter pointer {p} out of range (width {width})"
        )));
    }
    Ok(p as u8)
}

/// The entries of array `v`, which must have `len` of them.
fn bank_entries<'a>(
    v: &'a JsonValue,
    len: usize,
    name: &str,
) -> Result<&'a [JsonValue], SnapshotError> {
    let arr = v
        .as_array()
        .ok_or_else(|| SnapshotError::new(format!("`{name}` is not an array")))?;
    if arr.len() != len {
        return Err(SnapshotError::new(format!(
            "`{name}` has {} entries but the router has {len}",
            arr.len(),
        )));
    }
    Ok(arr)
}

/// Restore a bank of arbiters from a snapshot array, enforcing matching
/// length.
fn restore_bank<'a>(
    bank: impl ExactSizeIterator<Item = &'a mut RoundRobinArbiter>,
    v: &JsonValue,
    name: &str,
) -> Result<(), SnapshotError> {
    let arr = bank_entries(v, bank.len(), name)?;
    for (i, (a, p)) in bank.zip(arr).enumerate() {
        let p = decode_pointer(p, a.width()).map_err(|e| e.within(&format!("{name}[{i}]")))?;
        a.set_pointer(usize::from(p));
    }
    Ok(())
}

/// Restore a bank of `width`-line arbiter pointers (a VA stage's row)
/// from a snapshot array, enforcing matching length.
fn restore_pointers(
    bank: &mut [u8],
    width: usize,
    v: &JsonValue,
    name: &str,
) -> Result<(), SnapshotError> {
    let arr = bank_entries(v, bank.len(), name)?;
    for (i, (slot, p)) in bank.iter_mut().zip(arr).enumerate() {
        *slot = decode_pointer(p, width).map_err(|e| e.within(&format!("{name}[{i}]")))?;
    }
    Ok(())
}

impl Snapshot for Router {
    /// The rendered JSON keeps the nested `[out][vc]` / `[port][vc][out]`
    /// shapes of the original array-of-arrays layout, re-derived from the
    /// flat struct-of-arrays storage — snapshots produced before and
    /// after the data-oriented refactor are byte-identical (pinned by the
    /// golden checkpoint test).
    fn snapshot(&self) -> JsonValue {
        let p = self.cfg.ports;
        let v = self.cfg.vcs;
        obj([
            (
                "ports",
                JsonValue::Arr(
                    (0..p)
                        .map(|port| {
                            obj([(
                                "vcs",
                                JsonValue::Arr(
                                    (0..v)
                                        .map(|vc| self.store.view(port * v + vc).snapshot())
                                        .collect(),
                                ),
                            )])
                        })
                        .collect(),
                ),
            ),
            (
                "credits",
                JsonValue::Arr(
                    self.ctl
                        .iter()
                        .map(|c| {
                            JsonValue::Arr(
                                c.credits[..v]
                                    .iter()
                                    .map(|&n| u64::from(n).into())
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "out_vc_busy",
                JsonValue::Arr(
                    self.ctl
                        .iter()
                        .map(|c| {
                            JsonValue::Arr(
                                (0..v)
                                    .map(|vc| (c.out_vc_busy & (1 << vc) != 0).into())
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "va1",
                JsonValue::Arr(
                    (0..p)
                        .map(|port| {
                            JsonValue::Arr(
                                (0..v)
                                    .map(|vc| {
                                        JsonValue::Arr(
                                            (0..p)
                                                .map(|out| {
                                                    u64::from(self.va1[(port * v + vc) * p + out])
                                                        .into()
                                                })
                                                .collect(),
                                        )
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "va2",
                JsonValue::Arr(
                    (0..p)
                        .map(|o| {
                            JsonValue::Arr(
                                (0..v)
                                    .map(|ovc| u64::from(self.va2[o * v + ovc]).into())
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "sa1",
                JsonValue::Arr(self.ctl.iter().map(|c| pointer_json(&c.sa1)).collect()),
            ),
            (
                "sa2",
                JsonValue::Arr(self.ctl.iter().map(|c| pointer_json(&c.sa2)).collect()),
            ),
            (
                "rc_pointer",
                JsonValue::Arr(
                    self.ctl
                        .iter()
                        .map(|c| u64::from(c.rc_pointer).into())
                        .collect(),
                ),
            ),
            (
                "bypass_ptr",
                JsonValue::Arr(
                    self.ctl
                        .iter()
                        .map(|c| match c.bypass_vc {
                            None => JsonValue::Null,
                            Some(vc) => {
                                JsonValue::Arr(vec![u64::from(vc).into(), c.bypass_period.into()])
                            }
                        })
                        .collect(),
                ),
            ),
            (
                "xb_queue",
                JsonValue::Arr(self.xb_queue.iter().map(Snapshot::snapshot).collect()),
            ),
            ("faults", self.faults.snapshot()),
            ("stats", self.stats.snapshot()),
        ])
    }
}

impl Router {
    /// Overwrite input port `port`'s VCs from their snapshot, directly:
    /// a snapshot captures mid-pipeline states (e.g. a non-head flit at
    /// the front of an `Active` VC) that no arrival sequence could
    /// reconstruct.
    fn restore_port(&mut self, port: usize, v: &JsonValue) -> Result<(), SnapshotError> {
        let vcs = self.cfg.vcs;
        let arr = arr_field(v, "vcs")?;
        if arr.len() != vcs {
            return Err(SnapshotError::new(format!(
                "snapshot has {} VCs but the port was built with {vcs}",
                arr.len()
            )));
        }
        for (vc, s) in arr.iter().enumerate() {
            let within = |e: SnapshotError| e.within(&format!("vcs[{vc}]"));
            let flits = Vec::<Flit>::from_snapshot(field(s, "buffer").map_err(within)?)
                .map_err(|e| within(e.within("buffer")))?;
            let depth = self.store.depth();
            if flits.len() > depth {
                return Err(within(SnapshotError::new(format!(
                    "snapshot holds {} flits but the VC depth is {depth}",
                    flits.len()
                ))));
            }
            let fields = decode_field(s, "fields").map_err(within)?;
            self.store.overwrite(port * vcs + vc, fields, &flits);
        }
        Ok(())
    }
}

impl Restore for Router {
    fn restore(&mut self, v: &JsonValue) -> Result<(), SnapshotError> {
        let p = self.cfg.ports;
        let vcs = self.cfg.vcs;

        let ports = arr_field(v, "ports")?;
        if ports.len() != p {
            return Err(SnapshotError::new(format!(
                "snapshot has {} ports but the router has {p}",
                ports.len()
            )));
        }
        for (port, s) in ports.iter().enumerate() {
            self.restore_port(port, s)
                .map_err(|e| e.within(&format!("ports[{port}]")))?;
        }
        // The state words and the flit total are derived state (not
        // serialised); re-derive them from the restored store.
        self.sync_all();

        let credits = arr_field(v, "credits")?;
        if credits.len() != p {
            return Err(SnapshotError::new("`credits` outer length mismatch"));
        }
        for (o, s) in credits.iter().enumerate() {
            let arr = s.as_array().filter(|a| a.len() == vcs).ok_or_else(|| {
                SnapshotError::new(format!("`credits[{o}]` is not a {vcs}-entry array"))
            })?;
            let ctl = &mut self.ctl[o];
            ctl.credited = 0;
            for (vc, val) in arr.iter().enumerate() {
                let c = val.as_u64().ok_or_else(|| {
                    SnapshotError::new(format!("`credits[{o}]` entry is not a number"))
                })?;
                let c: u8 = narrow(c, &format!("credits[{o}][{vc}]"))?;
                ctl.credits[vc] = c;
                if c > 0 {
                    ctl.credited |= 1 << vc;
                }
            }
        }

        let busy = arr_field(v, "out_vc_busy")?;
        if busy.len() != p {
            return Err(SnapshotError::new("`out_vc_busy` outer length mismatch"));
        }
        for (o, s) in busy.iter().enumerate() {
            let arr = s.as_array().filter(|a| a.len() == vcs).ok_or_else(|| {
                SnapshotError::new(format!("`out_vc_busy[{o}]` is not a {vcs}-entry array"))
            })?;
            let mut mask = 0u32;
            for (vc, val) in arr.iter().enumerate() {
                match val {
                    JsonValue::Bool(true) => mask |= 1 << vc,
                    JsonValue::Bool(false) => {}
                    _ => {
                        return Err(SnapshotError::new(format!(
                            "`out_vc_busy[{o}]` entry is not a bool"
                        )))
                    }
                }
            }
            self.ctl[o].out_vc_busy = mask;
        }

        let va1 = arr_field(v, "va1")?;
        if va1.len() != p {
            return Err(SnapshotError::new("`va1` outer length mismatch"));
        }
        for (port, s) in va1.iter().enumerate() {
            let rows = s
                .as_array()
                .filter(|a| a.len() == vcs)
                .ok_or_else(|| SnapshotError::new(format!("`va1[{port}]` shape mismatch")))?;
            for (vc, row) in rows.iter().enumerate() {
                let bank = &mut self.va1[(port * vcs + vc) * p..][..p];
                restore_pointers(bank, vcs, row, &format!("va1[{port}][{vc}]"))?;
            }
        }

        let va2 = arr_field(v, "va2")?;
        if va2.len() != p {
            return Err(SnapshotError::new("`va2` outer length mismatch"));
        }
        for (o, row) in va2.iter().enumerate() {
            let bank = &mut self.va2[o * vcs..][..vcs];
            restore_pointers(bank, p * vcs, row, &format!("va2[{o}]"))?;
        }

        let sa1 = self.ctl.iter_mut().map(|c| &mut c.sa1);
        restore_bank(sa1, field(v, "sa1")?, "sa1")?;
        let sa2 = self.ctl.iter_mut().map(|c| &mut c.sa2);
        restore_bank(sa2, field(v, "sa2")?, "sa2")?;

        let rc = arr_field(v, "rc_pointer")?;
        if rc.len() != p {
            return Err(SnapshotError::new("`rc_pointer` length mismatch"));
        }
        for (ctl, val) in self.ctl.iter_mut().zip(rc) {
            ctl.rc_pointer = val
                .as_u64()
                .filter(|&r| r < vcs as u64)
                .ok_or_else(|| SnapshotError::new("`rc_pointer` entry is not a VC index"))?
                as u8;
        }

        let bypass = arr_field(v, "bypass_ptr")?;
        if bypass.len() != p {
            return Err(SnapshotError::new("`bypass_ptr` length mismatch"));
        }
        for (i, (ctl, val)) in self.ctl.iter_mut().zip(bypass).enumerate() {
            (ctl.bypass_vc, ctl.bypass_period) = match val {
                JsonValue::Null => (None, 0),
                JsonValue::Arr(pair) if pair.len() == 2 => {
                    let vc = pair[0].as_u64().ok_or_else(|| {
                        SnapshotError::new(format!("`bypass_ptr[{i}]` vc is not a number"))
                    })? as usize;
                    if vc >= vcs {
                        return Err(SnapshotError::new(format!(
                            "`bypass_ptr[{i}]` vc {vc} out of range"
                        )));
                    }
                    let period = pair[1].as_u64().ok_or_else(|| {
                        SnapshotError::new(format!("`bypass_ptr[{i}]` period is not a number"))
                    })?;
                    (Some(vc as u8), period)
                }
                _ => {
                    return Err(SnapshotError::new(format!(
                        "`bypass_ptr[{i}]` must be null or a [vc, period] pair"
                    )))
                }
            };
        }

        self.xb_queue = Vec::<XbGrant>::from_snapshot(field(v, "xb_queue")?)
            .map_err(|e| e.within("xb_queue"))?;
        self.faults
            .restore(field(v, "faults")?)
            .map_err(|e| e.within("faults"))?;
        // The restored clock may be quiet at the next step, which then
        // re-derives nothing: derive the tables from the restored maps.
        self.refresh_fault_tables();
        self.stats = decode_field(v, "stats")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterKind;
    use noc_types::{Coord, Direction, Mesh, NetworkConfig, Packet, PacketId, PacketKind, VcId};

    fn stepped_router(kind: RouterKind, seed_cycles: u64) -> Router {
        let cfg = NetworkConfig::paper().router;
        let mesh = Mesh::new(8);
        let here = Coord::new(3, 3);
        let mut r = Router::new_xy(7, here, mesh, cfg, kind);
        r.inject_fault(
            noc_faults::FaultSite::Sa1Arbiter {
                port: noc_types::PortId(1),
            },
            2,
        );
        let mut next_id = 0u64;
        for cycle in 0..seed_cycles {
            if cycle % 3 == 0 {
                next_id += 1;
                let pkt = Packet::new(
                    PacketId(next_id),
                    if next_id.is_multiple_of(2) {
                        PacketKind::Data
                    } else {
                        PacketKind::Control
                    },
                    here,
                    Coord::new((next_id % 8) as u8, ((next_id / 8) % 8) as u8),
                    cycle,
                );
                let vc = VcId((next_id % 4) as u8);
                let port = Direction::Local.port();
                for flit in pkt.segment() {
                    if !r.vc(port, vc).is_full() {
                        r.receive_flit(port, vc, flit);
                    }
                }
            }
            // Echo a credit for every departed flit so traffic keeps
            // moving without overflowing the credit tracker.
            let out = r.step(cycle);
            for d in &out.departures {
                r.receive_credit(d.out_port, d.out_vc);
            }
        }
        r
    }

    #[test]
    fn router_snapshot_round_trips_and_resumes_identically() {
        for kind in [RouterKind::Baseline, RouterKind::Protected] {
            let mut original = stepped_router(kind, 40);
            let snap = original.snapshot();
            let text = snap.render();
            let reparsed = noc_telemetry::JsonValue::parse(&text).unwrap();

            let cfg = NetworkConfig::paper().router;
            let mesh = Mesh::new(8);
            let mut restored = Router::new_xy(7, Coord::new(3, 3), mesh, cfg, kind);
            restored.restore(&reparsed).unwrap();

            // Snapshot-of-restored must render byte-identically.
            assert_eq!(restored.snapshot().render(), text, "{kind:?}");

            // And both must evolve identically when stepped further.
            for cycle in 40..80 {
                let a = original.step(cycle);
                let b = restored.step(cycle);
                assert_eq!(a.departures, b.departures, "{kind:?} cycle {cycle}");
                assert_eq!(a.credits, b.credits, "{kind:?} cycle {cycle}");
                assert_eq!(restored.snapshot().render(), original.snapshot().render());
            }
        }
    }

    #[test]
    fn restore_rejects_structural_mismatch() {
        let cfg = NetworkConfig::paper().router;
        let mesh = Mesh::new(8);
        let r = Router::new_xy(0, Coord::new(0, 0), mesh, cfg, RouterKind::Protected);
        let mut snap = r.snapshot();
        // Drop one port from the snapshot.
        if let noc_telemetry::JsonValue::Obj(ref mut fields) = snap {
            for (k, val) in fields.iter_mut() {
                if k == "ports" {
                    if let noc_telemetry::JsonValue::Arr(ref mut a) = val {
                        a.pop();
                    }
                }
            }
        }
        let mesh = Mesh::new(8);
        let mut target = Router::new_xy(0, Coord::new(0, 0), mesh, cfg, RouterKind::Protected);
        assert!(target.restore(&snap).is_err());
    }

    #[test]
    fn restore_rejects_an_rc_pointer_that_is_not_a_vc() {
        // The RC service pointer names the VC the next scan starts at;
        // `V` itself (or above) is no VC, and the rotate-and-ffs scan
        // is undefined for it.
        let cfg = NetworkConfig::paper().router;
        let mesh = Mesh::new(8);
        let r = Router::new_xy(0, Coord::new(0, 0), mesh, cfg, RouterKind::Protected);
        let with_pointer = |p: u64| {
            let mut snap = r.snapshot();
            if let noc_telemetry::JsonValue::Obj(ref mut fields) = snap {
                for (k, val) in fields.iter_mut() {
                    if let ("rc_pointer", noc_telemetry::JsonValue::Arr(a)) = (k.as_str(), val) {
                        a[2] = p.into();
                    }
                }
            }
            let mut target = Router::new_xy(0, Coord::new(0, 0), mesh, cfg, RouterKind::Protected);
            target.restore(&snap).map(|()| target.ctl[2].rc_pointer)
        };
        assert_eq!(
            with_pointer(cfg.vcs as u64 - 1).ok(),
            Some(cfg.vcs as u8 - 1)
        );
        assert!(with_pointer(cfg.vcs as u64).is_err());
        assert!(with_pointer(260).is_err());
    }
}
