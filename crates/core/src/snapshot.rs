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
use noc_telemetry::json::{JsonReader, JsonWriter};
use noc_telemetry::snapshot::{below, Restore, Snapshot, SnapshotError};
use noc_types::{Flit, PortId, VcId, VcStateFields};

noc_telemetry::record! {
    XbGrant { in_port, in_vc, logical_out, mux, out_vc }
}

/// Check that every pointer of `bank` is a line of a `width`-line
/// arbiter.
fn pointers(key: &str, bank: &[u8], width: usize) -> Result<(), SnapshotError> {
    for (i, &x) in bank.iter().enumerate() {
        below::<u8>(u64::from(x), width, "arbiter pointer")
            .map_err(|e| e.within(&format!("{key}[{i}]")))?;
    }
    Ok(())
}

impl Snapshot for Router {
    /// The rendered JSON keeps the nested `[out][vc]` / `[port][vc][out]`
    /// shapes of the original array-of-arrays layout, re-derived from the
    /// flat struct-of-arrays storage — snapshots produced before and
    /// after the data-oriented refactor are byte-identical (pinned by the
    /// golden checkpoint test).
    fn encode(&self, sink: &mut JsonWriter<'_>) {
        let p = self.cfg.ports;
        let v = self.cfg.vcs;
        let pointer =
            |sink: &mut JsonWriter<'_>, a: &RoundRobinArbiter| sink.u64(a.pointer() as u64);
        sink.obj(|sink| {
            sink.field("ports").arr(0..p, |sink, port| {
                sink.obj(|sink| {
                    sink.field("vcs")
                        .arr(0..v, |sink, vc| self.store.view(port * v + vc).encode(sink));
                });
            });
            sink.field("credits").arr(&self.ctl, |sink, c| {
                sink.arr(&c.credits[..v], |sink, &n| sink.u64(u64::from(n)));
            });
            sink.field("out_vc_busy").arr(&self.ctl, |sink, c| {
                sink.arr(0..v, |sink, vc| sink.bool(c.out_vc_busy & (1 << vc) != 0));
            });
            sink.field("va1").arr(0..p, |sink, port| {
                sink.arr(0..v, |sink, vc| {
                    let row = &self.va1[(port * v + vc) * p..][..p];
                    sink.arr(row, |sink, &ptr| sink.u64(u64::from(ptr)));
                });
            });
            sink.field("va2").arr(0..p, |sink, o| {
                let row = &self.va2[o * v..][..v];
                sink.arr(row, |sink, &ptr| sink.u64(u64::from(ptr)));
            });
            sink.field("sa1")
                .arr(&self.ctl, |sink, c| pointer(sink, &c.sa1));
            sink.field("sa2")
                .arr(&self.ctl, |sink, c| pointer(sink, &c.sa2));
            sink.field("rc_pointer")
                .arr(&self.ctl, |sink, c| sink.u64(u64::from(c.rc_pointer)));
            sink.field("bypass_ptr")
                .arr(&self.ctl, |sink, c| match c.bypass_vc {
                    None => sink.null(),
                    Some(vc) => {
                        sink.arr([u64::from(vc), c.bypass_period], |sink, n| sink.u64(n));
                    }
                });
            self.xb_queue.encode(sink.field("xb_queue"));
            self.faults.encode(sink.field("faults"));
            self.stats.encode(sink.field("stats"));
        });
    }
}

impl Router {
    /// Overwrite input VC `i` from its snapshot, directly: a snapshot
    /// captures mid-pipeline states (e.g. a non-head flit at the front
    /// of an `Active` VC) that no arrival sequence could reconstruct.
    fn restore_vc(&mut self, r: &mut JsonReader<'_>, i: usize) -> Result<(), SnapshotError> {
        r.obj(|r| {
            let fields: VcStateFields = r.field("fields")?;
            let f = &fields;
            let ports = [f.r, f.r2, f.sp].into_iter().flatten();
            if !self.has(ports, [f.o, f.id].into_iter().flatten()) {
                return Err(SnapshotError::new(self.outside("a port or VC")).within("fields"));
            }
            let flits: Vec<Flit> = r.field("buffer")?;
            let depth = self.store.depth();
            if flits.len() > depth {
                return Err(SnapshotError::new(format!(
                    "snapshot holds {} flits but the VC depth is {depth}",
                    flits.len()
                )));
            }
            self.store.overwrite(i, fields, &flits);
            Ok(())
        })
    }

    /// Whether `ports` and `vcs` are all this router's: the stage
    /// kernels index with them unchecked.
    fn has(
        &self,
        ports: impl IntoIterator<Item = PortId>,
        vcs: impl IntoIterator<Item = VcId>,
    ) -> bool {
        ports.into_iter().all(|p| p.index() < self.cfg.ports)
            && vcs.into_iter().all(|v| v.index() < self.cfg.vcs)
    }

    fn outside(&self, what: &str) -> String {
        format!(
            "{what} outside a {}-port {}-VC router",
            self.cfg.ports, self.cfg.vcs
        )
    }

    /// Check that `g` names ports, a mux and VCs this router has, and an
    /// input VC holding the flit it switches.
    fn check_grant(&self, g: &XbGrant) -> Result<(), SnapshotError> {
        let grant = || {
            format!(
                "a grant {}.{} -> {} (mux {}) {}",
                g.in_port, g.in_vc, g.logical_out, g.mux, g.out_vc
            )
        };
        if !self.has([g.in_port, g.logical_out, g.mux], [g.in_vc, g.out_vc]) {
            return Err(SnapshotError::new(self.outside(&grant())));
        }
        let vc = g.in_port.index() * self.cfg.vcs + g.in_vc.index();
        if self.store.len(vc) == 0 {
            return Err(SnapshotError::new(format!("{} from an empty VC", grant())));
        }
        Ok(())
    }
}

impl Restore for Router {
    fn restore_from(&mut self, r: &mut JsonReader<'_>) -> Result<(), SnapshotError> {
        let p = self.cfg.ports;
        let v = self.cfg.vcs;
        r.obj(|r| {
            r.field_arr_of("ports", &[p], &mut |r, port| {
                r.obj(|r| {
                    r.field_arr_of("vcs", &[v], &mut |r, vc| self.restore_vc(r, port * v + vc))
                })
            })?;
            // The state words and the flit total are derived state (not
            // serialised); re-derive them from the restored store.
            self.sync_all();
            // The credited and busy masks, bit `vc` of each output's word.
            let bit = |word: &mut u32, vc: usize, on: bool| {
                *word = *word & !(1 << vc) | u32::from(on) << vc
            };
            // A credit past the downstream buffer's depth would overflow it.
            let depth = self.store.depth();
            r.field_arr_of("credits", &[p, v], &mut |r, i| {
                let (ctl, vc) = (&mut self.ctl[i / v], i % v);
                ctl.credits[vc] = below(r.u64()?, depth + 1, "credit count")?;
                bit(&mut ctl.credited, vc, ctl.credits[vc] > 0);
                Ok(())
            })?;
            r.field_arr_of("out_vc_busy", &[p, v], &mut |r, i| {
                bit(&mut self.ctl[i / v].out_vc_busy, i % v, r.bool()?);
                Ok(())
            })?;
            r.fill("va1", &[p, v, p], &mut self.va1)?;
            pointers("va1", &self.va1, v)?;
            r.fill("va2", &[p, v], &mut self.va2)?;
            pointers("va2", &self.va2, p * v)?;
            for key in ["sa1", "sa2"] {
                r.field_arr_of(key, &[p], &mut |r, o| {
                    let ctl = &mut self.ctl[o];
                    let a = if key == "sa1" {
                        &mut ctl.sa1
                    } else {
                        &mut ctl.sa2
                    };
                    a.set_pointer(below(r.u64()?, a.width(), "arbiter pointer")?);
                    Ok(())
                })?;
            }
            r.field_arr_of("rc_pointer", &[p], &mut |r, o| {
                self.ctl[o].rc_pointer = below(r.u64()?, v, "rc_pointer")?;
                Ok(())
            })?;
            r.field_arr_of("bypass_ptr", &[p], &mut |r, o| {
                let ctl = &mut self.ctl[o];
                (ctl.bypass_vc, ctl.bypass_period) = (None, 0);
                if !r.take_null()? {
                    let mut pair = [0u64; 2];
                    r.arr_of(&[2], &mut |r, k| {
                        pair[k] = r.u64()?;
                        Ok(())
                    })?;
                    (ctl.bypass_vc, ctl.bypass_period) =
                        (Some(below(pair[0], v, "bypass VC")?), pair[1]);
                }
                Ok(())
            })?;
            let grants: Vec<XbGrant> = r.field("xb_queue")?;
            for (i, g) in grants.iter().enumerate() {
                self.check_grant(g)
                    .map_err(|e| e.within(&format!("xb_queue[{i}]")))?;
            }
            self.xb_queue = grants;
            r.field_with("faults", |r| self.faults.restore_from(r))?;
            // The restored clock may be quiet at the next step, which then
            // re-derives nothing: derive the tables from the restored maps.
            self.refresh_fault_tables();
            self.stats = r.field("stats")?;
            Ok(())
        })
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
