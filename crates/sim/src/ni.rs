//! Network interface: the per-node injection and ejection endpoint.
//!
//! The NI sits on the router's *local* port. On the injection side it is
//! an upstream link partner: it allocates a local-input VC per packet,
//! respects credits, and sends at most one flit per cycle (link width).
//! On the ejection side it consumes flits switched to the local output,
//! reassembles packets, checks they reached the right node, and returns
//! credits.

use noc_types::{
    Coord, Cycle, DeliveredPacket, Flit, FlitKind, Packet, PacketId, PacketKind, VcId,
};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a [`PacketId`] with one multiply by 2^64/φ (Fibonacci
/// hashing). The reassembly map is probed on every ejected flit. Its
/// keys are unique ids, numbered in sequence by the traffic generator or
/// read from the user's own replayed trace, and it holds about one entry
/// per local-output VC: SipHash's flood resistance buys nothing there.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIBONACCI);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(FIBONACCI);
    }
}

/// An in-progress transmission on one local-input VC. It holds the
/// packet, not its flits: each flit is made as it leaves.
#[derive(Debug, Clone)]
struct ActiveSend {
    packet: Packet,
    vc: VcId,
    /// Sequence number of the next flit to send (always below the
    /// packet's length: a send retires with its tail).
    next: u8,
    /// Cycle the send started: every flit of the packet carries it.
    injected_at: Cycle,
}

impl ActiveSend {
    /// Flits still to send.
    fn remaining(&self) -> usize {
        self.packet.len_flits() - usize::from(self.next)
    }

    /// The `i`-th flit of the packet as it leaves the NI.
    fn flit(&self, i: usize) -> Flit {
        let mut f = self.packet.flit(i);
        f.injected_at = self.injected_at;
        f
    }
}

/// Reassembly state for a packet being ejected.
#[derive(Debug, Clone, Copy)]
struct Reassembly {
    injected_at: Cycle,
    created_at: Cycle,
    flits_seen: usize,
}

/// The per-node network interface.
#[derive(Debug, Clone)]
pub struct NetworkInterface {
    node: Coord,
    vcs: usize,
    depth: usize,
    /// Packets waiting to enter the network.
    queue: VecDeque<Packet>,
    /// Bound on `queue` length in packets (0 = unbounded).
    queue_cap: usize,
    /// Credits towards each local-input VC of the router.
    credits: Vec<u8>,
    /// Local-input VCs currently owned by an in-progress send.
    vc_taken: Vec<bool>,
    /// At most `vcs` entries (one per taken VC), so starting a packet
    /// never grows it.
    sends: Vec<ActiveSend>,
    /// Round-robin pointer over `sends`.
    send_rr: usize,
    reassembly: HashMap<PacketId, Reassembly, BuildHasherDefault<IdHasher>>,
    // ---- statistics ----
    /// Packets offered to the NI (including any refused by a full queue).
    pub offered: u64,
    /// Packets accepted into the queue.
    pub accepted: u64,
    /// Packets fully injected (tail flit sent).
    pub injected: u64,
    /// Packets fully ejected here.
    pub ejected: u64,
    /// Packets ejected here although destined elsewhere (baseline
    /// misrouting faults).
    pub misdelivered: u64,
    /// Flits ejected here.
    pub flits_ejected: u64,
}

impl NetworkInterface {
    /// Build an NI for `node`, matching the router's local port shape.
    pub fn new(node: Coord, vcs: usize, depth: usize, queue_cap: usize) -> Self {
        NetworkInterface {
            node,
            vcs,
            depth,
            queue: VecDeque::new(),
            queue_cap,
            credits: vec![depth as u8; vcs],
            vc_taken: vec![false; vcs],
            sends: Vec::with_capacity(vcs),
            send_rr: 0,
            reassembly: HashMap::default(),
            offered: 0,
            accepted: 0,
            injected: 0,
            ejected: 0,
            misdelivered: 0,
            flits_ejected: 0,
        }
    }

    /// The node this NI belongs to.
    pub fn node(&self) -> Coord {
        self.node
    }

    /// Packets waiting in the injection queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Flits in-progress sends have yet to send.
    pub fn pending_flits(&self) -> usize {
        self.sends.iter().map(ActiveSend::remaining).sum()
    }

    /// Whether any injection work remains (queued packets or in-progress
    /// sends). When false, [`NetworkInterface::inject`] is a pure no-op
    /// until the next accepted offer, so a shard's injection phase asks
    /// this of each of its NIs every cycle and skips the call for the
    /// idle ones.
    pub(crate) fn pending_work(&self) -> bool {
        !self.queue.is_empty() || !self.sends.is_empty()
    }

    /// Offer a packet for injection. Returns `false` (and drops it) when
    /// the queue is bounded and full.
    pub fn offer(&mut self, packet: Packet) -> bool {
        self.offered += 1;
        if self.queue_cap != 0 && self.queue.len() >= self.queue_cap {
            return false;
        }
        self.accepted += 1;
        self.queue.push_back(packet);
        true
    }

    /// A credit came back from the router's local input port.
    pub fn credit(&mut self, vc: VcId) {
        let c = &mut self.credits[vc.index()];
        debug_assert!((*c as usize) < self.depth, "NI credit overflow");
        *c += 1;
    }

    /// Free downstream slots this NI believes VC `vc` of the router's
    /// local input has. Exposed for the credit-conservation checker.
    pub(crate) fn credit_count(&self, vc: VcId) -> u8 {
        self.credits[vc.index()]
    }

    /// Injection step: start a new send if a VC is free, then emit at
    /// most one flit (the local link carries one flit per cycle).
    /// Returns `(vc, flit)` to hand to the router.
    pub fn inject(&mut self, cycle: Cycle) -> Option<(VcId, Flit)> {
        // Start a new packet on a free VC, if any.
        if !self.queue.is_empty() {
            if let Some(free) = (0..self.vcs).find(|&v| !self.vc_taken[v]) {
                let packet = self.queue.pop_front().unwrap();
                self.vc_taken[free] = true;
                self.sends.push(ActiveSend {
                    packet,
                    vc: VcId(free as u8),
                    next: 0,
                    injected_at: cycle,
                });
            }
        }
        if self.sends.is_empty() {
            return None;
        }
        // Round-robin over active sends; pick the first with credit.
        let n = self.sends.len();
        for i in 0..n {
            let ix = (self.send_rr + i) % n;
            let vc = self.sends[ix].vc;
            if self.credits[vc.index()] == 0 {
                continue;
            }
            self.credits[vc.index()] -= 1;
            let send = &mut self.sends[ix];
            let flit = send.flit(usize::from(send.next));
            send.next += 1;
            if send.remaining() == 0 {
                self.vc_taken[vc.index()] = false;
                self.sends.swap_remove(ix);
                self.injected += 1;
                self.send_rr = 0;
            } else {
                self.send_rr = (ix + 1) % self.sends.len().max(1);
            }
            return Some((vc, flit));
        }
        None
    }

    /// Ejection: consume a flit that left the router's local output.
    /// Returns a [`DeliveredPacket`] when the tail completes a packet.
    pub fn eject(&mut self, flit: Flit, cycle: Cycle) -> Option<DeliveredPacket> {
        self.flits_ejected += 1;
        let entry = self.reassembly.entry(flit.packet).or_insert(Reassembly {
            injected_at: flit.injected_at,
            created_at: flit.created_at,
            flits_seen: 0,
        });
        entry.flits_seen += 1;
        if !flit.kind.is_tail() {
            return None;
        }
        let re = self.reassembly.remove(&flit.packet).unwrap();
        let misdelivered = flit.dst != self.node;
        if misdelivered {
            self.misdelivered += 1;
        } else {
            self.ejected += 1;
        }
        Some(DeliveredPacket {
            id: flit.packet,
            kind: if re.flits_seen > 1 {
                noc_types::PacketKind::Data
            } else {
                noc_types::PacketKind::Control
            },
            src: flit.src,
            dst: flit.dst,
            created_at: re.created_at,
            injected_at: re.injected_at,
            ejected_at: cycle,
            hops: flit.hops,
        })
    }
}

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

use noc_telemetry::json::{JsonReader, JsonSink};
use noc_telemetry::snapshot::{below, Restore, Snapshot, SnapshotError};

impl Snapshot for NetworkInterface {
    /// Resumable state only; `node`/`vcs`/`depth`/`queue_cap` are
    /// construction parameters. The reassembly map is rendered sorted by
    /// packet id so equal state gives equal bytes regardless of the
    /// `HashMap`'s internal order: picked smallest-next, since it holds
    /// at most a packet a VC, so no sorted copy is allocated.
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| {
            sink.field("queue")
                .arr(&self.queue, |sink, p| p.encode(sink));
            sink.field("credits")
                .arr(&self.credits, |sink, &c| sink.u64(u64::from(c)));
            sink.field("vc_taken")
                .arr(&self.vc_taken, |sink, &b| sink.bool(b));
            sink.field("sends").arr(&self.sends, |sink, s| {
                sink.obj(|sink| {
                    s.vc.encode(sink.field("vc"));
                    sink.field("remaining")
                        .arr(usize::from(s.next)..s.packet.len_flits(), |sink, i| {
                            s.flit(i).encode(sink)
                        });
                });
            });
            sink.field("send_rr").u64(self.send_rr as u64);
            sink.field("reassembly").begin_arr();
            let mut last = None;
            while let Some((&id, re)) = self
                .reassembly
                .iter()
                .filter(|(&id, _)| last.is_none_or(|last| id > last))
                .min_by_key(|(&id, _)| id)
            {
                sink.obj(|sink| {
                    id.encode(sink.field("packet"));
                    sink.field("injected_at").u64(re.injected_at);
                    sink.field("created_at").u64(re.created_at);
                    sink.field("flits_seen").u64(re.flits_seen as u64);
                });
                last = Some(id);
            }
            sink.end_arr();
            sink.field("offered").u64(self.offered);
            sink.field("accepted").u64(self.accepted);
            sink.field("injected").u64(self.injected);
            sink.field("ejected").u64(self.ejected);
            sink.field("misdelivered").u64(self.misdelivered);
            sink.field("flits_ejected").u64(self.flits_ejected);
        });
    }
}

impl ActiveSend {
    /// The send whose unsent flits are `remaining`: a non-empty,
    /// contiguous suffix of one packet's flits, each as
    /// [`ActiveSend::flit`] makes it (the layout snapshots render).
    fn from_remaining(vc: VcId, remaining: &[Flit]) -> Result<ActiveSend, SnapshotError> {
        let first = remaining
            .first()
            .ok_or_else(|| SnapshotError::new("an active send holds at least one flit"))?;
        let kind = if first.kind == FlitKind::Single {
            PacketKind::Control
        } else {
            PacketKind::Data
        };
        let send = ActiveSend {
            packet: Packet::new(first.packet, kind, first.src, first.dst, first.created_at),
            vc,
            next: first.seq.0,
            injected_at: first.injected_at,
        };
        if usize::from(send.next) + remaining.len() != kind.flits() {
            return Err(SnapshotError::new(format!(
                "{} flits from seq {} do not end a {}-flit packet",
                remaining.len(),
                send.next,
                kind.flits()
            )));
        }
        for (i, f) in remaining.iter().enumerate() {
            if *f != send.flit(usize::from(send.next) + i) {
                return Err(SnapshotError::new(format!(
                    "entry {i} is not flit {} of packet {} as the send began it",
                    usize::from(send.next) + i,
                    first.packet.0
                )));
            }
        }
        Ok(send)
    }
}

impl Restore for NetworkInterface {
    fn restore_from(&mut self, r: &mut JsonReader<'_>) -> Result<(), SnapshotError> {
        r.obj(|r| {
            let queue: Vec<Packet> = r.field("queue")?;
            self.queue = queue.into();
            // Past the router's buffer depth, credits would overflow it.
            r.field_arr_of("credits", &[self.vcs], &mut |r, vc| {
                self.credits[vc] = below(r.u64()?, self.depth + 1, "credit count")?;
                Ok(())
            })?;
            r.fill("vc_taken", &[self.vcs], &mut self.vc_taken)?;
            // Refilled in place: `sends` keeps its capacity of one entry a VC.
            self.sends.clear();
            r.field_with("sends", |r| {
                r.arr(|r, _| {
                    let send = r.obj(|r| {
                        let vc: VcId = r.field("vc")?;
                        if vc.index() >= self.vcs {
                            return Err(SnapshotError::new(format!(
                                "vc: {vc} of {} local-input VCs",
                                self.vcs
                            )));
                        }
                        let remaining: Vec<Flit> = r.field("remaining")?;
                        ActiveSend::from_remaining(vc, &remaining)
                            .map_err(|e| e.within("remaining"))
                    })?;
                    self.sends.push(send);
                    Ok(())
                })
            })?;
            // Round-robin over the sends: `inject` indexes with it.
            let sends = self.sends.len().max(1);
            self.send_rr = below(r.field("send_rr")?, sends, "`send_rr`")?;
            self.reassembly.clear();
            r.field_with("reassembly", |r| {
                r.arr(|r, _| {
                    r.obj(|r| {
                        let id: PacketId = r.field("packet")?;
                        let re = Reassembly {
                            injected_at: r.field("injected_at")?,
                            created_at: r.field("created_at")?,
                            flits_seen: r.field("flits_seen")?,
                        };
                        self.reassembly.insert(id, re);
                        Ok(())
                    })
                })
            })?;
            self.offered = r.field("offered")?;
            self.accepted = r.field("accepted")?;
            self.injected = r.field("injected")?;
            self.ejected = r.field("ejected")?;
            self.misdelivered = r.field("misdelivered")?;
            self.flits_ejected = r.field("flits_ejected")?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_telemetry::json::obj;
    use noc_telemetry::JsonValue;
    use noc_types::PacketKind;

    fn ni() -> NetworkInterface {
        NetworkInterface::new(Coord::new(1, 1), 4, 4, 0)
    }

    fn packet(id: u64, kind: PacketKind) -> Packet {
        Packet::new(PacketId(id), kind, Coord::new(1, 1), Coord::new(2, 2), 5)
    }

    #[test]
    fn injects_one_flit_per_cycle_with_credits() {
        let mut n = ni();
        n.offer(packet(1, PacketKind::Data));
        let mut sent = 0;
        for cycle in 0..5 {
            if n.inject(cycle).is_some() {
                sent += 1;
            }
        }
        // depth 4: the fifth flit waits for a credit.
        assert_eq!(sent, 4);
        n.credit(VcId(0));
        assert!(n.inject(6).is_some());
        assert_eq!(n.injected, 1);
        assert_eq!(n.pending_flits(), 0);
    }

    #[test]
    fn injection_stamps_injected_at() {
        let mut n = ni();
        n.offer(packet(1, PacketKind::Control));
        let (_, flit) = n.inject(42).unwrap();
        assert_eq!(flit.injected_at, 42);
        assert_eq!(flit.created_at, 5);
    }

    #[test]
    fn concurrent_packets_use_distinct_vcs() {
        let mut n = ni();
        for id in 0..3 {
            n.offer(packet(id, PacketKind::Data));
        }
        let mut vcs = std::collections::HashSet::new();
        // One send starts per cycle; round-robin interleaves the three
        // active packets, so within a few cycles all three VCs appear.
        for cycle in 0..9 {
            if let Some((vc, _)) = n.inject(cycle) {
                vcs.insert(vc);
            }
        }
        assert_eq!(vcs.len(), 3);
    }

    #[test]
    fn bounded_queue_refuses_overflow() {
        let mut n = NetworkInterface::new(Coord::new(0, 0), 4, 4, 2);
        assert!(n.offer(packet(1, PacketKind::Control)));
        assert!(n.offer(packet(2, PacketKind::Control)));
        assert!(!n.offer(packet(3, PacketKind::Control)));
        assert_eq!(n.offered, 3);
        assert_eq!(n.accepted, 2);
    }

    #[test]
    fn sends_round_trip_through_a_snapshot_mid_packet() {
        let mut n = ni();
        n.offer(packet(1, PacketKind::Data));
        n.offer(packet(2, PacketKind::Control));
        n.inject(10).unwrap();
        n.inject(11).unwrap();
        let doc = n.snapshot();
        let mut back = ni();
        back.restore(&doc).unwrap();
        assert_eq!(back.snapshot().render(), doc.render());
        assert_eq!(back.pending_flits(), n.pending_flits());
        for cycle in 12..20 {
            assert_eq!(back.inject(cycle), n.inject(cycle));
        }
    }

    #[test]
    fn a_remaining_list_must_be_a_contiguous_suffix_of_one_packet() {
        let mut n = ni();
        n.offer(packet(1, PacketKind::Data));
        n.inject(10).unwrap();
        let doc = n.snapshot();
        // The four flits the send has yet to send, as it makes them.
        let sent: Vec<Flit> = (1..5).map(|i| n.sends[0].flit(i)).collect();
        let mut foreign = packet(2, PacketKind::Data).flit(4);
        foreign.injected_at = 10;
        let cases = [
            ("a gap", vec![sent[0], sent[2], sent[3]]),
            ("out of order", vec![sent[1], sent[0], sent[2], sent[3]]),
            ("no tail", sent[..3].to_vec()),
            ("two packets", vec![sent[0], sent[1], sent[2], foreign]),
            ("empty", vec![]),
        ];
        for (what, remaining) in cases {
            let mut v = doc.clone();
            let JsonValue::Obj(fields) = &mut v else {
                unreachable!("an NI snapshot is an object")
            };
            let sends = fields.iter_mut().find(|(k, _)| k == "sends").unwrap();
            sends.1 = JsonValue::Arr(vec![obj([
                ("vc", VcId(0).snapshot()),
                ("remaining", remaining.snapshot()),
            ])]);
            let err = ni().restore(&v).expect_err(what);
            assert!(
                err.message.starts_with("sends[0]: remaining: "),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn ejection_reassembles_and_detects_misdelivery() {
        let mut n = ni();
        // A packet destined for (1,1) — this node.
        let good = Packet::new(
            PacketId(7),
            PacketKind::Data,
            Coord::new(0, 0),
            Coord::new(1, 1),
            0,
        );
        let mut done = None;
        for f in good.segment() {
            done = n.eject(f, 30);
        }
        let d = done.unwrap();
        assert_eq!(d.id, PacketId(7));
        assert_eq!(d.ejected_at, 30);
        assert_eq!(n.ejected, 1);
        assert_eq!(n.misdelivered, 0);
        // A packet destined elsewhere, ejected here by a misroute.
        let bad = Packet::new(
            PacketId(8),
            PacketKind::Control,
            Coord::new(0, 0),
            Coord::new(3, 3),
            0,
        );
        let d = n.eject(bad.segment().remove(0), 40).unwrap();
        assert_eq!(d.dst, Coord::new(3, 3));
        assert_eq!(n.misdelivered, 1);
    }
}
