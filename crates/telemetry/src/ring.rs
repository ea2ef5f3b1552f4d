//! Fixed-capacity event storage: per-shard rings and the deterministic
//! shard-order merge.

use crate::event::{Event, EventCounts};

/// A fixed-capacity drop-oldest ring of events.
///
/// Storage is reserved once at construction; `push` never reallocates,
/// so recording stays allocation-free in steady state. When the ring is
/// full the oldest event is overwritten and `dropped` counts the loss —
/// exporters surface that counter so a truncated trace is never
/// mistaken for a complete one.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    /// Create a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        EventRing {
            buf: Vec::with_capacity(cap),
            head: 0,
            cap,
            dropped: 0,
        }
    }

    /// Append an event, overwriting the oldest if full.
    #[inline]
    pub fn push(&mut self, event: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate the held events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Discard all held events (keeps the allocation and the dropped
    /// counter).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

/// One event ring per stepper shard, merged back in deterministic
/// order.
///
/// The stepper hands shard `s` exclusive access to ring `s`
/// for the duration of a cycle. Every event names the router it
/// happened at (NI inject/eject events use the node's router id), and
/// each router's events — ejects, then its injection, then its step —
/// are all emitted by the shard that owns that router, in an order
/// fixed by the simulation alone. So the per-`(cycle, router)`
/// subsequences are identical for *every* shard layout, including the
/// serial one, and [`ShardedTracer::merged`] only has to stable-sort
/// by `(cycle, router)` to reproduce one canonical stream: byte-for-
/// byte identical across thread counts, the telemetry analogue of
/// PR 2's three-phase output merge argument.
#[derive(Debug)]
pub struct ShardedTracer {
    rings: Vec<EventRing>,
}

impl ShardedTracer {
    /// Create `shards` rings of `capacity_per_shard` events each.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        ShardedTracer {
            rings: (0..shards.max(1))
                .map(|_| EventRing::new(capacity_per_shard))
                .collect(),
        }
    }

    /// Number of per-shard rings.
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// Mutable access to the rings, for handing one to each shard.
    pub fn rings_mut(&mut self) -> &mut [EventRing] {
        &mut self.rings
    }

    /// Total events currently held across all shards.
    pub fn len(&self) -> usize {
        self.rings.iter().map(EventRing::len).sum()
    }

    /// Whether no shard holds any events.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(EventRing::is_empty)
    }

    /// Total events overwritten across all shards.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(EventRing::dropped).sum()
    }

    /// Per-mechanism totals over every held event.
    pub fn counts(&self) -> EventCounts {
        let mut c = EventCounts::default();
        for ring in &self.rings {
            for ev in ring.iter() {
                c.add(ev);
            }
        }
        c
    }

    /// Merge all shards into one canonical stream ordered by
    /// `(cycle, router)`, preserving each ring's relative order within
    /// those keys.
    ///
    /// All events of one `(cycle, router)` pair live in exactly one
    /// ring (the shard that owns the router also applies its arrivals
    /// and injections), and their relative order there is fixed by the
    /// simulation — so the stable sort yields the same stream for
    /// every shard layout, serial included (see the type-level docs).
    pub fn merged(&self) -> Vec<Event> {
        let mut out: Vec<Event> = Vec::with_capacity(self.len());
        for ring in &self.rings {
            out.extend(ring.iter().copied());
        }
        // Stable: ties (same cycle, same router) keep ring order.
        out.sort_by_key(|e| (e.cycle, e.router));
        out
    }

    /// Discard all held events in every shard.
    pub fn clear(&mut self) {
        for ring in &mut self.rings {
            ring.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(cycle: u64, router: u16) -> Event {
        Event {
            cycle,
            router,
            kind: EventKind::FlitEject {
                packet: u64::from(router),
                seq: 0,
            },
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = EventRing::new(3);
        for c in 0..5u64 {
            r.push(ev(c, 0));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn ring_push_never_reallocates() {
        let mut r = EventRing::new(4);
        let cap = r.buf.capacity();
        for c in 0..40u64 {
            r.push(ev(c, 1));
        }
        assert_eq!(r.buf.capacity(), cap);
    }

    #[test]
    fn merge_is_cycle_major_router_minor() {
        let mut t = ShardedTracer::new(3, 16);
        // Shard 2 emits first in wall-clock terms, but router order must
        // win within a cycle.
        t.rings_mut()[2].push(ev(1, 20));
        t.rings_mut()[0].push(ev(1, 0));
        t.rings_mut()[0].push(ev(2, 1));
        t.rings_mut()[1].push(ev(1, 10));
        t.rings_mut()[1].push(ev(3, 11));
        let routers: Vec<u16> = t.merged().iter().map(|e| e.router).collect();
        assert_eq!(routers, vec![0, 10, 20, 1, 11]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn merge_preserves_within_shard_order() {
        let mut t = ShardedTracer::new(2, 8);
        for r in [0u16, 1, 2] {
            t.rings_mut()[0].push(ev(5, r));
        }
        for r in [10u16, 11] {
            t.rings_mut()[1].push(ev(5, r));
        }
        let routers: Vec<u16> = t.merged().iter().map(|e| e.router).collect();
        assert_eq!(routers, vec![0, 1, 2, 10, 11]);
    }

    #[test]
    fn merge_is_stable_within_a_router_and_cycle() {
        // A router's events of one cycle all live in one ring; their
        // relative order must survive the canonical sort.
        let mut t = ShardedTracer::new(2, 8);
        for pkt in [7u64, 8, 9] {
            t.rings_mut()[1].push(Event {
                cycle: 4,
                router: 12,
                kind: EventKind::FlitEject {
                    packet: pkt,
                    seq: 0,
                },
            });
        }
        let pkts: Vec<u64> = t
            .merged()
            .iter()
            .map(|e| match e.kind {
                EventKind::FlitEject { packet, .. } => packet,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pkts, vec![7, 8, 9]);
    }
}
