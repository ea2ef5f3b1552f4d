//! `n:1` arbiter implementations.
//!
//! An arbiter receives a set of simultaneous requests and grants exactly
//! one of them. Requests are presented as a bitmask (`u32`, so up to 32
//! requestors — ample for a 5-port, 4-VC router where the widest arbiter
//! is the 20:1 of the VA second stage).

/// Maximum number of request lines an arbiter supports.
pub const MAX_WIDTH: usize = 32;

/// An `n:1` arbiter.
///
/// `arbitrate` consumes the grant (updates internal priority state);
/// `peek` computes the grant the arbiter *would* issue without updating
/// state, which models combinational look-ahead and is used by tests.
pub trait Arbiter {
    /// Number of request lines `n`.
    fn width(&self) -> usize;

    /// Grant one of the requested lines and update priority state.
    /// Returns `None` iff `requests` has no bit set below `width()`.
    fn arbitrate(&mut self, requests: u32) -> Option<usize>;

    /// The grant the next `arbitrate` call would produce, without
    /// updating state.
    fn peek(&self, requests: u32) -> Option<usize>;

    /// Restore the power-on priority state.
    fn reset(&mut self);
}

#[inline]
fn masked(requests: u32, width: usize) -> u32 {
    if width >= 32 {
        requests
    } else {
        requests & ((1u32 << width) - 1)
    }
}

/// The round-robin kernel: grant the first requested line at or after
/// `*pointer` (wrapping at `width`), then move the pointer one past the
/// grant. Returns `None`, leaving the pointer, iff `requests` has no bit
/// set below `width`.
///
/// A branch-light rotate-and-find-first-set: rotate the request word so
/// the pointer line becomes bit 0, `trailing_zeros`, rotate back — no
/// per-line scan.
///
/// A bank of equal-width arbiters keeps only its pointer bytes and calls
/// this directly (the router's VA stages do); [`RoundRobinArbiter`] is
/// the same kernel with its width beside the pointer. The caller keeps
/// `1 <= width <= MAX_WIDTH` and `*pointer < width`.
#[inline]
pub fn round_robin(requests: u32, pointer: &mut u8, width: usize) -> Option<usize> {
    debug_assert!(
        (1..=MAX_WIDTH).contains(&width) && usize::from(*pointer) < width,
        "pointer {pointer} of a {width}-line arbiter"
    );
    let req = masked(requests, width);
    if req == 0 {
        return None;
    }
    // The `<<` term can carry garbage above `width`, but a correctly
    // rotated set bit always exists below it (req != 0), so
    // `trailing_zeros` never reaches the garbage.
    let p = usize::from(*pointer);
    let rotated = if p == 0 {
        req
    } else {
        (req >> p) | (req << (width - p))
    };
    let first = rotated.trailing_zeros() as usize + p;
    let grant = if first >= width { first - width } else { first };
    *pointer = if grant + 1 == width {
        0
    } else {
        grant as u8 + 1
    };
    Some(grant)
}

/// Round-robin arbiter: the line after the most recent winner has highest
/// priority, guaranteeing starvation freedom under persistent requests.
/// This is the canonical arbiter of NoC allocators (Peh & Dally), and
/// the [`round_robin`] kernel over its own pointer.
///
/// Two bytes: `width` and `pointer` are both at most [`MAX_WIDTH`].
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    width: u8,
    /// Highest-priority line for the next arbitration.
    pointer: u8,
}

impl RoundRobinArbiter {
    /// Create a round-robin arbiter over `width` lines.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`MAX_WIDTH`].
    pub fn new(width: usize) -> Self {
        assert!(
            width > 0 && width <= MAX_WIDTH,
            "arbiter width out of range"
        );
        RoundRobinArbiter {
            width: width as u8,
            pointer: 0,
        }
    }

    /// The line that currently holds highest priority.
    pub fn pointer(&self) -> usize {
        usize::from(self.pointer)
    }

    /// Number of request lines.
    pub fn width(&self) -> usize {
        usize::from(self.width)
    }

    /// Restore the priority pointer captured by
    /// [`RoundRobinArbiter::pointer`] — used when rebuilding arbiter
    /// state from a simulation snapshot.
    ///
    /// # Panics
    /// Panics if `pointer` is not a valid line index.
    pub fn set_pointer(&mut self, pointer: usize) {
        assert!(pointer < self.width(), "pointer out of range");
        self.pointer = pointer as u8;
    }
}

impl Arbiter for RoundRobinArbiter {
    fn width(&self) -> usize {
        RoundRobinArbiter::width(self)
    }

    #[inline]
    fn arbitrate(&mut self, requests: u32) -> Option<usize> {
        round_robin(requests, &mut self.pointer, usize::from(self.width))
    }

    fn peek(&self, requests: u32) -> Option<usize> {
        let mut pointer = self.pointer;
        round_robin(requests, &mut pointer, self.width())
    }

    fn reset(&mut self) {
        self.pointer = 0;
    }
}

/// Fixed-priority arbiter: line 0 always wins over line 1, and so on.
/// Cheapest in gates; can starve high-index requestors.
#[derive(Debug, Clone)]
pub struct FixedPriorityArbiter {
    width: usize,
}

impl FixedPriorityArbiter {
    /// Create a fixed-priority arbiter over `width` lines.
    pub fn new(width: usize) -> Self {
        assert!(
            width > 0 && width <= MAX_WIDTH,
            "arbiter width out of range"
        );
        FixedPriorityArbiter { width }
    }
}

impl Arbiter for FixedPriorityArbiter {
    fn width(&self) -> usize {
        self.width
    }

    fn arbitrate(&mut self, requests: u32) -> Option<usize> {
        self.peek(requests)
    }

    fn peek(&self, requests: u32) -> Option<usize> {
        let req = masked(requests, self.width);
        (req != 0).then(|| req.trailing_zeros() as usize)
    }

    fn reset(&mut self) {}
}

/// Matrix arbiter: a least-recently-served priority matrix. `m[i][j]`
/// set means line `i` beats line `j`; on a grant the winner becomes
/// lowest priority against everyone. Strongly fair.
#[derive(Debug, Clone)]
pub struct MatrixArbiter {
    width: usize,
    /// Row-major upper state: `beats[i]` holds a bitmask of lines that
    /// line `i` currently beats.
    beats: [u32; MAX_WIDTH],
}

impl MatrixArbiter {
    /// Create a matrix arbiter over `width` lines; initially lower
    /// indices beat higher indices.
    pub fn new(width: usize) -> Self {
        assert!(
            width > 0 && width <= MAX_WIDTH,
            "arbiter width out of range"
        );
        let mut beats = [0u32; MAX_WIDTH];
        for (i, row) in beats.iter_mut().enumerate().take(width) {
            // i beats all j > i at power-on.
            *row = masked(!0u32 << (i + 1), width);
        }
        MatrixArbiter { width, beats }
    }
}

impl Arbiter for MatrixArbiter {
    fn width(&self) -> usize {
        self.width
    }

    fn arbitrate(&mut self, requests: u32) -> Option<usize> {
        let grant = self.peek(requests)?;
        // Winner loses priority against everyone: clear its row, set its
        // column in every other row.
        self.beats[grant] = 0;
        for i in 0..self.width {
            if i != grant {
                self.beats[i] |= 1 << grant;
            }
        }
        Some(grant)
    }

    fn peek(&self, requests: u32) -> Option<usize> {
        let req = masked(requests, self.width);
        if req == 0 {
            return None;
        }
        // A requesting line wins iff no *other requesting* line beats it.
        (0..self.width).find(|&i| {
            req & (1 << i) != 0 && {
                let rivals = req & !(1 << i);
                // rivals that beat i = rivals whose row has bit i set
                !(0..self.width).any(|j| rivals & (1 << j) != 0 && self.beats[j] & (1 << i) != 0)
            }
        })
    }

    fn reset(&mut self) {
        *self = MatrixArbiter::new(self.width);
    }
}

/// Which arbiter microarchitecture to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterKind {
    /// [`RoundRobinArbiter`] (the default used by the router models).
    RoundRobin,
    /// [`MatrixArbiter`].
    Matrix,
    /// [`FixedPriorityArbiter`].
    FixedPriority,
}

impl ArbiterKind {
    /// Instantiate an arbiter of this kind.
    pub fn build(self, width: usize) -> Box<dyn Arbiter + Send> {
        match self {
            ArbiterKind::RoundRobin => Box::new(RoundRobinArbiter::new(width)),
            ArbiterKind::Matrix => Box::new(MatrixArbiter::new(width)),
            ArbiterKind::FixedPriority => Box::new(FixedPriorityArbiter::new(width)),
        }
    }
}

/// An arbiter that can suffer a permanent fault.
///
/// This is the granularity at which Section V injects faults: a faulty
/// arbiter is *unusable* — it produces no grants — and the surrounding
/// correction circuitry must route around it. (We model fault *tolerance*,
/// not detection; detection is assumed ideal per the paper.)
#[derive(Debug, Clone)]
pub struct FaultableArbiter<A> {
    inner: A,
    faulty: bool,
}

impl<A: Arbiter> FaultableArbiter<A> {
    /// Wrap a healthy arbiter.
    pub fn new(inner: A) -> Self {
        FaultableArbiter {
            inner,
            faulty: false,
        }
    }

    /// Mark the arbiter permanently faulty.
    pub fn inject_fault(&mut self) {
        self.faulty = true;
    }

    /// Whether a permanent fault has been injected.
    pub fn is_faulty(&self) -> bool {
        self.faulty
    }

    /// Grant a request if healthy; a faulty arbiter never grants.
    pub fn arbitrate(&mut self, requests: u32) -> Option<usize> {
        if self.faulty {
            None
        } else {
            self.inner.arbitrate(requests)
        }
    }

    /// Non-mutating grant preview (None when faulty).
    pub fn peek(&self, requests: u32) -> Option<usize> {
        if self.faulty {
            None
        } else {
            self.inner.peek(requests)
        }
    }

    /// Width of the wrapped arbiter.
    pub fn width(&self) -> usize {
        self.inner.width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_grants_lowest_from_pointer() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.arbitrate(0b1010), Some(1));
        // pointer now 2 → bit 3 wins over bit 1
        assert_eq!(a.arbitrate(0b1010), Some(3));
        // pointer now 0
        assert_eq!(a.arbitrate(0b1010), Some(1));
    }

    #[test]
    fn round_robin_none_on_empty() {
        let mut a = RoundRobinArbiter::new(5);
        assert_eq!(a.arbitrate(0), None);
        assert_eq!(a.peek(0), None);
        // requests above the width are ignored
        assert_eq!(a.arbitrate(0b100000), None);
    }

    #[test]
    fn round_robin_is_starvation_free() {
        // With all lines requesting forever, every line is granted once
        // per width cycles.
        let mut a = RoundRobinArbiter::new(4);
        let mut counts = [0u32; 4];
        for _ in 0..40 {
            counts[a.arbitrate(0b1111).unwrap()] += 1;
        }
        assert_eq!(counts, [10, 10, 10, 10]);
    }

    #[test]
    fn round_robin_peek_matches_arbitrate() {
        let mut a = RoundRobinArbiter::new(7);
        for req in [0b1010101u32, 0b1, 0b1000000, 0b0110010] {
            let p = a.peek(req);
            assert_eq!(p, a.arbitrate(req));
        }
    }

    #[test]
    fn fixed_priority_always_prefers_low_index() {
        let mut a = FixedPriorityArbiter::new(4);
        for _ in 0..5 {
            assert_eq!(a.arbitrate(0b1110), Some(1));
        }
        assert_eq!(a.arbitrate(0b1000), Some(3));
    }

    #[test]
    fn matrix_arbiter_is_least_recently_served() {
        let mut a = MatrixArbiter::new(3);
        assert_eq!(a.arbitrate(0b111), Some(0));
        assert_eq!(a.arbitrate(0b111), Some(1));
        assert_eq!(a.arbitrate(0b111), Some(2));
        // 0 is now least recently served again
        assert_eq!(a.arbitrate(0b111), Some(0));
        // after 0 wins, 1 beats 2 (served longer ago)
        assert_eq!(a.arbitrate(0b110), Some(1));
    }

    #[test]
    fn matrix_arbiter_reset_restores_power_on_order() {
        let mut a = MatrixArbiter::new(3);
        a.arbitrate(0b111);
        a.arbitrate(0b111);
        a.reset();
        assert_eq!(a.arbitrate(0b111), Some(0));
    }

    #[test]
    fn matrix_single_request_always_granted() {
        let mut a = MatrixArbiter::new(5);
        for i in 0..5 {
            assert_eq!(a.arbitrate(1 << i), Some(i));
        }
    }

    #[test]
    fn faultable_arbiter_stops_granting_after_fault() {
        let mut a = FaultableArbiter::new(RoundRobinArbiter::new(4));
        assert_eq!(a.arbitrate(0b1111), Some(0));
        assert!(!a.is_faulty());
        a.inject_fault();
        assert!(a.is_faulty());
        assert_eq!(a.arbitrate(0b1111), None);
        assert_eq!(a.peek(0b1111), None);
    }

    #[test]
    fn kind_builds_requested_width() {
        for kind in [
            ArbiterKind::RoundRobin,
            ArbiterKind::Matrix,
            ArbiterKind::FixedPriority,
        ] {
            let a = kind.build(20);
            assert_eq!(a.width(), 20);
        }
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn zero_width_panics() {
        RoundRobinArbiter::new(0);
    }

    #[test]
    fn full_width_32_works() {
        let mut a = RoundRobinArbiter::new(32);
        assert_eq!(a.arbitrate(1 << 31), Some(31));
        assert_eq!(a.arbitrate(u32::MAX), Some(0));
    }

    #[test]
    fn round_robin_stays_one_word() {
        // Ten per router (SA), copied whole when a network is forked.
        assert_eq!(std::mem::size_of::<RoundRobinArbiter>(), 2);
    }

    #[test]
    fn kernel_on_a_bare_pointer_matches_the_arbiter() {
        let mut a = RoundRobinArbiter::new(20);
        let mut pointer = 0u8;
        for req in [0b1010u32, 0, 1 << 19, 0xF_FFFF, 1 << 25, 0b11] {
            assert_eq!(round_robin(req, &mut pointer, 20), a.arbitrate(req));
            assert_eq!(usize::from(pointer), a.pointer());
        }
    }
}
