//! # noc-alloc-meter
//!
//! The workspace's one heap meter, for the test binaries that prove the
//! per-cycle path allocation-free and bound what a run holds. Linking
//! this crate makes its counting allocator the process's global
//! allocator. It hands every request to [`System`] and keeps its counts
//! in atomics, so it allocates nothing itself.
//!
//! [`measure`] runs a closure inside a window and reports what the heap
//! did meanwhile: the allocations made, the sizes of the first of them,
//! how far the high-water mark rose and the bytes left live. The counts
//! are process-wide, so every thread's allocations land in them, the
//! stepper's pool workers included. A suite that measures is therefore
//! a `harness = false` test binary whose `main` runs its checks one
//! after another: no test-harness thread allocates beside the code
//! under test.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The counting allocator, installed as the global allocator of every
/// binary that links this crate.
struct Meter;

#[global_allocator]
static METER: Meter = Meter;

/// How many allocation sizes a window keeps.
const SIZES_KEPT: usize = 32;

/// Allocations made since the current window opened, and the sizes of
/// the first of them.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static SIZES: [AtomicU64; SIZES_KEPT] = [const { AtomicU64::new(0) }; SIZES_KEPT];
/// Bytes live on the heap now, and the most there have been since the
/// current window opened.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn allocated(bytes: usize) {
    let n = ALLOCATIONS.fetch_add(1, Relaxed) as usize;
    if let Some(slot) = SIZES.get(n) {
        slot.store(bytes as u64, Relaxed);
    }
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn freed(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: each method hands its arguments to `System` unchanged and
// returns what `System` returns; the bookkeeping beside the call only
// updates atomics, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Meter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        // SAFETY: the caller keeps `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocated(new_size);
        freed(layout.size());
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // keeps `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the heap did while [`measure`] ran its closure.
#[derive(Debug)]
pub struct Usage {
    /// Allocations and reallocations made, by any thread.
    pub allocations: u64,
    /// How far the heap's high-water mark rose above the bytes live
    /// when the window opened.
    pub peak_bytes: u64,
    /// Bytes live when the window closed beyond those live when it
    /// opened (0 if fewer).
    pub held_bytes: u64,
    sizes: [u64; SIZES_KEPT],
}

impl Usage {
    /// The sizes of the window's first allocations (at most 32), in the
    /// order they were made.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes[..(self.allocations as usize).min(SIZES_KEPT)]
    }
}

/// Run `f` and return its result with what the heap did meanwhile.
/// Windows do not nest.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    ALLOCATIONS.store(0, Relaxed);
    let result = f();
    let usage = Usage {
        allocations: ALLOCATIONS.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).saturating_sub(live),
        held_bytes: LIVE.load(Relaxed).saturating_sub(live),
        sizes: std::array::from_fn(|i| SIZES[i].load(Relaxed)),
    };
    (result, usage)
}
