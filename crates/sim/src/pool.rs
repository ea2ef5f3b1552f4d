//! A persistent, std-only worker pool for per-cycle fan-out.
//!
//! [`crate::run_batch`] used to spawn fresh scoped threads on every
//! call, which is fine for coarse sweep jobs but far too expensive for
//! the parallel [`crate::Network::step`], where a fan-out happens every
//! simulated cycle. [`WorkerPool`] keeps its workers alive across
//! submissions: posting a broadcast is a mutex push plus a condvar
//! notify, and idle workers briefly spin before sleeping so
//! cycle-latency stays low on multicore hosts.
//!
//! The only primitive is [`WorkerPool::broadcast`]: run `f(i)` for every
//! `i in 0..tasks` over the workers *and the calling thread*, returning
//! when all tasks finished. Each thread runs its own index first — the
//! caller `0`, worker `w` index `w + 1` — so a thread gets the same task
//! broadcast after broadcast (for the sharded stepper, the same shard,
//! whose state then stays in that core's cache); then it claims the
//! lowest unclaimed index, so an idle thread takes over the task of a
//! late one. Caller participation guarantees progress even when every
//! worker is busy with an unrelated submission, and makes a pool with
//! zero workers a correct (serial) degenerate case.
//!
//! # Safety
//!
//! This is the one module in the crate that uses `unsafe` (the crate is
//! otherwise `deny(unsafe_code)`). `broadcast` erases the lifetime of
//! `&dyn Fn(usize)` so the reference can sit in state shared with
//! 'static worker threads. The erasure is sound because:
//!
//! * `broadcast` does not return until every claimed index has run to
//!   completion (tracked by the `completed` counter under the pool
//!   mutex), so the closure strictly outlives every use of the pointer;
//! * workers only load the pointer from the job slot while holding the
//!   mutex, and the slot is cleared before `broadcast` returns, so no
//!   stale copy survives;
//! * the closure is `Sync`, so calling it from several threads at once
//!   is allowed, and the mutex hand-off sequences all writes it makes
//!   before the caller resumes.

#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread::JoinHandle;

/// Lifetime-erased pointer to the broadcast closure.
#[derive(Clone, Copy)]
struct RawTask(*const (dyn Fn(usize) + Sync));

// Safety: the pointee is `Sync` (shared calls are fine) and `broadcast`
// keeps the referent alive until all uses finish (see module docs).
unsafe impl Send for RawTask {}

/// An in-flight broadcast.
struct Job {
    f: RawTask,
    total: usize,
    /// Claimed indices below 64, one bit each.
    claimed: u64,
    /// No index below this one is unclaimed. Indices from 64 up are
    /// only ever claimed here, in order.
    next: usize,
    /// Indices that have finished running (successfully or not).
    completed: usize,
    /// Set when any task panicked; the caller re-raises.
    panicked: bool,
}

impl Job {
    fn new(f: RawTask, total: usize) -> Self {
        Job {
            f,
            total,
            claimed: 0,
            next: 0,
            completed: 0,
            panicked: false,
        }
    }

    fn is_free(&self, i: usize) -> bool {
        i >= self.next && (i >= 64 || self.claimed & (1 << i) == 0)
    }

    /// Claim an index to run: `own` while it is unclaimed, else the
    /// lowest unclaimed one; `None` once every index is claimed.
    fn claim(&mut self, own: usize) -> Option<usize> {
        let i = if own < self.total.min(64) && self.is_free(own) {
            own
        } else {
            while self.next < self.total && !self.is_free(self.next) {
                self.next += 1;
            }
            if self.next == self.total {
                return None;
            }
            self.next
        };
        if i < 64 {
            self.claimed |= 1 << i;
        }
        if i == self.next {
            self.next += 1;
        }
        Some(i)
    }
}

struct State {
    job: Option<Job>,
    /// Bumped on every job post and on shutdown; workers use it to
    /// detect "something changed" without decoding the job slot.
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The submitting thread waits here for `completed == total`.
    done: Condvar,
    /// Lock-free mirror of `State::epoch` for the workers' pre-sleep
    /// spin loop.
    epoch_hint: AtomicU64,
    /// Iterations of `spin_loop` before a worker sleeps (0 on machines
    /// without real parallelism, where spinning only steals the
    /// caller's timeslice).
    spin: u32,
}

/// Monotonic pool ids, used to detect re-entrant broadcasts.
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// The pool this thread is currently running a task for (0 = none).
    static CURRENT_POOL: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A fixed set of persistent worker threads executing broadcasts.
///
/// Dropping the pool shuts the workers down and joins them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serialises broadcasts: the pool runs one job at a time.
    submit: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
    id: usize,
}

impl WorkerPool {
    /// Spawn a pool with `workers` background threads. The thread that
    /// calls [`WorkerPool::broadcast`] always participates too, so the
    /// effective parallelism of a broadcast is `workers + 1`.
    pub fn new(workers: usize) -> Self {
        // Only workers read `spin`; a worker-less pool (every one-shard
        // `Network` owns one) skips the query, which reads cgroup files.
        let spin = if workers > 0 && std::thread::available_parallelism().map_or(1, |p| p.get()) > 1
        {
            10_000
        } else {
            0
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            epoch_hint: AtomicU64::new(0),
            spin,
        });
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        // Return only once every worker runs: a thread allocates as it
        // starts, and that must happen here, not during a later broadcast
        // that the counting-allocator suite asserts allocation-free. (A
        // worker-less pool, which every one-shard network builds,
        // allocates no barrier; a network's clones share its pool.)
        let mut handles = Vec::new();
        if workers > 0 {
            let started = Arc::new(Barrier::new(workers + 1));
            handles = (0..workers)
                .map(|w| {
                    let shared = Arc::clone(&shared);
                    let started = Arc::clone(&started);
                    std::thread::Builder::new()
                        .name("noc-sim-worker".into())
                        .spawn(move || {
                            started.wait();
                            worker_loop(&shared, id, w + 1)
                        })
                        .expect("spawning a pool worker")
                })
                .collect();
            started.wait();
        }
        WorkerPool {
            shared,
            submit: Mutex::new(()),
            workers: handles,
            id,
        }
    }

    /// The shared process-wide pool, sized to the machine (one worker
    /// per available CPU beyond the calling thread). Used by
    /// [`crate::run_batch`]; long-lived by design.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: std::sync::OnceLock<WorkerPool> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
            WorkerPool::new(cpus.saturating_sub(1))
        })
    }

    /// Number of background workers (excluding the participating caller).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run `f(i)` for every `i in 0..tasks` across the pool plus the
    /// calling thread; returns when every task has completed. Panics if
    /// any task panicked.
    ///
    /// Re-entrant calls (a task broadcasting on its own pool) run the
    /// tasks inline on the calling thread instead of deadlocking on the
    /// submission lock.
    pub fn broadcast(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || CURRENT_POOL.with(|c| c.get()) == self.id {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        // A propagated task panic unwinds through `broadcast` with the
        // submission guard held, poisoning it; that's harmless (the job
        // slot is cleared before unwinding), so recover the lock.
        let _submission = self
            .submit
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());

        // Safety: see module docs — the pointer never outlives this call.
        let raw = RawTask(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        });
        {
            let mut s = self.shared.state.lock().expect("pool state poisoned");
            debug_assert!(s.job.is_none(), "submission lock admits one job at a time");
            let mut job = Job::new(raw, tasks);
            // The caller's own index, claimed before any worker sees the
            // job.
            job.claim(0);
            s.job = Some(job);
            s.epoch += 1;
            self.shared.epoch_hint.store(s.epoch, Ordering::Release);
            self.shared.work.notify_all();
        }

        // Participate: run the own index, then claim like a worker would.
        let mut caller_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut i = 0;
        loop {
            let result = run_task(f, i, self.id);
            let mut s = self.shared.state.lock().expect("pool state poisoned");
            let job = s.job.as_mut().expect("job lives until broadcast ends");
            job.completed += 1;
            if let Err(p) = result {
                job.panicked = true;
                caller_panic = Some(p);
            }
            if let Some(next) = job.claim(0) {
                i = next;
                continue;
            }
            // All indices claimed; wait for stragglers.
            while s.job.as_ref().is_some_and(|j| j.completed < j.total) {
                s = self.shared.done.wait(s).expect("pool state poisoned");
            }
            let job = s.job.take().expect("job lives until broadcast ends");
            let panicked = job.panicked;
            drop(s);
            if let Some(p) = caller_panic {
                std::panic::resume_unwind(p);
            }
            assert!(!panicked, "a WorkerPool task panicked");
            return;
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut s = self.shared.state.lock().expect("pool state poisoned");
            s.shutdown = true;
            s.epoch += 1;
            self.shared.epoch_hint.store(s.epoch, Ordering::Release);
            self.shared.work.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Run one task index with the re-entrancy marker set, catching panics.
fn run_task(
    f: &(dyn Fn(usize) + Sync),
    i: usize,
    pool_id: usize,
) -> Result<(), Box<dyn std::any::Any + Send>> {
    CURRENT_POOL.with(|c| c.set(pool_id));
    let result = catch_unwind(AssertUnwindSafe(|| f(i)));
    CURRENT_POOL.with(|c| c.set(0));
    result
}

/// A worker's life: claim indices of posted jobs, `own` first.
fn worker_loop(shared: &Shared, pool_id: usize, own: usize) {
    let mut guard = shared.state.lock().expect("pool state poisoned");
    loop {
        if guard.shutdown {
            return;
        }
        // Claim an index if a job with unclaimed work is posted.
        let claim = guard
            .job
            .as_mut()
            .and_then(|job| job.claim(own).map(|i| (job.f, i)));
        if let Some((raw, i)) = claim {
            drop(guard);
            // Safety: `broadcast` keeps the closure alive until this
            // task's completion is recorded below (module docs).
            let f: &(dyn Fn(usize) + Sync) = unsafe { &*raw.0 };
            let result = run_task(f, i, pool_id);
            guard = shared.state.lock().expect("pool state poisoned");
            if let Some(job) = guard.job.as_mut() {
                job.completed += 1;
                if result.is_err() {
                    job.panicked = true;
                }
                if job.completed == job.total {
                    shared.done.notify_all();
                }
            }
            continue;
        }
        // Nothing to do: spin briefly for the next epoch, then sleep.
        let seen = guard.epoch;
        drop(guard);
        let mut changed = false;
        for _ in 0..shared.spin {
            if shared.epoch_hint.load(Ordering::Acquire) != seen {
                changed = true;
                break;
            }
            std::hint::spin_loop();
        }
        guard = shared.state.lock().expect("pool state poisoned");
        if !changed {
            while guard.epoch == seen && !guard.shutdown {
                guard = shared.work.wait(guard).expect("pool state poisoned");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn broadcast_runs_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        pool.broadcast(64, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn claims_hand_out_every_index_once_own_first() {
        let f = |_: usize| {};
        for total in [1, 2, 5, 64, 65, 130] {
            let mut job = Job::new(RawTask(&f), total);
            let owns = [2, 0, 70, 1, 63];
            let mut got = Vec::new();
            for k in 0.. {
                let own = owns[k % owns.len()];
                let own_free = own < total.min(64) && !got.contains(&own);
                let Some(i) = job.claim(own) else { break };
                if own_free {
                    assert_eq!(i, own, "total {total}: own index passed over");
                }
                got.push(i);
            }
            got.sort_unstable();
            assert_eq!(got, (0..total).collect::<Vec<_>>(), "total {total}");
        }
    }

    #[test]
    fn the_caller_always_runs_index_zero() {
        let pool = WorkerPool::new(3);
        let caller = std::thread::current().id();
        for _ in 0..200 {
            let ran_on = Mutex::new(None);
            pool.broadcast(4, &|i| {
                if i == 0 {
                    *ran_on.lock().unwrap() = Some(std::thread::current().id());
                }
            });
            assert_eq!(ran_on.into_inner().unwrap(), Some(caller));
        }
    }

    #[test]
    fn pool_is_reusable_across_many_broadcasts() {
        let pool = WorkerPool::new(2);
        let count = AtomicU32::new(0);
        for _ in 0..500 {
            pool.broadcast(4, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 2_000);
    }

    #[test]
    fn zero_workers_degenerates_to_serial() {
        let pool = WorkerPool::new(0);
        let sum = Mutex::new(0usize);
        pool.broadcast(10, &|i| {
            *sum.lock().unwrap() += i;
        });
        assert_eq!(*sum.lock().unwrap(), 45);
    }

    #[test]
    fn empty_broadcast_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.broadcast(0, &|_| panic!("must not run"));
    }

    #[test]
    fn reentrant_broadcast_runs_inline() {
        let pool = WorkerPool::new(2);
        let count = AtomicU32::new(0);
        pool.broadcast(3, &|_| {
            // A task fanning out on its own pool must not deadlock.
            pool.broadcast(5, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn task_panic_propagates_to_the_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(8, &|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicking job.
        let ok = AtomicU32::new(0);
        pool.broadcast(4, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }
}
