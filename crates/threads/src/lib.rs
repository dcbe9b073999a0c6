//! Work-stealing thread pool for the force-evaluation hot path.
//!
//! The paper's single-node baseline (§IV) keeps every core of the A64FX busy
//! on the per-atom pipeline — neighbor binning, descriptor assembly,
//! embedding-net inference, fitting-net inference. This crate provides the
//! pool those loops run on:
//!
//! * **std-only** — the build environment is offline, so no crossbeam/rayon;
//!   workers are plain `std::thread`s with per-worker `VecDeque`s and
//!   lock-based stealing.
//! * **scoped** — [`ThreadPool::scope`] lets tasks borrow stack data
//!   (chunked slices of atom arrays) without `'static` gymnastics; the
//!   scope blocks until every spawned task finished, and the scoping thread
//!   itself executes tasks while it waits.
//! * **deterministic by construction** — the pool schedules *which thread*
//!   runs a task, never *what* a task computes or *where* it writes.
//!   Callers split work into a chunk count that is a function of the
//!   problem size only (see `dpmd_balance::assign::even_chunks`) and give
//!   each chunk its own output buffer, merged in chunk order afterwards.
//!   Results are then bit-identical for any worker count, including 1.
//!
//! There is no process-wide pool: whoever wants parallelism builds a pool of
//! the width it was asked for and passes it down.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Split `0..total` into `parts` contiguous ranges whose lengths differ by
/// at most one; the first `total % parts` ranges carry the extra element.
/// Empty ranges are never produced: with `total < parts` only `total`
/// one-element ranges come back.
///
/// This is the even-split policy every parallel per-atom loop uses (also
/// re-exported as `dpmd_balance::assign::even_chunks`, where it doubles as
/// the intra-node atom split of the paper's load balancer). Chunk
/// boundaries depend on `total` and `parts` only — never on the worker
/// count — which is what makes chunk-ordered reductions bit-identical
/// across pool sizes.
pub fn even_chunks(total: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(total.max(1));
    if total == 0 {
        return Vec::new(); // dpmd-allow D7: Vec::new is capacity 0, no heap
    }
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts); // dpmd-allow D7: O(workers) chunk descriptors per scope
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, total);
    out
}

/// The chunk count used for per-atom loops: fine enough that stealing can
/// balance uneven chunks (≈8 atoms per chunk), capped so per-chunk buffers
/// stay cheap. A function of the atom count ONLY — deliberately independent
/// of the pool width, so the same system always produces the same chunk
/// structure and therefore (with chunk-ordered merges) the same bits.
pub fn atom_chunks(total: usize) -> Vec<Range<usize>> {
    even_chunks(total, total.div_ceil(8).clamp(1, 64))
}

/// A fixed-size pool of worker threads with per-worker queues and stealing.
pub struct ThreadPool {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

struct Inner {
    /// One queue per executing thread slot (workers + the scoping caller).
    /// Any thread may steal from any queue; locks are held only to
    /// push/pop, and tasks are coarse (whole atom chunks), so contention is
    /// negligible next to task runtime.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Push-generation counter guarded by `sleep`; bumped on every push so
    /// a worker that saw empty queues before the bump never sleeps through
    /// the wakeup.
    sleep: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
    next_queue: AtomicUsize,
}

impl Inner {
    fn push(&self, job: Job) {
        let idx = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[idx].lock().unwrap().push_back(job);
        *self.sleep.lock().unwrap() += 1;
        self.wake.notify_all();
    }

    /// Pop from `home` first (front: FIFO for cache-friendly chunk order),
    /// then steal from the back of the other queues.
    fn pop(&self, home: usize) -> Option<Job> {
        let n = self.queues.len();
        if let Some(job) = self.queues[home % n].lock().unwrap().pop_front() {
            return Some(job);
        }
        for off in 1..n {
            let q = (home + off) % n;
            if let Some(job) = self.queues[q].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        None
    }

    fn worker_loop(&self, home: usize) {
        loop {
            // Snapshot the push generation *before* scanning, so a push that
            // lands mid-scan changes the generation and skips the sleep.
            let gen = *self.sleep.lock().unwrap();
            if let Some(job) = self.pop(home) {
                job();
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let mut g = self.sleep.lock().unwrap();
            while *g == gen && !self.shutdown.load(Ordering::Acquire) {
                g = self.wake.wait(g).unwrap();
            }
        }
    }
}

impl ThreadPool {
    /// A pool executing on `threads` threads total: `threads - 1` workers
    /// plus the thread that calls [`scope`](Self::scope). `new(1)` spawns
    /// nothing and runs every task inline on the caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(), // dpmd-allow D7: one-time pool construction
            sleep: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_queue: AtomicUsize::new(0),
        });
        let workers = (1..threads)
            .map(|home| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dpmd-worker-{home}")) // dpmd-allow D7: one-time pool construction
                    .spawn(move || inner.worker_loop(home))
                    .expect("spawn pool worker")
            })
            .collect(); // dpmd-allow D7: one-time pool construction
        ThreadPool { inner, workers, threads }
    }

    /// A single-thread pool: every task runs inline on the caller, in spawn
    /// order. The parallel call sites run *the same code* through this pool
    /// to produce their serial reference behaviour.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Total executing threads (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f`, allowing it to spawn borrowing tasks; returns once every
    /// spawned task completed. Panics from tasks are re-raised here after
    /// all tasks finish.
    pub fn scope<'scope, F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, '_>),
    {
        let latch = Arc::new(Latch {
            count: Mutex::new(0),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let scope = Scope { pool: self, latch: Arc::clone(&latch), _borrow: PhantomData };
        f(&scope);
        // Help execute until this scope's tasks have all finished. Tasks
        // picked up here may belong to another concurrent scope — they are
        // self-contained closures that settle their own latch, so running
        // them is always sound.
        loop {
            while let Some(job) = self.inner.pop(0) {
                job();
            }
            let g = self.latch_wait(&latch);
            if g {
                break;
            }
        }
        if latch.panicked.load(Ordering::Acquire) {
            panic!("a task spawned in ThreadPool::scope panicked");
        }
    }

    /// Wait briefly for the latch; true when it reached zero. The timeout
    /// covers the race where a task is pushed (by a nested spawn) after the
    /// help loop saw empty queues.
    fn latch_wait(&self, latch: &Latch) -> bool {
        let g = latch.count.lock().unwrap();
        if *g == 0 {
            return true;
        }
        let (g, _timeout) = latch.done.wait_timeout(g, Duration::from_micros(200)).unwrap();
        *g == 0
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _g = self.inner.sleep.lock().unwrap();
        }
        self.inner.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

struct Latch {
    count: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn increment(&self) {
        *self.count.lock().unwrap() += 1;
    }

    fn decrement(&self) {
        let mut g = self.count.lock().unwrap();
        *g -= 1;
        if *g == 0 {
            self.done.notify_all();
        }
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`]; tasks may
/// borrow anything that outlives `'scope`.
pub struct Scope<'scope, 'pool> {
    pool: &'pool ThreadPool,
    latch: Arc<Latch>,
    /// Invariant over `'scope`, as for `std::thread::scope`.
    _borrow: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Queue a task. On a 1-thread pool this runs the task inline,
    /// immediately, preserving spawn order exactly.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.pool.threads == 1 {
            f();
            return;
        }
        self.latch.increment();
        let latch = Arc::clone(&self.latch);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || { // dpmd-allow D7: boxed job is the scoped-pool ABI, one per spawned chunk
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                latch.panicked.store(true, Ordering::Release);
            }
            latch.decrement();
        });
        // SAFETY: `scope` does not return until the latch — incremented
        // above, decremented only after the closure ran — reaches zero, so
        // every borrow inside the task outlives its execution. Identical
        // layout: only the trait object's lifetime bound is erased.
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool.inner.push(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_task() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for i in 0..100u64 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn tasks_borrow_and_write_disjoint_slices() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0u64; 1024];
        pool.scope(|s| {
            for (k, chunk) in data.chunks_mut(100).enumerate() {
                s.spawn(move || {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = (k * 100 + j) as u64;
                    }
                });
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn single_thread_pool_runs_inline_in_order() {
        let pool = ThreadPool::serial();
        assert_eq!(pool.threads(), 1);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..10 {
                let order = &order;
                s.spawn(move || order.lock().unwrap().push(i));
            }
        });
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    // Miri's deterministic scheduler can legally run every task on one
    // worker (virtual time, rare preemption), so this liveness check only
    // means something on real threads.
    #[cfg_attr(miri, ignore)]
    fn work_actually_distributes_across_threads() {
        let pool = ThreadPool::new(4);
        let ids = Mutex::new(BTreeSet::new());
        pool.scope(|s| {
            for _ in 0..64 {
                let ids = &ids;
                s.spawn(move || {
                    // `ThreadId` is not `Ord`; its debug form is unique per thread.
                    ids.lock().unwrap().insert(format!("{:?}", std::thread::current().id()));
                    // Enough work that a single thread cannot race through
                    // the whole queue before the others wake.
                    std::thread::sleep(Duration::from_millis(2));
                });
            }
        });
        assert!(
            ids.lock().unwrap().len() > 1,
            "64 sleeping tasks ran on a single thread of a 4-thread pool"
        );
    }

    #[test]
    fn scope_reuse_and_nesting() {
        let pool = ThreadPool::new(2);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.scope(|s| {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(1, Ordering::Relaxed);
                });
                s.spawn(move || {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    #[should_panic(expected = "task spawned in ThreadPool::scope panicked")]
    fn task_panics_propagate_to_scope() {
        let pool = ThreadPool::new(2);
        pool.scope(|s| {
            s.spawn(|| panic!("boom"));
        });
    }

    #[test]
    fn empty_scope_returns() {
        let pool = ThreadPool::new(4);
        pool.scope(|_| {});
    }

    #[test]
    fn even_chunks_cover_exactly_with_balanced_lengths() {
        for total in [0usize, 1, 7, 8, 9, 100, 256, 1023] {
            for parts in [1usize, 2, 3, 7, 16, 64, 2000] {
                let chunks = even_chunks(total, parts);
                // Exact cover, in order, no empties.
                let mut next = 0;
                for c in &chunks {
                    assert_eq!(c.start, next, "total {total} parts {parts}");
                    assert!(!c.is_empty(), "total {total} parts {parts}");
                    next = c.end;
                }
                assert_eq!(next, total, "total {total} parts {parts}");
                // Lengths differ by at most one.
                if let (Some(min), Some(max)) = (
                    chunks.iter().map(|c| c.len()).min(),
                    chunks.iter().map(|c| c.len()).max(),
                ) {
                    assert!(max - min <= 1, "total {total} parts {parts}: {min}..{max}");
                }
            }
        }
    }

    #[test]
    fn atom_chunks_depend_on_size_only() {
        // The policy must be a pure function of the atom count: same input,
        // same boundaries, regardless of environment or pool width.
        assert_eq!(atom_chunks(0).len(), 0);
        assert_eq!(atom_chunks(1).len(), 1);
        assert_eq!(atom_chunks(256).len(), 32);
        assert_eq!(atom_chunks(100_000).len(), 64);
        assert_eq!(atom_chunks(256), atom_chunks(256));
    }
}
