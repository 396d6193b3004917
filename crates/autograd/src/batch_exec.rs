//! Pinned thread-per-core batch executor for stacked forecasts.
//!
//! `serve`'s `forecast_many` answers a shard's shared-group batch with one
//! stacked engine call; before this module that call ran the whole batch on
//! the shard thread, so aggregate throughput scaled with shard count rather
//! than cores. [`BatchExecutor`] keeps a pool of persistent worker threads —
//! one per core by default, each pinned to its core via a raw
//! `sched_setaffinity` syscall (the workspace vendors no libc) — and splits
//! the batch's rows across them with a **static contiguous partition**.
//!
//! Determinism over work-stealing: the partition of `rows` across `w`
//! workers is a pure function of `(rows, w)`, every worker computes its row
//! range with the same per-row arithmetic the sequential path uses, and the
//! GEMM/conv kernels are bitwise row-independent — so a parallel batch
//! equals the sequential stacked batch bit-for-bit, run after run
//! (asserted in `tests/infer_parity.rs`).
//!
//! Worker panics are caught per worker, the dispatch always waits for every
//! worker to finish, and the panic is re-raised on the calling thread — so
//! `serve`'s catch_unwind-based shard supervision observes exactly the
//! behaviour it did with sequential batches.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};

/// Batches smaller than this run inline on the caller: the wakeup round-trip
/// costs more than a handful of ~20µs forecasts.
pub const MIN_PARALLEL_ROWS: usize = 8;

/// A lifetime-erased borrowed job: `f(worker_idx, start_row, end_row)`.
///
/// The raw trait-object reference is only dereferenced between the dispatch
/// storing it and the completion barrier in [`BatchExecutor::run_rows`], and
/// that call does not return until every worker has finished — so the
/// erased borrow never outlives the real closure.
type Job = &'static (dyn Fn(usize, usize, usize) + Sync);

/// The borrowed form of [`Job`] before its lifetime is erased.
type BorrowedJob<'a> = &'a (dyn Fn(usize, usize, usize) + Sync);

struct State {
    /// Monotone dispatch generation; a bump tells workers a new job exists.
    seq: u64,
    job: Option<Job>,
    rows: usize,
    /// Workers that have not yet finished the current generation.
    remaining: usize,
    /// Set if any worker's closure panicked this generation.
    panicked: bool,
    /// Workers that have registered (and attempted their pin) at startup.
    started: usize,
    /// Workers whose core pin succeeded.
    pinned: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    work_done: Condvar,
}

/// Persistent pool of core-pinned worker threads executing statically
/// partitioned row ranges of a stacked batch.
pub struct BatchExecutor {
    shared: &'static Shared,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    pinned: usize,
}

impl BatchExecutor {
    /// Spawn `workers` (>= 1) persistent threads, pinning worker `i` to
    /// core `i % cores` where the platform allows it. A single-worker pool
    /// spawns nothing — every dispatch already runs inline on the caller —
    /// which also keeps the detached [`global`] pool invisible to Miri's
    /// thread-leak check on single-cpu interpretation.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        // The pool is effectively a process-wide resource (the public entry
        // is [`global`]); leaking the shared block gives workers a 'static
        // handle without an Arc dependency in the hot dispatch path.
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            state: Mutex::new(State {
                seq: 0,
                job: None,
                rows: 0,
                remaining: 0,
                panicked: false,
                started: 0,
                pinned: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        }));
        if workers == 1 {
            return Self {
                shared,
                handles: Vec::new(),
                workers: 1,
                pinned: 0,
            };
        }
        let mut handles = Vec::with_capacity(workers);
        for idx in 0..workers {
            let builder = thread::Builder::new().name(format!("rptcn-batch-{idx}"));
            let handle = builder
                .spawn(move || {
                    let pinned = pin_to_core(idx);
                    {
                        let mut state = lock_state(&shared.state);
                        state.started += 1;
                        if pinned {
                            state.pinned += 1;
                        }
                        shared.work_done.notify_all();
                    }
                    worker_loop(shared, idx, workers);
                })
                .unwrap_or_else(|e| panic!("failed to spawn batch worker {idx}: {e}")); // lint: allow(r2) — pool construction, not the serving path; a half-built pool is unusable
            handles.push(handle);
        }
        // Wait for every worker to register: the pool is warm (and the pin
        // count accurate) before the first dispatch can race it.
        let pinned = {
            let mut state = lock_state(&shared.state);
            while state.started < workers {
                state = match shared.work_done.wait(state) {
                    Ok(guard) => guard,
                    Err(poison) => poison.into_inner(),
                };
            }
            state.pinned
        };
        Self {
            shared,
            handles,
            workers,
            pinned,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// How many workers successfully pinned to a core at spawn time (0 on
    /// non-Linux platforms and under Miri; reporting-only).
    pub fn pinned_workers(&self) -> usize {
        self.pinned
    }

    /// The static partition: worker `idx` of `workers` owns rows
    /// `[start, end)` of `rows`. Contiguous, deterministic, and exhaustive;
    /// earlier workers take the remainder rows.
    pub fn partition(rows: usize, workers: usize, idx: usize) -> (usize, usize) {
        let base = rows / workers;
        let rem = rows % workers;
        let start = idx * base + idx.min(rem);
        let len = base + usize::from(idx < rem);
        (start, start + len)
    }

    /// Run `f(worker_idx, start_row, end_row)` over the static partition of
    /// `rows`, blocking until every worker finishes. Ranges are disjoint and
    /// cover `0..rows`, so `f` may write row-sliced output without locks.
    /// Batches below [`MIN_PARALLEL_ROWS`] (and single-worker pools) run
    /// inline on the caller; the partition is then `(0, rows)` for worker 0,
    /// which by row-independence of the kernels is bitwise the same.
    ///
    /// # Panics
    /// Re-raises on the caller if any worker's `f` panicked (after all
    /// workers completed, so no range is silently skipped).
    pub fn run_rows(&self, rows: usize, f: impl Fn(usize, usize, usize) + Sync) {
        if rows == 0 {
            return;
        }
        if self.workers == 1 || rows < MIN_PARALLEL_ROWS {
            f(0, 0, rows);
            return;
        }
        let job: BorrowedJob<'_> = &f;
        // SAFETY: the 'static lifetime is erased, not real — `job` points at
        // `f` on this stack frame. The loop below does not return until
        // `remaining == 0`, i.e. until every worker has finished calling the
        // closure and will never touch it again, so the borrow cannot
        // dangle. `dyn Fn + Sync` makes the shared calls across workers
        // sound.
        let job: Job = unsafe { std::mem::transmute::<BorrowedJob<'_>, Job>(job) };
        let panicked = {
            let mut state = lock_state(&self.shared.state);
            // Serialise dispatchers: the global pool is shared across shard
            // threads, so a second `run_rows` waits until the in-flight
            // generation fully drains (its owner clears `job` below).
            while state.job.is_some() || state.remaining > 0 {
                state = match self.shared.work_done.wait(state) {
                    Ok(guard) => guard,
                    Err(poison) => poison.into_inner(),
                };
            }
            state.seq += 1;
            state.job = Some(job);
            state.rows = rows;
            state.remaining = self.workers;
            state.panicked = false;
            self.shared.work_ready.notify_all();
            while state.remaining > 0 {
                state = match self.shared.work_done.wait(state) {
                    Ok(guard) => guard,
                    Err(poison) => poison.into_inner(),
                };
            }
            state.job = None;
            // Release any dispatcher queued on the drain predicate above.
            self.shared.work_done.notify_all();
            state.panicked
        };
        if panicked {
            panic!("batch executor worker panicked (re-raised on dispatcher)"); // lint: allow(r2) — deliberate re-raise: a caught worker panic must surface to the dispatcher
        }
    }
}

impl Drop for BatchExecutor {
    fn drop(&mut self) {
        {
            let mut state = lock_state(&self.shared.state);
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A mutex poisoned by a worker panic still guards consistent data (every
/// mutation is a single field store), so recover the guard rather than
/// propagate the poison.
fn lock_state(m: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poison) => poison.into_inner(),
    }
}

fn worker_loop(shared: &'static Shared, idx: usize, workers: usize) {
    let mut seen_seq = 0u64;
    loop {
        let (job, rows) = {
            let mut state = lock_state(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.seq != seen_seq && state.job.is_some() {
                    break;
                }
                state = match shared.work_ready.wait(state) {
                    Ok(guard) => guard,
                    Err(poison) => poison.into_inner(),
                };
            }
            seen_seq = state.seq;
            (state.job.unwrap_or_else(|| unreachable!()), state.rows)
        };
        let (start, end) = BatchExecutor::partition(rows, workers, idx);
        let mut panicked = false;
        if start < end {
            // AssertUnwindSafe: on panic the only shared state the closure
            // could leave half-written is its disjoint output range, and the
            // dispatcher re-raises before anyone reads it.
            if catch_unwind(AssertUnwindSafe(|| job(idx, start, end))).is_err() {
                panicked = true;
            }
        }
        let mut state = lock_state(&shared.state);
        if panicked {
            state.panicked = true;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// Process-wide executor, sized by the host's available parallelism. Built
/// lazily on first stacked batch.
/// Under Miri it is always single-worker (inline): the detached global pool
/// would otherwise trip the interpreter's thread-leak check at exit, and
/// explicit pools in tests cover the threaded paths natively and under
/// TSan.
pub fn global() -> &'static BatchExecutor {
    static GLOBAL: OnceLock<BatchExecutor> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let workers = if cfg!(miri) {
            1
        } else {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        BatchExecutor::new(workers)
    })
}

/// Best-effort pin of the calling thread to `core` (modulo the cpu count
/// baked into the 1024-bit mask). Linux/x86_64 only — the workspace vendors
/// no libc, so this is the raw `sched_setaffinity` syscall; everywhere else
/// (and under Miri, which interprets no inline asm) it is a no-op.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
fn pin_to_core(core: usize) -> bool {
    // Standard 1024-bit cpu_set_t.
    let mut mask = [0u64; 16];
    let bit = core % 1024;
    mask[bit / 64] |= 1u64 << (bit % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity (nr 203 on x86_64) with pid 0 targets the
    // calling thread; the kernel reads exactly `rsi` bytes from the pointer
    // in `rdx`, which points at a live 128-byte local. The asm clobbers
    // only rcx/r11 (declared) and rax (the return slot).
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret,
            in("rdi") 0usize,
            in("rsi") mask.len() * 8,
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
fn pin_to_core(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn partition_is_contiguous_and_exhaustive() {
        for rows in 0..40 {
            for workers in 1..9 {
                let mut next = 0;
                for idx in 0..workers {
                    let (start, end) = BatchExecutor::partition(rows, workers, idx);
                    assert_eq!(start, next, "gap at worker {idx} ({rows}/{workers})");
                    assert!(end >= start);
                    next = end;
                }
                assert_eq!(next, rows, "partition must cover all rows");
            }
        }
    }

    #[test]
    fn runs_every_row_exactly_once() {
        let exec = BatchExecutor::new(3);
        let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        exec.run_rows(37, |_w, start, end| {
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn small_batches_run_inline_on_caller() {
        let exec = BatchExecutor::new(4);
        let caller = thread::current().id();
        let seen = Mutex::new(None);
        exec.run_rows(MIN_PARALLEL_ROWS - 1, |w, start, end| {
            *seen.lock().unwrap_or_else(|p| p.into_inner()) =
                Some((w, start, end, thread::current().id()));
        });
        let got = seen
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .expect("inline closure must run");
        assert_eq!(got, (0, 0, MIN_PARALLEL_ROWS - 1, caller));
    }

    #[test]
    fn worker_panic_reraises_after_completion() {
        let exec = BatchExecutor::new(2);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.run_rows(MIN_PARALLEL_ROWS * 2, |w, _start, _end| {
                if w == 0 {
                    panic!("boom");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err(), "dispatcher must re-raise worker panics");
        assert_eq!(done.load(Ordering::SeqCst), 1, "other workers still ran");
        // The pool survives a panicked generation.
        let count = AtomicUsize::new(0);
        exec.run_rows(MIN_PARALLEL_ROWS * 2, |_w, start, end| {
            count.fetch_add(end - start, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), MIN_PARALLEL_ROWS * 2);
    }

    #[test]
    fn repeated_dispatches_are_stable() {
        let exec = BatchExecutor::new(4);
        for round in 0..200 {
            let sum = AtomicUsize::new(0);
            exec.run_rows(MIN_PARALLEL_ROWS + round % 13, |_w, start, end| {
                sum.fetch_add(end - start, Ordering::SeqCst);
            });
            assert_eq!(sum.load(Ordering::SeqCst), MIN_PARALLEL_ROWS + round % 13);
        }
    }
}
