//! Deterministic fan-out for grid-shaped workloads on one persistent pool.
//!
//! Heatmaps, coverage objectives and random search all evaluate the same
//! pure function over many independent inputs. [`par_map`] splits the
//! inputs into contiguous chunks, runs the chunks on a process-wide worker
//! pool and reassembles the results **in chunk order**, so the output is
//! bit-identical to a serial `items.iter().map(f).collect()` — each item's
//! computation is untouched, only *where* it runs changes. No determinism
//! is traded for the speedup. [`par_map_mut_with_threads`] is the same
//! fan-out over `&mut` items (the sharded kernel's shards).
//!
//! **The pool.** Its workers start lazily, once per process, on the first
//! call that fans out: [`configured_threads`]` - 1` named threads
//! (`surfos-pool-K`) that park on a condvar between jobs and never spin.
//! The caller runs chunks too, so a fan-out uses `configured_threads()`
//! cores. Chunks are claimed in index order by whichever participant is
//! free, so a chunk count above the pool size (an explicit `threads`
//! argument) still works — more chunks than threads, same results.
//!
//! **Inline rule.** A fan-out that finds the pool busy — called from
//! inside a chunk (nested), or while another thread's fan-out holds the
//! pool — runs its chunks inline on the calling thread, in chunk order.
//! That cannot deadlock and never oversubscribes the cores; the results
//! are the same bits either way.
//!
//! **Panics.** A panic in any chunk, on a worker or on the caller, is
//! caught, every other chunk still runs to completion, and the first panic
//! is re-raised on the caller. The pool and its lock survive it: the next
//! call fans out as before.
//!
//! **Observability.** Every chunk runs [`surfos_obs::detached`] — root span
//! path, no label scope — as it did when each chunk had a fresh thread, so
//! metric keys and span paths do not depend on which thread ran a chunk or
//! on whether the pool was busy.
//!
//! **Thread count.** [`configured_threads`] is `SURFOS_THREADS` if set
//! (clamped to `1..=`[`MAX_THREADS`]; unparsable or zero values fall back
//! to the hardware count), otherwise `std::thread::available_parallelism`.
//! It is resolved **once per process**: later changes to the environment
//! are not seen. `SURFOS_THREADS=1` starts no worker and makes every
//! fan-out serial; the shard-scaling benches and the CI
//! single-shard-equivalence arm pin it so worker counts are deterministic
//! across machines. Small inputs short-circuit to the serial path: for a
//! handful of items the hand-off costs more than the work.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// Minimum items per worker before fan-out is worth the hand-off cost.
const MIN_ITEMS_PER_THREAD: usize = 4;

/// Upper clamp on `SURFOS_THREADS`: a stray huge override (or a unit typo
/// like `1000000`) must not translate into an unbounded spawn storm.
pub const MAX_THREADS: usize = 256;

/// The worker count for `work` items: [`configured_threads`], never more
/// than the work supports (at least `MIN_ITEMS_PER_THREAD` items each).
pub fn thread_count(work: usize) -> usize {
    configured_threads().min(work.div_ceil(MIN_ITEMS_PER_THREAD).max(1))
}

/// The configured worker count, pool workers plus the caller:
/// `SURFOS_THREADS` if set (clamped to `1..=`[`MAX_THREADS`]), otherwise
/// the machine's available parallelism. Read once per process. Unlike
/// [`thread_count`] there is no per-item work floor — a handful of kernel
/// shards each worth milliseconds should still fan out.
pub fn configured_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("SURFOS_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .map(|n| n.min(MAX_THREADS))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Parallel map with output in input order (bit-identical to serial).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, || (), |(), item| f(item))
}

/// [`par_map`] with per-chunk scratch state: `init` runs once per chunk
/// (and once total on the serial path), and each call of `f` may mutate it.
/// This is how callers hoist a per-item allocation — e.g. a cloned receiver
/// template — out of the loop without sharing it across threads.
pub fn par_map_with<T, S, U, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    par_map_with_threads(items, thread_count(items.len()), init, f)
}

/// [`par_map_with`] split into `threads` chunks; `threads <= 1` is the
/// plain serial map. Exposed so tests can pin chunk counts without racing
/// on the process environment.
pub fn par_map_with_threads<T, S, U, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        surfos_obs::observe("channel.par.threads", 1);
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    surfos_obs::observe("channel.par.threads", threads as u64);
    let chunks = items.chunks(items.len().div_ceil(threads)).collect();
    fan_out(chunks, |w, chunk: &[T]| {
        let t0 = surfos_obs::enabled().then(std::time::Instant::now);
        let mut state = init();
        let results = chunk
            .iter()
            .map(|item| f(&mut state, item))
            .collect::<Vec<U>>();
        if let Some(t0) = t0 {
            // Per-chunk attribution: chunk index is the label, so a
            // straggling chunk shows up as a fat
            // channel.par.chunk_ns{worker=K} tail. The scope is opened
            // *after* the work so items recorded inside `f` keep their own
            // labels (e.g. shard ids).
            let _w = surfos_obs::scoped(&[("worker", w)]);
            surfos_obs::observe("channel.par.chunk_items", chunk.len() as u64);
            surfos_obs::observe_ns("channel.par.chunk_ns", t0.elapsed().as_nanos() as u64);
        }
        results
    })
}

/// Runs `f` once per item of a mutable slice, split into `threads`
/// chunks, results in item order. `threads <= 1` is the plain serial loop.
/// Bit-identical either way as long as `f` touches only its own item.
pub fn par_map_mut_with_threads<T, U, F>(items: &mut [T], threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&mut T) -> U + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let chunks = items.chunks_mut(chunk_len).collect();
    fan_out(chunks, |_, chunk: &mut [T]| {
        chunk.iter_mut().map(&f).collect()
    })
}

/// Runs `run(index, chunk)` for every chunk on the pool and concatenates
/// the outputs in chunk order. Each chunk runs detached from the running
/// thread's spans and labels. Re-raises the first chunk panic after every
/// chunk has finished.
fn fan_out<C, U, R>(chunks: Vec<C>, run: R) -> Vec<U>
where
    C: Send,
    U: Send,
    R: Fn(usize, C) -> Vec<U> + Sync,
{
    let inputs: Vec<Mutex<Option<C>>> = chunks.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let outputs: Vec<Mutex<Option<Vec<U>>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let run_chunk = |i: usize| {
        let chunk = lock(&inputs[i]).take().expect("each chunk is claimed once");
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let _root = surfos_obs::detached();
            run(i, chunk)
        }));
        match result {
            Ok(out) => *lock(&outputs[i]) = Some(out),
            Err(payload) => {
                lock(&panicked).get_or_insert(payload);
            }
        }
    };
    pool().run(inputs.len(), &run_chunk);
    if let Some(payload) = into_inner(panicked) {
        panic::resume_unwind(payload);
    }
    outputs
        .into_iter()
        .flat_map(|slot| into_inner(slot).expect("every chunk ran"))
        .collect()
}

/// Locks ignoring poison: every critical section here leaves its data
/// consistent, and chunk panics are caught before they cross a lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// One fan-out in flight: `chunks` calls of `run`, claimed through `next`.
struct Job<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    chunks: usize,
    next: AtomicUsize,
}

impl Job<'_> {
    /// Claims and runs chunks until none is left. `run` never unwinds
    /// (`fan_out` catches chunk panics), so neither does this.
    fn drain(&self) {
        loop {
            // Relaxed: the counter only hands out indices; chunk inputs and
            // outputs travel through their own mutexes.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            (self.run)(i);
        }
    }
}

/// A [`Job`] pointer handed to the workers. The caller keeps the job alive
/// until every worker that picked it up has let go (`Shared::active`).
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

// SAFETY: the pointee is `Sync` (atomics and a `Sync` closure) and outlives
// every worker's use of it: see `Pool::run`.
unsafe impl Send for JobPtr {}

struct Shared {
    /// The job workers may join; `None` between fan-outs.
    job: Option<JobPtr>,
    /// Bumped per job, so a worker joins each job at most once.
    epoch: u64,
    /// Workers currently inside the job.
    active: usize,
}

struct Pool {
    /// Worker threads asked for (`configured_threads() - 1`). A refused
    /// spawn leaves fewer running; the caller then drains more chunks.
    workers: usize,
    /// Held by the calling thread for a whole fan-out; a fan-out that
    /// cannot take it runs inline.
    gate: Mutex<()>,
    shared: Mutex<Shared>,
    /// Signals workers that a job was posted.
    posted: Condvar,
    /// Signals the caller that the last worker left the job.
    left: Condvar,
}

/// The process-wide pool; the first call starts its workers.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static STARTED: OnceLock<()> = OnceLock::new();
    let pool = POOL.get_or_init(|| Pool {
        workers: configured_threads() - 1,
        gate: Mutex::new(()),
        shared: Mutex::new(Shared {
            job: None,
            epoch: 0,
            active: 0,
        }),
        posted: Condvar::new(),
        left: Condvar::new(),
    });
    STARTED.get_or_init(|| {
        for k in 1..=pool.workers {
            // Workers live as long as the process and never unwind (chunk
            // panics are caught inside the job), so they are not joined.
            // A refused spawn only means fewer participants, never a lost
            // chunk: the caller drains whatever no worker claims.
            let _ = std::thread::Builder::new()
                .name(format!("surfos-pool-{k}"))
                .spawn(move || pool.work());
        }
    });
    pool
}

impl Pool {
    /// A worker's life: park until a new job is posted, help drain it,
    /// report leaving, repeat.
    fn work(&self) {
        let mut seen = 0;
        let mut shared = lock(&self.shared);
        loop {
            match shared.job {
                Some(job) if shared.epoch != seen => {
                    seen = shared.epoch;
                    shared.active += 1;
                    drop(shared);
                    // SAFETY: `run` keeps the job alive until `active` is
                    // back to zero, and we decrement only after this call.
                    unsafe { (*job.0).drain() };
                    shared = lock(&self.shared);
                    shared.active -= 1;
                    if shared.active == 0 {
                        self.left.notify_one();
                    }
                }
                _ => {
                    shared = self
                        .posted
                        .wait(shared)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }

    /// Runs `run(0..chunks)` to completion on the pool, or inline when the
    /// pool has no workers or is busy (nested or concurrent fan-out).
    fn run(&self, chunks: usize, run: &(dyn Fn(usize) + Sync)) {
        let gate = if self.workers == 0 || chunks <= 1 {
            None
        } else {
            match self.gate.try_lock() {
                Ok(gate) => Some(gate),
                Err(TryLockError::Poisoned(gate)) => Some(gate.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            }
        };
        let Some(_gate) = gate else {
            (0..chunks).for_each(run);
            return;
        };
        let job = Job {
            run,
            chunks,
            next: AtomicUsize::new(0),
        };
        {
            let mut shared = lock(&self.shared);
            // Only the lifetime is erased; `job` outlives the workers' use.
            shared.job = Some(JobPtr((&job as *const Job<'_>).cast::<Job<'static>>()));
            shared.epoch += 1;
        }
        self.posted.notify_all();
        job.drain();
        // Withdraw the job so no late worker joins, then wait for the ones
        // inside it: after this, nothing refers to `job`.
        let mut shared = lock(&self.shared);
        shared.job = None;
        while shared.active > 0 {
            shared = self
                .left
                .wait(shared)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(x: &f64) -> f64 {
        // Enough float ops that any reassociation would show up.
        (0..32).fold(*x, |acc, i| (acc * 1.000_1 + i as f64).sin())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Serializes the tests below that need the pool to themselves.
    static POOL_TESTS: Mutex<()> = Mutex::new(());

    /// Whether this host's pool can fan out at all (`SURFOS_THREADS=1` or
    /// a 1-core host starts no worker).
    fn pool_has_workers() -> bool {
        pool().workers > 0
    }

    /// A one-shot flag a chunk can wait on, with a timeout.
    #[derive(Default)]
    struct Signal {
        set: Mutex<bool>,
        cv: Condvar,
    }

    impl Signal {
        fn set(&self) {
            *lock(&self.set) = true;
            self.cv.notify_all();
        }

        fn is_set(&self) -> bool {
            *lock(&self.set)
        }

        fn wait(&self) -> bool {
            let timeout = std::time::Duration::from_millis(250);
            let (set, _) = self
                .cv
                .wait_timeout_while(lock(&self.set), timeout, |set| !*set)
                .unwrap_or_else(PoisonError::into_inner);
            *set
        }
    }

    /// One two-chunk fan-out in which the caller's chunk blocks until a
    /// pool worker has claimed the other chunk, then `on_worker` runs on
    /// that worker. Returns `None` when no worker ever claimed a chunk
    /// (the pool was busy, so the fan-out ran inline), else whether the
    /// fan-out panicked and with what message.
    fn fan_out_to_a_worker(on_worker: impl Fn() + Sync) -> Option<Result<(), String>> {
        let caller = std::thread::current().id();
        let claimed = Signal::default();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map_with_threads(
                &[0, 1],
                2,
                || (),
                |(), _| {
                    if std::thread::current().id() == caller {
                        claimed.wait()
                    } else {
                        claimed.set();
                        on_worker();
                        true
                    }
                },
            )
        }));
        match result {
            Ok(ran) if ran.contains(&false) => None,
            Ok(_) => Some(Ok(())),
            Err(err) => Some(Err(err
                .downcast_ref::<&str>()
                .map_or_else(String::new, |m| (*m).to_owned()))),
        }
    }

    /// Retries `fan_out_to_a_worker` until a worker took part; another
    /// test's fan-out may hold the pool for a moment.
    fn on_a_worker(on_worker: impl Fn() + Sync) -> Result<(), String> {
        (0..20)
            .find_map(|_| fan_out_to_a_worker(&on_worker))
            .expect("no fan-out ever reached a pool worker")
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let items: Vec<f64> = (0..257).map(|i| i as f64 * 0.37).collect();
        let serial: Vec<f64> = items.iter().map(work).collect();
        for threads in [2, 3, 4, 7, 16] {
            let par = par_map_with_threads(&items, threads, || (), |(), x| work(x));
            assert_eq!(bits(&serial), bits(&par), "threads={threads}");
        }
    }

    #[test]
    fn mutable_fan_out_matches_serial() {
        let mut items: Vec<f64> = (0..37).map(|i| i as f64 * 0.91).collect();
        let mut serial = items.clone();
        let want: Vec<f64> = serial
            .iter_mut()
            .map(|x| {
                *x = work(x);
                *x * 2.0
            })
            .collect();
        let got = par_map_mut_with_threads(&mut items, 5, |x| {
            *x = work(x);
            *x * 2.0
        });
        assert_eq!(bits(&want), bits(&got));
        assert_eq!(bits(&serial), bits(&items));
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<f64> = par_map(&[], work);
        assert!(empty.is_empty());
        let one = par_map_with_threads(&[2.0], 8, || (), |(), x| work(x));
        assert_eq!(one, vec![work(&2.0)]);
    }

    #[test]
    fn per_worker_state_initialised_per_chunk() {
        // Each chunk's state starts fresh; the per-item result must not
        // depend on which chunk the item landed in.
        let items: Vec<usize> = (0..100).collect();
        let via_state = |threads| {
            par_map_with_threads(
                &items,
                threads,
                || Vec::<u8>::with_capacity(16),
                |scratch: &mut Vec<u8>, &i| {
                    scratch.clear();
                    scratch.extend_from_slice(&(i as u32).to_be_bytes());
                    scratch.iter().map(|&b| b as usize).sum::<usize>()
                },
            )
        };
        assert_eq!(via_state(1), via_state(6));
    }

    #[test]
    fn thread_count_respects_small_work() {
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(4) <= 1 + 4 / MIN_ITEMS_PER_THREAD);
        assert!(thread_count(10_000) >= 1);
        assert!(thread_count(10_000) <= configured_threads());
    }

    #[test]
    fn caller_chunk_panic_reaches_caller_after_all_chunks() {
        let _x = lock(&POOL_TESTS);
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..6).collect();
        // Chunks off the caller thread wait (with a timeout) until the
        // caller's first chunk has failed, so workers cannot claim every
        // chunk before the caller drains one. Retried in case the caller
        // was held off past every timeout all the same.
        let attempt = || {
            let failed = Signal::default();
            let finished = AtomicUsize::new(0);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                par_map_with_threads(
                    &items,
                    items.len(),
                    || (),
                    |(), x| {
                        if std::thread::current().id() == caller && !failed.is_set() {
                            failed.set();
                            panic!("caller chunk failed");
                        }
                        failed.wait();
                        finished.fetch_add(1, Ordering::Relaxed);
                        x * 3
                    },
                )
            }));
            result.err().map(|err| (err, finished.into_inner()))
        };
        let (err, finished) = (0..20)
            .find_map(|_| attempt())
            .expect("no chunk ever ran on the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"caller chunk failed"));
        // Every other chunk ran to completion before the re-raise.
        assert_eq!(finished, items.len() - 1);
    }

    #[test]
    fn worker_chunk_panic_reaches_caller_and_pool_keeps_fanning_out() {
        if !pool_has_workers() {
            return;
        }
        let _x = lock(&POOL_TESTS);
        assert_eq!(
            on_a_worker(|| panic!("worker chunk failed")),
            Err("worker chunk failed".to_owned())
        );
        // The pool survived: the next call still reaches a worker rather
        // than running inline behind a poisoned gate, twice in a row.
        assert_eq!(on_a_worker(|| ()), Ok(()));
        assert_eq!(on_a_worker(|| ()), Ok(()));
    }

    #[test]
    fn concurrent_callers_both_get_serial_bits() {
        let items: Vec<f64> = (0..997).map(|i| i as f64 * 0.013).collect();
        let serial = bits(&items.iter().map(work).collect::<Vec<_>>());
        // Both callers start each round together: one gets the pool, the
        // other finds it busy and runs inline.
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let (items, start) = (items.clone(), start.clone());
                std::thread::spawn(move || {
                    (0..20)
                        .map(|_| {
                            start.wait();
                            bits(&par_map_with_threads(&items, 4, || (), |(), x| work(x)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for caller in callers {
            for run in caller.join().expect("caller thread") {
                assert_eq!(run, serial);
            }
        }
    }

    #[test]
    fn nested_fan_out_completes_inline() {
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|r| (0..40).map(|c| (r * 40 + c) as f64 * 0.07).collect())
            .collect();
        let serial: Vec<Vec<u64>> = rows
            .iter()
            .map(|row| bits(&row.iter().map(work).collect::<Vec<_>>()))
            .collect();
        let nested = par_map_with_threads(
            &rows,
            4,
            || (),
            |(), row| bits(&par_map_with_threads(row, 4, || (), |(), x| work(x))),
        );
        assert_eq!(nested, serial);
    }
}
