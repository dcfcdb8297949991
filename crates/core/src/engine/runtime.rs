//! The persistent engine runtime: worker pool + prepared-operand cache.
//!
//! The blocked engine used to rebuild its whole execution environment on
//! every call — resolve thread-count env vars, spawn a fresh
//! `thread::scope`, and re-pack every B panel. [`EngineRuntime`] hoists
//! all of that out of the call path:
//!
//! * **Worker pool** — a fixed set of parked threads created lazily and
//!   reused across calls. Dispatch hands the pool one type-erased job
//!   pointer (the engine's tile-claiming worker loop, or a B prepare's
//!   panel-claiming loop); workers claim it under a mutex, run it to
//!   completion, and park again. Preparing a B (or all of a split-K
//!   call's slices) is one job, and running a call's tiles (a batch's or
//!   a split-K call's included) is one more, so no engine path
//!   dispatches from inside a job. A call that
//!   finds the pool busy (another thread's dispatch, or a nested one)
//!   runs solo on its caller instead of waiting or deadlocking.
//! * **Environment** — `EGEMM_THREADS` / `RAYON_NUM_THREADS` and
//!   `EGEMM_CACHE_BYTES` are read once at runtime construction
//!   ([`RuntimeConfig::from_env`]), never per call.
//! * **Prepared-operand cache** — see the `cache` module: packed B panels
//!   keyed by content fingerprint, plus the explicit [`PreparedOperand`]
//!   handle for zero-lookup reuse.
//!
//! Every split the runtime issues (fused per-tile A packs and B panel
//! packs) dispatches [`egemm_fp::SplitKernel::Auto`], which is
//! bit-identical to the scalar split.
//!
//! None of this can change an output bit: the pool runs the exact worker
//! function `thread::scope` used to run (tile regions stay disjoint and
//! each element's accumulation order is fixed by the plan, not by the
//! thread that executes it), and the cache only decides whether
//! bit-identical preparation work is reused or redone.

use super::cache::{fingerprint, lock_unpoisoned, CacheKey, PanelCache};
use super::jit;
use super::pack::{BRows, PackedB, Panel};
use super::sched::{SchedCounters, SchedStats};
use crate::envcfg::{self, EnvNum};
use crate::telemetry;
use egemm_fp::SplitScheme;
use egemm_matrix::Matrix;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError, TryLockError};

pub use super::cache::CacheStats;

/// Cache key of `src` under `scheme` at panel depth `kc`: content
/// fingerprint + shape + layout.
fn key_of(src: &Matrix<f32>, scheme: SplitScheme, kc: usize) -> CacheKey {
    CacheKey {
        fp: fingerprint(src.as_slice()),
        rows: src.rows(),
        cols: src.cols(),
        scheme,
        kc,
    }
}

/// Wait on a condvar, recovering the guard if another holder panicked
/// (see [`lock_unpoisoned`] for why the data stays consistent).
fn wait_unpoisoned<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Construction-time parameters of an [`EngineRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Pool width: every call on this runtime (plain, batched or
    /// split-K) runs on at most this many threads, the caller included.
    /// Must be >= 1 (use [`RuntimeConfig::from_env`] to resolve from
    /// the environment).
    pub threads: usize,
    /// Byte bound of the prepared-operand cache; 0 disables retention
    /// (every call re-prepares, the reference cold path).
    pub cache_bytes: usize,
}

/// Default cache bound: 256 MiB of packed panels.
const DEFAULT_CACHE_BYTES: usize = 256 << 20;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            threads: 1,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }
}

impl RuntimeConfig {
    /// Resolve the configuration from the environment **once**.
    ///
    /// Pool-width fallback order:
    ///
    /// 1. `EGEMM_THREADS` — used as-is when set to a positive integer
    ///    (an explicit opt-in, allowed to oversubscribe the machine);
    /// 2. `RAYON_NUM_THREADS` — consulted next, same parsing rule, but
    ///    clamped to the machine's available parallelism (it usually
    ///    describes a rayon pool, not ours);
    /// 3. the machine's available parallelism (at least 1).
    ///
    /// A variable that is set but does not parse as a positive integer
    /// (garbage, negative, or `0`) is *skipped*, and a one-time warning
    /// naming the worker count the fall-through resolved to is printed
    /// to stderr. The same rule applies to
    /// `EGEMM_CACHE_BYTES` (cache byte bound), except there an explicit
    /// `0` is meaningful — it disables retention — so only unparsable
    /// values warn and fall back to the 256 MiB default.
    pub fn from_env() -> RuntimeConfig {
        static WARN_THREADS: Once = Once::new();
        static WARN_CACHE: Once = Once::new();
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut threads = 0usize;
        let mut ignored: Option<(&str, String)> = None;
        for var in ["EGEMM_THREADS", "RAYON_NUM_THREADS"] {
            match envcfg::read_usize(var) {
                EnvNum::Unset => {}
                EnvNum::Parsed(t, _) if t > 0 => {
                    threads = if var == "EGEMM_THREADS" {
                        t
                    } else {
                        t.min(avail)
                    };
                    break;
                }
                EnvNum::Parsed(_, raw) | EnvNum::Garbage(raw) => {
                    if ignored.is_none() {
                        ignored = Some((var, raw));
                    }
                }
            }
        }
        if threads == 0 {
            threads = avail;
        }
        if let Some((var, raw)) = ignored {
            envcfg::warn_once(&WARN_THREADS, || {
                format!(
                    "egemm: ignoring {var}={raw:?} (not a positive integer); \
                     resolved worker count: {threads}"
                )
            });
        }
        let cache_bytes = match envcfg::read_usize("EGEMM_CACHE_BYTES") {
            EnvNum::Unset => DEFAULT_CACHE_BYTES,
            EnvNum::Parsed(b, _) => b,
            EnvNum::Garbage(raw) => {
                envcfg::warn_once(&WARN_CACHE, || {
                    format!(
                        "egemm: ignoring EGEMM_CACHE_BYTES={raw:?} (not an integer); \
                         using the {DEFAULT_CACHE_BYTES}-byte default"
                    )
                });
                DEFAULT_CACHE_BYTES
            }
        };
        RuntimeConfig {
            threads,
            cache_bytes,
        }
    }
}

/// A B operand packed whole into panel slivers: the only B a
/// [`crate::GemmPlan`] takes. [`crate::prepare_b`] (and
/// [`crate::Egemm::prepare`]) pack raw f32 through the cache, and
/// [`crate::prepare_b_rows`] packs a row range of raw f32 past it; both
/// split B while they pack it. The handle pins its data: it stays valid
/// even after cache eviction.
#[derive(Clone)]
pub struct PreparedOperand {
    pub(crate) packed: Arc<PackedB>,
    pub(crate) scheme: SplitScheme,
}

impl PreparedOperand {
    /// The split scheme the operand was prepared with.
    pub fn scheme(&self) -> SplitScheme {
        self.scheme
    }

    /// Reduction depth (B rows) of the prepared operand.
    pub fn rows(&self) -> usize {
        self.packed.k()
    }

    /// Output columns (B columns) of the prepared operand.
    pub fn cols(&self) -> usize {
        self.packed.n()
    }

    /// Resident bytes this handle pins (both packed planes).
    pub fn bytes(&self) -> usize {
        self.packed.bytes()
    }
}

impl std::fmt::Debug for PreparedOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedOperand")
            .field("rows", &self.rows())
            .field("cols", &self.cols())
            .field("scheme", &self.scheme)
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Persistent execution state shared by every GEMM issued through one
/// [`crate::Egemm`] (or through the process-wide [`EngineRuntime::global`]).
pub struct EngineRuntime {
    default_threads: usize,
    cache: PanelCache,
    jit: jit::KernelCache,
    sched: SchedCounters,
    pool: Pool,
}

impl std::fmt::Debug for EngineRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRuntime")
            .field("default_threads", &self.default_threads)
            .field("cache_stats", &self.cache.stats())
            .field("sched_stats", &self.sched.snapshot())
            .finish()
    }
}

impl EngineRuntime {
    /// Build a runtime with explicit parameters. Workers are spawned
    /// lazily on first multi-threaded dispatch and parked between calls.
    pub fn new(cfg: RuntimeConfig) -> Arc<EngineRuntime> {
        // First runtime construction is the natural "before any engine
        // work" point to honour EGEMM_TRACE and EGEMM_PROBE_RATE.
        telemetry::init_from_env();
        telemetry::probe::init_from_env();
        Arc::new(EngineRuntime {
            default_threads: cfg.threads.max(1),
            cache: PanelCache::new(cfg.cache_bytes),
            jit: jit::KernelCache::new(),
            sched: SchedCounters::default(),
            pool: Pool::new(),
        })
    }

    /// The process-wide runtime, configured from the environment exactly
    /// once ([`RuntimeConfig::from_env`]). Every [`crate::Egemm`] uses it
    /// unless given a private runtime via [`crate::Egemm::with_runtime`].
    pub fn global() -> &'static Arc<EngineRuntime> {
        static GLOBAL: OnceLock<Arc<EngineRuntime>> = OnceLock::new();
        GLOBAL.get_or_init(|| EngineRuntime::new(RuntimeConfig::from_env()))
    }

    /// Pool width: the most threads any call on this runtime runs on.
    pub fn default_threads(&self) -> usize {
        self.default_threads
    }

    /// Lifetime cache counters (hits/misses/evictions/resident bytes,
    /// plus how many packs actually executed, plus the compiled-kernel
    /// cache's compiles/hits/compile-time/code-bytes).
    pub fn cache_stats(&self) -> CacheStats {
        let mut s = self.cache.stats();
        self.jit.fill_stats(&mut s);
        s
    }

    /// The compiled-kernel cache, `Some` only when this process can run
    /// JIT kernels at all (x86-64 Linux with AVX and FMA, and `EGEMM_JIT`
    /// on); callers holding `None` run `micro::interpret` on every tile.
    pub(crate) fn jit_cache(&self) -> Option<&jit::KernelCache> {
        if self.jit.isa().is_some() {
            Some(&self.jit)
        } else {
            None
        }
    }

    /// Lifetime scheduler counters: steals and the tiles they moved.
    /// Both monotone; take deltas ([`SchedStats::delta_since`]) for
    /// per-call views.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.snapshot()
    }

    /// The atomic counters workers update during a dispatch.
    pub(crate) fn sched_counters(&self) -> &SchedCounters {
        &self.sched
    }

    /// Pack `src`'s B panels straight from the raw f32 data for
    /// blocking depth `kc` (already clamped to the chunk grid), through
    /// the cache: a content-fingerprint hit skips the pack, and a miss
    /// packs into the planes of the entry it evicts when nobody holds
    /// them. A runtime that keeps nothing (`cache_bytes == 0`) packs
    /// without fingerprinting.
    pub(crate) fn prepare_b(
        &self,
        src: &Matrix<f32>,
        scheme: SplitScheme,
        kc: usize,
    ) -> PreparedOperand {
        let packed = self.cache.get_or_pack(
            || key_of(src, scheme, kc),
            |planes| {
                let rows = BRows::raw(src, 0..src.rows());
                let mut op = [(PackedB::new(rows.k, rows.n, kc, planes), rows)];
                self.pack_panels(&mut op, scheme);
                let [(packed, _)] = op;
                packed
            },
        );
        PreparedOperand { packed, scheme }
    }

    /// Pack each of `srcs` whole at depth `kc`, past the cache, with all
    /// their panels in one claim list.
    pub(crate) fn prepare_uncached(
        &self,
        srcs: &[BRows<'_>],
        scheme: SplitScheme,
        kc: usize,
    ) -> Vec<PreparedOperand> {
        let mut ops: Vec<_> = srcs
            .iter()
            .map(|&rows| (PackedB::new(rows.k, rows.n, kc, None), rows))
            .collect();
        self.pack_panels(&mut ops, scheme);
        ops.into_iter()
            .map(|(packed, _)| PreparedOperand {
                packed: Arc::new(packed),
                scheme,
            })
            .collect()
    }

    /// Pack every panel of `ops` (each a sized [`PackedB`] and the rows
    /// it is packed from) on up to this runtime's width: the
    /// participants pop panels from one list until it is empty, one
    /// panel per claim. Panels fill disjoint plane ranges, so which
    /// participant packs one cannot change a bit. A 1-worker runtime, or
    /// a single panel in all, packs inline on the caller, with no
    /// dispatch and no list.
    pub(crate) fn pack_panels(&self, ops: &mut [(PackedB, BRows<'_>)], scheme: SplitScheme) {
        let count: usize = ops.iter().map(|(packed, _)| packed.panel_count()).sum();
        let panels = ops
            .iter_mut()
            .flat_map(|(packed, rows)| packed.panels(*rows, scheme));
        let width = self.default_threads.min(count);
        if width <= 1 {
            panels.for_each(Panel::pack);
            return;
        }
        let list = Mutex::new(panels.collect::<Vec<_>>());
        self.run_parallel(width, &|| loop {
            // The guard is dropped before the pack, so claims never wait
            // on another participant's pack.
            let next = lock_unpoisoned(&list).pop();
            match next {
                Some(panel) => panel.pack(),
                None => break,
            }
        });
    }

    /// Run `f` on `workers` threads: the caller plus `workers - 1` pool
    /// workers. Returns when every participant has returned. If the pool
    /// is already dispatching (a call from another thread, or a nested
    /// call from inside a job), the caller runs `f` alone — same
    /// results, since every engine job is a claim loop over a shared
    /// tile grid.
    ///
    /// A panic inside `f` (on any participant) is re-raised here, on the
    /// submitting thread, after every other participant has drained —
    /// the pool itself stays healthy and accepts the next dispatch.
    pub(crate) fn run_parallel(&self, workers: usize, f: &(dyn Fn() + Sync)) {
        if workers <= 1 {
            f();
            return;
        }
        // A previous dispatcher that panicked poisons this mutex as it
        // unwinds; the lock guards no data, so recover rather than
        // degrade every later call to solo.
        let _dispatch = match self.pool.dispatch.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                f();
                return;
            }
        };
        let t_dispatch = telemetry::span_start();
        self.pool.run(workers - 1, f);
        telemetry::span_end(telemetry::Phase::Dispatch, t_dispatch, workers as u64);
    }
}

impl Drop for EngineRuntime {
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

/// Type-erased pointer to the per-call job closure. The dispatcher keeps
/// the closure alive (and its borrows valid) until every claimant has
/// finished, which `Pool::run` enforces before returning.
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Fn() + Sync));
// SAFETY: the pointee is `Sync`, so calling it from another thread is
// sound, and `Pool::run` keeps it alive until every worker that could
// have read the pointer has finished with it.
unsafe impl Send for JobRef {}
// SAFETY: a `JobRef` only hands out shared calls of a `Sync` closure;
// sharing the pointer between workers adds no access the closure does
// not already allow.
unsafe impl Sync for JobRef {}

struct PoolState {
    /// Current job, present only while a dispatch is in flight.
    job: Option<JobRef>,
    /// Bumped per dispatch so parked workers can tell a new job from a
    /// spurious wakeup or an already-drained one.
    epoch: u64,
    /// Claims still available for the current job.
    unclaimed: usize,
    /// Workers currently inside the current job.
    active: usize,
    /// Worker threads spawned so far.
    spawned: usize,
    /// First panic payload raised by a worker inside the current job;
    /// collected by the dispatcher after the drain and re-raised on the
    /// submitting thread.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

/// Parked-thread worker pool. One job at a time (serialized by
/// `dispatch`); workers live for the runtime's lifetime.
struct Pool {
    /// Serializes dispatches; `try_lock` failure = pool busy.
    dispatch: Mutex<()>,
    state: Arc<(Mutex<PoolState>, Condvar, Condvar)>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            dispatch: Mutex::new(()),
            state: Arc::new((
                Mutex::new(PoolState {
                    job: None,
                    epoch: 0,
                    unclaimed: 0,
                    active: 0,
                    spawned: 0,
                    panic: None,
                    shutdown: false,
                }),
                Condvar::new(), // work: workers park here
                Condvar::new(), // done: dispatcher parks here
            )),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Dispatch `f` to `helpers` workers and run it on the calling
    /// thread too; return once all participants have finished. Caller
    /// must hold the `dispatch` lock. A panic on any participant is
    /// re-raised here after the drain (dispatcher's own panic first),
    /// leaving the pool ready for the next dispatch.
    fn run(&self, helpers: usize, f: &(dyn Fn() + Sync)) {
        self.ensure_workers(helpers);
        let (lock, work, done) = &*self.state;
        {
            let mut st = lock_unpoisoned(lock);
            // SAFETY: erasing the borrow lifetime is sound because this
            // function does not return until `unclaimed` and `active`
            // are both zero, i.e. no worker can still reach the pointer.
            let erased: &'static (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(f) };
            st.job = Some(JobRef(erased as *const _));
            st.epoch += 1;
            st.unclaimed = helpers;
            st.panic = None;
            work.notify_all();
        }
        // The dispatcher is a full participant. Catch its panic so the
        // drain below always runs — returning (or unwinding) before
        // `unclaimed` and `active` hit zero would free the closure while
        // workers still hold the type-erased pointer to it.
        let own_panic = catch_unwind(AssertUnwindSafe(f)).err();
        let mut st = lock_unpoisoned(lock);
        while st.unclaimed > 0 || st.active > 0 {
            st = wait_unpoisoned(done, st);
        }
        st.job = None;
        let worker_panic = st.panic.take();
        drop(st);
        if let Some(p) = own_panic.or(worker_panic) {
            resume_unwind(p);
        }
    }

    /// Grow the pool to at least `n` parked workers.
    fn ensure_workers(&self, n: usize) {
        let missing = {
            let st = lock_unpoisoned(&self.state.0);
            n.saturating_sub(st.spawned)
        };
        if missing == 0 {
            return;
        }
        let mut handles = lock_unpoisoned(&self.handles);
        let mut st = lock_unpoisoned(&self.state.0);
        while st.spawned < n {
            let state = Arc::clone(&self.state);
            let h = std::thread::Builder::new()
                .name("egemm-engine".into())
                .spawn(move || worker_loop(&state))
                .expect("spawn engine worker");
            handles.push(h);
            st.spawned += 1;
        }
    }

    fn shutdown(&self) {
        {
            let mut st = lock_unpoisoned(&self.state.0);
            st.shutdown = true;
            self.state.1.notify_all();
        }
        for h in lock_unpoisoned(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(state: &(Mutex<PoolState>, Condvar, Condvar)) {
    let (lock, work, done) = state;
    let mut seen_epoch = 0u64;
    loop {
        let t_park = telemetry::span_start();
        let (job, epoch) = {
            let mut st = lock_unpoisoned(lock);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen_epoch {
                    seen_epoch = st.epoch;
                    if st.unclaimed > 0 {
                        st.unclaimed -= 1;
                        st.active += 1;
                        break (st.job.expect("claimable epoch must carry a job"), st.epoch);
                    }
                    // Late to the party: the job is fully claimed; skip
                    // this epoch and park again.
                }
                st = wait_unpoisoned(work, st);
            }
        };
        telemetry::span_end(telemetry::Phase::Park, t_park, epoch);
        // SAFETY: the dispatcher keeps the closure alive until
        // `unclaimed == 0 && active == 0`, and this worker is counted in
        // `active` for exactly the duration of this call.
        //
        // Catch the job's panic instead of unwinding out of the loop: an
        // unwound worker would leave `active` stuck above zero (hanging
        // the dispatcher forever) and shrink the pool for all later
        // calls. The payload is handed to the dispatcher, which re-raises
        // it on the submitting thread after the drain.
        let panic = catch_unwind(AssertUnwindSafe(|| unsafe { (&*job.0)() })).err();
        let mut st = lock_unpoisoned(lock);
        if let Some(p) = panic {
            st.panic.get_or_insert(p);
        }
        st.active -= 1;
        if st.unclaimed == 0 && st.active == 0 {
            done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_job_on_all_participants() {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 4,
            ..Default::default()
        });
        let counter = AtomicUsize::new(0);
        rt.run_parallel(4, &|| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        // Workers parked, reusable: dispatch again.
        rt.run_parallel(3, &|| {
            counter.fetch_add(10, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 34);
    }

    #[test]
    fn single_worker_runs_inline() {
        let rt = EngineRuntime::new(RuntimeConfig::default());
        let counter = AtomicUsize::new(0);
        rt.run_parallel(1, &|| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_dispatch_degrades_to_solo() {
        // A job that itself dispatches must not deadlock: the inner call
        // finds the pool busy and runs solo.
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            ..Default::default()
        });
        let counter = AtomicUsize::new(0);
        let rt2 = rt.clone();
        let inner_ran = &counter;
        rt.run_parallel(2, &|| {
            rt2.run_parallel(2, &|| {
                inner_ran.fetch_add(1, Ordering::SeqCst);
            });
        });
        // Outer job ran on 2 threads; each inner dispatch ran solo (1)
        // or, if the dispatch lock happened to be free again, on up to 2.
        let n = counter.load(Ordering::SeqCst);
        assert!((2..=4).contains(&n), "inner ran {n} times");
    }

    #[test]
    fn shutdown_joins_workers() {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 3,
            ..Default::default()
        });
        rt.run_parallel(3, &|| {});
        drop(rt); // must not hang
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        // Regression: a panicking job used to poison the pool state
        // mutex and leave `active` stuck, hanging or aborting every
        // later dispatch. Now the panic surfaces on the submitting
        // thread and the pool keeps working.
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 4,
            ..Default::default()
        });
        let hits = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            rt.run_parallel(4, &|| {
                // Exactly one participant blows up; the rest finish.
                if hits.fetch_add(1, Ordering::SeqCst) == 2 {
                    panic!("synthetic worker failure");
                }
            });
        }));
        let payload = caught.expect_err("the job's panic must reach the submitter");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(msg.contains("synthetic worker failure"), "payload: {msg}");
        // The pool must accept and complete subsequent dispatches on the
        // full complement of workers.
        for _ in 0..3 {
            let counter = AtomicUsize::new(0);
            rt.run_parallel(4, &|| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        }
        drop(rt); // shutdown must still join cleanly
    }

    #[test]
    fn dispatcher_panic_leaves_pool_usable() {
        // The submitting thread's own share of the job can panic too;
        // the drain must still run (workers hold a pointer into the
        // dispatcher's frame) and the next dispatch must succeed.
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            ..Default::default()
        });
        let main_id = std::thread::current().id();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            rt.run_parallel(2, &|| {
                if std::thread::current().id() == main_id {
                    panic!("dispatcher failure");
                }
            });
        }));
        assert!(caught.is_err());
        let counter = AtomicUsize::new(0);
        rt.run_parallel(2, &|| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn eviction_reuses_planes_only_when_nobody_holds_them() {
        use crate::{Egemm, TilingConfig};
        use egemm_tcsim::DeviceSpec;
        let egemm = |cache_bytes| {
            Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(EngineRuntime::new(
                RuntimeConfig {
                    threads: 1,
                    cache_bytes,
                },
            ))
        };
        // The bound holds one 64 x 64 pack: 2 planes x 64 x 64 x 4 B.
        let eg = egemm(2 * 4 * 64 * 64);
        let cold = egemm(0);
        let a = Matrix::<f32>::random_uniform(8, 64, 1);
        let b: Vec<Matrix<f32>> = (0..3)
            .map(|s| Matrix::<f32>::random_uniform(64, 64, 10 + s))
            .collect();
        let planes = |p: &PreparedOperand| {
            [false, true].map(|lo| p.packed.sliver_span(lo, 0, 1, 0, 1).as_ptr())
        };
        let bits = |d: Matrix<f32>| d.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let check = |p: &PreparedOperand, b: &Matrix<f32>| {
            assert_eq!(
                bits(eg.gemm_prepared(&a, p, None).d),
                bits(cold.gemm(&a, b).d)
            );
        };
        // b[0]'s pack is evicted while a handle pins it: b[1] packs into
        // fresh planes, and the held pack still reads b[0].
        let h0 = eg.prepare(&b[0]);
        let h1 = eg.prepare(&b[1]);
        assert_eq!(eg.runtime().cache_stats().evictions, 1);
        assert_ne!(planes(&h1), planes(&h0));
        check(&h0, &b[0]);
        check(&h1, &b[1]);
        // Once nobody holds b[1]'s pack, evicting it lends b[2] its planes.
        let reused = planes(&h1);
        drop((h0, h1));
        let h2 = eg.prepare(&b[2]);
        assert_eq!(planes(&h2), reused);
        check(&h2, &b[2]);
        let s = eg.runtime().cache_stats();
        assert_eq!((s.evictions, s.packs), (2, 3));
        assert_eq!(s.bytes, h2.bytes() as u64);
    }

    #[test]
    fn panel_depth_is_part_of_the_cache_key() {
        // One B at two panel depths is two entries: each depth misses
        // and packs once, and a later lookup at either depth hits its
        // own pack instead of repacking the other's.
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 1,
            ..Default::default()
        });
        let b = Matrix::<f32>::random_uniform(32, 16, 5);
        let depths = [8, 16, 8, 16];
        let packs = depths.map(|kc| rt.prepare_b(&b, SplitScheme::Round, kc));
        for (p, kc) in packs.iter().zip(depths) {
            assert_eq!(p.packed.kc(), kc);
        }
        assert!(Arc::ptr_eq(&packs[0].packed, &packs[2].packed));
        assert!(Arc::ptr_eq(&packs[1].packed, &packs[3].packed));
        let s = rt.cache_stats();
        assert_eq!((s.hits, s.misses, s.packs), (2, 2, 2));
        assert_eq!(s.bytes, 2 * packs[0].bytes() as u64);
    }

    #[test]
    fn global_runtime_resolves_env_once() {
        let a = EngineRuntime::global();
        let b = EngineRuntime::global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.default_threads() >= 1);
    }

    #[test]
    fn runtime_config_from_env_positive() {
        let cfg = RuntimeConfig::from_env();
        assert!(cfg.threads >= 1);
    }
}
