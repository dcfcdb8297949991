//! The server: admission, the bucketing scheduler thread, dispatch.

use crate::dedupe::{Admit, BucketKey, ResultKey, ResultTable};
use crate::queue::{lock_unpoisoned, AdmissionQueue, Pending, Ticket, TicketInner, Waiter};
use crate::request::{GemmRequest, JobKind, ServeError, ServeOutput};
use crate::stats::{ServeStats, StatsInner};
use egemm::telemetry::{self, GemmReport, RequestTrace};
use egemm::Egemm;
use egemm_matrix::{GemmShape, Matrix};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving policy knobs. Defaults suit an interactive mixed-shape load;
/// the serving tests shrink the queue and stretch the window to force
/// the backpressure paths deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Admission queue bound; a full queue answers [`ServeError::Busy`].
    pub queue_cap: usize,
    /// Most requests coalesced into one engine call.
    pub max_batch: usize,
    /// How long the scheduler lingers after waking before it drains the
    /// queue, letting concurrent submitters join the same dispatch
    /// cycle (and therefore the same buckets). Zero dispatches eagerly.
    pub batch_window: Duration,
    /// Accept non-finite (NaN/Inf) operand values. Off by default: a
    /// NaN poisons every product it touches, so the serving tier
    /// rejects it at validation rather than burn engine time.
    pub allow_nonfinite: bool,
    /// Byte budget of the memoized results in the content-addressed
    /// result table; `0` memoizes nothing. Identical concurrent
    /// requests coalesce into one engine dispatch at any budget: the
    /// key covers the full content of every operand, so outputs are
    /// bit-identical either way and only the work count changes.
    pub result_cache_bytes: usize,
}

/// Default result-cache budget: big enough to absorb a hot working set
/// of repeated requests, small next to the engine's packed-operand
/// cache (256 MiB).
const DEFAULT_RESULT_CACHE_BYTES: usize = 32 << 20;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_cap: 256,
            max_batch: 64,
            batch_window: Duration::ZERO,
            allow_nonfinite: false,
            result_cache_bytes: DEFAULT_RESULT_CACHE_BYTES,
        }
    }
}

pub(crate) struct ServerInner {
    engine: Egemm,
    cfg: ServerConfig,
    queue: AdmissionQueue,
    stats: StatsInner,
    /// Source of process-unique request ids (starts at 1; 0 is never a
    /// valid id, so exporters can treat it as "untracked").
    next_request_id: AtomicU64,
    /// Running primaries and memoized products, by content.
    table: ResultTable,
}

/// When and how one engine call ran, shared by every reply it produces.
#[derive(Clone, Copy)]
struct Dispatch<'a> {
    shape: GemmShape,
    batched_with: usize,
    report: Option<&'a Arc<GemmReport>>,
    dispatched_at: Instant,
    finished: Instant,
}

/// How a request's dispatch ended: its product, or why it got none.
type Outcome<'a> = Result<(Matrix<f32>, Dispatch<'a>), ServeError>;

impl ServerInner {
    /// Serve counters plus the counters other owners keep: the result
    /// table's memo, the queue's length, and the work-stealing
    /// scheduler's stolen-tile total on the shared runtime. Reading them
    /// at snapshot time covers every dispatch through this server's
    /// engine without counting any event twice.
    fn stats_snapshot(&self) -> ServeStats {
        let mut s = self.stats.snapshot();
        s.queue_depth = lock_unpoisoned(&self.queue.state).queue.len() as u64;
        let sched = self.engine.runtime().sched_stats();
        s.tiles_stolen = sched.tiles_stolen;
        let memo = self.table.stats();
        s.result_cache_hits = memo.hits;
        s.result_cache_misses = memo.misses;
        s.result_cache_evictions = memo.evictions;
        s.result_cache_bytes = memo.bytes;
        s
    }

    /// Answer one request with the outcome of the dispatch it rode, by
    /// the same rules for a dispatched request and a follower: an engine
    /// failure is counted, a product past the request's deadline is a
    /// timeout, and a served product records its latency.
    fn deliver(&self, w: Waiter, outcome: Outcome<'_>) {
        let (d, at) = match outcome {
            Ok(served) => served,
            Err(e) => {
                if matches!(e, ServeError::Engine(_)) {
                    StatsInner::bump(&self.stats.engine_failures);
                }
                w.ticket.fulfill(Err(e));
                return;
            }
        };
        if w.deadline.is_some_and(|dl| dl <= at.finished) {
            StatsInner::bump(&self.stats.timed_out_after);
            w.ticket.fulfill(Err(ServeError::TimedOut {
                after_dispatch: true,
            }));
            return;
        }
        let total_ns = at.finished.duration_since(w.admitted).as_nanos() as u64;
        self.stats.record_latency(total_ns);
        StatsInner::bump(&self.stats.completed);
        w.ticket.fulfill(Ok(ServeOutput {
            d,
            request_id: w.request_id,
            shape: at.shape,
            batched_with: at.batched_with,
            cached: false,
            queue_ns: at.dispatched_at.duration_since(w.admitted).as_nanos() as u64,
            total_ns,
            report: at.report.cloned(),
        }));
    }

    /// Answer a request that left the queue, resolving its key first if
    /// it is the primary.
    fn settle(&self, key: &ResultKey, primary: bool, w: Waiter, outcome: Outcome<'_>) {
        if primary {
            self.resolve(key, &outcome);
        }
        self.deliver(w, outcome);
    }

    /// Resolve primary `key` with its outcome: the table memoizes a
    /// product that fits its budget, and every follower is answered
    /// with its own copy of the outcome.
    fn resolve(&self, key: &ResultKey, outcome: &Outcome<'_>) {
        let followers = self
            .table
            .resolve(key, outcome.as_ref().ok().map(|(d, _)| d));
        // A follower never dispatched: it is answered now, and its whole
        // wait is queue time.
        let now = Instant::now();
        for w in followers {
            let copy = outcome.as_ref().map(|(d, at)| {
                let at = Dispatch {
                    dispatched_at: now,
                    finished: now,
                    ..*at
                };
                (d.clone(), at)
            });
            self.deliver(w, copy.map_err(ServeError::clone));
        }
    }
}

/// A running serving instance: one scheduler thread over one shared
/// [`Egemm`] (and therefore one persistent runtime: pool + cache).
/// Dropping the server performs a graceful shutdown — every admitted
/// request is answered before the scheduler exits.
pub struct Server {
    inner: Arc<ServerInner>,
    sched: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start a server around `engine`. The engine's runtime is shared
    /// by every dispatch, so bucket after bucket hits the same packed
    /// operand cache and parked worker pool.
    pub fn start(engine: Egemm, cfg: ServerConfig) -> Server {
        let inner = Arc::new(ServerInner {
            engine,
            queue: AdmissionQueue::new(cfg.queue_cap),
            stats: StatsInner::new(),
            next_request_id: AtomicU64::new(1),
            table: ResultTable::new(cfg.result_cache_bytes),
            cfg,
        });
        let sched_inner = Arc::clone(&inner);
        let sched = std::thread::Builder::new()
            .name("egemm-serve".into())
            .spawn(move || scheduler(&sched_inner))
            .expect("spawn serve scheduler");
        Server {
            inner,
            sched: Some(sched),
        }
    }

    /// A cloneable in-process submission handle.
    pub fn client(&self) -> Client {
        Client {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats_snapshot()
    }

    /// Graceful shutdown: stop admitting, drain everything already
    /// queued (every ticket is answered), join the scheduler.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.inner.queue.close();
        if let Some(h) = self.sched.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// In-process client handle. Clone freely; all clones feed one queue.
#[derive(Clone)]
pub struct Client {
    inner: Arc<ServerInner>,
}

impl Client {
    /// Validate and enqueue a request. Returns immediately: `Ok` with a
    /// [`Ticket`] to wait on, or the admission error ([`ServeError::Busy`],
    /// [`ServeError::Invalid`], [`ServeError::Shutdown`]).
    pub fn submit(&self, req: GemmRequest) -> Result<Ticket, ServeError> {
        let inner = &*self.inner;
        StatsInner::bump(&inner.stats.submitted);
        if let Err(msg) = validate(&req, inner.cfg.allow_nonfinite) {
            StatsInner::bump(&inner.stats.rejected_invalid);
            return Err(ServeError::Invalid(msg));
        }
        let admitted = Instant::now();
        let waiter = Waiter {
            ticket: TicketInner::new(),
            admitted,
            // A deadline past what `Instant` can represent never expires.
            deadline: req.deadline.and_then(|d| admitted.checked_add(d)),
            request_id: inner.next_request_id.fetch_add(1, Ordering::Relaxed),
            admitted_ns: telemetry::now_ns(),
        };
        let ticket = Ticket {
            inner: Arc::clone(&waiter.ticket),
        };

        // Content-address the request once; its bucket reuses the B
        // fingerprint, so operands are hashed exactly one time each.
        let key = ResultKey::of(&req);
        let primary = match inner.table.admit(key, &waiter) {
            // A memoized product answers without touching the queue at
            // all (and therefore works even under Busy).
            Admit::Hit(d) => {
                let total_ns = admitted.elapsed().as_nanos() as u64;
                inner.stats.record_latency(total_ns);
                StatsInner::bump(&inner.stats.completed);
                waiter.ticket.fulfill(Ok(ServeOutput {
                    d: (*d).clone(),
                    request_id: waiter.request_id,
                    shape: key.shape,
                    batched_with: 1,
                    cached: true,
                    queue_ns: 0,
                    total_ns,
                    report: None,
                }));
                return Ok(ticket);
            }
            // One dispatch of the running primary answers us too.
            Admit::Followed => {
                StatsInner::bump(&inner.stats.dedup_hits);
                StatsInner::bump(&inner.stats.admitted);
                return Ok(ticket);
            }
            Admit::Primary => true,
            Admit::Refused => false,
        };
        let pending = Pending {
            req,
            key,
            primary,
            waiter,
        };
        match inner.queue.push(pending) {
            Ok(()) => {
                StatsInner::bump(&inner.stats.admitted);
                Ok(ticket)
            }
            Err(e) => {
                if matches!(e, ServeError::Busy { .. }) {
                    StatsInner::bump(&inner.stats.rejected_busy);
                }
                // The primary never enqueued: clear its key and answer
                // any follower that attached meanwhile with the same
                // admission verdict.
                if primary {
                    inner.resolve(&key, &Err(e.clone()));
                }
                Err(e)
            }
        }
    }

    /// Submit and block for the response.
    pub fn call(&self, req: GemmRequest) -> Result<ServeOutput, ServeError> {
        self.submit(req)?.wait()
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats_snapshot()
    }

    /// The Prometheus text exposition this server answers `METRICS`
    /// with: the process-wide engine series in the registry, this
    /// server's serve counters ([`ServeStats::series`], the snapshot
    /// `STATS` renders), and its engine runtime's cache, JIT and
    /// scheduler counters, each read from the one place it is kept.
    pub fn metrics_text(&self) -> String {
        use egemm::telemetry::metrics::SeriesValue::{Counter, Gauge};
        let rt = self.inner.engine.runtime();
        let (cache, sched) = (rt.cache_stats(), rt.sched_stats());
        let runtime = [
            ("egemm_cache_hits", Gauge(cache.hits as i64)),
            ("egemm_cache_misses", Gauge(cache.misses as i64)),
            ("egemm_cache_resident_bytes", Gauge(cache.bytes as i64)),
            ("egemm_jit_code_bytes", Gauge(cache.jit_code_bytes as i64)),
            ("egemm_jit_compiles_total", Counter(cache.jit_compiles)),
            ("egemm_jit_cache_hits_total", Counter(cache.jit_hits)),
            ("egemm_sched_steals", Gauge(sched.steals as i64)),
            ("egemm_sched_tiles_stolen", Gauge(sched.tiles_stolen as i64)),
        ];
        let mut series = self.stats().series();
        series.extend(runtime.map(|(name, v)| (name.to_string(), v)));
        telemetry::render_prometheus(series)
    }

    /// The server's counters, for the network frontend's connection
    /// and backpressure counts.
    pub(crate) fn counters(&self) -> &StatsInner {
        &self.inner.stats
    }
}

/// Admission-time validation: shape agreement and the finite-value
/// policy. Anything the engine would reject by panicking *for this
/// request alone* (e.g. a split-K slice count out of range) is instead
/// left to the dispatch panic barrier, which converts it into a
/// per-request [`ServeError::Engine`].
fn validate(req: &GemmRequest, allow_nonfinite: bool) -> Result<(), String> {
    let (m, k) = (req.a.rows(), req.a.cols());
    let (kb, n) = (req.b.rows(), req.b.cols());
    if m == 0 || k == 0 || n == 0 {
        return Err(format!("degenerate operands: A {m}x{k}, B {kb}x{n}"));
    }
    if k != kb {
        return Err(format!(
            "inner dimensions disagree: A is {m}x{k}, B is {kb}x{n}"
        ));
    }
    if let Some(c) = &req.c {
        if (c.rows(), c.cols()) != (m, n) {
            return Err(format!("C is {}x{}, expected {m}x{n}", c.rows(), c.cols()));
        }
    }
    if !allow_nonfinite {
        for (name, mat) in [
            ("A", Some(&req.a)),
            ("B", Some(&req.b)),
            ("C", req.c.as_ref()),
        ] {
            let Some(mat) = mat else { continue };
            if let Some(i) = mat.as_slice().iter().position(|x| !x.is_finite()) {
                return Err(format!(
                    "non-finite value {} in {name} at flat index {i} \
                     (finite-only policy; see ServerConfig::allow_nonfinite)",
                    mat.as_slice()[i]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
fn bucket_key(req: &GemmRequest) -> BucketKey {
    ResultKey::of(req).bucket()
}

/// Scheduler thread body. The inner loop is wrapped in a panic barrier:
/// if a cycle somehow unwinds outside the per-dispatch barrier, every
/// request it was holding is answered with [`ServeError::Engine`] and
/// the loop restarts — the server never silently stops answering.
fn scheduler(inner: &ServerInner) {
    loop {
        let exited = catch_unwind(AssertUnwindSafe(|| scheduler_loop(inner)));
        match exited {
            Ok(()) => return, // clean shutdown drain finished
            Err(_) => {
                // Answer anything still queued, then resume serving.
                let drained: Vec<Pending> = {
                    let mut st = lock_unpoisoned(&inner.queue.state);
                    st.queue.drain(..).collect()
                };
                for p in drained {
                    let err =
                        ServeError::Engine("scheduler cycle panicked; request abandoned".into());
                    inner.settle(&p.key, p.primary, p.waiter, Err(err));
                }
            }
        }
    }
}

fn scheduler_loop(inner: &ServerInner) {
    loop {
        let snapshot: Vec<Pending> = {
            let mut st = lock_unpoisoned(&inner.queue.state);
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = inner
                    .queue
                    .work
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            if !inner.cfg.batch_window.is_zero() && !st.shutdown {
                // Linger so concurrent submitters join this cycle: drop
                // the lock (admission must stay open), sleep, re-take.
                drop(st);
                std::thread::sleep(inner.cfg.batch_window);
                st = lock_unpoisoned(&inner.queue.state);
            }
            st.queue.drain(..).collect()
        };
        dispatch_cycle(inner, snapshot);
    }
}

/// Group one queue snapshot into buckets (arrival order preserved both
/// across and within buckets) and dispatch each.
fn dispatch_cycle(inner: &ServerInner, snapshot: Vec<Pending>) {
    let mut order: Vec<(BucketKey, Vec<Pending>)> = Vec::new();
    let mut index: HashMap<BucketKey, usize> = HashMap::new();
    for p in snapshot {
        let bucket = p.key.bucket();
        match index.get(&bucket) {
            Some(&i) => order[i].1.push(p),
            None => {
                index.insert(bucket, order.len());
                order.push((bucket, vec![p]));
            }
        }
    }
    for (key, bucket) in order {
        let mut rest = bucket;
        while !rest.is_empty() {
            let take = rest.len().min(inner.cfg.max_batch.max(1));
            let chunk: Vec<Pending> = rest.drain(..take).collect();
            dispatch_chunk(inner, key, chunk);
        }
    }
}

/// Dispatch one bucket chunk as a single engine call (or a short run of
/// single calls for non-batchable kinds), honouring deadlines on both
/// sides of the call and converting engine panics into per-request
/// errors.
fn dispatch_chunk(inner: &ServerInner, key: BucketKey, chunk: Vec<Pending>) {
    // Pre-dispatch deadline check: expired requests cost no engine time.
    // A deadline-carrying primary has no followers (fate-sharing rule)
    // but still owns a table entry to clear.
    let now = Instant::now();
    let (expired, live): (Vec<Pending>, Vec<Pending>) = chunk
        .into_iter()
        .partition(|p| p.waiter.deadline.is_some_and(|d| d <= now));
    for p in expired {
        StatsInner::bump(&inner.stats.timed_out_before);
        let err = ServeError::TimedOut {
            after_dispatch: false,
        };
        inner.settle(&p.key, p.primary, p.waiter, Err(err));
    }
    if live.is_empty() {
        return;
    }

    // Tear the waiters off before the matrices move into the engine
    // closure: on a panic the operands are lost mid-call, but every
    // ticket must still be answered.
    let batched_with = live.len();
    let dispatched_at = Instant::now();
    let dispatched_ns = telemetry::now_ns();
    let (reqs, metas): (Vec<GemmRequest>, Vec<_>) = live
        .into_iter()
        .map(|p| (p.req, (p.key, p.primary, p.waiter)))
        .unzip();

    StatsInner::bump(&inner.stats.engine_calls);
    let engine = inner.engine.clone().with_scheme(key.scheme);
    let result = catch_unwind(AssertUnwindSafe(|| run_engine(&engine, key, reqs)));

    match result {
        Ok((ds, report)) => {
            let finished = Instant::now();
            debug_assert_eq!(ds.len(), metas.len());
            // Stamp the serve-side request timeline into the engine's
            // trace report before sharing it, so exporters can draw
            // per-request spans and flow arrows into the engine lanes.
            let report = report.map(|mut rep| {
                rep.requests = metas
                    .iter()
                    .map(|(_, _, w)| RequestTrace {
                        id: w.request_id,
                        admitted_ns: w.admitted_ns,
                        dispatched_ns,
                    })
                    .collect();
                Arc::new(rep)
            });
            let at = Dispatch {
                shape: key.shape,
                batched_with,
                report: report.as_ref(),
                dispatched_at,
                finished,
            };
            for (d, (k, primary, w)) in ds.into_iter().zip(metas) {
                StatsInner::bump(&inner.stats.dispatched);
                if batched_with >= 2 {
                    StatsInner::bump(&inner.stats.coalesced);
                }
                inner.settle(&k, primary, w, Ok((d, at)));
            }
        }
        Err(payload) => {
            let err = ServeError::Engine(panic_message(&payload));
            for (k, primary, w) in metas {
                inner.settle(&k, primary, w, Err(err.clone()));
            }
        }
    }
}

/// The actual engine call for one chunk: batched for compatible plain
/// GEMMs, per-request otherwise. Returns per-request products in input
/// order plus the (shared) telemetry report.
#[allow(clippy::type_complexity)]
fn run_engine(
    engine: &Egemm,
    key: BucketKey,
    reqs: Vec<GemmRequest>,
) -> (Vec<Matrix<f32>>, Option<GemmReport>) {
    if key.kind == 0 && reqs.len() > 1 {
        let mut a = Vec::with_capacity(reqs.len());
        let mut b = Vec::with_capacity(reqs.len());
        for r in reqs {
            a.push(r.a);
            b.push(r.b);
        }
        let out = engine.gemm_batched(&a, &b);
        (out.d, out.report)
    } else {
        let mut ds = Vec::with_capacity(reqs.len());
        let mut report = None;
        for r in reqs {
            match r.kind {
                JobKind::Gemm => {
                    let out = engine.gemm_with_c(&r.a, &r.b, r.c.as_ref());
                    report = out.report.or(report);
                    ds.push(out.d);
                }
                JobKind::SplitK { slices } => {
                    let out = engine.gemm_split_k(&r.a, &r.b, slices);
                    report = out.report.or(report);
                    ds.push(out.d);
                }
            }
        }
        (ds, report)
    }
}

fn panic_message(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine call panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm::TilingConfig;
    use egemm_tcsim::DeviceSpec;

    fn server(cfg: ServerConfig) -> Server {
        Server::start(Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER), cfg)
    }

    #[test]
    fn serves_a_simple_request() {
        let s = server(ServerConfig::default());
        let c = s.client();
        let a = Matrix::<f32>::random_uniform(8, 8, 1);
        let b = Matrix::<f32>::random_uniform(8, 8, 2);
        let out = c.call(GemmRequest::gemm(a, b)).expect("served");
        assert_eq!((out.d.rows(), out.d.cols()), (8, 8));
        assert_eq!(out.batched_with, 1);
        assert!(out.total_ns >= out.queue_ns);
        let stats = s.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.engine_calls, 1);
        // Scheduler counters surface through the serve stats (runtime
        // snapshot), and therefore the in-band "stats" wire reply.
        let j = stats.to_json();
        assert!(j.contains("\"tiles_stolen\":"), "{j}");
        s.shutdown();
    }

    #[test]
    fn validation_rejects_shape_mismatch_and_nan() {
        let s = server(ServerConfig::default());
        let c = s.client();
        let err = c
            .call(GemmRequest::gemm(Matrix::zeros(4, 5), Matrix::zeros(4, 4)))
            .unwrap_err();
        assert!(matches!(err, ServeError::Invalid(_)), "{err}");

        let mut a = Matrix::<f32>::zeros(2, 2);
        a.set(1, 1, f32::NAN);
        let err = c
            .call(GemmRequest::gemm(a, Matrix::zeros(2, 2)))
            .unwrap_err();
        assert!(
            matches!(err, ServeError::Invalid(ref m) if m.contains("non-finite")),
            "{err}"
        );
        assert_eq!(s.stats().rejected_invalid, 2);
        s.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let s = server(ServerConfig::default());
        let c = s.client();
        s.shutdown();
        let a = Matrix::<f32>::random_uniform(4, 4, 1);
        let b = Matrix::<f32>::random_uniform(4, 4, 2);
        assert_eq!(
            c.call(GemmRequest::gemm(a, b)).unwrap_err(),
            ServeError::Shutdown
        );
    }

    #[test]
    fn bucket_key_distinguishes_content_and_scheme() {
        use egemm::EmulationScheme;
        let a = Matrix::<f32>::random_uniform(4, 6, 1);
        let b1 = Matrix::<f32>::random_uniform(6, 5, 2);
        let b2 = Matrix::<f32>::random_uniform(6, 5, 3);
        let r1 = GemmRequest::gemm(a.clone(), b1.clone());
        let r1b = GemmRequest::gemm(a.clone(), b1.clone());
        let r2 = GemmRequest::gemm(a.clone(), b2);
        let r3 = GemmRequest::gemm(a, b1).with_scheme(EmulationScheme::Markidis);
        assert_eq!(bucket_key(&r1), bucket_key(&r1b));
        assert_ne!(bucket_key(&r1), bucket_key(&r2), "content must separate");
        assert_ne!(bucket_key(&r1), bucket_key(&r3), "scheme must separate");
    }
}
