//! The serve workloads: an open-loop generator over the epoll frontend
//! speaking `binwire`, a fixed rate ladder, and the serve-stage probe.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use egemm_matrix::{GemmShape, Matrix};
use egemm_serve::{
    binwire, EventServer, GemmRequest, ServeOutput, ServeStats, Server, ServerConfig,
};

use crate::host::peak_rss_mb;
use crate::library::{engine_passes, layer_probes, report_engine, Operands};
use crate::stats::{median, percentile, tail_percentile};
use crate::{engine, mismatches, mix64, random_matrix, unit_f32, Report};

/// One serve workload.
pub struct Serve {
    pub name: &'static str,
    /// Quarters of the requests that repeat one of [`HOT_SET`] entries.
    pub hot_quarters: u64,
}

/// The serve workloads, in run order.
pub const ALL: [Serve; 2] = [SERVE_UNIQUE, SERVE_HOT];

const SERVE_UNIQUE: Serve = Serve {
    name: "serve_unique",
    hot_quarters: 0,
};

const SERVE_HOT: Serve = Serve {
    name: "serve_hot",
    hot_quarters: 1,
};

/// Square sizes of the request mix. All requests of one size share one
/// B; A differs per request.
pub const MIX: [usize; 3] = [32, 64, 128];
/// Index into [`MIX`] of every fifth operand variant: exactly 2:2:1 on
/// every seed, so that the seed changes values and never the work.
const SHAPE_CYCLE: [usize; 5] = [0, 1, 0, 1, 2];
/// Offered rates, req/s, ascending.
pub const LADDER: [f64; 7] = [500.0, 1000.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0];
/// The rate the latency metrics are read at: the ladder's first step,
/// where requests rarely queue behind each other. From 1000 req/s up,
/// the median swung by 2x between runs on a shared two-core VM, and by
/// 10% at this rate.
pub const REFERENCE_RATE: f64 = LADDER[0];
/// A step passes only if its p90 latency is within this ...
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// ... nothing failed, and the requests still unanswered when its last
/// request is due are at most this many seconds of arrivals.
pub const BACKLOG_S: f64 = 0.010;
/// A step stops sending once this many seconds of arrivals are
/// unanswered: it can no longer meet the latency limit.
const ABORT_BACKLOG_S: f64 = 0.25;
const CONNECTIONS: usize = 2;
const HOT_SET: u64 = 64;
/// One reply in this many is checked against the oracle.
const CHECK_EVERY: u64 = 50;
const SETUP_REPS: usize = 9;
/// After the generator stops, replies may take this long to arrive.
const DRAIN: Duration = Duration::from_secs(20);
const SMOKE_STEP_S: f64 = 0.3;
/// Length of the reference step of the serve-stage probe that runs on
/// library workloads: 1000 replies, so p99 has ten beyond it.
const PROBE_STEP_S: f64 = 2.0;
/// Engine replay calls per mix shape in a traced run.
const REPLAY_CALLS: usize = 30;
/// Largest frame the client accepts (the server's own limit).
const MAX_FRAME: usize = 64 << 20;
const CODEC_REPS: usize = 200;

/// Seconds per ladder step: six steps fill a run's `--seconds`.
pub fn step_seconds(seconds: f64, smoke: bool) -> f64 {
    if smoke {
        SMOKE_STEP_S
    } else {
        seconds / 6.0
    }
}

/// The step rule: latency within the limit, nothing failed, and the
/// backlog bounded when the last request is due.
pub fn step_passes(p90_ms: f64, failures: u64, backlog: u64, rate: f64) -> bool {
    p90_ms <= LATENCY_LIMIT_MS && failures == 0 && backlog as f64 <= rate * BACKLOG_S
}

/// One ladder step's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate: f64,
    pub pass: bool,
    pub p90_ms: f64,
}

/// The highest rate that meets the latency limit: the rate at which p90
/// reaches [`LATENCY_LIMIT_MS`], interpolated linearly between the last
/// step of the ladder's leading run of passing steps and the failing
/// step after it. That is the last passing rate itself when the failing
/// step's p90 was within the limit (it failed on backlog or errors), the
/// top rate when every step passed, and 0 when the first step failed.
/// Interpolating keeps the metric from jumping a whole step (25-50%)
/// when a run's knee sits near a step.
pub fn max_rate(steps: &[Rung]) -> f64 {
    let passing = steps.iter().take_while(|s| s.pass).count();
    let Some(last) = passing.checked_sub(1).map(|i| steps[i]) else {
        return 0.0;
    };
    match steps.get(passing) {
        Some(fail) if fail.p90_ms > LATENCY_LIMIT_MS => {
            let f = (LATENCY_LIMIT_MS - last.p90_ms) / (fail.p90_ms - last.p90_ms);
            last.rate + (fail.rate - last.rate) * f
        }
        _ => last.rate,
    }
}

/// Mean useful floating-point operations (2mnk) per request of the mix.
fn mean_flops() -> f64 {
    let total: f64 = SHAPE_CYCLE
        .iter()
        .map(|&s| GemmShape::square(MIX[s]).flops() as f64)
        .sum();
    total / SHAPE_CYCLE.len() as f64
}

/// Operands of every request, derived from the seed and the request id.
struct Catalog {
    seed: u64,
    hot_quarters: u64,
    a: Vec<Matrix<f32>>,
    b: Vec<Matrix<f32>>,
}

impl Catalog {
    fn new(seed: u64, hot_quarters: u64) -> Catalog {
        let gen = |salt: u64, n: usize| random_matrix(n, n, mix64(seed ^ salt ^ n as u64));
        Catalog {
            seed,
            hot_quarters,
            a: MIX.iter().map(|&n| gen(0xA0, n)).collect(),
            b: MIX.iter().map(|&n| gen(0xB0, n)).collect(),
        }
    }

    /// The operand variant request `id` carries: one of the hot set, or
    /// one of its own.
    fn variant(&self, id: u64) -> u64 {
        let h = mix64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if h % 4 < self.hot_quarters {
            (h >> 2) % HOT_SET
        } else {
            HOT_SET + id
        }
    }

    /// Request `id`: its variant's shape's shared B, and that shape's
    /// base A with one element changed by the variant.
    fn request(&self, id: u64) -> GemmRequest {
        let v = self.variant(id);
        let s = SHAPE_CYCLE[(v % SHAPE_CYCLE.len() as u64) as usize];
        let mut a = self.a[s].clone();
        let h = mix64(self.seed ^ v.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let elems = a.as_mut_slice();
        let i = h as usize % elems.len();
        elems[i] = unit_f32(h >> 7);
        GemmRequest::gemm(a, self.b[s].clone())
    }

    /// Whether `d` is the oracle's product for request `id`.
    fn matches(&self, id: u64, d: &Matrix<f32>) -> bool {
        let req = self.request(id);
        mismatches(&req.a, &req.b, d, id) == 0
    }
}

/// Send one frame: the 4-byte big-endian length, then the payload.
fn write_frame(w: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Reassembles length-prefixed frames across reads and read timeouts.
#[derive(Default)]
struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// The next complete frame; `None` when a read timed out first.
    fn next(&mut self, s: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
        let mut chunk = [0u8; 64 << 10];
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_be_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
                if len > MAX_FRAME {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "oversized frame",
                    ));
                }
                if self.buf.len() >= 4 + len {
                    let frame = self.buf[4..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok(Some(frame));
                }
            }
            match s.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A server, its epoll frontend, and the client's connections with
/// their frame readers (which outlive a step, since a reply may
/// straddle two).
struct Running {
    server: Server,
    front: EventServer,
    conns: Vec<(TcpStream, FrameReader)>,
}

impl Running {
    fn start() -> io::Result<Running> {
        let server = Server::start(engine(1), ServerConfig::default());
        let front = EventServer::bind("127.0.0.1:0", server.client())?;
        let conns = (0..CONNECTIONS)
            .map(|_| {
                let c = TcpStream::connect(front.local_addr())?;
                c.set_nodelay(true)?;
                Ok((c, FrameReader::default()))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Running {
            server,
            front,
            conns,
        })
    }

    fn stop(self) {
        drop(self.conns);
        self.front.shutdown();
        self.server.shutdown();
    }

    /// One request on the first connection, answered and checked.
    fn roundtrip(&mut self, cat: &Catalog, id: u64, r: &mut Report) -> io::Result<()> {
        let req = cat.request(id);
        let (conn, frames) = &mut self.conns[0];
        write_frame(conn, &binwire::encode_request(id, &req))?;
        conn.set_read_timeout(Some(Duration::from_secs(10)))?;
        let frame = frames
            .next(conn)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no reply"))?;
        let ok = match binwire::decode_response(&frame) {
            Ok(resp) => resp.id == id && resp.result.is_ok_and(|out| cat.matches(id, &out.d)),
            Err(_) => false,
        };
        r.count(1, u64::from(!ok));
        Ok(())
    }
}

/// A reply as its reader keeps it: its times when the server served the
/// request, and the product only when the request is one the oracle
/// checks.
struct Reply {
    idx: usize,
    served: Option<(Answer, Option<Matrix<f32>>)>,
}

/// Times of one correct reply, nanoseconds.
#[derive(Clone, Copy)]
struct Answer {
    recv_ns: u64,
    /// Served from the result memo, without queueing.
    cached: bool,
    /// Admission to dispatch, on the server.
    queue_ns: u64,
    /// Admission to response, on the server.
    total_ns: u64,
}

/// Everything one ladder step measured. Times are nanoseconds on the
/// tracer's clock.
struct Step {
    rate: f64,
    first_id: u64,
    due_ns: Vec<u64>,
    /// Send time per request; `None` from an early stop on.
    send_ns: Vec<Option<u64>>,
    /// The correct reply to each request, if any.
    replies: Vec<Option<Answer>>,
    failures: u64,
    aborted: bool,
    stats: (ServeStats, ServeStats),
}

impl Step {
    fn sent(&self) -> usize {
        self.send_ns.iter().take_while(|s| s.is_some()).count()
    }

    fn ok(&self) -> impl Iterator<Item = (usize, Answer)> + '_ {
        self.replies
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i, (*r)?)))
    }

    /// Latency of each correct reply, from when its request was due.
    fn lat_ms(&self) -> Vec<f64> {
        self.ok()
            .map(|(i, a)| (a.recv_ns - self.due_ns[i]) as f64 / 1e6)
            .collect()
    }

    /// Requests sent but unanswered when the last one was due.
    fn backlog(&self) -> u64 {
        let Some(last_due) = self.sent().checked_sub(1).map(|i| self.due_ns[i]) else {
            return 0;
        };
        let answered = self.ok().filter(|(_, a)| a.recv_ns <= last_due).count();
        (self.sent() - answered) as u64
    }

    fn passes(&self) -> bool {
        !self.aborted
            && step_passes(
                percentile(&self.lat_ms(), 90.0),
                self.failures,
                self.backlog(),
                self.rate,
            )
    }
}

/// Offer `rate` req/s for `secs` seconds from one generator thread,
/// request ids from `first_id`, then wait for every reply (at most
/// [`DRAIN`]). Counts every request sent and every failure in `r`.
fn run_step(
    run: &mut Running,
    cat: &Catalog,
    rate: f64,
    secs: f64,
    first_id: u64,
    r: &mut Report,
) -> io::Result<Step> {
    let clock = r.tracer.origin();
    let ns = |t: Instant| t.duration_since(clock).as_nanos() as u64;
    let n = (rate * secs).round() as usize;
    let start = ns(Instant::now()) + 2_000_000;
    let due_ns: Vec<u64> = (0..n)
        .map(|i| start + (i as f64 * 1e9 / rate) as u64)
        .collect();
    let answered = AtomicU64::new(0);
    let sent = [AtomicU64::new(0), AtomicU64::new(0)];
    let done_ns = AtomicU64::new(u64::MAX);
    let stats0 = run.server.stats();
    let mut send_ns = vec![None; n];
    let mut aborted = false;

    let mut writers = run
        .conns
        .iter()
        .map(|(c, _)| c.try_clone())
        .collect::<io::Result<Vec<_>>>()?;
    let (replies, send_err) = std::thread::scope(|s| {
        let readers: Vec<_> = run
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, (conn, frames))| {
                let (answered, sent, done_ns) = (&answered, &sent, &done_ns);
                s.spawn(move || -> io::Result<Vec<Reply>> {
                    conn.set_read_timeout(Some(Duration::from_millis(20)))?;
                    let mut got = Vec::new();
                    loop {
                        let done = done_ns.load(Ordering::SeqCst);
                        if done != u64::MAX
                            && (got.len() as u64 >= sent[c].load(Ordering::SeqCst)
                                || ns(Instant::now()) > done + DRAIN.as_nanos() as u64)
                        {
                            return Ok(got);
                        }
                        let Some(frame) = frames.next(conn)? else {
                            continue;
                        };
                        let recv_ns = ns(Instant::now());
                        let resp = binwire::decode_response(&frame)
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                        let Some(idx) = resp.id.checked_sub(first_id).filter(|&i| i < n as u64)
                        else {
                            // A late reply to an earlier step's request.
                            continue;
                        };
                        answered.fetch_add(1, Ordering::SeqCst);
                        let checked = resp.id.is_multiple_of(CHECK_EVERY);
                        got.push(Reply {
                            idx: idx as usize,
                            served: resp.result.ok().map(|out| {
                                let answer = Answer {
                                    recv_ns,
                                    cached: out.cached,
                                    queue_ns: out.queue_ns,
                                    total_ns: out.total_ns,
                                };
                                (answer, checked.then_some(out.d))
                            }),
                        });
                    }
                })
            })
            .collect();

        let mut send_err = None;
        for i in 0..n {
            let mut now = ns(Instant::now());
            if due_ns[i] > now {
                std::thread::sleep(Duration::from_nanos(due_ns[i] - now));
                now = due_ns[i];
            }
            // Requests due by now (sent or not, if the generator is
            // behind) that have no reply yet.
            let due = due_ns.partition_point(|&d| d <= now) as u64;
            let outstanding = due.saturating_sub(answered.load(Ordering::SeqCst));
            if outstanding as f64 > rate * ABORT_BACKLOG_S {
                aborted = true;
                break;
            }
            let id = first_id + i as u64;
            let req = cat.request(id);
            let frame = binwire::encode_request(id, &req);
            if let Err(e) = write_frame(&mut writers[i % CONNECTIONS], &frame) {
                send_err = Some(e);
                break;
            }
            send_ns[i] = Some(ns(Instant::now()));
            sent[i % CONNECTIONS].fetch_add(1, Ordering::SeqCst);
        }
        done_ns.store(ns(Instant::now()), Ordering::SeqCst);
        let replies: Vec<_> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (replies, send_err)
    });
    if let Some(e) = send_err {
        return Err(e);
    }

    let mut step = Step {
        rate,
        first_id,
        due_ns,
        send_ns,
        replies: (0..n).map(|_| None).collect(),
        failures: 0,
        aborted,
        stats: (stats0, run.server.stats()),
    };
    let sent = step.sent();
    let mut seen = vec![false; sent];
    let mut extra = 0;
    for replies in replies {
        for Reply { idx, served } in replies? {
            let id = first_id + idx as u64;
            if idx >= sent || std::mem::replace(&mut seen[idx], true) {
                extra += 1;
                continue;
            }
            if let Some((answer, d)) = served {
                if d.is_none_or(|d| cat.matches(id, &d)) {
                    step.replies[idx] = Some(answer);
                }
            }
        }
    }
    // Requests without a correct reply (an error, a wrong product, or
    // none at all) and replies to requests never sent or answered twice.
    step.failures = (sent - step.ok().count()) as u64 + extra;
    r.count(sent as u64, step.failures);
    Ok(step)
}

/// ServeStats counter change over a step.
fn delta(s: &(ServeStats, ServeStats), f: fn(&ServeStats) -> u64) -> f64 {
    (f(&s.1) - f(&s.0)) as f64
}

/// Record a step's spans (from its timestamps) and report the
/// serve-stage metrics.
fn report_stage(step: &Step, r: &mut Report) {
    let (mut queue, mut server, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    for (i, a) in step.ok() {
        let (due, send) = (
            step.due_ns[i],
            step.send_ns[i].expect("answered requests were sent"),
        );
        let admitted = a.recv_ns.saturating_sub(a.total_ns);
        let req = step.first_id + i as u64;
        let root = r.tracer.record("serve.request", req, due, a.recv_ns, None);
        r.tracer.record("gen.late", req, due, send, Some(root));
        let srv = r
            .tracer
            .record("serve.server", req, admitted, a.recv_ns, Some(root));
        r.tracer.record(
            "serve.queue",
            req,
            admitted,
            admitted + a.queue_ns,
            Some(srv),
        );
        if !a.cached {
            queue.push(a.queue_ns as f64 / 1e6);
            server.push(a.total_ns as f64 / 1e6);
        }
        wire.push((a.recv_ns - send) as f64 / 1e6 - a.total_ns as f64 / 1e6);
    }
    let late: Vec<f64> = step
        .send_ns
        .iter()
        .zip(&step.due_ns)
        .filter_map(|(s, due)| Some((s.as_ref()? - due) as f64 / 1e6))
        .collect();
    let n = wire.len();
    let s = &step.stats;
    let submitted = delta(s, |x| x.submitted).max(1.0);
    let calls = delta(s, |x| x.engine_calls);
    let lookups = delta(s, |x| x.result_cache_hits) + delta(s, |x| x.result_cache_misses);
    // Queue and server times of the requests that queued (memo hits
    // answer at admission).
    r.metric("serve.queue_ms_p50", median(&queue), queue.len());
    r.metric("serve.server_ms_p50", median(&server), server.len());
    r.metric("serve.wire_ms_p50", median(&wire), n);
    r.metric("serve.lat_ms_p99", percentile(&step.lat_ms(), 99.0), n);
    r.metric("gen.late_ms_p99", percentile(&late, 99.0), late.len());
    r.metric(
        "serve.batched_ratio",
        delta(s, |x| x.dispatched) / calls.max(1.0),
        n,
    );
    r.metric("serve.engine_calls_per_req", calls / submitted, n);
    r.metric(
        "serve.dedup_hit_ratio",
        delta(s, |x| x.dedup_hits) / submitted,
        n,
    );
    r.metric(
        "serve.memo_hit_ratio",
        delta(s, |x| x.result_cache_hits) / lookups.max(1.0),
        n,
    );
}

/// Median microseconds to encode a request, decode it, encode the reply
/// and decode that, for an `n`-square problem.
fn codec_roundtrip_us(n: usize) -> f64 {
    let req = GemmRequest::gemm(random_matrix(n, n, 1), random_matrix(n, n, 2));
    let reply = Ok(ServeOutput {
        d: random_matrix(n, n, 3),
        request_id: 1,
        shape: GemmShape::square(n),
        batched_with: 1,
        cached: false,
        queue_ns: 0,
        total_ns: 0,
        report: None,
    });
    let secs: Vec<f64> = (0..CODEC_REPS)
        .map(|_| {
            let t = Instant::now();
            let frame = binwire::encode_request(7, std::hint::black_box(&req));
            std::hint::black_box(binwire::decode_request(&frame).expect("request decodes"));
            let back = binwire::encode_response(7, std::hint::black_box(&reply));
            std::hint::black_box(binwire::decode_response(&back).expect("reply decodes"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs) * 1e6
}

fn report_codec(r: &mut Report) {
    r.metric("codec.roundtrip_us.32", codec_roundtrip_us(32), CODEC_REPS);
    r.metric(
        "codec.roundtrip_us.128",
        codec_roundtrip_us(128),
        CODEC_REPS,
    );
}

/// The serve-stage metrics of a library workload's traced run: one
/// reference-rate step of the `serve_unique` mix.
pub fn stage_probe(r: &mut Report) {
    let cat = Catalog::new(r.seed, SERVE_UNIQUE.hot_quarters);
    let mut run = Running::start().expect("start the probe server");
    let secs = if r.smoke { SMOKE_STEP_S } else { PROBE_STEP_S };
    let step = run_step(&mut run, &cat, REFERENCE_RATE, secs, 0, r).expect("probe step");
    run.stop();
    report_stage(&step, r);
    report_codec(r);
}

pub fn run(w: &Serve, r: &mut Report) {
    let cat = Catalog::new(r.seed, w.hot_quarters);
    let secs = step_seconds(r.seconds, r.smoke);
    let mut next_id = 0u64;
    let mut setup_s = Vec::new();
    let mut running: Option<Running> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = running.take() {
            old.stop();
        }
        let t = Instant::now();
        let mut run = Running::start().expect("start the server");
        run.roundtrip(&cat, next_id, r).expect("set-up request");
        setup_s.push(t.elapsed().as_secs_f64());
        next_id += 1;
        running = Some(run);
    }
    let mut run = running.expect("at least one set-up");
    let mut step = |run: &mut Running, rate: f64, r: &mut Report| {
        let s = run_step(run, &cat, rate, secs, next_id, r).expect("ladder step");
        next_id += s.sent() as u64;
        s
    };

    let mut ladder: Vec<Rung> = Vec::new();
    let mut reference = Vec::new();
    for &rate in &LADDER {
        let s = step(&mut run, rate, r);
        let lat = s.lat_ms();
        let rung = Rung {
            rate,
            pass: s.passes(),
            p90_ms: percentile(&lat, 90.0),
        };
        eprintln!(
            "  {rate:>6} req/s: sent {:>6}, p50 {:>7.3} ms, p90 {:>7.3} ms, backlog {:>4}, \
             failures {}, {}{}",
            s.sent(),
            median(&lat),
            rung.p90_ms,
            s.backlog(),
            s.failures,
            if rung.pass { "pass" } else { "FAIL" },
            if s.aborted { " (stopped early)" } else { "" }
        );
        ladder.push(rung);
        if rate == REFERENCE_RATE {
            if let Some(p) = tail_percentile(lat.len()) {
                eprintln!(
                    "  {} replies: p{p} {:.3} ms",
                    lat.len(),
                    percentile(&lat, p)
                );
            }
            if !r.trace {
                r.metric("lat_ms_p50", median(&lat), lat.len());
                // Memory at the reference load; an overloaded step later
                // buffers an amount that varies from run to run.
                r.metric("peak_rss_mb", peak_rss_mb(), 1);
            }
            reference = lat;
        }
        if !rung.pass {
            break;
        }
    }
    if !r.trace {
        run.stop();
        r.metric("setup_s", median(&setup_s), setup_s.len());
        return;
    }

    let traced = step(&mut run, REFERENCE_RATE, r);
    run.stop();
    report_stage(&traced, r);
    report_codec(r);
    let max = max_rate(&ladder);
    r.metric("max_rate_rps", max, ladder.len());
    r.metric("gflops", max * mean_flops() / 1e9, ladder.len());
    r.metric("lat_ms_p90", percentile(&reference, 90.0), reference.len());
    // Spans of a serve step are built from reply timestamps after it
    // ends, so this overhead is the difference between two steps at the
    // reference rate.
    let (u, t) = (median(&reference), median(&traced.lat_ms()));
    r.metric("tracing_overhead_pct", 100.0 * (t - u) / u, reference.len());
    engine_replay(r);
}

/// The engine and layer metrics of a serve workload: every mix shape
/// replayed on a one-worker engine with one resident B per shape,
/// weighted by its share of the mix.
fn engine_replay(r: &mut Report) {
    let eg = engine(1);
    let mut parts = Vec::new();
    let mut largest = None;
    for (s, &n) in MIX.iter().enumerate() {
        let mut ops = Operands::new((n, n, n), mix64(r.seed ^ n as u64));
        let passes = engine_passes(&eg, &mut ops, false, REPLAY_CALLS, r);
        let weight = SHAPE_CYCLE.iter().filter(|&&c| c == s).count();
        parts.push((passes, weight as f64));
        largest = Some(ops.b);
    }
    let kernel = layer_probes(&eg, &largest.expect("the mix is not empty"), r);
    report_engine(&parts, kernel, r);
}
