//! The wire codec of the network frontend: length-prefixed binary
//! frames.
//!
//! Every message is one frame: a 4-byte big-endian payload length
//! ([`write_frame`] / [`read_frame`], capped at [`MAX_FRAME`]) followed
//! by the payload. A payload opens with the magic byte [`MAGIC`]
//! (`0xEB`) and the codec [`VERSION`]; a payload that does not is
//! answered in-band with an `invalid` error, and the connection keeps
//! serving.
//!
//! Why binary: operand and result payloads travel as raw little-endian
//! f32 — *bit-exact by construction*, including NaN payloads,
//! infinities, and subnormals — so the wire can never perturb a value
//! the engine's bit-identity guarantee covers. A decimal text encoding
//! would cost ~2.5x the bytes plus a parse per element, and has no
//! spelling for a NaN payload.
//!
//! Payload layout (all integers little-endian after the 4-byte header):
//!
//! ```text
//! [0] MAGIC 0xEB   [1] VERSION 1   [2] type   [3] flags (reserved, 0)
//! type 1 job:      id:u64 scheme:u8 kind:u8 slices:u32 deadline_ns:u64
//!                  m:u32 k:u32 n:u32  A[m*k] B[k*n] (C[m*n] if kind=1)
//!                  (f32 LE, row-major; deadline_ns 0 = no deadline)
//! type 2 ok:       id:u64 request_id:u64 m:u32 n:u32 batched_with:u32
//!                  cached:u8 queue_ns:u64 total_ns:u64  D[m*n]
//! type 3 error:    id:u64 code:u8 aux:u64 msg_len:u32 msg[..] (UTF-8)
//! type 4 stats:    id:u64                 (request; answered as type 6)
//! type 5 metrics:  id:u64                 (request; answered as type 6)
//! type 6 text:     id:u64 text_len:u32 text[..]   (stats JSON or
//!                  Prometheus exposition, UTF-8)
//! ```
//!
//! Job `kind`: 0 = gemm, 1 = gemm-with-C, 2 = split-K (`slices` used).
//! Job `scheme`: 0 = EGEMM-TC, 1 = Markidis, 2 = Markidis four-term,
//! 3 = TC half. Error `code`: 0 busy (`aux` = queued), 1 timeout
//! (`aux` = 1 when after dispatch), 2 invalid, 3 engine, 4 shutdown;
//! `msg` is the inner message of `invalid` and `engine`.

use crate::request::{GemmRequest, JobKind, ServeError, ServeOutput};
use egemm::EmulationScheme;
use egemm_matrix::{GemmShape, Matrix};
use std::io::{Read, Write};
use std::time::Duration;

/// Upper bound on one frame's payload; a peer announcing more is
/// disconnected rather than allocated for.
pub const MAX_FRAME: usize = 64 << 20;
/// First payload byte of every frame.
pub const MAGIC: u8 = 0xEB;
/// Codec version; bumped on any layout change.
pub const VERSION: u8 = 1;

const TYPE_JOB: u8 = 1;
const TYPE_OK: u8 = 2;
const TYPE_ERROR: u8 = 3;
const TYPE_STATS: u8 = 4;
const TYPE_METRICS: u8 = 5;
const TYPE_TEXT: u8 = 6;

/// A decoded client frame.
pub enum WireRequest {
    /// A compute job to submit to the server.
    Job { id: u64, req: GemmRequest },
    /// A counters-snapshot query, answered inline with
    /// [`crate::ServeStats::to_json`].
    Stats { id: u64 },
    /// A metrics scrape, answered inline with the answering server's
    /// Prometheus-style text exposition (`Client::metrics_text`).
    Metrics { id: u64 },
}

/// A decoded job response on the client side.
pub struct WireResponse {
    pub id: u64,
    pub result: Result<ServeOutput, ServeError>,
}

// --------------------------------------------------------------------
// Framing (blocking client side; the reactor frames its own buffers)
// --------------------------------------------------------------------

/// Write one frame: 4-byte big-endian length, then the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary; an
/// error for oversized frames or mid-frame EOF.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// --------------------------------------------------------------------
// Little-endian write/read helpers over a plain byte buffer.
// --------------------------------------------------------------------

fn header(msg_type: u8) -> Vec<u8> {
    vec![MAGIC, VERSION, msg_type, 0]
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, vals: &[f32]) {
    buf.reserve(vals.len() * 4);
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked reader over one payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                format!(
                    "binary frame truncated: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                )
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn matrix(&mut self, rows: usize, cols: usize, name: &str) -> Result<Matrix<f32>, String> {
        let count = rows
            .checked_mul(cols)
            .filter(|&c| c.checked_mul(4).is_some_and(|b| b <= MAX_FRAME))
            .ok_or_else(|| format!("{name} dimensions {rows}x{cols} overflow the frame limit"))?;
        let bytes = self.take(count * 4).map_err(|e| format!("{name}: {e}"))?;
        let data = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "binary frame has {} trailing bytes",
                self.buf.len() - self.pos
            ))
        }
    }
}

/// Check magic/version and return the message type.
fn open(payload: &[u8]) -> Result<(u8, Reader<'_>), String> {
    if payload.len() < 4 || payload[0] != MAGIC {
        return Err("not a binary frame (missing 0xEB magic)".into());
    }
    if payload[1] != VERSION {
        return Err(format!(
            "unsupported binary codec version {} (this build speaks {VERSION})",
            payload[1]
        ));
    }
    let mut r = Reader::new(payload);
    r.pos = 4;
    Ok((payload[2], r))
}

fn scheme_code(scheme: EmulationScheme) -> u8 {
    match scheme {
        EmulationScheme::EgemmTc => 0,
        EmulationScheme::Markidis => 1,
        EmulationScheme::MarkidisFourTerm => 2,
        EmulationScheme::TcHalf => 3,
    }
}

fn scheme_from_code(code: u8) -> Result<EmulationScheme, String> {
    match code {
        0 => Ok(EmulationScheme::EgemmTc),
        1 => Ok(EmulationScheme::Markidis),
        2 => Ok(EmulationScheme::MarkidisFourTerm),
        3 => Ok(EmulationScheme::TcHalf),
        other => Err(format!("unknown scheme code {other}")),
    }
}

// --------------------------------------------------------------------
// Requests
// --------------------------------------------------------------------

/// Encode a job request.
pub fn encode_request(id: u64, req: &GemmRequest) -> Vec<u8> {
    let shape = req.shape();
    let (kind, slices) = match req.kind {
        JobKind::Gemm if req.c.is_none() => (0u8, 0u32),
        JobKind::Gemm => (1, 0),
        JobKind::SplitK { slices } => (2, slices as u32),
    };
    let mut buf = header(TYPE_JOB);
    put_u64(&mut buf, id);
    buf.push(scheme_code(req.scheme));
    buf.push(kind);
    put_u32(&mut buf, slices);
    put_u64(&mut buf, req.deadline.map_or(0, |d| d.as_nanos() as u64));
    put_u32(&mut buf, shape.m as u32);
    put_u32(&mut buf, shape.k as u32);
    put_u32(&mut buf, shape.n as u32);
    put_f32s(&mut buf, req.a.as_slice());
    put_f32s(&mut buf, req.b.as_slice());
    if let Some(c) = &req.c {
        put_f32s(&mut buf, c.as_slice());
    }
    buf
}

/// Encode a stats-query frame.
pub fn encode_stats_request(id: u64) -> Vec<u8> {
    let mut buf = header(TYPE_STATS);
    put_u64(&mut buf, id);
    buf
}

/// Encode a metrics-scrape frame.
pub fn encode_metrics_request(id: u64) -> Vec<u8> {
    let mut buf = header(TYPE_METRICS);
    put_u64(&mut buf, id);
    buf
}

/// Decode one client frame.
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, String> {
    let (msg_type, mut r) = open(payload)?;
    match msg_type {
        TYPE_STATS => Ok(WireRequest::Stats { id: r.u64()? }),
        TYPE_METRICS => Ok(WireRequest::Metrics { id: r.u64()? }),
        TYPE_JOB => {
            let id = r.u64()?;
            let scheme = scheme_from_code(r.u8()?)?;
            let kind_code = r.u8()?;
            let slices = r.u32()? as usize;
            let deadline_ns = r.u64()?;
            let m = r.u32()? as usize;
            let k = r.u32()? as usize;
            let n = r.u32()? as usize;
            let a = r.matrix(m, k, "A")?;
            let b = r.matrix(k, n, "B")?;
            let (kind, c) = match kind_code {
                0 => (JobKind::Gemm, None),
                1 => (JobKind::Gemm, Some(r.matrix(m, n, "C")?)),
                2 => (JobKind::SplitK { slices }, None),
                other => return Err(format!("unknown job kind {other}")),
            };
            r.finish()?;
            Ok(WireRequest::Job {
                id,
                req: GemmRequest {
                    a,
                    b,
                    c,
                    kind,
                    scheme,
                    deadline: (deadline_ns > 0).then(|| Duration::from_nanos(deadline_ns)),
                },
            })
        }
        other => Err(format!("unexpected binary message type {other}")),
    }
}

// --------------------------------------------------------------------
// Responses
// --------------------------------------------------------------------

fn error_fields(e: &ServeError) -> (u8, u64) {
    match e {
        ServeError::Busy { queued } => (0, *queued as u64),
        ServeError::TimedOut { after_dispatch } => (1, u64::from(*after_dispatch)),
        ServeError::Invalid(_) => (2, 0),
        ServeError::Engine(_) => (3, 0),
        ServeError::Shutdown => (4, 0),
    }
}

/// Encode a job response (either arm).
pub fn encode_response(id: u64, result: &Result<ServeOutput, ServeError>) -> Vec<u8> {
    match result {
        Ok(out) => {
            let mut buf = header(TYPE_OK);
            put_u64(&mut buf, id);
            put_u64(&mut buf, out.request_id);
            put_u32(&mut buf, out.shape.m as u32);
            put_u32(&mut buf, out.shape.n as u32);
            put_u32(&mut buf, out.batched_with as u32);
            buf.push(u8::from(out.cached));
            put_u64(&mut buf, out.queue_ns);
            put_u64(&mut buf, out.total_ns);
            put_f32s(&mut buf, out.d.as_slice());
            buf
        }
        Err(e) => encode_error(id, e),
    }
}

/// Encode an error response (also used for undecodable frames).
pub fn encode_error(id: u64, e: &ServeError) -> Vec<u8> {
    let (code, aux) = error_fields(e);
    // `invalid` and `engine` carry their inner message, so the client
    // rebuilds the same error; the others are rebuilt from code and aux.
    let msg = match e {
        ServeError::Invalid(msg) | ServeError::Engine(msg) => msg.clone(),
        other => other.to_string(),
    };
    let mut buf = header(TYPE_ERROR);
    put_u64(&mut buf, id);
    buf.push(code);
    put_u64(&mut buf, aux);
    put_u32(&mut buf, msg.len() as u32);
    buf.extend_from_slice(msg.as_bytes());
    buf
}

/// Encode a text response (stats JSON or metrics exposition).
pub fn encode_text_response(id: u64, text: &str) -> Vec<u8> {
    let mut buf = header(TYPE_TEXT);
    put_u64(&mut buf, id);
    put_u32(&mut buf, text.len() as u32);
    buf.extend_from_slice(text.as_bytes());
    buf
}

/// Decode a job response (the client side). Text responses
/// (stats/metrics) decode to an error here; read those with
/// [`decode_text_response`].
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, String> {
    let (msg_type, mut r) = open(payload)?;
    match msg_type {
        TYPE_OK => {
            let id = r.u64()?;
            let request_id = r.u64()?;
            let m = r.u32()? as usize;
            let n = r.u32()? as usize;
            let batched_with = r.u32()? as usize;
            let cached = r.u8()? != 0;
            let queue_ns = r.u64()?;
            let total_ns = r.u64()?;
            let d = r.matrix(m, n, "D")?;
            r.finish()?;
            Ok(WireResponse {
                id,
                result: Ok(ServeOutput {
                    d,
                    request_id,
                    shape: GemmShape::new(m, n, 0),
                    batched_with,
                    cached,
                    queue_ns,
                    total_ns,
                    report: None,
                }),
            })
        }
        TYPE_ERROR => {
            let id = r.u64()?;
            let code = r.u8()?;
            let aux = r.u64()?;
            let msg_len = r.u32()? as usize;
            let msg = String::from_utf8_lossy(r.take(msg_len)?).into_owned();
            let e = match code {
                0 => ServeError::Busy {
                    queued: aux as usize,
                },
                1 => ServeError::TimedOut {
                    after_dispatch: aux != 0,
                },
                2 => ServeError::Invalid(msg),
                4 => ServeError::Shutdown,
                _ => ServeError::Engine(msg),
            };
            Ok(WireResponse { id, result: Err(e) })
        }
        other => Err(format!("unexpected binary response type {other}")),
    }
}

/// Decode a text response (stats/metrics), returning `(id, text)`.
pub fn decode_text_response(payload: &[u8]) -> Result<(u64, String), String> {
    let (msg_type, mut r) = open(payload)?;
    if msg_type != TYPE_TEXT {
        return Err(format!("expected text response, got type {msg_type}"));
    }
    let id = r.u64()?;
    let len = r.u32()? as usize;
    let text = std::str::from_utf8(r.take(len)?)
        .map_err(|_| "text response is not UTF-8".to_string())?
        .to_string();
    Ok((id, text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_roundtrip_preserves_every_bit() {
        let mut a = Matrix::<f32>::random_uniform(3, 4, 7);
        a.set(0, 0, f32::NAN);
        a.set(1, 2, f32::NEG_INFINITY);
        a.set(2, 3, f32::from_bits(1)); // smallest subnormal
        let b = Matrix::<f32>::random_uniform(4, 5, 8);
        let req = GemmRequest {
            a: a.clone(),
            b: b.clone(),
            c: None,
            kind: JobKind::SplitK { slices: 3 },
            scheme: EmulationScheme::Markidis,
            deadline: Some(Duration::from_millis(250)),
        };
        let frame = encode_request(42, &req);
        let WireRequest::Job { id, req: back } = decode_request(&frame).unwrap() else {
            panic!("expected a job");
        };
        assert_eq!(id, 42);
        let bits = |m: &Matrix<f32>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.a), bits(&a), "A bit-exact incl. NaN payload");
        assert_eq!(bits(&back.b), bits(&b));
        assert_eq!(back.kind, JobKind::SplitK { slices: 3 });
        assert_eq!(back.scheme, EmulationScheme::Markidis);
        assert_eq!(back.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn truncated_and_alien_frames_are_rejected() {
        let req = GemmRequest::gemm(Matrix::zeros(2, 2), Matrix::zeros(2, 2));
        let frame = encode_request(1, &req);
        assert!(decode_request(&frame[..frame.len() - 1]).is_err());
        assert!(
            decode_request(b"{\"id\":1}").is_err(),
            "JSON is not binwire"
        );
        let mut wrong_version = frame.clone();
        wrong_version[1] = 9;
        assert!(decode_request(&wrong_version).is_err());
        let mut trailing = frame;
        trailing.push(0);
        assert!(decode_request(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn error_roundtrip() {
        for e in [
            ServeError::Busy { queued: 7 },
            ServeError::TimedOut {
                after_dispatch: true,
            },
            ServeError::Invalid("bad".into()),
            ServeError::Engine("boom".into()),
            ServeError::Shutdown,
        ] {
            let frame = encode_response(9, &Err(e.clone()));
            let resp = decode_response(&frame).unwrap();
            assert_eq!(resp.id, 9);
            let back = resp.result.unwrap_err();
            assert_eq!(back, e);
            assert_eq!(back.to_string(), e.to_string());
        }
    }

    #[test]
    fn text_roundtrip() {
        let frame = encode_text_response(5, "egemm_serve_requests_total 3\n");
        let (id, text) = decode_text_response(&frame).unwrap();
        assert_eq!(id, 5);
        assert!(text.ends_with('\n'));
        assert!(matches!(
            decode_request(&encode_stats_request(6)),
            Ok(WireRequest::Stats { id: 6 })
        ));
        assert!(matches!(
            decode_request(&encode_metrics_request(7)),
            Ok(WireRequest::Metrics { id: 7 })
        ));
    }

    #[test]
    fn request_roundtrip() {
        let a = Matrix::<f32>::random_uniform(3, 4, 1);
        let b = Matrix::<f32>::random_uniform(4, 2, 2);
        let req = GemmRequest::gemm(a.clone(), b.clone()).with_deadline(Duration::from_millis(250));
        let frame = encode_request(7, &req);
        let WireRequest::Job { id, req: back } = decode_request(&frame).unwrap() else {
            panic!("expected a job");
        };
        assert_eq!(id, 7);
        assert_eq!(back.a.as_slice(), a.as_slice());
        assert_eq!(back.b.as_slice(), b.as_slice());
        assert!(back.c.is_none());
        assert_eq!(back.deadline, Some(Duration::from_millis(250)));
        assert_eq!(back.kind, JobKind::Gemm);
        assert_eq!(back.scheme, req.scheme);

        // With an accumulator C the job travels as kind 1.
        let c = Matrix::<f32>::random_uniform(3, 2, 3);
        let with_c = GemmRequest {
            c: Some(c.clone()),
            deadline: None,
            ..req
        };
        let WireRequest::Job { req: back, .. } =
            decode_request(&encode_request(8, &with_c)).unwrap()
        else {
            panic!("expected a job");
        };
        assert_eq!(back.c.unwrap().as_slice(), c.as_slice());
        assert_eq!(back.kind, JobKind::Gemm);
        assert_eq!(back.deadline, None);
    }

    #[test]
    fn metrics_request_and_response_roundtrip() {
        let WireRequest::Metrics { id } = decode_request(&encode_metrics_request(11)).unwrap()
        else {
            panic!("expected a metrics request");
        };
        assert_eq!(id, 11);

        let text = "# TYPE egemm_gemm_calls_total counter\negemm_gemm_calls_total 3\n";
        let (id, back) = decode_text_response(&encode_text_response(11, text)).unwrap();
        assert_eq!(id, 11);
        assert_eq!(back, text);
    }

    #[test]
    fn error_response_roundtrip() {
        let resp = decode_response(&encode_error(3, &ServeError::Busy { queued: 16 })).unwrap();
        assert_eq!(resp.id, 3);
        assert_eq!(resp.result.unwrap_err(), ServeError::Busy { queued: 16 });

        let timed_out = ServeError::TimedOut {
            after_dispatch: true,
        };
        let resp = decode_response(&encode_error(4, &timed_out)).unwrap();
        assert_eq!(resp.id, 4);
        assert_eq!(resp.result.unwrap_err(), timed_out);

        // An undecodable frame is answered with id 0 and the decoder's
        // message, which the client reads back verbatim.
        let msg = decode_request(b"{\"id\":1}").err().unwrap();
        let resp = decode_response(&encode_error(0, &ServeError::Invalid(msg.clone()))).unwrap();
        assert_eq!(resp.id, 0);
        assert_eq!(resp.result.unwrap_err(), ServeError::Invalid(msg));
    }

    #[test]
    fn frame_roundtrip_and_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());

        // Oversized announced length is rejected without allocating.
        let mut huge = std::io::Cursor::new(((MAX_FRAME + 1) as u32).to_be_bytes().to_vec());
        assert!(read_frame(&mut huge).is_err());
    }
}
