//! The binary wire protocol: length-prefixed frames and the job codec.
//!
//! Everything on the socket is a *frame*: a little-endian `u32` byte
//! count followed by that many payload bytes, capped at [`MAX_FRAME`].
//! A payload starts with an 8-byte magic ([`REQUEST_MAGIC`] or
//! [`RESPONSE_MAGIC`]) so a stray client talking a different protocol
//! fails immediately with a clear error instead of a misparse.
//!
//! The codec is deliberately dumb: little-endian `u64` words, `f64`
//! shipped as raw IEEE bits (`to_bits`/`from_bits`, so values survive
//! the trip bit-exactly — the service inherits the workspace's
//! bit-identity contract), strings as a length + UTF-8 bytes, options
//! as a flag byte + value. No varints, no schema evolution: both ends
//! are this workspace, and the magic's trailing digit is the version.
//!
//! Every decode error is a protocol error; the CLI maps those to exit
//! code 5, distinct from numerical failures reported *inside* a
//! well-formed response.

use std::fmt;
use std::io::{Read, Write};

/// First 8 payload bytes of every request frame.
pub const REQUEST_MAGIC: [u8; 8] = *b"PMTBRRQ1";
/// First 8 payload bytes of every response frame.
pub const RESPONSE_MAGIC: [u8; 8] = *b"PMTBRRS2";
/// Hard cap on a single frame's payload size (64 MiB).
pub const MAX_FRAME: usize = 64 << 20;

/// A socket or codec failure; the whole category maps to exit code 5.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (connect, read, write, timeout).
    Io(std::io::Error),
    /// The bytes were readable but not a valid protocol frame.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

fn protocol(msg: impl Into<String>) -> WireError {
    WireError::Protocol(msg.into())
}

/// Writes one length-prefixed frame and flushes.
///
/// # Errors
///
/// [`WireError::Protocol`] if the payload exceeds [`MAX_FRAME`];
/// [`WireError::Io`] on socket failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(protocol(format!("frame of {} bytes exceeds MAX_FRAME", payload.len())));
    }
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// [`WireError::Protocol`] on an oversized length prefix;
/// [`WireError::Io`] on socket failure or early EOF.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(protocol(format!("frame length {len} exceeds MAX_FRAME")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Append-only payload builder; starts with a magic, ends with
/// [`WireWriter::finish`].
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A payload beginning with `magic`.
    pub fn new(magic: &[u8; 8]) -> Self {
        WireWriter { buf: magic.to_vec() }
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn flag(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a flag byte, then the value when present.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        self.flag(v.is_some());
        if let Some(v) = v {
            self.u64(v);
        }
    }

    /// Appends a string as a `u64` length plus UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a flag byte, then the string when present.
    pub fn opt_str(&mut self, s: Option<&str>) {
        self.flag(s.is_some());
        if let Some(s) = s {
            self.str(s);
        }
    }

    /// Appends a count plus each string.
    pub fn strs(&mut self, v: &[String]) {
        self.u64(v.len() as u64);
        for s in v {
            self.str(s);
        }
    }

    /// The finished payload (magic included, length prefix not).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a received payload; checks the magic up front and
/// trailing garbage at [`WireReader::finish`].
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts decoding `buf`, requiring it to begin with `magic`.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] when the magic does not match.
    pub fn new(buf: &'a [u8], magic: &[u8; 8]) -> Result<Self, WireError> {
        if buf.len() < 8 || &buf[..8] != magic {
            return Err(protocol("bad or missing frame magic"));
        }
        Ok(WireReader { buf, pos: 8 })
    }

    /// Checks that `count` items of at least `item_bytes` bytes each fit
    /// in the bytes left, so a hostile count is rejected before
    /// allocating (`None` is a count that already overflowed).
    fn fits(&self, count: Option<usize>, item_bytes: usize) -> Result<usize, WireError> {
        let left = self.buf.len() - self.pos;
        count
            .filter(|&n| n.checked_mul(item_bytes).is_some_and(|b| b <= left))
            .ok_or_else(|| protocol("count exceeds the bytes left in the frame"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(protocol("truncated frame"));
        };
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on a truncated frame.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(w))
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on a truncated frame.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a one-byte `bool` (strictly 0 or 1).
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on truncation or a non-boolean byte.
    pub fn flag(&mut self) -> Result<bool, WireError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(protocol(format!("flag byte must be 0 or 1, got {b}"))),
        }
    }

    /// Reads an optional `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on truncation or a bad flag byte.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        Ok(if self.flag()? { Some(self.u64()?) } else { None })
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u64()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| protocol("string is not valid UTF-8"))
    }

    /// Reads an optional string.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on truncation, a bad flag, or bad UTF-8.
    pub fn opt_str(&mut self) -> Result<Option<String>, WireError> {
        Ok(if self.flag()? { Some(self.str()?) } else { None })
    }

    /// Reads a counted list of strings.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on truncation or bad UTF-8.
    pub fn strs(&mut self) -> Result<Vec<String>, WireError> {
        // Each entry costs at least its 8-byte length on the wire.
        let n = self.u64()? as usize;
        let n = self.fits(Some(n), 8)?;
        (0..n).map(|_| self.str()).collect()
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] when trailing bytes remain.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(protocol(format!("{} trailing bytes in frame", self.buf.len() - self.pos)));
        }
        Ok(())
    }
}

/// A dense real matrix on the wire: dimensions plus row-major raw
/// `f64` bits, so the model survives the trip bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMat {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major entries as IEEE-754 bit patterns.
    pub bits: Vec<u64>,
}

impl WireMat {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.rows as u64);
        w.u64(self.cols as u64);
        for &b in &self.bits {
            w.u64(b);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rows = r.u64()? as usize;
        let cols = r.u64()? as usize;
        // One 8-byte word per entry.
        let n = r.fits(rows.checked_mul(cols), 8)?;
        let mut bits = Vec::with_capacity(n);
        for _ in 0..n {
            bits.push(r.u64()?);
        }
        Ok(WireMat { rows, cols, bits })
    }
}

/// One reduction job: a netlist plus everything `reduce` reads from its
/// command line. The server reconstructs a local request from this and
/// runs it through the exact code path the CLI uses.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// `--method` spelling (validated server-side against the registry).
    pub method: String,
    /// SPICE-flavored netlist text; parsed server-side.
    pub netlist: String,
    /// Band edge in rad/s.
    pub omega_max: f64,
    /// Frequency bands in rad/s (empty ⇒ the default single band).
    pub bands: Vec<(f64, f64)>,
    /// Quadrature node count.
    pub samples: u64,
    /// Truncation tolerance.
    pub tol: f64,
    /// Requested reduced order, when the method needs or caps one.
    pub order: Option<u64>,
    /// Greedy convergence tolerance.
    pub greedy_tol: f64,
    /// Greedy shift budget.
    pub greedy_max_shifts: Option<u64>,
    /// `--budget-lu` cap.
    pub budget_lu: Option<u64>,
    /// `--budget-svd-sweeps` cap.
    pub budget_svd: Option<u64>,
    /// `--budget-sample-bytes` cap.
    pub budget_bytes: Option<u64>,
    /// Whether to record and return a deterministic trace.
    pub trace: bool,
}

impl JobRequest {
    /// Serializes to a request payload (frame the result yourself).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new(&REQUEST_MAGIC);
        w.str(&self.method);
        w.str(&self.netlist);
        w.f64(self.omega_max);
        w.u64(self.bands.len() as u64);
        for &(lo, hi) in &self.bands {
            w.f64(lo);
            w.f64(hi);
        }
        w.u64(self.samples);
        w.f64(self.tol);
        w.opt_u64(self.order);
        w.f64(self.greedy_tol);
        w.opt_u64(self.greedy_max_shifts);
        w.opt_u64(self.budget_lu);
        w.opt_u64(self.budget_svd);
        w.opt_u64(self.budget_bytes);
        w.flag(self.trace);
        w.finish()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on a malformed payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(payload, &REQUEST_MAGIC)?;
        let method = r.str()?;
        let netlist = r.str()?;
        let omega_max = r.f64()?;
        // Two 8-byte edges per band.
        let nbands = r.u64()? as usize;
        let nbands = r.fits(Some(nbands), 16)?;
        let mut bands = Vec::with_capacity(nbands);
        for _ in 0..nbands {
            let lo = r.f64()?;
            let hi = r.f64()?;
            bands.push((lo, hi));
        }
        let req = JobRequest {
            method,
            netlist,
            omega_max,
            bands,
            samples: r.u64()?,
            tol: r.f64()?,
            order: r.opt_u64()?,
            greedy_tol: r.f64()?,
            greedy_max_shifts: r.opt_u64()?,
            budget_lu: r.opt_u64()?,
            budget_svd: r.opt_u64()?,
            budget_bytes: r.opt_u64()?,
            trace: r.flag()?,
        };
        r.finish()?;
        Ok(req)
    }
}

/// The run outcome a client needs to reproduce the CLI's acceptance
/// policy locally — a wire projection of `pmtbr::PipelineReport` and
/// the sweep's `pmtbr::SweepDiagnostics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSummary {
    /// Sweep-stage outcome label.
    pub sweep: String,
    /// Compress-stage outcome label.
    pub compress: String,
    /// Project-stage outcome label.
    pub project: String,
    /// Whether the compressor was downgraded mid-run.
    pub downgraded: bool,
    /// The exhausted resource's name, when a budget ran out.
    pub budget_exhausted: Option<String>,
    /// `PipelineReport::is_degraded()` at the source.
    pub degraded: bool,
    /// `PipelineReport::is_clean()` at the source.
    pub clean: bool,
    /// Human-readable notes, including budget-stage attribution.
    pub notes: Vec<String>,
    /// `SweepDiagnostics::is_degraded()` at the source: a sample point
    /// was dropped or repaired.
    pub sweep_degraded: bool,
    /// Dropped sample-point count.
    pub dropped: u64,
    /// `SweepDiagnostics::summary()` at the source.
    pub sweep_summary: String,
}

impl PipelineSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.str(&self.sweep);
        w.str(&self.compress);
        w.str(&self.project);
        w.flag(self.downgraded);
        w.opt_str(self.budget_exhausted.as_deref());
        w.flag(self.degraded);
        w.flag(self.clean);
        w.strs(&self.notes);
        w.flag(self.sweep_degraded);
        w.u64(self.dropped);
        w.str(&self.sweep_summary);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(PipelineSummary {
            sweep: r.str()?,
            compress: r.str()?,
            project: r.str()?,
            downgraded: r.flag()?,
            budget_exhausted: r.opt_str()?,
            degraded: r.flag()?,
            clean: r.flag()?,
            notes: r.strs()?,
            sweep_degraded: r.flag()?,
            dropped: r.u64()?,
            sweep_summary: r.str()?,
        })
    }
}

/// A completed job: the reduced model, the report the CLI would have
/// printed, the policy summary, and optionally the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Stdout report lines (method, order, singular values, ...).
    pub report_lines: Vec<String>,
    /// Run outcome for the acceptance policy; `None` for strict
    /// baseline methods.
    pub pipeline: Option<PipelineSummary>,
    /// Reduced `A`, bit-exact.
    pub a: WireMat,
    /// Reduced `B`, bit-exact.
    pub b: WireMat,
    /// Reduced `C`, bit-exact.
    pub c: WireMat,
    /// Reduced `D`, bit-exact.
    pub d: WireMat,
    /// JSON-lines trace when the request asked for one.
    pub trace: Option<String>,
}

/// What the server sends back: either a completed job or the error
/// string the local run would have printed. A well-formed `Err` is a
/// *numerical/usage* failure, not a protocol error.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResponse {
    /// The job ran; inspect the summary for degradation.
    Ok(Box<JobResult>),
    /// The job failed before producing a model.
    Err(String),
}

impl JobResponse {
    /// Serializes to a response payload (frame the result yourself).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new(&RESPONSE_MAGIC);
        match self {
            JobResponse::Err(msg) => {
                w.flag(false);
                w.str(msg);
            }
            JobResponse::Ok(res) => {
                w.flag(true);
                w.strs(&res.report_lines);
                w.flag(res.pipeline.is_some());
                if let Some(p) = &res.pipeline {
                    p.encode(&mut w);
                }
                for m in [&res.a, &res.b, &res.c, &res.d] {
                    m.encode(&mut w);
                }
                w.opt_str(res.trace.as_deref());
            }
        }
        w.finish()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on a malformed payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(payload, &RESPONSE_MAGIC)?;
        let resp = if !r.flag()? {
            JobResponse::Err(r.str()?)
        } else {
            let report_lines = r.strs()?;
            let pipeline = if r.flag()? { Some(PipelineSummary::decode(&mut r)?) } else { None };
            let a = WireMat::decode(&mut r)?;
            let b = WireMat::decode(&mut r)?;
            let c = WireMat::decode(&mut r)?;
            let d = WireMat::decode(&mut r)?;
            let trace = r.opt_str()?;
            JobResponse::Ok(Box::new(JobResult { report_lines, pipeline, a, b, c, d, trace }))
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> JobRequest {
        JobRequest {
            method: "pmtbr".into(),
            netlist: "R1 1 0 1\nC1 1 0 1\nPORT 1\n.END\n".into(),
            omega_max: 62.83185307179586,
            bands: vec![(0.0, 10.0), (20.0, 30.0)],
            samples: 12,
            tol: 1e-8,
            order: Some(6),
            greedy_tol: 1e-3,
            greedy_max_shifts: None,
            budget_lu: Some(100),
            budget_svd: None,
            budget_bytes: Some(1 << 20),
            trace: true,
        }
    }

    fn sample_result() -> JobResult {
        JobResult {
            report_lines: vec!["method: pmtbr".into(), "order: 2".into()],
            pipeline: Some(PipelineSummary {
                sweep: "Recovered".into(),
                compress: "Clean".into(),
                project: "Clean".into(),
                downgraded: false,
                budget_exhausted: Some("lu_factors".into()),
                degraded: true,
                clean: false,
                notes: vec!["lu factor budget exhausted in the sweep stage".into()],
                sweep_degraded: true,
                dropped: 3,
                sweep_summary: "3/12 dropped".into(),
            }),
            a: WireMat { rows: 2, cols: 2, bits: vec![1, 2, 3, f64::to_bits(-0.0)] },
            b: WireMat { rows: 2, cols: 1, bits: vec![5, 6] },
            c: WireMat { rows: 1, cols: 2, bits: vec![7, 8] },
            d: WireMat { rows: 1, cols: 1, bits: vec![0] },
            trace: Some("{\"k\":1}\n".into()),
        }
    }

    #[test]
    fn request_round_trips_bit_exactly() {
        let req = sample_request();
        let decoded = JobRequest::decode(&req.encode()).unwrap();
        assert_eq!(req, decoded);
    }

    #[test]
    fn response_round_trips_bit_exactly() {
        for resp in [
            JobResponse::Ok(Box::new(sample_result())),
            JobResponse::Err("bad netlist".into()),
        ] {
            let decoded = JobResponse::decode(&resp.encode()).unwrap();
            assert_eq!(resp, decoded);
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let payload = sample_request().encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, payload);

        // A forged oversized length prefix is rejected before allocation.
        let forged = [0xff, 0xff, 0xff, 0x7f];
        let err = read_frame(&mut forged.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Protocol(_)));
    }

    #[test]
    fn wrong_magic_and_truncation_are_protocol_errors() {
        let payload = sample_request().encode();
        assert!(matches!(JobResponse::decode(&payload), Err(WireError::Protocol(_))));
        for cut in [0, 7, payload.len() / 2, payload.len() - 1] {
            assert!(
                matches!(JobRequest::decode(&payload[..cut]), Err(WireError::Protocol(_))),
                "cut at {cut} must fail"
            );
        }
        // Trailing garbage is also rejected.
        let mut padded = payload.clone();
        padded.push(0);
        assert!(matches!(JobRequest::decode(&padded), Err(WireError::Protocol(_))));
    }

    #[test]
    fn matrix_count_is_bounded_by_the_bytes_left() {
        // An `Ok` response whose `A` header claims 1000×1000 entries (well
        // under the frame cap) followed by a single word.
        let mut w = WireWriter::new(&RESPONSE_MAGIC);
        w.flag(true);
        w.strs(&[]);
        w.flag(false);
        w.u64(1000);
        w.u64(1000);
        w.u64(0);
        match JobResponse::decode(&w.finish()) {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("bytes left"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn list_counts_are_bounded_by_the_bytes_left() {
        // Counts that fit the whole frame but not the bytes after them.
        let mut w = WireWriter::new(&RESPONSE_MAGIC);
        w.flag(true);
        w.u64(2);
        w.u64(0);
        match JobResponse::decode(&w.finish()) {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("bytes left"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        let mut w = WireWriter::new(&REQUEST_MAGIC);
        w.str("pmtbr");
        w.str("");
        w.f64(1.0);
        w.u64(2);
        w.u64(0);
        w.u64(0);
        match JobRequest::decode(&w.finish()) {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("bytes left"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn flag_bytes_are_strict() {
        let mut payload = sample_request().encode();
        let last = payload.len() - 1;
        payload[last] = 2; // trace flag
        assert!(matches!(JobRequest::decode(&payload), Err(WireError::Protocol(_))));
    }
}
