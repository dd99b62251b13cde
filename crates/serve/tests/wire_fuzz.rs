//! Robustness: the wire decoders must never panic, only return a value
//! or [`WireError::Protocol`], whatever payload bytes a peer sends.
//!
//! Each case mutates a valid encoded payload with byte flips,
//! truncations, insertions and u64 words overwritten with boundary
//! values (the values a forged length or count field would carry).
//! Mutations come from the in-tree [`SplitMix64`] generator, so every
//! run decodes the same inputs.

use numkit::SplitMix64;
use serve::{
    JobRequest, JobResponse, JobResult, PipelineSummary, SweepSummary, WireError, WireMat,
};

/// Mutated payloads decoded per seed payload.
const CASES: u64 = 150_000;

/// Values written over a u64 word: empty, unit, large-but-plausible,
/// huge, and all-ones counts.
const WORDS: [u64; 5] = [0, 1, 1 << 40, 1 << 62, u64::MAX];

fn request() -> JobRequest {
    JobRequest {
        method: "greedy".into(),
        netlist: "R1 1 0 1\nC1 1 0 1\nR2 1 2 2\nC2 2 0 1\nPORT 1\nPORT 2\n.END\n".into(),
        omega_max: 10.0,
        bands: vec![(0.0, 2.0), (5.0, 10.0)],
        samples: 8,
        tol: 1e-3,
        order: Some(4),
        greedy_tol: 1e-3,
        greedy_max_shifts: Some(8),
        budget_lu: Some(64),
        budget_svd: None,
        budget_bytes: Some(1 << 20),
        trace: true,
    }
}

fn wire_mat(rows: usize, cols: usize) -> WireMat {
    let bits = (0..rows * cols).map(|k| (k as f64 - 1.5).to_bits()).collect();
    WireMat { rows, cols, bits }
}

fn result(summaries: bool) -> JobResult {
    JobResult {
        report_lines: vec!["method: greedy".into(), "order: 2".into()],
        pipeline: summaries.then(|| PipelineSummary {
            sweep: "Recovered".into(),
            compress: "Clean".into(),
            project: "Clean".into(),
            downgraded: false,
            budget_exhausted: Some("lu-factorizations".into()),
            degraded: true,
            clean: false,
            notes: vec!["lu factor budget exhausted in the sweep stage".into()],
        }),
        sweep: summaries.then(|| SweepSummary {
            degraded: true,
            dropped: 1,
            summary: "1/8 dropped".into(),
        }),
        a: wire_mat(2, 2),
        b: wire_mat(2, 2),
        c: wire_mat(2, 2),
        d: wire_mat(2, 2),
        trace: summaries.then(|| "{\"span\":\"pmtbr.sweep\"}\n".into()),
    }
}

/// Applies one to four random mutations to `payload`.
fn mutate(payload: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = payload.to_vec();
    for _ in 0..1 + rng.next_usize(4) {
        match rng.next_usize(4) {
            0 if !out.is_empty() => {
                let at = rng.next_usize(out.len());
                out[at] ^= 1 + rng.next_usize(255) as u8;
            }
            1 => out.truncate(rng.next_usize(out.len() + 1)),
            2 => {
                let at = rng.next_usize(out.len() + 1);
                let n = 1 + rng.next_usize(16);
                let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                out.splice(at..at, bytes);
            }
            3 if out.len() >= 8 => {
                let at = rng.next_usize(out.len() - 7);
                let word = WORDS[rng.next_usize(WORDS.len())];
                out[at..at + 8].copy_from_slice(&word.to_le_bytes());
            }
            _ => {}
        }
    }
    out
}

/// Decodes `CASES` mutations of `payload`; every result must be a value
/// or a protocol error. Returns how many decoded to a value.
fn fuzz<T>(payload: &[u8], stream: u64, decode: fn(&[u8]) -> Result<T, WireError>) -> usize {
    assert!(decode(payload).is_ok(), "the unmutated payload must decode");
    let mut decoded = 0;
    for case in 0..CASES {
        let mut rng = SplitMix64::new(stream << 32 | case);
        let bytes = mutate(payload, &mut rng);
        match decode(&bytes) {
            Ok(_) => decoded += 1,
            Err(WireError::Protocol(_)) => {}
            Err(e) => panic!("stream {stream} case {case}: non-protocol error {e}"),
        }
    }
    decoded
}

#[test]
fn mutated_requests_decode_or_fail_cleanly() {
    let decoded = fuzz(&request().encode(), 1, JobRequest::decode);
    // Flips inside float fields still decode; the mutations reach past
    // the header rather than all failing at the magic.
    assert!(decoded > 0, "no mutated request decoded");
}

#[test]
fn mutated_responses_decode_or_fail_cleanly() {
    let payloads = [
        JobResponse::Ok(Box::new(result(true))).encode(),
        JobResponse::Ok(Box::new(result(false))).encode(),
        JobResponse::Err("netlist line 3: unknown element `Q1`".into()).encode(),
    ];
    for (stream, payload) in (2u64..).zip(&payloads) {
        let decoded = fuzz(payload, stream, JobResponse::decode);
        assert!(decoded > 0, "stream {stream}: no mutated response decoded");
    }
}
