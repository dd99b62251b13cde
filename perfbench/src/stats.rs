//! Timing, percentiles, digests, exact counter deltas, peak memory, and
//! the result line.

use std::collections::BTreeMap;

use obs::counters::{snapshot, ALL};
use obs::{Clock, Counter, Snapshot, WallClock};

/// Monotonic seconds since the stopwatch started, read through
/// `obs::WallClock`, the workspace's one sanctioned wall-clock reader.
pub struct Stopwatch(WallClock);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(WallClock::new())
    }

    pub fn secs(&mut self) -> f64 {
        self.0.now() as f64 * 1e-9
    }
}

/// Linear-interpolated percentile `q ∈ [0, 1]` of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// FNV-1a over bytes, for bit-exact output comparison.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(mut self, b: &[u8]) -> Self {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }
    pub fn mat(self, m: &numkit::DMat) -> Self {
        let mut h = self.u64(m.nrows() as u64).u64(m.ncols() as u64);
        for i in 0..m.nrows() {
            for j in 0..m.ncols() {
                h = h.u64(m[(i, j)].to_bits());
            }
        }
        h
    }
    /// The bits of a model's A, B, C and D.
    pub fn model(self, m: &lti::StateSpace) -> Self {
        self.mat(&m.a).mat(&m.b).mat(&m.c).mat(&m.d)
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Exact per-job deltas of every `obs` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; ALL.len()]);

impl Counts {
    pub fn since(before: &Snapshot) -> Counts {
        let d = snapshot().delta(before);
        Counts(ALL.map(|c| d.get(c)))
    }
    pub fn get(&self, c: Counter) -> u64 {
        let i = ALL
            .iter()
            .position(|&x| x == c)
            .expect("every counter is in ALL");
        self.0[i]
    }
}

/// Mean per job of counter `c`.
pub fn mean_count(counts: &[Counts], c: Counter) -> f64 {
    counts.iter().map(|k| k.get(c) as f64).sum::<f64>() / counts.len().max(1) as f64
}

/// The peak resident set of this process's own address space, in MiB:
/// `VmHWM` from `/proc/self/status`. `getrusage`'s `ru_maxrss` is not
/// used because it keeps the launching process's peak across `exec`,
/// so under `cargo run` it reads cargo's footprint, not the benchmark's.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// What a run prints: the check verdict, job counts, and metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn problem(&mut self, p: String) {
        self.problems.push(p);
    }

    /// The result line, with the metrics in `spec` order. A metric
    /// missing or not finite is a failed check.
    pub fn json(&mut self, spec: &[(&'static str, &'static str)]) -> String {
        let mut parts = Vec::with_capacity(spec.len());
        for &(name, unit) in spec {
            let v = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() {
                v
            } else {
                self.problems
                    .push(format!("metric {name} was not measured"));
                0.0
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }
}
