//! The PMTBR workspace benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload reduce_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload is a closed loop with one job in flight, in one
//! process, on inputs generated from `--seed`. `--trace 0` measures the
//! end-to-end metrics untraced; `--trace 1` runs the same jobs untraced
//! and traced, checks that both give the same bits and counts, and
//! splits job time across the crates by timing calls into their public
//! functions from this package. Every output is checked; the last line
//! of stdout is the JSON result, and a failed check exits 1. See
//! `perfbench/README.md` for the workloads, metrics and layer map.

mod check;
mod gen;
mod local;
mod served;
mod spill;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use obs::Counter;

use crate::stats::{mean_count, Counts, Outcome};
use crate::trace::Agg;

const DEFAULT_SEED: u64 = 1;

/// No timed phase runs longer than this many seconds, whatever
/// `--seconds` asks, so a run ends within the 180 s a run may take.
pub const HARD_CAP: f64 = 140.0;

const E2E: &[(&str, &str)] = &[
    ("throughput_jobs_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    ("in_band_err_p90", "rel"),
    ("order_mean", "states"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("sparsekit.first_factor_s", "s"),
    ("sparsekit.refactor_s", "s"),
    ("sparsekit.solve_s", "s"),
    ("sparsekit.factor_nnz", "count"),
    ("sparsekit.lu_symbolic", "count"),
    ("sparsekit.lu_factor", "count"),
    ("sparsekit.lu_reuse_hit", "count"),
    ("sparsekit.refine_iters", "count"),
    ("lti.sweep_s", "s"),
    ("lti.project_s", "s"),
    ("lti.other_s", "s"),
    ("lti.realify_s", "s"),
    ("numkit.svd_s", "s"),
    ("numkit.svd_sweeps", "count"),
    ("numkit.svd_rotations", "count"),
    ("numkit.svd_rounds", "count"),
    ("numkit.svd_qr_precond", "count"),
    ("numkit.par_speedup_x", "x"),
    ("pmtbr.run_s", "s"),
    ("pmtbr.self_s", "s"),
    ("pmtbr.sample_bytes", "bytes"),
    ("pmtbr.greedy_scored", "count"),
    ("pmtbr.greedy_accepted", "count"),
    ("pmtbr.cache_get_s", "s"),
    ("pmtbr.cache_put_s", "s"),
    ("pmtbr.cache_hit_frac", "frac"),
    ("pmtbr.cache_evict", "count"),
    ("pmtbr.cache_bytes", "bytes"),
    ("circuits.parse_s", "s"),
    ("circuits.build_s", "s"),
    ("cli.handle_hit_s", "s"),
    ("cli.handle_miss_s", "s"),
    ("serve.roundtrip_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.codec_s", "s"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("bench.job_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.unattributed_frac", "frac"),
];

#[derive(Debug, Clone, Copy)]
enum Workload {
    /// Refactor-bound: the sparse-LU sweep dominates (`q·n^α`).
    ReduceSweep,
    /// Served 80/20 hit/miss mix over loopback TCP.
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "reduce_sweep" => Some(Workload::ReduceSweep),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// Worker threads (`PMTBR_THREADS`), pinned for every run. The
    /// served workload keeps the default of one worker per core (two on
    /// the reference machine). `reduce_sweep` runs one worker: with two
    /// it needed a mesh too large for the run length to keep the sweep
    /// at 80 % of job time, and it spread more between runs.
    fn threads(self) -> usize {
        match self {
            Workload::ReduceSweep => 1,
            Workload::ServeMixed => 2,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload reduce_sweep|serve_mixed \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 25.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Pins the worker count the library reads from `PMTBR_THREADS`. Called
/// only while no other thread of this process is running.
pub fn set_threads(n: usize) {
    std::env::set_var("PMTBR_THREADS", n.to_string());
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times each job at one worker and at one worker per core, in turn;
/// returns both lists. Leaves `threads` pinned.
pub fn par_speedup(
    texts: &[String],
    threads: usize,
    job: impl Fn(&str) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let cores = cores();
    let mut one = Vec::with_capacity(texts.len());
    let mut all = Vec::with_capacity(texts.len());
    for t in texts {
        set_threads(cores);
        all.push(job(t));
        set_threads(1);
        one.push(job(t));
    }
    set_threads(threads);
    (one, all)
}

/// Total span time of `name` per `denom`.
pub fn per(layers: &BTreeMap<&'static str, Agg>, name: &str, denom: f64) -> f64 {
    layers.get(name).map_or(0.0, |a| a.total / denom)
}

/// Self time of `name` per `denom`.
pub fn self_per(layers: &BTreeMap<&'static str, Agg>, name: &str, denom: f64) -> f64 {
    layers.get(name).map_or(0.0, |a| a.self_time / denom)
}

/// The per-job means of the exact counter deltas, and the model-cache
/// hit share (one model lookup per job).
pub fn count_metrics(out: &mut Outcome, counts: &[Counts]) {
    for (name, c) in [
        ("sparsekit.lu_symbolic", Counter::LuSymbolic),
        ("sparsekit.lu_factor", Counter::LuFactor),
        ("sparsekit.lu_reuse_hit", Counter::LuReuseHit),
        ("sparsekit.refine_iters", Counter::RefineIters),
        ("numkit.svd_sweeps", Counter::SvdSweeps),
        ("numkit.svd_rotations", Counter::SvdRotations),
        ("numkit.svd_rounds", Counter::SvdRounds),
        ("numkit.svd_qr_precond", Counter::SvdQrPrecond),
        ("pmtbr.sample_bytes", Counter::SampleBytes),
        ("pmtbr.greedy_scored", Counter::GreedyScored),
        ("pmtbr.greedy_accepted", Counter::GreedyAccepted),
        ("pmtbr.cache_hit_frac", Counter::CacheHit),
        ("pmtbr.cache_evict", Counter::CacheEvict),
        ("pmtbr.cache_bytes", Counter::CacheBytes),
    ] {
        out.set(name, mean_count(counts, c));
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = args.workload.threads();
    set_threads(threads);
    let nproc = cores();
    eprintln!(
        "perfbench: workload {:?}, seed {}, {} s, trace {}, PMTBR_THREADS={threads}, nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let mut out = match (args.workload, args.trace) {
        (Workload::ReduceSweep, false) => local::run(args.seed, args.seconds, threads),
        (Workload::ReduceSweep, true) => local::run_traced(args.seed, args.seconds, threads),
        (Workload::ServeMixed, false) => served::run(args.seed, args.seconds, threads),
        (Workload::ServeMixed, true) => served::run_traced(args.seed, args.seconds, threads),
    };
    if args.trace {
        // Layers a workload does not exercise read 0.
        for &(name, _) in PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
    }
    let line = out.json(if args.trace { PER_LAYER } else { E2E });
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{line}");
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
