//! The local workload: closed-loop `pmtbr` reductions of distinct
//! seeded meshes, each going netlist text → `circuits::parse_netlist` →
//! `Netlist::build` → `pmtbr::pipeline::run_cached` with `NullCache`,
//! the path `pmtbr-cli reduce` takes.

use lti::{realified_ncols, realify_columns_into, Descriptor, LtiSystem, ShiftSolveEngine};
use numkit::DMat;
use obs::Counter;
use pmtbr::pipeline::run_cached;
use pmtbr::{Budget, NullCache, PmtbrOptions, Reduction, ReductionPlan, SamplePoint, Sampling};

use crate::check::{self, MAX_ERR, OMEGA_MAX};
use crate::gen::{mesh_netlist, MeshShape, Rng};
use crate::spill::Spill;
use crate::stats::{mean, median, peak_rss_mb, percentile, Counts, Fnv, Outcome, Stopwatch};
use crate::trace::{fold, Recorder, TracedCache, TracedSys};
use crate::{cores, count_metrics, par_speedup, per, self_per, set_threads, HARD_CAP};

/// The mesh every job reduces: large against ports × nodes, so the
/// sweep dominates the job and the SVD of its stack is small.
const SHAPE: MeshShape = MeshShape {
    rows: 34,
    cols: 34,
    ports: 2,
};
/// Quadrature nodes of the fixed linear grid.
const NODES: usize = 16;
/// Singular-value truncation tolerance; no order cap.
const TOL: f64 = 1e-3;
/// Seed-stream tags: timed pencils and set-up pencils never overlap.
const TIMED: u64 = 1;
const SETUP: u64 = 2;
/// Set-up is repeated and its median reported; every round warms the
/// process up on the same pencils, which lie outside the timed set.
/// Only the first round runs in a cold process, and the median drops
/// it: `setup_s` measures warm jobs, not cold start.
const SETUP_ROUNDS: usize = 5;
const WARMUP_JOBS: usize = 8;
/// Enough jobs that at least ten lie beyond the 90th percentile.
const MIN_JOBS: usize = 110;
/// Jobs in each pass of a traced run, at least.
const MIN_TRACE_JOBS: usize = 20;
/// Jobs whose kernels are replayed, and jobs re-run at one worker.
const REPLAYS: usize = 16;
const SPEEDUP_JOBS: usize = 8;

fn plan() -> ReductionPlan {
    let sampling = Sampling::Linear {
        omega_max: OMEGA_MAX,
        n: NODES,
    };
    ReductionPlan::pmtbr(&PmtbrOptions::new(sampling).with_tolerance(TOL))
}

fn text(seed: u64, tag: u64, k: usize) -> String {
    mesh_netlist(SHAPE, &mut Rng::stream(seed, tag, k as u64))
}

/// One finished job: its time, exact counter deltas, a digest of the
/// reduced A/B/C/D bits, spectrum, sweep account and report, and where
/// its model was spilled.
pub struct Job {
    pub latency: f64,
    pub counts: Counts,
    pub digest: u64,
    pub order: usize,
    pub clean: bool,
    pub model: Option<usize>,
    pub error: Option<String>,
}

fn digest(red: &Reduction) -> u64 {
    let m = &red.model.reduced;
    let listing = format!(
        "{:?}|{:?}|{:?}",
        red.model.singular_values, red.diagnostics, red.report
    );
    Fnv::new()
        .model(m)
        .u64(red.model.error_estimate.to_bits())
        .bytes(listing.as_bytes())
        .finish()
}

/// Runs one job; with `spill`, its reduced model is kept for the checks.
fn run_job(
    text: &str,
    plan: &ReductionPlan,
    rec: Option<&Recorder>,
    spill: Option<&mut Spill>,
) -> Job {
    let before = obs::counters::snapshot();
    let mut clock = Stopwatch::start();
    let out = match rec {
        None => check::build(text).and_then(|sys| {
            run_cached(&sys, plan, &Budget::default(), &NullCache).map_err(|e| e.to_string())
        }),
        Some(rec) => rec.span("job", || traced_job(text, plan, rec)),
    };
    let latency = clock.secs();
    let counts = Counts::since(&before);
    let spilled = match (&out, spill) {
        (Ok(red), Some(spill)) => Some(spill.push(&red.model.reduced)),
        _ => None,
    };
    match (out, spilled.transpose()) {
        (Ok(red), Ok(model)) => Job {
            latency,
            counts,
            digest: digest(&red),
            order: red.model.order,
            clean: red.report.is_clean(),
            model,
            error: None,
        },
        (Err(e), _) | (_, Err(e)) => Job {
            latency,
            counts,
            digest: 0,
            order: 0,
            clean: false,
            model: None,
            error: Some(e),
        },
    }
}

fn traced_job(text: &str, plan: &ReductionPlan, rec: &Recorder) -> Result<Reduction, String> {
    let nl = rec
        .span("circuits.parse", || circuits::parse_netlist(text))
        .map_err(|e| e.to_string())?;
    let sys = rec
        .span("circuits.build", || nl.build())
        .map_err(|e| e.to_string())?;
    let traced = TracedSys { inner: &sys, rec };
    let cache = TracedCache {
        inner: &NullCache,
        rec,
    };
    rec.span("pmtbr.run", || {
        run_cached(&traced, plan, &Budget::default(), &cache)
    })
    .map_err(|e| e.to_string())
}

/// Set-up rounds of warm-up jobs; returns each round's seconds.
fn setup(plan: &ReductionPlan, seed: u64, out: &mut Outcome) -> Vec<f64> {
    let texts: Vec<String> = (0..WARMUP_JOBS).map(|j| text(seed, SETUP, j)).collect();
    (0..SETUP_ROUNDS)
        .map(|_| {
            let mut clock = Stopwatch::start();
            for t in &texts {
                if let Some(e) = run_job(t, plan, None, None).error {
                    out.problem(format!("warm-up job failed: {e}"));
                }
            }
            clock.secs()
        })
        .collect()
}

/// The closed loop: one job in flight, each on a fresh pencil, until
/// `budget` seconds have passed and at least `min_jobs` are done. Input
/// text is generated between jobs, outside every job's time. Returns
/// the jobs and the wall seconds of the whole loop.
fn timed(
    plan: &ReductionPlan,
    seed: u64,
    budget: f64,
    min_jobs: usize,
    spill: &mut Spill,
) -> (Vec<Job>, f64) {
    let mut clock = Stopwatch::start();
    let mut jobs = Vec::new();
    loop {
        let now = clock.secs();
        if (jobs.len() >= min_jobs && now >= budget) || now >= HARD_CAP {
            return (jobs, now);
        }
        let t = text(seed, TIMED, jobs.len());
        jobs.push(run_job(&t, plan, None, Some(&mut *spill)));
    }
}

/// Checks every job against the full model and returns the in-band
/// errors; counts failed jobs into `out`. The references run on every
/// core; the worker count is pinned back to `threads` afterwards.
fn verify(
    seed: u64,
    jobs: &[Job],
    spill: &mut Spill,
    threads: usize,
    out: &mut Outcome,
) -> Vec<f64> {
    set_threads(cores());
    let mut errs = Vec::with_capacity(jobs.len());
    for (k, job) in jobs.iter().enumerate() {
        let verdict = match (&job.error, job.model) {
            (Some(e), _) => Err(e.clone()),
            (None, None) => Err("no model".into()),
            (None, Some(i)) => spill
                .get(i)
                .and_then(|red| check::in_band_error(&check::build(&text(seed, TIMED, k))?, &red)),
        };
        let ok = match verdict {
            Ok(err) => {
                errs.push(err);
                let counts_ok = job.counts.get(Counter::CacheHit) == 0
                    && job.counts.get(Counter::CacheEvict) == 0
                    && job.counts.get(Counter::ShiftDropped) == 0;
                if !(err <= MAX_ERR && job.clean && counts_ok) {
                    out.problem(format!(
                        "job {k}: in-band error {err:.3e}, clean {}, counts {:?}",
                        job.clean, job.counts
                    ));
                }
                err <= MAX_ERR && job.clean && counts_ok
            }
            Err(e) => {
                out.problem(format!("job {k}: {e}"));
                false
            }
        };
        if !ok {
            out.failed += 1;
        }
    }
    out.attempted = jobs.len() as u64;
    set_threads(threads);
    errs
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let plan = plan();
    let mut out = Outcome::new();
    let mut spill = match Spill::create() {
        Ok(s) => s,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let setups = setup(&plan, seed, &mut out);
    let (jobs, wall) = timed(&plan, seed, seconds, MIN_JOBS, &mut spill);
    let rss = peak_rss_mb();

    // The first job again: its output and exact counts must repeat.
    let again = run_job(&text(seed, TIMED, 0), &plan, None, None);
    if again.digest != jobs[0].digest || again.counts != jobs[0].counts {
        out.problem("job 0 did not repeat bit for bit and count for count".into());
    }

    let errs = verify(seed, &jobs, &mut spill, threads, &mut out);
    let lat: Vec<f64> = jobs.iter().map(|j| j.latency).collect();
    if lat.len() < MIN_JOBS {
        out.problem(format!(
            "only {} jobs: too few for a 90th percentile",
            lat.len()
        ));
    }
    eprintln!(
        "perfbench: {} timed jobs, {} set-up rounds",
        lat.len(),
        setups.len()
    );
    out.set("throughput_jobs_s", lat.len() as f64 / wall);
    out.set("latency_p50_s", percentile(&lat, 0.5));
    out.set("latency_p90_s", percentile(&lat, 0.9));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", rss);
    out.set(
        "ok_frac",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
    );
    eprintln!(
        "perfbench: worst in-band error {:.3e}",
        errs.iter().copied().fold(0.0, f64::max)
    );
    out.set("in_band_err_p90", percentile(&errs, 0.9));
    out.set(
        "order_mean",
        mean(&jobs.iter().map(|j| j.order as f64).collect::<Vec<_>>()),
    );
    out
}

/// Replays one job's sweep and compress kernels outside its job span:
/// the engine's factorizations, the triangular solves, realification
/// and the SVD, on the job's own pencil and shifts. Returns the mean
/// factor fill.
pub fn replay_kernels(
    sys: &Descriptor,
    points: &[SamplePoint],
    rec: &Recorder,
) -> Result<f64, String> {
    rec.span("replay", || {
        let engine = ShiftSolveEngine::new(sys);
        let b = LtiSystem::input_matrix(sys).to_complex();
        let mut blocks = Vec::with_capacity(points.len());
        let mut nnz = 0usize;
        for (i, p) in points.iter().enumerate() {
            let name = if i == 0 {
                "sparsekit.first_factor"
            } else {
                "sparsekit.refactor"
            };
            let lu = rec
                .span(name, || engine.factor(p.s))
                .map_err(|e| e.to_string())?;
            nnz += lu.factor_nnz();
            let z = rec
                .span("sparsekit.solve", || lu.solve_mat(&b))
                .map_err(|e| e.to_string())?;
            blocks.push(z.scale(p.weight.sqrt()));
        }
        let cols: usize = blocks.iter().map(|z| realified_ncols(z, 1e-13)).sum();
        let mut stack = DMat::zeros(LtiSystem::nstates(sys), cols);
        rec.span("lti.realify", || {
            let mut col = 0;
            for z in &blocks {
                col += realify_columns_into(z, 1e-13, &mut stack, col);
            }
        });
        rec.span("numkit.svd", || numkit::svd(&stack))
            .map_err(|e| e.to_string())?;
        Ok(nnz as f64 / points.len().max(1) as f64)
    })
}

/// The traced run: the same jobs untraced and then traced, compared bit
/// for bit, then kernel replays; every per-layer metric.
pub fn run_traced(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let plan = plan();
    let mut out = Outcome::new();
    let mut spill = match Spill::create() {
        Ok(s) => s,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    setup(&plan, seed, &mut out);
    let (untraced, _) = timed(&plan, seed, seconds / 2.0, MIN_TRACE_JOBS, &mut spill);
    let n = untraced.len();

    let rec = Recorder::new();
    let traced: Vec<Job> = (0..n)
        .map(|k| {
            let t = text(seed, TIMED, k);
            rec.set_request(k as u64);
            run_job(&t, &plan, Some(&rec), None)
        })
        .collect();
    for (k, (a, b)) in untraced.iter().zip(&traced).enumerate() {
        if a.digest != b.digest || a.counts != b.counts || a.error != b.error {
            out.problem(format!(
                "job {k}: traced output or counts differ from untraced"
            ));
        }
    }

    let points = plan.sampling.points().unwrap_or_default();
    let mut nnz = Vec::new();
    for k in 0..n.min(REPLAYS) {
        rec.set_request(k as u64);
        match check::build(&text(seed, TIMED, k))
            .and_then(|sys| replay_kernels(&sys, &points, &rec))
        {
            Ok(f) => nnz.push(f),
            Err(e) => out.problem(format!("replay of job {k}: {e}")),
        }
    }

    let texts: Vec<String> = (0..n.min(SPEEDUP_JOBS))
        .map(|k| text(seed, TIMED, k))
        .collect();
    let (one, all) = par_speedup(&texts, threads, |t| run_job(t, &plan, None, None).latency);

    verify(seed, &untraced, &mut spill, threads, &mut out);
    let layers = fold(&rec.into_spans());
    let counts: Vec<Counts> = traced.iter().map(|j| j.counts).collect();
    count_metrics(&mut out, &counts);
    let (nf, rf) = (n as f64, nnz.len() as f64);
    for (name, span, denom) in [
        ("sparsekit.first_factor_s", "sparsekit.first_factor", rf),
        ("sparsekit.refactor_s", "sparsekit.refactor", rf),
        ("sparsekit.solve_s", "sparsekit.solve", rf),
        ("lti.sweep_s", "lti.sweep", nf),
        ("lti.project_s", "lti.project", nf),
        ("lti.other_s", "lti.other", nf),
        ("lti.realify_s", "lti.realify", rf),
        ("numkit.svd_s", "numkit.svd", rf),
        ("pmtbr.run_s", "pmtbr.run", nf),
        ("pmtbr.cache_get_s", "pmtbr.cache_get", nf),
        ("pmtbr.cache_put_s", "pmtbr.cache_put", nf),
        ("circuits.parse_s", "circuits.parse", nf),
        ("circuits.build_s", "circuits.build", nf),
        ("bench.job_s", "job", nf),
    ] {
        out.set(name, per(&layers, span, denom));
    }
    out.set("pmtbr.self_s", self_per(&layers, "pmtbr.run", nf));
    out.set("sparsekit.factor_nnz", mean(&nnz));
    out.set("numkit.par_speedup_x", median(&one) / median(&all));
    out.set(
        "bench.unattributed_frac",
        self_per(&layers, "job", 1.0) / per(&layers, "job", 1.0),
    );
    let sum = |jobs: &[Job]| jobs.iter().map(|j| j.latency).sum::<f64>();
    out.set(
        "bench.trace_overhead_frac",
        1.0 - sum(&untraced) / sum(&traced),
    );
    let job = per(&layers, "job", 1.0);
    eprintln!(
        "perfbench: traced shares of job time: lti.sweep {:.3}, pmtbr.self {:.3}, circuits {:.3}",
        per(&layers, "lti.sweep", 1.0) / job,
        self_per(&layers, "pmtbr.run", 1.0) / job,
        (per(&layers, "circuits.parse", 1.0) + per(&layers, "circuits.build", 1.0)) / job
    );
    out
}
