//! The served workload: `greedy` jobs sent one at a time with
//! `serve::submit` over loopback TCP to an in-process `serve::serve`
//! that runs `pmtbr_cli::handle_job` over an `LruCache` — one extracted
//! network family, many reduction requests.
//!
//! A seeded schedule sends blocks of ten requests: each of the eight
//! primed hot pencils once (model-cache hits) and two fresh pencils of
//! the same shape (misses, which run the greedy pipeline and are
//! admitted, evicting older entries). The shares are exact in every
//! block, so the median always falls among hits and the 90th percentile
//! among misses.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use obs::Counter;
use pmtbr::pipeline::run_cached;
use pmtbr::{Budget, LruCache, NullCache, OrderControl, Reduction, ReductionPlan, SamplePoint};
use pmtbr_cli::{handle_job, mat_to_wire, wire_to_mat};
use serve::{submit, JobRequest, JobResponse, JobResult, ServeOptions};

use crate::check::{self, MAX_ERR, OMEGA_MAX};
use crate::gen::{mesh_netlist, MeshShape, Rng};
use crate::local::replay_kernels;
use crate::spill::Spill;
use crate::stats::{mean, median, peak_rss_mb, percentile, Counts, Fnv, Outcome, Stopwatch};
use crate::trace::{fold, Recorder, Span, TracedCache, TracedSys};
use crate::{cores, count_metrics, par_speedup, per, self_per, set_threads, HARD_CAP};

const SHAPE: MeshShape = MeshShape {
    rows: 32,
    cols: 32,
    ports: 4,
};
const HOT: usize = 8;
const BLOCK: usize = 10;
const SAMPLES: u64 = 8;
const TOL: f64 = 1e-3;
const GREEDY_TOL: f64 = 1e-3;
/// Holds the hot set plus the artifacts of the most recent misses; a
/// hot model is touched at least once every two blocks, so it is never
/// the least recently used entry when a miss is admitted.
const CACHE_BYTES: usize = 16 << 20;
const SETUP_ROUNDS: usize = 5;
/// Blocks in a run, at least: 100 misses and the hot set put ten
/// distinct models beyond the 90th percentile of the in-band error.
const MIN_BLOCKS: usize = 50;
const MIN_TRACE_BLOCKS: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(60);
/// Misses re-run locally and compared bit for bit with the served model.
const LOCAL_SAMPLE: usize = 3;
/// Traced-run replays: requests whose codec and parse are timed, misses
/// whose pipeline is replayed, misses re-run at one worker.
const CODEC_REPLAYS: usize = 40;
const MISS_REPLAYS: usize = 12;
const SPEEDUP_MISSES: usize = 6;
/// Request tag for priming, whose spans are not part of any job.
const PRIMING: u64 = u64::MAX;

const HOT_TAG: u64 = 3;
const MISS_TAG: u64 = 4;
const SCHEDULE_TAG: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Hot(usize),
    Miss(usize),
}

/// Request `i` of the schedule.
fn slot(seed: u64, i: usize) -> Slot {
    let b = i / BLOCK;
    let mut rng = Rng::stream(seed, SCHEDULE_TAG, b as u64);
    let mut hot: Vec<usize> = (0..HOT).collect();
    for k in (1..HOT).rev() {
        hot.swap(k, rng.below(k + 1));
    }
    let first = rng.below(BLOCK);
    let mut second = rng.below(BLOCK - 1);
    if second >= first {
        second += 1;
    }
    let pos = i % BLOCK;
    if pos == first.min(second) {
        Slot::Miss(2 * b)
    } else if pos == first.max(second) {
        Slot::Miss(2 * b + 1)
    } else {
        Slot::Hot(hot[pos - usize::from(pos > first) - usize::from(pos > second)])
    }
}

fn request(netlist: String) -> JobRequest {
    JobRequest {
        method: "greedy".into(),
        netlist,
        omega_max: OMEGA_MAX,
        bands: vec![],
        samples: SAMPLES,
        tol: TOL,
        order: None,
        greedy_tol: GREEDY_TOL,
        greedy_max_shifts: None,
        budget_lu: None,
        budget_svd: None,
        budget_bytes: None,
        trace: false,
    }
}

/// The plan `pmtbr-cli` builds for [`request`].
fn plan() -> ReductionPlan {
    let order = OrderControl::Tolerance {
        tolerance: TOL,
        max_order: None,
    };
    ReductionPlan::greedy(OMEGA_MAX, GREEDY_TOL, SAMPLES as usize, order)
}

fn text(seed: u64, slot: Slot) -> String {
    let (tag, k) = match slot {
        Slot::Hot(h) => (HOT_TAG, h),
        Slot::Miss(m) => (MISS_TAG, m),
    };
    mesh_netlist(SHAPE, &mut Rng::stream(seed, tag, k as u64))
}

fn response_digest(resp: &JobResponse) -> u64 {
    Fnv::new().bytes(&resp.encode()).finish()
}

/// The hot set's priming responses: digest of the encoded bytes, and
/// the result.
type Primed = Vec<(u64, JobResult)>;

/// One served request: its time, exact counter deltas, the digest of
/// the response bytes, and what the checks need of the model.
struct Served {
    slot: Slot,
    latency: f64,
    counts: Counts,
    digest: u64,
    order: usize,
    clean: bool,
    /// A miss's model, spilled for the checks.
    model: Option<usize>,
    /// The whole response, kept only by a traced pass for its replays.
    result: Option<JobResult>,
    error: Option<String>,
}

/// Sends the hot set to a fresh server: the priming responses every
/// later hit must equal byte for byte.
fn prime(addr: &str, hot: &[JobRequest]) -> Result<Primed, String> {
    hot.iter()
        .map(|req| match submit(addr, req, TIMEOUT) {
            Ok(resp @ JobResponse::Ok(_)) => {
                let d = response_digest(&resp);
                let JobResponse::Ok(res) = resp else {
                    unreachable!()
                };
                Ok((d, *res))
            }
            Ok(JobResponse::Err(e)) => Err(format!("priming job failed: {e}")),
            Err(e) => Err(format!("priming submit failed: {e}")),
        })
        .collect()
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At the first block boundary after `budget` seconds with at least
    /// `min_blocks` blocks done.
    After { budget: f64, min_blocks: usize },
    /// After exactly this many requests.
    Count(usize),
}

/// The closed loop over the schedule. Returns the requests and the
/// wall seconds of the whole loop.
fn timed(
    addr: &str,
    seed: u64,
    hot: &[JobRequest],
    stop: Stop,
    rec: Option<&Recorder>,
    mut spill: Option<&mut Spill>,
) -> (Vec<Served>, f64) {
    let mut clock = Stopwatch::start();
    let mut served = Vec::new();
    loop {
        let i = served.len();
        let now = clock.secs();
        let done = match stop {
            Stop::Count(n) => i >= n,
            Stop::After { budget, min_blocks } => {
                i % BLOCK == 0 && ((i >= min_blocks * BLOCK && now >= budget) || now >= HARD_CAP)
            }
        };
        if done {
            return (served, now);
        }
        let slot = slot(seed, i);
        let fresh;
        let req = match slot {
            Slot::Hot(h) => &hot[h],
            Slot::Miss(_) => {
                fresh = request(text(seed, slot));
                &fresh
            }
        };
        let before = obs::counters::snapshot();
        let mut job_clock = Stopwatch::start();
        let resp = match rec {
            None => submit(addr, req, TIMEOUT),
            Some(rec) => {
                rec.set_request(i as u64);
                rec.span("job", || {
                    rec.span("serve.roundtrip", || {
                        rec.set_remote_parent(rec.open_span());
                        let resp = submit(addr, req, TIMEOUT);
                        rec.set_remote_parent(None);
                        resp
                    })
                })
            }
        };
        let latency = job_clock.secs();
        let counts = Counts::since(&before);
        let mut s = Served {
            slot,
            latency,
            counts,
            digest: 0,
            order: 0,
            clean: false,
            model: None,
            result: None,
            error: None,
        };
        match resp {
            Ok(resp @ JobResponse::Ok(_)) => {
                s.digest = response_digest(&resp);
                let JobResponse::Ok(res) = resp else {
                    unreachable!()
                };
                s.order = res.a.rows;
                s.clean = res.pipeline.as_ref().is_some_and(|p| p.clean);
                if let (Slot::Miss(_), Some(spill)) = (slot, spill.as_deref_mut()) {
                    match model_of(&res).and_then(|m| spill.push(&m)) {
                        Ok(k) => s.model = Some(k),
                        Err(e) => s.error = Some(e),
                    }
                }
                if rec.is_some() {
                    s.result = Some(*res);
                }
            }
            Ok(JobResponse::Err(e)) => s.error = Some(format!("job error: {e}")),
            Err(e) => s.error = Some(format!("submit failed: {e}")),
        }
        served.push(s);
    }
}

/// One set-up round — a server over a fresh cache, started and primed
/// with the hot set — then `then` against the same server, which is
/// stopped afterwards. With a recorder, the handler and the cache are
/// traced. Returns the set-up seconds, the priming responses, and
/// `then`'s output.
fn round<R>(
    hot: &[JobRequest],
    rec: Option<&Recorder>,
    then: impl FnOnce(&str) -> R,
) -> Result<(f64, Primed, R), String> {
    let mut clock = Stopwatch::start();
    let cache = LruCache::new(CACHE_BYTES);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let handler = |req: &JobRequest| match rec {
                None => handle_job(req, &cache),
                Some(rec) => rec.span("cli.handle", || {
                    handle_job(req, &TracedCache { inner: &cache, rec })
                }),
            };
            serve::serve(&listener, &handler, &ServeOptions::default(), &shutdown)
        });
        if let Some(rec) = rec {
            rec.set_request(PRIMING);
        }
        let out = prime(&addr, hot).map(|primed| {
            let setup = clock.secs();
            (setup, primed, then(&addr))
        });
        // The flag publishes no other data; the server polls it Relaxed.
        shutdown.store(true, Ordering::Relaxed);
        match server.join() {
            Ok(Ok(_stats)) => out,
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    })
}

fn model_of(res: &JobResult) -> Result<lti::StateSpace, String> {
    let (a, b, c, d) = (
        wire_to_mat(&res.a)?,
        wire_to_mat(&res.b)?,
        wire_to_mat(&res.c)?,
        wire_to_mat(&res.d)?,
    );
    lti::StateSpace::new(a, b, c, Some(d)).map_err(|e| e.to_string())
}

fn same_model(res: &JobResult, red: &Reduction) -> bool {
    let m = &red.model.reduced;
    res.a == mat_to_wire(&m.a)
        && res.b == mat_to_wire(&m.b)
        && res.c == mat_to_wire(&m.c)
        && res.d == mat_to_wire(&m.d)
}

/// Reduces `text` locally the way the server does, without a cache.
fn local_reduce(text: &str) -> Result<Reduction, String> {
    let sys = check::build(text)?;
    run_cached(&sys, &plan(), &Budget::default(), &NullCache).map_err(|e| e.to_string())
}

/// Checks every served response; returns the in-band error of each
/// distinct served model: the hot set's once, and every miss's. Runs
/// with the server stopped, on every core; the worker count is pinned
/// back to `threads` afterwards.
fn verify(
    seed: u64,
    primed: &Primed,
    served: &[Served],
    spill: &mut Spill,
    threads: usize,
    out: &mut Outcome,
) -> Vec<f64> {
    set_threads(cores());
    // Hot models are fixed by priming: check each once.
    let hot_err: Vec<Result<f64, String>> = primed
        .iter()
        .enumerate()
        .map(|(h, (_, res))| {
            if !res.pipeline.as_ref().is_some_and(|p| p.clean) {
                return Err("hot model is not clean".into());
            }
            let sys = check::build(&text(seed, Slot::Hot(h)))?;
            check::in_band_error(&sys, &model_of(res)?)
        })
        .collect();
    for (h, (_, res)) in primed.iter().enumerate().take(2) {
        match local_reduce(&text(seed, Slot::Hot(h))) {
            Ok(red) if same_model(res, &red) => {}
            Ok(_) => out.problem(format!(
                "hot pencil {h}: served model differs from a local run"
            )),
            Err(e) => out.problem(format!("hot pencil {h}: local run failed: {e}")),
        }
    }
    let mut local_checked = 0;
    let mut errs: Vec<f64> = hot_err
        .iter()
        .filter_map(|e| e.as_ref().ok().copied())
        .collect();
    let mut hot_requests = 0u64;
    let mut hits = 0u64;
    for (i, s) in served.iter().enumerate() {
        hits += s.counts.get(Counter::CacheHit);
        let verdict: Result<f64, String> = match (&s.error, s.slot) {
            (Some(e), _) => Err(e.clone()),
            (None, Slot::Hot(h)) => {
                hot_requests += 1;
                if s.digest != primed[h].0 {
                    Err("hit differs from its priming response".into())
                } else if s.counts.get(Counter::CacheHit) != 1 {
                    Err("hit was not served from the model cache".into())
                } else {
                    hot_err[h].clone()
                }
            }
            (None, Slot::Miss(_)) => {
                let check_local = local_checked < LOCAL_SAMPLE;
                local_checked += usize::from(check_local);
                check_miss(seed, s, spill, check_local)
            }
        };
        if let (Ok(err), Slot::Miss(_)) = (&verdict, s.slot) {
            errs.push(*err);
        }
        match verdict {
            Ok(err) if err <= MAX_ERR => {}
            Ok(err) => {
                out.failed += 1;
                out.problem(format!("request {i}: in-band error {err:.3e}"));
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("request {i}: {e}"));
            }
        }
    }
    if hits != hot_requests {
        out.problem(format!(
            "{hits} cache hits for {hot_requests} hot-set requests"
        ));
    }
    out.attempted = served.len() as u64;
    set_threads(threads);
    errs
}

/// A miss must be clean, must not hit, and must be accurate; with
/// `check_local`, it must also equal a local run bit for bit.
fn check_miss(seed: u64, s: &Served, spill: &mut Spill, check_local: bool) -> Result<f64, String> {
    if !s.clean {
        return Err("miss returned a model that is not clean".into());
    }
    if s.counts.get(Counter::CacheHit) != 0 {
        return Err("fresh pencil hit the cache".into());
    }
    let model = spill.get(s.model.ok_or("miss kept no model")?)?;
    let t = text(seed, s.slot);
    if check_local {
        let local = local_reduce(&t)?;
        if Fnv::new().model(&model).finish() != Fnv::new().model(&local.model.reduced).finish() {
            return Err("served model differs from a local run".into());
        }
    }
    check::in_band_error(&check::build(&t)?, &model)
}

fn hot_requests(seed: u64) -> Vec<JobRequest> {
    (0..HOT)
        .map(|h| request(text(seed, Slot::Hot(h))))
        .collect()
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut out = Outcome::new();
    let mut spill = match Spill::create() {
        Ok(s) => s,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let hot = hot_requests(seed);
    let mut setups = Vec::new();
    let mut first_primed: Option<Vec<u64>> = None;
    let mut last = None;
    for r in 0..SETUP_ROUNDS {
        let timed_round = r + 1 == SETUP_ROUNDS;
        let res = round(&hot, None, |addr| {
            timed_round.then(|| {
                let stop = Stop::After {
                    budget: seconds,
                    min_blocks: MIN_BLOCKS,
                };
                let (served, wall) = timed(addr, seed, &hot, stop, None, Some(&mut spill));
                (served, wall, peak_rss_mb())
            })
        });
        match res {
            Ok((setup, primed, timed_out)) => {
                setups.push(setup);
                let digests: Vec<u64> = primed.iter().map(|p| p.0).collect();
                if first_primed.get_or_insert_with(|| digests.clone()) != &digests {
                    out.problem(format!("set-up round {r} primed different responses"));
                }
                if let Some(t) = timed_out {
                    last = Some((primed, t));
                }
            }
            Err(e) => {
                out.problem(e);
                return out;
            }
        }
    }
    let Some((primed, (served, wall, rss))) = last else {
        out.problem("no timed phase ran".into());
        return out;
    };
    let errs = verify(seed, &primed, &served, &mut spill, threads, &mut out);
    let lat: Vec<f64> = served.iter().map(|s| s.latency).collect();
    if lat.len() < MIN_BLOCKS * BLOCK {
        out.problem(format!(
            "only {} requests: too few for a 90th percentile",
            lat.len()
        ));
    }
    let misses = served
        .iter()
        .filter(|s| matches!(s.slot, Slot::Miss(_)))
        .count();
    eprintln!(
        "perfbench: {} timed requests ({misses} misses), {} set-up rounds",
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
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    eprintln!(
        "perfbench: worst in-band error {:.3e}",
        errs.iter().copied().fold(0.0, f64::max)
    );
    out.set("in_band_err_p90", percentile(&errs, 0.9));
    out.set(
        "order_mean",
        mean(&served.iter().map(|s| s.order as f64).collect::<Vec<_>>()),
    );
    out
}

/// The traced run: the same schedule untraced and then traced against
/// fresh, identically primed servers, compared bit for bit; then
/// replays of the codecs, the parse, and each miss's pipeline and
/// kernels; every per-layer metric.
pub fn run_traced(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut out = Outcome::new();
    let mut spill = match Spill::create() {
        Ok(s) => s,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let hot = hot_requests(seed);
    let untraced = match round(&hot, None, |addr| {
        let stop = Stop::After {
            budget: seconds / 2.0,
            min_blocks: MIN_TRACE_BLOCKS,
        };
        timed(addr, seed, &hot, stop, None, Some(&mut spill))
    }) {
        Ok((_, _, (s, _))) => s,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let n = untraced.len();
    let rec = Recorder::new();
    let (primed, traced) = match round(&hot, Some(&rec), |addr| {
        timed(addr, seed, &hot, Stop::Count(n), Some(&rec), None)
    }) {
        Ok((_, p, (s, _))) => (p, s),
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    for (i, (a, b)) in untraced.iter().zip(&traced).enumerate() {
        if a.digest != b.digest || a.counts != b.counts || a.error != b.error {
            out.problem(format!(
                "request {i}: traced response or counts differ from untraced"
            ));
        }
    }
    verify(seed, &primed, &untraced, &mut spill, threads, &mut out);

    // Replays run with the server stopped, each under its own root.
    let replay = Recorder::new();
    let mut req_bytes = Vec::new();
    let mut resp_bytes = Vec::new();
    for (i, s) in traced.iter().enumerate().take(CODEC_REPLAYS) {
        let Some(res) = &s.result else { continue };
        let req = match s.slot {
            Slot::Hot(h) => hot[h].clone(),
            Slot::Miss(_) => request(text(seed, s.slot)),
        };
        let resp = JobResponse::Ok(Box::new(res.clone()));
        replay.set_request(i as u64);
        let ok = replay.span("replay", || {
            let rb = replay.span("serve.codec", || req.encode());
            let back = replay.span("serve.codec", || JobRequest::decode(&rb));
            let pb = replay.span("serve.codec", || resp.encode());
            let again = replay.span("serve.codec", || JobResponse::decode(&pb));
            req_bytes.push(rb.len() as f64);
            resp_bytes.push(pb.len() as f64);
            let nl = replay.span("circuits.parse", || circuits::parse_netlist(&req.netlist));
            let sys = nl.map(|nl| replay.span("circuits.build", || nl.build()));
            matches!(&back, Ok(r) if *r == req)
                && matches!(&again, Ok(r) if *r == resp)
                && matches!(sys, Ok(Ok(_)))
        });
        if !ok {
            out.problem(format!("request {i}: codec or netlist replay failed"));
        }
    }
    let misses: Vec<(usize, &Served)> = traced
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.slot, Slot::Miss(_)))
        .collect();
    let mut miss_replays = 0.0;
    let mut kernel_replays = 0.0;
    let mut nnz = Vec::new();
    for &(i, s) in misses.iter().take(MISS_REPLAYS) {
        let Some(res) = &s.result else { continue };
        let sys = match check::build(&text(seed, s.slot)) {
            Ok(sys) => sys,
            Err(e) => {
                out.problem(format!("request {i}: {e}"));
                continue;
            }
        };
        replay.set_request(i as u64);
        let red = replay.span("miss", || {
            let traced_sys = TracedSys {
                inner: &sys,
                rec: &replay,
            };
            let cache = TracedCache {
                inner: &NullCache,
                rec: &replay,
            };
            replay.span("pmtbr.run", || {
                run_cached(&traced_sys, &plan(), &Budget::default(), &cache)
            })
        });
        miss_replays += 1.0;
        let red = match red {
            Ok(red) if same_model(res, &red) => red,
            Ok(_) => {
                out.problem(format!(
                    "request {i}: replayed miss differs from the served model"
                ));
                continue;
            }
            Err(e) => {
                out.problem(format!("request {i}: replayed miss failed: {e}"));
                continue;
            }
        };
        // The greedy's accepted shifts, equally weighted: the kernels'
        // cost does not depend on the weights.
        let shifts: Vec<SamplePoint> = red
            .diagnostics
            .reports
            .iter()
            .map(|r| SamplePoint {
                s: r.s_used,
                weight: OMEGA_MAX / red.diagnostics.reports.len() as f64,
            })
            .collect();
        match replay_kernels(&sys, &shifts, &replay) {
            Ok(f) => {
                nnz.push(f);
                kernel_replays += 1.0;
            }
            Err(e) => out.problem(format!("request {i}: kernel replay failed: {e}")),
        }
    }

    let speed_texts: Vec<String> = misses
        .iter()
        .take(SPEEDUP_MISSES)
        .map(|(_, s)| text(seed, s.slot))
        .collect();
    let (one, all) = par_speedup(&speed_texts, threads, |t| {
        let mut clock = Stopwatch::start();
        let _ = local_reduce(t);
        clock.secs()
    });

    // Handler spans take the class of their request; priming spans are
    // set apart under one name.
    let spans: Vec<Span> = rec
        .into_spans()
        .into_iter()
        .map(|mut s| {
            if s.req == PRIMING {
                s.name = "priming";
            } else if s.name == "cli.handle" {
                s.name = match traced[s.req as usize].slot {
                    Slot::Hot(_) => "cli.handle_hit",
                    Slot::Miss(_) => "cli.handle_miss",
                };
            }
            s
        })
        .collect();
    let pass = fold(&spans);
    let rep = fold(&replay.into_spans());
    let nf = n as f64;
    let n_miss = misses.len() as f64;
    let counts: Vec<Counts> = traced.iter().map(|s| s.counts).collect();
    count_metrics(&mut out, &counts);
    let codec_n = req_bytes.len() as f64;
    for (name, span, denom) in [
        (
            "sparsekit.first_factor_s",
            "sparsekit.first_factor",
            kernel_replays,
        ),
        ("sparsekit.refactor_s", "sparsekit.refactor", kernel_replays),
        ("sparsekit.solve_s", "sparsekit.solve", kernel_replays),
        ("lti.sweep_s", "lti.sweep", miss_replays),
        ("lti.project_s", "lti.project", miss_replays),
        ("lti.other_s", "lti.other", miss_replays),
        ("lti.realify_s", "lti.realify", kernel_replays),
        ("numkit.svd_s", "numkit.svd", kernel_replays),
        ("pmtbr.run_s", "pmtbr.run", miss_replays),
        ("circuits.parse_s", "circuits.parse", codec_n),
        ("circuits.build_s", "circuits.build", codec_n),
        ("serve.codec_s", "serve.codec", codec_n),
    ] {
        out.set(name, per(&rep, span, denom));
    }
    out.set("pmtbr.self_s", self_per(&rep, "pmtbr.run", miss_replays));
    for (name, span, denom) in [
        ("pmtbr.cache_get_s", "pmtbr.cache_get", nf),
        ("pmtbr.cache_put_s", "pmtbr.cache_put", nf),
        ("cli.handle_hit_s", "cli.handle_hit", nf - n_miss),
        ("cli.handle_miss_s", "cli.handle_miss", n_miss),
        ("serve.roundtrip_s", "serve.roundtrip", nf),
        ("bench.job_s", "job", nf),
    ] {
        out.set(name, per(&pass, span, denom));
    }
    out.set("serve.overhead_s", self_per(&pass, "serve.roundtrip", nf));
    out.set("serve.request_bytes", mean(&req_bytes));
    out.set("serve.response_bytes", mean(&resp_bytes));
    out.set("sparsekit.factor_nnz", mean(&nnz));
    out.set("numkit.par_speedup_x", median(&one) / median(&all));
    out.set(
        "bench.unattributed_frac",
        self_per(&pass, "job", 1.0) / per(&pass, "job", 1.0),
    );
    let sum = |s: &[Served]| s.iter().map(|x| x.latency).sum::<f64>();
    out.set(
        "bench.trace_overhead_frac",
        1.0 - sum(&untraced) / sum(&traced),
    );
    let rt = per(&pass, "serve.roundtrip", 1.0);
    eprintln!(
        "perfbench: traced shares of round-trip time: handler {:.3} (hits {:.3}, misses {:.3}), cache get {:.4}",
        (per(&pass, "cli.handle_hit", 1.0) + per(&pass, "cli.handle_miss", 1.0)) / rt,
        per(&pass, "cli.handle_hit", 1.0) / rt,
        per(&pass, "cli.handle_miss", 1.0) / rt,
        per(&pass, "pmtbr.cache_get", 1.0) / rt,
    );
    out
}
