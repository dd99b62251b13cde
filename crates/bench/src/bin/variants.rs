//! Variant-coverage bench: every `pmtbr-cli reduce` registry method,
//! with the whole PMTBR/Krylov family on the 1024-state RC mesh.
//!
//! Runs each entry of [`pmtbr_cli::METHODS`], records the achieved
//! order, the in-band maximum relative transfer-function error, the
//! wall time, and a per-stage breakdown (sweep / compress / project
//! seconds, read off the pipeline's obs spans under a wall clock), and
//! writes `BENCH_variants.json` at the repository root.
//! `scripts/check.sh` runs this as the variant-coverage gate: a
//! registry entry that cannot reduce its mesh fails the build, and so
//! does a sampling-based method whose wall time, divided by the time of
//! a dense reference kernel run in the same process, regresses more
//! than 1.5× against the committed ratio
//! (`crates/bench/baselines/variants_wall.txt`; set
//! `VARIANTS_NO_PERF_GATE=1` to skip the trend check).
//!
//! All sampling-based methods (the seven pipeline variants plus the
//! sparse Krylov baselines) run on `rc_mesh(32, 32)` with 16 ports —
//! 1024 states. The three exact-Gramian baselines (`tbr`, `tbr-res`,
//! `fltbr`) each require a dense `O(n³)` Schur/eigendecomposition,
//! which takes tens of minutes at n = 1024 on a single core; as a gate
//! they run on the 256-state jittered `rc_mesh(16, 16)` instead, where
//! the same code path finishes in seconds (jitter splits the uniform
//! mesh's degenerate spectrum, which `fltbr`'s band filter requires).
//! Set `VARIANTS_FULL=1` to force every method onto the 1024-state mesh
//! for a letter-complete (but slow) run. Each JSON record carries its
//! `nstates` so the two regimes are never conflated.
//!
//! ```text
//! cargo run --release -p bench --bin variants
//! ```

use std::time::Instant;

use circuits::{rc_mesh_jittered, spread_ports};
use lti::{frequency_response, linspace, max_rel_error, Descriptor, FreqResponse};
use numkit::{DMat, SplitMix64};
use pmtbr_cli::{Method, ReduceRequest, METHODS};

/// Committed wall-time baseline, one `name ratio` line per method,
/// where the ratio is `wall_s / ref_s`. Regenerate from the
/// `wall_ratio` fields of fresh healthy `BENCH_variants.json` runs after
/// an intentional perf change (the file's header says how).
const WALL_BASELINE: &str = include_str!("../../baselines/variants_wall.txt");

/// Regression threshold for the perf trend gate: a sampling-based
/// method's wall ratio may not exceed its committed baseline ratio by
/// more than this factor.
const MAX_WALL_RATIO: f64 = 1.5;

/// Seconds of the dense reference kernel the wall ratios divide by:
/// one fixed seeded `numkit::svd` of a 512×128 matrix plus one
/// `numkit::Lu` of a 256×256 matrix, median of 5 runs. It is dense on
/// purpose, so a sparse-LU regression still shows in the ratios, and it
/// runs in this process on this machine, so the ratios cancel the
/// machine's speed.
fn reference_seconds() -> Result<f64, numkit::NumError> {
    let mut rng = SplitMix64::new(2004);
    let tall = DMat::from_fn(512, 128, |_, _| rng.next_range(-1.0, 1.0));
    let square =
        DMat::from_fn(256, 256, |i, j| rng.next_range(-1.0, 1.0) + if i == j { 8.0 } else { 0.0 });
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        std::hint::black_box(numkit::svd(std::hint::black_box(&tall))?);
        std::hint::black_box(numkit::Lu::new(std::hint::black_box(square.clone()))?);
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    Ok(times[2])
}

#[derive(Default, Clone, Copy)]
struct StageSeconds {
    sweep_s: f64,
    compress_s: f64,
    project_s: f64,
}

struct VariantResult {
    name: String,
    nstates_full: usize,
    samples: usize,
    order: usize,
    in_band_error: f64,
    wall_s: f64,
    stages: StageSeconds,
    degraded: bool,
    /// `Some` when the method failed to produce a model: the record is
    /// kept (so the JSON stays registry-complete) and the failure is
    /// reported after every method has run.
    error: Option<String>,
}

impl VariantResult {
    /// A registry-complete placeholder for a method that failed.
    fn failed(name: &str, samples: usize, err: String) -> Self {
        VariantResult {
            name: name.to_string(),
            nstates_full: 0,
            samples,
            order: 0,
            in_band_error: f64::NAN,
            wall_s: 0.0,
            stages: StageSeconds::default(),
            degraded: false,
            error: Some(err),
        }
    }
}

/// Methods whose cost is a dense `O(n³)` Schur/eig of the full system
/// matrix (exact-Gramian baselines), rather than sparse shifted solves.
fn is_dense_gramian_baseline(name: &str) -> bool {
    matches!(name, "tbr" | "tbr-res" | "fltbr")
}

/// Per-stage wall seconds of one traced reduction, summed from the
/// pipeline's span enter/exit pairs.
///
/// `pmtbr.compress` nests inside the still-open `pmtbr.sample_sweep`
/// span (the sweep span closes only after compression so its summary
/// fields can record the SVD outcome), so the sweep number subtracts
/// the compression time: the three stages partition the pipeline.
/// Methods that bypass the staged pipeline (Krylov and dense-Gramian
/// baselines) report zeros.
fn stage_seconds(trace: &obs::Trace) -> StageSeconds {
    let mut open: std::collections::HashMap<(&str, u64), Vec<(String, u64)>> =
        std::collections::HashMap::new();
    let mut sweep_ns: u64 = 0;
    let mut compress_ns: u64 = 0;
    let mut project_ns: u64 = 0;
    // Events are sorted by (unit, item, seq), so within one work item
    // spans close LIFO and a per-item stack pairs enters with exits.
    for ev in trace.events() {
        if ev.is_enter() {
            open.entry(ev.key()).or_default().push((ev.span_path().to_string(), ev.t()));
        } else if ev.is_exit() {
            let Some((path, t0)) = open.get_mut(&ev.key()).and_then(|s| s.pop()) else {
                continue;
            };
            let dur = ev.t().saturating_sub(t0);
            match path.rsplit('/').next() {
                Some("pmtbr.sample_sweep") => sweep_ns += dur,
                Some("pmtbr.compress") => compress_ns += dur,
                Some("pmtbr.project") => project_ns += dur,
                _ => {}
            }
        }
    }
    let secs = |ns: u64| ns as f64 * 1e-9;
    StageSeconds {
        sweep_s: secs(sweep_ns.saturating_sub(compress_ns)),
        compress_s: secs(compress_ns),
        project_s: secs(project_ns),
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(
    path: &std::path::Path,
    results: &[VariantResult],
    ref_s: f64,
) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"bench\": \"reduction_variants\",\n");
    out.push_str("  \"system\": \"rc_mesh_32x32 (1024 states, 16 ports); dense-Gramian baselines on jittered rc_mesh_16x16 (256 states, 8 ports) unless VARIANTS_FULL=1\",\n");
    out.push_str(&format!("  \"ref_s\": {ref_s:.6},\n"));
    out.push_str("  \"methods\": [\n");
    for (i, r) in results.iter().enumerate() {
        // A failed method keeps its registry slot: `error` carries the
        // message and the numeric fields go to null/zero (NaN is not
        // valid JSON).
        let in_band = if r.in_band_error.is_finite() {
            format!("{:.6e}", r.in_band_error)
        } else {
            "null".to_string()
        };
        let error_line = match &r.error {
            Some(e) => format!("      \"error\": \"{}\",\n", json_escape(e)),
            None => String::new(),
        };
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "{}",
                "      \"nstates_full\": {},\n",
                "      \"samples\": {},\n",
                "      \"order\": {},\n",
                "      \"in_band_max_rel_error\": {},\n",
                "      \"wall_s\": {:.6},\n",
                "      \"wall_ratio\": {:.3},\n",
                "      \"sweep_s\": {:.6},\n",
                "      \"compress_s\": {:.6},\n",
                "      \"project_s\": {:.6},\n",
                "      \"degraded\": {}\n",
                "    }}{}\n",
            ),
            json_escape(&r.name),
            error_line,
            r.nstates_full,
            r.samples,
            r.order,
            in_band,
            r.wall_s,
            r.wall_s / ref_s,
            r.stages.sweep_s,
            r.stages.compress_s,
            r.stages.project_s,
            r.degraded,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"notes\": \"Every pmtbr-cli reduce method registry entry, run with identical \
         band/samples/order requests. in_band_max_rel_error is the max relative \
         transfer-function error over a 20-point grid inside the band, against the \
         full model of nstates_full states. wall_ratio is wall_s / ref_s, where \
         ref_s times a fixed dense reference kernel (one 512x128 numkit::svd plus \
         one 256x256 numkit::Lu, median of 5) in the same process; the perf trend \
         gate compares it with crates/bench/baselines/variants_wall.txt. \
         sweep_s/compress_s/project_s are the pipeline stage times read off the \
         obs spans under a wall clock (zero for methods that bypass the staged \
         pipeline); sweep_s excludes the nested \
         compression span. The -n24 records rerun the compression-heavy variants \
         with 24 quadrature nodes (a 768-column realified sample stack) to pin \
         the large-SVD regime; cross-n24 runs only under VARIANTS_FULL=1 because \
         its compress is a square 768x768 eigenproblem (minutes on one core). \
         The input-correlated variant optimizes for a \
         training workload rather than uniform in-band error, so its number \
         reads worse by construction. The dense exact-Gramian baselines (tbr, \
         tbr-res, fltbr) default to a 256-state mesh with 5% parameter jitter: \
         their O(n^3) dense Schur/eig takes tens of minutes at n=1024 on one \
         core, and fltbr's eigendecomposition needs the jitter to split the \
         uniform mesh's degenerate spectrum. VARIANTS_FULL=1 runs them on the \
         1024-state mesh too.\"\n}\n",
    );
    std::fs::write(path, out)
}

struct Case {
    sys: Descriptor,
    grid: Vec<f64>,
    h_full: FreqResponse,
}

fn build_case(
    nx: usize,
    ny: usize,
    nports: usize,
    jitter: f64,
    omega_max: f64,
) -> Result<Case, String> {
    let ports = spread_ports(nx, ny, nports);
    let sys = rc_mesh_jittered(nx, ny, &ports, 1.0, 1.0, 2.0, jitter, 1).map_err(|e| e.to_string())?;
    let grid = linspace(omega_max / 20.0, omega_max, 20);
    let h_full = frequency_response(&sys, &grid).map_err(|e| e.to_string())?;
    Ok(Case { sys, grid, h_full })
}

/// Runs one registry method on `case` with `samples` quadrature nodes,
/// tracing the run under a wall clock to attribute stage times.
fn run_method(
    record_name: &str,
    m: &Method,
    case: &Case,
    omega_max: f64,
    samples: usize,
) -> Result<VariantResult, String> {
    let mut req = ReduceRequest::new(omega_max, samples);
    req.order = Some(10);
    assert!(obs::install(obs::ClockKind::Wall), "a trace collector is already installed");
    let t0 = Instant::now();
    let run_res = m.run(&case.sys, &req, &pmtbr::NullCache);
    let wall_s = t0.elapsed().as_secs_f64();
    let trace = obs::drain().ok_or("trace collector vanished mid-run")?;
    let out = run_res.map_err(|e| format!("{record_name}: {e}"))?;
    let h_red = frequency_response(&out.reduced, &case.grid).map_err(|e| e.to_string())?;
    let in_band_error = max_rel_error(&case.h_full, &h_red);
    let r = VariantResult {
        name: record_name.to_string(),
        nstates_full: case.sys.nstates(),
        samples,
        order: out.reduced.nstates(),
        in_band_error,
        wall_s,
        stages: stage_seconds(&trace),
        degraded: out.summary.as_ref().is_some_and(|s| s.sweep_degraded),
        error: None,
    };
    println!(
        "  {:<12} n {:>4}  order {:>3}  in-band err {:>10.3e}  {:>8.3}s  \
         (sweep {:.3} + compress {:.3} + project {:.3}){}",
        r.name,
        r.nstates_full,
        r.order,
        r.in_band_error,
        r.wall_s,
        r.stages.sweep_s,
        r.stages.compress_s,
        r.stages.project_s,
        if r.degraded { "  (degraded)" } else { "" }
    );
    if !r.in_band_error.is_finite() {
        return Err(format!("{record_name}: in-band error must be finite"));
    }
    Ok(r)
}

/// Perf trend gate: every sampling-based method listed in the committed
/// baseline must keep `wall_s / ref_s` within [`MAX_WALL_RATIO`] of its
/// baseline ratio. Dense-Gramian baselines are exempt — their `O(n³)`
/// dense eig dominates and its wall time is a property of the
/// BLAS-free kernels, not of the sampled pipeline this gate protects.
fn enforce_wall_baseline(results: &[VariantResult], ref_s: f64) -> Result<(), String> {
    let mut failures = Vec::new();
    for line in WALL_BASELINE.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(base)) = (parts.next(), parts.next()) else {
            return Err(format!("malformed baseline line: {line:?}"));
        };
        let base: f64 = base
            .parse()
            .map_err(|_| format!("unparseable baseline ratio in line: {line:?}"))?;
        if is_dense_gramian_baseline(name) {
            continue;
        }
        let Some(r) = results.iter().find(|r| r.name == name) else {
            return Err(format!("baseline method {name} missing from this run"));
        };
        if r.error.is_some() {
            // The method failed outright; the failure gate below
            // reports it — no wall time to compare.
            continue;
        }
        let ratio = r.wall_s / ref_s;
        if ratio > MAX_WALL_RATIO * base {
            failures.push(format!(
                "{name}: wall ratio {ratio:.3} ({:.3}s / {ref_s:.3}s) exceeds \
                 {MAX_WALL_RATIO}x the committed baseline ratio {base:.3}",
                r.wall_s
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("perf trend gate failed:\n  {}", failures.join("\n  ")))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full_mode = std::env::var("VARIANTS_FULL").is_ok_and(|v| v == "1");
    let omega_max = 10.0;
    let big = build_case(32, 32, 16, 0.0, omega_max)?;
    let small = if full_mode {
        None
    } else {
        Some(build_case(16, 16, 8, 0.05, omega_max)?)
    };
    println!(
        "variant coverage on rc_mesh_32x32: {} states, {} ports{}",
        big.sys.nstates(),
        big.sys.ninputs(),
        if full_mode {
            " (VARIANTS_FULL=1: dense baselines on the full mesh too)"
        } else {
            "; dense-Gramian baselines on jittered rc_mesh_16x16 (256 states)"
        }
    );

    let ref_s = reference_seconds()?;
    println!("dense reference kernel: {ref_s:.4}s (median of 5)");

    let mut results = Vec::new();
    for m in METHODS {
        let case = match &small {
            Some(s) if is_dense_gramian_baseline(m.name) => s,
            _ => &big,
        };
        // 8 nodes is the headline request: its error numbers are pinned
        // by the committed JSON, so downstream consumers can diff them
        // across commits. The larger-node regime gets its own records
        // below. A failing method is recorded and the run continues:
        // one broken variant must not hide the numbers of the other
        // ten (the failure still fails the gate at the end).
        results.push(run_method(m.name, m, case, omega_max, 8).unwrap_or_else(|e| {
            eprintln!("  {:<12} FAILED: {e}", m.name);
            VariantResult::failed(m.name, 8, e)
        }));
    }

    // Large-SVD stress records: 24 nodes × 16 ports realifies to a
    // 768-column stacked sample matrix. The two-stage-preconditioned
    // parallel Jacobi runs that compression in seconds (it used to be
    // minutes of single-core work, which is why the gate historically
    // stopped at 8 nodes), so the compression-heavy variants now
    // exercise it on every run. `cross` is the exception: its
    // large-sample compress is dominated by a square 768×768
    // eigenproblem the SVD preconditioner does not cover (~3 min on one
    // core), so its stress record only runs under VARIANTS_FULL=1.
    let stress: &[&str] = if full_mode { &["pmtbr", "balanced", "cross"] } else { &["pmtbr", "balanced"] };
    for name in stress {
        let m = pmtbr_cli::find(name).ok_or_else(|| format!("no registry method {name}"))?;
        let record = format!("{name}-n24");
        results.push(run_method(&record, m, &big, omega_max, 24).unwrap_or_else(|e| {
            eprintln!("  {record:<12} FAILED: {e}");
            VariantResult::failed(&record, 24, e)
        }));
    }

    if std::env::var("VARIANTS_NO_PERF_GATE").is_ok_and(|v| v == "1") {
        println!("perf trend gate skipped (VARIANTS_NO_PERF_GATE=1)");
    } else {
        enforce_wall_baseline(&results, ref_s)?;
        println!(
            "perf trend gate passed \
             (all sampling-based wall ratios within {MAX_WALL_RATIO}x of baseline)"
        );
    }

    // crates/bench/ → repository root. The JSON is written before the
    // failure gate so a broken method still leaves a registry-complete
    // artifact to diagnose.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_variants.json");
    write_json(&path, &results, ref_s)?;
    println!("wrote {}", path.display());

    let failed: Vec<String> = results
        .iter()
        .filter_map(|r| r.error.as_ref().map(|e| format!("{}: {e}", r.name)))
        .collect();
    if !failed.is_empty() {
        return Err(format!(
            "{} method(s) failed (failure records kept in BENCH_variants.json):\n  {}",
            failed.len(),
            failed.join("\n  ")
        )
        .into());
    }
    Ok(())
}
