//! Reduction-service warm-vs-cold bench: the headline 1024-state RC
//! mesh submitted twice to a `serve` scheduler over a real loopback
//! socket, once against an empty artifact cache and then repeatedly
//! against a warm one.
//!
//! The cold submission pays the full pipeline (shift LU factors, the
//! stacked-sample Jacobi SVD, projection); a warm one is a model-cache
//! hit that replays the recorded work events and ships the stored
//! matrices back. `scripts/check.sh` runs this as the service perf
//! gate: the warm median must be at least [`MIN_WARM_SPEEDUP`]× faster
//! than the cold run, and the warm payload must be bit-identical to the
//! cold one — the cache may only change how fast the answer arrives,
//! never which answer. Writes `BENCH_serve.json` at the repository
//! root. Set `SERVE_NO_PERF_GATE=1` to skip the speedup check on
//! machines whose absolute speed differs wildly from CI.
//!
//! ```text
//! cargo run --release -p bench --bin serve_bench
//! ```

use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use circuits::{rc_mesh_netlist, spread_ports};
use serve::{JobRequest, JobResponse, JobResult, ServeOptions};

/// The service gate: warm (cache-hit) submissions must beat the cold
/// (full-pipeline) submission by at least this factor, wall to wall,
/// protocol overhead included.
const MIN_WARM_SPEEDUP: f64 = 5.0;

/// Warm submissions to sample; the gate uses their median so one
/// scheduler hiccup cannot fail or pass the run on its own.
const WARM_RUNS: usize = 5;

fn job(netlist: String) -> JobRequest {
    JobRequest {
        method: "pmtbr".into(),
        netlist,
        omega_max: 10.0,
        bands: vec![],
        samples: 8,
        tol: 1e-8,
        order: Some(10),
        greedy_tol: 1e-3,
        greedy_max_shifts: None,
        budget_lu: None,
        budget_svd: None,
        budget_bytes: None,
        trace: false,
    }
}

fn expect_ok(resp: JobResponse, what: &str) -> Box<JobResult> {
    match resp {
        JobResponse::Ok(r) => r,
        JobResponse::Err(e) => panic!("{what} submission failed: {e}"),
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn json(
    nstates: usize,
    cold_s: f64,
    warm: &[f64],
    warm_median_s: f64,
    speedup: f64,
    stats: &serve::ServeStats,
) -> String {
    let warm_list =
        warm.iter().map(|s| format!("{s:.6}")).collect::<Vec<_>>().join(", ");
    format!(
        "{{\n  \"system\": \"rc_mesh_32x32 netlist over loopback TCP (1024 states, 16 ports)\",\n  \
         \"nstates\": {nstates},\n  \"method\": \"pmtbr\",\n  \"samples\": 8,\n  \"order\": 10,\n  \
         \"cold_s\": {cold_s:.6},\n  \"warm_s\": [{warm_list}],\n  \
         \"warm_median_s\": {warm_median_s:.6},\n  \"warm_speedup\": {speedup:.2},\n  \
         \"min_warm_speedup\": {MIN_WARM_SPEEDUP},\n  \
         \"jobs\": {}\n}}\n",
        stats.jobs
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = rc_mesh_netlist(32, 32, &spread_ports(32, 32, 16), 1.0, 1.0, 2.0);
    let req = job(netlist);
    let total_jobs = 1 + WARM_RUNS;

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let cache = pmtbr::LruCache::new(256 << 20);
    let opts = ServeOptions { max_jobs: Some(total_jobs as u64), ..ServeOptions::default() };
    let shutdown = AtomicBool::new(false);
    let timeout = Duration::from_secs(600);

    let handler = |job: &JobRequest| pmtbr_cli::handle_job(job, &cache);
    let (stats, cold_s, mut warm, identical) = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve::serve(&listener, &handler, &opts, &shutdown));

        let t0 = Instant::now();
        let cold = expect_ok(serve::submit(&addr, &req, timeout).expect("cold submit"), "cold");
        let cold_s = t0.elapsed().as_secs_f64();

        let mut warm = Vec::with_capacity(WARM_RUNS);
        let mut identical = true;
        for i in 0..WARM_RUNS {
            let t0 = Instant::now();
            let resp = serve::submit(&addr, &req, timeout)
                .unwrap_or_else(|e| panic!("warm submit {i}: {e}"));
            warm.push(t0.elapsed().as_secs_f64());
            let hit = expect_ok(resp, "warm");
            identical &= hit.a == cold.a
                && hit.b == cold.b
                && hit.c == cold.c
                && hit.d == cold.d
                && hit.report_lines == cold.report_lines;
        }
        let stats = server.join().expect("server thread").expect("serve loop");
        (stats, cold_s, warm, identical)
    });

    let warm_median_s = median(&mut warm);
    let speedup = cold_s / warm_median_s;
    println!(
        "serve bench: cold {cold_s:.3}s, warm median {warm_median_s:.6}s over {WARM_RUNS} runs \
         ({speedup:.1}x), {} jobs",
        stats.jobs
    );

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_serve.json");
    std::fs::write(&path, json(1024, cold_s, &warm, warm_median_s, speedup, &stats))?;
    println!("wrote {}", path.display());

    if !identical {
        return Err("warm cache hits diverged from the cold submission byte-for-byte".into());
    }
    if std::env::var("SERVE_NO_PERF_GATE").is_ok_and(|v| v == "1") {
        println!("service perf gate skipped (SERVE_NO_PERF_GATE=1)");
    } else if speedup < MIN_WARM_SPEEDUP {
        return Err(format!(
            "service perf gate failed: warm median {warm_median_s:.6}s is only {speedup:.2}x \
             faster than the {cold_s:.3}s cold run (required: {MIN_WARM_SPEEDUP}x)"
        )
        .into());
    } else {
        println!("service perf gate passed (warm >= {MIN_WARM_SPEEDUP}x faster than cold)");
    }
    Ok(())
}
