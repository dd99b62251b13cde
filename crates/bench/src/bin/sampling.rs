//! Timing bench for the multipoint sampling engine.
//!
//! Compares three ways of solving the PMTBR sample sweep
//! `z_k = (s_k·E − A)⁻¹·B` over many shifts:
//!
//! 1. **seed path** — one fresh triplet assembly + symbolic-and-numeric
//!    sparse LU per shift, sequential (the pre-engine formulation);
//! 2. **engine, serial** — [`lti::ShiftSolveEngine`]: merged-pattern
//!    pencil assembly plus one symbolic analysis reused by numeric-only
//!    refactorization at every subsequent shift, single thread;
//! 3. **engine, parallel** — the same engine fanned across the worker
//!    pool ([`numkit::par::num_threads`] workers, honouring
//!    `PMTBR_THREADS`).
//!
//! Writes `BENCH_sampling.json` at the repository root and prints the
//! same numbers as a table. On a single-core host the speedup comes
//! entirely from assembly + factorization reuse; the parallel column
//! only pulls ahead of the serial engine when real cores are available.
//!
//! ```text
//! cargo run --release -p bench --bin sampling
//! ```

use std::time::Instant;

use circuits::{rc_mesh, spiral_inductor, spread_ports, SpiralParams};
use lti::{Descriptor, ShiftSolveEngine};
use numkit::{c64, NumError, ZMat};
use pmtbr::Sampling;

struct CaseResult {
    name: String,
    nstates: usize,
    ninputs: usize,
    sample_points: usize,
    seed_path_s: f64,
    engine_serial_s: f64,
    engine_parallel_s: f64,
    parallel_threads: usize,
    max_rel_diff_vs_seed: f64,
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Largest relative elementwise difference between two solution sweeps.
fn max_rel_diff(a: &[ZMat], b: &[ZMat]) -> f64 {
    let mut scale = 0.0f64;
    for m in a {
        scale = scale.max(m.norm_max());
    }
    let mut worst = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        worst = worst.max((x - y).norm_max());
    }
    if scale > 0.0 {
        worst / scale
    } else {
        0.0
    }
}

fn run_case(name: &str, sys: &Descriptor, npoints: usize) -> Result<CaseResult, NumError> {
    let points = Sampling::Linear { omega_max: 10.0, n: npoints }.points()?;
    let shifts: Vec<c64> = points.iter().map(|p| p.s).collect();
    let rhs = sys.b.to_complex();
    let threads = numkit::par::num_threads();

    // Warm-up: touch every code path once so first-run page faults and
    // lazy allocations don't land in the measured section.
    let warm: Vec<c64> = shifts.iter().take(2).copied().collect();
    for &s in &warm {
        let _ = sys.solve_shifted(s, &rhs)?;
    }
    let _ = ShiftSolveEngine::new(sys).solve_many(&warm, &rhs, threads)?;

    let (seed_path_s, seed) = time(|| -> Result<Vec<ZMat>, NumError> {
        shifts.iter().map(|&s| sys.solve_shifted(s, &rhs)).collect()
    });
    let seed = seed?;

    let (engine_serial_s, serial) =
        time(|| ShiftSolveEngine::new(sys).solve_many(&shifts, &rhs, 1));
    let serial = serial?;

    let (engine_parallel_s, parallel) =
        time(|| ShiftSolveEngine::new(sys).solve_many(&shifts, &rhs, threads));
    let parallel = parallel?;

    // The engine guarantees thread-count determinism; parallel and serial
    // engine sweeps must therefore agree bitwise.
    for (k, (p, s)) in parallel.iter().zip(&serial).enumerate() {
        assert_eq!(p, s, "{name}: engine results differ at shift {k}");
    }

    Ok(CaseResult {
        name: name.to_string(),
        nstates: sys.nstates(),
        ninputs: sys.ninputs(),
        sample_points: shifts.len(),
        seed_path_s,
        engine_serial_s,
        engine_parallel_s,
        parallel_threads: threads,
        max_rel_diff_vs_seed: max_rel_diff(&parallel, &seed),
    })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(path: &std::path::Path, cases: &[CaseResult]) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"bench\": \"multipoint_sampling\",\n");
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"nstates\": {},\n",
                "      \"ninputs\": {},\n",
                "      \"sample_points\": {},\n",
                "      \"seed_path_s\": {:.6},\n",
                "      \"engine_serial_s\": {:.6},\n",
                "      \"engine_parallel_s\": {:.6},\n",
                "      \"parallel_threads\": {},\n",
                "      \"speedup_engine_vs_seed\": {:.3},\n",
                "      \"speedup_parallel_vs_seed\": {:.3},\n",
                "      \"max_rel_diff_vs_seed\": {:.3e}\n",
                "    }}{}\n",
            ),
            json_escape(&c.name),
            c.nstates,
            c.ninputs,
            c.sample_points,
            c.seed_path_s,
            c.engine_serial_s,
            c.engine_parallel_s,
            c.parallel_threads,
            c.seed_path_s / c.engine_serial_s.max(1e-12),
            c.seed_path_s / c.engine_parallel_s.max(1e-12),
            c.max_rel_diff_vs_seed,
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"notes\": \"seed_path = fresh assembly + full LU per shift, sequential. \
         engine = merged-pattern pencil assembly + one symbolic analysis reused by \
         numeric refactorization per shift. parallel fans shifts across \
         PMTBR_THREADS workers; on single-core hosts the gain over seed_path comes \
         from the reuse alone.\"\n}\n",
    );
    std::fs::write(path, out)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cases = Vec::new();

    // Headline case: ≥1000 states, ≥60 sample points.
    let ports = spread_ports(32, 32, 16);
    let mesh = rc_mesh(32, 32, &ports, 1.0, 1.0, 2.0)?;
    println!("rc_mesh_32x32: {} states, {} ports ...", mesh.nstates(), mesh.ninputs());
    cases.push(run_case("rc_mesh_32x32", &mesh, 64)?);

    let ports = spread_ports(16, 16, 8);
    let mesh_small = rc_mesh(16, 16, &ports, 1.0, 1.0, 2.0)?;
    println!("rc_mesh_16x16: {} states, {} ports ...", mesh_small.nstates(), mesh_small.ninputs());
    cases.push(run_case("rc_mesh_16x16", &mesh_small, 64)?);

    let spiral = spiral_inductor(&SpiralParams { segments: 96, ..SpiralParams::default() })?;
    println!("spiral_96seg: {} states, {} ports ...", spiral.nstates(), spiral.ninputs());
    cases.push(run_case("spiral_96seg", &spiral, 64)?);

    println!();
    println!(
        "{:<16} {:>7} {:>7} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "case", "states", "points", "seed (s)", "engine (s)", "par (s)", "x-eng", "x-par"
    );
    for c in &cases {
        println!(
            "{:<16} {:>7} {:>7} {:>12.4} {:>12.4} {:>12.4} {:>8.2} {:>8.2}",
            c.name,
            c.nstates,
            c.sample_points,
            c.seed_path_s,
            c.engine_serial_s,
            c.engine_parallel_s,
            c.seed_path_s / c.engine_serial_s.max(1e-12),
            c.seed_path_s / c.engine_parallel_s.max(1e-12),
        );
        assert!(
            c.max_rel_diff_vs_seed < 1e-10,
            "{}: engine diverged from seed path ({:e})",
            c.name,
            c.max_rel_diff_vs_seed
        );
    }

    // crates/bench/ → repository root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_sampling.json");
    write_json(&path, &cases)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
