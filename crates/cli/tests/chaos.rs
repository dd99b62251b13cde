//! Chaos harness: drives the `pmtbr-cli` binary through the full
//! `PMTBR_FAULT` fault matrix — every registry method × targeted stage
//! × thread count — and asserts the pipeline's containment contract:
//!
//! - no escaped panic or signal ever reaches the process boundary
//!   (exit codes stay within the documented `{0, 1, 2, 3, 4}` set);
//! - every printed model is finite (no `NaN`/`inf` leaks into the
//!   A/B/C dump);
//! - at a fixed fault seed the *stdout is byte-identical* at 1, 2, and
//!   8 threads — fault injection, recovery ladders, and budgets are all
//!   deterministic functions of the inputs, never of scheduling.
//!
//! Faults are injected via each spawned `Command`'s own environment, so
//! the matrix never mutates this test process's env (no cross-test
//! races). The quick CI gate in `scripts/check.sh` runs the same matrix
//! through this test.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

const RLC_LADDER: &str = "\
* Two-port RLC ladder with enough states to drop nodes under chaos.
R1 1 2 50
L1 2 3 10n
C1 3 0 1p
R2 3 4 20
L2 4 5 5n
C2 5 0 2p
R3 5 0 1k
PORT 1
PORT 5
.end";

/// The ladder netlist on disk, written exactly once per test process.
/// Tests run in parallel and their child processes read this file, so
/// rewriting it per test (truncate, then write) would let a sibling's
/// child parse a half-written netlist.
fn netlist_path() -> PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("pmtbr-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ladder.sp");
        std::fs::write(&path, RLC_LADDER).expect("write netlist");
        path
    })
    .clone()
}

/// Runs `reduce` with the given method, fault spec, and thread count;
/// the fault spec rides on the child's environment only.
fn run_reduce(method: &pmtbr_cli::Method, fault: Option<&str>, threads: &str) -> Output {
    let netlist = netlist_path();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"));
    cmd.arg("reduce")
        .arg(&netlist)
        .args(["--method", method.name])
        .args(["--band", "2e9", "--samples", "8"])
        .args(["--threads", threads])
        .env_remove("PMTBR_FAULT")
        .env_remove("PMTBR_THREADS");
    if method.needs_order {
        cmd.args(["--order", "2"]);
    }
    if let Some(spec) = fault {
        cmd.env("PMTBR_FAULT", spec);
    }
    cmd.output().expect("spawn pmtbr-cli")
}

/// The containment contract every chaos run must satisfy.
fn assert_contained(out: &Output, ctx: &str) {
    let code = out.status.code();
    assert!(
        matches!(code, Some(0..=4)),
        "{ctx}: exit {code:?} outside the documented set (signal or escaped panic?)\n\
         stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for token in ["NaN", "inf"] {
        assert!(
            !stdout.contains(token),
            "{ctx}: non-finite `{token}` leaked into stdout"
        );
    }
    assert!(
        !stderr.contains("panicked at"),
        "{ctx}: a panic escaped to stderr:\n{stderr}"
    );
}

#[test]
fn chaos_matrix_contains_faults_across_methods_stages_threads() {
    let stages = ["sweep", "compress", "project", "all"];
    for method in pmtbr_cli::METHODS {
        for stage in stages {
            let spec = format!(
                "seed=42,rate=0.25,kinds=singular|nan|drift|panic,depth=2,stage={stage}"
            );
            let mut baseline: Option<(Option<i32>, Vec<u8>)> = None;
            for threads in ["1", "2", "8"] {
                let ctx = format!("method={} stage={stage} threads={threads}", method.name);
                let out = run_reduce(method, Some(&spec), threads);
                assert_contained(&out, &ctx);
                match &baseline {
                    None => baseline = Some((out.status.code(), out.stdout)),
                    Some((code, stdout)) => {
                        assert_eq!(
                            *code,
                            out.status.code(),
                            "{ctx}: exit code diverged across thread counts"
                        );
                        assert_eq!(
                            stdout, &out.stdout,
                            "{ctx}: stdout diverged across thread counts"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn malformed_fault_specs_fail_fast_with_exit_1() {
    let method = pmtbr_cli::find("pmtbr").expect("registry");
    for bad in ["bogus", "rate=not-a-number", "seed=1,typo=2", "stage=warp"] {
        let out = run_reduce(method, Some(bad), "1");
        assert_eq!(
            out.status.code(),
            Some(1),
            "spec `{bad}` must be rejected up front"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid PMTBR_FAULT"),
            "spec `{bad}`: missing parse diagnostics in stderr:\n{stderr}"
        );
        // A rejected spec must never have produced a model.
        assert!(out.stdout.is_empty(), "spec `{bad}` still printed output");
    }
}

#[test]
fn budget_exhaustion_maps_to_exit_code_4_with_best_effort_model() {
    let netlist = netlist_path();
    // A fresh CLI process starts its work counters at zero, so a cap of
    // 4 LU factorizations against 8 requested sample nodes truncates
    // deterministically.
    let mut baseline: Option<Vec<u8>> = None;
    for threads in ["1", "2", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"))
            .arg("reduce")
            .arg(&netlist)
            .args(["--band", "2e9", "--samples", "8", "--budget-lu", "4"])
            .args(["--threads", threads])
            .env_remove("PMTBR_FAULT")
            .env_remove("PMTBR_THREADS")
            .output()
            .expect("spawn pmtbr-cli");
        assert_eq!(
            out.status.code(),
            Some(4),
            "threads={threads} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("budget_exhausted=lu-factorizations"),
            "threads={threads}: stage report missing from stderr:\n{stderr}"
        );
        // Best-effort model still printed, and bit-identical per thread
        // count: budgets count deterministic work, not wall clock.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("A: #"), "threads={threads}: no model printed");
        match &baseline {
            None => baseline = Some(out.stdout),
            Some(b) => assert_eq!(b, &out.stdout, "threads={threads}: stdout diverged"),
        }
    }
}

#[test]
fn zero_svd_budget_downgrades_compressor_instead_of_hanging() {
    let netlist = netlist_path();
    let out = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"))
        .arg("reduce")
        .arg(&netlist)
        .args(["--band", "2e9", "--samples", "8", "--budget-svd-sweeps", "0"])
        .env_remove("PMTBR_FAULT")
        .env_remove("PMTBR_THREADS")
        .output()
        .expect("spawn pmtbr-cli");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("downgraded=true"), "stderr:\n{stderr}");
    assert!(stderr.contains("budget_exhausted=svd-sweeps"), "stderr:\n{stderr}");
}

#[test]
fn strict_mode_rejects_degraded_pipeline_with_exit_3() {
    let method = pmtbr_cli::find("pmtbr").expect("registry");
    let netlist = netlist_path();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"));
    cmd.arg("reduce")
        .arg(&netlist)
        .args(["--method", method.name])
        .args(["--band", "2e9", "--samples", "8", "--strict"])
        .env_remove("PMTBR_THREADS")
        // Depth 4 exhausts the spectral ladder: compressor downgrade.
        .env("PMTBR_FAULT", "seed=11,rate=1.0,kinds=drift,depth=4,stage=compress");
    let out = cmd.output().expect("spawn pmtbr-cli");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Keep the doc-comment exit-code contract honest: a clean run with no
/// faults and no budget still exits 0 and prints a clean (empty) stage
/// account.
#[test]
fn clean_run_stays_exit_zero_with_quiet_stderr() {
    let method = pmtbr_cli::find("pmtbr").expect("registry");
    let out = run_reduce(method, None, "2");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("pipeline:"),
        "clean run must not print a stage report:\n{stderr}"
    );
}
