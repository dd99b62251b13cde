//! Chaos harness: drives the `pmtbr-cli` binary through the full
//! `PMTBR_FAULT` fault matrix — every registry method × targeted stage
//! × thread count — and asserts the pipeline's containment contract:
//!
//! - no escaped panic or signal ever reaches the process boundary
//!   (exit codes stay within the documented `{0, 1, 2, 3, 4}` set, and
//!   the only panic reports on stderr are the injector's own, which a
//!   stage or worker caught — an escaped panic exits 101);
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

mod common;

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

/// The containment contract every chaos run must satisfy: an exit code
/// in the documented set (an escaped panic exits 101, a signal has no
/// code), finite printed numbers, and no panic report on stderr other
/// than the injector's own.
fn containment(code: Option<i32>, stdout: &str, stderr: &str) -> Result<(), String> {
    if !matches!(code, Some(0..=4)) {
        return Err(format!(
            "exit {code:?} outside the documented set (signal or escaped panic?)\nstderr: {stderr}"
        ));
    }
    if let Some(token) = ["NaN", "inf"].into_iter().find(|t| stdout.contains(t)) {
        return Err(format!("non-finite `{token}` leaked into stdout"));
    }
    let foreign = common::foreign_panics(stderr);
    if !foreign.is_empty() {
        return Err(format!("a panic the injector did not raise: {foreign:?}\nstderr: {stderr}"));
    }
    Ok(())
}

fn assert_contained(out: &Output, ctx: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if let Err(e) = containment(out.status.code(), &stdout, &stderr) {
        panic!("{ctx}: {e}");
    }
}

/// A stage panic the pipeline contains still prints the panic hook's
/// report: at this seed the compress stage's first two ladder attempts
/// panic and its third succeeds. The run exits 0, the gate accepts it,
/// and both reports carry the injector's message.
#[test]
fn contained_stage_panics_pass_the_gate() {
    let method = pmtbr_cli::find("pmtbr").expect("registry");
    let spec = "seed=3,rate=1,kinds=panic,depth=2,stage=compress";
    let out = run_reduce(method, Some(spec), "1");
    assert_contained(&out, spec);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("compress=recovered"), "stderr:\n{stderr}");
    assert_eq!(stderr.matches(" panicked at ").count(), 2, "stderr:\n{stderr}");
    assert_eq!(
        stderr.matches("injected chaos panic in pipeline stage compress").count(),
        2,
        "stderr:\n{stderr}"
    );
}

/// Negative control: the gate still refuses an escaped panic's exit
/// code and any panic report whose message is not the injector's.
#[test]
fn containment_rejects_escapes_and_foreign_panics() {
    let injected = "thread 'main' (7) panicked at crates/pmtbr/src/pipeline.rs:1:1:\n\
                    injected chaos panic in pipeline stage compress\n";
    let worker = "thread '<unnamed>' (8) panicked at crates/lti/src/shift_engine.rs:1:1:\n\
                  injected worker panic at shift index 3\n";
    let foreign = "thread 'main' (7) panicked at crates/pmtbr/src/sampling.rs:1:1:\n\
                   capacity overflow\n";
    assert!(containment(Some(0), "", injected).is_ok());
    assert!(containment(Some(2), "", worker).is_ok());
    assert!(containment(Some(101), "", injected).is_err(), "exit 101 is an escaped panic");
    assert!(containment(None, "", "").is_err(), "a signal has no exit code");
    assert!(containment(Some(0), "", foreign).is_err());
    assert!(containment(Some(0), "", &format!("{injected}{foreign}")).is_err());
    assert!(containment(Some(0), "", "thread 'main' (7) panicked at src/x.rs:1:1:").is_err());
    assert!(containment(Some(0), "A: NaN", "").is_err());
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
