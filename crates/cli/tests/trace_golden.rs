//! Golden-file test for `--trace`: the deterministic-clock trace of an
//! RLC reduction must be byte-identical at any thread count AND
//! byte-identical to the blessed fixture.
//!
//! The fixture (`tests/fixtures/rlc_trace.jsonl`) pins the full
//! observable behavior of the pipeline — span structure, event order,
//! ladder outcomes, float-formatted residuals, and counter totals. A
//! diff against it is a *behavior change*, not noise: under the counter
//! clock every stamp is a per-item event ordinal, so two runs that do
//! the same numerical work produce the same bytes.
//!
//! A second test pins the `rung` events of the pipeline's injected-fault
//! retries (cross-Gramian eigensolve, projection) under `PMTBR_FAULT`.
//!
//! Last re-bless: the artifact cache keeps finished models only. The
//! sweep-level `cache_lookup` and `cache_store` spans are gone (later
//! sequential items renumbered), the two remaining cache spans lost
//! their `artifact` field, the model's `cache_store` `bytes` fell by
//! the two captured events of the deleted sweep store (9136 → 8816),
//! and the counters line reads `CACHE_MISS` 1 and `CACHE_BYTES` 8816;
//! the pencil hash, the model digest and every work event are
//! unchanged.
//!
//! Re-bless intentionally after a behavior-changing commit with:
//!
//! ```text
//! PMTBR_BLESS=1 cargo test -p pmtbr-cli --test trace_golden
//! ```

use std::io::Write;
use std::process::Command;

const RLC_TANK: &str = "\
* Parallel RLC tank driven through a source resistor.
R1 1 2 50
L1 2 0 10n
C1 2 0 1p
R2 2 0 2k
PORT 1
.end";

fn run_traced(netlist: &std::path::Path, trace: &std::path::Path, threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"))
        .args([
            "reduce",
            netlist.to_str().expect("utf8 path"),
            "--order",
            "2",
            "--band",
            "2e9",
            "--samples",
            "8",
            "--threads",
            threads,
            "--trace",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run reduce --trace");
    assert!(
        out.status.success(),
        "threads={threads} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(trace).expect("trace file written")
}

#[test]
fn trace_is_deterministic_and_matches_blessed_fixture() {
    let dir = std::env::temp_dir().join("pmtbr-trace-golden");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let netlist = dir.join("tank.sp");
    let mut f = std::fs::File::create(&netlist).expect("create netlist");
    f.write_all(RLC_TANK.as_bytes()).expect("write netlist");
    drop(f);

    // Identical bytes at 1, 2, and 8 threads: thread scheduling must not
    // be observable in a counter-clock trace.
    let t1 = run_traced(&netlist, &dir.join("t1.jsonl"), "1");
    let t2 = run_traced(&netlist, &dir.join("t2.jsonl"), "2");
    let t8 = run_traced(&netlist, &dir.join("t8.jsonl"), "8");
    assert_eq!(t1, t2, "trace differs between 1 and 2 threads");
    assert_eq!(t1, t8, "trace differs between 1 and 8 threads");

    // Every line is a syntactically valid JSON object.
    let lines = obs::json::validate_jsonl(&t1).expect("schema-valid JSONL");
    assert!(lines > 10, "suspiciously short trace: {lines} lines");

    // Structural schema: meta first, counters last, and the spans the
    // acceptance criteria name — sparse LU, the shift ladder, the
    // sampling sweep, and the SVD — all present.
    let first = t1.lines().next().expect("nonempty");
    assert!(first.contains(r#""ev":"meta""#), "first line: {first}");
    assert!(first.contains(r#""schema":"pmtbr-trace-v1""#), "first line: {first}");
    assert!(first.contains(r#""clock":"counter""#), "first line: {first}");
    let last = t1.lines().last().expect("nonempty");
    assert!(last.contains(r#""ev":"counters""#), "last line: {last}");
    assert!(last.contains(r#""LU_FACTOR""#), "last line: {last}");
    for span in ["sparse_lu.factor", "ladder", "pmtbr.sample_sweep", "svd.jacobi"] {
        assert!(t1.contains(span), "trace must cover span {span}");
    }

    // Golden comparison. PMTBR_BLESS=1 rewrites the fixture instead.
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/rlc_trace.jsonl");
    if std::env::var_os("PMTBR_BLESS").is_some() {
        std::fs::create_dir_all(fixture.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&fixture, &t1).expect("bless fixture");
        return;
    }
    let blessed = std::fs::read_to_string(&fixture).expect(
        "blessed fixture missing — run once with PMTBR_BLESS=1 to create it",
    );
    assert_eq!(
        t1, blessed,
        "trace diverged from the blessed fixture; if the behavior change \
         is intentional, re-bless with PMTBR_BLESS=1"
    );
}

/// `(span, cand, attempt)` of every pipeline-stage `rung` event of a
/// `reduce --method <method> --trace` run under the `PMTBR_FAULT` spec.
fn stage_rungs(dir: &std::path::Path, method: &str, fault: &str) -> Vec<(String, String, u64)> {
    let netlist = dir.join("tank.sp");
    std::fs::write(&netlist, RLC_TANK).expect("write netlist");
    let trace = dir.join(format!("{method}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"))
        .env("PMTBR_FAULT", fault)
        .args(["reduce", netlist.to_str().expect("utf8 path"), "--method", method])
        .args(["--order", "2", "--band", "2e9", "--samples", "8"])
        .args(["--trace", trace.to_str().expect("utf8 path")])
        .output()
        .expect("run reduce --trace");
    assert!(out.status.success(), "{method}: {}", String::from_utf8_lossy(&out.stderr));
    let field = |line: &str, key: &str| -> String {
        let rest = &line[line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3..];
        rest.split([',', '}']).next().expect("value").trim_matches('"').to_string()
    };
    std::fs::read_to_string(&trace)
        .expect("trace file written")
        .lines()
        .filter(|l| l.contains(r#""name":"rung""#) && l.contains(r#""stage":"#))
        .map(|l| {
            let attempt = field(l, "attempt").parse().expect("attempt");
            (field(l, "span"), field(l, "cand"), attempt)
        })
        .collect()
}

/// The two single-computation retries of the pipeline: each poisoned
/// attempt is one `rung` event; the eigensolve also traces its clean
/// attempt, the projection does not.
#[test]
fn injected_fault_retries_trace_one_rung_per_attempt() {
    let dir = std::env::temp_dir().join("pmtbr-trace-retries");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = |stage: &str| format!("seed=3,rate=1,kinds=nan,depth=2,stage={stage}");

    let eig: Vec<u64> = stage_rungs(&dir, "cross", &spec("compress"))
        .into_iter()
        .filter(|(_, cand, _)| cand == "eig")
        .map(|(_, _, attempt)| attempt)
        .collect();
    assert_eq!(eig, [0, 1, 2]);

    let project: Vec<(String, u64)> = stage_rungs(&dir, "pmtbr", &spec("project"))
        .into_iter()
        .filter(|(span, _, _)| span == "pmtbr.project")
        .map(|(_, cand, attempt)| (cand, attempt))
        .collect();
    assert_eq!(project, [("retry".to_string(), 0), ("retry".to_string(), 1)]);
}
