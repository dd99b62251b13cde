//! End-to-end tests for the reduction service: `pmtbr-cli serve` and
//! `pmtbr-cli submit` driven as real processes over real sockets.
//!
//! The contract under test is *parity*: a submitted job must be
//! indistinguishable from the same flags run locally through `reduce` —
//! byte-identical stdout, the same exit code, the same acceptance
//! decisions and stderr policy lines — with exactly one new failure
//! mode (exit 5) reserved for the transport itself. The chaos matrix from `tests/chaos.rs` is
//! extended here through serve round-trips: faults are injected into
//! the *server* process's environment, and containment means the
//! client still sees the documented exit-code set with no escaped
//! panics on either side of the wire.
//!
//! Every server binds `127.0.0.1:0` and prints its ephemeral port on
//! the `listening` line, so parallel tests never race on an address.
//! Fault specs ride each child's own environment — this test process's
//! env is never mutated.

mod common;

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};

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

const RC_LADDER: &str = "\
* 4-node RC ladder
R1 1 2 100
R2 2 3 100
R3 3 4 100
R4 4 0 100
C1 1 0 1p
C2 2 0 1p
C3 3 0 1p
C4 4 0 1p
PORT 1
.end";

fn write_netlist(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pmtbr-serve-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write netlist");
    path
}

/// A running `pmtbr-cli serve` child, killed on drop so a failing
/// assertion can never leak a daemon.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns a server on an ephemeral port and blocks until it prints
    /// its `listening` line; `fault` lands in the *server's* env only.
    fn spawn(max_jobs: usize, fault: Option<&str>) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"));
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--cache-mb", "64"])
            .args(["--max-jobs", &max_jobs.to_string()])
            .env_remove("PMTBR_FAULT")
            .env_remove("PMTBR_THREADS")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(spec) = fault {
            cmd.env("PMTBR_FAULT", spec);
        }
        let mut child = cmd.spawn().expect("spawn pmtbr-cli serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read listening line");
        // "listening 127.0.0.1:<port> cache_mb 64"
        let addr = line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("malformed listening line: {line:?}"))
            .to_string();
        Server { child, addr }
    }

    /// Waits for the server's clean `--max-jobs` exit.
    fn finish(mut self) {
        let status = self.child.wait().expect("wait for serve");
        assert_eq!(status.code(), Some(0), "serve must exit cleanly after max-jobs");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `submit` against `addr` with the given netlist and extra flags.
fn submit(addr: &str, netlist: &std::path::Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"))
        .arg("submit")
        .arg(netlist)
        .args(["--addr", addr])
        .args(extra)
        .env_remove("PMTBR_FAULT")
        .env_remove("PMTBR_THREADS")
        .output()
        .expect("spawn pmtbr-cli submit")
}

/// Runs local `reduce` with the given netlist, flags, and fault spec.
fn reduce(netlist: &std::path::Path, extra: &[&str], fault: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"));
    cmd.arg("reduce")
        .arg(netlist)
        .args(extra)
        .env_remove("PMTBR_FAULT")
        .env_remove("PMTBR_THREADS");
    if let Some(spec) = fault {
        cmd.env("PMTBR_FAULT", spec);
    }
    cmd.output().expect("spawn pmtbr-cli reduce")
}

/// The acceptance-policy lines of a run's stderr — `pipeline:`,
/// `  note:`, `degraded ` and the final `error:` — in order. Panic-hook
/// output is left out: an injected panic prints it to the stderr of
/// whichever process ran the job, the server's for `submit`.
fn policy_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| ["pipeline:", "  note:", "degraded ", "error:"].iter().any(|p| l.starts_with(p)))
        .map(str::to_string)
        .collect()
}

#[test]
fn submit_matches_local_reduce_byte_for_byte() {
    let nl = write_netlist("parity.sp", RC_LADDER);
    let flags = ["--order", "2", "--band", "2e9", "--samples", "12", "--check", "7"];
    let server = Server::spawn(1, None);
    let remote = submit(&server.addr, &nl, &flags);
    server.finish();
    let local = reduce(&nl, &flags, None);
    assert_eq!(
        remote.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&remote.stderr)
    );
    assert_eq!(remote.status.code(), local.status.code());
    assert_eq!(
        remote.stdout, local.stdout,
        "a served model must be byte-identical to the local one"
    );
}

#[test]
fn warm_resubmission_is_bit_identical_to_cold() {
    let nl = write_netlist("warm.sp", RC_LADDER);
    let flags = ["--order", "2", "--band", "2e9", "--samples", "12"];
    let server = Server::spawn(2, None);
    let cold = submit(&server.addr, &nl, &flags);
    let warm = submit(&server.addr, &nl, &flags);
    server.finish();
    assert_eq!(cold.status.code(), Some(0));
    assert_eq!(warm.status.code(), Some(0));
    assert_eq!(
        cold.stdout, warm.stdout,
        "a cache hit must replay the cold answer exactly"
    );
}

/// The chaos matrix from `tests/chaos.rs`, extended through serve
/// round-trips: every registry method under a 25%-rate fault mix
/// injected into the *server's* environment. Containment now spans the
/// wire — the client's exit code stays in the documented `{0..=5}` set,
/// no panic escapes either process (the only panic reports are the
/// injector's own, caught where they were raised), and the served outcome is
/// bit-identical to a local `reduce` under the same fault spec: stdout
/// byte for byte, and the stderr policy lines line for line.
#[test]
fn chaos_matrix_through_serve_matches_local_reduce() {
    let nl = write_netlist("chaos.sp", RLC_LADDER);
    let spec = "seed=42,rate=0.25,kinds=singular|nan|drift|panic,depth=2,stage=all";
    let server = Server::spawn(pmtbr_cli::METHODS.len(), Some(spec));
    for method in pmtbr_cli::METHODS {
        let mut flags = vec!["--method", method.name, "--band", "2e9", "--samples", "8"];
        if method.needs_order {
            flags.extend_from_slice(&["--order", "2"]);
        }
        let remote = submit(&server.addr, &nl, &flags);
        let local = reduce(&nl, &flags, Some(spec));
        let ctx = format!("method={}", method.name);
        let code = remote.status.code();
        assert!(
            matches!(code, Some(0..=5)),
            "{ctx}: exit {code:?} outside the documented set\nstderr: {}",
            String::from_utf8_lossy(&remote.stderr)
        );
        assert_eq!(
            code,
            local.status.code(),
            "{ctx}: served exit code diverged from local\nremote stderr: {}\nlocal stderr: {}",
            String::from_utf8_lossy(&remote.stderr),
            String::from_utf8_lossy(&local.stderr)
        );
        assert_eq!(remote.stdout, local.stdout, "{ctx}: served stdout diverged from local");
        assert_eq!(
            policy_lines(&remote),
            policy_lines(&local),
            "{ctx}: served stderr policy lines diverged from local"
        );
        for out in [&remote, &local] {
            let foreign = common::foreign_panics(&String::from_utf8_lossy(&out.stderr));
            assert!(foreign.is_empty(), "{ctx}: a panic the injector did not raise: {foreign:?}");
        }
    }
    server.finish();
}

/// Degradation acceptance is decided by the *client's* flags against
/// the server's summaries, with the same exit codes as local `reduce`
/// (asserted over in `tests/cli.rs` for the identical fault spec).
#[test]
fn degraded_submit_exit_codes_match_reduce() {
    let nl = write_netlist("degraded.sp", RC_LADDER);
    let fault = "seed=5,rate=0.3,kinds=panic,depth=2";
    let base = ["--order", "2", "--band", "2e9", "--samples", "12"];
    let server = Server::spawn(4, Some(fault));

    // Degraded but accepted: exit 2, diagnostics on stderr.
    let out = submit(&server.addr, &nl, &base);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sample points survived"), "stderr: {err}");

    // --strict is evaluated client-side: exit 3.
    let mut strict = base.to_vec();
    strict.push("--strict");
    let out = submit(&server.addr, &nl, &strict);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--strict"));

    // Client-side drop budget exceeded: exit 3.
    let mut capped = base.to_vec();
    capped.extend_from_slice(&["--max-dropped-samples", "0"]);
    let out = submit(&server.addr, &nl, &capped);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("max-dropped-samples"));

    // A generous budget accepts the same degradation: exit 2.
    let mut generous = base.to_vec();
    generous.extend_from_slice(&["--max-dropped-samples", "11"]);
    let out = submit(&server.addr, &nl, &generous);
    assert_eq!(out.status.code(), Some(2));
    server.finish();
}

/// A run whose compressor fell back is degraded, not clean: exit 2 from
/// `reduce` and `submit` alike. At this seed every spectral attempt on
/// the 6×6 mesh panics, so the compressor downgrades to the incremental
/// QR basis.
#[test]
fn compressor_fallback_exits_2_from_reduce_and_submit() {
    let mesh = circuits::rc_mesh_netlist(6, 6, &[0, 35], 1.0, 1.0, 2.0);
    let nl = write_netlist("fallback.sp", &mesh);
    let fault = "seed=3,rate=1,kinds=panic,depth=5,stage=compress";
    let flags = ["--band", "1", "--samples", "8"];
    let server = Server::spawn(1, Some(fault));
    let remote = submit(&server.addr, &nl, &flags);
    server.finish();
    let local = reduce(&nl, &flags, Some(fault));
    for (what, out) in [("submit", &remote), ("reduce", &local)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{what} stderr: {stderr}");
    }
    assert_eq!(remote.stdout, local.stdout);
    assert_eq!(policy_lines(&remote), policy_lines(&local));
    assert!(policy_lines(&local)[0].contains("compress=degraded project=clean downgraded=true"));
}

#[test]
fn budget_exhaustion_parity_exit_4() {
    let nl = write_netlist("budget.sp", RLC_LADDER);
    let flags = ["--band", "2e9", "--samples", "8", "--budget-lu", "4"];
    let server = Server::spawn(1, None);
    let remote = submit(&server.addr, &nl, &flags);
    server.finish();
    let local = reduce(&nl, &flags, None);
    assert_eq!(remote.status.code(), Some(4));
    assert_eq!(local.status.code(), Some(4));
    assert_eq!(remote.stdout, local.stdout, "best-effort model must match local");
    assert_eq!(policy_lines(&remote), policy_lines(&local));
    assert!(
        String::from_utf8_lossy(&remote.stderr).contains("budget_exhausted=lu-factorizations"),
        "stderr: {}",
        String::from_utf8_lossy(&remote.stderr)
    );
}

/// Transport failures are exit 5 — distinct from exit 1 so scripts can
/// tell "the job failed" from "the service failed".
#[test]
fn protocol_errors_exit_5() {
    let nl = write_netlist("proto.sp", RC_LADDER);
    let flags = ["--order", "2", "--band", "2e9", "--samples", "8", "--timeout-ms", "400"];

    // Nobody listening: bind an ephemeral port, then close it.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let out = submit(&dead, &nl, &flags);
    assert_eq!(
        out.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "no model may be printed on a protocol error");

    // Listening but never answering: the deadline must fire as exit 5.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let stalled = listener.local_addr().expect("addr").to_string();
    let out = submit(&stalled, &nl, &flags);
    assert_eq!(
        out.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty());
    drop(listener);
}

/// A job the *server* rejects (bad netlist) is a well-formed response
/// and maps to exit 1 — the same code the local command would use.
#[test]
fn server_side_job_errors_exit_1() {
    let nl = write_netlist("broken.sp", "Q1 broken card\n.end");
    let server = Server::spawn(1, None);
    let out = submit(&server.addr, &nl, &["--band", "2e9", "--samples", "8"]);
    server.finish();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("netlist:"), "stderr: {err}");
    assert!(out.stdout.is_empty());
}

/// A netlist the parser rejects fails `reduce` and `submit` with one
/// and the same `error:` line: both run the job through one handler.
#[test]
fn malformed_netlist_errors_match_between_reduce_and_submit() {
    let nl = write_netlist("unknown-card.sp", "R1 1 2 50\nC1 2 0 1p\nQ1 2 0 1\nPORT 1\n.end");
    let flags = ["--band", "2e9", "--samples", "8"];
    let server = Server::spawn(1, None);
    let remote = submit(&server.addr, &nl, &flags);
    server.finish();
    let local = reduce(&nl, &flags, None);
    assert_eq!(local.status.code(), Some(1));
    assert_eq!(remote.status.code(), Some(1));
    let lines = policy_lines(&local);
    assert!(lines.len() == 1 && lines[0].contains("line 3"), "local stderr: {lines:?}");
    assert_eq!(policy_lines(&remote), lines);
    assert!(local.stdout.is_empty() && remote.stdout.is_empty());
}

/// `--trace` on submit ships the *server's* deterministic trace back
/// over the wire, cache spans included.
#[test]
fn submit_trace_rides_back_from_the_server() {
    let nl = write_netlist("trace.sp", RC_LADDER);
    let trace = std::env::temp_dir().join("pmtbr-serve-tests").join("submit-trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let server = Server::spawn(1, None);
    let out = submit(
        &server.addr,
        &nl,
        &[
            "--order",
            "2",
            "--band",
            "2e9",
            "--samples",
            "12",
            "--trace",
            trace.to_str().expect("utf8 path"),
        ],
    );
    server.finish();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("server trace written");
    let first = text.lines().next().expect("non-empty trace");
    assert!(first.contains("pmtbr-trace-v1"), "first line: {first}");
    assert!(first.contains("\"clock\":\"counter\""), "served traces use the counter clock");
    assert!(text.contains("cache_lookup"), "cache spans must appear in the served trace");
}

/// A count too large to allocate is a job error, not a panic: `reduce`
/// prints an `error:` line and exits 1, and a server answers the same
/// job with an error response and then serves the next job. Both counts
/// fail the allocator's size check before anything is allocated.
#[test]
fn unallocatable_counts_are_job_errors() {
    let nl = write_netlist("hostile.sp", RC_LADDER);
    let hostile: [&[&str]; 2] = [
        &["--band", "1", "--samples", "4611686018427387904"],
        &["--band", "1", "--method", "greedy", "--greedy-max-shifts", "4611686018427387904"],
    ];
    let server = Server::spawn(hostile.len() + 1, None);
    for flags in hostile {
        for out in [reduce(&nl, flags, None), submit(&server.addr, &nl, flags)] {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{flags:?}: stderr: {stderr}");
            assert!(stderr.contains("error: invalid argument: point count is too large"), "{stderr}");
            assert!(!stderr.contains(" panicked at "), "{flags:?}: stderr: {stderr}");
            assert!(out.stdout.is_empty());
        }
    }
    let next = submit(&server.addr, &nl, &["--order", "2", "--band", "2e9", "--samples", "8"]);
    server.finish();
    assert_eq!(next.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&next.stderr));
}

/// Served traces are unchanged by the handler's source index. Traced
/// jobs always parse: the first traced job after an untraced one
/// computes (an untraced model cannot serve a trace) and returns the
/// cold trace, the next returns the warm trace, both byte-identical to
/// the fixtures recorded before the index existed, and an untraced
/// repeat — answered through the index — prints the same model.
#[test]
fn submit_traces_are_unchanged_cold_and_warm() {
    let nl = write_netlist("trace-fixture.sp", RC_LADDER);
    let dir = std::env::temp_dir().join("pmtbr-serve-tests");
    let flags = ["--order", "2", "--band", "2e9", "--samples", "12"];
    let server = Server::spawn(4, None);
    let first = submit(&server.addr, &nl, &flags);
    let mut traces = Vec::new();
    for name in ["fixture-cold.jsonl", "fixture-warm.jsonl"] {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let traced = [&flags[..], &["--trace", path.to_str().expect("utf8 path")]].concat();
        let out = submit(&server.addr, &nl, &traced);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.stdout, first.stdout);
        traces.push(std::fs::read_to_string(&path).expect("trace written"));
    }
    let repeat = submit(&server.addr, &nl, &flags);
    server.finish();
    assert_eq!(first.status.code(), Some(0));
    assert_eq!(repeat.stdout, first.stdout);
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (trace, name) in traces.iter().zip(["submit_trace_cold.jsonl", "submit_trace_warm.jsonl"]) {
        let want = std::fs::read_to_string(fixtures.join(name)).expect("fixture");
        assert!(trace == &want, "{name}: served trace differs from the fixture\n{trace}");
    }
}
