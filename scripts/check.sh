#!/usr/bin/env bash
# Full local gate: release build, the whole workspace's tests,
# warning-free clippy and rustdoc passes over the whole workspace, the
# numlint rules, the observability golden tests, the
# chaos/variants/greedy benches, a perfbench build and smoke run, and
# the doc-consistency pass. CI and pre-merge runs should both call this
# script so the two can never drift apart.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# numlint runs twice: the first pass populates/refreshes the per-file
# analysis cache (target/numlint-cache, keyed on content hash and
# rule-set version), the second proves warm runs stay sub-second — the
# cache hit/miss counts numlint prints on stderr belong to each pass.
echo "==> numlint check"
numlint_t0=$(date +%s%N)
cargo run -q -p numlint -- check --baseline numlint.baseline
numlint_t1=$(date +%s%N)
cargo run -q -p numlint -- check --baseline numlint.baseline >/dev/null
numlint_t2=$(date +%s%N)
numlint_cold_ms=$(( (numlint_t1 - numlint_t0) / 1000000 ))
numlint_warm_ms=$(( (numlint_t2 - numlint_t1) / 1000000 ))
echo "numlint wall time: ${numlint_cold_ms}ms first pass, ${numlint_warm_ms}ms warm"
if [ "${numlint_warm_ms}" -ge 1000 ]; then
    echo "check.sh: FAIL — warm numlint run took ${numlint_warm_ms}ms (budget: <1000ms)" >&2
    exit 1
fi

# The obs golden tests run as part of `cargo test -q --workspace` above;
# rerun them by name so a trace-schema or counter-accounting regression
# is called out explicitly rather than buried in the full-suite output.
# The cache tests pin the cache's identity contract (cold, uncached and
# warm runs identical, traces included), eviction and admission.
echo "==> obs golden tests (trace determinism + counter accounting + cache identity)"
cargo test -q -p pmtbr-cli --test trace_golden
cargo test -q --test obs_counters
cargo test -q -p pmtbr --test cache

# Quick chaos gate: the CLI binary under a 25% deterministic fault rate
# across every registry method, every injectable stage, and 1/2/8
# worker threads. Asserts containment (exit codes within the documented
# set, no escaped panics, finite output) and bit-identical stdout per
# thread count at a fixed fault seed, plus budget-exhaustion exit codes.
# Runs as part of `cargo test -q --workspace` too; named here so a
# containment regression is called out explicitly.
echo "==> chaos gate (PMTBR_FAULT matrix: methods x stages x 1/2/8 threads)"
cargo test -q -p pmtbr-cli --test chaos

# Service gate: serve/submit round-trips over real sockets — byte-level
# parity with local `reduce` (stdout and exit codes), the chaos matrix
# through the server's environment, protocol failures as exit 5, and
# served traces riding back — then the serve crate's own tests: the
# scheduler's stall tests (silent client, unread or slowly drained
# response) and shutdown tests (idle, every reader slot held), the
# client's deadline test (trickling server) and the wire-codec fuzz.
# Runs as part of `cargo test -q --workspace` too; named here so a
# wire-contract or scheduler regression is called out explicitly.
echo "==> service gate (serve/submit parity + chaos through the wire, scheduler + wire fuzz)"
cargo test -q -p pmtbr-cli --test serve
cargo test -q -p serve

# Variant-coverage + perf trend gate: every `reduce` method registry
# entry must reduce the headline 1024-state mesh, and no sampling-based
# method may regress its wall time, as a ratio to a dense reference
# kernel timed in the same process, more than 1.5x against the
# committed ratio (crates/bench/baselines/variants_wall.txt;
# dense-Gramian baselines are exempt, VARIANTS_NO_PERF_GATE=1 skips the
# trend check). Writes BENCH_variants.json (order, in-band error, wall
# time and ratio, and per-stage seconds per method).
echo "==> variant coverage + perf trend (every registry method on the 1024-state mesh)"
cargo run --release -q -p bench --bin variants
test -s BENCH_variants.json

# Greedy accuracy-vs-solves gate: adaptive selection at the default
# convergence tolerance must match the fixed 8-node grid's in-band
# accuracy on the 1024-state mesh with strictly fewer LU
# factorizations (counter-delta-exact). Writes BENCH_greedy.json with
# the full tol=0 accuracy-vs-solves curve; the binary exits non-zero
# if the gate fails. See docs/SAMPLING.md section 9. The file holds no
# timings, so it must come out byte-identical to the committed one:
# any numeric drift in greedy selection fails here.
echo "==> greedy accuracy-vs-solves gate (BENCH_greedy.json)"
cargo run --release -q -p bench --bin greedy
test -s BENCH_greedy.json
git diff --exit-code -- BENCH_greedy.json

# Service perf gate: the 1024-state mesh submitted to a live `serve`
# scheduler over loopback TCP, cold (empty artifact cache) then warm
# (model-cache hit). The warm median must be at least 5x faster than
# the cold run and byte-identical to it; the binary exits non-zero
# otherwise (SERVE_NO_PERF_GATE=1 skips the speedup check on unusual
# machines). Writes BENCH_serve.json.
echo "==> service warm-vs-cold gate (BENCH_serve.json)"
cargo run --release -q -p bench --bin serve_bench
test -s BENCH_serve.json

# Benchmark smoke gate: perfbench is its own cargo package (perfbench/),
# so no step above compiles it, yet it implements `LtiSystem` and
# `ArtifactCache` and calls about 40 public crate items. Build it with
# its locked manifest and run each workload briefly: traced at the
# development seed 1, then untraced at the held-out seed 20041, whose
# meshes and job mix no test or tuning run uses. Each run's last stdout
# line must report `"correct": true`: every job's model is clean and
# within 1e-3 in-band error, reruns repeat bit for bit, and served
# models equal local runs (the checks are listed in perfbench/README.md).
echo "==> perfbench build + smoke (both workloads, 2 s each: seed 1 traced, seed 20041 untraced)"
for run in "1 1" "20041 0"; do
    read -r seed trace <<<"$run"
    for workload in reduce_sweep serve_mixed; do
        if ! last=$(cargo run --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 2 --trace "$trace" | tail -n 1); then
            echo "check.sh: FAIL — perfbench $workload (seed $seed) exited non-zero" >&2
            exit 1
        fi
        case "$last" in
            *'"correct": true'*) echo "perfbench $workload (seed $seed, trace $trace): correct" ;;
            *)
                echo "check.sh: FAIL — perfbench $workload (seed $seed) did not report \"correct\": true: $last" >&2
                exit 1
                ;;
        esac
    done
done

# Doc-consistency gate: every relative link in README.md / DESIGN.md /
# EXPERIMENTS.md / docs/*.md must resolve, and every method in
# pmtbr_cli::METHODS must be documented in the README (numlint's DOC01
# / DOC02 — zero-dependency, parses the registry source directly).
echo "==> numlint doccheck (links + method-registry drift)"
cargo run -q -p numlint -- doccheck

# Library size, informational (no threshold): non-test lines of each
# library crate's src/*.rs, counting each file up to its first
# `#[cfg(test)]` line, so each change can quote the gate's own count.
echo "==> non-test library lines"
lib_total=0
for crate in numkit sparsekit lti circuits krylov pmtbr obs serve cli; do
    lines=$(awk '/^#\[cfg\(test\)\]/{nextfile} {n++} END{print n+0}' "crates/$crate/src/"*.rs)
    printf '%-10s %6d\n' "$crate" "$lines"
    lib_total=$((lib_total + lines))
done
printf '%-10s %6d\n' total "$lib_total"

echo "check.sh: all gates passed"
