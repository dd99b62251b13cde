//! Integration tests for the content-addressed artifact cache: the
//! bit-identity contract between uncached, cold-cached, and warm-cached
//! runs (models *and* traces, at several thread counts), byte-budget
//! eviction, admission of traced and untraced entries, poisoned-entry
//! (Degraded) rejection, and fault-plan keying.
//!
//! The obs collector, counters, and `PMTBR_THREADS` are process-global,
//! so every test serializes on one mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};

use obs::ClockKind;
use pmtbr::cache::ArtifactCache;
use pmtbr::pipeline::{run, run_cached};
use pmtbr::{
    Budget, FaultKind, FaultPlan, LruCache, NullCache, PmtbrOptions, Reduction, ReductionPlan,
    Sampling, StageOutcome,
};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn mesh() -> lti::Descriptor {
    circuits::rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap()
}

fn plan() -> ReductionPlan {
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 8 }).with_max_order(6);
    ReductionPlan::pmtbr(&opts)
}

/// Exact bit comparison of two reductions: every matrix entry, the
/// singular spectrum, the order, and the full report.
fn assert_bit_identical(a: &Reduction, b: &Reduction) {
    let (ra, rb) = (&a.model.reduced, &b.model.reduced);
    for (ma, mb) in
        [(&ra.a, &rb.a), (&ra.b, &rb.b), (&ra.c, &rb.c), (&ra.d, &rb.d), (&a.model.v, &b.model.v)]
    {
        assert_eq!(ma.shape(), mb.shape());
        for i in 0..ma.nrows() {
            for j in 0..ma.ncols() {
                assert_eq!(ma[(i, j)].to_bits(), mb[(i, j)].to_bits(), "entry ({i},{j})");
            }
        }
    }
    let sa: Vec<u64> = a.model.singular_values.iter().map(|v| v.to_bits()).collect();
    let sb: Vec<u64> = b.model.singular_values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(sa, sb);
    assert_eq!(a.model.order, b.model.order);
    assert_eq!(a.report, b.report);
}

/// Runs `f` with a fresh trace collector installed and returns its
/// result plus the serialized trace.
fn traced<T>(f: impl FnOnce() -> T) -> (T, String) {
    assert!(obs::install(ClockKind::Counter));
    let out = f();
    let trace = obs::drain().expect("trace installed").to_jsonl();
    (out, trace)
}

/// Event lines that are not cache bookkeeping: the work-event slice the
/// replay contract pins byte-for-byte.
fn work_lines(trace: &str) -> Vec<&str> {
    trace
        .lines()
        .filter(|l| l.contains("\"span\":\"") && !l.contains("\"span\":\"cache_"))
        .collect()
}

#[test]
fn cached_and_uncached_runs_are_bit_identical_across_threads() {
    let _g = lock();
    let sys = mesh();
    let plan = plan();
    let budget = Budget::default();
    for threads in ["1", "2", "8"] {
        std::env::set_var("PMTBR_THREADS", threads);
        let (baseline, baseline_trace) =
            traced(|| run_cached(&sys, &plan, &budget, &NullCache).expect("uncached run"));

        // Cold run through a real cache: byte-identical to the uncached
        // run — same model, same report, same trace, same counters line.
        let cache = LruCache::new(64 << 20);
        let (cold, cold_trace) =
            traced(|| run_cached(&sys, &plan, &budget, &cache).expect("cold run"));
        assert_bit_identical(&baseline, &cold);
        assert_eq!(baseline_trace, cold_trace, "cold-cached trace must equal uncached trace");

        // Warm run: the model is bit-identical and the replayed work
        // events are byte-identical; only the cache_lookup outcome and
        // the counters line may differ.
        let (warm, warm_trace) =
            traced(|| run_cached(&sys, &plan, &budget, &cache).expect("warm run"));
        assert_bit_identical(&baseline, &warm);
        assert_eq!(work_lines(&cold_trace), work_lines(&warm_trace));
        assert!(warm_trace.contains("\"outcome\":\"hit\""));
    }
    std::env::remove_var("PMTBR_THREADS");
}

#[test]
fn warm_hits_skip_the_sweep_entirely() {
    let _g = lock();
    let sys = mesh();
    let plan = plan();
    let budget = Budget::default();
    let cache = LruCache::new(64 << 20);
    run_cached(&sys, &plan, &budget, &cache).expect("cold run");
    let lu_before = obs::counters::get(obs::Counter::LuFactor);
    let hits_before = obs::counters::get(obs::Counter::CacheHit);
    let warm = run_cached(&sys, &plan, &budget, &cache).expect("warm run");
    assert_eq!(obs::counters::get(obs::Counter::LuFactor), lu_before, "no new factorizations");
    assert_eq!(obs::counters::get(obs::Counter::CacheHit), hits_before + 1);
    assert!(warm.report.is_clean());
}

#[test]
fn an_untraced_entry_never_serves_a_traced_run() {
    let _g = lock();
    let sys = mesh();
    let plan = plan();
    let budget = Budget::default();
    let (_, uncached_trace) =
        traced(|| run_cached(&sys, &plan, &budget, &NullCache).expect("uncached traced run"));

    // An untraced run stores an entry with no events to replay.
    let cache = LruCache::new(64 << 20);
    run_cached(&sys, &plan, &budget, &cache).expect("untraced run");
    assert_eq!(cache.stats().0, 1);

    // A traced run of the same plan must miss that entry and compute,
    // producing exactly the trace of a traced run through NullCache.
    let lu_before = obs::counters::get(obs::Counter::LuFactor);
    let (_, miss_trace) = traced(|| run_cached(&sys, &plan, &budget, &cache).expect("traced miss"));
    assert!(obs::counters::get(obs::Counter::LuFactor) > lu_before, "the sweep ran again");
    assert_eq!(miss_trace, uncached_trace);

    // Its entry is traced: a second traced run hits it and replays the
    // same work events.
    let lu_before = obs::counters::get(obs::Counter::LuFactor);
    let (_, hit_trace) = traced(|| run_cached(&sys, &plan, &budget, &cache).expect("traced hit"));
    assert_eq!(obs::counters::get(obs::Counter::LuFactor), lu_before, "no new factorizations");
    assert!(hit_trace.contains("\"outcome\":\"hit\""));
    assert_eq!(work_lines(&hit_trace), work_lines(&uncached_trace));

    // And an untraced run may be served by the traced entry.
    let hits_before = obs::counters::get(obs::Counter::CacheHit);
    run_cached(&sys, &plan, &budget, &cache).expect("untraced hit");
    assert_eq!(obs::counters::get(obs::Counter::CacheHit), hits_before + 1);
    assert_eq!(obs::counters::get(obs::Counter::LuFactor), lu_before);
}

#[test]
fn tiny_byte_budgets_evict_deterministically() {
    let _g = lock();
    let sys = mesh();
    let budget = Budget::default();
    // Big enough for one run's model, not two runs' worth.
    let one_run = {
        let probe = LruCache::new(usize::MAX >> 1);
        run_cached(&sys, &plan(), &budget, &probe).expect("probe run");
        probe.stats().1
    };
    let cache = LruCache::new(one_run + one_run / 4);
    let evicted_before = obs::counters::get(obs::Counter::CacheEvict);
    run_cached(&sys, &plan(), &budget, &cache).expect("first plan");
    // A different node count is a different key, so a second model is
    // offered and the budget must evict the first.
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 9 }).with_max_order(6);
    run_cached(&sys, &ReductionPlan::pmtbr(&opts), &budget, &cache).expect("second plan");
    let (entries, bytes) = cache.stats();
    assert!(bytes <= cache.budget_bytes(), "byte budget holds after eviction");
    assert_eq!(entries, 1, "the older model was evicted, not accumulated");
    assert!(
        obs::counters::get(obs::Counter::CacheEvict) > evicted_before,
        "evictions are counted"
    );
}

#[test]
fn degraded_results_are_never_cached() {
    let _g = lock();
    let sys = mesh();
    // A one-factorization budget truncates the sweep: the result is
    // Degraded and must be rejected by the admission policy.
    let budget = Budget { max_lu_factors: Some(1), ..Budget::default() };
    let cache = LruCache::new(64 << 20);
    let red = run_cached(&sys, &plan(), &budget, &cache).expect("degraded run");
    assert!(red.report.is_degraded());
    assert_eq!(cache.stats(), (0, 0), "no poisoned entries admitted");
    // The degraded report names the stage that consumed the budget.
    assert!(red.report.notes.iter().any(|n| n.contains("sweep")), "notes: {:?}", red.report.notes);
}

#[test]
fn faulted_results_are_keyed_apart_from_clean_ones() {
    let _g = lock();
    let sys = mesh();
    let plan = plan();
    let budget = Budget::default();
    // Singular faults on every shift at depth 3 push all 8 nodes onto
    // the perturbation rung. The run is Recovered, not Degraded, so its
    // artifacts are admitted — and must land under a faulted key.
    let faults = FaultPlan::new(42, 1.0, vec![FaultKind::Singular], 3);
    let cache = LruCache::new(64 << 20);
    let faulted = run(&sys, &plan, Some(&faults), &budget, &cache).expect("faulted run");
    assert_eq!(faulted.diagnostics.count("perturbed"), 8);
    assert_eq!(faulted.report.sweep, StageOutcome::Recovered);
    assert!(!faulted.report.is_degraded());
    assert!(cache.stats().0 > 0, "the recovered result was admitted");
    // A later clean request through the same cache must compute the
    // clean answer, never replay the perturbed one.
    let clean = run(&sys, &plan, None, &budget, &NullCache).expect("uncached clean run");
    let via_cache = run_cached(&sys, &plan, &budget, &cache).expect("clean cached run");
    assert_bit_identical(&clean, &via_cache);
    assert!(via_cache.report.is_clean(), "report: {:?}", via_cache.report);
}
