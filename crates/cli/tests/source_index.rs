//! The served handler's source index: an untraced repeat of a netlist
//! text the cache has built is answered from the model cache before any
//! parse, MNA assembly or pencil hash, with the response bytes and
//! counters the parse path would give, and every job the index cannot
//! answer takes the parse path unchanged.
//!
//! The obs counters and `PMTBR_FAULT` are process-global, so every test
//! serializes on one mutex.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use obs::Counter;
use pmtbr::{Artifact, ArtifactCache, CacheKey, LruCache, NullCache};
use pmtbr_cli::handle_job;
use serve::{JobRequest, JobResponse};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn job(method: &str) -> JobRequest {
    JobRequest {
        method: method.into(),
        netlist: circuits::rc_mesh_netlist(4, 4, &[0, 15], 1.0, 1.0, 2.0),
        omega_max: 20.0,
        bands: vec![],
        samples: 8,
        tol: 1e-8,
        order: Some(4),
        greedy_tol: 1e-3,
        greedy_max_shifts: None,
        budget_lu: None,
        budget_svd: None,
        budget_bytes: None,
        trace: false,
    }
}

fn pencil_of(job: &JobRequest) -> u64 {
    circuits::parse_netlist(&job.netlist).unwrap().build().unwrap().pencil_hash()
}

/// The response's wire bytes: equal bytes are what a client sees as
/// the same answer.
fn bytes(resp: &JobResponse) -> Vec<u8> {
    assert!(matches!(resp, JobResponse::Ok(_)), "job failed: {resp:?}");
    resp.encode()
}

/// Runs one job and returns its response with the `(CACHE_HIT,
/// CACHE_MISS)` counts it added.
fn handle(job: &JobRequest, cache: &dyn ArtifactCache) -> (JobResponse, (u64, u64)) {
    let (hit, miss) = (obs::counters::get(Counter::CacheHit), obs::counters::get(Counter::CacheMiss));
    let resp = handle_job(job, cache);
    let counts = (
        obs::counters::get(Counter::CacheHit) - hit,
        obs::counters::get(Counter::CacheMiss) - miss,
    );
    (resp, counts)
}

/// Forwards to an [`LruCache`], counting the index traffic.
struct Counting<'a> {
    inner: &'a LruCache,
    lookups: AtomicUsize,
    notes: AtomicUsize,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a LruCache) -> Self {
        Counting { inner, lookups: AtomicUsize::new(0), notes: AtomicUsize::new(0) }
    }
}

impl ArtifactCache for Counting<'_> {
    fn get(&self, key: &CacheKey) -> Option<Artifact> {
        self.inner.get(key)
    }
    fn put(&self, key: CacheKey, value: Artifact) {
        self.inner.put(key, value);
    }
    fn stats(&self) -> (usize, usize) {
        self.inner.stats()
    }
    fn source_pencil(&self, source: &[u8]) -> Option<u64> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.source_pencil(source)
    }
    fn note_source(&self, source: &[u8], pencil: u64) {
        self.notes.fetch_add(1, Ordering::Relaxed);
        self.inner.note_source(source, pencil);
    }
}

/// Claims every text builds `pencil`: a text it answers can only have
/// been answered without a parse.
struct Pinned<'a> {
    inner: &'a LruCache,
    pencil: u64,
}

impl ArtifactCache for Pinned<'_> {
    fn get(&self, key: &CacheKey) -> Option<Artifact> {
        self.inner.get(key)
    }
    fn put(&self, key: CacheKey, value: Artifact) {
        self.inner.put(key, value);
    }
    fn stats(&self) -> (usize, usize) {
        self.inner.stats()
    }
    fn source_pencil(&self, _source: &[u8]) -> Option<u64> {
        Some(self.pencil)
    }
}

#[test]
fn repeated_jobs_are_answered_from_the_index_bit_for_bit() {
    let _g = lock();
    for method in ["pmtbr", "balanced", "cross", "fsel", "greedy"] {
        let job = job(method);
        let lru = LruCache::new(16 << 20);
        let cache = Counting::new(&lru);
        let (cold, cold_counts) = handle(&job, &cache);
        assert_eq!(cold_counts, (0, 1), "{method}: the first job computes");
        assert_eq!(cache.notes.load(Ordering::Relaxed), 1, "{method}: the build notes the text");
        assert_eq!(lru.source_pencil(job.netlist.as_bytes()), Some(pencil_of(&job)), "{method}");
        let (warm, warm_counts) = handle(&job, &cache);
        assert_eq!(warm_counts, (1, 0), "{method}: one hit, no miss");
        assert_eq!(cache.lookups.load(Ordering::Relaxed), 2, "{method}");
        assert_eq!(cache.notes.load(Ordering::Relaxed), 1, "{method}: the index answered");
        let (local, _) = handle(&job, &NullCache);
        assert_eq!(bytes(&warm), bytes(&cold), "{method}: warm differs from cold");
        assert_eq!(bytes(&warm), bytes(&local), "{method}: served differs from uncached");
    }
}

/// A repeat is a model hit in any order: another netlist served in
/// between neither evicts nor unindexes the first, so no scheduler has
/// to run repeats back-to-back.
#[test]
fn a_repeat_after_another_netlist_is_still_a_hit() {
    let _g = lock();
    let a = job("pmtbr");
    let mut b = a.clone();
    b.netlist = circuits::rc_mesh_netlist(5, 5, &[0, 24], 1.0, 1.0, 2.0);
    let lru = LruCache::new(16 << 20);
    let (first_a, counts) = handle(&a, &lru);
    assert_eq!(counts, (0, 1), "A computes");
    let (_, counts) = handle(&b, &lru);
    assert_eq!(counts, (0, 1), "B computes");
    let (second_a, counts) = handle(&a, &lru);
    assert_eq!(counts, (1, 0), "the second A is a model hit");
    assert_eq!(bytes(&second_a), bytes(&first_a));
}

#[test]
fn an_indexed_text_is_answered_without_parsing() {
    let _g = lock();
    let good = job("pmtbr");
    let lru = LruCache::new(16 << 20);
    let primed = handle_job(&good, &lru);
    let mut broken = good.clone();
    broken.netlist = "Q1 broken card\n.end".into();
    let (resp, counts) = handle(&broken, &Pinned { inner: &lru, pencil: pencil_of(&good) });
    assert_eq!(counts, (1, 0));
    assert_eq!(bytes(&resp), bytes(&primed), "the unparsable text got the indexed model");
    // Without the index entry the same text fails to parse.
    assert!(matches!(handle_job(&broken, &lru), JobResponse::Err(e) if e.starts_with("netlist:")));
}

/// A repeat that differs in anything the model key covers — a plan
/// field, a budget cap, the fault plan — or whose model is gone takes
/// the parse path: it misses, computes, and answers what an uncached
/// run answers. So do jobs the index cannot plan.
#[test]
fn jobs_the_index_cannot_answer_take_the_parse_path() {
    let _g = lock();
    let base = job("pmtbr");
    let lru = LruCache::new(16 << 20);
    let _ = handle_job(&base, &lru);
    let mut samples = base.clone();
    samples.samples = 10;
    let mut tol = base.clone();
    tol.tol = 1e-6;
    let mut budget = base.clone();
    budget.budget_lu = Some(1_000);
    for (what, repeat) in [("samples", &samples), ("tol", &tol), ("budget", &budget)] {
        let (resp, counts) = handle(repeat, &lru);
        assert_eq!(counts, (0, 1), "{what}");
        assert_eq!(bytes(&resp), bytes(&handle_job(repeat, &NullCache)), "{what}");
    }

    std::env::set_var("PMTBR_FAULT", "seed=5,rate=0.3,kinds=singular,depth=2");
    let (faulted, counts) = handle(&base, &lru);
    let uncached = handle_job(&base, &NullCache);
    std::env::remove_var("PMTBR_FAULT");
    assert_eq!(counts, (0, 1), "a fault plan keys the model apart");
    assert_eq!(bytes(&faulted), bytes(&uncached));
    assert_ne!(bytes(&faulted), bytes(&handle_job(&base, &NullCache)), "the fault took effect");

    // No model is admitted under a zero byte budget, though the index
    // keeps the text: the repeat misses and computes again.
    let empty = LruCache::new(0);
    let (first, _) = handle(&base, &empty);
    assert!(empty.source_pencil(base.netlist.as_bytes()).is_some());
    let (again, counts) = handle(&base, &empty);
    assert_eq!(counts, (0, 1));
    assert_eq!(bytes(&again), bytes(&first));

    // A plan error, an unknown method, and a method whose plan needs
    // the system all fall through to the parse path's own answer.
    let mut no_order = job("balanced");
    no_order.order = None;
    let mut unknown = base.clone();
    unknown.method = "no-such".into();
    for (what, j) in [("no order", &no_order), ("unknown", &unknown)] {
        let (resp, counts) = handle(j, &lru);
        assert_eq!(counts, (0, 0), "{what}");
        let want = handle_job(j, &NullCache);
        assert!(matches!((&resp, &want), (JobResponse::Err(a), JobResponse::Err(b)) if a == b), "{what}");
    }
    let correlated = job("correlated");
    let _ = handle_job(&correlated, &lru);
    let (resp, counts) = handle(&correlated, &lru);
    assert_eq!(counts, (1, 0), "correlated hits through the parse path");
    assert_eq!(bytes(&resp), bytes(&handle_job(&correlated, &NullCache)));
}

/// A traced job parses even when its text is indexed, so its trace is
/// what the parse path records; the untraced entry cannot serve it.
#[test]
fn traced_jobs_take_the_parse_path() {
    let _g = lock();
    let base = job("pmtbr");
    let lru = LruCache::new(16 << 20);
    let cache = Counting::new(&lru);
    let _ = handle_job(&base, &cache);
    let mut traced = base.clone();
    traced.trace = true;
    let (resp, counts) = handle(&traced, &cache);
    assert_eq!(counts, (0, 1), "an untraced entry cannot serve a traced job");
    assert_eq!(cache.lookups.load(Ordering::Relaxed), 1, "traced jobs skip the index");
    let JobResponse::Ok(res) = resp else { panic!("traced job failed") };
    assert!(res.trace.is_some_and(|t| t.contains("\"outcome\":\"miss\"")));
}
