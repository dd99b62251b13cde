//! Content-addressed artifact cache for the reduction pipeline.
//!
//! Reduction-as-a-service needs warm requests to skip work a previous
//! run already paid for, **without** changing a single bit of the
//! answer. This module provides the substrate: an [`ArtifactCache`]
//! trait the pipeline consults before it runs, a no-op [`NullCache`]
//! (the default, so cached and uncached runs execute the identical
//! code path), and a deterministic in-memory [`LruCache`] with a
//! byte-budget eviction policy. The one kind of artifact is a finished
//! model: the paper's order control already reuses one sweep across
//! orders in-process ([`crate::sample_basis`] /
//! [`crate::reduce_with_basis`]).
//!
//! # Keys
//!
//! Every key is a [`CacheKey`]: the system's
//! [`lti::LtiSystem::pencil_hash`] and a digest of everything else that
//! can change the bits of the result — the full [`ReductionPlan`]
//! (sampling nodes, input directions, compressor, order control), the
//! fault plan the run injects, and the [`Budget`] caps. Two
//! runs with equal keys are bit-identical by the determinism contract,
//! so a cache hit is exact, never approximate.
//!
//! # Identity contract
//!
//! - A **cold** run through a cache (every lookup misses) is
//!   byte-identical — model, report, trace, and counters — to a run
//!   through [`NullCache`]: both emit the same `cache_lookup` /
//!   `cache_store` spans, and [`obs::Counter::CacheBytes`] counts bytes
//!   *offered* for admission whether or not the backend keeps them.
//! - A **warm** hit returns the stored [`Reduction`] clone and replays
//!   the trace events captured when the entry was computed (see
//!   [`obs::replay`]), so the work events are byte-identical to the
//!   cold run; only the `cache_lookup` outcome and the hit/miss
//!   counters legitimately differ.
//!
//! # Poisoned entries
//!
//! A Degraded result is never admitted ([`crate::StageOutcome`]): a
//! degraded model encodes *this run's* fault and budget history, and
//! serving it to a later identical request would launder a degraded
//! answer as a clean one. The pipeline enforces this before every
//! `put`; [`LruCache`] is policy-free storage.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use lti::hash::Fnv64;
use numkit::DMat;
use obs::Counter;

use crate::pipeline::{Compressor, InputDirections, OrderControl, ReductionPlan, Reduction};
use crate::{Budget, FaultPlan, Sampling};

/// Content address of one finished model: pencil hash, request digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`lti::LtiSystem::pencil_hash`] of the system.
    pub pencil: u64,
    /// Digest of everything else that can change the result's bits.
    pub digest: u64,
}

/// A cached finished reduction: the result plus the trace events the
/// computing run emitted, so a warm hit can replay them byte-for-byte.
#[derive(Debug, Clone)]
pub struct CachedReduction {
    /// The finished reduction (model, diagnostics, report).
    pub reduction: Reduction,
    /// Trace events captured while the entry was computed (empty when
    /// the computing run was untraced).
    pub events: Vec<obs::Event>,
    /// Sequential-root numbering watermark of `events` (pre-computed so
    /// a warm hit can advance live numbering with
    /// [`obs::skip_seq_roots`] before replaying).
    pub seq_watermark: u64,
    /// `true` when the computing run was traced, so `events` is a
    /// faithful capture. A traced run must treat an untraced entry as a
    /// miss, or its trace would silently lose the pipeline spans.
    pub traced: bool,
}

impl CachedReduction {
    /// Deterministic size estimate used for byte-budget accounting and
    /// the [`obs::Counter::CacheBytes`] counter. A pure function of the
    /// entry's contents — never of the backend's state — so every
    /// backend offers identical byte counts.
    pub fn approx_bytes(&self) -> usize {
        let model = &self.reduction.model;
        let mats = dmat_bytes(&model.reduced.a)
            + dmat_bytes(&model.reduced.b)
            + dmat_bytes(&model.reduced.c)
            + dmat_bytes(&model.reduced.d)
            + dmat_bytes(&model.v)
            + model.singular_values.len() * 8;
        let diag = self.reduction.diagnostics.reports.len() * 48;
        mats + diag + self.events.len() * 160 + 128
    }
}

/// One cached artifact: a finished model behind an [`Arc`], so a hit
/// is a pointer clone, never a matrix copy.
pub type Artifact = Arc<CachedReduction>;

fn dmat_bytes(m: &DMat) -> usize {
    m.nrows() * m.ncols() * 8
}

/// Storage the pipeline consults before and after it runs.
///
/// Implementations are *policy-free byte stores*: admission policy
/// (never cache a Degraded result) and all counter/trace emission live
/// in the pipeline, so every backend observes identical traffic and a
/// cold run is byte-identical across backends.
pub trait ArtifactCache: Send + Sync {
    /// Returns the artifact stored under `key`, if any, refreshing its
    /// recency.
    fn get(&self, key: &CacheKey) -> Option<Artifact>;

    /// Offers an artifact for admission. The backend may store it,
    /// evict older entries to make room, or discard the offer.
    fn put(&self, key: CacheKey, value: Artifact);

    /// `(entries, bytes)` currently resident.
    fn stats(&self) -> (usize, usize);
}

/// The no-op cache: every lookup misses, every offer is discarded.
///
/// This is the backend behind the plain variant wrappers (`pmtbr`,
/// `balanced_pmtbr`, ...), which keeps the cached and uncached code
/// paths literally the same path.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCache;

impl ArtifactCache for NullCache {
    fn get(&self, _key: &CacheKey) -> Option<Artifact> {
        None
    }

    fn put(&self, _key: CacheKey, _value: Artifact) {}

    fn stats(&self) -> (usize, usize) {
        (0, 0)
    }
}

/// In-memory least-recently-used cache with a byte budget.
///
/// Deterministic by construction: entries live in `BTreeMap`s (numlint
/// DET01 — no hash-order iteration), recency is an explicit monotone
/// sequence number, and eviction pops the smallest sequence number
/// until the budget holds. An artifact larger than the whole budget is
/// discarded outright (evicting everything still wouldn't fit it).
/// Evictions increment [`obs::Counter::CacheEvict`] — the one counter
/// that is backend state, which is why the identity contract pins it
/// only on hit-free runs.
#[derive(Debug)]
pub struct LruCache {
    budget: usize,
    inner: Mutex<LruInner>,
}

#[derive(Debug, Default)]
struct LruInner {
    entries: BTreeMap<CacheKey, LruEntry>,
    recency: BTreeMap<u64, CacheKey>,
    seq: u64,
    bytes: usize,
}

#[derive(Debug)]
struct LruEntry {
    value: Artifact,
    bytes: usize,
    seq: u64,
}

impl LruCache {
    /// Creates a cache holding at most `budget_bytes` of artifact data
    /// (as measured by [`CachedReduction::approx_bytes`]).
    pub fn new(budget_bytes: usize) -> Self {
        LruCache { budget: budget_bytes, inner: Mutex::new(LruInner::default()) }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruInner> {
        // A poisoned mutex means another thread panicked mid-update;
        // the maps themselves are always structurally valid between
        // statements that hold the lock, so continuing is safe.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl ArtifactCache for LruCache {
    fn get(&self, key: &CacheKey) -> Option<Artifact> {
        let mut inner = self.lock();
        inner.seq += 1;
        let seq = inner.seq;
        let entry = inner.entries.get_mut(key)?;
        let old = entry.seq;
        entry.seq = seq;
        let value = entry.value.clone();
        inner.recency.remove(&old);
        inner.recency.insert(seq, *key);
        Some(value)
    }

    fn put(&self, key: CacheKey, value: Artifact) {
        let bytes = value.approx_bytes();
        if bytes > self.budget {
            return;
        }
        let mut inner = self.lock();
        inner.seq += 1;
        let seq = inner.seq;
        if let Some(old) = inner.entries.remove(&key) {
            inner.recency.remove(&old.seq);
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        inner.entries.insert(key, LruEntry { value, bytes, seq });
        inner.recency.insert(seq, key);
        while inner.bytes > self.budget {
            let Some((&oldest, _)) = inner.recency.iter().next() else { break };
            let Some(victim) = inner.recency.remove(&oldest) else { break };
            if let Some(evicted) = inner.entries.remove(&victim) {
                inner.bytes -= evicted.bytes;
                obs::counters::add(Counter::CacheEvict, 1);
            }
        }
    }

    fn stats(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.entries.len(), inner.bytes)
    }
}

/// Digest of the fault plan a run injects. Fault injection changes
/// results bit-for-bit, so it must be part of every key. `None` hashes
/// exactly as an unset `PMTBR_FAULT` always has, so fault-free keys
/// (recorded in traces' `cache_lookup` spans) stay stable.
fn fault_digest(faults: Option<&FaultPlan>) -> u64 {
    let mut h = Fnv64::new();
    h.label("pmtbr-fault-env-v1");
    match faults {
        None => {
            h.word(0);
        }
        Some(p) => {
            h.word(1).word(p.seed).word(p.rate.to_bits()).word(p.depth as u64);
            h.word(p.kinds.len() as u64);
            for &kind in &p.kinds {
                h.word(kind as u64);
            }
            h.word(p.stages.len() as u64);
            for &stage in &p.stages {
                h.word(stage as u64);
            }
        }
    }
    h.finish()
}

/// Digest of the budget caps (the cancel token carries no numeric
/// semantics and is excluded).
fn budget_words(h: &mut Fnv64, budget: &Budget) {
    for cap in [budget.max_lu_factors, budget.max_svd_sweeps, budget.max_sample_bytes] {
        match cap {
            Some(v) => h.word(1).word(v),
            None => h.word(0).word(0),
        };
    }
}

fn sampling_words(h: &mut Fnv64, sampling: &Sampling) {
    match sampling {
        Sampling::Linear { omega_max, n } => {
            h.word(1).word(omega_max.to_bits()).word(*n as u64);
        }
        Sampling::Log { omega_min, omega_max, n } => {
            h.word(2).word(omega_min.to_bits()).word(omega_max.to_bits()).word(*n as u64);
        }
        Sampling::Bands { bands, n } => {
            h.word(3).word(bands.len() as u64).word(*n as u64);
            for (lo, hi) in bands {
                h.word(lo.to_bits()).word(hi.to_bits());
            }
        }
        Sampling::Custom(points) => {
            h.word(4).word(points.len() as u64);
            for p in points {
                h.word(p.s.re.to_bits()).word(p.s.im.to_bits()).word(p.weight.to_bits());
            }
        }
        Sampling::Greedy { omega_max, pool, tol, max_shifts } => {
            h.word(5)
                .word(omega_max.to_bits())
                .word(*pool as u64)
                .word(tol.to_bits())
                .word(*max_shifts as u64);
        }
    }
}

fn directions_words(h: &mut Fnv64, directions: &InputDirections) {
    match directions {
        InputDirections::IdentityBlock => {
            h.word(1);
        }
        InputDirections::Correlated { u_samples, n_draws, corr_tol, seed } => {
            h.word(2)
                .word(lti::hash::hash_dense(6, u_samples))
                .word(*n_draws as u64)
                .word(corr_tol.to_bits())
                .word(*seed);
        }
    }
}

fn order_words(h: &mut Fnv64, order: &OrderControl) {
    match order {
        OrderControl::Tolerance { tolerance, max_order } => {
            h.word(1).word(tolerance.to_bits());
            match max_order {
                Some(q) => h.word(1).word(*q as u64),
                None => h.word(0).word(0),
            };
        }
        OrderControl::Exact(q) => {
            h.word(2).word(*q as u64);
        }
    }
}

/// The words are fixed: changing one moves every model digest of its
/// compressor. Word 2 is retired.
fn compressor_word(compressor: &Compressor) -> u64 {
    match compressor {
        Compressor::JacobiSvd => 1,
        Compressor::Balance => 3,
        Compressor::CrossGramian => 4,
    }
}

/// Digest of a full model request: plan + fault plan + budget caps.
/// Everything that can change the finished model's bits, except the
/// pencil itself (which is the other half of the key).
pub(crate) fn model_digest(
    plan: &ReductionPlan,
    faults: Option<&FaultPlan>,
    budget: &Budget,
) -> u64 {
    let mut h = Fnv64::new();
    h.label("pmtbr-model-key-v1");
    sampling_words(&mut h, &plan.sampling);
    directions_words(&mut h, &plan.directions);
    h.word(compressor_word(&plan.compressor));
    order_words(&mut h, &plan.order);
    h.word(fault_digest(faults));
    budget_words(&mut h, budget);
    h.finish()
}

/// Emits the `cache_lookup` span (key, outcome) and
/// bumps the hit/miss counters. Called on *every* lookup, hit or miss,
/// by every backend — the span sequence is part of the trace identity
/// contract.
pub(crate) fn record_lookup(key: &CacheKey, hit: bool) {
    obs::counters::add(if hit { Counter::CacheHit } else { Counter::CacheMiss }, 1);
    let mut sp = obs::span("cache_lookup");
    sp.field_u64("pencil", key.pencil);
    sp.field_u64("digest", key.digest);
    sp.field_str("outcome", if hit { "hit" } else { "miss" });
}

/// Offers a model for admission: counts the bytes offered (a pure
/// function of the entry, identical for every backend), emits the
/// `cache_store` span, and forwards to the backend.
pub(crate) fn record_offer(cache: &dyn ArtifactCache, key: CacheKey, value: Artifact) {
    let bytes = value.approx_bytes();
    obs::counters::add(Counter::CacheBytes, bytes as u64);
    let mut sp = obs::span("cache_store");
    sp.field_u64("pencil", key.pencil);
    sp.field_u64("digest", key.digest);
    sp.field_u64("bytes", bytes as u64);
    cache.put(key, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineReport, PmtbrModel, SweepDiagnostics};

    fn key(pencil: u64, digest: u64) -> CacheKey {
        CacheKey { pencil, digest }
    }

    /// A model entry of exactly `128 + 8·words` bytes: an order-0 model
    /// with `words` singular values, no reports, no events.
    fn probe(words: usize) -> Artifact {
        let empty = DMat::zeros(0, 0);
        let reduced = lti::StateSpace::new(empty.clone(), empty.clone(), empty.clone(), None)
            .expect("empty model");
        let model = PmtbrModel {
            reduced,
            v: empty,
            singular_values: vec![0.0; words],
            order: 0,
            error_estimate: 0.0,
        };
        let diagnostics = SweepDiagnostics {
            reports: Vec::new(),
            requested: 0,
            surviving: 0,
            weight_renormalization: 1.0,
            svd_retried: false,
        };
        let reduction = Reduction { model, diagnostics, report: PipelineReport::default() };
        Arc::new(CachedReduction { reduction, events: Vec::new(), seq_watermark: 0, traced: false })
    }

    #[test]
    fn null_cache_never_stores() {
        let c = NullCache;
        c.put(key(1, 2), probe(2));
        assert!(c.get(&key(1, 2)).is_none());
        assert_eq!(c.stats(), (0, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let c = LruCache::new(400);
        c.put(key(1, 0), probe(5));
        c.put(key(2, 0), probe(5));
        // Touch entry 1 so entry 2 becomes the eviction victim.
        assert!(c.get(&key(1, 0)).is_some());
        c.put(key(3, 0), probe(5));
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(2, 0)).is_none());
        assert!(c.get(&key(3, 0)).is_some());
        assert_eq!(c.stats(), (2, 336));
    }

    #[test]
    fn oversized_offers_are_discarded() {
        let c = LruCache::new(144);
        c.put(key(1, 0), probe(3));
        assert_eq!(c.stats(), (0, 0));
        c.put(key(1, 0), probe(2));
        assert_eq!(c.stats(), (1, 144));
    }

    #[test]
    fn replacing_a_key_reclaims_its_bytes() {
        let c = LruCache::new(300);
        c.put(key(1, 0), probe(8));
        c.put(key(1, 0), probe(2));
        assert_eq!(c.stats(), (1, 144));
    }
}
