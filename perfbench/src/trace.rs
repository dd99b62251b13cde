//! Spans recorded by the benchmark around calls into each crate's
//! public functions, and the two forwarding wrappers that reach the
//! pipeline's inner calls without changing the pipeline.
//!
//! A span is `(request, name, parent, start, end)`, kept in memory and
//! folded when the pass ends. A layer's self time is its span minus the
//! time of its child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

use lti::{LtiSystem, RecoveryPolicy, SolveFault, StateSpace, TolerantSweep};
use numkit::{c64, DMat, NumError, ZMat};
use obs::{Clock, WallClock};
use pmtbr::{Artifact, ArtifactCache, CacheKey};

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// What the client and server threads share, behind one lock.
struct State {
    clock: WallClock,
    spans: Vec<Span>,
    req: u64,
    /// Parent for spans opened on a thread with nothing open: the
    /// client's round-trip span, seen from the server thread.
    remote_parent: Option<usize>,
}

impl State {
    fn now(&mut self) -> f64 {
        self.clock.now() as f64 * 1e-9
    }
}

/// In-memory span store for one traced pass.
pub struct Recorder {
    state: Mutex<State>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            state: Mutex::new(State {
                clock: WallClock::new(),
                spans: Vec::new(),
                req: 0,
                remote_parent: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span store poisoned by a panicking job")
    }

    /// Tags every span opened from now on with request `req`.
    pub fn set_request(&self, req: u64) {
        self.lock().req = req;
    }

    /// The innermost span open on the calling thread.
    pub fn open_span(&self) -> Option<usize> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    pub fn set_remote_parent(&self, parent: Option<usize>) {
        self.lock().remote_parent = parent;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open_span();
        let id = {
            let mut st = self.lock();
            let start = st.now();
            let span = Span {
                req: st.req,
                name,
                parent: open.or(st.remote_parent),
                start,
                end: start,
            };
            st.spans.push(span);
            st.spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let mut st = self.lock();
        let end = st.now();
        st.spans[id].end = end;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.state
            .into_inner()
            .expect("span store poisoned by a panicking job")
            .spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub total: f64,
    pub self_time: f64,
}

/// Folds spans into per-name totals and self times.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.dur();
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&child_time) {
        let a = out.entry(s.name).or_default();
        a.total += s.dur();
        a.self_time += s.dur() - kids;
    }
    out
}

const SWEEP: &str = "lti.sweep";
const PROJECT: &str = "lti.project";
const OTHER: &str = "lti.other";

/// Forwards every [`LtiSystem`] method, default-bodied ones included,
/// to `inner`, timing each call: shifted solves as `lti.sweep`,
/// projection as `lti.project`, everything else as `lti.other`. A
/// method left to its default body would run the generic dense ladder
/// or turn caching off, so none is.
pub struct TracedSys<'a, S: ?Sized> {
    pub inner: &'a S,
    pub rec: &'a Recorder,
}

impl<S: LtiSystem + ?Sized> LtiSystem for TracedSys<'_, S> {
    fn nstates(&self) -> usize {
        self.rec.span(OTHER, || self.inner.nstates())
    }
    fn ninputs(&self) -> usize {
        self.rec.span(OTHER, || self.inner.ninputs())
    }
    fn noutputs(&self) -> usize {
        self.rec.span(OTHER, || self.inner.noutputs())
    }
    fn input_matrix(&self) -> &DMat {
        self.rec.span(OTHER, || self.inner.input_matrix())
    }
    fn output_matrix(&self) -> &DMat {
        self.rec.span(OTHER, || self.inner.output_matrix())
    }
    fn feedthrough(&self) -> &DMat {
        self.rec.span(OTHER, || self.inner.feedthrough())
    }
    fn solve_shifted(&self, s: c64, rhs: &ZMat) -> Result<ZMat, NumError> {
        self.rec.span(SWEEP, || self.inner.solve_shifted(s, rhs))
    }
    fn solve_shifted_transpose(&self, s: c64, rhs: &ZMat) -> Result<ZMat, NumError> {
        self.rec
            .span(SWEEP, || self.inner.solve_shifted_transpose(s, rhs))
    }
    fn apply_shifted(&self, s: c64, x: &ZMat) -> Result<ZMat, NumError> {
        self.rec.span(OTHER, || self.inner.apply_shifted(s, x))
    }
    fn apply_shifted_transpose(&self, s: c64, x: &ZMat) -> Result<ZMat, NumError> {
        self.rec
            .span(OTHER, || self.inner.apply_shifted_transpose(s, x))
    }
    fn solve_shifted_many_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> TolerantSweep {
        self.rec.span(SWEEP, || {
            self.inner
                .solve_shifted_many_tolerant(shifts, rhs, policy, faults)
        })
    }
    fn solve_shifted_pairs_tolerant(
        &self,
        shifts: &[c64],
        rhss: &[ZMat],
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> Result<TolerantSweep, NumError> {
        self.rec.span(SWEEP, || {
            self.inner
                .solve_shifted_pairs_tolerant(shifts, rhss, policy, faults)
        })
    }
    fn solve_shifted_transpose_many_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> TolerantSweep {
        self.rec.span(SWEEP, || {
            self.inner
                .solve_shifted_transpose_many_tolerant(shifts, rhs, policy, faults)
        })
    }
    fn solve_shifted_two_sided_tolerant(
        &self,
        shifts: &[c64],
        rhs: &ZMat,
        rhs_t: &ZMat,
        policy: &RecoveryPolicy,
        faults: &dyn SolveFault,
    ) -> (TolerantSweep, TolerantSweep) {
        self.rec.span(SWEEP, || {
            self.inner
                .solve_shifted_two_sided_tolerant(shifts, rhs, rhs_t, policy, faults)
        })
    }
    fn solve_shifted_many(&self, shifts: &[c64], rhs: &ZMat) -> Result<Vec<ZMat>, NumError> {
        self.rec
            .span(SWEEP, || self.inner.solve_shifted_many(shifts, rhs))
    }
    fn solve_shifted_pairs(&self, shifts: &[c64], rhss: &[ZMat]) -> Result<Vec<ZMat>, NumError> {
        self.rec
            .span(SWEEP, || self.inner.solve_shifted_pairs(shifts, rhss))
    }
    fn project(&self, w: &DMat, v: &DMat) -> Result<StateSpace, NumError> {
        self.rec.span(PROJECT, || self.inner.project(w, v))
    }
    fn pencil_hash(&self) -> Option<u64> {
        self.rec.span(OTHER, || self.inner.pencil_hash())
    }
    fn transfer_function(&self, s: c64) -> Result<ZMat, NumError> {
        self.rec.span(OTHER, || self.inner.transfer_function(s))
    }
}

/// Forwards every [`ArtifactCache`] method to `inner`, timing lookups
/// as `pmtbr.cache_get` and offers as `pmtbr.cache_put`.
pub struct TracedCache<'a> {
    pub inner: &'a dyn ArtifactCache,
    pub rec: &'a Recorder,
}

impl ArtifactCache for TracedCache<'_> {
    fn get(&self, key: &CacheKey) -> Option<Artifact> {
        self.rec.span("pmtbr.cache_get", || self.inner.get(key))
    }
    fn put(&self, key: CacheKey, value: Artifact) {
        self.rec
            .span("pmtbr.cache_put", || self.inner.put(key, value))
    }
    fn stats(&self) -> (usize, usize) {
        self.inner.stats()
    }
}
