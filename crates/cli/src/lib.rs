//! Declarative method registry for `pmtbr-cli reduce`.
//!
//! Every reduction algorithm the CLI can run is one [`Method`] entry in
//! [`METHODS`]: a name, a one-line summary, whether `--order` is
//! mandatory, and one [`Runner`] from `(system, request)` to a reduced
//! model plus report lines. The binary's `reduce` dispatch, its usage text,
//! and its unknown-method error are all derived from this table, so the
//! three can never drift apart again — adding a variant here is the
//! whole job.
//!
//! The PMTBR-family entries are thin [`pmtbr::ReductionPlan`]
//! constructors executed by [`pmtbr::pipeline::run`] under the
//! request's fault plan and budget, which means every method inherits
//! the tolerant parallel sweep: a `PMTBR_FAULT` plan ([`env_faults`])
//! degrades the quadrature instead of erroring, `--threads` pins the
//! worker count, `--trace` records the sweep, and the run's
//! [`PipelineSummary`] drives the binary's exit-code policy uniformly.
//! Those whose plan needs nothing from the system run as a
//! [`RequestPlan`] ([`Runner::Plan`]), which lets the served handler
//! find a repeated job's model before it parses the netlist.
//! The Krylov and dense-TBR baselines carry no summary
//! (`summary: None`) and are always strict.
//!
//! Both `reduce` and `submit` run a method as a [`serve::JobRequest`]
//! through [`handle_job`]: `reduce` in-process, `submit` on a server.

use lti::{Descriptor, StateSpace};
use numkit::c64;
use pmtbr::{ArtifactCache, Budget, InputCorrelatedOptions, PmtbrOptions, ReductionPlan, Sampling};
use serve::PipelineSummary;

mod policy;
mod service;

use policy::summarize;
pub use policy::{evaluate_acceptance, Acceptance, Verdict};
pub use service::{handle_job, mat_to_wire, wire_to_mat};

/// The fault plan `PMTBR_FAULT` asks for (`None` when unset), the one
/// read of the variable: the binary checks it before any command runs,
/// and [`handle_job`] reads it once per job into [`ReduceRequest::faults`].
///
/// # Errors
///
/// The parse error of a malformed spec ([`pmtbr::FaultPlan::parse_spec`]).
pub fn env_faults() -> Result<Option<pmtbr::FaultPlan>, String> {
    match std::env::var("PMTBR_FAULT") {
        Ok(spec) => {
            pmtbr::FaultPlan::parse_spec(&spec).map_err(|e| format!("invalid PMTBR_FAULT: {e}"))
        }
        Err(_) => Ok(None),
    }
}

/// What `reduce` collected from the command line; method runners read
/// only the fields they use.
#[derive(Debug, Clone)]
pub struct ReduceRequest {
    /// Upper band edge in rad/s (`--band`, converted from Hz).
    pub omega_max: f64,
    /// Frequency bands in rad/s (`--bands`, default `[(0, omega_max)]`);
    /// only the frequency-selective method reads more than the default.
    pub bands: Vec<(f64, f64)>,
    /// Number of quadrature nodes (`--samples`).
    pub samples: usize,
    /// Relative singular-value truncation tolerance (`--tol`).
    pub tol: f64,
    /// Requested reduced order (`--order`); methods with
    /// [`Method::needs_order`] refuse to run without it, the others
    /// treat it as a cap.
    pub order: Option<usize>,
    /// Deterministic work budget (`--budget-*` flags); only the
    /// pipeline-backed methods enforce it, the strict baselines ignore
    /// it.
    pub budget: Budget,
    /// Faults to inject (`PMTBR_FAULT`); like the budget, only the
    /// pipeline-backed methods apply them.
    pub faults: Option<pmtbr::FaultPlan>,
    /// Greedy-sampling convergence tolerance (`--greedy-tol`; `0`
    /// disables early stopping). Only the `greedy` method reads it.
    pub greedy_tol: f64,
    /// Greedy-sampling hard shift budget (`--greedy-max-shifts`;
    /// defaults to `--samples`). Only the `greedy` method reads it.
    pub greedy_max_shifts: Option<usize>,
}

impl ReduceRequest {
    /// A request over `[0, omega_max]` with the CLI's defaults.
    pub fn new(omega_max: f64, samples: usize) -> Self {
        ReduceRequest {
            omega_max,
            bands: vec![(0.0, omega_max)],
            samples,
            tol: 1e-8,
            order: None,
            budget: Budget::default(),
            faults: None,
            greedy_tol: 1e-3,
            greedy_max_shifts: None,
        }
    }

    fn sampling(&self) -> Sampling {
        Sampling::Linear { omega_max: self.omega_max, n: self.samples }
    }

    fn pmtbr_options(&self) -> PmtbrOptions {
        let mut opts = PmtbrOptions::new(self.sampling()).with_tolerance(self.tol);
        if let Some(q) = self.order {
            opts = opts.with_max_order(q);
        }
        opts
    }

    fn order_required(&self, name: &str) -> Result<usize, String> {
        self.order.ok_or_else(|| format!("{name} requires --order"))
    }
}

/// A reduced model plus everything the CLI prints about it.
#[derive(Debug)]
pub struct MethodOutput {
    /// The reduced state-space model (dumped as A/B/C and cross-checked
    /// by `--check`).
    pub reduced: StateSpace,
    /// Report lines for stdout, starting with `method: <label>`.
    pub report: Vec<String>,
    /// Per-stage outcomes and sweep accounting for pipeline-backed
    /// methods; `None` for strict baselines. Drives the
    /// degraded/rejected/budget exit-code policy.
    pub summary: Option<PipelineSummary>,
}

/// One `reduce --method` entry.
pub struct Method {
    /// The `--method` spelling.
    pub name: &'static str,
    /// One-line description for the usage text.
    pub summary: &'static str,
    /// Whether `--order` is mandatory (`false` ⇒ tolerance-driven with
    /// `--order` as an optional cap).
    pub needs_order: bool,
    /// Builds the reduced model.
    pub runner: Runner,
}

/// How a registry method builds its reduced model.
#[derive(Clone, Copy)]
pub enum Runner {
    /// A pipeline method whose plan depends on the request alone: it
    /// runs exactly this plan, and the served handler uses it to look a
    /// repeated job's model up before it builds the system.
    Plan(RequestPlan),
    /// A method that needs the system before it can run: the Krylov and
    /// dense-TBR baselines, and the input-correlated method, whose
    /// training inputs are sized to the system's ports.
    Fn(fn(&Descriptor, &ReduceRequest, &dyn ArtifactCache) -> Result<MethodOutput, String>),
}

impl Method {
    /// Builds the reduced model of `sys` for `req`, looking finished
    /// models up in (and storing them to) `cache`.
    ///
    /// # Errors
    ///
    /// Returns a message when the request lacks a flag the method needs
    /// or the reduction fails.
    pub fn run(
        &self,
        sys: &Descriptor,
        req: &ReduceRequest,
        cache: &dyn ArtifactCache,
    ) -> Result<MethodOutput, String> {
        match self.runner {
            Runner::Plan(plan) => run_plan(sys, &(plan.build)(req)?, req, cache, plan.label),
            Runner::Fn(run) => run(sys, req, cache),
        }
    }
}

/// The plan of a pipeline method that needs nothing from the system.
#[derive(Debug, Clone, Copy)]
pub struct RequestPlan {
    /// The `method:` label of the report.
    pub label: &'static str,
    /// Builds the plan; fails when the request lacks a flag the method
    /// needs.
    pub build: fn(&ReduceRequest) -> Result<ReductionPlan, String>,
}

/// Report lines shared by every pipeline-backed method.
fn pipeline_report(label: &str, red: &pmtbr::Reduction) -> Vec<String> {
    let m = &red.model;
    let diag = &red.diagnostics;
    let mut lines = vec![
        format!("method: {label}"),
        format!("order: {}", m.order),
        format!("error_estimate: {:.6e}", m.error_estimate),
        format!("samples_surviving: {}/{}", diag.surviving, diag.requested),
        "singular_values:".to_string(),
    ];
    for (i, s) in m.singular_values.iter().take(m.order + 5).enumerate() {
        lines.push(format!("  sigma_{i}: {s:.6e}"));
    }
    lines
}

fn run_plan(
    sys: &Descriptor,
    plan: &ReductionPlan,
    req: &ReduceRequest,
    cache: &dyn ArtifactCache,
    label: &str,
) -> Result<MethodOutput, String> {
    let red = pmtbr::pipeline::run(sys, plan, req.faults.as_ref(), &req.budget, cache)
        .map_err(|e| e.to_string())?;
    Ok(pipeline_output(label, red))
}

/// What the CLI prints about a pipeline reduction, however it was
/// obtained.
fn pipeline_output(label: &str, red: pmtbr::Reduction) -> MethodOutput {
    MethodOutput {
        report: pipeline_report(label, &red),
        summary: Some(summarize(&red)),
        reduced: red.model.reduced,
    }
}

fn run_correlated(sys: &Descriptor, req: &ReduceRequest, cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    // No waveform file flows through the CLI yet, so train on the
    // deterministic dithered-square ensemble the paper's transient
    // experiments use, time-scaled to the requested band.
    let h = 2.5 / req.omega_max;
    let u = lti::dithered_square_inputs(sys.ninputs(), 200, h, 80.0 * h, 0.1, 1);
    let mut opts = InputCorrelatedOptions::new(req.sampling());
    opts.tolerance = req.tol;
    opts.max_order = req.order;
    opts.n_draws = (2 * req.samples).max(8);
    run_plan(
        sys,
        &ReductionPlan::input_correlated(&u, &opts),
        req,
        cache,
        "input-correlated-pmtbr",
    )
}

fn run_prima(sys: &Descriptor, req: &ReduceRequest, _cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    let q = req.order_required("prima")?;
    let m = krylov::prima(sys, q, 0.0).map_err(|e| e.to_string())?;
    Ok(MethodOutput {
        report: vec![
            "method: prima".to_string(),
            format!("order: {}", m.reduced.nstates()),
        ],
        reduced: m.reduced,
        summary: None,
    })
}

fn run_mpproj(sys: &Descriptor, req: &ReduceRequest, _cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    let q = req.order_required("mpproj")?;
    let pts: Vec<c64> = req
        .sampling()
        .points()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|p| p.s)
        .collect();
    let m = krylov::mpproj(sys, &pts, q).map_err(|e| e.to_string())?;
    Ok(MethodOutput {
        report: vec![
            "method: mpproj".to_string(),
            format!("order: {}", m.reduced.nstates()),
        ],
        reduced: m.reduced,
        summary: None,
    })
}

fn run_tbr_family(
    sys: &Descriptor,
    req: &ReduceRequest,
    name: &'static str,
) -> Result<MethodOutput, String> {
    let q = req.order_required(name)?;
    let ss = sys
        .to_state_space()
        .map_err(|e| format!("{name} needs an invertible E matrix: {e}"))?;
    let m = match name {
        "tbr" => lti::tbr(&ss, q),
        "tbr-res" => lti::tbr_residualized(&ss, q),
        _ => lti::frequency_limited_tbr(&ss, req.omega_max, q),
    }
    .map_err(|e| e.to_string())?;
    Ok(MethodOutput {
        report: vec![
            format!("method: {name}"),
            format!("order: {}", m.reduced.nstates()),
            format!("error_bound: {:.6e}", m.error_bound),
        ],
        reduced: m.reduced,
        summary: None,
    })
}

/// Every reduction method `pmtbr-cli reduce` can run, in display order.
pub const METHODS: &[Method] = &[
    Method {
        name: "pmtbr",
        summary: "multipoint sampling + SVD truncation (paper Algorithm 1)",
        needs_order: false,
        runner: Runner::Plan(RequestPlan {
            label: "pmtbr",
            build: |req| Ok(ReductionPlan::pmtbr(&req.pmtbr_options())),
        }),
    },
    Method {
        name: "balanced",
        summary: "two-sided square-root balancing of sampled Gramians",
        needs_order: true,
        runner: Runner::Plan(RequestPlan {
            label: "balanced-pmtbr",
            build: |req| Ok(ReductionPlan::balanced(&req.sampling(), req.order_required("balanced")?)),
        }),
    },
    Method {
        name: "cross",
        summary: "sampled cross-Gramian eigenprojection (paper Section V-D)",
        needs_order: true,
        runner: Runner::Plan(RequestPlan {
            label: "cross-gramian-pmtbr",
            build: |req| Ok(ReductionPlan::cross_gramian(&req.sampling(), req.order_required("cross")?)),
        }),
    },
    Method {
        name: "fsel",
        summary: "frequency-selective quadrature over --bands (paper Algorithm 2)",
        needs_order: false,
        runner: Runner::Plan(RequestPlan {
            label: "frequency-selective-pmtbr",
            build: |req| Ok(ReductionPlan::frequency_selective(&req.bands, req.samples, req.order, req.tol)),
        }),
    },
    Method {
        name: "greedy",
        summary: "greedy adaptive shift placement with convergence stopping (docs/SAMPLING.md)",
        needs_order: false,
        runner: Runner::Plan(RequestPlan {
            label: "greedy-pmtbr",
            build: |req| {
                let max_shifts = req.greedy_max_shifts.unwrap_or(req.samples).max(1);
                let order = pmtbr::OrderControl::Tolerance { tolerance: req.tol, max_order: req.order };
                Ok(ReductionPlan::greedy(req.omega_max, req.greedy_tol, max_shifts, order))
            },
        }),
    },
    Method {
        name: "correlated",
        summary: "input-correlated stochastic sampling (paper Algorithm 3)",
        needs_order: false,
        runner: Runner::Fn(run_correlated),
    },
    Method {
        name: "prima",
        summary: "passive block Krylov moment matching (baseline)",
        needs_order: true,
        runner: Runner::Fn(run_prima),
    },
    Method {
        name: "mpproj",
        summary: "multipoint rational Krylov projection (baseline)",
        needs_order: true,
        runner: Runner::Fn(run_mpproj),
    },
    Method {
        name: "tbr",
        summary: "exact dense balanced truncation (baseline)",
        needs_order: true,
        runner: Runner::Fn(|sys, req, _| run_tbr_family(sys, req, "tbr")),
    },
    Method {
        name: "tbr-res",
        summary: "balanced truncation with DC residualization (baseline)",
        needs_order: true,
        runner: Runner::Fn(|sys, req, _| run_tbr_family(sys, req, "tbr-res")),
    },
    Method {
        name: "fltbr",
        summary: "frequency-limited balanced truncation (baseline)",
        needs_order: true,
        runner: Runner::Fn(|sys, req, _| run_tbr_family(sys, req, "fltbr")),
    },
];

/// Looks a method up by its `--method` spelling.
pub fn find(name: &str) -> Option<&'static Method> {
    METHODS.iter().find(|m| m.name == name)
}

/// The `|`-joined method names, for usage text and error messages.
pub fn method_list() -> String {
    METHODS.iter().map(|m| m.name).collect::<Vec<_>>().join("|")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for (i, m) in METHODS.iter().enumerate() {
            assert!(find(m.name).is_some());
            assert!(
                METHODS.iter().skip(i + 1).all(|o| o.name != m.name),
                "duplicate method name {}",
                m.name
            );
        }
        assert!(find("no-such-method").is_none());
    }

    #[test]
    fn method_list_is_pipe_joined() {
        let list = method_list();
        assert!(list.starts_with("pmtbr|"));
        assert_eq!(list.matches('|').count(), METHODS.len() - 1);
    }

    #[test]
    fn order_gate_is_enforced_per_entry() {
        let sys = circuits::rc_mesh(2, 2, &[0], 1.0, 1.0, 2.0).expect("mesh");
        let req = ReduceRequest::new(10.0, 8);
        for m in METHODS.iter().filter(|m| m.needs_order) {
            let err = m.run(&sys, &req, &pmtbr::NullCache).expect_err("must demand --order");
            assert!(err.contains("requires --order"), "{}: {err}", m.name);
        }
    }
}
