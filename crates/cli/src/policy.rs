//! The acceptance policy for reduced models.
//!
//! `reduce` and `submit` both print a [`serve::JobResult`]: `reduce`
//! runs the job in-process through [`crate::handle_job`], `submit` gets
//! it from a server. Either way the run's outcome arrives as one
//! [`PipelineSummary`] ([`summarize`] builds it from the
//! [`pmtbr::Reduction`]), and [`evaluate_acceptance`] is the single
//! decision procedure that turns it into stderr lines and an exit
//! code, so the verdict cannot drift between the two commands.

use pmtbr::Reduction;
use serve::PipelineSummary;

/// The non-failure outcomes of the acceptance policy, in ascending
/// exit-code order (0, 2, 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every stage ran clean: exit 0.
    Clean,
    /// The model is usable but carries a recorded accuracy concession
    /// (a degraded sweep or compressor, or a downgrade): exit 2.
    Degraded,
    /// A work budget ran out and the result is partial: exit 4.
    BudgetExhausted,
}

/// What [`evaluate_acceptance`] decided: the stderr commentary emitted
/// so far (printed even when the model is then rejected) plus either a
/// verdict or the rejection message.
#[derive(Debug)]
pub struct Acceptance {
    /// Diagnostic lines for stderr, in emission order.
    pub stderr: Vec<String>,
    /// The accepted verdict, or the `Rejected` message (exit 3).
    pub verdict: Result<Verdict, String>,
}

/// Projects a reduction's pipeline report and sweep accounting onto
/// their wire summary.
pub(crate) fn summarize(red: &Reduction) -> PipelineSummary {
    let (rep, diag) = (&red.report, &red.diagnostics);
    PipelineSummary {
        sweep: rep.sweep.label().to_string(),
        compress: rep.compress.label().to_string(),
        project: rep.project.label().to_string(),
        downgraded: rep.compressor_downgraded,
        budget_exhausted: rep.budget_exhausted.map(str::to_string),
        degraded: rep.is_degraded(),
        clean: rep.is_clean(),
        notes: rep.notes.clone(),
        sweep_degraded: diag.is_degraded(),
        dropped: diag.dropped() as u64,
        sweep_summary: diag.summary(),
    }
}

/// Decides whether a reduced model is acceptable and what to say about
/// it: a non-clean pipeline is echoed, a degraded one is rejected under
/// `strict` and accepted as [`Verdict::Degraded`] otherwise, a degraded
/// sweep is echoed (rejected under `strict`, or when more than
/// `max_dropped` sample points were lost), and budget exhaustion trumps
/// plain degradation in the final verdict. A run without a summary (a
/// strict baseline method) is clean.
pub fn evaluate_acceptance(
    summary: Option<&PipelineSummary>,
    strict: bool,
    max_dropped: usize,
) -> Acceptance {
    let mut stderr = Vec::new();
    let Some(rep) = summary else {
        return Acceptance { stderr, verdict: Ok(Verdict::Clean) };
    };
    if !rep.clean {
        stderr.push(format!(
            "pipeline: sweep={} compress={} project={} downgraded={}{}",
            rep.sweep,
            rep.compress,
            rep.project,
            rep.downgraded,
            match &rep.budget_exhausted {
                Some(r) => format!(" budget_exhausted={r}"),
                None => String::new(),
            }
        ));
        for note in &rep.notes {
            stderr.push(format!("  note: {note}"));
        }
    }
    if strict && rep.degraded {
        return Acceptance {
            stderr,
            verdict: Err(format!(
                "--strict: pipeline degraded (sweep={} compress={} project={} downgraded={})",
                rep.sweep, rep.compress, rep.project, rep.downgraded,
            )),
        };
    }
    let mut verdict = if rep.degraded { Verdict::Degraded } else { Verdict::Clean };
    if rep.sweep_degraded {
        stderr.push(format!("degraded {}", rep.sweep_summary));
        if strict {
            return Acceptance {
                stderr,
                verdict: Err(format!("--strict: sweep degraded ({})", rep.sweep_summary)),
            };
        }
        if rep.dropped > max_dropped as u64 {
            return Acceptance {
                stderr,
                verdict: Err(format!(
                    "{} sample points dropped exceeds --max-dropped-samples {} ({})",
                    rep.dropped, max_dropped, rep.sweep_summary
                )),
            };
        }
        verdict = Verdict::Degraded;
    }
    if rep.budget_exhausted.is_some() {
        verdict = Verdict::BudgetExhausted;
    }
    Acceptance { stderr, verdict: Ok(verdict) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_summary() -> PipelineSummary {
        PipelineSummary {
            sweep: "Clean".into(),
            compress: "Clean".into(),
            project: "Clean".into(),
            downgraded: false,
            budget_exhausted: None,
            degraded: false,
            clean: true,
            notes: vec![],
            sweep_degraded: false,
            dropped: 0,
            sweep_summary: "12/12 survived".into(),
        }
    }

    fn degraded_sweep() -> PipelineSummary {
        PipelineSummary {
            sweep_degraded: true,
            dropped: 3,
            sweep_summary: "3/12 dropped".into(),
            ..clean_summary()
        }
    }

    #[test]
    fn clean_run_is_silent_and_clean() {
        let acc = evaluate_acceptance(Some(&clean_summary()), true, 0);
        assert!(acc.stderr.is_empty());
        assert_eq!(acc.verdict.unwrap(), Verdict::Clean);
        let baseline = evaluate_acceptance(None, true, 0);
        assert!(baseline.stderr.is_empty());
        assert_eq!(baseline.verdict.unwrap(), Verdict::Clean);
    }

    #[test]
    fn strict_rejects_but_still_reports() {
        let mut rep = clean_summary();
        rep.clean = false;
        rep.degraded = true;
        rep.notes = vec!["shift 3 dropped".into()];
        let acc = evaluate_acceptance(Some(&rep), true, 0);
        assert_eq!(acc.stderr.len(), 2, "pipeline line + note precede the rejection");
        assert!(acc.verdict.unwrap_err().starts_with("--strict: pipeline degraded"));
    }

    #[test]
    fn dropped_samples_gate_on_max_dropped() {
        let tolerant = evaluate_acceptance(Some(&degraded_sweep()), false, 3);
        assert_eq!(tolerant.verdict.unwrap(), Verdict::Degraded);
        let tight = evaluate_acceptance(Some(&degraded_sweep()), false, 2);
        assert!(tight.verdict.unwrap_err().contains("exceeds --max-dropped-samples 2"));
    }

    #[test]
    fn a_degraded_compressor_is_degraded_not_clean() {
        let mut rep = clean_summary();
        rep.compress = "degraded".into();
        rep.downgraded = true;
        rep.clean = false;
        rep.degraded = true;
        let acc = evaluate_acceptance(Some(&rep), false, 0);
        assert_eq!(acc.verdict.unwrap(), Verdict::Degraded);
        assert!(acc.stderr[0].contains("compress=degraded"));
        // A recovered stage is no concession: the run stays clean.
        let mut rep = clean_summary();
        rep.compress = "recovered".into();
        rep.clean = false;
        let acc = evaluate_acceptance(Some(&rep), false, 0);
        assert_eq!(acc.verdict.unwrap(), Verdict::Clean);
    }

    #[test]
    fn budget_exhaustion_outranks_degradation() {
        let mut rep = degraded_sweep();
        rep.clean = false;
        rep.budget_exhausted = Some("lu_factors".into());
        let acc = evaluate_acceptance(Some(&rep), false, 10);
        assert_eq!(acc.verdict.unwrap(), Verdict::BudgetExhausted);
        assert!(acc.stderr.iter().any(|l| l.contains("budget_exhausted=lu_factors")));
    }
}
