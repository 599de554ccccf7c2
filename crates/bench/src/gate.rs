//! The CI gate behind `run_all --gate`: every experiment [`GATES`] names
//! runs once at [`Scale::TINY`], its artifacts go to a scratch directory,
//! and the figures it returns are checked against one table of bounds.

use std::fmt;

use crate::experiments::EXPERIMENTS;
use crate::{ExperimentContext, Scale};

/// Which side of a threshold a gated figure must stay on. Both sides are
/// inclusive: the threshold itself passes.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// The figure must be at least this.
    AtLeast(f64),
    /// The figure must be at most this.
    AtMost(f64),
}

impl Bound {
    /// Whether `value` meets the bound; NaN never does.
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(min) => value >= min,
            Bound::AtMost(max) => value <= max,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(min) => write!(f, ">= {min}"),
            Bound::AtMost(max) => write!(f, "<= {max}"),
        }
    }
}

/// One gate: a figure an experiment returns and the bound it must meet.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The `run_all` name of the experiment that measures the figure.
    pub experiment: &'static str,
    /// The figure's name in the experiment's returned metrics.
    pub metric: &'static str,
    /// The bound the figure must meet.
    pub bound: Bound,
}

/// Every gate `run_all --gate` checks, in run order.
pub const GATES: [Gate; 5] = [
    // Fusion may not lose to the similarity-only baseline; the slack
    // absorbs float rounding between two AUCs of equal rank order.
    Gate { experiment: "modality", metric: "fused_auc_gain", bound: Bound::AtLeast(-1e-9) },
    // Instrumentation may not tax the serving path while tracing is off.
    Gate { experiment: "obs", metric: "disabled_span_overhead_pct", bound: Bound::AtMost(2.0) },
    // Tuned kernels may not lose to their scalar fallback end to end;
    // the 10% slack absorbs scheduler noise.
    Gate { experiment: "dataplane", metric: "kernel_speedup", bound: Bound::AtLeast(1.0 / 1.10) },
    // The int8 win is gated at the acoustic model on purpose: the MFCC
    // frontend dominates end-to-end transcription. Steady state is ~1.8x
    // on AVX-512 hosts; the slack covers narrower SIMD.
    Gate { experiment: "quant", metric: "am_headline_speedup", bound: Bound::AtLeast(1.3) },
    // The int8 target must stay the same version on clean speech (the
    // recognizer property test's bound).
    Gate { experiment: "quant", metric: "benign_mean_similarity", bound: Bound::AtLeast(0.6) },
];

impl Gate {
    /// Checks one measured value, returning the value printed beside its
    /// bound.
    ///
    /// # Errors
    ///
    /// Returns the same line, naming the experiment and metric, when the
    /// value misses the bound.
    pub fn check(&self, value: f64) -> Result<String, String> {
        let line =
            format!("{}.{} = {value:.4} (bound {})", self.experiment, self.metric, self.bound);
        if self.bound.holds(value) {
            Ok(line)
        } else {
            Err(line)
        }
    }
}

/// Runs every experiment [`GATES`] names at [`Scale::TINY`], with its
/// artifacts in a scratch directory that is removed afterwards, and
/// prints each gated figure beside its bound.
///
/// # Errors
///
/// Returns the first failing row, or a missing figure, and runs nothing
/// after it.
pub fn run_gates() -> Result<(), String> {
    let mut ctx = ExperimentContext::load_or_generate(Scale::TINY);
    ctx.out_dir = std::env::temp_dir().join(format!("mvp-bench-gate-{}", std::process::id()));
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("create {}: {e}", ctx.out_dir.display()))?;
    let result = check_all(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
    result
}

fn check_all(ctx: &ExperimentContext) -> Result<(), String> {
    for (name, run) in EXPERIMENTS {
        let gates: Vec<&Gate> = GATES.iter().filter(|g| g.experiment == name).collect();
        if gates.is_empty() {
            continue;
        }
        let metrics = run.run(ctx);
        for gate in gates {
            let value = metrics
                .iter()
                .find(|(metric, _)| *metric == gate.metric)
                .map(|&(_, value)| value)
                .ok_or_else(|| format!("{name} reported no `{}` figure", gate.metric))?;
            println!("gate {}", gate.check(value)?);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{select, Run};

    /// The nearest representable value on the failing side of `bound`.
    fn just_past(bound: Bound) -> f64 {
        match bound {
            Bound::AtLeast(min) => min.next_down(),
            Bound::AtMost(max) => max.next_up(),
        }
    }

    #[test]
    fn every_gate_fails_just_past_its_bound_and_passes_at_it() {
        for gate in GATES {
            let threshold = match gate.bound {
                Bound::AtLeast(x) | Bound::AtMost(x) => x,
            };
            assert!(gate.check(threshold).is_ok(), "{gate:?} refused its own bound");
            let err = gate.check(just_past(gate.bound)).expect_err("value past the bound passed");
            assert!(
                err.contains(gate.experiment) && err.contains(gate.metric),
                "failure message {err:?} does not name {gate:?}"
            );
            assert!(gate.check(f64::NAN).is_err(), "{gate:?} passed NaN");
        }
    }

    #[test]
    fn every_gate_names_a_measuring_experiment() {
        for gate in GATES {
            let selected = select(&[gate.experiment.to_string()]).expect("gate names a known one");
            assert!(
                matches!(selected[0].1, Run::Measure(_)),
                "{} returns no figures",
                gate.experiment
            );
        }
    }

    #[test]
    fn unknown_experiment_names_are_refused() {
        let err = select(&["table3".to_string(), "table13".to_string()])
            .err()
            .expect("table13 is not an experiment");
        assert!(err.contains("table13") && err.contains("table12"), "{err}");
        assert_eq!(select(&[]).expect("no names selects all").len(), EXPERIMENTS.len());
    }
}
