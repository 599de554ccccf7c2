//! One module per experiment group; every public function prints one
//! paper artifact (table or figure series) to stdout. [`EXPERIMENTS`]
//! names each runnable experiment for `run_all`.

pub mod ablation;
pub mod adaptive;
pub mod artifact;
pub mod classifiers;
pub mod data;
pub mod dataplane;
pub mod mae;
pub mod modality;
pub mod obs;
pub mod perf;
pub mod quant;
pub mod similarity;
pub mod transfer;
pub mod unseen;

use mvp_asr::AsrProfile;

use crate::context::ExperimentContext;

/// The single-auxiliary systems of Tables IV/VII (paper order).
pub const SINGLE_AUX: [[AsrProfile; 1]; 3] =
    [[AsrProfile::Ds1], [AsrProfile::Gcs], [AsrProfile::At]];

/// The multi-auxiliary systems of Tables III/V/VIII (paper order).
pub const MULTI_AUX: [&[AsrProfile]; 4] = [
    &[AsrProfile::Ds1, AsrProfile::Gcs],
    &[AsrProfile::Ds1, AsrProfile::At],
    &[AsrProfile::Gcs, AsrProfile::At],
    &[AsrProfile::Ds1, AsrProfile::Gcs, AsrProfile::At],
];

/// The three-auxiliary system used by the MAE experiments (§V-H).
pub const THREE_AUX: [AsrProfile; 3] = [AsrProfile::Ds1, AsrProfile::Gcs, AsrProfile::At];

/// Named figures an experiment measured, checked by [`crate::gate::GATES`].
pub type Metrics = Vec<(&'static str, f64)>;

/// How `run_all` invokes one experiment.
#[derive(Clone, Copy)]
pub enum Run {
    /// Prints its artifact; nothing in it is gated.
    Report(fn(&ExperimentContext)),
    /// Prints its artifact and returns the figures the gate checks.
    Measure(fn(&ExperimentContext) -> Metrics),
}

impl Run {
    /// Runs the experiment, returning whatever it measured.
    pub fn run(self, ctx: &ExperimentContext) -> Metrics {
        match self {
            Run::Report(f) => {
                f(ctx);
                Metrics::new()
            }
            Run::Measure(f) => f(ctx),
        }
    }
}

/// Every experiment by its `run_all` name, in paper order (the order a
/// full `run_all` prints them).
pub const EXPERIMENTS: [(&str, Run); 24] = [
    ("table1", Run::Report(data::table1)),
    ("table2", Run::Report(data::table2)),
    ("fig4", Run::Report(data::fig4)),
    ("table3", Run::Report(similarity::table3)),
    ("table4", Run::Report(classifiers::table4)),
    ("table5", Run::Report(classifiers::table5)),
    ("table6", Run::Report(classifiers::table6)),
    ("table7", Run::Report(unseen::table7)),
    ("fig5", Run::Report(unseen::fig5)),
    ("table8", Run::Report(unseen::table8)),
    ("table9", Run::Report(mae::table9)),
    ("table10", Run::Report(mae::table10)),
    ("table11", Run::Report(mae::table11)),
    ("table12", Run::Report(mae::table12)),
    ("overhead", Run::Report(perf::overhead)),
    ("nontargeted", Run::Report(unseen::nontargeted)),
    ("transfer", Run::Report(transfer::transfer)),
    ("adaptive", Run::Report(adaptive::adaptive)),
    ("ablation", Run::Report(ablation::ablation)),
    ("modality", Run::Measure(modality::run_modality_bench)),
    ("obs", Run::Measure(obs::run_obs_bench)),
    ("dataplane", Run::Measure(dataplane::run_dataplane_bench)),
    ("artifact", Run::Report(artifact::run_artifact_bench)),
    ("quant", Run::Measure(quant::run_quant_bench)),
];

/// The experiments `names` selects, in the order given; every experiment
/// when `names` is empty.
///
/// # Errors
///
/// Returns a message listing the valid names when one is unknown.
pub fn select(names: &[String]) -> Result<Vec<(&'static str, Run)>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    names
        .iter()
        .map(|name| {
            EXPERIMENTS.iter().find(|(known, _)| known == name).copied().ok_or_else(|| {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|(known, _)| *known).collect();
                format!("unknown experiment {name:?}; valid names: {}", valid.join(" "))
            })
        })
        .collect()
}
