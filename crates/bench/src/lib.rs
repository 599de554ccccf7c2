#![warn(missing_docs)]

//! Experiment harness reproducing every table and figure of the MVP-EARS
//! paper's evaluation (Section V) plus the Section III transferability
//! study.
//!
//! The `run_all` binary runs the whole evaluation, or only the experiments
//! named on its command line ([`experiments::EXPERIMENTS`]); `run_all
//! --gate` is the CI gate ([`gate::GATES`]). The expensive inputs —
//! verified AE datasets and per-profile transcriptions — are generated
//! once per scale and cached on disk under `data/<scale>/`, so later runs
//! start instantly.
//!
//! Scale is controlled by the `MVP_EARS_SCALE` environment variable:
//! `tiny` (the CI gate's scale), `quick` (default; a few minutes of
//! one-time dataset generation on one core) or `full` (the paper's
//! 2400+2400 counts — hours of attack generation).

pub mod context;
pub mod experiments;
pub mod gate;
pub mod scale;
pub mod table;

pub use context::ExperimentContext;
pub use scale::Scale;
pub use table::Table;
