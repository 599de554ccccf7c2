//! Runs the evaluation: every experiment in paper order, or only the ones
//! named (`run_all table3 fig5`; see `mvp_bench::experiments::EXPERIMENTS`).
//! An unknown name exits 2 and lists the valid ones.
//!
//! `run_all --gate` is the CI gate: it runs the gated experiments at tiny
//! scale, artifacts in a scratch directory, and exits 1 on the first
//! figure outside its bound in `mvp_bench::gate::GATES`.
//!
//! Scale via `MVP_EARS_SCALE` (tiny / quick / full).

use std::process::ExitCode;

use mvp_bench::{experiments, gate, ExperimentContext, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--gate"] {
        return match gate::run_gates() {
            Ok(()) => {
                println!("gate: PASS");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("gate: FAIL: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let selected = match experiments::select(&args) {
        Ok(selected) => selected,
        Err(msg) => {
            eprintln!("run_all: {msg}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::from_env();
    eprintln!("MVP-EARS evaluation at scale {:?}\n", scale.name);
    let ctx = ExperimentContext::load_or_generate(scale);
    for (_, run) in selected {
        run.run(&ctx);
    }
    ExitCode::SUCCESS
}
