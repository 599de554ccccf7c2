//! Artifact-plane benchmark: cold training vs warm loading of every ASR
//! profile through the versioned checkpoint format. Results print as a
//! table and are written to `BENCH_artifact.json` in the working
//! directory.

use std::time::Instant;

use mvp_asr::Asr;

use crate::context::{ExperimentContext, PROFILES};
use crate::table::Table;

/// Output artifact file name, written under the context's `out_dir`.
pub const ARTIFACT: &str = "BENCH_artifact.json";

/// Benchmarks the disk tier for every profile: time a cold train (into a
/// scratch directory) against a warm load from the context's model
/// directory, assert the two pipelines transcribe identically, then write
/// [`ARTIFACT`].
pub fn run_artifact_bench(ctx: &ExperimentContext) {
    println!("== artifact plane: cold train vs warm load ==");
    let models = ctx.models_dir();
    let scratch = std::env::temp_dir().join(format!("mvp-artifact-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let probe = &ctx.benign.utterances()[0].wave;

    let mut table =
        Table::new(["profile", "artifact KiB", "cold train ms", "warm load ms", "speedup"]);
    let mut entries = Vec::new();
    for profile in PROFILES {
        // The context already routed this profile through the disk tier,
        // so an artifact exists; load_or_train covers a cold cache anyway.
        if let Err(e) = profile.load_or_train(&models) {
            println!("{profile}: model dir unusable ({e}); skipping");
            continue;
        }
        let t0 = Instant::now();
        let warm_asr = match profile.load(&models) {
            Ok(asr) => asr,
            Err(e) => {
                println!("{profile}: warm load failed ({e}); skipping");
                continue;
            }
        };
        let warm_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let cold_asr = match profile.load_or_train(&scratch) {
            Ok(asr) => asr,
            Err(e) => {
                println!("{profile}: cold train failed ({e}); skipping");
                continue;
            }
        };
        let cold_ms = t1.elapsed().as_secs_f64() * 1e3;

        assert_eq!(
            warm_asr.transcribe(probe),
            cold_asr.transcribe(probe),
            "{profile}: warm-loaded pipeline diverged from a fresh train"
        );

        let bytes = std::fs::metadata(profile.artifact_path(&models)).map_or(0, |m| m.len());
        let speedup = cold_ms / warm_ms.max(1e-6);
        table.row([
            profile.name().to_string(),
            format!("{:.1}", bytes as f64 / 1024.0),
            format!("{cold_ms:.1}"),
            format!("{warm_ms:.2}"),
            format!("{speedup:.0}x"),
        ]);
        entries.push(format!(
            "    {{\"profile\": \"{}\", \"artifact_bytes\": {bytes}, \
             \"cold_train_ms\": {cold_ms:.3}, \"warm_load_ms\": {warm_ms:.3}, \
             \"speedup\": {speedup:.1}}}",
            profile.name()
        ));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{table}");

    let json = format!("{{\n  \"profiles\": [\n{}\n  ]\n}}\n", entries.join(",\n"));
    ctx.write_artifact(ARTIFACT, &json);
}
