//! Command-line detector: feed a 16 kHz mono PCM-16 WAV file to the
//! MVP-EARS system and print the verdict.
//!
//! ```text
//! detect_wav [--model-dir <dir>] [--modalities <list>] [--precision] [--trace] <file.wav> [more.wav ...]
//! ```
//!
//! The threshold detectors are fitted on a built-in benign corpus at a 5 %
//! FPR budget (the paper's §V-G configuration), so no AE training data is
//! needed; an audio is flagged when *any* auxiliary similarity falls below
//! its threshold.
//!
//! With `--model-dir`, trained ASR models and the fitted threshold bank
//! are loaded from (and on first run saved to) versioned artifacts in
//! `<dir>`, so later invocations skip training entirely. A corrupt or
//! incompatible artifact is an error, never a silent retrain.
//!
//! With `--modalities`, a comma-separated mix of detection modalities is
//! evaluated per file and their stability features printed as evidence
//! alongside the verdict. `similarity` (the default) is the plain
//! cross-ASR ensemble; the other names are the `mvp-modality` kinds
//! (`transform`, `distribution`, `instability`). The similarity
//! thresholds alone decide the verdict — modality evidence never changes
//! the exit code, so the exit-code semantics below are unchanged — and an
//! unknown modality name is a usage error (exit 2).
//!
//! With `--precision`, the target's int8 quantized variant (DS0-I8) joins
//! the ensemble as a fourth auxiliary — the PVP precision-diversity axis:
//! its transcript diverges from the f64 target's exactly when small
//! adversarial perturbations stop surviving numeric coarsening. The
//! threshold bank then carries four detectors; a `--model-dir` bank fitted
//! without the flag is refused with a dimension error rather than reused.
//!
//! With `--trace`, the observability plane's span tracing is enabled and
//! an indented span tree — per-stage micro-timings of the whole pipeline —
//! is printed after each file's verdict.
//!
//! Exit codes — the verdict is the exit status, and I/O trouble is never
//! conflated with an adversarial verdict:
//!
//! - `0` — every input was read and judged **benign**;
//! - `1` — at least one input was judged **adversarial**;
//! - `2` — usage error, unreadable input, or unusable model directory
//!   (no complete verdict was possible).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mvp_artifact::Persist;
use mvp_asr::{Asr, AsrProfile};
use mvp_audio::wav::read_wav;
use mvp_corpus::{CorpusBuilder, CorpusConfig};
use mvp_ears::{DetectionSystem, ThresholdBank, ThresholdDetector};
use mvp_modality::ModalityKind;

const AUXILIARIES: [AsrProfile; 3] = [AsrProfile::Ds1, AsrProfile::Gcs, AsrProfile::At];
const THRESHOLD_FILE: &str = "thresholds.mvpa";

/// Parses the `--modalities` list: `similarity` selects the baseline
/// ensemble (and may appear alone or alongside modality kinds); every
/// other name must be a known [`ModalityKind`]. Unknown names and
/// duplicates are usage errors.
fn parse_modalities(list: &str) -> Result<Vec<ModalityKind>, String> {
    let mut kinds = Vec::new();
    for name in list.split(',').map(str::trim) {
        if name == "similarity" {
            continue; // always evaluated; listing it is allowed, not required
        }
        let kind = ModalityKind::parse(name).ok_or_else(|| {
            format!(
                "unknown modality {name:?}; valid names: similarity, {}",
                ModalityKind::ALL.map(|k| k.name()).join(", ")
            )
        })?;
        if kinds.contains(&kind) {
            return Err(format!("modality {name:?} listed twice"));
        }
        kinds.push(kind);
    }
    Ok(kinds)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::from(1),
        Ok(false) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("detect_wav: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut model_dir: Option<PathBuf> = None;
    let mut trace = false;
    let mut precision = false;
    let mut modalities: Vec<ModalityKind> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model-dir" => {
                let dir = args.next().ok_or("--model-dir needs a directory argument")?;
                model_dir = Some(PathBuf::from(dir));
            }
            "--modalities" => {
                let list = args.next().ok_or("--modalities needs a comma-separated list")?;
                modalities = parse_modalities(&list)?;
            }
            "--precision" => precision = true,
            "--trace" => trace = true,
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return Err("usage: detect_wav [--model-dir <dir>] [--modalities <list>] [--precision] \
                    [--trace] <file.wav> [more.wav ...]"
            .into());
    }

    let system = build_system(model_dir.as_deref(), &modalities, precision)?;
    let detectors = load_or_fit_thresholds(&system, model_dir.as_deref())?;

    let mut any_adversarial = false;
    for path in &files {
        let wave = std::fs::File::open(path)
            .map_err(|e| format!("{path}: cannot open ({e})"))
            .and_then(|f| {
                read_wav(std::io::BufReader::new(f))
                    .map_err(|e| format!("{path}: cannot read ({e})"))
            })?;
        if trace {
            mvp_obs::trace::enable(8192);
        }
        let (target, aux) = system.transcripts(&wave);
        let scores = system.scores_from_transcripts(&target, &aux);
        let flagged = scores.iter().zip(detectors.detectors()).any(|(&s, d)| d.is_adversarial(s));
        any_adversarial |= flagged;
        println!("{path}: {}", if flagged { "ADVERSARIAL" } else { "benign" });
        println!(
            "  {} ({:.1}s) heard by {}: {:?}",
            path,
            wave.duration_secs(),
            AsrProfile::Ds0,
            target
        );
        for ((asr, text), (&s, d)) in
            system.auxiliaries().iter().zip(&aux).zip(scores.iter().zip(detectors.detectors()))
        {
            println!(
                "  {}: {text:?} (similarity {s:.3}, threshold {:.3})",
                asr.name(),
                d.threshold()
            );
        }
        // Extra modality evidence, printed but never part of the verdict:
        // the similarity thresholds alone decide the exit code.
        for (outcome, modality) in
            system.score_modalities(&wave, &target).iter().zip(system.modalities().modalities())
        {
            let features: Vec<String> = modality
                .feature_names()
                .iter()
                .zip(&outcome.features)
                .map(|(name, value)| format!("{name}={value:.3}"))
                .collect();
            println!(
                "  modality {}: {} ({} us)",
                outcome.kind,
                features.join(" "),
                outcome.elapsed_us
            );
        }
        if trace {
            let events = mvp_obs::trace::drain();
            mvp_obs::trace::disable();
            print!("{}", mvp_obs::trace::render_tree(&events));
        }
    }
    Ok(any_adversarial)
}

/// Builds DS0+{DS1, GCS, AT} with the selected modality mix registered,
/// training in-process or loading/saving each model through the
/// `--model-dir` disk tier. With `precision`, the target's int8 variant
/// (DS0-I8) is appended as a fourth auxiliary, persisted in the same
/// directory tier as `asr-ds0-i8.mvpa`.
fn build_system(
    model_dir: Option<&Path>,
    modalities: &[ModalityKind],
    precision: bool,
) -> Result<DetectionSystem, String> {
    let mut builder = match model_dir {
        None => {
            eprintln!("training ASR profiles (one-time; use --model-dir to persist them)...");
            DetectionSystem::builder(AsrProfile::Ds0)
                .auxiliary(AsrProfile::Ds1)
                .auxiliary(AsrProfile::Gcs)
                .auxiliary(AsrProfile::At)
        }
        Some(dir) => {
            let load = |p: AsrProfile| {
                p.load_or_train(dir)
                    .map(std::sync::Arc::new)
                    .map_err(|e| format!("model dir {}: {p}: {e}", dir.display()))
            };
            let mut builder = DetectionSystem::builder_for(load(AsrProfile::Ds0)?);
            for aux in AUXILIARIES {
                builder = builder.auxiliary_asr(load(aux)?);
            }
            builder
        }
    };
    if precision {
        builder = builder.auxiliary_asr(AsrProfile::Ds0.trained_quantized_in(model_dir));
    }
    Ok(builder.modality_kinds(modalities).build())
}

/// Fits the per-auxiliary threshold bank on the built-in benign corpus,
/// or round-trips it through `<model_dir>/thresholds.mvpa`.
fn load_or_fit_thresholds(
    system: &DetectionSystem,
    model_dir: Option<&Path>,
) -> Result<ThresholdBank, String> {
    let path = model_dir.map(|d| d.join(THRESHOLD_FILE));
    if let Some(path) = &path {
        match ThresholdBank::load_file(path) {
            Ok(bank) => {
                if bank.detectors().len() != system.n_auxiliaries() {
                    return Err(format!(
                        "{}: bank has {} detectors for {} auxiliaries",
                        path.display(),
                        bank.detectors().len(),
                        system.n_auxiliaries()
                    ));
                }
                return Ok(bank);
            }
            Err(e) if e.is_not_found() => {}
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
    eprintln!("fitting thresholds on the built-in benign corpus (5% FPR budget)...");
    let benign =
        CorpusBuilder::new(CorpusConfig { size: 40, seed: 42, ..CorpusConfig::default() }).build();
    let benign_scores: Vec<Vec<f64>> =
        benign.utterances().iter().map(|u| system.score_vector(&u.wave)).collect();
    let bank = ThresholdBank(
        (0..system.n_auxiliaries())
            .map(|i| {
                let col: Vec<f64> = benign_scores.iter().map(|v| v[i]).collect();
                ThresholdDetector::fit_benign(&col, 0.05)
            })
            .collect(),
    );
    if let Some(path) = &path {
        bank.save_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(bank)
}
