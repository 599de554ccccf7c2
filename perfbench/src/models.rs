//! The served system: trained artifacts, training data, and the timed
//! set-up that warm-loads them into a running engine.
//!
//! Artifacts live in a work directory keyed by the benchmark binary, so
//! they are rebuilt whenever the code changes. Creating them (training,
//! quantising, extracting fused training rows) happens before set-up is
//! timed; every run then times the same warm-load, fit and start work,
//! whether or not an earlier run left the artifacts behind.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvp_artifact::Persist;
use mvp_asr::{AsrProfile, PrecisionVariant, QuantizedAsr, TrainedAsr, MODEL_DIR_ENV};
use mvp_audio::Waveform;
use mvp_corpus::{CorpusBuilder, CorpusConfig};
use mvp_ears::{DetectionSystem, EarlyExit, FusedClassifier, FusionLayout, SimilarityMethod};
use mvp_ml::{ClassifierKind, FittedClassifier, Mat};
use mvp_modality::ModalityKind;
use mvp_obs::AuditLog;
use mvp_serve::{DegradePolicy, DetectionEngine, EngineConfig};

use crate::inputs::{ae_ids, decode_wav, quick_dir};
use crate::workload::Workload;

/// The paper configuration's auxiliaries (target is DS0).
pub const AUX: [AsrProfile; 3] = [AsrProfile::Ds1, AsrProfile::Gcs, AsrProfile::At];

/// Every served profile, target first.
pub const PROFILES: [AsrProfile; 4] =
    [AsrProfile::Ds0, AsrProfile::Ds1, AsrProfile::Gcs, AsrProfile::At];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

/// File of the cached fused training rows inside the work directory.
const FUSED_ROWS_FILE: &str = "fused-rows.tsv";

/// The work directory for this build of the benchmark, inside the
/// checkout's `.bench_build`. Sibling directories left by other builds
/// are removed.
pub fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let root = PathBuf::from(".bench_build").join("perfbench-work");
    let dir = root.join(format!("{:x}-{mtime:x}", meta.len()));
    if let Ok(entries) = std::fs::read_dir(&root) {
        for entry in entries.flatten() {
            if entry.path() != dir {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Score vectors of the cached quick-scale transcripts (target DS0,
/// auxiliaries [`AUX`]) — the SVM's training data.
pub struct TrainingScores {
    /// Benign rows.
    pub benign: Vec<Vec<f64>>,
    /// AE rows.
    pub ae: Vec<Vec<f64>>,
}

impl TrainingScores {
    /// Reads `transcripts.tsv` and scores every cached audio.
    pub fn load() -> Result<TrainingScores, String> {
        let dir = quick_dir();
        let aes: HashSet<String> = ae_ids(&dir)?.into_iter().collect();
        let path = dir.join("transcripts.tsv");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut by_id: HashMap<&str, HashMap<&str, &str>> = HashMap::new();
        for line in text.lines().skip(1) {
            let mut cols = line.splitn(3, '\t');
            if let (Some(id), Some(profile), Some(t)) = (cols.next(), cols.next(), cols.next()) {
                by_id.entry(id).or_default().insert(profile, t);
            }
        }
        let method = SimilarityMethod::default();
        let mut ids: Vec<&str> = by_id.keys().copied().collect();
        ids.sort_unstable();
        let (mut benign, mut ae) = (Vec::new(), Vec::new());
        for id in ids {
            let texts = &by_id[id];
            let get = |p: AsrProfile| texts.get(p.name()).copied();
            let Some(target) = get(AsrProfile::Ds0) else { continue };
            let Some(row) = AUX.iter().map(|&a| get(a).map(|t| method.score(target, t))).collect()
            else {
                continue;
            };
            if aes.contains(id) {
                ae.push(row);
            } else {
                benign.push(row);
            }
        }
        if benign.is_empty() || ae.is_empty() {
            return Err(format!("{} holds no usable training rows", path.display()));
        }
        Ok(TrainingScores { benign, ae })
    }
}

/// The hidden command-line flag that runs [`prepare`] in a child process.
pub const PREPARE_FLAG: &str = "--prepare";

/// Marks a work directory whose artifacts are complete.
const READY_FILE: &str = "ready";

/// Trains (or loads) every artifact a run needs — each profile at f64
/// and int8, and the fused classifier's training rows. Idempotent: a
/// second call finds everything on disk. Also points the process-wide
/// model cache at `dir`, so the in-process reference loads the very
/// artifacts the engine serves.
pub fn prepare(dir: &Path) -> Result<(), String> {
    std::env::set_var(MODEL_DIR_ENV, dir);
    // Two threads, longest training first on each (GCS ≈ DS0 + DS1).
    std::thread::scope(|s| {
        let other = s.spawn(|| {
            for p in [AsrProfile::Gcs, AsrProfile::Ds0] {
                p.trained_quantized_in(Some(dir));
            }
        });
        for p in [AsrProfile::At, AsrProfile::Ds1] {
            p.trained_quantized_in(Some(dir));
        }
        other.join().map_err(|_| "model preparation panicked".to_string())
    })?;
    if !dir.join(FUSED_ROWS_FILE).exists() {
        write_fused_rows(dir)?;
    }
    std::fs::write(dir.join(READY_FILE), b"").map_err(|e| format!("{}: {e}", dir.display()))
}

/// Runs [`prepare`] in a child process unless `dir` is already
/// complete, so training never touches the measuring process (its peak
/// memory, allocator state or caches).
pub fn ensure_prepared(dir: &Path) -> Result<(), String> {
    if dir.join(READY_FILE).exists() {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg(PREPARE_FLAG)
        .status()
        .map_err(|e| format!("starting model preparation: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("model preparation failed ({status})"))
    }
}

/// The fused classifier's training audio: the quick-scale benign corpus
/// and the cached AEs.
fn fused_training_audio() -> Result<(Vec<Waveform>, Vec<Waveform>), String> {
    let benign = CorpusBuilder::new(CorpusConfig {
        size: 80,
        seed: 42,
        noise_prob: 0.5,
        ..CorpusConfig::default()
    })
    .build()
    .utterances()
    .iter()
    .map(|u| u.wave.clone())
    .collect();
    let dir = quick_dir();
    let aes = ae_ids(&dir)?
        .iter()
        .map(|id| {
            let path = dir.join("ae_wavs").join(format!("{id}.wav"));
            std::fs::read(&path)
                .map(|b| decode_wav(&b))
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((benign, aes))
}

/// Raw fused rows (int8-auxiliary similarity scores followed by every
/// modality block) of the training audio, written bit-exactly.
fn write_fused_rows(dir: &Path) -> Result<(), String> {
    let system = reference_builder(true).build();
    let (benign, aes) = fused_training_audio()?;
    let labelled: Vec<(u8, &Waveform)> =
        benign.iter().map(|w| (0, w)).chain(aes.iter().map(|w| (1, w))).collect();
    let half = labelled.len() / 2;
    let rows_of = |part: &[(u8, &Waveform)]| -> Vec<(u8, Vec<f64>)> {
        part.iter().map(|&(label, w)| (label, system.raw_feature_row(w))).collect()
    };
    let mut rows = std::thread::scope(|s| {
        let second = s.spawn(|| rows_of(&labelled[half..]));
        let mut first = rows_of(&labelled[..half]);
        first.extend(second.join().expect("fused-row thread"));
        first
    });
    let mut text = String::new();
    for (label, row) in rows.drain(..) {
        text.push_str(&label.to_string());
        for v in row {
            text.push_str(&format!("\t{:016x}", v.to_bits()));
        }
        text.push('\n');
    }
    let path = dir.join(FUSED_ROWS_FILE);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads the fused training rows as `(benign, adversarial)` matrices.
fn read_fused_rows(dir: &Path) -> Result<(Mat, Mat), String> {
    let path = dir.join(FUSED_ROWS_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (mut neg, mut pos) = (Vec::new(), Vec::new());
    for line in text.lines() {
        let mut cols = line.split('\t');
        let label = cols.next();
        let row = cols
            .map(|c| u64::from_str_radix(c, 16).map(f64::from_bits))
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        match label {
            Some("0") => neg.push(row),
            Some("1") => pos.push(row),
            _ => return Err(format!("{}: bad label", path.display())),
        }
    }
    let dim = neg.first().map_or(0, Vec::len);
    Ok((Mat::from_rows(neg, dim), Mat::from_rows(pos, dim)))
}

/// Fits the fused classifier (int8 auxiliaries, every modality) on the
/// cached training rows — what the fused workload serves, and what the
/// traced run times on every workload.
pub fn fit_fused(dir: &Path) -> Result<FusedClassifier, String> {
    let (neg, pos) = read_fused_rows(dir)?;
    let layout = FusionLayout::new(AUX.len(), ModalityKind::ALL.to_vec());
    Ok(FusedClassifier::fit(layout, &neg, &pos, ClassifierKind::Svm))
}

/// The in-process builder for the workload's system shape, over the
/// process-wide model cache (which [`prepare`] points at the work
/// directory): DS0 target, [`AUX`] auxiliaries, and for the fused
/// workload int8 auxiliaries plus every modality.
pub fn reference_builder(fused_int8: bool) -> mvp_ears::DetectionSystemBuilder {
    let mut builder = DetectionSystem::builder(AsrProfile::Ds0);
    for p in AUX {
        builder = if fused_int8 {
            builder.auxiliary_variant(PrecisionVariant::int8(p))
        } else {
            builder.auxiliary(p)
        };
    }
    if fused_int8 {
        builder = builder.modality_kinds(&ModalityKind::ALL);
    }
    builder
}

/// The engine configuration every workload serves with.
pub fn engine_config(
    workload: Workload,
    callers: usize,
    audit: Option<Arc<AuditLog>>,
) -> EngineConfig {
    let fused = workload.is_fused_int8();
    EngineConfig {
        queue_cap: 64,
        // Closed loop: a batch is full once every caller has a request in.
        max_batch: callers,
        max_delay_ms: 2,
        // Far beyond any verdict on an idle box: a miss here would be a
        // stall, not load, and counts as a failure.
        deadline_ms: 60_000,
        aux_int8: if fused { vec![true; AUX.len()] } else { Vec::new() },
        cache_cap: 256,
        modalities: if fused { ModalityKind::ALL.to_vec() } else { Vec::new() },
        audit,
        early_exit: workload.is_stream().then(EarlyExit::default),
        ..EngineConfig::default()
    }
}

/// A started engine and what it serves.
pub struct Setup {
    /// The running engine.
    pub engine: DetectionEngine,
    /// The trained similarity classifier (shared with the reference).
    pub classifier: FittedClassifier,
    /// The fused classifier, for the fused workload.
    pub fused: Option<FusedClassifier>,
    /// Wall time of each set-up repetition.
    pub times: Vec<Duration>,
    /// Artifact-load share of each repetition.
    pub artifact_load: Vec<Duration>,
}

/// One timed set-up: warm-load every recogniser, fit the classifiers,
/// start the engine. Returns the engine, its classifiers and the
/// artifact-load time.
fn setup_once(
    workload: Workload,
    dir: &Path,
    config: EngineConfig,
) -> Result<(DetectionEngine, FittedClassifier, Option<FusedClassifier>, Duration), String> {
    let fused_int8 = workload.is_fused_int8();
    let started = Instant::now();
    let load = |p: AsrProfile| -> Result<TrainedAsr, String> {
        if fused_int8 && p != AsrProfile::Ds0 {
            QuantizedAsr::load_file(&dir.join(p.quantized_artifact_file_name()))
                .map(QuantizedAsr::into_asr)
        } else {
            p.load(dir)
        }
        .map_err(|e| format!("loading {p}: {e}"))
    };
    let target = Arc::new(load(AsrProfile::Ds0)?);
    let mut builder = DetectionSystem::builder_for(target);
    for p in AUX {
        builder = builder.auxiliary_asr(Arc::new(load(p)?));
    }
    let artifact_load = started.elapsed();
    if fused_int8 {
        builder = builder.modality_kinds(&ModalityKind::ALL);
    }
    let mut system = builder.build();
    let scores = TrainingScores::load()?;
    system.train_on_scores(&scores.benign, &scores.ae, ClassifierKind::Svm);
    if fused_int8 {
        system.set_fused_classifier(fit_fused(dir)?);
    }
    let policy =
        DegradePolicy::trained(AUX.len(), &scores.benign, &scores.ae, ClassifierKind::Knn, 0.05);
    let classifier = system.classifier().cloned().ok_or("classifier missing after fit")?;
    let fused = system.fused_classifier().cloned();
    let engine = DetectionEngine::start(Arc::new(system), policy, config);
    Ok((engine, classifier, fused, artifact_load))
}

/// Sets up [`SETUP_REPS`] times, keeping the last engine running.
pub fn setup(
    workload: Workload,
    dir: &Path,
    callers: usize,
    audit: Option<Arc<AuditLog>>,
) -> Result<Setup, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut artifact_load = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<(DetectionEngine, FittedClassifier, Option<FusedClassifier>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((engine, ..)) = last.take() {
            DetectionEngine::shutdown(engine);
        }
        let started = Instant::now();
        let (engine, classifier, fused, load) =
            setup_once(workload, dir, engine_config(workload, callers, audit.clone()))?;
        times.push(started.elapsed());
        artifact_load.push(load);
        last = Some((engine, classifier, fused));
    }
    let (engine, classifier, fused) = last.ok_or("no set-up ran")?;
    Ok(Setup { engine, classifier, fused, times, artifact_load })
}
