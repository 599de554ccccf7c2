//! Quantization-plane benchmark: the int8 acoustic model as a *cheap
//! precision-diverse ensemble member* (the PVP axis from PAPERS.md).
//!
//! Three questions, one artifact (`BENCH_quant.json`):
//!
//! 1. **Throughput** — single-stream acoustic-model inference, int8 vs
//!    f64, per profile. The win lives at the acoustic-model level: the
//!    MFCC frontend dominates end-to-end transcription (~¾ of the wall
//!    time, Amdahl), so the headline figure is AM inference on the
//!    largest model (GCS), where the i8 GEMM's 32-lane accumulation
//!    pays. End-to-end transcription throughput is reported alongside,
//!    honestly, for both precisions.
//! 2. **Agreement** — how often the int8 target (DS0-I8) transcribes
//!    benign audio identically to its f64 parent. High agreement means
//!    quantization is a *version* in the multiversion sense: same
//!    behaviour on clean inputs, divergent behaviour under adversarial
//!    perturbations that straddle the coarser numeric grid.
//! 3. **Detection** — AUC of three ensembles on the cached AE dataset:
//!    precision-only (DS0 vs its own int8 twin, zero extra architectures),
//!    profile-only (the paper's DS1+GCS+AT similarity baseline), and the
//!    mixed ensemble carrying both diversity axes.

use std::time::Instant;

use mvp_asr::{AmScratch, Asr, AsrProfile};
use mvp_audio::Waveform;
use mvp_dsp::mfcc::FeatureMatrix;
use mvp_ears::SimilarityMethod;

use crate::context::ExperimentContext;
use crate::experiments::modality::family_auc;
use crate::experiments::{Metrics, THREE_AUX};
use crate::table::Table;

/// Output artifact file name, written under the context's `out_dir`.
pub const ARTIFACT: &str = "BENCH_quant.json";

/// Acoustic-model profiles timed in the throughput table. GCS carries
/// the headline: it is the widest model (dim 91, hidden 96), the shape
/// where int8 GEMM beats f64 by the largest margin.
const AM_PROFILES: [AsrProfile; 3] = [AsrProfile::Ds0, AsrProfile::Gcs, AsrProfile::Kaldi];

/// One profile's acoustic-model timing at both precisions.
struct AmTiming {
    profile: AsrProfile,
    frames: usize,
    f64_us: f64,
    i8_us: f64,
}

impl AmTiming {
    fn speedup(&self) -> f64 {
        self.f64_us / self.i8_us
    }
}

/// Best-of-5 mean wall time per round, with one untimed warm-up round.
fn time_us(rounds: usize, mut work: impl FnMut()) -> f64 {
    work();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..rounds {
            work();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e6 / rounds as f64);
    }
    best
}

/// Times one profile's acoustic model over the benign corpus features,
/// f64 vs int8. The features are precomputed so only the AM is on the
/// clock; both paths reuse one scratch, as the serve workers do.
fn am_timing(ctx: &ExperimentContext, profile: AsrProfile) -> AmTiming {
    let models = ctx.models_dir();
    let asr = profile.trained_in(Some(&models));
    let quant = profile.trained_quantized_in(Some(&models));
    let feats: Vec<FeatureMatrix> =
        ctx.benign.utterances().iter().map(|u| asr.frontend().features(&u.wave)).collect();
    let frames: usize = feats.iter().map(FeatureMatrix::n_frames).sum();
    let am = asr.acoustic_model();
    let qam = quant.quantized_model().expect("quantized variant carries an int8 model");
    let mut scratch = AmScratch::default();
    let mut out = FeatureMatrix::default();
    let f64_us = time_us(20, || {
        for f in &feats {
            am.logit_matrix_into(f, &mut scratch, &mut out);
        }
        std::hint::black_box(&out);
    });
    let i8_us = time_us(20, || {
        for f in &feats {
            qam.logit_matrix_into(f, &mut scratch, &mut out);
        }
        std::hint::black_box(&out);
    });
    AmTiming { profile, frames, f64_us, i8_us }
}

/// Times the acoustic models, measures benign int8/f64 transcript
/// agreement, evaluates the three ensembles and writes [`ARTIFACT`].
/// Returns the GCS `am_headline_speedup` and the
/// `benign_mean_similarity` of DS0-I8 to DS0.
pub fn run_quant_bench(ctx: &ExperimentContext) -> Metrics {
    println!("== quantization plane: int8 inference as a precision-diverse ensemble member ==");
    let method = SimilarityMethod::default();
    let models = ctx.models_dir();

    // 1. Acoustic-model inference throughput, int8 vs f64.
    let timings: Vec<AmTiming> = AM_PROFILES.iter().map(|&p| am_timing(ctx, p)).collect();
    let mut table = Table::new(["acoustic model", "frames", "f64 us", "int8 us", "speedup"]);
    for t in &timings {
        table.row([
            t.profile.name().to_string(),
            format!("{}", t.frames),
            format!("{:.0}", t.f64_us),
            format!("{:.0}", t.i8_us),
            format!("{:.2}x", t.speedup()),
        ]);
    }
    println!("{table}");
    let headline =
        timings.iter().find(|t| t.profile == AsrProfile::Gcs).expect("GCS timed").speedup();

    // End-to-end single-stream transcription, both precisions — the
    // honest Amdahl figure: the frontend dominates, so this ratio stays
    // near 1 however fast the int8 GEMM is.
    let ds0 = AsrProfile::Ds0.trained_in(Some(&models));
    let ds0_i8 = AsrProfile::Ds0.trained_quantized_in(Some(&models));
    let waves: Vec<&Waveform> = ctx.benign.utterances().iter().map(|u| &u.wave).collect();
    let f64_stream_us = time_us(2, || {
        for w in &waves {
            std::hint::black_box(ds0.transcribe(w));
        }
    });
    let i8_stream_us = time_us(2, || {
        for w in &waves {
            std::hint::black_box(ds0_i8.transcribe(w));
        }
    });
    let f64_rps = waves.len() as f64 / (f64_stream_us / 1e6);
    let i8_rps = waves.len() as f64 / (i8_stream_us / 1e6);
    println!(
        "AM inference speedup (GCS, headline): {headline:.2}x; end-to-end transcription: \
         f64 {f64_rps:.1} rps vs int8 {i8_rps:.1} rps ({:.2}x — frontend-bound, see DESIGN.md)",
        i8_rps / f64_rps
    );

    // 2. Benign transcript agreement: DS0-I8 vs the cached f64 DS0.
    // The int8 variant is not a transcript-cache column, so transcribe
    // directly; ids pair each text with its cached f64 counterpart.
    let i8_text = |wave: &Waveform| ds0_i8.transcribe(wave);
    let benign_i8: Vec<(String, String)> =
        ctx.benign.utterances().iter().map(|u| (format!("b{}", u.id), i8_text(&u.wave))).collect();
    let exact =
        benign_i8.iter().filter(|(id, text)| ctx.transcript(id, AsrProfile::Ds0) == text).count();
    let agreement = exact as f64 / benign_i8.len().max(1) as f64;
    let mean_sim = benign_i8
        .iter()
        .map(|(id, text)| method.score(ctx.transcript(id, AsrProfile::Ds0), text))
        .sum::<f64>()
        / benign_i8.len().max(1) as f64;
    println!(
        "benign agreement (DS0-I8 vs DS0): {exact}/{} exact ({:.1}%), mean similarity {mean_sim:.3}",
        benign_i8.len(),
        agreement * 100.0
    );

    // 3. Detector AUC: precision-only vs profile-only vs mixed. The
    // precision column is the similarity between the f64 target's
    // transcript and its own int8 twin's.
    let precision_score = |id: &str, wave: &Waveform| -> f64 {
        method.score(ctx.transcript(id, AsrProfile::Ds0), &i8_text(wave))
    };
    let mut precision_rows = Vec::new();
    let mut profile_rows = Vec::new();
    let mut mixed_rows = Vec::new();
    let samples = ctx
        .benign
        .utterances()
        .iter()
        .map(|u| (0usize, format!("b{}", u.id), &u.wave))
        .chain(ctx.aes.iter().map(|(id, ae)| (1usize, id.clone(), &ae.wave)));
    for (label, id, wave) in samples {
        let p = precision_score(&id, wave);
        let profile = ctx.score_vector(&id, &THREE_AUX, method);
        precision_rows.push((label, vec![p]));
        let mut mixed = profile.clone();
        mixed.push(p);
        profile_rows.push((label, profile));
        mixed_rows.push((label, mixed));
    }
    // The modality benchmark's logistic scorer, so the three ensembles
    // compare on one calibrated footing.
    let precision_auc = family_auc(&precision_rows);
    let profile_auc = family_auc(&profile_rows);
    let mixed_auc = family_auc(&mixed_rows);
    let mut atable = Table::new(["ensemble", "auxiliaries", "AUC"]);
    atable.row(["precision-only".to_string(), "DS0-I8".to_string(), format!("{precision_auc:.4}")]);
    atable.row([
        "profile-only".to_string(),
        ExperimentContext::system_name(&THREE_AUX),
        format!("{profile_auc:.4}"),
    ]);
    atable.row([
        "mixed".to_string(),
        "DS0+{DS1, GCS, AT, DS0-I8}".to_string(),
        format!("{mixed_auc:.4}"),
    ]);
    println!("{atable}");

    let am_json: Vec<String> = timings
        .iter()
        .map(|t| {
            format!(
                "    {{\"profile\": \"{}\", \"frames\": {}, \"f64_us\": {:.3}, \
                 \"int8_us\": {:.3}, \"speedup\": {:.4}}}",
                t.profile.name(),
                t.frames,
                t.f64_us,
                t.i8_us,
                t.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"am\": [\n{}\n  ],\n  \"am_headline_speedup\": {headline:.4},\n  \
         \"transcribe_f64_rps\": {f64_rps:.3},\n  \"transcribe_int8_rps\": {i8_rps:.3},\n  \
         \"transcribe_speedup\": {:.4},\n  \"benign_agreement\": {agreement:.4},\n  \
         \"benign_mean_similarity\": {mean_sim:.4},\n  \"aucs\": {{\"precision_only\": \
         {precision_auc:.4}, \"profile_only\": {profile_auc:.4}, \"mixed\": {mixed_auc:.4}}}\n}}\n",
        am_json.join(",\n"),
        i8_rps / f64_rps,
    );
    ctx.write_artifact(ARTIFACT, &json);
    vec![("am_headline_speedup", headline), ("benign_mean_similarity", mean_sim)]
}
