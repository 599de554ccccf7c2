//! Per-layer timings for the traced run, taken from outside: each public
//! entry point is called serially on a seeded sample of the workload's
//! inputs, single-threaded (the kernel share each serve worker gets on
//! two cores). Nothing inside the program is instrumented for this.
//!
//! Names carry a profile suffix where profiles differ (`asr.am_us.gcs`).
//! Every stage time is µs per utterance unless noted per chunk or call.

use std::time::Instant;

use mvp_asr::AmScratch;
use mvp_asr::{Asr, AsrProfile, AsrScratch, AsrStream, FrontEndScratch, TrainedAsr};
use mvp_audio::Waveform;
use mvp_dsp::delta::delta_features;
use mvp_dsp::frame::frames;
use mvp_dsp::kernel::{DctPlan, RfftPlan, RfftScratch};
use mvp_dsp::mel::MelFilterbank;
use mvp_dsp::{Complex, FeatureMatrix, MfccExtractor, MfccScratch};
use mvp_ears::{DetectionSystem, FusedClassifier, SimilarityMethod};
use mvp_modality::{ModalityInput, ModalityKind, ModalityRegistry};
use mvp_phonetics::{Encoder, PhoneticEncoder};

use crate::drive::CHUNK_SAMPLES;
use crate::inputs::decode_wav;
use crate::models::PROFILES;
use crate::report::Metrics;
use crate::stats::median;

/// Repetitions per (input, stage); the per-input figure is their median.
const ROUNDS: usize = 5;

/// Median wall time of `f` over [`ROUNDS`] calls, in µs.
fn time_us(mut f: impl FnMut()) -> f64 {
    let mut v = [0.0; ROUNDS];
    for slot in &mut v {
        let t = Instant::now();
        f();
        *slot = t.elapsed().as_secs_f64() * 1e6;
    }
    median(&v)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Lower-case profile suffix, e.g. `gcs`.
fn suffix(p: AsrProfile) -> String {
    p.name().to_lowercase()
}

/// WAV decode of each sampled request.
fn audio(wavs: &[Vec<u8>], out: &mut Metrics) {
    let per: Vec<f64> = wavs
        .iter()
        .map(|w| {
            time_us(|| {
                std::hint::black_box(decode_wav(w));
            })
        })
        .collect();
    out.push("audio.wav_decode_us", mean(&per), "us");
}

/// The MFCC pipeline and its sub-stages at one profile's geometry.
fn dsp(p: AsrProfile, waves: &[Vec<f64>], out: &mut Metrics) {
    let cfg = p.spec().frontend.mfcc;
    let extractor = MfccExtractor::new(cfg.clone());
    let window = cfg.window.coefficients(cfg.frame_len);
    let plan = RfftPlan::new(cfg.n_fft);
    let bank =
        MelFilterbank::new(cfg.n_mels, cfg.n_fft, cfg.sample_rate as f64, cfg.f_min, cfg.f_max);
    let dct = DctPlan::new(cfg.n_mels, cfg.n_cepstra);
    let (mut mfcc, mut frame, mut rfft, mut mel, mut dctt, mut delta) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut scratch = MfccScratch::default();
    let mut rfft_scratch = RfftScratch::default();
    for samples in waves {
        let mut m = FeatureMatrix::default();
        mfcc.push(time_us(|| extractor.extract_into(samples, &mut scratch, &mut m)));
        frame.push(time_us(|| {
            std::hint::black_box(frames(samples, cfg.frame_len, cfg.hop));
        }));
        let framed = frames(samples, cfg.frame_len, cfg.hop);
        let windowed: Vec<Vec<f64>> =
            framed.rows().map(|r| r.iter().zip(&window).map(|(s, w)| s * w).collect()).collect();
        let mut spectra = vec![vec![Complex::ZERO; plan.n_bins()]; windowed.len()];
        rfft.push(time_us(|| {
            for (w, s) in windowed.iter().zip(spectra.iter_mut()) {
                plan.forward(w, &mut rfft_scratch, s);
            }
        }));
        let power: Vec<Vec<f64>> =
            spectra.iter().map(|s| s.iter().map(|z| z.norm_sq()).collect()).collect();
        let mut mels = vec![vec![0.0; cfg.n_mels]; power.len()];
        mel.push(time_us(|| {
            for (pw, m) in power.iter().zip(mels.iter_mut()) {
                bank.apply_into(pw, m);
            }
        }));
        let logs: Vec<Vec<f64>> =
            mels.iter().map(|m| m.iter().map(|&e| (e + cfg.log_floor).ln()).collect()).collect();
        let mut ceps = vec![vec![0.0; cfg.n_cepstra]; logs.len()];
        dctt.push(time_us(|| {
            for (l, c) in logs.iter().zip(ceps.iter_mut()) {
                dct.forward_into(l, c);
            }
        }));
        delta.push(time_us(|| {
            std::hint::black_box(delta_features(&m, 2));
        }));
    }
    let s = suffix(p);
    out.push(format!("dsp.mfcc_us.{s}"), mean(&mfcc), "us");
    out.push(format!("dsp.frame_us.{s}"), mean(&frame), "us");
    out.push(format!("dsp.rfft_us.{s}"), mean(&rfft), "us");
    out.push(format!("dsp.mel_us.{s}"), mean(&mel), "us");
    out.push(format!("dsp.dct_us.{s}"), mean(&dctt), "us");
    out.push(format!("dsp.delta_us.{s}"), mean(&delta), "us");
}

/// One profile's recogniser stages, the one-shot ledger and its
/// closure, and the streaming entry points per chunk.
fn asr(
    p: AsrProfile,
    f64_asr: &TrainedAsr,
    int8: &TrainedAsr,
    waves: &[Waveform],
    out: &mut Metrics,
) {
    let qam = int8.quantized_model().expect("int8 variant carries a quantized model");
    // Per (input, round): frontend, am, am_i8, decode, transcribe_batch,
    // transcribe — timed back to back, so the ledger compares stages and
    // whole measured under the same machine state.
    let mut rounds: Vec<[f64; 6]> = Vec::with_capacity(waves.len() * ROUNDS);
    let mut per_input: [Vec<f64>; 6] = Default::default();
    let mut frames_n = Vec::with_capacity(waves.len());
    let mut fe_scratch = FrontEndScratch::default();
    let mut am_scratch = AmScratch::default();
    let mut asr_scratch = AsrScratch::default();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for wave in waves {
        let samples = wave.to_f64();
        let (mut feats, mut logits, mut logits_i8) =
            (FeatureMatrix::default(), FeatureMatrix::default(), FeatureMatrix::default());
        let mut mine = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let mut r = [0.0; 6];
            let t = Instant::now();
            f64_asr.frontend().features_into(&samples, &mut fe_scratch, &mut feats);
            r[0] = us(t);
            let t = Instant::now();
            f64_asr.acoustic_model().logit_matrix_into(&feats, &mut am_scratch, &mut logits);
            r[1] = us(t);
            let t = Instant::now();
            qam.logit_matrix_into(&feats, &mut am_scratch, &mut logits_i8);
            r[2] = us(t);
            let t = Instant::now();
            std::hint::black_box(f64_asr.decoder().decode(&logits));
            r[3] = us(t);
            let t = Instant::now();
            std::hint::black_box(f64_asr.transcribe_batch_with(&[wave], &mut asr_scratch));
            r[4] = us(t);
            let t = Instant::now();
            std::hint::black_box(f64_asr.transcribe(wave));
            r[5] = us(t);
            mine.push(r);
        }
        for (k, stage) in per_input.iter_mut().enumerate() {
            stage.push(median(&mine.iter().map(|r| r[k]).collect::<Vec<_>>()));
        }
        rounds.extend(mine);
        frames_n.push(feats.n_frames() as f64);
    }
    let s = suffix(p);
    let names = ["frontend", "am", "am_i8", "decode", "transcribe_batch", "transcribe"];
    for (name, stage) in names.iter().zip(&per_input) {
        out.push(format!("asr.{name}_us.{s}"), mean(stage), "us");
    }
    out.push(format!("asr.frames.{s}"), mean(&frames_n), "count");
    let ledger = |r: &[f64; 6]| r[0] + r[1] + r[3];
    let closure: Vec<f64> = rounds.iter().map(|r| ledger(r) / r[4]).collect();
    out.push(format!("ledger.closure_pct.{s}"), (median(&closure) - 1.0).abs() * 100.0, "%");
    // The one-shot `Asr::transcribe` path pays for the backward-pass
    // cache the attack needs; this is that cost over the ledger sum.
    let gap: Vec<f64> = rounds.iter().map(|r| r[5] / ledger(r)).collect();
    out.push(format!("ledger.oneshot_gap_pct.{s}"), (median(&gap) - 1.0) * 100.0, "%");

    let (mut push, mut running, mut finish) = (vec![], vec![], vec![]);
    for _ in 0..ROUNDS {
        for wave in waves {
            let mut stream = AsrStream::default();
            for chunk in wave.samples().chunks(CHUNK_SAMPLES) {
                let t = Instant::now();
                f64_asr.stream_push_f32(&mut stream, chunk);
                push.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                std::hint::black_box(f64_asr.stream_transcript(&stream));
                running.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let t = Instant::now();
            std::hint::black_box(f64_asr.stream_finish(&mut stream));
            finish.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.push(format!("asr.stream_push_us.{s}"), median(&push), "us");
    out.push(format!("asr.stream_transcript_us.{s}"), median(&running), "us");
    out.push(format!("asr.stream_finish_us.{s}"), median(&finish), "us");
}

/// Phonetic encoding, similarity, classification, the modalities and
/// the fused classifier.
fn scoring(
    system: &DetectionSystem,
    fused: &FusedClassifier,
    waves: &[Waveform],
    out: &mut Metrics,
) {
    let method = SimilarityMethod::default();
    let encoder = Encoder::default();
    let registry = ModalityRegistry::from_kinds(&ModalityKind::ALL);
    let (mut enc, mut sim, mut cls, mut fused_cls) = (vec![], vec![], vec![], vec![]);
    let mut modality: Vec<Vec<f64>> = vec![Vec::new(); ModalityKind::ALL.len()];
    for wave in waves {
        let (target, aux) = system.transcripts(wave);
        for text in std::iter::once(&target).chain(&aux) {
            enc.push(time_us(|| {
                std::hint::black_box(encoder.encode_sentence(text));
            }));
        }
        for a in &aux {
            sim.push(time_us(|| {
                std::hint::black_box(method.score(&target, a));
            }));
        }
        let scores = system.scores_from_transcripts(&target, &aux);
        cls.push(time_us(|| {
            std::hint::black_box(system.classify_scores(&scores));
        }));
        let input = ModalityInput::new(system.target(), wave, &target);
        let mut raw = scores.clone();
        for (i, kind) in ModalityKind::ALL.into_iter().enumerate() {
            modality[i].push(time_us(|| {
                std::hint::black_box(registry.score_where(&input, |k| k == kind));
            }));
            for outcome in registry.score_where(&input, |k| k == kind) {
                raw.extend(outcome.features);
            }
        }
        fused_cls.push(time_us(|| {
            std::hint::black_box(fused.is_adversarial(&raw));
        }));
    }
    out.push("phonetics.encode_us", mean(&enc), "us");
    out.push("core.similarity_us", mean(&sim), "us");
    out.push("core.classify_us", mean(&cls), "us");
    for (kind, times) in ModalityKind::ALL.into_iter().zip(&modality) {
        out.push(format!("modality.{}_us", kind.name()), mean(times), "us");
    }
    out.push("core.fused_classify_us", mean(&fused_cls), "us");
}

/// Times every layer on the sampled requests (their WAV bytes), calling
/// into `system` (the reference; its similarity classifier is timed) and
/// `fused` (int8 auxiliaries, every modality).
pub fn measure(
    system: &DetectionSystem,
    fused: &FusedClassifier,
    wavs: &[Vec<u8>],
    out: &mut Metrics,
) {
    mvp_dsp::kernel::set_threads(1);
    let waves: Vec<Waveform> = wavs.iter().map(|w| decode_wav(w)).collect();
    let widened: Vec<Vec<f64>> = waves.iter().map(Waveform::to_f64).collect();
    audio(wavs, out);
    for p in PROFILES {
        dsp(p, &widened, out);
    }
    for p in PROFILES {
        asr(p, &p.trained(), &p.trained_quantized(), &waves, out);
    }
    scoring(system, fused, &waves, out);
    mvp_dsp::kernel::set_threads(0);
}
