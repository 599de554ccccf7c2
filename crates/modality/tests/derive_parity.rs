//! The served split of every modality equals its in-process score bit
//! for bit: features assembled from per-item `derive` and target
//! transcriptions on one shared scratch (as the serving workers run
//! them, the logits read from that scratch) equal `Modality::score`.
//! Covers benign speech, a cached white-box AE, empty and silent audio.

use std::path::Path;

use mvp_asr::{Asr, AsrProfile, AsrScratch, TrainedAsr};
use mvp_audio::synth::{SpeakerProfile, Synthesizer};
use mvp_audio::Waveform;
use mvp_modality::{Evidence, ModalityInput, ModalityKind};
use mvp_phonetics::Lexicon;

fn waves() -> Vec<(&'static str, Waveform)> {
    let synth = Synthesizer::new(16_000);
    let (benign, _) =
        synth.synthesize(&Lexicon::builtin(), "open the front door", &SpeakerProfile::default());
    let ae_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/quick/ae_wavs/wb0.wav");
    let ae = mvp_audio::wav::read_wav(std::fs::File::open(&ae_path).expect("cached AE"))
        .expect("AE wav decodes");
    vec![
        ("benign", benign),
        ("ae", ae),
        ("empty", Waveform::from_samples(Vec::new(), 16_000)),
        ("silent", Waveform::from_samples(vec![0.0; 16_000], 16_000)),
    ]
}

/// Features as a serving engine assembles them: each derived waveform
/// built and transcribed alone, the logits those of the audio's own
/// transcription, all through one scratch that keeps its state.
fn split_features(
    kind: ModalityKind,
    asr: &TrainedAsr,
    wave: &Waveform,
    scratch: &mut AsrScratch,
) -> Vec<f64> {
    let modality = kind.build();
    let target = asr.transcribe_batch_with(&[wave], scratch).remove(0);
    let logits = scratch.logits().clone();
    let derived: Vec<String> = (0..modality.n_derived())
        .map(|j| {
            let derived = modality.derive(wave, j).expect("j < n_derived");
            asr.transcribe_batch_with(&[&derived], scratch).remove(0)
        })
        .collect();
    modality.features(&Evidence {
        asr,
        wave,
        target_text: &target,
        logits: &logits,
        derived: &derived,
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn split_features_equal_score_bit_for_bit() {
    let asr = AsrProfile::Ds0.trained();
    let mut scratch = AsrScratch::default();
    for (name, wave) in waves() {
        let target = asr.transcribe(&wave);
        for kind in ModalityKind::ALL {
            let scored = kind.build().score(&ModalityInput::new(&asr, &wave, &target)).features;
            let split = split_features(kind, &asr, &wave, &mut scratch);
            assert_eq!(bits(&split), bits(&scored), "{kind} on {name} audio");
        }
    }
}
