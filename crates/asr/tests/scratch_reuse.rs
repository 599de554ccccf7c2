//! A scratch plan carries no state between waveforms: after running any
//! sequence of f64 and int8 recognisers, it transcribes a DS0 wave to
//! the same text and the same logits, bit for bit, as a fresh scratch.
//! Serving workers rely on this when they transcribe the target's
//! derived waveforms on the scratch of their own recogniser.

use std::sync::{Arc, OnceLock};

use mvp_asr::{AsrProfile, AsrScratch, TrainedAsr};
use mvp_audio::synth::{SpeakerProfile, Synthesizer};
use mvp_audio::Waveform;
use mvp_phonetics::Lexicon;
use proptest::prelude::*;

const PROFILES: [AsrProfile; 4] =
    [AsrProfile::Ds0, AsrProfile::Ds1, AsrProfile::Gcs, AsrProfile::At];

const PHRASES: [&str; 3] = ["open the door", "good morning", "the man walked the street"];

fn waves() -> &'static [Waveform] {
    static WAVES: OnceLock<Vec<Waveform>> = OnceLock::new();
    WAVES.get_or_init(|| {
        let synth = Synthesizer::new(16_000);
        let mut waves: Vec<Waveform> = PHRASES
            .iter()
            .map(|t| synth.synthesize(&Lexicon::builtin(), t, &SpeakerProfile::default()).0)
            .collect();
        waves.push(Waveform::from_samples(Vec::new(), 16_000));
        waves
    })
}

fn recogniser(profile: usize, int8: bool) -> Arc<TrainedAsr> {
    let profile = PROFILES[profile];
    if int8 {
        profile.trained_quantized()
    } else {
        profile.trained()
    }
}

fn bits(m: &mvp_dsp::mfcc::FeatureMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn reused_scratch_transcribes_ds0_like_a_fresh_one(
        history in proptest::collection::vec((0usize..4, 0u8..2, 0usize..4), 1..5),
        wave in 0usize..3,
    ) {
        let mut reused = AsrScratch::default();
        for &(profile, int8, w) in &history {
            recogniser(profile, int8 == 1).transcribe_batch_with(&[&waves()[w]], &mut reused);
        }
        let ds0 = AsrProfile::Ds0.trained();
        let wave = &waves()[wave];
        let mut fresh = AsrScratch::default();
        let want = ds0.transcribe_batch_with(&[wave], &mut fresh);
        let got = ds0.transcribe_batch_with(&[wave], &mut reused);
        prop_assert_eq!(got, want);
        prop_assert_eq!(bits(reused.logits()), bits(fresh.logits()));
    }
}
