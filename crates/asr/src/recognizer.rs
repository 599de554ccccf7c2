//! The [`Asr`] trait and the [`TrainedAsr`] pipeline implementation.

use mvp_audio::Waveform;
use mvp_dsp::mfcc::FeatureMatrix;
use mvp_phonetics::Phoneme;

use crate::am::{AcousticModel, AmScratch, QuantizedAcousticModel};
use crate::ctc::{ctc_loss_and_grad, RunAccumulator};
use crate::decoder::{Decoder, PrefixDecode};
use crate::features::{FeatureFrontEnd, FrontEndScratch, FrontEndStream};

/// A speech recogniser: audio in, transcription out.
///
/// The detection system treats every ASR — target or auxiliary — through
/// this interface only, mirroring the paper's claim that MVP-EARS needs no
/// access to model internals at detection time.
pub trait Asr: Send + Sync {
    /// A short stable identifier (e.g. `"DS0"`).
    fn name(&self) -> &str;

    /// Transcribes `wave` to lower-case text (empty for silent audio).
    fn transcribe(&self, wave: &Waveform) -> String;
}

/// A fully assembled simulated ASR: front end → acoustic model → decoder.
///
/// A pipeline carries an optional int8 *precision variant* of its
/// acoustic model (see [`TrainedAsr::quantize`]). When present, every
/// forward/transcription path runs the quantized model; the training,
/// attack and gradient paths always use the f64 weights, which is the
/// PVP threat model — the attacker optimises against full precision and
/// the cheap low-precision sibling votes independently.
#[derive(Debug, Clone)]
pub struct TrainedAsr {
    name: String,
    frontend: FeatureFrontEnd,
    am: AcousticModel,
    decoder: Decoder,
    qam: Option<QuantizedAcousticModel>,
}

impl TrainedAsr {
    /// Assembles a pipeline from trained parts.
    pub fn new(
        name: impl Into<String>,
        frontend: FeatureFrontEnd,
        am: AcousticModel,
        decoder: Decoder,
    ) -> TrainedAsr {
        TrainedAsr { name: name.into(), frontend, am, decoder, qam: None }
    }

    /// The feature front end (exposed for attacks and diagnostics).
    pub fn frontend(&self) -> &FeatureFrontEnd {
        &self.frontend
    }

    /// The acoustic model.
    pub fn acoustic_model(&self) -> &AcousticModel {
        &self.am
    }

    /// The int8 precision variant, if this pipeline carries one.
    pub fn quantized_model(&self) -> Option<&QuantizedAcousticModel> {
        self.qam.as_ref()
    }

    /// Short precision label for tables and logs: `"int8"` or `"f64"`.
    pub fn precision(&self) -> &'static str {
        if self.qam.is_some() {
            "int8"
        } else {
            "f64"
        }
    }

    /// The word decoder.
    pub fn decoder(&self) -> &Decoder {
        &self.decoder
    }

    /// An int8 precision variant of this pipeline: the acoustic model is
    /// quantized post-training, calibrated on the features of
    /// `calibration` (benign audio), and the clone is renamed
    /// `"<name>-I8"`. Front end and decoder are shared unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` produces no feature frames.
    pub fn quantize(&self, calibration: &[&Waveform]) -> TrainedAsr {
        let mut feats = FeatureMatrix::zeros(0, self.frontend.dim());
        for wave in calibration {
            let f = self.frontend.features(wave);
            for row in f.rows() {
                feats.push_row(row);
            }
        }
        let qam = QuantizedAcousticModel::quantize(&self.am, &feats);
        self.clone().with_quantized(qam)
    }

    /// Attaches a prepared precision variant (the persistence path; most
    /// callers want [`quantize`](Self::quantize)). Renames the pipeline
    /// with the `-I8` suffix unless it already carries one.
    ///
    /// # Panics
    ///
    /// Panics if the variant's dimensionality does not match the front
    /// end's.
    pub fn with_quantized(mut self, qam: QuantizedAcousticModel) -> TrainedAsr {
        assert_eq!(qam.dim(), self.frontend.dim(), "quantized model dimension mismatch");
        if !self.name.ends_with("-I8") {
            self.name.push_str("-I8");
        }
        self.qam = Some(qam);
        self
    }

    /// Runs the acoustic model all transcription paths share: the int8
    /// variant when present, the f64 model otherwise.
    fn am_forward(&self, feats: &FeatureMatrix, scratch: &mut AmScratch, out: &mut FeatureMatrix) {
        match &self.qam {
            Some(qam) => qam.logit_matrix_into(feats, scratch, out),
            None => self.am.logit_matrix_into(feats, scratch, out),
        }
    }

    /// Per-frame logits over phoneme classes for `wave` (through the
    /// precision variant when present).
    pub fn logits(&self, wave: &Waveform) -> FeatureMatrix {
        let mut out = FeatureMatrix::default();
        self.am_forward(&self.frontend.features(wave), &mut AmScratch::default(), &mut out);
        out
    }

    /// Transcribes a whole micro-batch. Produces exactly what
    /// [`Asr::transcribe`] would per waveform, in order.
    pub fn transcribe_batch(&self, waves: &[&Waveform]) -> Vec<String> {
        self.transcribe_batch_with(waves, &mut AsrScratch::default())
    }

    /// Transcribes a micro-batch through a caller-owned scratch plan.
    ///
    /// Every intermediate — the MFCC workspace (which widens the raw
    /// samples as it pre-emphasizes them), stacked features, logit
    /// matrix, acoustic-model activations — lives in
    /// `scratch`, so a long-lived caller (mvp-serve's per-ASR workers)
    /// performs zero steady-state allocation per batch once the buffers
    /// have grown to the working-set size.
    pub fn transcribe_batch_with(
        &self,
        waves: &[&Waveform],
        scratch: &mut AsrScratch,
    ) -> Vec<String> {
        waves
            .iter()
            .map(|wave| {
                if wave.is_empty() {
                    return String::new();
                }
                {
                    let _span = mvp_obs::span!("asr.features");
                    self.frontend.features_into(
                        wave.samples(),
                        &mut scratch.frontend,
                        &mut scratch.feats,
                    );
                    self.am_forward(&scratch.feats, &mut scratch.am, &mut scratch.logits);
                }
                let _span = mvp_obs::span!("asr.decode");
                self.decoder.decode(&scratch.logits)
            })
            .collect()
    }

    /// Feeds a chunk of widened samples into `stream`, advancing MFCCs,
    /// context stacking, the logit matrix and the greedy prefix decode as
    /// far as the new samples allow. Returns the number of newly decoded
    /// logit frames.
    ///
    /// Any chunking of a signal — including one-sample chunks — yields,
    /// after [`stream_finish`](Self::stream_finish), exactly the transcript
    /// of [`Asr::transcribe`] on the whole signal.
    pub fn stream_push(&self, stream: &mut AsrStream, chunk: &[f64]) -> usize {
        stream.n_samples += chunk.len();
        stream.feats.reset(0, self.frontend.dim());
        stream.frontend.push(&self.frontend, chunk, &mut stream.feats);
        self.extend_with_frames(stream)
    }

    /// [`stream_push`](Self::stream_push) for raw `f32` samples, widened
    /// through the stream's own buffer exactly as
    /// [`Waveform::to_f64`] widens them.
    pub fn stream_push_f32(&self, stream: &mut AsrStream, chunk: &[f32]) -> usize {
        let mut samples = std::mem::take(&mut stream.samples);
        samples.clear();
        samples.extend(chunk.iter().map(|&s| s as f64));
        let n = self.stream_push(stream, &samples);
        stream.samples = samples;
        n
    }

    /// Advances the logit matrix and prefix decode over the stacked rows
    /// currently staged in `stream.feats` (the rows the front end completed
    /// in the last push). Runs the same batched
    /// [`AcousticModel::logit_matrix_into`] entry point as the one-shot
    /// path — its rows are bit-identical at any batch size, which is what
    /// makes chunked and batch logits agree exactly. Word chunks the new
    /// frames close are decoded here, once.
    fn extend_with_frames(&self, stream: &mut AsrStream) -> usize {
        self.am_forward(&stream.feats, &mut stream.am, &mut stream.logits);
        for row in stream.logits.rows() {
            stream.runs.push_logits_row(row);
        }
        self.decoder.advance_prefix(&mut stream.words, &stream.runs);
        stream.logits.n_frames()
    }

    /// The running best transcript of the frames decoded so far — the
    /// incremental detector polls this between chunks. It decodes only
    /// the open word chunk; the closed ones were decoded as they closed.
    pub fn stream_transcript(&self, stream: &AsrStream) -> String {
        self.decoder.decode_prefix(&stream.words)
    }

    /// Flushes the trailing partial frames, returns the final transcript
    /// and resets `stream` for the next utterance.
    pub fn stream_finish(&self, stream: &mut AsrStream) -> String {
        stream.feats.reset(0, self.frontend.dim());
        stream.frontend.finish(&self.frontend, &mut stream.feats);
        self.extend_with_frames(stream);
        let text = self.decoder.decode_prefix(&stream.words);
        stream.reset();
        text
    }

    /// Converts a text command into the CTC target sequence using the
    /// built-in lexicon. Silence symbols (word boundaries) are *kept* —
    /// like DeepSpeech's space character they are regular CTC symbols,
    /// distinct from the blank.
    pub fn target_indices(text: &str) -> Vec<usize> {
        let lex = mvp_phonetics::Lexicon::builtin();
        let with_sil = lex.pronounce_sentence(text);
        if with_sil.len() <= 2 {
            return Vec::new(); // only the framing silences: no words
        }
        with_sil.into_iter().map(Phoneme::index).collect()
    }

    /// CTC loss of `wave` against a target phoneme index sequence.
    pub fn ctc_loss(&self, wave: &Waveform, target: &[usize]) -> f64 {
        ctc_loss_and_grad(&self.logits(wave), target).0
    }

    /// CTC loss and its gradient with respect to the waveform samples —
    /// the full differentiable chain the white-box attack optimises:
    /// CTC → logits → acoustic model → stacked MFCC features → samples.
    pub fn ctc_loss_and_input_grad(&self, wave: &Waveform, target: &[usize]) -> (f64, Vec<f64>) {
        self.attack_loss_and_input_grad(wave, target, 0.0)
    }

    /// Attack loss: CTC plus `align_weight ×` a frame cross-entropy against
    /// a proportionally stretched target alignment, with the combined
    /// gradient w.r.t. the waveform samples.
    ///
    /// The auxiliary term encourages *multi-frame* phoneme runs — plain CTC
    /// is satisfied by single-frame emissions that real decoders (including
    /// this crate's, via its min-run filter) treat as transition noise.
    pub fn attack_loss_and_input_grad(
        &self,
        wave: &Waveform,
        target: &[usize],
        align_weight: f64,
    ) -> (f64, Vec<f64>) {
        let (feats, cache) = self.frontend.features_with_cache(wave);
        let logits = self.am.logit_matrix(&feats);
        let (mut loss, mut d_logits) = ctc_loss_and_grad(&logits, target);
        if !loss.is_finite() {
            return (loss, vec![0.0; wave.len()]);
        }
        if align_weight > 0.0 && !logits.is_empty() {
            let align = stretch_alignment(target, logits.n_frames());
            let inv_t = 1.0 / logits.n_frames() as f64;
            for (t, row) in logits.rows().enumerate() {
                let probs = crate::am::softmax(row);
                let label = align[t];
                loss -= align_weight * probs[label].max(1e-300).ln() * inv_t;
                let d_row = d_logits.row_mut(t);
                for (k, &p) in probs.iter().enumerate() {
                    d_row[k] += align_weight * (p - f64::from(k == label)) * inv_t;
                }
            }
        }
        let mut am_scratch = AmScratch::default();
        let mut d_feats = FeatureMatrix::zeros(feats.n_frames(), feats.dim());
        for t in 0..feats.n_frames() {
            self.am.backward_to_features_into(
                feats.row(t),
                d_logits.row(t),
                &mut am_scratch,
                d_feats.row_mut(t),
            );
        }
        (loss, self.frontend.backward(&cache, &d_feats))
    }
}

/// Reusable workspace for [`TrainedAsr::transcribe_batch_with`]: the full
/// per-item intermediate state of the pipeline, owned by the caller so
/// repeated batches reuse every allocation.
#[derive(Debug, Clone, Default)]
pub struct AsrScratch {
    frontend: FrontEndScratch,
    feats: FeatureMatrix,
    logits: FeatureMatrix,
    am: AmScratch,
}

impl AsrScratch {
    /// The logit matrix of the last waveform transcribed through this
    /// scratch — the served path's logits, for parity checks against
    /// [`TrainedAsr::logits`].
    pub fn logits(&self) -> &FeatureMatrix {
        &self.logits
    }
}

/// Incremental transcription state for one utterance through one
/// [`TrainedAsr`] — the streaming counterpart of [`AsrScratch`]. Drive it
/// with [`TrainedAsr::stream_push`] / [`TrainedAsr::stream_finish`];
/// buffers keep their capacity across utterances, so a long-lived stream
/// (mvp-serve's per-ASR workers hold one per in-flight stream) allocates
/// nothing in steady state once warm.
#[derive(Debug, Clone, Default)]
pub struct AsrStream {
    samples: Vec<f64>,
    frontend: FrontEndStream,
    /// Stacked rows completed by the most recent push (not the history —
    /// the accumulated state lives in `runs`).
    feats: FeatureMatrix,
    /// Logits of the most recent push's rows.
    logits: FeatureMatrix,
    am: AmScratch,
    runs: RunAccumulator,
    /// The word decode of what `runs` has emitted.
    words: PrefixDecode,
    n_samples: usize,
}

impl AsrStream {
    /// Clears all carried state, ready for a fresh utterance.
    pub fn reset(&mut self) {
        self.frontend.reset();
        self.runs.reset();
        self.words.reset();
        self.n_samples = 0;
    }

    /// Total samples pushed since the last reset.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Logit frames decoded since the last reset.
    pub fn frames_decoded(&self) -> usize {
        self.runs.n_frames()
    }
}

/// Distributes `n_frames` frames across the target symbols proportionally
/// to their nominal phoneme durations.
fn stretch_alignment(target: &[usize], n_frames: usize) -> Vec<usize> {
    assert!(!target.is_empty(), "empty target");
    let durations: Vec<f64> =
        target.iter().map(|&i| f64::from(Phoneme::from_index(i).acoustics().duration_ms)).collect();
    let total: f64 = durations.iter().sum();
    let mut bounds = Vec::with_capacity(target.len());
    let mut acc = 0.0;
    for &d in &durations {
        acc += d;
        bounds.push(acc / total);
    }
    (0..n_frames)
        .map(|t| {
            let frac = (t as f64 + 0.5) / n_frames as f64;
            let k = bounds.iter().position(|&b| frac <= b).unwrap_or(target.len() - 1);
            target[k]
        })
        .collect()
}

impl Asr for TrainedAsr {
    fn name(&self) -> &str {
        &self.name
    }

    fn transcribe(&self, wave: &Waveform) -> String {
        let mut texts = self.transcribe_batch_with(&[wave], &mut AsrScratch::default());
        texts.pop().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_indices_keep_word_boundaries() {
        let t = TrainedAsr::target_indices("open the door");
        assert!(!t.is_empty());
        // Framing and inter-word silences: 4 for a three-word phrase.
        let sils = t.iter().filter(|&&i| i == Phoneme::SIL.index()).count();
        assert_eq!(sils, 4);
        // Never the blank.
        assert!(t.iter().all(|&i| i < Phoneme::COUNT));
    }

    #[test]
    fn target_indices_empty_text() {
        assert!(TrainedAsr::target_indices("").is_empty());
    }

    #[test]
    fn transcribe_batch_matches_one_shot() {
        use crate::profile::AsrProfile;
        use mvp_audio::synth::{SpeakerProfile, Synthesizer};
        use mvp_audio::Waveform;
        use mvp_phonetics::Lexicon;

        let asr = AsrProfile::Ds0.trained();
        let synth = Synthesizer::new(16_000);
        let lex = Lexicon::builtin();
        let texts = ["open the door", "good morning", "the man walked the street"];
        let waves: Vec<Waveform> =
            texts.iter().map(|t| synth.synthesize(&lex, t, &SpeakerProfile::default()).0).collect();
        let mut refs: Vec<&Waveform> = waves.iter().collect();
        let empty = Waveform::new(16_000);
        refs.push(&empty);
        let batch = asr.transcribe_batch(&refs);
        assert_eq!(batch.len(), 4);
        for (wave, text) in refs.iter().zip(&batch) {
            assert_eq!(*text, asr.transcribe(wave));
        }
        // Equal strings can hide a sub-ulp drift between the served and
        // in-process feature paths, which later flips a transcript near
        // the decision boundary: the logits must match bit for bit, and
        // so must the features the white-box attack differentiates.
        let bits = |m: &FeatureMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut scratch = AsrScratch::default();
        for wave in &refs[..3] {
            asr.transcribe_batch_with(&[wave], &mut scratch);
            assert_eq!(bits(scratch.logits()), bits(&asr.logits(wave)));
            let (attack_feats, _) = asr.frontend().features_with_cache(wave);
            assert_eq!(bits(&attack_feats), bits(&asr.frontend().features(wave)));
        }
    }

    #[test]
    fn streaming_transcription_matches_one_shot() {
        use crate::profile::AsrProfile;
        use mvp_audio::synth::{SpeakerProfile, Synthesizer};
        use mvp_phonetics::Lexicon;

        let asr = AsrProfile::Ds0.trained();
        let synth = Synthesizer::new(16_000);
        let lex = Lexicon::builtin();
        let (wave, _) = synth.synthesize(&lex, "open the front door", &SpeakerProfile::default());
        let reference = asr.transcribe(&wave);
        assert!(!reference.is_empty());
        let samples = wave.to_f64();

        let mut stream = AsrStream::default();
        // Deterministic random chunk boundaries, reusing the stream across
        // trials to prove stream_finish clears every carry.
        let mut seed = 0xDEAD_BEEFu64;
        for trial in 0..3 {
            let mut pos = 0;
            while pos < samples.len() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let len = 1 + (seed % 1200) as usize;
                let end = (pos + len).min(samples.len());
                asr.stream_push(&mut stream, &samples[pos..end]);
                pos = end;
            }
            assert_eq!(asr.stream_finish(&mut stream), reference, "trial {trial}");
        }
        // f32 ingress widens exactly like to_f64.
        for chunk in wave.samples().chunks(777) {
            asr.stream_push_f32(&mut stream, chunk);
        }
        assert_eq!(asr.stream_finish(&mut stream), reference);
        // Empty stream decodes to the empty transcript, like empty audio.
        assert_eq!(asr.stream_finish(&mut stream), "");
    }

    #[test]
    fn running_transcript_converges_to_final() {
        use crate::profile::AsrProfile;
        use mvp_audio::synth::{SpeakerProfile, Synthesizer};
        use mvp_phonetics::Lexicon;

        let asr = AsrProfile::Ds0.trained();
        let synth = Synthesizer::new(16_000);
        let (wave, _) =
            synth.synthesize(&Lexicon::builtin(), "good morning", &SpeakerProfile::default());
        let samples = wave.to_f64();
        let mut stream = AsrStream::default();
        let mut runnings = Vec::new();
        for chunk in samples.chunks(1600) {
            asr.stream_push(&mut stream, chunk);
            runnings.push(asr.stream_transcript(&stream));
        }
        assert!(stream.frames_decoded() > 0);
        assert_eq!(stream.n_samples(), samples.len());
        let fin = asr.stream_finish(&mut stream);
        assert_eq!(fin, asr.transcribe(&wave));
        // The running estimate is a prefix-ish view: by the last chunk it
        // must already contain the first decoded word.
        let first_word = fin.split_whitespace().next().unwrap();
        assert!(
            runnings.last().unwrap().contains(first_word),
            "running {:?} vs final {fin:?}",
            runnings.last().unwrap()
        );
    }

    #[test]
    fn running_transcript_matches_from_scratch_decode_at_every_push() {
        use crate::profile::AsrProfile;
        use mvp_audio::synth::{SpeakerProfile, Synthesizer};
        use mvp_phonetics::Lexicon;

        let synth = Synthesizer::new(16_000);
        let (wave, _) =
            synth.synthesize(&Lexicon::builtin(), "turn on the light", &SpeakerProfile::default());
        let samples = wave.to_f64();
        let mut stream = AsrStream::default();
        for profile in AsrProfile::ALL {
            let asr = profile.trained();
            let reference = asr.transcribe(&wave);
            let min_run = asr.decoder().config().min_run;
            let frame = asr.frontend().mfcc_config().hop * asr.frontend().subsample();
            for chunk_len in [1, frame, 777, 4000] {
                let mut from_scratch = String::new();
                for chunk in samples.chunks(chunk_len) {
                    if asr.stream_push(&mut stream, chunk) > 0 {
                        let seq = stream.runs.phonemes(min_run);
                        from_scratch = asr.decoder().decode_phonemes(&seq);
                    }
                    assert_eq!(
                        asr.stream_transcript(&stream),
                        from_scratch,
                        "{} in {chunk_len}-sample chunks",
                        asr.name()
                    );
                }
                assert_eq!(asr.stream_finish(&mut stream), reference, "{}", asr.name());
            }
        }
    }

    const BENIGN_PHRASES: [&str; 4] =
        ["open the door", "good morning", "turn on the light", "call me back now"];

    /// One shared (f64, int8) pair of the same pipeline; quantization is
    /// deterministic, so caching it keeps the property test fast.
    fn precision_pair() -> &'static (std::sync::Arc<TrainedAsr>, TrainedAsr) {
        use crate::profile::AsrProfile;
        use mvp_audio::synth::{SpeakerProfile, Synthesizer};
        use mvp_phonetics::Lexicon;

        static PAIR: std::sync::OnceLock<(std::sync::Arc<TrainedAsr>, TrainedAsr)> =
            std::sync::OnceLock::new();
        PAIR.get_or_init(|| {
            let asr = AsrProfile::Ds0.trained();
            let synth = Synthesizer::new(16_000);
            let lex = Lexicon::builtin();
            let calibration: Vec<_> = BENIGN_PHRASES
                .iter()
                .map(|t| synth.synthesize(&lex, t, &SpeakerProfile::default()).0)
                .collect();
            let refs: Vec<_> = calibration.iter().collect();
            let quantized = asr.quantize(&refs);
            (asr, quantized)
        })
    }

    proptest::proptest! {
        /// PVP's load-bearing property: on *benign* audio the int8
        /// precision variant transcribes (near-)identically to its f64
        /// parent — similarity stays above the detector's benign
        /// operating region (fitted thresholds sit below 0.6), so the
        /// cheap ensemble member never flags clean speech on its own.
        #[test]
        fn quantized_variant_agrees_with_f64_on_benign_audio(
            phrase_idx in 0usize..4,
            speaker_seed in 0u64..50,
        ) {
            use mvp_audio::synth::{SpeakerProfile, Synthesizer};
            use mvp_phonetics::Lexicon;

            let (asr, quantized) = precision_pair();
            let synth = Synthesizer::new(16_000);
            let speaker = SpeakerProfile {
                seed: speaker_seed,
                pitch_hz: 100.0 + (speaker_seed % 7) as f32 * 8.0,
                ..SpeakerProfile::default()
            };
            let (wave, _) =
                synth.synthesize(&Lexicon::builtin(), BENIGN_PHRASES[phrase_idx], &speaker);
            let full = asr.transcribe(&wave);
            let cheap = quantized.transcribe(&wave);
            let sim = mvp_textsim::levenshtein_similarity(&full, &cheap);
            proptest::prop_assert!(
                sim >= 0.6,
                "int8 vs f64 transcripts diverged: {full:?} vs {cheap:?} (sim {sim})"
            );
        }
    }

    #[test]
    fn stretched_alignment_is_monotone_and_covers_target() {
        let target = TrainedAsr::target_indices("open the door");
        let align = super::stretch_alignment(&target, 120);
        assert_eq!(align.len(), 120);
        // Every target symbol appears, in order.
        let mut collapsed = vec![align[0]];
        for &a in &align[1..] {
            if *collapsed.last().unwrap() != a {
                collapsed.push(a);
            }
        }
        assert_eq!(collapsed, target);
        // Long vowels get more frames than the framing silences.
        let vowel = target.iter().find(|&&i| Phoneme::from_index(i).is_vowel()).unwrap();
        let vowel_frames = align.iter().filter(|&&a| a == *vowel).count();
        assert!(vowel_frames >= 2);
    }
}
