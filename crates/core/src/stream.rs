//! Incremental detection: the verdict forms *while audio arrives*.
//!
//! A [`DetectionStream`] holds one streaming recogniser state per ASR
//! (target first) and advances all of them on every chunk. With an
//! [`EarlyExit`] rule installed it re-scores the running transcripts after
//! each chunk and fires an `Adversarial` verdict as soon as cross-ASR
//! similarity collapses below a margin-adjusted threshold for a confidence
//! horizon of consecutive updates — the streaming analogue of the paper's
//! observation that AEs show low inter-ASR agreement, combined with the
//! per-frame-signal argument of Logit Noising (PAPERS.md). `Benign` is only
//! ever decided at end-of-stream: agreement so far says nothing about the
//! suffix an attacker has not played yet.
//!
//! With no early-exit rule, [`DetectionStream::finish`] is byte-identical
//! to [`DetectionSystem::detect`] on the concatenated signal for
//! similarity-plane systems: every layer below (MFCC, stacking, logits,
//! greedy CTC) streams through the same state machines the one-shot path
//! uses.

use mvp_asr::AsrStream;

use crate::system::{Detection, DetectionSystem};

/// Early-exit policy for streaming detection.
///
/// The rule fires an early `Adversarial` verdict when, for
/// [`horizon`](Self::horizon) consecutive chunk updates, the mean running
/// similarity drops below `threshold - margin` *and* the trained
/// classifier agrees the running score vector is adversarial. No early
/// `Benign` exists by design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyExit {
    /// Similarity level below which cross-ASR agreement counts as
    /// collapsed.
    pub threshold: f64,
    /// Safety margin subtracted from `threshold`: transient dips within
    /// the margin do not count.
    pub margin: f64,
    /// Consecutive collapsed updates required before firing.
    pub horizon: usize,
    /// Minimum decoded frames — on *every* participating stream — before
    /// any early verdict; running transcripts over a handful of frames
    /// are noise.
    pub min_frames: usize,
}

impl Default for EarlyExit {
    /// Conservative defaults: collapse below 0.45 effective similarity,
    /// three consecutive confirmations, at least 25 decoded frames.
    fn default() -> Self {
        EarlyExit { threshold: 0.5, margin: 0.05, horizon: 3, min_frames: 25 }
    }
}

impl EarlyExit {
    /// One early-exit update after a chunk — the whole rule, shared by
    /// in-process and served streams.
    ///
    /// `least_frames` is the fewest logit frames any recogniser has
    /// decoded after this chunk, and `running` yields the `(target,
    /// auxiliaries)` running transcripts after the *same* chunk; it is
    /// only called once the `min_frames` gate passes. `collapsed` counts
    /// consecutive collapsed updates and belongs to the caller's stream.
    /// Returns the early `Adversarial` detection once the horizon is met.
    pub fn update(
        &self,
        system: &DetectionSystem,
        collapsed: &mut usize,
        least_frames: usize,
        running: impl FnOnce() -> (String, Vec<String>),
    ) -> Option<Detection> {
        // Gate on the *least* decoded stream, not the target: a heavily
        // subsampling auxiliary (or a precision variant that lags) with
        // near-empty running transcripts would otherwise read as a
        // similarity collapse and fire a premature verdict.
        if least_frames < self.min_frames {
            return None;
        }
        let (target, auxiliaries) = running();
        let scores = system.scores_from_transcripts(&target, &auxiliaries);
        let mean = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
        let collapse = mean < self.threshold - self.margin && system.classify_scores(&scores);
        *collapsed = if collapse { *collapsed + 1 } else { 0 };
        (*collapsed >= self.horizon.max(1)).then(|| Detection {
            is_adversarial: true,
            scores,
            target_transcription: target,
            auxiliary_transcriptions: auxiliaries,
            modality_features: Vec::new(),
            fused: false,
            early_exit: true,
        })
    }
}

/// Incremental verdict state over one audio stream.
///
/// Obtain with [`DetectionSystem::stream_begin`], feed with
/// [`push`](Self::push), settle with [`finish`](Self::finish). The state
/// is reusable after `finish`; buffers keep their capacity.
#[derive(Debug, Default)]
pub struct DetectionStream {
    /// One streaming recogniser state per ASR, in
    /// [`DetectionSystem::recognizers`] order (target first).
    streams: Vec<AsrStream>,
    early: Option<EarlyExit>,
    /// Consecutive collapsed updates so far.
    collapsed: usize,
    /// The early verdict, once fired.
    verdict: Option<Detection>,
    n_samples: usize,
}

impl DetectionSystem {
    /// Opens an incremental detection stream, optionally with an
    /// early-exit rule. Without one, the stream only ever decides at
    /// [`DetectionStream::finish`] and matches one-shot detection exactly.
    pub fn stream_begin(&self, early: Option<EarlyExit>) -> DetectionStream {
        DetectionStream {
            streams: (0..self.n_recognizers()).map(|_| AsrStream::default()).collect(),
            early,
            collapsed: 0,
            verdict: None,
            n_samples: 0,
        }
    }
}

impl DetectionStream {
    /// Feeds a chunk of widened samples to every recogniser and, when an
    /// early-exit rule is installed, re-evaluates it. Returns the early
    /// verdict if one has fired (on this chunk or a previous one).
    ///
    /// Chunks after an early verdict still advance the recognisers, so a
    /// caller that keeps feeding can still obtain the full end-of-stream
    /// detection from [`finish`](Self::finish).
    pub fn push(&mut self, system: &DetectionSystem, chunk: &[f64]) -> Option<&Detection> {
        self.n_samples += chunk.len();
        let recognizers = system.recognizers();
        assert_eq!(recognizers.len(), self.streams.len(), "stream opened on another system");
        for (asr, stream) in recognizers.iter().zip(&mut self.streams) {
            asr.stream_push(stream, chunk);
        }
        if self.verdict.is_none() {
            if let Some(rule) = self.early {
                self.evaluate(system, rule);
            }
        }
        self.verdict.as_ref()
    }

    /// [`push`](Self::push) for raw `f32` samples.
    pub fn push_f32(&mut self, system: &DetectionSystem, chunk: &[f32]) -> Option<&Detection> {
        self.n_samples += chunk.len();
        let recognizers = system.recognizers();
        assert_eq!(recognizers.len(), self.streams.len(), "stream opened on another system");
        for (asr, stream) in recognizers.iter().zip(&mut self.streams) {
            asr.stream_push_f32(stream, chunk);
        }
        if self.verdict.is_none() {
            if let Some(rule) = self.early {
                self.evaluate(system, rule);
            }
        }
        self.verdict.as_ref()
    }

    /// One early-exit evaluation over the running transcripts.
    fn evaluate(&mut self, system: &DetectionSystem, rule: EarlyExit) {
        let least = self.streams.iter().map(AsrStream::frames_decoded).min().unwrap_or(0);
        self.verdict = rule.update(system, &mut self.collapsed, least, || {
            DetectionSystem::split_transcripts(transcripts(system, &self.streams))
        });
    }

    /// The running `(target transcript, auxiliary transcripts, scores)` of
    /// the frames decoded so far.
    pub fn running(&self, system: &DetectionSystem) -> (String, Vec<String>, Vec<f64>) {
        let (target, auxiliaries) =
            DetectionSystem::split_transcripts(transcripts(system, &self.streams));
        let scores = system.scores_from_transcripts(&target, &auxiliaries);
        (target, auxiliaries, scores)
    }

    /// Whether the early-exit rule has fired.
    pub fn early_fired(&self) -> bool {
        self.verdict.is_some()
    }

    /// Total samples pushed since the stream was opened (or last finished).
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Logit frames the *target* recogniser has decoded so far.
    pub fn frames_decoded(&self) -> usize {
        self.streams.first().map_or(0, AsrStream::frames_decoded)
    }

    /// Ends the stream: flushes every recogniser, computes the full
    /// end-of-stream detection (this is where `Benign` is decided), and
    /// resets the state for reuse.
    ///
    /// The result is exactly
    /// [`DetectionSystem::detect_from_transcripts`] over the complete
    /// transcripts — byte-identical to one-shot detection of the
    /// concatenated signal on the similarity plane, regardless of how the
    /// signal was chunked and whether an early verdict already fired.
    pub fn finish(&mut self, system: &DetectionSystem) -> Detection {
        let recognizers = system.recognizers();
        assert_eq!(recognizers.len(), self.streams.len(), "stream opened on another system");
        let texts: Vec<String> = recognizers
            .iter()
            .zip(&mut self.streams)
            .map(|(asr, stream)| asr.stream_finish(stream))
            .collect();
        let (target, auxiliaries) = DetectionSystem::split_transcripts(texts);
        self.collapsed = 0;
        self.verdict = None;
        self.n_samples = 0;
        system.detect_from_transcripts(target, auxiliaries)
    }
}

/// Every recogniser's running transcript, target first.
fn transcripts(system: &DetectionSystem, streams: &[AsrStream]) -> Vec<String> {
    let recognizers = system.recognizers();
    recognizers.iter().zip(streams).map(|(asr, s)| asr.stream_transcript(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_asr::AsrProfile;
    use mvp_audio::synth::{SpeakerProfile, Synthesizer};
    use mvp_audio::Waveform;
    use mvp_ml::ClassifierKind;
    use mvp_phonetics::Lexicon;

    /// Well-separated synthetic training scores for `n_aux` auxiliaries.
    fn training_scores(n_aux: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let benign = (0..8).map(|i| vec![0.9 + 0.01 * (i % 3) as f64; n_aux]).collect();
        let ae = (0..8).map(|i| vec![0.1 + 0.01 * (i % 3) as f64; n_aux]).collect();
        (benign, ae)
    }

    fn trained_system() -> DetectionSystem {
        let mut system =
            DetectionSystem::builder(AsrProfile::Ds0).auxiliary(AsrProfile::Ds1).build();
        let (benign, ae) = training_scores(system.n_auxiliaries());
        system.train_on_scores(&benign, &ae, ClassifierKind::Knn);
        system
    }

    fn speech() -> Waveform {
        let synth = Synthesizer::new(16_000);
        synth.synthesize(&Lexicon::builtin(), "open the front door", &SpeakerProfile::default()).0
    }

    #[test]
    fn chunked_stream_matches_one_shot_detection() {
        let system = trained_system();
        let wave = speech();
        let reference = system.detect(&wave);
        let samples = wave.to_f64();
        let mut stream = system.stream_begin(None);
        // Random chunk boundaries (including 1-sample chunks), reusing the
        // stream across trials.
        let mut seed = 0x5EED_CAFEu64;
        for trial in 0..2 {
            let mut pos = 0;
            while pos < samples.len() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let len = if seed % 5 == 0 { 1 } else { 1 + (seed % 2000) as usize };
                let end = (pos + len).min(samples.len());
                assert!(stream.push(&system, &samples[pos..end]).is_none());
                pos = end;
            }
            let got = stream.finish(&system);
            assert_eq!(got.is_adversarial, reference.is_adversarial, "trial {trial}");
            assert_eq!(got.scores, reference.scores, "trial {trial}");
            assert_eq!(got.target_transcription, reference.target_transcription);
            assert_eq!(got.auxiliary_transcriptions, reference.auxiliary_transcriptions);
            assert!(!got.early_exit && !got.fused);
        }
        // f32 chunks behave identically.
        for chunk in wave.samples().chunks(911) {
            stream.push_f32(&system, chunk);
        }
        let got = stream.finish(&system);
        assert_eq!(got.scores, reference.scores);
    }

    #[test]
    fn early_exit_fires_after_horizon_and_respects_min_frames() {
        let mut system =
            DetectionSystem::builder(AsrProfile::Ds0).auxiliary(AsrProfile::Ds1).build();
        // A classifier that calls *everything* in [0, 1] adversarial, plus
        // a threshold above the score range: the rule then fires purely on
        // its mechanics (min_frames gate, then `horizon` consecutive
        // updates), independent of what the audio decodes to.
        let benign: Vec<Vec<f64>> = (0..8).map(|_| vec![5.0; 1]).collect();
        let ae: Vec<Vec<f64>> = (0..8).map(|i| vec![0.5 + 0.01 * (i % 4) as f64; 1]).collect();
        system.train_on_scores(&benign, &ae, ClassifierKind::Knn);

        let wave = speech();
        let samples = wave.to_f64();
        let rule = EarlyExit { threshold: 2.0, margin: 0.0, horizon: 3, min_frames: 10 };
        let mut stream = system.stream_begin(Some(rule));
        let chunk = 1600; // 100 ms
        let mut fired_at = None;
        for (i, c) in samples.chunks(chunk).enumerate() {
            if stream.push(&system, c).is_some() {
                fired_at = Some(i);
                break;
            }
        }
        let fired_at = fired_at.expect("early exit must fire under an always-adversarial rule");
        // min_frames needs ~one chunk here; the horizon needs 3 updates
        // past it, so the verdict cannot land on the first two chunks.
        assert!(fired_at >= 2, "fired at chunk {fired_at}");
        assert!(stream.early_fired());
        let (_, _, scores) = stream.running(&system);
        assert_eq!(scores.len(), 1);
        // The stream still settles to the exact one-shot verdict.
        let rest: Vec<f64> = samples[(fired_at + 1) * chunk..].to_vec();
        stream.push(&system, &rest);
        let fin = stream.finish(&system);
        let reference = system.detect(&wave);
        assert_eq!(fin.scores, reference.scores);
        assert!(!fin.early_exit);

        // An unreachable threshold never fires.
        let never = EarlyExit { threshold: -1.0, margin: 0.0, horizon: 1, min_frames: 0 };
        let mut stream = system.stream_begin(Some(never));
        for c in samples.chunks(chunk) {
            assert!(stream.push(&system, c).is_none());
        }
        assert!(!stream.early_fired());
        assert_eq!(stream.finish(&system).scores, reference.scores);
    }

    #[test]
    fn min_frames_gates_on_the_least_decoded_stream() {
        // Kaldi subsamples 3x, so its stream decodes about a third of the
        // target's frames from the same audio. With an always-adversarial
        // classifier and horizon 1, a target-only gate would fire as soon
        // as the *target* passes min_frames; the fixed gate must hold the
        // verdict until the slow auxiliary catches up — visible as the
        // target being far past min_frames when the rule finally fires.
        let mut system =
            DetectionSystem::builder(AsrProfile::Ds0).auxiliary(AsrProfile::Kaldi).build();
        let benign: Vec<Vec<f64>> = (0..8).map(|_| vec![5.0; 1]).collect();
        let ae: Vec<Vec<f64>> = (0..8).map(|i| vec![0.5 + 0.01 * (i % 4) as f64; 1]).collect();
        system.train_on_scores(&benign, &ae, ClassifierKind::Knn);

        let samples = speech().to_f64();
        let min_frames = 30;
        let rule = EarlyExit { threshold: 2.0, margin: 0.0, horizon: 1, min_frames };
        let mut stream = system.stream_begin(Some(rule));
        let mut fired = false;
        for c in samples.chunks(1600) {
            if stream.push(&system, c).is_some() {
                fired = true;
                break;
            }
        }
        assert!(fired, "early exit must fire once every stream passes min_frames");
        // Under the old `streams[0]`-only gate the target would sit within
        // one chunk (~10 frames) of min_frames here; waiting for the 3x
        // subsampled auxiliary pushes it to roughly 3x min_frames.
        assert!(
            stream.frames_decoded() >= 2 * min_frames,
            "target decoded only {} frames at firing — gate did not wait \
             for the subsampled auxiliary",
            stream.frames_decoded()
        );
    }
}
