//! Corpus assembly: text + speaker + rendered audio + alignment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mvp_audio::noise::{mix_at_snr, NoiseKind};
use mvp_audio::synth::{AlignedPhoneme, Synthesizer};
use mvp_audio::{SpeakerProfile, Waveform};
use mvp_phonetics::Lexicon;

use crate::sentences::SentenceGenerator;
use crate::speakers::SpeakerSampler;

/// One rendered utterance.
#[derive(Debug, Clone)]
pub struct Utterance {
    /// Stable identifier within its corpus.
    pub id: usize,
    /// Ground-truth transcription.
    pub text: String,
    /// The speaker that rendered it.
    pub speaker: SpeakerProfile,
    /// The audio (possibly noise-augmented).
    pub wave: Waveform,
    /// Sample-exact phoneme alignment of the *clean* rendering.
    pub alignment: Vec<AlignedPhoneme>,
}

/// Parameters controlling corpus generation.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Number of utterances.
    pub size: usize,
    /// Master seed (sentences, speakers, noise draws).
    pub seed: u64,
    /// Output sample rate in Hz.
    pub sample_rate: u32,
    /// Probability an utterance receives additive room noise.
    pub noise_prob: f64,
    /// SNR range (dB) for the added noise when it is applied.
    pub noise_snr_db: (f64, f64),
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            size: 100,
            seed: 2024,
            sample_rate: 16_000,
            noise_prob: 0.5,
            noise_snr_db: (14.0, 30.0),
        }
    }
}

/// Builds [`SpeechCorpus`] instances.
#[derive(Debug)]
pub struct CorpusBuilder {
    cfg: CorpusConfig,
    lexicon: Lexicon,
}

impl CorpusBuilder {
    /// A builder with the given configuration and the built-in lexicon.
    pub fn new(cfg: CorpusConfig) -> CorpusBuilder {
        CorpusBuilder { cfg, lexicon: Lexicon::builtin() }
    }

    /// Generates the corpus.
    pub fn build(&self) -> SpeechCorpus {
        let synth = Synthesizer::new(self.cfg.sample_rate);
        let mut sentences = SentenceGenerator::new(self.cfg.seed);
        let mut speakers = SpeakerSampler::new(self.cfg.seed.wrapping_add(1));
        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(2));
        let utterances = (0..self.cfg.size)
            .map(|id| {
                let text = sentences.next_sentence();
                let speaker = speakers.next_speaker();
                self.render(&synth, id, text, speaker, &mut rng)
            })
            .collect();
        SpeechCorpus { utterances }
    }

    /// Renders explicit texts (e.g. command phrases) instead of generated
    /// sentences, with the same speaker/noise pipeline.
    pub fn build_from_texts(&self, texts: &[String]) -> SpeechCorpus {
        let synth = Synthesizer::new(self.cfg.sample_rate);
        let mut speakers = SpeakerSampler::new(self.cfg.seed.wrapping_add(1));
        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(2));
        let utterances = texts
            .iter()
            .enumerate()
            .map(|(id, text)| {
                let speaker = speakers.next_speaker();
                self.render(&synth, id, text.clone(), speaker, &mut rng)
            })
            .collect();
        SpeechCorpus { utterances }
    }

    fn render(
        &self,
        synth: &Synthesizer,
        id: usize,
        text: String,
        speaker: SpeakerProfile,
        rng: &mut StdRng,
    ) -> Utterance {
        let (clean, alignment) = synth.synthesize(&self.lexicon, &text, &speaker);
        let wave = if rng.gen_bool(self.cfg.noise_prob) {
            let (lo, hi) = self.cfg.noise_snr_db;
            let snr = rng.gen_range(lo..hi);
            let kind = if rng.gen_bool(0.5) { NoiseKind::Pink } else { NoiseKind::Babble };
            let noise = kind.generate(clean.len(), clean.sample_rate(), rng.gen());
            mix_at_snr(&clean, &noise, snr)
        } else {
            clean
        };
        Utterance { id, text, speaker, wave, alignment }
    }
}

/// A set of rendered utterances.
#[derive(Debug, Clone, Default)]
pub struct SpeechCorpus {
    utterances: Vec<Utterance>,
}

impl SpeechCorpus {
    /// The utterances in generation order.
    pub fn utterances(&self) -> &[Utterance] {
        &self.utterances
    }

    /// Number of utterances.
    pub fn len(&self) -> usize {
        self.utterances.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.utterances.is_empty()
    }

    /// Deterministic train/test index split with `train_frac` of the data
    /// (shuffled by `seed`) in the first slice.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < train_frac < 1.0`.
    pub fn split_indices(&self, train_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        assert!(train_frac > 0.0 && train_frac < 1.0, "train fraction {train_frac} out of (0, 1)");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        shuffle(&mut idx, seed);
        let cut = ((self.len() as f64) * train_frac).round() as usize;
        let test = idx.split_off(cut.min(self.len()));
        (idx, test)
    }

    /// Deterministic `k`-fold partition: returns `(train, test)` index pairs
    /// per fold, covering every element exactly once across test sets.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k > len`.
    pub fn k_folds(&self, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
        assert!(k >= 2, "need at least 2 folds");
        assert!(k <= self.len(), "more folds than utterances");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        shuffle(&mut idx, seed);
        (0..k)
            .map(|f| {
                let test: Vec<usize> = idx.iter().copied().skip(f).step_by(k).collect();
                let train: Vec<usize> = idx
                    .iter()
                    .copied()
                    .enumerate()
                    .filter_map(|(i, v)| (i % k != f).then_some(v))
                    .collect();
                (train, test)
            })
            .collect()
    }
}

fn shuffle(idx: &mut [usize], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BAD_5EED);
    for i in (1..idx.len()).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SpeechCorpus {
        CorpusBuilder::new(CorpusConfig { size: 12, seed: 5, ..CorpusConfig::default() }).build()
    }

    #[test]
    fn build_is_deterministic() {
        let a = small();
        let b = small();
        for (x, y) in a.utterances().iter().zip(b.utterances()) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.wave, y.wave);
        }
    }

    #[test]
    fn utterances_have_audio_and_alignment() {
        for u in small().utterances() {
            assert!(u.wave.duration_secs() > 0.3, "{}", u.text);
            assert!(!u.alignment.is_empty());
            assert_eq!(u.alignment.last().unwrap().end, u.wave.len());
        }
    }

    #[test]
    fn split_partitions_everything() {
        let c = small();
        let (train, test) = c.split_indices(0.75, 3);
        assert_eq!(train.len() + test.len(), c.len());
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..c.len()).collect::<Vec<_>>());
        assert_eq!(train.len(), 9);
    }

    #[test]
    fn k_folds_cover_each_sample_once() {
        let c = small();
        let folds = c.k_folds(4, 7);
        assert_eq!(folds.len(), 4);
        let mut seen = vec![0usize; c.len()];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), c.len());
            for &t in test {
                seen[t] += 1;
            }
            // Train and test are disjoint.
            for &t in test {
                assert!(!train.contains(&t));
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn build_from_texts_preserves_order() {
        let texts = vec!["open the door".to_string(), "call home".to_string()];
        let c = CorpusBuilder::new(CorpusConfig { seed: 1, ..CorpusConfig::default() })
            .build_from_texts(&texts);
        assert_eq!(c.utterances()[0].text, "open the door");
        assert_eq!(c.utterances()[1].text, "call home");
    }

    #[test]
    #[should_panic(expected = "folds")]
    fn too_many_folds_panics() {
        small().k_folds(100, 1);
    }
}
