//! Request inputs: synthesised benign speech and its seeded
//! re-recordings, the cached quick-scale AEs, and their WAV encodings.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mvp_audio::wav::{read_wav_with_limit, write_wav, DEFAULT_MAX_SAMPLES};
use mvp_audio::Waveform;
use mvp_corpus::{CorpusBuilder, CorpusConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::Input;

/// Benign base utterances synthesised per run.
pub const N_BASE: usize = 96;

/// Seed of the benign base corpus. Fixed, so every run seed offers the
/// same mix of sentences and utterance lengths; the run seed varies the
/// re-recordings and the order.
const BASE_SEED: u64 = 0x6d76_705f_6265_6e63;

/// The quick-scale data directory (cached AEs and transcripts).
pub fn quick_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../data/quick")
}

/// Everything a run's inputs are made from.
pub struct Corpus {
    /// The distinct cached AE recordings as WAV bytes, in manifest order.
    pub aes: Vec<Arc<Vec<u8>>>,
    /// The run's benign base utterances.
    pub base: Vec<Waveform>,
    /// WAV encodings of `base` (the unperturbed variant).
    base_wav: Vec<Arc<Vec<u8>>>,
}

/// The AE ids of the quick-scale manifest, in order.
pub fn ae_ids(dir: &Path) -> Result<Vec<String>, String> {
    let path = dir.join("aes.tsv");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let ids: Vec<String> = text
        .lines()
        .skip(1)
        .filter_map(|l| l.split('\t').next())
        .filter(|id| !id.is_empty())
        .map(str::to_string)
        .collect();
    if ids.is_empty() {
        return Err(format!("{} lists no AEs", path.display()));
    }
    Ok(ids)
}

/// Synthesises `n` benign utterances for `seed`, split over two threads.
pub fn benign_base(seed: u64, n: usize) -> Vec<Waveform> {
    let build = |part: u64, size: usize| {
        CorpusBuilder::new(CorpusConfig {
            size,
            seed: seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(part),
            noise_prob: 0.5,
            ..CorpusConfig::default()
        })
        .build()
        .utterances()
        .iter()
        .map(|u| u.wave.clone())
        .collect::<Vec<Waveform>>()
    };
    let half = n / 2;
    let (mut a, b) = std::thread::scope(|s| {
        let second = s.spawn(|| build(2, n - half));
        (build(1, half), second.join().expect("corpus thread"))
    });
    a.extend(b);
    a
}

/// Encodes a waveform as 16-bit PCM WAV bytes.
pub fn encode_wav(wave: &Waveform) -> Vec<u8> {
    let mut out = Vec::with_capacity(44 + 2 * wave.len());
    write_wav(&mut out, wave).expect("writing to memory cannot fail");
    out
}

/// Decodes request bytes exactly as a caller on the request path does.
///
/// # Panics
///
/// Panics on malformed bytes; every benchmark input is well formed.
pub fn decode_wav(bytes: &[u8]) -> Waveform {
    read_wav_with_limit(bytes, DEFAULT_MAX_SAMPLES).expect("benchmark WAV decodes")
}

/// A distinct re-recording of `base`: seeded gain in `[0.7, 1.0]` plus
/// white room noise 30–45 dB below the utterance.
fn rerecord(base: &Waveform, variant: u64) -> Waveform {
    let mut rng = StdRng::seed_from_u64(variant);
    let gain = rng.gen_range(0.7f32..1.0);
    let snr_db = rng.gen_range(30.0f32..45.0);
    let noise = base.rms() * 10f32.powf(-snr_db / 20.0) * 3f32.sqrt();
    let samples: Vec<f32> = base
        .samples()
        .iter()
        .map(|&s| (s * gain + noise * rng.gen_range(-1.0f32..1.0)).clamp(-1.0, 1.0))
        .collect();
    Waveform::from_samples(samples, base.sample_rate())
}

impl Corpus {
    /// Loads the cached AEs and synthesises the benign base set.
    ///
    /// Some cached AEs are byte-identical recordings (the white-box
    /// generator revisits host/command pairs); only the first of each is
    /// kept, so no two requests ever carry the same audio.
    pub fn load() -> Result<Corpus, String> {
        let dir = quick_dir();
        let mut aes: Vec<Arc<Vec<u8>>> = Vec::new();
        for id in ae_ids(&dir)? {
            let path = dir.join("ae_wavs").join(format!("{id}.wav"));
            let bytes =
                std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            if !aes.iter().any(|a| **a == bytes) {
                aes.push(Arc::new(bytes));
            }
        }
        let base = benign_base(BASE_SEED, N_BASE);
        let base_wav = base.iter().map(|w| Arc::new(encode_wav(w))).collect();
        Ok(Corpus { aes, base, base_wav })
    }

    /// The WAV bytes of `input`, built on demand for re-recordings.
    pub fn wav(&self, input: Input) -> Arc<Vec<u8>> {
        match input {
            Input::Ae(i) => Arc::clone(&self.aes[i]),
            Input::Benign { base, variant: 0 } => Arc::clone(&self.base_wav[base]),
            Input::Benign { base, variant } => {
                Arc::new(encode_wav(&rerecord(&self.base[base], variant)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_base_is_seeded() {
        let a = benign_base(11, 4);
        let b = benign_base(11, 4);
        let c = benign_base(12, 4);
        assert_eq!(a.len(), 4);
        assert!(a.iter().zip(&b).all(|(x, y)| x.samples() == y.samples()));
        assert!(a.iter().zip(&c).any(|(x, y)| x.samples() != y.samples()));
    }

    #[test]
    fn requests_are_reproducible_from_the_seed() {
        use crate::workload::{plan, Workload};
        let corpus = Corpus::load().unwrap();
        assert!(corpus.aes.len() > 1 && corpus.base.len() == N_BASE);
        let requests = |seed| {
            let p = plan(Workload::OneshotFresh, seed, corpus.aes.len(), corpus.base.len());
            (0..6).map(|k| corpus.wav(p.inputs[p.input_at(k).unwrap()])).collect::<Vec<_>>()
        };
        assert_eq!(requests(9), requests(9));
        assert_ne!(requests(9), requests(10));
    }

    #[test]
    fn rerecordings_are_distinct_and_deterministic() {
        let base = &benign_base(5, 2)[0];
        let a = encode_wav(&rerecord(base, 3));
        assert_eq!(a, encode_wav(&rerecord(base, 3)));
        assert_ne!(a, encode_wav(&rerecord(base, 5)));
        assert_ne!(a, encode_wav(base));
        assert_eq!(decode_wav(&a).len(), base.len());
    }
}
