//! Shared experiment state: datasets, cached AEs and cached transcripts.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use mvp_asr::{Asr, AsrProfile};
use mvp_attack::{blackbox_commands, generate_ae_dataset, AeKind, GeneratedAe};
use mvp_audio::wav::{read_wav, write_wav};
use mvp_corpus::{command_phrases, CorpusBuilder, CorpusConfig, SpeechCorpus};
use mvp_ears::SimilarityMethod;
use mvp_ml::{Dataset, Mat};

use crate::scale::Scale;

/// The ASR profiles every audio is transcribed with (cache columns).
pub const PROFILES: [AsrProfile; 5] =
    [AsrProfile::Ds0, AsrProfile::Ds1, AsrProfile::Gcs, AsrProfile::At, AsrProfile::Kaldi];

/// Packs per-sample score vectors into one contiguous [`Mat`] — the bridge
/// from experiment-level `Vec<Vec<f64>>` collections to the data plane's
/// matrix carrier.
///
/// # Panics
///
/// Panics if the rows are ragged.
pub fn score_mat(rows: Vec<Vec<f64>>) -> Mat {
    let d = rows.first().map_or(0, Vec::len);
    Mat::from_rows(rows, d)
}

/// All datasets and cached transcriptions for one scale.
pub struct ExperimentContext {
    /// The scale this context was built at.
    pub scale: Scale,
    /// Benign dataset (LibriSpeech dev_clean substitute).
    pub benign: SpeechCorpus,
    /// Verified AEs (white-box first, then black-box), with stable ids.
    pub aes: Vec<(String, GeneratedAe)>,
    /// Where [`ExperimentContext::write_artifact`] puts `BENCH_*.json`
    /// files: the working directory, or a scratch directory for a gate
    /// run, so a gate run never overwrites a committed artifact.
    pub out_dir: PathBuf,
    transcripts: HashMap<(String, &'static str), String>,
}

fn data_dir(scale: &Scale) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("data").join(scale.name)
}

/// Where this scale's trained ASR artifacts live
/// (`data/<scale>/models/`). The context routes every profile through
/// this disk tier, so re-runs warm-start instead of retraining.
pub fn models_dir(scale: &Scale) -> PathBuf {
    data_dir(scale).join("models")
}

impl ExperimentContext {
    /// Loads the cached context for `scale`, generating (and caching) any
    /// missing pieces. The first call at a given scale pays for AE
    /// generation and transcription; later calls are instant.
    ///
    /// # Panics
    ///
    /// Panics on unreadable/corrupt cache files or I/O failures.
    pub fn load_or_generate(scale: Scale) -> ExperimentContext {
        let dir = data_dir(&scale);
        fs::create_dir_all(&dir).expect("create data dir");

        let benign = CorpusBuilder::new(CorpusConfig {
            size: scale.benign,
            seed: 42,
            noise_prob: 0.5,
            ..CorpusConfig::default()
        })
        .build();

        let aes = Self::load_or_generate_aes(&scale, &dir);
        let mut ctx = ExperimentContext {
            scale,
            benign,
            aes,
            out_dir: PathBuf::from("."),
            transcripts: HashMap::new(),
        };
        ctx.load_or_generate_transcripts(&dir);
        ctx
    }

    /// This scale's ASR model directory (`data/<scale>/models/`).
    pub fn models_dir(&self) -> PathBuf {
        models_dir(&self.scale)
    }

    /// Writes one bench artifact (`BENCH_*.json`) under [`Self::out_dir`].
    ///
    /// # Panics
    ///
    /// Panics if the write fails, so a run never exits 0 while leaving a
    /// stale artifact behind.
    pub fn write_artifact(&self, name: &str, json: &str) {
        let path = self.out_dir.join(name);
        fs::write(&path, json)
            .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
        println!("wrote {name}\n");
    }

    fn load_or_generate_aes(scale: &Scale, dir: &Path) -> Vec<(String, GeneratedAe)> {
        let manifest = dir.join("aes.tsv");
        let wav_dir = dir.join("ae_wavs");
        if manifest.exists() {
            let text = fs::read_to_string(&manifest).expect("read AE manifest");
            let mut out = Vec::new();
            for line in text.lines().skip(1) {
                let cols: Vec<&str> = line.split('\t').collect();
                assert_eq!(cols.len(), 5, "corrupt AE manifest line: {line}");
                let id = cols[0].to_string();
                let kind = match cols[1] {
                    "white-box" => AeKind::WhiteBox,
                    "black-box" => AeKind::BlackBox,
                    other => panic!("unknown AE kind {other}"),
                };
                let file =
                    fs::File::open(wav_dir.join(format!("{id}.wav"))).expect("open cached AE wav");
                let wave = read_wav(std::io::BufReader::new(file)).expect("read cached AE wav");
                out.push((
                    id,
                    GeneratedAe {
                        kind,
                        host_text: cols[2].to_string(),
                        command: cols[3].to_string(),
                        wave,
                        similarity: cols[4].parse().expect("similarity column"),
                    },
                ));
            }
            return out;
        }

        eprintln!(
            "[mvp-bench] generating AE dataset at scale {:?} ({} white-box + {} black-box); \
             this is a one-time cost",
            scale.name, scale.whitebox, scale.blackbox
        );
        let ds0 = AsrProfile::Ds0.trained_in(Some(&models_dir(scale)));
        let hosts = CorpusBuilder::new(CorpusConfig {
            size: scale.whitebox.clamp(12, 80),
            seed: 4242,
            noise_prob: 0.0,
            ..CorpusConfig::default()
        })
        .build();
        let t0 = std::time::Instant::now();
        let wb = generate_ae_dataset(
            &ds0,
            hosts.utterances(),
            &command_phrases(),
            AeKind::WhiteBox,
            scale.whitebox,
            1,
        );
        eprintln!("[mvp-bench] {} white-box AEs in {:?}", wb.len(), t0.elapsed());
        let t1 = std::time::Instant::now();
        let bb = generate_ae_dataset(
            &ds0,
            hosts.utterances(),
            &blackbox_commands(),
            AeKind::BlackBox,
            scale.blackbox,
            2,
        );
        eprintln!("[mvp-bench] {} black-box AEs in {:?}", bb.len(), t1.elapsed());

        let mut out: Vec<(String, GeneratedAe)> = Vec::new();
        for (i, ae) in wb.into_iter().enumerate() {
            out.push((format!("wb{i}"), ae));
        }
        for (i, ae) in bb.into_iter().enumerate() {
            out.push((format!("bb{i}"), ae));
        }

        fs::create_dir_all(&wav_dir).expect("create AE wav dir");
        let mut m = String::from("id\tkind\thost\tcommand\tsimilarity\n");
        for (id, ae) in &out {
            let file = fs::File::create(wav_dir.join(format!("{id}.wav"))).expect("create AE wav");
            write_wav(std::io::BufWriter::new(file), &ae.wave).expect("write AE wav");
            m.push_str(&format!(
                "{id}\t{}\t{}\t{}\t{:.6}\n",
                ae.kind, ae.host_text, ae.command, ae.similarity
            ));
        }
        fs::write(&manifest, m).expect("write AE manifest");
        out
    }

    fn load_or_generate_transcripts(&mut self, dir: &Path) {
        let path = dir.join("transcripts.tsv");
        if path.exists() {
            for line in fs::read_to_string(&path).expect("read transcripts").lines().skip(1) {
                let cols: Vec<&str> = line.splitn(3, '\t').collect();
                assert_eq!(cols.len(), 3, "corrupt transcript line: {line}");
                let profile = PROFILES
                    .iter()
                    .find(|p| p.name() == cols[1])
                    .unwrap_or_else(|| panic!("unknown profile {}", cols[1]));
                self.transcripts.insert((cols[0].to_string(), profile.name()), cols[2].to_string());
            }
        }
        // Compute anything missing (covers both cold cache and scale bumps).
        let ids: Vec<(String, mvp_audio::Waveform)> = self
            .benign
            .utterances()
            .iter()
            .map(|u| (format!("b{}", u.id), u.wave.clone()))
            .chain(self.aes.iter().map(|(id, ae)| (id.clone(), ae.wave.clone())))
            .collect();
        let mut missing = 0usize;
        for profile in PROFILES {
            if ids
                .iter()
                .all(|(id, _)| self.transcripts.contains_key(&(id.clone(), profile.name())))
            {
                continue;
            }
            let asr = profile.trained_in(Some(&models_dir(&self.scale)));
            for (id, wave) in &ids {
                let key = (id.clone(), profile.name());
                if let std::collections::hash_map::Entry::Vacant(e) = self.transcripts.entry(key) {
                    e.insert(asr.transcribe(wave));
                    missing += 1;
                }
            }
        }
        if missing > 0 {
            eprintln!("[mvp-bench] transcribed {missing} (audio, profile) pairs");
            let mut f =
                std::io::BufWriter::new(fs::File::create(&path).expect("create transcripts cache"));
            writeln!(f, "id\tprofile\ttext").expect("write transcripts");
            let mut entries: Vec<_> = self.transcripts.iter().collect();
            entries.sort();
            for ((id, profile), text) in entries {
                writeln!(f, "{id}\t{profile}\t{text}").expect("write transcripts");
            }
        }
    }

    /// The cached transcription of audio `id` by `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not in the cache (unknown id or profile).
    pub fn transcript(&self, id: &str, profile: AsrProfile) -> &str {
        self.transcripts
            .get(&(id.to_string(), profile.name()))
            .unwrap_or_else(|| panic!("no transcript for ({id}, {profile})"))
    }

    /// Benign audio ids, in dataset order.
    pub fn benign_ids(&self) -> Vec<String> {
        self.benign.utterances().iter().map(|u| format!("b{}", u.id)).collect()
    }

    /// Similarity-score vectors of every benign sample for a system with
    /// target DS0 and the given auxiliaries.
    pub fn benign_scores(&self, aux: &[AsrProfile], method: SimilarityMethod) -> Vec<Vec<f64>> {
        self.benign_ids().iter().map(|id| self.score_vector(id, aux, method)).collect()
    }

    /// Score vectors of AEs, optionally restricted to one attack kind.
    pub fn ae_scores(
        &self,
        aux: &[AsrProfile],
        method: SimilarityMethod,
        kind: Option<AeKind>,
    ) -> Vec<Vec<f64>> {
        self.aes
            .iter()
            .filter(|(_, ae)| kind.is_none_or(|k| ae.kind == k))
            .map(|(id, _)| self.score_vector(id, aux, method))
            .collect()
    }

    /// The score vector of one cached audio id for the given system shape.
    pub fn score_vector(&self, id: &str, aux: &[AsrProfile], method: SimilarityMethod) -> Vec<f64> {
        let target = self.transcript(id, AsrProfile::Ds0);
        aux.iter().map(|&a| method.score(target, self.transcript(id, a))).collect()
    }

    /// Builds the benign/AE classification dataset for a system shape.
    pub fn dataset(&self, aux: &[AsrProfile], method: SimilarityMethod) -> Dataset {
        Dataset::from_classes(
            score_mat(self.benign_scores(aux, method)),
            score_mat(self.ae_scores(aux, method, None)),
        )
    }

    /// Paper-style system name for an auxiliary set.
    pub fn system_name(aux: &[AsrProfile]) -> String {
        format!("DS0+{{{}}}", aux.iter().map(|a| a.name()).collect::<Vec<_>>().join(", "))
    }
}
