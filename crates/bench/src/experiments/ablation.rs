//! Ablations of the design choices DESIGN.md §6 calls out: the phonetic
//! encoder inside the similarity method, and the decoder's min-run
//! denoising filter.

use mvp_asr::{Asr, AsrProfile};
use mvp_corpus::{CorpusBuilder, CorpusConfig};
use mvp_ears::SimilarityMethod;
use mvp_ml::{ClassifierKind, Dataset};
use mvp_phonetics::{Encoder, PhoneticEncoder};
use mvp_textsim::{wer, Similarity};

use crate::context::{score_mat, ExperimentContext};
use crate::table::Table;

use super::THREE_AUX;

/// Runs the three ablations in order: the `ablation` experiment.
pub fn ablation(ctx: &ExperimentContext) {
    encoder_ablation(ctx);
    baseline_comparison(ctx);
    min_run_ablation(ctx);
}

/// Detection accuracy per phonetic encoder (JaroWinkler base, 80/20 SVM on
/// the three-auxiliary system).
pub fn encoder_ablation(ctx: &ExperimentContext) {
    println!("== Ablation: phonetic encoder inside the similarity method ==");
    let mut t = Table::new(["Encoder", "Accuracy", "FPR", "FNR"]);
    let mut methods: Vec<(String, SimilarityMethod)> = vec![(
        "none (raw text)".to_string(),
        SimilarityMethod { base: Similarity::JaroWinkler, phonetic: None },
    )];
    for enc in Encoder::ALL {
        methods.push((
            enc.name().to_string(),
            SimilarityMethod { base: Similarity::JaroWinkler, phonetic: Some(enc) },
        ));
    }
    for (name, method) in methods {
        let data = Dataset::from_classes(
            score_mat(ctx.benign_scores(&THREE_AUX, method)),
            score_mat(ctx.ae_scores(&THREE_AUX, method, None)),
        );
        let (train, test) = data.split(0.8, 13);
        let mut model = ClassifierKind::Svm.build();
        model.fit(&train);
        let m = mvp_ml::BinaryMetrics::from_predictions(
            &model.predict_batch(test.features()),
            test.labels(),
        );
        t.row([
            name,
            format!("{:.2}%", m.accuracy() * 100.0),
            format!("{:.2}%", m.fpr() * 100.0),
            format!("{:.2}%", m.fnr() * 100.0),
        ]);
    }
    println!("{t}");
}

/// The training-free majority-disagreement baseline vs the learned SVM on
/// the three-auxiliary system.
pub fn baseline_comparison(ctx: &ExperimentContext) {
    println!("== Ablation: training-free majority baseline vs learned classifier ==");
    use mvp_ears::MajorityBaseline;
    let method = SimilarityMethod::default();
    let benign = ctx.benign_scores(&THREE_AUX, method);
    let aes = ctx.ae_scores(&THREE_AUX, method, None);
    let mut t = Table::new(["Detector", "Accuracy", "FPR", "FNR"]);
    for cutoff in [0.7, 0.8, 0.9] {
        let b = MajorityBaseline::new(cutoff);
        let preds: Vec<usize> =
            benign.iter().chain(&aes).map(|v| usize::from(b.is_adversarial_scores(v))).collect();
        let truth: Vec<usize> =
            std::iter::repeat_n(0, benign.len()).chain(std::iter::repeat_n(1, aes.len())).collect();
        let m = mvp_ml::BinaryMetrics::from_predictions(&preds, &truth);
        t.row([
            format!("majority baseline (cutoff {cutoff})"),
            format!("{:.2}%", m.accuracy() * 100.0),
            format!("{:.2}%", m.fpr() * 100.0),
            format!("{:.2}%", m.fnr() * 100.0),
        ]);
    }
    // The learned SVM on the same features (80/20 split for a fair test set).
    let data = Dataset::from_classes(score_mat(benign), score_mat(aes));
    let (train, test) = data.split(0.8, 13);
    let mut model = ClassifierKind::Svm.build();
    model.fit(&train);
    let m = mvp_ml::BinaryMetrics::from_predictions(
        &model.predict_batch(test.features()),
        test.labels(),
    );
    t.row([
        "learned SVM (paper design)".to_string(),
        format!("{:.2}%", m.accuracy() * 100.0),
        format!("{:.2}%", m.fpr() * 100.0),
        format!("{:.2}%", m.fnr() * 100.0),
    ]);
    println!("{t}");
}

/// Benign word-error-rate of DS0-geometry recognisers as the decoder's
/// min-run filter varies (0 disables transition denoising).
pub fn min_run_ablation(ctx: &ExperimentContext) {
    println!("== Ablation: decoder min-run transition filter vs benign WER ==");
    let corpus = CorpusBuilder::new(CorpusConfig {
        size: ctx.scale.commonvoice.max(8),
        seed: 606,
        noise_prob: 0.6,
        ..CorpusConfig::default()
    })
    .build();
    let mut t = Table::new(["min_run", "mean benign WER"]);
    for min_run in [1usize, 2, 3, 4] {
        // Rebuild a DS0-shaped recogniser with the altered decoder setting.
        let mut spec = AsrProfile::Ds0.spec();
        spec.decoder.min_run = min_run;
        let asr = retrain_with_spec(&spec);
        let mean: f64 =
            corpus.utterances().iter().map(|u| wer(&u.text, &asr.transcribe(&u.wave))).sum::<f64>()
                / corpus.len() as f64;
        t.row([min_run.to_string(), format!("{:.1}%", mean * 100.0)]);
    }
    println!("{t}");
    println!("(the default min_run = 2 suppresses one-frame transition noise)\n");
}

/// Trains a recogniser from an explicit spec (the profile cache only holds
/// the canonical specs).
fn retrain_with_spec(spec: &mvp_asr::profile::ProfileSpec) -> mvp_asr::TrainedAsr {
    use mvp_asr::{AcousticModel, Decoder, FeatureFrontEnd, TrainedAsr};
    use mvp_corpus::{command_phrases, SentenceGenerator};
    use mvp_phonetics::{Lexicon, Phoneme};

    let frontend = FeatureFrontEnd::new(spec.frontend.clone());
    let corpus = CorpusBuilder::new(CorpusConfig {
        size: spec.corpus_size,
        seed: spec.corpus_seed,
        sample_rate: 16_000,
        noise_prob: spec.noise_prob,
        noise_snr_db: (12.0, 28.0),
    })
    .build();
    let mut features = mvp_ml::Mat::zeros(0, frontend.dim());
    let mut labels = Vec::new();
    for utt in corpus.utterances() {
        let feats = frontend.features(&utt.wave);
        for row in 0..feats.n_frames() {
            let center = frontend.frame_center_sample(row);
            let label = utt
                .alignment
                .iter()
                .find(|a| center >= a.start && center < a.end)
                .map_or(Phoneme::SIL, |a| a.phoneme);
            features.push_row(feats.row(row));
            labels.push(label.index());
        }
    }
    let am = AcousticModel::train(&features, &labels, &spec.train);
    let mut lm_sentences = SentenceGenerator::new(spec.lm_seed).take_sentences(spec.lm_size);
    for cmd in command_phrases() {
        for _ in 0..3 {
            lm_sentences.push(cmd.to_string());
        }
    }
    let lm = mvp_asr::BigramLm::train(lm_sentences.iter().map(String::as_str), 0.05);
    let decoder = Decoder::new(&Lexicon::builtin(), lm, spec.decoder.clone());
    TrainedAsr::new(format!("{}*", spec.name), frontend, am, decoder)
}
