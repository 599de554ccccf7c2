//! Multi-modal detection benchmark: per-modality AUC and extraction
//! latency against the similarity-only baseline, plus the fused
//! similarity + modality classifier.
//!
//! Every cached audio (benign and AE) is reduced to its modality
//! evidence with the same `DetectionSystem` registry the serve path
//! uses; AUCs come from a logistic scorer fitted per feature family so
//! multi-dimensional blocks reduce to one calibrated scalar in the
//! workspace's score orientation (higher = more benign). Results print
//! as a table and are written to `BENCH_modality.json`.

use mvp_asr::AsrProfile;
use mvp_ears::{DetectionSystem, SimilarityMethod};
use mvp_ml::{auc, roc_curve, Classifier, ClassifierKind, Dataset, LogisticRegression, Mat};
use mvp_modality::ModalityKind;
use mvp_obs::JsonObj;

use crate::context::{score_mat, ExperimentContext};
use crate::experiments::{Metrics, THREE_AUX};
use crate::table::Table;

/// Output artifact file name, written under the context's `out_dir`.
pub const ARTIFACT: &str = "BENCH_modality.json";

/// One audio's complete evidence: similarity scores plus every modality
/// block, with per-family extraction wall time.
struct Evidence {
    /// 0 = benign, 1 = adversarial.
    label: usize,
    /// Per-auxiliary similarity scores (cached transcripts).
    sims: Vec<f64>,
    /// One feature block per modality, in registry order.
    blocks: Vec<Vec<f64>>,
    /// Wall time spent scoring each modality block.
    block_us: Vec<u64>,
}

/// Fits a logistic scorer on one feature family and returns its AUC in
/// the workspace orientation (low scalar = flagged adversarial). The
/// scorer reduces multi-dimensional blocks to one calibrated scalar so
/// families of different widths compare on the same footing. Features
/// are standardised per dimension first: gradient descent with one
/// shared learning rate stalls on blocks whose scales differ by orders
/// of magnitude, which would penalise exactly the wide fused rows this
/// benchmark exists to compare.
pub(crate) fn family_auc(rows: &[(usize, Vec<f64>)]) -> f64 {
    let dim = rows.first().map_or(0, |(_, r)| r.len());
    let n = rows.len().max(1) as f64;
    let mean: Vec<f64> =
        (0..dim).map(|j| rows.iter().map(|(_, r)| r[j]).sum::<f64>() / n).collect();
    let std: Vec<f64> = (0..dim)
        .map(|j| {
            let var = rows.iter().map(|(_, r)| (r[j] - mean[j]).powi(2)).sum::<f64>() / n;
            var.sqrt().max(1e-9)
        })
        .collect();
    let zscore = |r: &[f64]| -> Vec<f64> {
        r.iter().enumerate().map(|(j, v)| (v - mean[j]) / std[j]).collect()
    };

    let class = |label: usize| -> Mat {
        score_mat(rows.iter().filter(|(l, _)| *l == label).map(|(_, r)| zscore(r)).collect())
    };
    let data = Dataset::from_classes(class(0), class(1));
    let mut lr = LogisticRegression::new();
    lr.fit(&data);
    // `probability` is P(adversarial); flip it so higher = more benign,
    // matching `roc_curve`'s low-score-is-positive sweep.
    let scores: Vec<f64> = rows.iter().map(|(_, r)| 1.0 - lr.probability(&zscore(r))).collect();
    let labels: Vec<usize> = rows.iter().map(|(l, _)| *l).collect();
    auc(&roc_curve(&scores, &labels))
}

/// Collects per-audio evidence, computes every AUC, trains the fused
/// classifier, prints the table and writes [`ARTIFACT`]. Returns
/// `fused_auc_gain`, the fused AUC minus the similarity-only AUC.
pub fn run_modality_bench(ctx: &ExperimentContext) -> Metrics {
    println!("== detection modalities: AUC and latency vs similarity-only ==");
    let method = SimilarityMethod::default();
    let aux: Vec<AsrProfile> = THREE_AUX.to_vec();
    let kinds = ModalityKind::ALL;

    // Warm-start every ASR from the context's artifact cache instead of
    // retraining; the run measures modality scoring, not ASR training.
    let models = ctx.models_dir();
    let mut system = DetectionSystem::builder_for(AsrProfile::Ds0.trained_in(Some(&models)))
        .auxiliary_asr(aux[0].trained_in(Some(&models)))
        .auxiliary_asr(aux[1].trained_in(Some(&models)))
        .auxiliary_asr(aux[2].trained_in(Some(&models)))
        .modality_kinds(&kinds)
        .build();
    system.train_on_scores(
        &ctx.benign_scores(&aux, method),
        &ctx.ae_scores(&aux, method, None),
        ClassifierKind::Svm,
    );

    // Reduce every cached audio to its evidence. Similarity scores come
    // from the transcript cache; modality blocks are computed fresh (and
    // timed) on the waveform, exactly as the serve path would.
    let samples: Vec<(String, &mvp_audio::Waveform, usize)> = ctx
        .benign
        .utterances()
        .iter()
        .map(|u| (format!("b{}", u.id), &u.wave, 0))
        .chain(ctx.aes.iter().map(|(id, ae)| (id.clone(), &ae.wave, 1)))
        .collect();
    let evidence: Vec<Evidence> = samples
        .iter()
        .map(|(id, wave, label)| {
            let target = ctx.transcript(id, AsrProfile::Ds0);
            let outcomes = system.score_modalities(wave, target);
            Evidence {
                label: *label,
                sims: ctx.score_vector(id, &aux, method),
                blocks: outcomes.iter().map(|o| o.features.clone()).collect(),
                block_us: outcomes.iter().map(|o| o.elapsed_us).collect(),
            }
        })
        .collect();
    let n_benign = evidence.iter().filter(|e| e.label == 0).count();
    let n_ae = evidence.len() - n_benign;

    // The fused classifier the detection system actually serves, trained
    // on the raw rows (similarity ++ blocks); its augmented rows carry
    // the one-class instability feature as well.
    let raw_rows: Vec<(usize, Vec<f64>)> = evidence
        .iter()
        .map(|e| {
            let mut row = e.sims.clone();
            for block in &e.blocks {
                row.extend_from_slice(block);
            }
            (e.label, row)
        })
        .collect();
    let class_mat = |label: usize| -> Mat {
        score_mat(raw_rows.iter().filter(|(l, _)| *l == label).map(|(_, r)| r.clone()).collect())
    };
    system.train_fused_on_mats(class_mat(0), class_mat(1), ClassifierKind::Svm);
    let fused = system.fused_classifier().expect("just trained");
    let fused_rows: Vec<(usize, Vec<f64>)> =
        raw_rows.iter().map(|(l, r)| (*l, fused.augment(r))).collect();

    let sim_rows: Vec<(usize, Vec<f64>)> =
        evidence.iter().map(|e| (e.label, e.sims.clone())).collect();
    let similarity_auc = family_auc(&sim_rows);
    let fused_auc = family_auc(&fused_rows);

    let mut table = Table::new(["family", "dim", "auc", "mean extract us"]);
    table.row([
        "similarity (baseline)".into(),
        aux.len().to_string(),
        format!("{similarity_auc:.4}"),
        "cached".into(),
    ]);
    let mut modality_json = Vec::new();
    for (i, kind) in kinds.iter().enumerate() {
        let rows: Vec<(usize, Vec<f64>)> =
            evidence.iter().map(|e| (e.label, e.blocks[i].clone())).collect();
        let modality_auc = family_auc(&rows);
        let mean_us = evidence.iter().map(|e| e.block_us[i] as f64).sum::<f64>()
            / evidence.len().max(1) as f64;
        table.row([
            kind.name().into(),
            kind.feature_dim().to_string(),
            format!("{modality_auc:.4}"),
            format!("{mean_us:.0}"),
        ]);
        modality_json.push(
            JsonObj::new()
                .str("name", kind.name())
                .u64("dim", kind.feature_dim() as u64)
                .f64("auc", modality_auc)
                .f64("mean_extract_us", mean_us)
                .finish(),
        );
    }
    table.row([
        "fused (sim + modalities)".into(),
        fused.layout().fused_dim().to_string(),
        format!("{fused_auc:.4}"),
        "-".into(),
    ]);
    println!("{table}");
    println!(
        "fused AUC {fused_auc:.4} vs similarity-only {similarity_auc:.4} \
         ({n_benign} benign / {n_ae} AE)"
    );

    let json = format!(
        "{}\n",
        JsonObj::new()
            .str("scale", ctx.scale.name)
            .u64("n_benign", n_benign as u64)
            .u64("n_ae", n_ae as u64)
            .f64("similarity_auc", similarity_auc)
            .f64("fused_auc", fused_auc)
            .u64("fused_dim", fused.layout().fused_dim() as u64)
            .raw("modalities", &format!("[{}]", modality_json.join(",")))
            .finish()
    );
    ctx.write_artifact(ARTIFACT, &json);
    vec![("fused_auc_gain", fused_auc - similarity_auc)]
}
