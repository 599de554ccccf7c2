//! Joint (ensemble) white-box attack: craft one waveform that fools
//! *several* ASRs simultaneously.
//!
//! The paper treats multiple-ASR-effective (MAE) AEs as hypothetical and
//! synthesizes them at the feature-vector level (§V-H), citing Liu et
//! al.'s ensemble attacks in the image domain as the likely future route.
//! This module implements that route for the simulated ASRs: gradient
//! descent on the *sum* of per-model CTC losses (each backpropagated
//! through its own acoustic model and feature geometry), producing real
//! transferable audio AEs — which makes it possible to test the proactive
//! detector of §V-H against actual audio instead of synthetic vectors (see
//! the `adaptive` experiment of `run_all`).

use mvp_asr::{Asr, TrainedAsr};
use mvp_audio::Waveform;
use mvp_textsim::wer;

use crate::report::AttackOutcome;
use crate::whitebox::WhiteBoxConfig;

/// Outcome of a joint attack.
#[derive(Debug, Clone)]
pub struct JointOutcome {
    /// The crafted waveform and target-model metrics (the first model in
    /// the ensemble is treated as the reporting target).
    pub outcome: AttackOutcome,
    /// Per-model success flags, in ensemble order.
    pub fooled: Vec<bool>,
}

impl JointOutcome {
    /// Whether every model in the ensemble was fooled.
    pub fn fools_all(&self) -> bool {
        self.fooled.iter().all(|&f| f)
    }
}

/// Runs the joint attack: optimise `host + δ` until **every** ASR in
/// `ensemble` transcribes it as `target_text` (or the iteration budget runs
/// out). `cfg.max_iters` applies per escalation attempt, as in the
/// single-model attack.
///
/// # Panics
///
/// Panics if `ensemble` or `host` is empty, or the target text has no
/// pronounceable words.
pub fn joint_attack(
    ensemble: &[&TrainedAsr],
    host: &Waveform,
    target_text: &str,
    cfg: &WhiteBoxConfig,
) -> JointOutcome {
    assert!(!ensemble.is_empty(), "empty ensemble");
    assert!(!host.is_empty(), "host audio is empty");
    let target = TrainedAsr::target_indices(target_text);
    assert!(!target.is_empty(), "target text has no phonemes");

    let n = host.len();
    let host_f64 = host.to_f64();
    let make_wave = |delta: &[f64]| -> Waveform {
        Waveform::from_samples(
            host_f64.iter().zip(delta).map(|(&h, &d)| (h + d) as f32).collect(),
            host.sample_rate(),
        )
    };
    let fooled_mask = |wave: &Waveform| -> Vec<bool> {
        ensemble.iter().map(|asr| wer(target_text, &asr.transcribe(wave)) == 0.0).collect()
    };

    let mut delta = vec![0.0f64; n];
    let mut iterations = 0usize;
    let mut last_loss = f64::INFINITY;
    let mut bound = cfg.linf_bound;
    let mut align = cfg.align_weight;
    let mut lr = cfg.learning_rate;

    for attempt in 0..=cfg.escalations {
        if attempt > 0 {
            bound *= 1.6;
            align *= 4.0;
            lr *= 1.5;
        }
        let (mut m, mut v) = (vec![0.0f64; n], vec![0.0f64; n]);
        let (b1, b2, eps) = (0.9, 0.999, 1e-8);
        // Per-model weights: already-fooled models are kept warm at a low
        // weight while the optimiser concentrates on the stragglers —
        // plain loss summation lets one model dominate and the ensemble
        // oscillates between satisfying one and the other.
        let mut weights = vec![1.0f64; ensemble.len()];
        for it in 0..cfg.max_iters {
            iterations += 1;
            let wave = make_wave(&delta);
            let mut total_loss = 0.0;
            let mut grad = vec![0.0f64; n];
            for (asr, &w) in ensemble.iter().zip(&weights) {
                let (loss, g) = asr.attack_loss_and_input_grad(&wave, &target, align);
                if loss.is_finite() {
                    total_loss += w * loss;
                    for (a, b) in grad.iter_mut().zip(&g) {
                        *a += w * b;
                    }
                }
            }
            last_loss = total_loss;
            if it % cfg.check_every == 0 {
                let mask = fooled_mask(&wave);
                if mask.iter().all(|&f| f) {
                    let text = ensemble[0].transcribe(&wave);
                    return JointOutcome {
                        outcome: AttackOutcome::new(
                            host, wave, true, text, iterations, 0, total_loss,
                        ),
                        fooled: mask,
                    };
                }
                for (w, &f) in weights.iter_mut().zip(&mask) {
                    *w = if f { 0.25 } else { 1.0 };
                }
            }
            let t = (it + 1) as f64;
            for i in 0..n {
                let g = grad[i] + 2.0 * cfg.l2_penalty * delta[i];
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let mh = m[i] / (1.0 - b1.powf(t));
                let vh = v[i] / (1.0 - b2.powf(t));
                delta[i] -= lr * mh / (vh.sqrt() + eps);
                delta[i] = delta[i].clamp(-bound, bound);
            }
        }
        let wave = make_wave(&delta);
        if fooled_mask(&wave).iter().all(|&f| f) {
            break;
        }
    }

    let wave = make_wave(&delta);
    let mask = fooled_mask(&wave);
    let success = mask.iter().all(|&f| f);
    let text = ensemble[0].transcribe(&wave);
    JointOutcome {
        outcome: AttackOutcome::new(host, wave, success, text, iterations, 0, last_loss),
        fooled: mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_asr::AsrProfile;
    use mvp_audio::synth::{SpeakerProfile, Synthesizer};
    use mvp_phonetics::Lexicon;

    #[test]
    fn joint_attack_on_twin_models_fools_both() {
        let ds0 = AsrProfile::Ds0.trained();
        let ds1 = AsrProfile::Ds1.trained();
        let synth = Synthesizer::new(16_000);
        let (host, _) = synth.synthesize(
            &Lexicon::builtin(),
            "the student found the book",
            &SpeakerProfile::default(),
        );
        let ensemble = [ds0.as_ref(), ds1.as_ref()];
        let out =
            joint_attack(&ensemble, &host, "unlock the garage", &WhiteBoxConfig::for_ensemble());
        assert!(out.fools_all(), "joint attack failed: {:?}", out.fooled);
        assert_eq!(ds0.transcribe(&out.outcome.adversarial), "unlock the garage");
        assert_eq!(ds1.transcribe(&out.outcome.adversarial), "unlock the garage");
    }

    #[test]
    #[should_panic(expected = "empty ensemble")]
    fn empty_ensemble_rejected() {
        let host = Waveform::from_samples(vec![0.1; 100], 16_000);
        joint_attack(&[], &host, "open the door", &WhiteBoxConfig::default());
    }
}
