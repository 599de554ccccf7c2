//! Two-iteration recursive AE generation (paper §III).
//!
//! CommanderSong described generating an AE against one ASR, then using it
//! as the *host* for a second attack against a different ASR, hoping the
//! result fools both. The paper reproduced this and found the second attack
//! destroys the first one's effect; this module reproduces that experiment.

use mvp_asr::{Asr, TrainedAsr};
use mvp_audio::Waveform;
use mvp_textsim::wer;

use crate::report::AttackOutcome;
use crate::whitebox::{whitebox_attack, WhiteBoxConfig};

/// Result of the two-iteration recursive generation.
#[derive(Debug, Clone)]
pub struct RecursiveOutcome {
    /// First-iteration attack (against `asr_a`).
    pub first: AttackOutcome,
    /// Second-iteration attack (against `asr_b`, hosted on the first AE).
    pub second: AttackOutcome,
    /// Whether the final audio fools `asr_a` (the transfer hope).
    pub final_fools_a: bool,
    /// Whether the final audio fools `asr_b`.
    pub final_fools_b: bool,
}

/// Runs the two-iteration recursive generation of command `target_text`:
/// attack `asr_a` on `host`, then attack `asr_b` using the resulting AE as
/// host, and test which of the two models the final audio fools.
pub fn recursive_attack(
    asr_a: &TrainedAsr,
    asr_b: &TrainedAsr,
    host: &Waveform,
    target_text: &str,
    cfg: &WhiteBoxConfig,
) -> RecursiveOutcome {
    let first = whitebox_attack(asr_a, host, target_text, cfg);
    let second = whitebox_attack(asr_b, &first.adversarial, target_text, cfg);
    let final_fools_a = wer(target_text, &asr_a.transcribe(&second.adversarial)) == 0.0;
    let final_fools_b = wer(target_text, &asr_b.transcribe(&second.adversarial)) == 0.0;
    RecursiveOutcome { first, second, final_fools_a, final_fools_b }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_asr::AsrProfile;
    use mvp_audio::synth::{SpeakerProfile, Synthesizer};
    use mvp_phonetics::Lexicon;

    #[test]
    fn second_iteration_breaks_first_models_result() {
        let ds0 = AsrProfile::Ds0.trained();
        let ds1 = AsrProfile::Ds1.trained();
        let synth = Synthesizer::new(16_000);
        let (host, _) = synth.synthesize(
            &Lexicon::builtin(),
            "the teacher found the answer",
            &SpeakerProfile::default(),
        );
        let out =
            recursive_attack(&ds0, &ds1, &host, "open the front door", &WhiteBoxConfig::default());
        if out.second.success {
            // The final audio must fool the second model by construction.
            assert!(out.final_fools_b);
        }
        // Whether it *also* still fools the first model is the §III
        // transferability question; `run_all transfer` reports the measured
        // rate (the paper found essentially none). Twice-optimised audio is
        // the loudest AE this workspace produces, so no strict assertion
        // here — only consistency of the outcome record.
        assert_eq!(
            out.final_fools_a,
            wer("open the front door", &ds0.transcribe(&out.second.adversarial)) == 0.0
        );
    }
}
