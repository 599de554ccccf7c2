//! The verdict check: every served verdict is recomputed in-process
//! through the public core API and must agree (see [`agrees`]).
//!
//! One-shot requests go through `DetectionSystem::detect`; streams
//! through `DetectionSystem::stream_begin` with the same 60 ms chunking
//! and early-exit rule. The reference system is built over the
//! process-wide model cache (int8 auxiliaries via `auxiliary_variant`)
//! and carries the served system's fitted classifiers.

use std::collections::HashMap;
use std::sync::Mutex;

use mvp_ears::{Detection, DetectionSystem, EarlyExit, FusedClassifier, SimilarityMethod};
use mvp_ml::FittedClassifier;
use mvp_serve::VerdictKind;

use crate::drive::{Served, Window, CHUNK_SAMPLES};
use crate::inputs::{decode_wav, Corpus};
use crate::models::reference_builder;
use crate::workload::{Plan, Workload};

/// The in-process verdict for one input.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// The classification of the whole input.
    pub is_adversarial: bool,
    /// Similarity scores of the whole input, one per auxiliary.
    pub scores: Vec<f64>,
    /// Answered by the fused classifier.
    pub fused: bool,
    /// For streams: the running scores at which the early-exit rule
    /// fired in-process, if it fired.
    pub early: Option<Vec<f64>>,
    /// For streams: the running `(target, auxiliaries)` transcripts after
    /// every chunk.
    pub running: Vec<(String, Vec<String>)>,
}

impl From<Detection> for Expected {
    fn from(d: Detection) -> Expected {
        Expected {
            is_adversarial: d.is_adversarial,
            scores: d.scores,
            fused: d.fused,
            early: None,
            running: Vec::new(),
        }
    }
}

/// How a served verdict compares with the in-process one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Agreement {
    /// The verdict agrees (see [`agrees`]); a disagreement is a failure.
    pub verdict: bool,
    /// The early-exit decision agrees: fired at the same running scores,
    /// or fired in neither.
    pub early: bool,
}

/// Builds the reference system for `workload`.
pub fn reference_system(
    workload: Workload,
    classifier: &FittedClassifier,
    fused: Option<&FusedClassifier>,
) -> DetectionSystem {
    let mut system = reference_builder(workload.is_fused_int8()).build();
    system.set_classifier(classifier.clone());
    if let Some(fused) = fused {
        system.set_fused_classifier(fused.clone());
    }
    system
}

/// The in-process verdict of one stream, chunked as the callers chunk:
/// the end-of-stream detection, the running scores at which the
/// early-exit rule fired (if it did), and — when `with_running` — the
/// running transcripts.
pub fn stream_detect(system: &DetectionSystem, samples: &[f32], with_running: bool) -> Expected {
    let mut stream = system.stream_begin(Some(EarlyExit::default()));
    let mut early = None;
    let mut running = Vec::new();
    for chunk in samples.chunks(CHUNK_SAMPLES) {
        if let Some(fired) = stream.push_f32(system, chunk) {
            early.get_or_insert_with(|| fired.scores.clone());
        }
        if with_running {
            let (target, auxiliaries, _) = stream.running(system);
            running.push((target, auxiliaries));
        }
    }
    Expected { early, running, ..stream.finish(system).into() }
}

/// Recomputes the verdict of every distinct input the window offered,
/// split over `threads` threads. Running transcripts are only kept for
/// streams the engine answered early, the only verdicts that need them.
pub fn expected(
    system: &DetectionSystem,
    corpus: &Corpus,
    plan: &Plan,
    window: &Window,
    streams: bool,
    threads: usize,
) -> HashMap<usize, Expected> {
    let mut inputs: Vec<usize> = window.outcomes.iter().map(|o| o.input as usize).collect();
    inputs.sort_unstable();
    inputs.dedup();
    let answered_early: std::collections::HashSet<usize> =
        window.answered().filter(|(_, v)| v.early_exit).map(|(o, _)| o.input as usize).collect();
    let out = Mutex::new(HashMap::with_capacity(inputs.len()));
    let per = inputs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for part in inputs.chunks(per) {
            let (out, answered_early) = (&out, &answered_early);
            s.spawn(move || {
                for &input in part {
                    let wave = decode_wav(&corpus.wav(plan.inputs[input]));
                    let expected = if streams {
                        stream_detect(system, wave.samples(), answered_early.contains(&input))
                    } else {
                        system.detect(&wave).into()
                    };
                    out.lock().expect("oracle lock").insert(input, expected);
                }
            });
        }
    });
    out.into_inner().expect("oracle lock")
}

fn same_scores(served: &[Option<f64>], expected: &[f64]) -> bool {
    served.len() == expected.len()
        && served.iter().zip(expected).all(|(s, e)| s.is_some_and(|s| s.to_bits() == e.to_bits()))
}

/// Whether an early verdict's target text and scores come from real
/// running transcripts of the input: the target's transcript after some
/// chunk, scored against each auxiliary's transcript after some chunk.
fn from_running(
    served: &Served,
    running: &[(String, Vec<String>)],
    method: SimilarityMethod,
) -> bool {
    let Some(target) = &served.target else { return false };
    running.iter().any(|(t, _)| t == target)
        && served.scores.iter().enumerate().all(|(j, score)| {
            score.is_some_and(|score| {
                running.iter().any(|(_, aux)| {
                    aux.get(j).is_some_and(|a| method.score(target, a).to_bits() == score.to_bits())
                })
            })
        })
}

/// Compares a served verdict with the in-process one.
///
/// The verdict must be a full one. A verdict decided on the whole input
/// must match the in-process classification, fused flag and scores bit
/// for bit. An early stream verdict must be `Adversarial`, and its target
/// text and scores must come from the input's in-process running
/// transcripts. The engine scores whatever each recogniser has decoded
/// when the slowest one reports a chunk, so with chunks pushed back to
/// back the chunk at which it fires is not reproducible; whether it
/// fired exactly where the in-process stream fires is reported as
/// [`Agreement::early`], not counted as a failure.
pub fn agrees(served: &Served, expected: &Expected, method: SimilarityMethod) -> Agreement {
    let early = match (&expected.early, served.early_exit) {
        (Some(scores), true) => same_scores(&served.scores, scores),
        (None, false) => true,
        _ => false,
    };
    let verdict = served.kind == VerdictKind::Full
        && if served.early_exit {
            served.is_adversarial == Some(true) && from_running(served, &expected.running, method)
        } else {
            served.is_adversarial == Some(expected.is_adversarial)
                && served.fused == expected.fused
                && same_scores(&served.scores, &expected.scores)
        };
    Agreement { verdict, early }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(scores: Vec<Option<f64>>) -> Served {
        Served {
            is_adversarial: Some(true),
            kind: VerdictKind::Full,
            from_cache: false,
            fused: false,
            early_exit: false,
            scores,
            target: Some("open the door".into()),
        }
    }

    fn whole(is_adversarial: bool, scores: Vec<f64>) -> Expected {
        Expected { is_adversarial, scores, fused: false, early: None, running: Vec::new() }
    }

    #[test]
    fn whole_input_verdicts_must_match_exactly() {
        let m = SimilarityMethod::default();
        let e = whole(true, vec![0.25, 0.5]);
        let ok = Agreement { verdict: true, early: true };
        assert_eq!(agrees(&served(vec![Some(0.25), Some(0.5)]), &e, m), ok);
        assert!(!agrees(&served(vec![Some(0.25), Some(0.5 + 1e-12)]), &e, m).verdict);
        assert!(!agrees(&served(vec![Some(0.25), None]), &e, m).verdict);
        let mut failed = served(vec![Some(0.25), Some(0.5)]);
        failed.kind = VerdictKind::Failed;
        assert!(!agrees(&failed, &e, m).verdict);
        let mut benign = served(vec![Some(0.25), Some(0.5)]);
        benign.is_adversarial = Some(false);
        assert!(!agrees(&benign, &e, m).verdict);
    }

    #[test]
    fn early_stream_verdicts_must_come_from_running_transcripts() {
        let m = SimilarityMethod::default();
        let running = vec![
            ("open".to_string(), vec!["close".to_string(), "".to_string()]),
            ("open the door".to_string(), vec!["close the door".to_string(), "hello".to_string()]),
        ];
        // Target after chunk 2 scored against auxiliary 0 after chunk 2
        // and auxiliary 1 after chunk 1: a mix the engine can produce.
        let scores = vec![m.score("open the door", "close the door"), m.score("open the door", "")];
        let mut early = served(scores.iter().copied().map(Some).collect());
        early.early_exit = true;
        let fired = Expected {
            early: Some(scores.clone()),
            running: running.clone(),
            ..whole(true, vec![0.3, 0.3])
        };
        assert_eq!(agrees(&early, &fired, m), Agreement { verdict: true, early: true });
        let elsewhere = Expected { early: Some(vec![0.0, 0.2]), ..fired.clone() };
        assert_eq!(agrees(&early, &elsewhere, m), Agreement { verdict: true, early: false });
        let mut invented = early.clone();
        invented.scores[1] = Some(0.123);
        assert!(!agrees(&invented, &fired, m).verdict);
        let mut other_target = early.clone();
        other_target.target = Some("turn on the light".into());
        assert!(!agrees(&other_target, &fired, m).verdict);
        // A stream the engine settled at the end while the in-process
        // rule fired early: the verdict still has to match the whole input.
        let end = served(vec![Some(0.3), Some(0.3)]);
        assert_eq!(agrees(&end, &fired, m), Agreement { verdict: true, early: false });
    }
}
