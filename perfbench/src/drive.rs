//! The closed-loop load generator: a fixed set of caller threads, each
//! offering its next request only once its previous verdict is in hand.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mvp_serve::{DetectionEngine, Verdict, VerdictKind};

use crate::inputs::{decode_wav, Corpus};
use crate::workload::{Input, Plan};

/// Samples per streamed chunk: 60 ms at 16 kHz.
pub const CHUNK_SAMPLES: usize = 960;

/// Most callers the benchmark ever runs.
pub const MAX_CALLERS: usize = 2;

/// Caller threads for a host with `nproc` cores: one per core, at most
/// [`MAX_CALLERS`], never more than the host has.
pub fn caller_count(nproc: usize) -> usize {
    nproc.clamp(1, MAX_CALLERS)
}

/// What the benchmark keeps of one served verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The classification (`None` when the request failed).
    pub is_adversarial: Option<bool>,
    /// How the verdict was produced.
    pub kind: VerdictKind,
    /// Answered from the transcription cache.
    pub from_cache: bool,
    /// Answered by the fused classifier.
    pub fused: bool,
    /// Answered before end of stream.
    pub early_exit: bool,
    /// Per-auxiliary similarity scores.
    pub scores: Vec<Option<f64>>,
    /// The target transcription the verdict was decided on.
    pub target: Option<String>,
}

impl From<Verdict> for Served {
    fn from(v: Verdict) -> Served {
        Served {
            is_adversarial: v.is_adversarial,
            kind: v.kind,
            from_cache: v.from_cache,
            fused: v.fused,
            early_exit: v.early_exit,
            scores: v.scores,
            target: v.target_transcription,
        }
    }
}

/// One offered request, kept compact: a replay window offers over a
/// hundred thousand, and the record must not grow the process much.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Index of the input in the plan's `inputs`.
    pub input: u32,
    /// Index of the verdict in [`Window::verdicts`], or `None` when the
    /// request was shed or refused.
    pub verdict: Option<u32>,
    /// Seconds from the window start to the offer.
    pub offered_at: f32,
    /// Seconds from WAV bytes in hand (one-shot) or stream open (streams)
    /// to the verdict in hand.
    pub latency: f32,
}

impl Outcome {
    /// Seconds from the window start to the verdict.
    pub fn done_at(&self) -> f64 {
        f64::from(self.offered_at) + f64::from(self.latency)
    }
}

/// The record of one closed-loop window.
#[derive(Debug, Default)]
pub struct Window {
    /// Every offered request, in completion order.
    pub outcomes: Vec<Outcome>,
    /// The distinct verdicts served for each input (a replayed input is
    /// answered identically every time, so it is stored once).
    pub verdicts: Vec<Served>,
    /// Seconds from the window start to the last verdict.
    pub elapsed: f64,
}

impl Window {
    /// The verdict of `outcome`, if it was answered.
    pub fn verdict(&self, outcome: &Outcome) -> Option<&Served> {
        outcome.verdict.map(|i| &self.verdicts[i as usize])
    }

    /// Every answered request with its verdict.
    pub fn answered(&self) -> impl Iterator<Item = (&Outcome, &Served)> {
        self.outcomes.iter().filter_map(|o| self.verdict(o).map(|v| (o, v)))
    }

    /// Cuts the window into `k` equal time slices: the latencies (ms,
    /// ascending) of the verdicts completed in each, and the slice length
    /// in seconds.
    pub fn slices(&self, k: usize) -> (Vec<Vec<f64>>, f64) {
        let k = k.max(1);
        let width = self.elapsed.max(1e-9) / k as f64;
        let mut slices = vec![Vec::new(); k];
        for (o, _) in self.answered() {
            let i = ((o.done_at() / width) as usize).min(k - 1);
            slices[i].push(f64::from(o.latency) * 1e3);
        }
        for s in &mut slices {
            s.sort_by(f64::total_cmp);
        }
        (slices, width)
    }

    /// Records one request; identical verdicts for an input share one slot.
    fn record(
        &mut self,
        seen: &mut HashMap<u32, Vec<u32>>,
        input: u32,
        offered_at: f32,
        latency: f32,
        verdict: Option<Served>,
    ) {
        let verdict = verdict.map(|v| {
            let slots = seen.entry(input).or_default();
            match slots.iter().find(|&&i| self.verdicts[i as usize] == v) {
                Some(&i) => i,
                None => {
                    self.verdicts.push(v);
                    let i = (self.verdicts.len() - 1) as u32;
                    slots.push(i);
                    i
                }
            }
        });
        self.outcomes.push(Outcome { input, verdict, offered_at, latency });
    }

    /// Appends another caller's window.
    fn merge(&mut self, other: Window) {
        let base = self.verdicts.len() as u32;
        self.verdicts.extend(other.verdicts);
        self.outcomes.extend(
            other
                .outcomes
                .into_iter()
                .map(|o| Outcome { verdict: o.verdict.map(|i| i + base), ..o }),
        );
    }
}

/// Offers one one-shot request: decode the WAV bytes, submit, wait.
fn oneshot(engine: &DetectionEngine, wav: &[u8]) -> Option<Served> {
    let wave = decode_wav(wav);
    engine.submit(wave).ok().map(|pending| pending.wait().into())
}

/// Offers one stream: open, push 60 ms chunks back to back (stopping
/// once an early verdict is in), finish. Returns the verdict and when it
/// was first in hand.
fn stream(engine: &DetectionEngine, samples: &[f32]) -> (Option<Served>, Instant) {
    let Ok(mut handle) = engine.submit_stream() else { return (None, Instant::now()) };
    let mut early_at = None;
    for chunk in samples.chunks(CHUNK_SAMPLES) {
        if handle.push(chunk).is_err() {
            break;
        }
        if handle.try_verdict().is_some() {
            early_at = Some(Instant::now());
            break;
        }
    }
    let verdict = handle.finish().ok().map(Served::from);
    (verdict, early_at.unwrap_or_else(Instant::now))
}

/// Runs the closed loop: `callers` threads take the plan's requests in
/// order until `seconds` have passed (or a fresh plan runs out), each
/// waiting for its verdict before offering the next. `on_request` runs
/// in the caller before each request is offered (the trace A/B hook).
pub fn run(
    engine: &DetectionEngine,
    corpus: &Corpus,
    plan: &Plan,
    callers: usize,
    seconds: f64,
    streams: bool,
    on_request: &(dyn Fn(Duration) + Sync),
) -> Window {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Window::default());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let since = |t: Instant| (t - start).as_secs_f32();
    std::thread::scope(|s| {
        for _ in 0..callers {
            s.spawn(|| {
                let mut mine = Window::default();
                let mut seen = HashMap::new();
                loop {
                    if Instant::now() >= deadline {
                        break;
                    }
                    let Some(input) = plan.input_at(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let wav = corpus.wav(plan.inputs[input]);
                    on_request(Instant::now() - start);
                    let (verdict, began, done) = if streams {
                        let samples = decode_wav(&wav).samples().to_vec();
                        let opened = Instant::now();
                        let (verdict, done) = stream(engine, &samples);
                        (verdict, opened, done)
                    } else {
                        let offered = Instant::now();
                        (oneshot(engine, &wav), offered, Instant::now())
                    };
                    let latency = (done - began).as_secs_f32();
                    mine.record(&mut seen, input as u32, since(began), latency, verdict);
                }
                merged.lock().expect("window lock").merge(mine);
            });
        }
    });
    let mut window = merged.into_inner().expect("window lock");
    window.outcomes.sort_by(|a, b| a.done_at().total_cmp(&b.done_at()));
    window.elapsed = window.outcomes.last().map_or(0.0, Outcome::done_at);
    window
}

/// Serves `inputs` once each through the same closed loop, outside
/// any timed window: engine warm-up, and the replay workload's cache
/// fill.
pub fn warm(
    engine: &DetectionEngine,
    corpus: &Corpus,
    inputs: &[Input],
    callers: usize,
    streams: bool,
) {
    let plan =
        Plan { inputs: inputs.to_vec(), order: (0..inputs.len() as u32).collect(), cyclic: false };
    run(engine, corpus, &plan, callers, 3_600.0, streams, &|_| {});
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(adversarial: bool) -> Served {
        Served {
            is_adversarial: Some(adversarial),
            kind: VerdictKind::Full,
            from_cache: true,
            fused: false,
            early_exit: false,
            scores: vec![Some(0.5)],
            target: None,
        }
    }

    #[test]
    fn repeated_verdicts_share_a_slot_across_callers() {
        let (mut a, mut b) = (Window::default(), Window::default());
        let (mut seen_a, mut seen_b) = (HashMap::new(), HashMap::new());
        a.record(&mut seen_a, 0, 0.1, 0.001, Some(served(true)));
        a.record(&mut seen_a, 0, 0.2, 0.001, Some(served(true)));
        a.record(&mut seen_a, 1, 0.3, 0.001, None);
        b.record(&mut seen_b, 0, 0.15, 0.001, Some(served(false)));
        assert_eq!(a.verdicts.len(), 1);
        a.merge(b);
        assert_eq!(a.outcomes.len(), 4);
        assert_eq!(a.verdicts.len(), 2);
        let flags: Vec<Option<bool>> =
            a.outcomes.iter().map(|o| a.verdict(o).and_then(|v| v.is_adversarial)).collect();
        assert_eq!(flags, [Some(true), Some(true), None, Some(false)]);
        assert_eq!(a.answered().count(), 3);
    }

    #[test]
    fn callers_never_exceed_the_host() {
        for nproc in 1..=64 {
            let n = caller_count(nproc);
            assert!(n >= 1 && n <= nproc && n <= MAX_CALLERS, "nproc {nproc} -> {n}");
        }
        assert_eq!(caller_count(2), 2);
        assert_eq!(caller_count(1), 1);
    }
}
