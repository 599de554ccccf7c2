//! The four named workloads and their seeded request plans.
//!
//! A plan is a list of distinct inputs plus the order in which the
//! callers offer them. The same seed always yields the same plan; the
//! inputs themselves are materialised on demand by [`crate::inputs`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot `submit`; every request is distinct audio.
    OneshotFresh,
    /// One-shot `submit` over a warmed hot set: every request hits the cache.
    OneshotReplay,
    /// Chunked streams with the default early-exit rule armed.
    StreamEarlyExit,
    /// One-shot fresh audio through the fused, all-int8-auxiliary detector.
    FusedInt8,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::OneshotFresh,
        Workload::OneshotReplay,
        Workload::StreamEarlyExit,
        Workload::FusedInt8,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotFresh => "oneshot-fresh",
            Workload::OneshotReplay => "oneshot-replay",
            Workload::StreamEarlyExit => "stream-early-exit",
            Workload::FusedInt8 => "fused-int8",
        }
    }

    /// Resolves a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests are chunked streams rather than one-shot submissions.
    pub fn is_stream(self) -> bool {
        self == Workload::StreamEarlyExit
    }

    /// The served system is the fused detector with int8 auxiliaries.
    pub fn is_fused_int8(self) -> bool {
        self == Workload::FusedInt8
    }
}

/// One distinct request input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Input {
    /// The `i`-th cached quick-scale AE, in manifest order.
    Ae(usize),
    /// Benign base utterance `base`; `variant == 0` is the utterance as
    /// synthesised, any other value seeds a distinct re-recording of it
    /// (gain and low-level room noise).
    Benign { base: usize, variant: u64 },
}

impl Input {
    /// Whether the input is adversarial (the detection label).
    pub fn is_ae(self) -> bool {
        matches!(self, Input::Ae(_))
    }
}

/// A seeded request plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The distinct inputs.
    pub inputs: Vec<Input>,
    /// The offered order, as indices into `inputs`.
    pub order: Vec<u32>,
    /// Replay the order from the start once it runs out (only for the
    /// cached hot set; fresh plans end instead, so no input repeats).
    pub cyclic: bool,
}

impl Plan {
    /// The input offered as request number `k`, or `None` once a
    /// non-cyclic plan is exhausted.
    pub fn input_at(&self, k: usize) -> Option<usize> {
        if self.order.is_empty() || (!self.cyclic && k >= self.order.len()) {
            return None;
        }
        Some(self.order[k % self.order.len()] as usize)
    }
}

/// Benign requests available to a fresh plan. Far more than any run can
/// consume, so a fresh workload never runs out of distinct audio.
const FRESH_BENIGN: usize = 50_000;

/// Hot-set replays precomputed per plan (each a fresh permutation).
const REPLAY_ROUNDS: usize = 64;

/// Uniform Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// A nonzero variant seed (0 is reserved for the unperturbed utterance).
fn variant_seed(rng: &mut StdRng) -> u64 {
    rng.gen::<u64>() | 1
}

/// Builds the request plan of `workload` for `seed`, over `n_ae` cached
/// AEs and `n_base` benign base utterances.
///
/// Fresh plans (every workload but replay) put each AE exactly once in
/// the first `2 · n_ae` requests, alternating with benign ones, so even
/// a short window offers the whole AE set; the rest is benign audio that
/// never repeats: re-recordings of the base utterances, each base once
/// per round. The replay plan is the hot set (every AE plus the
/// base utterances) offered in fresh seeded permutations.
///
/// # Panics
///
/// Panics if `n_base` is zero.
pub fn plan(workload: Workload, seed: u64, n_ae: usize, n_base: usize) -> Plan {
    assert!(n_base > 0, "need at least one benign base utterance");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    if workload == Workload::OneshotReplay {
        let mut inputs: Vec<Input> = (0..n_ae).map(Input::Ae).collect();
        inputs.extend((0..n_base).map(|base| Input::Benign { base, variant: 0 }));
        let n = inputs.len() as u32;
        let mut order = Vec::with_capacity(n as usize * REPLAY_ROUNDS);
        for _ in 0..REPLAY_ROUNDS {
            let mut round: Vec<u32> = (0..n).collect();
            shuffle(&mut round, &mut rng);
            order.extend(round);
        }
        return Plan { inputs, order, cyclic: true };
    }
    let mut aes: Vec<Input> = (0..n_ae).map(Input::Ae).collect();
    shuffle(&mut aes, &mut rng);
    let mut bases: Vec<usize> = Vec::new();
    let mut inputs = Vec::with_capacity(n_ae + FRESH_BENIGN);
    for i in 0..n_ae + FRESH_BENIGN {
        if i % 2 == 0 && i / 2 < aes.len() {
            inputs.push(aes[i / 2]);
        } else {
            // Every base utterance once per round, so any window's mix of
            // utterance lengths stays close to the corpus mix.
            if bases.is_empty() {
                bases = (0..n_base).collect();
                shuffle(&mut bases, &mut rng);
            }
            let base = bases.pop().expect("refilled above");
            inputs.push(Input::Benign { base, variant: variant_seed(&mut rng) });
        }
    }
    let order = (0..inputs.len() as u32).collect();
    Plan { inputs, order, cyclic: false }
}

/// Inputs for warming the engine before the timed window: distinct from
/// every input of a fresh plan (their variant seeds come from another
/// stream), so warming never seeds the cache with a timed request.
pub fn warmup_inputs(seed: u64, n: usize, n_base: usize) -> Vec<Input> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
    (0..n)
        .map(|_| Input::Benign { base: rng.gen_range(0..n_base), variant: variant_seed(&mut rng) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for w in Workload::ALL {
            let a = plan(w, 7, 80, 96);
            assert_eq!(a, plan(w, 7, 80, 96), "{}", w.name());
            assert_ne!(a, plan(w, 8, 80, 96), "{}", w.name());
        }
    }

    #[test]
    fn fresh_plans_never_repeat_and_offer_every_ae_early() {
        for w in [Workload::OneshotFresh, Workload::StreamEarlyExit, Workload::FusedInt8] {
            let p = plan(w, 3, 80, 96);
            assert!(!p.cyclic);
            let distinct: std::collections::HashSet<Input> = p.inputs.iter().copied().collect();
            assert_eq!(distinct.len(), p.inputs.len(), "{}: repeated input", w.name());
            let early: Vec<Input> = (0..160).map(|k| p.inputs[p.input_at(k).unwrap()]).collect();
            assert_eq!(early.iter().filter(|i| i.is_ae()).count(), 80);
            assert_eq!(p.input_at(p.order.len()), None);
        }
    }

    #[test]
    fn replay_plan_cycles_over_the_hot_set() {
        let p = plan(Workload::OneshotReplay, 3, 80, 96);
        assert!(p.cyclic);
        assert_eq!(p.inputs.len(), 176);
        // Every round is a permutation of the hot set.
        let mut first: Vec<u32> = p.order[..176].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..176).collect::<Vec<u32>>());
        assert_eq!(p.input_at(p.order.len()), p.input_at(0));
    }

    #[test]
    fn warmup_inputs_are_not_in_the_plan() {
        let p = plan(Workload::OneshotFresh, 5, 80, 96);
        let planned: std::collections::HashSet<Input> = p.inputs.iter().copied().collect();
        assert!(warmup_inputs(5, 16, 96).iter().all(|i| !planned.contains(i)));
    }
}
