//! Deterministic load generation against a [`DetectionEngine`] or
//! [`ShardRouter`] (anything implementing [`LoadTarget`]).
//!
//! Three disciplines:
//!
//! - **closed loop**: K submitter threads, each waiting for its verdict
//!   before submitting again — measures capacity at fixed concurrency;
//! - **open loop**: requests dispatched on a seeded pre-computed arrival
//!   schedule regardless of completion — measures behaviour (shedding,
//!   latency tails) at a fixed offered rate;
//! - **streaming**: K submitter threads feeding fixed-duration chunks
//!   through [`StreamHandle`]s, stopping a stream the moment an early
//!   verdict fires — measures early-exit rate and time-to-verdict.
//!
//! Which waveform each request carries is fully determined by the spec's
//! seed: a fraction of requests (`duplicate_frac`) replay an earlier
//! waveform to exercise the transcription cache, the rest walk the
//! corpus in order. Timing-derived metrics (latency, wall time) vary run
//! to run, but the request sequence and — in closed loop — every verdict
//! are reproducible.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mvp_audio::Waveform;
use mvp_obs::JsonObj;

use crate::engine::{
    DetectionEngine, PendingVerdict, StreamHandle, SubmitError, Verdict, VerdictKind,
};
use crate::router::ShardRouter;
use crate::stats::StatsSnapshot;

/// A submit surface the load generator can drive: one engine or a whole
/// shard router.
pub trait LoadTarget {
    /// Submit one waveform (non-blocking; may shed).
    fn submit_wave(&self, wave: Arc<Waveform>) -> Result<PendingVerdict, SubmitError>;
    /// Open a chunked-ingress stream.
    fn open_stream(&self) -> Result<StreamHandle<'_>, SubmitError>;
    /// Point-in-time metrics (aggregated across shards for a router).
    fn load_stats(&self) -> StatsSnapshot;
}

impl LoadTarget for DetectionEngine {
    fn submit_wave(&self, wave: Arc<Waveform>) -> Result<PendingVerdict, SubmitError> {
        self.submit(wave)
    }

    fn open_stream(&self) -> Result<StreamHandle<'_>, SubmitError> {
        self.submit_stream()
    }

    fn load_stats(&self) -> StatsSnapshot {
        self.stats()
    }
}

impl LoadTarget for ShardRouter {
    fn submit_wave(&self, wave: Arc<Waveform>) -> Result<PendingVerdict, SubmitError> {
        self.submit(wave)
    }

    fn open_stream(&self) -> Result<StreamHandle<'_>, SubmitError> {
        self.submit_stream()
    }

    fn load_stats(&self) -> StatsSnapshot {
        self.stats()
    }
}

/// The load discipline for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// `concurrency` submitters, each one request in flight.
    Closed {
        /// Number of submitter threads.
        concurrency: usize,
    },
    /// Seeded Poisson arrivals at `rate_hz`, `waiters` threads draining
    /// verdicts.
    Open {
        /// Offered request rate (arrivals per second).
        rate_hz: f64,
        /// Verdict-draining thread count.
        waiters: usize,
    },
    /// `concurrency` submitters, each feeding one stream at a time in
    /// `chunk_ms` chunks **paced to real time** (a chunk of audio takes
    /// its own duration to arrive), cutting the stream short when an
    /// early verdict fires — so `mean_verdict_audio_frac` measures how
    /// much of the utterance the detector actually needed.
    Streaming {
        /// Number of submitter threads (streams in flight).
        concurrency: usize,
        /// Chunk duration in milliseconds of audio.
        chunk_ms: u64,
    },
}

/// One load level to run.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Level name, used in reports.
    pub name: String,
    /// Total requests to offer.
    pub requests: usize,
    /// Closed, open, or streaming loop.
    pub mode: LoadMode,
    /// Fraction of requests replaying an earlier waveform (cache food).
    pub duplicate_frac: f64,
    /// Seed for the request sequence and arrival schedule.
    pub seed: u64,
}

/// Client-side verdict tally for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictTally {
    /// Full verdicts computed by the recognisers.
    pub full: u64,
    /// Full verdicts answered from the transcription cache.
    pub cached: u64,
    /// Degraded verdicts (any fallback tier).
    pub degraded: u64,
    /// Failed requests (target deadline missed).
    pub failed: u64,
    /// Verdicts that flagged the audio adversarial.
    pub flagged_adversarial: u64,
}

impl VerdictTally {
    fn absorb(&mut self, verdict: &Verdict) {
        match verdict.kind {
            VerdictKind::Full if verdict.from_cache => self.cached += 1,
            VerdictKind::Full => self.full += 1,
            VerdictKind::Degraded(_) => self.degraded += 1,
            VerdictKind::Failed => self.failed += 1,
        }
        if verdict.is_adversarial == Some(true) {
            self.flagged_adversarial += 1;
        }
    }

    fn merge(&mut self, other: VerdictTally) {
        self.full += other.full;
        self.cached += other.cached;
        self.degraded += other.degraded;
        self.failed += other.failed;
        self.flagged_adversarial += other.flagged_adversarial;
    }

    /// Total verdicts received.
    pub fn total(&self) -> u64 {
        self.full + self.cached + self.degraded + self.failed
    }
}

/// Client-side streaming accounting: how early verdicts arrive.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct StreamTally {
    streams: u64,
    early_exits: u64,
    /// Sum over streams of the audio fraction consumed when the verdict
    /// became known (1.0 for end-of-stream verdicts).
    frac_sum: f64,
    /// Sum of server-side open→verdict latencies (µs).
    ttv_us_sum: u64,
}

impl StreamTally {
    fn merge(&mut self, other: StreamTally) {
        self.streams += other.streams;
        self.early_exits += other.early_exits;
        self.frac_sum += other.frac_sum;
        self.ttv_us_sum += other.ttv_us_sum;
    }
}

/// The outcome of one load level.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The spec's name.
    pub name: String,
    /// Requests offered.
    pub offered: usize,
    /// Requests shed at ingress.
    pub shed: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Completed requests per second of wall time.
    pub throughput_rps: f64,
    /// Client-side verdict tally.
    pub tally: VerdictTally,
    /// Streamed requests answered before end-of-stream (0 for
    /// non-streaming modes).
    pub early_exits: u64,
    /// Mean fraction of the audio consumed when the verdict became
    /// known: 1.0 = every verdict waited for end-of-stream; 0 when the
    /// level ran no streams.
    pub mean_verdict_audio_frac: f64,
    /// Mean stream open→verdict latency (µs; 0 when no streams ran).
    pub mean_time_to_verdict_us: f64,
    /// Engine metrics snapshot at the end of the run.
    pub stats: StatsSnapshot,
}

impl LoadReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let t = &self.tally;
        let verdicts = JsonObj::new()
            .u64("full", t.full)
            .u64("cached", t.cached)
            .u64("degraded", t.degraded)
            .u64("failed", t.failed)
            .u64("flagged_adversarial", t.flagged_adversarial)
            .finish();
        JsonObj::new()
            .str("name", &self.name)
            .u64("offered", self.offered as u64)
            .u64("shed", self.shed)
            .raw("wall_secs", &format!("{:.3}", self.wall.as_secs_f64()))
            .raw("throughput_rps", &format!("{:.2}", self.throughput_rps))
            .raw("verdicts", &verdicts)
            .u64("early_exits", self.early_exits)
            .raw("mean_verdict_audio_frac", &format!("{:.4}", self.mean_verdict_audio_frac))
            .raw("mean_time_to_verdict_us", &format!("{:.1}", self.mean_time_to_verdict_us))
            .raw("stats", &self.stats.to_json())
            .finish()
    }
}

/// The seeded corpus index for each of the `requests` submissions.
fn request_schedule(spec: &LoadSpec, corpus_len: usize) -> Vec<usize> {
    assert!(corpus_len > 0, "empty load corpus");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut schedule = Vec::with_capacity(spec.requests);
    let mut fresh = 0usize;
    for k in 0..spec.requests {
        if k > 0 && rng.gen_bool(spec.duplicate_frac.clamp(0.0, 1.0)) {
            let replay = rng.gen_range(0..k);
            schedule.push(schedule[replay]);
        } else {
            schedule.push(fresh % corpus_len);
            fresh += 1;
        }
    }
    schedule
}

/// Runs one load level and reports. The target should be freshly started
/// so the embedded stats snapshot covers exactly this run.
pub fn run_load<T: LoadTarget + Sync + ?Sized>(
    target: &T,
    corpus: &[Arc<Waveform>],
    spec: &LoadSpec,
) -> LoadReport {
    let schedule = request_schedule(spec, corpus.len());
    let started = Instant::now();
    let (tally, shed, streamed) = match spec.mode {
        LoadMode::Closed { concurrency } => {
            let (tally, shed) = run_closed(target, corpus, &schedule, concurrency);
            (tally, shed, StreamTally::default())
        }
        LoadMode::Open { rate_hz, waiters } => {
            let (tally, shed) = run_open(target, corpus, &schedule, spec.seed, rate_hz, waiters);
            (tally, shed, StreamTally::default())
        }
        LoadMode::Streaming { concurrency, chunk_ms } => {
            let (tally, streamed) = run_streaming(target, corpus, &schedule, concurrency, chunk_ms);
            (tally, 0, streamed)
        }
    };
    let wall = started.elapsed();
    let per_stream =
        |sum: f64| if streamed.streams == 0 { 0.0 } else { sum / streamed.streams as f64 };
    LoadReport {
        name: spec.name.clone(),
        offered: spec.requests,
        shed,
        wall,
        throughput_rps: tally.total() as f64 / wall.as_secs_f64().max(1e-9),
        tally,
        early_exits: streamed.early_exits,
        mean_verdict_audio_frac: per_stream(streamed.frac_sum),
        mean_time_to_verdict_us: per_stream(streamed.ttv_us_sum as f64),
        stats: target.load_stats(),
    }
}

/// Runs `work(i)` for every `i` in `0..n` on its own scoped thread and
/// returns the results in `i` order.
fn fan_out<R: Send>(n: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..n).map(|i| scope.spawn(move || work(i))).collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    })
}

fn run_closed<T: LoadTarget + Sync + ?Sized>(
    target: &T,
    corpus: &[Arc<Waveform>],
    schedule: &[usize],
    concurrency: usize,
) -> (VerdictTally, u64) {
    let concurrency = concurrency.max(1);
    let mut tally = VerdictTally::default();
    let tallies = fan_out(concurrency, |worker| {
        let mut local = VerdictTally::default();
        // Striped assignment keeps the per-worker sequence deterministic
        // regardless of thread interleaving.
        for &corpus_idx in schedule.iter().skip(worker).step_by(concurrency) {
            loop {
                match target.submit_wave(Arc::clone(&corpus[corpus_idx])) {
                    Ok(pending) => {
                        local.absorb(&pending.wait());
                        break;
                    }
                    // Closed-loop back-off: with concurrency bounded,
                    // shedding only happens when the queue is tiny; retry
                    // until accepted.
                    Err(SubmitError::Overloaded) => std::thread::sleep(Duration::from_micros(200)),
                    Err(SubmitError::Closed) => return local,
                }
            }
        }
        local
    });
    tallies.into_iter().for_each(|local| tally.merge(local));
    (tally, 0)
}

fn run_open<T: LoadTarget + Sync + ?Sized>(
    target: &T,
    corpus: &[Arc<Waveform>],
    schedule: &[usize],
    seed: u64,
    rate_hz: f64,
    waiters: usize,
) -> (VerdictTally, u64) {
    assert!(rate_hz > 0.0, "open-loop rate must be positive");
    // Pre-computed Poisson arrival offsets, independent of the request
    // sequence RNG so changing one never perturbs the other.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut offsets = Vec::with_capacity(schedule.len());
    let mut t = 0.0f64;
    for _ in 0..schedule.len() {
        let u: f64 = rng.gen();
        // Exponential inter-arrival: -ln(1-u)/rate, tail-clamped so a
        // single unlucky draw cannot stall the schedule.
        t += (-(1.0 - u).max(1e-12).ln()).min(20.0) / rate_hz;
        offsets.push(t);
    }

    // Bounded at the schedule length: at most one pending ticket per
    // offered request ever sits in the channel, so the dispatcher can
    // never block on it (channel-discipline).
    let (pending_tx, pending_rx) = channel::bounded::<PendingVerdict>(schedule.len().max(1));
    let mut tally = VerdictTally::default();
    let mut shed = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..waiters.max(1))
            .map(|_| {
                let rx = pending_rx.clone();
                scope.spawn(move || {
                    let mut local = VerdictTally::default();
                    for pending in rx.iter() {
                        local.absorb(&pending.wait());
                    }
                    local
                })
            })
            .collect();
        drop(pending_rx);

        let start = Instant::now();
        for (&corpus_idx, &offset) in schedule.iter().zip(&offsets) {
            let due = start + Duration::from_secs_f64(offset);
            if let Some(sleep) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
            match target.submit_wave(Arc::clone(&corpus[corpus_idx])) {
                Ok(pending) => {
                    let _ = pending_tx.send(pending);
                }
                Err(SubmitError::Overloaded) => shed += 1,
                Err(SubmitError::Closed) => break,
            }
        }
        drop(pending_tx);
        for handle in handles {
            tally.merge(handle.join().expect("open-loop waiter panicked"));
        }
    });
    (tally, shed)
}

fn run_streaming<T: LoadTarget + Sync + ?Sized>(
    target: &T,
    corpus: &[Arc<Waveform>],
    schedule: &[usize],
    concurrency: usize,
    chunk_ms: u64,
) -> (VerdictTally, StreamTally) {
    let concurrency = concurrency.max(1);
    let chunk_ms = chunk_ms.max(1);
    let chunk_dur = Duration::from_millis(chunk_ms);
    let mut tally = VerdictTally::default();
    let mut streamed = StreamTally::default();
    let tallies = fan_out(concurrency, |worker| {
        let (mut local, mut local_stream) = (VerdictTally::default(), StreamTally::default());
        for &corpus_idx in schedule.iter().skip(worker).step_by(concurrency) {
            let wave = &corpus[corpus_idx];
            let chunk = ((u64::from(wave.sample_rate()) * chunk_ms / 1000).max(1)) as usize;
            let Ok(mut handle) = target.open_stream() else { break };
            let samples = wave.samples();
            let opened = Instant::now();
            let (mut consumed, mut early) = (0usize, false);
            for (ci, c) in samples.chunks(chunk).enumerate() {
                if handle.push(c).is_err() {
                    break;
                }
                consumed += c.len();
                if consumed == samples.len() {
                    break;
                }
                // Pace to real time: the next chunk only exists after its
                // audio has elapsed. Poll for an early verdict while
                // waiting; once it is settled, stop paying for audio the
                // detector no longer needs.
                let due = opened + chunk_dur * (ci as u32 + 1);
                while handle.try_verdict().is_none() && Instant::now() < due {
                    let left = due.saturating_duration_since(Instant::now());
                    std::thread::sleep(left.min(Duration::from_millis(2)));
                }
                early = handle.try_verdict().is_some();
                if early {
                    break;
                }
            }
            let Ok(verdict) = handle.finish() else { break };
            local.absorb(&verdict);
            local_stream.streams += 1;
            local_stream.early_exits += u64::from(verdict.early_exit);
            local_stream.frac_sum +=
                if early { consumed as f64 / samples.len().max(1) as f64 } else { 1.0 };
            local_stream.ttv_us_sum += verdict.latency.as_micros().min(u128::from(u64::MAX)) as u64;
        }
        (local, local_stream)
    });
    for (local, local_stream) in tallies {
        tally.merge(local);
        streamed.merge(local_stream);
    }
    (tally, streamed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(requests: usize, dup: f64, seed: u64) -> LoadSpec {
        LoadSpec {
            name: "t".into(),
            requests,
            mode: LoadMode::Closed { concurrency: 1 },
            duplicate_frac: dup,
            seed,
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = request_schedule(&spec(64, 0.5, 42), 10);
        let b = request_schedule(&spec(64, 0.5, 42), 10);
        assert_eq!(a, b);
        let c = request_schedule(&spec(64, 0.5, 43), 10);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_without_duplicates_walks_corpus() {
        let s = request_schedule(&spec(7, 0.0, 1), 3);
        assert_eq!(s, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn duplicates_replay_earlier_indices() {
        let s = request_schedule(&spec(200, 0.9, 7), 1000);
        // With 90% duplication over a large corpus, far fewer than 200
        // distinct waveforms appear.
        let distinct: std::collections::HashSet<_> = s.iter().collect();
        assert!(distinct.len() < 80, "distinct {}", distinct.len());
    }

    #[test]
    fn streaming_report_fields_default_to_zero_for_request_modes() {
        let report = LoadReport {
            name: "x".into(),
            offered: 0,
            shed: 0,
            wall: Duration::ZERO,
            throughput_rps: 0.0,
            tally: VerdictTally::default(),
            early_exits: 0,
            mean_verdict_audio_frac: 0.0,
            mean_time_to_verdict_us: 0.0,
            stats: StatsSnapshot::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"early_exits\":0"));
        assert!(json.contains("\"mean_verdict_audio_frac\":0.0000"));
        assert!(json.contains("\"mean_time_to_verdict_us\":0.0"));
    }
}
