//! The long-lived detection engine.
//!
//! ```text
//!  submit() ─────try_send──▶ ┐
//!  submit_stream() ─send───▶ ├ ingress queue (bounded; a full queue
//!  StreamHandle::push/finish ┘   sheds one-shots, blocks streams)
//!                             │
//!                         batcher thread
//!        whole waveforms: cache hit ⇒ replay its verdict; misses grouped
//!        into micro-batches (flush on max_batch or max_delay_ms,
//!        deduped by waveform hash); stream chunks forwarded as they come
//!                    │                      │
//!   Open / Finish ───▶ collector    WorkItem ─▶ one persistent worker
//!                            ▲               per recogniser
//!                            └── Report ─────┘  (one per request: a
//!                             │                 final transcript, or a
//!                             │                 running one per chunk)
//!                         collector thread
//!        one Request per id: aligns running transcripts by chunk for
//!        the early-exit rule, waits for final transcripts until each
//!        recogniser's deadline, then finalize()
//!                             │
//!                       reply channel ──▶ PendingVerdict / StreamHandle
//! ```
//!
//! Unlike [`DetectionSystem::detect`], the engine keeps one worker per
//! recogniser alive for its whole lifetime, so thread startup and
//! feature-extraction scratch allocations are amortised across requests.
//!
//! Every request has one lifecycle: open, chunks, finish, finalize. A
//! one-shot [`submit`](DetectionEngine::submit) is opened, fed its whole
//! waveform as one chunk and finished at once, so the batcher can answer
//! it from the cache or micro-batch it; a stream is opened by
//! [`DetectionEngine::submit_stream`] and finished by its
//! [`StreamHandle`]. Either way every recogniser reports through the same
//! per-request message, deadlines count from finish, a missing auxiliary
//! degrades the verdict through the [`DegradePolicy`], and one `finalize`
//! makes the verdict. With [`EngineConfig::early_exit`] set, the
//! collector runs [`EarlyExit::update`] once per chunk on every
//! recogniser's transcript after that same chunk, exactly as
//! [`mvp_ears::DetectionStream`] does in-process. With it off, a chunked
//! stream and a one-shot submit of the same signal get byte-identical
//! scores. Streams are flow-controlled, not shed, and skip the cache and
//! modality scoring: the server keeps no stream audio.
//!
//! Every full verdict is decided by
//! [`DetectionSystem::detect_from_transcripts`], the rule in-process
//! detection uses: on an engine serving a fused system with its whole
//! modality registry, a whole-waveform request passes its audio along
//! and the fused classifier answers, bit for bit as
//! [`DetectionSystem::detect`] would. The cache holds each full
//! whole-waveform [`Detection`], and a hit replays it without deciding
//! again: every part of a detection is a function of the waveform alone
//! (the modality noise is seeded), so the replay is the verdict a miss
//! would make, modality timings aside.
//!
//! Every stage is instrumented: `serve.submit`, `serve.flush`,
//! `serve.cache_hit`, `serve.transcribe_batch` and `serve.finalize`
//! spans (inert unless `mvp_obs::trace` is enabled), registry-backed
//! [`ServeStats`] counters, and — when [`EngineConfig::audit`] is set —
//! one JSONL record per verdict or shed from which the decision can be
//! reconstructed offline.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};

use mvp_artifact::{ArtifactError, Persist};
use mvp_asr::{Asr, AsrProfile, AsrScratch, AsrStream, TrainedAsr};
use mvp_audio::Waveform;
use mvp_ears::{Detection, DetectionSystem, DetectionSystemSnapshot, EarlyExit};
use mvp_modality::{ModalityKind, ModalityOutcome};
use mvp_obs::metrics::Counter;
use mvp_obs::{AuditLog, JsonObj, Registry};

use crate::cache::{waveform_key, LruCache};
use crate::degrade::{DegradePolicy, FallbackTier};
use crate::stats::{ServeStats, StatsSnapshot};

/// Engine tuning knobs. The defaults suit an interactive service; load
/// tests override them per level.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Ingress queue capacity; a full queue sheds new requests.
    pub queue_cap: usize,
    /// Flush a micro-batch when it reaches this many requests.
    pub max_batch: usize,
    /// ... or when the oldest queued request has waited this long.
    pub max_delay_ms: u64,
    /// Per-request deadline, counted from finish (a one-shot finishes at
    /// submit, a stream at [`StreamHandle::finish`]). The target ASR
    /// missing it fails the request; an auxiliary missing it degrades the
    /// verdict.
    pub deadline_ms: u64,
    /// Per-auxiliary deadline override (clamped to `deadline_ms`).
    /// `None` inherits `deadline_ms`; `Some(0)` disables the auxiliary
    /// outright (it is never dispatched — deterministic degraded mode).
    /// May be shorter than the full auxiliary list; missing tail entries
    /// are `None`.
    pub aux_deadline_ms: Vec<Option<u64>>,
    /// Per-auxiliary precision mix (the PVP axis): `true` swaps that
    /// auxiliary's persistent worker to the profile's int8 quantized
    /// variant at engine start, so the ensemble mixes f64 and int8
    /// members without retraining or re-snapshotting. May be shorter
    /// than the auxiliary list; missing tail entries stay f64. An
    /// auxiliary that is already an int8 variant is left as-is; one
    /// whose name matches no [`AsrProfile`] cannot be swapped and fails
    /// engine start.
    pub aux_int8: Vec<bool>,
    /// Verdict-cache capacity in waveforms; `0` disables caching. A hit
    /// replays the full detection cached for the same audio.
    pub cache_cap: usize,
    /// The modality mix scored per whole-waveform request. Empty (the
    /// default) = similarity only. Otherwise it must be the served
    /// system's whole registry, in registry order, on a system that
    /// carries a fused classifier; such requests get fused verdicts.
    pub modalities: Vec<ModalityKind>,
    /// Model directory for [`DetectionEngine::start_or_warm`]: when set,
    /// the engine loads its detection system from
    /// `<model_dir>/detector.mvpa` instead of training, and persists the
    /// system there after a cold start. `None` disables the disk tier.
    pub model_dir: Option<PathBuf>,
    /// Verdict audit log. When set, every answered request (full,
    /// degraded, failed, cache hit) and every shed appends one JSONL
    /// record. `None` (the default) disables auditing.
    pub audit: Option<Arc<AuditLog>>,
    /// Early-exit rule for streamed requests: when set, the collector
    /// re-scores the running transcripts after every chunk and can
    /// answer `Adversarial` before end-of-stream. `None` (the default)
    /// decides only at [`StreamHandle::finish`], which keeps chunked
    /// verdicts byte-identical to one-shot ones. The rule needs every
    /// recogniser's transcript, so an auxiliary disabled through
    /// `aux_deadline_ms` disarms it.
    pub early_exit: Option<EarlyExit>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            queue_cap: 64,
            max_batch: 8,
            max_delay_ms: 5,
            deadline_ms: 1_000,
            aux_deadline_ms: Vec::new(),
            aux_int8: Vec::new(),
            cache_cap: 256,
            modalities: Vec::new(),
            model_dir: None,
            audit: None,
            early_exit: None,
        }
    }
}

/// How a verdict was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// Every recogniser answered; full classifier verdict.
    Full,
    /// At least one auxiliary was missing; a fallback tier answered.
    Degraded(FallbackTier),
    /// The target ASR itself missed the deadline; no verdict possible.
    Failed,
}

/// The engine's answer for one request.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The classification, or `None` when the request [failed](VerdictKind::Failed).
    pub is_adversarial: Option<bool>,
    /// Full, degraded, or failed.
    pub kind: VerdictKind,
    /// Whether the verdict was replayed from the cache.
    pub from_cache: bool,
    /// Per-auxiliary similarity scores; `None` where the auxiliary was
    /// missing.
    pub scores: Vec<Option<f64>>,
    /// The target transcription, when the target answered.
    pub target_transcription: Option<String>,
    /// Every modality's feature block and timing, in registry order;
    /// empty unless the fused classifier answered.
    pub modalities: Vec<ModalityOutcome>,
    /// Whether the fused similarity + modality classifier answered.
    pub fused: bool,
    /// Whether this verdict fired before end-of-stream under the
    /// engine's [`EngineConfig::early_exit`] rule. Always `false` for
    /// one-shot submissions and for stream verdicts decided at finish.
    pub early_exit: bool,
    /// End-to-end latency from `submit` to finalization.
    pub latency: Duration,
}

impl Verdict {
    /// A [`VerdictKind::Full`] verdict on every recogniser's transcript:
    /// the classifier's decision, the fused classifier's when
    /// `detection.fused`, or the early-exit rule's when
    /// `detection.early_exit`.
    fn full(detection: Detection) -> Verdict {
        Verdict {
            is_adversarial: Some(detection.is_adversarial),
            kind: VerdictKind::Full,
            from_cache: false,
            scores: detection.scores.into_iter().map(Some).collect(),
            target_transcription: Some(detection.target_transcription),
            modalities: detection.modalities,
            fused: detection.fused,
            early_exit: detection.early_exit,
            latency: Duration::ZERO,
        }
    }

    /// A [`VerdictKind::Degraded`] verdict: `tier` answered because an
    /// auxiliary was missing.
    fn degraded(
        tier: FallbackTier,
        is_adversarial: bool,
        scores: Vec<Option<f64>>,
        target: String,
    ) -> Verdict {
        Verdict {
            is_adversarial: Some(is_adversarial),
            kind: VerdictKind::Degraded(tier),
            from_cache: false,
            scores,
            target_transcription: Some(target),
            modalities: Vec::new(),
            fused: false,
            early_exit: false,
            latency: Duration::ZERO,
        }
    }

    /// A [`VerdictKind::Failed`] verdict: the target transcript is missing.
    fn failed(n_aux: usize) -> Verdict {
        Verdict {
            is_adversarial: None,
            kind: VerdictKind::Failed,
            from_cache: false,
            scores: vec![None; n_aux],
            target_transcription: None,
            modalities: Vec::new(),
            fused: false,
            early_exit: false,
            latency: Duration::ZERO,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The ingress queue is full — backpressure; retry later.
    Overloaded,
    /// The engine has shut down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "ingress queue full (request shed)"),
            SubmitError::Closed => write!(f, "engine shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A handle to a verdict still being computed.
#[derive(Debug)]
pub struct PendingVerdict {
    rx: Receiver<Verdict>,
}

impl PendingVerdict {
    /// Blocks until the verdict arrives. Every accepted request is
    /// answered, even through shutdown and deadline misses.
    ///
    /// # Panics
    ///
    /// Panics if the engine's threads died without replying (a bug).
    pub fn wait(self) -> Verdict {
        // mvp-lint: allow(panic-path) -- every accepted ticket is answered by construction (drain-on-shutdown); a dropped channel is an engine bug the caller cannot degrade around
        self.rx.recv().expect("engine dropped the reply channel")
    }

    /// Returns the verdict if it is already available.
    pub fn try_wait(&self) -> Option<Verdict> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the verdict. `Err(self)` on timeout
    /// returns the ticket so the caller can keep waiting, retry with a
    /// longer budget, or drop it — no caller is ever forced to hang
    /// forever on a wedged engine.
    ///
    /// # Panics
    ///
    /// Panics if the engine's threads died without replying (a bug),
    /// exactly as [`wait`](Self::wait) does.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Verdict, PendingVerdict> {
        match self.rx.recv_timeout(timeout) {
            Ok(verdict) => Ok(verdict),
            Err(RecvTimeoutError::Timeout) => Err(self),
            Err(RecvTimeoutError::Disconnected) => {
                // mvp-lint: allow(panic-path) -- same invariant as wait(): every accepted ticket is answered by construction; a dropped channel is an engine bug
                panic!("engine dropped the reply channel")
            }
        }
    }
}

/// One caller waiting on a verdict.
struct Waiter {
    id: u64,
    reply: Sender<Verdict>,
    submitted: Instant,
    /// Time spent in the ingress queue, stamped at batcher pickup.
    queued_us: u64,
}

/// One step of a request's lifecycle. Every step of every request shares
/// the single bounded ingress channel, so per-request order is preserved
/// end to end.
enum Ingress {
    /// A one-shot submit: open, one whole-waveform chunk and finish at
    /// once.
    Whole { waiter: Waiter, wave: Arc<Waveform>, key: u64 },
    /// A stream opens.
    Open(Waiter),
    /// The next chunk of stream `id`.
    Chunk(u64, Arc<Vec<f32>>),
    /// Stream `id` has all its audio in.
    Finish(u64, Instant),
}

enum WorkItem {
    /// One micro-batch of whole waveforms, each with its request id.
    Batch { batch_id: u64, requests: Arc<Vec<(u64, Arc<Waveform>)>> },
    /// The next chunk of stream `id`.
    Chunk { id: u64, samples: Arc<Vec<f32>> },
    /// End of stream `id`: flush it and report the final transcript.
    Finish { id: u64 },
}

/// One recogniser's transcript of one request.
struct Report {
    id: u64,
    asr_index: usize,
    text: String,
    /// `Some((seq, frames))` for a running transcript after stream chunk
    /// `seq` with `frames` logit frames decoded; `None` for the final one.
    running: Option<(u64, usize)>,
    /// Wall time the worker spent transcribing this request (the whole
    /// batch for a batched waveform); set on final reports.
    elapsed_us: u64,
}

enum CollectorMsg {
    Open(Request),
    Finish(u64, Instant),
    Report(Report),
}

/// Running transcripts of one stream, aligned by chunk: the early-exit
/// rule runs once per chunk, on every recogniser's transcript after that
/// same chunk, whatever order the recognisers report in.
#[derive(Debug, Default)]
struct RunningBuffer {
    /// Chunks not yet reported by every recogniser, by seq: per
    /// recogniser (target first), its decoded frames and transcript.
    chunks: BTreeMap<u64, Vec<Option<(usize, String)>>>,
    /// Consecutive collapsed early-exit updates.
    collapsed: usize,
}

impl RunningBuffer {
    /// Records recogniser `asr_index`'s running transcript after chunk
    /// `seq` and returns every chunk now reported by all `n_rec`
    /// recognisers, in seq order, as (fewest decoded frames, transcripts
    /// target first). Each recogniser reports its chunks in order, so a
    /// chunk completes only after every earlier one has.
    fn record(
        &mut self,
        n_rec: usize,
        asr_index: usize,
        seq: u64,
        frames: usize,
        text: String,
    ) -> Vec<(usize, Vec<String>)> {
        let chunk = self.chunks.entry(seq).or_insert_with(|| vec![None; n_rec]);
        if let Some(slot) = chunk.get_mut(asr_index) {
            *slot = Some((frames, text));
        }
        let mut complete = Vec::new();
        while let Some(first) = self.chunks.first_entry() {
            if first.get().iter().any(Option::is_none) {
                break;
            }
            let reports = first.remove().into_iter().flatten();
            let (frames, texts): (Vec<usize>, Vec<String>) = reports.unzip();
            complete.push((frames.into_iter().min().unwrap_or(0), texts));
        }
        complete
    }
}

/// One request from open to finalize.
struct Request {
    id: u64,
    /// Everyone waiting on the verdict: the stream's handle, or every
    /// submit of audio deduplicated into this request within a batch.
    /// Emptied once answered.
    waiters: Vec<Waiter>,
    /// Whole-waveform requests keep their cache key and audio (for
    /// fused detection); the server keeps no stream audio.
    audio: Option<(u64, Arc<Waveform>)>,
    /// The micro-batch that transcribed it, for audit records.
    batch: Option<u64>,
    /// When all audio was in; deadlines count from here.
    finished: Option<Instant>,
    /// Per recogniser (target first): the final transcript, once reported.
    texts: Vec<Option<String>>,
    /// Per recogniser: wall time spent transcribing, for audit records.
    transcribe_us: Vec<Option<u64>>,
    /// The verdict was replayed from the cache.
    from_cache: bool,
    running: RunningBuffer,
}

impl Request {
    /// A whole-waveform request is finished on arrival, so its deadlines
    /// count from its submit; a stream finishes at its handle's finish.
    fn new(waiter: Waiter, audio: Option<(u64, Arc<Waveform>)>, n_rec: usize) -> Request {
        Request {
            id: waiter.id,
            finished: audio.is_some().then_some(waiter.submitted),
            waiters: vec![waiter],
            audio,
            batch: None,
            texts: vec![None; n_rec],
            transcribe_us: vec![None; n_rec],
            from_cache: false,
            running: RunningBuffer::default(),
        }
    }

    /// When each dispatched recogniser still owing a final transcript
    /// runs out of time; `None` until finish starts the clock.
    fn deadlines<'a>(
        &'a self,
        waits: &'a [Option<Duration>],
    ) -> Option<impl Iterator<Item = Instant> + 'a> {
        let at = self.finished?;
        let owed = waits.iter().zip(&self.texts).filter(|(_, text)| text.is_none());
        Some(owed.filter_map(move |(wait, _)| wait.map(|w| at + w)))
    }

    /// Ready to finalize: finished, and every dispatched recogniser has
    /// reported or run out of time.
    fn is_ready(&self, now: Instant, waits: &[Option<Duration>]) -> bool {
        self.deadlines(waits).is_some_and(|mut owed| owed.all(|at| now >= at))
    }

    /// Takes one recogniser's report: a final transcript is kept for
    /// finalize; a running one feeds the early-exit rule.
    fn record(&mut self, shared: &Shared, report: Report) {
        let Report { asr_index, text, running, elapsed_us, .. } = report;
        let Some((seq, frames)) = running else {
            if let Some(slot) = self.texts.get_mut(asr_index) {
                *slot = Some(text);
            }
            if let Some(slot) = self.transcribe_us.get_mut(asr_index) {
                *slot = Some(elapsed_us);
            }
            return;
        };
        let Some(rule) = shared.early_exit else { return };
        if self.waiters.is_empty() {
            return;
        }
        let n_rec = self.texts.len();
        for (least, texts) in self.running.record(n_rec, asr_index, seq, frames, text) {
            let early = rule.update(&shared.system, &mut self.running.collapsed, least, || {
                DetectionSystem::split_transcripts(texts)
            });
            if early.is_some() {
                finalize(shared, self, early);
                return;
            }
        }
    }
}

/// The verdict cache shared between batcher and collector.
///
/// All access goes through [`with`](Self::with), which recovers — and
/// counts — a poisoned lock: a thread panicking while holding the cache
/// must degrade to a possibly-stale cache, never wedge the engine.
#[derive(Clone)]
struct SharedCache {
    inner: Arc<Mutex<LruCache<u64, Arc<Detection>>>>,
    poison_recovered: Counter,
}

impl SharedCache {
    fn new(capacity: usize, poison_recovered: Counter) -> SharedCache {
        SharedCache { inner: Arc::new(Mutex::new(LruCache::new(capacity))), poison_recovered }
    }

    fn with<T>(&self, f: impl FnOnce(&mut LruCache<u64, Arc<Detection>>) -> T) -> T {
        let mut guard = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                // Count the incident once, then clear the flag: the LRU
                // is never left mid-mutation by its panic-free methods.
                self.poison_recovered.inc();
                self.inner.clear_poison();
                poisoned.into_inner()
            }
        };
        f(&mut guard)
    }
}

/// What finalizing a request needs, shared by the batcher (cache hits)
/// and the collector (every other request).
struct Shared {
    system: Arc<DetectionSystem>,
    policy: DegradePolicy,
    /// Whole-waveform requests pass their audio to the fused classifier
    /// ([`EngineConfig::modalities`] names the whole registry).
    fused: bool,
    /// The early-exit rule, when armed.
    early_exit: Option<EarlyExit>,
    /// Per recogniser (target first): how long after a request finishes
    /// the collector waits for its transcript; `None` = never dispatched.
    waits: Vec<Option<Duration>>,
    cache: Option<SharedCache>,
    stats: Arc<ServeStats>,
    audit: Option<Arc<AuditLog>>,
}

/// Saturating microseconds of a duration.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Wall-clock microseconds since the Unix epoch, for audit records.
fn wall_ts_us() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::SystemTime::UNIX_EPOCH).map_or(0, micros)
}

/// A JSON array of already-rendered values.
fn json_array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// Builds the JSONL audit record for one answered request.
#[allow(clippy::too_many_arguments)]
fn verdict_record(
    id: u64,
    batch_id: Option<u64>,
    verdict: &Verdict,
    aux_texts: &[Option<String>],
    threshold: Option<f64>,
    queued_us: u64,
    transcribe_us: &[Option<u64>],
    finalize_us: u64,
) -> String {
    let (kind, tier) = match verdict.kind {
        VerdictKind::Full => ("full", None),
        VerdictKind::Degraded(t) => ("degraded", Some(t.name())),
        VerdictKind::Failed => ("failed", None),
    };
    let aux = json_array(aux_texts.iter().enumerate().map(|(j, text)| {
        JsonObj::new()
            .u64("i", j as u64)
            .opt_str("text", text.as_deref())
            .opt_f64("score", verdict.scores.get(j).copied().flatten())
            .finish()
    }));
    let transcribe = json_array(
        transcribe_us.iter().map(|t| t.map_or_else(|| "null".into(), |us| us.to_string())),
    );
    let modalities = json_array(verdict.modalities.iter().map(|outcome| {
        JsonObj::new()
            .str("name", outcome.kind.name())
            .raw("features", &json_array(outcome.features.iter().map(|f| format!("{f}"))))
            .u64("us", outcome.elapsed_us)
            .finish()
    }));
    let timing = JsonObj::new()
        .u64("queue_us", queued_us)
        .raw("transcribe_us", &transcribe)
        .u64("finalize_us", finalize_us)
        .u64("total_us", micros(verdict.latency))
        .finish();
    let obj = JsonObj::new()
        // v2 added the "modalities" array and the "fused" flag;
        // v3 added the "early" flag (stream verdicts that fired before
        // end-of-stream); v4 dropped each modality's "scored" flag (a
        // listed modality is always scored).
        .u64("v", 4)
        .str("event", "verdict")
        .u64("ts_us", wall_ts_us())
        .u64("request", id);
    let obj = match batch_id {
        Some(b) => obj.u64("batch", b),
        None => obj.null("batch"),
    };
    obj.str("kind", kind)
        .opt_str("tier", tier)
        .bool("cache", verdict.from_cache)
        .opt_bool("adversarial", verdict.is_adversarial)
        .bool("fused", verdict.fused)
        .bool("early", verdict.early_exit)
        .opt_str("target", verdict.target_transcription.as_deref())
        .opt_f64("threshold", threshold)
        .raw("aux", &aux)
        .raw("modalities", &modalities)
        .raw("timing", &timing)
        .finish()
}

/// The long-lived serving engine. Dropping it drains in-flight requests
/// (each gets a verdict) and joins all threads.
pub struct DetectionEngine {
    ingress: Option<Sender<Ingress>>,
    threads: Vec<JoinHandle<()>>,
    stats: Arc<ServeStats>,
    audit: Option<Arc<AuditLog>>,
    /// One id space for one-shot and stream requests, so audit `request`
    /// values never collide.
    next_id: AtomicU64,
}

impl std::fmt::Debug for DetectionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionEngine").field("threads", &self.threads.len()).finish()
    }
}

impl DetectionEngine {
    /// Starts the engine: one batcher, one persistent worker per
    /// recogniser, one collector.
    ///
    /// # Panics
    ///
    /// Panics if the system is untrained, `queue_cap`/`max_batch` is
    /// zero, `aux_deadline_ms` is longer than the auxiliary list, or
    /// `modalities` is neither empty nor the whole registry of a fused
    /// system.
    pub fn start(
        system: Arc<DetectionSystem>,
        policy: DegradePolicy,
        config: EngineConfig,
    ) -> DetectionEngine {
        assert!(system.is_trained(), "serve a trained DetectionSystem");
        assert!(config.queue_cap > 0, "queue_cap must be positive");
        assert!(config.max_batch > 0, "max_batch must be positive");
        let n_aux = system.n_auxiliaries();
        for (knob, len) in
            [("aux_deadline_ms", config.aux_deadline_ms.len()), ("aux_int8", config.aux_int8.len())]
        {
            assert!(len <= n_aux, "{knob} has {len} entries for {n_aux} auxiliaries");
        }
        assert_eq!(policy.n_aux(), n_aux, "degrade policy dimension mismatch");
        let registered = system.modalities().kinds();
        for kind in &config.modalities {
            assert!(
                registered.contains(kind),
                "modality {kind} is not registered on the served system"
            );
        }
        let fused = !config.modalities.is_empty();
        assert!(
            !fused || (config.modalities == registered && system.is_fused()),
            "engine modalities must be empty or the whole registry of a fused system"
        );

        let stats = Arc::new(ServeStats::new());
        // Entry 0 is the target recogniser; per-auxiliary overrides
        // start at index 1.
        let waits: Vec<Option<Duration>> = (0..=n_aux)
            .map(|i| match i.checked_sub(1).and_then(|j| config.aux_deadline_ms.get(j)) {
                Some(Some(0)) => None,
                Some(Some(ms)) => Some(Duration::from_millis((*ms).min(config.deadline_ms))),
                _ => Some(Duration::from_millis(config.deadline_ms)),
            })
            .collect();
        let early_exit = config.early_exit.filter(|_| waits.iter().all(Option::is_some));
        let shared = Arc::new(Shared {
            system: Arc::clone(&system),
            policy,
            fused,
            early_exit,
            waits,
            cache: (config.cache_cap > 0)
                .then(|| SharedCache::new(config.cache_cap, stats.cache_poison_recovered.clone())),
            stats: Arc::clone(&stats),
            audit: config.audit.clone(),
        });

        let (ingress_tx, ingress_rx) = channel::bounded::<Ingress>(config.queue_cap);
        // Bounded like every other serve channel (channel-discipline):
        // the collector always drains and never sends into a producer,
        // so capacity only sizes the buffer — it cannot deadlock.
        let (collector_tx, collector_rx) =
            channel::bounded::<CollectorMsg>((config.queue_cap * 8).max(256));

        let mut recognizers = system.recognizers();
        // Apply the precision mix: marked auxiliaries transcribe on the
        // profile's int8 variant while scoring, classification and the
        // cache stay untouched (both precisions produce plain text).
        for (j, &int8) in config.aux_int8.iter().enumerate() {
            if !int8 || recognizers[j + 1].quantized_model().is_some() {
                continue;
            }
            let name = recognizers[j + 1].name().to_string();
            let Some(profile) = AsrProfile::by_name(&name) else {
                // mvp-lint: allow(panic-path) -- engine construction config validation, before any request is accepted
                panic!("aux_int8[{j}]: auxiliary {name:?} matches no profile, cannot derive its int8 variant")
            };
            recognizers[j + 1] = profile.trained_quantized();
        }
        let spawn = |name: String, body: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new()
                .name(name)
                .spawn(body)
                // mvp-lint: allow(panic-path) -- engine construction, before any request is accepted; failing to spawn means no engine exists to degrade
                .expect("spawn engine thread")
        };
        let mut threads = Vec::with_capacity(recognizers.len() + 2);
        let mut worker_txs = Vec::with_capacity(recognizers.len());
        let running_from = shared.early_exit.map(|rule| rule.min_frames);
        for (i, asr) in recognizers.into_iter().enumerate() {
            // Bounded: a backlogged worker exerts backpressure on the
            // batcher (and through the ingress queue, on submitters)
            // instead of buffering without limit.
            let (tx, rx) = channel::bounded::<WorkItem>((config.queue_cap * 4).max(64));
            worker_txs.push(tx);
            let out = collector_tx.clone();
            let body = move || worker_loop(asr, i, running_from, rx, out);
            threads.push(spawn(format!("serve-worker-{i}"), Box::new(body)));
        }
        let (batcher_shared, max_batch) = (Arc::clone(&shared), config.max_batch);
        let max_delay = Duration::from_millis(config.max_delay_ms);
        let batcher = move || {
            batcher_loop(batcher_shared, max_batch, max_delay, ingress_rx, worker_txs, collector_tx)
        };
        threads.push(spawn("serve-batcher".into(), Box::new(batcher)));
        let collector = move || collector_loop(shared, collector_rx);
        threads.push(spawn("serve-collector".into(), Box::new(collector)));

        DetectionEngine {
            ingress: Some(ingress_tx),
            threads,
            stats,
            audit: config.audit,
            next_id: AtomicU64::new(0),
        }
    }

    /// File name of the persisted detection system inside
    /// [`EngineConfig::model_dir`].
    pub const SNAPSHOT_FILE: &'static str = "detector.mvpa";

    /// Starts the engine, warm-starting from `config.model_dir` when a
    /// persisted detection system exists there.
    ///
    /// - snapshot present and valid → restore it (no training) and start;
    ///   returns `warm = true`;
    /// - snapshot absent (or no `model_dir`) → call `cold` to build the
    ///   system, persist it for the next process, and start; returns
    ///   `warm = false`;
    /// - snapshot present but unreadable (corrupt, version skew) → return
    ///   the error rather than silently retraining; the caller decides
    ///   whether to delete the artifact or run cold.
    ///
    /// # Panics
    ///
    /// Panics as [`start`](Self::start) does on invalid configs or an
    /// untrained cold system.
    pub fn start_or_warm(
        policy: DegradePolicy,
        config: EngineConfig,
        cold: impl FnOnce() -> DetectionSystem,
    ) -> Result<(DetectionEngine, bool), ArtifactError> {
        let path = config.model_dir.as_ref().map(|dir| dir.join(Self::SNAPSHOT_FILE));
        if let Some(path) = &path {
            match DetectionSystemSnapshot::load_file(path) {
                Ok(snapshot) => {
                    let system = Arc::new(snapshot.restore());
                    return Ok((Self::start(system, policy, config), true));
                }
                Err(err) if err.is_not_found() => {}
                Err(err) => return Err(err),
            }
        }
        let system = Arc::new(cold());
        if let Some(path) = &path {
            DetectionSystemSnapshot::capture(&system).save_file(path)?;
        }
        Ok((Self::start(system, policy, config), false))
    }

    /// A new waiter under the next request id.
    fn waiter(&self) -> (Waiter, Receiver<Verdict>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = channel::bounded(1);
        (Waiter { id, reply, submitted: Instant::now(), queued_us: 0 }, rx)
    }

    /// Submits a waveform for detection. Non-blocking: a full ingress
    /// queue sheds the request with [`SubmitError::Overloaded`].
    pub fn submit(&self, wave: impl Into<Arc<Waveform>>) -> Result<PendingVerdict, SubmitError> {
        let tx = self.ingress.as_ref().ok_or(SubmitError::Closed)?;
        let wave = wave.into();
        let key = waveform_key(&wave);
        let (waiter, rx) = self.waiter();
        let id = waiter.id;
        let _span = mvp_obs::span!("serve.submit", id);
        // Gauge first so it never underflows against the batcher's decrement.
        self.stats.queue_depth.inc();
        match tx.try_send(Ingress::Whole { waiter, wave, key }) {
            Ok(()) => {
                self.stats.submitted.inc();
                Ok(PendingVerdict { rx })
            }
            Err(TrySendError::Full(_)) => {
                self.stats.queue_depth.dec();
                self.stats.shed.inc();
                if let Some(audit) = &self.audit {
                    let _ = audit.append(
                        &JsonObj::new()
                            .u64("v", 1)
                            .str("event", "shed")
                            .u64("ts_us", wall_ts_us())
                            .u64("request", id)
                            .finish(),
                    );
                }
                Err(SubmitError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.stats.queue_depth.dec();
                Err(SubmitError::Closed)
            }
        }
    }

    /// Opens a chunked-ingress stream. Chunks pushed through the
    /// returned [`StreamHandle`] feed the same persistent workers as
    /// one-shot requests; the verdict arrives at
    /// [`finish`](StreamHandle::finish), or earlier when the engine's
    /// [`EngineConfig::early_exit`] rule fires.
    ///
    /// The handle borrows the engine, so a stream can never outlive it —
    /// shutdown cannot start while a stream is open, which is what makes
    /// "every accepted stream is answered" a structural guarantee.
    pub fn submit_stream(&self) -> Result<StreamHandle<'_>, SubmitError> {
        let tx = self.ingress.as_ref().ok_or(SubmitError::Closed)?;
        let (waiter, reply) = self.waiter();
        let id = waiter.id;
        tx.send(Ingress::Open(waiter)).map_err(|_| SubmitError::Closed)?;
        self.stats.streams_opened.inc();
        Ok(StreamHandle { engine: self, id, reply, got: None, finished: false })
    }

    /// Convenience: submit and block for the verdict.
    pub fn detect_blocking(&self, wave: impl Into<Arc<Waveform>>) -> Result<Verdict, SubmitError> {
        self.submit(wave).map(PendingVerdict::wait)
    }

    /// A point-in-time copy of the engine metrics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The metrics registry backing [`stats`](Self::stats); hand it to an
    /// [`mvp_obs::SnapshotWriter`] for periodic exposition dumps.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.stats.registry())
    }

    /// Prometheus-style text exposition of every engine metric.
    pub fn metrics_text(&self) -> String {
        self.stats.render_text()
    }

    /// Shuts down explicitly (Drop does the same): stops intake, drains
    /// in-flight requests, joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        drop(self.ingress.take());
        for t in self.threads.drain(..) {
            if let Err(panic) = t.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for DetectionEngine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// One open chunked-ingress stream on a [`DetectionEngine`].
///
/// Push sample chunks with [`push`](Self::push), poll for an early
/// verdict with [`try_verdict`](Self::try_verdict), and settle with
/// [`finish`](Self::finish). Exactly one verdict is produced per stream
/// — early or final, never both. Dropping the handle without finishing
/// sends a best-effort finish so worker-side stream state is reclaimed.
#[derive(Debug)]
pub struct StreamHandle<'a> {
    engine: &'a DetectionEngine,
    id: u64,
    reply: Receiver<Verdict>,
    /// An early verdict observed by `try_verdict`, held for `finish`.
    got: Option<Verdict>,
    finished: bool,
}

impl StreamHandle<'_> {
    /// The engine-assigned request id (also the `request` field of the
    /// stream's audit records).
    pub fn id(&self) -> u64 {
        self.id
    }

    fn send(&self, step: Ingress) -> Result<(), SubmitError> {
        let tx = self.engine.ingress.as_ref().ok_or(SubmitError::Closed)?;
        tx.send(step).map_err(|_| SubmitError::Closed)
    }

    /// Feeds the next chunk of samples. Blocks while the ingress queue
    /// is full — streams are flow-controlled, never shed mid-utterance.
    pub fn push(&mut self, samples: &[f32]) -> Result<(), SubmitError> {
        self.push_arc(Arc::new(samples.to_vec()))
    }

    /// [`push`](Self::push) without copying an already-shared buffer.
    pub fn push_arc(&mut self, samples: Arc<Vec<f32>>) -> Result<(), SubmitError> {
        self.engine.stats.stream_chunks.inc();
        self.send(Ingress::Chunk(self.id, samples))
    }

    /// Returns the early verdict if one has fired. After this returns
    /// `Some`, further pushes still advance the recognisers but the
    /// verdict is settled; [`finish`](Self::finish) returns it.
    pub fn try_verdict(&mut self) -> Option<&Verdict> {
        if self.got.is_none() {
            self.got = self.reply.try_recv().ok();
        }
        self.got.as_ref()
    }

    /// Ends the stream and blocks for its verdict: the early one if the
    /// rule fired, otherwise the end-of-stream detection (the only place
    /// a stream can be judged `Benign`). The stream's deadlines count
    /// from here.
    pub fn finish(mut self) -> Result<Verdict, SubmitError> {
        self.finished = true;
        self.send(Ingress::Finish(self.id, Instant::now()))?;
        if let Some(verdict) = self.got.take() {
            return Ok(verdict);
        }
        self.reply.recv().map_err(|_| SubmitError::Closed)
    }
}

impl Drop for StreamHandle<'_> {
    fn drop(&mut self) {
        if !self.finished {
            if let Some(tx) = self.engine.ingress.as_ref() {
                // Best-effort: a full queue here leaks the stream's state
                // until engine shutdown, which is preferable to a Drop
                // that can block.
                let _ = tx.try_send(Ingress::Finish(self.id, Instant::now()));
            }
        }
    }
}

/// One recogniser's worker. With `running_from` set (the early-exit
/// rule's `min_frames`), it reports a running transcript after every
/// stream chunk.
fn worker_loop(
    asr: Arc<TrainedAsr>,
    asr_index: usize,
    running_from: Option<usize>,
    work: Receiver<WorkItem>,
    out: Sender<CollectorMsg>,
) {
    // One scratch plan per worker thread: after the first few batches every
    // pipeline intermediate is served from these buffers, so steady-state
    // batches allocate nothing on the hot path. Streams each carry their
    // own incremental state (`AsrStream`) keyed by request id, the chunk
    // seq (counted identically by every worker, so the collector can
    // align running transcripts across recognisers) and the time spent.
    let mut scratch = AsrScratch::default();
    let mut streams: HashMap<u64, (AsrStream, u64, Duration)> = HashMap::new();
    let send = |id, text, running, elapsed_us| {
        out.send(CollectorMsg::Report(Report { id, asr_index, text, running, elapsed_us })).is_ok()
    };
    for item in work.iter() {
        let started = Instant::now();
        let alive = match item {
            WorkItem::Batch { batch_id, requests } => {
                let texts = {
                    let _span = mvp_obs::span!("serve.transcribe_batch", batch_id);
                    let refs: Vec<&Waveform> = requests.iter().map(|(_, w)| w.as_ref()).collect();
                    asr.transcribe_batch_with(&refs, &mut scratch)
                };
                let elapsed_us = micros(started.elapsed());
                requests.iter().zip(texts).all(|(&(id, _), text)| send(id, text, None, elapsed_us))
            }
            WorkItem::Chunk { id, samples } => {
                let (stream, seq, busy) = streams.entry(id).or_default();
                asr.stream_push_f32(stream, &samples);
                *seq += 1;
                // The rule reads no transcript before every recogniser has
                // decoded `min_frames`; below that, frames alone suffice.
                let running = running_from.map(|min_frames| {
                    let frames = stream.frames_decoded();
                    let text = if frames >= min_frames {
                        asr.stream_transcript(stream)
                    } else {
                        String::new()
                    };
                    (text, frames)
                });
                *busy += started.elapsed();
                running.is_none_or(|(text, frames)| send(id, text, Some((*seq, frames)), 0))
            }
            WorkItem::Finish { id } => {
                let (mut stream, _, busy) = streams.remove(&id).unwrap_or_default();
                let text = asr.stream_finish(&mut stream);
                send(id, text, None, micros(busy + started.elapsed()))
            }
        };
        if !alive {
            return;
        }
    }
}

fn lookup(shared: &Shared, key: u64) -> Option<Arc<Detection>> {
    let cache = shared.cache.as_ref()?;
    shared.stats.cache_lookups.inc();
    let hit = cache.with(|c| c.get(&key).cloned());
    if hit.is_some() {
        shared.stats.cache_hits.inc();
    }
    hit
}

fn batcher_loop(
    shared: Arc<Shared>,
    max_batch: usize,
    max_delay: Duration,
    ingress: Receiver<Ingress>,
    workers: Vec<Sender<WorkItem>>,
    collector: Sender<CollectorMsg>,
) {
    let n_rec = workers.len();
    let dispatched =
        || workers.iter().zip(&shared.waits).filter(|(_, w)| w.is_some()).map(|(tx, _)| tx);
    let mut next_batch_id = 0u64;
    let mut pending: Vec<Request> = Vec::new();
    let mut flush_at: Option<Instant> = None;

    let flush = |pending: &mut Vec<Request>, next_batch_id: &mut u64| {
        if pending.is_empty() {
            return;
        }
        let batch_id = *next_batch_id;
        *next_batch_id += 1;
        let _span = mvp_obs::span!("serve.flush", batch_id);
        shared.stats.batches.inc();
        shared.stats.batched_requests.add(pending.len() as u64);
        // Identical audio within a batch is transcribed once: later
        // submits join the first one's request as extra waiters.
        let mut requests: Vec<Request> = Vec::new();
        let mut index_of: HashMap<u64, usize> = HashMap::new();
        for mut request in pending.drain(..) {
            let key = request.audio.as_ref().map_or(0, |(key, _)| *key);
            match index_of.get(&key).and_then(|&i| requests.get_mut(i)) {
                Some(first) => first.waiters.append(&mut request.waiters),
                None => {
                    index_of.insert(key, requests.len());
                    request.batch = Some(batch_id);
                    requests.push(request);
                }
            }
        }
        let work: Vec<(u64, Arc<Waveform>)> = requests
            .iter()
            .filter_map(|r| r.audio.as_ref().map(|(_, wave)| (r.id, Arc::clone(wave))))
            .collect();
        // Every request enters the collector queue before any worker can
        // report on it.
        for request in requests {
            if collector.send(CollectorMsg::Open(request)).is_err() {
                return;
            }
        }
        let work = Arc::new(work);
        for tx in dispatched() {
            let _ = tx.send(WorkItem::Batch { batch_id, requests: Arc::clone(&work) });
        }
    };

    loop {
        let received = match flush_at {
            None => ingress.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(t) => ingress.recv_timeout(t.saturating_duration_since(Instant::now())),
        };
        match received {
            Ok(Ingress::Whole { mut waiter, wave, key }) => {
                shared.stats.queue_depth.dec();
                waiter.queued_us = micros(waiter.submitted.elapsed());
                let mut request = Request::new(waiter, Some((key, wave)), n_rec);
                if let Some(hit) = lookup(&shared, key) {
                    let _span = mvp_obs::span!("serve.cache_hit", request.id);
                    request.from_cache = true;
                    finalize(&shared, &mut request, Some(Detection::clone(&hit)));
                    continue;
                }
                pending.push(request);
                if pending.len() >= max_batch {
                    flush(&mut pending, &mut next_batch_id);
                    flush_at = None;
                } else if flush_at.is_none() {
                    flush_at = Some(Instant::now() + max_delay);
                }
            }
            // Stream steps are forwarded immediately, never batched: a
            // chunk is one unit of work for every recogniser, and order
            // within a stream is preserved by channel FIFO end to end.
            Ok(Ingress::Open(waiter)) => {
                if collector.send(CollectorMsg::Open(Request::new(waiter, None, n_rec))).is_err() {
                    return;
                }
            }
            Ok(Ingress::Chunk(id, samples)) => {
                for tx in dispatched() {
                    let _ = tx.send(WorkItem::Chunk { id, samples: Arc::clone(&samples) });
                }
            }
            Ok(Ingress::Finish(id, at)) => {
                if collector.send(CollectorMsg::Finish(id, at)).is_err() {
                    return;
                }
                for tx in dispatched() {
                    let _ = tx.send(WorkItem::Finish { id });
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                flush(&mut pending, &mut next_batch_id);
                flush_at = None;
            }
            Err(RecvTimeoutError::Disconnected) => {
                flush(&mut pending, &mut next_batch_id);
                return; // drops worker and collector senders
            }
        }
    }
}

fn collector_loop(shared: Arc<Shared>, rx: Receiver<CollectorMsg>) {
    let mut requests: HashMap<u64, Request> = HashMap::new();
    loop {
        let next_deadline =
            requests.values().filter_map(|r| r.deadlines(&shared.waits)?.min()).min();
        let received = match next_deadline {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(t) => rx.recv_timeout(t.saturating_duration_since(Instant::now())),
        };
        // Producers gone and their queue drained: every transcript that
        // will ever arrive has arrived, so finalize what remains (missing
        // transcripts count as missed) rather than waiting out deadlines.
        let closing = matches!(received, Err(RecvTimeoutError::Disconnected));
        match received {
            Ok(CollectorMsg::Open(request)) => {
                requests.insert(request.id, request);
            }
            Ok(CollectorMsg::Finish(id, at)) => {
                if let Some(request) = requests.get_mut(&id) {
                    request.finished = Some(at);
                }
            }
            Ok(CollectorMsg::Report(report)) => {
                if let Some(request) = requests.get_mut(&report.id) {
                    request.record(&shared, report);
                }
            }
            Err(_) => {}
        }
        let now = Instant::now();
        requests.retain(|_, request| {
            let done = closing || request.is_ready(now, &shared.waits);
            if done {
                // Counted before the reply, so a caller holding the
                // verdict already sees its stream completed.
                if request.audio.is_none() {
                    shared.stats.streams_completed.inc();
                }
                finalize(&shared, request, None);
            }
            !done
        });
        if closing {
            return;
        }
    }
}

/// Decides a request from its final transcripts: `Failed` without the
/// target; `Degraded` by the policy when an auxiliary is missing;
/// otherwise the full detection, fused for whole-waveform requests on a
/// fused engine. Also returns the threshold of a `MeanThreshold` verdict,
/// which makes it reconstructible from the audit record alone.
fn decide(shared: &Shared, request: &mut Request) -> (Verdict, Option<f64>) {
    let system = &shared.system;
    let mut texts = std::mem::take(&mut request.texts).into_iter();
    let n_aux = texts.len().saturating_sub(1);
    let Some(Some(target)) = texts.next() else {
        return (Verdict::failed(n_aux), None);
    };
    let aux: Vec<Option<String>> = texts.collect();
    if aux.iter().any(Option::is_none) {
        let (indices, texts): (Vec<usize>, Vec<String>) =
            aux.into_iter().enumerate().filter_map(|(j, t)| t.map(|t| (j, t))).unzip();
        let pairs: Vec<(usize, f64)> =
            indices.into_iter().zip(system.scores_from_transcripts(&target, &texts)).collect();
        let (is_adversarial, tier) = shared.policy.classify(&pairs);
        let scores = (0..n_aux).map(|j| pairs.iter().find(|p| p.0 == j).map(|p| p.1)).collect();
        let threshold =
            shared.policy.mean_threshold().filter(|_| tier == FallbackTier::MeanThreshold);
        return (Verdict::degraded(tier, is_adversarial, scores, target), threshold);
    }
    let aux: Vec<String> = aux.into_iter().flatten().collect();
    let wave = request.audio.as_ref().filter(|_| shared.fused).map(|(_, wave)| wave.as_ref());
    let detection = system.detect_from_transcripts(target, aux, wave);
    shared.stats.modality_scored.add(detection.modalities.len() as u64);
    if let (Some((key, _)), Some(cache)) = (&request.audio, &shared.cache) {
        cache.with(|c| c.insert(*key, Arc::new(detection.clone())));
    }
    (Verdict::full(detection), None)
}

/// Answers everyone waiting on `request` — the one place a verdict is
/// made. `decided` is a detection made before finalize: the early-exit
/// rule's, fired before end-of-stream, or a cache hit's replayed verdict;
/// without it the verdict is decided from the request's final
/// transcripts. A request already answered is left alone.
fn finalize(shared: &Shared, request: &mut Request, decided: Option<Detection>) {
    let n_waiters = request.waiters.len();
    if n_waiters == 0 {
        return;
    }
    let _span = mvp_obs::span!("serve.finalize", request.id);
    let started = Instant::now();
    let stats = &shared.stats;
    // Audit records carry the auxiliary transcripts the verdict read.
    let aux_texts: Vec<Option<String>> = match (&shared.audit, &decided) {
        (None, _) => Vec::new(),
        (Some(_), Some(d)) => d.auxiliary_transcriptions.iter().cloned().map(Some).collect(),
        (Some(_), None) => request.texts.get(1..).unwrap_or_default().to_vec(),
    };
    let (mut verdict, threshold) = match decided {
        Some(detection) => {
            if detection.early_exit {
                stats.stream_early_exits.inc();
            }
            (Verdict::full(detection), None)
        }
        None => decide(shared, request),
    };
    verdict.from_cache = request.from_cache;
    let finalize_us = micros(started.elapsed());
    let verdicts = std::iter::repeat_n(verdict, n_waiters);
    for (waiter, mut verdict) in request.waiters.drain(..).zip(verdicts) {
        verdict.latency = waiter.submitted.elapsed();
        match verdict.kind {
            VerdictKind::Failed => stats.deadline_failures.inc(),
            VerdictKind::Degraded(_) => stats.degraded.inc(),
            VerdictKind::Full => {}
        }
        if verdict.fused {
            stats.fused_verdicts.inc();
        }
        stats.latency.record(verdict.latency);
        stats.completed.inc();
        if let Some(audit) = &shared.audit {
            let record = verdict_record(
                waiter.id,
                request.batch,
                &verdict,
                &aux_texts,
                threshold,
                waiter.queued_us,
                &request.transcribe_us,
                finalize_us,
            );
            let _ = audit.append(&record);
        }
        let _ = waiter.reply.send(verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detection(target: &str) -> Detection {
        Detection {
            is_adversarial: false,
            scores: vec![0.9],
            target_transcription: target.into(),
            auxiliary_transcriptions: vec![target.into()],
            modalities: Vec::new(),
            fused: false,
            early_exit: false,
        }
    }

    #[test]
    fn shared_cache_recovers_from_poisoning() {
        let recovered = Counter::new();
        let cache = SharedCache::new(4, recovered.clone());
        cache.with(|c| c.insert(1, Arc::new(detection("a"))));
        let poisoner = cache.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("worker dies while holding the cache lock");
        })
        .join();
        // The poisoned lock is recovered (and counted), not propagated:
        // the cache keeps answering.
        let hit = cache.with(|c| c.get(&1).cloned());
        assert_eq!(hit.map(|d| d.target_transcription.clone()).as_deref(), Some("a"));
        cache.with(|c| c.insert(2, Arc::new(detection("b"))));
        assert!(cache.with(|c| c.get(&2).is_some()));
        assert_eq!(recovered.get(), 1);
    }

    #[test]
    fn running_buffer_evaluates_each_chunk_once_on_same_chunk_transcripts() {
        // Three recognisers report chunks 1..=4 in a scrambled order that
        // keeps each recogniser's own reports in seq order (as worker
        // FIFOs do). Recogniser r's transcript after chunk s is "r{r}s{s}"
        // with 10*s + r frames decoded.
        let order = [
            (0, 1),
            (0, 2),
            (2, 1),
            (0, 3),
            (1, 1),
            (2, 2),
            (1, 2),
            (1, 3),
            (0, 4),
            (2, 3),
            (1, 4),
            (2, 4),
        ];
        let mut buffer = RunningBuffer::default();
        let mut evaluated = Vec::new();
        for (r, s) in order {
            let text = format!("r{r}s{s}");
            for (least, texts) in buffer.record(3, r, s, 10 * s as usize + r, text) {
                evaluated.push((least, texts));
            }
        }
        let seqs: Vec<usize> = evaluated.iter().map(|(least, _)| least / 10).collect();
        assert_eq!(seqs, [1, 2, 3, 4], "every chunk evaluated exactly once, in order");
        for (s, (least, texts)) in (1..).zip(&evaluated) {
            assert_eq!(*least, 10 * s, "least frames is the target's at chunk {s}");
            let want: Vec<String> = (0..3).map(|r| format!("r{r}s{s}")).collect();
            assert_eq!(texts, &want, "chunk {s} evaluated on its own transcripts");
        }
        assert!(buffer.chunks.is_empty(), "complete chunks are released");
    }

    #[test]
    fn verdict_records_parse_and_reconstruct() {
        let verdict = Verdict {
            is_adversarial: Some(true),
            kind: VerdictKind::Degraded(FallbackTier::MeanThreshold),
            from_cache: false,
            scores: vec![Some(0.12), None],
            target_transcription: Some("open the door".into()),
            modalities: vec![
                ModalityOutcome {
                    kind: ModalityKind::Transform,
                    features: vec![0.91, 0.05],
                    elapsed_us: 420,
                },
                ModalityOutcome {
                    kind: ModalityKind::Distribution,
                    features: vec![0.7, 0.2, 0.1, 0.3],
                    elapsed_us: 90,
                },
            ],
            fused: false,
            early_exit: false,
            latency: Duration::from_micros(1500),
        };
        let line = verdict_record(
            7,
            Some(3),
            &verdict,
            &[Some("open door".into()), None],
            Some(0.4),
            250,
            &[Some(900), Some(800), None],
            30,
        );
        let v = mvp_obs::json::parse(&line).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("verdict"));
        assert_eq!(v.get("v").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("request").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("degraded"));
        assert_eq!(v.get("tier").unwrap().as_str(), Some("mean_threshold"));
        assert_eq!(v.get("adversarial").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("threshold").unwrap().as_f64(), Some(0.4));
        assert_eq!(v.get("fused").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("early").unwrap().as_bool(), Some(false));
        let modalities = v.get("modalities").unwrap().as_arr().unwrap();
        assert_eq!(modalities.len(), 2);
        assert_eq!(modalities[0].get("name").unwrap().as_str(), Some("transform"));
        assert!(modalities[0].get("scored").is_none());
        assert_eq!(modalities[0].get("features").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(modalities[0].get("us").unwrap().as_f64(), Some(420.0));
        assert_eq!(modalities[1].get("features").unwrap().as_arr().unwrap().len(), 4);
        let aux = v.get("aux").unwrap().as_arr().unwrap();
        assert_eq!(aux.len(), 2);
        assert_eq!(aux[0].get("score").unwrap().as_f64(), Some(0.12));
        assert!(aux[1].get("text").unwrap().is_null());
        let timing = v.get("timing").unwrap();
        assert_eq!(timing.get("queue_us").unwrap().as_f64(), Some(250.0));
        assert_eq!(timing.get("total_us").unwrap().as_f64(), Some(1500.0));
        assert!(timing.get("transcribe_us").unwrap().as_arr().unwrap()[2].is_null());
    }
}
