//! mvp-serve: a high-throughput serving engine for MVP-EARS detection.
//!
//! [`DetectionSystem::detect`](mvp_ears::DetectionSystem::detect) is a
//! one-shot API: every call spawns a thread per recogniser and extracts
//! features from scratch. This crate wraps a trained system in a
//! long-lived [`DetectionEngine`] built for sustained traffic:
//!
//! - a **bounded ingress queue** — overload sheds requests at the door
//!   ([`SubmitError::Overloaded`]) instead of collapsing latency;
//! - **persistent workers**, one pinned to each recogniser, fed whole
//!   micro-batches over channels (no per-call thread spawn);
//! - **micro-batching** — requests are grouped until `max_batch` or
//!   `max_delay_ms`, amortising per-call overhead and deduplicating
//!   identical waveforms within a batch;
//! - a **content-addressed LRU cache** of full verdicts — an exact
//!   waveform replay is answered with the cached detection, skipping
//!   every ASR, modality and classifier;
//! - **per-request deadlines with graceful degradation** — an auxiliary
//!   that misses its deadline is dropped from the score vector and a
//!   [`DegradePolicy`] fallback ladder still answers;
//! - [`ServeStats`] — throughput counters, queue-depth gauge, latency
//!   percentiles and cache hit rate, snapshot at any time, all backed by
//!   an `mvp_obs` metrics registry with Prometheus-style exposition
//!   ([`DetectionEngine::metrics_text`]);
//! - **observability** — `serve.*` spans on every stage (enable with
//!   `mvp_obs::trace::enable`) and an optional JSONL verdict audit log
//!   ([`EngineConfig::audit`]) from which each decision can be
//!   reconstructed offline;
//! - **chunked ingress** — [`DetectionEngine::submit_stream`] feeds the
//!   same workers one chunk at a time through a [`StreamHandle`] (a
//!   one-shot submit is the same request lifecycle with one chunk); with
//!   an [`EngineConfig::early_exit`] rule the collector can answer
//!   `Adversarial` before end-of-stream, and with it off the chunked
//!   verdict is byte-identical to the one-shot one;
//! - **one decision rule** — every full verdict comes from
//!   [`DetectionSystem::detect_from_transcripts`](mvp_ears::DetectionSystem::detect_from_transcripts),
//!   fused for whole-waveform requests when [`EngineConfig::modalities`]
//!   names a fused system's whole registry, so served verdicts equal
//!   in-process ones bit for bit.
//!
//! ```no_run
//! use std::sync::Arc;
//! use mvp_serve::{DegradePolicy, DetectionEngine, EngineConfig};
//! # fn trained_system() -> mvp_ears::DetectionSystem { unimplemented!() }
//! # fn some_waveform() -> mvp_audio::Waveform { unimplemented!() }
//!
//! let system = Arc::new(trained_system());
//! let policy = DegradePolicy::untrained(system.n_auxiliaries());
//! let engine = DetectionEngine::start(system, policy, EngineConfig::default());
//! let verdict = engine.submit(some_waveform()).unwrap().wait();
//! println!("adversarial: {:?}", verdict.is_adversarial);
//! ```

pub mod cache;
pub mod degrade;
pub mod engine;
pub mod stats;

pub use cache::{waveform_key, LruCache};
pub use degrade::{DegradePolicy, FallbackTier};
pub use engine::{
    DetectionEngine, EngineConfig, PendingVerdict, StreamHandle, SubmitError, Verdict, VerdictKind,
};
pub use stats::{ServeStats, StatsSnapshot};
