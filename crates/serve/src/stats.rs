//! Service-level instrumentation: throughput counters, queue-depth
//! gauge, cache hit rate, and latency quantiles.
//!
//! Every metric lives in an [`mvp_obs::Registry`], so the same storage
//! cells back the typed [`StatsSnapshot`], the Prometheus-style text
//! exposition, and any periodic snapshot writer — there is no second
//! set of books to drift out of sync.

use std::sync::Arc;

use mvp_obs::metrics::{Counter, Gauge, Histogram, Registry};
use mvp_obs::JsonObj;

/// Declares the engine's monotone counters once. Each becomes a
/// registry-backed [`ServeStats`] handle, a [`StatsSnapshot`] field and
/// a key of [`StatsSnapshot::to_json`].
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident: $metric:literal, $help:literal;)*) => {
        /// Cumulative engine counters, registry-backed. All handles are
        /// thread-safe; counters are monotone, `queue_depth` moves both
        /// ways.
        #[derive(Debug)]
        pub struct ServeStats {
            registry: Arc<Registry>,
            $($(#[$doc])* pub $field: Counter,)*
            /// Total requests across dispatched batches (for mean batch
            /// size).
            pub batched_requests: Counter,
            /// Current ingress queue depth.
            pub queue_depth: Gauge,
            /// End-to-end latency of answered requests.
            pub latency: Histogram,
        }

        impl ServeStats {
            /// Creates zeroed stats backed by a fresh registry.
            pub fn new() -> ServeStats {
                let registry = Arc::new(Registry::new());
                ServeStats {
                    $($field: registry.counter($metric, $help),)*
                    batched_requests: registry
                        .counter("serve_batched_requests_total", "requests across dispatched batches"),
                    queue_depth: registry.gauge("serve_queue_depth", "current ingress queue depth"),
                    latency: registry
                        .histogram("serve_latency_micros", "end-to-end request latency in microseconds"),
                    registry,
                }
            }

            /// Takes a point-in-time copy of every metric.
            pub fn snapshot(&self) -> StatsSnapshot {
                let batches = self.batches.get();
                let buckets = self.latency.buckets();
                let quantile = |q| Histogram::bucket_quantile(&buckets, q);
                StatsSnapshot {
                    $($field: self.$field.get(),)*
                    queue_depth: self.queue_depth.get(),
                    mean_batch_size: if batches == 0 {
                        0.0
                    } else {
                        self.batched_requests.get() as f64 / batches as f64
                    },
                    latency_mean_micros: self.latency.mean_micros(),
                    latency_p50_micros: quantile(0.50),
                    latency_p95_micros: quantile(0.95),
                    latency_p99_micros: quantile(0.99),
                    latency_max_micros: self.latency.max_micros(),
                }
            }
        }

        /// A point-in-time copy of the engine metrics.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $field: u64,)*
            /// Ingress queue depth at snapshot time.
            pub queue_depth: u64,
            /// Mean requests per dispatched batch.
            pub mean_batch_size: f64,
            /// Mean end-to-end latency (µs).
            pub latency_mean_micros: f64,
            /// Median end-to-end latency (µs, bucket upper edge).
            pub latency_p50_micros: u64,
            /// 95th-percentile latency (µs, bucket upper edge).
            pub latency_p95_micros: u64,
            /// 99th-percentile latency (µs, bucket upper edge).
            pub latency_p99_micros: u64,
            /// Maximum observed latency (µs).
            pub latency_max_micros: u64,
        }

        impl StatsSnapshot {
            /// `obj` with every counter appended under its field name.
            fn counters_json(&self, obj: JsonObj) -> JsonObj {
                obj$(.u64(stringify!($field), self.$field))*
            }
        }
    };
}

counters! {
    /// Requests accepted into the ingress queue.
    submitted: "serve_submitted_total", "requests accepted into the ingress queue";
    /// Requests rejected by backpressure (queue full).
    shed: "serve_shed_total", "requests rejected by backpressure";
    /// Requests answered (with any verdict).
    completed: "serve_completed_total", "requests answered";
    /// Requests answered in degraded mode (≥ 1 auxiliary dropped).
    degraded: "serve_degraded_total", "requests answered degraded";
    /// Requests that failed outright (target ASR missed the deadline).
    deadline_failures: "serve_deadline_failures_total", "requests failed on target deadline";
    /// Cache lookups performed.
    cache_lookups: "serve_cache_lookups_total", "verdict cache lookups";
    /// Cache lookups that hit.
    cache_hits: "serve_cache_hits_total", "verdict cache hits";
    /// Times a poisoned cache lock was recovered (a worker panicked
    /// while holding it and the engine carried on).
    cache_poison_recovered: "serve_cache_poison_recovered_total",
        "poisoned cache locks recovered after a worker panic";
    /// Batches dispatched to workers.
    batches: "serve_batches_total", "micro-batches dispatched";
    /// Modality evaluations completed (one per modality per decided
    /// request; a cache hit replays its verdict and scores none).
    modality_scored: "serve_modality_scored_total", "modality evaluations completed";
    /// Requests answered by the fused similarity + modality classifier.
    fused_verdicts: "serve_fused_verdicts_total", "requests answered by the fused classifier";
    /// Chunked-ingress streams opened.
    streams_opened: "serve_streams_opened_total", "chunked-ingress streams opened";
    /// Stream chunks pushed across all streams.
    stream_chunks: "serve_stream_chunks_total", "stream chunks pushed";
    /// Streams answered early by the early-exit rule.
    stream_early_exits: "serve_stream_early_exits_total",
        "streams answered early by the early-exit rule";
    /// Streams fully finished, whether the verdict was early or settled
    /// at end-of-stream.
    streams_completed: "serve_streams_completed_total", "streams fully finished";
}

impl ServeStats {
    /// The registry backing every metric; render it for exposition or
    /// hand it to an [`mvp_obs::SnapshotWriter`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Prometheus-style text exposition of every serve metric.
    pub fn render_text(&self) -> String {
        self.registry.render_text()
    }
}

impl Default for ServeStats {
    fn default() -> ServeStats {
        ServeStats::new()
    }
}

impl StatsSnapshot {
    /// Cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Renders the snapshot as a flat JSON object: every counter under
    /// its field name, plus the hit rate, queue depth, mean batch size
    /// and latency summary.
    pub fn to_json(&self) -> String {
        self.counters_json(JsonObj::new())
            .raw("cache_hit_rate", &format!("{:.4}", self.cache_hit_rate()))
            .u64("queue_depth", self.queue_depth)
            .raw("mean_batch_size", &format!("{:.3}", self.mean_batch_size))
            .raw("latency_mean_us", &format!("{:.1}", self.latency_mean_micros))
            .u64("latency_p50_us", self.latency_p50_micros)
            .u64("latency_p95_us", self.latency_p95_micros)
            .u64("latency_p99_us", self.latency_p99_micros)
            .u64("latency_max_us", self.latency_max_micros)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::new();
        for ms in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 100] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_micros(0.5);
        // True median 5 ms -> bucket upper edge within [5ms, 10ms].
        assert!((5_000..=10_000).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_micros(0.99);
        assert!(p99 >= 100_000, "p99 {p99}");
        assert_eq!(h.max_micros(), 100_000);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(h.mean_micros(), 0.0);
    }

    #[test]
    fn quantiles_monotone_in_q() {
        let h = Histogram::new();
        for i in 0..1000u64 {
            h.record(Duration::from_micros(i * 37 % 5000));
        }
        let (p50, p95, p99) =
            (h.quantile_micros(0.5), h.quantile_micros(0.95), h.quantile_micros(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    }

    #[test]
    fn snapshot_hit_rate_and_json() {
        let s = ServeStats::new();
        s.submitted.add(10);
        s.cache_lookups.add(8);
        s.cache_hits.add(2);
        s.latency.record(Duration::from_millis(3));
        let snap = s.snapshot();
        assert!((snap.cache_hit_rate() - 0.25).abs() < 1e-12);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"submitted\":10"));
        assert!(json.contains("\"cache_hit_rate\":0.2500"));
        assert!(json.contains("\"cache_poison_recovered\":0"));
    }

    #[test]
    fn snapshot_matches_exposition() {
        // The snapshot and the rendered registry must read the same
        // cells: no dual bookkeeping.
        let s = ServeStats::new();
        s.submitted.add(7);
        s.shed.inc();
        s.queue_depth.set(3);
        s.latency.record(Duration::from_micros(900));
        let snap = s.snapshot();
        let text = s.render_text();
        assert!(text.contains(&format!("serve_submitted_total {}", snap.submitted)));
        assert!(text.contains(&format!("serve_shed_total {}", snap.shed)));
        assert!(text.contains(&format!("serve_queue_depth {}", snap.queue_depth)));
        assert!(text.contains("serve_latency_micros_count 1"));
        assert!(text.contains("serve_latency_micros_sum 900"));
    }

    #[test]
    fn registry_names_cover_every_snapshot_field() {
        let s = ServeStats::new();
        let names = s.registry().names();
        for required in [
            "serve_submitted_total",
            "serve_shed_total",
            "serve_completed_total",
            "serve_degraded_total",
            "serve_deadline_failures_total",
            "serve_cache_lookups_total",
            "serve_cache_hits_total",
            "serve_cache_poison_recovered_total",
            "serve_queue_depth",
            "serve_batches_total",
            "serve_batched_requests_total",
            "serve_modality_scored_total",
            "serve_fused_verdicts_total",
            "serve_streams_opened_total",
            "serve_stream_chunks_total",
            "serve_stream_early_exits_total",
            "serve_streams_completed_total",
            "serve_latency_micros",
        ] {
            assert!(names.iter().any(|n| n == required), "missing metric {required}");
        }
    }
}
