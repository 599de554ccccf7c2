//! Named metrics — counters, gauges, log₂-bucketed histograms — behind a
//! [`Registry`] with a Prometheus-style text exposition.
//!
//! Handles are `Arc`-backed and freely cloneable: a subsystem registers
//! its metrics once, keeps the handles on its hot path (updates are
//! single relaxed atomic operations, no lock, no name lookup), and any
//! observer renders the registry on demand. There is exactly one storage
//! cell per metric, so a point-in-time snapshot and the exposition can
//! never disagree.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A monotone counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (useful in tests).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that moves both ways (e.g. queue depth).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one. Callers order their inc/dec so this never
    /// underflows (the serve ingress gauge increments before enqueue).
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the value outright.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the quantile edge error at
/// `2^-SUB_BITS` (25%) instead of the 2× a pure log₂ histogram gives.
const SUB_BITS: u32 = 2;

/// Values below `LINEAR` get one exact bucket each (they have fewer
/// significant bits than the sub-bucket split needs).
const LINEAR: usize = 8;

/// Total bucket count: the exact low range plus 4 sub-buckets for every
/// octave from bit-length 4 (values ≥ 8) through 64 (`u64::MAX`).
const BUCKETS: usize = LINEAR + 61 * (1 << SUB_BITS);

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

// [AtomicU64; 252] is past the derive(Default) array limit.
impl Default for HistogramCells {
    fn default() -> HistogramCells {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Maps a value to its log-linear bucket: exact below [`LINEAR`], then
/// indexed by (octave, top-two-mantissa-bits) above it.
fn bucket_index(value: u64) -> usize {
    if value < LINEAR as u64 {
        return value as usize;
    }
    let bits = 64 - value.leading_zeros() as usize; // 4..=64
    let sub = ((value >> (bits - 1 - SUB_BITS as usize)) & ((1 << SUB_BITS) - 1)) as usize;
    LINEAR + (bits - 4) * (1 << SUB_BITS) + sub
}

/// Inclusive upper edge of bucket `i` (the value `quantile_micros`
/// reports when the quantile rank falls in that bucket).
fn bucket_upper_edge(i: usize) -> u64 {
    if i < LINEAR {
        return i as u64;
    }
    let octave = (i - LINEAR) >> SUB_BITS; // bit length − 4
    let sub = ((i - LINEAR) & ((1 << SUB_BITS) - 1)) as u128;
    let lower = (1u128 << (octave + 3)) + sub * (1u128 << (octave + 1));
    let upper = lower + (1u128 << (octave + 1));
    u64::try_from(upper).unwrap_or(u64::MAX)
}

/// A concurrent log-linear histogram: exact buckets below `LINEAR`,
/// then each power-of-two octave split into 4 linear sub-buckets, so
/// bucket edges are within 25% of any recorded value.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one duration as microseconds.
    pub fn record(&self, latency: Duration) {
        self.record_value(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one raw value.
    pub fn record_value(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Mean recorded value (0 when empty). For latencies this is
    /// microseconds.
    pub fn mean_micros(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.0.sum.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Largest recorded value.
    pub fn max_micros(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (`0 < q <= 1`): the upper edge of the
    /// bucket containing the quantile rank, i.e. within 25% of the true
    /// value. Returns 0 when empty.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        Histogram::bucket_quantile(&self.buckets(), q)
    }

    /// Every bucket's count, in bucket order. The bucket edges are fixed,
    /// so adding two such vectors element-wise merges histograms exactly.
    pub fn buckets(&self) -> Vec<u64> {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// [`quantile_micros`](Self::quantile_micros) over bucket counts as
    /// [`buckets`](Self::buckets) returns them (or a sum of several).
    pub fn bucket_quantile(buckets: &[u64], q: f64) -> u64 {
        let n: u64 = buckets.iter().sum();
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
        let mut seen = 0u64;
        let at_rank = buckets.iter().position(|&count| {
            seen += count;
            seen >= rank
        });
        at_rank.map_or(0, bucket_upper_edge)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// A named collection of metrics. Registration is get-or-create: asking
/// twice for the same name returns handles to the same cell, so there is
/// never more than one source of truth per name.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, help: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            return entry.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric: metric.clone(),
        });
        metric
    }

    /// Registers (or retrieves) a counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.get_or_insert(name, help, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.type_name()),
        }
    }

    /// Registers (or retrieves) a gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.get_or_insert(name, help, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Registers (or retrieves) a histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.get_or_insert(name, help, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.type_name()),
        }
    }

    /// Renders every metric as Prometheus-style text exposition lines, in
    /// registration order. Histograms expose cumulative `_bucket{le=…}`
    /// lines plus `_sum` and `_count`.
    pub fn render_text(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for e in entries.iter() {
            if !e.help.is_empty() {
                out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
            }
            out.push_str(&format!("# TYPE {} {}\n", e.name, e.metric.type_name()));
            match &e.metric {
                Metric::Counter(c) => out.push_str(&format!("{} {}\n", e.name, c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{} {}\n", e.name, g.get())),
                Metric::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, bucket) in h.0.buckets.iter().enumerate() {
                        let n = bucket.load(Ordering::Relaxed);
                        // The cumulative series loses nothing by skipping
                        // empty buckets, and 252 log-linear buckets would
                        // swamp the exposition otherwise.
                        if n == 0 {
                            continue;
                        }
                        cumulative += n;
                        out.push_str(&format!(
                            "{}_bucket{{le=\"{}\"}} {}\n",
                            e.name,
                            bucket_upper_edge(i),
                            cumulative
                        ));
                    }
                    out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", e.name, h.count()));
                    out.push_str(&format!("{}_sum {}\n", e.name, h.0.sum.load(Ordering::Relaxed)));
                    out.push_str(&format!("{}_count {}\n", e.name, h.count()));
                }
            }
        }
        out
    }

    /// Metric names in registration order.
    pub fn names(&self) -> Vec<String> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.iter().map(|e| e.name.clone()).collect()
    }
}

/// Periodically dumps a registry's text exposition to a file (write to a
/// temp sibling, then rename, so readers never see a torn file). Dropping
/// the writer stops the thread after one final dump.
#[derive(Debug)]
pub struct SnapshotWriter {
    stop: Option<Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl SnapshotWriter {
    /// Starts writing `registry`'s exposition to `path` every `interval`.
    pub fn start(registry: Arc<Registry>, path: PathBuf, interval: Duration) -> SnapshotWriter {
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("obs-snapshot".into())
            .spawn(move || {
                let write = |registry: &Registry| {
                    let tmp = path.with_extension("tmp");
                    if std::fs::write(&tmp, registry.render_text()).is_ok() {
                        let _ = std::fs::rename(&tmp, &path);
                    }
                };
                loop {
                    match stop_rx.recv_timeout(interval) {
                        Err(RecvTimeoutError::Timeout) => write(&registry),
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                            write(&registry);
                            return;
                        }
                    }
                }
            })
            .expect("spawn snapshot writer");
        SnapshotWriter { stop: Some(stop_tx), handle: Some(handle) }
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        if let Some(stop) = self.stop.take() {
            let _ = stop.send(());
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("requests_total", "requests");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same cell.
        assert_eq!(r.counter("requests_total", "").get(), 5);
        let g = r.gauge("depth", "queue depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "");
        r.gauge("x", "");
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::new();
        for ms in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 100] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_micros(0.5);
        assert!((5_000..=10_000).contains(&p50), "p50 {p50}");
        assert!(h.quantile_micros(0.99) >= 100_000);
        assert_eq!(h.max_micros(), 100_000);
        let (p50, p95, p99) =
            (h.quantile_micros(0.5), h.quantile_micros(0.95), h.quantile_micros(0.99));
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn quantile_edges_stay_within_a_quarter_of_the_value() {
        // Regression: the old pure power-of-two buckets reported the p50
        // of a 700µs-dominated stream as 1024µs (46% high). The linear
        // sub-buckets cap the edge error at 25%.
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_value(700);
        }
        for _ in 0..10 {
            h.record_value(1_000_000);
        }
        let p50 = h.quantile_micros(0.5);
        assert_eq!(p50, 768, "p50 edge {p50}");
        assert!((p50 as f64 - 700.0) / 700.0 <= 0.25);
        // The tail quantile still brackets the slow mode.
        let p99 = h.quantile_micros(0.99);
        assert!((1_000_000..=1_250_000).contains(&p99), "p99 edge {p99}");
    }

    #[test]
    fn bucket_mapping_is_monotone_and_tight() {
        // Exact below the linear cutoff.
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_edge(bucket_index(v)), v);
        }
        // Above it: the edge is an upper bound within 25%, and indices
        // never decrease as values grow.
        let mut prev_idx = 0usize;
        for &v in &[8u64, 9, 15, 16, 100, 700, 5_000, 1 << 20, (1 << 40) + 7, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= prev_idx, "index regressed at {v}");
            assert!(idx < BUCKETS);
            let edge = bucket_upper_edge(idx);
            assert!(edge >= v, "edge {edge} below value {v}");
            assert!(edge as f64 <= v as f64 * 1.25, "edge {edge} too loose for {v}");
            prev_idx = idx;
        }
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(h.mean_micros(), 0.0);
    }

    #[test]
    fn exposition_is_parseable_and_cumulative() {
        let r = Registry::new();
        r.counter("a_total", "a counter").add(3);
        r.gauge("b", "a gauge").set(7);
        let h = r.histogram("lat_micros", "latency");
        h.record_value(3);
        h.record_value(100);
        let text = r.render_text();
        assert!(text.contains("# TYPE a_total counter\na_total 3\n"));
        assert!(text.contains("# TYPE b gauge\nb 7\n"));
        assert!(text.contains("# TYPE lat_micros histogram\n"));
        assert!(text.contains("lat_micros_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_micros_sum 103\n"));
        assert!(text.contains("lat_micros_count 2\n"));
        // Bucket counts are cumulative: 100 lands in the [96, 112)
        // sub-bucket, whose line covers both observations.
        assert!(text.contains("lat_micros_bucket{le=\"112\"} 2\n"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad exposition line: {line}");
            assert!(parts.next().is_some());
        }
    }

    #[test]
    fn snapshot_writer_writes_and_stops() {
        let dir = std::env::temp_dir().join(format!("mvp-obs-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let registry = Arc::new(Registry::new());
        registry.counter("ticks_total", "").add(9);
        let writer =
            SnapshotWriter::start(Arc::clone(&registry), path.clone(), Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(30));
        drop(writer); // final dump + join
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("ticks_total 9"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
