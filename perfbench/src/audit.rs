//! Serve-layer metrics read from outside the engine: the `stats()`
//! snapshots around the timed window and the verdict audit records it
//! wrote during the window.

use std::collections::HashMap;
use std::path::Path;

use mvp_obs::Value;
use mvp_serve::StatsSnapshot;

use crate::report::Metrics;
use crate::stats::median;

/// Counter deltas of the timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Cache lookups.
    pub lookups: u64,
    /// Cache hits.
    pub hits: u64,
    /// Requests shed.
    pub shed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests across those batches.
    pub batched_requests: f64,
}

impl WindowStats {
    /// The window's share of two snapshots.
    pub fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> WindowStats {
        let batched = |s: &StatsSnapshot| s.mean_batch_size * s.batches as f64;
        WindowStats {
            lookups: after.cache_lookups - before.cache_lookups,
            hits: after.cache_hits - before.cache_hits,
            shed: after.shed - before.shed,
            batches: after.batches - before.batches,
            batched_requests: batched(after) - batched(before),
        }
    }

    /// Hit share of the window's cache lookups (0 without lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Stage timings of the verdict records stamped inside
/// `[from_us, to_us]` (wall-clock µs), from the audit log at `path` and
/// its rotated predecessor.
pub fn push_serve_metrics(
    path: &Path,
    from_us: u64,
    to_us: u64,
    window: &WindowStats,
    out: &mut Metrics,
) {
    let mut queue = Vec::new();
    // Per batch: the slowest recogniser and the collector's finalize time
    // (each record carries the finalize time elapsed so far, so the
    // batch's last record holds the whole of it).
    let mut batches: HashMap<u64, (f64, f64)> = HashMap::new();
    let mut rotated = path.as_os_str().to_os_string();
    rotated.push(".1");
    for file in [std::path::PathBuf::from(rotated), path.to_path_buf()] {
        let Ok(text) = std::fs::read_to_string(&file) else { continue };
        for line in text.lines() {
            let Ok(record) = mvp_obs::json::parse(line) else { continue };
            if record.get("event").and_then(Value::as_str) != Some("verdict") {
                continue;
            }
            let ts = num(&record, "ts_us").unwrap_or(0.0);
            if ts < from_us as f64 || ts > to_us as f64 {
                continue;
            }
            let Some(timing) = record.get("timing") else { continue };
            queue.push(num(timing, "queue_us").unwrap_or(0.0));
            let Some(batch) = num(&record, "batch") else { continue };
            let slowest = timing
                .get("transcribe_us")
                .and_then(Value::as_arr)
                .map_or(0.0, |a| a.iter().filter_map(Value::as_f64).fold(0.0, f64::max));
            let finalize = num(timing, "finalize_us").unwrap_or(0.0);
            let entry = batches.entry(batch as u64).or_insert((0.0, 0.0));
            entry.0 = entry.0.max(slowest);
            entry.1 = entry.1.max(finalize);
        }
    }
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let transcribe: Vec<f64> = batches.values().map(|b| b.0).collect();
    let finalize: Vec<f64> = batches.values().map(|b| b.1).collect();
    let wall = to_us.saturating_sub(from_us).max(1) as f64;
    out.push("serve.queue_wait_us", or_zero(&queue), "us");
    out.push("serve.transcribe_us", or_zero(&transcribe), "us");
    out.push("serve.finalize_us", or_zero(&finalize), "us");
    out.push("serve.finalize_share", finalize.iter().sum::<f64>() / wall, "ratio");
    out.push("serve.cache_hit_rate", window.cache_hit_rate(), "ratio");
    let mean_batch =
        if window.batches == 0 { 0.0 } else { window.batched_requests / window.batches as f64 };
    out.push("serve.mean_batch_size", mean_batch, "count");
    out.push("serve.shed", window.shed as f64, "count");
}
