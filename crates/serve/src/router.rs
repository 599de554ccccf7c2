//! The shard router: N [`DetectionEngine`]s behind one submit surface.
//!
//! ```text
//!   submit(wave) ── key = waveform_key ──▶ home = key % N
//!        │                                     │
//!        │        home backlog < steal_depth ──┴──▶ home shard
//!        │        home backlog ≥ steal_depth ──────▶ least-loaded shard
//!        │                                           (steal, counted)
//!        └─ home Overloaded ───────────────────────▶ least-loaded other
//!                                                    shard (steal), else
//!                                                    shed
//! ```
//!
//! Routing is **content-hashed**: the same waveform always lands on the
//! same home shard, so each shard's transcription cache only ever holds
//! its own residents — N shards multiply the effective cache capacity
//! without any cross-shard invalidation protocol. Work-stealing trades
//! that affinity away only when the home shard's ingress queue has
//! visibly backed up (its queue-depth gauge at or past
//! [`RouterConfig::steal_depth`]), preferring a colder cache over a
//! longer queue; every such deviation increments the home shard's steal
//! counter so the affinity loss is observable.
//!
//! Streams carry no content key at open time (the audio has not arrived
//! yet), so [`submit_stream`](ShardRouter::submit_stream) round-robins
//! across shards — streams bypass the cache anyway, so there is no
//! affinity to preserve.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mvp_audio::Waveform;
use mvp_ears::DetectionSystem;

use crate::cache::waveform_key;
use crate::degrade::DegradePolicy;
use crate::engine::{
    DetectionEngine, EngineConfig, PendingVerdict, StreamHandle, SubmitError, Verdict,
};
use crate::stats::StatsSnapshot;

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of engine shards. Each runs its own batcher, workers,
    /// collector, and transcription cache.
    pub n_shards: usize,
    /// Home-shard ingress backlog (queue depth) at which a submission
    /// abandons cache affinity and steals to the least-loaded shard.
    /// `0` steals whenever any other shard is strictly less loaded.
    pub steal_depth: usize,
    /// Per-shard engine configuration (note `cache_cap` is *per shard*:
    /// N shards hold N × `cache_cap` waveforms between them).
    pub engine: EngineConfig,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig { n_shards: 2, steal_depth: 8, engine: EngineConfig::default() }
    }
}

/// N detection-engine shards behind a content-hash router with
/// work-stealing. See the [module docs](self) for the routing policy.
pub struct ShardRouter {
    shards: Vec<DetectionEngine>,
    /// Per home shard: submissions routed away from it by stealing.
    steals: Vec<AtomicU64>,
    steal_depth: u64,
    next_stream: AtomicU64,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter").field("shards", &self.shards.len()).finish()
    }
}

impl ShardRouter {
    /// Starts `config.n_shards` engines over one shared system. The
    /// degrade policy is not `Clone` (it owns trained classifiers), so
    /// each shard gets its own from `policy`, called with the shard
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero, or as [`DetectionEngine::start`]
    /// does on an invalid engine config.
    pub fn start(
        system: Arc<DetectionSystem>,
        config: RouterConfig,
        mut policy: impl FnMut(usize) -> DegradePolicy,
    ) -> ShardRouter {
        assert!(config.n_shards > 0, "n_shards must be positive");
        let shards: Vec<DetectionEngine> = (0..config.n_shards)
            .map(|i| DetectionEngine::start(Arc::clone(&system), policy(i), config.engine.clone()))
            .collect();
        // Each engine start split the cores over its own workers only;
        // with N shards of workers live at once, re-partition so the
        // kernel plane's frame parallelism never oversubscribes.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let denominator = (system.n_recognizers() * config.n_shards).max(1);
        mvp_dsp::kernel::set_threads((cores / denominator).max(1));
        ShardRouter {
            steals: (0..config.n_shards).map(|_| AtomicU64::new(0)).collect(),
            steal_depth: config.steal_depth as u64,
            next_stream: AtomicU64::new(0),
            shards,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` homes to.
    fn home_of(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// The shard with the shallowest ingress queue (lowest index wins
    /// ties, so the choice is deterministic under equal load).
    fn least_loaded(&self, exclude: Option<usize>) -> usize {
        let mut best = usize::MAX;
        let mut best_depth = u64::MAX;
        for (i, shard) in self.shards.iter().enumerate() {
            if Some(i) == exclude {
                continue;
            }
            let depth = shard.queue_depth();
            if depth < best_depth {
                best_depth = depth;
                best = i;
            }
        }
        best
    }

    /// Submits a waveform through the router. Routing: home shard by
    /// content hash; least-loaded shard when the home backlog is at or
    /// past `steal_depth` (or the home sheds) — each such deviation
    /// counts as a steal against the home shard. [`SubmitError::Overloaded`]
    /// only when the stolen-to shard sheds as well.
    pub fn submit(&self, wave: impl Into<Arc<Waveform>>) -> Result<PendingVerdict, SubmitError> {
        let wave = wave.into();
        let home = self.home_of(waveform_key(&wave));
        if let [only] = self.shards.as_slice() {
            return only.submit(wave);
        }
        let mut shard = home;
        let backlogged = self.shards.get(home).is_some_and(|s| s.queue_depth() >= self.steal_depth);
        if backlogged {
            let victim = self.least_loaded(None);
            if victim != home {
                shard = victim;
            }
        }
        let Some(chosen) = self.shards.get(shard) else {
            return Err(SubmitError::Overloaded);
        };
        match chosen.submit(Arc::clone(&wave)) {
            Ok(pending) => {
                if shard != home {
                    self.record_steal(home);
                }
                Ok(pending)
            }
            // The chosen shard shed at the door: one last steal attempt
            // at whichever other shard is least loaded right now. A
            // `least_loaded` miss returns `usize::MAX`, which `get`
            // turns into the Overloaded answer.
            Err(SubmitError::Overloaded) => {
                let victim = self.least_loaded(Some(shard));
                let Some(engine) = self.shards.get(victim) else {
                    return Err(SubmitError::Overloaded);
                };
                let pending = engine.submit(wave)?;
                self.record_steal(home);
                Ok(pending)
            }
            Err(SubmitError::Closed) => Err(SubmitError::Closed),
        }
    }

    /// Counts one steal against `home`'s shard.
    fn record_steal(&self, home: usize) {
        if let Some(counter) = self.steals.get(home) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Convenience: submit and block for the verdict.
    pub fn detect_blocking(&self, wave: impl Into<Arc<Waveform>>) -> Result<Verdict, SubmitError> {
        self.submit(wave).map(PendingVerdict::wait)
    }

    /// Opens a chunked-ingress stream on the next shard round-robin.
    pub fn submit_stream(&self) -> Result<StreamHandle<'_>, SubmitError> {
        let n = self.shards.len() as u64;
        let shard = (self.next_stream.fetch_add(1, Ordering::Relaxed) % n) as usize;
        self.shards.get(shard).ok_or(SubmitError::Closed)?.submit_stream()
    }

    /// Point-in-time metrics of every shard, in shard order.
    pub fn shard_stats(&self) -> Vec<StatsSnapshot> {
        self.shards.iter().map(DetectionEngine::stats).collect()
    }

    /// Aggregate metrics across shards (see [`StatsSnapshot::merged`]:
    /// latency quantiles are exact over every shard's samples).
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::merged(&self.shard_stats())
    }

    /// Per home shard: how many submissions stealing routed away from it.
    pub fn steal_counts(&self) -> Vec<u64> {
        self.steals.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Shuts every shard down in order: each stops intake, drains its
    /// in-flight requests, and joins its threads. Dropping the router
    /// does the same.
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let config = RouterConfig::default();
        assert!(config.n_shards >= 1);
        assert!(config.engine.queue_cap > 0);
    }
}
