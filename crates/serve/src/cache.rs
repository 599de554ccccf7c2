//! Content-addressed LRU transcription cache.
//!
//! Serving traffic is heavily duplicated — wake-word clips, replayed
//! probes, retries — so the engine keys each waveform by a hash of its
//! exact sample content and caches the *per-recogniser transcription
//! vector*. A hit skips every ASR entirely; only complete (non-degraded)
//! vectors are inserted, so a hit always equals what the recognisers
//! would produce.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use mvp_audio::Waveform;

/// A fixed-capacity least-recently-used map.
///
/// Every entry carries the tick of its last use, so a hit is one `HashMap`
/// probe. An insert into a full cache evicts the entry with the oldest
/// tick by a linear scan: O(capacity), paid only on a cache miss, which
/// already costs a full transcription.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    /// Bumped on every access; larger = more recently used.
    tick: u64,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use an `Option<LruCache>` to model a
    /// disabled cache).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache { map: HashMap::with_capacity(capacity), tick: 0, capacity }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries (`<= capacity`).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let (value, used) = self.map.get_mut(key)?;
        self.tick += 1;
        *used = self.tick;
        Some(value)
    }

    /// Looks up `key` *without* touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(value, _)| value)
    }

    /// Inserts (or replaces) `key`, marking it most recently used and
    /// evicting the least recently used entry if over capacity. Returns
    /// the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let full = self.map.len() == self.capacity && !self.map.contains_key(&key);
        let lru = full.then(|| self.map.iter().min_by_key(|(_, (_, used))| *used)).flatten();
        let evicted = lru.map(|(k, _)| k.clone()).and_then(|k| self.map.remove_entry(&k));
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
        evicted.map(|(k, (v, _))| (k, v))
    }

    /// Keys from most to least recently used (test/diagnostic helper).
    pub fn keys_by_recency(&self) -> Vec<K> {
        let mut keys: Vec<(&K, u64)> = self.map.iter().map(|(k, (_, used))| (k, *used)).collect();
        keys.sort_unstable_by_key(|&(_, used)| std::cmp::Reverse(used));
        keys.into_iter().map(|(k, _)| k.clone()).collect()
    }
}

/// Hashes a waveform's exact content (sample bits and rate), FNV-1a.
///
/// Two waveforms collide only if they are bit-identical audio (or in the
/// astronomically unlikely 64-bit hash collision, which would serve a
/// stale transcription — acceptable for this engine's accuracy budget).
pub fn waveform_key(wave: &Waveform) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(u64::from(wave.sample_rate()));
    mix(wave.len() as u64);
    for &s in wave.samples() {
        mix(u64::from(s.to_bits()));
    }
    h
}

/// The transcription vectors the engine caches: one entry per
/// recogniser, target first.
pub type TranscriptVec = Arc<Vec<String>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut c: LruCache<u64, String> = LruCache::new(4);
        assert!(c.get(&1).is_none());
        c.insert(1, "one".into());
        assert_eq!(c.get(&1).map(String::as_str), Some("one"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get(&1), Some(&10));
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
    }

    #[test]
    fn replacing_refreshes_recency_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.len(), 2);
        // 2 is now LRU.
        assert_eq!(c.insert(3, 30), Some((2, 20)));
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn recency_order_reported_mru_first() {
        let mut c: LruCache<u32, ()> = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&1);
        assert_eq!(c.keys_by_recency(), vec![1, 3, 2]);
    }

    #[test]
    fn capacity_one() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.insert(1, 10);
        assert_eq!(c.insert(2, 20), Some((1, 10)));
        assert_eq!(c.get(&2), Some(&20));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    #[test]
    fn peek_does_not_touch_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.peek(&1), Some(&10));
        // 1 is still LRU despite the peek.
        assert_eq!(c.insert(3, 30), Some((1, 10)));
    }

    #[test]
    fn waveform_key_is_content_addressed() {
        let a = Waveform::from_samples(vec![0.1, -0.2, 0.3], 16_000);
        let b = Waveform::from_samples(vec![0.1, -0.2, 0.3], 16_000);
        let c = Waveform::from_samples(vec![0.1, -0.2, 0.30001], 16_000);
        let d = Waveform::from_samples(vec![0.1, -0.2, 0.3], 8_000);
        assert_eq!(waveform_key(&a), waveform_key(&b));
        assert_ne!(waveform_key(&a), waveform_key(&c));
        assert_ne!(waveform_key(&a), waveform_key(&d));
    }
}
