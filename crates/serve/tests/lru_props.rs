//! Property tests for the serving-layer LRU transcription cache:
//! capacity discipline, exact agreement with a naive reference model,
//! and hit fidelity against the real recognisers.

use proptest::collection::vec;
use proptest::prelude::*;

use mvp_asr::{Asr, AsrProfile};
use mvp_audio::Waveform;
use mvp_serve::{waveform_key, LruCache};

/// The reference model: recency-ordered `Vec` (front = most recent),
/// trivially correct and O(n) per op.
struct NaiveLru {
    entries: Vec<(u8, u32)>,
    capacity: usize,
}

impl NaiveLru {
    fn new(capacity: usize) -> NaiveLru {
        NaiveLru { entries: Vec::new(), capacity }
    }

    fn get(&mut self, key: u8) -> Option<u32> {
        let pos = self.entries.iter().position(|&(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        self.entries.insert(0, entry);
        Some(entry.1)
    }

    fn insert(&mut self, key: u8, value: u32) -> Option<(u8, u32)> {
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(pos);
            self.entries.insert(0, (key, value));
            return None;
        }
        let evicted = if self.entries.len() == self.capacity { self.entries.pop() } else { None };
        self.entries.insert(0, (key, value));
        evicted
    }

    fn keys(&self) -> Vec<u8> {
        self.entries.iter().map(|&(k, _)| k).collect()
    }
}

/// One random cache operation: `(key, value, is_insert)`.
fn apply(cache: &mut LruCache<u8, u32>, model: &mut NaiveLru, op: &(u8, u32, bool)) {
    let &(key, value, is_insert) = op;
    if is_insert {
        assert_eq!(cache.insert(key, value), model.insert(key, value));
    } else {
        assert_eq!(cache.get(&key).copied(), model.get(key));
    }
}

proptest! {
    #[test]
    fn capacity_is_never_exceeded(
        capacity in 1usize..9,
        ops in vec((0u8..32, 0u32..1000, 0u8..2), 0..200),
    ) {
        let mut cache: LruCache<u8, u32> = LruCache::new(capacity);
        for (key, value, kind) in ops {
            if kind == 1 {
                cache.insert(key, value);
            } else {
                cache.get(&key);
            }
            prop_assert!(cache.len() <= capacity);
        }
    }

    #[test]
    fn agrees_with_naive_model(
        capacity in 1usize..9,
        raw_ops in vec((0u8..16, 0u32..1000, 0u8..2), 0..300),
    ) {
        let mut cache: LruCache<u8, u32> = LruCache::new(capacity);
        let mut model = NaiveLru::new(capacity);
        for (key, value, kind) in &raw_ops {
            apply(&mut cache, &mut model, &(*key, *value, *kind == 1));
            prop_assert_eq!(cache.keys_by_recency(), model.keys());
            prop_assert_eq!(cache.len(), model.entries.len());
        }
    }

    #[test]
    fn eviction_is_strictly_lru(
        capacity in 1usize..6,
        keys in vec(0u8..64, 1..64),
    ) {
        // Insert distinct-by-position keys; whenever an eviction happens it
        // must be exactly the key least recently inserted-or-touched.
        let mut cache: LruCache<u8, u32> = LruCache::new(capacity);
        let mut model = NaiveLru::new(capacity);
        for (i, key) in keys.iter().enumerate() {
            let expected = model.insert(*key, i as u32);
            let evicted = cache.insert(*key, i as u32);
            prop_assert_eq!(evicted, expected);
        }
    }
}

// Hit fidelity: a cached transcription vector equals what the
// recognisers would produce for that exact waveform. Uses genuinely
// random audio (not speech) — the property must hold for arbitrary
// sample content.
proptest! {
    #[test]
    fn hit_returns_what_the_asr_would_produce(
        samples in vec(-0.5f32..0.5, 160..800),
    ) {
        let wave = Waveform::from_samples(samples, 16_000);
        let asrs = [AsrProfile::Ds0.trained(), AsrProfile::Ds1.trained()];
        let mut cache: LruCache<u64, Vec<String>> = LruCache::new(8);

        // Engine-style fill: transcribe once, cache under the content key.
        let texts: Vec<String> = asrs.iter().map(|a| a.transcribe(&wave)).collect();
        cache.insert(waveform_key(&wave), texts);

        // A replayed waveform (fresh allocation, same content) must hit
        // and return exactly a fresh transcription.
        let replay = Waveform::from_samples(wave.samples().to_vec(), wave.sample_rate());
        let hit = cache.get(&waveform_key(&replay)).cloned();
        let fresh: Vec<String> = asrs.iter().map(|a| a.transcribe(&replay)).collect();
        prop_assert_eq!(hit, Some(fresh));
    }
}
