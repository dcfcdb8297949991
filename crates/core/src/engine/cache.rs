//! Bounded LRU cache of prepared (packed) B operands.
//!
//! The host engine's per-call B preparation — the fused hi/lo split and
//! panel pack — is a pure function of the operand's *contents* and
//! a handful of layout parameters. For serving workloads one operand is
//! typically a long-lived weight matrix, so this cache keys prepared
//! operands by a 128-bit content fingerprint plus shape, split scheme
//! and blocking geometry, and hands back [`Arc`]s to the immutable
//! prepared data. A hit skips the preparation entirely; a miss
//! (including any mutation of the operand's data, which changes the
//! fingerprint) recomputes from scratch, so caching can never change an
//! output bit — it only decides whether the bit-identical preparation
//! work is reused or redone.
//!
//! An entry holds the operand's packed B panels, packed straight from
//! raw f32 ([`PanelCache::get_or_pack`]) and attached lazily behind the
//! entry's mutex; its resident charge is the packed panels alone.
//!
//! Concurrency: the map is a mutex-guarded `HashMap` of slots. Racing
//! callers for the same key agree on one entry under the map lock, then
//! exactly one of them packs while holding the entry's mutex and the
//! others block on the result — so a batch sharing one B operand
//! prepares it exactly once (asserted by the cache-stats test in
//! `crates/core/src/batched.rs`).
//!
//! Eviction is LRU by total resident bytes, and happens before a miss
//! packs: slots go until the resident bytes plus the new pack's size
//! (known from the key's shape) fit the bound. The first victim whose
//! entry and pack nobody else holds lends its planes to the new pack,
//! which overwrites them, so a cache streaming cold operands rewrites
//! memory it already has instead of faulting in fresh pages while
//! freeing as much. A victim still pinned (by a [`PreparedOperand`] or
//! a racing caller) stays alive for as long as those `Arc`s do; the
//! cache merely drops its reference.
//!
//! [`PreparedOperand`]: crate::PreparedOperand

use crate::telemetry;
use egemm_fp::SplitScheme;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use super::pack::PackedB;

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Every structure in the engine guarded this way (cache map, pack
/// slots, pool state) is updated transactionally — counters and maps
/// are adjusted together under the lock — so the data is consistent
/// even when the holder unwound; the panic itself is surfaced to the
/// submitting caller separately (see `runtime::Pool::run`).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counters describing the cache's lifetime behaviour. All counters are
/// monotone except `bytes`, which is the current resident total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that reused a prepared operand (including callers that
    /// waited on a concurrent preparation instead of redoing it).
    pub hits: u64,
    /// Lookups that had to prepare the operand.
    pub misses: u64,
    /// Entries dropped to respect the byte bound.
    pub evictions: u64,
    /// Bytes currently resident (packed panels).
    pub bytes: u64,
    /// Full-operand B packs actually executed (not served from cache).
    pub packs: u64,
    /// Microkernel JIT compilations attempted (each key compiles at
    /// most once per runtime, successful or not).
    pub jit_compiles: u64,
    /// Compiled-kernel cache lookups served without compiling.
    pub jit_hits: u64,
    /// Nanoseconds spent compiling (IR lowering through verification).
    pub jit_compile_ns: u64,
    /// Bytes of executable kernel code resident (whole pages).
    pub jit_code_bytes: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups, 0.0 when idle.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    /// One-line rendering used by `profiling.rs`: `hits/misses/evictions
    /// + packs executed + resident KiB + hit ratio + JIT counters`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit / {} miss / {} evict, {} pack run, {:.1} KiB resident, \
             {:.1}% hit ratio, {} jit compile / {} jit hit ({:.1} KiB code)",
            self.hits,
            self.misses,
            self.evictions,
            self.packs,
            self.bytes as f64 / 1024.0,
            100.0 * self.hit_ratio(),
            self.jit_compiles,
            self.jit_hits,
            self.jit_code_bytes as f64 / 1024.0
        )
    }
}

/// 128-bit content fingerprint of a binary32 buffer.
///
/// The raw bit patterns are absorbed as 8-byte words (two elements, the
/// last odd element zero-extended) into eight independent
/// multiply-xor-rotate lanes, word `w` into lane `w % 8`, with a
/// prefetch 4 KiB ahead on x86-64. Every prepare hashes its B, hit or
/// miss, so on a cached B the hash is most of the prepare's cost: eight
/// overlapping multiply chains keep up with the rate memory streams a
/// large B in, which one or two chains' multiply latency cannot. The
/// lanes start from distinct seeds mixed with the length and fold
/// through two chains of bijective mixes into the two words. Each
/// absorb and each fold step is a bijection of the word or lane it
/// takes in, so a change to any single element changes its lane and
/// through it both words of the key: a mutated operand always misses.
///
/// Public (as [`crate::engine::content_fingerprint`]) so layers above
/// the cache — the serving tier's shared-B bucketing in particular —
/// can group operands by exactly the key the cache will hit on.
pub fn fingerprint(data: &[f32]) -> (u64, u64) {
    const M1: u64 = 0x9E37_79B9_7F4A_7C15;
    const M2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    /// 4 KiB ahead of the chunk being absorbed.
    const PREFETCH_AHEAD: usize = 1024;
    let absorb = |h: u64, w: u64| (h ^ w).wrapping_mul(M1).rotate_left(31);
    let len = data.len() as u64;
    let mut lanes: [u64; 8] =
        std::array::from_fn(|i| (len ^ M2.wrapping_mul(i as u64 + 1)).wrapping_mul(M1));
    let (chunks, tail) = data.as_chunks::<16>();
    for chunk in chunks {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE is part of the x86-64 baseline, and a prefetch
        // never faults; `wrapping_add` keeps the address computation
        // defined past the end of `data`.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(chunk.as_ptr().wrapping_add(PREFETCH_AHEAD).cast());
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from(chunk[2 * i].to_bits()) | u64::from(chunk[2 * i + 1].to_bits()) << 32;
            *lane = absorb(*lane, w);
        }
    }
    for (lane, pair) in lanes.iter_mut().zip(tail.chunks(2)) {
        let hi = pair.get(1).map_or(0, |x| x.to_bits());
        *lane = absorb(*lane, u64::from(pair[0].to_bits()) | u64::from(hi) << 32);
    }
    let (mut h1, mut h2) = (len ^ M1, len.rotate_left(32) ^ M2);
    for (i, &lane) in lanes.iter().enumerate() {
        h1 = fmix64(h1 ^ lane);
        h2 = fmix64(h2.wrapping_add(lane.rotate_left(8 * i as u32 + 1)));
    }
    (h1, h2)
}

/// MurmurHash3 finalizer: full avalanche over 64 bits.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

/// Cache key: content fingerprint + shape + split scheme + panel depth
/// (the `kc` the pack is laid out at, already clamped to the chunk
/// grid). One operand at two depths is two entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub fp: (u64, u64),
    pub rows: usize,
    pub cols: usize,
    pub scheme: SplitScheme,
    pub kc: usize,
}

/// One prepared operand: its packed panels, attached lazily. The mutex
/// is held across the pack so racing callers run it exactly once.
type CacheEntry = Mutex<Option<Arc<PackedB>>>;

struct Slot {
    entry: Arc<CacheEntry>,
    /// LRU stamp, refreshed on every touch.
    last_used: u64,
    /// Bytes charged against the cache bound for this slot (its packed
    /// panels).
    charged: usize,
}

/// The bounded LRU map. `capacity_bytes == 0` disables retention
/// entirely: every lookup is a miss and nothing is stored, which is the
/// reference cold path the bit-identity tests compare against.
pub(crate) struct PanelCache {
    capacity_bytes: usize,
    map: Mutex<HashMap<CacheKey, Slot>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
    packs: AtomicU64,
}

impl PanelCache {
    pub(crate) fn new(capacity_bytes: usize) -> PanelCache {
        PanelCache {
            capacity_bytes,
            map: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            packs: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            packs: self.packs.load(Ordering::Relaxed),
            // The JIT series live in the runtime's kernel cache and are
            // merged in by EngineRuntime::cache_stats.
            jit_compiles: 0,
            jit_hits: 0,
            jit_compile_ns: 0,
            jit_code_bytes: 0,
        }
    }

    /// Look up the entry for `key`, counting a hit if the slot already
    /// existed (including slots whose panels are still being packed by
    /// a racing caller).
    fn entry_for_key(&self, key: CacheKey) -> Arc<CacheEntry> {
        let t_lookup = telemetry::span_start();
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let (entry, inserted) = {
            let mut map = lock_unpoisoned(&self.map);
            match map.get_mut(&key) {
                Some(s) => {
                    s.last_used = stamp;
                    (s.entry.clone(), false)
                }
                None => {
                    let entry = Arc::new(Mutex::new(None));
                    map.insert(
                        key,
                        Slot {
                            entry: entry.clone(),
                            last_used: stamp,
                            charged: 0,
                        },
                    );
                    (entry, true)
                }
            }
        };
        if inserted {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        telemetry::span_end(telemetry::Phase::CacheLookup, t_lookup, (!inserted) as u64);
        entry
    }

    /// Return the packed panels for the key `key` computes, running
    /// `pack_fn` (charged to the `packs` counter) only if none exist
    /// yet. The entry's mutex is held across the pack so concurrent
    /// callers pack exactly once.
    ///
    /// Before packing, LRU slots are evicted to make room for the new
    /// pack, and `pack_fn` receives the planes of the first victim it
    /// may overwrite (see the module doc), or `None`.
    ///
    /// With retention disabled (`capacity_bytes == 0`) every lookup is
    /// a miss that packs into fresh planes, and `key` is never called:
    /// a content fingerprint is a full pass over the operand, and
    /// nothing would read it.
    pub(crate) fn get_or_pack(
        &self,
        key: impl FnOnce() -> CacheKey,
        pack_fn: impl FnOnce(Option<(Vec<f32>, Vec<f32>)>) -> PackedB,
    ) -> Arc<PackedB> {
        if self.capacity_bytes == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.packs.fetch_add(1, Ordering::Relaxed);
            return Arc::new(pack_fn(None));
        }
        let key = key();
        let entry = self.entry_for_key(key);
        let t_lookup = telemetry::span_start();
        let mut guard = lock_unpoisoned(&entry);
        if let Some(p) = guard.as_ref() {
            telemetry::span_end(telemetry::Phase::CacheLookup, t_lookup, 1);
            return p.clone();
        }
        telemetry::span_end(telemetry::Phase::CacheLookup, t_lookup, 0);
        let bytes = PackedB::bytes_for(key.rows, key.cols);
        let planes = self.make_room(key, bytes);
        self.packs.fetch_add(1, Ordering::Relaxed);
        // The pack records its own spans, one per panel.
        let packed = Arc::new(pack_fn(planes));
        *guard = Some(packed.clone());
        drop(guard);
        self.charge(key, &entry, bytes);
        packed
    }

    /// Evict LRU slots (never `keep`) until the bound holds with `bytes`
    /// more resident, and return the planes of the first victim whose
    /// entry and pack nobody else holds and whose planes hold `bytes`.
    /// Every other victim is dropped outside the map lock.
    fn make_room(&self, keep: CacheKey, bytes: usize) -> Option<(Vec<f32>, Vec<f32>)> {
        let victims = self.evict_over_bound(&mut lock_unpoisoned(&self.map), keep, bytes);
        victims.into_iter().find_map(|slot| {
            let entry = Arc::into_inner(slot.entry)?;
            let packed = entry.into_inner().unwrap_or_else(PoisonError::into_inner)?;
            let packed = Arc::into_inner(packed)?;
            (packed.bytes() >= bytes).then(|| packed.into_planes())
        })
    }

    /// Charge `key`'s slot the `bytes` of the pack just attached to
    /// `entry`, then re-enforce the bound. If the slot was evicted while
    /// the pack ran (and perhaps replaced by a newer slot for the same
    /// key), the cache no longer keeps this pack, so nothing is charged.
    fn charge(&self, key: CacheKey, entry: &Arc<CacheEntry>, bytes: usize) {
        let mut map = lock_unpoisoned(&self.map);
        if let Some(s) = map.get_mut(&key).filter(|s| Arc::ptr_eq(&s.entry, entry)) {
            s.charged = bytes;
            self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        // Only a racing pack of another key can leave the bound exceeded
        // here, since make_room already fit this one.
        drop(self.evict_over_bound(&mut map, key, 0));
    }

    /// Evict least-recently-used slots (never `keep`) until the resident
    /// bytes plus `incoming` fit the byte bound, and return the evicted
    /// slots.
    fn evict_over_bound(
        &self,
        map: &mut HashMap<CacheKey, Slot>,
        keep: CacheKey,
        incoming: usize,
    ) -> Vec<Slot> {
        let mut victims = Vec::new();
        while self.bytes.load(Ordering::Relaxed) + incoming as u64 > self.capacity_bytes as u64 {
            let victim = map
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            let Some(s) = victim.and_then(|v| map.remove(&v)) else {
                break;
            };
            self.bytes.fetch_sub(s.charged as u64, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            victims.push(s);
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pack::{BRows, Panel};
    use egemm_matrix::Matrix;

    fn operand(m: usize, n: usize, seed: u64) -> (Matrix<f32>, CacheKey) {
        let mat = Matrix::<f32>::random_uniform(m, n, seed);
        let key = CacheKey {
            fp: fingerprint(mat.as_slice()),
            rows: m,
            cols: n,
            scheme: SplitScheme::Round,
            kc: 8,
        };
        (mat, key)
    }

    /// The panels of `mat` at panel depth 8.
    fn pack(mat: &Matrix<f32>) -> PackedB {
        let mut packed = PackedB::new(mat.rows(), mat.cols(), 8, None);
        let rows = BRows::raw(mat, 0..mat.rows());
        packed
            .panels(rows, SplitScheme::Round)
            .for_each(Panel::pack);
        packed
    }

    #[test]
    fn fingerprint_sensitive_to_every_element() {
        // Lengths 0..=48 cover every lane, up to three words per lane,
        // and every tail length, odd ones included.
        let words: Vec<f32> = (0u32..48)
            .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9) ^ 0x3F80_0000))
            .collect();
        for len in 0..=words.len() {
            let base = &words[..len];
            let h0 = fingerprint(base);
            // Deterministic, and independent of where the data lives.
            let moved = base.to_vec();
            assert_eq!(fingerprint(&moved), h0, "len {len}");
            if len > 0 {
                assert_ne!(
                    fingerprint(&base[..len - 1]),
                    h0,
                    "len {len} vs {}",
                    len - 1
                );
            }
            // Bits 0 (mantissa), 22 (its top, the NaN quiet bit) and 31
            // (sign) of every element: each flip changes both words.
            for i in 0..len {
                for bit in [0, 22, 31] {
                    let mut m = base.to_vec();
                    m[i] = f32::from_bits(m[i].to_bits() ^ 1 << bit);
                    let h = fingerprint(&m);
                    assert!(
                        h.0 != h0.0 && h.1 != h0.1,
                        "len {len}: bit {bit} of element {i} left a word unchanged"
                    );
                }
            }
        }
        // Swapping two 8-byte words that go to different lanes changes
        // the key: the lanes are not interchangeable. At 16 elements each
        // lane holds one word, so a swap exchanges two whole lanes.
        for len in [16, 48] {
            let h0 = fingerprint(&words[..len]);
            for a in 0..len / 2 {
                for b in (a + 1..len / 2).filter(|b| (b - a) % 8 != 0) {
                    let mut m = words[..len].to_vec();
                    m.swap(2 * a, 2 * b);
                    m.swap(2 * a + 1, 2 * b + 1);
                    assert_ne!(fingerprint(&m), h0, "len {len}: words {a} and {b} swapped");
                }
            }
        }
    }

    #[test]
    fn hit_miss_and_split_counting() {
        let cache = PanelCache::new(usize::MAX);
        let (mat, key) = operand(8, 16, 1);
        let p1 = cache.get_or_pack(|| key, |_| pack(&mat));
        let p2 = cache.get_or_pack(|| key, |_| panic!("second lookup must not pack"));
        assert!(Arc::ptr_eq(&p1, &p2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.packs), (1, 1, 1));
        assert_eq!(s.bytes, p1.bytes() as u64);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        // Nothing is kept, so nothing reads a key: the (fingerprinting)
        // key closure is never called, and every call misses and packs.
        let cache = PanelCache::new(0);
        let mat = Matrix::<f32>::random_uniform(4, 4, 2);
        for _ in 0..3 {
            cache.get_or_pack(|| panic!("the key must not be computed"), |_| pack(&mat));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.packs, s.bytes), (0, 3, 3, 0));
    }

    #[test]
    fn lru_eviction_respects_byte_bound() {
        // Each 8x16 operand packs to 2 planes x 8 x 16 x 4 = 1024 bytes;
        // a bound of 2500 holds two entries, so inserting a third evicts
        // the least recently used.
        let cache = PanelCache::new(2500);
        let (m1, k1) = operand(8, 16, 3);
        let (m2, k2) = operand(8, 16, 4);
        let (m3, k3) = operand(8, 16, 5);
        cache.get_or_pack(|| k1, |_| pack(&m1));
        cache.get_or_pack(|| k2, |_| pack(&m2));
        // Touch k1 so k2 is the LRU victim.
        cache.get_or_pack(|| k1, |_| panic!("k1 should be resident"));
        cache.get_or_pack(|| k3, |_| pack(&m3));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 2500, "resident {} over bound", s.bytes);
        // k1 survived, k2 was evicted.
        cache.get_or_pack(|| k1, |_| panic!("k1 evicted unexpectedly"));
        let before = cache.stats().packs;
        cache.get_or_pack(|| k2, |_| pack(&m2));
        assert_eq!(cache.stats().packs, before + 1, "k2 should re-pack");
    }

    #[test]
    fn poisoned_pack_slot_recovers() {
        // Regression: a panicking pack_fn poisons the entry's pack
        // mutex; the next caller used to abort on `.unwrap()`. It must
        // recover the guard and pack normally instead.
        let cache = PanelCache::new(usize::MAX);
        let (mat, key) = operand(8, 16, 11);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_pack(|| key, |_| panic!("pack failure"));
        }));
        assert!(poisoned.is_err());
        let packed = cache.get_or_pack(|| key, |_| pack(&mat));
        assert_eq!(packed.kc(), 8);
        // And a further lookup hits the now-resident pack.
        let again = cache.get_or_pack(|| key, |_| panic!("must be resident"));
        assert!(Arc::ptr_eq(&packed, &again));
    }

    #[test]
    fn fused_entries_charge_packed_bytes_only() {
        // The resident-bytes counter equals the packed allocations: after
        // hits it must not grow, and after eviction it must return
        // exactly to the surviving allocations.
        let cache = PanelCache::new(3000);
        let (m1, k1) = operand(8, 16, 21);
        let p1 = cache.get_or_pack(|| k1, |_| pack(&m1));
        // 1 panel x 1 strip x 8x16 x 2 planes x 4 bytes.
        assert_eq!(p1.bytes(), 2 * 4 * 8 * 16);
        assert_eq!(cache.stats().bytes, p1.bytes() as u64);
        // A hit reuses the allocation: resident bytes unchanged.
        let p1b = cache.get_or_pack(|| k1, |_| panic!("must be resident"));
        assert!(Arc::ptr_eq(&p1, &p1b));
        assert_eq!(cache.stats().bytes, p1.bytes() as u64);
        // Two more entries (1024 B each) push past the 3000-byte bound;
        // after the eviction the counter matches the surviving
        // allocations exactly.
        let (m2, k2) = operand(8, 16, 22);
        let p2 = cache.get_or_pack(|| k2, |_| pack(&m2));
        let (m3, k3) = operand(8, 16, 23);
        let p3 = cache.get_or_pack(|| k3, |_| pack(&m3));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, (p2.bytes() + p3.bytes()) as u64);
        assert_eq!(s.packs, 3);
    }

    #[test]
    fn display_formats_counters() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 2,
            bytes: 2048,
            packs: 1,
            jit_compiles: 4,
            jit_hits: 9,
            jit_compile_ns: 1_000,
            jit_code_bytes: 8192,
        };
        let text = s.to_string();
        assert!(text.contains("3 hit"), "{text}");
        assert!(text.contains("1 pack run"), "{text}");
        assert!(text.contains("2.0 KiB resident"), "{text}");
        assert!(text.contains("75.0% hit ratio"), "{text}");
        assert!(text.contains("4 jit compile / 9 jit hit"), "{text}");
        assert!(text.contains("8.0 KiB code"), "{text}");
        // The idle stats line must not divide by zero.
        assert!(CacheStats::default().to_string().contains("0.0% hit ratio"));
    }

    #[test]
    fn mutation_changes_key() {
        let (mat, key) = operand(6, 6, 7);
        let mut mutated = mat.clone();
        let s = mutated.as_mut_slice();
        s[17] += 1.0;
        let key2 = CacheKey {
            fp: fingerprint(mutated.as_slice()),
            ..key
        };
        assert_ne!(key, key2);
    }
}
