//! Locality-aware work-stealing tile scheduler.
//!
//! The engine used to hand tiles out of one global `AtomicUsize` in flat
//! row-major order: every claim bounced the counter's cache line across
//! all cores, and consecutive claims by one worker usually landed in
//! *different* jc column blocks, so the B panel it had just packed (or
//! pulled into cache) was cold again by the next tile. This module
//! replaces that with the standard work-stealing shape:
//!
//! * The `tiles_m x tiles_n` grid is linearized **column-major**
//!   (`t = jc_idx * tiles_m + ic_idx`), so a contiguous run of tile
//!   indices walks all row tiles of one jc column block before advancing
//!   to the next — the B slivers of that column stay in cache across it.
//! * Each worker owns a contiguous initial slice of that order and a
//!   private claim cursor (one `AtomicU64` packing `(lo, hi)`, padded to
//!   its own cache line). Claims pop from the *front* with a CAS that
//!   only its owner issues in the common case — no global contention.
//! * A worker whose cursor runs dry picks the **most-loaded** victim and
//!   steals the *back half* of its remaining range in one CAS, installs
//!   it as its own range, and continues. Stolen ranges are contiguous,
//!   so locality degrades gracefully under imbalance instead of
//!   collapsing to round-robin.
//!
//! Scheduling can never change an output bit: it decides only *which
//! worker* computes a tile and *when*, never the per-element
//! accumulation order inside a tile (fixed by the plan). The engine's
//! bit-identity proptests run at several pool sizes with tiny tiles to
//! keep steal pressure high.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Scheduler counters, snapshotted per [`crate::EngineRuntime`]: how
/// often work moved between workers. All fields are monotone over the
/// runtime's lifetime; per-call views are deltas
/// ([`SchedStats::delta_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Successful steal operations (each transfers a contiguous range).
    pub steals: u64,
    /// Tiles transferred by those steals.
    pub tiles_stolen: u64,
    /// Always 0; kept until the benchmark retires
    /// `sched.panel_reuse_ratio` (ROADMAP item 7).
    pub panels_packed: u64,
    /// Always 0; kept until the benchmark retires
    /// `sched.panel_reuse_ratio` (ROADMAP item 7).
    pub panel_reuse_hits: u64,
}

impl SchedStats {
    /// The counter movement since `before` (all fields are monotone).
    pub fn delta_since(&self, before: &SchedStats) -> SchedStats {
        SchedStats {
            steals: self.steals - before.steals,
            tiles_stolen: self.tiles_stolen - before.tiles_stolen,
            ..SchedStats::default()
        }
    }
}

impl std::fmt::Display for SchedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} steal(s) moving {} tile(s)",
            self.steals, self.tiles_stolen
        )
    }
}

/// The runtime-resident atomic counters behind [`SchedStats`]. Updates
/// are relaxed — they are statistics, not synchronization.
#[derive(Default)]
pub(crate) struct SchedCounters {
    steals: AtomicU64,
    tiles_stolen: AtomicU64,
}

impl SchedCounters {
    pub(crate) fn note_steal(&self, batch: u64) {
        self.steals.fetch_add(1, Ordering::Relaxed);
        self.tiles_stolen.fetch_add(batch, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> SchedStats {
        SchedStats {
            steals: self.steals.load(Ordering::Relaxed),
            tiles_stolen: self.tiles_stolen.load(Ordering::Relaxed),
            ..SchedStats::default()
        }
    }
}

/// One worker's `(lo, hi)` claim range packed into a single word so
/// claim and steal race through one CAS, padded so neighbouring cursors
/// never share a cache line.
#[repr(align(64))]
struct Cursor(AtomicU64);

#[inline]
fn enc(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

#[inline]
fn dec(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// How the scheduler handed out a tile (or didn't).
pub(crate) enum Claim {
    /// Popped from the caller's own range.
    Local(usize),
    /// First tile of a range of `batch` tiles just stolen from another
    /// worker; the rest was installed as the caller's own range.
    Stolen { tile: usize, batch: usize },
    /// Every cursor is empty: the grid is fully claimed.
    Done,
}

/// Per-call scheduler over `n_tiles` column-major tile indices split
/// into `workers` contiguous initial ranges.
pub(crate) struct TileScheduler {
    cursors: Vec<Cursor>,
    /// Hands each participant of the dispatch its worker slot.
    slot: AtomicUsize,
}

impl TileScheduler {
    pub(crate) fn new(n_tiles: usize, workers: usize) -> TileScheduler {
        assert!(n_tiles <= u32::MAX as usize, "tile grid exceeds u32 range");
        let workers = workers.max(1);
        let mut cursors = Vec::with_capacity(workers);
        for w in 0..workers {
            let lo = (w * n_tiles / workers) as u32;
            let hi = ((w + 1) * n_tiles / workers) as u32;
            cursors.push(Cursor(AtomicU64::new(enc(lo, hi))));
        }
        TileScheduler {
            cursors,
            slot: AtomicUsize::new(0),
        }
    }

    /// Register the calling participant and return its worker slot. The
    /// pool runs the job on exactly as many participants as the
    /// scheduler has cursors, except when a nested dispatch degrades to
    /// solo — the clamp keeps that lone participant on a valid slot (it
    /// then drains every other range by stealing).
    pub(crate) fn join(&self) -> usize {
        self.slot
            .fetch_add(1, Ordering::Relaxed)
            .min(self.cursors.len() - 1)
    }

    /// Next tile for worker `me`: own front first, then steal the back
    /// half of the most-loaded victim. Returns [`Claim::Done`] only once
    /// every cursor is empty.
    pub(crate) fn next(&self, me: usize) -> Claim {
        if let Some(t) = self.pop_front(me) {
            return Claim::Local(t);
        }
        loop {
            let mut best: Option<(usize, u32)> = None;
            for (v, c) in self.cursors.iter().enumerate() {
                if v == me {
                    continue;
                }
                let (lo, hi) = dec(c.0.load(Ordering::Acquire));
                let rem = hi.saturating_sub(lo);
                if rem > 0 && best.is_none_or(|(_, r)| rem > r) {
                    best = Some((v, rem));
                }
            }
            let Some((victim, _)) = best else {
                return Claim::Done;
            };
            if let Some((tile, batch)) = self.steal_from(victim, me) {
                return Claim::Stolen { tile, batch };
            }
            // The victim drained (or shrank) under us; rescan.
            std::hint::spin_loop();
        }
    }

    fn pop_front(&self, me: usize) -> Option<usize> {
        let c = &self.cursors[me].0;
        let mut cur = c.load(Ordering::Acquire);
        loop {
            let (lo, hi) = dec(cur);
            if lo >= hi {
                return None;
            }
            match c.compare_exchange_weak(cur, enc(lo + 1, hi), Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(lo as usize),
                Err(v) => cur = v,
            }
        }
    }

    /// Steal the back half (rounded up, so a 1-tile remainder is still
    /// stealable) of `victim`'s range: claim the range's first tile for
    /// immediate work and install the rest as `me`'s own range. Within
    /// one dispatch `lo` only grows and `hi` only shrinks, so the CAS
    /// can't be fooled by reuse of an observed value.
    fn steal_from(&self, victim: usize, me: usize) -> Option<(usize, usize)> {
        let c = &self.cursors[victim].0;
        let mut cur = c.load(Ordering::Acquire);
        loop {
            let (lo, hi) = dec(cur);
            let rem = hi.saturating_sub(lo);
            if rem == 0 {
                return None;
            }
            let take = rem.div_ceil(2);
            let new_hi = hi - take;
            match c.compare_exchange_weak(cur, enc(lo, new_hi), Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // `me`'s cursor is empty (pop_front just failed) and
                    // only its owner installs into it, so a plain store
                    // can't clobber a concurrent update.
                    self.cursors[me]
                        .0
                        .store(enc(new_hi + 1, hi), Ordering::Release);
                    return Some((new_hi as usize, take as usize));
                }
                Err(v) => cur = v,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn drain_all(sched: &TileScheduler, me: usize) -> (Vec<usize>, usize) {
        let mut tiles = Vec::new();
        let mut stolen = 0;
        loop {
            match sched.next(me) {
                Claim::Local(t) => tiles.push(t),
                Claim::Stolen { tile, batch } => {
                    stolen += batch;
                    tiles.push(tile);
                }
                Claim::Done => return (tiles, stolen),
            }
        }
    }

    #[test]
    fn initial_partition_is_contiguous_and_covers_grid() {
        let sched = TileScheduler::new(10, 3);
        let (lo0, hi0) = dec(sched.cursors[0].0.load(Ordering::Relaxed));
        let (lo1, hi1) = dec(sched.cursors[1].0.load(Ordering::Relaxed));
        let (lo2, hi2) = dec(sched.cursors[2].0.load(Ordering::Relaxed));
        assert_eq!((lo0, hi0), (0, 3));
        assert_eq!((lo1, hi1), (3, 6));
        assert_eq!((lo2, hi2), (6, 10));
    }

    #[test]
    fn solo_worker_drains_every_range_by_stealing() {
        // A nested-dispatch fallback runs one participant against a
        // multi-cursor scheduler; it must still claim every tile.
        let sched = TileScheduler::new(17, 4);
        let me = sched.join();
        assert_eq!(me, 0);
        let (mut tiles, stolen) = drain_all(&sched, me);
        tiles.sort_unstable();
        assert_eq!(tiles, (0..17).collect::<Vec<_>>());
        assert!(stolen > 0, "other cursors must have been stolen from");
        assert!(matches!(sched.next(me), Claim::Done));
    }

    #[test]
    fn join_clamps_excess_participants() {
        let sched = TileScheduler::new(4, 2);
        assert_eq!(sched.join(), 0);
        assert_eq!(sched.join(), 1);
        assert_eq!(sched.join(), 1); // defensive clamp
    }

    #[test]
    fn steal_takes_back_half_of_most_loaded() {
        let sched = TileScheduler::new(16, 2); // [0,8) and [8,16)
                                               // Drain worker 1's own range so its next claim must steal.
        for _ in 0..8 {
            assert!(matches!(sched.next(1), Claim::Local(_)));
        }
        match sched.next(1) {
            Claim::Stolen { tile, batch } => {
                // Worker 0 still holds [0,8): back half is [4,8).
                assert_eq!((tile, batch), (4, 4));
            }
            _ => panic!("expected a steal"),
        }
        // Victim keeps its front half.
        let (lo, hi) = dec(sched.cursors[0].0.load(Ordering::Relaxed));
        assert_eq!((lo, hi), (0, 4));
    }

    #[test]
    fn concurrent_claims_cover_grid_exactly_once() {
        let n_tiles = 503; // prime: ragged ranges everywhere
        let workers = 8;
        for round in 0..8 {
            let sched = TileScheduler::new(n_tiles, workers);
            let seen = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let me = sched.join();
                        let (tiles, _) = drain_all(&sched, me);
                        seen.lock().unwrap().extend(tiles);
                    });
                }
            });
            let mut tiles = seen.into_inner().unwrap();
            tiles.sort_unstable();
            assert_eq!(
                tiles,
                (0..n_tiles).collect::<Vec<_>>(),
                "round {round}: every tile exactly once"
            );
        }
    }

    #[test]
    fn sched_stats_delta_and_display() {
        let c = SchedCounters::default();
        c.note_steal(3);
        let before = c.snapshot();
        c.note_steal(2);
        let d = c.snapshot().delta_since(&before);
        assert_eq!(
            d,
            SchedStats {
                steals: 1,
                tiles_stolen: 2,
                ..SchedStats::default()
            }
        );
        assert_eq!(d.to_string(), "1 steal(s) moving 2 tile(s)");
    }
}
