//! Content-addressed serving: one table that coalesces identical
//! requests in flight and memoizes their results.
//!
//! The engine already fingerprints operand *content* for its packed-
//! operand cache. This module exploits the same fingerprints one layer
//! up, where they are worth even more: two requests agreeing on every
//! bit of input ([`ResultKey`]) must produce bit-identical outputs —
//! the engine's own bit-identity guarantee — so the serving tier keeps
//! one [`ResultTable`] whose entry for a key is in one of two states:
//!
//! 1. **running**: a primary request with key `K` is queued or
//!    dispatched. An identical request attaches to it as a *follower*
//!    instead of entering the admission queue, so one engine dispatch
//!    fans out to N tickets;
//! 2. **done**: the primary's product, memoized in a byte-budgeted LRU.
//!    An identical request is answered from it without touching the
//!    queue at all — the time-space tradeoff of the packed-operand
//!    cache applied to whole outputs. Running entries are never
//!    evicted.
//!
//! Admission reads and writes the entry in one lock ([`ResultTable::admit`]),
//! and the primary's resolution turns it from running to done (or
//! removes it) in one lock ([`ResultTable::resolve`]), so a request
//! always finds a key absent, running or done: there is no window in
//! which it neither follows nor hits and becomes a second primary.
//!
//! Neither state can change a bit: a key covers the full content of A,
//! B, and C plus shape, scheme, and job kind, and any mutation of an
//! operand buffer changes its fingerprint, so a stale entry can never
//! be hit. The table only decides whether bit-identical work is
//! *reused* or *redone*.
//!
//! Fate-sharing rule: a primary that carries a deadline never accepts
//! followers (its pre-dispatch expiry would propagate a timeout to
//! requests that asked for none), so every fanned-out outcome is either
//! a served result (each follower's own deadline is still checked at
//! delivery), an engine failure, or shutdown — all of which the
//! follower would have observed had it dispatched alone.

use crate::queue::{lock_unpoisoned, Waiter};
use crate::request::{GemmRequest, JobKind};
use egemm::{content_fingerprint, EmulationScheme};
use egemm_matrix::{GemmShape, Matrix};
use std::collections::hash_map::Entry as Slot;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Full content address of a request: everything that can influence an
/// output bit. Two requests with equal keys are interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    pub shape: GemmShape,
    pub scheme: EmulationScheme,
    /// Job-kind discriminant: 0 = batchable gemm, 1 = gemm-with-C,
    /// 2 = split-K with the slice count folded in.
    pub kind: u64,
    pub a_fp: (u64, u64),
    pub b_fp: (u64, u64),
    /// Fingerprint of C when present; `None` keys never collide with
    /// `Some` keys even at equal shape.
    pub c_fp: Option<(u64, u64)>,
}

/// Grouping key of the bucketing scheduler: requests agreeing on all
/// fields are dispatched together (same shape and scheme are what
/// `gemm_batched` requires; the B fingerprint makes the shared-operand
/// split/pack hit the cache once per bucket). `with_c` and `SplitK`
/// requests run one engine call each — their entry points take one
/// problem at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BucketKey {
    pub shape: GemmShape,
    pub scheme: EmulationScheme,
    pub b_fp: (u64, u64),
    pub kind: u64,
}

impl ResultKey {
    /// Fingerprint a validated request. A, B and C are fingerprinted at
    /// admission, so any caller-side mutation of a buffer between calls
    /// yields a new key (the no-stale-hit guarantee).
    pub(crate) fn of(req: &GemmRequest) -> ResultKey {
        ResultKey {
            shape: req.shape(),
            scheme: req.scheme,
            kind: match req.kind {
                JobKind::Gemm if req.c.is_none() => 0,
                JobKind::Gemm => 1,
                JobKind::SplitK { slices } => 2 | ((slices as u64) << 2),
            },
            a_fp: content_fingerprint(req.a.as_slice()),
            b_fp: content_fingerprint(req.b.as_slice()),
            c_fp: req.c.as_ref().map(|c| content_fingerprint(c.as_slice())),
        }
    }

    /// The bucket this request dispatches in, read from its key, so B is
    /// hashed once per request.
    pub(crate) fn bucket(&self) -> BucketKey {
        BucketKey {
            shape: self.shape,
            scheme: self.scheme,
            b_fp: self.b_fp,
            kind: self.kind,
        }
    }
}

/// The state of one key.
enum Entry {
    /// A primary is queued or dispatched. `refuses` when it carries a
    /// deadline (the fate-sharing rule), else identical requests wait in
    /// `followers` for its outcome.
    Running {
        refuses: bool,
        followers: Vec<Waiter>,
    },
    /// The memoized product. `d` is shared between the table and any
    /// number of hits; delivery clones the matrix into the response, so
    /// a later eviction never invalidates a delivered result.
    Done {
        d: Arc<Matrix<f32>>,
        bytes: u64,
        last_used: u64,
    },
}

/// What [`ResultTable::admit`] decided for one request.
pub(crate) enum Admit {
    /// The product is memoized: answer from it, nothing to enqueue.
    Hit(Arc<Matrix<f32>>),
    /// Attached as a follower; the ticket is answered when the primary
    /// resolves. Nothing to enqueue.
    Followed,
    /// An identical primary runs but refuses followers (it has a
    /// deadline): enqueue independently, without resolving the key.
    Refused,
    /// Registered as the key's primary: enqueue, and resolve the key
    /// exactly once on every path the request leaves by.
    Primary,
}

/// The memo's counters, read together under the table's lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemoStats {
    pub hits: u64,
    /// Admissions that found no product while the memo is on. A budget
    /// of 0 counts none, so the series stay quiet when the memo is off.
    pub misses: u64,
    pub evictions: u64,
    /// Bytes of the memoized products.
    pub bytes: u64,
}

#[derive(Default)]
struct TableState {
    map: HashMap<ResultKey, Entry>,
    /// LRU clock, ticked by every hit and every memoized product.
    clock: u64,
    stats: MemoStats,
}

/// Every key with a running primary or a memoized product, under one
/// mutex. A byte budget of 0 memoizes nothing, but identical requests
/// still coalesce.
pub(crate) struct ResultTable {
    state: Mutex<TableState>,
    budget: u64,
}

impl ResultTable {
    pub(crate) fn new(budget_bytes: usize) -> ResultTable {
        ResultTable {
            state: Mutex::default(),
            budget: budget_bytes as u64,
        }
    }

    pub(crate) fn stats(&self) -> MemoStats {
        lock_unpoisoned(&self.state).stats
    }

    /// Admit a request with key `key`: hit its product, follow its
    /// running primary (attaching a copy of `waiter`), be refused by a
    /// primary with a deadline, or register as its primary.
    pub(crate) fn admit(&self, key: ResultKey, waiter: &Waiter) -> Admit {
        let st = &mut *lock_unpoisoned(&self.state);
        let admit = match st.map.entry(key) {
            Slot::Vacant(slot) => {
                slot.insert(Entry::Running {
                    refuses: waiter.deadline.is_some(),
                    followers: Vec::new(),
                });
                Admit::Primary
            }
            Slot::Occupied(slot) => match slot.into_mut() {
                Entry::Done { d, last_used, .. } => {
                    st.clock += 1;
                    *last_used = st.clock;
                    st.stats.hits += 1;
                    return Admit::Hit(Arc::clone(d));
                }
                Entry::Running { refuses: true, .. } => Admit::Refused,
                Entry::Running { followers, .. } => {
                    followers.push(waiter.clone());
                    Admit::Followed
                }
            },
        };
        if self.budget > 0 {
            st.stats.misses += 1;
        }
        admit
    }

    /// Resolve a primary's key and take its followers. With the product
    /// `d` of a success that fits the budget, the entry turns done and
    /// least-recently-used products are evicted until the budget holds;
    /// on a failure, or a product the budget cannot hold, the entry is
    /// removed. A key that is not running is left as it is, so a second
    /// resolve returns no followers.
    pub(crate) fn resolve(&self, key: &ResultKey, d: Option<&Matrix<f32>>) -> Vec<Waiter> {
        let kept = d
            .map(|d| (d, std::mem::size_of_val(d.as_slice()) as u64))
            .filter(|&(_, bytes)| self.budget > 0 && bytes <= self.budget)
            // Copy the product before taking the lock.
            .map(|(d, bytes)| (Arc::new(d.clone()), bytes));
        let st = &mut *lock_unpoisoned(&self.state);
        let Some(entry) = st.map.get_mut(key) else {
            return Vec::new();
        };
        let Entry::Running { followers, .. } = entry else {
            return Vec::new();
        };
        let followers = std::mem::take(followers);
        match kept {
            Some((d, bytes)) => {
                st.clock += 1;
                *entry = Entry::Done {
                    d,
                    bytes,
                    last_used: st.clock,
                };
                st.stats.bytes += bytes;
                self.evict_over_budget(st, key);
            }
            None => {
                st.map.remove(key);
            }
        }
        followers
    }

    /// Evict least-recently-used products, never `keep` and never a
    /// running entry, until the budget holds.
    fn evict_over_budget(&self, st: &mut TableState, keep: &ResultKey) {
        while st.stats.bytes > self.budget {
            let victim = st
                .map
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Done { last_used, .. } if k != keep => Some((*k, *last_used)),
                    _ => None,
                })
                .min_by_key(|&(_, last_used)| last_used)
                .map(|(k, _)| k);
            let Some(Entry::Done { bytes, .. }) = victim.and_then(|k| st.map.remove(&k)) else {
                break;
            };
            st.stats.bytes -= bytes;
            st.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::TicketInner;
    use std::time::{Duration, Instant};

    fn key(tag: u64) -> ResultKey {
        ResultKey {
            shape: GemmShape::new(4, 4, 4),
            scheme: EmulationScheme::EgemmTc,
            kind: 0,
            a_fp: (tag, tag),
            b_fp: (tag, !tag),
            c_fp: None,
        }
    }

    fn waiter(deadline: Option<Duration>) -> Waiter {
        let admitted = Instant::now();
        Waiter {
            ticket: TicketInner::new(),
            admitted,
            deadline: deadline.map(|d| admitted + d),
            request_id: 0,
            admitted_ns: 0,
        }
    }

    /// A 4x4 f32 product: 64 bytes.
    fn product() -> Matrix<f32> {
        Matrix::<f32>::random_uniform(4, 4, 1)
    }

    /// Run `key` through admission as the primary and resolve it with a
    /// product.
    fn compute(table: &ResultTable, k: ResultKey) {
        assert!(matches!(table.admit(k, &waiter(None)), Admit::Primary));
        assert!(table.resolve(&k, Some(&product())).is_empty());
    }

    fn hits(table: &ResultTable, k: ResultKey) -> bool {
        matches!(table.admit(k, &waiter(None)), Admit::Hit(_))
    }

    #[test]
    fn result_cache_lru_respects_byte_budget() {
        // Two 64-byte products fit a 128-byte budget.
        let table = ResultTable::new(128);
        compute(&table, key(1));
        compute(&table, key(2));
        assert_eq!(table.stats().bytes, 128);
        assert!(hits(&table, key(1)), "both products fit");
        // Key 2 is now the least recently used, so key 3 evicts it.
        compute(&table, key(3));
        assert!(hits(&table, key(1)));
        assert!(hits(&table, key(3)));
        let s = table.stats();
        assert_eq!((s.evictions, s.bytes), (1, 128));
        assert!(!hits(&table, key(2)), "the LRU product was evicted");
    }

    #[test]
    fn result_cache_capacity_zero_is_off() {
        let table = ResultTable::new(0);
        let k = key(1);
        assert!(matches!(table.admit(k, &waiter(None)), Admit::Primary));
        assert!(matches!(table.admit(k, &waiter(None)), Admit::Followed));
        assert_eq!(table.resolve(&k, Some(&product())).len(), 1);
        // Nothing was kept: the next identical request computes again.
        assert!(matches!(table.admit(k, &waiter(None)), Admit::Primary));
        assert_eq!(table.stats(), MemoStats::default(), "off = quiet");
    }

    #[test]
    fn oversized_result_is_not_cached() {
        let table = ResultTable::new(32);
        compute(&table, key(1));
        assert_eq!(table.stats().bytes, 0);
        assert!(matches!(table.admit(key(1), &waiter(None)), Admit::Primary));
        assert_eq!(table.stats().misses, 2);
    }

    #[test]
    fn running_key_is_never_evicted() {
        // Key 1 runs while key 2's product fills the budget: only done
        // products are eviction candidates, so key 1 still coalesces.
        let table = ResultTable::new(64);
        assert!(matches!(table.admit(key(1), &waiter(None)), Admit::Primary));
        compute(&table, key(2));
        compute(&table, key(3));
        assert_eq!(table.stats().evictions, 1);
        assert!(matches!(
            table.admit(key(1), &waiter(None)),
            Admit::Followed
        ));
        // Resolving it evicts key 3, the older product.
        assert_eq!(table.resolve(&key(1), Some(&product())).len(), 1);
        assert!(hits(&table, key(1)));
        assert!(!hits(&table, key(3)));
    }

    #[test]
    fn deadline_primary_refuses_followers() {
        let table = ResultTable::new(1 << 20);
        let k = key(1);
        let late = waiter(Some(Duration::from_secs(60)));
        assert!(matches!(table.admit(k, &late), Admit::Primary));
        assert!(matches!(table.admit(k, &waiter(None)), Admit::Refused));
        assert!(table.resolve(&k, Some(&product())).is_empty());
        // Its product is memoized all the same.
        assert!(hits(&table, k));
    }

    #[test]
    fn inflight_attach_and_resolve() {
        let table = ResultTable::new(1 << 20);
        let k = key(1);
        assert!(matches!(table.admit(k, &waiter(None)), Admit::Primary));
        assert!(matches!(table.admit(k, &waiter(None)), Admit::Followed));
        assert!(matches!(table.admit(k, &waiter(None)), Admit::Followed));
        // A failure removes the entry and hands back both followers.
        assert_eq!(table.resolve(&k, None).len(), 2);
        assert!(table.resolve(&k, None).is_empty(), "entry cleared");
        assert!(table.resolve(&k, Some(&product())).is_empty());
        assert_eq!(table.stats().bytes, 0, "a cleared key memoizes nothing");
        assert!(matches!(table.admit(k, &waiter(None)), Admit::Primary));
    }
}
