//! Concurrent DyTIS (§3.4), with an optimistic read path (DESIGN.md §14).
//!
//! Writers keep the paper's two-level locking per EH table: a high-level
//! lock on the directory array and low-level reader/writer locks per
//! segment. Operations that only change the contents of one segment
//! object — normal insert, remapping, expansion, remove/shrink —
//! synchronize at the segment level (under a directory *read* lock so the
//! directory cannot move underneath them); operations that change the
//! structure — split and directory doubling — take the directory *write*
//! lock (hand-over-hand: directory first, then the victim segment).
//!
//! Readers take no directory lock at all: `get`/`scan`, the directory
//! snapshots, the versioned segment slots, the split/doubling tail and the
//! audit are the shared optimistic-read core in `concurrent_core.rs`,
//! instantiated here with the plain [`Segment`]. Every segment mutation
//! holds the slot's version-bracketed write guard, so an optimistic probe
//! that overlaps one fails validation and retries.

pub use crate::concurrent_core::ReadStats;
use crate::concurrent_core::{Core, Event, SegmentKind, Table};
use crate::epoch::EpochStats;
use crate::params::Params;
use crate::segment::{BucketUpsert, RemapOutcome, Segment};
use crate::sync::atomic::Ordering;
use crate::sync::Arc;
use index_traits::{AuditReport, Auditable, ConcurrentKvIndex, Key, Value};
use std::borrow::Cow;

impl SegmentKind for Segment {
    #[inline]
    fn local_depth(&self) -> u32 {
        self.local_depth
    }

    #[inline]
    fn probe_optimistic(
        &self,
        sk: u64,
        key: Key,
        m_total: u32,
        p: &Params,
    ) -> Option<Option<Value>> {
        // The slot read guard excludes every writer of a plain segment.
        Some(self.get(sk, key, m_total, p))
    }

    #[inline]
    fn probe_locked(&self, sk: u64, key: Key, m_total: u32, p: &Params) -> Option<Value> {
        self.get(sk, key, m_total, p)
    }

    #[inline]
    fn walk_optimistic(
        &self,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
        m_total: u32,
    ) -> Option<bool> {
        Some(self.walk_locked(start, count, out, m_total))
    }

    fn walk_locked(
        &self,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
        m_total: u32,
    ) -> bool {
        let (b, slot) = match start {
            Some((sk, key)) => {
                let b = self.bucket_of(self.local_key(sk, m_total), m_total);
                (b, self.buckets[b].lower_bound(key))
            }
            None => (0, 0),
        };
        self.walk_from(b, slot, count, out).is_some()
    }

    fn audit_view(&self) -> Cow<'_, Segment> {
        Cow::Borrowed(self)
    }

    fn counter(event: Event) -> &'static obs::Counter {
        match event {
            Event::Split => obs::counter!("cdytis.split"),
            Event::Double => obs::counter!("cdytis.double"),
            Event::Remap => obs::counter!("cdytis.remap"),
            Event::Expand => obs::counter!("cdytis.expand"),
            Event::Shrink => obs::counter!("cdytis.shrink"),
            Event::InsertRetry => obs::counter!("cdytis.insert_retries"),
        }
    }
}

/// The multi-threaded DyTIS index (used by the Figure 12 evaluation).
pub struct ConcurrentDyTis {
    pub(crate) core: Core<Segment>,
}

impl ConcurrentDyTis {
    /// Creates an index with the paper's default parameters.
    pub fn new() -> Self {
        Self::with_params(Params::default())
    }

    /// Creates an index with explicit [`Params`].
    ///
    /// # Panics
    ///
    /// Panics if `first_level_bits` is outside `1..=16`.
    pub fn with_params(params: Params) -> Self {
        ConcurrentDyTis {
            core: Core::new(params, |_| Segment::new(0)),
        }
    }

    /// Totals of the structural maintenance operations performed so far
    /// (splits, segment expansions, remaps, directory doublings, shrinks),
    /// summed over all first-level tables.  Exact once writers have
    /// quiesced.  `keys_moved` is not tracked by the concurrent variant and
    /// reads 0.
    pub fn maintenance_stats(&self) -> index_traits::MaintenanceStats {
        self.core.maintenance_stats()
    }

    /// Times an insert lost its fast path to contention or a pending
    /// structural fix and had to retry through the slow path.
    pub fn insert_retries(&self) -> u64 {
        self.core.insert_retries()
    }

    /// Optimistic-read retry/fallback counters (see [`ReadStats`]).
    pub fn read_stats(&self) -> ReadStats {
        self.core.read_stats()
    }

    /// Deferred-reclamation counters of the snapshot collector.
    pub fn epoch_stats(&self) -> EpochStats {
        self.core.epoch_stats()
    }

    /// Forces `get`/`scan` onto the §3.4 locked path (`true`) or back to
    /// optimistic reads (`false`, the default). Used as the baseline bar
    /// in the read-scaling sweep.
    pub fn set_locked_reads(&self, locked: bool) {
        self.core.set_locked_reads(locked);
    }

    /// Intentionally broken insert, compiled only for model checking:
    /// proves the loom models are non-vacuous.
    ///
    /// Identical to [`ConcurrentKvIndex::insert`] except the table key
    /// count is bumped *after* the segment lock is dropped, and with a
    /// torn `load`+`store` instead of `fetch_add` — the "it's just a
    /// counter" shortcut the §3.4 protocol forbids. The loom model in
    /// `tests/loom_models.rs` must find the two-thread schedule where one
    /// increment is lost (`len()` under-counts, the `table-key-count`
    /// audit trips). Callers must pick keys that fit the existing buckets;
    /// the maintenance slow path is deliberately not reproduced here.
    #[cfg(loom)]
    pub fn insert_seeded_torn_counter(&self, key: Key, value: Value) {
        let core = &self.core;
        let table = &core.tables[core.table_of(key)];
        let sk = core.sub_key(key);
        let inserted = {
            let dir = table.dir.read();
            let mut seg = dir.entries[core.dir_index(&dir, sk)].write();
            let b = seg.bucket_of(seg.local_key(sk, core.m_total), core.m_total);
            match seg.upsert_in_bucket(b, key, value, core.params.bucket_entries) {
                BucketUpsert::Inserted => true,
                BucketUpsert::Updated => false,
                BucketUpsert::Full => panic!("seeded-bug insert requires a key that fits"),
            }
        };
        if inserted {
            // BUG (seeded): torn read-modify-write outside the critical
            // section — a concurrent insert between the load and the store
            // loses an increment.
            let n = table.num_keys.load(Ordering::Acquire);
            table.num_keys.store(n + 1, Ordering::Release);
        }
    }

    /// Fast-path insert under directory read lock + segment write lock.
    /// Returns `true` when the insert (or in-place update) completed, or
    /// `false` when structural maintenance under the directory write lock is
    /// required (split or doubling).
    fn insert_fast(&self, table: &Table<Segment>, sk: u64, key: Key, value: Value) -> bool {
        let core = &self.core;
        let p = &core.params;
        // justified: each retry either inserts or observes a full bucket
        // and performs (or defers to `maintain` for) a structural repair;
        // repairs strictly grow capacity, so the loop terminates.
        loop {
            let dir = table.dir.read();
            let gd = dir.global_depth;
            let mut seg = dir.entries[core.dir_index(&dir, sk)].write();
            let ld = seg.local_depth;
            let k = seg.local_key(sk, core.m_total);
            let b = seg.bucket_of(k, core.m_total);
            match seg.upsert_in_bucket(b, key, value, p.bucket_entries) {
                BucketUpsert::Updated => return true,
                BucketUpsert::Inserted => {
                    // Release pairs with the Acquire loads in `len()` and the
                    // audit so key-count accounting observes the insert.
                    table.num_keys.fetch_add(1, Ordering::Release);
                    return true;
                }
                BucketUpsert::Full => {}
            }
            // Bucket full. Segment-local fixes (remapping, expansion) are
            // legal here; splits and doubling need the directory write lock.
            if ld < p.l_start {
                return false; // Warm-up split/doubling path.
            }
            let cap_buckets = p.segment_cap(ld, dir.active_limit_mult);
            let high = seg.utilization(p) > p.utilization_threshold;
            let fixed = if high && ld < gd {
                None // Split.
            } else if high {
                seg.expand(core.m_total, cap_buckets, p)
                    .then_some(Event::Expand)
            } else {
                (seg.remap_adjust(k, core.m_total, cap_buckets, p) != RemapOutcome::Failed)
                    .then_some(Event::Remap)
            };
            let Some(event) = fixed else {
                return false; // Split, or directory doubling when LD == GD.
            };
            core.record(table, event);
            // Retry the insert with the adjusted segment.
        }
    }

    /// Slow path: performs one structural step (split or doubling) under the
    /// directory write lock, then returns so the fast path can retry.
    fn maintain(&self, table: &Table<Segment>, sk: u64) {
        let core = &self.core;
        let p = &core.params;
        let mut dir = table.dir.write();
        let slot = Arc::clone(&dir.entries[core.dir_index(&dir, sk)]);
        // Writers all hold the directory read lock while holding a segment
        // lock, so none can contend here; optimistic readers, however, may
        // hold this segment's read lock without any directory lock, so this
        // acquisition can block briefly. Readers never wait while holding a
        // segment guard, so no deadlock cycle can form.
        let seg = slot.write();
        let ld = seg.local_depth;
        let b = seg.bucket_of(seg.local_key(sk, core.m_total), core.m_total);
        if seg.bucket_len(b) < p.bucket_entries {
            return; // Another thread already fixed it.
        }
        // Adaptive limit decision at doubling time (GD only grows here).
        if ld == dir.global_depth && !dir.limit_decided && dir.global_depth + 1 >= p.l_start + 2 {
            dir.limit_decided = true;
            // relaxed: every increment happened under a directory lock, so
            // holding the write lock here orders all of them before these
            // loads; the counters need no own ordering.
            let e = table.expansions.load(Ordering::Relaxed);
            // relaxed: same reasoning as the load above.
            let tot =
                e + table.splits.load(Ordering::Relaxed) + table.remaps.load(Ordering::Relaxed);
            if tot > 0 && e as f64 / tot as f64 >= p.expansion_heavy_fraction {
                dir.active_limit_mult = p.limit_mult_raised;
            }
        }
        let halves = seg.split(core.m_total, p);
        core.install_split(table, &mut dir, sk, ld, Some(seg), halves);
    }
}

impl Default for ConcurrentDyTis {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentKvIndex for ConcurrentDyTis {
    fn insert(&self, key: Key, value: Value) {
        self.core.insert(
            key,
            |table, sk| self.insert_fast(table, sk, key, value),
            |table, sk| self.maintain(table, sk),
        );
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.core.get(key)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        let core = &self.core;
        let table = &core.tables[core.table_of(key)];
        let sk = core.sub_key(key);
        let p = &core.params;
        let dir = table.dir.read();
        let mut seg = dir.entries[core.dir_index(&dir, sk)].write();
        let b = seg.bucket_of(seg.local_key(sk, core.m_total), core.m_total);
        let v = seg.remove_from_bucket(b, key)?;
        // Release pairs with the Acquire loads in `len()` and the audit.
        table.num_keys.fetch_sub(1, Ordering::Release);
        // Deletion merge (§3.3): a shrink only changes the segment object's
        // contents, so the segment write lock suffices (§3.4).
        if seg.total_buckets() > 1
            && seg.utilization(p) < p.shrink_threshold
            && seg.shrink(core.m_total, p)
        {
            core.record(table, Event::Shrink);
        }
        Some(v)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        self.core.scan(start, count, out);
    }

    fn len(&self) -> usize {
        self.core.len()
    }

    fn name(&self) -> &'static str {
        "DyTIS (concurrent)"
    }
}

impl Auditable for ConcurrentDyTis {
    /// Deep audit under the documented lock order (directory read lock,
    /// then each segment's read lock in directory order); see the shared
    /// core for the optimistic-read checks. Must not be called by a thread
    /// already holding one of this index's locks.
    fn audit(&self) -> AuditReport {
        self.core.audit("DyTIS (concurrent)")
    }
}
