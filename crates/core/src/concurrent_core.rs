//! The optimistic-read core shared by both concurrent DyTIS variants
//! (DESIGN.md §14).
//!
//! [`crate::ConcurrentDyTis`] (segment locks, the paper's §3.4 design) and
//! [`crate::ConcurrentDyTisFine`] (per-bucket locks, the design §3.4
//! rejected) run one protocol, defined here once and parameterized by the
//! segment type through [`SegmentKind`]:
//!
//! * every directory entry is a versioned [`Slot`]: a reader/writer lock
//!   around the segment, a seqlock-style version that is odd while a
//!   [`SlotWrite`] guard is live, and a `retired` flag set when a split
//!   removes the segment from the directory;
//! * each EH [`Table`] keeps its live [`Dir`] under the directory lock and
//!   publishes an immutable [`Snapshot`] of it behind an [`EpochPtr`];
//! * `get`/`scan` pin an epoch guard, load the snapshot, and probe the
//!   target slot optimistically (version even → non-blocking `try_read` →
//!   not retired → probe → version unchanged), retrying a bounded number
//!   of times before falling back to the locked §3.4 path, so the
//!   optimistic path is an optimization, never a liveness requirement;
//! * structural surgery ends in [`Core::install_split`], which doubles the
//!   directory when needed and installs the split halves in the §14.2
//!   order: retire the victim, publish the new snapshot, then release the
//!   victim;
//! * [`Core::audit`] checks the directory and segment invariants plus the
//!   optimistic machinery itself (`seg-version-even`, `seg-live`,
//!   `dir-snapshot-coherent`, `epoch-quiescent`).
//!
//! Readers hold slot *read* locks without the directory lock, so a writer
//! that takes a slot write lock under the directory write lock can block
//! briefly behind them. That is safe — readers never wait on anything
//! while holding a slot guard, so no cycle can form — and it is why the
//! victim's lock (when a variant holds it) is released only after the new
//! snapshot is published: any reader that acquires the victim after the
//! release observes `retired` and reloads.
//!
//! The variants keep only what differs: how a segment is mutated (coarse:
//! in place under the slot write lock; fine: per-bucket seqlocks under the
//! slot read lock) and how it is probed and walked.

use crate::epoch::{Collector, EpochPtr, EpochStats, Guard};
use crate::params::Params;
use crate::remap::mask64;
use crate::segment::Segment;
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, RwLock, RwLockWriteGuard};
use index_traits::{AuditReport, Key, MaintenanceStats, Value};
use std::borrow::Cow;

/// Optimistic probe attempts per `get` before falling back to locks.
const READ_RETRIES: usize = 8;
/// Optimistic restarts per table in `scan` before falling back to locks.
const SCAN_RESTARTS: usize = 4;
/// Fast-path attempts per insert before the index is declared wedged.
const INSERT_ATTEMPTS: u32 = 10_000;

/// Read-path statistics (always on, like [`crate::ConcurrentDyTis::insert_retries`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Optimistic probe attempts that had to be repeated (version moved,
    /// `try_read` lost to a writer, or the segment was retired mid-probe).
    pub retries: u64,
    /// Reads that exhausted their retry budget (or found no epoch slot)
    /// and completed on the locked path instead.
    pub fallbacks: u64,
    /// Reads (point or per-table scan legs) that executed under locks —
    /// fallbacks plus everything served while `set_locked_reads(true)`.
    /// Zero here proves the optimistic hit path took no lock at all.
    pub locked: u64,
}

/// Writer-side events a variant counts, each under its own obs name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    Split,
    Double,
    Remap,
    Expand,
    Shrink,
    /// An insert lost its fast path and retried through `maintain`.
    InsertRetry,
}

/// What a segment type supplies to run under the shared core. Every
/// method is called with the slot's read lock held: `try_read` on the
/// optimistic path, a blocking `read` on the locked one.
pub(crate) trait SegmentKind: Send + Sync + Sized + 'static {
    /// The segment's local depth.
    fn local_depth(&self) -> u32;

    /// Looks up `key` (EH sub-key `sk`). `None` when a finer-grained
    /// writer overlapped the probe; the core then retries.
    fn probe_optimistic(
        &self,
        sk: u64,
        key: Key,
        m_total: u32,
        p: &Params,
    ) -> Option<Option<Value>>;

    /// Looks up `key` with any finer-grained locks taken (stable data).
    fn probe_locked(&self, sk: u64, key: Key, m_total: u32, p: &Params) -> Option<Value>;

    /// Appends the segment's pairs to `out` until it holds `count`,
    /// starting at the first key `>= start` (given with its EH sub-key)
    /// or at the segment's beginning for `None`. `Some(true)` when the
    /// scan is complete; `None` when a finer-grained writer interfered
    /// (the core rolls `out` back).
    fn walk_optimistic(
        &self,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
        m_total: u32,
    ) -> Option<bool>;

    /// [`SegmentKind::walk_optimistic`] with any finer-grained locks
    /// taken; returns whether the scan is complete.
    fn walk_locked(
        &self,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
        m_total: u32,
    ) -> bool;

    /// A plain-segment view for the structural audit.
    fn audit_view(&self) -> Cow<'_, Segment>;

    /// The variant's obs counter for `event`. Implemented in variant code
    /// so each `obs::counter!` call site (and its cached handle) belongs
    /// to exactly one variant.
    fn counter(event: Event) -> &'static obs::Counter;
}

/// A shared segment plus the metadata the optimistic read protocol needs.
pub(crate) struct Slot<S> {
    /// Seqlock-style version: odd while a [`SlotWrite`] guard is live
    /// (bumped right after acquisition and right before release), even
    /// and strictly monotone otherwise. Readers validate it around probes.
    pub(crate) version: AtomicU64,
    /// Set (under the directory write lock, before the replacement
    /// snapshot is published) when a split removes this segment from the
    /// directory. Readers holding a stale snapshot bail out and reload.
    pub(crate) retired: AtomicBool,
    pub(crate) seg: RwLock<S>,
}

impl<S> Slot<S> {
    pub(crate) fn new(seg: S) -> Arc<Slot<S>> {
        Arc::new(Slot {
            version: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            seg: RwLock::new(seg),
        })
    }

    /// Write-locks the segment and marks the mutation window open (odd
    /// version). The guard closes the window (even again) on drop, before
    /// the lock itself is released.
    pub(crate) fn write(&self) -> SlotWrite<'_, S> {
        let guard = self.seg.write();
        self.version.fetch_add(1, Ordering::SeqCst);
        SlotWrite { slot: self, guard }
    }
}

/// Write guard that brackets the segment mutation with version bumps.
pub(crate) struct SlotWrite<'a, S> {
    slot: &'a Slot<S>,
    guard: RwLockWriteGuard<'a, S>,
}

impl<S> std::ops::Deref for SlotWrite<'_, S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.guard
    }
}

impl<S> std::ops::DerefMut for SlotWrite<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.guard
    }
}

impl<S> Drop for SlotWrite<'_, S> {
    fn drop(&mut self) {
        // Runs before the `guard` field drops, so the version returns to
        // even while the write lock is still held: a reader that sees an
        // even version and then wins a `try_read` sees finished data.
        self.slot.version.fetch_add(1, Ordering::SeqCst);
    }
}

/// Immutable directory snapshot published to readers. The `Arc` clones
/// keep every referenced segment alive independent of the live directory,
/// so the epoch collector only ever has to reclaim snapshot boxes.
pub(crate) struct Snapshot<S> {
    pub(crate) generation: u64,
    pub(crate) global_depth: u32,
    pub(crate) entries: Vec<Arc<Slot<S>>>,
}

/// Directory of one concurrent EH table.
pub(crate) struct Dir<S> {
    pub(crate) global_depth: u32,
    /// Bumped by every structural change (split installation, doubling);
    /// the published snapshot must always carry the current value.
    pub(crate) generation: u64,
    pub(crate) entries: Vec<Arc<Slot<S>>>,
    /// Active segment-size limit multiplier (adaptive, §3.3). Only the
    /// coarse variant re-decides it; the fine variant keeps the default.
    pub(crate) active_limit_mult: u32,
    pub(crate) limit_decided: bool,
}

/// One concurrent EH table: directory lock + per-slot locks + the
/// reader-facing snapshot + the table's maintenance totals.
pub(crate) struct Table<S: SegmentKind> {
    pub(crate) dir: RwLock<Dir<S>>,
    pub(crate) snap: EpochPtr<Snapshot<S>>,
    pub(crate) num_keys: AtomicUsize,
    pub(crate) splits: AtomicU64,
    pub(crate) expansions: AtomicU64,
    pub(crate) remaps: AtomicU64,
    pub(crate) doublings: AtomicU64,
    pub(crate) shrinks: AtomicU64,
}

impl<S: SegmentKind> Table<S> {
    /// Re-publishes the directory as a fresh snapshot, retiring the old
    /// one through `epoch`. Caller must hold the directory write lock and
    /// have bumped `dir.generation` for the structural change.
    pub(crate) fn publish(&self, dir: &Dir<S>, epoch: &Collector) {
        self.snap.swap(
            Box::new(Snapshot {
                generation: dir.generation,
                global_depth: dir.global_depth,
                entries: dir.entries.clone(),
            }),
            epoch,
        );
    }
}

/// The index shell both variants wrap: first-level tables, the snapshot
/// collector, and the read-path switches and counters.
pub(crate) struct Core<S: SegmentKind> {
    pub(crate) params: Params,
    pub(crate) tables: Vec<Table<S>>,
    pub(crate) m_total: u32,
    /// Epoch collector for retired directory snapshots; shared by every
    /// table so one pin covers any snapshot the operation may load.
    pub(crate) epoch: Collector,
    /// When set, `get`/`scan` skip the optimistic path entirely — the
    /// lock-based baseline bar of the read-scaling sweep.
    locked_reads: AtomicBool,
    /// Times an insert lost its fast path to contention or a pending
    /// structural fix and had to retry through `maintain`.
    insert_retries: AtomicU64,
    read_retries: AtomicU64,
    read_fallbacks: AtomicU64,
    read_locked: AtomicU64,
}

impl<S: SegmentKind> Core<S> {
    /// Builds `2^first_level_bits` tables, each one empty depth-0 segment
    /// made by `empty`.
    ///
    /// # Panics
    ///
    /// Panics if `first_level_bits` is outside `1..=16`.
    pub(crate) fn new(params: Params, empty: impl Fn(&Params) -> S) -> Self {
        let r = params.first_level_bits;
        assert!((1..=16).contains(&r));
        let tables = (0..(1usize << r))
            .map(|_| {
                let entries = vec![Slot::new(empty(&params))];
                Table {
                    snap: EpochPtr::new(Box::new(Snapshot {
                        generation: 0,
                        global_depth: 0,
                        entries: entries.clone(),
                    })),
                    dir: RwLock::new(Dir {
                        global_depth: 0,
                        generation: 0,
                        entries,
                        active_limit_mult: params.limit_mult,
                        limit_decided: false,
                    }),
                    num_keys: AtomicUsize::new(0),
                    splits: AtomicU64::new(0),
                    expansions: AtomicU64::new(0),
                    remaps: AtomicU64::new(0),
                    doublings: AtomicU64::new(0),
                    shrinks: AtomicU64::new(0),
                }
            })
            .collect();
        Core {
            params,
            tables,
            m_total: 64 - r,
            epoch: Collector::new(),
            locked_reads: AtomicBool::new(false),
            insert_retries: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            read_fallbacks: AtomicU64::new(0),
            read_locked: AtomicU64::new(0),
        }
    }

    /// Maintenance totals summed over all tables; `keys_moved` reads 0.
    pub(crate) fn maintenance_stats(&self) -> MaintenanceStats {
        let mut s = MaintenanceStats::default();
        for t in &self.tables {
            // relaxed: monotonic advisory counters; exact totals are only
            // required after the writing threads have been joined.
            s.splits += t.splits.load(Ordering::Relaxed);
            // relaxed: see above.
            s.expansions += t.expansions.load(Ordering::Relaxed);
            // relaxed: see above.
            s.remaps += t.remaps.load(Ordering::Relaxed);
            // relaxed: see above.
            s.doublings += t.doublings.load(Ordering::Relaxed);
            // relaxed: see above.
            s.shrinks += t.shrinks.load(Ordering::Relaxed);
        }
        s
    }

    pub(crate) fn insert_retries(&self) -> u64 {
        // relaxed: monotonic advisory counter.
        self.insert_retries.load(Ordering::Relaxed)
    }

    pub(crate) fn read_stats(&self) -> ReadStats {
        ReadStats {
            // relaxed: monotonic advisory counters.
            retries: self.read_retries.load(Ordering::Relaxed),
            // relaxed: see above.
            fallbacks: self.read_fallbacks.load(Ordering::Relaxed),
            // relaxed: see above.
            locked: self.read_locked.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn epoch_stats(&self) -> EpochStats {
        self.epoch.stats()
    }

    pub(crate) fn set_locked_reads(&self, locked: bool) {
        // relaxed: a mode toggle; it guards no data, and either path is
        // correct at any moment.
        self.locked_reads.store(locked, Ordering::Relaxed);
    }

    /// Counts one `event` of `table` in the stats and under the variant's
    /// obs name.
    pub(crate) fn record(&self, table: &Table<S>, event: Event) {
        let stat = match event {
            Event::Split => &table.splits,
            Event::Double => &table.doublings,
            Event::Remap => &table.remaps,
            Event::Expand => &table.expansions,
            Event::Shrink => &table.shrinks,
            Event::InsertRetry => &self.insert_retries,
        };
        // relaxed: monotonic stats counter. Every table count is bumped
        // under a directory lock, so the adaptive limit decision, which
        // reads them under the directory write lock, sees all of them.
        stat.fetch_add(1, Ordering::Relaxed);
        S::counter(event).inc();
    }

    /// Drives one insert of `key`: the variant's `fast` path under the
    /// directory read lock, with one `maintain` step (a structural fix
    /// under the directory write lock) before each retry. Both get the
    /// key's table and EH sub-key. A runaway loop panics instead of
    /// hanging.
    pub(crate) fn insert(
        &self,
        key: Key,
        mut fast: impl FnMut(&Table<S>, u64) -> bool,
        mut maintain: impl FnMut(&Table<S>, u64),
    ) {
        let table = &self.tables[self.table_of(key)];
        let sk = self.sub_key(key);
        let mut attempts = 0u32;
        while !fast(table, sk) {
            attempts += 1;
            assert!(
                attempts < INSERT_ATTEMPTS,
                "concurrent insert failed to converge"
            );
            self.record(table, Event::InsertRetry);
            maintain(table, sk);
        }
    }

    #[inline]
    pub(crate) fn table_of(&self, key: Key) -> usize {
        (key >> (64 - self.params.first_level_bits)) as usize
    }

    #[inline]
    pub(crate) fn sub_key(&self, key: Key) -> u64 {
        key & mask64(self.m_total)
    }

    #[inline]
    pub(crate) fn dir_index(&self, dir: &Dir<S>, sk: u64) -> usize {
        (sk >> (self.m_total - dir.global_depth)) as usize
    }

    #[inline]
    fn snap_index(&self, snap: &Snapshot<S>, sk: u64) -> usize {
        (sk >> (self.m_total - snap.global_depth)) as usize
    }

    /// Whether reads should try the optimistic path first.
    #[inline]
    fn optimistic_enabled(&self) -> bool {
        // relaxed: mode toggle, see `set_locked_reads`.
        !self.locked_reads.load(Ordering::Relaxed)
    }

    fn count_retries(&self, n: u64) {
        if n > 0 {
            // relaxed: monotonic advisory counter.
            self.read_retries.fetch_add(n, Ordering::Relaxed);
            obs::counter!("read.retries").add(n);
        }
    }

    fn count_fallback(&self) {
        // relaxed: monotonic advisory counter.
        self.read_fallbacks.fetch_add(1, Ordering::Relaxed);
        obs::counter!("read.fallbacks").inc();
    }

    fn count_locked(&self) {
        // relaxed: monotonic advisory counter.
        self.read_locked.fetch_add(1, Ordering::Relaxed);
    }

    /// Point lookup: optimistic first, locked on exhaustion.
    pub(crate) fn get(&self, key: Key) -> Option<Value> {
        let table = &self.tables[self.table_of(key)];
        let sk = self.sub_key(key);
        if self.optimistic_enabled() {
            if let Some(v) = self.get_optimistic(table, sk, key) {
                return v;
            }
            self.count_fallback();
        }
        self.get_locked(table, sk, key)
    }

    /// Optimistic `get`: snapshot → seqlock-validated slot probe.
    /// `None` means "retry budget exhausted — take the locked path".
    fn get_optimistic(&self, table: &Table<S>, sk: u64, key: Key) -> Option<Option<Value>> {
        let guard = self.epoch.pin()?;
        let mut retries = 0u64;
        let mut result = None;
        // justified: bounded by READ_RETRIES, with a locked fallback in
        // the caller when the budget is exhausted.
        for _ in 0..READ_RETRIES {
            let snap = table.snap.load(&guard);
            let slot = &snap.entries[self.snap_index(snap, sk)];
            let v0 = slot.version.load(Ordering::SeqCst);
            if v0 & 1 == 1 {
                retries += 1; // Writer mid-mutation: don't even try the lock.
                continue;
            }
            let Some(seg) = slot.seg.try_read() else {
                retries += 1; // Writer holds the segment.
                continue;
            };
            if slot.retired.load(Ordering::SeqCst) {
                retries += 1; // Stale snapshot: reload and re-route.
                continue;
            }
            let probed = seg.probe_optimistic(sk, key, self.m_total, &self.params);
            drop(seg);
            match probed {
                Some(v) if slot.version.load(Ordering::SeqCst) == v0 => {
                    result = Some(v);
                    break;
                }
                // Bucket writer kept its seqlock busy, or the segment
                // mutated while we probed.
                _ => retries += 1,
            }
        }
        self.count_retries(retries);
        result
    }

    /// Locked `get`: the original §3.4 two-lock path, kept as the
    /// fallback and as the read-scaling baseline.
    fn get_locked(&self, table: &Table<S>, sk: u64, key: Key) -> Option<Value> {
        self.count_locked();
        let dir = table.dir.read();
        let seg = dir.entries[self.dir_index(&dir, sk)].seg.read();
        seg.probe_locked(sk, key, self.m_total, &self.params)
    }

    /// Ordered scan across the first-level tables from `start`.
    pub(crate) fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        let first = self.table_of(start);
        let from = Some((self.sub_key(start), start));
        if self.scan_table(&self.tables[first], from, count, out) {
            return;
        }
        for table in &self.tables[first + 1..] {
            if self.scan_table(table, None, count, out) {
                return;
            }
        }
    }

    /// Scans one table from `from` (its start when `None`),
    /// optimistic-first with a bounded restart budget and a locked
    /// fallback; returns `true` once `count` pairs have been collected.
    fn scan_table(
        &self,
        table: &Table<S>,
        from: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        if self.optimistic_enabled() {
            if let Some(guard) = self.epoch.pin() {
                let mut restarts = 0u64;
                // justified: bounded by SCAN_RESTARTS, with the locked
                // fallback below when the budget is exhausted.
                for _ in 0..SCAN_RESTARTS {
                    if let Some(done) = self.scan_table_optimistic(table, &guard, from, count, out)
                    {
                        self.count_retries(restarts);
                        return done;
                    }
                    restarts += 1;
                }
                self.count_retries(restarts);
            }
            self.count_fallback();
        }
        self.scan_table_locked(table, from, count, out)
    }

    /// One optimistic attempt at scanning `table`. `Some(done)` on
    /// success; `None` when any slot probe failed validation (the table's
    /// contribution has been rolled back).
    fn scan_table_optimistic(
        &self,
        table: &Table<S>,
        guard: &Guard<'_>,
        from: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> Option<bool> {
        let base_len = out.len();
        // Acquire pairs with the Release increments so a table observed
        // non-empty has its inserts visible to the probes below.
        if table.num_keys.load(Ordering::Acquire) == 0 {
            return Some(out.len() >= count);
        }
        let snap = table.snap.load(guard);
        let mut idx = from.map_or(0, |(sk, _)| self.snap_index(snap, sk));
        let mut start = from;
        while idx < snap.entries.len() {
            let slot = &snap.entries[idx];
            let v0 = slot.version.load(Ordering::SeqCst);
            let probe = if v0 & 1 == 1 {
                None
            } else {
                slot.seg.try_read()
            };
            let Some(seg) = probe.filter(|_| !slot.retired.load(Ordering::SeqCst)) else {
                out.truncate(base_len);
                return None;
            };
            let span = 1usize << (snap.global_depth - seg.local_depth());
            let walked = seg.walk_optimistic(start, count, out, self.m_total);
            drop(seg);
            let Some(done) = walked.filter(|_| slot.version.load(Ordering::SeqCst) == v0) else {
                out.truncate(base_len);
                return None;
            };
            if done {
                return Some(true);
            }
            start = None;
            // Align to the next segment's first directory entry so each
            // segment is visited once.
            idx = (idx & !(span - 1)) + span;
        }
        Some(out.len() >= count)
    }

    /// Locked scan of one table (fallback path and read-scaling
    /// baseline); returns `true` once `count` pairs have been collected.
    fn scan_table_locked(
        &self,
        table: &Table<S>,
        from: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        self.count_locked();
        let dir = table.dir.read();
        // Acquire pairs with the Release increments so a table observed
        // non-empty has its inserts visible to the scan below.
        if table.num_keys.load(Ordering::Acquire) == 0 {
            return out.len() >= count;
        }
        let mut idx = from.map_or(0, |(sk, _)| self.dir_index(&dir, sk));
        let mut start = from;
        while idx < dir.entries.len() {
            let seg = dir.entries[idx].seg.read();
            let span = 1usize << (dir.global_depth - seg.local_depth());
            if seg.walk_locked(start, count, out, self.m_total) {
                return true;
            }
            start = None;
            idx = (idx & !(span - 1)) + span;
        }
        out.len() >= count
    }

    /// Total live keys over all tables.
    pub(crate) fn len(&self) -> usize {
        self.tables
            .iter()
            // Acquire pairs with the Release key-count updates so `len()`
            // reflects every completed insert/remove.
            .map(|t| t.num_keys.load(Ordering::Acquire))
            .sum()
    }

    /// The structural tail of `maintain`, under the directory write lock:
    /// doubles the directory when the victim (the segment `sk` routes to,
    /// at local depth `ld`) spans a single entry, then installs the split
    /// `halves` in its place and publishes them in the §14.2 order — mark the
    /// victim retired, publish the new snapshot (retiring the old one
    /// through the collector), and only then release `held`, the victim's
    /// write guard if the variant kept one. A reader that wins `try_read`
    /// on the victim after that release is guaranteed to observe
    /// `retired` and reload a snapshot that routes around it; one still
    /// probing it under a stale snapshot sees complete pre-split data,
    /// because splitting copies out of the victim and leaves it intact.
    pub(crate) fn install_split(
        &self,
        table: &Table<S>,
        dir: &mut Dir<S>,
        sk: u64,
        ld: u32,
        held: Option<SlotWrite<'_, S>>,
        halves: (S, S),
    ) {
        let victim = Arc::clone(&dir.entries[self.dir_index(dir, sk)]);
        if ld == dir.global_depth {
            let mut entries = Vec::with_capacity(dir.entries.len() * 2);
            for e in &dir.entries {
                entries.push(Arc::clone(e));
                entries.push(Arc::clone(e));
            }
            dir.entries = entries;
            dir.global_depth += 1;
            self.record(table, Event::Double);
        }
        let span = 1usize << (dir.global_depth - (ld + 1));
        let base = self.dir_index(dir, sk) & !(span * 2 - 1);
        let left = Slot::new(halves.0);
        let right = Slot::new(halves.1);
        for e in &mut dir.entries[base..base + span] {
            *e = Arc::clone(&left);
        }
        for e in &mut dir.entries[base + span..base + 2 * span] {
            *e = Arc::clone(&right);
        }
        dir.generation += 1;
        victim.retired.store(true, Ordering::SeqCst);
        table.publish(dir, &self.epoch);
        drop(held);
        self.record(table, Event::Split);
    }

    /// Deep audit under the documented lock order: per table, the
    /// directory read lock is taken first, then each slot's read lock in
    /// directory order (one at a time), then whatever the variant's
    /// [`SegmentKind::audit_view`] takes. Must not be called by a thread
    /// already holding one of the index's locks.
    ///
    /// On top of the structural invariants, the audit checks the
    /// optimistic-read machinery: slot versions must be even while the
    /// auditor holds the slot read lock (`seg-version-even`), reachable
    /// slots must not be marked retired (`seg-live`), the published
    /// snapshot must mirror the live directory (`dir-snapshot-coherent`),
    /// and with no readers pinned a collect must leave no garbage behind
    /// (`epoch-quiescent`).
    pub(crate) fn audit(&self, name: &'static str) -> AuditReport {
        let mut report = AuditReport::new(name);
        for (t, table) in self.tables.iter().enumerate() {
            let dir = table.dir.read();
            let gd = dir.global_depth;
            report.check(dir.entries.len() == 1usize << gd, "dir-size", || {
                (
                    format!("table {t}"),
                    format!("directory has {} entries at GD {gd}", dir.entries.len()),
                )
            });
            let mut total = 0usize;
            let mut last_key: Option<Key> = None;
            let mut idx = 0usize;
            while idx < dir.entries.len() {
                let slot = &dir.entries[idx];
                let seg = slot.seg.read();
                // Holding the slot read lock excludes `SlotWrite` holders,
                // whose mutation window is exactly the odd-version window.
                let v = slot.version.load(Ordering::SeqCst);
                report.check(v & 1 == 0, "seg-version-even", || {
                    (
                        format!("table {t} / dir[{idx}]"),
                        format!("version {v} is odd with no writer able to hold the lock"),
                    )
                });
                report.check(!slot.retired.load(Ordering::SeqCst), "seg-live", || {
                    (
                        format!("table {t} / dir[{idx}]"),
                        "directory-reachable segment is marked retired".into(),
                    )
                });
                let view = seg.audit_view();
                let ld = view.local_depth;
                if !report.check(ld <= gd, "local-depth", || {
                    (
                        format!("table {t} / dir[{idx}]"),
                        format!("local_depth {ld} exceeds global_depth {gd}"),
                    )
                }) {
                    idx += 1;
                    continue;
                }
                let span = 1usize << (gd - ld);
                report.check(idx.is_multiple_of(span), "dir-alignment", || {
                    (
                        format!("table {t} / dir[{idx}]"),
                        format!("segment (span {span}) starts unaligned"),
                    )
                });
                let end = (idx + span).min(dir.entries.len());
                report.check(
                    dir.entries[idx..end]
                        .iter()
                        .all(|e| Arc::ptr_eq(e, &dir.entries[idx])),
                    "dir-coverage",
                    || {
                        (
                            format!("table {t} / dir[{idx}..{end}]"),
                            "span mixes directory targets".into(),
                        )
                    },
                );
                let loc = format!("table {t} / dir[{idx}]");
                crate::audit::audit_segment(&view, self.m_total, &self.params, &loc, &mut report);
                if let Some((first, last)) = crate::audit::segment_key_bounds(&view) {
                    let prefix = (idx / span) as u64;
                    let shift = self.m_total - ld;
                    for key in [first, last] {
                        let sk = key & mask64(self.m_total);
                        report.check(ld == 0 || sk >> shift == prefix, "key-range", || {
                            (
                                loc.clone(),
                                format!("key {key:#x} outside directory prefix {prefix:#x}"),
                            )
                        });
                    }
                    report.check(
                        last_key.is_none_or(|p| p < first),
                        "table-key-order",
                        || {
                            (
                                loc.clone(),
                                format!(
                                    "first key {first:#x} not above previous segment's {last_key:?}"
                                ),
                            )
                        },
                    );
                    last_key = Some(last);
                }
                total += view.num_keys;
                idx += span;
            }
            report.check(
                total == table.num_keys.load(Ordering::Acquire),
                "table-key-count",
                || {
                    (
                        format!("table {t}"),
                        format!(
                            "segments hold {total} keys, table claims {}",
                            table.num_keys.load(Ordering::Acquire)
                        ),
                    )
                },
            );
            // Snapshot coherence: publishes happen under the directory
            // write lock, which our read lock excludes, so the published
            // snapshot must mirror the live directory exactly. Skipped only
            // if every epoch slot is busy (pure reader traffic).
            if let Some(guard) = self.epoch.pin() {
                let snap = table.snap.load(&guard);
                let coherent = snap.generation == dir.generation
                    && snap.global_depth == dir.global_depth
                    && snap.entries.len() == dir.entries.len()
                    && snap
                        .entries
                        .iter()
                        .zip(&dir.entries)
                        .all(|(a, b)| Arc::ptr_eq(a, b));
                report.check(coherent, "dir-snapshot-coherent", || {
                    (
                        format!("table {t}"),
                        format!(
                            "snapshot gen {} / GD {} / {} entries vs directory gen {} / GD {} / {} entries",
                            snap.generation,
                            snap.global_depth,
                            snap.entries.len(),
                            dir.generation,
                            dir.global_depth,
                            dir.entries.len()
                        ),
                    )
                });
            }
        }
        // Epoch quiescence: with no reader pinned, collecting must drain
        // the garbage list. Readers pinning concurrently legitimately defer
        // frees, so the check self-skips unless quiescence holds across the
        // collect (bounded re-tries absorb the transient races).
        // justified: bounded to 4 rounds, then the check is skipped.
        for _ in 0..4 {
            if !self.epoch.quiescent() {
                break;
            }
            self.epoch.collect();
            let pending = self.epoch.stats().pending;
            if !self.epoch.quiescent() {
                // A reader pinned mid-collect: the pending count is not
                // evidence of a leak. Retry the round.
                continue;
            }
            report.check(pending == 0, "epoch-quiescent", || {
                (
                    "epoch collector".into(),
                    format!("{pending} garbage item(s) survive a quiescent collect"),
                )
            });
            break;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    //! One set of test bodies, instantiated for both variants by
    //! `for_both_variants!` at the bottom.

    use super::*;
    use crate::concurrent_fine::FineSegment;
    use crate::{ConcurrentDyTis, ConcurrentDyTisFine};
    use index_traits::{Auditable, ConcurrentKvIndex};
    use std::sync::Arc as StdArc;

    /// What the shared bodies need from a variant beyond its public API.
    trait Variant: ConcurrentKvIndex + Auditable + 'static {
        type Seg: SegmentKind;
        fn small() -> Self;
        fn core(&self) -> &Core<Self::Seg>;
        /// SEEDED CORRUPTION: bumps the first segment's key count behind
        /// its table's back.
        fn corrupt_segment_key_count(&self);
    }

    impl Variant for ConcurrentDyTis {
        type Seg = Segment;
        fn small() -> Self {
            ConcurrentDyTis::with_params(Params::small())
        }
        fn core(&self) -> &Core<Segment> {
            &self.core
        }
        fn corrupt_segment_key_count(&self) {
            let dir = self.core.tables[0].dir.read();
            let mut seg = dir.entries[0].seg.write();
            seg.num_keys += 1;
        }
    }

    impl Variant for ConcurrentDyTisFine {
        type Seg = FineSegment;
        fn small() -> Self {
            ConcurrentDyTisFine::with_params(Params::small())
        }
        fn core(&self) -> &Core<FineSegment> {
            &self.core
        }
        fn corrupt_segment_key_count(&self) {
            let dir = self.core.tables[0].dir.read();
            let seg = dir.entries[0].seg.read();
            seg.num_keys.fetch_add(1, Ordering::Release);
        }
    }

    fn scramble(k: u64) -> u64 {
        k.wrapping_mul(0x9E3779B97F4A7C15)
    }

    /// A small index holding keys `0..n`, audited clean.
    fn filled<V: Variant>(n: u64) -> V {
        let idx = V::small();
        for k in 0..n {
            idx.insert(k, k);
        }
        idx.audit().assert_clean();
        idx
    }

    fn violates(report: &AuditReport, invariant: &str) -> bool {
        report.violations.iter().any(|v| v.invariant == invariant)
    }

    fn single_thread_roundtrip<V: Variant>() {
        let idx = V::small();
        for k in 0..6_000u64 {
            idx.insert(k * 3, k);
        }
        assert_eq!(idx.len(), 6_000);
        for k in (0..6_000u64).step_by(71) {
            assert_eq!(idx.get(k * 3), Some(k));
        }
        let mut out = Vec::new();
        idx.scan(0, 1_000, &mut out);
        assert_eq!(out.len(), 1_000);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    fn locked_read_mode_matches_optimistic<V: Variant>() {
        let idx = V::small();
        for k in 0..6_000u64 {
            idx.insert(scramble(k), k);
        }
        idx.core().set_locked_reads(true);
        for k in (0..6_000u64).step_by(31) {
            assert_eq!(idx.get(scramble(k)), Some(k));
        }
        let mut locked = Vec::new();
        idx.scan(0, 500, &mut locked);
        idx.core().set_locked_reads(false);
        for k in (0..6_000u64).step_by(31) {
            assert_eq!(idx.get(scramble(k)), Some(k));
        }
        let mut optimistic = Vec::new();
        idx.scan(0, 500, &mut optimistic);
        assert_eq!(locked, optimistic);
    }

    fn maintenance_retires_snapshots_through_the_collector<V: Variant>() {
        let idx = V::small();
        for k in 0..6_000u64 {
            idx.insert(k * 3, k);
        }
        let st = idx.core().epoch_stats();
        assert!(
            st.deferred > 0,
            "splits/doublings must retire old snapshots"
        );
        assert_eq!(
            st.freed, st.deferred,
            "no reader pinned: everything must be freed"
        );
        assert_eq!(st.pending, 0);
    }

    fn concurrent_disjoint_inserts<V: Variant>() {
        let idx = StdArc::new(V::small());
        let threads = 4u64;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let idx = StdArc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let k = t * per + i;
                        idx.insert(scramble(k), k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), (threads * per) as usize);
        for k in (0..threads * per).step_by(97) {
            assert_eq!(idx.get(scramble(k)), Some(k));
        }
    }

    fn concurrent_overlapping_upserts<V: Variant>() {
        let idx = StdArc::new(V::small());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let idx = StdArc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        idx.insert(i, i + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 5_000);
        for i in (0..5_000u64).step_by(53) {
            assert_eq!(idx.get(i), Some(i + 1));
        }
    }

    fn readers_race_writers<V: Variant>() {
        let idx = StdArc::new(V::small());
        for i in 0..5_000u64 {
            idx.insert(i * 2, i);
        }
        let writer = {
            let idx = StdArc::clone(&idx);
            std::thread::spawn(move || {
                for i in 5_000..20_000u64 {
                    idx.insert(i * 2, i);
                }
            })
        };
        let reader = {
            let idx = StdArc::clone(&idx);
            std::thread::spawn(move || {
                let mut hits = 0;
                for _ in 0..3 {
                    for i in 0..5_000u64 {
                        if idx.get(i * 2) == Some(i) {
                            hits += 1;
                        }
                    }
                }
                hits
            })
        };
        let scanner = {
            let idx = StdArc::clone(&idx);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for _ in 0..50 {
                    out.clear();
                    idx.scan(0, 100, &mut out);
                    assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                }
            })
        };
        writer.join().unwrap();
        assert_eq!(reader.join().unwrap(), 15_000);
        scanner.join().unwrap();
        assert_eq!(idx.len(), 20_000);
    }

    fn read_hammer_fires_retries_and_deferred_frees<V: Variant>() {
        // Writer splits/doubles under tiny geometry while readers spin:
        // the optimistic machinery must demonstrably fire, not idle.
        let idx = StdArc::new(V::small());
        for i in 0..2_000u64 {
            idx.insert(i * 4, i);
        }
        let stop = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let idx = StdArc::clone(&idx);
                let stop = StdArc::clone(&stop);
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for i in (0..2_000u64).step_by(7) {
                            assert_eq!(idx.get(i * 4), Some(i));
                        }
                        out.clear();
                        idx.scan(0, 64, &mut out);
                        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                    }
                })
            })
            .collect();
        for i in 2_000..30_000u64 {
            idx.insert(i * 4 + 1, i);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let st = idx.core().epoch_stats();
        assert!(st.deferred > 0, "maintenance must retire snapshots");
        idx.audit().assert_clean();
    }

    fn removes_work<V: Variant>() {
        let idx = V::small();
        for k in 0..5_000u64 {
            idx.insert(k, k);
        }
        for k in 0..2_500u64 {
            assert_eq!(idx.remove(k), Some(k));
        }
        assert_eq!(idx.len(), 2_500);
        assert_eq!(idx.remove(0), None);
        assert_eq!(idx.get(0), None);
        assert_eq!(idx.get(3_000), Some(3_000));
        idx.audit().assert_clean();
    }

    fn audit_clean_after_concurrent_growth<V: Variant>() {
        let idx = StdArc::new(V::small());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let idx = StdArc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        idx.insert(scramble(t * 5_000 + i), i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer");
        }
        let report = idx.audit();
        assert!(report.checks > 20_000);
        report.assert_clean();
    }

    fn audit_detects_corrupted_segment_key_count<V: Variant>() {
        let idx = filled::<V>(2_000);
        idx.corrupt_segment_key_count();
        let report = idx.audit();
        assert!(!report.is_clean());
        assert!(violates(&report, "segment-key-count") || violates(&report, "table-key-count"));
    }

    fn audit_detects_torn_segment_version<V: Variant>() {
        let idx = filled::<V>(2_000);
        // SEEDED CORRUPTION: leave a version odd with no writer present, as
        // if a mutation window never closed.
        {
            let dir = idx.core().tables[0].dir.read();
            dir.entries[0].version.fetch_add(1, Ordering::SeqCst);
        }
        assert!(violates(&idx.audit(), "seg-version-even"));
    }

    fn audit_detects_retired_live_segment<V: Variant>() {
        let idx = filled::<V>(2_000);
        // SEEDED CORRUPTION: a reachable segment must never be retired.
        {
            let dir = idx.core().tables[0].dir.read();
            dir.entries[0].retired.store(true, Ordering::SeqCst);
        }
        assert!(violates(&idx.audit(), "seg-live"));
    }

    fn audit_detects_stale_snapshot<V: Variant>() {
        let idx = filled::<V>(2_000);
        // SEEDED CORRUPTION: publish a snapshot that does not mirror the
        // live directory (wrong generation).
        {
            let core = idx.core();
            let dir = core.tables[0].dir.read();
            core.tables[0].snap.swap(
                Box::new(Snapshot {
                    generation: dir.generation + 999,
                    global_depth: dir.global_depth,
                    entries: dir.entries.clone(),
                }),
                &core.epoch,
            );
        }
        assert!(violates(&idx.audit(), "dir-snapshot-coherent"));
    }

    fn audit_detects_unreclaimed_epoch_garbage<V: Variant>() {
        let idx = filled::<V>(2_000);
        // SEEDED CORRUPTION: garbage stamped so no collect can free it —
        // the audit's quiescent collect must notice the leak.
        idx.core().epoch.retire_uncollectable(Box::new(0u64));
        assert!(violates(&idx.audit(), "epoch-quiescent"));
    }

    macro_rules! for_both_variants {
        ($($name:ident),* $(,)?) => {
            mod coarse {
                $(#[test]
                fn $name() {
                    super::$name::<crate::ConcurrentDyTis>();
                })*
            }
            mod fine {
                $(#[test]
                fn $name() {
                    super::$name::<crate::ConcurrentDyTisFine>();
                })*
            }
        };
    }

    for_both_variants!(
        single_thread_roundtrip,
        locked_read_mode_matches_optimistic,
        maintenance_retires_snapshots_through_the_collector,
        concurrent_disjoint_inserts,
        concurrent_overlapping_upserts,
        readers_race_writers,
        read_hammer_fires_retries_and_deferred_frees,
        removes_work,
        audit_clean_after_concurrent_growth,
        audit_detects_corrupted_segment_key_count,
        audit_detects_torn_segment_version,
        audit_detects_retired_live_segment,
        audit_detects_stale_snapshot,
        audit_detects_unreclaimed_epoch_garbage,
    );
}
