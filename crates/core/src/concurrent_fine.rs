//! Bucket-granularity concurrent DyTIS — the design the paper *rejected*.
//!
//! §3.4: "CCEH leverages concurrency at finer grains of buckets within
//! segments. We also explored this, but found that performance of DyTIS
//! generally degrades. Our analysis shows that this is due to the overhead
//! of additional memory for the fine-grained locks and the handling of
//! segments with variable sizes."
//!
//! This module reproduces that exploration so the trade-off can be measured
//! (see the `lock_granularity` Criterion bench): every bucket carries its
//! own lock, point operations take the segment lock in *read* mode plus one
//! bucket lock, and only structure-changing operations (remapping,
//! expansion, split, doubling) take write locks. The extra per-bucket locks
//! and the rebuild cost of converting between locked and plain bucket
//! arrays are exactly the overheads the paper calls out.
//!
//! Like [`crate::ConcurrentDyTis`], reads are optimistic (DESIGN.md §14)
//! and run on the shared core (`concurrent_core.rs`), which owns the
//! snapshots, the versioned slots, the split/doubling tail and the audit.
//! One difference from the coarse variant: bucket contents mutate under
//! the segment *read* lock, so the slot version is bumped only around the
//! *structural* mutations that hold the segment write lock (in-place
//! remap/expand swaps). Bucket-level consistency comes from a second,
//! per-bucket seqlock ([`FineBucket`]): writers serialize on the bucket
//! lock and bracket mutations with a per-bucket version bump, while
//! optimistic readers probe the bucket's atomic arrays with no lock at
//! all, discarding any probe whose version moved. The bucket lock is
//! taken by readers only on the locked fallback/baseline path.

use crate::bucket::Bucket;
pub use crate::concurrent::ReadStats;
use crate::concurrent_core::{Core, Event, SegmentKind, Table};
use crate::epoch::EpochStats;
use crate::params::Params;
use crate::remap::{mask64, RemapFn};
use crate::segment::{RemapOutcome, Segment};
use crate::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, MutexGuard};
use index_traits::{AuditReport, Auditable, ConcurrentKvIndex, Key, Value};
use std::borrow::Cow;

/// Seqlock read attempts per bucket before the surrounding operation
/// reports contention (retrying at its own level or falling back).
const BUCKET_RETRIES: usize = 4;

/// A fixed-capacity sorted bucket readable without its lock.
///
/// Storage is a pair of atomic arrays, so *every* shared access is atomic
/// and racing reads are defined behavior: a reader can observe a stale or
/// mid-shift pair, but never a torn word, and seqlock validation discards
/// the whole probe in that case. Writers serialize on `lock` and bracket
/// each mutation with `version` bumps (odd while mutating, via
/// [`FineBucket::write`]); optimistic readers snapshot the version, read
/// the arrays with `Relaxed` loads, and revalidate. The extra word per
/// slot-array plus lock plus version is exactly the fine-grained memory
/// overhead the paper's §3.4 analysis charges this design with.
struct FineBucket {
    /// Per-bucket seqlock version: odd while a writer mutates
    /// `len`/`keys`/`vals`, even and monotone otherwise.
    version: AtomicU64,
    /// Live pairs (a prefix of `keys`/`vals`); never exceeds capacity.
    len: AtomicUsize,
    keys: Box<[AtomicU64]>,
    vals: Box<[AtomicU64]>,
    /// Writer mutual exclusion. Optimistic readers never touch it; the
    /// locked read path takes it to make reads stable without validation.
    lock: Mutex<()>,
}

impl FineBucket {
    /// Builds from a plain bucket, reserving `cap` slots up front (the
    /// paper's fixed bucket byte budget).
    fn from_bucket(b: &Bucket, cap: usize) -> Self {
        let cap = cap.max(b.len());
        FineBucket {
            version: AtomicU64::new(0),
            len: AtomicUsize::new(b.len()),
            keys: (0..cap)
                .map(|i| AtomicU64::new(b.keys().get(i).copied().unwrap_or(0)))
                .collect(),
            vals: (0..cap)
                .map(|i| AtomicU64::new(b.vals().get(i).copied().unwrap_or(0)))
                .collect(),
            lock: Mutex::new(()),
        }
    }

    /// Consistent copy back to a plain bucket (takes the writer lock).
    fn to_bucket(&self) -> Bucket {
        let _g = self.lock.lock();
        // relaxed: the writer lock excludes mutators, so the arrays and
        // length are stable for the duration of the copy.
        let n = self.len.load(Ordering::Relaxed);
        let mut b = Bucket::with_capacity(self.keys.len());
        for i in 0..n {
            // relaxed: see above.
            b.push_sorted(
                self.keys[i].load(Ordering::Relaxed),
                self.vals[i].load(Ordering::Relaxed),
            );
        }
        b
    }

    /// Advisory live-pair count (no lock; pairs with the `Release` store
    /// closing each mutation).
    fn live_len(&self) -> usize {
        self.len.load(Ordering::Acquire).min(self.keys.len())
    }

    /// Opens a mutation window: writer lock + odd version. The guard
    /// closes the window (even again) before the lock is released.
    fn write(&self) -> FineBucketWrite<'_> {
        let guard = self.lock.lock();
        // The SeqCst RMW keeps the mutation's Relaxed data stores from
        // being ordered above the odd-version publication.
        self.version.fetch_add(1, Ordering::SeqCst);
        FineBucketWrite {
            b: self,
            _guard: guard,
        }
    }

    /// Seqlock read validation: the data loads made since `v0` was read
    /// are ordered before the re-load, and the probe only counts if no
    /// writer opened a window in between.
    fn validate(&self, v0: u64) -> bool {
        fence(Ordering::Acquire);
        self.version.load(Ordering::SeqCst) == v0
    }

    /// Branchless halving lower bound over the first `n` slots via
    /// `Relaxed` loads. Callers either hold `lock` (stable data) or
    /// validate a version around the call (torn results discarded).
    fn lower_bound_relaxed(&self, key: Key, n: usize) -> usize {
        let mut base = 0usize;
        let mut len = n;
        if len == 0 {
            return 0;
        }
        while len > 1 {
            let half = len / 2;
            // relaxed: see fn doc — stability comes from the caller's
            // lock or seqlock validation, not from this load.
            base += usize::from(self.keys[base + half - 1].load(Ordering::Relaxed) < key) * half;
            len -= half;
        }
        // relaxed: see above.
        base + usize::from(self.keys[base].load(Ordering::Relaxed) < key)
    }

    /// Hint-first position of `key` among the first `n` slots (same
    /// stability contract as [`FineBucket::lower_bound_relaxed`]).
    fn find_relaxed(&self, key: Key, hint: usize, n: usize) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let pos = hint.min(n - 1);
        // relaxed: see lower_bound_relaxed.
        if self.keys[pos].load(Ordering::Relaxed) == key {
            return Some(pos);
        }
        let i = self.lower_bound_relaxed(key, n);
        // relaxed: see lower_bound_relaxed.
        (i < n && self.keys[i].load(Ordering::Relaxed) == key).then_some(i)
    }

    /// One lock-free probe for `key`. `Err(Contended)` when a writer's
    /// mutation window overlapped the read.
    fn probe_optimistic(&self, key: Key, hint: usize) -> Result<Option<Value>, Contended> {
        let v0 = self.version.load(Ordering::SeqCst);
        if v0 & 1 == 1 {
            return Err(Contended);
        }
        // relaxed: bounded by capacity below; validated before use.
        let n = self.len.load(Ordering::Relaxed).min(self.keys.len());
        let found = self
            .find_relaxed(key, hint, n)
            // relaxed: validated below.
            .map(|i| self.vals[i].load(Ordering::Relaxed));
        if self.validate(v0) {
            Ok(found)
        } else {
            Err(Contended)
        }
    }

    /// Probe with the writer lock held (locked read path / fallback):
    /// data is stable, no validation needed.
    fn probe_locked(&self, key: Key, hint: usize) -> Option<Value> {
        let _g = self.lock.lock();
        // relaxed: the writer lock excludes mutators.
        let n = self.len.load(Ordering::Relaxed);
        self.find_relaxed(key, hint, n)
            // relaxed: see above.
            .map(|i| self.vals[i].load(Ordering::Relaxed))
    }

    /// One lock-free bulk read: appends up to `max` pairs (from the first
    /// key `>= start`, or slot 0 when `start` is `None`) to `out`.
    /// `Err(Contended)` rolls `out` back to its previous length.
    fn read_range_optimistic(
        &self,
        start: Option<Key>,
        max: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> Result<(), Contended> {
        let v0 = self.version.load(Ordering::SeqCst);
        if v0 & 1 == 1 {
            return Err(Contended);
        }
        let base = out.len();
        // relaxed: bounded by capacity below; validated before use.
        let n = self.len.load(Ordering::Relaxed).min(self.keys.len());
        // A torn pair is truncated away below.
        self.append_relaxed(start, max, n, out);
        if self.validate(v0) {
            Ok(())
        } else {
            out.truncate(base);
            Err(Contended)
        }
    }

    /// Bulk read with the writer lock held (locked scan path).
    fn read_range_locked(&self, start: Option<Key>, max: usize, out: &mut Vec<(Key, Value)>) {
        let _g = self.lock.lock();
        // relaxed: the writer lock excludes mutators.
        let n = self.len.load(Ordering::Relaxed);
        self.append_relaxed(start, max, n, out);
    }

    /// Appends up to `max` of the first `n` pairs to `out`, from the first
    /// key `>= start` (slot 0 when `start` is `None`). Same stability
    /// contract as [`FineBucket::lower_bound_relaxed`].
    fn append_relaxed(
        &self,
        start: Option<Key>,
        max: usize,
        n: usize,
        out: &mut Vec<(Key, Value)>,
    ) {
        let i0 = start.map_or(0, |k| self.lower_bound_relaxed(k, n));
        for i in i0..n.min(i0 + max) {
            // relaxed: see lower_bound_relaxed.
            out.push((
                self.keys[i].load(Ordering::Relaxed),
                self.vals[i].load(Ordering::Relaxed),
            ));
        }
    }
}

/// Marker error: a bucket writer's mutation window overlapped the read.
struct Contended;

/// Write guard over one [`FineBucket`]: holds the bucket lock with the
/// version odd; all mutation primitives live here so no path can mutate
/// outside a version window.
struct FineBucketWrite<'a> {
    b: &'a FineBucket,
    _guard: MutexGuard<'a, ()>,
}

impl Drop for FineBucketWrite<'_> {
    fn drop(&mut self) {
        // Back to even while the lock is still held; the SeqCst RMW keeps
        // the mutation's stores from sinking below the window close.
        self.b.version.fetch_add(1, Ordering::SeqCst);
    }
}

impl FineBucketWrite<'_> {
    fn len(&self) -> usize {
        // relaxed: this guard's lock excludes other mutators.
        self.b.len.load(Ordering::Relaxed)
    }

    /// Updates `key` in place; `false` if absent.
    fn update(&mut self, key: Key, value: Value) -> bool {
        let n = self.len();
        let i = self.b.lower_bound_relaxed(key, n);
        // relaxed: lock held, data stable.
        if i < n && self.b.keys[i].load(Ordering::Relaxed) == key {
            // relaxed: racing readers validate their version around loads.
            self.b.vals[i].store(value, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Inserts `(key, value)` preserving sorted order (updates in place on
    /// an existing key). The caller must have checked the bucket is not
    /// full.
    fn insert(&mut self, key: Key, value: Value) {
        let n = self.len();
        debug_assert!(n < self.b.keys.len(), "insert into full FineBucket");
        let i = self.b.lower_bound_relaxed(key, n);
        // relaxed: lock held, data stable.
        if i < n && self.b.keys[i].load(Ordering::Relaxed) == key {
            // relaxed: racing readers validate their version around loads.
            self.b.vals[i].store(value, Ordering::Relaxed);
            return;
        }
        for j in (i..n).rev() {
            // relaxed: the shift is invisible to optimistic readers — any
            // probe overlapping it fails its version validation.
            self.b.keys[j + 1].store(self.b.keys[j].load(Ordering::Relaxed), Ordering::Relaxed);
            // relaxed: see above.
            self.b.vals[j + 1].store(self.b.vals[j].load(Ordering::Relaxed), Ordering::Relaxed);
        }
        // relaxed: see above.
        self.b.keys[i].store(key, Ordering::Relaxed);
        // relaxed: see above.
        self.b.vals[i].store(value, Ordering::Relaxed);
        // Release pairs with the Acquire in `live_len` (advisory reads);
        // probes order it via the seqlock instead.
        self.b.len.store(n + 1, Ordering::Release);
    }

    /// Removes `key`, shifting larger pairs left; `None` if absent.
    fn remove(&mut self, key: Key) -> Option<Value> {
        let n = self.len();
        let i = self.b.lower_bound_relaxed(key, n);
        // relaxed: lock held, data stable.
        if i >= n || self.b.keys[i].load(Ordering::Relaxed) != key {
            return None;
        }
        // relaxed: see above.
        let v = self.b.vals[i].load(Ordering::Relaxed);
        for j in i..n - 1 {
            // relaxed: shifts are covered by the seqlock window.
            self.b.keys[j].store(
                self.b.keys[j + 1].load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
            // relaxed: see above.
            self.b.vals[j].store(
                self.b.vals[j + 1].load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
        // Release pairs with the Acquire in `live_len`.
        self.b.len.store(n - 1, Ordering::Release);
        Some(v)
    }
}

/// A segment whose buckets are individually seqlocked.
pub(crate) struct FineSegment {
    local_depth: u32,
    remap: RemapFn,
    buckets: Vec<FineBucket>,
    pub(crate) num_keys: AtomicUsize,
    remap_streak: u32,
}

impl FineSegment {
    /// Converts a plain segment, reserving `cap` slots per bucket.
    fn from_segment(seg: Segment, cap: usize) -> Self {
        FineSegment {
            local_depth: seg.local_depth,
            remap_streak: seg.remap_streak,
            num_keys: AtomicUsize::new(seg.num_keys),
            buckets: seg
                .buckets
                .iter()
                .map(|b| FineBucket::from_bucket(b, cap))
                .collect(),
            remap: seg.remap,
        }
    }

    /// Converts back to a plain segment for structure operations (this copy
    /// is part of the overhead the paper measured).
    fn to_segment(&self) -> Segment {
        let buckets: Vec<Bucket> = self.buckets.iter().map(|b| b.to_bucket()).collect();
        let occupancy = buckets.iter().map(|b| b.len() as u16).collect();
        Segment {
            local_depth: self.local_depth,
            remap: self.remap.clone(),
            buckets,
            occupancy,
            // Acquire pairs with the Release key-count updates so the copy's
            // count matches the bucket contents just cloned.
            num_keys: self.num_keys.load(Ordering::Acquire),
            remap_streak: self.remap_streak,
        }
    }

    /// Within-segment key of EH sub-key `sk`.
    #[inline]
    fn local_key(&self, sk: u64, m_total: u32) -> u64 {
        sk & mask64(m_total - self.local_depth)
    }

    #[inline]
    fn bucket_of(&self, k: u64, m_total: u32) -> usize {
        self.remap.bucket_index(k, m_total - self.local_depth)
    }

    /// Routes `sk`: target bucket index plus the remap's in-bucket slot
    /// hint (shared by both probe paths).
    #[inline]
    fn route(&self, sk: u64, m_total: u32, p: &Params) -> (usize, usize) {
        let m = m_total - self.local_depth;
        let k = sk & mask64(m);
        (
            self.remap.bucket_index(k, m),
            self.remap.slot_hint(k, m, p.bucket_entries),
        )
    }

    /// Walks the buckets from `start` (see [`SegmentKind::walk_optimistic`]),
    /// appending each one's pairs with `read`, which returns `false` when
    /// its bucket stayed contended; the walk then gives up with `None`.
    /// Bucket indices are monotone in the key, so only the very first
    /// bucket can hold keys `< start` and needs a lower bound.
    fn walk(
        &self,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
        m_total: u32,
        mut read: impl FnMut(&FineBucket, Option<Key>, usize, &mut Vec<(Key, Value)>) -> bool,
    ) -> Option<bool> {
        let (mut b, mut from) = match start {
            Some((sk, key)) => (
                self.bucket_of(self.local_key(sk, m_total), m_total),
                Some(key),
            ),
            None => (0, None),
        };
        let nb = self.buckets.len();
        while b < nb {
            if out.len() >= count {
                return Some(true);
            }
            // Hint the next bucket's key array in while this one copies
            // (same rationale as `Segment::walk_from`).
            if b + 1 < nb {
                crate::simd::prefetch_slice(&self.buckets[b + 1].keys);
            }
            if !read(&self.buckets[b], from, count - out.len(), out) {
                return None;
            }
            from = None;
            b += 1;
        }
        Some(out.len() >= count)
    }
}

impl SegmentKind for FineSegment {
    #[inline]
    fn local_depth(&self) -> u32 {
        self.local_depth
    }

    /// Lock-free bucket probe under the per-bucket seqlock — the hit path
    /// of a fine-variant `get` acquires no lock at all.
    fn probe_optimistic(
        &self,
        sk: u64,
        key: Key,
        m_total: u32,
        p: &Params,
    ) -> Option<Option<Value>> {
        let (b, hint) = self.route(sk, m_total, p);
        let bucket = &self.buckets[b];
        // justified: bounded by BUCKET_RETRIES; a persistently contended
        // bucket charges a retry to the core instead.
        (0..BUCKET_RETRIES).find_map(|_| bucket.probe_optimistic(key, hint).ok())
    }

    fn probe_locked(&self, sk: u64, key: Key, m_total: u32, p: &Params) -> Option<Value> {
        let (b, hint) = self.route(sk, m_total, p);
        self.buckets[b].probe_locked(key, hint)
    }

    fn walk_optimistic(
        &self,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
        m_total: u32,
    ) -> Option<bool> {
        self.walk(start, count, out, m_total, |bucket, from, max, out| {
            // justified: bounded by BUCKET_RETRIES; the core restarts or
            // falls back to the locked walk.
            (0..BUCKET_RETRIES).any(|_| bucket.read_range_optimistic(from, max, out).is_ok())
        })
    }

    fn walk_locked(
        &self,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
        m_total: u32,
    ) -> bool {
        let walked = self.walk(start, count, out, m_total, |bucket, from, max, out| {
            bucket.read_range_locked(from, max, out);
            true
        });
        walked == Some(true)
    }

    /// The plain-segment conversion, taking each bucket lock in turn.
    fn audit_view(&self) -> Cow<'_, Segment> {
        Cow::Owned(self.to_segment())
    }

    fn counter(event: Event) -> &'static obs::Counter {
        match event {
            Event::Split => obs::counter!("cdytis_fine.split"),
            Event::Double => obs::counter!("cdytis_fine.double"),
            Event::Remap => obs::counter!("cdytis_fine.remap"),
            Event::Expand => obs::counter!("cdytis_fine.expand"),
            // Never recorded: this variant does not merge on delete.
            Event::Shrink => obs::counter!("cdytis_fine.shrink"),
            Event::InsertRetry => obs::counter!("cdytis_fine.insert_retries"),
        }
    }
}

/// Concurrent DyTIS with per-bucket locks (ablation variant; prefer
/// [`crate::ConcurrentDyTis`], which the paper found faster).
pub struct ConcurrentDyTisFine {
    pub(crate) core: Core<FineSegment>,
}

impl ConcurrentDyTisFine {
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
        ConcurrentDyTisFine {
            core: Core::new(params, |p| {
                FineSegment::from_segment(Segment::new(0), p.bucket_entries)
            }),
        }
    }

    /// Totals of the structural maintenance operations performed so far.
    /// Exact once writers have quiesced; `keys_moved` is not tracked and
    /// reads 0.  The fine-grained variant never merges segments on delete
    /// (its remove path only takes a bucket latch), so `shrinks` reads 0
    /// by construction.
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

    /// Forces `get`/`scan` onto the locked path (`true`) or back to
    /// optimistic reads (`false`, the default).
    pub fn set_locked_reads(&self, locked: bool) {
        self.core.set_locked_reads(locked);
    }

    /// Fast path: directory read lock, segment read lock, ONE bucket
    /// write window. Returns false when maintenance is required.
    fn insert_fast(&self, table: &Table<FineSegment>, sk: u64, key: Key, value: Value) -> bool {
        let core = &self.core;
        let dir = table.dir.read();
        let seg = dir.entries[core.dir_index(&dir, sk)].seg.read();
        let b = seg.bucket_of(seg.local_key(sk, core.m_total), core.m_total);
        let mut bucket = seg.buckets[b].write();
        if bucket.update(key, value) {
            return true;
        }
        if bucket.len() < core.params.bucket_entries {
            bucket.insert(key, value);
            drop(bucket);
            // Release pairs with the Acquire loads in `len()`,
            // `to_segment`, and the audit.
            seg.num_keys.fetch_add(1, Ordering::Release);
            table.num_keys.fetch_add(1, Ordering::Release);
            return true;
        }
        false
    }

    /// Maintenance under the directory write lock: runs Algorithm 1 once on
    /// a plain-segment copy, then swaps the result back in.
    fn maintain(&self, table: &Table<FineSegment>, sk: u64) {
        let core = &self.core;
        let p = &core.params;
        let mut dir = table.dir.write();
        let slot = Arc::clone(&dir.entries[core.dir_index(&dir, sk)]);
        let fine = slot.seg.read();
        let ld = fine.local_depth;
        let k = fine.local_key(sk, core.m_total);
        if fine.buckets[fine.bucket_of(k, core.m_total)].live_len() < p.bucket_entries {
            return; // Another thread already fixed it.
        }
        let mut seg = fine.to_segment();
        drop(fine);
        let cap_buckets = p.segment_cap(ld, p.limit_mult);

        // Algorithm 1, one step: remap or expand in place, else split.
        let high = seg.utilization(p) > p.utilization_threshold;
        let fixed = if ld < p.l_start || (high && ld < dir.global_depth) {
            None
        } else if high {
            seg.expand(core.m_total, cap_buckets, p)
                .then_some(Event::Expand)
        } else {
            (seg.remap_adjust(k, core.m_total, cap_buckets, p) != RemapOutcome::Failed)
                .then_some(Event::Remap)
        };
        if let Some(event) = fixed {
            // In-place swap under the slot's write lock, version-bracketed:
            // optimistic readers either lose the try_read or see the
            // version move and retry. Same slot Arc, so the published
            // snapshot stays valid.
            *slot.write() = FineSegment::from_segment(seg, p.bucket_entries);
            core.record(table, event);
            return;
        }
        // Split (doubling first when LD == GD). The victim slot is never
        // mutated — the split copies out of it — so it needs no guard.
        let (left, right) = seg.split(core.m_total, p);
        let halves = (
            FineSegment::from_segment(left, p.bucket_entries),
            FineSegment::from_segment(right, p.bucket_entries),
        );
        core.install_split(table, &mut dir, sk, ld, None, halves);
    }
}

impl Default for ConcurrentDyTisFine {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentKvIndex for ConcurrentDyTisFine {
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
        let dir = table.dir.read();
        let seg = dir.entries[core.dir_index(&dir, sk)].seg.read();
        let b = seg.bucket_of(seg.local_key(sk, core.m_total), core.m_total);
        let v = seg.buckets[b].write().remove(key)?;
        // Release pairs with the Acquire loads in `len()`, `to_segment`,
        // and the audit.
        seg.num_keys.fetch_sub(1, Ordering::Release);
        table.num_keys.fetch_sub(1, Ordering::Release);
        Some(v)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        self.core.scan(start, count, out);
    }

    fn len(&self) -> usize {
        self.core.len()
    }

    fn name(&self) -> &'static str {
        "DyTIS (bucket-locked)"
    }
}

impl Auditable for ConcurrentDyTisFine {
    /// Deep audit under the documented lock order: per table, directory
    /// read lock, then each segment's read lock, then each bucket lock (via
    /// the plain-segment conversion); see the shared core for the
    /// optimistic-read checks. Must not be called by a thread already
    /// holding one of this index's locks.
    fn audit(&self) -> AuditReport {
        self.core.audit("DyTIS (bucket-locked)")
    }
}
