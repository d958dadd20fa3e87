//! The result oracle of the in-process workloads.
//!
//! During the timed run each replayer records only compact results: the
//! value every read returned, and for every scan a [`ScanRec`]. After the
//! run [`check`] replays the replayer's own operations into a `BTreeMap`
//! and counts every result that disagrees. Keys are split among replayers
//! by [`owner`], so each key is written by one replayer in program order
//! and its value is known exactly; a scan racing other replayers is checked
//! for order and for containing every key of its own replayer in range.

use index_traits::{Key, Value};
use scenario::{ScenarioOp, SCAN_COUNT};
use std::collections::BTreeMap;

/// Recorded for a read that found nothing.
pub const MISSING: u64 = u64::MAX;

/// Which of `parts` replayers owns `key`.
#[inline]
pub fn owner(key: Key, parts: usize) -> usize {
    if parts == 1 {
        0
    } else {
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % parts as u64) as usize
    }
}

/// The key an op addresses (a scan's start key).
pub fn op_key(op: &ScenarioOp) -> Key {
    match *op {
        ScenarioOp::Insert(k, _)
        | ScenarioOp::Update(k, _)
        | ScenarioOp::Read(k)
        | ScenarioOp::Scan(k)
        | ScenarioOp::Delete(k) => k,
    }
}

#[inline]
fn mix(k: Key, v: Value) -> u64 {
    (k ^ v.rotate_left(29)).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ (k >> 17)
}

/// What a scan returned, reduced to what the oracle checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanRec {
    /// Pairs returned.
    pub len: u32,
    /// Keys strictly increasing.
    pub sorted: bool,
    /// Last key returned (0 when empty).
    pub last: Key,
    /// Pairs whose key this replayer owns.
    pub own: u32,
    /// Order-independent digest of those pairs.
    pub digest: u64,
}

/// Reduces one scan result for replayer `part` of `parts`.
#[inline]
pub fn scan_rec(out: &[(Key, Value)], part: usize, parts: usize) -> ScanRec {
    let mut r = ScanRec {
        len: out.len() as u32,
        sorted: true,
        ..ScanRec::default()
    };
    let mut prev: Option<Key> = None;
    for &(k, v) in out {
        if prev.is_some_and(|p| p >= k) {
            r.sorted = false;
        }
        prev = Some(k);
        if owner(k, parts) == part {
            r.own += 1;
            r.digest = r.digest.wrapping_add(mix(k, v));
        }
    }
    r.last = prev.unwrap_or(0);
    r
}

/// Results one replayer recorded, in its op order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Record {
    /// One entry per read: the value, or [`MISSING`].
    pub reads: Vec<u64>,
    /// One entry per scan.
    pub scans: Vec<ScanRec>,
}

impl Record {
    /// An empty record with room for `reads` reads and `scans` scans.
    pub fn with_capacity(reads: usize, scans: usize) -> Record {
        Record {
            reads: Vec::with_capacity(reads),
            scans: Vec::with_capacity(scans),
        }
    }

    /// Empties the record, keeping its capacity.
    pub fn clear(&mut self) {
        self.reads.clear();
        self.scans.clear();
    }
}

/// The oracle's state after a replayer's load ops.
pub fn loaded(load: &[ScenarioOp]) -> BTreeMap<Key, Value> {
    let mut map = BTreeMap::new();
    for op in load {
        if let ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) = *op {
            map.insert(k, v);
        }
    }
    map
}

/// Replays one replayer's serve ops into a copy of its [`loaded`] state and
/// returns how many recorded results disagree with it. `serve` holds only
/// this replayer's ops. With `corrupt`, the oracle's first expected read
/// value is deliberately wrong, so a working check must report it.
pub fn check(
    base: &BTreeMap<Key, Value>,
    serve: &[ScenarioOp],
    rec: &Record,
    corrupt: bool,
) -> u64 {
    let mut map = base.clone();
    let mut failed = 0u64;
    let (mut ri, mut si) = (0usize, 0usize);
    for op in serve {
        match *op {
            ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) => {
                map.insert(k, v);
            }
            ScenarioOp::Delete(k) => {
                map.remove(&k);
            }
            ScenarioOp::Read(k) => {
                let mut want = map.get(&k).copied().unwrap_or(MISSING);
                if corrupt && ri == 0 {
                    want ^= 1;
                }
                if rec.reads.get(ri) != Some(&want) {
                    failed += 1;
                }
                ri += 1;
            }
            ScenarioOp::Scan(start) => {
                let Some(got) = rec.scans.get(si) else {
                    failed += 1;
                    si += 1;
                    continue;
                };
                si += 1;
                // A full scan covers [start, last]; a short one claims the
                // index has nothing more, so it covers [start, MAX].
                let end = if got.len as usize >= SCAN_COUNT {
                    got.last
                } else {
                    Key::MAX
                };
                let mut own = 0u32;
                let mut digest = 0u64;
                if start <= end {
                    for (&k, &v) in map.range(start..=end) {
                        own += 1;
                        digest = digest.wrapping_add(mix(k, v));
                    }
                }
                if !got.sorted
                    || got.len as usize > SCAN_COUNT
                    || (got.len > 0 && got.last < start)
                    || got.own != own
                    || got.digest != digest
                {
                    failed += 1;
                }
            }
        }
    }
    failed
}

/// Splits `ops` among `parts` replayers by the owner of each op's key,
/// keeping program order within each replayer.
pub fn split(ops: &[ScenarioOp], parts: usize) -> Vec<Vec<ScenarioOp>> {
    let mut out = vec![Vec::with_capacity(ops.len() / parts + 1); parts];
    for op in ops {
        out[owner(op_key(op), parts)].push(*op);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dytis::DyTis;
    use index_traits::KvIndex;

    fn replay(ops: &[ScenarioOp]) -> Record {
        let mut idx = DyTis::new();
        let mut rec = Record::default();
        let mut out = Vec::new();
        for op in ops {
            match *op {
                ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) => idx.insert(k, v),
                ScenarioOp::Delete(k) => {
                    idx.remove(k);
                }
                ScenarioOp::Read(k) => rec.reads.push(idx.get(k).unwrap_or(MISSING)),
                ScenarioOp::Scan(s) => {
                    out.clear();
                    idx.scan(s, SCAN_COUNT, &mut out);
                    rec.scans.push(scan_rec(&out, 0, 1));
                }
            }
        }
        rec
    }

    fn ops() -> Vec<ScenarioOp> {
        let mut v = Vec::new();
        for i in 0..500u64 {
            v.push(ScenarioOp::Insert(i * 7, i));
            if i % 5 == 4 {
                v.push(ScenarioOp::Read(i * 7 - 14));
                v.push(ScenarioOp::Scan(i * 3));
            }
        }
        v
    }

    #[test]
    fn correct_results_pass() {
        let ops = ops();
        assert_eq!(check(&BTreeMap::new(), &ops, &replay(&ops), false), 0);
    }

    #[test]
    fn wrong_results_fail() {
        let ops = ops();
        let good = replay(&ops);
        assert_eq!(
            check(&BTreeMap::new(), &ops, &good, true),
            1,
            "corrupt oracle"
        );
        let mut bad = good.clone();
        bad.reads[3] += 1;
        assert_eq!(check(&BTreeMap::new(), &ops, &bad, false), 1, "wrong value");
        let mut bad = good.clone();
        bad.scans[5].own -= 1;
        assert_eq!(check(&BTreeMap::new(), &ops, &bad, false), 1, "missing key");
        let mut bad = good;
        bad.scans[7].sorted = false;
        assert_eq!(
            check(&BTreeMap::new(), &ops, &bad, false),
            1,
            "unsorted scan"
        );
    }

    #[test]
    fn split_keeps_each_key_on_one_replayer() {
        let ops = ops();
        let parts = split(&ops, 2);
        assert_eq!(parts[0].len() + parts[1].len(), ops.len());
        for (p, part) in parts.iter().enumerate() {
            assert!(part.iter().all(|op| owner(op_key(op), 2) == p));
        }
    }
}
