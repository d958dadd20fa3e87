//! Recovery tests for [`DurableShardedStore`]: graceful reopen, simulated
//! kill, checkpoint rotation, and torn log tails.

use kvstore::{DurabilityOptions, DurableShardedStore};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kv-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(shard_bits: u32, ops_per_checkpoint: u64) -> DurabilityOptions {
    DurabilityOptions {
        shard_bits,
        ops_per_checkpoint,
        max_batch_records: 256,
        ..DurabilityOptions::default()
    }
}

/// Spread keys across all shards: mix the counter into the top bits.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Full contents must match, and so must scans that start mid-space: on a
/// shard boundary, inside a shard (crossing into the next ones), and near
/// the end of the key space.
fn assert_matches_oracle(store: &DurableShardedStore, oracle: &BTreeMap<u64, u64>) {
    assert_eq!(store.len(), oracle.len());
    let got = store.scan(0, oracle.len() + 16);
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want);
    let count = oracle.len() / 2 + 1;
    for start in [1u64 << 62, (1 << 62) + (1 << 61), u64::MAX - (1 << 60)] {
        let want: Vec<(u64, u64)> = oracle
            .range(start..)
            .take(count)
            .map(|(&k, &v)| (k, v))
            .collect();
        assert_eq!(store.scan(start, count), want, "scan from {start:#x}");
    }
}

#[test]
fn graceful_shutdown_and_reopen() {
    let dir = temp_dir("graceful");
    let mut oracle = BTreeMap::new();
    {
        let store = DurableShardedStore::open(&dir, opts(2, 0)).expect("open");
        for i in 0..2_000u64 {
            let k = key(i);
            store.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        for i in (0..500u64).step_by(3) {
            let k = key(i);
            assert_eq!(store.del(k).expect("del"), oracle.remove(&k));
        }
        store.shutdown().expect("shutdown");
    }
    let store = DurableShardedStore::open(&dir, opts(2, 0)).expect("reopen");
    assert_matches_oracle(&store, &oracle);
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_recover_preserves_acknowledged_writes() {
    let dir = temp_dir("kill");
    let mut oracle = BTreeMap::new();
    {
        let store = DurableShardedStore::open(&dir, opts(2, 0)).expect("open");
        for i in 0..3_000u64 {
            let k = key(i);
            store.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        store.crash(); // no graceful flush, no checkpoint
    }
    let store = DurableShardedStore::open(&dir, opts(2, 0)).expect("recover");
    // Every acknowledged write must survive; crash() keeps the already
    // written prefix, so recovery here is exact.
    assert_matches_oracle(&store, &oracle);
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn automatic_checkpoints_rotate_the_log() {
    let dir = temp_dir("rotate");
    let per_ckpt = 500u64;
    let store = DurableShardedStore::open(&dir, opts(0, per_ckpt)).expect("open");
    for i in 0..2_100u64 {
        store.set(key(i), i).expect("set");
    }
    let stats = store.wal_stats();
    assert!(
        stats.rotations >= 3,
        "expected >=3 rotations after {} ops at {} per checkpoint, got {}",
        2_100,
        per_ckpt,
        stats.rotations
    );
    // The rotated log holds only records since the last checkpoint.
    let wal_len = std::fs::metadata(dir.join("shard-0.wal"))
        .expect("wal")
        .len();
    let full_len = durability::HEADER_LEN as u64 + 2_100 * durability::RECORD_LEN as u64;
    assert!(
        wal_len < full_len / 2,
        "log not rotated: {wal_len} bytes vs {full_len} unrotated"
    );
    assert!(dir.join("shard-0.ckpt").exists(), "checkpoint file missing");
    store.shutdown().expect("shutdown");
    // Recovery = checkpoint + replay of the short tail.
    let store = DurableShardedStore::open(&dir, opts(0, per_ckpt)).expect("reopen");
    assert_eq!(store.len(), 2_100);
    assert_eq!(store.get(key(1_234)), Some(1_234));
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_checkpoint_then_more_writes_then_kill() {
    let dir = temp_dir("ckpt-tail");
    let mut oracle = BTreeMap::new();
    {
        let store = DurableShardedStore::open(&dir, opts(1, 0)).expect("open");
        for i in 0..1_000u64 {
            let k = key(i);
            store.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        store.checkpoint_now().expect("checkpoint");
        for i in 1_000..1_500u64 {
            let k = key(i);
            store.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        for i in (0..200u64).step_by(2) {
            let k = key(i);
            assert_eq!(store.del(k).expect("del"), oracle.remove(&k));
        }
        store.crash();
    }
    let store = DurableShardedStore::open(&dir, opts(1, 0)).expect("recover");
    assert_matches_oracle(&store, &oracle);
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_recovers_prefix() {
    let dir = temp_dir("torn");
    {
        let store = DurableShardedStore::open(&dir, opts(0, 0)).expect("open");
        for i in 0..100u64 {
            store.set(i, i * 10).expect("set");
        }
        store.crash();
    }
    // Tear the log mid-record, as a crash during an append would.
    let wal_path = dir.join("shard-0.wal");
    let len = std::fs::metadata(&wal_path).expect("wal").len();
    let torn = len - (durability::RECORD_LEN as u64 / 2);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .expect("open wal");
    f.set_len(torn).expect("tear");
    drop(f);
    let store = DurableShardedStore::open(&dir, opts(0, 0)).expect("recover");
    // The last record was torn away; everything before it survives.
    assert_eq!(store.len(), 99);
    assert_eq!(store.get(98), Some(980));
    assert_eq!(store.get(99), None);
    // The repaired log accepts new writes and recovers again cleanly.
    store.set(99, 990).expect("set after repair");
    store.shutdown().expect("shutdown");
    let store = DurableShardedStore::open(&dir, opts(0, 0)).expect("reopen");
    assert_eq!(store.len(), 100);
    assert_eq!(store.get(99), Some(990));
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_group_commit() {
    let dir = temp_dir("group");
    let store = std::sync::Arc::new(DurableShardedStore::open(&dir, opts(1, 0)).expect("open"));
    let threads = 8u64;
    let per_thread = 250u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = std::sync::Arc::clone(&store);
            s.spawn(move || {
                for i in 0..per_thread {
                    store.set(key(t * per_thread + i), t).expect("set");
                }
            });
        }
    });
    let stats = store.wal_stats();
    assert_eq!(stats.records, threads * per_thread);
    assert!(
        stats.batches < stats.records,
        "group commit never batched: {} batches / {} records",
        stats.batches,
        stats.records
    );
    assert_eq!(store.len(), (threads * per_thread) as usize);
    let store =
        std::sync::Arc::try_unwrap(store).unwrap_or_else(|_| panic!("sole owner after scope"));
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn maintenance_stats_and_audit_reach_every_shard() {
    let dir = temp_dir("stats-audit");
    // Small engine geometry so maintenance fires at test scale.
    let store = DurableShardedStore::open(
        &dir,
        DurabilityOptions {
            params: dytis::Params::small(),
            ..opts(2, 0)
        },
    )
    .expect("open");
    let before = store.maintenance_stats();
    // Enough sequential keys per shard to force splits in every engine.
    for i in 0..20_000u64 {
        store.set(key(i), i).expect("set");
    }
    let after = store.maintenance_stats();
    let delta = after.delta_since(&before);
    assert!(delta.total_ops() > 0, "no maintenance counted: {delta:?}");
    // Delete most keys so the shrink counter fires through the engines too.
    for i in 0..19_000u64 {
        store.del(key(i)).expect("del");
    }
    let shrunk = store.maintenance_stats().delta_since(&after);
    assert!(
        shrunk.shrinks > 0,
        "delete flood shrank nothing: {shrunk:?}"
    );
    let report = store.audit();
    assert!(report.is_clean(), "audit dirty: {report:?}");
    assert!(
        report.checks > 100,
        "vacuous audit: {} checks",
        report.checks
    );
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
