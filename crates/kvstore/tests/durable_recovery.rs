//! Recovery tests for a durable [`TpcServer`], driven over loopback:
//! graceful reopen, simulated kill (idle and under load), checkpoint
//! rotation, torn log tails, and the shard-count guard.

#![cfg(unix)]

use dytis::Params;
use kvstore::{shard_of, Client, DurabilityOptions, RoutedClient, TpcOptions, TpcServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kv-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_with(
    dir: &Path,
    workers: usize,
    ops_per_checkpoint: u64,
    params: Params,
) -> std::io::Result<TpcServer> {
    TpcServer::with_options(
        "127.0.0.1:0",
        TpcOptions {
            workers,
            params,
            durability: Some(DurabilityOptions {
                dir: dir.to_path_buf(),
                ops_per_checkpoint,
                max_batch_records: 256,
            }),
            ..TpcOptions::default()
        },
    )
}

fn open(dir: &Path, workers: usize, ops_per_checkpoint: u64) -> TpcServer {
    open_with(dir, workers, ops_per_checkpoint, Params::default()).expect("open durable server")
}

/// A text client on worker 0: ops on keys other workers own take the
/// forwarding hop, so their owners log them.
fn client(server: &TpcServer) -> Client {
    Client::connect(server.addr()).expect("connect")
}

/// Spread keys across all shards: mix the counter into the top bits.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Full contents must match, and so must scans that start mid-space: on a
/// shard boundary, inside a shard (crossing into the next ones), and near
/// the end of the key space.
fn assert_matches_oracle(c: &mut Client, oracle: &BTreeMap<u64, u64>) {
    assert_eq!(c.len().expect("len"), oracle.len());
    let got = c.scan(0, oracle.len() + 16).expect("scan");
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want);
    let count = oracle.len() / 2 + 1;
    for start in [1u64 << 62, (1 << 62) + (1 << 61), u64::MAX - (1 << 60)] {
        let want: Vec<(u64, u64)> = oracle
            .range(start..)
            .take(count)
            .map(|(&k, &v)| (k, v))
            .collect();
        assert_eq!(
            c.scan(start, count).expect("scan"),
            want,
            "scan from {start:#x}"
        );
    }
}

#[test]
fn graceful_shutdown_and_reopen() {
    let dir = temp_dir("graceful");
    let mut oracle = BTreeMap::new();
    {
        let server = open(&dir, 4, 0);
        let mut c = client(&server);
        for i in 0..2_000u64 {
            let k = key(i);
            c.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        for i in (0..500u64).step_by(3) {
            let k = key(i);
            assert_eq!(c.del(k).expect("del"), oracle.remove(&k));
        }
        assert!(server.shutdown().drained, "shutdown");
    }
    let server = open(&dir, 4, 0);
    assert_matches_oracle(&mut client(&server), &oracle);
    assert!(server.shutdown().drained, "shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_recover_preserves_acknowledged_writes() {
    let dir = temp_dir("kill");
    let mut oracle = BTreeMap::new();
    {
        let server = open(&dir, 4, 0);
        let mut c = client(&server);
        for i in 0..3_000u64 {
            let k = key(i);
            c.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        server.crash(); // no graceful flush, no checkpoint
    }
    let server = open(&dir, 4, 0);
    // Every acknowledged write must survive; crash() keeps the already
    // written prefix, so recovery here is exact.
    assert_matches_oracle(&mut client(&server), &oracle);
    assert!(server.shutdown().drained, "shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn automatic_checkpoints_rotate_the_log() {
    let dir = temp_dir("rotate");
    let per_ckpt = 500u64;
    let server = open(&dir, 1, per_ckpt);
    let mut c = client(&server);
    for i in 0..2_100u64 {
        c.set(key(i), i).expect("set");
    }
    let stats = server.wal_stats();
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
    assert!(server.shutdown().drained, "shutdown");
    // Recovery = checkpoint + replay of the short tail.
    let server = open(&dir, 1, per_ckpt);
    let mut c = client(&server);
    assert_eq!(c.len().expect("len"), 2_100);
    assert_eq!(c.get(key(1_234)).expect("get"), Some(1_234));
    assert!(server.shutdown().drained, "shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_checkpoint_then_more_writes_then_kill() {
    let dir = temp_dir("ckpt-tail");
    let mut oracle = BTreeMap::new();
    {
        let server = open(&dir, 2, 0);
        let mut c = client(&server);
        for i in 0..1_000u64 {
            let k = key(i);
            c.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        server.checkpoint_now().expect("checkpoint");
        for i in 1_000..1_500u64 {
            let k = key(i);
            c.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        for i in (0..200u64).step_by(2) {
            let k = key(i);
            assert_eq!(c.del(k).expect("del"), oracle.remove(&k));
        }
        server.crash();
    }
    let server = open(&dir, 2, 0);
    assert_matches_oracle(&mut client(&server), &oracle);
    assert!(server.shutdown().drained, "shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_recovers_prefix() {
    let dir = temp_dir("torn");
    {
        let server = open(&dir, 1, 0);
        let mut c = client(&server);
        for i in 0..100u64 {
            c.set(i, i * 10).expect("set");
        }
        server.crash();
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
    let server = open(&dir, 1, 0);
    let mut c = client(&server);
    // The last record was torn away; everything before it survives.
    assert_eq!(c.len().expect("len"), 99);
    assert_eq!(c.get(98).expect("get"), Some(980));
    assert_eq!(c.get(99).expect("get"), None);
    // The repaired log accepts new writes and recovers again cleanly.
    c.set(99, 990).expect("set after repair");
    assert!(server.shutdown().drained, "shutdown");
    let server = open(&dir, 1, 0);
    let mut c = client(&server);
    assert_eq!(c.len().expect("len"), 100);
    assert_eq!(c.get(99).expect("get"), Some(990));
    assert!(server.shutdown().drained, "shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_group_commit() {
    let dir = temp_dir("group");
    let server = open(&dir, 2, 0);
    let addrs = server.worker_addrs().to_vec();
    let threads = 8u64;
    let per_thread = 250u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            // Blocking clients spread over both workers, so half of each
            // client's keys take the forwarding hop.
            let addr = addrs[t as usize % addrs.len()];
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for i in 0..per_thread {
                    c.set(key(t * per_thread + i), t).expect("set");
                }
            });
        }
    });
    let stats = server.wal_stats();
    eprintln!(
        "group commit: {} records in {} batches ({:.2} ops per fsync)",
        stats.records,
        stats.batches,
        stats.mean_batch()
    );
    assert_eq!(stats.records, threads * per_thread);
    assert!(
        stats.batches < stats.records,
        "group commit never batched: {} batches / {} records",
        stats.batches,
        stats.records
    );
    assert_eq!(
        client(&server).len().expect("len"),
        (threads * per_thread) as usize
    );
    assert!(server.shutdown().drained, "shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn maintenance_stats_and_audit_reach_every_shard() {
    let dir = temp_dir("stats-audit");
    // Small engine geometry so maintenance fires at test scale.
    let server = open_with(&dir, 4, 0, Params::small()).expect("open");
    let mut c = client(&server);
    let before = server.maintenance_stats();
    // Enough sequential keys per shard to force splits in every engine.
    for i in 0..20_000u64 {
        c.set(key(i), i).expect("set");
    }
    let after = server.maintenance_stats();
    let delta = after.delta_since(&before);
    assert!(delta.total_ops() > 0, "no maintenance counted: {delta:?}");
    // Delete most keys so the shrink counter fires through the engines too.
    for i in 0..19_000u64 {
        c.del(key(i)).expect("del");
    }
    let shrunk = server.maintenance_stats().delta_since(&after);
    assert!(
        shrunk.shrinks > 0,
        "delete flood shrank nothing: {shrunk:?}"
    );
    let report = server.audit();
    assert!(report.is_clean(), "audit dirty: {report:?}");
    assert!(
        report.checks > 100,
        "vacuous audit: {} checks",
        report.checks
    );
    assert!(server.shutdown().drained, "shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory written by 4 workers must not be served by 2 (shards 2
/// and 3 would be ignored, losing acknowledged keys) nor by 8 (keys would
/// be routed to shards that never saw them).
#[test]
fn reopen_with_another_worker_count_is_refused() {
    let dir = temp_dir("count");
    let mut oracle = BTreeMap::new();
    {
        let server = open(&dir, 4, 0);
        let mut c = client(&server);
        for i in 0..400u64 {
            c.set(key(i), i).expect("set");
            oracle.insert(key(i), i);
        }
        assert!(server.shutdown().drained, "shutdown");
    }
    for workers in [1, 2, 3, 5, 8] {
        let err = open_with(&dir, workers, 0, Params::default())
            .err()
            .unwrap_or_else(|| panic!("{workers} workers opened a 4-shard directory"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
    // The refusals touched nothing: the right count still recovers it all.
    let server = open(&dir, 4, 0);
    assert_matches_oracle(&mut client(&server), &oracle);
    assert!(server.shutdown().drained, "shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-key history of a crash-under-load run. Each key has exactly one
/// writer, which writes it with strictly increasing values.
#[derive(Default)]
struct History {
    /// Every value ever sent for the key.
    submitted: BTreeMap<u64, BTreeSet<u64>>,
    /// The last value the server acknowledged (or recovered) for the key.
    acked: BTreeMap<u64, u64>,
}

/// One writer: sets `keys` to `base + round` round after round until the
/// server goes away, recording what it sent and what was acknowledged.
/// `routed` writers send each round as one routed DYF1 batch; the others
/// send one text `SET` at a time to a worker that owns none of `keys`.
fn write_until_crash(
    keys: &[u64],
    base: u64,
    routed: Option<&[std::net::SocketAddr]>,
    text_addr: std::net::SocketAddr,
    acks: &AtomicU64,
) -> History {
    let mut h = History::default();
    // A writer that only gets going after the crash has nothing to check.
    let (mut routed, mut text) = match routed {
        Some(addrs) => match RoutedClient::connect(addrs) {
            Ok(c) => (Some(c), None),
            Err(_) => return h,
        },
        None => match Client::connect(text_addr) {
            Ok(c) => (None, Some(c)),
            Err(_) => return h,
        },
    };
    for round in 1u64.. {
        let v = base + round;
        for &k in keys {
            h.submitted.entry(k).or_default().insert(v);
        }
        if let Some(c) = routed.as_mut() {
            let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, v)).collect();
            if c.set_batch(&pairs).is_err() {
                break;
            }
            for &k in keys {
                h.acked.insert(k, v);
            }
            // relaxed: progress counter the crash trigger polls; no data
            // is published through it.
            acks.fetch_add(keys.len() as u64, Ordering::Relaxed);
        } else if let Some(c) = text.as_mut() {
            let mut failed = false;
            for &k in keys {
                if c.set(k, v).is_err() {
                    failed = true;
                    break;
                }
                h.acked.insert(k, v);
                // relaxed: see above.
                acks.fetch_add(1, Ordering::Relaxed);
            }
            if failed {
                break;
            }
        }
    }
    h
}

/// Several writers run at once (routed batches, and text clients whose
/// every op is forwarded to the owning worker) and `crash()` lands at an
/// arbitrary point. After recovery, per key, acked ⊆ recovered ⊆
/// submitted: the recovered value is one that was sent, and no older than
/// the last acknowledged one. Repeated over several crash cycles.
#[test]
fn crash_under_load_keeps_acked_and_only_submitted() {
    const WORKERS: usize = 2;
    const KEYS_PER_WRITER: usize = 16;
    let dir = temp_dir("load");
    let mut rng = StdRng::seed_from_u64(0xC2A5_4001);
    // Writers 0-1 are routed; writers 2-3 write only keys worker 1 owns
    // through worker 0, and writers 4-5 only keys worker 0 owns through
    // worker 1.
    let writers = 6usize;
    let mut keys: Vec<Vec<u64>> = vec![Vec::new(); writers];
    let mut i = 0u64;
    for (w, ks) in keys.iter_mut().enumerate() {
        while ks.len() < KEYS_PER_WRITER {
            i += 1;
            let k = key(i);
            let owner = shard_of(k, WORKERS);
            let wanted = match w {
                0 | 1 => owner == ks.len() % WORKERS,
                2 | 3 => owner == 1,
                _ => owner == 0,
            };
            if wanted {
                ks.push(k);
            }
        }
    }
    let mut history = History::default();
    let mut total_acked = 0u64;
    for cycle in 1..=3u64 {
        let server = open(&dir, WORKERS, 0);
        let addrs = server.worker_addrs().to_vec();
        let acks = AtomicU64::new(0);
        let crash_after = rng.gen_range(100..1_500u64);
        let histories: Vec<History> = std::thread::scope(|s| {
            let handles: Vec<_> = keys
                .iter()
                .enumerate()
                .map(|(w, ks)| {
                    let (routed, text_addr) = match w {
                        0 | 1 => (Some(addrs.as_slice()), addrs[0]),
                        2 | 3 => (None, addrs[0]),
                        _ => (None, addrs[1]),
                    };
                    let acks = &acks;
                    s.spawn(move || write_until_crash(ks, cycle << 32, routed, text_addr, acks))
                })
                .collect();
            // relaxed: polling a progress counter; the crash point only
            // has to be somewhere in the middle of the load.
            while acks.load(Ordering::Relaxed) < crash_after {
                std::thread::yield_now();
            }
            server.crash();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer"))
                .collect()
        });
        for h in histories {
            for (k, vs) in h.submitted {
                history.submitted.entry(k).or_default().extend(vs);
            }
            total_acked += h.acked.len() as u64;
            history.acked.extend(h.acked);
        }

        let server = open(&dir, WORKERS, 0);
        let mut c = RoutedClient::connect(server.worker_addrs()).expect("connect");
        for (&k, sent) in &history.submitted {
            let got = c.get(k).expect("get");
            match (got, history.acked.get(&k)) {
                (Some(v), acked) => {
                    assert!(
                        sent.contains(&v),
                        "cycle {cycle}: key {k:#x} = {v:#x} never sent"
                    );
                    assert!(
                        acked.is_none_or(|&a| v >= a),
                        "cycle {cycle}: key {k:#x} recovered {v:#x}, older than acked {acked:?}"
                    );
                    // The recovered value is durable now: later cycles
                    // must not go behind it.
                    history.acked.insert(k, v);
                }
                (None, Some(a)) => panic!("cycle {cycle}: acked key {k:#x} = {a:#x} lost"),
                (None, None) => {}
            }
        }
        let report = server.audit();
        assert!(report.is_clean(), "cycle {cycle}: audit dirty: {report:?}");
        assert!(report.checks > 0, "cycle {cycle}: vacuous audit");
        c.quit().expect("quit");
        assert!(server.shutdown().drained, "shutdown");
    }
    assert!(total_acked > 0, "no write was ever acknowledged");
    let _ = std::fs::remove_dir_all(&dir);
}
