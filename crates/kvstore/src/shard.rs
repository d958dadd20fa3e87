//! The shard engine (§3.4).
//!
//! "Storage systems developed for distributed clusters and/or multi-core
//! servers may leverage multiple single-threaded engines for data access as
//! in H-Store and Redis Cluster. Such systems may also use the
//! single-threaded version of DyTIS that does not use locks."
//!
//! A [`Shard`] is one such engine: a *lock-free-by-construction*
//! single-threaded [`DyTis`] owned by one thread-per-core worker
//! (`crate::tpc`), with keys partitioned by [`shard_of`] so the shards
//! cover ordered, disjoint key ranges — which keeps cross-shard scans a
//! simple in-order visit. A durable shard layers the checkpoint +
//! write-ahead-log protocol of the `durability` crate on top:
//! [`Shard::apply`] appends every mutation to the shard's WAL before
//! applying it, [`Shard::commit`] makes everything appended since the last
//! commit durable with one group-commit sync (the worker calls it once per
//! wakeup, before anything that reflects those records leaves the worker),
//! and [`Shard::open`] recovers a shard from its latest checkpoint plus
//! log replay.

// The engine is served only by the unix-only `tpc` module.
#![cfg_attr(not(unix), allow(dead_code))]

use durability::{FileStorage, Seq, Wal, WalOp};
use dytis::{DyTis, Params};
use index_traits::{Key, KvIndex, Value};
use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// The shard that owns `key` among `shards` ordered shards: contiguous,
/// monotone key ranges (`shard_of(a) <= shard_of(b)` for `a <= b`), so a
/// cross-shard scan visits shards in index order. The one partition
/// function of this crate: the thread-per-core server, its on-disk shard
/// files and the routing client all place keys with it. For a power of
/// two `2^b` it is exactly the top `b` key bits.
#[inline]
pub fn shard_of(key: Key, shards: usize) -> usize {
    ((u128::from(key) * shards as u128) >> 64) as usize
}

/// Durability for a `TpcServer`'s shards. Worker `i` keeps
/// `shard-<i>.ckpt` (the `DYTIS2` format of `dytis::persist`) and
/// `shard-<i>.wal` (the `DYWAL1` framing of `durability::record`) in
/// [`DurabilityOptions::dir`].
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory of every shard's checkpoint and log. It must be reopened
    /// with the worker count that wrote it; any other count is refused
    /// with `InvalidInput`.
    pub dir: PathBuf,
    /// Mutations a shard applies between automatic checkpoints (and the
    /// log rotations that bound replay time). `0` disables automatic
    /// checkpointing; `TpcServer::checkpoint_now` still works.
    pub ops_per_checkpoint: u64,
    /// Per-fsync batch cap for each shard's WAL committer.
    pub max_batch_records: usize,
}

/// One op on a shard, parsed by its worker or forwarded by a peer.
pub(crate) enum Op {
    Set(Key, Value),
    Get(Key),
    Del(Key),
    Scan(Key, usize),
    Len,
}

/// What [`Shard::apply`] returns for an [`Op`].
pub(crate) enum Reply {
    /// `Get`: the value found; `Del`: the value removed; `Set`: `None`.
    Value(Option<Value>),
    Scan(Vec<(Key, Value)>),
    Len(usize),
}

impl Reply {
    /// The value a `Get` found or a `Del` removed.
    #[inline]
    pub(crate) fn value(self) -> Option<Value> {
        match self {
            Reply::Value(v) => v,
            Reply::Scan(_) | Reply::Len(_) => None,
        }
    }
}

/// One worker's engine: a single-threaded index plus, when durable, its
/// WAL and checkpoint state.
pub(crate) struct Shard {
    index: DyTis,
    log: Option<Log>,
}

/// A durable shard's WAL and checkpoint state.
struct Log {
    wal: Arc<Wal<FileStorage>>,
    dir: PathBuf,
    id: usize,
    ops_per_checkpoint: u64,
    since_checkpoint: u64,
    /// Highest sequence appended since the last commit.
    unsynced: Option<Seq>,
    /// The first append that failed since the last commit.
    failed: Option<io::Error>,
}

/// Creates the durable directory if missing and refuses one written with
/// a different shard count. A fresh directory gets every shard's empty
/// log up front, so a start that fails partway (say one worker cannot
/// open its shard) still leaves exactly shards `0..workers` — or, if the
/// creation itself fails, none.
///
/// # Errors
///
/// `InvalidInput` when the directory holds shard files for some
/// `i >= workers`, or holds shard files but none for some `i < workers`:
/// keys would otherwise be routed to shards that never saw them. Also
/// propagates I/O errors.
pub(crate) fn prepare_dir(opts: &DurabilityOptions, workers: usize) -> io::Result<()> {
    std::fs::create_dir_all(&opts.dir)?;
    let mut found = BTreeSet::new();
    for entry in std::fs::read_dir(&opts.dir)? {
        found.extend(entry?.file_name().to_str().and_then(shard_file_index));
    }
    if found.is_empty() {
        let log = |i: usize| opts.dir.join(format!("shard-{i}.wal"));
        if let Err(e) = (0..workers).try_for_each(|i| std::fs::File::create_new(log(i)).map(drop)) {
            // The directory held no shard file, so every one is ours.
            for i in 0..workers {
                let _ = std::fs::remove_file(log(i));
            }
            return Err(e);
        }
        #[cfg(unix)]
        std::fs::File::open(&opts.dir)?.sync_all()?;
        return Ok(());
    }
    if found.iter().copied().eq(0..workers) {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "{} holds the shards of a server with another worker count than {workers}",
            opts.dir.display()
        ),
    ))
}

/// `i` for `shard-<i>.ckpt` and `shard-<i>.wal`.
fn shard_file_index(name: &str) -> Option<usize> {
    let (i, ext) = name.strip_prefix("shard-")?.split_once('.')?;
    if matches!(ext, "ckpt" | "wal") {
        i.parse().ok()
    } else {
        None
    }
}

impl Shard {
    /// Opens shard `id`: an empty index and no I/O without durability;
    /// with it, the index recovered from `shard-<id>.ckpt` plus replay of
    /// `shard-<id>.wal`.
    ///
    /// # Errors
    ///
    /// I/O errors from recovery, and `InvalidData` for a corrupt
    /// checkpoint. (A corrupt or torn *log tail* is not an error: it is
    /// truncated, per the recovery contract.)
    pub(crate) fn open(
        id: usize,
        params: Params,
        durability: Option<&DurabilityOptions>,
    ) -> io::Result<Shard> {
        let Some(opts) = durability else {
            return Ok(Shard {
                index: DyTis::with_params(params),
                log: None,
            });
        };
        let ckpt_path = opts.dir.join(format!("shard-{id}.ckpt"));
        let mut index = match std::fs::File::open(&ckpt_path) {
            Ok(f) => dytis::persist::load_from(&mut io::BufReader::new(f), params)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => DyTis::with_params(params),
            Err(e) => return Err(e),
        };
        // Replay is the only writer of a served index besides `apply`;
        // records are absolute puts/deletes, so a log that predates the
        // newest checkpoint replays harmlessly.
        let wal_path = opts.dir.join(format!("shard-{id}.wal"));
        let recovered = durability::recover_log_file(&wal_path, |rec| match rec.op {
            WalOp::Put => index.insert(rec.key, rec.value),
            WalOp::Delete => {
                index.remove(rec.key);
            }
        })?;
        if recovered.truncated_bytes > 0 {
            obs::counter!("kv.wal.truncated_recoveries").inc();
        }
        let wal = Wal::start(
            FileStorage::new(recovered.file),
            recovered.next_seq,
            durability::WalOptions {
                max_batch_records: opts.max_batch_records,
            },
        );
        Ok(Shard {
            index,
            log: Some(Log {
                wal: Arc::new(wal),
                dir: opts.dir.clone(),
                id,
                ops_per_checkpoint: opts.ops_per_checkpoint,
                since_checkpoint: 0,
                unsynced: None,
                failed: None,
            }),
        })
    }

    /// The shard's WAL, when durable.
    pub(crate) fn wal(&self) -> Option<&Arc<Wal<FileStorage>>> {
        self.log.as_ref().map(|log| &log.wal)
    }

    /// Read access to the index (stats and audits).
    pub(crate) fn index(&self) -> &DyTis {
        &self.index
    }

    /// Runs one op: the only code that mutates a served index. A durable
    /// shard appends each mutation to its WAL first and skips the mutation
    /// if the append fails; the next [`Shard::commit`] then reports the
    /// failure. Deleting an absent key logs nothing.
    #[inline]
    pub(crate) fn apply(&mut self, op: Op) -> Reply {
        match op {
            Op::Set(k, v) => {
                if self
                    .log
                    .as_mut()
                    .is_none_or(|log| log.append(WalOp::Put, k, v))
                {
                    self.index.insert(k, v);
                }
                Reply::Value(None)
            }
            Op::Get(k) => Reply::Value(self.index.get(k)),
            Op::Del(k) => {
                let logged = match &mut self.log {
                    None => true,
                    Some(log) => self.index.get(k).is_some() && log.append(WalOp::Delete, k, 0),
                };
                Reply::Value(if logged { self.index.remove(k) } else { None })
            }
            Op::Scan(start, limit) => {
                let mut out = Vec::with_capacity(limit.min(1024));
                self.index.scan(start, limit, &mut out);
                Reply::Scan(out)
            }
            Op::Len => Reply::Len(self.index.len()),
        }
    }

    /// Makes every record appended since the last commit durable with one
    /// `Wal::sync`, then checkpoints if one is due. Nothing that reflects
    /// those records may leave the worker before this returns `Ok`.
    ///
    /// # Errors
    ///
    /// The first append error since the last commit, or the sync error:
    /// the records are not acknowledged. Counted as `kv.wal.errors`.
    pub(crate) fn commit(&mut self) -> io::Result<()> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        let synced = match (log.failed.take(), log.unsynced.take()) {
            (Some(e), _) => Err(e),
            (None, Some(seq)) => log.wal.sync(seq),
            (None, None) => Ok(()),
        };
        if synced.is_err() {
            obs::counter!("kv.wal.errors").inc();
        } else if log.ops_per_checkpoint > 0
            && log.since_checkpoint >= log.ops_per_checkpoint
            && log.checkpoint(&self.index).is_err()
        {
            // Leave the log growing; the next commit retries. The WAL
            // still guarantees durability, only replay time grows.
            obs::counter!("kv.ckpt.errors").inc();
        }
        synced
    }

    /// Checkpoints the shard and rotates its log; a no-op when the shard
    /// is not durable.
    ///
    /// # Errors
    ///
    /// The checkpoint write or the log rotation failed.
    pub(crate) fn checkpoint(&mut self) -> io::Result<()> {
        match &mut self.log {
            Some(log) => log.checkpoint(&self.index),
            None => Ok(()),
        }
    }
}

impl Log {
    fn append(&mut self, op: WalOp, key: Key, value: Value) -> bool {
        match self.wal.append(op, key, value) {
            Ok(seq) => {
                self.unsynced = Some(seq);
                self.since_checkpoint += 1;
                true
            }
            Err(e) => {
                self.failed.get_or_insert(e);
                false
            }
        }
    }

    /// Writes `shard-<i>.ckpt` atomically (tmp + fsync + rename + dir
    /// fsync), then rotates the WAL. The worker is the log's only
    /// appender, so every record the rotation retires is in the index.
    fn checkpoint(&mut self, index: &DyTis) -> io::Result<()> {
        let _t = obs::Timer::start(obs::histogram!("kv.ckpt_ns"));
        let tmp = self.dir.join(format!("shard-{}.ckpt.tmp", self.id));
        let dst = self.dir.join(format!("shard-{}.ckpt", self.id));
        {
            let file = std::fs::File::create(&tmp)?;
            let mut w = io::BufWriter::new(file);
            dytis::persist::save_to(index, &mut w)?;
            let file = w.into_inner().map_err(|e| e.into_error())?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &dst)?;
        // Make the rename itself durable before the log is rotated away.
        #[cfg(unix)]
        std::fs::File::open(&self.dir)?.sync_all()?;
        self.wal.rotate()?;
        self.since_checkpoint = 0;
        obs::counter!("kv.ckpt.written").inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_monotone_and_total() {
        for workers in [1usize, 2, 3, 4, 7, 8, 16] {
            assert_eq!(shard_of(0, workers), 0);
            assert_eq!(shard_of(u64::MAX, workers), workers - 1);
            let mut prev = 0;
            for i in 0..=1_000u64 {
                let key = i.wrapping_mul(u64::MAX / 1_000);
                let s = shard_of(key, workers);
                assert!(s >= prev, "shard_of must be monotone");
                assert!(s < workers);
                prev = s;
            }
        }
    }

    /// Durable directories written when shards were placed by the top
    /// `shard_bits` key bits recover each shard's files into the same
    /// shard, so for powers of two the two functions must agree.
    #[test]
    fn shard_of_matches_top_bits_for_powers_of_two() {
        for bits in 0..=8u32 {
            for i in 0..=1_000u64 {
                let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let top = if bits == 0 {
                    0
                } else {
                    (key >> (64 - bits)) as usize
                };
                assert_eq!(shard_of(key, 1 << bits), top, "key {key:#x}, {bits} bits");
            }
        }
    }

    #[test]
    fn fresh_directory_gets_every_shard_log_up_front() {
        let dir = std::env::temp_dir().join(format!("kvstore-prepare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurabilityOptions {
            dir: dir.clone(),
            ops_per_checkpoint: 0,
            max_batch_records: 64,
        };
        prepare_dir(&opts, 4).expect("fresh directory");
        for i in 0..4 {
            assert!(dir.join(format!("shard-{i}.wal")).exists(), "shard {i} log");
        }
        prepare_dir(&opts, 4).expect("same worker count");
        // A directory missing one shard's files is refused, not treated
        // as fresh for that shard.
        std::fs::remove_file(dir.join("shard-2.wal")).expect("remove");
        let err = prepare_dir(&opts, 4).expect_err("a shard is missing");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_file_names_parse() {
        assert_eq!(shard_file_index("shard-3.wal"), Some(3));
        assert_eq!(shard_file_index("shard-12.ckpt"), Some(12));
        assert_eq!(shard_file_index("shard-1.ckpt.tmp"), None);
        assert_eq!(shard_file_index("shard-x.wal"), None);
        assert_eq!(shard_file_index("notes.txt"), None);
    }
}
