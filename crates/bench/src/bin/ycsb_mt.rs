//! Multithreaded YCSB driver: workloads A–E at 1/2/4/8 threads against a
//! concurrent index, with machine-readable output.
//!
//! This is the repo's perf-trajectory anchor (paper §4.3/§4.5, Fig. 12):
//! every scaling PR reports through the `BENCH_ycsb.json` it emits —
//! throughput, exact pooled latency percentiles (p50/p90/p99/p99.9/p99.99),
//! and the structural maintenance counts (splits, expansions, remaps,
//! directory doublings, insert retries) of the measured phase.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin ycsb_mt [-- --smoke] [--index dytis|dytis-fine|xindex]
//!     [--net] [--read-scaling] [--out BENCH_ycsb.json]
//! ```
//!
//! `--read-scaling` runs the Figure-12-style read-path sweep instead:
//! YCSB-B/C at 1/2/4/8 threads, optimistic reads vs the locked baseline
//! (`set_locked_reads`), written to `BENCH_ycsb_readscale.json` with the
//! read-retry/fallback and epoch-reclamation counters, and asserts the
//! 8-thread YCSB-C ≥ 3× 1-thread bar on machines with ≥ 8 cores.
//!
//! `--smoke` shrinks the run for CI (~seconds). With `--features metrics`
//! the obs registry snapshot is embedded under an `"obs"` key; without it
//! the instrumentation compiles to no-ops and only the always-on
//! maintenance counters appear.
//!
//! `--net` (dytis only) drives a real KV server over loopback instead of
//! calling the index in process: one server per cell, loaded with the
//! pipelined `set_batch`, then one client per worker thread. Latencies
//! include the full parse/serve/serialize path, so this is the end-to-end
//! number the service can honestly quote. The run also times 1000 single
//! `set`s against one `set_batch(1000)` and asserts the pipelined path
//! wins, recording both under a `"net_batch"` key.
//!
//! `--net` composes with two selectors (DESIGN.md §16):
//!
//! - `--server threaded|tpc` — the thread-per-connection [`Server`] or
//!   the thread-per-core `TpcServer` (one poll(2) event loop + one DyTIS
//!   shard per core).
//! - `--frame text|binary` — the line protocol with per-op round trips,
//!   or the `DYF1` binary frame via the shard-routing `RoutedClient`
//!   (order-preserving run-length batching; requires `--server tpc`).
//!
//! `--assert-speedup` runs the A/B cell pair the acceptance bar is
//! defined on — `threaded`+`text` vs `tpc`+`binary` on the same op
//! streams — writes both into `BENCH_ycsb_net.json` with the computed
//! speedup, and asserts the tpc/binary YCSB-C cell is ≥ 5× the
//! thread-per-connection baseline on machines with ≥ 4 cores (smaller
//! boxes record the ratio and sanity-check it instead).

use bench::{base_keys, base_ops};
use dytis::{ConcurrentDyTis, ConcurrentDyTisFine};
use index_traits::{ConcurrentKvIndex, Key, MaintenanceStats, Value};
use kvstore::{Client, RetryPolicy, Server};
#[cfg(unix)]
use kvstore::{RoutedClient, TpcOptions, TpcServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use xindex::ConcurrentXIndex;
use ycsb::{
    generate_ops, run_ops_concurrent_latencies, summarize, Op, Summary, Workload, SCAN_LEN,
};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const WORKLOADS: [Workload; 5] = [
    Workload::A,
    Workload::B,
    Workload::C,
    Workload::Dp,
    Workload::E,
];

/// The benchmarked index, with access to its maintenance counters where the
/// implementation tracks them (XIndex does not — its group splits/merges are
/// internal; counts read 0).
enum MtIndex {
    Dytis(Arc<ConcurrentDyTis>),
    DytisFine(Arc<ConcurrentDyTisFine>),
    Xindex(Arc<ConcurrentXIndex>),
}

impl MtIndex {
    fn build(name: &str) -> MtIndex {
        match name {
            "dytis" => MtIndex::Dytis(Arc::new(ConcurrentDyTis::new())),
            "dytis-fine" => MtIndex::DytisFine(Arc::new(ConcurrentDyTisFine::new())),
            "xindex" => MtIndex::Xindex(Arc::new(ConcurrentXIndex::new())),
            other => {
                eprintln!("unknown index {other:?}; expected dytis | dytis-fine | xindex");
                std::process::exit(2);
            }
        }
    }

    fn as_dyn(&self) -> Arc<dyn ConcurrentKvIndex> {
        match self {
            MtIndex::Dytis(i) => Arc::clone(i) as _,
            MtIndex::DytisFine(i) => Arc::clone(i) as _,
            MtIndex::Xindex(i) => Arc::clone(i) as _,
        }
    }

    fn maintenance_stats(&self) -> MaintenanceStats {
        match self {
            MtIndex::Dytis(i) => i.maintenance_stats(),
            MtIndex::DytisFine(i) => i.maintenance_stats(),
            MtIndex::Xindex(_) => MaintenanceStats::default(),
        }
    }

    fn insert_retries(&self) -> u64 {
        match self {
            MtIndex::Dytis(i) => i.insert_retries(),
            MtIndex::DytisFine(i) => i.insert_retries(),
            MtIndex::Xindex(_) => 0,
        }
    }

    /// Forces the DyTIS variants onto their lock-based read path (the
    /// pre-optimistic baseline); no-op for XIndex.
    fn set_locked_reads(&self, locked: bool) {
        match self {
            MtIndex::Dytis(i) => i.set_locked_reads(locked),
            MtIndex::DytisFine(i) => i.set_locked_reads(locked),
            MtIndex::Xindex(_) => {}
        }
    }

    fn read_stats(&self) -> dytis::ReadStats {
        match self {
            MtIndex::Dytis(i) => i.read_stats(),
            MtIndex::DytisFine(i) => i.read_stats(),
            MtIndex::Xindex(_) => dytis::ReadStats::default(),
        }
    }

    fn epoch_stats(&self) -> dytis::epoch::EpochStats {
        match self {
            MtIndex::Dytis(i) => i.epoch_stats(),
            MtIndex::DytisFine(i) => i.epoch_stats(),
            MtIndex::Xindex(_) => dytis::epoch::EpochStats::default(),
        }
    }
}

/// Round-robin partition of an op stream (the paper's request assignment).
fn shards(ops: &[Op], threads: usize) -> Vec<Vec<Op>> {
    let mut out = vec![Vec::with_capacity(ops.len() / threads + 1); threads];
    for (i, op) in ops.iter().enumerate() {
        out[i % threads].push(*op);
    }
    out
}

/// Runs `ops` over `threads` workers and pools every per-op latency, so the
/// aggregate percentiles are exact (not the worst-thread approximation).
fn run_threads(idx: &Arc<dyn ConcurrentKvIndex>, ops: &[Op], threads: usize) -> Summary {
    let parts = shards(ops, threads);
    let wall = Instant::now();
    let handles: Vec<_> = parts
        .into_iter()
        .map(|shard| {
            let idx = Arc::clone(idx);
            std::thread::spawn(move || run_ops_concurrent_latencies(&*idx, &shard))
        })
        .collect();
    let mut pooled = Vec::with_capacity(ops.len());
    let mut slowest = 0u64;
    for h in handles {
        let (lat, elapsed) = h.join().expect("worker");
        pooled.extend(lat);
        slowest = slowest.max(elapsed);
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    // Throughput over the true parallel wall clock (>= slowest thread).
    summarize(&mut pooled, wall_ns.max(slowest))
}

/// Runs one shard of ops through a connected client, timing each op.
fn run_net_ops(client: &mut Client, ops: &[Op]) -> (Vec<u64>, u64) {
    let mut lat = Vec::with_capacity(ops.len());
    let mut sink = 0u64;
    let start = Instant::now();
    let mut last = start;
    for &op in ops {
        match op {
            Op::Insert(k, v) | Op::Update(k, v) => client.set(k, v).expect("net set"),
            Op::Read(k) => sink ^= client.get(k).expect("net get").unwrap_or(0),
            Op::Scan(k) => {
                let pairs = client.scan(k, SCAN_LEN).expect("net scan");
                sink ^= pairs.last().map(|&(lk, _)| lk).unwrap_or(0);
            }
            Op::ReadModifyWrite(k, v) => {
                let cur = client.get(k).expect("net rmw get").unwrap_or(0);
                client.set(k, cur.wrapping_add(v)).expect("net rmw set");
            }
        }
        let now = Instant::now();
        lat.push(now.duration_since(last).as_nanos() as u64);
        last = now;
    }
    std::hint::black_box(sink);
    (lat, start.elapsed().as_nanos() as u64)
}

/// Which server build a `--net` cell drives (DESIGN.md §16).
#[derive(Clone, Copy, PartialEq, Eq)]
enum ServerKind {
    /// Thread-per-connection `kvstore::Server`.
    Threaded,
    /// Thread-per-core `kvstore::TpcServer` (unix only).
    Tpc,
}

/// Which wire protocol the `--net` clients speak.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    /// Line protocol, one round trip per op.
    Text,
    /// `DYF1` binary frames via the shard-routing `RoutedClient`.
    Binary,
}

/// Run length cap for the binary client: at most this many consecutive
/// same-kind ops are coalesced into one pipelined batch.
#[cfg(unix)]
const NET_RUN_CAP: usize = 256;

/// Runs one shard of ops through a routed binary client.
///
/// Consecutive ops of the same kind are coalesced into one pipelined
/// `set_batch`/`get_batch` (run-length batching), which preserves program
/// order exactly — a read never crosses a write to the same key — while
/// letting read-heavy workloads amortize round trips across whole runs.
/// Each op in a run is charged the run's full round-trip latency (its
/// honest time-to-result); throughput comes from the wall clock.
#[cfg(unix)]
fn run_net_ops_routed(client: &mut RoutedClient, ops: &[Op]) -> (Vec<u64>, u64) {
    let mut lat = Vec::with_capacity(ops.len());
    let mut sink = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while i < ops.len() {
        let t = Instant::now();
        let run_len = match ops[i] {
            Op::Insert(..) | Op::Update(..) => {
                let mut pairs = Vec::new();
                while i + pairs.len() < ops.len() && pairs.len() < NET_RUN_CAP {
                    match ops[i + pairs.len()] {
                        Op::Insert(k, v) | Op::Update(k, v) => pairs.push((k, v)),
                        _ => break,
                    }
                }
                client.set_batch(&pairs).expect("net set_batch");
                pairs.len()
            }
            Op::Read(..) => {
                let mut keys = Vec::new();
                while i + keys.len() < ops.len() && keys.len() < NET_RUN_CAP {
                    match ops[i + keys.len()] {
                        Op::Read(k) => keys.push(k),
                        _ => break,
                    }
                }
                let got = client.get_batch(&keys).expect("net get_batch");
                sink ^= got.iter().flatten().fold(0, |a, b| a ^ b);
                keys.len()
            }
            Op::Scan(k) => {
                let pairs = client.scan(k, SCAN_LEN).expect("net scan");
                sink ^= pairs.last().map(|&(lk, _)| lk).unwrap_or(0);
                1
            }
            Op::ReadModifyWrite(k, v) => {
                let cur = client.get(k).expect("net rmw get").unwrap_or(0);
                client.set(k, cur.wrapping_add(v)).expect("net rmw set");
                1
            }
        };
        let run_ns = t.elapsed().as_nanos() as u64;
        lat.extend(std::iter::repeat_n(run_ns, run_len));
        i += run_len;
    }
    std::hint::black_box(sink);
    (lat, start.elapsed().as_nanos() as u64)
}

/// One `--net` cell: fresh server, pipelined load, one client per worker.
///
/// Maintenance counters are only observable for the threaded server (its
/// store is shared with the driver); tpc cells own their shards inside
/// the worker threads and report zeros.
fn net_cell(
    workload: Workload,
    loaded: &[Key],
    fresh: &[Key],
    n_ops: usize,
    threads: usize,
    server_kind: ServerKind,
    frame: FrameKind,
) -> (Summary, MaintenanceStats, u64) {
    let ops = generate_ops(workload, loaded, fresh, n_ops, 0xBE7C + threads as u64);
    let pairs: Vec<(Key, Value)> = loaded.iter().map(|&k| (k, k)).collect();
    match server_kind {
        ServerKind::Threaded => {
            assert!(
                frame == FrameKind::Text,
                "the threaded server speaks the text protocol only"
            );
            let store = Arc::new(ConcurrentDyTis::new());
            let server = Server::with_store("127.0.0.1:0", Arc::clone(&store)).expect("bind");
            let addr = server.addr();

            let mut loader =
                Client::connect_with_retry(addr, &RetryPolicy::default()).expect("loader connect");
            loader.set_batch(&pairs).expect("net load");
            loader.quit().expect("loader quit");

            let parts = shards(&ops, threads);
            let before = store.maintenance_stats();
            let retries_before = store.insert_retries();
            let wall = Instant::now();
            let handles: Vec<_> = parts
                .into_iter()
                .map(|shard| {
                    std::thread::spawn(move || {
                        let mut c = Client::connect_with_retry(addr, &RetryPolicy::default())
                            .expect("connect");
                        let out = run_net_ops(&mut c, &shard);
                        c.quit().expect("quit");
                        out
                    })
                })
                .collect();
            let mut pooled = Vec::with_capacity(ops.len());
            let mut slowest = 0u64;
            for h in handles {
                let (lat, elapsed) = h.join().expect("net worker");
                pooled.extend(lat);
                slowest = slowest.max(elapsed);
            }
            let wall_ns = wall.elapsed().as_nanos() as u64;
            let after = store.maintenance_stats();
            let maintenance = after.delta_since(&before);
            let insert_retries = store.insert_retries() - retries_before;
            let report = server.shutdown();
            assert!(report.drained, "net cell server failed to drain");
            (
                summarize(&mut pooled, wall_ns.max(slowest)),
                maintenance,
                insert_retries,
            )
        }
        #[cfg(unix)]
        ServerKind::Tpc => {
            let server =
                TpcServer::with_options("127.0.0.1:0", TpcOptions::default()).expect("bind tpc");
            let addrs: Vec<SocketAddr> = server.worker_addrs().to_vec();

            let mut loader = RoutedClient::connect(&addrs).expect("loader connect");
            loader.set_batch(&pairs).expect("net load");
            loader.quit().expect("loader quit");

            let parts = shards(&ops, threads);
            let before = server.maintenance_stats();
            let wall = Instant::now();
            let handles: Vec<_> = parts
                .into_iter()
                .map(|shard| {
                    let addrs = addrs.clone();
                    let addr = addrs[0];
                    std::thread::spawn(move || match frame {
                        FrameKind::Text => {
                            let mut c = Client::connect_with_retry(addr, &RetryPolicy::default())
                                .expect("connect");
                            let out = run_net_ops(&mut c, &shard);
                            c.quit().expect("quit");
                            out
                        }
                        FrameKind::Binary => {
                            let mut c = RoutedClient::connect(&addrs).expect("routed connect");
                            let out = run_net_ops_routed(&mut c, &shard);
                            c.quit().expect("quit");
                            out
                        }
                    })
                })
                .collect();
            let mut pooled = Vec::with_capacity(ops.len());
            let mut slowest = 0u64;
            for h in handles {
                let (lat, elapsed) = h.join().expect("net worker");
                pooled.extend(lat);
                slowest = slowest.max(elapsed);
            }
            let wall_ns = wall.elapsed().as_nanos() as u64;
            let maintenance = server.maintenance_stats().delta_since(&before);
            let report = server.shutdown();
            assert!(report.drained, "tpc net cell server failed to drain");
            (summarize(&mut pooled, wall_ns.max(slowest)), maintenance, 0)
        }
        #[cfg(not(unix))]
        ServerKind::Tpc => unreachable!("--server tpc is rejected at argument parsing on non-unix"),
    }
}

/// Times 1000 single `set` round trips against one pipelined
/// `set_batch(1000)` on the same connection and asserts the batch wins:
/// the acceptance bar for the pipelined client path.
fn net_batch_comparison(addr: SocketAddr) -> (u64, u64, f64) {
    let mut c = Client::connect_with_retry(addr, &RetryPolicy::default()).expect("connect");
    let pairs: Vec<(Key, Value)> = (0..1_000u64).map(|i| (i * 2 + 1, i)).collect();
    // Warm the connection and the store's first-level tables.
    c.set(0, 0).expect("warm set");

    let t = Instant::now();
    for &(k, v) in &pairs {
        c.set(k, v).expect("single set");
    }
    let single_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    c.set_batch(&pairs).expect("set_batch");
    let batch_ns = t.elapsed().as_nanos() as u64;
    c.quit().expect("quit");

    let speedup = single_ns as f64 / batch_ns.max(1) as f64;
    eprintln!(
        "[ycsb_mt] net batch: 1000 singles {single_ns} ns, set_batch(1000) {batch_ns} ns, \
         speedup {speedup:.1}x"
    );
    assert!(
        speedup >= 2.0,
        "pipelined set_batch was only {speedup:.2}x over single sets \
         ({single_ns} ns vs {batch_ns} ns); expected >=2x"
    );
    (single_ns, batch_ns, speedup)
}

/// Uniform-random distinct keys, deterministic across runs.
fn make_keys(n: usize) -> Vec<Key> {
    let mut rng = StdRng::seed_from_u64(0xD715);
    let mut keys: Vec<Key> = (0..n).map(|_| rng.gen::<u64>()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

struct Cell {
    workload: &'static str,
    threads: usize,
    summary: Summary,
    maintenance: MaintenanceStats,
    insert_retries: u64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn cell_json(c: &Cell) -> String {
    let s = &c.summary;
    let m = &c.maintenance;
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"threads\":{},\"ops\":{},\"elapsed_ns\":{},",
            "\"mops\":{:.4},\"avg_ns\":{:.1},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},",
            "\"p999_ns\":{},\"p9999_ns\":{},\"maintenance\":{{\"splits\":{},",
            "\"expansions\":{},\"remaps\":{},\"doublings\":{},\"shrinks\":{},",
            "\"insert_retries\":{}}}}}"
        ),
        json_escape(c.workload),
        c.threads,
        s.ops,
        s.elapsed_ns,
        s.mops,
        s.avg_ns,
        s.p50_ns,
        s.p90_ns,
        s.p99_ns,
        s.p999_ns,
        s.p9999_ns,
        m.splits,
        m.expansions,
        m.remaps,
        m.doublings,
        m.shrinks,
        c.insert_retries,
    )
}

/// The Figure-12-style read-scaling sweep: YCSB-B and C at 1/2/4/8 threads,
/// optimistic reads vs the `set_locked_reads(true)` baseline, on one loaded
/// index per mode. Emits `BENCH_ycsb_readscale.json` and asserts the
/// acceptance bar — 8-thread YCSB-C throughput at least 3x the 1-thread
/// number on the optimistic path (only where the machine actually has 8
/// cores; smaller boxes get a sanity bar instead).
fn read_scaling(smoke: bool, index_name: &str, out_path: &str) {
    struct RsCell {
        workload: &'static str,
        threads: usize,
        mode: &'static str,
        summary: Summary,
        read_retries: u64,
        read_fallbacks: u64,
    }

    let (n_keys, n_ops) = if smoke {
        (40_000, 20_000)
    } else {
        (base_keys(), base_ops())
    };
    let keys = make_keys(n_keys);
    eprintln!(
        "[ycsb_mt] read-scaling index={index_name} keys={} ops={n_ops} smoke={smoke}",
        keys.len()
    );
    let mut cells: Vec<RsCell> = Vec::new();
    let mut epochs = Vec::new();
    println!("| workload | threads | mode | Mops/s | p50 ns | p99 ns | read retries | fallbacks |");
    println!("|---|---|---|---|---|---|---|---|");
    for (mode, locked) in [("optimistic", false), ("locked", true)] {
        // One loaded index per mode: B/C never insert fresh keys, so the
        // structure is identical for every cell and cells stay comparable.
        let idx = MtIndex::build(index_name);
        idx.set_locked_reads(locked);
        let dyn_idx = idx.as_dyn();
        let load: Vec<Op> = keys.iter().map(|&k| Op::Insert(k, k)).collect();
        run_threads(&dyn_idx, &load, 4);
        for workload in [Workload::B, Workload::C] {
            for threads in THREADS {
                let ops = generate_ops(workload, &keys, &[], n_ops, 0xBE7C + threads as u64);
                let before = idx.read_stats();
                let summary = run_threads(&dyn_idx, &ops, threads);
                let after = idx.read_stats();
                let cell = RsCell {
                    workload: workload.name(),
                    threads,
                    mode,
                    summary,
                    read_retries: after.retries - before.retries,
                    read_fallbacks: after.fallbacks - before.fallbacks,
                };
                println!(
                    "| {} | {} | {} | {:.2} | {} | {} | {} | {} |",
                    cell.workload,
                    cell.threads,
                    cell.mode,
                    cell.summary.mops,
                    cell.summary.p50_ns,
                    cell.summary.p99_ns,
                    cell.read_retries,
                    cell.read_fallbacks,
                );
                cells.push(cell);
            }
        }
        let e = idx.epoch_stats();
        eprintln!(
            "[ycsb_mt] mode {mode}: epoch deferred={} freed={} pending={}",
            e.deferred, e.freed, e.pending
        );
        epochs.push((mode, e));
    }

    // Acceptance bar. The locked baseline is retained in the same file, so
    // the report can show the scaling gap rather than just the winner.
    let mops = |mode: &str, workload: &str, threads: usize| {
        cells
            .iter()
            .find(|c| c.mode == mode && c.workload == workload && c.threads == threads)
            .map(|c| c.summary.mops)
            .expect("cell present")
    };
    let c1 = mops("optimistic", Workload::C.name(), 1);
    let c8 = mops("optimistic", Workload::C.name(), 8);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 8 {
        assert!(
            c8 >= 3.0 * c1,
            "read scaling bar missed: YCSB-C {c8:.2} Mops at 8 threads vs \
             {c1:.2} Mops at 1 thread (<3x) on {cores} cores"
        );
    } else {
        eprintln!(
            "[ycsb_mt] {cores} core(s): skipping the 3x/8-thread bar; \
             sanity-checking throughput instead"
        );
        assert!(
            c1 > 0.0 && c8 > 0.0,
            "read-scaling sweep produced no throughput"
        );
    }

    let mut json = String::from("{");
    json.push_str(&format!(
        "\"bench\":\"ycsb_readscale\",\"index\":\"{}\",\"keys\":{},\"ops\":{},\"smoke\":{},",
        json_escape(index_name),
        keys.len(),
        n_ops,
        smoke
    ));
    json.push_str("\"results\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let s = &c.summary;
        json.push_str(&format!(
            concat!(
                "{{\"workload\":\"{}\",\"threads\":{},\"mode\":\"{}\",\"ops\":{},",
                "\"elapsed_ns\":{},\"mops\":{:.4},\"avg_ns\":{:.1},\"p50_ns\":{},",
                "\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"p9999_ns\":{},",
                "\"read_retries\":{},\"read_fallbacks\":{}}}"
            ),
            json_escape(c.workload),
            c.threads,
            c.mode,
            s.ops,
            s.elapsed_ns,
            s.mops,
            s.avg_ns,
            s.p50_ns,
            s.p90_ns,
            s.p99_ns,
            s.p999_ns,
            s.p9999_ns,
            c.read_retries,
            c.read_fallbacks,
        ));
    }
    json.push_str("],\"epoch\":{");
    for (i, (mode, e)) in epochs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{mode}\":{{\"deferred\":{},\"freed\":{},\"pending\":{}}}",
            e.deferred, e.freed, e.pending
        ));
    }
    json.push('}');
    if obs::ENABLED {
        json.push_str(&format!(",\"obs\":{}", obs::snapshot().to_json()));
    }
    json.push('}');
    std::fs::write(out_path, &json).expect("write BENCH_ycsb_readscale.json");
    eprintln!("[ycsb_mt] wrote {out_path} ({} bytes)", json.len());
}

/// The serving-stack A/B the acceptance bar is defined on: the committed
/// thread-per-connection text baseline vs the thread-per-core server
/// driven over `DYF1` binary frames, same key set and op streams, YCSB
/// A/B/C at 1 and 4 client threads. Emits `BENCH_ycsb_net.json` with both
/// modes' cells plus the computed ratio, and asserts the YCSB-C
/// 4-thread tpc/binary cell is at least 5x the baseline — only where the
/// machine has >= 4 cores (the thread-per-core design needs cores to
/// spread over; smaller boxes record the ratio and sanity-check it).
#[cfg(unix)]
fn assert_speedup(smoke: bool, out_path: &str) {
    struct NetCell {
        server: &'static str,
        frame: &'static str,
        workload: &'static str,
        threads: usize,
        summary: Summary,
    }

    const BAR_WORKLOAD: Workload = Workload::C;
    const BAR_THREADS: usize = 4;
    const BAR: f64 = 5.0;

    let (n_keys, n_ops) = if smoke {
        (40_000, 20_000)
    } else {
        (base_keys(), base_ops())
    };
    let keys = make_keys(n_keys);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "[ycsb_mt] net speedup A/B: keys={} ops={n_ops} smoke={smoke} cores={cores}",
        keys.len()
    );

    let modes: [(&str, &str, ServerKind, FrameKind); 2] = [
        ("threaded", "text", ServerKind::Threaded, FrameKind::Text),
        ("tpc", "binary", ServerKind::Tpc, FrameKind::Binary),
    ];
    let mut cells: Vec<NetCell> = Vec::new();
    println!("| server | frame | workload | threads | Mops/s | p50 ns | p99 ns |");
    println!("|---|---|---|---|---|---|---|");
    for (server, frame_name, server_kind, frame) in modes {
        for workload in [Workload::A, Workload::B, Workload::C] {
            for threads in [1, BAR_THREADS] {
                let (summary, _, _) =
                    net_cell(workload, &keys, &[], n_ops, threads, server_kind, frame);
                println!(
                    "| {server} | {frame_name} | {} | {threads} | {:.2} | {} | {} |",
                    workload.name(),
                    summary.mops,
                    summary.p50_ns,
                    summary.p99_ns,
                );
                cells.push(NetCell {
                    server,
                    frame: frame_name,
                    workload: workload.name(),
                    threads,
                    summary,
                });
            }
        }
    }

    let mops = |server: &str, workload: &str, threads: usize| {
        cells
            .iter()
            .find(|c| c.server == server && c.workload == workload && c.threads == threads)
            .map(|c| c.summary.mops)
            .expect("cell present")
    };
    let baseline = mops("threaded", BAR_WORKLOAD.name(), BAR_THREADS);
    let fast = mops("tpc", BAR_WORKLOAD.name(), BAR_THREADS);
    let ratio = fast / baseline.max(f64::MIN_POSITIVE);
    let asserted = cores >= 4;
    eprintln!(
        "[ycsb_mt] YCSB-{} @ {BAR_THREADS} threads: threaded/text {baseline:.2} Mops, \
         tpc/binary {fast:.2} Mops, speedup {ratio:.1}x",
        BAR_WORKLOAD.name()
    );
    if asserted {
        assert!(
            ratio >= BAR,
            "serving speedup bar missed: tpc/binary YCSB-{} was {ratio:.2}x the \
             thread-per-connection baseline ({fast:.2} vs {baseline:.2} Mops) on \
             {cores} cores; expected >= {BAR}x",
            BAR_WORKLOAD.name()
        );
    } else {
        eprintln!(
            "[ycsb_mt] {cores} core(s): skipping the {BAR}x bar (thread-per-core \
             needs >= 4 cores); sanity-checking throughput instead"
        );
        assert!(
            baseline > 0.0 && fast > 0.0,
            "net speedup sweep produced no throughput"
        );
    }

    let mut json = String::from("{");
    json.push_str(&format!(
        "\"bench\":\"ycsb_net\",\"keys\":{},\"ops\":{},\"smoke\":{},\"cores\":{},",
        keys.len(),
        n_ops,
        smoke,
        cores
    ));
    json.push_str("\"results\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let s = &c.summary;
        json.push_str(&format!(
            concat!(
                "{{\"server\":\"{}\",\"frame\":\"{}\",\"workload\":\"{}\",\"threads\":{},",
                "\"ops\":{},\"elapsed_ns\":{},\"mops\":{:.4},\"avg_ns\":{:.1},\"p50_ns\":{},",
                "\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"p9999_ns\":{}}}"
            ),
            c.server,
            c.frame,
            json_escape(c.workload),
            c.threads,
            s.ops,
            s.elapsed_ns,
            s.mops,
            s.avg_ns,
            s.p50_ns,
            s.p90_ns,
            s.p99_ns,
            s.p999_ns,
            s.p9999_ns,
        ));
    }
    json.push_str(&format!(
        "],\"speedup\":{{\"workload\":\"{}\",\"threads\":{BAR_THREADS},\
         \"baseline_mops\":{baseline:.4},\"tpc_binary_mops\":{fast:.4},\
         \"ratio\":{ratio:.2},\"bar\":{BAR:.1},\"asserted\":{asserted}}}",
        BAR_WORKLOAD.name()
    ));
    if obs::ENABLED {
        json.push_str(&format!(",\"obs\":{}", obs::snapshot().to_json()));
    }
    json.push('}');
    std::fs::write(out_path, &json).expect("write BENCH_ycsb_net.json");
    eprintln!("[ycsb_mt] wrote {out_path} ({} bytes)", json.len());
}

fn main() {
    let mut smoke = false;
    let mut net = false;
    let mut read_scaling_mode = false;
    let mut speedup_mode = false;
    let mut index_name = String::from("dytis");
    let mut server_name = String::from("threaded");
    let mut frame_name = String::from("text");
    let mut out_path = String::from("BENCH_ycsb.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--net" => net = true,
            "--read-scaling" => read_scaling_mode = true,
            "--assert-speedup" => speedup_mode = true,
            "--index" => {
                index_name = args.next().unwrap_or_else(|| {
                    eprintln!("--index needs a value");
                    std::process::exit(2);
                })
            }
            "--server" => {
                server_name = args.next().unwrap_or_else(|| {
                    eprintln!("--server needs a value (threaded | tpc)");
                    std::process::exit(2);
                })
            }
            "--frame" => {
                frame_name = args.next().unwrap_or_else(|| {
                    eprintln!("--frame needs a value (text | binary)");
                    std::process::exit(2);
                })
            }
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: ycsb_mt [--smoke] [--index dytis|dytis-fine|xindex] [--net] \
                     [--server threaded|tpc] [--frame text|binary] [--assert-speedup] \
                     [--read-scaling] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    if net && index_name != "dytis" {
        eprintln!("--net serves a ConcurrentDyTis store; use --index dytis");
        std::process::exit(2);
    }
    let server_kind = match server_name.as_str() {
        "threaded" => ServerKind::Threaded,
        "tpc" => ServerKind::Tpc,
        other => {
            eprintln!("unknown server {other:?}; expected threaded | tpc");
            std::process::exit(2);
        }
    };
    let frame = match frame_name.as_str() {
        "text" => FrameKind::Text,
        "binary" => FrameKind::Binary,
        other => {
            eprintln!("unknown frame {other:?}; expected text | binary");
            std::process::exit(2);
        }
    };
    if frame == FrameKind::Binary && server_kind != ServerKind::Tpc {
        eprintln!("--frame binary needs the DYF1-speaking server; add --server tpc");
        std::process::exit(2);
    }
    #[cfg(not(unix))]
    if server_kind == ServerKind::Tpc || speedup_mode {
        eprintln!("--server tpc / --assert-speedup need the poll(2)-based TpcServer (unix only)");
        std::process::exit(2);
    }
    if speedup_mode {
        if read_scaling_mode {
            eprintln!("--assert-speedup is a net sweep; drop --read-scaling");
            std::process::exit(2);
        }
        if out_path == "BENCH_ycsb.json" {
            out_path = String::from("BENCH_ycsb_net.json");
        }
        #[cfg(unix)]
        assert_speedup(smoke, &out_path);
        return;
    }
    if read_scaling_mode {
        if net {
            eprintln!("--read-scaling is an in-process sweep; drop --net");
            std::process::exit(2);
        }
        if index_name == "xindex" {
            eprintln!("--read-scaling compares DyTIS read paths; use --index dytis|dytis-fine");
            std::process::exit(2);
        }
        if out_path == "BENCH_ycsb.json" {
            out_path = String::from("BENCH_ycsb_readscale.json");
        }
        read_scaling(smoke, &index_name, &out_path);
        return;
    }

    let (n_keys, n_ops) = if smoke {
        (40_000, 20_000)
    } else {
        (base_keys(), base_ops())
    };
    let keys = make_keys(n_keys);
    eprintln!(
        "[ycsb_mt] index={index_name} keys={} ops={n_ops} smoke={smoke}",
        keys.len()
    );

    let mut cells = Vec::new();
    println!("| workload | threads | Mops/s | p50 ns | p99 ns | p99.9 ns | splits | remaps | doublings |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in WORKLOADS {
        // D'/E load 80% up front; the rest feeds the insert mix (§4.3).
        let split = if workload.inserts_new_keys() {
            keys.len() * 4 / 5
        } else {
            keys.len()
        };
        let (loaded, fresh) = keys.split_at(split);
        for threads in THREADS {
            let (summary, maintenance, insert_retries) = if net {
                net_cell(workload, loaded, fresh, n_ops, threads, server_kind, frame)
            } else {
                // Fresh index per cell so maintenance counts are
                // attributable.
                let idx = MtIndex::build(&index_name);
                let dyn_idx = idx.as_dyn();
                let load: Vec<Op> = loaded.iter().map(|&k| Op::Insert(k, k)).collect();
                run_threads(&dyn_idx, &load, threads);
                let ops = generate_ops(workload, loaded, fresh, n_ops, 0xBE7C + threads as u64);
                let before = idx.maintenance_stats();
                let retries_before = idx.insert_retries();
                let summary = run_threads(&dyn_idx, &ops, threads);
                let after = idx.maintenance_stats();
                let maintenance = after.delta_since(&before);
                let insert_retries = idx.insert_retries() - retries_before;
                (summary, maintenance, insert_retries)
            };
            println!(
                "| {} | {} | {:.2} | {} | {} | {} | {} | {} | {} |",
                workload.name(),
                threads,
                summary.mops,
                summary.p50_ns,
                summary.p99_ns,
                summary.p999_ns,
                maintenance.splits,
                maintenance.remaps,
                maintenance.doublings,
            );
            cells.push(Cell {
                workload: workload.name(),
                threads,
                summary,
                maintenance,
                insert_retries,
            });
        }
        eprintln!("[ycsb_mt] workload {} done", workload.name());
    }

    // In net mode, prove the pipelined client path pays for itself before
    // writing results: 1000 singles vs one set_batch(1000).
    let net_batch = if net {
        let server = Server::start("127.0.0.1:0").expect("bind batch server");
        let stats = net_batch_comparison(server.addr());
        let report = server.shutdown();
        assert!(report.drained, "batch comparison server failed to drain");
        Some(stats)
    } else {
        None
    };

    let mut json = String::from("{");
    json.push_str(&format!(
        "\"bench\":\"ycsb_mt\",\"index\":\"{}\",\"mode\":\"{}\",\"keys\":{},\"ops\":{},\"smoke\":{},",
        json_escape(&index_name),
        if net { "net" } else { "local" },
        keys.len(),
        n_ops,
        smoke
    ));
    if net {
        json.push_str(&format!(
            "\"server\":\"{}\",\"frame\":\"{}\",",
            json_escape(&server_name),
            json_escape(&frame_name)
        ));
    }
    json.push_str("\"results\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&cell_json(c));
    }
    json.push(']');
    if let Some((single_ns, batch_ns, speedup)) = net_batch {
        json.push_str(&format!(
            ",\"net_batch\":{{\"single_ns\":{single_ns},\"batch_ns\":{batch_ns},\
             \"speedup\":{speedup:.2}}}"
        ));
    }
    if obs::ENABLED {
        json.push_str(&format!(",\"obs\":{}", obs::snapshot().to_json()));
    }
    json.push('}');
    std::fs::write(&out_path, &json).expect("write BENCH_ycsb.json");
    eprintln!("[ycsb_mt] wrote {out_path} ({} bytes)", json.len());
}
