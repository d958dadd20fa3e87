//! `drift-ingest` and `shared-drift`: the paper's MM -> TX drift replayed
//! in-process, on the single-threaded `DyTis` and on `ConcurrentDyTis`.
//!
//! A run is a series of rounds. Each round builds a fresh index from the
//! scenario's MM warmup (timed as set-up) and then replays the serve
//! phase: the ramp to TX with 70% insert, 20% read and 10% scan-64
//! (timed as the run). Rounds repeat until `--seconds` of serve time
//! have been measured, and each metric is the median over rounds, so a
//! transient stall on the shared machine moves one round, not the result.

use crate::oracle::{self, Record, MISSING};
use crate::stats::{m, median, median_some, pct_of, thread_cpu_ns, Outcome};
use crate::trace::{Spans, MAX_TRACED_REQUESTS};
use crate::{heap, Opts};
use dytis::{ConcurrentDyTis, DyTis};
use index_traits::{ConcurrentKvIndex, Key, KvIndex, Value};
use scenario::{builtin, compile, ScenarioOp, SCAN_COUNT};
use std::sync::Barrier;
use std::time::Instant;

/// Ops of one scenario phase; the warmup has this many inserts and the
/// serve phase twice as many ops.
pub const SCALE: usize = 1_000_000;
/// Scale of the small instance the tests run.
pub const SMALL_SCALE: usize = 3_000;
/// In untraced rounds one op in this many is timed, so the clock's cost
/// is the same on both commits and small next to the work.
pub const SAMPLE_STRIDE: usize = 64;
/// Replayers of `shared-drift`.
pub const SHARED_THREADS: usize = 2;
/// Fewest rounds in a full-size run, so a median exists.
const MIN_ROUNDS: usize = 5;

/// The drift stream for `seed`, split into warmup and serve ops.
pub fn drift_stream(seed: u64, scale: usize) -> (Vec<ScenarioOp>, Vec<ScenarioOp>) {
    let mut sc = builtin::mm_to_tx_drift(scale);
    sc.seed = seed;
    let c = compile(&sc);
    let warm = &c.phases[0];
    let serve = &c.phases[1];
    (
        c.ops[warm.start..warm.end].to_vec(),
        c.ops[serve.start..serve.end].to_vec(),
    )
}

/// The index operations a replayer needs, over both index kinds.
trait Target {
    fn put(&mut self, k: Key, v: Value);
    fn del(&mut self, k: Key);
    fn read(&mut self, k: Key) -> Option<Value>;
    fn range(&mut self, start: Key, out: &mut Vec<(Key, Value)>);
}

impl Target for DyTis {
    fn put(&mut self, k: Key, v: Value) {
        self.insert(k, v);
    }
    fn del(&mut self, k: Key) {
        self.remove(k);
    }
    fn read(&mut self, k: Key) -> Option<Value> {
        KvIndex::get(self, k)
    }
    fn range(&mut self, start: Key, out: &mut Vec<(Key, Value)>) {
        KvIndex::scan(self, start, SCAN_COUNT, out);
    }
}

impl Target for &ConcurrentDyTis {
    fn put(&mut self, k: Key, v: Value) {
        ConcurrentKvIndex::insert(*self, k, v);
    }
    fn del(&mut self, k: Key) {
        ConcurrentKvIndex::remove(*self, k);
    }
    fn read(&mut self, k: Key) -> Option<Value> {
        ConcurrentKvIndex::get(*self, k)
    }
    fn range(&mut self, start: Key, out: &mut Vec<(Key, Value)>) {
        ConcurrentKvIndex::scan(*self, start, SCAN_COUNT, out);
    }
}

/// Per-op latencies by op type, in ns (traced rounds time every op).
#[derive(Debug, Default)]
struct TypeLat {
    insert: Vec<f64>,
    get: Vec<f64>,
    scan: Vec<f64>,
}

/// What one replayer measured in one round.
#[derive(Debug, Default)]
struct Part {
    rec: Record,
    /// Sampled per-op latencies, ns.
    lat: Vec<f64>,
    by_type: TypeLat,
    /// The first ops of a traced round, as spans: start, end, op type.
    spans: Vec<(Instant, Instant, usize)>,
    start: Option<Instant>,
    end: Option<Instant>,
    /// CPU time the replayer thread spent serving, ns.
    cpu_ns: u64,
}

impl Part {
    /// A replayer's buffers for `ops` ops; one of `replayers` when traced.
    fn new(ops: usize, traced: bool, replayers: usize) -> Part {
        let cap = if traced { ops } else { 0 };
        Part {
            rec: Record::with_capacity(ops, ops),
            lat: Vec::with_capacity(ops / SAMPLE_STRIDE + 1),
            by_type: TypeLat {
                insert: Vec::with_capacity(cap),
                get: Vec::with_capacity(cap),
                scan: Vec::with_capacity(cap),
            },
            spans: Vec::with_capacity(if traced {
                MAX_TRACED_REQUESTS as usize / replayers
            } else {
                0
            }),
            start: None,
            end: None,
            cpu_ns: 0,
        }
    }

    fn clear(&mut self) {
        self.rec.clear();
        self.lat.clear();
        self.by_type.insert.clear();
        self.by_type.get.clear();
        self.by_type.scan.clear();
        self.spans.clear();
    }
}

fn load<T: Target>(idx: &mut T, ops: &[ScenarioOp]) {
    for op in ops {
        if let ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) = *op {
            idx.put(k, v);
        }
    }
}

/// Replays `ops` as replayer `part` of `parts`, recording results, sampled
/// latencies and (when `traced`) every op's latency by type.
fn serve<T: Target>(
    idx: &mut T,
    ops: &[ScenarioOp],
    part: usize,
    parts: usize,
    traced: bool,
    p: &mut Part,
) {
    let mut out: Vec<(Key, Value)> = Vec::with_capacity(SCAN_COUNT);
    let cpu0 = thread_cpu_ns();
    p.start = Some(Instant::now());
    for (i, op) in ops.iter().enumerate() {
        let sampled = i % SAMPLE_STRIDE == 0;
        let t = (traced || sampled).then(Instant::now);
        let kind = match *op {
            ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) => {
                idx.put(k, v);
                0
            }
            ScenarioOp::Delete(k) => {
                idx.del(k);
                0
            }
            ScenarioOp::Read(k) => {
                p.rec.reads.push(idx.read(k).unwrap_or(MISSING));
                1
            }
            ScenarioOp::Scan(s) => {
                out.clear();
                idx.range(s, &mut out);
                p.rec.scans.push(oracle::scan_rec(&out, part, parts));
                2
            }
        };
        if let Some(t) = t {
            let end = Instant::now();
            let ns = end.duration_since(t).as_nanos() as f64;
            if sampled {
                p.lat.push(ns);
            }
            if traced {
                match kind {
                    0 => p.by_type.insert.push(ns),
                    1 => p.by_type.get.push(ns),
                    _ => p.by_type.scan.push(ns),
                }
                if p.spans.len() < p.spans.capacity() {
                    p.spans.push((t, end, kind));
                }
            }
        }
    }
    p.end = Some(Instant::now());
    p.cpu_ns = thread_cpu_ns() - cpu0;
}

/// Accumulates rounds into medians.
#[derive(Debug, Default)]
struct Rounds {
    setup_s: Vec<f64>,
    tput: Vec<f64>,
    traced_tput: Vec<f64>,
    p50: Vec<Option<f64>>,
    p99: Vec<Option<f64>>,
    bytes_per_key: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    by_type: TypeLat,
    attempted: u64,
    failed: u64,
    measured_s: f64,
    workload: &'static str,
    seed: u64,
    lines: Vec<String>,
}

impl Rounds {
    fn done(&self, o: &Opts) -> bool {
        let min = if o.small { 2 } else { MIN_ROUNDS };
        // Traced runs alternate untraced and traced rounds.
        let min = if o.trace { min.max(2) } else { min };
        self.setup_s.len() >= min && self.measured_s >= o.seconds
    }

    fn add(&mut self, parts: &mut [Part], ops: usize, setup_s: f64, traced: bool) {
        let start = parts.iter().filter_map(|p| p.start).min();
        let end = parts.iter().filter_map(|p| p.end).max();
        let (Some(start), Some(end)) = (start, end) else {
            return;
        };
        let dt = end.duration_since(start).as_secs_f64();
        self.measured_s += dt;
        self.setup_s.push(setup_s);
        if traced {
            if self.traced_tput.is_empty() {
                self.lines
                    .push(write_spans(parts, self.workload, self.seed));
            }
            self.traced_tput.push(ops as f64 / dt);
            for p in parts.iter_mut() {
                self.by_type.insert.append(&mut p.by_type.insert);
                self.by_type.get.append(&mut p.by_type.get);
                self.by_type.scan.append(&mut p.by_type.scan);
            }
        } else {
            self.tput.push(ops as f64 / dt);
            let cpu_ns: u64 = parts.iter().map(|p| p.cpu_ns).sum();
            self.cpu_us_per_op.push(cpu_ns as f64 / 1e3 / ops as f64);
            let mut lat: Vec<f64> = parts.iter().flat_map(|p| p.lat.iter().copied()).collect();
            self.p50.push(pct_of(&mut lat, 0.5).map(|ns| ns / 1e3));
            self.p99.push(pct_of(&mut lat, 0.99).map(|ns| ns / 1e3));
        }
    }

    fn finish(mut self, o: &Opts, out: &mut Outcome) {
        out.attempted = self.attempted;
        out.failed = self.failed;
        out.lines.append(&mut self.lines);
        out.e2e = vec![
            m("setup_s", "s", median(&self.setup_s)),
            m("throughput_ops_s", "ops/s", median(&self.tput)),
            m("lat_p50_us", "us", median_some(&self.p50)),
            m("bytes_per_key", "B", median(&self.bytes_per_key)),
            m("cpu_us_per_op", "us", median(&self.cpu_us_per_op)),
        ];
        out.extra = vec![m("lat_p99_us", "us", median_some(&self.p99))];
        if o.trace {
            let l = &mut out.layers;
            for (name, v) in [
                ("insert", &mut self.by_type.insert),
                ("get", &mut self.by_type.get),
                ("scan", &mut self.by_type.scan),
            ] {
                l.insert(format!("dytis.{name}_ns.p50"), pct_of(v, 0.5));
                l.insert(format!("dytis.{name}_ns.p99"), pct_of(v, 0.99));
            }
            let untraced = median(&self.tput);
            if let (Some(u), Some(t)) = (untraced, median(&self.traced_tput)) {
                l.insert("trace.overhead_pct".into(), Some((u - t) / u * 100.0));
            }
        }
    }
}

/// Writes the first traced round's op spans: one span per op, named by
/// op type, the op's index in its replayer's stream (times the replayer
/// count, plus the replayer) as request id.
fn write_spans(parts: &[Part], workload: &str, seed: u64) -> String {
    const NAMES: [&str; 3] = ["dytis.insert", "dytis.get", "dytis.scan"];
    let mut spans = Spans::new();
    let n = parts.len() as u64;
    for (d, p) in parts.iter().enumerate() {
        for (i, &(a, b, kind)) in p.spans.iter().enumerate() {
            spans.push(i as u64 * n + d as u64, NAMES[kind], None, a, b);
        }
    }
    match spans.write(&format!("spans-{workload}-seed{seed}.csv")) {
        Ok(path) => format!("spans: {} written to {path}", spans.len()),
        Err(e) => format!("spans: not written: {e}"),
    }
}

/// `drift-ingest`: single-threaded `DyTis`.
pub fn drift_ingest(o: &Opts) -> Outcome {
    let scale = if o.small { SMALL_SCALE } else { SCALE };
    let (warm, ops) = drift_stream(o.seed, scale);
    let mut r = Rounds {
        workload: "drift-ingest",
        seed: o.seed,
        ..Rounds::default()
    };
    let mut out = Outcome::default();
    let base = oracle::loaded(&warm);
    let mut parts = vec![Part::new(ops.len(), o.trace, 1)];
    let mut first: Option<(Record, u64)> = None;
    let mut last_idx: Option<DyTis> = None;
    while !r.done(o) {
        let traced = o.trace && r.setup_s.len() % 2 == 1;
        parts[0].clear();
        drop(last_idx.take());
        let h0 = heap::live_bytes();
        let t0 = Instant::now();
        let mut idx = DyTis::new();
        load(&mut idx, &warm);
        let setup_s = t0.elapsed().as_secs_f64();
        serve(&mut idx, &ops, 0, 1, traced, &mut parts[0]);
        r.bytes_per_key
            .push((heap::live_bytes() - h0) as f64 / idx.len() as f64);
        r.add(&mut parts, ops.len(), setup_s, traced);
        // Single-threaded rounds repeat exactly: a round equal to the
        // first has the first's failures, so the oracle replays once.
        r.attempted += ops.len() as u64;
        r.failed += match &first {
            Some((rec, failed)) if *rec == parts[0].rec => *failed,
            _ => {
                let failed = oracle::check(&base, &ops, &parts[0].rec, o.corrupt);
                if first.is_none() {
                    first = Some((parts[0].rec.clone(), failed));
                }
                failed
            }
        };
        last_idx = Some(idx);
    }
    r.finish(o, &mut out);
    if let Some(idx) = &last_idx {
        let s = idx.stats().ops;
        let l = &mut out.layers;
        l.insert("dytis.splits".into(), Some(s.splits as f64));
        l.insert("dytis.expansions".into(), Some(s.expansions as f64));
        l.insert("dytis.remaps".into(), Some(s.remaps as f64));
        l.insert("dytis.doublings".into(), Some(s.doublings as f64));
        l.insert("dytis.keys_moved".into(), Some(s.keys_moved as f64));
        l.insert("dytis.segments".into(), Some(idx.segment_count() as f64));
        l.insert(
            "dytis.bytes_per_key".into(),
            Some(idx.memory_bytes() as f64 / idx.len() as f64),
        );
    }
    out
}

/// `shared-drift`: the same stream on `ConcurrentDyTis`, split over
/// [`SHARED_THREADS`] replayers by key hash so each key keeps its program
/// order while reads race writers and splits.
pub fn shared_drift(o: &Opts) -> Outcome {
    let scale = if o.small { SMALL_SCALE } else { SCALE };
    let (warm, ops) = drift_stream(o.seed, scale);
    let warm_parts = oracle::split(&warm, SHARED_THREADS);
    let op_parts = oracle::split(&ops, SHARED_THREADS);
    let bases: Vec<_> = warm_parts.iter().map(|w| oracle::loaded(w)).collect();
    let mut r = Rounds {
        workload: "shared-drift",
        seed: o.seed,
        ..Rounds::default()
    };
    let mut out = Outcome::default();
    let mut parts: Vec<Part> = op_parts
        .iter()
        .map(|p| Part::new(p.len(), o.trace, SHARED_THREADS))
        .collect();
    let reads = ops
        .iter()
        .filter(|op| matches!(op, ScenarioOp::Read(_) | ScenarioOp::Scan(_)))
        .count() as f64;
    let (mut retries, mut fallbacks, mut insert_retries, mut deferred, mut kreads) =
        (0u64, 0u64, 0u64, 0u64, 0.0f64);
    let mut last: Option<ConcurrentDyTis> = None;
    while !r.done(o) {
        let traced = o.trace && r.setup_s.len() % 2 == 1;
        parts.iter_mut().for_each(Part::clear);
        drop(last.take());
        let h0 = heap::live_bytes();
        let t0 = Instant::now();
        let idx = ConcurrentDyTis::new();
        std::thread::scope(|s| {
            for wp in &warm_parts {
                let mut t = &idx;
                s.spawn(move || load(&mut t, wp));
            }
        });
        let setup_s = t0.elapsed().as_secs_f64();
        let gate = Barrier::new(SHARED_THREADS);
        std::thread::scope(|s| {
            for (i, (p, ops)) in parts.iter_mut().zip(&op_parts).enumerate() {
                let (idx, gate) = (&idx, &gate);
                s.spawn(move || {
                    let mut t = idx;
                    gate.wait();
                    serve(&mut t, ops, i, SHARED_THREADS, traced, p);
                });
            }
        });
        r.bytes_per_key
            .push((heap::live_bytes() - h0) as f64 / idx.len() as f64);
        r.add(&mut parts, ops.len(), setup_s, traced);
        r.attempted += ops.len() as u64;
        r.failed += std::thread::scope(|s| {
            let checks: Vec<_> = parts
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let (base, ops) = (&bases[i], &op_parts[i]);
                    s.spawn(move || oracle::check(base, ops, &p.rec, o.corrupt && i == 0))
                })
                .collect();
            checks
                .into_iter()
                .map(|h| h.join().expect("oracle check panicked"))
                .sum::<u64>()
        });
        let rs = idx.read_stats();
        retries += rs.retries;
        fallbacks += rs.fallbacks;
        insert_retries += idx.insert_retries();
        deferred += idx.epoch_stats().deferred;
        kreads += reads / 1e3;
        last = Some(idx);
    }
    let rounds = r.setup_s.len() as f64;
    r.finish(o, &mut out);
    let l = &mut out.layers;
    l.insert(
        "concurrent.read_retries_per_kread".into(),
        Some(retries as f64 / kreads),
    );
    l.insert(
        "concurrent.read_fallbacks_per_kread".into(),
        Some(fallbacks as f64 / kreads),
    );
    l.insert(
        "concurrent.optimistic_hit_ratio".into(),
        Some(1.0 - fallbacks as f64 / (kreads * 1e3)),
    );
    l.insert(
        "concurrent.insert_retries".into(),
        Some(insert_retries as f64 / rounds),
    );
    l.insert("epoch.deferred".into(), Some(deferred as f64 / rounds));
    if let Some(idx) = &last {
        let s = idx.maintenance_stats();
        l.insert("dytis.splits".into(), Some(s.splits as f64));
        l.insert("dytis.expansions".into(), Some(s.expansions as f64));
        l.insert("dytis.remaps".into(), Some(s.remaps as f64));
        l.insert("dytis.doublings".into(), Some(s.doublings as f64));
    }
    out
}
