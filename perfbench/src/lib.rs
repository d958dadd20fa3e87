//! The repository benchmark. One command, four workloads:
//!
//! - `drift-ingest`: the paper's MM -> TX drift on a single-threaded
//!   `DyTis` (`inproc`).
//! - `shared-drift`: the same stream on `ConcurrentDyTis`, two replayers.
//! - `kv-multiget`: a `TpcServer` read through one `RoutedClient` with
//!   128-key batches (`multiget`).
//! - `kv-drift-open`: the drift serve phase sent open-loop over the text
//!   protocol to a `TpcServer` (`openloop`).
//!
//! Every layer is measured from outside, through the public API of the
//! crates it calls; the program under test is not changed. See README.md
//! for what each metric means and which layer should move which metric.

pub mod heap;
pub mod inproc;
pub mod multiget;
pub mod openloop;
pub mod oracle;
pub mod stats;
pub mod trace;

use stats::{json_num, json_str, Outcome};

#[global_allocator]
static GLOBAL: heap::Counting = heap::Counting;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = [
    "drift-ingest",
    "shared-drift",
    "kv-multiget",
    "kv-drift-open",
];

/// The end-to-end metrics `BENCHMARK.json` gates, in its order. Every
/// workload also reports `throughput_ops_s` and `lat_p50_us`, in the
/// report line only: on a small shared machine they swing with the
/// host's load by more than any bound (README.md).
pub const E2E: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("bytes_per_key", "B"),
    ("cpu_us_per_op", "us"),
];

/// The per-layer metrics of a traced run, in `BENCHMARK.json`'s order. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("dytis.insert_ns.p50", "ns"),
    ("dytis.insert_ns.p99", "ns"),
    ("dytis.get_ns.p50", "ns"),
    ("dytis.get_ns.p99", "ns"),
    ("dytis.scan_ns.p50", "ns"),
    ("dytis.scan_ns.p99", "ns"),
    ("dytis.splits", "count"),
    ("dytis.expansions", "count"),
    ("dytis.remaps", "count"),
    ("dytis.doublings", "count"),
    ("dytis.keys_moved", "count"),
    ("dytis.segments", "count"),
    ("dytis.bytes_per_key", "B"),
    ("dytis.apply_ns.p50", "ns"),
    ("concurrent.read_retries_per_kread", "1/kread"),
    ("concurrent.read_fallbacks_per_kread", "1/kread"),
    ("concurrent.optimistic_hit_ratio", "ratio"),
    ("concurrent.insert_retries", "count"),
    ("epoch.deferred", "count"),
    ("frame.encode_ns.req", "ns"),
    ("frame.encode_ns.resp", "ns"),
    ("frame.decode_ns.req", "ns"),
    ("frame.decode_ns.resp", "ns"),
    ("frame.bytes_per_op.req", "B"),
    ("frame.bytes_per_op.resp", "B"),
    ("binclient.call_us.p50", "us"),
    ("binclient.call_us.p99", "us"),
    ("binclient.frames_per_call", "count"),
    ("protocol.format_request_ns", "ns"),
    ("protocol.parse_request_ns", "ns"),
    ("protocol.format_response_ns", "ns"),
    ("protocol.parse_response_ns", "ns"),
    ("protocol.bytes_per_op", "B"),
    ("tpc.worker_share.max", "ratio"),
    ("tpc.forwarded_share", "ratio"),
    ("tpc.residual_us.p50", "us"),
    ("kv.ops_per_wakeup", "count"),
    ("gen.late_us.p99", "us"),
    ("gen.backlog.max", "count"),
    ("trace.overhead_pct", "%"),
];

/// How one run is made.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs, for the tests.
    pub small: bool,
    /// Make the oracle expect one wrong value (non-vacuity test).
    pub corrupt: bool,
}

/// Worker threads of the served workloads and the machine's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a served workload whose server could not
/// start or whose connection failed.
pub fn run(workload: &str, o: &Opts) -> Result<Outcome, String> {
    match workload {
        "drift-ingest" => Ok(inproc::drift_ingest(o)),
        "shared-drift" => Ok(inproc::shared_drift(o)),
        "kv-multiget" => multiget::run(o).map_err(|e| format!("kv-multiget: {e}")),
        "kv-drift-open" => openloop::run(o).map_err(|e| format!("kv-drift-open: {e}")),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// The provenance block of every output.
pub fn provenance(workload: &str, o: &Opts, rev: &str) -> String {
    let features = if cfg!(feature = "metrics") {
        "metrics"
    } else {
        "default"
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"simd_kernel\": {}, \"git_rev\": {}, \"server_workers\": {}, \
         \"open_light_ops_s\": {}, \"open_heavy_ops_s\": {}, \"open_p99_limit_us\": {}, \
         \"build_features\": {}}}",
        json_str(workload),
        o.seed,
        o.seconds,
        o.trace,
        nproc(),
        json_str(dytis::simd::active_kernel()),
        json_str(rev),
        nproc(),
        openloop::LIGHT_OPS_S,
        openloop::HEAVY_OPS_S,
        openloop::P99_LIMIT_US,
        json_str(features),
    )
}

/// The report line: every metric this workload measured, by name and
/// unit, plus the error rate.
pub fn report(out: &Outcome) -> String {
    let mut fields = vec![format!(
        "\"error_rate\": {{\"value\": {}, \"unit\": \"ratio\"}}",
        out.error_rate()
    )];
    for x in out.e2e.iter().chain(&out.extra) {
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&x.name),
            json_num(x.value),
            json_str(x.unit)
        ));
    }
    format!("{{{}}}", fields.join(", "))
}

/// The result line: end-to-end metrics, or per-layer ones when traced.
pub fn result(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = out.layers.get(name).copied().unwrap_or(Some(0.0));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(v),
                    json_str(unit)
                )
            })
            .collect()
    } else {
        E2E.iter()
            .map(|&(name, unit)| {
                let v = out
                    .e2e
                    .iter()
                    .find(|x| x.name == name)
                    .and_then(|x| x.value);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(v),
                    json_str(unit)
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
