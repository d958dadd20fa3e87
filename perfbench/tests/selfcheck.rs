//! The benchmark's own checks, on small inputs:
//!
//! - the oracle is not vacuous: one deliberately wrong expected value
//!   makes every workload report failures;
//! - single-threaded counts repeat exactly for one seed;
//! - a second seed runs every workload unchanged and correct.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::stats::Outcome;
use perfbench::{run, Opts, WORKLOADS};
use std::sync::{Mutex, MutexGuard};

/// `bytes_per_key` reads the process-wide heap counter, and the servers
/// bind sockets and spawn threads: the tests run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn small(seed: u64, trace: bool, corrupt: bool) -> Opts {
    Opts {
        seed,
        seconds: 1.0,
        trace,
        small: true,
        corrupt,
    }
}

fn go(workload: &str, o: &Opts) -> Outcome {
    run(workload, o).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn every_workload_is_correct_on_two_seeds() {
    let _serial = serial();
    for seed in [1, 2] {
        for w in WORKLOADS {
            let out = go(w, &small(seed, false, false));
            assert!(out.attempted > 0, "{w} seed {seed}: nothing attempted");
            assert_eq!(out.failed, 0, "{w} seed {seed}: {} failures", out.failed);
            for x in &out.e2e {
                // A thread's CPU time advances in scheduler ticks, so the
                // short rounds of a small run may read none.
                let min = if x.name == "cpu_us_per_op" {
                    0.0
                } else {
                    f64::MIN_POSITIVE
                };
                assert!(
                    x.value.is_some_and(|v| v >= min),
                    "{w} seed {seed}: {} = {:?}",
                    x.name,
                    x.value
                );
            }
        }
    }
}

#[test]
fn a_wrong_expected_value_is_caught() {
    let _serial = serial();
    for w in WORKLOADS {
        let out = go(w, &small(1, false, true));
        assert!(
            out.error_rate() > 0.0,
            "{w}: the oracle accepted a deliberately wrong expected value"
        );
    }
}

#[test]
fn single_threaded_counts_repeat_exactly() {
    let _serial = serial();
    let counts = |out: &Outcome, names: &[&str]| -> Vec<Option<f64>> {
        names
            .iter()
            .map(|n| out.layers.get(*n).copied().flatten())
            .collect()
    };
    let ingest = [
        "dytis.splits",
        "dytis.expansions",
        "dytis.remaps",
        "dytis.doublings",
        "dytis.keys_moved",
        "dytis.segments",
        "dytis.bytes_per_key",
    ];
    let a = go("drift-ingest", &small(7, true, false));
    let b = go("drift-ingest", &small(7, true, false));
    assert!(counts(&a, &ingest).iter().all(Option::is_some));
    assert_eq!(counts(&a, &ingest), counts(&b, &ingest));
    let bpk = |o: &Outcome| {
        o.e2e
            .iter()
            .find(|x| x.name == "bytes_per_key")
            .and_then(|x| x.value)
    };
    assert_eq!(bpk(&a), bpk(&b));

    let frame = ["frame.bytes_per_op.req", "frame.bytes_per_op.resp"];
    let a = go("kv-multiget", &small(7, true, false));
    let b = go("kv-multiget", &small(7, true, false));
    assert!(counts(&a, &frame).iter().all(Option::is_some));
    assert_eq!(counts(&a, &frame), counts(&b, &frame));
}

#[test]
fn metric_names_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to perfbench/");
    for (name, unit) in perfbench::E2E.iter().chain(perfbench::PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"unit\": ").count();
    assert_eq!(declared, perfbench::E2E.len() + perfbench::PER_LAYER.len());
}
