//! Metrics-on check that each concurrent DyTIS variant reports its
//! maintenance under its own obs names (`cdytis.*` for segment locks,
//! `cdytis_fine.*` for bucket locks).
//!
//! Both variants run on one generic optimistic-read core, and
//! `obs::counter!` caches its registry handle in a `static` per call site.
//! A variant-named counter emitted from generic code would therefore land
//! under whichever variant registered it first. This test drives splits,
//! doublings, remaps and expansions on each variant in turn and checks
//! that exactly that variant's counters moved, by exactly its
//! `maintenance_stats()`.
//!
//! Run with `cargo test --features metrics --test obs_variant_counters`.
#![cfg(feature = "metrics")]

use dytis_repro::dytis::{ConcurrentDyTis, ConcurrentDyTisFine, Params};
use dytis_repro::index_traits::{ConcurrentKvIndex, MaintenanceStats};
use dytis_repro::obs;
use dytis_repro::scenario::{builtin, compile, ScenarioOp};

const EVENTS: [&str; 5] = ["split", "double", "remap", "expand", "insert_retries"];

fn totals(prefix: &str) -> [u64; 5] {
    EVENTS.map(|e| obs::counter(&format!("{prefix}.{e}")).get())
}

fn delta(after: [u64; 5], before: [u64; 5]) -> [u64; 5] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Inserts one MM→TX drift stream into `idx`, then checks the obs deltas
/// of `own` against `stats` and that the `other` prefix did not move.
fn drive<I: ConcurrentKvIndex>(
    idx: &I,
    own: &str,
    other: &str,
    stats: impl Fn(&I) -> (MaintenanceStats, u64),
) {
    let (own0, other0) = (totals(own), totals(other));
    for op in compile(&builtin::mm_to_tx_drift(10_000)).ops {
        if let ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) = op {
            idx.insert(k, v);
        }
    }
    let (m, retries) = stats(idx);
    let want = [m.splits, m.doublings, m.remaps, m.expansions, retries];
    assert!(
        want[..4].iter().all(|&n| n > 0),
        "{own}: stream must fire every maintenance kind, got {m:?}"
    );
    assert_eq!(delta(totals(own), own0), want, "{own}.{EVENTS:?}");
    assert_eq!(
        delta(totals(other), other0),
        [0; 5],
        "{other}.* moved while only {own} ran"
    );
}

fn coarse() {
    let idx = ConcurrentDyTis::with_params(Params::small());
    drive(&idx, "cdytis", "cdytis_fine", |i| {
        (i.maintenance_stats(), i.insert_retries())
    });
}

fn fine() {
    let idx = ConcurrentDyTisFine::with_params(Params::small());
    drive(&idx, "cdytis_fine", "cdytis", |i| {
        (i.maintenance_stats(), i.insert_retries())
    });
}

/// One test function, so no other test in this binary touches the
/// counters concurrently. A call site shared by both variants keeps the
/// handle of whichever ran first, so the second run is the one that
/// catches it; running the pair twice checks both orders.
#[test]
fn each_variant_counts_under_its_own_names() {
    coarse();
    fine();
    coarse();
}
