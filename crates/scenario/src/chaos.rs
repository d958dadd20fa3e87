//! Chaos layer: drives a durable [`TpcServer`] over loopback through a
//! drift scenario and kills it (`kill -9` simulation via
//! [`TpcServer::crash`]) at intervals mid-stream, asserting after every
//! restart that
//!
//! 1. recovery restores exactly the acknowledged-op oracle, and
//! 2. every shard's deep structural audit comes back clean.
//!
//! This composes the WAL crash path with drift-time maintenance: splits,
//! remaps, and shrinks are in flight when the server dies. Ops go through
//! one text [`Client`] on worker 0, so ops on keys other workers own take
//! the forwarding hop and are logged by their owners.

use crate::stream::{CompiledScenario, ScenarioOp, SCAN_COUNT};
use index_traits::{Key, Value};
use kvstore::{Client, TpcOptions, TpcServer};
use std::collections::BTreeMap;
use std::io;

/// Chaos run configuration.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Kill the server after every `kill_every` acknowledged mutations.
    pub kill_every: usize,
    /// Options for every start and restart; `server.durability` must be
    /// set.
    pub server: TpcOptions,
    /// Checkpoint before every other kill, so recovery exercises both the
    /// checkpoint+replay and the pure-replay paths.
    pub checkpoint_alternate: bool,
}

/// What happened during a chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// Crash/recover cycles performed.
    pub kills: usize,
    /// Mutations acknowledged (and therefore in the oracle).
    pub acked: usize,
    /// Keys live at the end of the run.
    pub final_len: usize,
    /// Total audit checks across all post-recovery audits.
    pub audit_checks: usize,
}

fn verify(
    server: &TpcServer,
    client: &mut Client,
    oracle: &BTreeMap<Key, Value>,
    when: &str,
) -> io::Result<usize> {
    assert_eq!(
        client.len()?,
        oracle.len(),
        "{when}: recovered len diverged from acked oracle"
    );
    let got = client.scan(0, oracle.len() + 16)?;
    let want: Vec<(Key, Value)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want, "{when}: recovered contents diverged");
    let report = server.audit();
    assert!(
        report.is_clean(),
        "{when}: post-recovery audit dirty: {report:?}"
    );
    assert!(report.checks > 0, "{when}: vacuous audit");
    Ok(report.checks)
}

/// Crashes `server` and starts a recovered one on the same directory.
fn crash_and_restart(server: TpcServer, opts: &TpcOptions) -> io::Result<(TpcServer, Client)> {
    server.crash();
    let server = TpcServer::with_options("127.0.0.1:0", opts.clone())?;
    let client = Client::connect(server.addr())?;
    Ok((server, client))
}

/// Replays `compiled` against a durable server, crashing and recovering
/// it every `opts.kill_every` acked mutations.
///
/// # Errors
///
/// Propagates server start/recovery and client I/O errors, and a shard log
/// that reports an error when the final server shuts down. Acked-durability
/// or audit violations panic (this is a test harness: divergence is a bug,
/// not an environmental condition).
///
/// # Panics
///
/// Panics if `opts.server` is not durable, if recovery loses an
/// acknowledged op or resurrects an unacked one, or if any post-recovery
/// audit reports a violation.
pub fn run_chaos(compiled: &CompiledScenario, opts: &ChaosOptions) -> io::Result<ChaosReport> {
    assert!(opts.kill_every > 0);
    assert!(
        opts.server.durability.is_some(),
        "chaos needs a durable server"
    );
    let mut server = TpcServer::with_options("127.0.0.1:0", opts.server.clone())?;
    let mut client = Client::connect(server.addr())?;
    let mut oracle: BTreeMap<Key, Value> = BTreeMap::new();
    let mut acked = 0usize;
    let mut since_kill = 0usize;
    let mut kills = 0usize;
    let mut audit_checks = 0usize;

    for op in &compiled.ops {
        match *op {
            ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) => {
                client.set(k, v)?;
                oracle.insert(k, v);
                acked += 1;
                since_kill += 1;
            }
            ScenarioOp::Delete(k) => {
                let prev = client.del(k)?;
                assert_eq!(prev, oracle.remove(&k), "delete returned wrong previous");
                acked += 1;
                since_kill += 1;
            }
            ScenarioOp::Read(k) => {
                assert_eq!(client.get(k)?, oracle.get(&k).copied(), "read diverged");
            }
            ScenarioOp::Scan(k) => {
                let got = client.scan(k, SCAN_COUNT)?;
                let want: Vec<(Key, Value)> = oracle
                    .range(k..)
                    .take(SCAN_COUNT)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(got, want, "scan diverged");
            }
        }
        if since_kill >= opts.kill_every {
            since_kill = 0;
            if opts.checkpoint_alternate && kills.is_multiple_of(2) {
                server.checkpoint_now()?;
            }
            (server, client) = crash_and_restart(server, &opts.server)?;
            kills += 1;
            audit_checks += verify(
                &server,
                &mut client,
                &oracle,
                &format!("after kill {kills}"),
            )?;
        }
    }

    (server, client) = crash_and_restart(server, &opts.server)?;
    audit_checks += verify(&server, &mut client, &oracle, "final recovery")?;
    let final_len = client.len()?;
    if !server.shutdown().drained {
        return Err(io::Error::other(
            "a shard's log failed as the server closed",
        ));
    }

    Ok(ChaosReport {
        kills: kills + 1,
        acked,
        final_len,
        audit_checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::stream::compile;
    use kvstore::DurabilityOptions;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scenario-chaos-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn chaos_smoke_survives_two_kills() {
        let dir = temp_dir("smoke");
        let compiled = compile(&builtin::mm_to_tx_drift(600));
        let report = run_chaos(
            &compiled,
            &ChaosOptions {
                kill_every: 500,
                server: TpcOptions {
                    workers: 2,
                    params: dytis::Params::small(),
                    durability: Some(DurabilityOptions {
                        dir: dir.clone(),
                        ops_per_checkpoint: 0,
                        max_batch_records: 64,
                    }),
                    ..TpcOptions::default()
                },
                checkpoint_alternate: true,
            },
        )
        .expect("chaos run");
        assert!(report.kills >= 2, "{report:?}");
        assert!(report.acked > 1_000, "{report:?}");
        assert!(report.audit_checks > 0, "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
