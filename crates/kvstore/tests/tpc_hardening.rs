//! The DESIGN.md §11 resource envelope, re-run against the thread-per-core
//! server (DESIGN.md §16): the refactor must keep every hardening
//! guarantee of the threaded server — connection budget with `ERR busy`
//! admission, capped request lines with resync, idle reaping, and a
//! deadline-bounded drain — while serving from poll(2) event loops.

#![cfg(unix)]

use kvstore::{Client, RetryPolicy, ServerOptions, TpcOptions, TpcServer};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn tpc(workers: usize, server: ServerOptions) -> TpcServer {
    TpcServer::with_options(
        "127.0.0.1:0",
        TpcOptions {
            workers,
            server,
            ..TpcOptions::default()
        },
    )
    .expect("start tpc")
}

fn raw_conn(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read line");
    line.trim_end().to_string()
}

/// Resident set size of this process in bytes (Linux only).
#[cfg(target_os = "linux")]
fn rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: usize = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .expect("parse VmRSS");
            return kb * 1024;
        }
    }
    panic!("VmRSS not found in /proc/self/status");
}

/// A newline-free flood must neither balloon worker memory nor kill the
/// connection: the per-connection input buffer is capped at the line
/// limit, the stream is discarded as it arrives, and the session resyncs
/// at the next newline.
#[test]
fn newline_free_flood_is_bounded_and_survivable() {
    let server = tpc(2, ServerOptions::default());
    let (mut stream, mut reader) = raw_conn(server.addr());

    #[cfg(target_os = "linux")]
    let rss_before = rss_bytes();

    let chunk = vec![b'A'; 1 << 20];
    for _ in 0..64 {
        stream.write_all(&chunk).expect("write flood chunk");
    }
    stream.write_all(b"\nLEN\n").expect("write tail");

    let resp = read_line(&mut reader);
    assert!(
        resp.starts_with("ERR line too long"),
        "expected oversized-line error, got {resp:?}"
    );
    assert_eq!(read_line(&mut reader), "LEN 0");

    #[cfg(target_os = "linux")]
    {
        let grown = rss_bytes().saturating_sub(rss_before);
        assert!(
            grown < 32 << 20,
            "RSS grew by {} MiB while streaming a 64 MiB garbage line",
            grown >> 20
        );
    }
    let report = server.shutdown();
    assert!(report.drained, "flooded tpc server failed to drain");
}

/// Oversized lines inside a pipelined burst: one error per long line,
/// every short line answered, strict request order — the in-order
/// pending-slot queue must hold even with the error path interleaved.
#[test]
fn oversized_line_resyncs_within_a_burst() {
    let server = tpc(2, ServerOptions::default());
    let (mut stream, mut reader) = raw_conn(server.addr());

    let long = "X".repeat(kvstore::protocol::MAX_LINE_BYTES + 1);
    let burst = format!("SET 1 10\n{long}\nGET 1\n{long}\nLEN\n");
    stream.write_all(burst.as_bytes()).expect("write burst");

    assert_eq!(read_line(&mut reader), "OK");
    assert!(read_line(&mut reader).starts_with("ERR line too long"));
    assert_eq!(read_line(&mut reader), "VALUE 10");
    assert!(read_line(&mut reader).starts_with("ERR line too long"));
    assert_eq!(read_line(&mut reader), "LEN 1");
    server.shutdown();
}

/// The connection budget is global across workers: with
/// `max_connections = 2`, the third concurrent connection gets `ERR busy`
/// and is closed at accept time; freeing a slot re-opens admission.
#[test]
fn busy_rejection_at_budget_then_recovery() {
    let opts = ServerOptions {
        max_connections: 2,
        ..ServerOptions::default()
    };
    let server = tpc(2, opts);

    let mut c1 = Client::connect(server.addr()).expect("connect c1");
    c1.set(1, 1).expect("c1 set");
    let mut c2 = Client::connect(server.addr()).expect("connect c2");
    c2.set(2, 2).expect("c2 set");
    assert_eq!(server.live_connections(), 2);

    let (_s3, mut r3) = raw_conn(server.addr());
    assert_eq!(read_line(&mut r3), "ERR busy");
    let mut rest = Vec::new();
    r3.read_to_end(&mut rest).expect("rejected conn EOF");
    assert!(rest.is_empty(), "rejected conn got extra bytes {rest:?}");

    // Admitted connections were not disturbed — including cross-shard ops
    // that forward between the two workers.
    assert_eq!(c1.get(2).expect("c1 get"), Some(2));
    assert_eq!(c2.get(1).expect("c2 get"), Some(1));

    c1.quit().expect("quit c1");
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut admitted = None;
    while Instant::now() < deadline {
        if let Ok(mut c) = Client::connect_with_retry(server.addr(), &RetryPolicy::default()) {
            if c.set(3, 3).is_ok() {
                admitted = Some(c);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut c3 = admitted.expect("no admission after freeing a slot");
    assert_eq!(c3.get(3).expect("c3 get"), Some(3));
    server.shutdown();
}

/// An idle connection is reaped by the read timeout: the worker's sweep
/// says why (`ERR idle timeout`) and closes, and the budget slot frees.
#[test]
fn idle_connection_is_reaped() {
    let opts = ServerOptions {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerOptions::default()
    };
    let server = tpc(2, opts);

    let (mut stream, mut reader) = raw_conn(server.addr());
    stream.write_all(b"LEN\n").expect("write");
    assert_eq!(read_line(&mut reader), "LEN 0");
    assert_eq!(server.live_connections(), 1);

    assert_eq!(read_line(&mut reader), "ERR idle timeout");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after reap");
    assert!(rest.is_empty());

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_connections() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.live_connections(), 0, "reaped conn still registered");
    server.shutdown();
}

/// Shutdown drains: idle connections and one parked mid-line are all
/// force-closed and the worker threads joined within the deadline.
#[test]
fn shutdown_drains_live_connections() {
    let opts = ServerOptions {
        drain_deadline: Duration::from_secs(5),
        ..ServerOptions::default()
    };
    let server = tpc(3, opts);

    let mut parked: Vec<(TcpStream, BufReader<TcpStream>)> = Vec::new();
    for _ in 0..3 {
        let (mut s, mut r) = raw_conn(server.addr());
        s.write_all(b"LEN\n").expect("write");
        assert_eq!(read_line(&mut r), "LEN 0");
        parked.push((s, r));
    }
    let (mut mid, mid_r) = raw_conn(server.addr());
    mid.write_all(b"SET 1 ").expect("partial write");
    parked.push((mid, mid_r));
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_connections() != 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.live_connections(), 4);

    let start = Instant::now();
    let report = server.shutdown();
    let took = start.elapsed();
    assert!(
        report.drained,
        "shutdown abandoned {} workers",
        report.abandoned
    );
    assert_eq!(report.abandoned, 0);
    assert!(
        took < Duration::from_secs(5),
        "drain took {took:?}, deadline was 5s"
    );

    for (_s, mut r) in parked {
        let mut rest = Vec::new();
        match r.read_to_end(&mut rest) {
            Ok(_) => {}
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ),
                "unexpected error after drain: {e:?}"
            ),
        }
    }
}

/// New connections after shutdown are refused — every worker listener is
/// gone.
#[test]
fn no_admission_after_shutdown() {
    let server = tpc(2, ServerOptions::default());
    let addrs: Vec<_> = server.worker_addrs().to_vec();
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set(1, 1).expect("set");
    c.quit().expect("quit");
    let report = server.shutdown();
    assert!(report.drained);

    for addr in addrs {
        if let Ok(stream) = TcpStream::connect(addr) {
            let mut r = BufReader::new(stream.try_clone().expect("clone"));
            let _ = stream.set_nodelay(true);
            let mut line = String::new();
            let n = r.read_line(&mut line).unwrap_or(0);
            assert_eq!(n, 0, "post-shutdown connection was served: {line:?}");
        }
    }
}

/// Concurrent text clients on different workers observe one coherent
/// store: writes land on their key's shard regardless of which listener
/// the client happened to dial.
#[test]
fn clients_on_different_workers_share_the_keyspace() {
    let server = tpc(3, ServerOptions::default());
    let addrs: Vec<_> = server.worker_addrs().to_vec();
    let writers: Vec<_> = addrs
        .iter()
        .enumerate()
        .map(|(t, addr)| {
            let addr = *addr;
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for i in 0..100u64 {
                    // Keys spread over the whole u64 range: most ops land
                    // on a worker other than the connection's own.
                    let k = (t as u64 * 100 + i) * (u64::MAX / 300);
                    c.set(k, t as u64 * 100 + i).expect("set");
                }
                c.quit().expect("quit");
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    let mut c = Client::connect(server.addr()).expect("connect");
    assert_eq!(c.len().expect("len"), 300);
    let scan = c.scan(0, 300).expect("scan");
    assert_eq!(scan.len(), 300);
    assert!(
        scan.windows(2).all(|w| w[0].0 < w[1].0),
        "cross-shard scan must be globally sorted"
    );
    server.shutdown();
}
