//! Differential testing of the `DYF1` binary frame against the text
//! protocol: the same op stream must produce semantically identical
//! results over both wires (and match an in-process model), CRC damage
//! must kill the stream rather than corrupt it, and mixed-protocol
//! sessions must coexist on one server.

#![cfg(unix)]

use kvstore::frame;
use kvstore::{BinClient, Client, RoutedClient, ServerOptions, TpcOptions, TpcServer};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;

fn tpc(workers: usize) -> TpcServer {
    TpcServer::with_options(
        "127.0.0.1:0",
        TpcOptions {
            workers,
            server: ServerOptions::default(),
            ..TpcOptions::default()
        },
    )
    .expect("start tpc")
}

/// Deterministic op stream (xorshift): the same seed always replays the
/// same trace, so failures are reproducible.
struct Trace {
    state: u64,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Set(u64, u64),
    Get(u64),
    Del(u64),
    Scan(u64, usize),
    Len,
}

impl Trace {
    fn new(seed: u64) -> Trace {
        Trace { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    fn next_op(&mut self) -> Op {
        // Keys from a small-ish space so GET/DEL hit often, spread over
        // the whole u64 range so every shard participates.
        let key = (self.next_u64() % 512) * (u64::MAX / 512);
        match self.next_u64() % 10 {
            0..=4 => Op::Set(key, self.next_u64() % 1_000_000),
            5..=6 => Op::Get(key),
            7 => Op::Del(key),
            8 => Op::Scan(key, (self.next_u64() % 64) as usize),
            _ => Op::Len,
        }
    }
}

/// One op's observable outcome, protocol-agnostic.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Set,
    Get(Option<u64>),
    Del(Option<u64>),
    Scan(Vec<(u64, u64)>),
    Len(u64),
}

fn run_text(c: &mut Client, op: Op) -> Outcome {
    match op {
        Op::Set(k, v) => {
            c.set(k, v).expect("text set");
            Outcome::Set
        }
        Op::Get(k) => Outcome::Get(c.get(k).expect("text get")),
        Op::Del(k) => Outcome::Del(c.del(k).expect("text del")),
        Op::Scan(s, n) => Outcome::Scan(c.scan(s, n).expect("text scan")),
        Op::Len => Outcome::Len(c.len().expect("text len") as u64),
    }
}

fn run_binary(c: &mut BinClient, op: Op) -> Outcome {
    match op {
        Op::Set(k, v) => {
            c.set(k, v).expect("bin set");
            Outcome::Set
        }
        Op::Get(k) => Outcome::Get(c.get(k).expect("bin get")),
        Op::Del(k) => Outcome::Del(c.del(k).expect("bin del")),
        Op::Scan(s, n) => Outcome::Scan(c.scan(s, n).expect("bin scan")),
        Op::Len => Outcome::Len(c.len().expect("bin len")),
    }
}

fn run_model(model: &mut BTreeMap<u64, u64>, op: Op) -> Outcome {
    match op {
        Op::Set(k, v) => {
            model.insert(k, v);
            Outcome::Set
        }
        Op::Get(k) => Outcome::Get(model.get(&k).copied()),
        Op::Del(k) => Outcome::Del(model.remove(&k)),
        Op::Scan(s, n) => Outcome::Scan(model.range(s..).take(n).map(|(k, v)| (*k, *v)).collect()),
        Op::Len => Outcome::Len(model.len() as u64),
    }
}

/// Tentpole differential: 2000 ops through the text protocol on one TPC
/// server, the binary frame on another, and a BTreeMap model — all three
/// must agree op for op.
#[test]
fn binary_and_text_agree_on_the_same_trace() {
    let text_server = tpc(3);
    let bin_server = tpc(3);
    let mut text = Client::connect(text_server.addr()).expect("text connect");
    let mut bin = BinClient::connect(bin_server.addr()).expect("bin connect");
    let mut model = BTreeMap::new();

    let mut trace = Trace::new(0xD47B_1535);
    for i in 0..2000 {
        let op = trace.next_op();
        let expected = run_model(&mut model, op);
        let from_text = run_text(&mut text, op);
        let from_bin = run_binary(&mut bin, op);
        assert_eq!(from_text, expected, "op {i} {op:?}: text diverged");
        assert_eq!(from_bin, expected, "op {i} {op:?}: binary diverged");
    }
    text.quit().expect("text quit");
    bin.quit().expect("bin quit");
    assert!(text_server.shutdown().drained);
    assert!(bin_server.shutdown().drained);
}

/// Both protocols on the *same* server observe one coherent store.
#[test]
fn mixed_protocol_sessions_share_the_store() {
    let server = tpc(2);
    let mut text = Client::connect(server.addr()).expect("text connect");
    let mut bin = BinClient::connect(server.addr()).expect("bin connect");

    text.set(1, 100).expect("text set");
    bin.set(u64::MAX - 1, 200).expect("bin set");
    assert_eq!(bin.get(1).expect("bin get"), Some(100));
    assert_eq!(text.get(u64::MAX - 1).expect("text get"), Some(200));
    assert_eq!(text.len().expect("text len"), 2);
    assert_eq!(bin.len().expect("bin len"), 2);
    assert_eq!(
        bin.scan(0, 10).expect("bin scan"),
        vec![(1, 100), (u64::MAX - 1, 200)]
    );
    text.quit().expect("text quit");
    bin.quit().expect("bin quit");
    server.shutdown();
}

/// The routed client: every op lands on the worker that owns its key (no
/// forwarding hop), batches partition across all workers, and results
/// come back in caller order.
#[test]
fn routed_client_round_trip() {
    let server = tpc(3);
    let mut r = RoutedClient::connect(server.worker_addrs()).expect("routed connect");
    assert_eq!(r.workers(), 3);

    let n = 3000u64;
    let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i * (u64::MAX / n), i)).collect();
    assert_eq!(r.set_batch(&pairs).expect("set_batch"), n);
    assert_eq!(r.len().expect("len"), n);

    // Shuffled key order (deterministic) — results must re-assemble.
    let mut keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    keys.reverse();
    keys.push(12345); // a miss
    let got = r.get_batch(&keys).expect("get_batch");
    for (i, (&k, v)) in keys.iter().zip(&got).enumerate() {
        if k == 12345 {
            assert_eq!(*v, None, "key {k} (idx {i})");
        } else {
            assert_eq!(*v, Some(k / (u64::MAX / n)), "key {k} (idx {i})");
        }
    }

    // Cross-shard scan via the routed client matches the global order.
    let scanned = r.scan(0, 100).expect("scan");
    assert_eq!(scanned.len(), 100);
    assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(scanned[0], pairs[0]);

    assert_eq!(r.del(pairs[0].0).expect("del"), Some(0));
    assert_eq!(r.len().expect("len"), n - 1);
    r.quit().expect("quit");
    server.shutdown();
}

/// Batches above one frame's worth of *responses* (GET/DEL replies carry
/// 2 words per key) must chunk so the server's replies stay legal frames,
/// and the client must bound its in-flight frames so a reply volume past
/// the server's write-side high water cannot deadlock the connection.
/// Regression: `KEY_CHUNK == MAX_FRAME_WORDS` used to make every batch
/// over 16384 keys fail against the server's own valid reply, and
/// unwindowed pipelining deadlocked multi-hundred-thousand-key batches.
#[test]
fn large_batches_and_scans_chunk_below_frame_limits() {
    let server = tpc(2);
    // >9 request frames, ~2.4 MiB of GET replies — past the server's
    // 1 MiB outbuf high water, so this deadlocks without windowing.
    let n: u64 = 150_000;
    let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i * (u64::MAX / n), i)).collect();
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();

    let mut bin = BinClient::connect(server.addr()).expect("bin connect");
    assert_eq!(bin.set_batch(&pairs).expect("set_batch"), n);
    let got = bin.get_batch(&keys).expect("get_batch");
    assert_eq!(got.len(), keys.len());
    assert!(got.iter().enumerate().all(|(i, v)| *v == Some(i as u64)));

    // A scan bigger than one response frame chains requests client-side.
    let scan_n = frame::MAX_KEYS_PER_FRAME as usize + 3_000;
    let scanned = bin.scan(0, scan_n).expect("scan");
    assert_eq!(scanned.len(), scan_n);
    assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(scanned[0], pairs[0]);

    // Deletes answer 2 words per key too and must chunk the same way.
    let deleted = bin.del_batch(&keys).expect("del_batch");
    assert!(deleted
        .iter()
        .enumerate()
        .all(|(i, v)| *v == Some(i as u64)));
    assert_eq!(bin.len().expect("len"), 0);
    bin.quit().expect("quit");

    // The routed client windows per connection as well.
    let mut r = RoutedClient::connect(server.worker_addrs()).expect("routed connect");
    assert_eq!(r.set_batch(&pairs).expect("routed set_batch"), n);
    let got = r.get_batch(&keys).expect("routed get_batch");
    assert!(got.iter().enumerate().all(|(i, v)| *v == Some(i as u64)));
    r.quit().expect("routed quit");
    server.shutdown();
}

/// Over-cap key lists and scan limits get a typed, *non-fatal* `ERR`: the
/// frame itself was well-formed, so the stream is still in sync and the
/// one-response-per-request alignment (which pipelined clients count on)
/// holds.
#[test]
fn over_cap_requests_get_typed_err_without_closing() {
    let server = tpc(1);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&frame::PREAMBLE).expect("preamble");

    // One key too many for the reply to fit a frame.
    let too_many = vec![0u64; frame::MAX_KEYS_PER_FRAME as usize + 1];
    frame::write_frame(&mut stream, frame::OP_GET, &too_many).expect("get frame");
    let (h, w) = frame::read_frame(&mut stream).expect("err frame");
    assert_eq!(
        (h.op, w.as_slice()),
        (frame::RESP_ERR, &[frame::ERR_KEY_COUNT][..])
    );

    // Same for a scan whose rows could not fit one response frame.
    let limit = u64::from(frame::MAX_KEYS_PER_FRAME) + 1;
    frame::write_frame(&mut stream, frame::OP_SCAN, &[0, limit]).expect("scan frame");
    let (h, w) = frame::read_frame(&mut stream).expect("err frame");
    assert_eq!(
        (h.op, w.as_slice()),
        (frame::RESP_ERR, &[frame::ERR_SCAN_LIMIT][..])
    );

    // The session survived both rejections: a normal op still works.
    frame::write_frame(&mut stream, frame::OP_SET, &[5, 50]).expect("set frame");
    let (h, w) = frame::read_frame(&mut stream).expect("set ack");
    assert_eq!((h.op, w.as_slice()), (frame::RESP_SET, &[1u64][..]));
    server.shutdown();
}

/// After a fatal frame error the connection is poisoned immediately: a
/// well-formed frame sent *behind* the damage in the same burst is never
/// parsed or applied. Regression: the read loop used to keep decoding
/// post-fault bytes until the queued ERR happened to flush.
#[test]
fn no_bytes_are_applied_after_a_fatal_frame_error() {
    let server = tpc(1);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let mut wire = frame::PREAMBLE.to_vec();
    frame::encode_frame(&mut wire, frame::OP_SET, &[1, 10]);
    let damaged_at = wire.len();
    frame::encode_frame(&mut wire, frame::OP_SET, &[2, 20]);
    wire[damaged_at + frame::HEADER_LEN] ^= 0x01; // corrupt frame 2's payload
    frame::encode_frame(&mut wire, frame::OP_SET, &[3, 30]); // valid, post-fault
    stream.write_all(&wire).expect("burst");

    let (h, w) = frame::read_frame(&mut stream).expect("set ack");
    assert_eq!((h.op, w.as_slice()), (frame::RESP_SET, &[1u64][..]));
    let (h, w) = frame::read_frame(&mut stream).expect("err frame");
    assert_eq!(
        (h.op, w.as_slice()),
        (frame::RESP_ERR, &[frame::ERR_BAD_FRAME][..])
    );
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).unwrap_or(0),
        0,
        "no EOF after fault"
    );

    let mut c = Client::connect(server.addr()).expect("connect");
    assert_eq!(c.get(1).expect("get"), Some(10), "pre-fault set lost");
    assert_eq!(c.get(2).expect("get"), None, "damaged frame was applied");
    assert_eq!(c.get(3).expect("get"), None, "post-fault frame was applied");
    server.shutdown();
}

/// CRC damage is a transport fault: the server answers `ERR` with
/// [`frame::ERR_BAD_FRAME`] and closes — it never executes the damaged
/// frame or tries to resync.
#[test]
fn crc_damage_rejects_and_closes() {
    let server = tpc(2);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&frame::PREAMBLE).expect("preamble");

    // A valid frame first: the session works.
    frame::write_frame(&mut stream, frame::OP_SET, &[7, 70]).expect("set frame");
    let (h, w) = frame::read_frame(&mut stream).expect("set ack");
    assert_eq!((h.op, w.as_slice()), (frame::RESP_SET, &[1u64][..]));

    // Now a frame with one payload byte flipped after encoding.
    let mut buf = Vec::new();
    frame::encode_frame(&mut buf, frame::OP_SET, &[8, 80]);
    buf[frame::HEADER_LEN] ^= 0x01; // corrupt the first payload byte
    stream.write_all(&buf).expect("damaged frame");

    let (h, w) = frame::read_frame(&mut stream).expect("err frame");
    assert_eq!(h.op, frame::RESP_ERR);
    assert_eq!(w, vec![frame::ERR_BAD_FRAME]);
    // …and the connection is closed: EOF follows.
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "server kept the connection open after CRC damage");

    // The damaged SET was not applied; the valid one was.
    let mut c = Client::connect(server.addr()).expect("connect");
    assert_eq!(c.get(7).expect("get"), Some(70));
    assert_eq!(c.get(8).expect("get"), None);
    server.shutdown();
}

/// A hostile word count is rejected from the 6-byte header alone
/// (`ERR_TOO_LARGE`), before the server ever buffers the announced
/// payload.
#[test]
fn oversized_frame_header_rejects_and_closes() {
    let server = tpc(1);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&frame::PREAMBLE).expect("preamble");

    let mut header = vec![frame::OP_SET, 0];
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&header).expect("hostile header");

    let (h, w) = frame::read_frame(&mut stream).expect("err frame");
    assert_eq!(h.op, frame::RESP_ERR);
    assert_eq!(w, vec![frame::ERR_TOO_LARGE]);
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "server kept the connection open after hostile count");
    server.shutdown();
}

/// A garbled preamble (magic byte followed by the wrong tag) closes the
/// connection without a reply — the session never negotiated a protocol
/// to answer in.
#[test]
fn garbled_preamble_closes() {
    let server = tpc(1);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(&[frame::MAGIC_BYTE, b'N', b'O', b'!'])
        .expect("garbled preamble");
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "server answered a garbled preamble: {rest:?}");
    server.shutdown();
}

/// Pipelined binary bursts keep strict request order across shards, same
/// as the text protocol's guarantee.
#[test]
fn pipelined_binary_burst_keeps_order() {
    let server = tpc(3);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&frame::PREAMBLE).expect("preamble");

    // Interleave SETs and GETs in one write: each GET must see every SET
    // that preceded it in the stream.
    let mut wire = Vec::new();
    let n = 200u64;
    for i in 0..n {
        let k = i * (u64::MAX / n);
        frame::encode_frame(&mut wire, frame::OP_SET, &[k, i]);
        frame::encode_frame(&mut wire, frame::OP_GET, &[k]);
    }
    frame::encode_frame(&mut wire, frame::OP_LEN, &[]);
    stream.write_all(&wire).expect("burst");

    for i in 0..n {
        let (h, w) = frame::read_frame(&mut stream).expect("set ack");
        assert_eq!(
            (h.op, w.as_slice()),
            (frame::RESP_SET, &[1u64][..]),
            "set {i}"
        );
        let (h, w) = frame::read_frame(&mut stream).expect("get res");
        assert_eq!(h.op, frame::RESP_GET, "get {i}");
        assert_eq!(w, vec![1, i], "get {i} must see its preceding set");
    }
    let (h, w) = frame::read_frame(&mut stream).expect("len res");
    assert_eq!((h.op, w.as_slice()), (frame::RESP_LEN, &[n][..]));
    server.shutdown();
}
