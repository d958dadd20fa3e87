//! Forward-only differential test of the thread-per-core server: one text
//! connection to worker 1 of a 2-worker `TpcServer` pipelines a long mixed
//! op stream whose keys all lie below 2^63, so worker 0 owns every key and
//! every op takes the forwarding hop (`Msg::Apply` out, `Msg::Done` back,
//! each announced by a coalesced wake). Every reply, in order, must equal
//! the reply a `BTreeMap` oracle gives for the same op.

#![cfg(unix)]

use kvstore::{format_response, shard_of, Response, TpcOptions, TpcServer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const OPS: usize = 12_000;

/// xorshift64: the same seed replays the same stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A request line and the reply the oracle expects for it, in order.
fn stream(seed: u64) -> (String, Vec<String>) {
    let mut rng = Rng(seed);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut requests = String::new();
    let mut replies = Vec::with_capacity(OPS);
    for i in 0..OPS as u64 {
        // 1024 keys spaced 2^40 apart: all below 2^63, so all on worker 0.
        let key = (rng.next() % 1024) << 40;
        assert_eq!(shard_of(key, 2), 0);
        let resp = match rng.next() % 20 {
            0..=7 => {
                requests.push_str(&format!("SET {key} {i}\n"));
                oracle.insert(key, i);
                Response::Ok
            }
            8..=13 => {
                requests.push_str(&format!("GET {key}\n"));
                oracle
                    .get(&key)
                    .map_or(Response::Miss, |&v| Response::Value(v))
            }
            14..=16 => {
                requests.push_str(&format!("DEL {key}\n"));
                oracle
                    .remove(&key)
                    .map_or(Response::Miss, Response::Deleted)
            }
            _ => {
                let count = (rng.next() % 65) as usize;
                requests.push_str(&format!("SCAN {key} {count}\n"));
                Response::Range(
                    oracle
                        .range(key..)
                        .take(count)
                        .map(|(&k, &v)| (k, v))
                        .collect(),
                )
            }
        };
        replies.push(format_response(&resp));
    }
    (requests, replies)
}

#[test]
fn every_op_forwarded_matches_the_oracle_in_order() {
    let server = TpcServer::with_options(
        "127.0.0.1:0",
        TpcOptions {
            workers: 2,
            ..TpcOptions::default()
        },
    )
    .expect("start");
    let (requests, replies) = stream(0x5eed_f0e1);
    let conn = TcpStream::connect(server.worker_addrs()[1]).expect("connect worker 1");
    conn.set_nodelay(true).expect("nodelay");
    // The whole stream is written while replies are read: the replies
    // outgrow the socket buffers, so one thread doing both would stall.
    let mut writer = conn.try_clone().expect("clone");
    let sender = std::thread::spawn(move || {
        for chunk in requests.as_bytes().chunks(4096) {
            writer.write_all(chunk).expect("write requests");
        }
    });
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    for (i, want) in replies.iter().enumerate() {
        line.clear();
        reader.read_line(&mut line).expect("read reply");
        assert_eq!(line.trim_end_matches('\n'), want, "reply {i}");
    }
    sender.join().expect("writer");
    drop(reader);
    assert!(server.shutdown().drained);
}
