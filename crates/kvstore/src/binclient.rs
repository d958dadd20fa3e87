//! Clients for the `DYF1` binary frame (`crate::frame`).
//!
//! [`BinClient`] speaks the frame protocol over one connection: ops are
//! batched into frames, so a thousand SETs are one write + one read
//! instead of a thousand round trips. [`RoutedClient`] holds one
//! `BinClient` per server worker and partitions every batch by
//! [`shard_of`](crate::shard_of), so on a thread-per-core server each
//! op lands directly on the worker that owns its key and never pays the
//! cross-shard forwarding hop.
//!
//! Both clients work against any server speaking the frame protocol; the
//! routed client additionally needs the per-worker address list a
//! [`TpcServer`](crate::tpc::TpcServer) exposes.

use crate::frame::{self, FrameHeader};
use std::io::{BufReader, BufWriter, Error, ErrorKind, Result, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

fn protocol_err(msg: String) -> Error {
    Error::new(ErrorKind::InvalidData, msg)
}

/// Turns an `ERR` frame (or unexpected op) into an error for `resp_op`.
fn check_op(header: FrameHeader, words: &[u64], resp_op: u8) -> Result<()> {
    if header.op == resp_op {
        return Ok(());
    }
    if header.op == frame::RESP_ERR {
        let code = words.first().copied().unwrap_or(0);
        return Err(protocol_err(format!(
            "server error {code}: {}",
            frame::err_message(code)
        )));
    }
    Err(protocol_err(format!(
        "expected response op {resp_op:#04x}, got {:#04x}",
        header.op
    )))
}

/// A blocking client for the binary frame protocol.
pub struct BinClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Most key/value pairs per SET frame (payload is 2 words per pair).
const SET_CHUNK: usize = (frame::MAX_FRAME_WORDS as usize) / 2;
/// Most keys per GET/DEL frame and rows per SCAN request: *responses*
/// carry 2 words per key, so a request above `MAX_KEYS_PER_FRAME` would
/// make the server's reply an illegal over-`MAX_FRAME_WORDS` frame.
const KEY_CHUNK: usize = frame::MAX_KEYS_PER_FRAME as usize;
/// Most unanswered GET/DEL frames in flight per connection. Each reply
/// can be ~256 KiB and the server stops *reading* a connection once
/// ~1 MiB of unsent responses queue up (its write-side high water), so a
/// client that writes an unbounded pipeline without draining replies
/// deadlocks against its own responses. Two frames (~512 KiB of replies)
/// keep the pipe full while staying safely under that limit — the same
/// rationale as the text client's 1024-op chunks.
const KEYED_WINDOW: usize = 2;
/// Most unanswered SET frames in flight per connection; acks are 18
/// bytes, so this bounds unread replies to ~18 KiB.
const SET_WINDOW: usize = 1024;

impl BinClient {
    /// Connects and sends the 4-byte session preamble that switches the
    /// server into binary mode.
    ///
    /// # Errors
    ///
    /// Returns any connection or I/O error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<BinClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        writer.write_all(&frame::PREAMBLE)?;
        Ok(BinClient { reader, writer })
    }

    /// Sets read/write timeouts on the underlying socket.
    ///
    /// # Errors
    ///
    /// Returns any socket option error.
    pub fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> Result<()> {
        self.reader.get_ref().set_read_timeout(read)?;
        self.writer.get_ref().set_write_timeout(write)
    }

    fn round_trip(&mut self, op: u8, words: &[u64]) -> Result<(FrameHeader, Vec<u64>)> {
        frame::write_frame(&mut self.writer, op, words)?;
        self.writer.flush()?;
        frame::read_frame(&mut self.reader)
    }

    /// Reads one SET ack and returns how many pairs it reports applied.
    fn read_set_ack(&mut self) -> Result<u64> {
        let (h, w) = frame::read_frame(&mut self.reader)?;
        check_op(h, &w, frame::RESP_SET)?;
        Ok(w.first().copied().unwrap_or(0))
    }

    /// Reads one GET/DEL response frame and appends its `(found, value)`
    /// pairs to `out`.
    fn read_keyed_reply(&mut self, resp_op: u8, out: &mut Vec<Option<u64>>) -> Result<()> {
        let (h, w) = frame::read_frame(&mut self.reader)?;
        check_op(h, &w, resp_op)?;
        if w.len() % 2 != 0 {
            return Err(protocol_err(format!(
                "odd response payload ({} words)",
                w.len()
            )));
        }
        for pair in w.chunks_exact(2) {
            out.push(if pair[0] != 0 { Some(pair[1]) } else { None });
        }
        Ok(())
    }

    /// Asks the server who it is: `(worker_id, workers)`.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn hello(&mut self) -> Result<(u64, u64)> {
        let (h, w) = self.round_trip(frame::OP_HELLO, &[])?;
        check_op(h, &w, frame::RESP_HELLO)?;
        if w.len() != 2 {
            return Err(protocol_err(format!("HELLO_RES carried {} words", w.len())));
        }
        Ok((w[0], w[1]))
    }

    /// Inserts or updates one pair.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn set(&mut self, key: u64, value: u64) -> Result<()> {
        self.set_batch(&[(key, value)]).map(|_| ())
    }

    /// Inserts or updates many pairs; frames carry up to [`SET_CHUNK`]
    /// pairs each, pipelined with at most [`SET_WINDOW`] unanswered
    /// frames in flight. Returns how many pairs the server reports
    /// applied.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn set_batch(&mut self, pairs: &[(u64, u64)]) -> Result<u64> {
        let mut applied = 0u64;
        let mut inflight = 0usize;
        for chunk in pairs.chunks(SET_CHUNK) {
            if inflight == SET_WINDOW {
                self.writer.flush()?;
                applied += self.read_set_ack()?;
                inflight -= 1;
            }
            let mut words = Vec::with_capacity(chunk.len() * 2);
            for &(k, v) in chunk {
                words.push(k);
                words.push(v);
            }
            frame::write_frame(&mut self.writer, frame::OP_SET, &words)?;
            inflight += 1;
        }
        self.writer.flush()?;
        for _ in 0..inflight {
            applied += self.read_set_ack()?;
        }
        Ok(applied)
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>> {
        Ok(self.get_batch(&[key])?.pop().flatten())
    }

    /// Multi-get: one result per key, in order, pipelined across frames.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn get_batch(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>> {
        self.keyed_batch(keys, frame::OP_GET, frame::RESP_GET)
    }

    /// Deletes one key, returning its value if present.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn del(&mut self, key: u64) -> Result<Option<u64>> {
        Ok(self.del_batch(&[key])?.pop().flatten())
    }

    /// Multi-delete: previous value per key, in order.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn del_batch(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>> {
        self.keyed_batch(keys, frame::OP_DEL, frame::RESP_DEL)
    }

    /// Shared shape of GET/DEL: request frames of keys, response frames
    /// of `(found, value)` word pairs, at most [`KEYED_WINDOW`] frames in
    /// flight so the reply volume never deadlocks the connection.
    fn keyed_batch(&mut self, keys: &[u64], op: u8, resp_op: u8) -> Result<Vec<Option<u64>>> {
        let mut out = Vec::with_capacity(keys.len());
        let mut inflight = 0usize;
        for chunk in keys.chunks(KEY_CHUNK) {
            if inflight == KEYED_WINDOW {
                self.writer.flush()?;
                self.read_keyed_reply(resp_op, &mut out)?;
                inflight -= 1;
            }
            frame::write_frame(&mut self.writer, op, chunk)?;
            inflight += 1;
        }
        self.writer.flush()?;
        for _ in 0..inflight {
            self.read_keyed_reply(resp_op, &mut out)?;
        }
        if out.len() != keys.len() {
            return Err(protocol_err(format!(
                "{} results for {} keys",
                out.len(),
                keys.len()
            )));
        }
        Ok(out)
    }

    /// Ordered scan from `start`, up to `count` pairs.
    ///
    /// The wire caps one SCAN at [`frame::MAX_KEYS_PER_FRAME`] rows (its
    /// response carries 2 words per row), so larger counts are served as
    /// a chain of requests, each resuming after the last returned key.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn scan(&mut self, start: u64, count: usize) -> Result<Vec<(u64, u64)>> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut next = start;
        while out.len() < count {
            let ask = (count - out.len()).min(KEY_CHUNK);
            let (h, w) = self.round_trip(frame::OP_SCAN, &[next, ask as u64])?;
            check_op(h, &w, frame::RESP_SCAN)?;
            if w.len() % 2 != 0 {
                return Err(protocol_err(format!(
                    "odd scan payload ({} words)",
                    w.len()
                )));
            }
            let got = w.len() / 2;
            out.extend(w.chunks_exact(2).map(|c| (c[0], c[1])));
            if got < ask {
                break; // key space exhausted
            }
            // invariant: got == ask >= 1, so out is non-empty here.
            match out.last().unwrap().0.checked_add(1) {
                Some(n) => next = n,
                None => break, // last row held u64::MAX
            }
        }
        Ok(out)
    }

    /// Number of stored keys (summed across shards).
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn len(&mut self) -> Result<u64> {
        let (h, w) = self.round_trip(frame::OP_LEN, &[])?;
        check_op(h, &w, frame::RESP_LEN)?;
        w.first()
            .copied()
            .ok_or_else(|| protocol_err("empty LEN_RES".into()))
    }

    /// Returns `true` when the store holds no keys.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Closes the session politely (BYE, then the server closes).
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn quit(mut self) -> Result<()> {
        let (h, w) = self.round_trip(frame::OP_QUIT, &[])?;
        check_op(h, &w, frame::RESP_BYE)
    }
}

/// A shard-routing client for a thread-per-core server: one binary
/// connection per worker, every op sent directly to the worker whose
/// shard owns the key.
///
/// Batches are partitioned by [`shard_of`](crate::shard_of), written
/// to all workers first, then collected — so a mixed batch pipelines
/// across every core in parallel. Results are re-assembled into the
/// caller's key order.
#[cfg(unix)]
pub struct RoutedClient {
    conns: Vec<BinClient>,
}

#[cfg(unix)]
impl RoutedClient {
    /// Connects to every worker address (in worker order, as returned by
    /// `TpcServer::worker_addrs`) and verifies each connection landed on
    /// the worker it will route to.
    ///
    /// # Errors
    ///
    /// Returns connection errors, or `InvalidData` if a worker identifies
    /// differently than its position (address list out of order).
    pub fn connect(worker_addrs: &[std::net::SocketAddr]) -> Result<RoutedClient> {
        if worker_addrs.is_empty() {
            return Err(Error::new(ErrorKind::InvalidInput, "no worker addresses"));
        }
        let mut conns = Vec::with_capacity(worker_addrs.len());
        for (i, addr) in worker_addrs.iter().enumerate() {
            let mut c = BinClient::connect(addr)?;
            let (worker_id, workers) = c.hello()?;
            if worker_id != i as u64 || workers != worker_addrs.len() as u64 {
                return Err(protocol_err(format!(
                    "address {i} answered as worker {worker_id}/{workers}"
                )));
            }
            conns.push(c);
        }
        Ok(RoutedClient { conns })
    }

    /// Number of workers this client routes across.
    pub fn workers(&self) -> usize {
        self.conns.len()
    }

    fn shard(&self, key: u64) -> usize {
        crate::shard_of(key, self.conns.len())
    }

    /// Inserts or updates one pair on the owning worker.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn set(&mut self, key: u64, value: u64) -> Result<()> {
        let s = self.shard(key);
        self.conns[s].set(key, value)
    }

    /// Partitioned bulk set: each worker receives exactly the pairs its
    /// shard owns, all partitions pipeline concurrently (with at most
    /// [`SET_WINDOW`] unanswered frames per connection).
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn set_batch(&mut self, pairs: &[(u64, u64)]) -> Result<u64> {
        let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.conns.len()];
        for &(k, v) in pairs {
            parts[self.shard(k)].push((k, v));
        }
        // Write everything first so every worker crunches in parallel,
        // draining acks whenever a connection's window fills …
        let mut applied = 0u64;
        let mut inflight: Vec<usize> = vec![0; self.conns.len()];
        for (w, part) in parts.iter().enumerate() {
            let conn = &mut self.conns[w];
            for chunk in part.chunks(SET_CHUNK) {
                if inflight[w] == SET_WINDOW {
                    conn.writer.flush()?;
                    applied += conn.read_set_ack()?;
                    inflight[w] -= 1;
                }
                let mut words = Vec::with_capacity(chunk.len() * 2);
                for &(k, v) in chunk {
                    words.push(k);
                    words.push(v);
                }
                frame::write_frame(&mut conn.writer, frame::OP_SET, &words)?;
                inflight[w] += 1;
            }
            conn.writer.flush()?;
        }
        // … then collect the remaining acks.
        for (w, n) in inflight.into_iter().enumerate() {
            for _ in 0..n {
                applied += self.conns[w].read_set_ack()?;
            }
        }
        Ok(applied)
    }

    /// Point lookup on the owning worker.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>> {
        let s = self.shard(key);
        self.conns[s].get(key)
    }

    /// Partitioned multi-get; results come back in the caller's key order.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn get_batch(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>> {
        let workers = self.conns.len();
        let mut part_keys: Vec<Vec<u64>> = vec![Vec::new(); workers];
        let mut part_idx: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (i, &k) in keys.iter().enumerate() {
            let s = self.shard(k);
            part_keys[s].push(k);
            part_idx[s].push(i);
        }
        // At most KEYED_WINDOW unanswered frames per connection: replies
        // are 16 bytes per key, and an unbounded pipeline would deadlock
        // against the server's write-side high water (see BinClient).
        let mut got: Vec<Vec<Option<u64>>> = part_keys
            .iter()
            .map(|p| Vec::with_capacity(p.len()))
            .collect();
        let mut inflight: Vec<usize> = vec![0; workers];
        for (w, part) in part_keys.iter().enumerate() {
            let conn = &mut self.conns[w];
            for chunk in part.chunks(KEY_CHUNK) {
                if inflight[w] == KEYED_WINDOW {
                    conn.writer.flush()?;
                    conn.read_keyed_reply(frame::RESP_GET, &mut got[w])?;
                    inflight[w] -= 1;
                }
                frame::write_frame(&mut conn.writer, frame::OP_GET, chunk)?;
                inflight[w] += 1;
            }
            conn.writer.flush()?;
        }
        for (w, n) in inflight.into_iter().enumerate() {
            for _ in 0..n {
                self.conns[w].read_keyed_reply(frame::RESP_GET, &mut got[w])?;
            }
        }
        let mut out: Vec<Option<u64>> = vec![None; keys.len()];
        for w in 0..workers {
            if got[w].len() != part_keys[w].len() {
                return Err(protocol_err(format!(
                    "worker {w}: {} results for {} keys",
                    got[w].len(),
                    part_keys[w].len()
                )));
            }
            for (slot, v) in part_idx[w].iter().zip(got[w].drain(..)) {
                out[*slot] = v;
            }
        }
        Ok(out)
    }

    /// Deletes one key on the owning worker.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn del(&mut self, key: u64) -> Result<Option<u64>> {
        let s = self.shard(key);
        self.conns[s].del(key)
    }

    /// Ordered scan. Sent to the worker owning `start`; the server itself
    /// chains the scan across later shards (contiguous key ranges), so no
    /// client-side stitching is needed.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn scan(&mut self, start: u64, count: usize) -> Result<Vec<(u64, u64)>> {
        let s = self.shard(start);
        self.conns[s].scan(start, count)
    }

    /// Total stored keys across all shards.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn len(&mut self) -> Result<u64> {
        // Each worker's LEN already broadcasts across shards; asking one
        // worker suffices.
        self.conns[0].len()
    }

    /// Whether the store holds no keys.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Closes every connection politely.
    ///
    /// # Errors
    ///
    /// Returns the first I/O or protocol error, after attempting all.
    pub fn quit(self) -> Result<()> {
        let mut first_err = None;
        for c in self.conns {
            if let Err(e) = c.quit() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}
