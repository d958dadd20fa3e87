//! A Memcached-style in-memory KV service on concurrent DyTIS (§3.4).
//!
//! The paper positions DyTIS as the index for "in-memory data management
//! systems, such as in-memory databases and key-value stores" and supports
//! concurrency "so that it can be used for a multi-threaded system such as
//! Memcached". This crate is that system in miniature: a line-protocol TCP
//! server whose store is a [`ConcurrentDyTis`], one thread per connection,
//! plus a blocking client.
//!
//! # Robustness (DESIGN.md §11)
//!
//! The server enforces a resource envelope rather than trusting clients:
//!
//! - **Admission control** — at most [`ServerOptions::max_connections`]
//!   handler threads exist at once. A connection past the budget is
//!   answered `ERR busy` at accept time and closed; it never gets a
//!   thread.
//! - **Bounded lines** — a request line longer than
//!   [`ServerOptions::max_line_bytes`] gets `ERR line too long` and the
//!   connection resynchronises at the next newline. A newline-free byte
//!   stream of any length holds server memory at O(buffer), not O(stream).
//! - **Timeouts** — per-connection read/write timeouts reap idle or stuck
//!   peers (`ERR idle timeout`, then close).
//! - **Graceful drain** — [`Server::shutdown`] stops accepting, closes
//!   every live socket, and joins handler threads under
//!   [`ServerOptions::drain_deadline`], reporting the result as a
//!   [`DrainReport`].
//!
//! # Examples
//!
//! ```
//! use kvstore::{Client, Server};
//!
//! let server = Server::start("127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! client.set(1, 100).unwrap();
//! assert_eq!(client.get(1).unwrap(), Some(100));
//! assert_eq!(client.scan(0, 10).unwrap(), vec![(1, 100)]);
//! let report = server.shutdown();
//! assert!(report.drained);
//! ```

pub mod binclient;
pub mod frame;
pub mod protocol;
#[cfg(unix)]
pub mod reactor;
pub mod shard;
pub mod sync;
#[cfg(unix)]
pub mod tpc;

pub use binclient::{BinClient, RoutedClient};
pub use protocol::{
    format_request, format_response, parse_request, parse_response, Request, Response,
};
pub use shard::{shard_of, DurabilityOptions};
#[cfg(unix)]
pub use tpc::{TpcOptions, TpcServer};

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex};
use dytis::ConcurrentDyTis;
use index_traits::{ConcurrentKvIndex, Key, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Result, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Executes one request against the store.
///
/// With the `metrics` feature on, each call records its latency into the
/// `kv.request_ns` histogram and bumps a per-command counter; by default
/// both compile to no-ops (see `crates/obs`).
///
/// A `SCAN` whose count exceeds [`protocol::MAX_SCAN_COUNT`] yields
/// `ERR count exceeds max`, never a silently truncated `RANGE`: a short
/// range always means the index ran out of keys.
pub fn apply(store: &ConcurrentDyTis, req: &Request) -> Response {
    let _t = obs::Timer::start(obs::histogram!("kv.request_ns"));
    obs::counter!("kv.request").inc();
    match *req {
        Request::Set(k, v) => {
            store.insert(k, v);
            Response::Ok
        }
        Request::Get(k) => match store.get(k) {
            Some(v) => Response::Value(v),
            None => Response::Miss,
        },
        Request::Del(k) => match store.remove(k) {
            Some(v) => Response::Deleted(v),
            None => Response::Miss,
        },
        Request::Scan(start, count) => {
            if count > protocol::MAX_SCAN_COUNT {
                Response::Err(format!("count exceeds max {}", protocol::MAX_SCAN_COUNT))
            } else {
                let mut out = Vec::with_capacity(count.min(1024));
                store.scan(start, count, &mut out);
                Response::Range(out)
            }
        }
        Request::Len => Response::Len(store.len()),
        Request::Quit => Response::Bye,
    }
}

/// Resource envelope for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Most concurrently admitted connections; the next one is answered
    /// `ERR busy` at accept time and closed without spawning a thread.
    pub max_connections: usize,
    /// How long a handler blocks waiting for the next request before the
    /// connection is reaped with `ERR idle timeout`. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// How long a response write may block before the connection is
    /// dropped. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Longest accepted request line in bytes (newline excluded); longer
    /// lines get `ERR line too long` and a resync to the next newline.
    pub max_line_bytes: usize,
    /// How long [`Server::shutdown`] waits for handler threads to exit
    /// after their sockets are force-closed.
    pub drain_deadline: Duration,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_connections: 1024,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_line_bytes: protocol::MAX_LINE_BYTES,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// Outcome of a graceful [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// All handler threads exited within the drain deadline.
    pub drained: bool,
    /// Handler threads still running when the deadline expired. Their
    /// sockets were force-closed, so they exit as soon as they next touch
    /// the connection, but `shutdown` stopped waiting for them.
    pub abandoned: usize,
}

/// State shared between the accept loop, handler threads, and `shutdown`.
struct Shared {
    stop: AtomicBool,
    /// Connection registry: id -> socket clone, used for admission
    /// accounting and for force-closing live sockets at drain time.
    conns: Mutex<HashMap<u64, TcpStream>>,
    live: AtomicUsize,
    /// `JoinHandle`s currently retained by the accept loop. The loop reaps
    /// finished handles before every accept, so this tracks live handlers,
    /// not connections-ever-served — the churn regression test asserts it
    /// stays bounded.
    tracked_handles: AtomicUsize,
    opts: ServerOptions,
}

fn lock_conns(shared: &Shared) -> crate::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
    // The facade mutex is non-poisoning (parking_lot semantics): a handler
    // that panics while holding the registry cannot wedge it, so the accept
    // loop keeps serving — the map itself stays coherent because every
    // mutation is a single insert/remove.
    shared.conns.lock()
}

/// A running KV server.
pub struct Server {
    addr: SocketAddr,
    store: Arc<ConcurrentDyTis>,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts accepting
    /// connections with [`ServerOptions::default`].
    ///
    /// # Errors
    ///
    /// Returns any bind error.
    pub fn start<A: ToSocketAddrs>(addr: A) -> Result<Server> {
        Self::with_store(addr, Arc::new(ConcurrentDyTis::new()))
    }

    /// Starts a server over an existing store (lets tests and embedders
    /// share the index with in-process readers).
    ///
    /// # Errors
    ///
    /// Returns any bind error.
    pub fn with_store<A: ToSocketAddrs>(addr: A, store: Arc<ConcurrentDyTis>) -> Result<Server> {
        Self::with_options(addr, store, ServerOptions::default())
    }

    /// Starts a server with an explicit resource envelope.
    ///
    /// # Errors
    ///
    /// Returns any bind error.
    pub fn with_options<A: ToSocketAddrs>(
        addr: A,
        store: Arc<ConcurrentDyTis>,
        opts: ServerOptions,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            live: AtomicUsize::new(0),
            tracked_handles: AtomicUsize::new(0),
            opts,
        });
        let accept_store = Arc::clone(&store);
        let accept_shared = Arc::clone(&shared);
        let accept_thread =
            std::thread::spawn(move || accept_loop(&listener, &accept_store, &accept_shared));
        Ok(Server {
            addr,
            store,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared store (for in-process inspection).
    pub fn store(&self) -> &Arc<ConcurrentDyTis> {
        &self.store
    }

    /// Number of handler `JoinHandle`s the accept loop currently retains.
    ///
    /// Finished handles are reaped before every accept, so after churn
    /// (many short-lived connections) this stays proportional to *live*
    /// handlers, never to connections-ever-served.
    pub fn tracked_handles(&self) -> usize {
        // relaxed: observability read of a standalone gauge, same contract
        // as `live_connections`.
        self.shared.tracked_handles.load(Ordering::Relaxed)
    }

    /// Number of currently admitted connections.
    pub fn live_connections(&self) -> usize {
        // relaxed: observability read of a standalone gauge; callers that
        // need a happens-before edge (tests) synchronise via the socket
        // itself (a completed round trip or an observed EOF).
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Stops accepting connections, force-closes every live socket, and
    /// joins handler threads under [`ServerOptions::drain_deadline`].
    ///
    /// Returns whether the drain completed and how many handlers were
    /// abandoned to exit on their own (their sockets are already closed).
    pub fn shutdown(mut self) -> DrainReport {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> DrainReport {
        // relaxed: standalone stop flag; the wake-up connection below makes
        // the accept loop re-check it, and one stale accept is harmless.
        self.shared.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        let mut handlers = match self.accept_thread.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => Vec::new(),
        };
        // Force every registered socket closed so handlers blocked in
        // read() observe EOF/reset now instead of at their read timeout.
        for conn in lock_conns(&self.shared).values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let deadline = Instant::now() + self.shared.opts.drain_deadline;
        loop {
            let mut i = 0;
            while i < handlers.len() {
                if handlers[i].is_finished() {
                    let _ = handlers.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            if handlers.is_empty() || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let abandoned = handlers.len();
        if abandoned > 0 {
            obs::counter!("kv.drain_abandoned").add(abandoned as u64);
        }
        DrainReport {
            drained: abandoned == 0,
            abandoned,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            let _ = self.stop_inner();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    store: &Arc<ConcurrentDyTis>,
    shared: &Arc<Shared>,
) -> Vec<JoinHandle<()>> {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 0;
    for conn in listener.incoming() {
        // relaxed: standalone stop flag; the dummy wake-up connection in
        // stop_inner() forces a fresh iteration, so no ordering with other
        // memory is needed.
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        // Reap finished handlers so the handle vector tracks live
        // connections, not connections-ever-served.
        let mut i = 0;
        while i < handlers.len() {
            if handlers[i].is_finished() {
                let _ = handlers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        // relaxed: observability gauge; see `Server::tracked_handles`.
        shared
            .tracked_handles
            .store(handlers.len(), Ordering::Relaxed);
        obs::gauge!("kv.tracked_handles").set(handlers.len() as i64);
        let mut stream = match conn {
            Ok(s) => s,
            Err(_) => break,
        };
        // Request/response ping-pong: Nagle's algorithm would add ~40 ms
        // per round trip.
        let _ = stream.set_nodelay(true);
        // Admission: register under the lock so the budget check and the
        // insert are atomic against concurrent deregistration.
        let admitted = {
            let mut conns = lock_conns(shared);
            if conns.len() >= shared.opts.max_connections {
                None
            } else {
                match stream.try_clone() {
                    Ok(clone) => {
                        let id = next_id;
                        next_id += 1;
                        conns.insert(id, clone);
                        Some(id)
                    }
                    Err(_) => None,
                }
            }
        };
        let Some(id) = admitted else {
            // Over budget (or unclonable socket): one answer, no thread.
            obs::counter!("kv.rejected").inc();
            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
            let _ = stream.write_all(b"ERR busy\n");
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        };
        // relaxed: gauge increment; readers of `live` synchronise through
        // the socket, not through this counter.
        shared.live.fetch_add(1, Ordering::Relaxed);
        obs::gauge!("kv.live_connections").inc();
        let store = Arc::clone(store);
        let handler_shared = Arc::clone(shared);
        handlers.push(std::thread::spawn(move || {
            let _ = handle_connection(stream, &store, &handler_shared);
            lock_conns(&handler_shared).remove(&id);
            // relaxed: gauge decrement, see the increment above.
            handler_shared.live.fetch_sub(1, Ordering::Relaxed);
            obs::gauge!("kv.live_connections").dec();
        }));
        // relaxed: observability gauge; see `Server::tracked_handles`.
        shared
            .tracked_handles
            .store(handlers.len(), Ordering::Relaxed);
    }
    handlers
}

/// Outcome of one capped line read.
enum LineRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// The line exceeded the cap; the buffer was discarded and input up to
    /// the next newline must be skipped.
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line into `buf` without ever holding more
/// than `cap` bytes of it, regardless of how long the wire line is.
///
/// On [`LineRead::TooLong`] the offending line's bytes seen so far are
/// dropped and any newline is left unconsumed for [`skip_to_newline`].
fn read_line_capped<R: BufRead>(r: &mut R, buf: &mut Vec<u8>, cap: usize) -> Result<LineRead> {
    loop {
        let available = match r.fill_buf() {
            Ok(a) => a,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // EOF: a trailing unterminated line still gets served.
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if buf.len() + i > cap {
                    buf.clear();
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(&available[..i]);
                r.consume(i + 1);
                return Ok(LineRead::Line);
            }
            None => {
                let n = available.len();
                if buf.len() + n > cap {
                    buf.clear();
                    r.consume(n);
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(available);
                r.consume(n);
            }
        }
    }
}

/// Discards input through the next newline. Returns `false` on EOF.
fn skip_to_newline<R: BufRead>(r: &mut R) -> Result<bool> {
    loop {
        let (n, found) = {
            let available = match r.fill_buf() {
                Ok(a) => a,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                return Ok(false);
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (available.len(), false),
            }
        };
        r.consume(n);
        if found {
            return Ok(true);
        }
    }
}

/// A socket read timeout surfaces as `WouldBlock` (unix) or `TimedOut`
/// (windows); both mean "the peer went quiet", not "the stream broke".
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn handle_connection(stream: TcpStream, store: &ConcurrentDyTis, shared: &Shared) -> Result<()> {
    stream.set_read_timeout(shared.opts.read_timeout)?;
    stream.set_write_timeout(shared.opts.write_timeout)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Read raw bytes rather than `lines()`: a line that is not valid UTF-8
    // must be answered with `ERR`, not surfaced as an io::Error that drops
    // the whole connection.
    let mut buf = Vec::with_capacity(shared.opts.max_line_bytes.min(4096));
    loop {
        // relaxed: standalone stop flag; drain additionally force-closes
        // this socket, so a handler blocked in read() never depends on
        // seeing the flag.
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        buf.clear();
        match read_line_capped(&mut reader, &mut buf, shared.opts.max_line_bytes) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                obs::counter!("kv.oversized").inc();
                writeln!(
                    writer,
                    "ERR line too long (max {} bytes)",
                    shared.opts.max_line_bytes
                )?;
                match skip_to_newline(&mut reader) {
                    Ok(true) => continue,
                    Ok(false) => break,
                    Err(e) if is_timeout(&e) => {
                        obs::counter!("kv.timeouts").inc();
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(LineRead::Line) => {}
            Err(e) if is_timeout(&e) => {
                obs::counter!("kv.timeouts").inc();
                // Best effort: the peer may already be gone.
                let _ = writer.write_all(b"ERR idle timeout\n");
                break;
            }
            Err(e) => return Err(e),
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim_matches(|c: char| c == '\r' || c == '\n');
        if line.trim().is_empty() {
            continue;
        }
        let resp = match parse_request(line) {
            Ok(req) => {
                let resp = apply(store, &req);
                let quit = resp == Response::Bye;
                writeln!(writer, "{}", format_response(&resp))?;
                if quit {
                    break;
                }
                continue;
            }
            Err(e) => Response::Err(e),
        };
        obs::counter!("kv.malformed").inc();
        writeln!(writer, "{}", format_response(&resp))?;
    }
    Ok(())
}

/// Backoff schedule for [`Client::connect_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total connect attempts (at least one is always made).
    pub attempts: u32,
    /// Sleep before the second attempt; doubles each retry.
    pub initial_backoff: Duration,
    /// Ceiling on the per-retry sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(320),
        }
    }
}

/// A connect error worth retrying: the server may be starting up, shedding
/// load, or mid-restart. Anything else (e.g. unreachable network,
/// permission denied) fails fast.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionRefused
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::TimedOut
            | ErrorKind::WouldBlock
            | ErrorKind::Interrupted
    )
}

/// Per-op failures of a pipelined batch call.
///
/// Batch methods send a chunk of requests, then consume **exactly one
/// reply per request** — even when a reply is an `ERR` — so the stream
/// never desynchronises. Failures are collected here instead of aborting
/// the read loop mid-pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// `(index into the submitted slice, server error message)` for every
    /// op whose reply was not the expected success shape.
    pub failures: Vec<(usize, String)>,
}

impl BatchReport {
    /// Every op in the batch succeeded.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Collapses the report into an `InvalidData` error naming the failed
    /// ops (used by the `Result<()>`-shaped batch methods).
    fn into_error(self) -> std::io::Error {
        let shown: Vec<String> = self
            .failures
            .iter()
            .take(4)
            .map(|(i, e)| format!("op {i}: {e}"))
            .collect();
        let suffix = if self.failures.len() > shown.len() {
            format!(" (+{} more)", self.failures.len() - shown.len())
        } else {
            String::new()
        };
        std::io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "{} batch op(s) failed: {}{}",
                self.failures.len(),
                shown.join("; "),
                suffix
            ),
        )
    }
}

/// A blocking client for the KV service.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns any connection error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connects with exponential backoff across transient failures
    /// (connection refused/reset/aborted, timeouts) — the shapes a client
    /// sees while the server restarts or sheds load.
    ///
    /// # Errors
    ///
    /// Returns the last transient error once `policy.attempts` is
    /// exhausted, or the first non-transient error immediately.
    pub fn connect_with_retry<A: ToSocketAddrs>(addr: A, policy: &RetryPolicy) -> Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no address"))?;
        let mut backoff = policy.initial_backoff;
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(policy.max_backoff);
            }
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if is_transient(&e) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("no connect attempt ran")))
    }

    /// Sets read/write timeouts on the underlying socket so a hung server
    /// cannot block the client forever.
    ///
    /// # Errors
    ///
    /// Returns any socket option error.
    pub fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> Result<()> {
        self.reader.get_ref().set_read_timeout(read)?;
        self.writer.set_write_timeout(write)
    }

    fn send_line(&mut self, req: &str) -> Result<()> {
        writeln!(self.writer, "{req}")
    }

    fn read_response(&mut self) -> Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        parse_response(line.trim_end()).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
    }

    fn round_trip(&mut self, req: &str) -> Result<Response> {
        self.send_line(req)?;
        self.read_response()
    }

    /// Inserts or updates a pair.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn set(&mut self, key: Key, value: Value) -> Result<()> {
        match self.round_trip(&format_request(&Request::Set(key, value)))? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Inserts or updates many pairs with pipelining: requests are written
    /// in bulk and the acknowledgements read afterwards, so `n` pairs cost
    /// O(n / chunk) round trips instead of `n`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, or `InvalidData` naming the failed ops if any
    /// reply was not `OK`. Either way every pipelined reply has been
    /// consumed, so the connection stays usable and in lockstep — use
    /// [`Client::set_batch_report`] to keep going after partial failures.
    pub fn set_batch(&mut self, pairs: &[(Key, Value)]) -> Result<()> {
        let report = self.set_batch_report(pairs)?;
        if report.all_ok() {
            Ok(())
        } else {
            Err(report.into_error())
        }
    }

    /// [`Client::set_batch`] that reports per-op failures instead of
    /// failing the whole call: the returned [`BatchReport`] lists the index
    /// and server message of every op not answered `OK`.
    ///
    /// Exactly one reply is consumed per op sent — a mid-pipeline `ERR`
    /// (oversized line, malformed request) therefore cannot shift later
    /// replies onto the wrong ops, this call or the next.
    ///
    /// # Errors
    ///
    /// Returns I/O errors only (broken stream); protocol-level failures go
    /// in the report.
    pub fn set_batch_report(&mut self, pairs: &[(Key, Value)]) -> Result<BatchReport> {
        let mut report = BatchReport::default();
        // Chunk so unread responses can never outgrow the kernel socket
        // buffer and deadlock the write side ("OK\n" is 3 bytes, so 1024
        // in flight is ~3 KiB of responses).
        for (chunk_idx, chunk) in pairs.chunks(1024).enumerate() {
            let mut lines = String::with_capacity(chunk.len() * 24);
            for &(k, v) in chunk {
                lines.push_str(&format_request(&Request::Set(k, v)));
                lines.push('\n');
            }
            self.writer.write_all(lines.as_bytes())?;
            let base = chunk_idx * 1024;
            for i in 0..chunk.len() {
                match self.read_response()? {
                    Response::Ok => {}
                    Response::Err(e) => report.failures.push((base + i, e)),
                    other => report
                        .failures
                        .push((base + i, format!("unexpected reply {other:?}"))),
                }
            }
        }
        Ok(report)
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn get(&mut self, key: Key) -> Result<Option<Value>> {
        match self.round_trip(&format_request(&Request::Get(key)))? {
            Response::Value(v) => Ok(Some(v)),
            Response::Miss => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Pipelined multi-get: one result per key, in order.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, or `InvalidData` naming the failed ops if any
    /// reply was not `VALUE`/`MISS`. All pipelined replies are consumed
    /// either way; use [`Client::get_batch_report`] for partial results.
    pub fn get_batch(&mut self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        let (out, report) = self.get_batch_report(keys)?;
        if report.all_ok() {
            Ok(out)
        } else {
            Err(report.into_error())
        }
    }

    /// [`Client::get_batch`] that reports per-op failures instead of
    /// failing the whole call: failed keys come back `None` in the result
    /// vector and are listed (index + server message) in the report.
    ///
    /// Exactly one reply is consumed per key sent, so a mid-pipeline `ERR`
    /// cannot misalign later replies (see [`Client::set_batch_report`]).
    ///
    /// # Errors
    ///
    /// Returns I/O errors only (broken stream).
    pub fn get_batch_report(&mut self, keys: &[Key]) -> Result<(Vec<Option<Value>>, BatchReport)> {
        let mut out = Vec::with_capacity(keys.len());
        let mut report = BatchReport::default();
        // Chunked for the same socket-buffer reason as [`Self::set_batch`];
        // VALUE lines are ~27 bytes, so 1024 in flight is ~27 KiB.
        for (chunk_idx, chunk) in keys.chunks(1024).enumerate() {
            let mut lines = String::with_capacity(chunk.len() * 24);
            for &k in chunk {
                lines.push_str(&format_request(&Request::Get(k)));
                lines.push('\n');
            }
            self.writer.write_all(lines.as_bytes())?;
            let base = chunk_idx * 1024;
            for i in 0..chunk.len() {
                match self.read_response()? {
                    Response::Value(v) => out.push(Some(v)),
                    Response::Miss => out.push(None),
                    Response::Err(e) => {
                        out.push(None);
                        report.failures.push((base + i, e));
                    }
                    other => {
                        out.push(None);
                        report
                            .failures
                            .push((base + i, format!("unexpected reply {other:?}")));
                    }
                }
            }
        }
        Ok((out, report))
    }

    /// Deletes a key, returning its value if present.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn del(&mut self, key: Key) -> Result<Option<Value>> {
        match self.round_trip(&format_request(&Request::Del(key)))? {
            Response::Deleted(v) => Ok(Some(v)),
            Response::Miss => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Ordered scan from `start`, up to `count` pairs.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn scan(&mut self, start: Key, count: usize) -> Result<Vec<(Key, Value)>> {
        match self.round_trip(&format_request(&Request::Scan(start, count)))? {
            Response::Range(pairs) => Ok(pairs),
            other => Err(unexpected(other)),
        }
    }

    /// Number of stored keys.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn len(&mut self) -> Result<usize> {
        match self.round_trip(&format_request(&Request::Len))? {
            Response::Len(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    /// Returns `true` when the store holds no keys.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Closes the session politely.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn quit(mut self) -> Result<()> {
        match self.round_trip(&format_request(&Request::Quit))? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected response: {resp:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_covers_all_requests() {
        let store = ConcurrentDyTis::new();
        assert_eq!(apply(&store, &Request::Set(1, 10)), Response::Ok);
        assert_eq!(apply(&store, &Request::Get(1)), Response::Value(10));
        assert_eq!(apply(&store, &Request::Get(2)), Response::Miss);
        assert_eq!(apply(&store, &Request::Len), Response::Len(1));
        assert_eq!(
            apply(&store, &Request::Scan(0, 10)),
            Response::Range(vec![(1, 10)])
        );
        assert_eq!(apply(&store, &Request::Del(1)), Response::Deleted(10));
        assert_eq!(apply(&store, &Request::Del(1)), Response::Miss);
        assert_eq!(apply(&store, &Request::Quit), Response::Bye);
    }

    #[test]
    fn apply_rejects_oversized_scan() {
        let store = ConcurrentDyTis::new();
        store.insert(1, 1);
        // `Request` can hold an over-limit count (e.g. built in process,
        // bypassing the parser); apply() must still refuse it.
        let resp = apply(&store, &Request::Scan(0, protocol::MAX_SCAN_COUNT + 1));
        assert!(
            matches!(&resp, Response::Err(e) if e.contains("count exceeds max")),
            "got {resp:?}"
        );
        // At the limit it works.
        assert_eq!(
            apply(&store, &Request::Scan(0, protocol::MAX_SCAN_COUNT)),
            Response::Range(vec![(1, 1)])
        );
    }

    #[test]
    fn server_round_trip() {
        let server = Server::start("127.0.0.1:0").expect("bind");
        let mut c = Client::connect(server.addr()).expect("connect");
        c.set(10, 100).expect("set");
        c.set(20, 200).expect("set");
        assert_eq!(c.get(10).expect("get"), Some(100));
        assert_eq!(c.get(30).expect("get"), None);
        assert_eq!(c.len().expect("len"), 2);
        assert_eq!(c.scan(0, 10).expect("scan"), vec![(10, 100), (20, 200)]);
        assert_eq!(c.del(10).expect("del"), Some(100));
        assert_eq!(c.get(10).expect("get"), None);
        c.quit().expect("quit");
        let report = server.shutdown();
        assert!(report.drained, "round-trip server failed to drain");
    }

    /// Server-side SCAN over a real TCP connection must be served by the
    /// optimistic read path, not a locked cursor: the store's `locked`
    /// read counter stays flat across client scans and gets against a
    /// quiescent server.  Non-vacuity: flipping the server store into
    /// forced-locked mode makes the same client traffic move the counter.
    #[test]
    fn net_scan_uses_optimistic_reads() {
        let server = Server::start("127.0.0.1:0").expect("bind");
        let mut c = Client::connect(server.addr()).expect("connect");
        let pairs: Vec<(Key, Value)> = (0..256u64).map(|i| (i * 3 + 1, i)).collect();
        c.set_batch(&pairs).expect("seed");

        let before = server.store().read_stats();
        for start in (0..768u64).step_by(17) {
            let got = c.scan(start, 32).expect("scan");
            let want: Vec<(Key, Value)> = pairs
                .iter()
                .copied()
                .filter(|&(k, _)| k >= start)
                .take(32)
                .collect();
            assert_eq!(got, want, "net scan from {start} diverged");
        }
        assert_eq!(c.get(4).expect("get"), Some(1));
        let after = server.store().read_stats();
        assert_eq!(
            after.locked, before.locked,
            "server-side SCAN took the locked path on a quiescent store"
        );

        server.store().set_locked_reads(true);
        c.scan(0, 32).expect("forced scan");
        assert_eq!(c.get(4).expect("forced get"), Some(1));
        assert!(
            server.store().read_stats().locked > after.locked,
            "locked counter never moved under forced-locked mode"
        );
        server.store().set_locked_reads(false);

        c.quit().expect("quit");
        let report = server.shutdown();
        assert!(report.drained);
    }

    #[test]
    fn multiple_clients_share_the_store() {
        let server = Server::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    for i in 0..200u64 {
                        c.set(t * 1_000 + i, i).expect("set");
                    }
                    c.quit().expect("quit");
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        let mut c = Client::connect(addr).expect("connect");
        assert_eq!(c.len().expect("len"), 800);
        for t in 0..4u64 {
            assert_eq!(c.get(t * 1_000 + 123).expect("get"), Some(123));
        }
        // Scans across client writes stay sorted.
        let scan = c.scan(0, 800).expect("scan");
        assert_eq!(scan.len(), 800);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
        server.shutdown();
    }

    #[test]
    fn malformed_lines_keep_connection_alive() {
        let server = Server::start("127.0.0.1:0").expect("bind");
        let mut c = Client::connect(server.addr()).expect("connect");
        // Speak raw protocol to trigger an error path.
        let resp = c.round_trip("SET nope").expect("round trip");
        assert!(matches!(resp, Response::Err(_)));
        // The connection still works.
        c.set(1, 1).expect("set");
        assert_eq!(c.get(1).expect("get"), Some(1));
        server.shutdown();
    }

    #[test]
    fn batched_ops_round_trip() {
        let server = Server::start("127.0.0.1:0").expect("bind");
        let mut c = Client::connect(server.addr()).expect("connect");
        let pairs: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k, k * 2)).collect();
        c.set_batch(&pairs).expect("set_batch");
        assert_eq!(c.len().expect("len"), pairs.len());
        let keys: Vec<u64> = (0..3_001u64).collect();
        let got = c.get_batch(&keys).expect("get_batch");
        assert_eq!(got.len(), keys.len());
        for (k, v) in keys.iter().zip(&got) {
            if *k < 3_000 {
                assert_eq!(*v, Some(k * 2));
            } else {
                assert_eq!(*v, None);
            }
        }
        // The connection is still in lockstep after batches.
        assert_eq!(c.get(1).expect("get"), Some(2));
        c.quit().expect("quit");
        server.shutdown();
    }

    #[test]
    fn connect_with_retry_reaches_a_live_server() {
        let server = Server::start("127.0.0.1:0").expect("bind");
        let mut c = Client::connect_with_retry(server.addr(), &RetryPolicy::default())
            .expect("retry connect");
        c.set(1, 1).expect("set");
        c.quit().expect("quit");
        server.shutdown();
    }

    #[test]
    fn connect_with_retry_gives_up_on_dead_address() {
        // Bind-then-drop guarantees a port with no listener.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let policy = RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        };
        let err = Client::connect_with_retry(addr, &policy);
        assert!(err.is_err(), "connect to a dropped listener succeeded");
    }

    #[test]
    fn in_process_store_access() {
        let store = Arc::new(ConcurrentDyTis::new());
        let server = Server::with_store("127.0.0.1:0", Arc::clone(&store)).expect("bind");
        let mut c = Client::connect(server.addr()).expect("connect");
        c.set(5, 55).expect("set");
        assert_eq!(store.get(5), Some(55));
        store.insert(6, 66);
        assert_eq!(c.get(6).expect("get"), Some(66));
        server.shutdown();
    }

    #[test]
    fn read_line_capped_handles_boundaries() {
        use std::io::Cursor;
        let mut buf = Vec::new();
        // Exactly at the cap: accepted.
        let mut r = Cursor::new(b"abcd\n".to_vec());
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, 4).expect("read"),
            LineRead::Line
        ));
        assert_eq!(buf, b"abcd");
        // One past the cap: rejected, newline left for the resync.
        buf.clear();
        let mut r = Cursor::new(b"abcde\nGET 1\n".to_vec());
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, 4).expect("read"),
            LineRead::TooLong
        ));
        assert!(buf.is_empty(), "oversized bytes must be dropped");
        assert!(skip_to_newline(&mut r).expect("skip"));
        buf.clear();
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, 64).expect("read"),
            LineRead::Line
        ));
        assert_eq!(buf, b"GET 1");
        // Unterminated trailing line is still served.
        buf.clear();
        let mut r = Cursor::new(b"LEN".to_vec());
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, 64).expect("read"),
            LineRead::Line
        ));
        assert_eq!(buf, b"LEN");
        assert!(matches!(
            read_line_capped(&mut r, &mut Vec::new(), 64).expect("read"),
            LineRead::Eof
        ));
    }

    /// The cap must hold under adversarial buffering: a 1-byte `BufRead`
    /// feeds the line one byte per `fill_buf`, so every incremental
    /// accumulation path in `read_line_capped` is exercised. A line of
    /// exactly `cap` bytes (newline excluded) is accepted; `cap + 1` is
    /// rejected with the buffer dropped.
    #[test]
    fn read_line_capped_boundary_under_trickled_reads() {
        use std::io::Cursor;
        let cap = 16usize;
        // Exactly at the cap, one byte at a time: accepted, byte-exact.
        let line: Vec<u8> = (0..cap).map(|i| b'a' + (i % 26) as u8).collect();
        let mut wire = line.clone();
        wire.push(b'\n');
        let mut r = BufReader::with_capacity(1, Cursor::new(wire));
        let mut buf = Vec::new();
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, cap).expect("read"),
            LineRead::Line
        ));
        assert_eq!(buf, line, "cap-length line must survive trickled reads");

        // One past the cap, one byte at a time: rejected, buffer dropped,
        // and the stream resyncs to serve the next line.
        let mut wire: Vec<u8> = (0..cap + 1).map(|_| b'x').collect();
        wire.extend_from_slice(b"\nLEN\n");
        let mut r = BufReader::with_capacity(1, Cursor::new(wire));
        let mut buf = Vec::new();
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, cap).expect("read"),
            LineRead::TooLong
        ));
        assert!(buf.is_empty(), "rejected bytes must not linger");
        assert!(skip_to_newline(&mut r).expect("skip"));
        buf.clear();
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, cap).expect("read"),
            LineRead::Line
        ));
        assert_eq!(buf, b"LEN");
    }

    /// End-to-end cap boundary over a real socket: a request line of
    /// exactly `max_line_bytes` is served, one byte more gets
    /// `ERR line too long` and the connection resyncs.
    #[test]
    fn line_cap_boundary_over_the_wire() {
        let cap = 64usize;
        let opts = ServerOptions {
            max_line_bytes: cap,
            ..ServerOptions::default()
        };
        let server = Server::with_options("127.0.0.1:0", Arc::new(ConcurrentDyTis::new()), opts)
            .expect("bind");
        let mut c = Client::connect(server.addr()).expect("connect");
        // "GET 7" padded with trailing spaces to exactly `cap` bytes: the
        // parser tolerates whitespace, so this is a well-formed request.
        let at_cap = format!("GET 7{}", " ".repeat(cap - 5));
        assert_eq!(at_cap.len(), cap);
        assert_eq!(c.round_trip(&at_cap).expect("at-cap"), Response::Miss);
        // One byte over: rejected, but the connection survives.
        let over_cap = format!("GET 7{}", " ".repeat(cap - 4));
        assert_eq!(over_cap.len(), cap + 1);
        let resp = c.round_trip(&over_cap).expect("over-cap");
        assert!(
            matches!(&resp, Response::Err(e) if e.contains("line too long")),
            "got {resp:?}"
        );
        c.set(7, 70).expect("set after resync");
        assert_eq!(c.get(7).expect("get"), Some(70));
        server.shutdown();
    }
}
