//! The thread-per-core data plane (DESIGN.md §16).
//!
//! The hardened [`crate::Server`] spends a thread per connection and a
//! round trip per op; at scale it dies at the thread count, not the
//! index. [`TpcServer`] is the shared-nothing replacement: N worker
//! threads (default `available_parallelism`), each owning
//!
//! - its **own listener** (so a routing client can target a worker),
//! - its **own shard** (`crate::shard::Shard`), a single-threaded
//!   `DyTis` — keys are partitioned into contiguous ranges by
//!   [`shard_of`], so the data plane takes no cross-thread lock at all,
//!   and
//! - a **nonblocking connection set** driven by the `poll(2)` reactor
//!   (`crate::reactor`), with reads, applies, and writes batched per
//!   wakeup.
//!
//! Ops that arrive on one worker for a key another worker owns are
//! forwarded over an mpsc channel and completed asynchronously; responses
//! are released strictly in request order per connection, so a
//! misrouted (or non-routing) client still sees exact pipelined
//! semantics — just with one extra hop. A routing client
//! ([`crate::RoutedClient`]) that partitions its batches by
//! [`shard_of`] never pays the hop.
//!
//! With [`TpcOptions::durability`] each shard keeps a write-ahead log and
//! checkpoints (DESIGN.md §9): a worker recovers its shard before serving,
//! logs every mutation it owns (forwarded ones included) before applying
//! it, and group-commits per wakeup — one `Wal::sync` covers every record
//! the wakeup appended, and no response byte or `Done` message leaves the
//! worker before it. A WAL failure is never acknowledged: the affected
//! connections are closed instead.
//!
//! Both protocols are served, negotiated by the first byte of the
//! session: `0xDF` selects the `DYF1` binary frame (`crate::frame`),
//! anything else the line protocol — over the *same* resource envelope
//! the threaded server enforces ([`ServerOptions`]: connection budget
//! with `ERR busy` admission, capped request lines, idle-timeout
//! reaping, and a graceful deadline drain).
//!
//! Cross-shard reads (`LEN`, a `SCAN` spanning range boundaries) are
//! gathered hop by hop without stopping writers and are therefore not
//! atomic across shards: a scan sees each shard as of its own hop.

#![cfg(unix)]

use crate::frame::{self, Decoded};
use crate::protocol::{self, encode_response, format_response, parse_request, Request, Response};
use crate::reactor::{poll_events, PollFd, WakePipe, POLL_IN, POLL_OUT};
use crate::shard::{prepare_dir, shard_of, DurabilityOptions, Op, Reply, Shard};
use crate::{DrainReport, ServerOptions};
use durability::{FileStorage, Wal, WalStats};
use dytis::Params;
use index_traits::{AuditReport, Auditable, Key, MaintenanceStats, Value};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Result, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`TpcServer`].
#[derive(Debug, Clone, Default)]
pub struct TpcOptions {
    /// Worker (event-loop) threads; `0` (the default) means
    /// `available_parallelism`.
    pub workers: usize,
    /// The resource envelope, shared with the threaded server: the
    /// connection budget and `live_connections` gauge are global across
    /// workers, timeouts and the line cap apply per connection.
    pub server: ServerOptions,
    /// Geometry of every worker's shard index. Checkpoints carry raw
    /// pairs, so a durable directory may be reopened with other params.
    pub params: Params,
    /// Per-shard WAL and checkpoints; `None` (the default) serves from
    /// memory only, with no file I/O at all.
    pub durability: Option<DurabilityOptions>,
}

/// How many bytes one wakeup reads from one connection before moving on.
const READ_CHUNK: usize = 64 * 1024;
/// Outbound bytes above which a connection stops being read (pipelining
/// backpressure: the peer must drain responses before sending more).
const OUTBUF_HIGH_WATER: usize = 1 << 20;
/// Most in-flight (parsed, unanswered) requests per connection.
const MAX_PENDING_OPS: usize = 8192;
/// Poll timeout: bounds how stale idle-deadline checks and the stop flag
/// can get when no wakeup arrives.
const POLL_TICK: Duration = Duration::from_millis(25);

/// State shared by all workers and the handle.
struct Shared {
    stop: AtomicBool,
    live: AtomicUsize,
    opts: ServerOptions,
    workers: usize,
    wakes: Vec<WakePipe>,
}

/// A message to a worker. `Apply` asks the shard owner to run one op;
/// `Done` returns the result to the connection's owning worker, and
/// `Failed` tells it the op was not made durable, so the connection must
/// close unacknowledged. `Control` runs a handle request on the shard
/// between wakeups.
enum Msg {
    Apply {
        from: usize,
        conn: u64,
        seq: u64,
        idx: u32,
        op: Op,
    },
    Done {
        conn: u64,
        seq: u64,
        idx: u32,
        resp: Reply,
    },
    Failed {
        conn: u64,
    },
    Control(Box<dyn FnOnce(&mut Shard) + Send>),
}

/// A running thread-per-core server.
pub struct TpcServer {
    addrs: Vec<SocketAddr>,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Every worker's inbox, for control requests.
    inboxes: Vec<Sender<Msg>>,
    /// Every durable shard's WAL, for `crash()` and `wal_stats()`.
    wals: Vec<Arc<Wal<FileStorage>>>,
    /// Workers own shard files: stopping waits for them with no deadline.
    durable: bool,
}

impl TpcServer {
    /// Binds one listener per worker on `addr`'s IP and starts the event
    /// loops. Port 0 gives every worker its own ephemeral port; an
    /// explicit port `p` puts worker `i` on `p + i`, so `addr()` (worker
    /// 0) listens exactly where the caller asked.
    ///
    /// # Errors
    ///
    /// Returns any bind or reactor-setup error.
    pub fn start<A: ToSocketAddrs>(addr: A) -> Result<TpcServer> {
        Self::with_options(addr, TpcOptions::default())
    }

    /// Starts with explicit options. A durable server recovers every
    /// shard from its directory before it serves.
    ///
    /// # Errors
    ///
    /// Returns any bind or reactor-setup error, `InvalidInput` when an
    /// explicit port plus the worker count would overflow the port space
    /// or when the durable directory was written with another worker
    /// count, and any recovery error.
    pub fn with_options<A: ToSocketAddrs>(addr: A, opts: TpcOptions) -> Result<TpcServer> {
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            opts.workers
        };
        if let Some(d) = &opts.durability {
            prepare_dir(d, workers)?;
        }
        let base = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no address"))?;
        let mut listeners = Vec::with_capacity(workers);
        let mut addrs = Vec::with_capacity(workers);
        for i in 0..workers {
            // Port 0: every worker takes its own ephemeral port. Explicit
            // port p: worker i binds p + i, so the requested port is
            // honored (worker 0) instead of silently discarded.
            let port = if base.port() == 0 {
                0
            } else {
                u16::try_from(i)
                    .ok()
                    .and_then(|off| base.port().checked_add(off))
                    .ok_or_else(|| {
                        std::io::Error::new(
                            ErrorKind::InvalidInput,
                            format!("port {} + {workers} workers overflows u16", base.port()),
                        )
                    })?
            };
            let l = TcpListener::bind(SocketAddr::new(base.ip(), port))?;
            l.set_nonblocking(true)?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
        }
        let mut wakes = Vec::with_capacity(workers);
        for _ in 0..workers {
            wakes.push(WakePipe::new()?);
        }
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            opts: opts.server,
            workers,
            wakes,
        });
        let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(workers);
        let mut inboxes: Vec<Receiver<Msg>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            senders.push(tx);
            inboxes.push(rx);
        }
        // Each worker opens (and, when durable, recovers) its own shard
        // on its own thread before it serves, and reports back: the
        // server is returned only once every shard is ready.
        let (ready_tx, ready_rx) = channel();
        let mut handles = Vec::with_capacity(workers);
        for (id, (listener, inbox)) in listeners.into_iter().zip(inboxes).enumerate() {
            let peers: Vec<Sender<Msg>> = senders.iter().map(Sender::clone).collect();
            let shared = Arc::clone(&shared);
            let ready = ready_tx.clone();
            let durability = opts.durability.clone();
            handles.push(std::thread::spawn(move || {
                match Shard::open(id, opts.params, durability.as_ref()) {
                    Ok(shard) => {
                        let _ = ready.send(Ok(shard.wal().cloned()));
                        drop(ready);
                        let worker = Worker {
                            id,
                            listener,
                            inbox,
                            peers,
                            shared,
                            shard,
                            conns: HashMap::new(),
                            next_conn_id: 0,
                            outbox: Vec::new(),
                            dirty: Vec::new(),
                            wake_marks: vec![false; workers],
                            now: Instant::now(),
                        };
                        worker.run();
                    }
                    Err(e) => {
                        let _ = ready.send(Err(e));
                    }
                }
            }));
        }
        drop(ready_tx);
        let mut server = TpcServer {
            addrs,
            shared,
            handles,
            inboxes: senders,
            wals: Vec::with_capacity(workers),
            durable: opts.durability.is_some(),
        };
        let mut opened = 0;
        for report in ready_rx {
            opened += 1;
            match report {
                Ok(wal) => server.wals.extend(wal),
                Err(e) => return Err(e), // dropping `server` stops the rest
            }
        }
        if opened < workers {
            return Err(std::io::Error::other("a worker died opening its shard"));
        }
        Ok(server)
    }

    /// Worker 0's address — a full-service endpoint for clients that do
    /// not route (every op works; non-owned keys take the forwarding hop).
    pub fn addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// All worker addresses, indexed by worker id, for routing clients.
    pub fn worker_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Number of event-loop workers (= shards).
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Currently admitted connections, across all workers.
    pub fn live_connections(&self) -> usize {
        // relaxed: observability read of a standalone gauge; callers that
        // need an edge synchronise through a completed round trip.
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Stops accepting, force-closes every connection, and joins workers
    /// under [`ServerOptions::drain_deadline`] — a durable server joins
    /// them with no deadline, so no worker outlives the handle on its
    /// shard files. A durable server's WALs then flush and close; every
    /// acknowledged write was already synced. `drained` is also `false`
    /// when a log reports an error as it closes (for example a failed
    /// rotation after the last acknowledged write).
    pub fn shutdown(mut self) -> DrainReport {
        let mut report = self.stop_inner();
        for wal in self.wals.drain(..) {
            // The workers are joined, so the handle holds the last
            // reference to each log.
            let healthy = Arc::try_unwrap(wal).is_ok_and(|wal| wal.close().1.is_ok());
            report.drained &= healthy;
        }
        report
    }

    /// Simulates `kill -9`: WAL committers abort without flushing their
    /// queues, workers stop, and nothing is flushed or checkpointed. The
    /// directory keeps what the committers had already written, so a new
    /// durable server on it recovers every acknowledged write. Every
    /// worker has exited when this returns.
    pub fn crash(mut self) -> DrainReport {
        for w in &self.wals {
            w.crash();
        }
        self.stop_inner()
    }

    /// Checkpoints every shard and rotates its log; a no-op without
    /// durability.
    ///
    /// # Errors
    ///
    /// Returns the first shard's checkpoint or rotation error.
    pub fn checkpoint_now(&self) -> Result<()> {
        self.on_every_shard(Shard::checkpoint).into_iter().collect()
    }

    /// Group-commit statistics summed over every shard's WAL (all zero
    /// without durability).
    pub fn wal_stats(&self) -> WalStats {
        let mut agg = WalStats {
            batches: 0,
            records: 0,
            synced_bytes: 0,
            rotations: 0,
        };
        for s in self.wals.iter().map(|w| w.stats()) {
            agg.batches += s.batches;
            agg.records += s.records;
            agg.synced_bytes += s.synced_bytes;
            agg.rotations += s.rotations;
        }
        agg
    }

    /// Structure-maintenance counters (splits, expansions, remaps,
    /// doublings, shrinks, keys moved) pooled over every shard.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        let mut agg = MaintenanceStats::default();
        for s in self.on_every_shard(|s| s.index().stats().ops) {
            agg.merge(&s);
        }
        agg
    }

    /// Deep structural audit of every shard's index, merged into one
    /// report. Each worker audits between wakeups, so each shard's result
    /// is exact.
    pub fn audit(&self) -> AuditReport {
        let mut agg = AuditReport::new("TpcServer");
        for r in self.on_every_shard(|s| s.index().audit()) {
            agg.merge(r);
        }
        agg
    }

    /// Runs `f` on every worker's shard between wakeups and collects the
    /// results, in no particular order.
    fn on_every_shard<T: Send + 'static>(&self, f: fn(&mut Shard) -> T) -> Vec<T> {
        let (tx, rx) = channel();
        for (inbox, wake) in self.inboxes.iter().zip(&self.shared.wakes) {
            let tx = tx.clone();
            let run = move |shard: &mut Shard| {
                let _ = tx.send(f(shard));
            };
            // A send fails only if the worker exited; the count below
            // reports that.
            if inbox.send(Msg::Control(Box::new(run))).is_ok() {
                wake.wake();
            }
        }
        drop(tx);
        let out: Vec<T> = rx.iter().collect();
        assert_eq!(
            out.len(),
            self.inboxes.len(),
            "a worker exited before shutdown"
        );
        out
    }

    fn stop_inner(&mut self) -> DrainReport {
        // relaxed: standalone stop flag; the wake below forces every
        // worker to re-check it within one poll tick.
        self.shared.stop.store(true, Ordering::Relaxed);
        for w in &self.shared.wakes {
            w.wake();
        }
        // A durable worker must not outlive the handle, or a new server
        // on the same directory would share its shard files: no deadline.
        let deadline = (!self.durable).then(|| Instant::now() + self.shared.opts.drain_deadline);
        let mut handles: Vec<JoinHandle<()>> = self.handles.drain(..).collect();
        loop {
            let mut i = 0;
            while i < handles.len() {
                if handles[i].is_finished() {
                    let _ = handles.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            if handles.is_empty() || deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let abandoned = handles.len();
        if abandoned > 0 {
            obs::counter!("kv.drain_abandoned").add(abandoned as u64);
        }
        DrainReport {
            drained: abandoned == 0,
            abandoned,
        }
    }
}

impl Drop for TpcServer {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            let _ = self.stop_inner();
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection state
// ---------------------------------------------------------------------------

/// Protocol of a connection, fixed by its first byte.
enum Mode {
    /// Waiting for the first byte(s).
    Detect,
    Text,
    Binary,
}

/// An in-order response slot. `Ready` holds serialized bytes; the others
/// wait on remote completions and serialize when the last one lands.
enum Slot {
    Ready(Vec<u8>),
    /// `Ready` whose flush also closes the connection (BYE, fatal ERR).
    ReadyClose(Vec<u8>),
    Set {
        binary: bool,
        applied: u64,
        awaiting: u32,
    },
    /// GET or DEL: the value found or removed per key, final once
    /// nothing is awaited.
    Values {
        binary: bool,
        del: bool,
        results: Vec<Option<Value>>,
        awaiting: u32,
    },
    Scan {
        binary: bool,
        acc: Vec<(Key, Value)>,
        start: Key,
        limit: usize,
        next_shard: usize,
    },
    Len {
        binary: bool,
        total: u64,
        awaiting: u32,
    },
}

impl Slot {
    fn is_complete(&self) -> bool {
        match self {
            Slot::Ready(_) | Slot::ReadyClose(_) => true,
            Slot::Set { awaiting, .. }
            | Slot::Values { awaiting, .. }
            | Slot::Len { awaiting, .. } => *awaiting == 0,
            // `fill` replaces a scan slot with `Ready` when its chain
            // ends.
            Slot::Scan { .. } => false,
        }
    }

    /// Records the reply to the op at `idx` of this slot's request, from
    /// the local shard or a peer. Returns a scan's next hop: the worker to
    /// send it to and the op.
    fn fill(&mut self, idx: u32, resp: Reply, workers: usize) -> Option<(usize, Op)> {
        match (&mut *self, resp) {
            (
                Slot::Set {
                    applied, awaiting, ..
                },
                Reply::Value(_),
            ) => {
                *applied += 1;
                *awaiting -= 1;
            }
            (
                Slot::Values {
                    results, awaiting, ..
                },
                Reply::Value(v),
            ) => {
                if let Some(r) = results.get_mut(idx as usize) {
                    *r = v;
                }
                *awaiting -= 1;
            }
            (
                Slot::Len {
                    total, awaiting, ..
                },
                Reply::Len(n),
            ) => {
                *total += n as u64;
                *awaiting -= 1;
            }
            (
                Slot::Scan {
                    binary,
                    acc,
                    start,
                    limit,
                    next_shard,
                },
                Reply::Scan(pairs),
            ) => {
                acc.extend(pairs);
                if acc.len() < *limit && *next_shard < workers {
                    *next_shard += 1;
                    return Some((*next_shard - 1, Op::Scan(*start, *limit - acc.len())));
                }
                let bytes = serialize_scan(*binary, std::mem::take(acc));
                *self = Slot::Ready(bytes);
            }
            // A mismatched completion can only come from memory
            // corruption or a logic bug; drop it rather than panic the
            // worker.
            _ => {}
        }
        None
    }
}

struct Conn {
    stream: TcpStream,
    mode: Mode,
    inbuf: Vec<u8>,
    /// Bytes of `inbuf` already parsed; compacted away once per
    /// `parse_all`.
    in_pos: usize,
    /// Text mode: discarding an oversized line until its newline.
    skipping: bool,
    outbuf: Vec<u8>,
    out_pos: usize,
    pending: std::collections::VecDeque<Slot>,
    /// Sequence number of `pending.front()`.
    head_seq: u64,
    /// Sequence number the next parsed request will get.
    next_seq: u64,
    last_active: Instant,
    /// Set once the response stream should end the connection after the
    /// outbuf drains.
    closing: bool,
    /// Peer sent EOF; serve what is in flight, then close.
    peer_eof: bool,
    /// Outbuf has been non-empty without progress since this instant.
    write_stalled: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            mode: Mode::Detect,
            inbuf: Vec::new(),
            in_pos: 0,
            skipping: false,
            outbuf: Vec::new(),
            out_pos: 0,
            pending: std::collections::VecDeque::new(),
            head_seq: 0,
            next_seq: 0,
            last_active: now,
            closing: false,
            peer_eof: false,
            write_stalled: None,
        }
    }

    fn has_backlog(&self) -> bool {
        !self.pending.is_empty() || self.outbuf.len() > self.out_pos
    }

    /// Queues the response slot of the next request; returns its
    /// sequence number.
    fn push(&mut self, slot: Slot) -> u64 {
        let seq = self.next_seq;
        debug_assert_eq!(seq, self.head_seq + self.pending.len() as u64);
        self.next_seq += 1;
        self.pending.push_back(slot);
        seq
    }
}

// ---------------------------------------------------------------------------
// Worker event loop
// ---------------------------------------------------------------------------

struct Worker {
    id: usize,
    listener: TcpListener,
    inbox: Receiver<Msg>,
    peers: Vec<Sender<Msg>>,
    shared: Arc<Shared>,
    shard: Shard,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    /// `Done` messages held until the wakeup's commit.
    outbox: Vec<(usize, Msg)>,
    /// Connections whose responses are flushed at the wakeup's commit.
    dirty: Vec<u64>,
    /// Peers sent a message this wakeup and not yet woken: each is woken
    /// once however many messages it got (`wake_peers`).
    wake_marks: Vec<bool>,
    /// The clock reading of the current wakeup, taken once after poll.
    now: Instant,
}

impl Worker {
    fn run(mut self) {
        // One read buffer for every connection, zeroed once: on the stack,
        // so it neither costs a memset per read nor shows as heap.
        let mut chunk = [0u8; READ_CHUNK];
        let mut entries: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<u64> = Vec::new();
        loop {
            // relaxed: standalone stop flag; shutdown wakes every worker's
            // pipe, so the flag is observed within one poll round.
            if self.shared.stop.load(Ordering::Relaxed) {
                break;
            }
            entries.clear();
            tokens.clear();
            entries.push(PollFd::new(self.shared.wakes[self.id].read_fd(), POLL_IN));
            tokens.push(u64::MAX);
            entries.push(PollFd::new(self.listener.as_raw_fd(), POLL_IN));
            tokens.push(u64::MAX - 1);
            for (&id, conn) in &self.conns {
                let mut interest = 0i16;
                // Backpressure: stop reading while this connection's
                // responses are piling up faster than it drains them.
                if conn.outbuf.len() - conn.out_pos < OUTBUF_HIGH_WATER
                    && conn.pending.len() < MAX_PENDING_OPS
                    && !conn.peer_eof
                    && !conn.closing
                {
                    interest |= POLL_IN;
                }
                if conn.outbuf.len() > conn.out_pos {
                    interest |= POLL_OUT;
                }
                entries.push(PollFd::new(conn.stream.as_raw_fd(), interest));
                tokens.push(id);
            }
            let ready = match poll_events(&mut entries, Some(POLL_TICK)) {
                Ok(n) => n,
                Err(_) => continue,
            };
            if ready > 0 {
                obs::counter!("kv.wakeups").inc();
            }
            self.now = Instant::now();
            if entries[0].readable() {
                self.shared.wakes[self.id].drain();
            }
            let mut to_close: Vec<u64> = Vec::new();

            // 1. Peer messages: apply forwarded ops on the local shard,
            //    deliver completions to waiting connections, and run
            //    control requests.
            self.drain_inbox(&mut to_close);

            // 2. Accept any pending connections (admission-controlled).
            if entries[1].readable() {
                self.accept_ready();
            }

            // 3. Read every readable connection; parse and apply its ops
            //    as one batch per wakeup.
            for (entry, &token) in entries.iter().zip(&tokens).skip(2) {
                if entry.readable() {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.last_active = self.now;
                    }
                    if !self.read_and_apply(token, &mut chunk) {
                        to_close.push(token);
                        continue;
                    }
                }
                if entry.readable() || entry.writable() {
                    self.dirty.push(token);
                }
            }

            // 4. Timeout sweep (idle reap + stalled writes).
            self.sweep_timeouts(&mut to_close);

            // 5. Group commit, then release what this wakeup produced.
            self.commit(&mut to_close);

            for id in to_close {
                self.close_conn(id);
            }
        }
        // Drain: drop the listener and force-close every connection so
        // peers observe EOF/RST immediately.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id);
        }
    }

    // -- accept --------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            // Admission: one global budget across all workers.
            // relaxed: the budget is advisory-exact like the threaded
            // server's registry count; a transient over/under of one
            // connection during a race is acceptable and self-corrects.
            let live = self.shared.live.fetch_add(1, Ordering::Relaxed);
            if live >= self.shared.opts.max_connections {
                // relaxed: undoing the advisory increment above.
                self.shared.live.fetch_sub(1, Ordering::Relaxed);
                obs::counter!("kv.rejected").inc();
                let mut s = stream;
                let _ = s.set_nonblocking(true);
                // Best effort: 9 bytes fit any fresh socket buffer. The
                // reply is textual because the session has not negotiated
                // a protocol yet.
                let _ = s.write_all(b"ERR busy\n");
                let _ = s.shutdown(std::net::Shutdown::Both);
                continue;
            }
            obs::gauge!("kv.live_connections").inc();
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                // relaxed: undoing the advisory increment above.
                self.shared.live.fetch_sub(1, Ordering::Relaxed);
                obs::gauge!("kv.live_connections").dec();
                continue;
            }
            let id = self.next_conn_id;
            self.next_conn_id += 1;
            self.conns.insert(id, Conn::new(stream, self.now));
        }
    }

    // -- reading and parsing -------------------------------------------

    /// Reads what the socket has, parses complete requests, applies the
    /// local ones, and forwards the remote ones; the responses wait for
    /// the wakeup's commit. Returns `false` when the connection should
    /// close now.
    fn read_and_apply(&mut self, id: u64, tmp: &mut [u8; READ_CHUNK]) -> bool {
        let mut got_eof = false;
        let mut applied = 0usize;
        loop {
            let read = {
                let conn = match self.conns.get_mut(&id) {
                    Some(c) => c,
                    None => return true,
                };
                if conn.outbuf.len() - conn.out_pos >= OUTBUF_HIGH_WATER
                    || conn.pending.len() >= MAX_PENDING_OPS
                    || conn.closing
                {
                    break; // backpressure: poll will re-arm once drained
                }
                conn.stream.read(tmp)
            };
            match read {
                Ok(0) => {
                    got_eof = true;
                    break;
                }
                Ok(n) => {
                    let full = n == tmp.len();
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.inbuf.extend_from_slice(&tmp[..n]);
                    }
                    // Parse after every chunk so an endless newline-free
                    // (or frame-less) stream is discarded as it arrives
                    // and `inbuf` stays O(line cap), not O(stream).
                    if !self.parse_all(id, &mut applied) {
                        return false;
                    }
                    if !full {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if applied > 0 {
            obs::counter!("kv.batch_apply").inc();
            obs::counter!("kv.batch_ops").add(applied as u64);
        }
        if got_eof {
            let conn = match self.conns.get_mut(&id) {
                Some(c) => c,
                None => return true,
            };
            conn.peer_eof = true;
            if !conn.has_backlog() {
                return false;
            }
        }
        true
    }

    /// Parses every complete request in the connection's input buffer,
    /// then drops the parsed bytes from it. Returns `false` when the
    /// connection must close (protocol fault).
    fn parse_all(&mut self, id: u64, applied: &mut usize) -> bool {
        let keep = self.parse_buffered(id, applied);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inbuf.drain(..conn.in_pos);
            conn.in_pos = 0;
        }
        keep
    }

    fn parse_buffered(&mut self, id: u64, applied: &mut usize) -> bool {
        loop {
            let conn = match self.conns.get_mut(&id) {
                Some(c) => c,
                None => return true,
            };
            if conn.closing {
                return true;
            }
            match conn.mode {
                Mode::Detect => {
                    let rest = &conn.inbuf[conn.in_pos..];
                    if rest.is_empty() {
                        return true;
                    }
                    if rest[0] == frame::MAGIC_BYTE {
                        if rest.len() < frame::PREAMBLE.len() {
                            return true; // wait for the rest
                        }
                        if rest[..4] != frame::PREAMBLE {
                            return false; // garbled preamble: close
                        }
                        conn.in_pos += 4;
                        conn.mode = Mode::Binary;
                    } else {
                        conn.mode = Mode::Text;
                    }
                }
                Mode::Text => {
                    if !self.parse_text_line(id, applied) {
                        return true; // need more bytes (or conn gone)
                    }
                }
                Mode::Binary => match self.parse_binary_frame(id, applied) {
                    BinaryParse::More => {}
                    BinaryParse::NeedBytes => return true,
                    BinaryParse::Fatal => return true, // error frame queued
                },
            }
        }
    }

    /// Consumes one text line if complete, parsing it in place. Returns
    /// `false` when more bytes are needed.
    fn parse_text_line(&mut self, id: u64, applied: &mut usize) -> bool {
        let opts_cap = self.shared.opts.max_line_bytes;
        let conn = match self.conns.get_mut(&id) {
            Some(c) => c,
            None => return false,
        };
        if conn.skipping {
            match conn.inbuf[conn.in_pos..].iter().position(|&b| b == b'\n') {
                Some(i) => {
                    conn.in_pos += i + 1;
                    conn.skipping = false;
                }
                None => {
                    conn.inbuf.clear();
                    conn.in_pos = 0;
                    return false;
                }
            }
        }
        let start = conn.in_pos;
        let rest = conn.inbuf.len() - start;
        let line_end = conn.inbuf[start..].iter().position(|&b| b == b'\n');
        // With no newline yet the cap applies to the partial line, which is
        // dropped and skipped through its newline: a newline-free stream
        // stays O(cap) in memory.
        if line_end.unwrap_or(rest) > opts_cap {
            obs::counter!("kv.oversized").inc();
            conn.in_pos += line_end.map_or(rest, |i| i + 1);
            conn.skipping = line_end.is_none();
            let msg = format!("ERR line too long (max {opts_cap} bytes)\n");
            conn.push(Slot::Ready(msg.into_bytes()));
            return line_end.is_some();
        }
        let Some(i) = line_end else {
            return false;
        };
        conn.in_pos += i + 1;
        let parsed = {
            // Borrows the line when it is valid UTF-8.
            let text = String::from_utf8_lossy(&conn.inbuf[start..start + i]);
            let text = text.trim_matches(|c: char| c == '\r' || c == '\n');
            if text.trim().is_empty() {
                return true;
            }
            parse_request(text)
        };
        match parsed {
            Ok(req) => self.dispatch_text(id, req, applied),
            Err(e) => {
                obs::counter!("kv.malformed").inc();
                let conn = match self.conns.get_mut(&id) {
                    Some(c) => c,
                    None => return false,
                };
                let line = format!("{}\n", format_response(&Response::Err(e)));
                conn.push(Slot::Ready(line.into_bytes()));
            }
        }
        true
    }

    fn dispatch_text(&mut self, id: u64, req: Request, applied: &mut usize) {
        *applied += 1;
        match req {
            Request::Set(k, v) => self.op_set(id, false, &[(k, v)]),
            Request::Get(k) => self.op_values(id, false, false, &[k]),
            Request::Del(k) => self.op_values(id, false, true, &[k]),
            Request::Scan(start, count) => self.op_scan(id, false, start, count),
            Request::Len => self.op_len(id, false),
            Request::Quit => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.push(Slot::ReadyClose(b"BYE\n".to_vec()));
                }
            }
        }
    }

    fn parse_binary_frame(&mut self, id: u64, applied: &mut usize) -> BinaryParse {
        let decoded = {
            let conn = match self.conns.get_mut(&id) {
                Some(c) => c,
                None => return BinaryParse::NeedBytes,
            };
            frame::try_decode(&conn.inbuf[conn.in_pos..])
        };
        match decoded {
            Decoded::Incomplete => BinaryParse::NeedBytes,
            Decoded::TooLarge { .. } => {
                self.queue_fatal_err(id, frame::ERR_TOO_LARGE);
                BinaryParse::Fatal
            }
            Decoded::BadCrc => {
                self.queue_fatal_err(id, frame::ERR_BAD_FRAME);
                BinaryParse::Fatal
            }
            Decoded::Frame {
                header,
                words,
                consumed,
            } => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.in_pos += consumed;
                }
                *applied += 1;
                self.dispatch_binary(id, header.op, words);
                BinaryParse::More
            }
        }
    }

    fn dispatch_binary(&mut self, id: u64, op: u8, words: Vec<u64>) {
        match op {
            frame::OP_SET => {
                if !words.len().is_multiple_of(2) {
                    return self.queue_fatal_err(id, frame::ERR_BAD_COUNT);
                }
                let pairs: Vec<(Key, Value)> =
                    words.chunks_exact(2).map(|c| (c[0], c[1])).collect();
                self.op_set(id, true, &pairs);
            }
            frame::OP_GET | frame::OP_DEL => {
                if words.len() > frame::MAX_KEYS_PER_FRAME as usize {
                    return self.queue_err(id, frame::ERR_KEY_COUNT);
                }
                self.op_values(id, true, op == frame::OP_DEL, &words);
            }
            frame::OP_SCAN => {
                if words.len() != 2 {
                    return self.queue_fatal_err(id, frame::ERR_BAD_COUNT);
                }
                let limit = words[1] as usize;
                // The response carries 2 words per row, so the binary
                // limit is the tighter of the protocol cap and what one
                // response frame can hold.
                if limit > protocol::MAX_SCAN_COUNT.min(frame::MAX_KEYS_PER_FRAME as usize) {
                    return self.queue_err(id, frame::ERR_SCAN_LIMIT);
                }
                self.op_scan(id, true, words[0], limit);
            }
            frame::OP_LEN => {
                if !words.is_empty() {
                    return self.queue_fatal_err(id, frame::ERR_BAD_COUNT);
                }
                self.op_len(id, true);
            }
            frame::OP_QUIT => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.push(Slot::ReadyClose(frame_vec(frame::RESP_BYE, &[])));
                }
            }
            frame::OP_HELLO => {
                let me = self.id as u64;
                let n = self.shared.workers as u64;
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.push(Slot::Ready(frame_vec(frame::RESP_HELLO, &[me, n])));
                }
            }
            _ => self.queue_fatal_err(id, frame::ERR_UNKNOWN_OP),
        }
    }

    /// Queues a non-fatal `ERR` frame: the request was malformed at the
    /// op level but the frame itself was well-formed, so the stream is
    /// still in sync and the 1-response-per-request framing holds.
    fn queue_err(&mut self, id: u64, code: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.push(Slot::Ready(frame_vec(frame::RESP_ERR, &[code])));
        }
    }

    fn queue_fatal_err(&mut self, id: u64, code: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.push(Slot::ReadyClose(frame_vec(frame::RESP_ERR, &[code])));
            conn.inbuf.clear();
            conn.in_pos = 0;
            // Poison the connection immediately: the stream is
            // untrustworthy past this point, so no further bytes may be
            // read or parsed even within the same wakeup. Pending
            // responses (including this ERR) still drain before the
            // socket closes — flush_conn only closes a poisoned
            // connection once its slot queue is empty.
            conn.closing = true;
        }
    }

    // -- op execution ---------------------------------------------------

    /// Queues a response slot on connection `id`; returns its sequence
    /// number, or `None` when the connection is gone.
    fn queue(&mut self, id: u64, slot: Slot) -> Option<u64> {
        Some(self.conns.get_mut(&id)?.push(slot))
    }

    fn forward(&mut self, target: usize, conn: u64, seq: u64, idx: u32, op: Op) {
        let msg = Msg::Apply {
            from: self.id,
            conn,
            seq,
            idx,
            op,
        };
        self.send(target, msg);
    }

    /// Queues a request's response slot and forwards its remote ops,
    /// each tagged with its index in the request.
    fn queue_and_forward(&mut self, id: u64, slot: Slot, remote: Vec<(usize, u32, Op)>) {
        let Some(seq) = self.queue(id, slot) else {
            return;
        };
        for (owner, i, op) in remote {
            self.forward(owner, id, seq, i, op);
        }
    }

    // The keyed ops below run owned keys on the local shard in a tight
    // loop and forward the rest to their owners. Filling the slot per key
    // through `Slot::fill` instead cost 10-15% more CPU per op on the
    // kv-multiget benchmark (2-core host).

    fn op_set(&mut self, id: u64, binary: bool, pairs: &[(Key, Value)]) {
        let workers = self.shared.workers;
        let mut applied = 0u64;
        let mut remote: Vec<(usize, u32, Op)> = Vec::new();
        for (i, &(k, v)) in pairs.iter().enumerate() {
            let owner = shard_of(k, workers);
            if owner == self.id {
                self.shard.apply(Op::Set(k, v));
                applied += 1;
            } else {
                remote.push((owner, i as u32, Op::Set(k, v)));
            }
        }
        let slot = Slot::Set {
            binary,
            applied,
            awaiting: remote.len() as u32,
        };
        self.queue_and_forward(id, slot, remote);
    }

    /// GET (`del == false`) or DEL of `keys`.
    fn op_values(&mut self, id: u64, binary: bool, del: bool, keys: &[Key]) {
        let workers = self.shared.workers;
        let mut results: Vec<Option<Value>> = Vec::with_capacity(keys.len());
        let mut remote: Vec<(usize, u32, Op)> = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let op = if del { Op::Del(k) } else { Op::Get(k) };
            let owner = shard_of(k, workers);
            if owner == self.id {
                results.push(self.shard.apply(op).value());
            } else {
                results.push(None);
                remote.push((owner, i as u32, op));
            }
        }
        let slot = Slot::Values {
            binary,
            del,
            results,
            awaiting: remote.len() as u32,
        };
        self.queue_and_forward(id, slot, remote);
    }

    fn op_scan(&mut self, id: u64, binary: bool, start: Key, limit: usize) {
        let workers = self.shared.workers;
        let first = shard_of(start, workers);
        let mut slot = Slot::Scan {
            binary,
            acc: Vec::new(),
            start,
            limit,
            next_shard: first + 1,
        };
        let hop = if first == self.id {
            slot.fill(0, self.shard.apply(Op::Scan(start, limit)), workers)
        } else {
            Some((first, Op::Scan(start, limit)))
        };
        let Some(seq) = self.queue(id, slot) else {
            return;
        };
        if let Some((target, op)) = hop {
            self.forward(target, id, seq, 0, op);
        }
    }

    fn op_len(&mut self, id: u64, binary: bool) {
        let workers = self.shared.workers;
        let mut slot = Slot::Len {
            binary,
            total: 0,
            awaiting: workers as u32,
        };
        slot.fill(0, self.shard.apply(Op::Len), workers);
        let Some(seq) = self.queue(id, slot) else {
            return;
        };
        let me = self.id;
        for s in (0..workers).filter(|&s| s != me) {
            self.forward(s, id, seq, 0, Op::Len);
        }
    }

    // -- peer messages and the commit point ------------------------------

    /// Handles every queued peer message. A durable shard holds replies to
    /// forwarded ops in the outbox until the wakeup's commit; a shard with
    /// no log has nothing to commit and sends them at once. Completed
    /// connections are marked dirty and flushed at the commit.
    fn drain_inbox(&mut self, to_close: &mut Vec<u64>) {
        while let Ok(msg) = self.inbox.try_recv() {
            match msg {
                Msg::Apply {
                    from,
                    conn,
                    seq,
                    idx,
                    op,
                } => {
                    let resp = self.shard.apply(op);
                    let done = Msg::Done {
                        conn,
                        seq,
                        idx,
                        resp,
                    };
                    if self.shard.wal().is_some() {
                        self.outbox.push((from, done));
                    } else {
                        self.send(from, done);
                    }
                }
                Msg::Done {
                    conn,
                    seq,
                    idx,
                    resp,
                } => {
                    self.complete(conn, seq, idx, resp);
                    self.dirty.push(conn);
                }
                Msg::Failed { conn } => to_close.push(conn),
                Msg::Control(run) => run(&mut self.shard),
            }
        }
    }

    /// Queues `msg` for worker `target` and marks the peer for the next
    /// `wake_peers`. A send only fails when the peer already exited, which
    /// only happens during shutdown — the slot is then abandoned and the
    /// connection force-closed by the drain anyway.
    fn send(&mut self, target: usize, msg: Msg) {
        if self.peers[target].send(msg).is_ok() {
            self.wake_marks[target] = true;
        }
    }

    /// Wakes every peer marked since the last call, once each.
    fn wake_peers(&mut self) {
        for (target, marked) in self.wake_marks.iter_mut().enumerate() {
            if std::mem::take(marked) {
                self.shared.wakes[target].wake();
            }
        }
    }

    /// Applies one remote completion to its pending slot.
    fn complete(&mut self, id: u64, seq: u64, idx: u32, resp: Reply) {
        let workers = self.shared.workers;
        let Some(conn) = self.conns.get_mut(&id) else {
            return; // connection died while the op was in flight
        };
        let Some(slot) = seq
            .checked_sub(conn.head_seq)
            .and_then(|off| conn.pending.get_mut(off as usize))
        else {
            return;
        };
        if let Some((target, op)) = slot.fill(idx, resp, workers) {
            self.forward(target, id, seq, 0, op);
        }
    }

    /// The wakeup's group commit: one `Shard::commit` makes every record
    /// this wakeup appended durable, and only then do the held `Done`
    /// messages and the dirty connections' responses leave the worker.
    /// Peers are woken once per wakeup on each side of the sync: forwarded
    /// ops (and the replies of a shard with no log) before it, so a peer
    /// never waits on this worker's fsync, and the held replies after. If
    /// the WAL failed, nothing held is released: the dirty connections
    /// close (EOF means "not acknowledged") and each held `Done` becomes a
    /// `Failed` that closes its connection on the origin worker.
    fn commit(&mut self, to_close: &mut Vec<u64>) {
        self.wake_peers();
        let durable = self.shard.commit().is_ok();
        let mut outbox = std::mem::take(&mut self.outbox);
        for (target, msg) in outbox.drain(..) {
            let msg = match msg {
                Msg::Done { conn, .. } if !durable => Msg::Failed { conn },
                msg => msg,
            };
            self.send(target, msg);
        }
        self.outbox = outbox;
        self.wake_peers();
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        for &id in &dirty {
            if !to_close.contains(&id) && (!durable || !self.flush_conn(id)) {
                to_close.push(id);
            }
        }
        dirty.clear();
        self.dirty = dirty;
    }

    // -- flushing -------------------------------------------------------

    /// Moves completed responses into the outbuf (in request order) and
    /// writes what the socket accepts. Returns `false` when the
    /// connection should close.
    fn flush_conn(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        // Release completed slots strictly in order.
        while let Some(front) = conn.pending.front() {
            if !front.is_complete() {
                break;
            }
            // invariant: the front exists and is complete per the loop test.
            let slot = conn.pending.pop_front().unwrap();
            conn.head_seq += 1;
            match slot {
                Slot::Ready(bytes) => conn.outbuf.extend_from_slice(&bytes),
                Slot::ReadyClose(bytes) => {
                    conn.outbuf.extend_from_slice(&bytes);
                    conn.closing = true;
                    conn.pending.clear();
                    break;
                }
                Slot::Set {
                    binary, applied, ..
                } => encode_set(&mut conn.outbuf, binary, applied),
                Slot::Values {
                    binary,
                    del,
                    results,
                    ..
                } => encode_values(&mut conn.outbuf, binary, del, &results),
                Slot::Len { binary, total, .. } => encode_len(&mut conn.outbuf, binary, total),
                // invariant: Scan slots are replaced by Ready on
                // completion and is_complete() is false until then.
                Slot::Scan { .. } => unreachable!("scan slot flushed before completion"),
            }
        }
        // One write per wakeup: the whole batch goes out together.
        while conn.out_pos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.write_stalled = None;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if conn.write_stalled.is_none() {
                        conn.write_stalled = Some(self.now);
                    }
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.out_pos >= conn.outbuf.len() {
            conn.outbuf.clear();
            conn.out_pos = 0;
            // A closing (or EOF'd) connection ends only once every queued
            // slot has been serialized and written: a poisoned connection
            // sets `closing` before its ERR slot reaches the outbuf.
            if (conn.closing || conn.peer_eof) && conn.pending.is_empty() {
                return false;
            }
        }
        true
    }

    // -- timeouts and teardown -----------------------------------------

    fn sweep_timeouts(&mut self, to_close: &mut Vec<u64>) {
        let now = self.now;
        let read_timeout = self.shared.opts.read_timeout;
        let write_timeout = self.shared.opts.write_timeout;
        let mut reap: Vec<(u64, bool)> = Vec::new();
        for (&id, conn) in &self.conns {
            if let Some(stalled) = conn.write_stalled {
                if let Some(wt) = write_timeout {
                    if now.duration_since(stalled) > wt {
                        to_close.push(id);
                        continue;
                    }
                }
            }
            if conn.closing || conn.has_backlog() {
                continue;
            }
            if let Some(rt) = read_timeout {
                if now.duration_since(conn.last_active) > rt {
                    let binary = matches!(conn.mode, Mode::Binary);
                    reap.push((id, binary));
                }
            }
        }
        for (id, binary) in reap {
            obs::counter!("kv.timeouts").inc();
            if let Some(conn) = self.conns.get_mut(&id) {
                let bytes = if binary {
                    frame_vec(frame::RESP_ERR, &[frame::ERR_IDLE])
                } else {
                    b"ERR idle timeout\n".to_vec()
                };
                conn.push(Slot::ReadyClose(bytes));
            }
            self.dirty.push(id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            // relaxed: gauge decrement; see the admission increment.
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
            obs::gauge!("kv.live_connections").dec();
        }
    }
}

enum BinaryParse {
    /// A frame was consumed; try for another.
    More,
    /// The buffer holds no complete frame yet.
    NeedBytes,
    /// A fatal error frame was queued; stop parsing this connection.
    Fatal,
}

// ---------------------------------------------------------------------------
// Response serialization (text and binary share the op execution above)
// ---------------------------------------------------------------------------

/// One encoded `DYF1` frame.
fn frame_vec(op: u8, words: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    frame::encode_frame(&mut buf, op, words);
    buf
}

// The `encode_*` functions append one response to a connection's outbuf.

fn encode_set(out: &mut Vec<u8>, binary: bool, applied: u64) {
    if binary {
        frame::encode_frame(out, frame::RESP_SET, &[applied]);
    } else {
        encode_response(out, &Response::Ok);
    }
}

fn encode_values(out: &mut Vec<u8>, binary: bool, del: bool, results: &[Option<Value>]) {
    if binary {
        let mut words = Vec::with_capacity(results.len() * 2);
        for r in results {
            words.push(u64::from(r.is_some()));
            words.push(r.unwrap_or(0));
        }
        let code = if del {
            frame::RESP_DEL
        } else {
            frame::RESP_GET
        };
        frame::encode_frame(out, code, &words);
    } else {
        // Text GET and DEL carry exactly one key.
        let resp = match results.first().copied().flatten() {
            Some(v) if del => Response::Deleted(v),
            Some(v) => Response::Value(v),
            None => Response::Miss,
        };
        encode_response(out, &resp);
    }
}

fn encode_len(out: &mut Vec<u8>, binary: bool, total: u64) {
    if binary {
        frame::encode_frame(out, frame::RESP_LEN, &[total]);
    } else {
        encode_response(out, &Response::Len(total as usize));
    }
}

fn serialize_scan(binary: bool, pairs: Vec<(Key, Value)>) -> Vec<u8> {
    if binary {
        let mut words = Vec::with_capacity(pairs.len() * 2);
        for &(k, v) in &pairs {
            words.push(k);
            words.push(v);
        }
        frame_vec(frame::RESP_SCAN, &words)
    } else {
        let mut out = Vec::new();
        encode_response(&mut out, &Response::Range(pairs));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An explicit port must actually be listened on (worker 0), with
    /// workers 1..N on the next sequential ports. Regression: every
    /// worker used to bind port 0, silently discarding the request.
    #[test]
    fn explicit_port_is_honored_for_worker_zero() {
        // Find a candidate base by taking (and releasing) an ephemeral
        // port; retry in case a neighbor port is occupied meanwhile.
        for _ in 0..10 {
            let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
            let port = probe.local_addr().expect("probe addr").port();
            drop(probe);
            if port >= u16::MAX - 1 {
                continue;
            }
            let started = TpcServer::with_options(
                ("127.0.0.1", port),
                TpcOptions {
                    workers: 2,
                    server: ServerOptions::default(),
                    ..TpcOptions::default()
                },
            );
            let Ok(server) = started else { continue };
            assert_eq!(server.addr().port(), port, "requested port discarded");
            assert_eq!(server.worker_addrs()[1].port(), port + 1);
            let mut c = crate::Client::connect(server.addr()).expect("connect");
            c.set(9, 90).expect("set");
            assert_eq!(c.get(9).expect("get"), Some(90));
            c.quit().expect("quit");
            server.shutdown();
            return;
        }
        panic!("no two consecutive free ports found in 10 attempts");
    }

    /// Worker ports past 65535 cannot silently wrap.
    #[test]
    fn explicit_port_overflow_is_rejected() {
        let res = TpcServer::with_options(
            ("127.0.0.1", u16::MAX),
            TpcOptions {
                workers: 2,
                server: ServerOptions::default(),
                ..TpcOptions::default()
            },
        );
        assert!(res.is_err(), "port 65535 + 2 workers must fail, not wrap");
    }

    #[test]
    fn text_round_trip_over_tpc() {
        let server = TpcServer::with_options(
            "127.0.0.1:0",
            TpcOptions {
                workers: 2,
                server: ServerOptions::default(),
                ..TpcOptions::default()
            },
        )
        .expect("start");
        let mut c = crate::Client::connect(server.addr()).expect("connect");
        // Keys on both sides of the 2-worker split.
        let lo = 1u64;
        let hi = u64::MAX - 1;
        c.set(lo, 100).expect("set lo");
        c.set(hi, 200).expect("set hi");
        assert_eq!(c.get(lo).expect("get lo"), Some(100));
        assert_eq!(c.get(hi).expect("get hi"), Some(200));
        assert_eq!(c.get(12345).expect("get miss"), None);
        assert_eq!(c.len().expect("len"), 2);
        assert_eq!(
            c.scan(0, 10).expect("scan"),
            vec![(lo, 100), (hi, 200)],
            "cross-shard scan must be globally ordered"
        );
        assert_eq!(c.del(lo).expect("del"), Some(100));
        assert_eq!(c.len().expect("len"), 1);
        c.quit().expect("quit");
        let report = server.shutdown();
        assert!(report.drained, "tpc server failed to drain");
    }

    #[test]
    fn pipelined_text_burst_keeps_order() {
        let server = TpcServer::with_options(
            "127.0.0.1:0",
            TpcOptions {
                workers: 3,
                server: ServerOptions::default(),
                ..TpcOptions::default()
            },
        )
        .expect("start");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut burst = String::new();
        let n = 500u64;
        for i in 0..n {
            let k = i * (u64::MAX / n); // spread across all shards
            burst.push_str(&format!("SET {k} {i}\n"));
        }
        burst.push_str("LEN\n");
        stream.write_all(burst.as_bytes()).expect("write burst");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        use std::io::BufRead;
        for i in 0..n {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim_end(), "OK", "reply {i} out of order");
        }
        let mut line = String::new();
        reader.read_line(&mut line).expect("read len");
        assert_eq!(line.trim_end(), format!("LEN {n}"));
        drop(reader);
        let report = server.shutdown();
        assert!(report.drained);
    }

    /// A write whose WAL record cannot be made durable is never
    /// acknowledged, whether its own worker or a peer owns the key: the
    /// connection closes instead. Reads of durable state still work.
    #[test]
    fn wal_failure_closes_the_connection_unacknowledged() {
        let dir = std::env::temp_dir().join(format!("tpc-wal-failure-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = TpcServer::with_options(
            "127.0.0.1:0",
            TpcOptions {
                workers: 2,
                durability: Some(DurabilityOptions {
                    dir: dir.clone(),
                    ops_per_checkpoint: 0,
                    max_batch_records: 64,
                }),
                ..TpcOptions::default()
            },
        )
        .expect("start");
        let (local, remote) = (1u64, u64::MAX);
        assert_eq!((shard_of(local, 2), shard_of(remote, 2)), (0, 1));
        let mut c = crate::Client::connect(server.addr()).expect("connect");
        c.set(local, 10).expect("set local");
        c.set(remote, 20).expect("set forwarded");
        // The storage fails under running workers.
        for w in &server.wals {
            w.crash();
        }
        assert!(c.set(local, 11).is_err(), "local write acknowledged");
        let mut c = crate::Client::connect(server.addr()).expect("connect");
        assert!(c.set(remote, 21).is_err(), "forwarded write acknowledged");
        let mut c = crate::Client::connect(server.addr()).expect("connect");
        assert_eq!(c.get(local).expect("get"), Some(10));
        assert_eq!(c.get(remote).expect("get"), Some(20));
        // The failed logs are reported when they close.
        assert!(!server.shutdown().drained, "a failed log closed clean");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
