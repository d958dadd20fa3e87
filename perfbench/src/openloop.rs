//! `kv-drift-open`: the drift serve phase sent open-loop to a `TpcServer`
//! over the text protocol, one request line per op.
//!
//! Set-up loads the MM warmup through a `RoutedClient`. Then one
//! generator thread holds one nonblocking connection to each worker's
//! listener and sends every op on a fixed-rate schedule, choosing the
//! connection by key hash rather than by `shard_of`. Every in-repo
//! sampler draws keys below 2^63, which `shard_of` puts on worker 0 when
//! there are two workers, so about half the ops take the forward hop.
//! Latency runs from each op's intended send time, so a stall also
//! charges the ops it delayed. The run holds a light and a heavy fixed
//! rate, then searches for the highest rate that meets [`P99_LIMIT_US`]
//! without a growing backlog.

use crate::oracle::{op_key, owner};
use crate::stats::{m, median, median_some, pct, pct_of, process_cpu_ns, Outcome};
use crate::trace::{LayerSamples, Spans};
use crate::{heap, inproc, nproc, Opts};
use dytis::DyTis;
use index_traits::{Key, KvIndex, Value};
use kvstore::protocol::{format_request, format_response, parse_request, parse_response};
use kvstore::reactor::{poll_events, PollFd, POLL_IN, POLL_OUT};
use kvstore::{shard_of, Request, Response, RoutedClient, TpcOptions, TpcServer};
use scenario::{ScenarioOp, SCAN_COUNT};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Warmup inserts; the serve stream has twice as many ops and is cycled.
pub const SCALE: usize = 500_000;
const SMALL_SCALE: usize = 5_000;
/// The light fixed rate: about a quarter of the median highest passing
/// rate (about 130k ops/s) on the 2-core machine it was calibrated on.
pub const LIGHT_OPS_S: f64 = 30_000.0;
/// The heavy fixed rate: about half of that median rather than three
/// quarters, because the highest passing rate swung from about 60k to
/// 190k ops/s between runs there, and a rate above capacity only measures
/// the backlog.
pub const HEAVY_OPS_S: f64 = 60_000.0;
/// The latency limit of the rate search, on p99.
pub const P99_LIMIT_US: f64 = 5_000.0;
/// A rate step whose generator ran later than this at p99 is invalid.
const LATE_LIMIT_US: f64 = 1_000.0;
/// A passing step completes at least this share of its sends within
/// the step: the backlog does not grow.
const KEEP_PACE: f64 = 0.98;
/// Server start plus warmup load, repeated for the median `setup_s`.
const SETUPS: usize = 5;
/// Requests in flight in the closed-loop phase, over both connections.
pub const CLOSED_DEPTH: usize = 32;
/// Shares of `--seconds` for the closed-loop phase, the light step, the
/// heavy step, and each search step; at most `MAX_STEPS` search steps.
const CLOSED_SHARE: f64 = 0.4;
const LIGHT_SHARE: f64 = 0.15;
const HEAVY_SHARE: f64 = 0.15;
const STEP_SHARE: f64 = 0.05;
const MAX_STEPS: usize = 6;
/// Most windows per phase; a window holds at least `WINDOW_SAMPLES`
/// expected samples, so its p99 has ten beyond it.
const MAX_WINDOWS: usize = 20;
const WINDOW_SAMPLES: f64 = 2_000.0;
/// Growth factor of the search until a step fails; then it bisects.
const GROWTH: f64 = 1.25;
/// Longest sleep of the closed loop waiting for a reply.
const CLOSED_WAIT: Duration = Duration::from_millis(1);
/// Longest wait for a step's replies after its last send.
const DRAIN: Duration = Duration::from_secs(10);

/// What an in-flight request expects.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Set(Key),
    Get(Option<Value>),
    Del,
    Scan { start: Key, sent_ev: u64 },
}

#[derive(Debug)]
struct Pending {
    /// Intended send time, ns since the generator's epoch.
    due: u64,
    /// Position in the op stream.
    seq: u64,
    expect: Expect,
}

struct Conn {
    sock: TcpStream,
    out: Vec<u8>,
    written: usize,
    inb: Vec<u8>,
    pending: VecDeque<Pending>,
}

/// A scan reply kept for the check after the run.
#[derive(Debug)]
struct ScanReply {
    start: Key,
    sent_ev: u64,
    keys: Vec<Key>,
}

/// One fixed-rate step, cut into windows by intended send time. Each
/// percentile is the median over windows of the window's percentile, so
/// a stall of the shared machine moves one window, not the step.
#[derive(Debug, Default)]
struct Step {
    rate: f64,
    /// Intended send time of the first op, ns since the generator's epoch.
    start: u64,
    window_ns: u64,
    /// Per window: latency from intended send to reply, ns; sorted once
    /// the step ends.
    lat: Vec<Vec<f64>>,
    /// Per window: send time minus intended send time, ns; sorted once
    /// the step ends.
    late: Vec<Vec<f64>>,
    sent: u64,
    done_in_window: u64,
    backlog_max: usize,
    /// Stream position after this step's last send.
    last: u64,
}

impl Step {
    fn window(&self, due: u64) -> usize {
        (((due.saturating_sub(self.start)) / self.window_ns.max(1)) as usize)
            .min(self.lat.len() - 1)
    }

    fn windowed(v: &[Vec<f64>], q: f64) -> Option<f64> {
        let per: Vec<Option<f64>> = v.iter().map(|w| pct(w, q).map(|ns| ns / 1e3)).collect();
        if per.iter().any(Option::is_none) {
            return None;
        }
        median_some(&per)
    }

    /// The `q`-quantile latency, us: `None` when a window has fewer than
    /// ten samples beyond it.
    fn p(&self, q: f64) -> Option<f64> {
        Step::windowed(&self.lat, q)
    }

    fn late_p99_us(&self) -> Option<f64> {
        Step::windowed(&self.late, 0.99)
    }

    fn samples(&self) -> usize {
        self.lat.iter().map(Vec::len).sum()
    }

    /// Fewest samples beyond the `q`-quantile in any window.
    fn beyond(&self, q: f64) -> f64 {
        self.lat
            .iter()
            .map(|w| (w.len() as f64 * (1.0 - q)).floor())
            .fold(f64::INFINITY, f64::min)
    }

    fn passes(&self) -> bool {
        self.p(0.99).is_some_and(|p| p <= P99_LIMIT_US)
            && self.late_p99_us().is_some_and(|l| l <= LATE_LIMIT_US)
            && self.done_in_window as f64 >= KEEP_PACE * self.sent as f64
    }
}

struct Gen<'a> {
    conns: Vec<Conn>,
    fds: Vec<PollFd>,
    epoch: Instant,
    ops: &'a [ScenarioOp],
    /// Ops sent so far; the next op is `ops[seq % len]`.
    seq: u64,
    last_written: HashMap<Key, Value>,
    /// Event clock over sends and replies, for the scan check.
    ev: u64,
    acks: Vec<(Key, u64)>,
    scans: Vec<ScanReply>,
    failed: u64,
    corrupt: bool,
    req_bytes: u64,
    resp_bytes: u64,
    /// Client-seen ns by stream position, while a traced step runs.
    traced: Option<(u64, Vec<f64>)>,
    spans: Spans,
}

impl<'a> Gen<'a> {
    fn connect(
        server: &TpcServer,
        ops: &'a [ScenarioOp],
        warm: &[ScenarioOp],
    ) -> io::Result<Gen<'a>> {
        let mut conns = Vec::new();
        let mut fds = Vec::new();
        for addr in server.worker_addrs() {
            let sock = TcpStream::connect(addr)?;
            sock.set_nodelay(true)?;
            sock.set_nonblocking(true)?;
            fds.push(PollFd::new(sock.as_raw_fd(), POLL_IN));
            conns.push(Conn {
                sock,
                out: Vec::with_capacity(1 << 16),
                written: 0,
                inb: Vec::with_capacity(1 << 16),
                pending: VecDeque::new(),
            });
        }
        let mut last_written = HashMap::with_capacity(warm.len() + ops.len());
        for op in warm {
            if let ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) = *op {
                last_written.insert(k, v);
            }
        }
        Ok(Gen {
            conns,
            fds,
            epoch: Instant::now(),
            ops,
            seq: 0,
            last_written,
            ev: 1,
            acks: Vec::new(),
            scans: Vec::new(),
            failed: 0,
            corrupt: false,
            req_bytes: 0,
            resp_bytes: 0,
            traced: None,
            spans: Spans::new(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn inflight(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    fn send(&mut self, due: u64) {
        let op = self.ops[(self.seq % self.ops.len() as u64) as usize];
        let (req, expect) = match op {
            ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) => {
                self.last_written.insert(k, v);
                (Request::Set(k, v), Expect::Set(k))
            }
            ScenarioOp::Read(k) => (
                Request::Get(k),
                Expect::Get(self.last_written.get(&k).copied()),
            ),
            ScenarioOp::Delete(k) => {
                self.last_written.remove(&k);
                (Request::Del(k), Expect::Del)
            }
            ScenarioOp::Scan(s) => (
                Request::Scan(s, SCAN_COUNT),
                Expect::Scan {
                    start: s,
                    sent_ev: self.ev,
                },
            ),
        };
        self.ev += 1;
        let c = &mut self.conns[owner(op_key(&op), self.fds.len())];
        let before = c.out.len();
        c.out.extend_from_slice(format_request(&req).as_bytes());
        c.out.push(b'\n');
        self.req_bytes += (c.out.len() - before) as u64;
        c.pending.push_back(Pending {
            due,
            seq: self.seq,
            expect,
        });
        self.seq += 1;
    }

    /// Checks one reply against what its request expected.
    fn complete(&mut self, p: Pending, resp: Result<Response, String>, now: u64, step: &mut Step) {
        let ns = now.saturating_sub(p.due) as f64;
        let w = step.window(p.due);
        step.lat[w].push(ns);
        if let Some((first, v)) = &mut self.traced {
            if p.seq >= *first {
                let i = (p.seq - *first) as usize;
                if v.len() <= i {
                    v.resize(i + 1, f64::NAN);
                }
                v[i] = ns;
                let t = |x: u64| self.epoch + Duration::from_nanos(x);
                self.spans
                    .push(p.seq - *first, "protocol.request", None, t(p.due), t(now));
            }
        }
        let ok = match (p.expect, resp) {
            (Expect::Set(k), Ok(Response::Ok)) => {
                self.acks.push((k, self.ev));
                true
            }
            (Expect::Get(want), Ok(Response::Value(v))) => {
                let corrupt = std::mem::take(&mut self.corrupt);
                want.map(|w| if corrupt { w ^ 1 } else { w }) == Some(v)
            }
            (Expect::Get(want), Ok(Response::Miss)) => want.is_none(),
            (Expect::Del, Ok(Response::Deleted(_) | Response::Miss)) => true,
            (Expect::Scan { start, sent_ev }, Ok(Response::Range(pairs))) => {
                self.scans.push(ScanReply {
                    start,
                    sent_ev,
                    keys: pairs.into_iter().map(|(k, _)| k).collect(),
                });
                true
            }
            _ => false,
        };
        self.ev += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// One pass over both connections: write what is queued, read and
    /// check what arrived. Waits up to `wait` for readiness. Returns
    /// whether anything moved.
    fn io(&mut self, step: &mut Step, wait: Duration) -> io::Result<bool> {
        for (fd, c) in self.fds.iter_mut().zip(&self.conns) {
            fd.events = if c.written < c.out.len() {
                POLL_IN | POLL_OUT
            } else {
                POLL_IN
            };
            fd.revents = 0;
        }
        if poll_events(&mut self.fds, Some(wait))? == 0 {
            return Ok(false);
        }
        let mut moved = false;
        let mut buf = [0u8; 1 << 16];
        for i in 0..self.conns.len() {
            let (readable, writable) = (self.fds[i].readable(), self.fds[i].writable());
            if writable {
                let c = &mut self.conns[i];
                match c.sock.write(&c.out[c.written..]) {
                    Ok(n) => {
                        c.written += n;
                        moved |= n > 0;
                        if c.written == c.out.len() {
                            c.out.clear();
                            c.written = 0;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            if readable {
                loop {
                    match self.conns[i].sock.read(&mut buf) {
                        Ok(0) => return Err(io::Error::other("server closed a connection")),
                        Ok(n) => {
                            self.conns[i].inb.extend_from_slice(&buf[..n]);
                            moved = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) => return Err(e),
                    }
                }
                let now = self.now();
                let inb = std::mem::take(&mut self.conns[i].inb);
                let mut at = 0;
                while let Some(nl) = inb[at..].iter().position(|&b| b == b'\n') {
                    let line = &inb[at..at + nl];
                    self.resp_bytes += nl as u64 + 1;
                    at += nl + 1;
                    let resp = std::str::from_utf8(line)
                        .map_err(|e| e.to_string())
                        .and_then(parse_response);
                    let Some(p) = self.conns[i].pending.pop_front() else {
                        return Err(io::Error::other("reply without a request"));
                    };
                    self.complete(p, resp, now, step);
                    step.done_in_window += 1;
                }
                let mut rest = inb;
                rest.drain(..at);
                self.conns[i].inb = rest;
            }
        }
        Ok(moved)
    }

    /// Sends at `rate` for `secs`, then waits for every reply.
    fn step(&mut self, rate: f64, secs: f64) -> io::Result<Step> {
        let windows = ((rate * secs / WINDOW_SAMPLES) as usize).clamp(1, MAX_WINDOWS);
        let start = self.now();
        let mut st = Step {
            rate,
            start,
            window_ns: (secs * 1e9 / windows as f64) as u64,
            lat: vec![Vec::new(); windows],
            late: vec![Vec::new(); windows],
            ..Step::default()
        };
        let planned = (rate * secs).round().max(1.0) as u64;
        let interval = 1e9 / rate;
        let end = start + (secs * 1e9) as u64;
        let mut k = 0u64;
        loop {
            let now = self.now();
            while k < planned {
                let due = start + (k as f64 * interval) as u64;
                if due > now {
                    break;
                }
                self.send(due);
                let w = st.window(due);
                st.late[w].push(now.saturating_sub(due) as f64);
                k += 1;
            }
            let moved = self.io(&mut st, Duration::ZERO)?;
            st.backlog_max = st.backlog_max.max(self.inflight());
            if k >= planned && now >= end {
                break;
            }
            if !moved {
                std::hint::spin_loop();
            }
        }
        st.sent = k;
        let done_in_window = st.done_in_window;
        let deadline = Instant::now() + DRAIN;
        while self.inflight() > 0 {
            if Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "{} replies missing {DRAIN:?} after a {rate} ops/s step",
                    self.inflight()
                )));
            }
            if !self.io(&mut st, Duration::ZERO)? {
                std::hint::spin_loop();
            }
        }
        st.done_in_window = done_in_window;
        st.last = self.seq;
        for w in st.lat.iter_mut().chain(st.late.iter_mut()) {
            w.sort_by(f64::total_cmp);
        }
        Ok(st)
    }

    /// Keeps `depth` requests in flight for `secs`: a closed loop, timed
    /// from each actual send.
    fn closed(&mut self, depth: usize, secs: f64) -> io::Result<Step> {
        let windows = MAX_WINDOWS;
        let start = self.now();
        let mut st = Step {
            rate: 0.0,
            start,
            window_ns: (secs * 1e9 / windows as f64) as u64,
            lat: vec![Vec::new(); windows],
            late: vec![Vec::new(); windows],
            ..Step::default()
        };
        let end = start + (secs * 1e9) as u64;
        let mut k = 0u64;
        loop {
            let now = self.now();
            if now >= end {
                break;
            }
            while self.inflight() < depth {
                self.send(self.now());
                k += 1;
            }
            // Every slot is in flight: sleep in poll until a reply comes,
            // so the generator's CPU time is its own work, not spinning.
            self.io(&mut st, CLOSED_WAIT)?;
        }
        st.sent = k;
        while self.inflight() > 0 {
            self.io(&mut st, CLOSED_WAIT)?;
        }
        st.last = self.seq;
        for w in st.lat.iter_mut() {
            w.sort_by(f64::total_cmp);
        }
        Ok(st)
    }

    /// Checks every scan reply: strictly increasing keys from `start`,
    /// containing every key whose insert was acknowledged before the scan
    /// was sent, and no key the generator never wrote. Returns failures.
    fn check_scans(&self, warm: &[ScenarioOp]) -> u64 {
        let mut acked: BTreeMap<Key, u64> = BTreeMap::new();
        for op in warm {
            if let ScenarioOp::Insert(k, _) | ScenarioOp::Update(k, _) = *op {
                acked.insert(k, 0);
            }
        }
        for &(k, ev) in &self.acks {
            acked.entry(k).or_insert(ev);
        }
        let mut failed = 0;
        for s in &self.scans {
            let sorted = s.keys.windows(2).all(|w| w[0] < w[1]);
            let in_range = s.keys.first().is_none_or(|&k| k >= s.start);
            let known = s.keys.iter().all(|k| acked.contains_key(k));
            let end = match s.keys.last() {
                Some(&last) if s.keys.len() >= SCAN_COUNT => last,
                _ => Key::MAX,
            };
            let complete = !sorted
                || acked
                    .range(s.start..=end)
                    .filter(|&(_, &ev)| ev < s.sent_ev)
                    .all(|(k, _)| s.keys.binary_search(k).is_ok());
            if !(sorted && in_range && known && complete) {
                failed += 1;
            }
        }
        failed
    }
}

const LAYERS: [&str; 5] = [
    "client format (protocol::format_request)",
    "server parse (protocol::parse_request)",
    "apply (DyTis on a mirror shard)",
    "server format (protocol::format_response)",
    "client parse (protocol::parse_response)",
];

/// Replays every op sent, in order, through the protocol functions and
/// mirror shards, timing the ops of the traced step. Returns the layer
/// samples and the index ns by op type (insert, get, scan).
fn replay(
    warm: &[ScenarioOp],
    ops: &[ScenarioOp],
    sent: u64,
    first: u64,
    client_ns: &[f64],
    workers: usize,
) -> (LayerSamples, [Vec<f64>; 3]) {
    let mut mirrors: Vec<DyTis> = (0..workers).map(|_| DyTis::new()).collect();
    for op in warm {
        if let ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) = *op {
            mirrors[shard_of(k, workers)].insert(k, v);
        }
    }
    let mut samples = LayerSamples::new(&LAYERS);
    let mut by_type: [Vec<f64>; 3] = Default::default();
    let mut out = Vec::with_capacity(SCAN_COUNT);
    for seq in 0..sent {
        let op = ops[(seq % ops.len() as u64) as usize];
        let mirror = &mut mirrors[shard_of(op_key(&op), workers)];
        let req = match op {
            ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) => Request::Set(k, v),
            ScenarioOp::Read(k) => Request::Get(k),
            ScenarioOp::Delete(k) => Request::Del(k),
            ScenarioOp::Scan(s) => Request::Scan(s, SCAN_COUNT),
        };
        let t0 = Instant::now();
        let line = format_request(&req);
        let t1 = Instant::now();
        let parsed = parse_request(&line);
        let t2 = Instant::now();
        let (resp, kind) = match parsed {
            Ok(Request::Set(k, v)) => {
                mirror.insert(k, v);
                (Response::Ok, 0)
            }
            Ok(Request::Get(k)) => (mirror.get(k).map_or(Response::Miss, Response::Value), 1),
            Ok(Request::Del(k)) => (
                mirror.remove(k).map_or(Response::Miss, Response::Deleted),
                0,
            ),
            Ok(Request::Scan(s, n)) => {
                out.clear();
                mirror.scan(s, n, &mut out);
                (Response::Range(out.clone()), 2)
            }
            _ => (Response::Err("unexpected".into()), 0),
        };
        let t3 = Instant::now();
        let text = format_response(&resp);
        let t4 = Instant::now();
        let back = parse_response(&text);
        let t5 = Instant::now();
        debug_assert!(back.is_ok());
        if seq >= first {
            let Some(&client) = client_ns.get((seq - first) as usize) else {
                continue;
            };
            if client.is_nan() {
                continue;
            }
            let d = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as f64;
            by_type[kind].push(d(t2, t3));
            samples.add(
                client,
                &[d(t0, t1), d(t1, t2), d(t2, t3), d(t3, t4), d(t4, t5)],
            );
        }
    }
    (samples, by_type)
}

/// Runs `kv-drift-open`.
///
/// # Errors
///
/// Server start, connection or protocol failures, or a step whose
/// replies do not all arrive.
pub fn run(o: &Opts) -> io::Result<Outcome> {
    let scale = if o.small { SMALL_SCALE } else { SCALE };
    let (warm, ops) = inproc::drift_stream(o.seed, scale);
    let workers = nproc();
    let pairs: Vec<(Key, Value)> = warm
        .iter()
        .filter_map(|op| match *op {
            ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) => Some((k, v)),
            _ => None,
        })
        .collect();
    let mut setup_s = Vec::new();
    let mut bytes_per_key = 0.0;
    let mut live: Option<TpcServer> = None;
    for _ in 0..SETUPS {
        if let Some(server) = live.take() {
            server.shutdown();
        }
        let h0 = heap::live_bytes();
        let t0 = Instant::now();
        let server = TpcServer::with_options(
            "127.0.0.1:0",
            TpcOptions {
                workers,
                ..TpcOptions::default()
            },
        )?;
        let mut client = RoutedClient::connect(server.worker_addrs())?;
        client.set_batch(&pairs)?;
        let len = client.len()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        bytes_per_key = (heap::live_bytes() - h0) as f64 / len.max(1) as f64;
        client.quit()?;
        live = Some(server);
    }
    let Some(server) = live else {
        unreachable!("SETUPS > 0");
    };

    let mut out = Outcome::default();
    let mut g = Gen::connect(&server, &ops, &warm)?;
    g.corrupt = o.corrupt;
    let closed = if o.trace {
        None
    } else {
        let c0 = process_cpu_ns();
        let st = g.closed(CLOSED_DEPTH, o.seconds * CLOSED_SHARE)?;
        Some((st, process_cpu_ns() - c0))
    };
    let light = g.step(LIGHT_OPS_S, o.seconds * LIGHT_SHARE)?;
    let heavy = g.step(HEAVY_OPS_S, o.seconds * HEAVY_SHARE)?;
    let mut steps = Vec::new();
    let mut traced_step = None;
    let (wakeups0, batch_ops0) = (
        obs::counter("kv.wakeups").get(),
        obs::counter("kv.batch_ops").get(),
    );
    if o.trace {
        g.traced = Some((g.seq, Vec::new()));
        traced_step = Some(g.step(HEAVY_OPS_S, o.seconds * HEAVY_SHARE)?);
    } else {
        // Grow until a step fails, then bisect between the last pass and
        // the first failure.
        let step_s = o.seconds * STEP_SHARE;
        let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
        let mut rate = HEAVY_OPS_S;
        for _ in 0..MAX_STEPS {
            let st = g.step(rate, step_s)?;
            let pass = st.passes();
            steps.push(st);
            if pass {
                lo = Some(rate);
            } else {
                hi = Some(rate);
            }
            rate = match (lo, hi) {
                (Some(l), Some(h)) => (l * h).sqrt(),
                (Some(l), None) => l * GROWTH,
                (None, Some(h)) => h / GROWTH,
                (None, None) => unreachable!("one step ran"),
            };
        }
        out.extra.push(m("max_rate_ops_s", "ops/s", lo));
    }
    let wakeups = obs::counter("kv.wakeups").get() - wakeups0;
    let batch_ops = obs::counter("kv.batch_ops").get() - batch_ops0;
    let sent = g.seq;
    server.shutdown();

    out.attempted = sent;
    out.failed = g.failed + g.check_scans(&warm);
    // Throughput, p50 and CPU per op come from the closed-loop phase: on a
    // small shared machine the open-loop percentiles and the rate search
    // swing between runs far more (README.md).
    let (tput, p50, p99, cpu) = match &closed {
        Some((c, cpu_ns)) => {
            let per_window: Vec<f64> = c
                .lat
                .iter()
                .map(|w| w.len() as f64 / (c.window_ns as f64 / 1e9))
                .collect();
            let mut all: Vec<f64> = c.lat.concat();
            let us = |ns: Option<f64>| ns.map(|x| x / 1e3);
            let cpu = *cpu_ns as f64 / 1e3 / all.len().max(1) as f64;
            (
                median(&per_window),
                us(pct_of(&mut all, 0.5)),
                us(pct_of(&mut all, 0.99)),
                Some(cpu),
            )
        }
        None => (None, None, None, None),
    };
    out.e2e = vec![
        m("setup_s", "s", median(&setup_s)),
        m("throughput_ops_s", "ops/s", tput),
        m("lat_p50_us", "us", p50),
        m("bytes_per_key", "B", Some(bytes_per_key)),
        m("cpu_us_per_op", "us", cpu),
    ];
    out.extra.push(m("lat_p99_us", "us", p99));
    for (name, st) in [("light", &light), ("heavy", &heavy)] {
        out.extra
            .push(m(&format!("p50_us.{name}"), "us", st.p(0.5)));
        out.extra
            .push(m(&format!("p99_us.{name}"), "us", st.p(0.99)));
        out.extra.push(m(
            &format!("samples.{name}"),
            "count",
            Some(st.samples() as f64),
        ));
        out.extra.push(m(
            &format!("min_samples_beyond_p99.{name}"),
            "count",
            Some(st.beyond(0.99)),
        ));
        out.extra.push(m(
            &format!("gen.late_us.p99.{name}"),
            "us",
            st.late_p99_us(),
        ));
        out.extra.push(m(
            &format!("gen.backlog.max.{name}"),
            "count",
            Some(st.backlog_max as f64),
        ));
    }
    for st in &steps {
        out.lines.push(format!(
            "step {:>9.0} ops/s: {} | p50 {} us, p99 {} us ({} samples, {} beyond p99), \
             late p99 {} us, done in window {}/{}, backlog max {}",
            st.rate,
            if st.passes() { "pass" } else { "fail" },
            fmt(st.p(0.5)),
            fmt(st.p(0.99)),
            st.samples(),
            st.beyond(0.99),
            fmt(st.late_p99_us()),
            st.done_in_window,
            st.sent,
            st.backlog_max
        ));
    }

    // Placement: which worker owns each op's key, and which ops arrive on
    // the other worker's connection and take the forward hop.
    let mut share = vec![0u64; workers];
    let mut forwarded = 0u64;
    for seq in 0..sent {
        let op = ops[(seq % ops.len() as u64) as usize];
        let k = op_key(&op);
        share[shard_of(k, workers)] += 1;
        forwarded += u64::from(owner(k, workers) != shard_of(k, workers));
    }
    let mut key_share = vec![0u64; workers];
    for &(k, _) in &pairs {
        key_share[shard_of(k, workers)] += 1;
    }
    let ops_max = share.iter().copied().max().unwrap_or(0) as f64 / sent.max(1) as f64;
    let fwd = forwarded as f64 / sent.max(1) as f64;
    for (w, &c) in key_share.iter().enumerate() {
        out.extra.push(m(
            &format!("placement.key_share.w{w}"),
            "ratio",
            Some(c as f64 / pairs.len().max(1) as f64),
        ));
    }
    out.extra
        .push(m("placement.forwarded_share", "ratio", Some(fwd)));
    out.lines.push(format!(
        "placement kv-drift-open: key share per worker {:?} (shard_of over the warmup keys; \
         every in-repo sampler draws keys below 2^63, so with 2 workers all of them live on \
         worker 0), busiest worker's op share {ops_max:.4}, forwarded share {fwd:.4}",
        key_share
            .iter()
            .map(|&c| format!("{:.4}", c as f64 / pairs.len().max(1) as f64))
            .collect::<Vec<_>>()
    ));

    if let (Some(st), Some((first, client_ns))) = (&traced_step, &g.traced) {
        let (mut samples, mut by_type) = replay(&warm, &ops, st.last, *first, client_ns, workers);
        let (lines, p50s, residual) = samples.table("kv-drift-open (text, one request line)");
        out.lines.extend(lines);
        match g
            .spans
            .write(&format!("spans-kv-drift-open-seed{}.csv", o.seed))
        {
            Ok(path) => out
                .lines
                .push(format!("spans: {} written to {path}", g.spans.len())),
            Err(e) => out.lines.push(format!("spans: not written: {e}")),
        }
        let l = &mut out.layers;
        l.insert("protocol.format_request_ns".into(), p50s[0]);
        l.insert("protocol.parse_request_ns".into(), p50s[1]);
        l.insert("dytis.apply_ns.p50".into(), p50s[2]);
        l.insert("protocol.format_response_ns".into(), p50s[3]);
        l.insert("protocol.parse_response_ns".into(), p50s[4]);
        for (name, v) in ["insert", "get", "scan"].iter().zip(by_type.iter_mut()) {
            let p50 = pct_of(v, 0.5);
            let p99 = pct(v, 0.99);
            l.insert(format!("dytis.{name}_ns.p50"), p50);
            l.insert(format!("dytis.{name}_ns.p99"), p99);
        }
        l.insert(
            "protocol.bytes_per_op".into(),
            Some((g.req_bytes + g.resp_bytes) as f64 / sent.max(1) as f64),
        );
        l.insert("tpc.worker_share.max".into(), Some(ops_max));
        l.insert("tpc.forwarded_share".into(), Some(fwd));
        l.insert("tpc.residual_us.p50".into(), residual);
        l.insert(
            "kv.ops_per_wakeup".into(),
            (wakeups > 0).then(|| batch_ops as f64 / wakeups as f64),
        );
        l.insert("gen.late_us.p99".into(), st.late_p99_us());
        l.insert("gen.backlog.max".into(), Some(st.backlog_max as f64));
        if let (Some(u), Some(t)) = (heavy.p(0.5), st.p(0.5)) {
            l.insert("trace.overhead_pct".into(), Some((t - u) / u * 100.0));
        }
    }
    Ok(out)
}

fn fmt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |x| format!("{x:.1}"))
}
