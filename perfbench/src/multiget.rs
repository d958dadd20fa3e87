//! `kv-multiget`: a `TpcServer` with one worker per core, loaded with
//! about a million full-range keys, read by one client thread through one
//! `RoutedClient`: zipf-0.99 `get_batch` calls of 128 keys, every 20th
//! call a `set_batch` of 128 existing keys. Full-range keys spread over
//! the workers and the routed client never takes the forward hop, so
//! per-op server work dominates: DYF1 encode, decode and CRC, apply and
//! the index probe, with round trips amortised over the batch.

use crate::stats::{m, median, median_some, pct_of, process_cpu_ns, Outcome};
use crate::trace::{LayerSamples, Spans};
use crate::{heap, nproc, Opts};
use dytis::DyTis;
use index_traits::KvIndex;
use kvstore::frame::{self, Decoded};
use kvstore::{shard_of, RoutedClient, TpcOptions, TpcServer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Cursor};
use std::time::Instant;
use ycsb::ScrambledZipfian;

/// Keys loaded.
pub const KEYS: usize = 1 << 20;
const SMALL_KEYS: usize = 20_000;
/// Keys per call.
pub const BATCH: usize = 128;
/// One call in this many is a `set_batch`.
pub const SET_EVERY: u64 = 20;
/// Zipf constant of the key choice.
pub const THETA: f64 = 0.99;
/// Segments of the run, each on a freshly started and loaded server; the
/// median over their set-ups is `setup_s`.
const SEGMENTS: usize = 5;
/// The run is cut into this many windows, spread evenly over the
/// segments; each metric is the median over windows.
const WINDOWS: usize = 20;
/// Calls whose DYF1 bytes are counted: a fixed prefix of the call stream,
/// so `frame.bytes_per_op.*` repeats exactly for one seed.
const FRAME_SAMPLE_CALLS: u64 = 1024;
/// Pre-generated key choices, cycled.
const STREAM: usize = 1 << 21;

/// Distinct full-range keys: a bijective mix of `0..n`.
pub fn keys_for(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut z = i.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

const LAYERS: [&str; 5] = [
    "client encode (frame::encode_frame)",
    "server decode (frame::try_decode)",
    "apply (DyTis on a mirror shard)",
    "server encode (frame::encode_frame)",
    "client decode (frame::read_frame)",
];

/// Replays one call through each layer on the mirror shards and returns
/// the per-layer ns on the call's critical path and the request frame
/// count; pushes the index ns of every key to `per_key_ns`.
fn replay(
    mirrors: &mut [DyTis],
    keys: &[u64],
    values: Option<&[u64]>,
    per_key_ns: &mut Vec<f64>,
) -> ([f64; 5], usize) {
    let workers = mirrors.len();
    let mut ns = [0.0f64; 5];
    let mut frames = 0;
    let mut slowest = 0.0f64;
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    for (w, mirror) in mirrors.iter_mut().enumerate() {
        let mut words = Vec::new();
        for (j, &k) in keys.iter().enumerate() {
            if shard_of(k, workers) == w {
                words.push(k);
                if let Some(v) = values {
                    words.push(v[j]);
                }
            }
        }
        if words.is_empty() {
            continue;
        }
        frames += 1;
        let (op, resp_op) = if values.is_some() {
            (frame::OP_SET, frame::RESP_SET)
        } else {
            (frame::OP_GET, frame::RESP_GET)
        };
        req.clear();
        resp.clear();
        let t0 = Instant::now();
        frame::encode_frame(&mut req, op, &words);
        let t1 = Instant::now();
        let Decoded::Frame { words: got, .. } = frame::try_decode(&req) else {
            unreachable!("a frame just encoded decodes");
        };
        let t2 = Instant::now();
        let mut out = Vec::with_capacity(got.len() * 2);
        if values.is_some() {
            for kv in got.chunks_exact(2) {
                let s = Instant::now();
                mirror.insert(kv[0], kv[1]);
                per_key_ns.push(s.elapsed().as_nanos() as f64);
            }
            out.push((got.len() / 2) as u64);
        } else {
            for &k in &got {
                let s = Instant::now();
                let v = mirror.get(k);
                per_key_ns.push(s.elapsed().as_nanos() as f64);
                out.push(u64::from(v.is_some()));
                out.push(v.unwrap_or(0));
            }
        }
        let t3 = Instant::now();
        frame::encode_frame(&mut resp, resp_op, &out);
        let t4 = Instant::now();
        let decoded = frame::read_frame(&mut Cursor::new(&resp));
        let t5 = Instant::now();
        debug_assert!(decoded.is_ok());
        let d = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as f64;
        // The client encodes and decodes every frame in turn; the workers
        // serve their frames in parallel, so the slowest one is on the
        // critical path.
        ns[0] += d(t0, t1);
        ns[4] += d(t4, t5);
        let server = [d(t1, t2), d(t2, t3), d(t3, t4)];
        if server.iter().sum::<f64>() > slowest {
            slowest = server.iter().sum();
            ns[1..4].copy_from_slice(&server);
        }
    }
    (ns, frames)
}

/// DYF1 bytes of one call: request and response frames over the
/// non-empty worker partitions.
fn frame_bytes(keys: &[u64], workers: usize, set: bool) -> (u64, u64) {
    let mut per = vec![0u64; workers];
    for &k in keys {
        per[shard_of(k, workers)] += 1;
    }
    let overhead = (frame::HEADER_LEN + frame::TRAILER_LEN) as u64;
    let (mut req, mut resp) = (0, 0);
    for n in per.into_iter().filter(|&n| n > 0) {
        if set {
            req += overhead + 16 * n;
            resp += overhead + 8;
        } else {
            req += overhead + 8 * n;
            resp += overhead + 16 * n;
        }
    }
    (req, resp)
}

/// Runs `kv-multiget`.
///
/// # Errors
///
/// Server start, connection or call failures.
pub fn run(o: &Opts) -> io::Result<Outcome> {
    let n = if o.small { SMALL_KEYS } else { KEYS };
    let workers = nproc();
    let keys = keys_for(o.seed, n);
    let mut values: Vec<u64> = (0..n as u64).collect();
    let mut rng = StdRng::seed_from_u64(o.seed ^ 0x4D47_4554);
    let zipf = ScrambledZipfian::new(n, THETA);
    let stream: Vec<u32> = (0..STREAM).map(|_| zipf.sample(&mut rng) as u32).collect();

    let pairs: Vec<(u64, u64)> = keys.iter().copied().zip(values.iter().copied()).collect();
    let mut key_share = vec![0u64; workers];
    for &k in &keys {
        key_share[shard_of(k, workers)] += 1;
    }
    let mut mirrors: Vec<DyTis> = Vec::new();
    if o.trace {
        mirrors = (0..workers).map(|_| DyTis::new()).collect();
        for &(k, v) in &pairs {
            mirrors[shard_of(k, workers)].insert(k, v);
        }
    }

    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut cpu_us_per_op = Vec::new();
    let mut bytes_per_key = 0.0;
    let (mut wakeups, mut batch_ops) = (0u64, 0u64);
    let mut spans = Spans::new();
    let mut layers = LayerSamples::new(&LAYERS);
    let mut per_key_ns = Vec::new();
    let (mut win_tput, mut win_p50, mut win_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_tput = Vec::new();
    let (mut call_us, mut traced_call_us) = (Vec::new(), Vec::new());
    let (mut req_bytes, mut resp_bytes, mut frames, mut traced_calls) = (0u64, 0u64, 0usize, 0u64);
    let mut ops_share = vec![0u64; workers];
    let mut batch = vec![0u64; BATCH];
    let mut idx = vec![0usize; BATCH];
    let mut set_pairs = vec![(0u64, 0u64); BATCH];
    let mut set_values = vec![0u64; BATCH];
    let mut next_value = n as u64;
    let (mut pos, mut call) = (0usize, 0u64);
    let window_s = o.seconds / WINDOWS as f64;
    // The run is cut into segments, each on a freshly started and loaded
    // server: where the scheduler places the client and worker threads
    // moves a segment's throughput by up to half, and a median over
    // segments does not hang on one placement.
    for seg in 0..SEGMENTS {
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
        let applied = client.set_batch(&pairs)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if applied != n as u64 {
            return Err(io::Error::other(format!("load applied {applied} of {n}")));
        }
        bytes_per_key = (heap::live_bytes() - h0) as f64 / n as f64;
        for (v, &(_, initial)) in values.iter_mut().zip(&pairs) {
            *v = initial;
        }
        let wakeups0 = obs::counter("kv.wakeups").get();
        let batch_ops0 = obs::counter("kv.batch_ops").get();
        let (c0, attempted0) = (process_cpu_ns(), out.attempted);
        for w in 0..WINDOWS / SEGMENTS {
            // Traced runs alternate untraced and traced windows, so the
            // tracing overhead is measured in the same process.
            let traced = o.trace && (seg + w) % 2 == 1;
            call_us.clear();
            let start = Instant::now();
            let mut ops = 0u64;
            while start.elapsed().as_secs_f64() < window_s {
                for j in 0..BATCH {
                    idx[j] = stream[pos] as usize;
                    batch[j] = keys[idx[j]];
                    pos = (pos + 1) % STREAM;
                }
                let is_set = call % SET_EVERY == SET_EVERY - 1;
                let t0 = Instant::now();
                if is_set {
                    for j in 0..BATCH {
                        set_values[j] = next_value;
                        set_pairs[j] = (batch[j], next_value);
                        next_value += 1;
                    }
                    let applied = client.set_batch(&set_pairs)?;
                    let t1 = Instant::now();
                    if applied != BATCH as u64 {
                        out.failed += BATCH as u64 - applied.min(BATCH as u64);
                    }
                    for j in 0..BATCH {
                        values[idx[j]] = set_values[j];
                    }
                    call_us.push(t1.duration_since(t0).as_nanos() as f64 / 1e3);
                } else {
                    let got = client.get_batch(&batch)?;
                    let t1 = Instant::now();
                    for j in 0..BATCH {
                        let mut want = values[idx[j]];
                        if o.corrupt && call == 0 && j == 0 {
                            want ^= 1;
                        }
                        if got.get(j).copied().flatten() != Some(want) {
                            out.failed += 1;
                        }
                    }
                    call_us.push(t1.duration_since(t0).as_nanos() as f64 / 1e3);
                }
                let t1 = Instant::now();
                out.attempted += BATCH as u64;
                ops += BATCH as u64;
                if call < FRAME_SAMPLE_CALLS {
                    let (rq, rs) = frame_bytes(&batch, workers, is_set);
                    req_bytes += rq;
                    resp_bytes += rs;
                }
                for &k in batch.iter() {
                    ops_share[shard_of(k, workers)] += 1;
                }
                if traced {
                    let client_ns = t1.duration_since(t0).as_nanos() as f64;
                    let vals = is_set.then_some(&set_values[..]);
                    let (ns, f) = replay(&mut mirrors, &batch, vals, &mut per_key_ns);
                    frames += f;
                    layers.add(client_ns, &ns);
                    traced_call_us.push(client_ns / 1e3);
                    let parent = spans.push(traced_calls, "binclient.call", None, t0, t1);
                    let names = [
                        "frame.encode.req",
                        "frame.decode.req",
                        "dytis.apply",
                        "frame.encode.resp",
                        "frame.decode.resp",
                    ];
                    // Replayed children: laid end to end after the call.
                    let mut at = t1;
                    for (name, d) in names.iter().zip(ns) {
                        let end = at + std::time::Duration::from_nanos(d as u64);
                        spans.push(traced_calls, name, parent, at, end);
                        at = end;
                    }
                    traced_calls += 1;
                }
                call += 1;
            }
            let tput = ops as f64 / start.elapsed().as_secs_f64();
            if traced {
                traced_tput.push(tput);
            } else {
                win_tput.push(tput);
                win_p50.push(pct_of(&mut call_us, 0.5));
                win_p99.push(pct_of(&mut call_us, 0.99));
            }
        }
        cpu_us_per_op.push(
            (process_cpu_ns() - c0) as f64 / 1e3 / (out.attempted - attempted0).max(1) as f64,
        );
        wakeups += obs::counter("kv.wakeups").get() - wakeups0;
        batch_ops += obs::counter("kv.batch_ops").get() - batch_ops0;
        client.quit()?;
        server.shutdown();
    }

    out.e2e = vec![
        m("setup_s", "s", median(&setup_s)),
        m("throughput_ops_s", "ops/s", median(&win_tput)),
        m("lat_p50_us", "us", median_some(&win_p50)),
        m("bytes_per_key", "B", Some(bytes_per_key)),
        m("cpu_us_per_op", "us", median(&cpu_us_per_op)),
    ];
    out.extra.push(m("lat_p99_us", "us", median_some(&win_p99)));
    let total_ops = out.attempted as f64;
    let ops_max = ops_share.iter().copied().max().unwrap_or(0) as f64 / total_ops;
    for (w, &c) in key_share.iter().enumerate() {
        out.extra.push(m(
            &format!("placement.key_share.w{w}"),
            "ratio",
            Some(c as f64 / n as f64),
        ));
    }
    out.extra
        .push(m("placement.forwarded_share", "ratio", Some(0.0)));
    out.lines.push(format!(
        "placement kv-multiget: key share per worker {:?} (shard_of over {n} loaded keys), \
         busiest worker's op share {ops_max:.4}, forwarded share 0 (routed by shard_of)",
        key_share
            .iter()
            .map(|&c| format!("{:.4}", c as f64 / n as f64))
            .collect::<Vec<_>>()
    ));
    if o.trace {
        let (lines, p50s, residual) = layers.table("kv-multiget (DYF1, one RoutedClient call)");
        out.lines.extend(lines);
        let file = format!("spans-kv-multiget-seed{}.csv", o.seed);
        match spans.write(&file) {
            Ok(path) => out
                .lines
                .push(format!("spans: {} written to {path}", spans.len())),
            Err(e) => out.lines.push(format!("spans: not written: {e}")),
        }
        let l = &mut out.layers;
        l.insert("frame.encode_ns.req".into(), p50s[0]);
        l.insert("frame.decode_ns.req".into(), p50s[1]);
        l.insert("dytis.apply_ns.p50".into(), p50s[2]);
        l.insert("frame.encode_ns.resp".into(), p50s[3]);
        l.insert("frame.decode_ns.resp".into(), p50s[4]);
        l.insert("dytis.get_ns.p50".into(), pct_of(&mut per_key_ns, 0.5));
        l.insert("dytis.get_ns.p99".into(), pct_of(&mut per_key_ns, 0.99));
        let framed_ops = (call.min(FRAME_SAMPLE_CALLS) * BATCH as u64) as f64;
        l.insert(
            "frame.bytes_per_op.req".into(),
            Some(req_bytes as f64 / framed_ops),
        );
        l.insert(
            "frame.bytes_per_op.resp".into(),
            Some(resp_bytes as f64 / framed_ops),
        );
        l.insert(
            "binclient.call_us.p50".into(),
            pct_of(&mut traced_call_us, 0.5),
        );
        l.insert(
            "binclient.call_us.p99".into(),
            pct_of(&mut traced_call_us, 0.99),
        );
        l.insert(
            "binclient.frames_per_call".into(),
            Some(frames as f64 / traced_calls.max(1) as f64),
        );
        l.insert("tpc.worker_share.max".into(), Some(ops_max));
        l.insert("tpc.forwarded_share".into(), Some(0.0));
        l.insert("tpc.residual_us.p50".into(), residual);
        l.insert(
            "kv.ops_per_wakeup".into(),
            (wakeups > 0).then(|| batch_ops as f64 / wakeups as f64),
        );
        if let (Some(u), Some(t)) = (median(&win_tput), median(&traced_tput)) {
            l.insert("trace.overhead_pct".into(), Some((u - t) / u * 100.0));
        }
    }
    Ok(out)
}
