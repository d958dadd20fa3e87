//! Spans recorded around calls into each layer, kept in memory and
//! written out when the run ends, and the "sum of layers vs client-seen"
//! table built from them.
//!
//! A served request's parent span is the client-seen call. Its child
//! spans replay the same request in-process through each layer's public
//! function (client encode, server decode, index apply, server encode,
//! client decode), so a child's interval lies after its parent's: the
//! parent's self time, client-seen minus its children, is what the
//! replay cannot reach (kernel, loopback, reactor wakeup, forward hop).

use crate::stats::pct_of;
use std::fmt::Write as _;
use std::time::Instant;

/// Directory, relative to the working directory, that traces go to.
pub const OUT_DIR: &str = ".bench_out";
/// Requests whose spans are kept; later requests are still measured.
pub const MAX_TRACED_REQUESTS: u64 = 20_000;

/// One span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Request id, shared by all spans of one request.
    id: u64,
    name: &'static str,
    /// Index of the parent span in the recorder, if any.
    parent: Option<usize>,
    /// Nanoseconds since the recorder started.
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span store.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder started, for span bounds.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span if its request is among the kept ones; returns its
    /// index for use as a parent.
    pub fn push(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if id >= MAX_TRACED_REQUESTS {
            return None;
        }
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Writes the spans as CSV to `OUT_DIR/<file>` and returns the path.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write(&self, file: &str) -> std::io::Result<String> {
        std::fs::create_dir_all(OUT_DIR)?;
        let path = format!("{OUT_DIR}/{file}");
        let mut s = String::from("id,name,parent,start_ns,end_ns\n");
        for sp in &self.spans {
            let parent = sp.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{},{},{},{},{}",
                sp.id, sp.name, parent, sp.start_ns, sp.end_ns
            );
        }
        std::fs::write(&path, s)?;
        Ok(path)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Per-request durations of each replayed layer, in ns, plus the
/// client-seen duration of the same requests.
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// `(row label, per-request ns)`, in the order a request crosses them.
    pub layers: Vec<(&'static str, Vec<f64>)>,
    /// Client-seen per-request ns.
    pub client: Vec<f64>,
}

impl LayerSamples {
    pub fn new(labels: &[&'static str]) -> LayerSamples {
        LayerSamples {
            layers: labels.iter().map(|&l| (l, Vec::new())).collect(),
            client: Vec::new(),
        }
    }

    /// Adds one request: its client-seen ns and each layer's ns.
    pub fn add(&mut self, client_ns: f64, layer_ns: &[f64]) {
        self.client.push(client_ns);
        for ((_, v), &x) in self.layers.iter_mut().zip(layer_ns) {
            v.push(x);
        }
    }

    /// The table of layer medians, their sum, the client-seen median and
    /// the residual that makes the rows add up to it exactly. Returns the
    /// lines, each layer's median (ns) and the residual (us).
    pub fn table(&mut self, title: &str) -> (Vec<String>, Vec<Option<f64>>, Option<f64>) {
        let mut lines = vec![format!(
            "layers {title}: median per request over {} requests",
            self.client.len()
        )];
        let mut p50s = Vec::new();
        let mut sum = 0.0;
        for (label, v) in &mut self.layers {
            let p = pct_of(v, 0.5);
            sum += p.unwrap_or(0.0);
            lines.push(format!("  {label:<34} {:>12.3} us", p.unwrap_or(0.0) / 1e3));
            p50s.push(p);
        }
        let client = pct_of(&mut self.client, 0.5);
        lines.push(format!(
            "  {:<34} {:>12.3} us",
            "sum of replayed layers",
            sum / 1e3
        ));
        let residual = client.map(|c| (c - sum) / 1e3);
        lines.push(format!(
            "  {:<34} {:>12.3} us",
            "residual: kernel+loopback+reactor",
            residual.unwrap_or(f64::NAN)
        ));
        lines.push(format!(
            "  {:<34} {:>12.3} us",
            "client-seen",
            client.unwrap_or(f64::NAN) / 1e3
        ));
        (lines, p50s, residual)
    }
}
