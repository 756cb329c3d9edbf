//! Pieces every workload shares: the Q5 job, input seeding, latency
//! intervals, process figures and the result line.

use crate::digest::DigestBoard;
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::processor::{supplier, Inbox, Outbox, Processor, ProcessorContext};
use jet_core::processors::WatermarkPolicy;
use jet_core::{downcast_ref, Dag, Ts};
use jet_nexmark::{queries, NexmarkConfig};
use jet_pipeline::{Pipeline, WindowDef, WindowResult};
use jet_util::Histogram;
use std::collections::HashMap;
use std::sync::Arc;

pub const SEC: u64 = 1_000_000_000;
pub const MS: u64 = 1_000_000;
/// Q5's window: 1 s sliding every 10 ms (paper §7.1).
pub const WINDOW_SIZE: i64 = SEC as i64;
pub const WINDOW_SLIDE: i64 = 10 * MS as i64;

pub fn window() -> WindowDef {
    WindowDef::sliding(WINDOW_SIZE, WINDOW_SLIDE)
}

/// The generator configuration for `seed`: the paper's 10k persons and
/// auctions, with the seed mixed into every draw.
pub fn nexmark(seed: u64) -> NexmarkConfig {
    NexmarkConfig {
        seed: crate::digest::mix64(seed ^ 0x5135_B0D5),
        ..NexmarkConfig::default()
    }
}

/// Name of the latency sink vertex the pipeline compiles to.
const SINK: &str = "latency-sink";

/// Q5 over the NEXMark generator into the latency sink.
pub fn q5_pipeline(
    nex: &NexmarkConfig,
    rate: u64,
    events: u64,
    hist: &SharedHistogram,
    count: &SharedCounter,
    sampler: Option<jet_core::flight::ProvenanceSampler>,
) -> Pipeline {
    let p = Pipeline::create();
    let src = queries::source(&p, nex, rate, Some(events), WatermarkPolicy::default());
    let out = queries::q5(&src, window());
    match sampler {
        Some(s) => out.write_to_latency_instrumented(
            hist.clone(),
            count.clone(),
            jet_core::flight::LatencyWatchdog::disabled(),
            s,
        ),
        None => out.write_to_latency(hist.clone(), count.clone()),
    };
    p
}

/// Compile `p` and put the digest stage ahead of the latency sink, inside
/// the sink's own vertex, so checking the output adds no vertex and no
/// queue hop to the measured path.
pub fn compile_with_digest(p: &Pipeline, lp: usize, board: &Arc<DigestBoard>) -> Dag {
    let dag = p.compile(lp).expect("Q5 compiles");
    let mut out = Dag::new();
    for v in dag.vertices() {
        let mut s = v.supplier.clone();
        if v.name == SINK {
            let (inner, board) = (s, board.clone());
            s = supplier(move |i| {
                Box::new(DigestSink {
                    inner: inner(i),
                    board: board.clone(),
                    passed: Inbox::new(),
                })
            });
        }
        match v.local_parallelism {
            Some(lp) => out.vertex_with_parallelism(v.name.clone(), lp, s),
            None => out.vertex(v.name.clone(), s),
        };
    }
    for e in dag.edges() {
        out.edge(e.clone());
    }
    out
}

/// Folds every window result into the digest board, then hands the batch
/// to the wrapped latency sink unchanged.
struct DigestSink {
    inner: Box<dyn Processor>,
    board: Arc<DigestBoard>,
    passed: Inbox,
}

impl Processor for DigestSink {
    fn init(&mut self, ctx: &ProcessorContext) {
        self.inner.init(ctx)
    }

    fn process(
        &mut self,
        ordinal: usize,
        inbox: &mut Inbox,
        outbox: &mut Outbox,
        ctx: &ProcessorContext,
    ) {
        while let Some((ts, obj)) = inbox.take() {
            let r = downcast_ref::<WindowResult<u64, u64>>(obj.as_ref());
            self.board.record(r.end, r.key, r.value);
            self.passed.push(ts, obj);
        }
        self.inner.process(ordinal, &mut self.passed, outbox, ctx);
    }

    fn try_process_watermark(
        &mut self,
        wm: Ts,
        outbox: &mut Outbox,
        ctx: &ProcessorContext,
    ) -> bool {
        self.inner.try_process_watermark(wm, outbox, ctx)
    }

    fn complete_edge(
        &mut self,
        ordinal: usize,
        outbox: &mut Outbox,
        ctx: &ProcessorContext,
    ) -> bool {
        self.inner.complete_edge(ordinal, outbox, ctx)
    }

    fn complete(&mut self, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        self.inner.complete(outbox, ctx)
    }
}

/// The histogram of samples recorded between two cumulative snapshots.
pub fn interval(prev: &Histogram, cur: &Histogram) -> Histogram {
    let before: HashMap<u64, u64> = prev.iter_buckets().collect();
    let mut h = Histogram::latency();
    for (low, c) in cur.iter_buckets() {
        h.record_n(low, c - before.get(&low).copied().unwrap_or(0));
    }
    h
}

/// Median of the per-interval percentile `p`, in milliseconds.
pub fn interval_median_ms(intervals: &[Histogram], p: f64) -> f64 {
    let v: Vec<f64> = intervals
        .iter()
        .filter(|h| h.count() > 0)
        .map(|h| h.percentile(p) as f64 / 1e6)
        .collect();
    median(&v)
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(f64::NAN)
}

/// Peak resident set of this process so far (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// User + system CPU seconds this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// One named figure of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// What a run attempted, what failed, and whether its outputs were right.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: one JSON object, printed last.
pub fn result_line(o: &Outcome, m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name,
                    json_number(x.value),
                    x.unit
                )
            })
            .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        body.join(", ")
    )
}
