//! Per-layer figures of a traced run, read from the trace rings and the
//! metrics registries the engine already keeps.

use crate::common::{median, Metrics};
use crate::threaded::{Layers, VERTICES};
use jet_core::metrics::MetricsSnapshot;

fn counter_delta(l: &Layers, name: &str, tags: &[(&str, &str)]) -> f64 {
    l.after.counter_total(name, tags) as f64 - l.before.counter_total(name, tags) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Count-weighted median of the per-instance medians of histogram `name`.
fn histogram_p50(snap: &MetricsSnapshot, name: &str) -> f64 {
    let mut v: Vec<(u64, u64)> = snap
        .get_all(name)
        .filter_map(|m| m.as_histogram())
        .filter(|h| h.count > 0)
        .map(|h| (h.p50, h.count))
        .collect();
    v.sort_unstable();
    let total: u64 = v.iter().map(|x| x.1).sum();
    let mut seen = 0;
    for (p50, c) in v {
        seen += c;
        if 2 * seen >= total {
            return p50 as f64;
        }
    }
    0.0
}

/// Input events of the span: what the source vertex emitted.
pub fn source_events(l: &Layers) -> f64 {
    counter_delta(l, "jet_events_out_total", &[("vertex", VERTICES[0])])
}

/// Rows 11–27 of the per-layer table. `call_p99_ns` is the p99 call
/// duration (the worker histogram on real threads, call spans in the
/// simulator); `busy_share` is computed by the caller for the same reason.
pub fn report(l: &Layers, busy_share: f64, call_p99_ns: f64, m: &mut Metrics) {
    let events = source_events(l);
    let span = l.span_s.max(1e-9);
    m.put("exec.busy_share", busy_share, "ratio");
    m.put(
        "exec.calls_per_event",
        ratio(l.calls as f64, events),
        "calls",
    );
    m.put("exec.call_p99_us", call_p99_ns / 1e3, "us");
    m.put("exec.idle_parks_per_s", l.idle_parks as f64 / span, "1/s");
    m.put(
        "source.max_call_gap_ms",
        l.source_max_gap_ns as f64 / 1e6,
        "ms",
    );
    for (label, vertex, by) in [
        ("source", VERTICES[0], "jet_events_out_total"),
        ("accumulate", VERTICES[2], "jet_events_in_total"),
        ("combine", VERTICES[3], "jet_events_in_total"),
        ("sink", VERTICES[4], "jet_events_in_total"),
    ] {
        let ns = l.call_ns.get(vertex).copied().unwrap_or(0) as f64;
        let items = counter_delta(l, by, &[("vertex", vertex)]);
        m.put(&format!("vertex.{label}.self_ns"), ratio(ns, items), "ns");
    }
    m.put(
        "queue.batch_p50",
        histogram_p50(&l.after, "jet_edge_batch_size"),
        "items",
    );
    m.put(
        "queue.stalls_per_s",
        counter_delta(l, "jet_backpressure_stalls_total", &[]) / span,
        "1/s",
    );
    let resident: i64 = l
        .after
        .get_all("jet_state_resident_bytes")
        .filter_map(|x| x.as_gauge())
        .sum();
    m.put(
        "state.resident_mb",
        resident as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    let lag = if l.wm_lag_ns.is_empty() {
        0.0
    } else {
        l.wm_lag_ns.iter().sum::<f64>() / l.wm_lag_ns.len() as f64
    };
    m.put("watermark.lag_ms", lag / 1e6, "ms");
    m.put(
        "net.bytes_per_event",
        ratio(
            counter_delta(l, "jet_channel_bytes_sent_total", &[]),
            events,
        ),
        "B",
    );
    m.put(
        "net.receive_window_min",
        l.receive_window_min.unwrap_or(0) as f64,
        "items",
    );
    let records = if l.snapshot_records.is_empty() {
        0.0
    } else {
        median(&l.snapshot_records)
    };
    m.put("snapshot.records", records, "count");
    m.put("snapshot.bytes", l.snapshot_bytes, "B");
    println!(
        "traced span {:.2} s: {} call spans, {} records dropped by full rings",
        l.span_s, l.calls, l.dropped
    );
}

/// p99 of the workers' call-duration histograms (the slowest worker).
pub fn worker_call_p99(l: &Layers) -> f64 {
    l.after
        .get_all("jet_worker_call_duration_nanos")
        .filter_map(|x| x.as_histogram())
        .map(|h| h.p99 as f64)
        .fold(0.0, f64::max)
}

/// Busy ÷ (busy + idle) worker rounds over the span.
pub fn worker_busy_share(l: &Layers) -> f64 {
    let busy = counter_delta(l, "jet_worker_busy_rounds_total", &[]);
    let idle = counter_delta(l, "jet_worker_idle_rounds_total", &[]);
    ratio(busy, busy + idle)
}
