//! Q5 in the virtual-time simulator with fig9's recorders armed: 4 members
//! × 2 virtual cores at 400k ev/s, full-distribution attribution (flight
//! recorder span ring + provenance sampler) and the metrics timeline.

use crate::common::{compile_with_digest, interval, nexmark, q5_pipeline, MS, SEC, WINDOW_SLIDE};
use crate::digest::DigestBoard;
use crate::reference::{Check, Reference};
use crate::threaded::{absorb, sample_gauges, Layers};
use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::flight::{
    band_waterfalls, AttributionConfig, FlightConfig, FlightRecorder, LatencyWatchdog,
    ProvenanceSampler,
};
use jet_core::metrics::{MetricsSnapshot, SharedCounter, SharedHistogram};
use jet_core::telemetry::{Timeline, TimelineConfig};
use jet_core::trace::{TraceData, Tracer};
use jet_util::Histogram;
use std::sync::Arc;
use std::time::Instant;

pub const MEMBERS: usize = 4;
pub const CORES: usize = 2;
pub const RATE: u64 = 400_000;
pub const WARMUP: u64 = 1_500 * MS;
/// Measured 1 s intervals of virtual time.
pub const INTERVALS: usize = 2;
const TAIL: u64 = 500 * MS;

pub fn events() -> u64 {
    RATE * (WARMUP + INTERVALS as u64 * SEC + TAIL) / SEC
}

pub struct SimRun {
    pub setup_s: f64,
    /// Wall seconds of the whole simulated run (set-up excluded).
    pub wall_s: f64,
    pub virtual_s: f64,
    pub events: u64,
    pub intervals: Vec<Histogram>,
    /// Per virtual second: wall nanos from virtual time reaching a window's
    /// end to the window's first result reaching the sink, weighted by the
    /// window's results.
    pub wall_delays: Vec<Histogram>,
    /// Every latency sample of the run, for the determinism check.
    pub whole: Histogram,
    pub check: Check,
    pub completed: bool,
    pub layers: Option<Layers>,
    /// Bands the attribution decomposed (armed runs).
    pub bands: usize,
    /// Busy share of the virtual cores over the span.
    pub busy_share: f64,
}

/// Time `reps` further set-ups of the simulated job (compile and
/// `SimCluster::start`), each cancelled at once.
pub fn extra_setups(seed: u64, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let r = Recorders::new(true, false);
            let p = q5_pipeline(
                &nexmark(seed),
                RATE,
                events(),
                &SharedHistogram::new(),
                &SharedCounter::new(),
                Some(r.sampler),
            );
            let t0 = Instant::now();
            let dag = compile_with_digest(&p, CORES, &Arc::new(DigestBoard::new(WINDOW_SLIDE, 1)));
            let cluster = SimCluster::start(dag, config(r.tracer, r.flight, r.timeline))
                .expect("cluster starts");
            let secs = t0.elapsed().as_secs_f64();
            cluster.cancel();
            secs
        })
        .collect()
}

/// fig9's recorders: the flight recorder's span ring (fed by a 1-in-16
/// sampled tracer), the provenance sampler and the metrics timeline. A
/// traced run keeps every call span.
struct Recorders {
    flight: FlightRecorder,
    sampler: ProvenanceSampler,
    timeline: Timeline,
    tracer: Tracer,
}

impl Recorders {
    fn new(armed: bool, traced: bool) -> Recorders {
        let tracer = match (armed, traced) {
            (_, true) => Tracer::with_config(1 << 16, 0),
            (true, false) => Tracer::with_config(8192, 4),
            (false, false) => Tracer::disabled(),
        };
        if !armed {
            return Recorders {
                flight: FlightRecorder::disabled(),
                sampler: ProvenanceSampler::disabled(),
                timeline: Timeline::disabled(),
                tracer,
            };
        }
        Recorders {
            flight: FlightRecorder::with_config(
                FlightConfig::default(),
                LatencyWatchdog::disabled(),
            ),
            sampler: ProvenanceSampler::enabled(),
            timeline: Timeline::with_config(TimelineConfig::default()),
            tracer,
        }
    }
}

fn config(tracer: Tracer, flight: FlightRecorder, timeline: Timeline) -> SimClusterConfig {
    SimClusterConfig {
        members: MEMBERS,
        cores_per_member: CORES,
        cost_model: jet_sim::CostModel::paper_calibrated(),
        tracer,
        flight,
        timeline,
        ..Default::default()
    }
}

/// One simulated run. `armed` turns on attribution and the timeline;
/// `traced` also aggregates every call span of the measured span.
pub fn run(seed: u64, reference: &Reference, armed: bool, traced: bool) -> SimRun {
    let board = Arc::new(reference.board());
    let hist = SharedHistogram::new();
    let count = SharedCounter::new();
    let Recorders {
        flight,
        sampler,
        timeline,
        tracer,
    } = Recorders::new(armed, traced);
    let p = q5_pipeline(
        &nexmark(seed),
        RATE,
        events(),
        &hist,
        &count,
        Some(sampler.clone()),
    );
    let t0 = Instant::now();
    let dag = compile_with_digest(&p, CORES, &board);
    let cfg = config(tracer.clone(), flight.clone(), timeline.clone());
    let mut cluster = SimCluster::start(dag, cfg).expect("cluster starts");
    let setup_s = t0.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut scratch = TraceData::with_capacity(usize::MAX);
    let mut layers = traced.then(Layers::default);
    let collect = tracer.is_enabled();
    // Wall nanos (on the board's clock) at which virtual time reached each
    // window end, to turn result arrivals into wall-clock delays.
    let mut wall_at_end = vec![0u64; board.windows()];
    let registries = cluster.member_metrics().to_vec();
    let metrics_of = || {
        let mut snap = MetricsSnapshot::default();
        for r in &registries {
            snap.merge(&r.snapshot());
        }
        snap
    };
    let mut next_end = 0usize;
    // Every 10 ms of virtual time, drain the rings into the flight recorder
    // (and, when traced, into the span aggregates).
    let mut step =
        |cluster: &mut SimCluster, dur: u64, in_span: bool, layers: &mut Option<Layers>| {
            let mut next_drain = 0u64;
            let drain = |scratch: &mut TraceData, layers: &mut Option<Layers>| {
                if !collect {
                    return;
                }
                tracer.drain_into(scratch);
                flight.ingest(scratch, 0);
                if let (true, Some(l)) = (in_span, layers.as_mut()) {
                    absorb(l, scratch);
                }
                scratch.events.clear();
                scratch.dropped = 0;
            };
            let done = cluster.run_for_with(dur, |now| {
                while next_end < wall_at_end.len()
                    && now >= (next_end as u64 + 1) * WINDOW_SLIDE as u64
                {
                    wall_at_end[next_end] = board.now_nanos();
                    next_end += 1;
                }
                if now >= next_drain {
                    drain(&mut scratch, layers);
                    next_drain = now + 10 * MS;
                    if let (true, Some(l)) = (in_span, layers.as_mut()) {
                        sample_gauges(l, &metrics_of(), now);
                    }
                }
            });
            drain(&mut scratch, layers);
            done
        };

    step(&mut cluster, WARMUP, false, &mut layers);
    let busy0: u64 = cluster.busy_nanos().iter().sum();
    if let Some(l) = layers.as_mut() {
        l.before = cluster.job_metrics();
    }
    let mut prev = hist.snapshot();
    let mut intervals = Vec::new();
    for _ in 0..INTERVALS {
        step(&mut cluster, SEC, true, &mut layers);
        let cur = hist.snapshot();
        intervals.push(interval(&prev, &cur));
        prev = cur;
    }
    let busy1: u64 = cluster.busy_nanos().iter().sum();
    if let Some(l) = layers.as_mut() {
        l.after = cluster.job_metrics();
        l.span_s = INTERVALS as f64;
    }
    // The source stops at its limit; run until every window has flushed.
    let mut completed = false;
    for _ in 0..20 {
        if step(&mut cluster, TAIL, false, &mut layers) {
            completed = true;
            break;
        }
    }
    // Wall-clock delay from virtual time reaching a window's end to its
    // first result reaching the sink, per virtual second of the span.
    let delays = (0..INTERVALS)
        .map(|k| {
            let mut h = Histogram::latency();
            let first = (WARMUP + k as u64 * SEC) / WINDOW_SLIDE as u64;
            for i in first as usize..first as usize + (SEC / WINDOW_SLIDE as u64) as usize {
                let (at, arrived) = (wall_at_end[i - 1], board.arrival_nanos(i - 1));
                if at > 0 && arrived > 0 {
                    h.record_n(arrived.saturating_sub(at), board.digest(i - 1).keys);
                }
            }
            h
        })
        .collect();
    let whole = hist.snapshot();
    let bands = if armed {
        let b = [
            ("p50", 50.0, whole.percentile(50.0)),
            ("p99", 99.0, whole.percentile(99.0)),
            ("p99.99", 99.99, whole.percentile(99.99)),
        ];
        band_waterfalls(&sampler, &flight, &AttributionConfig::default(), &b)
            .bands
            .len()
    } else {
        0
    };
    let virtual_s = cluster.now() as f64 / 1e9;
    cluster.cancel();
    let wall_s = started.elapsed().as_secs_f64();
    let cores = (MEMBERS * CORES) as f64;
    SimRun {
        setup_s,
        wall_s,
        virtual_s,
        events: events(),
        intervals,
        wall_delays: delays,
        whole,
        check: reference.check(&board),
        completed,
        layers,
        bands,
        busy_share: (busy1 - busy0) as f64 / (INTERVALS as f64 * 1e9 * cores),
    }
}
