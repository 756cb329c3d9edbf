//! Q5 on the threaded executor against the wall clock.
//!
//! One runner serves the three threaded workloads: open-loop on one member
//! (`build_local`), catch-up with a clock far past the schedule, and two
//! members wired by `build_cluster_execution` with exactly-once snapshots.
//! A traced run swaps in the member wiring with a tracer and the observed
//! executor, and aggregates trace rings and registry figures while it runs.

use crate::common::{compile_with_digest, interval, nexmark, q5_pipeline, MS, SEC};
use crate::digest::DigestBoard;
use crate::reference::{Check, Reference};
use jet_cluster::wiring::{build_cluster_execution, ClusterConfig};
use jet_core::exec::{spawn_threaded, spawn_threaded_observed, ExecObservability, ExecutionHandle};
use jet_core::metrics::{MetricsRegistry, MetricsSnapshot, SharedCounter, SharedHistogram};
use jet_core::network::InMemoryTransport;
use jet_core::plan::{build_local, LocalConfig};
use jet_core::processor::Guarantee;
use jet_core::snapshot::SnapshotRegistry;
use jet_core::trace::{TraceData, TraceKind, Tracer};
use jet_imdg::{Grid, SnapshotStore, DEFAULT_PARTITION_COUNT};
use jet_util::clock::{Clock, SharedClock, SystemClock};
use jet_util::Histogram;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Vertex names of the compiled Q5 job, in pipeline order.
pub const VERTICES: [&str; 5] = [
    "nexmark",
    "flat-map",
    "window-accumulate",
    "window-combine",
    "latency-sink",
];

/// One-way latency of the in-memory transport between members.
pub const NET_LATENCY: u64 = 50_000;

/// A wall clock that reads `offset` nanos ahead, so a whole schedule is
/// already due when the job starts (a job replaying its backlog).
struct OffsetClock {
    base: SystemClock,
    offset: u64,
}

impl Clock for OffsetClock {
    fn now_nanos(&self) -> u64 {
        self.base.now_nanos() + self.offset
    }
}

#[derive(Clone)]
pub struct Spec {
    pub rate: u64,
    pub events: u64,
    /// Cooperative worker threads (all members share them).
    pub workers: usize,
    /// 0: one member through `build_local`; otherwise members wired by
    /// `build_cluster_execution`.
    pub members: usize,
    /// Clock reads this far past the schedule (0: the plain wall clock).
    pub clock_offset: u64,
    /// Schedule time before the measured span.
    pub warmup: u64,
    /// Measured 1 s latency intervals (0: run to the end unmeasured).
    pub intervals: usize,
    /// Exactly-once snapshots, one triggered per second of the span.
    pub snapshots: bool,
}

impl Spec {
    fn guarantee(&self) -> Guarantee {
        if self.snapshots {
            Guarantee::ExactlyOnce
        } else {
            Guarantee::None
        }
    }
}

/// What a traced run saw, over its measured span.
#[derive(Default)]
pub struct Layers {
    pub span_s: f64,
    /// Call-span nanos and count per tasklet name.
    pub call_ns: HashMap<String, u64>,
    pub calls: u64,
    pub idle_parks: u64,
    /// Call-span durations.
    pub call_durations: SharedHistogram,
    pub source_max_gap_ns: u64,
    /// End of the last source call span, per trace track.
    pub last_source_end: HashMap<u32, u64>,
    pub dropped: u64,
    /// Registry at the start and end of the span.
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    /// Job clock − coalesced watermark at the combine vertex, per sample.
    pub wm_lag_ns: Vec<f64>,
    pub receive_window_min: Option<i64>,
    /// Largest `jet_state_resident_bytes` total seen while sampling.
    pub state_peak_bytes: i64,
    /// Records and key + value bytes per completed snapshot.
    pub snapshot_records: Vec<f64>,
    pub snapshot_bytes: f64,
}

/// The outcome of one job run.
pub struct Run {
    pub setup_s: f64,
    pub check: Check,
    /// Per-second latency histograms of the measured span.
    pub intervals: Vec<Histogram>,
    /// Wall nanos from the schedule's start to the last result.
    pub end_ns: u64,
    /// Timestamp of the last input event.
    pub last_ts: i64,
    pub events: u64,
    /// Seconds from trigger to completion, per snapshot.
    pub snapshot_s: Vec<f64>,
    pub snapshots_triggered: u64,
    pub cpu_s: f64,
    /// (nanos after the start, results) per window, for replay latency.
    pub arrivals: Vec<(u64, u64)>,
    pub layers: Option<Layers>,
    pub completed: bool,
}

struct Started {
    handle: ExecutionHandle,
    registry: Arc<SnapshotRegistry>,
    store: Option<SnapshotStore>,
    member_metrics: Vec<Arc<MetricsRegistry>>,
}

/// Tracer and registry for a traced run.
pub struct Observe {
    pub tracer: Tracer,
    pub registry: Arc<MetricsRegistry>,
}

impl Observe {
    pub fn new() -> Observe {
        Observe {
            // Unsampled rings, drained every 10 ms by the main thread.
            tracer: Tracer::with_config(1 << 16, 0),
            registry: Arc::new(MetricsRegistry::new()),
        }
    }
}

/// Compile, wire and spawn one job; returns it with the set-up seconds
/// (from `Pipeline::compile` to the executor running).
fn start(
    spec: &Spec,
    seed: u64,
    board: &Arc<DigestBoard>,
    hist: &SharedHistogram,
    clock: &SharedClock,
    obs: Option<&Observe>,
) -> (Started, f64) {
    let nex = nexmark(seed);
    let count = SharedCounter::new();
    let p = q5_pipeline(&nex, spec.rate, spec.events, hist, &count, None);
    let t0 = Instant::now();
    let dag = compile_with_digest(&p, spec.workers, board);
    let started = if spec.members == 0 && obs.is_none() {
        let cfg = LocalConfig::new(spec.workers).with_clock(clock.clone());
        let registry = Arc::new(SnapshotRegistry::disabled());
        let exec = build_local(&dag, &cfg, &registry, None).expect("Q5 wires");
        Started {
            handle: spawn_threaded(exec.tasklets, spec.workers, exec.cancelled),
            registry,
            store: None,
            member_metrics: Vec::new(),
        }
    } else {
        let members = spec.members.max(1);
        let grid = Grid::with_partition_count(members, members.min(2) - 1, DEFAULT_PARTITION_COUNT);
        let transport = Arc::new(InMemoryTransport::new(clock.clone(), NET_LATENCY));
        let (registry, store) = if spec.snapshots {
            let store = SnapshotStore::new(&grid, 1);
            (
                Arc::new(SnapshotRegistry::new(store.clone(), 0)),
                Some(store),
            )
        } else {
            (Arc::new(SnapshotRegistry::disabled()), None)
        };
        let cores = if spec.members == 0 { spec.workers } else { 1 };
        let mut cfg = ClusterConfig::new(cores, clock.clone()).with_guarantee(spec.guarantee());
        if let Some(o) = obs {
            cfg = cfg.with_tracer(o.tracer.clone());
        }
        let exec = build_cluster_execution(
            &dag,
            &grid.members(),
            &grid.table(),
            transport,
            &cfg,
            &registry,
            None,
        )
        .expect("Q5 wires across members");
        let member_metrics = exec.members.iter().map(|m| m.metrics.clone()).collect();
        let tasklets = exec
            .members
            .into_iter()
            .flat_map(|m| m.tasklets.into_iter().map(|(t, _)| t))
            .collect();
        let handle = match obs {
            Some(o) => {
                let eo = ExecObservability::new(o.registry.clone()).with_tracer(o.tracer.clone());
                spawn_threaded_observed(tasklets, spec.workers, exec.cancelled, &eo)
            }
            None => spawn_threaded(tasklets, spec.workers, exec.cancelled),
        };
        Started {
            handle,
            registry,
            store,
            member_metrics,
        }
    };
    (started, t0.elapsed().as_secs_f64())
}

/// Time `reps` further set-ups of the same job; each is cancelled as soon
/// as it runs.
pub fn extra_setups(spec: &Spec, seed: u64, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let board = Arc::new(DigestBoard::new(crate::common::WINDOW_SLIDE, 1));
            let clock = make_clock(spec);
            let (s, secs) = start(spec, seed, &board, &SharedHistogram::new(), &clock, None);
            s.handle.cancel_and_join();
            secs
        })
        .collect()
}

fn make_clock(spec: &Spec) -> SharedClock {
    if spec.clock_offset == 0 {
        jet_util::clock::system_clock()
    } else {
        Arc::new(OffsetClock {
            base: SystemClock::new(),
            offset: spec.clock_offset,
        })
    }
}

fn merged(metrics: &[Arc<MetricsRegistry>], obs: &Observe) -> MetricsSnapshot {
    let mut s = obs.registry.snapshot();
    for m in metrics {
        s.merge(&m.snapshot());
    }
    s
}

/// Fold drained trace records into the span's aggregates.
pub fn absorb(l: &mut Layers, data: &TraceData) {
    for e in &data.events {
        match e.rec.kind {
            TraceKind::Call => {
                let name = data.name(e.rec.name);
                *l.call_ns.entry(name.to_string()).or_default() += e.rec.dur;
                l.calls += 1;
                l.call_durations.record(e.rec.dur.max(1));
                if name == VERTICES[0] {
                    if let Some(prev) = l.last_source_end.get(&e.track) {
                        l.source_max_gap_ns =
                            l.source_max_gap_ns.max(e.rec.ts.saturating_sub(*prev));
                    }
                    l.last_source_end.insert(e.track, e.rec.ts + e.rec.dur);
                }
            }
            TraceKind::IdlePark => l.idle_parks += 1,
            _ => {}
        }
    }
    l.dropped += data.dropped;
}

/// Sample how far the combine vertex's coalesced watermark trails the job
/// clock (`now`), the keyed-state footprint and the smallest receive
/// window. The seen − coalesced gap is identically zero where the combine
/// vertex has one input channel, so the lag is taken against the clock:
/// watermark stride plus propagation on the open-loop workloads, the
/// remaining backlog in event time on catch-up.
pub fn sample_gauges(l: &mut Layers, snap: &MetricsSnapshot, now: u64) {
    for m in snap.get_all("jet_vertex_watermark_coalesced_nanos") {
        if m.tag("vertex") != Some(VERTICES[3]) {
            continue;
        }
        if let Some(wm) = m.as_gauge().filter(|wm| (0..i64::MAX / 2).contains(wm)) {
            l.wm_lag_ns.push(now as f64 - wm as f64);
        }
    }
    let resident: i64 = snap
        .get_all("jet_state_resident_bytes")
        .filter_map(|m| m.as_gauge())
        .sum();
    l.state_peak_bytes = l.state_peak_bytes.max(resident);
    for m in snap.get_all("jet_channel_receive_window") {
        if let Some(v) = m.as_gauge() {
            l.receive_window_min = Some(l.receive_window_min.map_or(v, |x| x.min(v)));
        }
    }
}

/// The main thread's state while a job runs: trace draining, snapshot
/// triggering and completion polling.
struct Pacer<'a> {
    spec: &'a Spec,
    obs: Option<&'a Observe>,
    job: &'a Started,
    clock: SharedClock,
    layers: Option<Layers>,
    scratch: TraceData,
    in_span: bool,
    next_drain: u64,
    snapshot_s: Vec<f64>,
    triggered: u64,
    pending: Option<(u64, Instant)>,
    next_trigger: u64,
}

impl Pacer<'_> {
    fn now(&self) -> u64 {
        self.clock.now_nanos() - self.spec.clock_offset
    }

    /// One step; sleeps at most `cap` (1 ms when polling).
    fn step(&mut self, cap: Duration) {
        let t = self.now();
        if let (Some(o), Some(l)) = (self.obs, self.layers.as_mut()) {
            if t >= self.next_drain {
                o.tracer.drain_into(&mut self.scratch);
                if self.in_span {
                    absorb(l, &self.scratch);
                    let snap = merged(&self.job.member_metrics, o);
                    sample_gauges(l, &snap, self.clock.now_nanos());
                }
                self.scratch.events.clear();
                self.scratch.dropped = 0;
                self.next_drain = t + 10 * MS;
            }
        }
        if self.spec.snapshots {
            if let Some((id, at)) = self.pending {
                if self.job.registry.completed() >= id {
                    self.snapshot_s.push(at.elapsed().as_secs_f64());
                    self.pending = None;
                    if let (Some(l), Some(store)) = (self.layers.as_mut(), self.job.store.as_ref())
                    {
                        l.snapshot_records.push(store.record_count(id) as f64);
                    }
                }
            }
            if self.in_span && self.pending.is_none() && t >= self.next_trigger {
                self.next_trigger += SEC;
                self.triggered += 1;
                if let Some(id) = self.job.registry.trigger() {
                    self.pending = Some((id, Instant::now()));
                }
            }
        }
        let poll = if self.spec.snapshots || self.obs.is_some() {
            Duration::from_millis(1)
        } else {
            cap
        };
        std::thread::sleep(cap.min(poll));
    }

    fn until(&mut self, deadline: u64) {
        while self.now() < deadline {
            let left = Duration::from_nanos(deadline.saturating_sub(self.now()));
            self.step(left);
        }
    }

    fn drain_discard(&mut self) {
        if let Some(o) = self.obs {
            o.tracer.drain_into(&mut self.scratch);
            self.scratch.events.clear();
        }
    }

    fn registry(&self) -> MetricsSnapshot {
        match self.obs {
            Some(o) => merged(&self.job.member_metrics, o),
            None => MetricsSnapshot::default(),
        }
    }
}

/// Run one job to its end and check its output against `reference`.
pub fn run(spec: &Spec, seed: u64, reference: &Reference, obs: Option<&Observe>) -> Run {
    let mut board = reference.board();
    board.reset_origin();
    let board = Arc::new(board);
    let hist = SharedHistogram::new();
    let clock = make_clock(spec);
    let cpu0 = crate::common::cpu_seconds();
    let (job, setup_s) = start(spec, seed, &board, &hist, &clock, obs);
    let mut d = Pacer {
        spec,
        obs,
        job: &job,
        clock,
        layers: obs.map(|_| Layers::default()),
        scratch: TraceData::with_capacity(usize::MAX),
        in_span: false,
        next_drain: 0,
        snapshot_s: Vec::new(),
        triggered: 0,
        pending: None,
        next_trigger: spec.warmup + SEC / 2,
    };

    // Measured span: per-second latency intervals.
    let mut intervals = Vec::new();
    if spec.intervals > 0 {
        d.until(spec.warmup);
        let mut prev = hist.snapshot();
        d.drain_discard();
        let before = d.registry();
        if let Some(l) = d.layers.as_mut() {
            l.before = before;
        }
        d.in_span = true;
        for i in 0..spec.intervals {
            d.until(spec.warmup + (i as u64 + 1) * SEC);
            let cur = hist.snapshot();
            intervals.push(interval(&prev, &cur));
            prev = cur;
        }
        let after = d.registry();
        if let Some(l) = d.layers.as_mut() {
            l.after = after;
            l.span_s = spec.intervals as f64;
        }
        d.in_span = false;
    } else {
        let before = d.registry();
        if let Some(l) = d.layers.as_mut() {
            l.before = before;
        }
        d.in_span = true;
    }
    // Run to the end: the source stops at its limit and the windows flush.
    let give_up = d.now() + 60 * SEC;
    while !job.handle.is_finished() && d.now() < give_up {
        d.step(Duration::from_millis(2));
    }
    let completed = job.handle.is_finished();
    let end_ns = d.now();
    while d.pending.is_some() && d.now() < give_up + SEC {
        d.step(Duration::from_millis(1));
    }
    let cpu_s = crate::common::cpu_seconds() - cpu0;
    if spec.intervals == 0 && obs.is_some() {
        d.next_drain = 0;
        d.step(Duration::ZERO);
        let after = d.registry();
        if let Some(l) = d.layers.as_mut() {
            l.after = after;
            l.span_s = end_ns as f64 / 1e9;
        }
    }
    if let (Some(l), Some(store)) = (d.layers.as_mut(), job.store.as_ref()) {
        if let Some(id) = store.latest_complete() {
            let bytes: usize = VERTICES
                .iter()
                .flat_map(|v| store.read_vertex(id, v))
                .map(|(k, v)| k.len() + v.len())
                .sum();
            l.snapshot_bytes = bytes as f64;
        }
    }
    let Pacer {
        layers,
        snapshot_s,
        triggered,
        ..
    } = d;
    job.handle.cancel_and_join();
    let check = reference.check(&board);
    let arrivals = (0..reference.windows.len())
        .map(|i| (board.arrival_nanos(i), board.digest(i).keys))
        .filter(|&(_, k)| k > 0)
        .collect();
    Run {
        setup_s,
        check,
        intervals,
        end_ns,
        last_ts: crate::reference::schedule(spec.events - 1, spec.rate),
        events: spec.events,
        snapshot_s,
        snapshots_triggered: triggered,
        cpu_s,
        arrivals,
        layers,
        completed,
    }
}
