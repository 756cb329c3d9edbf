//! The four workloads and the figures each run reports.

use crate::common::{
    interval_median_ms, median, nexmark, peak_rss_mb, Metrics, Outcome, SEC, WINDOW_SIZE,
    WINDOW_SLIDE,
};
use crate::lanes::{self, Shape};
use crate::layers;
use crate::reference::{Check, Reference};
use crate::sim;
use crate::threaded::{self, Observe, Run, Spec};
use jet_util::Histogram;
use std::process::Command;
use std::time::Instant;

pub const NAMES: [&str; 4] = ["q5-open", "q5-catchup", "q5-cluster-eo", "q5-sim"];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Open,
    Catchup,
    ClusterEo,
    Sim,
}

impl Workload {
    fn name(self) -> &'static str {
        NAMES[self as usize]
    }

    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "q5-open" => Some(Workload::Open),
            "q5-catchup" => Some(Workload::Catchup),
            "q5-cluster-eo" => Some(Workload::ClusterEo),
            "q5-sim" => Some(Workload::Sim),
            _ => None,
        }
    }
}

/// Set-ups are timed in fresh processes, half before the measured job and
/// half after it, besides the measured job's own; set-up time is the median
/// of all of them. The host holds one speed for seconds at a time (q5-open's
/// set-ups sat near 57 or near 80 µs for a whole process), so set-ups taken
/// at one moment would report whichever speed that moment had.
const SETUP_PROCESSES: usize = 4;
/// A threaded set-up takes well under a millisecond, a simulated one a few.
const SETUPS_PER_PROCESS: usize = 25;
const SIM_SETUPS_PER_PROCESS: usize = 4;
const WARMUP: u64 = 2 * SEC;
/// Schedule after the measured span before the source's limit.
const TAIL: u64 = SEC / 2;
const CATCHUP_EVENTS: u64 = 16_000_000;
const CATCHUP_RATE: u64 = 200_000;

fn open_loop(rate: u64, seconds: u64, members: usize, snapshots: bool) -> Spec {
    Spec {
        rate,
        events: rate * (WARMUP + seconds * SEC + TAIL) / SEC,
        workers: 1,
        members,
        clock_offset: 0,
        warmup: WARMUP,
        intervals: seconds as usize,
        snapshots,
    }
}

fn spec(w: Workload, seconds: u64) -> Spec {
    match w {
        Workload::Open => open_loop(200_000, seconds, 0, false),
        Workload::ClusterEo => open_loop(20_000, seconds, 2, true),
        Workload::Catchup => Spec {
            rate: CATCHUP_RATE,
            events: CATCHUP_EVENTS,
            workers: 2,
            members: 0,
            // Every event is due: the clock reads one second past the
            // schedule's last event.
            clock_offset: CATCHUP_EVENTS / CATCHUP_RATE * SEC + SEC,
            warmup: 0,
            intervals: 0,
            snapshots: false,
        },
        Workload::Sim => unreachable!("the simulated workload has no threaded spec"),
    }
}

fn reference_for(w: Workload, seed: u64, seconds: u64) -> Reference {
    let (rate, events) = match w {
        Workload::Sim => (sim::RATE, sim::events()),
        _ => {
            let s = spec(w, seconds);
            (s.rate, s.events)
        }
    };
    Reference::compute(&nexmark(seed), rate, events, WINDOW_SIZE, WINDOW_SLIDE)
}

/// Results-weighted percentile of the time from the job's start until a
/// window reached the digest stage (the replay latency of a backlog).
fn replay_latency_ms(arrivals: &[(u64, u64)], p: f64) -> f64 {
    let mut h = Histogram::latency();
    for &(at, keys) in arrivals {
        h.record_n(at, keys);
    }
    h.percentile(p) as f64 / 1e6
}

fn describe(check: &Check, events: u64) {
    println!(
        "check: windows={} missing={} mismatched={} unexpected={} each_bid_in_k_windows={} events={}",
        check.windows,
        check.missing,
        check.mismatched,
        check.unexpected,
        check.each_bid_in_k_windows,
        events
    );
}

/// p50 and p99 as the median over 1 s intervals.
fn latency_figures(intervals: &[Histogram], m: &mut Metrics) {
    m.put("latency_p50_ms", interval_median_ms(intervals, 50.0), "ms");
    m.put("latency_p99_ms", interval_median_ms(intervals, 99.0), "ms");
    tail_reference(intervals);
}

/// Print the tail figures that carry no bound.
fn tail_reference(intervals: &[Histogram]) {
    let mut whole = Histogram::latency();
    for i in intervals {
        whole.merge(i);
    }
    println!(
        "reference: {} results; per-second median p99.99 {:.3} ms; whole span p99.99 {:.3} ms, max {:.3} ms",
        whole.count(),
        interval_median_ms(intervals, 99.99),
        whole.percentile(99.99) as f64 / 1e6,
        whole.max() as f64 / 1e6
    );
}

/// Outcome of threaded runs: windows (and snapshots) attempted and failed.
fn threaded_outcome(runs: &[Run]) -> Outcome {
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for r in runs {
        let snap_failed = r.snapshots_triggered - r.snapshot_s.len() as u64;
        o.attempted += r.check.windows + r.snapshots_triggered;
        o.failed += r.check.failed() + snap_failed;
        o.correct &= r.check.correct() && r.completed;
        describe(&r.check, r.events);
        if r.snapshots_triggered > 0 {
            println!(
                "snapshots: triggered={} completed={} median={:.4} s",
                r.snapshots_triggered,
                r.snapshot_s.len(),
                median(&r.snapshot_s)
            );
        }
    }
    o
}

/// Time `n` set-ups of `w` in this process and print their seconds; the
/// parent run reads them from the child's output.
pub fn setups_only(w: Workload, seed: u64, seconds: u64, n: usize) {
    let v = match w {
        Workload::Sim => sim::extra_setups(seed, n),
        _ => threaded::extra_setups(&spec(w, seconds), seed, n),
    };
    let text: Vec<String> = v.iter().map(|x| format!("{x:e}")).collect();
    println!("{}", text.join(" "));
}

/// Set-up seconds from `SETUP_PROCESSES` child processes, one after the
/// other, each waited for.
fn setup_samples(w: Workload, seed: u64, seconds: u64) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    let per = match w {
        Workload::Sim => SIM_SETUPS_PER_PROCESS,
        _ => SETUPS_PER_PROCESS,
    };
    let mut v = Vec::new();
    for _ in 0..SETUP_PROCESSES {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--setups",
                &per.to_string(),
            ])
            .output()
            .expect("set-up process starts");
        assert!(out.status.success(), "set-up process failed");
        let text = String::from_utf8_lossy(&out.stdout);
        v.extend(
            text.split_whitespace()
                .map(|x| x.parse::<f64>().expect("set-up process prints seconds")),
        );
    }
    v
}

/// Untraced runs: every end-to-end metric.
pub fn end_to_end(w: Workload, seed: u64, seconds: u64, m: &mut Metrics) -> Outcome {
    if w == Workload::Sim {
        return sim_end_to_end(seed, seconds, m);
    }
    let spec = spec(w, seconds);
    let reference = reference_for(w, seed, seconds);
    println!("peak RSS after the reference: {:.1} MiB", peak_rss_mb());
    let mut setups = setup_samples(w, seed, seconds);
    let mut runs = Vec::new();
    let started = Instant::now();
    // Catch-up repeats whole jobs until the time is spent; the open-loop
    // workloads run one job whose span is the time.
    loop {
        runs.push(threaded::run(&spec, seed, &reference, None));
        if w != Workload::Catchup || started.elapsed().as_secs() >= seconds {
            break;
        }
    }
    setups.extend(runs.iter().map(|r| r.setup_s));
    setups.extend(setup_samples(w, seed, seconds));
    let per_run = |f: &dyn Fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    m.put("setup_s", median(&setups), "s");
    m.put(
        "throughput_eps",
        per_run(&|r| r.events as f64 / (r.end_ns as f64 / 1e9)),
        "1/s",
    );
    if w == Workload::Catchup {
        for (name, p) in [("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)] {
            m.put(name, per_run(&|r| replay_latency_ms(&r.arrivals, p)), "ms");
        }
        let results: u64 = runs[0].arrivals.iter().map(|a| a.1).sum();
        println!(
            "reference: {} jobs, {} results per job, replay p99.99 {:.1} ms",
            runs.len(),
            results,
            per_run(&|r| replay_latency_ms(&r.arrivals, 99.99))
        );
    } else {
        latency_figures(&runs[0].intervals, m);
    }
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put(
        "wall_s_per_virtual_s",
        per_run(&|r| r.end_ns as f64 / r.last_ts as f64),
        "s/s",
    );
    threaded_outcome(&runs)
}

fn sim_outcome(runs: &[sim::SimRun]) -> Outcome {
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for (i, r) in runs.iter().enumerate() {
        o.attempted += r.check.windows;
        o.failed += r.check.failed();
        o.correct &= r.check.correct() && r.completed;
        describe(&r.check, r.events);
        if i > 0 {
            // The virtual histogram must repeat bit for bit.
            o.attempted += 1;
            if r.whole != runs[0].whole {
                o.failed += 1;
                o.correct = false;
                println!("determinism: run {i} histogram differs from run 0");
            }
        }
    }
    o
}

fn sim_end_to_end(seed: u64, seconds: u64, m: &mut Metrics) -> Outcome {
    let reference = reference_for(Workload::Sim, seed, seconds);
    let mut setups = setup_samples(Workload::Sim, seed, seconds);
    let started = Instant::now();
    let mut runs = Vec::new();
    // At least two runs, for the determinism check.
    while runs.len() < 2 || started.elapsed().as_secs() < seconds {
        runs.push(sim::run(seed, &reference, true, false));
    }
    let per_run = |f: &dyn Fn(&sim::SimRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    setups.extend(runs.iter().map(|r| r.setup_s));
    setups.extend(setup_samples(Workload::Sim, seed, seconds));
    m.put("setup_s", median(&setups), "s");
    m.put(
        "throughput_eps",
        per_run(&|r| r.events as f64 / r.wall_s),
        "1/s",
    );
    // The virtual latencies repeat exactly for every seed; the gated
    // figures are the wall-clock delays of simulated results.
    for (name, p) in [("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)] {
        m.put(
            name,
            per_run(&|r| interval_median_ms(&r.wall_delays, p)),
            "ms",
        );
    }
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put(
        "wall_s_per_virtual_s",
        per_run(&|r| r.wall_s / r.virtual_s),
        "s/s",
    );
    println!(
        "reference: {} simulated runs, attribution bands {}, virtual per-second p50 {:.3} ms, p99 {:.3} ms",
        runs.len(),
        runs[0].bands,
        interval_median_ms(&runs[0].intervals, 50.0),
        interval_median_ms(&runs[0].intervals, 99.0),
    );
    tail_reference(&runs[0].intervals);
    sim_outcome(&runs)
}

fn shape(w: Workload, seed: u64) -> Shape {
    let (rate, channels, consumers) = match w {
        Workload::Open => (200_000, 1, 1),
        Workload::Catchup => (CATCHUP_RATE, 2, 2),
        Workload::ClusterEo => (20_000, 2, 2),
        Workload::Sim => (
            sim::RATE,
            sim::MEMBERS * sim::CORES,
            sim::MEMBERS * sim::CORES,
        ),
    };
    Shape {
        nexmark: nexmark(seed),
        rate,
        channels,
        consumers,
    }
}

/// The workload untraced and traced, then the lanes: every per-layer
/// metric. The lanes run last so their memory stays out of the peak RSS the
/// simulated runs compare.
pub fn per_layer(w: Workload, seed: u64, seconds: u64, m: &mut Metrics) -> Outcome {
    let outcome = traced_runs(w, seed, seconds, m);
    lanes::run(&shape(w, seed), m);
    outcome
}

fn traced_runs(w: Workload, seed: u64, seconds: u64, m: &mut Metrics) -> Outcome {
    let reference = reference_for(w, seed, seconds);
    if w == Workload::Sim {
        let rss0 = peak_rss_mb();
        let unarmed = sim::run(seed, &reference, false, false);
        let rss1 = peak_rss_mb();
        let armed = sim::run(seed, &reference, true, false);
        let rss2 = peak_rss_mb();
        let traced = sim::run(seed, &reference, true, true);
        let l = traced.layers.as_ref().expect("traced run keeps layers");
        layers::report(l, traced.busy_share, l.call_durations.p99() as f64, m);
        m.put(
            "sim.wall_ns_per_event",
            armed.wall_s * 1e9 / armed.events as f64,
            "ns",
        );
        m.put(
            "sim.recorder_share",
            (armed.wall_s - unarmed.wall_s) / armed.wall_s,
            "ratio",
        );
        m.put("sim.recorder_mb", rss2 - rss1, "MiB");
        // The simulator runs on one thread: its CPU time is its wall time.
        m.put(
            "exec.cpu_ns_per_event",
            armed.wall_s * 1e9 / armed.events as f64,
            "ns",
        );
        m.put(
            "trace.overhead_share",
            traced.wall_s / armed.wall_s - 1.0,
            "ratio",
        );
        println!("peak RSS before the unarmed run: {rss0:.1} MiB");
        return sim_outcome(&[armed, traced, unarmed]);
    }
    let spec = spec(w, seconds);
    let untraced = threaded::run(&spec, seed, &reference, None);
    let obs = Observe::new();
    let traced = threaded::run(&spec, seed, &reference, Some(&obs));
    let l = traced.layers.as_ref().expect("traced run keeps layers");
    layers::report(
        l,
        layers::worker_busy_share(l),
        layers::worker_call_p99(l),
        m,
    );
    m.put(
        "sim.wall_ns_per_event",
        untraced.end_ns as f64 / untraced.events as f64,
        "ns",
    );
    m.put("sim.recorder_share", 0.0, "ratio");
    m.put("sim.recorder_mb", 0.0, "MiB");
    m.put(
        "exec.cpu_ns_per_event",
        untraced.cpu_s * 1e9 / untraced.events as f64,
        "ns",
    );
    m.put(
        "trace.overhead_share",
        traced.cpu_s / untraced.cpu_s - 1.0,
        "ratio",
    );
    threaded_outcome(&[untraced, traced])
}
