//! Per-layer timing lanes: each times one layer's public functions on
//! inputs generated from the workload's seed, and reports ns per operation
//! (the median of several repetitions) with its sample count.

use crate::common::{median, Metrics, WINDOW_SLIDE};
use crate::digest::mix64;
use crate::reference::schedule;
use jet_core::dag::Routing;
use jet_core::item::Item;
use jet_core::metrics::SharedHistogram;
use jet_core::outbound::OutboundCollector;
use jet_core::state::{fingerprint, Cursor, KeyTable, Snap};
use jet_core::watermark::WatermarkCoalescer;
use jet_core::{boxed, downcast_ref, Object};
use jet_imdg::{Grid, SnapshotStore, DEFAULT_PARTITION_COUNT};
use jet_nexmark::{Bid, Event, NexmarkConfig};
use jet_pipeline::WindowResult;
use jet_queue::Conveyor;
use jet_util::seq::hash_of;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Workload shape the lanes are sized from.
pub struct Shape {
    pub nexmark: NexmarkConfig,
    pub rate: u64,
    /// Input channels of the combine vertex (watermark coalescing width).
    pub channels: usize,
    /// Combine instances the partitioned edge routes to.
    pub consumers: usize,
}

const REPS: usize = 5;
/// Records per snapshot generation in the snapshot lanes.
const SNAPSHOT_RECORDS: usize = 16_384;
/// Items per bulk transfer in the queue and routing lanes.
const BATCH: usize = jet_core::tasklet::DEFAULT_BATCH;

/// Median ns/op over `REPS` repetitions of `f`, which returns the nanos it
/// spent and the operations it did.
fn lane(m: &mut Metrics, name: &str, mut f: impl FnMut(usize) -> (u64, u64)) {
    let mut per_op = Vec::with_capacity(REPS);
    let mut ops = 0;
    for rep in 0..REPS {
        let (nanos, n) = f(rep);
        per_op.push(nanos as f64 / n.max(1) as f64);
        ops += n;
    }
    let v = median(&per_op);
    println!("lane {name:<24} {v:>12.2} ns/op  n={ops}");
    m.put(name, v, "ns");
}

fn timed(f: impl FnOnce() -> u64) -> (u64, u64) {
    let t = Instant::now();
    let n = f();
    (t.elapsed().as_nanos() as u64, n)
}

/// The auction keys of the bids among events `from..from + n`.
fn bid_keys(s: &Shape, from: u64, n: u64) -> Vec<u64> {
    (from..from + n)
        .filter_map(|seq| match s.nexmark.event(seq, schedule(seq, s.rate)) {
            Event::Bid(b) => Some(b.auction),
            _ => None,
        })
        .collect()
}

fn bids(s: &Shape, from: u64, n: u64) -> Vec<(i64, Bid)> {
    (from..from + n)
        .filter_map(|seq| {
            let ts = schedule(seq, s.rate);
            match s.nexmark.event(seq, ts) {
                Event::Bid(b) => Some((ts, b)),
                _ => None,
            }
        })
        .collect()
}

pub fn run(s: &Shape, m: &mut Metrics) {
    const EVENTS: u64 = 200_000;
    lane(m, "nexmark.event_ns", |rep| {
        let from = rep as u64 * EVENTS;
        timed(|| {
            for seq in from..from + EVENTS {
                black_box(s.nexmark.event(seq, schedule(seq, s.rate)));
            }
            EVENTS
        })
    });

    let sample = bids(s, 0, 20_000);
    lane(m, "object.box_ns", |_| {
        timed(|| {
            for (ts, b) in &sample {
                black_box(boxed(b.clone()));
                black_box(boxed(WindowResult {
                    key: b.auction,
                    start: ts - crate::common::WINDOW_SIZE,
                    end: *ts,
                    value: b.price as u64,
                }));
            }
            2 * sample.len() as u64
        })
    });

    lane(m, "queue.hop_ns", |_| {
        const ITEMS: u64 = 2_000_000;
        let (mut conveyor, mut producers) = Conveyor::<Item>::new(1, 1024);
        let mut p = producers.pop().expect("one lane");
        timed(|| {
            let producer = std::thread::spawn(move || {
                let mut sent = 0u64;
                while sent < ITEMS {
                    let left = (ITEMS - sent).min(BATCH as u64);
                    let mut it = (sent..sent + left).map(|i| Item::Watermark(i as i64));
                    let n = p.offer_batch(&mut it) as u64;
                    if n == 0 {
                        std::hint::spin_loop();
                    }
                    sent += n;
                }
            });
            let mut got = 0u64;
            while got < ITEMS {
                let n = conveyor.drain_lanes_batch(BATCH, |_, item| {
                    black_box(item);
                });
                if n == 0 {
                    std::hint::spin_loop();
                }
                got += n as u64;
            }
            producer.join().expect("producer thread");
            got
        })
    });

    let route_sample = bids(s, 0, 100_000);
    lane(m, "outbound.route_ns", |_| {
        let mut conveyors = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..s.consumers {
            let (c, mut p) = Conveyor::<Item>::new(1, 4 * BATCH);
            conveyors.push(c);
            targets.push(p.pop().expect("one lane"));
        }
        let key = Arc::new(|o: &dyn Object| hash_of(&downcast_ref::<Bid>(o).auction));
        let table = (0..DEFAULT_PARTITION_COUNT)
            .map(|p| (p as usize % s.consumers) as u16)
            .collect();
        let mut out = OutboundCollector::new(
            Routing::Partitioned(key),
            targets,
            table,
            DEFAULT_PARTITION_COUNT,
            0,
        );
        let mut buf = VecDeque::with_capacity(BATCH);
        let mut nanos = 0u64;
        let mut routed = 0u64;
        for chunk in route_sample.chunks(BATCH) {
            buf.extend(
                chunk
                    .iter()
                    .map(|(ts, b)| Item::event(*ts, boxed(b.clone()))),
            );
            let t = Instant::now();
            while !buf.is_empty() {
                routed += out.offer_event_run(&mut buf, BATCH) as u64;
            }
            nanos += t.elapsed().as_nanos() as u64;
            for c in &mut conveyors {
                c.drain_lanes_batch(usize::MAX, |_, item| drop(item));
            }
        }
        (nanos, routed)
    });

    let keys = bid_keys(s, 0, 1_000_000);
    lane(m, "state.upsert_ns", |_| {
        let mut table: KeyTable<u64, u64> = KeyTable::new(DEFAULT_PARTITION_COUNT);
        timed(|| {
            for &a in &keys {
                let (v, _) = table.upsert(fingerprint(hash_of(&a)), a, || 0);
                *v += 1;
            }
            keys.len() as u64
        })
    });

    lane(m, "state.drain_ns", |_| {
        let mut table: KeyTable<u64, u64> = KeyTable::new(DEFAULT_PARTITION_COUNT);
        let mut nanos = 0u64;
        let mut drained = 0u64;
        for _ in 0..20 {
            for a in 0..s.nexmark.auctions {
                let (v, _) = table.upsert(fingerprint(hash_of(&a)), a, || 0);
                *v += 1;
            }
            let t = Instant::now();
            let mut cur = Cursor::default();
            loop {
                let (next, entry) = table.drain_next(cur);
                match entry {
                    Some(e) => {
                        black_box(e);
                        drained += 1;
                    }
                    None => break,
                }
                cur = next;
            }
            nanos += t.elapsed().as_nanos() as u64;
        }
        (nanos, drained)
    });

    lane(m, "watermark.coalesce_ns", |rep| {
        const OBSERVES: u64 = 2_000_000;
        let mut c = WatermarkCoalescer::new(s.channels);
        let jitter = mix64(rep as u64 ^ s.nexmark.seed);
        timed(|| {
            for i in 0..OBSERVES {
                let channel = (i % s.channels as u64) as usize;
                let round = (i / s.channels as u64) as i64;
                let wm = round * 1_000_000 + ((jitter >> (channel % 32)) & 0xFFF) as i64;
                black_box(c.observe(channel, wm));
            }
            OBSERVES
        })
    });

    let latencies: Vec<u64> = (0..1u64 << 16)
        .map(|i| 200_000 + mix64(i ^ s.nexmark.seed) % 2_000_000)
        .collect();
    lane(m, "sink.record_ns", |_| {
        let h = SharedHistogram::new();
        timed(|| {
            let mut n = 0u64;
            for _ in 0..16 {
                for batch in latencies.chunks(512) {
                    h.record_batch(batch.iter().copied());
                    n += batch.len() as u64;
                }
            }
            n
        })
    });

    // The combine vertex's snapshot records: key (tag, instance, auction,
    // frame end), value the count.
    let records: Vec<(Vec<u8>, Vec<u8>)> = keys
        .iter()
        .take(SNAPSHOT_RECORDS)
        .enumerate()
        .map(|(i, &a)| {
            let frame_end = (i as i64 % 100 + 1) * WINDOW_SLIDE;
            (
                (0u64, 0u64, a, frame_end).to_bytes(),
                (i as u64 % 7 + 1).to_bytes(),
            )
        })
        .collect();
    let grid = Grid::new(2, 1);
    let store = SnapshotStore::new(&grid, 7);
    let mut generation = 0u64;
    let mut write_generation = |store: &SnapshotStore| {
        generation += 1;
        let t = Instant::now();
        for (k, v) in &records {
            let stored = store.write(generation, "window-combine", k.clone(), v.clone());
            assert!(stored, "snapshot store refused a write");
        }
        (generation, t.elapsed().as_nanos() as u64)
    };
    let mut write_ns = Vec::new();
    let mut complete_ms = Vec::new();
    let (first, ns) = write_generation(&store);
    write_ns.push(ns as f64 / records.len() as f64);
    store.mark_complete(first, Vec::new());
    for _ in 0..REPS {
        let (id, ns) = write_generation(&store);
        write_ns.push(ns as f64 / records.len() as f64);
        let t = Instant::now();
        store.mark_complete(id, Vec::new());
        complete_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let w = median(&write_ns);
    let c = median(&complete_ms);
    println!(
        "lane {:<24} {w:>12.2} ns/op  n={}",
        "snapshot.write_ns",
        write_ns.len() * records.len()
    );
    println!(
        "lane {:<24} {c:>12.4} ms/op  n={}",
        "snapshot.complete_ms",
        complete_ms.len()
    );
    m.put("snapshot.write_ns", w, "ns");
    m.put("snapshot.complete_ms", c, "ms");
}
