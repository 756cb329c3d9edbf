//! Q5 computed apart from the engine.
//!
//! Only `NexmarkConfig::event` is shared with the engine (it *is* the
//! input); window assignment, counting and digests are done here with plain
//! arrays. The generator schedules event `seq` at `seq · 10⁹ / rate` nanos,
//! a window of `size` ending at `E` covers `[E − size, E)`, and window ends
//! are multiples of the slide.

use crate::digest::{DigestBoard, WindowDigest};
use jet_nexmark::{Event, NexmarkConfig};

/// Expected Q5 output of one generated stream.
pub struct Reference {
    pub slide: i64,
    /// Windows per event (size ÷ slide).
    pub frames_per_window: u64,
    /// Digest of window end `(i + 1) · slide` at index `i`.
    pub windows: Vec<WindowDigest>,
    /// Bids among the input events.
    pub bids: u64,
}

/// Scheduled occurrence time of event `seq` at `rate` events per second.
pub fn schedule(seq: u64, rate: u64) -> i64 {
    (seq as u128 * 1_000_000_000 / rate as u128) as i64
}

impl Reference {
    /// Count bids per auction per window for events `0..events`.
    pub fn compute(cfg: &NexmarkConfig, rate: u64, events: u64, size: i64, slide: i64) -> Self {
        let k = (size / slide) as usize;
        let auctions = cfg.auctions as usize;
        let last_frame = if events == 0 {
            0
        } else {
            (schedule(events - 1, rate) / slide) as usize
        };
        let n_windows = last_frame + k;
        let mut ring = vec![vec![0u32; auctions]; k];
        let mut win = vec![0u32; auctions];
        let mut out = vec![WindowDigest::default(); n_windows];
        let mut bids = 0u64;
        let mut frame = 0usize;
        let close = |j: usize,
                     ring: &mut Vec<Vec<u32>>,
                     win: &mut Vec<u32>,
                     out: &mut Vec<WindowDigest>| {
            let d = &mut out[j];
            for (a, &c) in win.iter().enumerate() {
                if c > 0 {
                    d.add(a as u64, c as u64);
                }
            }
            // Frame `j + 1 − k` leaves the window that ends next.
            let retiring = &mut ring[(j + 1) % k];
            for (w, r) in win.iter_mut().zip(retiring.iter_mut()) {
                *w -= *r;
                *r = 0;
            }
        };
        for seq in 0..events {
            let ts = schedule(seq, rate);
            let f = (ts / slide) as usize;
            while frame < f {
                close(frame, &mut ring, &mut win, &mut out);
                frame += 1;
            }
            if let Event::Bid(b) = cfg.event(seq, ts) {
                let a = b.auction as usize;
                ring[f % k][a] += 1;
                win[a] += 1;
                bids += 1;
            }
        }
        while frame < n_windows {
            close(frame, &mut ring, &mut win, &mut out);
            frame += 1;
        }
        Reference {
            slide,
            frames_per_window: k as u64,
            windows: out,
            bids,
        }
    }

    /// Window count a [`DigestBoard`] needs to hold this stream's output.
    pub fn board(&self) -> DigestBoard {
        DigestBoard::new(self.slide, self.windows.len() + 1)
    }

    /// Compare one run's board against the expectation.
    pub fn check(&self, board: &DigestBoard) -> Check {
        let mut c = Check::default();
        let mut counted = 0u64;
        for (i, want) in self.windows.iter().enumerate() {
            let got = board.digest(i);
            counted += got.bids;
            if want.keys == 0 {
                if got.keys != 0 {
                    c.unexpected += 1;
                }
                continue;
            }
            c.windows += 1;
            if got.keys == 0 {
                c.missing += 1;
            } else if got != *want {
                c.mismatched += 1;
            }
        }
        for i in self.windows.len()..board.windows() {
            let got = board.digest(i);
            counted += got.bids;
            if got.keys != 0 {
                c.unexpected += 1;
            }
        }
        c.unexpected += board.outside();
        c.each_bid_in_k_windows = counted == self.bids * self.frames_per_window;
        c
    }
}

/// Outcome of comparing a run's output with the reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Windows the reference expects (at least one bid).
    pub windows: u64,
    /// Expected windows that never reached the digest stage.
    pub missing: u64,
    /// Expected windows whose results differ (lost, duplicated or
    /// miscounted keys).
    pub mismatched: u64,
    /// Results for windows the reference does not expect.
    pub unexpected: u64,
    /// Every bid was counted in exactly size ÷ slide windows.
    pub each_bid_in_k_windows: bool,
}

impl Check {
    pub fn failed(&self) -> u64 {
        self.missing + self.mismatched
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.unexpected == 0 && self.each_bid_in_k_windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{compile_with_digest, q5_pipeline, WINDOW_SIZE, WINDOW_SLIDE};
    use jet_core::metrics::{SharedCounter, SharedHistogram};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    const RATE: u64 = 1_000_000;
    const EVENTS: u64 = 60_000;

    fn small() -> NexmarkConfig {
        NexmarkConfig {
            auctions: 64,
            ..crate::common::nexmark(3)
        }
    }

    /// Every window counted the slow way: each bid added to each of the
    /// size ÷ slide windows that cover it.
    fn brute_force(cfg: &NexmarkConfig) -> BTreeMap<i64, BTreeMap<u64, u64>> {
        let mut w: BTreeMap<i64, BTreeMap<u64, u64>> = BTreeMap::new();
        for seq in 0..EVENTS {
            let ts = schedule(seq, RATE);
            if let Event::Bid(b) = cfg.event(seq, ts) {
                let first_end = ts.div_euclid(WINDOW_SLIDE) * WINDOW_SLIDE + WINDOW_SLIDE;
                for i in 0..WINDOW_SIZE / WINDOW_SLIDE {
                    *w.entry(first_end + i * WINDOW_SLIDE)
                        .or_default()
                        .entry(b.auction)
                        .or_default() += 1;
                }
            }
        }
        w
    }

    #[test]
    fn reference_matches_brute_force_counting() {
        let cfg = small();
        let r = Reference::compute(&cfg, RATE, EVENTS, WINDOW_SIZE, WINDOW_SLIDE);
        let slow = brute_force(&cfg);
        let nonempty = r.windows.iter().filter(|d| d.keys > 0).count();
        assert_eq!(nonempty, slow.len());
        for (end, counts) in slow {
            let mut want = WindowDigest::default();
            for (a, c) in counts {
                want.add(a, c);
            }
            assert_eq!(
                r.windows[(end / WINDOW_SLIDE - 1) as usize],
                want,
                "window {end}"
            );
        }
    }

    /// Run Q5 on the threaded executor and return its digest board.
    fn engine_board(cfg: &NexmarkConfig, r: &Reference) -> Arc<DigestBoard> {
        let board = Arc::new(r.board());
        let p = q5_pipeline(
            cfg,
            RATE,
            EVENTS,
            &SharedHistogram::new(),
            &SharedCounter::new(),
            None,
        );
        let dag = compile_with_digest(&p, 2, &board);
        let registry = Arc::new(jet_core::SnapshotRegistry::disabled());
        let exec = jet_core::plan::build_local(
            &dag,
            &jet_core::plan::LocalConfig::new(2),
            &registry,
            None,
        )
        .unwrap();
        jet_core::exec::spawn_threaded(exec.tasklets, 2, exec.cancelled).join();
        board
    }

    #[test]
    fn engine_output_passes_and_a_corrupted_digest_is_caught() {
        let cfg = small();
        let r = Reference::compute(&cfg, RATE, EVENTS, WINDOW_SIZE, WINDOW_SLIDE);
        let board = engine_board(&cfg, &r);
        let ok = r.check(&board);
        assert!(ok.correct(), "{ok:?}");
        assert!(ok.windows > 100);

        let victim = r.windows.iter().position(|d| d.keys > 0).unwrap() + 7;
        board.corrupt(victim);
        let bad = r.check(&board);
        assert_eq!(bad.mismatched, 1, "{bad:?}");
        assert!(!bad.correct());
    }

    #[test]
    fn duplicated_and_unexpected_results_are_caught() {
        let cfg = small();
        let r = Reference::compute(&cfg, RATE, EVENTS, WINDOW_SIZE, WINDOW_SLIDE);
        let board = engine_board(&cfg, &r);
        // A result delivered twice across a barrier: same key, same count.
        let end = WINDOW_SLIDE * 20;
        board.record(end, 5, 1);
        let dup = r.check(&board);
        assert_eq!(dup.mismatched, 1);
        assert!(!dup.each_bid_in_k_windows);
        // A result for a window the stream never had.
        let board = engine_board(&cfg, &r);
        board.record(-WINDOW_SLIDE, 1, 1);
        assert_eq!(r.check(&board).unexpected, 1);
    }
}
