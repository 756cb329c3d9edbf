//! Order-independent digests of Q5 output, one per window end.
//!
//! The engine side feeds every `(auction, count)` result through
//! [`DigestBoard::record`] from a digest stage placed ahead of the latency
//! sink, inside the sink's vertex; the reference side ([`crate::reference`]) builds the same
//! digests from the raw event stream. A window's digest is the wrapping sum
//! of a 64-bit mix of each result, so the order in which parallel combine
//! instances emit results does not matter, while a lost, duplicated or
//! miscounted result changes it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// SplitMix64 finaliser: a bijective 64-bit mix.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one window result.
#[inline]
pub fn result_hash(auction: u64, count: u64) -> u64 {
    mix64(auction.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mix64(count))
}

/// Expected or observed content of one window end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowDigest {
    /// Wrapping sum of [`result_hash`] over the window's results.
    pub sum: u64,
    /// Number of results (distinct auctions with at least one bid).
    pub keys: u64,
    /// Sum of the counts (bids in the window).
    pub bids: u64,
}

impl WindowDigest {
    pub fn add(&mut self, auction: u64, count: u64) {
        self.sum = self.sum.wrapping_add(result_hash(auction, count));
        self.keys += 1;
        self.bids += count;
    }
}

struct Slot {
    sum: AtomicU64,
    keys: AtomicU64,
    bids: AtomicU64,
    /// Nanos since the board's origin when the last combine instance began
    /// emitting this window (0 = never).
    arrival: AtomicU64,
}

/// Lock-free accumulator of [`WindowDigest`]s indexed by window end, shared
/// by every parallel instance of the digest stage.
pub struct DigestBoard {
    slide: i64,
    slots: Vec<Slot>,
    /// Results whose window end fell outside the board.
    outside: AtomicU64,
    origin: Instant,
}

thread_local! {
    /// Last window end this thread recorded, to read the clock once per
    /// run of same-window results rather than once per result.
    static LAST_END: std::cell::Cell<(usize, i64)> = const { std::cell::Cell::new((0, i64::MIN)) };
}

impl DigestBoard {
    /// A board for window ends `slide, 2·slide, …, windows·slide`.
    pub fn new(slide: i64, windows: usize) -> DigestBoard {
        DigestBoard {
            slide,
            slots: (0..windows)
                .map(|_| Slot {
                    sum: AtomicU64::new(0),
                    keys: AtomicU64::new(0),
                    bids: AtomicU64::new(0),
                    arrival: AtomicU64::new(0),
                })
                .collect(),
            outside: AtomicU64::new(0),
            origin: Instant::now(),
        }
    }

    /// Restart the arrival clock (the run's time zero).
    pub fn reset_origin(&mut self) {
        self.origin = Instant::now();
    }

    #[inline]
    fn slot_of(&self, end: i64) -> Option<&Slot> {
        if end <= 0 || end % self.slide != 0 {
            return None;
        }
        self.slots.get((end / self.slide - 1) as usize)
    }

    /// Fold one window result into its window's digest.
    #[inline]
    pub fn record(&self, end: i64, auction: u64, count: u64) {
        let Some(slot) = self.slot_of(end) else {
            self.outside.fetch_add(1, Ordering::Relaxed);
            return;
        };
        slot.sum
            .fetch_add(result_hash(auction, count), Ordering::Relaxed);
        slot.keys.fetch_add(1, Ordering::Relaxed);
        slot.bids.fetch_add(count, Ordering::Relaxed);
        let me = self as *const DigestBoard as usize;
        LAST_END.with(|last| {
            if last.get() != (me, end) {
                last.set((me, end));
                let now = self.now_nanos();
                slot.arrival.fetch_max(now.max(1), Ordering::Relaxed);
            }
        });
    }

    /// Nanos since the board's origin.
    pub fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Results that fell outside the board's window range.
    pub fn outside(&self) -> u64 {
        self.outside.load(Ordering::Relaxed)
    }

    pub fn windows(&self) -> usize {
        self.slots.len()
    }

    /// The digest observed for window end `(i + 1) · slide`.
    pub fn digest(&self, i: usize) -> WindowDigest {
        let s = &self.slots[i];
        WindowDigest {
            sum: s.sum.load(Ordering::Relaxed),
            keys: s.keys.load(Ordering::Relaxed),
            bids: s.bids.load(Ordering::Relaxed),
        }
    }

    /// Nanos after the origin at which window `i` reached the digest stage.
    pub fn arrival_nanos(&self, i: usize) -> u64 {
        self.slots[i].arrival.load(Ordering::Relaxed)
    }

    /// Corrupt one window's digest (used by the tests of the check itself).
    #[cfg(test)]
    pub fn corrupt(&self, i: usize) {
        self.slots[i].sum.fetch_xor(1, Ordering::Relaxed);
    }
}
