//! The network's exact delivery tally: what a report needs of the
//! deliveries, in memory that does not grow with run length.
//!
//! A report's latency summaries are order statistics, means and a
//! histogram of the in-window sample; all of them are functions of the
//! sample's value → count multiset ([`LatencyCounts`]), which holds one
//! entry per *distinct* latency — a few hundred on any run the
//! reproduction makes, however long. The counts are exact integers, so
//! a summary built from them equals the one sorting the whole sample
//! gives, bit for bit (ARCHITECTURE.md §2, "The delivery tally").

use crate::stats::{LatencySummary, LATENCY_BUCKETS};
use noc_types::{Cycle, DeliveredPacket};

/// A multiset of latencies: each distinct value with how often it
/// occurred, sorted by value. Memory is O(distinct values), never
/// O(largest value).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyCounts {
    /// `(value, count)`, ascending by value, every count ≥ 1.
    entries: Vec<(u64, u64)>,
}

impl LatencyCounts {
    /// Count one more occurrence of `value`.
    fn add(&mut self, value: u64) {
        match self.entries.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(i) => self.entries[i].1 += 1,
            Err(i) => self.entries.insert(i, (value, 1)),
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c).sum()
    }

    /// Exact sum of the samples.
    pub fn sum(&self) -> u128 {
        self.entries
            .iter()
            .map(|&(v, c)| u128::from(v) * u128::from(c))
            .sum()
    }

    /// The sample's summary: nearest-rank percentiles over the
    /// cumulative counts, and mean and variance from exact `u128` sums
    /// (the only rounding is the final `f64` conversion), so it equals
    /// the summary of the sorted sample bit for bit.
    pub fn summary(&self) -> LatencySummary {
        let count = self.count() as usize;
        let (Some(&(min, _)), Some(&(max, _))) = (self.entries.first(), self.entries.last()) else {
            return LatencySummary::EMPTY;
        };
        let mut sum = 0u128;
        let mut sum_sq = 0u128;
        let mut histogram = [0u64; LATENCY_BUCKETS];
        for &(v, c) in &self.entries {
            let (v, n) = (u128::from(v), u128::from(c));
            sum += v * n;
            sum_sq += v * v * n;
            histogram[LatencySummary::bucket_of(v as u64)] += c;
        }
        let mean = sum as f64 / count as f64;
        // Population variance via E[X²] − E[X]².
        let variance = (sum_sq as f64 / count as f64 - mean * mean).max(0.0);
        // Nearest rank: the ceil(p·N)-th order statistic is the first
        // value whose cumulative count reaches that rank.
        let pct = |p: f64| -> u64 {
            let rank = ((count as f64 * p).ceil() as usize).clamp(1, count) as u64;
            let mut seen = 0;
            for &(v, c) in &self.entries {
                seen += c;
                if seen >= rank {
                    return v;
                }
            }
            max
        };
        LatencySummary {
            count,
            mean,
            stddev: variance.sqrt(),
            min,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            p999: pct(0.999),
            max,
            histogram,
        }
    }
}

#[cfg(test)]
impl FromIterator<u64> for LatencyCounts {
    fn from_iter<I: IntoIterator<Item = u64>>(samples: I) -> Self {
        let mut counts = LatencyCounts::default();
        for s in samples {
            counts.add(s);
        }
        counts
    }
}

/// Everything a [`crate::NetworkReport`] reads of a network's
/// deliveries: the value → count maps of total and network latency of
/// the packets *created* in the measurement window, and exact sums of
/// their hops and flits. The window is the one of the run that steps
/// the network ([`crate::Simulator`] sets it); a network stepped by
/// hand tallies every delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryTally {
    window: (Cycle, Cycle),
    /// Every delivery tallied, in the window or not: the length the
    /// delivery log would have.
    seen: u64,
    total: LatencyCounts,
    network: LatencyCounts,
    hops: u64,
    flits: u64,
}

impl Default for DeliveryTally {
    fn default() -> Self {
        DeliveryTally::new((0, Cycle::MAX))
    }
}

impl DeliveryTally {
    /// An empty tally over packets created in `window` (`[start, end)`).
    fn new(window: (Cycle, Cycle)) -> Self {
        DeliveryTally {
            window,
            seen: 0,
            total: LatencyCounts::default(),
            network: LatencyCounts::default(),
            hops: 0,
            flits: 0,
        }
    }

    /// Tally one delivery.
    pub(crate) fn record(&mut self, d: &DeliveredPacket) {
        self.seen += 1;
        if d.created_at >= self.window.0 && d.created_at < self.window.1 {
            self.total.add(d.total_latency());
            self.network.add(d.network_latency());
            self.hops += u64::from(d.hops);
            self.flits += d.kind.flits() as u64;
        }
    }

    /// The creation window `[start, end)` deliveries are counted in.
    pub fn window(&self) -> (Cycle, Cycle) {
        self.window
    }

    /// Deliveries tallied, in the window or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Deliveries of packets created in the window.
    pub fn delivered(&self) -> u64 {
        self.total.count()
    }

    /// End-to-end latencies (creation → tail ejection) in the window.
    pub fn total_latency(&self) -> &LatencyCounts {
        &self.total
    }

    /// In-network latencies (head injection → tail ejection).
    pub fn network_latency(&self) -> &LatencyCounts {
        &self.network
    }

    /// Exact sum of the in-window deliveries' hop counts.
    pub fn hops(&self) -> u64 {
        self.hops
    }

    /// Exact sum of the in-window deliveries' flits.
    pub fn flits(&self) -> u64 {
        self.flits
    }

    /// Whether a run under `window` may continue this tally on a
    /// network at cycle `now`: every delivery so far was created before
    /// `now`, so the two windows must agree on every cycle before it —
    /// or nothing may have been tallied yet.
    pub(crate) fn admits(&self, window: (Cycle, Cycle), now: Cycle) -> bool {
        let clip = |(start, end): (Cycle, Cycle)| {
            let (start, end) = (start.min(now), end.min(now));
            if start < end {
                (start, end)
            } else {
                (0, 0)
            }
        };
        self.seen == 0 || clip(self.window) == clip(window)
    }

    /// Count under `window` from now on (see [`DeliveryTally::admits`]).
    pub(crate) fn set_window(&mut self, window: (Cycle, Cycle)) {
        self.window = window;
    }

    /// Forget every delivery, keeping the window.
    pub(crate) fn clear(&mut self) {
        *self = DeliveryTally::new(self.window);
    }
}

#[cfg(test)]
mod tests;
