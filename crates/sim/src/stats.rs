//! Simulation statistics and reporting.

use crate::network::Network;
use noc_telemetry::json::{to_tree, JsonValue, JsonWriter};
use noc_telemetry::{FlightRecord, RouterStats, Snapshot, SpatialGrid, TimeSeries};
use noc_types::Cycle;

/// Number of log2 histogram buckets in a [`LatencySummary`].
pub const LATENCY_BUCKETS: usize = 32;

/// Summary statistics of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (cycles).
    pub mean: f64,
    /// Population standard deviation (cycles).
    pub stddev: f64,
    /// Minimum.
    pub min: u64,
    /// Median (p50).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum.
    pub max: u64,
    /// Log2-bucketed histogram: bucket 0 counts zeros, bucket `i ≥ 1`
    /// counts samples in `[2^(i-1), 2^i)`, and the last bucket absorbs
    /// everything at or above `2^(LATENCY_BUCKETS-2)`.
    pub histogram: [u64; LATENCY_BUCKETS],
}

impl LatencySummary {
    /// The histogram bucket a sample falls into (see the field docs).
    pub fn bucket_of(sample: u64) -> usize {
        ((u64::BITS - sample.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Lower bound (inclusive) of histogram bucket `i`.
    pub fn bucket_low(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Write the summary as one JSON object (see
    /// [`NetworkReport::encode`]).
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("count").u64(self.count as u64);
            w.field("mean").num(self.mean);
            w.field("stddev").num(self.stddev);
            w.field("min").u64(self.min);
            w.field("p50").u64(self.p50);
            w.field("p95").u64(self.p95);
            w.field("p99").u64(self.p99);
            w.field("p999").u64(self.p999);
            w.field("max").u64(self.max);
            w.field("histogram").arr(&self.histogram, |w, &b| w.u64(b));
        });
    }

    /// The summary of an empty sample: all zeros.
    pub const EMPTY: LatencySummary = LatencySummary {
        count: 0,
        mean: 0.0,
        stddev: 0.0,
        min: 0,
        p50: 0,
        p95: 0,
        p99: 0,
        p999: 0,
        max: 0,
        histogram: [0; LATENCY_BUCKETS],
    };
}

/// The full result of one simulation run.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Measurement window the report covers (packets *created* in it).
    pub window: (Cycle, Cycle),
    /// Cycles actually simulated.
    pub cycles_run: Cycle,
    /// Number of nodes.
    pub nodes: usize,
    /// Packets offered to NIs during the window.
    pub offered: u64,
    /// Packets fully injected during the run.
    pub injected: u64,
    /// Packets delivered to their correct destination (window only).
    pub delivered: u64,
    /// Packets ejected at a wrong node (baseline misrouting).
    pub misdelivered: u64,
    /// Flits destroyed by baseline crossbar faults.
    pub flits_dropped: u64,
    /// Flits that left the mesh edge after a misroute.
    pub flits_edge_dropped: u64,
    /// Flits still inside routers/NIs when the run ended.
    pub in_flight_at_end: u64,
    /// End-to-end packet latency (creation → tail ejection).
    pub total_latency: LatencySummary,
    /// In-network latency (head injection → tail ejection).
    pub network_latency: LatencySummary,
    /// Mean hop count of delivered packets.
    pub mean_hops: f64,
    /// Delivered flits per node per cycle over the window.
    pub throughput: f64,
    /// True when the watchdog saw no movement for its timeout while
    /// flits were buffered.
    pub deadlock_suspected: bool,
    /// Every router's event counters, summed. The report renders the
    /// [`RouterStats::MECHANISMS`] view of them.
    pub router_events: RouterStats,
    /// Text heatmap of per-router output utilisation (`.` idle → `#`
    /// busiest), one row per mesh row.
    pub utilisation_heatmap: String,
    /// Router steps executed (not skipped by the active-router
    /// worklist) over the whole run.
    pub routers_stepped: u64,
    /// Router steps the worklist skipped over the whole run.
    pub routers_skipped: u64,
    /// `routers_skipped / (routers_stepped + routers_skipped)`, `0.0`
    /// when no router was ever considered.
    pub worklist_skip_rate: f64,
    /// Per-router counter grid: congestion and Shield-mechanism
    /// heatmaps keyed by coordinate (the spatial metrics plane).
    pub spatial: Option<SpatialGrid>,
    /// Per-epoch time series, when the simulator was configured with
    /// [`crate::Simulator::with_sample_every`].
    pub epochs: Option<TimeSeries>,
    /// Deadlock flight record, captured iff `deadlock_suspected`.
    pub deadlock: Option<FlightRecord>,
}

impl NetworkReport {
    /// Build the report of a run that stopped after `cycles_run` cycles
    /// on `net`: the network's delivery tally (its window is the
    /// report's), its counters, the epoch series when sampling was on,
    /// and the flight record when the watchdog fired.
    pub(crate) fn build(
        net: &Network,
        cycles_run: Cycle,
        epochs: Option<TimeSeries>,
        deadlock: Option<FlightRecord>,
    ) -> Self {
        let tally = net.tally();
        let window = tally.window();
        let delivered = tally.delivered();
        // The integer sum as `f64` equals the in-order `f64` sum of the
        // hop counts while that sum is below 2^53.
        let mean_hops = if delivered == 0 {
            0.0
        } else {
            tally.hops() as f64 / delivered as f64
        };
        let window_len = (window.1 - window.0).max(1) as f64;
        let nodes = net.mesh().len();
        let (offered, injected, _ejected, misdelivered) = net.packet_counters();
        let (routers_stepped, routers_skipped) = (net.routers_stepped(), net.routers_skipped());
        let considered = routers_stepped + routers_skipped;
        NetworkReport {
            window,
            cycles_run,
            nodes,
            offered,
            injected,
            delivered,
            misdelivered,
            flits_dropped: net.flits_dropped,
            flits_edge_dropped: net.flits_edge_dropped,
            in_flight_at_end: net.in_flight_flits(),
            total_latency: tally.total_latency().summary(),
            network_latency: tally.network_latency().summary(),
            mean_hops,
            throughput: tally.flits() as f64 / window_len / nodes as f64,
            deadlock_suspected: deadlock.is_some(),
            router_events: net.router_event_totals(),
            utilisation_heatmap: net.utilisation_heatmap(),
            routers_stepped,
            routers_skipped,
            worklist_skip_rate: if considered == 0 {
                0.0
            } else {
                routers_skipped as f64 / considered as f64
            },
            spatial: Some(net.spatial_grid()),
            epochs,
            deadlock,
        }
    }

    /// The report as a tree: the parse of [`NetworkReport::encode`]'s
    /// text.
    pub fn to_json(&self) -> JsonValue {
        to_tree(|w| self.encode(w))
    }

    /// Canonical JSON rendering. Two reports with equal contents write
    /// identical bytes — the resume-determinism tests and the campaign
    /// service's result files both rely on this.
    pub fn encode(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("window")
                .arr([self.window.0, self.window.1], |w, c| w.u64(c));
            w.field("cycles_run").u64(self.cycles_run);
            w.field("nodes").u64(self.nodes as u64);
            w.field("offered").u64(self.offered);
            w.field("injected").u64(self.injected);
            w.field("delivered").u64(self.delivered);
            w.field("misdelivered").u64(self.misdelivered);
            w.field("flits_dropped").u64(self.flits_dropped);
            w.field("flits_edge_dropped").u64(self.flits_edge_dropped);
            w.field("in_flight_at_end").u64(self.in_flight_at_end);
            self.total_latency.encode(w.field("total_latency"));
            self.network_latency.encode(w.field("network_latency"));
            w.field("mean_hops").num(self.mean_hops);
            w.field("throughput").num(self.throughput);
            w.field("deadlock_suspected").bool(self.deadlock_suspected);
            self.router_events
                .encode_view(&RouterStats::MECHANISMS, w.field("router_events"));
            w.field("utilisation_heatmap")
                .str(&self.utilisation_heatmap);
            w.field("routers_stepped").u64(self.routers_stepped);
            w.field("routers_skipped").u64(self.routers_skipped);
            w.field("worklist_skip_rate").num(self.worklist_skip_rate);
            self.spatial.encode(w.field("spatial"));
            self.epochs.encode(w.field("epochs"));
            match &self.deadlock {
                Some(fr) => fr.encode(w.field("deadlock")),
                None => w.field("deadlock").null(),
            }
        });
    }

    /// Delivered packet count (correct destinations, window only).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Mean end-to-end latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.total_latency.mean
    }
}

/// The summary as it was computed before the delivery tally: sort the
/// whole sample. Kept as the oracle the tally's summaries are compared
/// with.
#[cfg(test)]
impl LatencySummary {
    pub(crate) fn of(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencySummary::EMPTY;
        }
        samples.sort_unstable();
        let count = samples.len();
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        let sum_sq: u128 = samples.iter().map(|&s| (s as u128) * (s as u128)).sum();
        let mean = sum as f64 / count as f64;
        let variance = (sum_sq as f64 / count as f64 - mean * mean).max(0.0);
        let mut histogram = [0u64; LATENCY_BUCKETS];
        for &s in &samples {
            histogram[Self::bucket_of(s)] += 1;
        }
        let pct = |p: f64| -> u64 {
            let rank = (count as f64 * p).ceil() as usize;
            samples[rank.clamp(1, count) - 1]
        };
        LatencySummary {
            count,
            mean,
            stddev: variance.sqrt(),
            min: samples[0],
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            p999: pct(0.999),
            max: samples[count - 1],
            histogram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tally::LatencyCounts;
    use noc_types::{Coord, DeliveredPacket, PacketId, PacketKind};

    /// The tally's summary of `samples`, checked against the oracle.
    fn summary(samples: Vec<u64>) -> LatencySummary {
        let counts: LatencyCounts = samples.iter().copied().collect();
        let s = counts.summary();
        assert_eq!(s, LatencySummary::of(samples));
        s
    }

    fn delivery(created: Cycle, injected: Cycle, ejected: Cycle) -> DeliveredPacket {
        DeliveredPacket {
            id: PacketId(created),
            kind: PacketKind::Control,
            src: Coord::new(0, 0),
            dst: Coord::new(1, 1),
            created_at: created,
            injected_at: injected,
            ejected_at: ejected,
            hops: 2,
        }
    }

    #[test]
    fn summary_of_empty_sample_is_zero() {
        let s = summary(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_percentiles_are_order_statistics() {
        let s = summary((1..=100).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.p999, 100, "p999 of 100 samples is the maximum");
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn p999_separates_from_p99_on_large_samples() {
        // 1..=1000: nearest rank puts p99 at the 990th and p999 at the
        // 999th order statistic.
        let s = summary((1..=1000).collect());
        assert_eq!(s.p99, 990);
        assert_eq!(s.p999, 999);
    }

    #[test]
    fn stddev_matches_hand_computation() {
        // {2, 4, 4, 4, 5, 5, 7, 9}: the classic example with mean 5 and
        // population stddev exactly 2.
        let s = summary(vec![2, 4, 4, 4, 5, 5, 7, 9]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-9);
        // A constant sample has zero spread.
        let c = summary(vec![42; 10]);
        assert_eq!(c.stddev, 0.0);
        assert_eq!(summary(vec![]).stddev, 0.0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencySummary::bucket_of(0), 0);
        assert_eq!(LatencySummary::bucket_of(1), 1);
        assert_eq!(LatencySummary::bucket_of(2), 2);
        assert_eq!(LatencySummary::bucket_of(3), 2);
        assert_eq!(LatencySummary::bucket_of(4), 3);
        assert_eq!(LatencySummary::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        for i in 1..LATENCY_BUCKETS - 1 {
            let low = LatencySummary::bucket_low(i);
            assert_eq!(LatencySummary::bucket_of(low), i, "lower edge of {i}");
            assert_eq!(
                LatencySummary::bucket_of(2 * low - 1),
                i,
                "upper edge of {i}"
            );
        }
        let s = summary(vec![0, 1, 1, 3, 8, 9, 1_000_000]);
        assert_eq!(s.histogram[0], 1);
        assert_eq!(s.histogram[1], 2);
        assert_eq!(s.histogram[2], 1);
        assert_eq!(s.histogram[4], 2);
        assert_eq!(s.histogram[20], 1, "1e6 lands in [2^19, 2^20)");
        assert_eq!(s.histogram.iter().sum::<u64>(), s.count as u64);
    }

    #[test]
    fn report_filters_to_window() {
        let deliveries = vec![
            delivery(5, 6, 20),    // before window
            delivery(15, 16, 40),  // inside
            delivery(95, 96, 130), // after window
        ];
        let mut cfg = noc_types::NetworkConfig::paper();
        cfg.mesh_k = 2;
        let mut net = Network::new(cfg, shield_router::RouterKind::Protected);
        net.set_window((10, 90));
        for d in &deliveries {
            net.fold_delivery(d);
        }
        let r = NetworkReport::build(&net, 150, None, None);
        assert_eq!(r.window, (10, 90));
        assert_eq!(r.delivered(), 1);
        assert_eq!(r.total_latency.count, 1);
        assert_eq!(r.total_latency.mean, 25.0);
        assert_eq!(r.network_latency.mean, 24.0);
        assert!(r.throughput > 0.0);
    }
}
