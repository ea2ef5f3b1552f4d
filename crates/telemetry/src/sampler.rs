//! Per-epoch time-series samples.
//!
//! The simulator owns the sampling loop (it has the network counters);
//! this module owns the data model and its CSV/JSON renderings so
//! bench bins and tests share one schema.

use crate::json::{JsonSink, JsonValue};
use crate::snapshot::{f64_field, u64_field, Snapshot, SnapshotError};
use noc_types::Cycle;

/// Aggregate network state over one epoch of `N` cycles.
///
/// Counter fields are *deltas over the epoch*; `buffered_flits` and
/// `vc_occupancy` are snapshots taken at the epoch's closing edge.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Epoch index (0 = the first `every` cycles).
    pub epoch: u64,
    /// First cycle of the epoch (inclusive).
    pub start_cycle: Cycle,
    /// Last cycle of the epoch (exclusive).
    pub end_cycle: Cycle,
    /// Packets delivered during the epoch.
    pub delivered_packets: u64,
    /// Flits ejected during the epoch.
    pub delivered_flits: u64,
    /// Flits injected during the epoch.
    pub injected_flits: u64,
    /// Mean packet latency over the epoch's deliveries (0 when none).
    pub mean_latency: f64,
    /// Worst packet latency over the epoch's deliveries.
    pub max_latency: u64,
    /// Flits buffered network-wide at the end of the epoch.
    pub buffered_flits: u64,
    /// Fraction of VC buffer slots occupied at the end of the epoch.
    pub vc_occupancy: f64,
    /// Router steps executed during the epoch.
    pub routers_stepped: u64,
    /// Router steps skipped by the worklist during the epoch.
    pub routers_skipped: u64,
    /// Non-idle routers at the end of the epoch.
    pub active_routers: u64,
    /// Load-imbalance ratio at the end of the epoch: max over mesh rows
    /// of the row weight (1 + non-idle routers), divided by the mean row
    /// weight (1.0 = perfectly balanced; computed from cycle-boundary
    /// state, so it is deterministic across thread counts).
    pub load_imbalance: f64,
}

impl EpochSample {
    /// Fraction of router steps the worklist skipped this epoch.
    pub fn skip_rate(&self) -> f64 {
        let total = self.routers_stepped + self.routers_skipped;
        if total == 0 {
            0.0
        } else {
            self.routers_skipped as f64 / total as f64
        }
    }

    /// Delivered packets per cycle over the epoch.
    pub fn throughput(&self) -> f64 {
        let cycles = self.end_cycle.saturating_sub(self.start_cycle);
        if cycles == 0 {
            0.0
        } else {
            self.delivered_packets as f64 / cycles as f64
        }
    }

    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| {
            sink.field("epoch").u64(self.epoch);
            sink.field("start_cycle").u64(self.start_cycle);
            sink.field("end_cycle").u64(self.end_cycle);
            sink.field("delivered_packets").u64(self.delivered_packets);
            sink.field("delivered_flits").u64(self.delivered_flits);
            sink.field("injected_flits").u64(self.injected_flits);
            sink.field("mean_latency").num(self.mean_latency);
            sink.field("max_latency").u64(self.max_latency);
            sink.field("buffered_flits").u64(self.buffered_flits);
            sink.field("vc_occupancy").num(self.vc_occupancy);
            sink.field("routers_stepped").u64(self.routers_stepped);
            sink.field("routers_skipped").u64(self.routers_skipped);
            sink.field("active_routers").u64(self.active_routers);
            sink.field("load_imbalance").num(self.load_imbalance);
            sink.field("skip_rate").num(self.skip_rate());
            sink.field("throughput").num(self.throughput());
        });
    }

    /// Rebuild a sample from its JSON encoding. The
    /// derived `skip_rate`/`throughput` fields are ignored — they are
    /// recomputed from the counters.
    pub fn from_json(v: &JsonValue) -> Result<Self, SnapshotError> {
        Ok(EpochSample {
            epoch: u64_field(v, "epoch")?,
            start_cycle: u64_field(v, "start_cycle")?,
            end_cycle: u64_field(v, "end_cycle")?,
            delivered_packets: u64_field(v, "delivered_packets")?,
            delivered_flits: u64_field(v, "delivered_flits")?,
            injected_flits: u64_field(v, "injected_flits")?,
            mean_latency: f64_field(v, "mean_latency")?,
            max_latency: u64_field(v, "max_latency")?,
            buffered_flits: u64_field(v, "buffered_flits")?,
            vc_occupancy: f64_field(v, "vc_occupancy")?,
            routers_stepped: u64_field(v, "routers_stepped")?,
            routers_skipped: u64_field(v, "routers_skipped")?,
            active_routers: u64_field(v, "active_routers")?,
            load_imbalance: f64_field(v, "load_imbalance")?,
        })
    }
}

/// The ordered sequence of epoch samples for one run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TimeSeries {
    /// Epoch length in cycles.
    pub every: Cycle,
    /// One sample per completed epoch, in time order.
    pub samples: Vec<EpochSample>,
}

impl TimeSeries {
    /// An empty series sampling every `every` cycles (min 1).
    pub fn new(every: Cycle) -> Self {
        TimeSeries {
            every: every.max(1),
            samples: Vec::new(),
        }
    }

    /// Append the next epoch's sample.
    pub fn push(&mut self, sample: EpochSample) {
        self.samples.push(sample);
    }

    /// Render as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "epoch,start_cycle,end_cycle,delivered_packets,delivered_flits,injected_flits,\
             mean_latency,max_latency,buffered_flits,vc_occupancy,routers_stepped,\
             routers_skipped,active_routers,load_imbalance,skip_rate,throughput\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.4},{},{},{:.6},{},{},{},{:.6},{:.6},{:.6}\n",
                s.epoch,
                s.start_cycle,
                s.end_cycle,
                s.delivered_packets,
                s.delivered_flits,
                s.injected_flits,
                s.mean_latency,
                s.max_latency,
                s.buffered_flits,
                s.vc_occupancy,
                s.routers_stepped,
                s.routers_skipped,
                s.active_routers,
                s.load_imbalance,
                s.skip_rate(),
                s.throughput(),
            ));
        }
        out
    }

    /// Rebuild a series from its [`Snapshot`] encoding.
    pub fn from_json(v: &JsonValue) -> Result<Self, SnapshotError> {
        let every = u64_field(v, "every")?;
        let samples = v
            .get("samples")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SnapshotError::new("missing `samples` array"))?
            .iter()
            .map(EpochSample::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TimeSeries { every, samples })
    }
}

/// A JSON object: `every` and the sample array.
impl Snapshot for TimeSeries {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| {
            sink.field("every").u64(self.every);
            sink.field("samples")
                .arr(&self.samples, |sink, s| s.encode(sink));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = EpochSample {
            epoch: 2,
            start_cycle: 200,
            end_cycle: 300,
            delivered_packets: 25,
            routers_stepped: 30,
            routers_skipped: 70,
            ..EpochSample::default()
        };
        assert!((s.skip_rate() - 0.7).abs() < 1e-12);
        assert!((s.throughput() - 0.25).abs() < 1e-12);
        assert_eq!(EpochSample::default().skip_rate(), 0.0);
        assert_eq!(EpochSample::default().throughput(), 0.0);
    }

    #[test]
    fn csv_and_json_agree_on_sample_count() {
        let mut ts = TimeSeries::new(100);
        for epoch in 0..3u64 {
            ts.push(EpochSample {
                epoch,
                start_cycle: epoch * 100,
                end_cycle: (epoch + 1) * 100,
                ..EpochSample::default()
            });
        }
        assert_eq!(ts.to_csv().lines().count(), 4);
        let json = ts.snapshot();
        assert_eq!(json.get("every").unwrap().as_u64(), Some(100));
        assert_eq!(json.get("samples").unwrap().as_array().unwrap().len(), 3);
        // The rendering must survive our own parser.
        let text = json.render();
        assert!(crate::json::JsonValue::parse(&text).is_ok());
    }

    #[test]
    fn json_round_trips_for_checkpoint_restore() {
        let mut ts = TimeSeries::new(250);
        ts.push(EpochSample {
            epoch: 0,
            start_cycle: 0,
            end_cycle: 250,
            delivered_packets: 12,
            delivered_flits: 36,
            injected_flits: 40,
            mean_latency: 31.25,
            max_latency: 88,
            buffered_flits: 4,
            vc_occupancy: 0.015625,
            routers_stepped: 1000,
            routers_skipped: 600,
            active_routers: 7,
            load_imbalance: 1.75,
        });
        let doc = JsonValue::parse(&ts.snapshot().render()).unwrap();
        let back = TimeSeries::from_json(&doc).unwrap();
        assert_eq!(back, ts);
        assert_eq!(back.snapshot().render(), ts.snapshot().render());
    }
}
