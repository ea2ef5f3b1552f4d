//! Run orchestration: warm-up / measurement / drain phases, the
//! deadlock watchdog, epoch sampling and report assembly.

use crate::delivery::{DeliveryStream, MemoryStream, NullStream};
use crate::network::Network;
use crate::stats::NetworkReport;
use noc_faults::FaultPlan;
use noc_telemetry::json::{JsonReader, JsonSink, JsonValue, JsonWriter, TreeBuilder};
use noc_telemetry::snapshot::{Restore, Snapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
use noc_telemetry::{EpochSample, NullObserver, Observer, ShardedTracer, TimeSeries};
use noc_traffic::TrafficGenerator;
use noc_types::{Cycle, DeliveredPacket, NetworkConfig, Packet, SimConfig};
use shield_router::RouterKind;

/// Default stall horizon: cycles without any crossbar traversal (while
/// flits are buffered) after which the watchdog declares a suspected
/// deadlock. See [`Simulator::with_watchdog`].
const WATCHDOG_CYCLES: Cycle = 10_000;

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOutcome {
    /// Ran to the configured horizon (drain included).
    Completed,
    /// Every flit drained before the horizon.
    DrainedEarly,
    /// The watchdog fired.
    DeadlockSuspected,
    /// A [`Simulator::run_resumable`] checkpoint callback asked to stop;
    /// the run can be resumed from the checkpoint it just emitted.
    Interrupted,
}

/// A configured simulation, ready to run against a packet source.
pub struct Simulator {
    net_cfg: NetworkConfig,
    sim_cfg: SimConfig,
    kind: RouterKind,
    plan: FaultPlan,
    threads: usize,
    sample_every: Option<Cycle>,
    checkpoint_every: Cycle,
    watchdog: Cycle,
}

/// A packet source whose state can be checkpointed and restored, so a
/// run driven by it can resume exactly where it left off. Implemented
/// by [`TrafficGenerator`]; implement it for custom sources to use
/// [`Simulator::run_resumable`].
pub trait PacketSource: Snapshot + Restore {
    /// Append the packets created at `cycle` to `out`.
    fn generate(&mut self, cycle: Cycle, out: &mut Vec<Packet>);
}

impl PacketSource for TrafficGenerator {
    fn generate(&mut self, cycle: Cycle, out: &mut Vec<Packet>) {
        self.tick_into(cycle, out);
    }
}

/// Default stepper thread count, read from `NOC_SIM_THREADS` (`1` =
/// one shard, `0` = one per CPU). Having every `Simulator` honour the
/// variable lets CI run the whole test suite on a multi-shard stepper
/// as a nondeterminism canary without touching any call site.
fn env_threads() -> usize {
    env_u64(std::env::var("NOC_SIM_THREADS").ok().as_deref()).map_or(1, |t| t as usize)
}

/// Parse the value of `NOC_SIM_THREADS`, a result-neutral performance
/// variable. Unset or unparsable means "use the default": a typo in an
/// inherited environment must not take a run (or, in the daemon, every
/// job) down.
fn env_u64(raw: Option<&str>) -> Option<u64> {
    raw?.parse().ok()
}

/// Rolling state for the epoch sampler: the counter values at the last
/// epoch boundary, so each sample reports deltas, and a running count,
/// latency sum and maximum of the open epoch's deliveries.
#[derive(Clone)]
struct EpochState {
    series: TimeSeries,
    epoch_start: Cycle,
    /// Deliveries before the open epoch: the delivery log's length at
    /// its start.
    deliveries_seen: u64,
    open: OpenEpoch,
    flits_ejected: u64,
    flits_injected: u64,
    routers_stepped: u64,
    routers_skipped: u64,
}

/// The open epoch's deliveries: count, exact total-latency sum, maximum.
#[derive(Clone, Default)]
struct OpenEpoch {
    count: u64,
    sum: u128,
    max: u64,
}

impl EpochState {
    /// A sampler whose first epoch opens at `net`'s clock and counters
    /// (all zero on a fresh network).
    fn new(every: Cycle, net: &Network) -> Self {
        EpochState {
            series: TimeSeries::new(every),
            epoch_start: net.cycle(),
            deliveries_seen: net.tally().seen(),
            open: OpenEpoch::default(),
            flits_ejected: net.flits_ejected(),
            flits_injected: net.flits_injected,
            routers_stepped: net.routers_stepped(),
            routers_skipped: net.routers_skipped(),
        }
    }

    /// Count a delivery of the open epoch.
    fn record(&mut self, d: &DeliveredPacket) {
        let latency = d.total_latency();
        self.open.count += 1;
        self.open.sum += u128::from(latency);
        self.open.max = self.open.max.max(latency);
    }

    /// Close the epoch ending just after `cycle` and append its sample.
    fn close(&mut self, net: &Network, cycle: Cycle) {
        let open = std::mem::take(&mut self.open);
        let mean_latency = if open.count == 0 {
            0.0
        } else {
            open.sum as f64 / open.count as f64
        };
        let sample = EpochSample {
            epoch: self.series.samples.len() as u64,
            start_cycle: self.epoch_start,
            end_cycle: cycle + 1,
            delivered_packets: open.count,
            delivered_flits: net.flits_ejected() - self.flits_ejected,
            injected_flits: net.flits_injected - self.flits_injected,
            mean_latency,
            max_latency: open.max,
            buffered_flits: net.in_flight_flits(),
            vc_occupancy: net.buffer_occupancy(),
            routers_stepped: net.routers_stepped() - self.routers_stepped,
            routers_skipped: net.routers_skipped() - self.routers_skipped,
            active_routers: net.active_routers(),
            load_imbalance: net.load_imbalance(),
        };
        self.series.push(sample);
        self.epoch_start = cycle + 1;
        self.deliveries_seen += open.count;
        self.flits_ejected = net.flits_ejected();
        self.flits_injected = net.flits_injected;
        self.routers_stepped = net.routers_stepped();
        self.routers_skipped = net.routers_skipped();
    }
}

// The sampler's resumable state; the open epoch is refilled from the
// delivery stream on resume.
noc_telemetry::record! {
    EpochState {
        series, epoch_start, deliveries_seen, flits_ejected, flits_injected, routers_stepped,
        routers_skipped,
    } skip { open }
}

/// What [`Simulator::run_core`] drives each cycle: a packet generator
/// plus an end-of-cycle hook, which hands the network's new deliveries
/// on to the run's delivery stream. The plain `run*` entry points wrap
/// their closure in [`FnSource`] (every cycle's deliveries go to the
/// stream at once); [`Simulator::run_streamed`] uses the hook to emit
/// checkpoints, so both paths share one loop and cannot drift apart.
trait CoreSource {
    fn generate(&mut self, cycle: Cycle, out: &mut Vec<Packet>);
    /// Called after `cycle` fully completed (network stepped, epoch
    /// sampler closed) and before the loop decides whether to stop.
    /// Returning `false` interrupts the run.
    fn cycle_done(&mut self, cycle: Cycle, net: &mut Network, epochs: &Option<EpochState>) -> bool;
}

struct FnSource<'a, F> {
    generate: F,
    stream: &'a mut dyn DeliveryStream,
}

impl<F: FnMut(Cycle, &mut Vec<Packet>)> CoreSource for FnSource<'_, F> {
    fn generate(&mut self, cycle: Cycle, out: &mut Vec<Packet>) {
        (self.generate)(cycle, out);
    }

    fn cycle_done(&mut self, _: Cycle, net: &mut Network, _: &Option<EpochState>) -> bool {
        net.hand_on_deliveries(self.stream)
            .unwrap_or_else(|e| panic!("the run's delivery stream failed: {e}"));
        true
    }
}

/// A run's state at a checkpoint boundary, handed to the callback of
/// [`Simulator::run_streamed`]. It is a copy, not a document: the epoch
/// sampler (a clone) and the packet source (its snapshot tree; both
/// are small) at the boundary, and a [`Clone`] of the network, whose
/// deliveries are its tally (the ones since the last boundary were just
/// handed on). The run steps on at once, and the caller encodes the
/// checkpoint from the copy whenever, and on whichever thread, it
/// likes — as text into its own buffer ([`Checkpoint::write_document`])
/// or as a tree ([`Checkpoint::document`]), the same encoder either
/// way: the copy is independent of the live network, so the document
/// is the one the boundary would have produced.
pub struct Checkpoint {
    head: CheckpointHead,
    source: JsonValue,
    network: Network,
}

impl Checkpoint {
    /// The cycle, the delivery offset and the epoch series it carries.
    pub fn head(&self) -> &CheckpointHead {
        &self.head
    }

    /// The complete self-describing checkpoint document (schema v4):
    /// feed its text back as `resume_from`, on a `Simulator` with the same
    /// configuration, to resume.
    pub fn document(&self) -> JsonValue {
        TreeBuilder::build(|tree| self.encode(tree))
    }

    /// Append the text of [`Checkpoint::document`] to `out`, without
    /// building the tree: what a checkpoint file holds.
    pub fn write_document(&self, out: &mut String) {
        self.encode(&mut JsonWriter::new(out));
    }

    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| {
            self.head.write(sink);
            self.source.encode(sink.field("source"));
            // The live spatial grid, so observers (the service's
            // `/jobs/:id/progress`) can read a heatmap straight off the
            // last durable checkpoint. Deterministic (router-owned
            // counters), so resumed runs reproduce it exactly; the
            // restore path skips it — the grid is re-derived from the
            // restored routers.
            self.network.spatial_grid().encode(sink.field("progress"));
            self.network.encode(sink.field("network"));
        });
    }
}

/// The leading members of a checkpoint document: its cycle, its
/// delivery offset and the epoch sampler.
pub struct CheckpointHead {
    cycle: Cycle,
    delivery_offset: u64,
    epochs: Option<EpochState>,
}

impl CheckpointHead {
    /// Write the head members into the open checkpoint object.
    fn write<S: JsonSink>(&self, sink: &mut S) {
        sink.field("schema_version").u64(SNAPSHOT_SCHEMA_VERSION);
        sink.field("cycle").u64(self.cycle);
        sink.field("delivery_offset").u64(self.delivery_offset);
        self.epochs.encode(sink.field("epochs"));
    }

    /// Read the head members of the checkpoint object open at `r`.
    fn read(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        let version: u64 = r.field("schema_version")?;
        if version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::new(format!(
                "checkpoint schema version {version} != supported {SNAPSHOT_SCHEMA_VERSION}"
            )));
        }
        Ok(CheckpointHead {
            cycle: r.field("cycle")?,
            delivery_offset: r.field("delivery_offset")?,
            epochs: r.field("epochs")?,
        })
    }

    /// The head of checkpoint `text`, read off the text; the rest of the
    /// document is checked for syntax only.
    pub fn of(text: &str) -> Result<Self, SnapshotError> {
        let mut r = JsonReader::new(text);
        r.begin_obj()?;
        let head = Self::read(&mut r)?;
        while r.key()?.is_some() {
            r.skip()?;
        }
        r.end()?;
        Ok(head)
    }

    /// The cycle the run resumes at.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// How many leading entries of the delivery stream the checkpoint
    /// vouches for.
    pub fn delivery_offset(&self) -> u64 {
        self.delivery_offset
    }

    /// The epoch series so far, the document's `epochs.series`; `None`
    /// when the run does not sample.
    pub fn epoch_series(&self) -> Option<&TimeSeries> {
        self.epochs.as_ref().map(|e| &e.series)
    }
}

/// The resumable loop's source: forwards packet generation, spools new
/// deliveries into the stream, and hands a [`Checkpoint`] to the sink
/// every `every` cycles at which the stream is
/// [`DeliveryStream::ready`] (a boundary it is not ready for is skipped
/// whole; the next one taken carries the larger batch). Ordering is
/// load-bearing: deliveries are appended **before** the checkpoint
/// referencing their offset is handed to the sink, so a crash between
/// the two leaves at worst a stream tail past the last durable
/// checkpoint — which the next resume truncates away.
struct CheckpointingSource<'a, S, F> {
    source: &'a mut S,
    every: Cycle,
    sink: F,
    stream: &'a mut dyn DeliveryStream,
    /// Deliveries spooled so far == the offset of the next checkpoint.
    offset: u64,
    /// A stream append failure, stashed so the run loop can stop and
    /// `run_streamed` can surface it as an error.
    stream_error: Option<SnapshotError>,
}

impl<S: PacketSource, F: FnMut(Checkpoint) -> bool> CoreSource for CheckpointingSource<'_, S, F> {
    fn generate(&mut self, cycle: Cycle, out: &mut Vec<Packet>) {
        self.source.generate(cycle, out);
    }

    fn cycle_done(&mut self, cycle: Cycle, net: &mut Network, epochs: &Option<EpochState>) -> bool {
        let next = cycle + 1;
        if self.every == 0 || !next.is_multiple_of(self.every) || !self.stream.ready() {
            return true;
        }
        self.offset += net.pending_deliveries().len() as u64;
        if let Err(e) = net.hand_on_deliveries(self.stream) {
            self.stream_error = Some(e);
            return false;
        }
        (self.sink)(Checkpoint {
            head: CheckpointHead {
                cycle: next,
                delivery_offset: self.offset,
                epochs: epochs.clone(),
            },
            source: self.source.snapshot(),
            network: net.clone(),
        })
    }
}

impl Simulator {
    /// Configure a simulation. The stepper thread count defaults from
    /// the `NOC_SIM_THREADS` environment variable (one thread when unset).
    pub fn new(
        net_cfg: NetworkConfig,
        sim_cfg: SimConfig,
        kind: RouterKind,
        plan: FaultPlan,
    ) -> Self {
        Simulator {
            net_cfg,
            sim_cfg,
            kind,
            plan,
            threads: env_threads(),
            sample_every: None,
            checkpoint_every: 0,
            watchdog: WATCHDOG_CYCLES,
        }
    }

    /// Set how many threads step the mesh (`0` = one per CPU, `1` =
    /// the calling thread alone). Results are bit-identical for every value; see
    /// [`Network::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sample a time-series [`EpochSample`] every `every` cycles (`0`
    /// disables sampling). The series lands in
    /// [`NetworkReport::epochs`].
    pub fn with_sample_every(mut self, every: Cycle) -> Self {
        self.sample_every = if every == 0 { None } else { Some(every) };
        self
    }

    /// Emit a checkpoint every `every` cycles during
    /// [`Simulator::run_resumable`] (`0`, the default, disables
    /// checkpointing — the run is still resumable from a checkpoint
    /// taken earlier).
    pub fn with_checkpoint_every(mut self, every: Cycle) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Set the stall horizon (default 10,000): the run ends as
    /// [`SimOutcome::DeadlockSuspected`] on the first cycle `c` with
    /// `c − last_activity > cycles` while flits are buffered. The
    /// campaign engine forwards `stall_cycles − 1`, which is its own
    /// rule `cycles_run − last_activity > stall_cycles` (`cycles_run`
    /// is `c + 1`).
    pub fn with_watchdog(mut self, cycles: Cycle) -> Self {
        self.watchdog = cycles;
        self
    }

    /// Run the simulation.
    ///
    /// `source` is called once per cycle during warm-up and measurement
    /// (never during drain) and appends the packets created that cycle
    /// to a buffer the simulator owns and clears, so a steady-state
    /// cycle touches no allocator; each packet's `src` selects the
    /// injecting node. Returns the report plus how the run ended.
    pub fn run_with(
        &self,
        source: impl FnMut(Cycle, &mut Vec<Packet>),
    ) -> (NetworkReport, SimOutcome) {
        self.run_on(&mut self.build_network(), &mut NullStream, source)
    }

    /// Run a checkpointable simulation against a [`PacketSource`].
    ///
    /// When `resume_from` is `Some` checkpoint text, the network, the
    /// source and the epoch sampler are restored from it, read straight
    /// off the text with no document tree between, and the loop
    /// continues from the checkpointed cycle; the returned report is
    /// **byte-for-byte identical** (via [`NetworkReport::to_json`]) to
    /// the report an uninterrupted run would have produced, for either
    /// router kind, any topology and any thread count.
    ///
    /// When [`Simulator::with_checkpoint_every`] is set, `on_checkpoint`
    /// receives a complete self-describing checkpoint document every
    /// `n` cycles ([`Checkpoint::document`] of what
    /// [`Simulator::run_streamed`] hands over); feed its text back as
    /// `resume_from` (on a `Simulator` with the same configuration) to
    /// resume. Returning `false` from the callback interrupts the run
    /// ([`SimOutcome::Interrupted`]) right after the checkpoint it was
    /// handed — the graceful-shutdown hook for the campaign service.
    pub fn run_resumable<S: PacketSource>(
        &self,
        source: &mut S,
        resume_from: Option<&str>,
        mut on_checkpoint: impl FnMut(&JsonValue) -> bool,
    ) -> Result<(NetworkReport, SimOutcome), SnapshotError> {
        // A throwaway in-memory stream: fine for fresh runs and for
        // resuming a checkpoint taken before any deliveries (offset 0).
        // To resume a checkpoint with a non-zero `delivery_offset`, use
        // [`Simulator::run_streamed`] with the stream the checkpointed
        // run appended to — an empty stream cannot be truncated to a
        // positive offset and the resume fails cleanly.
        let mut stream = MemoryStream::new();
        self.run_streamed(source, &mut stream, resume_from, |c| {
            on_checkpoint(&c.document())
        })
    }

    /// [`Simulator::run_resumable`] with an explicit delivery stream,
    /// and the one run loop behind it.
    ///
    /// `on_checkpoint` receives each checkpoint as a [`Checkpoint`],
    /// an owned copy of the run's state at the boundary rather than a
    /// document: the loop pays for a network clone, an epoch-sampler
    /// clone and a small snapshot of the source and steps on, and the
    /// caller encodes the checkpoint where it likes — the campaign
    /// service writes [`Checkpoint::write_document`] on the job's spool
    /// writer thread. Returning `false`
    /// interrupts the run right after it.
    ///
    /// New deliveries are appended to `stream` at every checkpoint
    /// boundary the stream is [`DeliveryStream::ready`] for, *before*
    /// the checkpoint (which records the resulting stream offset as
    /// [`CheckpointHead::delivery_offset`]) reaches `on_checkpoint`, and once
    /// more when the run completes — so after a completed run the
    /// stream holds the full delivery log, and it is the only place the
    /// log is kept: between boundaries the network holds only the
    /// deliveries not yet appended. When
    /// resuming, `stream` must be the stream the checkpointed run was
    /// appending to: it is truncated back to the checkpointed offset
    /// (discarding entries from cycles about to be re-executed) and the
    /// retained prefix, read one entry at a time, is folded into the
    /// network's delivery tally and the open epoch. Determinism makes
    /// the re-executed cycles re-append the discarded entries
    /// byte-identically, which is why `resume == uninterrupted` holds
    /// for the stream as well as the report (ARCHITECTURE.md §5).
    ///
    /// A fresh run (`resume_from` = `None`) truncates the stream to
    /// empty first, so a leftover stream from a crashed run that never
    /// checkpointed cannot pollute the restart.
    pub fn run_streamed<S: PacketSource>(
        &self,
        source: &mut S,
        stream: &mut dyn DeliveryStream,
        resume_from: Option<&str>,
        on_checkpoint: impl FnMut(Checkpoint) -> bool,
    ) -> Result<(NetworkReport, SimOutcome), SnapshotError> {
        let mut net = self.build_network();
        net.set_window(self.window());
        let (start_cycle, epochs, offset) = match resume_from {
            None => {
                stream
                    .truncate(0, &mut |_| ())
                    .map_err(|e| e.within("stream"))?;
                (0, self.epochs_from(&net), 0)
            }
            Some(text) => {
                let mut r = JsonReader::new(text);
                let (head, source_text) = r.obj(|r| {
                    let head = CheckpointHead::read(r)?;
                    // The source is restored once the network is: a
                    // mismatched document must not touch the caller's.
                    let source_text = r.member("source")?.skip()?;
                    // Informational: re-derived from the routers.
                    r.member("progress")?.skip()?;
                    r.field_with("network", |r| net.restore_from(r))?;
                    Ok((head, source_text))
                })?;
                r.end()?;
                source
                    .restore_text(source_text)
                    .map_err(|e| e.within("source"))?;
                let CheckpointHead {
                    cycle,
                    delivery_offset: offset,
                    mut epochs,
                } = head;
                if let Some(ep) = epochs.as_ref().filter(|ep| ep.deliveries_seen > offset) {
                    return Err(SnapshotError::new(format!(
                        "`deliveries_seen` {} is past the delivery offset {offset}",
                        ep.deliveries_seen
                    ))
                    .within("epochs"));
                }
                // Validated before touching the stream, so a mismatched
                // document cannot cost stream data. The kept prefix is
                // the tally's, and its entries past the open epoch's
                // start are that epoch's.
                let mut index = 0u64;
                stream
                    .truncate(offset, &mut |d| {
                        net.fold_delivery(d);
                        if let Some(ep) = epochs.as_mut().filter(|ep| index >= ep.deliveries_seen) {
                            ep.record(d);
                        }
                        index += 1;
                    })
                    .map_err(|e| e.within("stream"))?;
                (cycle, epochs, offset)
            }
        };
        let mut nulls = vec![NullObserver; net.shard_count()];
        let mut core = CheckpointingSource {
            source,
            every: self.checkpoint_every,
            sink: on_checkpoint,
            stream,
            offset,
            stream_error: None,
        };
        let (report, outcome) = self.run_core(&mut net, &mut core, &mut nulls, start_cycle, epochs);
        if let Some(e) = core.stream_error {
            return Err(e.within("stream"));
        }
        if outcome != SimOutcome::Interrupted {
            // Flush deliveries past the last checkpoint boundary so a
            // finished run leaves the complete log in the stream.
            net.hand_on_deliveries(core.stream)
                .map_err(|e| e.within("stream"))?;
        }
        Ok((report, outcome))
    }

    /// [`Simulator::run_with`] with event tracing enabled.
    ///
    /// Allocates one drop-oldest ring of `capacity_per_shard` events
    /// per stepper shard up front, records into them allocation-free,
    /// and returns the tracer alongside the report. Merge it with
    /// [`ShardedTracer::merged`] for the canonical stream — identical
    /// for every thread count — and check
    /// [`ShardedTracer::dropped`] before trusting totals from a long
    /// run.
    pub fn run_traced(
        &self,
        source: impl FnMut(Cycle, &mut Vec<Packet>),
        capacity_per_shard: usize,
    ) -> (NetworkReport, SimOutcome, ShardedTracer) {
        let mut net = self.build_network();
        let mut tracer = ShardedTracer::new(net.shard_count(), capacity_per_shard);
        let epochs = self.epochs_from(&net);
        let mut source = FnSource {
            generate: source,
            stream: &mut NullStream,
        };
        let (report, outcome) = self.run_core(&mut net, &mut source, tracer.rings_mut(), 0, epochs);
        (report, outcome, tracer)
    }

    /// Run the phased loop (warm-up / measure / drain, watchdog, epoch
    /// sampling, report assembly) on a caller-built network, from the
    /// network's own clock ([`Network::cycle`]) to the end of the
    /// phases. A fresh network is at cycle 0, so this is a whole run; a
    /// network that was stepped before — by an earlier `run_on` whose
    /// phases ended sooner, or a [`Clone`] of one — continues, and
    /// finishes exactly as the uninterrupted run would have. The epoch
    /// sampler covers only the cycles this call steps.
    ///
    /// Each cycle's deliveries are appended to `stream` as they happen:
    /// pass a [`NullStream`] to keep nothing (the report reads the
    /// network's tally), or a [`crate::MemoryStream`] to read the
    /// delivery log back afterwards.
    ///
    /// This is how fault campaigns and the bench sweeps run: they
    /// build the network (faults, re-routed tables, thread count) and
    /// read it back afterwards — its tally, a flight record.
    /// This simulator's own `net_cfg`/`plan`/`threads` are ignored.
    ///
    /// # Panics
    /// When `stream` fails an append (use [`Simulator::run_streamed`]
    /// for a stream that can), and when `net` was tallied under a
    /// measurement window that differs from this simulator's on a cycle
    /// it has already stepped: the report would silently mix the two.
    pub fn run_on(
        &self,
        net: &mut Network,
        stream: &mut dyn DeliveryStream,
        source: impl FnMut(Cycle, &mut Vec<Packet>),
    ) -> (NetworkReport, SimOutcome) {
        // Zero-sized observers: the Vec never allocates and every
        // `O::ENABLED` guard in the steppers compiles out.
        let mut nulls = vec![NullObserver; net.shard_count()];
        let (start, epochs) = (net.cycle(), self.epochs_from(net));
        let mut source = FnSource {
            generate: source,
            stream,
        };
        self.run_core(net, &mut source, &mut nulls, start, epochs)
    }

    /// The measurement window `[warmup, warmup + measure)`: deliveries of
    /// packets created in it are the report's.
    fn window(&self) -> (Cycle, Cycle) {
        let warmup = self.sim_cfg.warmup_cycles;
        (warmup, warmup + self.sim_cfg.measure_cycles)
    }

    /// The epoch sampler of a run starting at `net`'s clock, when
    /// sampling is on.
    fn epochs_from(&self, net: &Network) -> Option<EpochState> {
        self.sample_every.map(|every| EpochState::new(every, net))
    }

    fn build_network(&self) -> Network {
        let mut net = Network::with_faults(self.net_cfg, self.kind, &self.plan);
        net.set_threads(self.threads);
        net
    }

    /// The shared run loop; `obs` holds one observer per stepper shard.
    /// `start_cycle`/`epochs` are `0`/fresh for a normal run and come
    /// from the checkpoint when resuming.
    fn run_core<O: Observer + Send, S: CoreSource>(
        &self,
        net: &mut Network,
        source: &mut S,
        obs: &mut [O],
        start_cycle: Cycle,
        mut epochs: Option<EpochState>,
    ) -> (NetworkReport, SimOutcome) {
        let mut packet_buf: Vec<Packet> = Vec::new();
        net.set_window(self.window());
        let measure_end = self.window().1;
        let horizon = self.sim_cfg.total_cycles();

        let mut outcome = SimOutcome::Completed;
        let mut cycles_run = horizon;
        let mut deadlock = None;
        for cycle in start_cycle..horizon {
            if cycle < measure_end {
                packet_buf.clear();
                source.generate(cycle, &mut packet_buf);
                if !packet_buf.is_empty() {
                    net.offer_packets_from(&mut packet_buf);
                }
            }
            let handed_on = net.pending_deliveries().len();
            net.step_observed(cycle, obs);
            if let Some(ep) = &mut epochs {
                for d in &net.pending_deliveries()[handed_on..] {
                    ep.record(d);
                }
                if (cycle + 1).is_multiple_of(ep.series.every) {
                    ep.close(net, cycle);
                }
            }
            let keep_going = source.cycle_done(cycle, net, &epochs);
            if cycle >= measure_end && net.in_flight_flits() == 0 && net.queued_packets() == 0 {
                outcome = SimOutcome::DrainedEarly;
                cycles_run = cycle + 1;
                break;
            }
            if cycle.saturating_sub(net.last_activity) > self.watchdog && net.in_flight_flits() > 0
            {
                outcome = SimOutcome::DeadlockSuspected;
                cycles_run = cycle + 1;
                deadlock = Some(net.flight_record(cycle));
                break;
            }
            if !keep_going {
                outcome = SimOutcome::Interrupted;
                cycles_run = cycle + 1;
                break;
            }
        }
        if let Some(ep) = &mut epochs {
            // Close the final partial epoch so short runs still sample.
            if ep.epoch_start < cycles_run {
                ep.close(net, cycles_run - 1);
            }
        }

        let report = NetworkReport::build(net, cycles_run, epochs.map(|e| e.series), deadlock);
        (report, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::env_u64;

    #[test]
    fn env_u64_falls_back_on_anything_unparsable() {
        assert_eq!(env_u64(None), None);
        assert_eq!(env_u64(Some("0")), Some(0));
        assert_eq!(env_u64(Some("64")), Some(64));
        for bad in ["", "fast", "-1", "1.5", "64 ", "18446744073709551616"] {
            assert_eq!(env_u64(Some(bad)), None, "`{bad}`");
        }
    }
}
