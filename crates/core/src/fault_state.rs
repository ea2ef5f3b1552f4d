//! Time-aware fault state of one router.
//!
//! A [`noc_faults::FaultMap`] is a set; the router additionally needs to
//! know *when* each fault manifested and when it was detected, because
//! the correction circuitry only engages once the (assumed) detection
//! mechanism has flagged the component (Section V: “we assume that faults
//! can be detected by using one of the many existing fault detection
//! mechanisms”).

use noc_faults::{DetectionModel, FaultMap, FaultSite, PipelineStage};
use noc_telemetry::{Event, EventKind, NullObserver, Observer};
use noc_types::{Cycle, PortId, RouterConfig, VcId};

/// Fault bookkeeping with manifestation and detection times.
///
/// The `active`/`detected` maps are functions of the schedule, the
/// detection model and the clock. They change only on the cycles a
/// fault manifests, is detected, or a transient window ends, so the
/// state keeps the range `[refreshed_at, next_edge)` over which they
/// are exact and re-derives them only when the clock leaves it.
///
/// `repr(C)`: the three fields a stepper's idle test reads come first,
/// so a [`crate::Router`], which puts this state right after its VC
/// state words, answers [`crate::Router::is_idle_at`] from its first
/// cache line.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct FaultState {
    /// Cycle of the most recent refresh.
    refreshed_at: Cycle,
    /// First cycle after `refreshed_at` at which the maps may differ.
    /// Anything that changes the schedule or the detection model sets
    /// it to 0 (an empty range), so the next refresh re-derives.
    next_edge: Cycle,
    /// Whether no fault is scheduled at all, as
    /// [`FaultState::is_inert`] reports it: kept with `injected` and
    /// `transients`, which only grow or are replaced whole on restore.
    inert: bool,
    detection: DetectionModel,
    /// Sites already *detected* (correction engaged).
    detected: FaultMap,
    /// Sites manifested (whether or not detected).
    active: FaultMap,
    /// Every injected permanent fault with its manifestation cycle.
    injected: Vec<(FaultSite, Cycle)>,
    /// Transient upsets: `(site, start, duration)` — the site misbehaves
    /// during `[start, start + duration)` and then recovers. Extension
    /// beyond the paper's permanent-fault scope.
    transients: Vec<(FaultSite, Cycle, u32)>,
}

impl FaultState {
    /// A healthy router of configuration `cfg` with the given detection
    /// model.
    pub fn new(cfg: &RouterConfig, detection: DetectionModel) -> Self {
        FaultState {
            refreshed_at: 0,
            next_edge: 0,
            inert: true,
            injected: Vec::new(),
            transients: Vec::new(),
            detection,
            detected: FaultMap::healthy(cfg),
            active: FaultMap::healthy(cfg),
        }
    }

    /// Schedule (or immediately manifest) a permanent fault at `cycle`.
    ///
    /// # Panics
    /// Panics, here and not when the fault would manifest, on a site
    /// the router does not have ([`FaultSite::in_range`]).
    pub fn inject(&mut self, site: FaultSite, cycle: Cycle) {
        if let Err(e) = self.active.check(site) {
            panic!("{e}");
        }
        self.injected.push((site, cycle));
        self.inert = false;
        self.next_edge = 0;
        // A fault in the past manifests without waiting for a refresh.
        if cycle <= self.refreshed_at {
            self.active.inject(site);
            if cycle.saturating_add(self.detection.latency().into()) <= self.refreshed_at {
                self.detected.inject(site);
            }
        }
    }

    /// Schedule a transient upset on `site` for `[cycle, cycle + duration)`.
    ///
    /// # Panics
    /// As [`FaultState::inject`].
    pub fn inject_transient(&mut self, site: FaultSite, cycle: Cycle, duration: u32) {
        if let Err(e) = self.active.check(site) {
            panic!("{e}");
        }
        self.transients.push((site, cycle, duration));
        self.inert = false;
        self.next_edge = 0;
    }

    /// Whether this state can never change: no permanent faults were ever
    /// injected and no transients are scheduled. For an inert state,
    /// [`FaultState::refresh`] is a pure no-op (the maps stay healthy at
    /// every cycle), which is what lets a simulator skip idle routers
    /// without desynchronising their fault clocks.
    #[inline]
    pub fn is_inert(&self) -> bool {
        debug_assert_eq!(
            self.inert,
            self.injected.is_empty() && self.transients.is_empty()
        );
        self.inert
    }

    /// Whether `cycle` lies in the range `[refreshed_at, next_edge)` over
    /// which the maps are already exact: a refresh at `cycle` would
    /// change no map and emit no event, only advance the clock's lower
    /// bound. Anything that changes the schedule or the detection model
    /// empties the range, so the next refresh is never skipped.
    #[inline]
    pub fn quiet_at(&self, cycle: Cycle) -> bool {
        self.refreshed_at <= cycle && cycle < self.next_edge
    }

    /// Empty the range, as a fresh state's is: the next refresh takes
    /// the edge path and emits the events of its own cycle. For a state
    /// restored from a snapshot taken before its first refresh, which
    /// the snapshot cannot tell from one refreshed at cycle 0.
    pub fn mark_unrefreshed(&mut self) {
        self.next_edge = 0;
    }

    /// Change the detection model, keeping every scheduled fault. The
    /// maps are cleared and repopulated on the next `refresh`.
    pub fn set_detection(&mut self, detection: DetectionModel) {
        self.detection = detection;
        self.active.clear();
        self.detected.clear();
        self.next_edge = 0;
    }

    /// Advance the fault clock to `now`. Correct for any non-decreasing
    /// sequence of cycles: a router may refresh every cycle or jump (a
    /// worklist skips empty routers on quiet cycles).
    pub fn refresh(&mut self, now: Cycle) {
        self.refresh_observed(now, 0, &mut NullObserver);
    }

    /// [`FaultState::refresh`] with a telemetry observer; `router` only
    /// labels the emitted events. Returns whether the maps were
    /// re-derived, so a caller caching words computed from them knows
    /// when to recompute.
    ///
    /// On a quiet cycle — `now` inside `[refreshed_at, next_edge)` —
    /// this is one range test. Otherwise the clock crossed an edge (or
    /// the range was invalidated): the maps are re-derived from the
    /// schedule, and a fault event is emitted for every edge since the
    /// previous refresh, stamped with the edge's own cycle (`at` for
    /// activation, `at + latency` for detection, window end for
    /// transient clearing), in cycle order and within a cycle in
    /// schedule order — what refreshing on every cycle would have
    /// emitted. When the clock has not advanced (the first refresh of
    /// cycle 0), the edges of `now` itself are emitted. Faults injected at an already-elapsed cycle manifest
    /// correctly but emit no (retroactive) event.
    #[inline]
    pub fn refresh_observed<O: Observer>(&mut self, now: Cycle, router: u16, obs: &mut O) -> bool {
        if self.quiet_at(now) {
            self.refreshed_at = now;
            return false;
        }
        self.cross_edges(now, router, obs);
        true
    }

    /// The slow path of [`FaultState::refresh_observed`].
    fn cross_edges<O: Observer>(&mut self, now: Cycle, router: u16, obs: &mut O) {
        if O::ENABLED {
            let mut edge = now.min(self.refreshed_at.saturating_add(1));
            while edge <= now {
                self.emit_edges_at(edge, router, obs);
                edge = self.next_edge_after(edge);
            }
        }
        self.derive_maps(now);
        self.refreshed_at = now;
        self.next_edge = self.next_edge_after(now);
    }

    /// The cycles at which one scheduled fault can change the maps or
    /// emits an event: manifestation and detection, and for a transient
    /// the end of its window.
    fn edges(&self) -> impl Iterator<Item = Cycle> + '_ {
        let lat = Cycle::from(self.detection.latency());
        let permanent = self
            .injected
            .iter()
            .flat_map(move |&(_, at)| [at, at.saturating_add(lat)]);
        let transient = self.transients.iter().flat_map(move |&(_, start, dur)| {
            [
                start,
                start.saturating_add(lat),
                start.saturating_add(dur.into()),
            ]
        });
        permanent.chain(transient)
    }

    /// The first edge after `cycle` (`Cycle::MAX` when there is none).
    fn next_edge_after(&self, cycle: Cycle) -> Cycle {
        self.edges()
            .filter(|&e| e > cycle)
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Set `active`/`detected` to what the schedule says at `now`.
    fn derive_maps(&mut self, now: Cycle) {
        let lat = Cycle::from(self.detection.latency());
        self.active.clear();
        self.detected.clear();
        let windows = self
            .injected
            .iter()
            .map(|&(site, at)| (site, at, Cycle::MAX))
            .chain(
                self.transients
                    .iter()
                    .map(|&(site, start, dur)| (site, start, start.saturating_add(dur.into()))),
            );
        for (site, start, end) in windows {
            if start <= now && now < end {
                self.active.inject(site);
                if start.saturating_add(lat) <= now {
                    self.detected.inject(site);
                }
            }
        }
    }

    /// Emit the fault events of cycle `edge`.
    fn emit_edges_at<O: Observer>(&self, edge: Cycle, router: u16, obs: &mut O) {
        let lat = Cycle::from(self.detection.latency());
        let mut emit = |kind| {
            obs.record(Event {
                cycle: edge,
                router,
                kind,
            })
        };
        for &(site, at) in &self.injected {
            if at == edge {
                emit(EventKind::FaultActivated {
                    site,
                    transient: false,
                });
            }
            if at.saturating_add(lat) == edge {
                emit(EventKind::FaultDetected { site });
            }
        }
        for &(site, start, duration) in &self.transients {
            let end = start.saturating_add(duration.into());
            if start == edge {
                emit(EventKind::FaultActivated {
                    site,
                    transient: true,
                });
            }
            if start.saturating_add(lat) == edge && edge < end {
                emit(EventKind::FaultDetected { site });
            }
            if end == edge {
                emit(EventKind::FaultCleared { site });
            }
        }
    }

    /// Faults that have manifested (affect behaviour).
    pub fn active(&self) -> &FaultMap {
        &self.active
    }

    /// Faults that are known to the correction logic.
    pub fn detected(&self) -> &FaultMap {
        &self.detected
    }

    /// A site is manifested but not yet detected: the component must be
    /// treated as silently misbehaving (the conservative model stalls
    /// operations through it).
    pub fn latent(&self, site: FaultSite) -> bool {
        self.active.is_faulty(site) && !self.detected.is_faulty(site)
    }

    /// Total manifested faults.
    pub fn count(&self) -> usize {
        self.active.len()
    }

    /// Manifested faults in one stage.
    pub fn count_stage(&self, stage: PipelineStage) -> usize {
        self.active.count_stage(stage)
    }

    /// Convenience queries forwarding to the *active* map — behaviourally
    /// a fault affects the circuit as soon as it manifests.
    pub fn rc_primary_faulty(&self, port: PortId) -> bool {
        self.active.is_faulty(FaultSite::RcPrimary { port })
    }

    /// Whether the duplicate RC unit of `port` is faulty.
    pub fn rc_duplicate_faulty(&self, port: PortId) -> bool {
        self.active.is_faulty(FaultSite::RcDuplicate { port })
    }

    /// Whether the VA stage-1 arbiter set of `(port, vc)` is faulty.
    pub fn va1_faulty(&self, port: PortId, vc: VcId) -> bool {
        self.active.is_faulty(FaultSite::Va1ArbiterSet { port, vc })
    }

    /// Whether the VA stage-2 arbiter of downstream `(out_port, out_vc)`
    /// is faulty.
    pub fn va2_faulty(&self, out_port: PortId, out_vc: VcId) -> bool {
        self.active
            .is_faulty(FaultSite::Va2Arbiter { out_port, out_vc })
    }

    /// Whether the SA stage-1 arbiter of `port` is faulty.
    pub fn sa1_faulty(&self, port: PortId) -> bool {
        self.active.is_faulty(FaultSite::Sa1Arbiter { port })
    }

    /// Whether the SA stage-1 bypass of `port` is faulty.
    pub fn sa1_bypass_faulty(&self, port: PortId) -> bool {
        self.active.is_faulty(FaultSite::Sa1Bypass { port })
    }

    /// Whether the SA stage-2 arbiter of `out_port` is faulty.
    pub fn sa2_faulty(&self, out_port: PortId) -> bool {
        self.active.is_faulty(FaultSite::Sa2Arbiter { out_port })
    }

    /// The failure predicate of Section VIII: the protected router has
    /// failed when some port can no longer perform a pipeline function
    /// through any (primary or correction) path.
    pub fn protected_router_failed(&self, cfg: &RouterConfig, xbar: &crate::Crossbar) -> bool {
        self.active
            .router_failed(cfg, |out| xbar.secondary_source(out))
    }
}

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

use noc_telemetry::json::{JsonReader, JsonWriter};
use noc_telemetry::snapshot::{Restore, Snapshot, SnapshotError};

impl Snapshot for FaultState {
    fn encode(&self, sink: &mut JsonWriter<'_>) {
        // Only the *schedule* is stored. The `active`/`detected` maps are
        // pure functions of (schedule, detection model, refreshed_at) and
        // are re-derived on restore — see `Restore` below.
        sink.obj(|sink| {
            self.detection.encode(sink.field("detection"));
            sink.field("refreshed_at").u64(self.refreshed_at);
            sink.field("injected")
                .arr(&self.injected, |sink, &(site, at)| {
                    sink.obj(|sink| {
                        site.encode(sink.field("site"));
                        sink.field("at").u64(at);
                    });
                });
            sink.field("transients")
                .arr(&self.transients, |sink, &(site, at, duration)| {
                    sink.obj(|sink| {
                        site.encode(sink.field("site"));
                        sink.field("at").u64(at);
                        sink.field("duration").u64(duration as u64);
                    });
                });
        });
    }
}

impl Restore for FaultState {
    /// Everything is decoded and every site checked against the
    /// router's shape before any field is written: a doctored or
    /// corrupt checkpoint fails typed, and leaves this state as it was.
    fn restore_from(&mut self, r: &mut JsonReader<'_>) -> Result<(), SnapshotError> {
        let site = |r: &mut JsonReader<'_>| -> Result<FaultSite, SnapshotError> {
            let site = r.field("site")?;
            self.active.check(site).map_err(SnapshotError::new)?;
            Ok(site)
        };
        let (detection, refreshed_at, injected, transients) = r.obj(|r| {
            let detection = r.field("detection")?;
            let refreshed_at = r.field("refreshed_at")?;
            let mut injected = Vec::new();
            r.field_with("injected", |r| {
                r.arr(|r, _| {
                    r.obj(|r| {
                        injected.push((site(r)?, r.field("at")?));
                        Ok(())
                    })
                })
            })?;
            let mut transients = Vec::new();
            r.field_with("transients", |r| {
                r.arr(|r, _| {
                    r.obj(|r| {
                        let entry = (site(r)?, r.field("at")?, r.field("duration")?);
                        transients.push(entry);
                        Ok(())
                    })
                })
            })?;
            Ok((detection, refreshed_at, injected, transients))
        })?;
        self.detection = detection;
        self.injected = injected;
        self.transients = transients;
        self.inert = self.injected.is_empty() && self.transients.is_empty();
        // The maps are functions of (schedule, detection model, clock):
        // derive them at the recorded clock, and put the range where the
        // refresh at that clock left it, so the restored state makes the
        // same quiet-cycle decisions as the one snapshotted. A state
        // never refreshed at all records clock 0 too; its owner says so
        // with `mark_unrefreshed`.
        self.derive_maps(refreshed_at);
        self.refreshed_at = refreshed_at;
        self.next_edge = self.next_edge_after(refreshed_at);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Rng;

    #[test]
    fn the_idle_test_reads_the_routers_first_cache_line() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<crate::Router>(), 64);
        let faults = offset_of!(crate::Router, faults);
        assert!(offset_of!(crate::Router, nonidle) < 64);
        for clock in [
            offset_of!(FaultState, refreshed_at) + size_of::<Cycle>(),
            offset_of!(FaultState, next_edge) + size_of::<Cycle>(),
            offset_of!(FaultState, inert) + 1,
        ] {
            assert!(
                faults + clock <= 64,
                "clock field ends at byte {}",
                faults + clock
            );
        }
    }

    #[test]
    fn faults_manifest_at_their_cycle() {
        let mut fs = FaultState::new(&RouterConfig::paper(), DetectionModel::Ideal);
        fs.inject(FaultSite::Sa1Arbiter { port: PortId(1) }, 100);
        fs.refresh(99);
        assert!(!fs.sa1_faulty(PortId(1)));
        fs.refresh(100);
        assert!(fs.sa1_faulty(PortId(1)));
        assert!(fs
            .detected()
            .is_faulty(FaultSite::Sa1Arbiter { port: PortId(1) }));
    }

    #[test]
    fn delayed_detection_leaves_latent_window() {
        let mut fs = FaultState::new(&RouterConfig::paper(), DetectionModel::Delayed(10));
        let site = FaultSite::XbMux {
            out_port: PortId(2),
        };
        fs.inject(site, 50);
        fs.refresh(55);
        assert!(fs.active().is_faulty(site));
        assert!(fs.latent(site));
        fs.refresh(60);
        assert!(!fs.latent(site));
        assert!(fs.detected().is_faulty(site));
    }

    #[test]
    fn inject_in_the_past_applies_immediately() {
        let mut fs = FaultState::new(&RouterConfig::paper(), DetectionModel::Ideal);
        fs.refresh(500);
        fs.inject(FaultSite::RcPrimary { port: PortId(0) }, 200);
        assert!(fs.rc_primary_faulty(PortId(0)));
    }

    #[test]
    fn counts_by_stage() {
        let mut fs = FaultState::new(&RouterConfig::paper(), DetectionModel::Ideal);
        fs.inject(FaultSite::RcPrimary { port: PortId(0) }, 0);
        fs.inject(FaultSite::RcDuplicate { port: PortId(0) }, 0);
        fs.inject(
            FaultSite::XbMux {
                out_port: PortId(3),
            },
            0,
        );
        fs.refresh(0);
        assert_eq!(fs.count(), 3);
        assert_eq!(fs.count_stage(PipelineStage::Rc), 2);
        assert_eq!(fs.count_stage(PipelineStage::Xb), 1);
    }

    // -----------------------------------------------------------------
    // Differential: the edge-driven clock against a per-cycle replay
    // -----------------------------------------------------------------

    impl FaultState {
        /// The oracle: the refresh this type used before its clock
        /// became edge-driven — both maps rebuilt from the whole
        /// schedule, and an event emitted only when an edge falls on
        /// exactly `now` — meant to be called on every cycle.
        fn rebuilt_at<O: Observer>(
            &self,
            now: Cycle,
            router: u16,
            obs: &mut O,
        ) -> (FaultMap, FaultMap) {
            let lat = self.detection.latency() as Cycle;
            let mut active = FaultMap::healthy(&RouterConfig::paper());
            let mut detected = active;
            let mut emit = |kind| {
                obs.record(Event {
                    cycle: now,
                    router,
                    kind,
                })
            };
            for &(site, at) in &self.injected {
                if at <= now {
                    active.inject(site);
                }
                if at + lat <= now {
                    detected.inject(site);
                }
                if at == now {
                    emit(EventKind::FaultActivated {
                        site,
                        transient: false,
                    });
                }
                if at + lat == now {
                    emit(EventKind::FaultDetected { site });
                }
            }
            for &(site, start, duration) in &self.transients {
                let end = start + duration as Cycle;
                if start <= now && now < end {
                    active.inject(site);
                    if start + lat <= now {
                        detected.inject(site);
                    }
                }
                if start == now {
                    emit(EventKind::FaultActivated {
                        site,
                        transient: true,
                    });
                }
                if start + lat == now && now < end {
                    emit(EventKind::FaultDetected { site });
                }
                if end == now {
                    emit(EventKind::FaultCleared { site });
                }
            }
            (active, detected)
        }
    }

    #[derive(Default)]
    struct Recorder(Vec<Event>);

    impl Observer for Recorder {
        fn record(&mut self, event: Event) {
            self.0.push(event);
        }
    }

    #[test]
    fn edge_driven_clock_matches_a_per_cycle_replay() {
        let cfg = RouterConfig::paper();
        let sites = FaultSite::enumerate(&cfg);
        // Activations, detections, clearings seen over all schedules.
        let mut seen = [0usize; 3];
        for seed in 0..48 {
            let mut rng = Rng(seed * 7919 + 1);
            let detection = |rng: &mut Rng| match rng.below(3) {
                0 => DetectionModel::Ideal,
                _ => DetectionModel::Delayed(rng.below(9) as u32),
            };
            let mut fs = FaultState::new(&cfg, detection(&mut rng));
            // Carries the same schedule; only `rebuilt_at` reads it.
            let mut oracle = fs.clone();
            let (mut got, mut want) = (Recorder::default(), Recorder::default());
            // The oracle has been replayed for every cycle below this.
            let mut replayed: Cycle = 0;
            let mut now: Cycle = 0;
            for _ in 0..120 {
                fs.refresh_observed(now, 7, &mut got);
                let mut maps = None;
                while replayed <= now {
                    maps = Some(oracle.rebuilt_at(replayed, 7, &mut want));
                    replayed += 1;
                }
                if let Some(maps) = maps {
                    assert_eq!((fs.active, fs.detected), maps, "seed {seed}, cycle {now}");
                }
                assert_eq!(got.0, want.0, "seed {seed}, cycle {now}");

                // Change the schedule between refreshes, as a caller
                // may: faults in the past, at `now` and in the future;
                // overlapping, same-site and zero-length transients.
                let site = sites[rng.below(sites.len() as u64) as usize];
                let when = (now + rng.below(30)).saturating_sub(rng.below(12));
                let mutated = match rng.below(8) {
                    0 | 1 => {
                        fs.inject(site, when);
                        oracle.inject(site, when);
                        true
                    }
                    2 | 3 => {
                        let duration = rng.below(4) as u32 * rng.below(12) as u32;
                        fs.inject_transient(site, when, duration);
                        oracle.inject_transient(site, when, duration);
                        true
                    }
                    4 if rng.below(4) == 0 => {
                        let d = detection(&mut rng);
                        fs.set_detection(d);
                        oracle.set_detection(d);
                        true
                    }
                    5 if rng.below(3) == 0 => {
                        let text = fs.snapshot().render();
                        let before = (fs.active, fs.detected);
                        fs = FaultState::new(&cfg, DetectionModel::Ideal);
                        fs.restore_text(&text).unwrap();
                        assert_eq!((fs.active, fs.detected), before, "restored maps");
                        assert_eq!(fs.snapshot().render(), text);
                        true
                    }
                    _ => false,
                };
                // Mostly the next cycle; sometimes a jump over several
                // edges; sometimes the same cycle again (which re-emits
                // nothing unless the schedule changed in between).
                now += match rng.below(10) {
                    0 if !mutated => 0,
                    1 | 2 => 2 + rng.below(25),
                    _ => 1,
                };
            }
            for e in &got.0 {
                match e.kind {
                    EventKind::FaultActivated { .. } => seen[0] += 1,
                    EventKind::FaultDetected { .. } => seen[1] += 1,
                    EventKind::FaultCleared { .. } => seen[2] += 1,
                    _ => unreachable!("a fault clock emits fault events only"),
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 100),
            "the schedules must exercise every edge kind: {seen:?}"
        );
    }
}
