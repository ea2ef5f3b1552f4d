//! Resume determinism: a campaign resumed from a mid-run checkpoint
//! finishes with a **byte-for-byte identical** `NetworkReport` to the
//! uninterrupted run — for both router kinds, on mesh, torus and
//! cut-link topologies, at any stepper thread count, with and without
//! an active fault plan. This is the invariant the campaign service's
//! crash recovery stands on (ARCHITECTURE.md §5).

use noc_faults::{DetectionModel, FaultPlan, FaultSite, LinkFaultEvent};
use noc_sim::{MemoryStream, Simulator};
use noc_telemetry::json::JsonValue;
use noc_telemetry::snapshot::{Restore, Snapshot};
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{
    Cycle, Direction, LinkClass, NetworkConfig, PortId, RouterId, RoutingMode, SimConfig,
    TopologySpec, VcId,
};
use shield_router::RouterKind;

const SEED: u64 = 0x5EED_CAFE;

fn net_cfg(topology: TopologySpec) -> NetworkConfig {
    NetworkConfig {
        mesh_k: 4,
        topology,
        ..NetworkConfig::paper()
    }
}

fn sim_cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 200,
        measure_cycles: 900,
        drain_cycles: 400,
        seed: SEED,
    }
}

fn generator(cfg: &NetworkConfig) -> TrafficGenerator {
    let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.12);
    // Build via the topology so cut-link node sets stay in sync.
    let net = noc_sim::Network::with_faults(*cfg, RouterKind::Protected, &FaultPlan::none());
    TrafficGenerator::for_topology(traffic, net.topology(), SEED)
}

fn simulator(cfg: NetworkConfig, kind: RouterKind, plan: FaultPlan, threads: usize) -> Simulator {
    Simulator::new(cfg, sim_cfg(), kind, plan)
        .with_threads(threads)
        .with_sample_every(250)
        .with_checkpoint_every(317)
}

/// Uninterrupted reference → interrupted-and-resumed runs from every
/// emitted checkpoint, across thread counts; every report must render
/// to the reference's exact bytes, and the delivery stream each run
/// leaves behind must match the reference's entry for entry.
fn assert_resume_deterministic(cfg: NetworkConfig, kind: RouterKind, plan: FaultPlan) {
    let (reference, reference_stream) = {
        let sim = simulator(cfg, kind, plan.clone(), 1);
        let mut gen = generator(&cfg);
        let mut stream = MemoryStream::new();
        let (report, _) = sim
            .run_streamed(&mut gen, &mut stream, None, |_| true)
            .unwrap();
        (report.to_json().render(), stream.into_entries())
    };
    assert!(
        !reference_stream.is_empty(),
        "campaign too quiet to exercise the delivery stream"
    );

    for threads in [1, 4] {
        let sim = simulator(cfg, kind, plan.clone(), threads);

        // The checkpointed run itself must match the reference: emitting
        // checkpoints (and the thread count) must not perturb the run.
        let mut checkpoints: Vec<String> = Vec::new();
        let mut gen = generator(&cfg);
        let mut stream = MemoryStream::new();
        let (report, _) = sim
            .run_streamed(&mut gen, &mut stream, None, |checkpoint| {
                checkpoints.push(checkpoint.document().render());
                true
            })
            .unwrap();
        assert_eq!(
            report.to_json().render(),
            reference,
            "checkpointed run diverged (threads={threads})"
        );
        assert_eq!(
            stream.entries(),
            &reference_stream[..],
            "checkpointed run's delivery stream diverged (threads={threads})"
        );
        assert!(
            !checkpoints.is_empty(),
            "no checkpoints emitted (threads={threads})"
        );

        // Resume from every checkpoint — early, mid-measurement and
        // deep into drain — through a full render/parse round trip.
        // Each resume gets the *full* delivery stream of the completed
        // run, longer than the checkpoint's offset: exactly the state a
        // crash after further appends leaves behind. Restore must
        // truncate it back to the offset and re-execution must re-append
        // the discarded tail identically.
        for (i, text) in checkpoints.iter().enumerate() {
            let doc = JsonValue::parse(text).expect("checkpoint must parse");
            let mut gen = generator(&cfg);
            let mut stream = MemoryStream::from_entries(reference_stream.clone());
            let (resumed, _) = sim
                .run_streamed(&mut gen, &mut stream, Some(&doc), |_| true)
                .unwrap();
            assert_eq!(
                resumed.to_json().render(),
                reference,
                "resume from checkpoint {i} diverged (threads={threads})"
            );
            assert_eq!(
                stream.entries(),
                &reference_stream[..],
                "delivery stream after resume from checkpoint {i} diverged (threads={threads})"
            );
        }
    }
}

/// A [`noc_sim::Checkpoint`] is a copy of its boundary, not a view of
/// the live run: each one, kept until the run has ended and only then
/// rendered, equals the document rendered when it was handed over,
/// although the network stepped on after every hand-off — and, under
/// adaptive routing, link faults that manifest after a boundary swapped
/// the live network's topology and escape tables. Resuming from each
/// reproduces the uninterrupted report and stream.
#[test]
fn a_checkpoint_is_a_snapshot_of_its_boundary() {
    let mesh = net_cfg(TopologySpec::MeshK);
    let adaptive = NetworkConfig {
        routing: RoutingMode::Adaptive,
        ..mesh
    };
    // Checkpoints fall every 317 cycles: the first cut lands after the
    // first boundary, the second after the third.
    let cut = |cycle, router, dir| LinkFaultEvent {
        cycle,
        router: RouterId(router),
        dir,
    };
    let cuts = FaultPlan::none().with_link_faults(vec![
        cut(400, 5, Direction::East),
        cut(1_000, 10, Direction::South),
    ]);
    let router_faults = FaultPlan::at_start(
        [(RouterId(5), FaultSite::RcPrimary { port: PortId(1) })],
        DetectionModel::Ideal,
    );
    for (cfg, kind, plan) in [
        (mesh, RouterKind::Protected, FaultPlan::none()),
        (mesh, RouterKind::Baseline, router_faults),
        (adaptive, RouterKind::Protected, cuts),
    ] {
        let (reference, reference_stream) = {
            let mut stream = MemoryStream::new();
            let (report, _) = simulator(cfg, kind, plan.clone(), 1)
                .run_streamed(&mut generator(&cfg), &mut stream, None, |_| true)
                .unwrap();
            (report.to_json().render(), stream.into_entries())
        };
        for threads in [1, 2] {
            let sim = simulator(cfg, kind, plan.clone(), threads);
            let (mut kept, mut at_hand_off) = (Vec::new(), Vec::new());
            let mut stream = MemoryStream::new();
            sim.run_streamed(&mut generator(&cfg), &mut stream, None, |checkpoint| {
                at_hand_off.push(checkpoint.document().render());
                kept.push(checkpoint);
                true
            })
            .unwrap();
            assert!(kept.len() >= 3, "{kind:?}, threads={threads}");
            for (i, (checkpoint, rendered)) in kept.iter().zip(&at_hand_off).enumerate() {
                let case = format!(
                    "checkpoint {i}, {kind:?}, {:?}, threads={threads}",
                    cfg.routing
                );
                assert_eq!(checkpoint.document().render(), *rendered, "{case}");
                let doc = JsonValue::parse(rendered).unwrap();
                assert_eq!(
                    doc.get("cycle").and_then(JsonValue::as_u64),
                    Some(317 * (i as u64 + 1)),
                    "{case}"
                );
                assert_eq!(
                    doc.get("delivery_offset").and_then(JsonValue::as_u64),
                    Some(checkpoint.delivery_offset()),
                    "{case}"
                );
                let mut stream = MemoryStream::from_entries(reference_stream.clone());
                let (resumed, _) = sim
                    .run_streamed(&mut generator(&cfg), &mut stream, Some(&doc), |_| true)
                    .unwrap();
                assert_eq!(resumed.to_json().render(), reference, "{case}");
                assert_eq!(stream.entries(), &reference_stream[..], "{case}");
            }
        }
    }
}

#[test]
fn mesh_resumes_identically_both_kinds() {
    for kind in [RouterKind::Baseline, RouterKind::Protected] {
        assert_resume_deterministic(net_cfg(TopologySpec::MeshK), kind, FaultPlan::none());
    }
}

#[test]
fn torus_resumes_identically() {
    let cfg = net_cfg(TopologySpec::Torus { w: 4, h: 4 });
    assert_resume_deterministic(cfg, RouterKind::Protected, FaultPlan::none());
}

#[test]
fn cutmesh_resumes_identically() {
    let cfg = net_cfg(TopologySpec::CutMesh {
        w: 4,
        h: 4,
        cuts: 3,
        seed: 0xC0FFEE ^ 4,
    });
    assert_resume_deterministic(cfg, RouterKind::Protected, FaultPlan::none());
}

#[test]
fn faulted_campaign_resumes_identically() {
    // Pre-existing faults exercise the fault-state snapshot path on both
    // kinds: misroutes/drops on baseline, correction state on protected.
    let plan = FaultPlan::at_start(
        [
            (RouterId(5), FaultSite::RcPrimary { port: PortId(1) }),
            (
                RouterId(9),
                FaultSite::Va1ArbiterSet {
                    port: PortId(2),
                    vc: VcId(1),
                },
            ),
        ],
        DetectionModel::Ideal,
    );
    for kind in [RouterKind::Baseline, RouterKind::Protected] {
        assert_resume_deterministic(net_cfg(TopologySpec::MeshK), kind, plan.clone());
    }
}

/// Each stepper shard keeps the wires its own routers send, and the
/// wheel is read back — for snapshots and restores — in one canonical
/// order, so neither depends on the shard count. A chiplet mesh is the
/// hard case: its d2d links (latency 4, half width) put wires of
/// several production cycles into one slot, and their pacing grows the
/// wheel past its base length. Its snapshot is byte-identical at 1, 2,
/// 3 and 4 shards every 50 cycles, and a 4-shard checkpoint restored
/// into 1 and 2 shards finishes with the uninterrupted run's report.
#[test]
fn snapshots_and_resumes_do_not_depend_on_the_shard_count() {
    let cfg = NetworkConfig {
        mesh_k: 8,
        ..net_cfg(TopologySpec::ChipletMesh {
            k_chip: 2,
            k_node: 4,
            d2d: LinkClass::D2D_DEFAULT,
        })
    };
    let snapshots = |threads: usize| {
        let mut net = noc_sim::Network::new(cfg, RouterKind::Protected);
        net.set_threads(threads);
        assert_eq!(net.shard_count(), threads);
        let mut gen = generator(&cfg);
        let mut packets = Vec::new();
        let mut taken = Vec::new();
        for cycle in 0..600 {
            gen.tick_into(cycle, &mut packets);
            net.offer_packets_from(&mut packets);
            net.step(cycle);
            if (cycle + 1) % 50 == 0 {
                taken.push(net.snapshot());
            }
        }
        taken
    };
    let serial = snapshots(1);
    let slots = |snapshot: &JsonValue| match snapshot {
        JsonValue::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == "wires")
            .and_then(|(_, v)| v.as_array())
            .map_or(0, |a| a.len()),
        _ => 0,
    };
    assert!(
        serial.iter().any(|s| slots(s) > 5),
        "pacing must grow the wheel past its 5 base slots"
    );
    let serial: Vec<String> = serial.iter().map(JsonValue::render).collect();
    for threads in [2, 3, 4] {
        for (i, (a, b)) in serial.iter().zip(snapshots(threads)).enumerate() {
            assert!(
                *a == b.render(),
                "snapshot at cycle {} differs at {threads} shards",
                50 * (i + 1)
            );
        }
    }

    let plan = FaultPlan::none();
    let reference = {
        let mut gen = generator(&cfg);
        let sim = simulator(cfg, RouterKind::Protected, plan.clone(), 1);
        let (report, _) = sim.run_resumable(&mut gen, None, |_| true).unwrap();
        report.to_json().render()
    };
    let mut checkpoints = Vec::new();
    let mut stream = MemoryStream::new();
    simulator(cfg, RouterKind::Protected, plan.clone(), 4)
        .run_streamed(&mut generator(&cfg), &mut stream, None, |checkpoint| {
            checkpoints.push(checkpoint.document().render());
            true
        })
        .unwrap();
    let entries = stream.into_entries();
    let doc = JsonValue::parse(&checkpoints[1]).unwrap();
    for threads in [1, 2] {
        let mut stream = MemoryStream::from_entries(entries.clone());
        let (resumed, _) = simulator(cfg, RouterKind::Protected, plan.clone(), threads)
            .run_streamed(&mut generator(&cfg), &mut stream, Some(&doc), |_| true)
            .unwrap();
        assert_eq!(
            resumed.to_json().render(),
            reference,
            "a 4-shard checkpoint resumed on {threads} shards diverged"
        );
    }
}

/// A faulted router that is empty at a checkpoint is skipped on the
/// quiet cycles of its fault clock. The resumed run must make the same
/// skip decisions (`routers_stepped`/`routers_skipped` are in the
/// report), so every router carries a fault whose edges fall before,
/// between or after the checkpoints, under a detection latency.
#[test]
fn faulted_routers_empty_at_a_checkpoint_resume_identically() {
    let events = (0..16u16)
        .map(|r| noc_faults::InjectionEvent {
            cycle: [0, 290, 700, 1290][usize::from(r % 4)] + Cycle::from(r),
            router: RouterId(r),
            site: match r % 3 {
                0 => FaultSite::RcPrimary {
                    port: PortId((r % 5) as u8),
                },
                // The protected router caches per-output tables from
                // these two: a restore must re-derive them.
                1 => FaultSite::Va2Arbiter {
                    out_port: PortId((r % 5) as u8),
                    out_vc: VcId((r % 4) as u8),
                },
                _ => FaultSite::XbMux {
                    out_port: PortId((r % 5) as u8),
                },
            },
        })
        .collect();
    let plan = FaultPlan::deterministic(events, DetectionModel::Delayed(7));
    for kind in [RouterKind::Baseline, RouterKind::Protected] {
        assert_resume_deterministic(net_cfg(TopologySpec::MeshK), kind, plan.clone());
    }
}

/// A network snapshotted before its first cycle has stepped no router,
/// so its faulted routers must all be stepped at cycle 0 after the
/// restore too, although their fault clocks record cycle 0 exactly as a
/// clock that was stepped there does.
#[test]
fn network_restored_before_its_first_cycle_steps_its_faulted_routers() {
    let plan = FaultPlan::at_start(
        [(RouterId(5), FaultSite::RcPrimary { port: PortId(1) })],
        DetectionModel::Delayed(3),
    );
    let cfg = net_cfg(TopologySpec::MeshK);
    let mut original = noc_sim::Network::with_faults(cfg, RouterKind::Protected, &plan);
    let mut restored =
        noc_sim::Network::with_faults(cfg, RouterKind::Protected, &FaultPlan::none());
    restored
        .restore(&JsonValue::parse(&original.snapshot().render()).unwrap())
        .unwrap();
    for cycle in 0..40 {
        original.step(cycle);
        restored.step(cycle);
        assert_eq!(
            (restored.routers_stepped(), restored.routers_skipped()),
            (original.routers_stepped(), original.routers_skipped()),
            "cycle {cycle}"
        );
    }
    assert_eq!(restored.snapshot().render(), original.snapshot().render());
}

#[test]
fn checkpoint_refuses_mismatched_configuration() {
    let cfg = net_cfg(TopologySpec::MeshK);
    let sim = simulator(cfg, RouterKind::Protected, FaultPlan::none(), 1);
    let mut checkpoints = Vec::new();
    let mut gen = generator(&cfg);
    sim.run_resumable(&mut gen, None, |doc| {
        checkpoints.push(doc.render());
        true
    })
    .unwrap();
    let doc = JsonValue::parse(&checkpoints[0]).unwrap();

    // Same checkpoint, wrong router kind: restore must fail loudly
    // rather than resume into a different machine.
    let wrong = simulator(cfg, RouterKind::Baseline, FaultPlan::none(), 1);
    let mut gen = generator(&cfg);
    let err = wrong.run_resumable(&mut gen, Some(&doc), |_| true);
    assert!(err.is_err(), "restoring into the wrong kind must fail");
}
