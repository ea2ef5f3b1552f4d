//! A resume reads its delivery stream in bounded memory: `JsonlStream`
//! counts the file's lines a chunk at a time on `open`, and `truncate`
//! folds the kept prefix into the network's tally a line at a time, so
//! resuming from a stream of several MB raises the heap's high-water
//! mark by a fixed bound, not by the stream's size. (Reading the file
//! whole, and returning the prefix as a vector, would add the file and
//! ~40 bytes an entry.) The heap is metered by `noc-alloc-meter`.

use noc_alloc_meter::measure;
use noc_faults::FaultPlan;
use noc_service::JsonlStream;
use noc_sim::Simulator;
use noc_telemetry::json::JsonValue;
use noc_telemetry::snapshot::Snapshot;
use noc_topology::Topology;
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{Coord, DeliveredPacket, NetworkConfig, PacketId, PacketKind, SimConfig};
use shield_router::RouterKind;
use std::fs;

fn main() {
    resuming_from_a_stream_of_several_mb_holds_one_line_of_it();
    println!("test resuming_from_a_stream_of_several_mb_holds_one_line_of_it ... ok");
}

/// Deliveries put in front of the run's own: ~150 bytes a line.
const FILLER: u64 = 50_000;
/// What resuming may add to the heap's high-water mark.
const BOUND: u64 = 1 << 20;

fn resuming_from_a_stream_of_several_mb_holds_one_line_of_it() {
    let dir = std::env::temp_dir().join(format!("noc-stream-memory-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deliveries.jsonl");

    let cfg = NetworkConfig {
        mesh_k: 4,
        ..NetworkConfig::paper()
    };
    let phases = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 600,
        drain_cycles: 300,
        seed: 1,
    };
    let sim = Simulator::new(cfg, phases, RouterKind::Protected, FaultPlan::none())
        .with_threads(1)
        .with_checkpoint_every(150);
    let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.1);
    let generator = || TrafficGenerator::for_topology(traffic, &Topology::from_spec(&cfg), 5);

    // A run that keeps its second checkpoint.
    let mut kept = None;
    let mut taken = 0;
    let mut stream = JsonlStream::open(&path).unwrap();
    let (reference, _) = sim
        .run_streamed(&mut generator(), &mut stream, None, |c| {
            taken += 1;
            if taken == 2 {
                kept = Some(c.document());
            }
            true
        })
        .unwrap();
    drop(stream);

    // Several MB of earlier deliveries in front of the run's own, and a
    // checkpoint whose offset takes them in.
    let filler: String = (0..FILLER)
        .map(|i| {
            let d = DeliveredPacket {
                id: PacketId(1 << 40 | i),
                kind: PacketKind::Data,
                src: Coord::new(0, 0),
                dst: Coord::new(3, 3),
                created_at: i % 500,
                injected_at: i % 500 + 2,
                ejected_at: i % 500 + 20 + i % 7,
                hops: 6,
            };
            d.snapshot().render() + "\n"
        })
        .collect();
    let own = fs::read_to_string(&path).unwrap();
    fs::write(&path, filler + &own).unwrap();
    drop(own);
    let size = fs::metadata(&path).unwrap().len();
    assert!(size > 5 << 20, "the stream is only {size} bytes");
    let JsonValue::Obj(mut doc) = kept.expect("the run took two checkpoints") else {
        panic!("a checkpoint is an object");
    };
    for (key, value) in &mut doc {
        if key == "delivery_offset" {
            *value = (value.as_u64().unwrap() + FILLER).into();
        }
    }
    let doc = JsonValue::Obj(doc);

    let ((resumed, _), heap) = measure(|| {
        let mut stream = JsonlStream::open(&path).unwrap();
        sim.run_streamed(&mut generator(), &mut stream, Some(&doc), |_| true)
            .unwrap()
    });
    let grew = heap.peak_bytes;
    let _ = fs::remove_dir_all(&dir);

    assert_eq!(
        resumed.delivered,
        reference.delivered + FILLER,
        "the resume folded the whole prefix into the tally"
    );
    assert!(
        grew < BOUND,
        "resuming from a {size}-byte stream raised the heap's high-water mark by {grew} bytes"
    );
}
