//! The job path's memory, metered by `noc-alloc-meter`.
//!
//! A resume reads its delivery stream in bounded memory: `JsonlStream`
//! counts the file's lines a chunk at a time on `open`, and `truncate`
//! folds the kept prefix into the network's tally a line at a time, so
//! resuming from a stream of several MB raises the heap's high-water
//! mark by a fixed bound, not by the stream's size. (Reading the file
//! whole, and returning the prefix as a vector, would add the file and
//! ~40 bytes an entry.)
//!
//! A checkpoint is encoded straight to text, into the buffer the job's
//! spool writer reuses from commit to commit: no document tree, so the
//! heap rises by less than the text, in a few allocations. (Building
//! the tree and rendering it rose by 580 KB in ~7,600 allocations for
//! an 81 KB text.) A resume decodes it straight from the text, too, and
//! so does the progress endpoint read its head and grid: the heap rises
//! by less than twice the text, where parsing it into a tree first rises
//! by more.

use noc_alloc_meter::measure;
use noc_faults::FaultPlan;
use noc_service::{CampaignSpec, JsonlStream};
use noc_sim::{CheckpointHead, MemoryStream, Network, Simulator};
use noc_telemetry::json::{JsonReader, JsonValue};
use noc_telemetry::snapshot::{Restore, Snapshot};
use noc_topology::Topology;
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{Coord, DeliveredPacket, NetworkConfig, PacketId, PacketKind, SimConfig};
use shield_router::RouterKind;
use std::fs;

fn main() {
    resuming_from_a_stream_of_several_mb_holds_one_line_of_it();
    println!("test resuming_from_a_stream_of_several_mb_holds_one_line_of_it ... ok");
    a_checkpoint_is_encoded_without_a_tree();
    println!("test a_checkpoint_is_encoded_without_a_tree ... ok");
    a_checkpoint_is_decoded_without_a_tree();
    println!("test a_checkpoint_is_decoded_without_a_tree ... ok");
    what_a_checkpoint_shows_is_read_without_a_tree();
    println!("test what_a_checkpoint_shows_is_read_without_a_tree ... ok");
}

/// The benchmark ledger's `daemon_jobs` job: 4×4, rate 0.08,
/// checkpoints every 250 cycles.
const LEDGER_JOB: &str = "{\"kind\":\"simulate\",\"mesh_k\":4,\"rate\":0.08,\
    \"warmup_cycles\":200,\"measure_cycles\":1400,\"drain_cycles\":400,\
    \"checkpoint_every\":250,\"seed\":1}";
/// Most allocations encoding a checkpoint may make.
const ENCODE_ALLOCATIONS: u64 = 8;

/// The writer's commits, one after another into one buffer: the last
/// checkpoint's encoding raises the heap's high-water mark by less
/// than twice its text, in a few allocations.
fn a_checkpoint_is_encoded_without_a_tree() {
    let spec = CampaignSpec::from_text(LEDGER_JOB).unwrap();
    let sim = spec.simulator(spec.checkpoint_every).unwrap();
    let mut checkpoints = Vec::new();
    sim.run_streamed(
        &mut spec.generator().unwrap(),
        &mut MemoryStream::new(),
        None,
        |c| {
            checkpoints.push(c);
            true
        },
    )
    .unwrap();
    let late = checkpoints.pop().expect("the job took checkpoints");
    assert!(
        late.head().cycle() >= 1500,
        "the last checkpoint is at {}",
        late.head().cycle()
    );
    let mut text = String::new();
    for earlier in &checkpoints {
        text.clear();
        earlier.write_document(&mut text);
    }
    let ((), heap) = measure(|| {
        text.clear();
        late.write_document(&mut text);
    });
    assert_eq!(text, late.document().render());
    let len = text.len() as u64;
    assert!(
        heap.peak_bytes < 2 * len,
        "encoding a {len}-byte checkpoint raised the heap's high-water mark by {} bytes",
        heap.peak_bytes
    );
    assert!(
        heap.allocations <= ENCODE_ALLOCATIONS,
        "encoding a checkpoint made {} allocations, sized {:?}",
        heap.allocations,
        heap.sizes()
    );
}

/// The text of member `key` of the JSON object `text`.
fn member<'a>(text: &'a str, key: &str) -> &'a str {
    let mut r = JsonReader::new(text);
    r.begin_obj().unwrap();
    while let Some(k) = r.key().unwrap() {
        let value = r.skip().unwrap();
        if k == key {
            return value;
        }
    }
    panic!("no member `{key}`");
}

/// The text of `spec`'s last checkpoint.
fn last_checkpoint(spec: &CampaignSpec) -> String {
    let sim = spec.simulator(spec.checkpoint_every).unwrap();
    let mut text = String::new();
    sim.run_streamed(
        &mut spec.generator().unwrap(),
        &mut MemoryStream::new(),
        None,
        |c| {
            text.clear();
            c.write_document(&mut text);
            true
        },
    )
    .unwrap();
    text
}

/// What the progress endpoint reads of the ledger job's last
/// checkpoint — its head and its grid, through
/// `CheckpointHead::with_grid` — raises the heap's high-water mark by
/// less than twice the checkpoint's text. The control, the tree the
/// endpoint once parsed the file into for the same members, does not
/// stay under that bound.
fn what_a_checkpoint_shows_is_read_without_a_tree() {
    let spec = CampaignSpec::from_text(LEDGER_JOB).unwrap();
    let text = last_checkpoint(&spec);
    let len = text.len() as u64;

    let ((head, grid), heap) = measure(|| CheckpointHead::with_grid(&text).unwrap());
    assert!(
        head.cycle() >= 1500,
        "the last checkpoint is at {}",
        head.cycle()
    );
    assert_eq!(grid.snapshot().render(), member(&text, "progress"));
    assert!(
        heap.peak_bytes < 2 * len,
        "reading a {len}-byte checkpoint's head and grid raised the heap's high-water mark \
         by {} bytes",
        heap.peak_bytes
    );

    let (shown, tree) = measure(|| {
        let doc = JsonValue::parse(&text).unwrap();
        let series = doc.get("epochs").and_then(|e| e.get("series")).cloned();
        (
            doc.get("cycle").cloned(),
            doc.get("progress").cloned(),
            series,
        )
    });
    assert!(
        shown.0.is_some() && shown.1.is_some(),
        "the tree holds the members"
    );
    assert!(
        tree.peak_bytes >= 2 * len,
        "through a tree, reading raised the high-water mark by only {} bytes: \
         the bound would not tell the two apart",
        tree.peak_bytes
    );
}

/// What resuming the ledger job's last checkpoint decodes — its head,
/// its network and its traffic source, into a network and a generator
/// built beforehand — raises the heap's high-water mark by less than
/// twice the checkpoint's text. Decoding through a document tree, the
/// control, does not stay under that bound.
fn a_checkpoint_is_decoded_without_a_tree() {
    let spec = CampaignSpec::from_text(LEDGER_JOB).unwrap();
    let text = last_checkpoint(&spec);
    let (network, source) = (member(&text, "network"), member(&text, "source"));
    let fresh = || {
        let net = spec.network_config().unwrap();
        let net = Network::with_faults(net, spec.router_kind, &FaultPlan::none());
        (net, spec.generator().unwrap())
    };
    let len = text.len() as u64;

    let (mut net, mut generator) = fresh();
    let (head, heap) = measure(|| {
        let head = CheckpointHead::of(&text).unwrap();
        net.restore_text(network).unwrap();
        generator.restore_text(source).unwrap();
        head
    });
    assert!(
        head.cycle() >= 1500,
        "the last checkpoint is at {}",
        head.cycle()
    );
    assert_eq!(net.snapshot().render(), network, "the network restored");
    assert!(
        heap.peak_bytes < 2 * len,
        "decoding a {len}-byte checkpoint raised the heap's high-water mark by {} bytes",
        heap.peak_bytes
    );

    let (mut net, mut generator) = fresh();
    let ((), tree) = measure(|| {
        let doc = JsonValue::parse(&text).unwrap();
        net.restore(doc.get("network").unwrap()).unwrap();
        generator.restore(doc.get("source").unwrap()).unwrap();
    });
    assert!(
        tree.peak_bytes >= 2 * len,
        "through a tree, decoding raised the high-water mark by only {} bytes: \
         the bound would not tell the two apart",
        tree.peak_bytes
    );
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
    let doc = JsonValue::Obj(doc).render();

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
