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
//! A checkpoint is encoded straight to text, into its file through the
//! spool writer's fixed buffer: no document tree and no whole text, so
//! the heap rises by the buffer, in a few allocations. (Building the
//! tree and rendering it rose by 580 KB in ~7,600 allocations for an
//! 81 KB text; encoding it into a `String` rose by the text.) A resume
//! decodes it straight from the text, too, and so does the progress
//! endpoint read its head and grid: the heap rises by less than twice
//! the text, where parsing it into a tree first rises by more, and the
//! reader allocates nothing beyond the values it returns.
//!
//! A `202` poll copies the delivery stream's prefix from the file to the
//! socket a piece at a time: its heap rises by a fixed bound, late in a
//! ledger job and over a stream of several MB alike, where a body built
//! whole rises by the stream.

use noc_alloc_meter::measure;
use noc_faults::FaultPlan;
use noc_service::{CampaignSpec, JsonlStream, Scheduler, ServiceConfig};
use noc_sim::{CheckpointHead, MemoryStream, Network, SimOutcome, Simulator};
use noc_telemetry::json::{IoText, JsonReader, JsonValue};
use noc_telemetry::snapshot::{Restore, Snapshot};
use noc_topology::Topology;
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{Coord, DeliveredPacket, NetworkConfig, PacketId, PacketKind, SimConfig};
use shield_router::RouterKind;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

fn main() {
    resuming_from_a_stream_of_several_mb_holds_one_line_of_it();
    println!("test resuming_from_a_stream_of_several_mb_holds_one_line_of_it ... ok");
    a_checkpoint_is_encoded_without_a_tree();
    println!("test a_checkpoint_is_encoded_without_a_tree ... ok");
    a_checkpoint_is_decoded_without_a_tree();
    println!("test a_checkpoint_is_decoded_without_a_tree ... ok");
    what_a_checkpoint_shows_is_read_without_a_tree();
    println!("test what_a_checkpoint_shows_is_read_without_a_tree ... ok");
    a_202_poll_holds_a_piece_of_the_stream();
    println!("test a_202_poll_holds_a_piece_of_the_stream ... ok");
}

/// The benchmark ledger's `daemon_jobs` job: 4×4, rate 0.08,
/// checkpoints every 250 cycles.
const LEDGER_JOB: &str = "{\"kind\":\"simulate\",\"mesh_k\":4,\"rate\":0.08,\
    \"warmup_cycles\":200,\"measure_cycles\":1400,\"drain_cycles\":400,\
    \"checkpoint_every\":250,\"seed\":1}";
/// Most allocations encoding a checkpoint may make.
const ENCODE_ALLOCATIONS: u64 = 8;
/// What encoding a checkpoint into its file may add to the heap's
/// high-water mark: the writer's buffer, and the spatial grid the
/// encoder builds.
const ENCODE_BOUND: u64 = IoText::<fs::File>::BUFFER as u64 + (4 << 10);

/// A fresh scratch directory named for `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-stream-memory-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The writer's commit of the job's last checkpoint, into its file:
/// the encoding raises the heap's high-water mark by the writer's
/// buffer and little more, in a few allocations, and the file holds
/// the document.
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
    let dir = scratch("encode");
    let path = dir.join("checkpoint.tmp");
    let mut file = fs::File::create(&path).unwrap();
    let (written, heap) = measure(|| {
        let mut text = IoText::new(&mut file);
        late.write_document(&mut text);
        text.finish().map(drop)
    });
    written.unwrap();
    drop(file);
    let text = fs::read_to_string(&path).unwrap();
    let _ = fs::remove_dir_all(&dir);
    assert!(text == late.document().render(), "the file is the document");
    let len = text.len() as u64;
    assert!(len > 4 * ENCODE_BOUND, "the checkpoint is only {len} bytes");
    assert!(
        heap.peak_bytes < ENCODE_BOUND,
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
/// less than twice the checkpoint's text, in the allocations its values
/// need and no more: none per field read, none per object skipped. The
/// control, the tree the endpoint once parsed the file into for the
/// same members, does not stay under that bound.
fn what_a_checkpoint_shows_is_read_without_a_tree() {
    let spec = CampaignSpec::from_text(LEDGER_JOB).unwrap();
    let text = last_checkpoint(&spec);
    let len = text.len() as u64;

    let ((head, grid), heap) = measure(|| CheckpointHead::with_grid(&text).unwrap());
    // What the values themselves need: the grid's cells, pushed one by
    // one into a vector that grows as they come (a decoder reserves
    // nothing a crafted size names), and the epoch series.
    let (_, need) = measure(|| {
        let cells = grid.cells.iter().fold(Vec::new(), |mut cells, cell| {
            cells.push(*cell);
            cells
        });
        (cells, head.epoch_series().cloned())
    });
    assert!(
        heap.allocations <= need.allocations,
        "reading a checkpoint's head and grid made {} allocations, sized {:?}, where its \
         values need {}",
        heap.allocations,
        heap.sizes(),
        need.allocations
    );
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

/// `n` delivery lines of ~150 bytes, as a stream holds them.
fn filler_lines(n: u64) -> String {
    (0..n)
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
        .collect()
}
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
    let own = fs::read_to_string(&path).unwrap();
    fs::write(&path, filler_lines(FILLER) + &own).unwrap();
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

/// What serving a `202` may add to the heap's high-water mark: the
/// status document, the `partial` head, an open file and change.
const POLL_BOUND: u64 = 64 << 10;

/// A `Write` that keeps nothing but the count of what it took.
#[derive(Default)]
struct Counted(u64);

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A spool named for `tag` holding one job of the ledger's shape,
/// stopped at its first checkpoint at or past `cycle`, with `filler`
/// earlier deliveries put in front of its stream; and a scheduler
/// recovered on it whose worker has been stopped, so that nothing runs
/// beside a poll. The job runs far longer than the ledger's, so a
/// worker that picks it up before the stop only takes it to a later
/// checkpoint.
fn stopped_job(tag: &str, cycle: u64, filler: u64) -> (Scheduler, PathBuf) {
    let spool = scratch(tag);
    let dir = spool.join("job-000001");
    fs::create_dir_all(&dir).unwrap();
    let spec = CampaignSpec {
        measure_cycles: 1_000_000,
        ..CampaignSpec::from_text(LEDGER_JOB).unwrap()
    };
    fs::write(dir.join("spec.json"), spec.to_json().render()).unwrap();
    let stream_path = dir.join("deliveries.jsonl");
    let mut stream = JsonlStream::open(&stream_path).unwrap();
    let mut kept = None;
    let sim = spec.simulator(spec.checkpoint_every).unwrap();
    let (_, outcome) = sim
        .run_streamed(&mut spec.generator().unwrap(), &mut stream, None, |c| {
            let late = c.head().cycle() >= cycle;
            kept = late.then(|| c.document());
            !late
        })
        .unwrap();
    assert_eq!(outcome, SimOutcome::Interrupted);
    drop(stream);
    let JsonValue::Obj(mut doc) = kept.expect("the run reached the cycle") else {
        panic!("a checkpoint is an object");
    };
    if filler > 0 {
        let own = fs::read_to_string(&stream_path).unwrap();
        fs::write(&stream_path, filler_lines(filler) + &own).unwrap();
        for (key, value) in &mut doc {
            if key == "delivery_offset" {
                *value = (value.as_u64().unwrap() + filler).into();
            }
        }
    }
    fs::write(dir.join("checkpoint.json"), JsonValue::Obj(doc).render()).unwrap();
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::new(&spool)
    };
    let sched = Scheduler::start(cfg).unwrap();
    sched.shutdown();
    (sched, spool)
}

/// `202` polls of a ledger job late in its run (~200 KB of stream), and
/// of a job whose stream is several MB, each served into a sink that
/// keeps nothing: the heap's high-water mark rises by less than one
/// fixed bound for both, though the bodies are far longer than it.
fn a_202_poll_holds_a_piece_of_the_stream() {
    for (tag, filler, least) in [("late", 0, 150_000), ("several-mb", FILLER, 5 << 20)] {
        let (sched, spool) = stopped_job(&format!("poll-{tag}"), 1750, filler);
        let id = "job-000001";
        let (served, heap) = measure(|| {
            let body = sched.partial(id).expect("the job is known");
            let mut wire = Counted::default();
            body.write_to(&mut wire)
                .map(|()| (wire.0, body.content_length()))
        });
        let (wire, len) = served.unwrap();
        let body = sched.partial(id).unwrap().to_text().unwrap();
        let _ = fs::remove_dir_all(&spool);
        assert_eq!((wire, len), (body.len() as u64, body.len() as u64));
        let served = JsonValue::parse(&body).unwrap();
        let deliveries = served.get("partial").and_then(|p| p.get("deliveries"));
        let deliveries = deliveries.and_then(JsonValue::as_array).unwrap().len() as u64;
        let offset = served.get("partial").and_then(|p| p.get("delivery_offset"));
        assert_eq!(Some(deliveries), offset.and_then(JsonValue::as_u64));
        assert!(wire > least, "{tag}: the body is only {wire} bytes");
        assert!(
            heap.peak_bytes < POLL_BOUND,
            "{tag}: serving a {wire}-byte 202 raised the heap's high-water mark by {} bytes",
            heap.peak_bytes
        );
    }
}
