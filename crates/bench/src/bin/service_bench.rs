//! Campaign-service throughput and checkpoint overhead (extension).
//!
//! Two measurements behind `BENCH_service.json`:
//!
//! 1. **Scheduler throughput** — submit a batch of short campaigns to
//!    an in-process [`Scheduler`] (the same object `noc-serviced`
//!    serves over HTTP) and time the drain: jobs/second through the
//!    queue, workers and spool.
//! 2. **Checkpoint overhead** — one fixed campaign run uninterrupted
//!    at checkpoint cadences {off, 1 000, 10 000} cycles, checkpoints
//!    rendered and written to a scratch spool exactly as the daemon
//!    writes them. The off run is the baseline; the other rows report
//!    the relative wall-clock overhead of durable resumability.
//!
//! Unlike the simulation benches these numbers are wall-clock and
//! machine-dependent; the envelope's machine note says so. `--quick`
//! shortens both parts, and checkpoints its jobs every 250 cycles (the
//! perf ledger's job): a cadence shorter than a spool commit, so the
//! printed checkpoints written and skipped per job show the daemon's
//! readiness gate at work.
//!
//! `--long-gate` runs neither measurement: it is the CI regression
//! gate — one ≥200k-cycle campaign at the dense 1k-cycle cadence,
//! failing the process if overhead versus checkpointing-off exceeds a
//! pinned ratio (checkpoint cost must stay O(live state), not
//! O(campaign length)).

use noc_bench::{bench_envelope, write_json};
use noc_service::{CampaignSpec, JsonlStream, Scheduler, ServiceConfig};
use noc_telemetry::JsonValue;
use std::time::{Duration, Instant};

fn campaign(name: &str, seed: u64, measure: u64) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        seed,
        rate: 0.08,
        warmup_cycles: 200,
        measure_cycles: measure,
        drain_cycles: 400,
        ..CampaignSpec::default()
    }
}

/// A scratch directory under the system temp root, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("noc-service-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The value of an unlabelled counter in Prometheus text.
fn counter(metrics: &str, name: &str) -> f64 {
    let line = metrics.lines().find(|l| l.split(' ').next() == Some(name));
    line.and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no counter {name}"))
}

/// Jobs/second through the scheduler: submit `jobs` campaigns that
/// checkpoint every `every` cycles, wait for the queue to drain, divide.
fn scheduler_throughput(jobs: u64, measure: u64, every: u64) -> JsonValue {
    let scratch = Scratch::new("throughput");
    let mut cfg = ServiceConfig::new(scratch.0.join("spool"));
    cfg.workers = 2;
    cfg.queue_cap = jobs as usize + 1;
    cfg.default_checkpoint_every = every;
    let sched = Scheduler::start(cfg).expect("scheduler starts");
    let start = Instant::now();
    for seed in 0..jobs {
        sched
            .submit(campaign(&format!("bench-{seed}"), seed + 1, measure))
            .expect("queue sized for the batch");
    }
    assert!(
        sched.drain(Duration::from_secs(600)),
        "benchmark batch must finish"
    );
    let wall = start.elapsed().as_secs_f64();
    let metrics = sched.metrics_text();
    sched.shutdown();
    println!(
        "scheduler: {jobs} jobs x {measure} measured cycles in {wall:.2}s -> {:.2} jobs/s; \
         per job {:.1} checkpoints written, {:.1} skipped (spool busy)",
        jobs as f64 / wall,
        counter(&metrics, "noc_service_checkpoint_writes_total") / jobs as f64,
        counter(&metrics, "noc_service_checkpoints_skipped_total") / jobs as f64,
    );
    JsonValue::Obj(vec![
        ("jobs".into(), jobs.into()),
        ("workers".into(), 2u64.into()),
        ("measure_cycles_per_job".into(), measure.into()),
        ("wall_secs".into(), JsonValue::Num(wall)),
        ("jobs_per_sec".into(), JsonValue::Num(jobs as f64 / wall)),
    ])
}

/// One campaign at the given checkpoint cadence, run exactly like the
/// daemon runs it: deliveries appended to a durable `JsonlStream` at
/// every checkpoint boundary, checkpoint docs (live state + stream
/// offset only) written to disk. Returns (wall seconds, checkpoints
/// written).
fn timed_run(spec: &CampaignSpec, every: u64, dir: &std::path::Path) -> (f64, u64) {
    let sim = spec.simulator(every).expect("valid spec");
    let mut gen = spec.generator().expect("valid spec");
    let path = dir.join(format!("checkpoint-{every}.json"));
    let stream_path = dir.join(format!("deliveries-{every}.jsonl"));
    let _ = std::fs::remove_file(&stream_path);
    let mut stream = JsonlStream::open(&stream_path).expect("open delivery stream");
    let mut written = 0u64;
    let start = Instant::now();
    let (_report, _outcome) = sim
        .run_streamed(&mut gen, &mut stream, None, |doc| {
            written += 1;
            std::fs::write(&path, doc.render()).expect("write checkpoint");
            true
        })
        .expect("campaign runs");
    (start.elapsed().as_secs_f64(), written)
}

fn checkpoint_overhead(measure: u64) -> JsonValue {
    let scratch = Scratch::new("overhead");
    let spec = campaign("overhead", 42, measure);
    let cadences = [0u64, 1_000, 10_000];
    // Warm the caches once so the baseline isn't paying first-touch
    // costs the other cadences don't.
    let _ = timed_run(&spec, 0, &scratch.0);
    let runs: Vec<(u64, f64, u64)> = cadences
        .iter()
        .map(|&every| {
            let (wall, written) = timed_run(&spec, every, &scratch.0);
            (every, wall, written)
        })
        .collect();
    let baseline = runs[0].1;
    let rows = runs
        .iter()
        .map(|&(every, wall, written)| {
            let overhead = (wall / baseline - 1.0) * 100.0;
            println!(
                "checkpoint every {every:>6}: {wall:.3}s, {written} checkpoints, {overhead:+.1}% vs off",
            );
            JsonValue::Obj(vec![
                ("checkpoint_every_cycles".into(), every.into()),
                ("wall_secs".into(), JsonValue::Num(wall)),
                ("checkpoints_written".into(), written.into()),
                ("overhead_pct_vs_off".into(), JsonValue::Num(overhead)),
            ])
        })
        .collect();
    JsonValue::Arr(rows)
}

/// CI regression gate: one long campaign (≥200k measured cycles) at
/// the dense 1k-cycle cadence versus checkpointing off. Before the
/// delivery log moved out of the checkpoint doc this cadence cost
/// +933% on a 100k-cycle campaign and grew with length; with
/// O(live-state) checkpoints it must stay within a pinned ratio.
/// Exits nonzero on regression so CI fails loudly.
fn long_gate() {
    const MEASURE: u64 = 200_000;
    const MAX_OVERHEAD_PCT: f64 = 50.0;
    let scratch = Scratch::new("long-gate");
    let spec = campaign("long-gate", 7, MEASURE);
    // Warm caches so the baseline isn't paying first-touch costs.
    let _ = timed_run(&spec, 0, &scratch.0);
    let (base, _) = timed_run(&spec, 0, &scratch.0);
    let (dense, written) = timed_run(&spec, 1_000, &scratch.0);
    let overhead = (dense / base - 1.0) * 100.0;
    println!(
        "long gate ({MEASURE} measured cycles): off {base:.3}s, 1k cadence {dense:.3}s \
         ({written} checkpoints), {overhead:+.1}% overhead (limit +{MAX_OVERHEAD_PCT:.0}%)"
    );
    if overhead > MAX_OVERHEAD_PCT {
        eprintln!(
            "FAIL: 1k-cadence checkpoint overhead {overhead:+.1}% exceeds the pinned \
             +{MAX_OVERHEAD_PCT:.0}% limit — checkpoint cost has regressed toward \
             O(campaign length)"
        );
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--long-gate") {
        long_gate();
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let (jobs, measure, every) = if quick {
        (6, 2_000, 250)
    } else {
        (24, 20_000, 5_000)
    };
    let scheduler = scheduler_throughput(jobs, measure, every);
    let overhead = checkpoint_overhead(measure * 5);
    let doc = bench_envelope(
        "service",
        "Campaign service: jobs/second through the scheduler (bounded queue, \
         2 workers, spool on local disk) and the wall-clock overhead of \
         periodic checkpointing at cadences off / 1k / 10k cycles on one \
         long uniform-random campaign (4x4 mesh, protected routers, 100k \
         measured cycles). Each checkpoint appends new deliveries to a \
         durable append-only deliveries.jsonl stream and writes a snapshot \
         of live network state plus a stream offset — exactly what \
         noc-serviced persists. Checkpoint size is independent of campaign \
         length, so dense cadences stay cheap on arbitrarily long runs.",
        "mesh",
        "wall-clock numbers from a single-CPU container run: jobs/sec and \
         overhead percentages depend on the host; the checkpoint counts and \
         simulation semantics do not",
        JsonValue::Obj(vec![
            ("scheduler".into(), scheduler),
            ("checkpoint_overhead".into(), overhead),
        ]),
    );
    let path = write_json(quick, "BENCH_service", &doc).expect("write BENCH_service.json");
    println!("\nwrote {}", path.display());
}
