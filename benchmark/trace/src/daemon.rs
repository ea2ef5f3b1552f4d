//! The `daemon_jobs` workload in process: what `noc-serviced` does with
//! one job between accepting its spec and writing its result, without
//! the HTTP server and the spool around it (those are measured from
//! outside, by `ledger`). It gives the cost of the spec parser, of the
//! checkpoint snapshots and their JSON, and of the job's simulation.

use crate::sim::{self, SimSetup};
use crate::{kernels, timed, Args, Traced};
use noc_faults::FaultPlan;
use noc_ledger::daemon::job_spec;
use noc_ledger::spans::Recorder;
use noc_ledger::stats::median;
use noc_service::CampaignSpec;
use noc_sim::{Network, SimOutcome};
use noc_telemetry::{JsonValue, Restore, Snapshot};
use noc_types::Packet;
use shield_router::RouterKind;
use std::hint::black_box;

/// One job as `scheduler::run_job` runs it, the spool left out: build
/// the simulator and the generator from the spec, run with checkpoints,
/// render each checkpoint document and the result. Returns the wall time
/// in nanoseconds and the checkpoint taken at mid-run.
fn job(text: &str, rec: &mut Recorder) -> Result<(u64, JsonValue, noc_sim::NetworkReport), String> {
    let root = rec.enter("job");
    let (out, wall_ns) = timed(|| -> Result<_, String> {
        let spec = rec.span("service.spec_parse", |_| CampaignSpec::from_text(text))?;
        let simulator = spec.simulator(spec.checkpoint_every)?;
        let mut generator = spec.generator()?;
        let (mut render_ns, mut renders) = (0u64, 0u64);
        let mut mid_run = None;
        let run = rec.enter("sim.run_resumable");
        let result = simulator.run_resumable(&mut generator, None, |doc| {
            let (text, ns) = timed(|| doc.render());
            black_box(text);
            render_ns += ns;
            renders += 1;
            if renders == 4 {
                mid_run = Some(doc.clone());
            }
            true
        });
        rec.count("telemetry.json_render", render_ns, renders);
        rec.exit(run);
        let (report, outcome) = result.map_err(|e| e.to_string())?;
        if outcome == SimOutcome::DeadlockSuspected {
            return Err("deadlock suspected".into());
        }
        rec.span("telemetry.result_render", |_| {
            black_box(report.to_json().render())
        });
        Ok((mid_run.ok_or("the job took no fourth checkpoint")?, report))
    });
    rec.exit(root);
    let (mid_run, report) = out?;
    Ok((wall_ns, mid_run, report))
}

/// Snapshot encode and restore of the job's network at mid-run.
fn snapshots(setup: &SimSetup, out: &mut Traced, rec: &mut Recorder) -> Result<(), String> {
    let mut net = Network::with_faults(setup.net, RouterKind::Protected, &FaultPlan::none());
    let mut generator = (setup.generator)();
    let mut packets: Vec<Packet> = Vec::new();
    for cycle in 0..1_000 {
        packets.clear();
        generator.tick_into(cycle, &mut packets);
        net.offer_packets_from(&mut packets);
        net.step(cycle);
    }
    let mut encodes = Vec::new();
    let mut restores = Vec::new();
    let mut bytes = 0;
    for _ in 0..15 {
        let (doc, ns) = rec.span("telemetry.snapshot_encode", |_| timed(|| net.snapshot()));
        encodes.push(ns as f64 / 1e3);
        bytes = doc.render().len();
        let mut fresh = Network::with_faults(setup.net, RouterKind::Protected, &FaultPlan::none());
        let (restored, ns) = rec.span("telemetry.snapshot_restore", |_| {
            timed(|| fresh.restore(&doc))
        });
        restored.map_err(|e| format!("restoring a snapshot: {e}"))?;
        restores.push(ns as f64 / 1e3);
    }
    out.set("telemetry.snapshot_encode_us", median(&encodes));
    out.set("telemetry.snapshot_restore_us", median(&restores));
    out.set("telemetry.snapshot_bytes", bytes as f64);
    Ok(())
}

pub fn trace(args: &Args, rec: &mut Recorder) -> Result<Traced, String> {
    let mut out = Traced::default();
    let text = job_spec(args.seed);
    let spec = CampaignSpec::from_text(&text)?;
    let net = spec.network_config()?;
    kernels::probe(&net, &mut out, rec);

    let parses: Vec<f64> = (0..9)
        .map(|_| {
            timed(|| {
                for _ in 0..200 {
                    black_box(CampaignSpec::from_text(black_box(&text)).is_ok());
                }
            })
            .1 as f64
                / 200.0
                / 1e3
        })
        .collect();
    out.set("service.spec_parse_us", median(&parses));

    // The job through the service's own entry points.
    let mut job_ms = Vec::new();
    let mut checkpoint = None;
    for _ in 0..15 {
        let run = job(&text, rec);
        out.checked(run.as_ref().map(|_| ()).map_err(Clone::clone));
        let (wall_ns, mid_run, report) = run?;
        out.checked(sim::check_report(&report));
        job_ms.push(wall_ns as f64 / 1e6);
        checkpoint = Some(mid_run);
    }
    eprintln!(
        "ledger-trace: one job in process, no spool and no HTTP: median {:.3} ms",
        median(&job_ms)
    );

    // JSON speed on the document the daemon writes most: a checkpoint.
    let checkpoint = checkpoint.expect("fifteen jobs ran");
    let rendered = checkpoint.render();
    let mb = rendered.len() as f64 / 1e6;
    let render_s: Vec<f64> = (0..15)
        .map(|_| timed(|| black_box(checkpoint.render())).1 as f64 / 1e9)
        .collect();
    let parse_s: Vec<f64> = (0..15)
        .map(|_| timed(|| black_box(JsonValue::parse(&rendered).is_ok())).1 as f64 / 1e9)
        .collect();
    out.set("telemetry.json_render_mb_s", mb / median(&render_s));
    out.set("telemetry.json_parse_mb_s", mb / median(&parse_s));

    // The job's simulation through the same rounds as the sim_*
    // workloads, for the split of its stepping.
    let generator_spec = spec.clone();
    let setup = SimSetup {
        net,
        sim: spec.sim_config(),
        plan: FaultPlan::none(),
        threads: spec.threads,
        generator: Box::new(move || generator_spec.generator().expect("the spec was validated")),
    };
    snapshots(&setup, &mut out, rec)?;
    let (report, _, _) = sim::run_with::<false>(&setup, rec);
    sim::report_metrics(&mut out, &report);
    sim::measure(&setup, args.seconds / 4.0, &mut out, rec);
    out.mean_latency_cycles = report.total_latency.mean;
    out.survival_frac = 1.0;
    out.delivered = report.delivered();
    Ok(out)
}
