//! `noc-cli` — command-line front end to the shield-noc stack.
//!
//! ```text
//! noc-cli simulate [--mesh K]
//!                  [--topology mesh|torus|cutmesh<N>[:seed]
//!                   |chipletmesh<KC>x<KN>[:lat[:den]]
//!                   |chipletstar<C>x<KN>[:lat[:den]]]
//!                  [--router protected|baseline]
//!                  [--pattern NAME --rate F | --app NAME | --trace-in FILE]
//!                  [--cycles N] [--seed S]
//!                  [--faults none|accumulate|storm] [--fault-mean N]
//! noc-cli trace    --app NAME|--pattern NAME --rate F --cycles N --out FILE
//!                  [--mesh K] [--topology SPEC] [--seed S]
//! noc-cli analyze  [--vcs V]
//! noc-cli serve    [--addr A] [--port P] [--spool DIR] [--workers N]
//!                  [--queue-cap N] [--checkpoint-every N]
//! noc-cli submit   --spec FILE|- [--addr A:P]
//! noc-cli status   JOB_ID [--addr A:P]
//! noc-cli result   JOB_ID [--addr A:P]
//! noc-cli heatmap  RESULT_JSON [--metric NAME] [--csv]
//! noc-cli campaign [--mesh K] [--topology SPEC]
//!                  [--routing static|adaptive|both]
//!                  [--scenarios N] [--max-faults N] [--seed S]
//!                  [--threads N] [--quick] [--out FILE]
//! ```
//!
//! `serve` runs the campaign daemon in the foreground (same spool
//! format as `noc-serviced`, which additionally catches SIGTERM for
//! graceful drains); `submit`/`status`/`result` talk to either over
//! HTTP. See ARCHITECTURE.md §5.

use shield_noc::faults::{FaultPlan, InjectionConfig};
use shield_noc::prelude::*;
use shield_noc::reliability::{AreaPowerModel, MttfReport, SpfAnalysis};
use shield_noc::service::client::jobs;
use shield_noc::service::daemon::{default_sigpipe, serve_foreground, ServeArgs};
use shield_noc::service::CampaignSpec;
use shield_noc::telemetry::RouterStats;
use shield_noc::topology::Topology;
use shield_noc::traffic::{AppId, Trace, TrafficGenerator};
use shield_noc::types::args::Flags;
use shield_noc::types::{RouterConfig, RoutingMode, SimConfig, TopologySpec};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Simulate(SimulateArgs),
    Trace(TraceArgs),
    Analyze {
        vcs: usize,
    },
    Serve(ServeArgs),
    Submit {
        addr: String,
        spec: String,
    },
    Status {
        addr: String,
        id: String,
    },
    Result {
        addr: String,
        id: String,
    },
    Heatmap {
        file: String,
        metric: String,
        csv: bool,
    },
    Campaign(CampaignArgs),
}

#[derive(Debug, Clone, PartialEq)]
struct CampaignArgs {
    mesh: u8,
    topology: String,
    routing: String,
    scenarios: Option<u32>,
    max_faults: Option<u32>,
    seed: u64,
    threads: usize,
    quick: bool,
    out: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
struct SimulateArgs {
    mesh: u8,
    topology: String,
    protected: bool,
    source: Source,
    cycles: u64,
    seed: u64,
    faults: FaultMode,
    fault_mean: Option<u64>,
    heatmap: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Source {
    Pattern(SyntheticPattern, f64),
    App(AppId),
    TraceFile(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    None,
    Accumulate,
    Storm,
}

#[derive(Debug, Clone, PartialEq)]
struct TraceArgs {
    mesh: u8,
    topology: String,
    source: Source,
    cycles: u64,
    seed: u64,
    out: String,
}

/// The paper's network on a `mesh`-sided grid with the topology the
/// `--topology` argument names, validated.
fn network(mesh: u8, topology: &str) -> Result<NetworkConfig, String> {
    let mut net = NetworkConfig::paper();
    net.mesh_k = mesh;
    net.topology = TopologySpec::parse_arg(topology, mesh)?;
    net.validate()?;
    Ok(net)
}

/// `simulate` and `trace` read one set of flags — the grid and the
/// traffic on it, `--out` for `trace` alone, the router and its faults
/// for `simulate` alone — and check the topology, and the pattern
/// against its grid, once every flag is in.
fn parse_run(
    cmd: &str,
    flags: &mut Flags,
    cycles: u64,
) -> Result<(SimulateArgs, Option<String>), String> {
    let mut a = SimulateArgs {
        mesh: 8,
        topology: "mesh".to_string(),
        protected: true,
        source: Source::Pattern(SyntheticPattern::UniformRandom, 0.02),
        cycles,
        seed: 0xC0FFEE,
        faults: FaultMode::None,
        fault_mean: None,
        heatmap: false,
    };
    let (mut pattern, mut rate, mut out) = (None::<String>, 0.02, None);
    let simulate = cmd == "simulate";
    while let Some(flag) = flags.next() {
        match flag {
            "--mesh" => a.mesh = flags.value(flag)?,
            "--topology" => a.topology = flags.value(flag)?,
            "--pattern" => pattern = Some(flags.value(flag)?),
            "--rate" => rate = flags.value(flag)?,
            "--app" => a.source = Source::App(AppId::parse_arg(flags.text(flag)?)?),
            "--cycles" => a.cycles = flags.value(flag)?,
            "--seed" => a.seed = flags.value(flag)?,
            "--out" if !simulate => out = Some(flags.value(flag)?),
            "--router" if simulate => {
                a.protected = RouterKind::parse_arg(flags.text(flag)?)? == RouterKind::Protected
            }
            "--trace-in" if simulate => a.source = Source::TraceFile(flags.value(flag)?),
            "--faults" if simulate => {
                a.faults = match flags.text(flag)? {
                    "none" => FaultMode::None,
                    "accumulate" => FaultMode::Accumulate,
                    "storm" => FaultMode::Storm,
                    other => return Err(format!("--faults: {other:?}")),
                }
            }
            "--fault-mean" if simulate => a.fault_mean = Some(flags.value(flag)?),
            "--heatmap" if simulate => a.heatmap = true,
            other => return Err(format!("{cmd}: unknown flag {other:?}")),
        }
    }
    let nodes = network(a.mesh, &a.topology)?.nodes();
    if let Some(p) = pattern {
        a.source = Source::Pattern(SyntheticPattern::parse_arg(&p, nodes)?, rate);
    } else if let Source::Pattern(_, r) = &mut a.source {
        *r = rate;
    }
    Ok((a, out))
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    let mut flags = Flags::new(rest);
    match cmd.as_str() {
        "simulate" => Ok(Command::Simulate(parse_run(cmd, &mut flags, 30_000)?.0)),
        "trace" => {
            let (a, out) = parse_run(cmd, &mut flags, 10_000)?;
            Ok(Command::Trace(TraceArgs {
                mesh: a.mesh,
                topology: a.topology,
                source: a.source,
                cycles: a.cycles,
                seed: a.seed,
                out: out.ok_or("trace: --out FILE is required")?,
            }))
        }
        "analyze" => {
            let mut vcs = 4usize;
            while let Some(flag) = flags.next() {
                match flag {
                    "--vcs" => vcs = flags.value(flag)?,
                    other => return Err(format!("analyze: unknown flag {other:?}")),
                }
            }
            Ok(Command::Analyze { vcs })
        }
        "serve" => ServeArgs::parse(rest)
            .map(Command::Serve)
            .map_err(|e| format!("serve: {e}")),
        "submit" => {
            let (addr, spec) = parse_client_args("submit", flags)?;
            let spec = spec.ok_or("submit: --spec FILE (or '-' for stdin) is required")?;
            Ok(Command::Submit { addr, spec })
        }
        "status" => {
            let (addr, id) = parse_client_args("status", flags)?;
            let id = id.ok_or("status: JOB_ID is required")?;
            Ok(Command::Status { addr, id })
        }
        "result" => {
            let (addr, id) = parse_client_args("result", flags)?;
            let id = id.ok_or("result: JOB_ID is required")?;
            Ok(Command::Result { addr, id })
        }
        "heatmap" => {
            let mut file = None;
            // The spatial view's first metric: flits routed.
            let mut metric = RouterStats::SPATIAL[0].0.to_string();
            let mut csv = false;
            while let Some(flag) = flags.next() {
                match flag {
                    "--metric" => metric = flags.value(flag)?,
                    "--csv" => csv = true,
                    other if other.starts_with("--") => {
                        return Err(format!("heatmap: unknown flag {other:?}"))
                    }
                    other => {
                        if file.replace(other.to_string()).is_some() {
                            return Err("heatmap: more than one input file".into());
                        }
                    }
                }
            }
            Ok(Command::Heatmap {
                file: file.ok_or("heatmap: RESULT_JSON is required")?,
                metric,
                csv,
            })
        }
        "campaign" => {
            let mut c = CampaignArgs {
                mesh: 8,
                topology: "mesh".to_string(),
                routing: "both".to_string(),
                scenarios: None,
                max_faults: None,
                seed: 1,
                threads: 0,
                quick: false,
                out: None,
            };
            while let Some(flag) = flags.next() {
                match flag {
                    "--mesh" => c.mesh = flags.value(flag)?,
                    "--topology" => c.topology = flags.value(flag)?,
                    "--routing" => c.routing = flags.value(flag)?,
                    "--scenarios" => c.scenarios = Some(flags.value(flag)?),
                    "--max-faults" => c.max_faults = Some(flags.value(flag)?),
                    "--seed" => c.seed = flags.value(flag)?,
                    "--threads" => c.threads = flags.value(flag)?,
                    "--quick" => c.quick = true,
                    "--out" => c.out = Some(flags.value(flag)?),
                    other => return Err(format!("campaign: unknown flag {other:?}")),
                }
            }
            routing_arms(&c.routing).map_err(|e| format!("--routing: {e}"))?;
            network(c.mesh, &c.topology)?;
            Ok(Command::Campaign(c))
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// The arms a `--routing` argument names: one mode, or `both`.
fn routing_arms(arg: &str) -> Result<Vec<RoutingMode>, String> {
    Ok(match arg {
        "both" => vec![RoutingMode::Static, RoutingMode::Adaptive],
        mode => vec![RoutingMode::parse_arg(mode)?],
    })
}

/// Shared parse for the client subcommands: an optional `--addr A:P`
/// plus at most one positional argument (the job id), which `submit`
/// also takes as `--spec FILE`.
fn parse_client_args(cmd: &str, mut flags: Flags) -> Result<(String, Option<String>), String> {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut positional = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = flags.value(flag)?,
            "--spec" if cmd == "submit" => positional = Some(flags.value(flag)?),
            other if other.starts_with("--") => {
                return Err(format!("{cmd}: unknown flag {other:?}"))
            }
            other => {
                if positional.replace(other.to_string()).is_some() {
                    return Err(format!("{cmd}: more than one positional argument"));
                }
            }
        }
    }
    Ok((addr, positional))
}

const USAGE: &str =
    "usage: noc-cli <simulate|trace|analyze|serve|submit|status|result|heatmap|campaign> \
     [flags] (see module docs; --topology accepts mesh, torus, cutmesh<N>[:seed], \
     chipletmesh<KC>x<KN>[:lat[:den]] and chipletstar<C>x<KN>[:lat[:den]])";

fn traffic_of(source: &Source) -> Result<TrafficConfig, String> {
    Ok(match source {
        Source::Pattern(p, r) => TrafficConfig::synthetic(*p, *r),
        Source::App(a) => TrafficConfig::app(*a),
        Source::TraceFile(_) => unreachable!("trace replay handled separately"),
    })
}

fn run_simulate(a: SimulateArgs) -> Result<(), String> {
    let net = network(a.mesh, &a.topology)?;
    let topo_tag = net.topology.tag();
    let kind = if a.protected {
        RouterKind::Protected
    } else {
        RouterKind::Baseline
    };
    let sim = SimConfig {
        warmup_cycles: a.cycles / 10,
        measure_cycles: a.cycles,
        drain_cycles: a.cycles / 2,
        seed: a.seed,
    };
    let horizon = sim.warmup_cycles + sim.measure_cycles;
    let plan = match a.faults {
        FaultMode::None => FaultPlan::none(),
        FaultMode::Accumulate => {
            let inj = InjectionConfig::accelerated_accumulating(
                a.fault_mean.unwrap_or(horizon / 2),
                horizon,
            );
            FaultPlan::uniform_random(&RouterConfig::paper(), net.nodes(), &inj, a.seed ^ 0xFA17)
        }
        FaultMode::Storm => FaultPlan::transient_storm(
            &RouterConfig::paper(),
            net.nodes(),
            1.0 / a.fault_mean.unwrap_or(2_000) as f64,
            50,
            horizon,
            a.seed ^ 0x5708,
        ),
    };

    let report = match &a.source {
        Source::TraceFile(path) => {
            let trace = Trace::load(path)?;
            if trace.mesh_k != a.mesh {
                return Err(format!(
                    "trace was recorded on a {0}x{0} mesh, simulating {1}x{1}",
                    trace.mesh_k, a.mesh
                ));
            }
            let mut player = trace.player();
            let (report, _) = shield_noc::sim::Simulator::new(net, sim, kind, plan.clone())
                .run_with(|c, out| player.tick_into(c, out));
            report
        }
        src => {
            let traffic = traffic_of(src)?;
            run_simulation(&net, &sim, &traffic, kind, &plan)
        }
    };

    println!("router          : {kind:?} on a {0}x{0} {topo_tag}", a.mesh);
    println!(
        "faults          : {} permanent, {} transient",
        plan.len(),
        plan.transients().len()
    );
    println!(
        "packets         : {} delivered, {} misdelivered",
        report.delivered(),
        report.misdelivered
    );
    println!(
        "flits dropped   : {}",
        report.flits_dropped + report.flits_edge_dropped
    );
    println!(
        "latency (cycles): mean {:.2}, p50 {}, p95 {}, p99 {}, max {}",
        report.total_latency.mean,
        report.total_latency.p50,
        report.total_latency.p95,
        report.total_latency.p99,
        report.total_latency.max
    );
    println!(
        "throughput      : {:.4} flits/node/cycle",
        report.throughput
    );
    println!("mean hops       : {:.2}", report.mean_hops);
    if report.deadlock_suspected {
        println!("WARNING: deadlock suspected (traffic stopped moving)");
    }
    let ev = report.router_events;
    if plan.len() + plan.transients().len() > 0 {
        println!(
            "mechanisms      : {} dup-RC, {} borrows, {} bypass grants, {} secondary flits",
            ev.rc_duplicate_uses, ev.va_borrows, ev.sa_bypass_grants, ev.secondary_path_flits
        );
    }
    if a.heatmap {
        println!("utilisation heatmap ('.' idle → '#' busiest):");
        print!("{}", report.utilisation_heatmap);
    }
    Ok(())
}

fn run_trace(t: TraceArgs) -> Result<(), String> {
    let traffic = traffic_of(&t.source)?;
    let topo = Topology::from_spec(&network(t.mesh, &t.topology)?);
    let mut generator = TrafficGenerator::for_topology(traffic, &topo, t.seed ^ 0x5EED);
    let trace = Trace::record(&mut generator, t.mesh, t.cycles);
    trace.save(&t.out).map_err(|e| e.to_string())?;
    println!(
        "recorded {} packets over {} cycles into {}",
        trace.len(),
        t.cycles,
        t.out
    );
    Ok(())
}

fn run_analyze(vcs: usize) -> Result<(), String> {
    let mut cfg = RouterConfig::paper();
    cfg.vcs = vcs;
    cfg.validate()?;
    let lib = shield_noc::reliability::GateLibrary::paper();
    let mttf = MttfReport::compute(&lib, &cfg, 6);
    let spf = SpfAnalysis::analytic(&cfg, 0.31);
    let ap = AreaPowerModel::new(cfg, 6).report();
    println!("router: 5 ports, {vcs} VCs");
    println!("  baseline FIT        : {:.1}", mttf.baseline_fit);
    println!(
        "  MTTF improvement    : {:.2}x (paper eq. 5)",
        mttf.improvement_paper
    );
    println!("  SPF                 : {:.2}", spf.spf);
    println!(
        "  area overhead       : {:.1}%",
        ap.area_overhead_total * 100.0
    );
    println!(
        "  power overhead      : {:.1}%",
        ap.power_overhead_total * 100.0
    );
    Ok(())
}

fn run_submit(addr: &str, spec: &str) -> Result<(), String> {
    let text = if spec == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(spec).map_err(|e| format!("reading {spec}: {e}"))?
    };
    // Validate locally first: a bad spec should fail with the parser's
    // message even when no daemon is running.
    CampaignSpec::from_text(&text)?;
    let resp = jobs::submit(addr, &text).map_err(|e| format!("POST {addr}/jobs: {e}"))?;
    if resp.status != 201 {
        return Err(format!(
            "daemon refused the job ({}): {}",
            resp.status, resp.body
        ));
    }
    let id = shield_noc::telemetry::JsonValue::parse(&resp.body)
        .ok()
        .and_then(|doc| doc.get("id")?.as_str().map(str::to_string))
        .ok_or_else(|| format!("malformed response: {}", resp.body))?;
    println!("{id}");
    Ok(())
}

fn run_status(addr: &str, id: &str) -> Result<(), String> {
    let resp = jobs::status(addr, id).map_err(|e| format!("GET {addr}/jobs/{id}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.body));
    }
    println!("{}", resp.body);
    Ok(())
}

fn run_result(addr: &str, id: &str) -> Result<(), String> {
    let resp = jobs::result(addr, id).map_err(|e| format!("GET {addr}/jobs/{id}/result: {e}"))?;
    match resp.status {
        200 => {
            println!("{}", resp.body);
            Ok(())
        }
        202 => {
            // Still running: the body is the partial-result document
            // (status + epoch series + deliveries at the last durable
            // checkpoint). Print it so pipelines can consume progress,
            // but exit nonzero — the final report is not ready.
            println!("{}", resp.body);
            let progress = shield_noc::telemetry::JsonValue::parse(&resp.body)
                .ok()
                .and_then(|doc| {
                    let cycle = doc.get("partial")?.get("cycle")?.as_u64()?;
                    let total = doc.get("total_cycles")?.as_u64()?;
                    Some(format!("checkpointed at cycle {cycle}/{total}"))
                })
                .unwrap_or_else(|| "no checkpoint yet".into());
            Err(format!("job {id} is still running ({progress})"))
        }
        other => Err(format!("status {other}: {}", resp.body)),
    }
}

/// Locate the spatial counter grid inside any artefact that embeds
/// one: a bare `NetworkReport` (`spatial`), a service result document
/// (`report.spatial`), a `/jobs/:id/progress` body (`heatmap`) or a
/// raw checkpoint (`progress`). The `grid` probe rejects same-named
/// scalars (the status document's `progress` fraction, say).
fn find_spatial_grid(
    doc: &shield_noc::telemetry::JsonValue,
) -> Option<&shield_noc::telemetry::JsonValue> {
    [
        doc.get("spatial"),
        doc.get("report").and_then(|r| r.get("spatial")),
        doc.get("heatmap"),
        doc.get("progress"),
    ]
    .into_iter()
    .flatten()
    .find(|v| v.get("grid").is_some())
}

/// Render the heatmap text for `noc-cli heatmap`: either the full CSV
/// dump or the ASCII grid for one metric.
fn heatmap_text(
    doc: &shield_noc::telemetry::JsonValue,
    metric: &str,
    csv: bool,
) -> Result<String, String> {
    let grid_json = find_spatial_grid(doc).ok_or(
        "no spatial grid in this document (expected a result/report JSON with a \
         `spatial` section, a progress body, or a checkpoint)",
    )?;
    let grid = shield_noc::telemetry::SpatialGrid::from_json(grid_json)
        .map_err(|e| format!("malformed spatial grid: {e}"))?;
    if csv {
        return Ok(grid.to_csv());
    }
    let ascii = grid.ascii(metric).ok_or_else(|| {
        format!(
            "unknown metric {metric:?} (one of: {})",
            RouterStats::SPATIAL.map(|c| c.0).join(", ")
        )
    })?;
    Ok(format!(
        "{metric} ({}x{}, '.' idle -> '#' busiest):\n{ascii}",
        grid.width, grid.height
    ))
}

/// Run a mass fault-injection campaign and print the
/// faults-to-failure curves; optionally write the JSON report.
fn run_campaign_cmd(c: CampaignArgs) -> Result<(), String> {
    use shield_noc::campaign::{render_table, report_json, run_campaign, CampaignConfig};

    let net = network(c.mesh, &c.topology)?;
    let mut cc = if c.quick {
        CampaignConfig::quick(net)
    } else {
        CampaignConfig::new(net)
    };
    cc.modes = routing_arms(&c.routing)?;
    if let Some(s) = c.scenarios {
        cc.scenarios_per_point = s;
    }
    if let Some(f) = c.max_faults {
        cc.max_faults = f;
    }
    cc.seed = c.seed;
    cc.threads = c.threads;

    let run = run_campaign(&cc)?;
    println!(
        "campaign        : {0}x{0} {1}, {2} scenarios x {3} fault points, seed {4}",
        c.mesh,
        cc.base.topology.tag(),
        cc.scenarios_per_point,
        cc.max_faults,
        cc.seed
    );
    println!(
        "throughput      : {:.1} scenarios/sec ({} ms total)",
        run.scenarios_per_sec, run.elapsed_ms
    );
    print!("{}", render_table(&run));
    if let Some(path) = &c.out {
        std::fs::write(path, report_json(&run).render())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("report          : {path}");
    }
    Ok(())
}

fn run_heatmap(file: &str, metric: &str, csv: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let doc = shield_noc::telemetry::JsonValue::parse(&text)
        .map_err(|e| format!("parsing {file}: {e}"))?;
    print!("{}", heatmap_text(&doc, metric, csv)?);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cmd| {
        // Every command but the daemon prints and exits, and ends
        // quietly when its reader has gone away.
        if !matches!(cmd, Command::Serve(_)) {
            default_sigpipe();
        }
        match cmd {
            Command::Simulate(a) => run_simulate(a),
            Command::Trace(t) => run_trace(t),
            Command::Analyze { vcs } => run_analyze(vcs),
            // Unlike `noc-serviced` this catches no signal: Ctrl-C ends
            // it at once and the next start on the same spool recovers
            // from the checkpoints.
            Command::Serve(s) => serve_foreground(&s, || false),
            Command::Submit { addr, spec } => run_submit(&addr, &spec),
            Command::Status { addr, id } => run_status(&addr, &id),
            Command::Result { addr, id } => run_result(&addr, &id),
            Command::Heatmap { file, metric, csv } => run_heatmap(&file, &metric, csv),
            Command::Campaign(c) => run_campaign_cmd(c),
        }
    });
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_simulate_defaults() {
        let cmd = parse(&args("simulate")).unwrap();
        match cmd {
            Command::Simulate(a) => {
                assert_eq!(a.mesh, 8);
                assert!(a.protected);
                assert_eq!(a.faults, FaultMode::None);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_simulate_flags() {
        let cmd = parse(&args(
            "simulate --mesh 4 --router baseline --app fft --cycles 500 --seed 9 --faults accumulate --fault-mean 100",
        ))
        .unwrap();
        match cmd {
            Command::Simulate(a) => {
                assert_eq!(a.mesh, 4);
                assert!(!a.protected);
                assert_eq!(a.source, Source::App(AppId::Fft));
                assert_eq!(a.cycles, 500);
                assert_eq!(a.seed, 9);
                assert_eq!(a.faults, FaultMode::Accumulate);
                assert_eq!(a.fault_mean, Some(100));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_pattern_and_rate() {
        let cmd = parse(&args("simulate --pattern transpose --rate 0.07")).unwrap();
        match cmd {
            Command::Simulate(a) => {
                assert_eq!(a.source, Source::Pattern(SyntheticPattern::Transpose, 0.07));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn trace_requires_out() {
        assert!(parse(&args("trace --app fft")).is_err());
        assert!(parse(&args("trace --app fft --out /tmp/x.trace")).is_ok());
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("simulate --bogus 1")).is_err());
        assert!(parse(&args("simulate --app not-an-app")).is_err());
        assert!(parse(&args("simulate --pattern not-a-pattern")).is_err());
        assert!(parse(&args("simulate --router sideways")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn analyze_parses_vcs() {
        assert_eq!(
            parse(&args("analyze --vcs 2")).unwrap(),
            Command::Analyze { vcs: 2 }
        );
        assert_eq!(
            parse(&args("analyze")).unwrap(),
            Command::Analyze { vcs: 4 }
        );
    }

    #[test]
    fn parses_topology_everywhere() {
        match parse(&args("simulate --mesh 4 --topology cutmesh2:9")).unwrap() {
            Command::Simulate(a) => assert_eq!(a.topology, "cutmesh2:9"),
            _ => panic!("wrong command"),
        }
        match parse(&args("trace --app fft --out /tmp/x.trace --topology torus")).unwrap() {
            Command::Trace(t) => assert_eq!(t.topology, "torus"),
            _ => panic!("wrong command"),
        }
        // Chiplet arguments flow through the same shared grammar.
        match parse(&args("simulate --topology chipletmesh2x4:6:4")).unwrap() {
            Command::Simulate(a) => {
                assert_eq!(a.topology, "chipletmesh2x4:6:4");
                assert_eq!(
                    TopologySpec::parse_arg(&a.topology, a.mesh).unwrap(),
                    TopologySpec::ChipletMesh {
                        k_chip: 2,
                        k_node: 4,
                        d2d: shield_noc::types::LinkClass {
                            latency: 6,
                            width_denom: 4
                        },
                    }
                );
            }
            _ => panic!("wrong command"),
        }
        match parse(&args(
            "trace --app fft --out /tmp/x.trace --topology chipletstar3x4",
        ))
        .unwrap()
        {
            Command::Trace(t) => assert_eq!(t.topology, "chipletstar3x4"),
            _ => panic!("wrong command"),
        }
        // The shared grammar rejects junk at parse time, and again on
        // the run path for arguments built by hand.
        for cmd in ["simulate", "trace --out /tmp/x.trace", "campaign"] {
            assert!(parse(&args(&format!("{cmd} --topology klein-bottle"))).is_err());
        }
        assert!(run_simulate(SimulateArgs {
            mesh: 4,
            topology: "klein-bottle".into(),
            protected: true,
            source: Source::Pattern(SyntheticPattern::UniformRandom, 0.01),
            cycles: 10,
            seed: 1,
            faults: FaultMode::None,
            fault_mean: None,
            heatmap: false,
        })
        .is_err());
    }

    #[test]
    fn parses_service_subcommands() {
        assert_eq!(
            parse(&args(
                "serve --port 0 --spool /tmp/s --workers 3 --queue-cap 5"
            ))
            .unwrap(),
            Command::Serve(ServeArgs {
                addr: "127.0.0.1".into(),
                port: 0,
                spool: "/tmp/s".into(),
                workers: 3,
                queue_cap: 5,
                checkpoint_every: 5_000,
            })
        );
        assert!(parse(&args("serve --checkpoint-every 0")).is_err());
        assert_eq!(
            parse(&args("submit --spec campaign.json --addr 10.0.0.1:80")).unwrap(),
            Command::Submit {
                addr: "10.0.0.1:80".into(),
                spec: "campaign.json".into(),
            }
        );
        assert!(parse(&args("submit")).is_err());
        assert_eq!(
            parse(&args("status job-000001")).unwrap(),
            Command::Status {
                addr: "127.0.0.1:7070".into(),
                id: "job-000001".into(),
            }
        );
        assert_eq!(
            parse(&args("heatmap out/result.json --metric occ_integral --csv")).unwrap(),
            Command::Heatmap {
                file: "out/result.json".into(),
                metric: "occ_integral".into(),
                csv: true,
            }
        );
        assert!(parse(&args("heatmap")).is_err());
        assert!(parse(&args("heatmap a.json b.json")).is_err());
        assert_eq!(
            parse(&args("result job-000001 --addr h:1")).unwrap(),
            Command::Result {
                addr: "h:1".into(),
                id: "job-000001".into(),
            }
        );
        assert!(parse(&args("status")).is_err());
        assert!(parse(&args("status a b")).is_err());
    }

    #[test]
    fn parses_campaign_subcommand() {
        assert_eq!(
            parse(&args(
                "campaign --mesh 6 --topology torus --routing adaptive --scenarios 50 \
                 --max-faults 3 --seed 7 --threads 2 --quick --out /tmp/c.json"
            ))
            .unwrap(),
            Command::Campaign(CampaignArgs {
                mesh: 6,
                topology: "torus".into(),
                routing: "adaptive".into(),
                scenarios: Some(50),
                max_faults: Some(3),
                seed: 7,
                threads: 2,
                quick: true,
                out: Some("/tmp/c.json".into()),
            })
        );
        match parse(&args("campaign")).unwrap() {
            Command::Campaign(c) => {
                assert_eq!(c.routing, "both");
                assert_eq!(c.scenarios, None, "defaults come from CampaignConfig");
                assert!(!c.quick);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&args("campaign --routing sideways")).is_err());
        assert!(parse(&args("campaign --bogus")).is_err());
    }

    /// Both spellings of each pattern parse; a pattern that permutes
    /// node-index bits is rejected on a grid it would leave, whatever
    /// the order of the flags, with a message naming both.
    #[test]
    fn patterns_are_checked_against_the_grid_at_parse_time() {
        for (a, b) in [
            ("uniform", "uniform_random"),
            ("bitcomplement", "bit_complement"),
            ("bitreverse", "bit_reverse"),
            ("neighbour", "neighbor"),
            ("hotspot", "hotspot:0.2"),
        ] {
            let one = parse(&args(&format!("simulate --pattern {a}"))).unwrap();
            let other = parse(&args(&format!("simulate --pattern {b}"))).unwrap();
            assert_eq!(one, other, "{a} / {b}");
            assert!(parse(&args(&format!("trace --out /tmp/x --pattern {b}"))).is_ok());
        }
        for bad in ["hotspot:NaN", "hotspot:-1", "hotspot:7"] {
            assert!(parse(&args(&format!("simulate --pattern {bad}"))).is_err());
        }
        for pattern in ["bitreverse", "shuffle", "bit_complement"] {
            for grid in ["--mesh 5", "--mesh 6", "--topology chipletstar2x4"] {
                for cmd in [
                    format!("simulate {grid} --pattern {pattern}"),
                    format!("simulate --pattern {pattern} {grid}"),
                    format!("trace --out /tmp/x --pattern {pattern} {grid}"),
                ] {
                    let err = parse(&args(&cmd)).unwrap_err();
                    assert!(
                        err.contains(pattern) && err.contains("nodes"),
                        "{cmd}: {err}"
                    );
                }
            }
            assert!(parse(&args(&format!("simulate --mesh 4 --pattern {pattern}"))).is_ok());
        }
        assert!(parse(&args("simulate --mesh 5 --pattern transpose")).is_ok());
    }

    #[test]
    fn all_sixteen_apps_parse() {
        for a in AppId::SPLASH2.iter().chain(AppId::PARSEC.iter()) {
            assert_eq!(AppId::parse_arg(a.name()).unwrap(), *a);
        }
    }

    /// Golden service-result fixture: a 2×2 grid embedded the way the
    /// daemon's `result.json` embeds it (`report.spatial`). The
    /// subcommand must find it, render an aligned ASCII grid for the
    /// requested metric, and dump the full CSV under `--csv`.
    #[test]
    fn heatmap_renders_ascii_and_csv_from_a_golden_report() {
        use shield_noc::telemetry::{JsonValue, SpatialGrid};
        use shield_noc::types::Coord;

        let mut grid = SpatialGrid::new(2, 2);
        *grid.cell_mut(Coord::new(0, 0)) = RouterStats {
            flits_out: 12,
            occ_integral: 40,
            sa_bypass_grants: 3,
            ..RouterStats::default()
        };
        grid.cell_mut(Coord::new(1, 1)).flits_out = 700;
        let fixture = JsonValue::Obj(vec![
            ("job".into(), "job-000001".into()),
            (
                "report".into(),
                JsonValue::Obj(vec![("spatial".into(), grid.to_json())]),
            ),
        ]);

        let ascii = heatmap_text(&fixture, "flits_routed", false).unwrap();
        let rows: Vec<&str> = ascii.lines().collect();
        assert_eq!(rows.len(), 3, "title line + 2 grid rows:\n{ascii}");
        assert!(rows[0].contains("flits_routed"));
        assert!(rows[1].contains("12") && rows[2].contains("700"));
        // Counts are right-justified to one shared width, so every
        // grid row renders to the same length.
        assert_eq!(rows[1].len(), rows[2].len(), "misaligned:\n{ascii}");

        let csv = heatmap_text(&fixture, "flits_routed", true).unwrap();
        assert_eq!(csv.lines().count(), 5, "header + 4 cells");
        assert!(csv.starts_with("x,y,flits_routed,"));
        assert!(csv.contains("0,0,12,40,"));

        // A bare NetworkReport (top-level `spatial`) and a progress
        // body (`heatmap`) are found too; unknown metrics and
        // grid-less documents fail with a usable message.
        let bare = JsonValue::Obj(vec![("spatial".into(), grid.to_json())]);
        assert!(heatmap_text(&bare, "occ_integral", false).is_ok());
        let progress = JsonValue::Obj(vec![
            ("progress".into(), 0.5.into()),
            ("heatmap".into(), grid.to_json()),
        ]);
        assert!(heatmap_text(&progress, "va_borrows", false).is_ok());
        let err = heatmap_text(&fixture, "no_such_metric", false).unwrap_err();
        assert!(err.contains("flits_routed"), "{err}");
        let err = heatmap_text(&JsonValue::Obj(vec![]), "flits_routed", false).unwrap_err();
        assert!(err.contains("no spatial grid"), "{err}");
    }

    /// Hierarchical (chiplet) grids flow through the same subcommand:
    /// the chiplet-major keyed JSON from a `/jobs/:id/progress` body
    /// parses, the ASCII rendering marks die boundaries, and the CSV
    /// carries the chiplet coordinate columns. The rendering is pinned
    /// structurally so a silent fall-back to flat keys fails here.
    #[test]
    fn heatmap_renders_chiplet_grids_with_die_boundaries() {
        use shield_noc::telemetry::{JsonValue, SpatialGrid};
        use shield_noc::types::Coord;

        // 4×4 grid of 2×2 dies, one hot router per die quadrant.
        let mut grid = SpatialGrid::new(4, 4).with_chiplets(2);
        grid.cell_mut(Coord::new(0, 0)).flits_out = 5;
        grid.cell_mut(Coord::new(3, 0)).flits_out = 7;
        grid.cell_mut(Coord::new(1, 3)).flits_out = 9;
        let body = JsonValue::Obj(vec![
            ("progress".into(), 0.25.into()),
            ("heatmap".into(), grid.to_json()),
        ]);

        // The hierarchical keying survives the embed → find → parse
        // path (a flat-keyed parser would reject "cx,cy:x,y" keys).
        assert!(grid.to_json().render().contains("\"1,1:1,1\""));

        let ascii = heatmap_text(&body, "flits_routed", false).unwrap();
        let rows: Vec<&str> = ascii.lines().collect();
        assert_eq!(rows.len(), 6, "title + 4 rows + 1 die rule:\n{ascii}");
        assert!(rows[0].contains("4x4"));
        assert!(
            rows[3].chars().all(|c| c == '-'),
            "die boundary rule between chiplet rows:\n{ascii}"
        );
        for row in [rows[1], rows[2], rows[4], rows[5]] {
            assert_eq!(
                row.matches(" | ").count(),
                1,
                "one vertical die boundary per row:\n{ascii}"
            );
        }
        assert!(rows[1].contains('5') && rows[1].contains('7'));
        assert!(rows[5].contains('9'));

        let csv = heatmap_text(&body, "flits_routed", true).unwrap();
        assert!(csv.starts_with("cx,cy,x,y,flits_routed,"), "{csv}");
        assert!(csv.contains("\n1,0,3,0,7,"), "die coords precede: {csv}");
        assert!(csv.contains("\n0,1,1,3,9,"), "die coords precede: {csv}");
    }
}
