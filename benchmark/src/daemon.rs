//! The `daemon_jobs` workload: `noc-serviced` under a closed-loop HTTP
//! client. Closed loop, because a caller waits for its result before it
//! submits the next job.

use crate::checks::{check_job_result, Tally};
use crate::child::{clean_env, Ended, Server};
use crate::digest::digest;
use crate::http::request;
use crate::json::Json;
use crate::spans::Recorder;
use crate::stats::{mean, median};
use crate::workloads::{Measured, SETUP_RUNS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Concurrent clients, each with one job outstanding. One, not two:
/// `Scheduler::submit` queues a job before it creates the job's spool
/// directory, so a worker that is just finishing another job can start
/// the new one first and fail it ("opening delivery stream: No such file
/// or directory", about 1 job in 100 with two clients). With one client
/// every worker is asleep when a job arrives and the race cannot occur.
/// Raise this, in a change to the benchmark alone, once that is fixed.
pub const CLIENTS: u64 = 1;
/// Jobs cycle through this many seeds, so equal seeds recur and their
/// result digests can be compared.
pub const SEEDS: u64 = 8;
/// Pause between two polls for a result.
const POLL_EVERY: Duration = Duration::from_millis(2);
/// A job that has no result after this long has failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// The job every client submits: a 4x4 mesh, 2 000 cycles, a checkpoint
/// every 250 — small enough that the service around the simulation, not
/// the stepping, is most of the latency.
pub fn job_spec(seed: u64) -> String {
    format!(
        "{{\"kind\":\"simulate\",\"mesh_k\":4,\"rate\":0.08,\"warmup_cycles\":200,\
         \"measure_cycles\":1400,\"drain_cycles\":400,\"checkpoint_every\":250,\"seed\":{seed}}}"
    )
}

/// A running daemon with an empty spool of its own.
pub struct Daemon {
    server: Server,
    pub addr: String,
    spool: PathBuf,
}

impl Daemon {
    /// Spawn `noc-serviced` on an ephemeral port with 2 workers, read the
    /// address it prints once it listens, and wait for a `200` from
    /// `/healthz`. Returns the daemon and the seconds from spawn to the
    /// printed address: what a user pays before the daemon takes a job.
    /// The `/healthz` reply is left out of that time because the accept
    /// loop polls every 20 ms, which makes the first reply take either
    /// 2 ms or 22 ms depending on who wins a race.
    pub fn start(serviced: &Path, spool: &Path) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(spool);
        let mut cmd = Command::new(serviced);
        cmd.args(["--port", "0", "--workers", "2", "--spool"])
            .arg(spool);
        clean_env(&mut cmd, &[]);
        let mut server =
            Server::spawn(cmd).map_err(|e| format!("spawning {}: {e}", serviced.display()))?;
        let banner = server
            .read_line()
            .map_err(|e| format!("daemon banner: {e}"))?;
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("daemon printed {banner:?}, not its address"))?
            .to_string();
        let ready_s = server.started().elapsed().as_secs_f64();
        loop {
            match request(&addr, "GET", "/healthz", None) {
                Ok(r) if r.status == 200 => break,
                _ if server.started().elapsed() > JOB_TIMEOUT => {
                    return Err("daemon never answered /healthz".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((
            Daemon {
                server,
                addr,
                spool: spool.to_path_buf(),
            },
            ready_s,
        ))
    }

    /// Bytes the spool holds now.
    pub fn spool_bytes(&self) -> u64 {
        fn size(dir: &Path) -> u64 {
            std::fs::read_dir(dir).map_or(0, |entries| {
                entries
                    .flatten()
                    .map(|e| match e.metadata() {
                        Ok(m) if m.is_dir() => size(&e.path()),
                        Ok(m) => m.len(),
                        Err(_) => 0,
                    })
                    .sum()
            })
        }
        size(&self.spool)
    }

    /// SIGTERM, wait for the exit, remove the spool.
    pub fn stop(self) -> Result<Ended, String> {
        let ended = self
            .server
            .stop()
            .map_err(|e| format!("stopping daemon: {e}"))?;
        let _ = std::fs::remove_dir_all(&self.spool);
        Ok(ended)
    }
}

/// Median of [`SETUP_RUNS`] daemon starts, spawn to listening, seconds.
pub fn setup_s(serviced: &Path, out_dir: &Path) -> Result<f64, String> {
    let spool = out_dir.join("spool_setup");
    let mut ready = Vec::with_capacity(SETUP_RUNS);
    for _ in 0..SETUP_RUNS {
        let (daemon, ready_s) = Daemon::start(serviced, &spool)?;
        daemon.stop()?;
        ready.push(ready_s);
    }
    Ok(median(&ready))
}

/// One job as its client saw it. Times are nanoseconds since the load
/// started.
#[derive(Debug, Clone)]
pub struct JobSample {
    pub seed: u64,
    pub id: String,
    pub start_ns: u64,
    /// `POST /jobs` answered (the spec is durable by then).
    pub submitted_ns: u64,
    /// The poll that returned the result was sent.
    pub fetch_start_ns: u64,
    /// Result body fully read.
    pub end_ns: u64,
    pub polls: u64,
    pub body: String,
}

impl JobSample {
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// What the load left behind: every job, and how many submissions the
/// daemon refused for a full queue.
pub struct Load {
    pub jobs: Vec<Result<JobSample, String>>,
    pub rejected: u64,
}

fn one_job(addr: &str, seed: u64, epoch: Instant) -> Result<JobSample, String> {
    let ns = || epoch.elapsed().as_nanos() as u64;
    let start_ns = ns();
    let reply = request(addr, "POST", "/jobs", Some(&job_spec(seed)))
        .map_err(|e| format!("POST /jobs: {e}"))?;
    let submitted_ns = ns();
    if reply.status != 201 {
        return Err(format!(
            "POST /jobs: status {}: {}",
            reply.status, reply.body
        ));
    }
    let id = Json::parse(&reply.body)?
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit reply has no id")?
        .to_string();
    let path = format!("/jobs/{id}/result");
    let mut polls = 0;
    loop {
        let fetch_start_ns = ns();
        let reply = request(addr, "GET", &path, None).map_err(|e| format!("GET {path}: {e}"))?;
        polls += 1;
        match reply.status {
            200 => {
                return Ok(JobSample {
                    seed,
                    id,
                    start_ns,
                    submitted_ns,
                    fetch_start_ns,
                    end_ns: ns(),
                    polls,
                    body: reply.body,
                })
            }
            // A failed job answers 202 for ever; its status says so. A
            // text search, because parsing every partial result would
            // load the machine the daemon runs on.
            202 if reply.body.contains("\"phase\":\"failed\"") => {
                let error = Json::parse(&reply.body)
                    .ok()
                    .and_then(|d| d.get("error")?.as_str().map(str::to_string));
                return Err(format!("{id} failed: {}", error.unwrap_or_default()));
            }
            202 if ns() - start_ns < JOB_TIMEOUT.as_nanos() as u64 => {
                std::thread::sleep(POLL_EVERY)
            }
            202 => return Err(format!("{id}: no result after {JOB_TIMEOUT:?}")),
            other => return Err(format!("GET {path}: status {other}: {}", reply.body)),
        }
    }
}

/// Run [`CLIENTS`] closed-loop clients against `addr` for `seconds`.
/// Client `c`'s `k`-th job is job `k * CLIENTS + c` and has seed
/// `seed + job % SEEDS`.
pub fn load(addr: &str, seed: u64, seconds: f64) -> Load {
    let epoch = Instant::now();
    let per_client: Vec<Vec<Result<JobSample, String>>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut jobs = Vec::new();
                    let mut k = 0;
                    while epoch.elapsed().as_secs_f64() < seconds {
                        let job = k * CLIENTS + c;
                        jobs.push(one_job(addr, seed + job % SEEDS, epoch));
                        k += 1;
                    }
                    jobs
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let jobs: Vec<_> = per_client.into_iter().flatten().collect();
    let rejected = jobs
        .iter()
        .filter(|j| matches!(j, Err(e) if e.contains("status 429") || e.contains("status 503")))
        .count() as u64;
    Load { jobs, rejected }
}

/// What the result of a job with one seed says, whichever job it was.
pub struct SeedStats {
    pub mean_latency_cycles: f64,
    pub survival_frac: f64,
    pub result_bytes: f64,
}

/// Mean of `f` over the seeds.
fn over_seeds(by_seed: &BTreeMap<u64, SeedStats>, f: impl Fn(&SeedStats) -> f64) -> f64 {
    mean(&by_seed.values().map(f).collect::<Vec<_>>())
}

/// Check every job's result, compare digests of equal seeds, and return
/// the jobs that passed; an error when none did.
pub fn checked(
    load: Load,
    tally: &mut Tally,
) -> Result<(Vec<JobSample>, BTreeMap<u64, SeedStats>), String> {
    let mut ok = Vec::new();
    // The same for every job of a seed, so a mean over seeds repeats
    // exactly however many jobs a run fits in.
    let mut by_seed = BTreeMap::new();
    for job in load.jobs {
        let outcome = job.and_then(|j| {
            let stats = check_job_result(&j.body)?;
            tally.same_digest(j.seed, digest(&j.body, &["job"]))?;
            by_seed.insert(
                j.seed,
                SeedStats {
                    mean_latency_cycles: stats.mean_latency_cycles,
                    survival_frac: stats.survival_frac,
                    result_bytes: j.body.len() as f64,
                },
            );
            Ok(j)
        });
        ok.extend(tally.record(outcome));
    }
    if ok.is_empty() {
        return Err(format!(
            "daemon_jobs: no job succeeded: {}",
            tally.first_error.clone().unwrap_or_default()
        ));
    }
    Ok((ok, by_seed))
}

/// The end-to-end run: set-up time, then the load for `seconds`.
pub fn measure(
    serviced: &Path,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<Measured, String> {
    let setup_s = setup_s(serviced, out_dir)?;
    let (daemon, _) = Daemon::start(serviced, &out_dir.join("spool"))?;
    let load = load(&daemon.addr, seed, seconds);
    let ended = daemon.stop()?;
    let mut tally = Tally::default();
    let (jobs, by_seed) = checked(load, &mut tally)?;
    let latencies: Vec<f64> = jobs.iter().map(JobSample::latency_ms).collect();
    let first = jobs.iter().map(|j| j.start_ns).min().unwrap_or(0);
    let last = jobs.iter().map(|j| j.end_ns).max().unwrap_or(0);
    let metrics = BTreeMap::from([
        (
            "work_per_s".to_string(),
            jobs.len() as f64 / ((last - first) as f64 / 1e9),
        ),
        ("op_latency_ms_p50".to_string(), median(&latencies)),
        // The daemon's processor time per job: unlike the latency, which
        // its accept loop's 20 ms poll puts into classes, this moves with
        // every microsecond `service` and `telemetry` spend on a job.
        (
            "cpu_ms_per_op".to_string(),
            ended.cpu_s * 1e3 / jobs.len() as f64,
        ),
        ("peak_rss_mb".to_string(), ended.peak_rss_kb as f64 / 1024.0),
        ("setup_s".to_string(), setup_s),
        (
            "mean_latency_cycles".to_string(),
            over_seeds(&by_seed, |s| s.mean_latency_cycles),
        ),
        (
            "survival_frac".to_string(),
            over_seeds(&by_seed, |s| s.survival_frac),
        ),
    ]);
    let detail = Json::obj([
        ("jobs", Json::from(jobs.len() as u64)),
        ("op_wall_ms", Json::nums(&latencies)),
        ("daemon_cpu_s", Json::Num(ended.cpu_s)),
    ]);
    Ok(Measured {
        metrics,
        tally,
        detail,
    })
}

/// One event of the daemon's JSONL log on standard error.
struct LogEvent {
    ts_ms: f64,
    event: String,
    job: String,
    doc: Json,
}

fn log_events(stderr: &str) -> Vec<LogEvent> {
    stderr
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|doc| {
            Some(LogEvent {
                ts_ms: doc.get("ts_ms")?.as_f64()?,
                event: doc.get("event")?.as_str()?.to_string(),
                job: doc.get("job")?.as_str().unwrap_or("").to_string(),
                doc,
            })
        })
        .collect()
}

/// The traced run's share that needs no crate: the same load with every
/// request kept as a span, the daemon's own log read from outside for
/// what happened inside it, and an idle-daemon `/healthz` round trip.
/// Returns the `service.*` metrics it can measure and the spans.
pub fn traced(
    serviced: &Path,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    tally: &mut Tally,
) -> Result<(BTreeMap<String, f64>, Recorder), String> {
    let (daemon, ready_s) = Daemon::start(serviced, &out_dir.join("spool"))?;
    let mut rtts = Vec::new();
    for _ in 0..50 {
        let sent = Instant::now();
        match request(&daemon.addr, "GET", "/healthz", None) {
            Ok(r) if r.status == 200 => {}
            Ok(r) => return Err(format!("/healthz: status {}", r.status)),
            Err(e) => return Err(format!("/healthz: {e}")),
        }
        rtts.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    let load = load(&daemon.addr, seed, seconds);
    let rejected = load.rejected;
    let spool_bytes = daemon.spool_bytes();
    let ended = daemon.stop()?;
    let (jobs, by_seed) = checked(load, tally)?;

    // Inside the daemon, from its log: queue wait, run and checkpoint
    // writes per job. Its time stamps have millisecond resolution.
    let mut submitted = BTreeMap::new();
    let mut queue_wait_ms = BTreeMap::new();
    let mut run_ms = BTreeMap::new();
    let mut checkpoints: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for e in log_events(&ended.stderr) {
        match e.event.as_str() {
            "job_submitted" => {
                submitted.insert(e.job, e.ts_ms);
            }
            "job_started" => {
                if let Some(at) = submitted.get(&e.job) {
                    queue_wait_ms.insert(e.job, e.ts_ms - at);
                }
            }
            "job_checkpoint" => {
                let slot = checkpoints.entry(e.job).or_default();
                slot.0 += e
                    .doc
                    .get("write_secs")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    * 1e3;
                slot.1 += 1;
            }
            "job_completed" => {
                if let Some(secs) = e.doc.get("secs").and_then(Json::as_f64) {
                    run_ms.insert(e.job, secs * 1e3);
                }
            }
            _ => {}
        }
    }

    let mut rec = Recorder::new();
    for j in &jobs {
        let root = rec.record(None, "job", j.start_ns, j.end_ns);
        rec.record(Some(root), "service.submit", j.start_ns, j.submitted_ns);
        let wait = rec.record(Some(root), "client.wait", j.submitted_ns, j.fetch_start_ns);
        rec.count_on(wait, "client.polls", 0, j.polls - 1);
        rec.record(
            Some(root),
            "service.result_fetch",
            j.fetch_start_ns,
            j.end_ns,
        );
        // The daemon's clock is not the client's: its spans are laid end
        // to end after the submit, with their logged durations.
        let queued_ns = (queue_wait_ms.get(&j.id).copied().unwrap_or(0.0) * 1e6) as u64;
        let run_ns = (run_ms.get(&j.id).copied().unwrap_or(0.0) * 1e6) as u64;
        let run_start = j.submitted_ns + queued_ns;
        rec.record(Some(wait), "service.queue_wait", j.submitted_ns, run_start);
        let run = rec.record(Some(wait), "service.run", run_start, run_start + run_ns);
        if let Some(&(ms, writes)) = checkpoints.get(&j.id) {
            rec.count_on(run, "service.checkpoint_write", (ms * 1e6) as u64, writes);
        }
    }

    let of_jobs = |f: &dyn Fn(&JobSample) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
    let logged = |m: &BTreeMap<String, f64>| m.values().copied().collect::<Vec<f64>>();
    let (write_ms, writes) = checkpoints
        .values()
        .fold((0.0, 0u64), |acc, c| (acc.0 + c.0, acc.1 + c.1));
    let metrics = BTreeMap::from([
        ("cli.overhead_ms".to_string(), ready_s * 1e3),
        (
            "service.submit_ms_p50".to_string(),
            median(&of_jobs(&|j| (j.submitted_ns - j.start_ns) as f64 / 1e6)),
        ),
        ("service.run_ms_p50".to_string(), median(&logged(&run_ms))),
        (
            "service.checkpoint_write_ms_mean".to_string(),
            if writes == 0 {
                0.0
            } else {
                write_ms / writes as f64
            },
        ),
        (
            "service.queue_wait_ms_p50".to_string(),
            median(&logged(&queue_wait_ms)),
        ),
        (
            "service.result_fetch_ms_p50".to_string(),
            median(&of_jobs(&|j| (j.end_ns - j.fetch_start_ns) as f64 / 1e6)),
        ),
        (
            "service.result_bytes".to_string(),
            over_seeds(&by_seed, |s| s.result_bytes),
        ),
        ("service.http_rtt_us_p50".to_string(), median(&rtts)),
        (
            "service.polls_per_job".to_string(),
            mean(&of_jobs(&|j| j.polls as f64)),
        ),
        (
            "service.spool_bytes_per_job".to_string(),
            spool_bytes as f64 / jobs.len() as f64,
        ),
        ("service.rejected_jobs".to_string(), rejected as f64),
    ]);
    Ok((metrics, rec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_is_valid_json_with_the_seed() {
        let spec = Json::parse(&job_spec(7)).unwrap();
        assert_eq!(spec.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            spec.get("checkpoint_every").and_then(Json::as_f64),
            Some(250.0)
        );
    }

    #[test]
    fn reads_the_daemon_log() {
        let log = "noc-serviced: shutting down\n\
            {\"ts_ms\":100,\"event\":\"job_submitted\",\"job\":\"job-000001\",\"name\":\"\"}\n\
            {\"ts_ms\":103,\"event\":\"job_started\",\"job\":\"job-000001\"}\n\
            {\"ts_ms\":104,\"event\":\"http_request\",\"job\":null}\n";
        let events = log_events(log);
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].event, "job_started");
        assert_eq!(events[1].ts_ms - events[0].ts_ms, 3.0);
        assert_eq!(events[2].job, "");
    }
}
