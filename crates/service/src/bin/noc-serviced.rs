//! `noc-serviced` — the campaign job daemon.
//!
//! ```text
//! noc-serviced [--addr 127.0.0.1] [--port 7070] [--spool DIR]
//!              [--workers N] [--queue-cap N] [--checkpoint-every N]
//! ```
//!
//! `--port 0` binds an ephemeral port; the daemon always prints
//! `listening on <addr>:<port>` on stdout once it is serving, which is
//! how scripts and the CI harness discover the port.
//!
//! SIGTERM / SIGINT trigger a graceful shutdown: the listener stops
//! accepting, each running job stops on its next checkpoint boundary,
//! once that checkpoint is on disk, and the process exits; a later
//! start on the same spool resumes everything. SIGKILL is survivable
//! too — that is the point of the checkpoint spool — it just forfeits
//! up to one checkpoint interval plus one commit of work.

use noc_service::http::serve;
use noc_service::{ObsLog, Scheduler, ServiceConfig};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install `on_signal` for SIGTERM and SIGINT via the libc `signal`
/// symbol every Unix target links anyway — no signal crate needed.
#[allow(unsafe_code)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

struct Args {
    addr: String,
    port: u16,
    cfg: ServiceConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1".to_string();
    let mut port = 7070u16;
    let mut cfg = ServiceConfig::new("noc-spool");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--port" => {
                port = value("--port")?
                    .parse()
                    .map_err(|_| "bad --port".to_string())?
            }
            "--spool" => cfg.spool = value("--spool")?.into(),
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "bad --workers".to_string())?
            }
            "--queue-cap" => {
                cfg.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|_| "bad --queue-cap".to_string())?
            }
            "--checkpoint-every" => {
                cfg.default_checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every".to_string())?
            }
            "--help" | "-h" => {
                println!(
                    "usage: noc-serviced [--addr A] [--port P] [--spool DIR] \
                     [--workers N] [--queue-cap N] [--checkpoint-every N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if cfg.default_checkpoint_every == 0 {
        return Err("--checkpoint-every must be positive".into());
    }
    Ok(Args { addr, port, cfg })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("noc-serviced: {e}");
            return ExitCode::FAILURE;
        }
    };
    install_signal_handlers();
    let listener = match TcpListener::bind((args.addr.as_str(), args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("noc-serviced: binding {}:{}: {e}", args.addr, args.port);
            return ExitCode::FAILURE;
        }
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    // JSONL events go to stderr: stdout is the script-parsed banner.
    let log = ObsLog::stderr();
    let sched = match Scheduler::start_with_log(args.cfg.clone(), log.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("noc-serviced: starting scheduler: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {local}");
    println!(
        "spool {} | {} workers | queue cap {} | checkpoint every {} cycles",
        args.cfg.spool.display(),
        args.cfg.workers.max(1),
        args.cfg.queue_cap,
        args.cfg.default_checkpoint_every
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();

    if let Err(e) = serve(listener, sched.clone(), log, || {
        SHUTDOWN.load(Ordering::SeqCst)
    }) {
        eprintln!("noc-serviced: accept loop: {e}");
    }
    eprintln!("noc-serviced: shutting down (draining to checkpoints)");
    sched.shutdown();
    ExitCode::SUCCESS
}
