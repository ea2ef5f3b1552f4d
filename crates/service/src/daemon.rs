//! The daemon's front end, shared by `noc-serviced` and `noc-cli
//! serve`: the flags, the foreground serve call with its banner, and
//! the two signal dispositions the binaries change.

use crate::{http, ObsLog, Scheduler, ServiceConfig};
use noc_types::args::Flags;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};

/// `[--addr A] [--port P] [--spool DIR] [--workers N] [--queue-cap N]
/// [--checkpoint-every N]`. `--port 0` binds an ephemeral port.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Address to bind.
    pub addr: String,
    /// Port to bind.
    pub port: u16,
    /// Spool directory.
    pub spool: String,
    /// Concurrent jobs.
    pub workers: usize,
    /// Queued jobs before submissions are turned away.
    pub queue_cap: usize,
    /// Checkpoint cadence for specs that name none.
    pub checkpoint_every: u64,
}

impl ServeArgs {
    /// Parse the flags (without the program or subcommand name).
    pub fn parse(args: &[String]) -> Result<ServeArgs, String> {
        let cfg = ServiceConfig::new("noc-spool");
        let mut a = ServeArgs {
            addr: "127.0.0.1".to_string(),
            port: 7070,
            spool: "noc-spool".to_string(),
            workers: cfg.workers,
            queue_cap: cfg.queue_cap,
            checkpoint_every: cfg.default_checkpoint_every,
        };
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next() {
            match flag {
                "--addr" => a.addr = flags.value(flag)?,
                "--port" => a.port = flags.value(flag)?,
                "--spool" => a.spool = flags.value(flag)?,
                "--workers" => a.workers = flags.value(flag)?,
                "--queue-cap" => a.queue_cap = flags.value(flag)?,
                "--checkpoint-every" => a.checkpoint_every = flags.value(flag)?,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if a.checkpoint_every == 0 {
            return Err("--checkpoint-every must be positive".into());
        }
        Ok(a)
    }
}

/// Serve in the foreground until `should_stop` turns true, then drain
/// every running job to a checkpoint. Prints `listening on
/// <addr>:<port>` on stdout once it is serving, which is how scripts
/// and the CI harness discover an ephemeral port; JSONL events go to
/// stderr.
pub fn serve_foreground(a: &ServeArgs, should_stop: impl Fn() -> bool) -> Result<(), String> {
    let mut cfg = ServiceConfig::new(&a.spool);
    cfg.workers = a.workers;
    cfg.queue_cap = a.queue_cap;
    cfg.default_checkpoint_every = a.checkpoint_every;
    let listener = TcpListener::bind((a.addr.as_str(), a.port))
        .map_err(|e| format!("binding {}:{}: {e}", a.addr, a.port))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let log = ObsLog::stderr();
    let sched = Scheduler::start_with_log(cfg, log.clone())
        .map_err(|e| format!("starting scheduler: {e}"))?;
    println!("listening on {local}");
    println!(
        "spool {} | {} workers | queue cap {} | checkpoint every {} cycles",
        a.spool,
        a.workers.max(1),
        a.queue_cap,
        a.checkpoint_every
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let outcome = http::serve(listener, sched.clone(), log, should_stop)
        .map_err(|e| format!("accept loop: {e}"));
    eprintln!("shutting down (draining to checkpoints)");
    sched.shutdown();
    outcome
}

/// The libc `signal` symbol every Unix target links anyway — no signal
/// crate needed.
#[cfg(unix)]
#[allow(unsafe_code)]
fn set_disposition(signum: i32, handler: usize) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `signal` only records `handler` for `signum`. The two
    // handlers passed in this module are `SIG_DFL` (0) and `on_signal`,
    // which does nothing but an atomic store — async-signal-safe.
    unsafe {
        signal(signum, handler);
    }
}

static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Catch SIGTERM and SIGINT; the returned closure says whether one has
/// arrived, which is [`serve_foreground`]'s `should_stop`. Elsewhere
/// than Unix nothing is caught and it stays false.
pub fn stop_on_terminate() -> impl Fn() -> bool {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        set_disposition(SIGTERM, on_signal as *const () as usize);
        set_disposition(SIGINT, on_signal as *const () as usize);
    }
    || TERMINATE.load(Ordering::SeqCst)
}

/// Give SIGPIPE back its default disposition, which the Rust runtime
/// replaces by "ignore": a tool whose stdout reader went away (`| head
/// -1`) then ends quietly with status 141 where `println!` would panic
/// on the `EPIPE`. For the tools that print and exit — not for a daemon,
/// whose sockets and log must outlive their readers.
pub fn default_sigpipe() {
    #[cfg(unix)]
    {
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        set_disposition(SIGPIPE, SIG_DFL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_override_the_service_defaults() {
        let d = ServeArgs::parse(&[]).unwrap();
        assert_eq!((d.addr.as_str(), d.port), ("127.0.0.1", 7070));
        assert_eq!((d.workers, d.queue_cap, d.checkpoint_every), (2, 16, 5_000));
        let a = ServeArgs::parse(&args("--port 0 --spool /tmp/s --workers 3")).unwrap();
        assert_eq!(
            a,
            ServeArgs {
                port: 0,
                spool: "/tmp/s".into(),
                workers: 3,
                ..d
            }
        );
        for bad in ["--port http", "--port", "--bogus", "--checkpoint-every 0"] {
            assert!(ServeArgs::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
