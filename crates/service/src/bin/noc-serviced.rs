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

use noc_service::daemon::{serve_foreground, stop_on_terminate, ServeArgs};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: noc-serviced [--addr A] [--port P] [--spool DIR] \
             [--workers N] [--queue-cap N] [--checkpoint-every N]"
        );
        return ExitCode::SUCCESS;
    }
    match ServeArgs::parse(&args).and_then(|a| serve_foreground(&a, stop_on_terminate())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("noc-serviced: {e}");
            ExitCode::FAILURE
        }
    }
}
