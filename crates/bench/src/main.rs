//! `noc-bench <experiment|all|list> [flags]` — see [`noc_bench::registry`].

use noc_bench::registry::{parse, usage};

fn main() {
    // Experiments print as they go; `| head` must end them quietly.
    noc_service::daemon::default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((command, opts)) => command.run(&opts),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    }
}
