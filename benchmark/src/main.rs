use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => noc_ledger::set::run_set(&args[1..]),
        Some("compare") => noc_ledger::compare::compare(&args[1..]),
        _ => noc_ledger::run::parse_args(&args).and_then(|run| noc_ledger::run::run(&run)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
