//! The experiment table and the documents agree, and the analytic rows
//! run end to end through the real binary.

use noc_bench::registry::EXPERIMENTS;
use std::collections::HashSet;
use std::process::Command;

const README: &str = include_str!("../../../README.md");
const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");
const DESIGN: &str = include_str!("../../../DESIGN.md");
const ARCHITECTURE: &str = include_str!("../../../ARCHITECTURE.md");

/// Every `<name>` of a `noc-bench -- <name>` command in `text`.
fn commands(text: &str) -> Vec<&str> {
    text.split("noc-bench --")
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

#[test]
fn names_are_unique() {
    let names: HashSet<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len());
    assert!(!names.contains("all") && !names.contains("list"));
}

#[test]
fn every_documented_command_resolves_to_a_row() {
    let mut seen = 0;
    for doc in [README, EXPERIMENTS_MD, DESIGN, ARCHITECTURE] {
        for name in commands(doc) {
            seen += 1;
            assert!(
                ["all", "list"].contains(&name) || EXPERIMENTS.iter().any(|e| e.name == name),
                "the documents run `noc-bench -- {name}`, which is not an experiment"
            );
        }
    }
    assert!(
        seen >= EXPERIMENTS.len(),
        "the scan found only {seen} commands"
    );
}

#[test]
fn every_row_is_documented() {
    let commands: HashSet<_> = commands(README)
        .into_iter()
        .chain(commands(EXPERIMENTS_MD))
        .collect();
    for e in EXPERIMENTS {
        let quoted = format!("`{}`", e.name);
        assert!(
            commands.contains(e.name)
                || README.contains(&quoted)
                || EXPERIMENTS_MD.contains(&quoted),
            "{} is in neither README.md nor EXPERIMENTS.md",
            e.name
        );
    }
}

#[test]
fn all_is_the_papers_evaluation() {
    // Tables I–III, Eqs. 4–7, §VI-A/B, Figs. 7–8, and the E9 / radix
    // sweeps the one-shot run has always printed.
    let paper = [
        "table1",
        "table2",
        "mttf",
        "table3_spf",
        "area_power",
        "critical_path",
        "fig7_splash2",
        "fig8_parsec",
        "spf_vc_sweep",
        "radix_sweep",
    ];
    for e in EXPERIMENTS.iter().filter(|e| e.in_all) {
        assert!(
            paper.contains(&e.name),
            "{} is not a paper artefact",
            e.name
        );
    }
}

fn noc_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_noc-bench"))
        .args(args)
        .output()
        .expect("noc-bench runs")
}

#[test]
fn the_analytic_experiments_print_their_tables() {
    for name in [
        "table1",
        "table2",
        "mttf",
        "table3_spf",
        "area_power",
        "critical_path",
        "spf_vc_sweep",
        "radix_sweep",
        "mttf_conditions",
    ] {
        let out = noc_bench(&[name, "--quick"]);
        assert!(out.status.success(), "{name}: {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let header = stdout.find("\n---").expect("a table rule");
        assert!(stdout[..header].contains("== "), "{name}: no table title");
        assert!(
            stdout[header..].lines().filter(|l| !l.is_empty()).count() > 2,
            "{name}: empty table"
        );
    }
}

#[test]
fn a_flag_nobody_understood_is_exit_status_2() {
    let out = noc_bench(&["fig7_splash2", "--quik"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("--quik") && stderr.contains("usage: noc-bench"));
    assert!(
        stderr.contains("checkpoint-gate"),
        "usage carries the table"
    );
}

/// `noc-bench table1 | head -1`: the reader is gone before the first
/// table prints, and the experiment ends quietly — killed by SIGPIPE,
/// not by a `println!` panic.
#[cfg(unix)]
#[test]
fn a_closed_stdout_is_a_quiet_exit() {
    use std::os::unix::process::ExitStatusExt;
    let (stdout, reader) = std::os::unix::net::UnixStream::pair().expect("socket pair");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_noc-bench"))
        .arg("table1")
        .stdout(std::os::fd::OwnedFd::from(stdout))
        .output()
        .expect("noc-bench runs");
    const SIGPIPE: i32 = 13;
    assert_eq!(out.status.signal(), Some(SIGPIPE), "{:?}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}
