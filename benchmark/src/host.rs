//! Facts about the machine and the commit, written into every result
//! file so that two files can be told apart before they are compared.

use crate::json::Json;
use std::process::Command;

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `available_parallelism`, CPU model, rustc version and git commit.
/// The commit is `unknown` where the checkout is not a git repository.
pub fn facts() -> Json {
    let unknown = || "unknown".to_string();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("available_parallelism", Json::from(threads as u64)),
        ("cpu_model", cpu_model().unwrap_or_else(unknown).into()),
        (
            "rustc",
            first_line_of("rustc", &["--version"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "git_commit",
            first_line_of("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .into(),
        ),
    ])
}
