//! Building the programs under test from the checkout the ledger runs in.
//!
//! Everything is built with `cargo build --release` into one target
//! directory: `CARGO_TARGET_DIR` when the caller sets it, otherwise
//! `benchmark/target`, so that a ledger run never touches the
//! repository's own `target/`.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The release binaries the end-to-end run drives.
pub struct Programs {
    pub cli: PathBuf,
    pub serviced: PathBuf,
    /// Seconds `cargo build` took; near zero when nothing changed.
    pub build_s: f64,
}

fn target_dir() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    Ok(match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => cwd.join(dir),
        None => cwd.join("benchmark").join("target"),
    })
}

/// `cargo build --release --offline <args>`; returns the release
/// directory and the seconds taken. Cargo's messages go to standard
/// error: standard output is the ledger's result channel.
fn cargo_build(args: &[&str]) -> Result<(PathBuf, f64), String> {
    let target = target_dir()?;
    let started = Instant::now();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline"])
        .args(args)
        .env("CARGO_TARGET_DIR", &target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build {} failed ({status})", args.join(" ")));
    }
    Ok((target.join("release"), started.elapsed().as_secs_f64()))
}

/// Build `noc-cli` and `noc-serviced` from the repository the current
/// directory is the root of.
pub fn build() -> Result<Programs, String> {
    let (release, build_s) = cargo_build(&[
        "-p",
        "shield-noc",
        "-p",
        "noc-service",
        "--bin",
        "noc-cli",
        "--bin",
        "noc-serviced",
    ])?;
    Ok(Programs {
        cli: release.join("noc-cli"),
        serviced: release.join("noc-serviced"),
        build_s,
    })
}

/// Build `ledger-trace`, the half of the ledger that links the crates.
pub fn build_tracer() -> Result<PathBuf, String> {
    let (release, _) = cargo_build(&["--manifest-path", "benchmark/trace/Cargo.toml"])?;
    Ok(release.join("ledger-trace"))
}
