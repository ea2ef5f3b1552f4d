//! Running the programs under test: a clean environment, the wall clock
//! from spawn to exit, and the peak memory the kernel accounted to the
//! child.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ledger reads child memory through wait4 with the 64-bit Linux rusage layout");

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// What is known about a child once it has ended.
#[derive(Debug, Clone, Default)]
pub struct Ended {
    /// Exit code; `None` when a signal ended the child.
    pub code: Option<i32>,
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    pub stdout: String,
    pub stderr: String,
    /// Peak resident set size, KiB.
    pub peak_rss_kb: u64,
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
}

impl Ended {
    pub fn succeeded(&self) -> bool {
        self.code == Some(0)
    }
}

/// Remove every `NOC_*` variable the ledger itself inherited and set
/// only those in `keep`, so that a CI matrix leg or a developer's shell
/// cannot change what is measured.
pub fn clean_env(cmd: &mut Command, keep: &[(&str, &str)]) {
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("NOC_") {
            cmd.env_remove(name);
        }
    }
    for (name, value) in keep {
        cmd.env(name, value);
    }
}

/// Reap `child` and read its resource usage. The child is reaped here,
/// not through `Child::wait`, because only `wait4` returns the usage of
/// exactly this child.
fn reap(child: &Child) -> std::io::Result<(Option<i32>, u64, f64)> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid for writes for the whole
        // call, `Rusage` has the layout the kernel writes on this target
        // (checked by the `compile_error!` above), and the pid is a child
        // of this process that nothing else waits for.
        let got = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if got >= 0 {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let cpu_s =
        (usage.utime[0] + usage.stime[0]) as f64 + (usage.utime[1] + usage.stime[1]) as f64 / 1e6;
    Ok((code, usage.maxrss.max(0) as u64, cpu_s))
}

fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        text
    })
}

/// Run `cmd` to its end with both output streams captured.
pub fn run(mut cmd: Command) -> std::io::Result<Ended> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let started = Instant::now();
    let mut child = cmd.spawn()?;
    let stderr = drain(child.stderr.take().expect("stderr is piped"));
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)?;
    let (code, peak_rss_kb, cpu_s) = reap(&child)?;
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Ended {
        code,
        wall_s,
        stdout,
        stderr: stderr.join().unwrap_or_default(),
        peak_rss_kb,
        cpu_s,
    })
}

/// A server that runs until it is told to stop.
pub struct Server {
    child: Child,
    started: Instant,
    stdout: BufReader<std::process::ChildStdout>,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    pub fn spawn(mut cmd: Command) -> std::io::Result<Server> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let started = Instant::now();
        let mut child = cmd.spawn()?;
        let stderr = Some(drain(child.stderr.take().expect("stderr is piped")));
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server {
            child,
            started,
            stdout,
            stderr,
        })
    }

    /// When the server was spawned.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// The next line the server prints on its standard output; empty at
    /// end of file.
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        Ok(line)
    }

    /// Ask the server to stop (SIGTERM), wait until it has, and return
    /// what it wrote and used. `stdout` holds what was not read by
    /// [`Server::read_line`].
    pub fn stop(mut self) -> std::io::Result<Ended> {
        // SAFETY: `kill` takes no pointers; the pid is this process's own
        // child, not yet reaped, so it cannot name another process.
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let mut stdout = String::new();
        self.stdout.read_to_string(&mut stdout)?;
        let (code, peak_rss_kb, cpu_s) = reap(&self.child)?;
        let stderr = self.stderr.take().map(|h| h.join().unwrap_or_default());
        Ok(Ended {
            code,
            wall_s: self.started.elapsed().as_secs_f64(),
            stdout,
            stderr: stderr.unwrap_or_default(),
            peak_rss_kb,
            cpu_s,
        })
    }
}

impl Drop for Server {
    /// A server abandoned on an error path must not outlive the ledger.
    /// After [`Server::stop`] the child is already reaped and this finds
    /// nothing to do.
    fn drop(&mut self) {
        if self.stderr.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_reports_exit_code_output_and_memory() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo out; echo err >&2; exit 3"]);
        let ended = run(cmd).unwrap();
        assert_eq!(ended.code, Some(3));
        assert!(!ended.succeeded());
        assert_eq!(ended.stdout, "out\n");
        assert_eq!(ended.stderr, "err\n");
        assert!(ended.peak_rss_kb > 0);
        assert!(ended.wall_s > 0.0);
    }

    #[test]
    fn children_see_no_noc_variables_but_the_listed_ones() {
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "echo ${NOC_SIM_THREADS:-unset} ${NOC_LEDGER_TEST:-unset}",
        ]);
        // A name no program reads, so the other tests of this process
        // are not disturbed by it.
        std::env::set_var("NOC_LEDGER_TEST", "torus");
        clean_env(&mut cmd, &[("NOC_SIM_THREADS", "2")]);
        assert_eq!(run(cmd).unwrap().stdout, "2 unset\n");
    }

    #[test]
    fn server_is_stopped_by_sigterm() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo ready; exec sleep 30"]);
        let mut server = Server::spawn(cmd).unwrap();
        assert_eq!(server.read_line().unwrap(), "ready\n");
        let ended = server.stop().unwrap();
        assert_eq!(ended.code, None, "ended by the signal");
        assert!(ended.wall_s < 10.0);
    }
}
