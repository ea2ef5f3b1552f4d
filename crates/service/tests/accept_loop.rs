//! The accept loop waits for connections, not for a timer: an idle
//! server answers at once, and still notices a stop request promptly.

use noc_service::{client::jobs, http, ObsLog, Scheduler, ServiceConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An idle server on an ephemeral port.
struct IdleServer {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
    sched: Scheduler,
    spool: PathBuf,
}

impl IdleServer {
    fn start(tag: &str) -> IdleServer {
        let spool = std::env::temp_dir().join(format!("noc-accept-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let sched = Scheduler::start(ServiceConfig::new(&spool)).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let sched = sched.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let deadline = Duration::from_secs(10);
                http::serve_with(listener, sched, deadline, ObsLog::disabled(), || {
                    stop.load(Ordering::SeqCst)
                })
                .unwrap()
            })
        };
        IdleServer {
            addr,
            stop,
            thread,
            sched,
            spool,
        }
    }

    /// Ask `serve_with` to stop and return how long it took to.
    fn stop(self) -> Duration {
        let asked = Instant::now();
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().unwrap();
        let took = asked.elapsed();
        self.sched.shutdown();
        let _ = std::fs::remove_dir_all(&self.spool);
        took
    }
}

/// A loop that slept 20 ms between `accept`s made a request wait 10 ms
/// on average and the median of sequential requests 20 ms.
#[test]
fn an_idle_server_answers_within_milliseconds() {
    let server = IdleServer::start("latency");
    let mut round_trips: Vec<Duration> = (0..50)
        .map(|_| {
            let started = Instant::now();
            let resp = jobs::healthz(&server.addr).unwrap();
            assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));
            started.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median /healthz round trip {median:?}: the accept loop is waiting on a timer"
    );
    server.stop();
}

/// With no connection to wake it, the loop still looks at the stop flag
/// every 20 ms.
#[test]
fn an_idle_server_stops_promptly() {
    let server = IdleServer::start("stop");
    // Let the loop reach its wait before asking it to stop.
    std::thread::sleep(Duration::from_millis(50));
    let took = server.stop();
    assert!(
        took < Duration::from_millis(250),
        "serve_with outlived the stop request by {took:?}"
    );
}
