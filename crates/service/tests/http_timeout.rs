//! The HTTP daemon must not let a stalled client wedge a handler: a
//! connection that stops sending mid-request is dropped once the
//! per-connection read deadline expires, while concurrent well-formed
//! requests keep being served.

use noc_service::{http, ObsLog, Scheduler, ServiceConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn stalled_connection_is_dropped_while_live_requests_succeed() {
    let spool = std::env::temp_dir().join(format!("noc-http-timeout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let sched = Scheduler::start(ServiceConfig::new(&spool)).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let sched = sched.clone();
        let stop = Arc::clone(&stop);
        let deadline = Duration::from_millis(400);
        std::thread::spawn(move || {
            http::serve_with(listener, sched, deadline, ObsLog::disabled(), || {
                stop.load(Ordering::SeqCst)
            })
            .unwrap()
        })
    };

    // A client that opens a request and then goes silent forever —
    // and one that keeps trickling bytes so a per-read timeout alone
    // would never fire. Both must be cut off at the deadline.
    let mut silent = TcpStream::connect(&addr).unwrap();
    silent
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x")
        .unwrap();
    let mut dripper = TcpStream::connect(&addr).unwrap();
    dripper.write_all(b"GET /hea").unwrap();
    let drip = {
        let mut s = dripper.try_clone().unwrap();
        std::thread::spawn(move || {
            // One byte every 100 ms outlives any single 400 ms read but
            // must not extend the connection's total budget.
            for _ in 0..30 {
                if s.write_all(b"l").is_err() {
                    return; // server hung up: exactly what we want
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };

    // While both stalled connections are pending, a live request must
    // still be answered.
    let resp = noc_service::client::jobs::healthz(&addr).unwrap();
    assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));

    // The stalled connections are dropped (EOF on read) within the
    // deadline plus scheduling slack — not held open indefinitely.
    for (name, conn) in [("silent", &mut silent), ("dripper", &mut dripper)] {
        let started = Instant::now();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 64];
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "{name}: server must close without responding");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{name}: connection outlived the read deadline"
        );
    }

    drip.join().unwrap();
    stop.store(true, Ordering::SeqCst);
    server.join().unwrap();
    sched.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A client that asks for a response and never reads it holds its
/// handler only until the write deadline runs out: the body is larger
/// than the loopback socket buffers can take, so the handler blocks in
/// its write, and `serve_with` still returns promptly once stopped.
#[test]
fn a_client_that_never_reads_is_dropped_at_the_write_deadline() {
    let spool = std::env::temp_dir().join(format!("noc-http-write-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    // A finished job whose result is far larger than the socket buffers.
    let dir = spool.join("job-000001");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = noc_service::CampaignSpec::default().to_json().render();
    std::fs::write(dir.join("spec.json"), spec).unwrap();
    let body_len = 16 << 20;
    let result = format!("{{\"pad\":\"{}\"}}", "x".repeat(body_len));
    std::fs::write(dir.join("result.json"), &result).unwrap();
    drop(result);
    let sched = Scheduler::start(ServiceConfig::new(&spool)).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Duration::from_millis(500);
    let (returned, served) = std::sync::mpsc::channel();
    {
        let sched = sched.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            http::serve_with(listener, sched, deadline, ObsLog::disabled(), || {
                stop.load(Ordering::SeqCst)
            })
            .unwrap();
            returned.send(()).unwrap();
        });
    }

    let mut client = TcpStream::connect(&addr).unwrap();
    client
        .write_all(b"GET /jobs/job-000001/result HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    // The handler is in its write, blocked on the full socket buffers.
    std::thread::sleep(Duration::from_millis(200));
    let asked = Instant::now();
    stop.store(true, Ordering::SeqCst);
    served
        .recv_timeout(Duration::from_secs(10))
        .expect("serve_with must return once the write deadline drops the stalled client");
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(3), "serve_with took {took:?}");

    // The connection was cut short of the body, so the client really
    // had stalled the write.
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut received = 0;
    let mut buf = vec![0u8; 1 << 16];
    while let Ok(n @ 1..) = client.read(&mut buf) {
        received += n;
    }
    assert!(
        received < body_len,
        "the client received the whole {received}-byte response"
    );
    sched.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}
