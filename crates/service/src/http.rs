//! A deliberately small HTTP/1.1 server over `std::net` — no external
//! dependencies, one short-lived thread per connection, `Connection:
//! close` semantics. The accept loop sleeps in `poll(2)` until a
//! connection is pending (waking every 20 ms only to look at the stop
//! flag), so an idle round trip costs microseconds, not a timer tick.
//! Exactly what the five-route job API needs and nothing more.
//!
//! | Method | Path                 | Purpose                                   |
//! |--------|----------------------|-------------------------------------------|
//! | POST   | `/jobs`              | submit a campaign spec (JSON body)        |
//! | GET    | `/jobs/:id`          | job status + progress fraction            |
//! | GET    | `/jobs/:id/result`   | final report (202 while still running)    |
//! | GET    | `/jobs/:id/progress` | live heatmap + imbalance series from the  |
//! |        |                      | last durable checkpoint                   |
//! | GET    | `/healthz`           | liveness probe                            |
//! | GET    | `/metrics`           | Prometheus text metrics                   |
//!
//! Every response carries an `X-Request-Id` correlation header; when
//! the server was given an [`ObsLog`], each request is also logged as
//! one JSONL `http_request` event (id, method, path, status,
//! duration), and `/metrics` includes the per-endpoint
//! request/latency counters from [`HttpMetrics`].

use crate::obs::{HttpMetrics, ObsLog};
use crate::scheduler::{Scheduler, SubmitError};
use crate::spec::CampaignSpec;
use noc_telemetry::json::{obj, JsonValue};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest request body we accept (a campaign spec is < 1 KiB).
const MAX_BODY: usize = 1 << 20;

/// Total time a connection gets to deliver its complete request.
/// A per-read timeout alone is not enough: a client trickling one
/// byte per few seconds (deliberately or not) would reset it forever
/// and wedge a handler thread. The deadline bounds the whole read.
const READ_DEADLINE: Duration = Duration::from_secs(10);

/// A parsed request: method, path, body.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// A [`Read`] adapter that re-arms the socket read timeout with the
/// remaining deadline budget before *every* underlying read, and fails
/// once the budget is spent. Re-arming per read (not per request line)
/// matters: a client dripping one byte at a time completes each
/// `recv` within its timeout, so only a shrinking per-read budget
/// actually bounds the connection's total lifetime.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    start: Instant,
    deadline: Duration,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self
            .deadline
            .checked_sub(self.start.elapsed())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "request read deadline exceeded",
                )
            })?;
        self.stream.set_read_timeout(Some(remaining))?;
        (&mut &*self.stream).read(buf)
    }
}

/// Read one request off the stream, giving the client `deadline` of
/// wall-clock time for the *entire* request. Returns `None` on
/// malformed input or deadline expiry (the connection is just dropped —
/// curl and our client both retry nothing on a request they never
/// finished sending).
fn read_request(stream: &mut TcpStream, deadline: Duration) -> Option<Request> {
    let mut reader = BufReader::new(DeadlineStream {
        stream,
        start: Instant::now(),
        deadline,
    });
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).ok()?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    if content_length > MAX_BODY {
        return None;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some(Request {
        method,
        path,
        body: String::from_utf8(body).ok()?,
    })
}

/// A response waiting to be written: keeping it as data (instead of
/// writing inline from every dispatch arm) lets one wrapper stamp the
/// `X-Request-Id` header, record per-endpoint metrics and emit the
/// request log line for every route uniformly.
struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    extra_headers: Vec<(&'static str, String)>,
    body: String,
}

impl Response {
    fn json(status: u16, reason: &'static str, body: String) -> Response {
        Response {
            status,
            reason,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Response {
        Response::json(status, reason, obj([("error", message.into())]).render())
    }

    fn write(&self, stream: &mut TcpStream, request_id: &str) {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n\
             Content-Length: {}\r\nConnection: close\r\nX-Request-Id: {request_id}\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(self.body.as_bytes());
        let _ = stream.flush();
    }
}

/// Route a parsed request. Returns the endpoint label the metrics
/// bucket requests under (one of [`crate::obs::HTTP_ENDPOINTS`]) and
/// the response to send.
fn dispatch(req: &Request, sched: &Scheduler, metrics: &HttpMetrics) -> (&'static str, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (
            "healthz",
            Response {
                status: 200,
                reason: "OK",
                content_type: "text/plain",
                extra_headers: Vec::new(),
                body: "ok\n".into(),
            },
        ),
        ("GET", "/metrics") => (
            "metrics",
            Response {
                status: 200,
                reason: "OK",
                content_type: "text/plain; version=0.0.4",
                extra_headers: Vec::new(),
                body: sched.metrics_text() + &metrics.render(),
            },
        ),
        ("POST", "/jobs") => (
            "submit",
            match CampaignSpec::from_text(&req.body) {
                Err(e) => Response::error(400, "Bad Request", &e),
                Ok(spec) => match sched.submit(spec) {
                    Ok(id) => Response::json(201, "Created", obj([("id", id.into())]).render()),
                    Err(SubmitError::QueueFull { retry_after_secs }) => {
                        let mut resp = Response::error(429, "Too Many Requests", "queue full");
                        resp.extra_headers
                            .push(("Retry-After", retry_after_secs.to_string()));
                        resp
                    }
                    Err(SubmitError::Invalid(e)) => Response::error(400, "Bad Request", &e),
                    Err(SubmitError::Io(e)) => {
                        Response::error(500, "Internal Server Error", &e.to_string())
                    }
                },
            },
        ),
        ("GET", path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            if let Some(id) = rest.strip_suffix("/result") {
                let resp = match sched.result_text(id) {
                    Some(text) => Response::json(200, "OK", text),
                    // Known but unfinished: stream what exists so
                    // far — the status doc plus a `partial` object
                    // (cycle, epoch series, deliveries) as of the
                    // job's last durable checkpoint.
                    None => match sched.partial_text(id) {
                        Some(partial) => Response::json(202, "Accepted", partial),
                        None => Response::error(404, "Not Found", "unknown job"),
                    },
                };
                ("result", resp)
            } else if let Some(id) = rest.strip_suffix("/progress") {
                let resp = match sched.progress_json(id) {
                    Some(doc) => Response::json(200, "OK", doc.render()),
                    None => Response::error(404, "Not Found", "unknown job"),
                };
                ("progress", resp)
            } else {
                let resp = match sched.status_json(rest) {
                    Some(doc) => Response::json(200, "OK", doc.render()),
                    None => Response::error(404, "Not Found", "unknown job"),
                };
                ("status", resp)
            }
        }
        ("POST" | "GET", _) => ("other", Response::error(404, "Not Found", "no such route")),
        _ => (
            "other",
            Response::error(405, "Method Not Allowed", "method not allowed"),
        ),
    }
}

fn handle(
    stream: &mut TcpStream,
    sched: &Scheduler,
    metrics: &HttpMetrics,
    log: &ObsLog,
    read_deadline: Duration,
) {
    let Some(req) = read_request(stream, read_deadline) else {
        return;
    };
    let request_id = log.next_request_id();
    let started = Instant::now();
    let (endpoint, resp) = dispatch(&req, sched, metrics);
    resp.write(stream, &request_id);
    let elapsed = started.elapsed();
    metrics.observe(endpoint, elapsed);
    // Correlate submissions with the job they created: the 201 body is
    // `{"id": "job-NNNNNN"}`.
    let job = (endpoint == "submit" && resp.status == 201)
        .then(|| JsonValue::parse(&resp.body).ok())
        .flatten()
        .and_then(|doc| doc.get("id").and_then(JsonValue::as_str).map(String::from));
    log.event(
        "http_request",
        &[
            ("request_id", request_id.as_str().into()),
            ("method", req.method.as_str().into()),
            ("path", req.path.as_str().into()),
            ("endpoint", endpoint.into()),
            ("status", u64::from(resp.status).into()),
            ("duration_ms", (elapsed.as_secs_f64() * 1e3).into()),
            (
                "job",
                match &job {
                    Some(id) => id.as_str().into(),
                    None => JsonValue::Null,
                },
            ),
        ],
    );
}

/// Accept connections until `should_stop` turns true. The loop sleeps
/// in the kernel until a connection is pending, so a request is picked
/// up within microseconds; `should_stop` is re-checked after every
/// accept and at least every `STOP_CHECK`, which bounds shutdown
/// latency to tens of milliseconds. Connections get the default
/// 10-second request read deadline; request events go to `log` (pass
/// [`ObsLog::disabled`] for silence).
pub fn serve(
    listener: TcpListener,
    sched: Scheduler,
    log: ObsLog,
    should_stop: impl Fn() -> bool,
) -> std::io::Result<()> {
    serve_with(listener, sched, READ_DEADLINE, log, should_stop)
}

/// Longest the accept loop waits for a connection before it looks at
/// `should_stop` again. It bounds shutdown latency only: a pending
/// connection ends the wait at once.
const STOP_CHECK: Duration = Duration::from_millis(20);

/// Block until `listener` has a connection to accept or `timeout` has
/// passed, whichever is first. Returning early (a signal interrupted
/// the wait, the connection was reset before the accept) is harmless:
/// the listener is non-blocking and the caller loops.
#[cfg(unix)]
#[allow(unsafe_code)]
fn wait_acceptable(listener: &TcpListener, timeout: Duration) {
    use std::os::fd::AsRawFd;
    /// `struct pollfd` of `poll(2)`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x001;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fd` is one valid, initialised `pollfd` that outlives the
    // call and `nfds` is 1, so `poll` reads and writes only that
    // struct; the descriptor is open because `listener` is borrowed.
    // The result is ignored on purpose: ready, timed out and EINTR all
    // lead back to the non-blocking `accept`.
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

/// Without `poll(2)` the wait is a plain sleep: correct, but a
/// connection then waits for the timer.
#[cfg(not(unix))]
fn wait_acceptable(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

/// [`serve`] with an explicit per-connection request read deadline
/// (tests shrink it to drop stalled clients quickly). The deadline also
/// bounds how long shutdown waits joining handler threads.
pub fn serve_with(
    listener: TcpListener,
    sched: Scheduler,
    read_deadline: Duration,
    log: ObsLog,
    should_stop: impl Fn() -> bool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let metrics = Arc::new(HttpMetrics::new());
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if should_stop() {
            break;
        }
        match listener.accept() {
            Ok((mut stream, _addr)) => {
                let sched = sched.clone();
                let metrics = Arc::clone(&metrics);
                let log = log.clone();
                handlers.push(std::thread::spawn(move || {
                    let _ = stream.set_nonblocking(false);
                    handle(&mut stream, &sched, &metrics, &log, read_deadline);
                }));
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_acceptable(&listener, STOP_CHECK);
            }
            Err(e) => return Err(e),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    Ok(())
}
