//! Service observability: structured JSONL logs with request/job
//! correlation ids, per-endpoint HTTP metrics, and a Prometheus
//! text-format validator (ARCHITECTURE.md §3).
//!
//! Everything here is std-only and deliberately boring:
//!
//! * [`ObsLog`] — one JSON object per line to a shared sink. Every
//!   HTTP request gets a `req-NNNNNN` correlation id (echoed in the
//!   `X-Request-Id` response header); job lifecycle events carry the
//!   `job-NNNNNN` id, so `grep job-000003` reconstructs a job's whole
//!   history across submit, checkpoints and completion.
//! * [`HttpMetrics`] — per-endpoint request and latency counters with
//!   a fixed label set, rendered in Prometheus text format and served
//!   alongside the scheduler's own metrics on `GET /metrics`.
//! * [`validate_prometheus_text`] — a strict checker for the
//!   exposition format (snake_case names, `# HELP` before `# TYPE`,
//!   counters ending in `_total`), pinned by tests so `/metrics`
//!   can never drift from the conventions.

use noc_telemetry::json::{JsonValue, JsonWriter};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// A JSONL event logger shared by the HTTP server and the scheduler.
///
/// Cheap to clone (both handles write to the same sink) and safe to
/// call from any thread. A disabled logger ([`ObsLog::disabled`])
/// swallows events but still hands out unique request ids, so code
/// paths never need to branch on whether logging is on.
#[derive(Clone)]
pub struct ObsLog {
    sink: Option<Arc<Mutex<Box<dyn Write + Send>>>>,
    next_request: Arc<AtomicU64>,
}

impl ObsLog {
    /// Log JSONL events to stderr (the daemon default — stdout is
    /// reserved for the `listening on` banner scripts parse).
    pub fn stderr() -> ObsLog {
        ObsLog::to_writer(std::io::stderr())
    }

    /// Log nothing. Request ids are still issued.
    pub fn disabled() -> ObsLog {
        ObsLog {
            sink: None,
            next_request: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Log JSONL events to an arbitrary writer (tests pass a
    /// [`SharedBuf`]; production passes stderr or a file).
    pub fn to_writer(w: impl Write + Send + 'static) -> ObsLog {
        ObsLog {
            sink: Some(Arc::new(Mutex::new(Box::new(w)))),
            next_request: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Issue the next request correlation id (`req-000001`, ...).
    pub fn next_request_id(&self) -> String {
        format!(
            "req-{:06}",
            self.next_request.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Emit one event as a single JSON line: `ts_ms` (unix epoch
    /// milliseconds) and `event` first, then the caller's fields in
    /// order. Write errors are swallowed — observability must never
    /// take the service down.
    pub fn event(&self, event: &str, fields: &[(&str, JsonValue)]) {
        let Some(sink) = &self.sink else {
            return;
        };
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_millis() as u64;
        let mut line = String::new();
        JsonWriter::new(&mut line).obj(|w| {
            w.field("ts_ms").u64(ts_ms);
            w.field("event").str(event);
            for (name, value) in fields {
                value.encode(w.field(name));
            }
        });
        if let Ok(mut w) = sink.lock() {
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }
}

/// An in-memory `Write` sink tests hand to [`ObsLog::to_writer`] and
/// read back with [`SharedBuf::contents`].
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Everything written so far, as UTF-8 text.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The fixed endpoint label set for [`HttpMetrics`]. Unknown paths
/// fold into `other` so the label cardinality is bounded no matter
/// what clients probe.
pub const HTTP_ENDPOINTS: [&str; 7] = [
    "healthz", "metrics", "submit", "status", "result", "progress", "other",
];

#[derive(Default)]
struct EndpointStat {
    requests: AtomicU64,
    latency_nanos: AtomicU64,
}

/// Per-endpoint HTTP request/latency counters, Prometheus-rendered.
///
/// Latency is accumulated as a counter of total seconds spent (the
/// Prometheus idiom: `rate(seconds_total) / rate(requests_total)` is
/// the mean latency over any window) rather than a last-value gauge.
#[derive(Default)]
pub struct HttpMetrics {
    stats: [EndpointStat; HTTP_ENDPOINTS.len()],
}

impl HttpMetrics {
    /// A zeroed metric set.
    pub fn new() -> HttpMetrics {
        HttpMetrics::default()
    }

    /// Record one handled request. Unknown endpoint labels count
    /// under `other`.
    pub fn observe(&self, endpoint: &str, elapsed: Duration) {
        let idx = HTTP_ENDPOINTS
            .iter()
            .position(|e| *e == endpoint)
            .unwrap_or(HTTP_ENDPOINTS.len() - 1);
        self.stats[idx].requests.fetch_add(1, Ordering::Relaxed);
        self.stats[idx]
            .latency_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Requests observed for one endpoint label (test hook).
    pub fn requests(&self, endpoint: &str) -> u64 {
        HTTP_ENDPOINTS
            .iter()
            .position(|e| *e == endpoint)
            .map(|i| self.stats[i].requests.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Render in Prometheus text format. Every endpoint label is
    /// always present (zeros included) so scrapers see stable series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# HELP noc_service_http_requests_total Requests handled, by endpoint.\n\
             # TYPE noc_service_http_requests_total counter\n",
        );
        for (endpoint, stat) in HTTP_ENDPOINTS.iter().zip(&self.stats) {
            out.push_str(&format!(
                "noc_service_http_requests_total{{endpoint=\"{endpoint}\"}} {}\n",
                stat.requests.load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP noc_service_http_request_seconds_total Total time spent handling \
             requests, by endpoint.\n\
             # TYPE noc_service_http_request_seconds_total counter\n",
        );
        for (endpoint, stat) in HTTP_ENDPOINTS.iter().zip(&self.stats) {
            out.push_str(&format!(
                "noc_service_http_request_seconds_total{{endpoint=\"{endpoint}\"}} {:.6}\n",
                stat.latency_nanos.load(Ordering::Relaxed) as f64 / 1e9
            ));
        }
        out
    }
}

/// Whether `name` is a legal, convention-following metric or label
/// name: `[a-z_][a-z0-9_]*` (snake_case — stricter than the format
/// grammar, which is the point).
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The base metric name of a sample line (everything before `{` or
/// the first space).
fn base_name(series: &str) -> &str {
    match series.find('{') {
        Some(brace) => &series[..brace],
        None => series,
    }
}

/// Validate Prometheus text exposition format plus this project's
/// conventions. Checks, per line:
///
/// * `# HELP <name> <text>` / `# TYPE <name> <kind>` shape, with the
///   `HELP` preceding the `TYPE` and at most one `TYPE` per metric;
/// * `<kind>` is one of `counter`, `gauge`, `histogram`, `summary`,
///   `untyped`; `counter` metrics must be named `*_total`;
/// * metric and label names are snake_case (`[a-z_][a-z0-9_]*`);
/// * every sample's metric carries a prior `# TYPE`;
/// * label blocks are balanced `{name="value",...}` (values must not
///   embed quotes — none of ours do) and sample values parse as f64.
///
/// Returns the first violation as `Err("line N: ...")`.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<(String, String)> = Vec::new();
    let fail = |lineno: usize, msg: String| Err(format!("line {}: {msg}", lineno + 1));
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let Some((name, help)) = rest.split_once(' ') else {
                    return fail(lineno, format!("HELP without text: {line:?}"));
                };
                if !valid_name(name) {
                    return fail(lineno, format!("HELP for non-snake_case name {name:?}"));
                }
                if help.trim().is_empty() {
                    return fail(lineno, format!("empty HELP text for {name}"));
                }
                helped.push(name.to_string());
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let Some((name, kind)) = rest.split_once(' ') else {
                    return fail(lineno, format!("TYPE without a kind: {line:?}"));
                };
                let kind = kind.trim();
                if !valid_name(name) {
                    return fail(lineno, format!("TYPE for non-snake_case name {name:?}"));
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return fail(lineno, format!("unknown metric type {kind:?} for {name}"));
                }
                if !helped.iter().any(|h| h == name) {
                    return fail(lineno, format!("# TYPE {name} without a preceding # HELP"));
                }
                if typed.iter().any(|(n, _)| n == name) {
                    return fail(lineno, format!("duplicate # TYPE for {name}"));
                }
                if kind == "counter" && !name.ends_with("_total") {
                    return fail(lineno, format!("counter {name} must end in `_total`"));
                }
                typed.push((name.to_string(), kind.to_string()));
            }
            // Any other `#` line is a plain comment: legal, unchecked.
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return fail(lineno, format!("sample without a value: {line:?}"));
        };
        if value.parse::<f64>().is_err() {
            return fail(lineno, format!("non-numeric sample value {value:?}"));
        }
        let name = base_name(series);
        if !valid_name(name) {
            return fail(lineno, format!("non-snake_case metric name {name:?}"));
        }
        if !typed.iter().any(|(n, _)| n == name) {
            return fail(lineno, format!("sample for {name} without a # TYPE"));
        }
        if let Some(labels) = series.get(name.len()..).filter(|rest| !rest.is_empty()) {
            let Some(inner) = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}')) else {
                return fail(lineno, format!("unbalanced label block in {series:?}"));
            };
            for pair in inner.split(',') {
                let Some((label, quoted)) = pair.split_once('=') else {
                    return fail(lineno, format!("label without `=` in {series:?}"));
                };
                if !valid_name(label) {
                    return fail(lineno, format!("non-snake_case label name {label:?}"));
                }
                let ok = quoted.len() >= 2
                    && quoted.starts_with('"')
                    && quoted.ends_with('"')
                    && !quoted[1..quoted.len() - 1].contains('"');
                if !ok {
                    return fail(lineno, format!("label value not plainly quoted: {pair:?}"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obslog_writes_one_json_object_per_line_with_fresh_request_ids() {
        let buf = SharedBuf::default();
        let log = ObsLog::to_writer(buf.clone());
        assert_eq!(log.next_request_id(), "req-000001");
        assert_eq!(log.next_request_id(), "req-000002");
        log.event("http_request", &[("request_id", "req-000002".into())]);
        log.event("job_started", &[("job", "job-000001".into())]);
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let doc = JsonValue::parse(line).expect("each log line is JSON");
            assert!(doc.get("ts_ms").and_then(JsonValue::as_u64).is_some());
            assert!(doc.get("event").and_then(JsonValue::as_str).is_some());
        }
        assert_eq!(
            JsonValue::parse(lines[1])
                .unwrap()
                .get("job")
                .unwrap()
                .as_str(),
            Some("job-000001")
        );
    }

    #[test]
    fn disabled_log_swallows_events_but_still_issues_ids() {
        let log = ObsLog::disabled();
        log.event("anything", &[]);
        assert_eq!(log.next_request_id(), "req-000001");
    }

    #[test]
    fn http_metrics_render_validates_and_counts_by_endpoint() {
        let m = HttpMetrics::new();
        m.observe("status", Duration::from_millis(3));
        m.observe("status", Duration::from_millis(1));
        m.observe("submit", Duration::from_micros(250));
        m.observe("no-such-endpoint", Duration::ZERO);
        assert_eq!(m.requests("status"), 2);
        assert_eq!(m.requests("submit"), 1);
        assert_eq!(m.requests("other"), 1);
        let text = m.render();
        validate_prometheus_text(&text).expect("rendered metrics must validate");
        assert!(text.contains("noc_service_http_requests_total{endpoint=\"status\"} 2"));
        assert!(text.contains("noc_service_http_requests_total{endpoint=\"healthz\"} 0"));
        assert!(text.contains("noc_service_http_request_seconds_total{endpoint=\"status\"} 0.004"));
    }

    #[test]
    fn validator_accepts_the_format_we_emit() {
        let ok = "# HELP noc_x_total Things counted.\n\
                  # TYPE noc_x_total counter\n\
                  noc_x_total 3\n\
                  # HELP noc_gauge A gauge.\n\
                  # TYPE noc_gauge gauge\n\
                  noc_gauge{job=\"job-000001\"} 1.25\n\
                  noc_gauge{job=\"job-000002\"} 0.5\n";
        validate_prometheus_text(ok).unwrap();
        // NaN is a legal sample value in the text format.
        validate_prometheus_text("# HELP noc_g A gauge.\n# TYPE noc_g gauge\nnoc_g NaN\n").unwrap();
    }

    #[test]
    fn validator_rejects_convention_violations() {
        let cases: [(&str, &str); 7] = [
            (
                "# HELP noc_x_total t\n# TYPE noc_x_total counter\nnoc_x_total abc\n",
                "non-numeric",
            ),
            ("noc_orphan 1\n", "without a # TYPE"),
            (
                "# HELP noc_bad t\n# TYPE noc_bad counter\nnoc_bad 1\n",
                "must end in `_total`",
            ),
            (
                "# TYPE noc_x_total counter\nnoc_x_total 1\n",
                "without a preceding # HELP",
            ),
            (
                "# HELP camelCase t\n# TYPE camelCase gauge\ncamelCase 1\n",
                "non-snake_case",
            ),
            (
                "# HELP noc_g t\n# TYPE noc_g thermometer\nnoc_g 1\n",
                "unknown metric type",
            ),
            (
                "# HELP noc_g t\n# TYPE noc_g gauge\nnoc_g{job=unquoted} 1\n",
                "not plainly quoted",
            ),
        ];
        for (text, needle) in cases {
            let err = validate_prometheus_text(text).expect_err(text);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }
}
