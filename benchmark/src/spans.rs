//! Spans of a traced run: kept in memory while the run lasts, written
//! out in Chrome-trace format when it ends.
//!
//! A span is opened around one call into a layer's public function. A
//! call made once per simulated cycle gets no span of its own: its time
//! is summed in a local of the loop (two clock reads a call, no
//! allocation) and handed to [`Recorder::count`] once, as a `(sum, calls)`
//! counter on the span around the loop.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The outermost ancestor: one per repetition, scenario or job.
    pub root: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Per-cycle calls accumulated on this span: name → (ns, calls).
    pub counters: BTreeMap<String, (u64, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread. `enter`/`exit` nest like calls.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since this recorder was made: the clock of every span.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        let id = self.record(self.open.last().copied(), name, now, now);
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Add a closed span with known times under `parent` (`None` makes
    /// it a root): for time measured elsewhere, on another thread or in
    /// a server's own log.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            root: parent.map_or(id, |p| self.spans[p].root),
            name: name.to_string(),
            start_ns,
            end_ns,
            counters: BTreeMap::new(),
        });
        id
    }

    /// Add `ns` spent in `calls` calls to counter `name` of span `id`.
    pub fn count_on(&mut self, id: usize, name: &str, ns: u64, calls: u64) {
        let slot = self.spans[id].counters.entry(name.to_string()).or_default();
        slot.0 += ns;
        slot.1 += calls;
    }

    /// [`Recorder::count_on`] the innermost open span.
    pub fn count(&mut self, name: &str, ns: u64, calls: u64) {
        let id = *self.open.last().expect("a counter needs an open span");
        self.count_on(id, name, ns, calls);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans and its counters cover. Indexed by span id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| {
            let counted: u64 = s.counters.values().map(|&(ns, _)| ns).sum();
            s.duration_ns().saturating_sub(counted)
        })
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total self time per name, counters included under their own names:
/// the table a per-layer report is read from. The values of one root
/// sum to that root's duration, unless a clamp at zero hid an overlap.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name.clone()).or_default() += own;
        for (name, &(ns, _)) in &s.counters {
            *by_name.entry(name.clone()).or_default() += ns;
        }
    }
    by_name
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering: one complete
/// event per span, one row (`tid`) per root.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), Json::from(s.id as u64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
            ];
            for (name, &(ns, calls)) in &s.counters {
                args.push((format!("{name}.ns"), Json::from(ns)));
                args.push((format!("{name}.calls"), Json::from(calls)));
            }
            Json::obj([
                ("name", Json::from(s.name.as_str())),
                ("ph", Json::from("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(s.root as u64)),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            root: 0,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            counters: BTreeMap::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_counters() {
        // root 0..100, child a 10..40 (with grandchild 20..25), child b
        // 50..90 carrying a counter of 30.
        let mut b = span(3, Some(0), "b", 50, 90);
        b.counters.insert("tick".into(), (30, 7));
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "g", 20, 25),
            b,
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 5, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["tick"], 30);
        // Everything under the root is accounted for exactly once.
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_spans_under_one_root() {
        let mut rec = Recorder::new();
        let outer = rec.enter("job");
        rec.span("submit", |r| r.count("poll", 5, 2));
        let logged = rec.record(Some(outer), "service.run", 10, 20);
        rec.exit(outer);
        let second = rec.enter("job");
        rec.exit(second);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].counters["poll"], (5, 2));
        assert_eq!(spans[logged].parent, Some(outer));
        assert_eq!(spans[logged].duration_ns(), 10);
        assert!(spans.iter().take(3).all(|s| s.root == outer));
        assert_eq!(spans[second].root, second);
        assert!(spans[outer].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![span(0, None, "root", 1_000, 3_000)];
        let doc = chrome_trace(&spans);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(2.0));
        Json::parse(&doc.render()).unwrap();
    }
}
