//! Trace exporters: JSONL event logs and Chrome-trace span files.

use crate::event::{Event, EventKind};
use crate::json::JsonWriter;
use std::collections::HashMap;

/// Write one event as a flat JSON object.
fn encode_event(ev: &Event, w: &mut JsonWriter<'_>) {
    w.begin_obj();
    w.field("cycle").u64(ev.cycle);
    w.field("router").u64(u64::from(ev.router));
    w.field("kind").str(ev.kind.name());
    match ev.kind {
        EventKind::RcComplete {
            port,
            vc,
            out_port,
            duplicate,
        } => {
            w.field("port").u64(u64::from(port));
            w.field("vc").u64(u64::from(vc));
            w.field("out_port").u64(u64::from(out_port));
            w.field("duplicate").bool(duplicate);
        }
        EventKind::RcMisroute { port, vc, out_port } => {
            w.field("port").u64(u64::from(port));
            w.field("vc").u64(u64::from(vc));
            w.field("out_port").u64(u64::from(out_port));
        }
        EventKind::VaGrant {
            port,
            vc,
            out_port,
            out_vc,
        } => {
            w.field("port").u64(u64::from(port));
            w.field("vc").u64(u64::from(vc));
            w.field("out_port").u64(u64::from(out_port));
            w.field("out_vc").u64(u64::from(out_vc));
        }
        EventKind::VaBorrow {
            port,
            vc,
            lender_vc,
        } => {
            w.field("port").u64(u64::from(port));
            w.field("vc").u64(u64::from(vc));
            w.field("lender_vc").u64(u64::from(lender_vc));
        }
        EventKind::VaBorrowWait { port, vc } => {
            w.field("port").u64(u64::from(port));
            w.field("vc").u64(u64::from(vc));
        }
        EventKind::SaGrant { port, vc, out_port } => {
            w.field("port").u64(u64::from(port));
            w.field("vc").u64(u64::from(vc));
            w.field("out_port").u64(u64::from(out_port));
        }
        EventKind::SaBypassGrant { port, vc } => {
            w.field("port").u64(u64::from(port));
            w.field("vc").u64(u64::from(vc));
        }
        EventKind::VcTransfer {
            port,
            from_vc,
            to_vc,
        } => {
            w.field("port").u64(u64::from(port));
            w.field("from_vc").u64(u64::from(from_vc));
            w.field("to_vc").u64(u64::from(to_vc));
        }
        EventKind::FlitHop {
            packet,
            seq,
            in_port,
            out_port,
            secondary,
        } => {
            w.field("packet").u64(packet);
            w.field("seq").u64(u64::from(seq));
            w.field("in_port").u64(u64::from(in_port));
            w.field("out_port").u64(u64::from(out_port));
            w.field("secondary").bool(secondary);
        }
        EventKind::FlitDrop {
            packet,
            seq,
            out_port,
        } => {
            w.field("packet").u64(packet);
            w.field("seq").u64(u64::from(seq));
            w.field("out_port").u64(u64::from(out_port));
        }
        EventKind::FlitInject { packet, seq, vc } => {
            w.field("packet").u64(packet);
            w.field("seq").u64(u64::from(seq));
            w.field("vc").u64(u64::from(vc));
        }
        EventKind::FlitEject { packet, seq } => {
            w.field("packet").u64(packet);
            w.field("seq").u64(u64::from(seq));
        }
        EventKind::FaultActivated { site, transient } => {
            w.field("site").str(&site.to_string());
            w.field("stage").str(&site.stage().to_string());
            w.field("transient").bool(transient);
        }
        EventKind::FaultDetected { site } => {
            w.field("site").str(&site.to_string());
            w.field("stage").str(&site.stage().to_string());
        }
        EventKind::FaultCleared { site } => {
            w.field("site").str(&site.to_string());
            w.field("stage").str(&site.stage().to_string());
        }
    }
    w.end_obj();
}

/// Render an event stream as JSON Lines: one object per line, in
/// stream order.
pub fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        encode_event(ev, &mut JsonWriter::new(&mut out));
        out.push('\n');
    }
    out
}

/// Render an event stream in the Chrome trace event format
/// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// A packet's life renders as one complete (`"ph":"X"`) span per
/// router it resided in: the span opens when the head flit arrives
/// (injection, or the upstream hop plus `link_latency`) and closes
/// when the head flit departs through the crossbar (`FlitHop`) — the
/// hop through the ejection port closes the destination router's span,
/// so `FlitEject` only retires the packet. `pid` is the packet id and
/// `tid` the router id, so each packet gets a lane-per-router track
/// group. Mechanism events (borrows, bypasses, faults, …) become
/// instant (`"ph":"i"`) events on the router's lane under `pid 0`, the
/// "network" process. Cycles are mapped 1:1 to microseconds, the
/// format's native unit.
pub fn chrome_trace(events: &[Event], link_latency: u64) -> String {
    let mut out = String::new();
    let w = &mut JsonWriter::new(&mut out);
    w.begin_obj();
    w.field("traceEvents").begin_arr();
    // Where each packet's head flit currently resides:
    // packet -> (router, arrival_cycle).
    let mut residence: HashMap<u64, (u16, u64)> = HashMap::new();

    fn span(w: &mut JsonWriter<'_>, packet: u64, router: u16, arrived: u64, departed: u64) {
        w.obj(|w| {
            w.field("name").str(&format!("r{router}"));
            w.field("cat").str("packet");
            w.field("ph").str("X");
            w.field("ts").u64(arrived);
            w.field("dur").u64(departed.saturating_sub(arrived).max(1));
            w.field("pid").u64(packet);
            w.field("tid").u64(u64::from(router));
        });
    }

    for ev in events {
        match ev.kind {
            EventKind::FlitInject { packet, seq: 0, .. } => {
                residence.insert(packet, (ev.router, ev.cycle));
            }
            EventKind::FlitHop { packet, seq: 0, .. } => {
                // The head resided in the hopping router from the
                // stored arrival until this departure edge.
                if let Some((_, arrived)) = residence.remove(&packet) {
                    span(w, packet, ev.router, arrived, ev.cycle);
                }
                // It lands in the next router (unknown until that
                // router's own events) after the link flies; keep the
                // emitter as the display hint for end-of-trace stubs.
                residence.insert(packet, (ev.router, ev.cycle + link_latency));
            }
            EventKind::FlitEject { packet, seq: 0 } => {
                // The hop through the ejection port already closed the
                // destination router's span; the packet just retires.
                residence.remove(&packet);
            }
            _ => {}
        }
        // Mechanism events become instants on the network process so
        // fault dynamics line up against packet spans on the timeline.
        let instant = match ev.kind {
            EventKind::RcComplete { duplicate, .. } => duplicate.then_some("rc_duplicate"),
            EventKind::RcMisroute { .. } => Some("rc_misroute"),
            EventKind::VaBorrow { .. } => Some("va_borrow"),
            EventKind::VaBorrowWait { .. } => Some("va_borrow_wait"),
            EventKind::SaBypassGrant { .. } => Some("sa_bypass"),
            EventKind::VcTransfer { .. } => Some("vc_transfer"),
            EventKind::FlitHop { secondary, .. } => secondary.then_some("xb_secondary"),
            EventKind::FlitDrop { .. } => Some("flit_drop"),
            EventKind::FaultActivated { .. } => Some("fault_activated"),
            EventKind::FaultDetected { .. } => Some("fault_detected"),
            EventKind::FaultCleared { .. } => Some("fault_cleared"),
            _ => None,
        };
        if let Some(name) = instant {
            w.obj(|w| {
                w.field("name").str(name);
                w.field("cat").str("mechanism");
                w.field("ph").str("i");
                w.field("s").str("t");
                w.field("ts").u64(ev.cycle);
                w.field("pid").u64(0);
                w.field("tid").u64(u64::from(ev.router));
            });
        }
    }

    // Packets still in flight when the trace ends get a 1-cycle stub
    // span so they remain visible.
    let mut open: Vec<(u64, (u16, u64))> = residence.into_iter().collect();
    open.sort_unstable();
    for (packet, (router, arrived)) in open {
        span(w, packet, router, arrived, arrived + 1);
    }
    w.end_arr();
    w.field("displayTimeUnit").str("ns");
    w.end_obj();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::json::JsonValue;

    fn hop(cycle: u64, router: u16, packet: u64, out_port: u8) -> Event {
        Event {
            cycle,
            router,
            kind: EventKind::FlitHop {
                packet,
                seq: 0,
                in_port: 4,
                out_port,
                secondary: false,
            },
        }
    }

    #[test]
    fn jsonl_lines_parse_and_carry_kind() {
        let events = [
            Event {
                cycle: 3,
                router: 1,
                kind: EventKind::VaBorrow {
                    port: 0,
                    vc: 2,
                    lender_vc: 1,
                },
            },
            hop(5, 1, 77, 2),
        ];
        let text = jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = JsonValue::parse(lines[0]).expect("JSONL line parses");
        assert_eq!(first.get("kind").unwrap().as_str(), Some("va_borrow"));
        assert_eq!(first.get("lender_vc").unwrap().as_u64(), Some(1));
        let second = JsonValue::parse(lines[1]).expect("JSONL line parses");
        assert_eq!(second.get("packet").unwrap().as_u64(), Some(77));
    }

    #[test]
    fn chrome_trace_builds_span_chain_across_routers() {
        let events = [
            Event {
                cycle: 10,
                router: 0,
                kind: EventKind::FlitInject {
                    packet: 9,
                    seq: 0,
                    vc: 0,
                },
            },
            hop(14, 0, 9, 1), // leaves router 0 at 14, lands in 1 at 15
            hop(19, 1, 9, 4), // leaves router 1 (to ejection port)
            Event {
                cycle: 20,
                router: 1,
                kind: EventKind::FlitEject { packet: 9, seq: 0 },
            },
        ];
        let text = chrome_trace(&events, 1);
        let doc = JsonValue::parse(&text).expect("chrome trace parses");
        let spans: Vec<&JsonValue> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2, "one residency span per router");
        // Router 0: arrived at inject (10), departed at hop (14).
        assert_eq!(spans[0].get("ts").unwrap().as_u64(), Some(10));
        assert_eq!(spans[0].get("dur").unwrap().as_u64(), Some(4));
        assert_eq!(spans[0].get("tid").unwrap().as_u64(), Some(0));
        // Router 1: arrived at 15 (hop + link), departed on its own
        // hop/eject edge at 19..20.
        assert_eq!(spans[1].get("ts").unwrap().as_u64(), Some(15));
        assert_eq!(spans[1].get("tid").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn in_flight_packets_get_stub_spans() {
        let events = [Event {
            cycle: 4,
            router: 2,
            kind: EventKind::FlitInject {
                packet: 1,
                seq: 0,
                vc: 0,
            },
        }];
        let text = chrome_trace(&events, 1);
        let doc = JsonValue::parse(&text).expect("parses");
        let spans = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("dur").unwrap().as_u64(), Some(1));
    }
}
