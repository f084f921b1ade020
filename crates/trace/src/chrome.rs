//! Chrome trace-event JSON export (the format Perfetto and
//! `chrome://tracing` load directly).
//!
//! Span events become `ph:"X"` complete events on one track per receiver
//! thread; instants become `ph:"i"`; timeline series become `ph:"C"`
//! counter tracks. Timestamps are microseconds (the format's unit), kept
//! at nanosecond precision via fractional values.

use crate::json::JsonWriter;
use crate::timeline::TimelineRecorder;
use crate::tracer::{EventKind, TraceEvent};

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Render trace events and timeline series as one Chrome trace-event
/// document: `{"traceEvents": [...], "displayTimeUnit": "ns"}`.
pub fn chrome_trace_json<'a, I>(events: I, timeline: &TimelineRecorder) -> String
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("traceEvents").begin_arr();
    for ev in events {
        w.begin_obj();
        w.key("name").str(ev.stage.name());
        w.key("cat").str("datapath");
        w.key("pid").int(0);
        w.key("tid").int(if ev.thread == u32::MAX {
            0
        } else {
            ev.thread as u64
        });
        w.key("ts").num(us(ev.ts_ns));
        match ev.kind {
            EventKind::Span { dur_ns } => {
                w.key("ph").str("X");
                w.key("dur").num(us(dur_ns));
            }
            EventKind::Instant => {
                w.key("ph").str("i");
                w.key("s").str("t");
            }
            EventKind::Value { value } => {
                w.key("ph").str("C");
                w.key("args").begin_obj();
                w.key("value").num(value);
                w.end_obj();
                w.end_obj();
                continue;
            }
        }
        if ev.flow != u32::MAX {
            w.key("args").begin_obj();
            w.key("flow").int(ev.flow as u64);
            w.key("seq").int(ev.seq);
            w.end_obj();
        }
        w.end_obj();
    }
    for &name in timeline.names() {
        for (t_ns, value) in timeline.series(name) {
            w.begin_obj();
            w.key("name").str(name);
            w.key("cat").str("timeline");
            w.key("ph").str("C");
            w.key("pid").int(0);
            w.key("ts").num(us(t_ns));
            w.key("args").begin_obj();
            w.key("value").num(value);
            w.end_obj();
            w.end_obj();
        }
    }
    w.end_arr();
    w.key("displayTimeUnit").str("ns");
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::stage::Stage;

    #[test]
    fn export_is_valid_json_with_expected_shape() {
        let events = [
            TraceEvent::span(1_000, Stage::PcieTransfer, 500, 3, 1, 42),
            TraceEvent::instant(2_000, Stage::NicDropBufferFull),
            TraceEvent::value(3_000, Stage::CwndUpdate, 8.5),
        ];
        let mut tl = TimelineRecorder::new(1);
        tl.offer(10_000, [("nic.buffer_bytes", 4096.0)]);
        let doc = chrome_trace_json(events.iter(), &tl);
        let v = json::parse(&doc).expect("valid JSON");
        let items = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 4);
        let span = &items[0];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("name").unwrap().as_str(), Some("stage.pcie"));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(0.5));
        assert_eq!(
            span.get("args").unwrap().get("seq").unwrap().as_f64(),
            Some(42.0)
        );
        let counter = &items[3];
        assert_eq!(counter.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            counter.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(4096.0)
        );
    }

    #[test]
    fn empty_trace_still_parses() {
        let tl = TimelineRecorder::disabled();
        let doc = chrome_trace_json([].iter(), &tl);
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }
}
