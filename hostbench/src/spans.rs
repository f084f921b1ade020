//! In-memory span recording around the benchmark's calls into hostcc's
//! public API, self-time accounting, and the Chrome trace export.
//!
//! Every call is timed whether or not recording is on: the workloads need
//! the durations for their metrics. Recording only decides whether a
//! span is kept for the trace dump.

use hostcc::substrate::trace::json::JsonWriter;
use std::time::{Duration, Instant};

/// One timed call: a name, its interval (nanoseconds since the recorder
/// started), the span that was open when it began, and the id shared by
/// every span of one simulated point.
#[derive(Debug)]
pub struct Span {
    /// The public call (or benchmark phase) timed.
    pub name: &'static str,
    /// Id shared by every span of one point (a simulation or a fleet).
    pub point: u32,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; close it with [`Spans::end`].
#[must_use]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// The span recorder.
pub struct Spans {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps nothing until [`set_recording`](Self::set_recording).
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            recording: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Keep (or stop keeping) spans from now on.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Open a span named `name` for point `point`.
    pub fn begin(&mut self, name: &'static str, point: u32) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let start_ns = self.ns_since_epoch(start);
            self.spans.push(Span {
                name,
                point,
                parent: self.stack.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { start, index }
    }

    /// Close `open` and return its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns_since_epoch(end);
            // Spans close in LIFO order; anything still above `i` was
            // left open by an early return and is closed with it.
            while let Some(top) = self.stack.pop() {
                if top == i {
                    break;
                }
                self.spans[top].end_ns = self.spans[i].end_ns;
            }
        }
        end - open.start
    }

    /// Time `f` as a span named `name` for point `point`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        point: u32,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, point);
        let out = f();
        let d = self.end(open);
        (out, d)
    }

    /// The spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children are merged as an interval
/// union clipped to the parent, so children that overlap each other (or
/// spill past the parent) are not subtracted twice; grandchildren are
/// already inside their own parent and are not subtracted again.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    _ => {
                        if let Some((clo, chi)) = cur {
                            covered += chi - clo;
                        }
                        cur = Some((lo, hi));
                    }
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals: `(name, calls, total ns, self ns)`, sorted by self
/// time, largest first.
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        match out.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += s.dur_ns();
                e.3 += self_ns;
            }
            None => out.push((s.name, 1, s.dur_ns(), self_ns)),
        }
    }
    out.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    out
}

/// The spans as a Chrome trace (`traceEvents` of complete `X` events,
/// microsecond timestamps), which Perfetto and `chrome://tracing` open.
/// The point id doubles as the track id, so each point reads as a row.
pub fn chrome_trace(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("displayTimeUnit").str("ms");
    w.key("traceEvents").begin_arr();
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        w.begin_obj();
        w.key("name").str(s.name);
        w.key("ph").str("X");
        w.key("pid").int(1);
        w.key("tid").int(u64::from(s.point));
        w.key("ts").num(s.start_ns as f64 / 1e3);
        w.key("dur").num(s.dur_ns() as f64 / 1e3);
        w.key("args").begin_obj();
        w.key("id").int(i as u64);
        match s.parent {
            Some(p) => w.key("parent").int(p as u64),
            None => w.key("parent").str("none"),
        };
        w.key("point").int(u64::from(s.point));
        w.key("self_us").num(self_ns as f64 / 1e3);
        w.end_obj();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            point: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,100) > child [10,60) > grandchild [20,40)
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 40),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn overlapping_children_are_merged() {
        // Two children overlapping on [30,50) and a third disjoint one;
        // the union covers [10,70) + [80,90) = 70 ns.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
            span(Some(0), 80, 90),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that starts inside and runs past the parent's end only
        // covers the parent up to its end; a duplicate child adds nothing.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 90, 150),
            span(Some(0), 90, 150),
        ];
        assert_eq!(self_times(&spans), vec![90, 60, 60]);
    }

    #[test]
    fn recorder_links_parents_and_closes_in_order() {
        let mut r = Spans::new();
        r.set_recording(true);
        let outer = r.begin("outer", 7);
        let ((), _) = r.time("inner", 7, || ());
        let _never_closed = r.begin("left-open", 7);
        r.end(outer);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[2].end_ns <= s[0].end_ns);
        // The next span is a root again.
        let ((), _) = r.time("after", 8, || ());
        assert_eq!(r.spans()[3].parent, None);
        let by_name = totals_by_name(r.spans());
        assert_eq!(by_name.iter().map(|e| e.1).sum::<u64>(), 4);
    }

    #[test]
    fn not_recording_still_times() {
        let mut r = Spans::new();
        let ((), d) = r.time("x", 0, || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses() {
        let spans = [span(None, 0, 2_000), span(Some(0), 500, 1_000)];
        let doc = chrome_trace(&spans);
        let v = hostcc::substrate::trace::json::parse(&doc).expect("valid JSON");
        let evs = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].get("dur").and_then(|d| d.as_f64()), Some(2.0));
        assert_eq!(
            evs[0]
                .get("args")
                .and_then(|a| a.get("self_us"))
                .and_then(|d| d.as_f64()),
            Some(1.5)
        );
    }
}
