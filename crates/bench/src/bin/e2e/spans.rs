//! Harness-side span recorder (choosing-metrics §4): one span per call into
//! a layer, kept in memory and written out as Chrome-trace JSON when the
//! run ends. No library file is touched — spans wrap the public entry
//! points the harness calls, and sub-phases a layer already reports through
//! its public API (`StepTiming`, `ForcePhases`) are attached as children
//! marked "as reported".

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (index into the recorder), if any.
    pub parent: Option<usize>,
    /// Workload-iteration id shared by every span of one step call.
    pub iter: u64,
    /// `true` when the interval was not timed by the harness but laid out
    /// from a duration the layer's public API reported.
    pub reported: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total and self time of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span store. Open spans form a stack, so a span opened while
/// another is open becomes its child.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span; returns its id.
    pub fn open(&mut self, name: &str, iter: u64) -> usize {
        let t = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: t,
            end_ns: t,
            parent: self.open.last().copied(),
            iter,
            reported: false,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let t = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = t;
    }

    /// Time `f` as a span named `name`.
    pub fn scoped<R>(&mut self, name: &str, iter: u64, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.open(name, iter);
        let r = f(self);
        self.close(id);
        r
    }

    /// Attach children to closed span `parent` from durations (seconds) its
    /// layer reported, laid back to back from the parent's start and clipped
    /// to its end — the phases are sequential passes, so only their lengths
    /// are known, not their true offsets.
    pub fn reported_children(&mut self, parent: usize, phases: &[(&str, f64)]) {
        let (iter, end) = (self.spans[parent].iter, self.spans[parent].end_ns);
        let mut cursor = self.spans[parent].start_ns;
        for &(name, secs) in phases {
            if secs <= 0.0 {
                continue;
            }
            let stop = (cursor + (secs * 1e9) as u64).min(end);
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: cursor,
                end_ns: stop,
                parent: Some(parent),
                iter,
                reported: true,
            });
            cursor = stop;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name, where a span's self time
    /// is its duration minus the part of it its children cover (children
    /// are clipped to the parent; overlapping children count once).
    pub fn totals_by_name(&self) -> BTreeMap<String, NameTotals> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                let s = &self.spans[p];
                let (a, b) = (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns));
                if b > a {
                    kids[p].push((a, b));
                }
            }
        }
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (s, mut kids) in self.spans.iter().zip(kids) {
            kids.sort_unstable();
            // Length of the union of the child intervals.
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns() - covered;
        }
        out
    }

    /// The span tree as Chrome-trace JSON (complete `"ph":"X"` events, µs
    /// timestamps), loadable in Perfetto / `chrome://tracing`. Each event's
    /// `args` carry the span id, its parent id and the iteration id.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"iter\":{}}}}}",
                crate::report::json_string(&s.name),
                if s.reported { "reported" } else { "timed" },
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.iter,
            ));
        }
        out.push_str("]}");
        out
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            iter: 0,
            reported: false,
        });
        self.spans.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// step [0,100] ─ force [10,70] ─ embed [10,40], fit [35,60] (overlap 5)
    ///              └ integrate [80,95]
    fn tree() -> Recorder {
        let mut r = Recorder::new();
        let step = r.push_raw("step", 0, 100, None);
        let force = r.push_raw("force", 10, 70, Some(step));
        r.push_raw("embed", 10, 40, Some(force));
        r.push_raw("fit", 35, 60, Some(force));
        r.push_raw("integrate", 80, 95, Some(step));
        r
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let r = tree();
        let t = r.totals_by_name();
        assert_eq!(t["step"].self_ns, 100 - 60 - 15);
        // Children [10,40] and [35,60] cover [10,60]: the overlap counts once.
        assert_eq!(t["force"].self_ns, 60 - 50);
        assert_eq!(t["embed"].self_ns, 30);
        assert_eq!(t["fit"].self_ns, 25);
        assert_eq!(t["integrate"], NameTotals { count: 1, total_ns: 15, self_ns: 15 });
    }

    #[test]
    fn totals_add_up_over_spans_sharing_a_name() {
        let mut r = tree();
        let step2 = r.push_raw("step", 200, 260, None);
        // A child that sticks out of its parent is clipped to it.
        r.push_raw("force", 190, 230, Some(step2));
        let t = r.totals_by_name();
        assert_eq!(t["step"], NameTotals { count: 2, total_ns: 160, self_ns: 25 + 30 });
        assert_eq!(t["force"], NameTotals { count: 2, total_ns: 100, self_ns: 10 + 40 });
    }

    #[test]
    fn open_close_nest_and_reported_children_stay_inside_the_parent() {
        let mut r = Recorder::new();
        let outer = r.open("tick", 7);
        let inner = r.scoped("attach", 7, |r| r.spans().len() - 1);
        r.close(outer);
        assert_eq!(r.spans()[inner].parent, Some(outer));
        assert_eq!(r.spans()[inner].iter, 7);
        // Reported phases longer than the parent are clipped to its end.
        r.reported_children(outer, &[("a", 1.0), ("skipped", 0.0), ("b", 1.0)]);
        let p = r.spans()[outer].clone();
        let kids: Vec<&Span> =
            r.spans().iter().filter(|s| s.parent == Some(outer) && s.reported).collect();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|k| k.start_ns >= p.start_ns && k.end_ns <= p.end_ns));
    }

    #[test]
    fn chrome_trace_round_trips_with_parent_and_iteration_ids() {
        let r = tree();
        let v = serde_json::parse(&r.chrome_trace_json()).expect("valid JSON");
        let serde::Value::Array(events) = v.get("traceEvents").unwrap() else {
            panic!("traceEvents must be an array")
        };
        assert_eq!(events.len(), 5);
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("parent"), Some(&serde::Value::Number("1".into())));
        assert_eq!(args.get("iter"), Some(&serde::Value::Number("0".into())));
        assert_eq!(events[0].get("args").unwrap().get("parent"), Some(&serde::Value::Null));
    }
}
