//! In-memory spans for the traced pass, written out when it ends.
//!
//! All spans are recorded from the benchmark's own files, around calls
//! into each layer's public functions; the program under test carries no
//! timers.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`core.plan_push`, `trainer.run`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Collects the spans of one workload's traced pass.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, a child of the span open
    /// around it.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a finished interval timed by the caller (a batch of one
    /// layer's calls) as a child of the open span.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every span with its workload and self time.
    pub fn to_json(&self, workload: &str) -> Json {
        let self_ns = self_times(&self.spans);
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .zip(self_ns)
                        .map(|(s, self_ns)| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("workload", Json::str(workload)),
                                ("self_ns", Json::Num(self_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may nest further (only direct
/// children count) and may overlap each other (their union counts once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.clamp(spans[p].start_ns, spans[p].end_ns);
            let hi = s.end_ns.clamp(spans[p].start_ns, spans[p].end_ns);
            children[p].push((lo, hi));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_direct_parent() {
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(40, 70, Some(0)),
            span(45, 48, Some(0)),
            span(90, 100, Some(0)),
        ];
        // Union of children: [10,70) ∪ [90,100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [
            span(50, 100, None),
            span(0, 60, Some(0)),
            span(95, 200, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 35);
    }

    #[test]
    fn recorder_links_scopes_and_leaves_to_the_open_span() {
        let mut rec = Recorder::new();
        rec.scope("outer", |rec| {
            rec.scope("inner", |rec| {
                let t = rec.now_ns();
                rec.leaf("batch", t, t + 5);
            });
            let t = rec.now_ns();
            rec.leaf("batch", t, t);
        });
        let parents: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("batch", Some(1)),
                ("batch", Some(0))
            ]
        );
        let outer = &rec.spans()[0];
        let inner = &rec.spans()[1];
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let text = rec.to_json("w").to_line();
        assert!(text.contains("\"workload\": \"w\""), "{text}");
        assert!(text.contains("\"parent\": null"), "{text}");
    }
}
