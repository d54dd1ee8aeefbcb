//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. Spans of one request share `request`; `parent` is the
/// index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, request: u64, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(request, name, parent, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(request, name, parent);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of distinct requests the spans cover.
    pub fn requests(&self) -> usize {
        let ids: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.request).collect();
        ids.len()
    }

    /// Durations in µs of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Prints the span and request counts and each span name's median self
    /// time.
    pub fn note_self_times(&self, out: &mut crate::Outcome) {
        out.note(format!(
            "{} spans over {} requests",
            self.spans.len(),
            self.requests()
        ));
        for (name, self_us) in self.self_us_by_name() {
            out.note(format!(
                "self time {name}: p50 {:.1} us over {} spans",
                crate::stats::median(&self_us),
                self_us.len()
            ));
        }
    }

    /// Self time in µs of every span, grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let self_ns = self_times_ns(&self.spans);
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            out.entry(span.name).or_default().push(ns as f64 / 1e3);
        }
        out
    }
}

/// Self time of each span: its duration minus the part of its interval that
/// its child spans cover. Overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            request: 1,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("turn", 0, 100, None),
            span("plan", 10, 30, Some(0)),
            span("execute", 30, 90, Some(0)),
            span("agent", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), [20, 20, 50, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel branches under one execute span.
        let spans = [
            span("execute", 0, 100, None),
            span("branch", 10, 60, Some(0)),
            span("branch", 40, 80, Some(0)),
            span("branch", 50, 55, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("submit", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times_ns(&spans), [5, 25]);
    }

    #[test]
    fn tracer_groups_self_time_by_name() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let root = t.open(7, "turn", None);
        let x = t.time(7, "plan", Some(root), || 1 + 1);
        t.close(root);
        assert_eq!(x, 2);
        let by_name = t.self_us_by_name();
        assert_eq!(by_name["turn"].len(), 1);
        assert_eq!(by_name["plan"].len(), 1);
        assert_eq!(t.requests(), 1);
        assert!(t.spans()[1].start_ns >= t.spans()[0].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
    }
}
