//! In-memory spans recorded around calls into the program's layers.
//!
//! A span is a name, a start and end on one monotonic clock, the span that
//! caused it, and the design point or request it belongs to. Spans stay in
//! memory until the traced run ends. A layer's *self* time is its span's
//! duration minus the part of that interval its child spans cover (the
//! union, since children of one span can run in parallel).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub point: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's id
    /// so that calls it makes can record child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        point: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span list lock: a traced call panicked");
            let id = spans.len();
            spans.push(Span { id, parent, name, point, start_ns: 0, end_ns: 0 });
            id
        };
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock: a traced call panicked");
        spans[id].start_ns = start_ns;
        spans[id].end_ns = end_ns;
        out
    }

    /// All spans recorded so far, in creation order.
    #[must_use]
    pub fn finish(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list lock: a traced call panicked")
    }
}

/// Total self time per span name, in nanoseconds.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = union_within(kids, s.start_ns, s.end_ns);
        *out.entry(s.name).or_insert(0) += s.duration_ns() - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, point: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        let spans = vec![
            span(0, None, "job", 0, 100),
            // Two overlapping children (parallel calls) cover 10..50.
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 20, 50),
            // A grandchild is charged to its own parent only.
            span(3, Some(1), "c", 12, 15),
            // Repeated names accumulate.
            span(4, Some(0), "b", 60, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], 100 - 40 - 10);
        assert_eq!(t["a"], 20 - 3);
        assert_eq!(t["b"], 30 + 10);
        assert_eq!(t["c"], 3);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(0, None, "p", 10, 20), span(1, Some(0), "k", 5, 15)];
        assert_eq!(self_times(&spans)["p"], 5);
    }

    #[test]
    fn tracer_records_parent_links_and_ordering() {
        let tracer = Tracer::default();
        tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", Some(outer), 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let t = self_times(&spans);
        assert_eq!(t["outer"] + t["inner"], spans[0].duration_ns());
    }
}
