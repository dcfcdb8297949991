//! In-memory spans recorded by the ledger around its calls into each
//! layer, the self-time table, and the Chrome-format export.

use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Request (or call) the span belongs to.
    pub req: u64,
}

/// Span recorder. Spans opened with [`Tracer::begin`] nest under the
/// innermost open one; [`Tracer::record`] adds a span whose times were
/// taken elsewhere (the serve client reconstructs server-side stages
/// from the reply's `queue_ns` and `total_ns`).
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The tracer's clock origin, for callers that timestamp on their own.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.record(name, req, self.now_ns(), 0, self.open.last().copied());
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Time `f` inside a span; returns its result and duration in ns.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.begin(name, req);
        let r = f();
        let ns = self.end(id);
        (r, ns)
    }

    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Per span name: (name, spans, total self time in ns), in order of
    /// first appearance.
    pub fn self_times(&self) -> Vec<(&'static str, usize, u64)> {
        let self_ns = self_times(&self.spans);
        let mut table: Vec<(&'static str, usize, u64)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            match table.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += ns;
                }
                None => table.push((span.name, 1, ns)),
            }
        }
        table
    }

    /// Chrome trace-event objects (one `X` event per span), one per
    /// line, for the caller to wrap in a JSON array. Each request gets
    /// its own track so that overlapping requests do not mis-nest.
    pub fn chrome_events(&self, pid: usize, process: &str) -> Vec<String> {
        let mut out = vec![format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{process}\"}}}}"
        )];
        for (i, s) in self.spans.iter().enumerate() {
            out.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{},\"req\":{}}}}}",
                s.req,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                s.req
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: only 40..50 is new coverage.
            span("b", 30, 50, Some(0)),
            // Sticks out past the parent: clipped at 100.
            span("c", 90, 120, Some(0)),
            span("leaf", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10 - 10, 25, 20, 30, 5]);
    }

    #[test]
    fn nested_begin_end_builds_the_tree() {
        let mut t = Tracer::new();
        let root = t.begin("root", 7);
        let (_, inner_ns) = t.time("inner", 7, || std::hint::black_box(1 + 1));
        let root_ns = t.end(root);
        assert!(root_ns >= inner_ns);
        assert_eq!(t.spans()[1].parent, Some(root));
        let table = t.self_times();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].2 + table[1].2, root_ns);
        assert_eq!(t.chrome_events(1, "w").len(), 3);
    }
}
