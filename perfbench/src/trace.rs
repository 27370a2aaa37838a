//! In-memory spans recorded around the calls the benchmark makes into each
//! layer's public API. Nothing inside the system is instrumented: a span
//! covers exactly one call, timed from the benchmark's side.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Request the call belongs to (query ordinal, feed seqno, or set-up).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Disabled tracers record nothing and cost one branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that is still open.
    pub fn open(&self) -> (u64, u64) {
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (id, self.now_ns())
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, opened: (u64, u64), parent: Option<u64>, request: u64, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: opened.0,
            parent,
            request,
            name,
            start_ns: opened.1,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let opened = self.open();
        let out = f();
        self.close(opened, parent, request, name);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (children may overlap each other, and a child
/// is clipped to its parent). Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Writes spans as one JSON object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let selfs = self_times(spans);
    for (s, self_ns) in spans.iter().zip(selfs) {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{}}}"#,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
            s.name,
            s.start_ns,
            s.end_ns,
            self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) has children [10,30) and [50,90); the second child
        // has its own child [60,70), which is not the root's to subtract
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 90),
            span(4, Some(3), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // children [10,50) and [30,60) overlap; [90,120) overhangs the end
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(None, 1, "x", || 7), 7);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        let outer = t.open();
        t.span(Some(outer.0), 1, "inner", || ());
        t.close(outer, None, 1, "outer");
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
