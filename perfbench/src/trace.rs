//! In-memory spans recorded around calls into each layer, written out
//! when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call: which layer, when, what caused it, for which task.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The task (request) this span belongs to.
    pub task: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans when enabled; costs one branch per call when not.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span whose interval was measured elsewhere; returns its
    /// index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        task: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            task,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, task: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, task)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        task: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, task);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span, with its self time, as one JSON object a line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"task\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.task, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Each span's duration minus the part of its interval that its direct
/// children cover (overlapping children count once; a child reaching
/// outside its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            task: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 120, 160, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100,160) from a∪b, [190,200) from c.
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.time("x", None, 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_timing_links_parents() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None, 3);
        t.time("child", root, 3, || std::hint::black_box(1 + 1));
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].duration());
    }
}
