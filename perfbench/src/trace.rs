//! In-memory spans around the benchmark's calls into each layer, and
//! their self times.

use std::collections::HashMap;
use std::io::Write;

/// One timed interval. Times are nanoseconds from the run origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span that caused this one (`None` for a `query` root).
    pub parent: Option<u64>,
    /// The query every span of one request shares.
    pub query: u64,
    /// Layer boundary name (`query`, `sql.plan_sql`, `core.submit`, ...).
    pub name: &'static str,
    /// Start.
    pub start: u64,
    /// End (`>= start`).
    pub end: u64,
}

/// Collects the spans of one query under a `query` root.
pub struct QuerySpans<'a> {
    out: &'a mut Vec<Span>,
    root: u64,
    query: u64,
}

impl<'a> QuerySpans<'a> {
    /// Open query `query`'s root span over `[start, end]`.
    pub fn new(out: &'a mut Vec<Span>, query: u64, start: u64, end: u64) -> Self {
        let root = out.len() as u64;
        out.push(Span {
            id: root,
            parent: None,
            query,
            name: "query",
            start,
            end,
        });
        QuerySpans { out, root, query }
    }

    /// Record a child of the root.
    pub fn child(&mut self, name: &'static str, start: u64, end: u64) {
        let id = self.out.len() as u64;
        self.out.push(Span {
            id,
            parent: Some(self.root),
            query: self.query,
            name,
            start,
            end: end.max(start),
        });
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.name, s.end - s.start - covered)
        })
        .collect()
}

/// Write each trial's spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, trials: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (trial, spans) in trials.iter().enumerate() {
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"trial\":{trial},\"id\":{},\"parent\":{parent},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.query, s.name, s.start, s.end
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut spans = Vec::new();
        let mut q = QuerySpans::new(&mut spans, 1, 0, 100);
        q.child("a", 10, 30);
        q.child("b", 20, 50); // overlaps a: 10..50 covered
        q.child("c", 90, 120); // runs past the root: 90..100 covered
        let t = self_times(&spans);
        assert_eq!(t[0], ("query", 100 - 40 - 10));
        assert_eq!(t[1], ("a", 20));
        assert_eq!(t[3], ("c", 30));
    }
}
