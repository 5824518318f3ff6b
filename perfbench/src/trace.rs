//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span is (name, group, start, end, parent). `group` ties together the
//! spans of one unit of work (one graph compressed, one request replayed).
//! Spans stay in memory while the run measures and are written out as JSON
//! lines when it ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                group,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        out
    }

    /// Durations in ms of every span named `name`, in recording order.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let t = Tracer::new();
        t.span("outer", 1, || {
            t.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 1, || ());
        });
        t.span("inner", 2, || ());
        let spans = t.spans.borrow();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans[0].ms() >= spans[1].ms() + spans[2].ms());
        drop(spans);
        assert_eq!(t.ms_of("inner").len(), 3);
    }
}
