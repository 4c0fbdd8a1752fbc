//! In-memory spans for the traced run: one span per call into a layer's
//! public function, written out as JSON lines when the run ends.

use netsim::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public function called, e.g. `fzlight::compress`.
    pub name: &'static str,
    /// The benchmark op this call belongs to (`None` for set-up and probes
    /// that serve no single op).
    pub op: Option<usize>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
}

/// Records nested spans; the innermost open span is the parent of the next.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span and return its value with the span's seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, op, parent: self.open.last().copied(), start, end: start });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[id].end = end;
        (value, end - start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
            let line = Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("parent", opt(s.parent)),
                ("op", opt(s.op)),
                ("name", Json::Str(s.name.into())),
                ("start_s", Json::Num(s.start)),
                ("end_s", Json::Num(s.end)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new();
        let ((), outer) = t.span("outer", Some(3), |t| {
            let (v, _) = t.span("inner", Some(3), |_| 7);
            assert_eq!(v, 7);
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
        assert!(outer >= s[1].end - s[1].start);
    }
}
