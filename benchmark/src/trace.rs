//! In-memory spans recorded from the harness side of every layer
//! boundary, dumped as JSON when the traced run ends.
//!
//! A span is `{name, op_id, parent, start_us, end_us}`: `op_id` groups
//! the spans of one operation, `parent` is the index of the span that
//! caused this one (`null` for an operation's root). Spans *inside*
//! the product are a later issue; these wrap the calls into it.

use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_us: u64,
    pub end_us: u64,
}

/// The span sink. Disabled (the untraced run) it records nothing, so
/// the end-to-end numbers carry no tracing cost at all.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    fn micros(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its index for children to
    /// name as their parent.
    pub fn record(
        &self,
        name: &'static str,
        op_id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans.lock().expect("no span recorder panics");
        spans.push(Span {
            name,
            op_id,
            parent,
            start_us: self.micros(start),
            end_us: self.micros(end),
        });
        Some(spans.len() - 1)
    }

    /// Opens a span whose end is not known yet (an operation's root,
    /// so its children can name it); close it with [`Tracer::finish`].
    pub fn begin(
        &self,
        name: &'static str,
        op_id: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> Option<usize> {
        self.record(name, op_id, parent, start, start)
    }

    pub fn finish(&self, span: Option<usize>, end: Instant) {
        if let (Some(spans), Some(index)) = (self.spans.as_ref(), span) {
            spans.lock().expect("no span recorder panics")[index].end_us = self.micros(end);
        }
    }

    /// Times `f` and records it as a span; returns `f`'s value and the
    /// elapsed milliseconds (measured whether or not tracing is on).
    pub fn span<T>(
        &self,
        name: &'static str,
        op_id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(name, op_id, parent, start, end);
        (value, (end - start).as_secs_f64() * 1e3)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .as_ref()
            .map_or(0, |s| s.lock().expect("no span recorder panics").len())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.as_ref().map_or_else(Vec::new, |s| {
            s.lock().expect("no span recorder panics").clone()
        })
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64, cpus: usize) -> String {
        let mut out =
            format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"cpus\":{cpus},\"spans\":[\n");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"op_id\":{},\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name, s.op_id, parent, s.start_us, s.end_us
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_name_their_parent_and_roots_close_late() {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = tracer.begin("op", 1, None, at(0));
        tracer.record("child", 1, root, at(2), at(6));
        tracer.finish(root, at(10));
        let spans = tracer.spans();
        assert_eq!(spans[0].end_us - spans[0].start_us, 10_000);
        assert_eq!(spans[1].parent, Some(0));
        assert!(tracer.to_json("w", 1, 2).contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let ((), _) = tracer.span("x", 0, None, || ());
        assert!(tracer.spans().is_empty());
    }
}
