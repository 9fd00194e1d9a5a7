//! The benchmark's own span recorder: spans are opened around each call
//! into a layer of the program under test, kept in memory, and written as
//! JSON lines when the run ends. Nothing inside the program is instrumented.
//!
//! A span name is `<layer>:<operation>`. A layer's self time is the sum of
//! its spans' durations minus what their direct children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// Index + 1 of the enclosing span; 0 for a root.
    parent: u32,
    /// The operation (request, session, sample) the span belongs to.
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

/// Single-threaded recorder; disabled instances record nothing and cost
/// one branch per call.
pub struct Tracer {
    origin: Instant,
    state: Option<RefCell<State>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            state: enabled.then(|| RefCell::new(State::default())),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next operation; spans opened from now on carry its id.
    pub fn next_op(&self) {
        if let Some(st) = &self.state {
            st.borrow_mut().op += 1;
        }
    }

    /// Opens `name` as a child of the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let Some(st) = &self.state else {
            return SpanGuard {
                tracer: self,
                index: 0,
            };
        };
        let start_ns = self.now_ns();
        let mut st = st.borrow_mut();
        let parent = st.stack.last().copied().unwrap_or(0);
        let op = st.op;
        st.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        let index = st.spans.len() as u32;
        st.stack.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Times `f` inside a span.
    pub fn in_span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name);
        f()
    }

    pub fn span_count(&self) -> usize {
        self.state.as_ref().map_or(0, |st| st.borrow().spans.len())
    }

    /// Self time in seconds per layer, over all recorded spans.
    pub fn layer_self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let Some(st) = &self.state else {
            return out;
        };
        let st = st.borrow();
        let mut child_ns = vec![0u64; st.spans.len()];
        for s in &st.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in st.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*covered);
            let layer = s.name.split(':').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes one JSON object per span: name, start, end, parent, op.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let Some(st) = &self.state else {
            return Ok(());
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in st.borrow().spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.name,
                s.parent,
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.index == 0 {
            return;
        }
        let Some(st) = &self.tracer.state else {
            return;
        };
        let end_ns = self.tracer.now_ns();
        let mut st = st.borrow_mut();
        st.spans[self.index as usize - 1].end_ns = end_ns;
        // Guards drop in reverse order of creation, so the innermost open
        // span is this one.
        st.stack.pop();
    }
}
