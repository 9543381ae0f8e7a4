//! In-memory spans for the traced run, and the hooks wrapper that puts
//! `process_batch` inside them.
//!
//! Spans come only from the benchmark's own code: the driver opens one
//! around each public call it makes, and [`TracedHooks`] opens one around
//! each `process_batch` the stack makes into the FBS hooks. Every span
//! records its parent (the span open when it started), so time can be
//! split into self time per layer without instrumenting the program.

use fbs_core::BufferPool;
use fbs_ip::FbsIpHooks;
use fbs_net::ip::Ipv4Header;
use fbs_net::{Datagram, HookOutcome, SecurityHooks};
use fbs_obs::Direction;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was timed.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The driver batch this span belongs to.
    pub batch: u64,
    /// Datagrams the span covered (0 where not meaningful).
    pub dgrams: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    batch: u64,
}

/// Collects spans in memory. Cheap to clone; clones share the record.
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    state: Arc<Mutex<State>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Arc::default(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag spans opened from now on with `batch`.
    pub fn set_batch(&self, batch: u64) {
        self.state.lock().expect("tracer lock").batch = batch;
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn open(&self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let mut st = self.state.lock().expect("tracer lock");
        let idx = st.spans.len();
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: st.open.last().copied(),
            batch: st.batch,
            dgrams: 0,
        };
        st.spans.push(span);
        st.open.push(idx);
        idx
    }

    /// Close span `idx` (the innermost open one), noting how many
    /// datagrams it covered.
    pub fn close(&self, idx: usize, dgrams: u64) {
        let end_ns = self.now_ns();
        let mut st = self.state.lock().expect("tracer lock");
        assert_eq!(st.open.pop(), Some(idx), "spans must close innermost first");
        let span = &mut st.spans[idx];
        span.end_ns = end_ns;
        span.dgrams = dgrams;
    }

    /// Run `f` inside a span named `name`; `f` reports the datagrams it
    /// covered alongside its result.
    pub fn in_span<T>(&self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let idx = self.open(name);
        let (out, dgrams) = f();
        self.close(idx, dgrams);
        out
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        let mut st = self.state.lock().expect("tracer lock");
        assert!(st.open.is_empty(), "spans still open");
        std::mem::take(&mut st.spans)
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Summed datagrams.
    pub dgrams: u64,
}

/// Aggregate spans named `name`.
pub fn totals(spans: &[Span], self_ns: &[u64], name: &str) -> Totals {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .fold(Totals::default(), |t, (s, own)| Totals {
            count: t.count + 1,
            total_ns: t.total_ns + s.duration_ns(),
            self_ns: t.self_ns + own,
            dgrams: t.dgrams + s.dgrams,
        })
}

/// Write the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"batch":{},"dgrams":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.batch, s.dgrams
        )?;
    }
    out.flush()
}

/// Span name of an output-direction `process_batch`.
pub const HOOKS_OUTPUT: &str = "hooks.output";
/// Span name of an input-direction `process_batch`.
pub const HOOKS_INPUT: &str = "hooks.input";

/// The FBS hooks with every `process_batch` wrapped in a span. Installed
/// with `Host::install_hooks` in the traced run only; everything else
/// delegates unchanged.
pub struct TracedHooks {
    inner: FbsIpHooks,
    tracer: Tracer,
}

impl TracedHooks {
    /// Wrap a handle onto a host's hooks.
    pub fn new(inner: FbsIpHooks, tracer: Tracer) -> Self {
        TracedHooks { inner, tracer }
    }
}

impl SecurityHooks for TracedHooks {
    fn covers(&self, proto: u8) -> bool {
        self.inner.covers(proto)
    }

    fn max_overhead(&self) -> usize {
        self.inner.max_overhead()
    }

    fn process_batch(
        &mut self,
        dir: Direction,
        batch: Vec<Datagram>,
        pool: &mut BufferPool,
        now_us: u64,
    ) -> Vec<(Ipv4Header, HookOutcome)> {
        let name = match dir {
            Direction::Output => HOOKS_OUTPUT,
            Direction::Input => HOOKS_INPUT,
        };
        let n = batch.len() as u64;
        let inner = &mut self.inner;
        self.tracer
            .in_span(name, || (inner.process_batch(dir, batch, pool, now_us), n))
    }

    fn release_output(&mut self, now_us: u64, pool: &mut BufferPool) -> Vec<(Ipv4Header, Vec<u8>)> {
        self.inner.release_output(now_us, pool)
    }

    fn release_input(&mut self, now_us: u64, pool: &mut BufferPool) -> Vec<(Ipv4Header, Vec<u8>)> {
        self.inner.release_input(now_us, pool)
    }
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
            batch: 0,
            dgrams: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // batch [0,100) ⊃ output [10,60) ⊃ hooks [20,50); verify [70,90).
        let spans = vec![
            span("batch", 0, 100, None),
            span("output", 10, 60, Some(0)),
            span("hooks", 20, 50, Some(1)),
            span("verify", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let own = self_times(&spans);
        let t = totals(&spans, &own, "output");
        assert_eq!((t.count, t.total_ns, t.self_ns, t.dgrams), (1, 50, 20, 1));
    }

    #[test]
    fn tracer_records_parents_and_batches() {
        let tr = Tracer::default();
        tr.set_batch(3);
        let outer = tr.open("outer");
        tr.in_span("inner", || ((), 5));
        tr.close(outer, 5);
        let spans = tr.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.batch == 3));
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
        assert_eq!(
            self_times(&spans)[0],
            spans[0].duration_ns() - spans[1].duration_ns()
        );
    }
}
