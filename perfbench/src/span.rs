//! In-memory spans recorded around the calls the benchmark makes into the
//! program's layers.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Span name (`op`, `sim.run_until`, `core.publish`, ...).
    pub name: &'static str,
    /// Trace-operation index the span belongs to (`u32::MAX` outside ops).
    pub op: u32,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, in nanoseconds since the log was created.
    pub start: u64,
    /// End, in nanoseconds since the log was created.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    /// Summed duration (ns).
    pub total: u64,
    /// Summed duration minus the time covered by direct children (ns).
    pub self_time: u64,
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, op: u32, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes the span `idx`.
    pub fn close(&mut self, idx: u32) {
        let end = self.now();
        self.spans[idx as usize].end = end;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, op, parent);
        let r = f();
        self.close(s);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let t = out.entry(s.name).or_default();
            t.total += s.dur();
            t.self_time += s.dur().saturating_sub(c);
        }
        out
    }

    /// Writes the spans as tab-separated lines
    /// (`index name op parent start_ns end_ns`).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\top\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let op = if s.op == u32::MAX {
                -1
            } else {
                i64::from(s.op)
            };
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{}\t{op}\t{parent}\t{}\t{}",
                s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}
