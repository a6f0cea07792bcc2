//! Spans the benchmark records around its own calls into each layer's
//! public functions. Nothing inside the runtime is instrumented: a span
//! measures the wall time a caller spends in one layer's entry point.
//!
//! Spans are kept in memory while the benchmark runs and written out once
//! at the end. A disabled [`Tracer`] costs one branch per span.

use crate::maths::{covered_ns, self_times};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and entry point, e.g. `core.call_submit`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Work items the span covers (tasks submitted, for submit spans).
    pub items: u32,
}

/// Records nested spans for the ops of one client thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts or pauses recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
        // A span interrupted by a panic never popped itself.
        self.stack.clear();
    }

    /// Runs `f` inside a span named `name` covering `items` work items.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        items: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            items,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `op name parent start_ns end_ns items` (parent `-` for a root).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "op\tname\tparent\tstart_ns\tend_ns\titems")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.name, parent, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}

/// Totals for all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times (duration minus what child spans cover).
    pub self_ns: u64,
    /// Summed work items.
    pub items: u64,
}

/// Per-name totals over `spans`, with self times computed from the
/// recorded parent links.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let shape: Vec<(u64, u64, Option<usize>)> = spans
        .iter()
        .map(|s| (s.start_ns, s.end_ns, s.parent.map(|p| p as usize)))
        .collect();
    let selfs = self_times(&shape);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
        t.items += u64::from(s.items);
    }
    out
}

/// Share of the root spans' time that none of their child spans cover:
/// the part of op latency no layer span accounts for.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, k) in spans.iter().zip(&kids) {
        if s.parent.is_none() {
            let dur = s.end_ns - s.start_ns;
            total += dur;
            uncovered += dur - covered_ns(s.start_ns, s.end_ns, k);
        }
    }
    crate::maths::ratio(uncovered as f64, total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
            items: 1,
        }
    }

    #[test]
    fn totals_and_unattributed_share_follow_the_parent_links() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            span("op", None, 200, 300),
            span("a", Some(3), 200, 300),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["op"].count, 2);
        assert_eq!(t["op"].total_ns, 200);
        assert_eq!(t["op"].self_ns, 50);
        assert_eq!(t["a"].self_ns, 120);
        assert_eq!(t["a"].items, 2);
        assert_eq!(unattributed_share(&spans), 0.25);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let mut tr = Tracer::new();
        assert_eq!(tr.span("x", 0, |_| 7), 7);
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        tr.set_op(3);
        tr.span("outer", 0, |tr| tr.span("inner", 2, |_| ()));
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("inner", Some(0), 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
