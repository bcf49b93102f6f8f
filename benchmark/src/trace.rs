//! Host-time spans recorded by the benchmark around its calls into each
//! layer. Spans stay in memory during a traced run; the Chrome trace is
//! written when the run ends.

use crate::stats;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = u32;

/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// Requests (and the same number of other roots) whose spans are written
/// to `trace.json`; every span stays in the in-memory statistics.
pub const EXPORT_REQUESTS: u64 = 2_000;

/// One timed call: which layer boundary, when, for how long, caused by
/// which span, on behalf of which request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Measured duration, timer cost not yet subtracted.
    pub dur_ns: u64,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: SpanId,
    /// Request index (or rep / experiment index for non-request roots).
    pub request: u32,
    /// Index into the trace's name table.
    pub name: u8,
}

/// The spans of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Cost of one start/stop pair with nothing between, subtracted from
    /// every duration the statistics report.
    pub timer_ns: u64,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now, with the timer calibrated.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            timer_ns: timer_cost_ns(),
        }
    }

    /// The name-table index of `name`, interning it on first use.
    ///
    /// # Panics
    /// Panics past 256 distinct names.
    pub fn name(&mut self, name: &'static str) -> u8 {
        let at = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            });
        u8::try_from(at).expect("at most 256 span names")
    }

    /// Times `f` as one span and returns its id with `f`'s result.
    #[inline]
    pub fn time<T>(
        &mut self,
        name: u8,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
            parent,
            request: request as u32,
            name,
        });
        (id, out)
    }

    /// All spans, in the order they were recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration with the timer cost taken off.
    pub fn net_ns(&self, span: &Span) -> u64 {
        span.dur_ns.saturating_sub(self.timer_ns)
    }

    /// Totals over the spans `keep` accepts, one per name, indexed by the
    /// value [`Trace::name`] returned.
    pub fn totals(&self, keep: impl Fn(&Span) -> bool) -> Vec<NameTotal> {
        let self_ns = self_times(&self.spans, self.timer_ns);
        let mut durs: Vec<Vec<u64>> = vec![Vec::new(); self.names.len()];
        let mut selfs = vec![0i64; self.names.len()];
        for (span, own) in self.spans.iter().zip(&self_ns) {
            if keep(span) {
                durs[span.name as usize].push(self.net_ns(span));
                selfs[span.name as usize] += own;
            }
        }
        self.names
            .iter()
            .zip(durs)
            .zip(selfs)
            .map(|((&name, mut durs), self_ns)| {
                durs.sort_unstable();
                NameTotal {
                    name,
                    busy_ns: durs.iter().sum(),
                    self_ns,
                    ascending_ns: durs,
                }
            })
            .collect()
    }

    /// The Chrome trace-event document of the first [`EXPORT_REQUESTS`]
    /// requests: one complete event per span, one track per span name, the
    /// parent and request carried in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"lwbench\"}}}}"
        );
        for (tid, name) in self.names.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for (id, span) in self.spans.iter().enumerate() {
            if u64::from(span.request) >= EXPORT_REQUESTS {
                continue;
            }
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"request\":{}",
                self.names[span.name as usize],
                span.name,
                span.start_ns as f64 / 1_000.0,
                span.dur_ns as f64 / 1_000.0,
                span.request,
            );
            if span.parent != NO_PARENT {
                let _ = write!(out, ",\"parent\":{}", span.parent);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotal {
    /// The span name.
    pub name: &'static str,
    /// Sum of net durations.
    pub busy_ns: u64,
    /// Sum of self times (may dip below zero when children were timed in
    /// a separate replay and ran slower than inside the parent).
    pub self_ns: i64,
    /// Net durations, ascending.
    pub ascending_ns: Vec<u64>,
}

impl NameTotal {
    /// Spans counted.
    pub fn count(&self) -> u64 {
        self.ascending_ns.len() as u64
    }

    /// Mean net duration in nanoseconds (0 with no spans).
    pub fn mean_ns(&self) -> f64 {
        if self.ascending_ns.is_empty() {
            return 0.0;
        }
        self.busy_ns as f64 / self.ascending_ns.len() as f64
    }

    /// Percentile `q` in nanoseconds under the ten-samples-beyond rule
    /// (0 with no spans).
    pub fn percentile_ns(&self, q: f64) -> f64 {
        if self.ascending_ns.is_empty() {
            return 0.0;
        }
        stats::supported_percentile(&self.ascending_ns, q).0 as f64
    }
}

/// Self time of every span: its net duration minus the net durations of
/// its direct children.
pub fn self_times(spans: &[Span], timer_ns: u64) -> Vec<i64> {
    let net = |s: &Span| s.dur_ns.saturating_sub(timer_ns) as i64;
    let mut own: Vec<i64> = spans.iter().map(net).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            own[span.parent as usize] -= net(span);
        }
    }
    own
}

/// Median cost in nanoseconds of a start/stop pair around nothing.
fn timer_cost_ns() -> u64 {
    let mut deltas: Vec<u64> = (0..4_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as u64
        })
        .collect();
    deltas.sort_unstable();
    deltas[deltas.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(dur_ns: u64, parent: SpanId) -> Span {
        Span {
            start_ns: 0,
            dur_ns,
            parent,
            request: 0,
            name: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // root(1000) ← a(400) ← leaf(150); root ← b(300)
        let spans = [
            span(1_000, NO_PARENT),
            span(400, 0),
            span(150, 1),
            span(300, 0),
        ];
        assert_eq!(self_times(&spans, 0), vec![300, 250, 150, 300]);
        // The timer cost comes off every span before the subtraction.
        assert_eq!(self_times(&spans, 50), vec![350, 250, 100, 250]);
    }

    #[test]
    fn slower_replayed_children_show_as_negative_self_time() {
        let spans = [span(100, NO_PARENT), span(70, 0), span(60, 0)];
        assert_eq!(self_times(&spans, 0)[0], -30);
    }

    #[test]
    fn totals_group_by_name_and_export_is_capped() {
        let mut t = Trace::new();
        t.timer_ns = 0;
        let step = t.name("step");
        let op = t.name("op");
        assert_eq!(t.name("step"), step);
        let (root, _) = t.time(step, NO_PARENT, 0, || std::hint::black_box(1));
        t.time(op, root, 0, || ());
        t.time(step, NO_PARENT, EXPORT_REQUESTS, || ());
        let totals = t.totals(|_| true);
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].count(), 2);
        assert_eq!(totals[1].count(), 1);
        let only_first = t.totals(|s| u64::from(s.request) < EXPORT_REQUESTS);
        assert_eq!(only_first[0].count(), 1);
        let json = t.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "third span capped");
        assert!(json.contains("\"parent\":0"));
    }
}
