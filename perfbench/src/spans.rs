//! Spans recorded around the benchmark's calls into each layer.
//!
//! [`Tracer::span`] always times the call it wraps (the end-to-end
//! metrics need the durations either way) and records a span — name,
//! start, end, parent — only while tracing is on. Spans stay in memory
//! until [`Tracer::write_jsonl`] writes them out at exit. Spans inside
//! the program itself are not recorded here.
//!
//! Every time is read from the process CPU clock ([`cpu_s`]): the CPU
//! seconds of all the process's threads. On a shared host, wall time
//! also counts the time the process waited for a CPU, and the engines
//! the fuzz oracles run on two threads wait most when the other CPU is
//! busy; CPU time leaves that wait out.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process, ended ones
/// included.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One recorded span. Times are process CPU seconds since the tracer
/// was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, named `<module>.<call>`.
    pub name: &'static str,
    /// Start time, s.
    pub start_s: f64,
    /// End time, s.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// CPU seconds between start and end.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Per-name totals over every recorded span of that name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: usize,
    /// Summed durations, s.
    pub total_s: f64,
    /// Summed self times (duration minus the time child spans cover), s.
    pub self_s: f64,
}

/// Times layer calls and, while enabled, keeps them as spans.
pub struct Tracer {
    on: bool,
    origin: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: cpu_s(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; only between top-level spans.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Runs `f`, returning its result and its CPU time in seconds, and
    /// records it as a span named `name` when tracing is on. Spans
    /// opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = cpu_s();
        if !self.on {
            let r = f(self);
            return (r, cpu_s() - start);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: start - self.origin,
            end_s: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end = cpu_s();
        self.spans[id].end_s = end - self.origin;
        (r, end - start)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.duration_s();
            t.self_s += self_s;
        }
        out
    }

    /// Each span's duration minus the durations of its direct children.
    fn self_times(&self) -> Vec<f64> {
        let mut self_s: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_s[p] -= s.duration_s();
            }
        }
        self_s
    }

    /// Writes every span as one JSON object per line:
    /// `{"id", "name", "start_s", "end_s", "self_s", "parent"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{},\"parent\":{parent}}}",
                s.name,
                s.start_s,
                s.end_s,
                self_s,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let ((), outer) = t.span("outer", |t| {
            t.span("inner", |_| {
                let start = cpu_s();
                while cpu_s() - start < 0.005 {
                    std::hint::black_box(());
                }
            });
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!((spans[0].duration_s() - outer).abs() < 1e-3);
        let totals = t.totals();
        let inner = totals["inner"];
        let outer_t = totals["outer"];
        assert_eq!(inner.count, 2);
        assert!(inner.total_s >= 0.005);
        assert!((outer_t.self_s - (outer_t.total_s - inner.total_s)).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
