//! Spans kept in memory during a traced run and written out when it
//! ends. Spans wrap the calls the benchmark makes into the program;
//! nothing is recorded inside the program itself.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent id of a span that has none.
pub const NO_PARENT: u64 = 0;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Id of the span that caused this one ([`NO_PARENT`] for roots).
    pub parent: u64,
    /// Request the span belongs to (0 for replay work).
    pub req: u64,
    /// Layer-qualified call name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
}

/// The root span id of request `req`, known to every thread that
/// touches the request without coordination.
pub fn request_span(req: u64) -> u64 {
    (1 << 63) | req
}

/// One thread's span buffer. Ids are unique per `tag`.
#[derive(Debug)]
pub struct SpanLog {
    tag: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A buffer whose ids are drawn from `tag`'s range.
    pub fn new(tag: u64) -> Self {
        SpanLog {
            tag: tag << 40,
            next: 1,
            spans: Vec::new(),
        }
    }

    /// Allocates a span id ahead of recording the span, so children can
    /// name a parent that is still open.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.tag | (self.next - 1)
    }

    /// Records a span under a reserved id.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        (req, parent): (u64, u64),
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        });
    }

    /// Records a child span of request `req`.
    pub fn child(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.reserve();
        self.record(id, name, (req, parent), start, end);
    }

    /// Records the root span of request `req`.
    pub fn request(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        self.record(request_span(req), name, (req, NO_PARENT), start, end);
    }

    /// Times `f` as a child span.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.child(name, 0, parent, start, Instant::now());
        out
    }
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part children cover), ns.
    pub self_ns: u64,
}

/// All spans of a run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps are written relative to `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Takes over a thread's buffer.
    pub fn absorb(&mut self, log: SpanLog) {
        self.spans.extend(log.spans);
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, sorted by descending self time.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: HashMap<u64, Vec<(Instant, Instant)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut by_name: HashMap<&'static str, SelfTime> = HashMap::new();
        for s in &self.spans {
            let total = s.end.saturating_duration_since(s.start).as_nanos() as u64;
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start, s.end));
            let e = by_name.entry(s.name).or_insert(SelfTime {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(covered);
        }
        let mut out: Vec<SelfTime> = by_name.into_values().collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.req,
                s.name,
                s.start.saturating_duration_since(self.epoch).as_nanos(),
                s.end.saturating_duration_since(self.epoch).as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Nanoseconds of `[start, end]` covered by the union of `spans`.
fn covered_ns(spans: &mut [(Instant, Instant)], start: Instant, end: Instant) -> u64 {
    spans.sort_by_key(|s| s.0);
    let mut covered = 0u64;
    let mut reach = start;
    for &(s, e) in spans.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += (e - s).as_nanos() as u64;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut log = SpanLog::new(1);
        log.request("request", 9, at(0), at(100));
        let root = request_span(9);
        log.child("a", 9, root, at(10), at(40));
        log.child("b", 9, root, at(30), at(60));
        log.child("c", 9, root, at(90), at(150));
        let mut trace = Trace::new(t0);
        trace.absorb(log);
        let times = trace.self_times();
        let request = times.iter().find(|t| t.name == "request").expect("root");
        // Children cover 10..60 and 90..100 of the root's 0..100.
        assert_eq!(request.self_ns, 40_000);
        assert_eq!(request.total_ns, 100_000);
        assert_eq!(trace.len(), 4);
    }
}
