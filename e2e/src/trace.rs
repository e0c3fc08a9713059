//! Spans recorded by the benchmark around its own calls into the
//! system. Kept in memory during the run, written as Chrome trace-event
//! JSON when it ends. A span's self time is its duration minus the part
//! of it its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Display lane in the trace viewer (spans on one lane must nest).
    pub lane: u32,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Span recorder. When disabled, [`Tracer::span`] only runs the closure
/// (one branch), so the untraced run shares the workload code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Run `f` inside a span nested under the innermost open one.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.us(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_us,
            end_us: start_us,
            lane: 0,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.us(Instant::now());
        r
    }

    /// Record a span whose interval was observed elsewhere (a job's
    /// life across threads). No-op while disabled.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        lane: u32,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_us,
            end_us,
            lane,
        });
        Some(self.spans.len() - 1)
    }

    /// Durations (ms) of every span called `name` whose parent is called
    /// `parent_name`.
    pub fn durations(&self, name: &str, parent_name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| {
                s.name == name && s.parent.is_some_and(|p| self.spans[p].name == parent_name)
            })
            .map(Span::dur_ms)
            .collect()
    }

    /// Children of every span, indexed by parent.
    fn children(&self) -> Vec<Vec<SpanId>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(id);
            }
        }
        kids
    }

    /// Microseconds of span `id` covered by the union of its children.
    fn child_cover_us(&self, id: SpanId, kids: &[SpanId]) -> f64 {
        let me = &self.spans[id];
        let mut parts: Vec<(f64, f64)> = kids
            .iter()
            .map(|&k| {
                (
                    self.spans[k].start_us.max(me.start_us),
                    self.spans[k].end_us.min(me.end_us),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        parts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut cover, mut edge) = (0.0, f64::NEG_INFINITY);
        for (a, b) in parts {
            if b > edge {
                cover += b - a.max(edge);
                edge = b;
            }
        }
        cover
    }

    /// Self time (ms) of every span: duration minus child cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let kids = self.children();
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| (s.end_us - s.start_us - self.child_cover_us(id, &kids[id])) / 1e3)
            .collect()
    }

    /// Share of the time inside spans called `name` that their children
    /// cover: the layer split accounts for this much of the wall.
    pub fn cover_frac(&self, name: &str) -> f64 {
        let kids = self.children();
        let (mut cover, mut total) = (0.0, 0.0);
        for (id, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            cover += self.child_cover_us(id, &kids[id]);
            total += s.end_us - s.start_us;
        }
        if total > 0.0 {
            cover / total
        } else {
            0.0
        }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{}\"}}}}",
            hetero_serve::json::escape(process)
        );
        let self_ms = self.self_ms();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"self_ms\":{:.4}}}}}",
                hetero_serve::json::escape(&s.name),
                s.lane,
                s.start_us,
                s.end_us - s.start_us,
                id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self_ms[id],
            );
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
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.add("job", None, at(0), at(100), 0).unwrap();
        // Two overlapping children cover [10, 60]; a third covers [80, 90].
        t.add("a", Some(root), at(10), at(40), 0);
        t.add("b", Some(root), at(30), at(60), 0);
        t.add("c", Some(root), at(80), at(90), 0);
        assert!((t.self_ms()[root] - 40.0).abs() < 1e-6);
        assert!((t.cover_frac("job") - 0.6).abs() < 1e-9);
        assert_eq!(t.durations("b", "job"), vec![30.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nested_spans_link_to_parents() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans.is_empty());

        let mut on = Tracer::new(true);
        on.span("round", |t| t.span("app", |t| t.span("run", |_| ())));
        let names: Vec<_> = on
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![("round", None), ("app", Some(0)), ("run", Some(1))]
        );
        let json = on.to_chrome_json("e2e");
        let v = hetero_serve::json::parse(&json).expect("trace is valid JSON");
        assert!(
            matches!(v.get("traceEvents"), Some(hetero_serve::json::Json::Arr(a)) if a.len() == 4)
        );
    }
}
