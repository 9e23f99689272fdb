//! Wall-clock spans around the benchmark's calls into each layer, kept in
//! memory and written as one Chrome trace-event document at exit.

use crate::api;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    dur_us: f64,
}

/// The traced run's spans, in the order they opened.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose timeline starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span; returns `f`'s result and the span's length in seconds.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.open.push(id);
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].dur_us = secs * 1e6;
        (out, secs)
    }

    /// The spans as a Chrome trace-event document (one process, one track).
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut events = vec![
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
                api::json_string(process)
            ),
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"benchmark\"}}"
                .to_string(),
        ];
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| {
                api::json_string(&self.spans[p].name)
            });
            events.push(format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":{parent}}}}}",
                api::json_string(&s.name),
                s.start_us,
                s.dur_us
            ));
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_make_a_valid_trace() {
        let mut spans = Spans::new();
        let (inner, outer_s) = spans.time("outer", |s| s.time("inner \"quoted\"", |_| 7).0);
        assert_eq!(inner, 7);
        assert!(outer_s >= 0.0);
        let json = spans.to_chrome_json("test");
        api::validate_chrome_trace(&json).expect("valid Chrome trace");
        assert!(json.contains("\"parent\":\"outer\""));
    }
}
