//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span is named `<layer>.<call>`; it records its start, end, the
//! span that was open when it started (its parent) and the id of the
//! request it served. Nothing here runs inside program code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder for one thread. A disabled tracer only runs the closures,
/// which is how the benchmark measures the tracing overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` that serves `request`.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let parent = open.last().copied();
            spans.push(Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                request,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Durations of every span named `name` serving `request`, in ms.
    pub fn durations_ms_for(&self, name: &str, request: u64) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.request == request)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Duration of the span named `name` serving `request`, if any, in ms.
    pub fn duration_ms(&self, name: &str, request: u64) -> Option<f64> {
        self.spans
            .borrow()
            .iter()
            .find(|s| s.name == name && s.request == request)
            .map(|s| s.ns() as f64 / 1e6)
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() / 1e3
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// its child spans cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) += s.ns().saturating_sub(c) as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}
