//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (name, start, end, parent span, request id),
//! kept in memory, and written out as JSON lines when the run ends. A
//! span's self time is its duration minus the part of it covered by its
//! child spans; a layer's self time is the sum over its spans.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: u64,
}

/// Thread-safe span store shared by every client of a run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.map(|p| p.0),
            request,
        });
        SpanId(spans.len() - 1)
    }

    /// Close a span and return its duration in ms.
    pub fn close(&self, id: SpanId) -> f64 {
        let end = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[id.0].end = end;
        (end - spans[id.0].start) as f64 / 1e6
    }

    /// Run `f` inside a span named `name`; returns its value and the
    /// span's duration in ms.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let out = f();
        (out, self.close(id))
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Self time per layer in ms, where a span's layer is its name up to
    /// the first `.` (`twigserve.catalog.route` → `twigserve`).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let (mut busy, mut reach) = (0u64, s.start);
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    busy += b - a;
                    reach = b;
                }
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.end - s.start - busy) as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        w.flush()
    }
}

/// Time `f`, inside a span when a tracer is given; returns its value and
/// the duration in ms.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(tr) => tr.time(name, parent, request, f),
        None => {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64() * 1e3)
        }
    }
}

/// Per-layer samples of a traced run, keyed by metric name; a metric's
/// value is the mean of its samples unless set outright.
#[derive(Default)]
pub struct Layers {
    samples: Mutex<BTreeMap<&'static str, (f64, u64)>>,
}

impl Layers {
    pub fn add(&self, name: &'static str, value: f64) {
        let mut m = self.samples.lock().expect("layer samples poisoned");
        let e = m.entry(name).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    /// Replace every sample of `name` with one value.
    pub fn set(&self, name: &'static str, value: f64) {
        self.samples
            .lock()
            .expect("layer samples poisoned")
            .insert(name, (value, 1));
    }

    /// Mean of `name`'s samples; 0 when it has none.
    pub fn mean(&self, name: &str) -> f64 {
        let m = self.samples.lock().expect("layer samples poisoned");
        m.get(name)
            .map_or(0.0, |&(s, n)| if n == 0 { 0.0 } else { s / n as f64 })
    }

    /// Sum of `name`'s samples.
    pub fn sum(&self, name: &str) -> f64 {
        let m = self.samples.lock().expect("layer samples poisoned");
        m.get(name).map_or(0.0, |&(s, _)| s)
    }
}

/// What a traced phase records into: spans and per-layer samples.
#[derive(Clone, Copy)]
pub struct Probe<'a> {
    pub tracer: &'a Tracer,
    pub layers: &'a Layers,
}
