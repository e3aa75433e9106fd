//! In-memory span recorder for the traced run.
//!
//! A span brackets one call from the benchmark into a layer's public
//! function: its name, start and end (ns since the recorder was made),
//! the span that caused it, the job it belongs to, and one count of the
//! work it did (ticks, bytes). Spans stay in memory until the run ends
//! and are then written out as JSON lines. With tracing off, `start`
//! hands back an inert guard and no clock is read.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Layer-specific work count: simulated ticks, payload bytes, ...
    pub work: u64,
    /// Free-form label: the mix name, `hit`/`miss`, ...
    pub tag: &'static str,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; record it with [`Guard::end`].
pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<(Span, Instant)>,
}

impl Guard<'_> {
    /// This span's id, to pass as the parent of nested spans.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|(s, _)| s.id)
    }

    pub fn end(self, work: u64, tag: &'static str) {
        if let Some((mut span, t0)) = self.open {
            let t1 = Instant::now();
            span.start_ns = (t0 - self.tracer.origin).as_nanos() as u64;
            span.end_ns = (t1 - self.tracer.origin).as_nanos() as u64;
            span.work = work;
            span.tag = tag;
            self.tracer
                .spans
                .lock()
                .expect("span list lock poisoned by a panicking thread")
                .push(span);
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn start(&self, name: &'static str, parent: Option<u64>, job: u64) -> Guard<'_> {
        let open = self.enabled.then(|| {
            let span = Span {
                name,
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                job,
                start_ns: 0,
                end_ns: 0,
                work: 0,
                tag: "",
            };
            (span, Instant::now())
        });
        Guard { tracer: self, open }
    }

    /// Run `f` inside a span with no work count.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let g = self.start(name, parent, job);
        let out = f();
        g.end(0, "");
        out
    }

    /// All closed spans named `name` (and tagged `tag`, unless empty).
    pub fn spans(&self, name: &str, tag: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking thread")
            .iter()
            .filter(|s| s.name == name && (tag.is_empty() || s.tag == tag))
            .cloned()
            .collect()
    }

    /// Durations in ms of the spans [`Tracer::spans`] selects.
    pub fn ms(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans(name, tag).iter().map(Span::ms).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking thread");
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"job\":{},\"start_ns\":{},\"end_ns\":{},\"work\":{},\"tag\":\"{}\"}}",
                s.name, s.id, parent, s.job, s.start_ns, s.end_ns, s.work, s.tag
            )?;
        }
        out.flush()
    }
}
