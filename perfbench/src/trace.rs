//! Metric book and span recorder.
//!
//! Every number a run reports goes through [`Book`]: a value per metric
//! name plus the raw samples it was reduced from. Spans are recorded
//! only in traced runs, from this benchmark's own code around calls into
//! the program's public functions; they stay in memory and are written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Reported values and their raw samples, keyed by metric name, plus
/// notes that qualify them (sample counts, generator lateness).
#[derive(Default)]
pub struct Book {
    values: BTreeMap<String, f64>,
    raw: BTreeMap<String, Vec<f64>>,
    notes: BTreeMap<String, f64>,
}

impl Book {
    /// Records a single measured value (its own raw sample).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
        self.raw.insert(name.to_string(), vec![value]);
    }

    /// Records a value reduced from several raw samples.
    pub fn set_from(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        self.values.insert(name.to_string(), value);
        self.raw.insert(name.to_string(), samples);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Raw samples of every recorded metric.
    pub fn raw(&self) -> &BTreeMap<String, Vec<f64>> {
        &self.raw
    }

    /// Records a note printed beside the metrics.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.insert(name.to_string(), value);
    }

    /// Every note recorded.
    pub fn notes(&self) -> &BTreeMap<String, f64> {
        &self.notes
    }
}

/// Median of `xs` (0 when empty). Sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Idle gap between set-up batches. Slow spells on the host last a few
/// hundred milliseconds, so batches spaced this far apart sample
/// different moments and the median sets a slow spell aside.
pub const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(400);

/// Sleeps `SETUP_GAP` before every batch of `batch` samples but the
/// first; call it before taking sample `i`.
pub fn setup_gap(i: usize, batch: usize) {
    if i > 0 && i.is_multiple_of(batch) {
        std::thread::sleep(SETUP_GAP);
    }
}

/// Median over consecutive batches of `batch` samples of each batch's
/// mean: short samples that flip between fast and slow host states are
/// averaged within a batch before the median rejects outlying batches.
pub fn batch_median(samples: &[f64], batch: usize) -> f64 {
    let mut means: Vec<f64> = samples
        .chunks(batch)
        .map(|b| b.iter().sum::<f64>() / b.len() as f64)
        .collect();
    median(&mut means)
}

/// Nearest-rank percentile of `xs` (0 when empty). Sorts in place.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// One recorded span: a named interval and the span that caused it.
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Disabled recorders record nothing and cost
/// one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` for untraced runs.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span, and returns its result and duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: 0,
            });
            let id = self.spans.len() - 1;
            self.open.push(id);
            id
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_ns = self.ns(end);
        }
        (out, (end - start).as_secs_f64())
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Per-span cost of recording, in seconds, measured on a throwaway
    /// recorder (the basis of `trace.overhead_share`).
    pub fn calibrate() -> f64 {
        const N: usize = 20_000;
        let mut t = Tracer::new(true);
        let start = Instant::now();
        for _ in 0..N {
            t.span("calibrate", |_| ());
        }
        let with = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..N {
            std::hint::black_box(Instant::now());
            std::hint::black_box(Instant::now());
        }
        // The two clock reads bracket the traced call in untraced runs
        // too; only the bookkeeping on top of them is tracing overhead.
        let without = start.elapsed().as_secs_f64();
        ((with - without) / N as f64).max(0.0)
    }

    /// Spans as JSON lines (name, parent index, start/end ns since the
    /// run's epoch, and self time: duration minus covered child time).
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i]),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}
