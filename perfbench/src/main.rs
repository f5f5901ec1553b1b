//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_study|serve_hot --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in
//! this process. Untraced runs (`--trace 0`) report the end-to-end
//! metrics; traced runs (`--trace 1`) record spans around calls into
//! each layer and report the per-layer metrics. The metric names and
//! units come from `BENCHMARK.json`; a metric the run cannot produce is
//! an error. Every run checks its outputs, and a failed check fails the
//! run (exit 1). The last line of standard output is the result object;
//! the line before it carries the host fingerprint and raw samples.
//! See `perfbench/README.md` for the workloads and the layer map.

mod check;
mod client;
mod cpu;
mod host;
mod mix;
mod probes;
mod serve;
mod study;
mod trace;

use iiscope::subsystems::types::rss::peak_rss_bytes;
use iiscope::subsystems::wire::Json;
use std::time::Instant;
use trace::{Book, Tracer};

/// Where spans and run records are written, relative to the checkout.
const OUT_DIR: &str = ".perfbench";

/// State of one benchmark run.
pub struct Run {
    pub seed: u64,
    /// `--seconds`: sets the length of every fixed client schedule.
    pub seconds: u64,
    pub tracer: Tracer,
    pub book: Book,
    /// Operations attempted and failed (the result's counts).
    pub attempted: u64,
    pub failed: u64,
    /// Names of passed gates, and descriptions of failed ones.
    passed: Vec<&'static str>,
    failures: Vec<String>,
}

impl Run {
    /// Records the outcome of one correctness gate.
    pub fn gate(&mut self, name: &'static str, result: Result<(), String>) {
        match result {
            Ok(()) => self.passed.push(name),
            Err(why) => {
                eprintln!("perfbench: check {name} FAILED: {why}");
                self.failures.push(format!("{name}: {why}"));
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload paper_study|serve_hot --seed N \
         --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s >= 1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(spec: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    let list = spec
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json {key} entry without name/unit"))
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))
        .and_then(|s| Json::parse(&s).map_err(|e| format!("BENCHMARK.json: {e:?}")));
    let result = spec.and_then(|spec| bench(&args, &spec));
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the workload and prints its result; `Ok(false)` when a
/// correctness gate failed.
fn bench(args: &Args, spec: &Json) -> Result<bool, String> {
    let e2e = declared(spec, "end_to_end")?;
    let layer = declared(spec, "per_layer")?;
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        book: Book::default(),
        attempted: 0,
        failed: 0,
        passed: Vec::new(),
        failures: Vec::new(),
    };
    let started = Instant::now();
    match args.workload.as_str() {
        "paper_study" => study::paper_study(&mut run)?,
        "serve_hot" => serve::serve_hot(&mut run)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    if run.attempted == 0 {
        return Err("the workload attempted no operation".to_string());
    }
    run.book.set(
        "ok_share",
        (run.attempted - run.failed) as f64 / run.attempted as f64,
    );
    let rss = peak_rss_bytes().ok_or("VmHWM unavailable")?;
    run.book
        .set("peak_rss_mb", rss as f64 / (1u64 << 20) as f64);
    let record = format!("{OUT_DIR}/untraced-{}-{}.txt", args.workload, args.seed);
    if args.trace {
        let wall = started.elapsed().as_secs_f64();
        let per_span = Tracer::calibrate();
        run.book.set(
            "trace.overhead_share",
            per_span * run.tracer.len() as f64 / wall,
        );
        let untraced = std::fs::read_to_string(&record)
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok());
        let traced = run.book.get("cpu_s").ok_or("cpu_s not measured")?;
        run.book.set(
            "trace.work_delta_share",
            untraced.map_or(0.0, |u| traced / u - 1.0),
        );
        let path = format!("{OUT_DIR}/trace-{}-{}.json", args.workload, args.seed);
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, run.tracer.to_json()))
            .map_err(|e| format!("{path}: {e}"))?;
    } else if let Some(cpu) = run.book.get("cpu_s") {
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&record, format!("{cpu}\n")))
            .map_err(|e| format!("{record}: {e}"))?;
    }

    // Every recorded name must be declared, so the code and
    // BENCHMARK.json cannot drift apart.
    for name in run.book.raw().keys() {
        if !e2e.iter().chain(&layer).any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    let wanted = if args.trace { &layer } else { &e2e };
    let mut metrics = Vec::new();
    let mut not_exercised = Vec::new();
    for (name, unit) in wanted {
        let value = match run.book.get(name) {
            Some(v) => v,
            // A layer this workload never calls did no work in it.
            None if args.trace => {
                not_exercised.push(format!("\"{name}\""));
                0.0
            }
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let raw: Vec<String> = run
        .book
        .raw()
        .iter()
        .map(|(k, v)| {
            let xs: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("\"{k}\": [{}]", xs.join(", "))
        })
        .collect();
    let notes: Vec<String> = run
        .book
        .notes()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let gates: Vec<String> = run.passed.iter().map(|g| format!("\"{g}\"")).collect();
    let failures: Vec<String> = run
        .failures
        .iter()
        .map(|f| format!("\"{}\"", host::escape(f)))
        .collect();
    println!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {}, \"gates_passed\": [{}], \"gates_failed\": [{}], \
         \"not_exercised\": [{}], \"notes\": {{{}}}, \"raw\": {{{}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::fingerprint(),
        gates.join(", "),
        failures.join(", "),
        not_exercised.join(", "),
        notes.join(", "),
        raw.join(", "),
    );
    let correct = run.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
    Ok(correct)
}
