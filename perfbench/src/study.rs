//! The paper pipeline: honey study, wild study and full report, timed
//! from outside, plus the `paper_study` workload built on it.

use crate::cpu::CpuClock;
use crate::trace::{batch_median, median, setup_gap, Book, Tracer};
use crate::Run;
use iiscope::experiments::{self, ExperimentTiming};
use iiscope::subsystems::types::{chaosstats, servestats, wirestats};
use iiscope::{WildArtifacts, World, WorldConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `paper_study` builds its world `BUILDS` times (the last build is the
/// world studied), in batches of `BUILD_BATCH` spaced by the set-up gap;
/// `setup_s` is the median batch's mean build time. A build lasts about
/// 8 ms while the host's speed wanders over seconds, so many short
/// samples are averaged before the median.
const BUILDS: usize = 50;
const BUILD_BATCH: usize = 10;

/// `paper_study` studies `PASSES` fresh builds of its world one after
/// the other: a pass lasts about 20 s while the host's speed drifts
/// over tens of seconds, so a run averages over more of the drift.
const PASSES: usize = 3;

/// How often the day watcher reads the day version (the resolution of
/// every day duration).
const WATCH_POLL: Duration = Duration::from_micros(500);

/// Everything one pass of the pipeline produced.
pub struct StudyOut {
    /// Honey + wild + report wall time, s.
    pub work_s: f64,
    /// CPU time of the pipeline thread over honey + wild + report, s
    /// (at parallelism 1 the thread does all of the pipeline's work).
    pub cpu_s: f64,
    pub honey_s: f64,
    pub wild_s: f64,
    pub report_s: f64,
    pub report: String,
    pub timings: Vec<ExperimentTiming>,
    pub artifacts: WildArtifacts,
    /// Wire counters moved by the wild study.
    pub wire: Vec<(&'static str, u64)>,
    /// Chaos counters moved by the whole pass.
    pub chaos: Vec<(&'static str, u64)>,
    /// Simulated connections opened by the wild study.
    pub net_connections: u64,
    /// Wall duration of each sim day, s, when the day clock was watched.
    pub days: Vec<f64>,
}

fn delta(
    before: &[(&'static str, u64)],
    after: &[(&'static str, u64)],
) -> Vec<(&'static str, u64)> {
    before
        .iter()
        .zip(after)
        .map(|(&(k, b), &(_, a))| (k, a - b))
        .collect()
}

/// Value of `key` in a counter list (0 when absent).
pub fn counter(list: &[(&'static str, u64)], key: &str) -> u64 {
    list.iter().find(|(k, _)| *k == key).map_or(0, |&(_, v)| v)
}

/// Runs honey study, wild study and report on `world` on this thread.
/// With `watch`, a side thread timestamps the world's day-version bumps
/// (two per sim day, the first as the day starts) to time every sim
/// day.
fn run_pipeline(world: &World, tracer: &mut Tracer, watch: bool) -> Result<StudyOut, String> {
    let stop = AtomicBool::new(false);
    let clock = CpuClock::this_thread();
    std::thread::scope(|s| {
        let watcher = watch.then(|| s.spawn(|| watch_days(world, &stop)));
        let cpu_start = clock.now_s();
        let out = pipeline(world, tracer);
        let cpu_end = clock.now_s();
        stop.store(true, Ordering::Relaxed);
        let seen = watcher.map(|h| h.join().expect("day watcher panicked"));
        let mut out = out?;
        out.cpu_s = cpu_end - cpu_start;
        if let Some(seen) = seen {
            out.days = day_durations(&seen);
        }
        Ok(out)
    })
}

fn pipeline(world: &World, tracer: &mut Tracer) -> Result<StudyOut, String> {
    let chaos_before = chaosstats::snapshot();
    let start = Instant::now();
    let (honey, honey_s) = tracer.span("honey.study", |_| {
        world.run_honey_study(world.study_start())
    });
    let honey = honey.map_err(|e| format!("honey study: {e}"))?;
    let wire_before = wirestats::snapshot();
    let conns_before = world.net.metrics().connections;
    let (artifacts, wild_s) = tracer.span("wild.study", |_| world.run_wild_study());
    let artifacts = artifacts.map_err(|e| format!("wild study: {e}"))?;
    let wire = delta(&wire_before, &wirestats::snapshot());
    let net_connections = world.net.metrics().connections - conns_before;
    let ((report, timings), report_s) = tracer.span("report.render", |_| {
        experiments::full_report_timed(world, &artifacts, honey)
    });
    let work_s = start.elapsed().as_secs_f64();
    Ok(StudyOut {
        work_s,
        cpu_s: 0.0,
        honey_s,
        wild_s,
        report_s,
        report,
        timings,
        artifacts,
        wire,
        chaos: delta(&chaos_before, &chaosstats::snapshot()),
        net_connections,
        days: Vec::new(),
    })
}

/// Polls the day version until `stop`, returning when each version
/// value was first seen.
fn watch_days(world: &World, stop: &AtomicBool) -> Vec<(u64, Instant)> {
    let mut seen = vec![(world.day_version.get(), Instant::now())];
    while !stop.load(Ordering::Relaxed) {
        let v = world.day_version.get();
        let last = seen.last().expect("seeded above").0;
        if v > last {
            let now = Instant::now();
            seen.extend((last + 1..=v).map(|x| (x, now)));
        }
        std::thread::sleep(WATCH_POLL);
    }
    seen
}

/// Sim-day durations from version sightings: day `d` starts at version
/// `base + 2d + 1` and ends at `base + 2d + 2`.
fn day_durations(seen: &[(u64, Instant)]) -> Vec<f64> {
    let base = seen[0].0;
    let at = |v: u64| seen.iter().find(|(x, _)| *x == v).map(|&(_, t)| t);
    (0..)
        .map_while(|d: u64| {
            let start = at(base + 2 * d + 1)?;
            let end = at(base + 2 * d + 2)?;
            Some((end - start).as_secs_f64())
        })
        .collect()
}

/// Day durations split into crawl days (sim + milk + crawl + fold) and
/// sim-only days, in `unit`s per second.
fn split_days(cfg: &WorldConfig, days: &[f64], unit: f64) -> (Vec<f64>, Vec<f64>) {
    let (crawl, sim): (Vec<_>, Vec<_>) = days
        .iter()
        .enumerate()
        .partition(|(d, _)| (*d as u64).is_multiple_of(cfg.crawl_cadence_days));
    let scale = |v: Vec<(usize, &f64)>| v.into_iter().map(|(_, s)| s * unit).collect();
    (scale(crawl), scale(sim))
}

/// Records the study's layer rows (traced runs).
pub fn trace_rows(book: &mut Book, world: &World, out: &StudyOut) {
    book.set("honey.study_s", out.honey_s);
    book.set("wild.study_s", out.wild_s);
    book.set("report.render_s", out.report_s);
    for t in &out.timings {
        let name = format!("report.{}_s", t.label.to_lowercase().replace(' ', "_"));
        book.set(&name, t.seconds);
    }
    for key in [
        "bytes_delivered",
        "tls_records_sealed",
        "tls_records_opened",
        "json_scanner_events",
        "walls_streamed",
        "http_view_parses",
        "delivery_buffers_coalesced",
    ] {
        book.set(&format!("wire.{key}"), counter(&out.wire, key) as f64);
    }
    book.set("netsim.connections", out.net_connections as f64);
    for key in ["milks_abandoned", "crawls_abandoned", "retries"] {
        book.set(&format!("chaos.{key}"), counter(&out.chaos, key) as f64);
    }
    book.set("monitor.milks", milks_planned(world) as f64);
    let observations = out.artifacts.offer_observations as f64;
    let unique = out.artifacts.dataset.unique_offer_count() as f64;
    book.set("dataset.unique_share", unique / observations.max(1.0));
    let (crawl, sim) = split_days(&world.cfg, &out.days, 1e3);
    book.set_from("wild.crawl_day_p50_ms", median(&mut crawl.clone()), crawl);
    book.set_from("wild.sim_day_p50_ms", median(&mut sim.clone()), sim);
}

/// Milking runs the wild study plans: every affiliate app from every
/// vantage country on every crawl day.
pub fn milks_planned(world: &World) -> u64 {
    let cfg = &world.cfg;
    let crawl_days = (0..=cfg.monitoring_days)
        .filter(|d| d % cfg.crawl_cadence_days == 0)
        .count();
    (world.affiliate_apps.len() * cfg.milk_countries.len() * crawl_days) as u64
}

/// Milks and crawls attempted by a pass, and how many were abandoned.
pub fn operations(world: &World, out: &StudyOut) -> (u64, u64) {
    let d = &out.artifacts.dataset;
    let crawls_ok = d.profiles().len() + d.charts_len() + out.artifacts.apks.len();
    let milks_failed = counter(&out.chaos, "milks_abandoned");
    let crawls_failed = counter(&out.chaos, "crawls_abandoned");
    let attempted = milks_planned(world) + crawls_ok as u64 + crawls_failed;
    (attempted, milks_failed + crawls_failed)
}

/// `WorldConfig::paper(seed)` at the given parallelism.
pub fn paper(seed: u64, parallelism: usize) -> WorldConfig {
    let mut cfg = WorldConfig::paper(seed);
    cfg.parallelism = parallelism;
    cfg
}

/// Builds the world `reps` times, in batches of `batch` back-to-back
/// builds spaced by [`crate::trace::SETUP_GAP`]; returns the last build and every
/// build's time.
pub fn build_reps(
    cfg: &WorldConfig,
    reps: usize,
    batch: usize,
) -> Result<(World, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut world = None;
    for i in 0..reps {
        drop(world.take());
        setup_gap(i, batch);
        let t = Instant::now();
        let w = World::build(cfg.clone()).map_err(|e| format!("world build: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        world = Some(w);
    }
    Ok((world.expect("reps >= 1"), times))
}

/// The sim-only pass: the same world with the crawl cadence past the
/// monitoring window, so the day loop measures on day 0 only.
fn sim_only_s(cfg: &WorldConfig, tracer: &mut Tracer) -> Result<f64, String> {
    let mut cfg = cfg.clone();
    cfg.crawl_cadence_days = cfg.monitoring_days + 1;
    let world = World::build(cfg).map_err(|e| format!("world build: {e}"))?;
    let (artifacts, secs) = tracer.span("wild.sim_only", |_| world.run_wild_study());
    artifacts.map_err(|e| format!("sim-only wild study: {e}"))?;
    Ok(secs)
}

/// Wall time of the wild study alone on a fresh world of `cfg` (the
/// fan-out row: `cfg` at parallelism 2).
fn wild_study_s(cfg: &WorldConfig, tracer: &mut Tracer) -> Result<f64, String> {
    let world = World::build(cfg.clone()).map_err(|e| format!("world build: {e}"))?;
    let (artifacts, secs) = tracer.span("wild.study_p2", |_| world.run_wild_study());
    artifacts.map_err(|e| format!("parallel wild study: {e}"))?;
    Ok(secs)
}

/// `paper_study`: build the paper world at parallelism 1, then run the
/// honey study, the wild study and the full report on it, [`PASSES`]
/// times on fresh builds, and serve the last pass's world (see
/// [`crate::serve::serve_studied`]). Traced runs make one pass, sample
/// a cached router in-process during it (cache books, live handle
/// times), and time the wild study at parallelism 2 and sim-only.
pub fn paper_study(run: &mut Run) -> Result<(), String> {
    let cfg = paper(run.seed, 1);
    let (built, _) = run
        .tracer
        .span("setup", |_| build_reps(&cfg, BUILDS, BUILD_BATCH));
    let (world, builds) = built?;
    let setup = batch_median(&builds, BUILD_BATCH);
    run.book.set_from("setup_s", setup, builds.clone());
    run.book.set_from("world.build_s", setup, builds);

    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    // Traced runs report no end-to-end metric, so one pass does.
    let passes = if run.tracer.enabled() { 1 } else { PASSES };
    let (mut built, mut studied) = (Some(world), None);
    for pass in 0..passes {
        // Each pass's world is dropped before the next one is built.
        let world = match built.take() {
            Some(world) => world,
            None => World::build(cfg.clone()).map_err(|e| format!("world build: {e}"))?,
        };
        let traced = run.tracer.enabled() && pass == 0;
        let before = servestats::snapshot();
        let (out, live) = if traced {
            let study = || run_pipeline(&world, &mut run.tracer, true);
            crate::serve::with_live_sampler(&world, study)
        } else {
            (run_pipeline(&world, &mut run.tracer, false), Vec::new())
        };
        let out = out?;
        run.gate("report", crate::check::report(run.seed, &out.report));
        let (attempted, failed) = operations(&world, &out);
        run.attempted += attempted;
        run.failed += failed;
        cpu.push(out.cpu_s);
        wall.push(out.work_s);
        if traced {
            trace_rows(&mut run.book, &world, &out);
            crate::serve::live_rows(&mut run.book, &before, live);
            let sim_only = sim_only_s(&cfg, &mut run.tracer)?;
            run.book.set("wild.sim_only_s", sim_only);
            run.book.set("wild.measure_s", out.wild_s - sim_only);
            crate::probes::run_all(run, &cfg, Some((&world, &out)))?;
            let fanned = wild_study_s(&paper(run.seed, 2), &mut run.tracer)?;
            run.book.set("wild.study_p2_s", fanned);
        }
        if pass + 1 == passes {
            studied = Some(crate::serve::serve_studied(run, &world)?);
        }
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    run.book.set_from("cpu_s", mean(&cpu), cpu);
    run.book.note("cpu_s.wall_s", mean(&wall));
    let (p50, served) = studied.expect("the last pass serves its world");
    crate::serve::latency_notes(&mut run.book, &served);
    run.book.set_from("p50_us", median(&mut p50.clone()), p50);
    Ok(())
}
