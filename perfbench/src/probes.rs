//! Layer probes of traced runs: timed calls into each layer's public
//! functions, after the run's checked phase, on a world of the run's
//! configuration whose day loop stopped halfway through the monitoring
//! window, where walls, store and charts carry live campaigns.

use crate::mix;
use crate::study::{milks_planned, StudyOut};
use crate::trace::{median, Book};
use crate::Run;
use iiscope::chaos::CrashPlan;
use iiscope::subsystems::monitor::infra::parse_intercepts;
use iiscope::subsystems::monitor::{Dataset, FuzzerConfig, UiFuzzer};
use iiscope::subsystems::playstore::ChartKind;
use iiscope::subsystems::types::{Country, Error};
use iiscope::subsystems::wire::tls::{open_records, seal_records, RecordType};
use iiscope::subsystems::wire::{Handler, Request, Response};
use iiscope::wildsim::WildRunOptions;
use iiscope::{World, WorldConfig};
use std::time::Instant;

/// Store pages, APKs and profiles probed per call site.
const PACKAGES: usize = 100;
/// Offer observations re-ingested by the dataset probe.
const INGEST_ROWS: usize = 200_000;
/// Repetitions of the nanosecond-scale wire probes.
const WIRE_REPS: usize = 2_000;

/// Metric rows a probe produced.
type Rows = Vec<(&'static str, f64)>;

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Builds a world of `cfg` and runs its day loop (sim only: the crawl
/// cadence past the window) up to the middle of the monitoring window.
fn mid_study_world(cfg: &WorldConfig) -> Result<World, String> {
    let mut cfg = cfg.clone();
    cfg.crawl_cadence_days = cfg.monitoring_days + 1;
    let kill_day = cfg.monitoring_days / 2;
    let world = World::build(cfg).map_err(|e| format!("world build: {e}"))?;
    let stopped = world.run_wild_study_with(WildRunOptions {
        crash: Some(CrashPlan { kill_day }),
        ..WildRunOptions::default()
    });
    match stopped {
        Err(Error::Interrupted(_)) => Ok(world),
        Err(e) => Err(format!("mid-study world: {e}")),
        Ok(_) => Err("mid-study world: the day loop did not stop".to_string()),
    }
}

/// Runs every probe and records its rows; `study` is the run's own
/// pipeline pass, when it ran one.
pub fn run_all(
    run: &mut Run,
    cfg: &WorldConfig,
    study: Option<(&World, &StudyOut)>,
) -> Result<(), String> {
    let (world, _) = run
        .tracer
        .span("probe.mid_study_world", |_| mid_study_world(cfg));
    let world = &world?;
    let (milk, _) = run.tracer.span("probe.monitor", |_| monitor(world));
    let milk = milk?;
    let (r, _) = run.tracer.span("probe.servefront", |_| servefront(world));
    let (hit_us, renders) = r?;
    let (wire, _) = run.tracer.span("probe.wire", |_| wire(world));
    let (accept, _) = run
        .tracer
        .span("probe.accept", |_| crate::serve::accept_us(world));
    let accept = accept?;
    let ingest = study.map(|(studied, out)| {
        run.tracer
            .span("probe.ingest", |_| ingest_us_per_1k(studied, out))
            .0
    });

    let b = &mut run.book;
    for (name, v) in milk.iter().chain(&wire) {
        b.set(name, *v);
    }
    b.set("servefront.hit_us", hit_us);
    for (class, v) in renders {
        b.set(&format!("servefront.render_us.{class}"), v);
    }
    b.set("serve.accept_us", accept);
    if let (Some(ingest), Some((studied, out))) = (ingest, study) {
        b.set("dataset.ingest_us_per_1k", ingest);
        let share = unattributed(b, studied, out, ingest);
        b.set("wild.unattributed_share", share);
    }
    Ok(())
}

/// Milks every affiliate app from every vantage country (the fuzzer's
/// drive and the intercept parse timed apart), then crawls profiles,
/// charts and APKs.
fn monitor(world: &World) -> Result<Rows, String> {
    let fuzzer = UiFuzzer::new(FuzzerConfig {
        max_scroll_pages: world.cfg.fuzzer_pages,
    });
    let (mut drive, mut parse) = (Vec::new(), Vec::new());
    for app in &world.affiliate_apps {
        for &country in &world.cfg.milk_countries {
            let _stale = world.infra.intercepts.take_all();
            let mut client = world
                .infra
                .phone_client(country)
                .map_err(|e| format!("phone client: {e}"))?;
            let ((run, secs), intercepts) = world.infra.intercepts.tap_scope(|| {
                let t = Instant::now();
                let run = fuzzer.drive(app, &mut client);
                (run, us(t))
            });
            run.map_err(|e| format!("fuzzer drive: {e}"))?;
            drive.push(secs);
            let t = Instant::now();
            std::hint::black_box(parse_intercepts(&intercepts, country));
            parse.push(us(t));
        }
    }
    let now = world.net.clock().now();
    let packages: Vec<&str> = world
        .plan
        .apps
        .iter()
        .take(PACKAGES)
        .map(|a| a.package.as_str())
        .collect();
    let (mut profile, mut apk, mut chart) = (Vec::new(), Vec::new(), Vec::new());
    for (i, pkg) in packages.iter().enumerate() {
        let mut crawler = world.crawler_indexed(i as u64);
        let t = Instant::now();
        crawler
            .profile(pkg, now)
            .map_err(|e| format!("profile crawl: {e}"))?;
        profile.push(us(t));
        let t = Instant::now();
        crawler.apk(pkg).map_err(|e| format!("apk pull: {e}"))?;
        apk.push(us(t));
    }
    let mut crawler = world.crawler();
    for _ in 0..5 {
        for kind in ChartKind::ALL {
            let t = Instant::now();
            crawler
                .chart(kind, world.cfg.chart_size, now)
                .map_err(|e| format!("chart crawl: {e}"))?;
            chart.push(us(t));
        }
    }
    Ok(vec![
        ("monitor.fuzz_drive_us", median(&mut drive)),
        ("monitor.parse_intercepts_us", median(&mut parse)),
        ("monitor.profile_us", median(&mut profile)),
        ("monitor.chart_us", median(&mut chart)),
        ("monitor.apk_us", median(&mut apk)),
    ])
}

/// A cache hit on the cached router and one render per route class on
/// the uncached router, in-process, µs (medians).
fn servefront(world: &World) -> Result<(f64, Rows), String> {
    let ctx = crate::check::socket_ctx(Country::Us, world.net.clock().now());
    let hot = mix::hot(world);
    let cached = world.serve_router();
    let reqs: Vec<Request> = hot
        .targets
        .iter()
        .map(|t| Request::get(t.clone()))
        .collect();
    for r in &reqs {
        cached.handle(r, &ctx);
    }
    let mut hits = Vec::new();
    for _ in 0..500 {
        for r in &reqs {
            let t = Instant::now();
            std::hint::black_box(cached.handle(r, &ctx));
            hits.push(us(t));
        }
    }
    let uncached = world.serve_router_uncached();
    let catalog = mix::catalog(world);
    let mut renders = Vec::new();
    for (class, prefix) in [
        ("wall", "/wall/"),
        ("store", "/store/apps/"),
        ("chart", "/store/charts"),
        ("apk", "/apk"),
    ] {
        let mut times: Vec<f64> = catalog
            .targets
            .iter()
            .filter(|t| t.starts_with(prefix))
            .take(PACKAGES)
            .map(|target| {
                let req = Request::get(target.clone());
                let t = Instant::now();
                std::hint::black_box(uncached.handle(&req, &ctx));
                us(t)
            })
            .collect();
        if times.is_empty() {
            return Err(format!("no {class} targets in the catalog"));
        }
        renders.push((class, median(&mut times)));
    }
    Ok((median(&mut hits), renders))
}

/// TLS record seal/open on page-sized payloads (ns per KiB), and HTTP
/// request parse / response encode on the hot mix (ns each).
fn wire(world: &World) -> Rows {
    let ctx = crate::check::socket_ctx(Country::Us, world.net.clock().now());
    let hot = mix::hot(world);
    let payload: Vec<u8> = (0..16 * 1024u32).map(|i| (i * 31 % 251) as u8).collect();
    let kib = payload.len() as f64 / 1024.0;
    let (mut seal, mut open) = (Vec::new(), Vec::new());
    for i in 0..WIRE_REPS as u64 {
        let mut seq = i;
        let t = Instant::now();
        let sealed = seal_records(0x5eed ^ i, &mut seq, RecordType::AppData, &payload);
        seal.push(t.elapsed().as_nanos() as f64 / kib);
        let mut seq = i;
        let t = Instant::now();
        let opened = open_records(0x5eed ^ i, &mut seq, &sealed);
        open.push(t.elapsed().as_nanos() as f64 / kib);
        assert_eq!(opened.ok().as_deref(), Some(&payload[..]), "TLS round trip");
    }
    let router = world.serve_router_uncached();
    let responses: Vec<Response> = hot
        .targets
        .iter()
        .map(|t| router.handle(&Request::get(t.clone()), &ctx))
        .collect();
    let (mut parse, mut encode) = (Vec::new(), Vec::new());
    for _ in 0..WIRE_REPS / 10 {
        for (wire, resp) in hot.wires.iter().zip(&responses) {
            let t = Instant::now();
            std::hint::black_box(Request::parse(wire).ok());
            parse.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            std::hint::black_box(resp.encode());
            encode.push(t.elapsed().as_nanos() as f64);
        }
    }
    vec![
        ("wire.seal_ns_per_kb", median(&mut seal)),
        ("wire.open_ns_per_kb", median(&mut open)),
        ("wire.http_parse_ns", median(&mut parse)),
        ("wire.http_encode_ns", median(&mut encode)),
    ]
}

/// Re-ingests the study's first offer observations into a fresh
/// dataset; µs per 1k offers.
fn ingest_us_per_1k(world: &World, out: &StudyOut) -> f64 {
    let rows: Vec<_> = out.artifacts.dataset.offers().take(INGEST_ROWS).collect();
    let n = rows.len().max(1) as f64;
    let mut dataset = Dataset::with_interner(world.syms.clone());
    let t = Instant::now();
    dataset.add_offers(rows);
    us(t) / n * 1e3
}

/// Share of `wild.study_s` the layer rows leave unexplained: the study
/// minus its sim-only time and minus the measurement work rebuilt from
/// probe unit costs × counts, spread over the study's workers.
fn unattributed(b: &Book, world: &World, out: &StudyOut, ingest_us_per_1k: f64) -> f64 {
    let g = |k: &str| b.get(k).unwrap_or(0.0);
    let d = &out.artifacts.dataset;
    let measure_us = milks_planned(world) as f64
        * (g("monitor.fuzz_drive_us") + g("monitor.parse_intercepts_us"))
        + d.profiles().len() as f64 * g("monitor.profile_us")
        + d.charts_len() as f64 * g("monitor.chart_us")
        + out.artifacts.apks.len() as f64 * g("monitor.apk_us")
        + out.artifacts.offer_observations as f64 / 1e3 * ingest_us_per_1k;
    let attributed = g("wild.sim_only_s") + measure_us / 1e6 / world.cfg.parallelism.max(1) as f64;
    1.0 - attributed / out.wild_s
}
