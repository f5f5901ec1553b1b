//! Serving: the `serve_hot` workload (fresh world, cache-hit traffic),
//! `paper_study`'s served phase (studied world, every request renders)
//! and the in-process live sampler of `paper_study`'s traced run.

use crate::client::{self, Conn, Outcome};
use crate::cpu::CpuClock;
use crate::mix::{self, Mix};
use crate::study::{self, counter};
use crate::trace::{batch_median, median, percentile, setup_gap, Book};
use crate::Run;
use iiscope::servefront::WorldRouter;
use iiscope::subsystems::serve::{AdminHandler, ServeConfig, Server, ShutdownFlag};
use iiscope::subsystems::types::{servestats, SeedFork};
use iiscope::subsystems::wire::{Handler, Request};
use iiscope::{World, WorldConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed before the timed phase (the last one is the server
/// measured), in spaced batches: `setup_s` is the median batch's mean.
/// One set-up lasts 10–40 ms, while the host's speed wanders over
/// seconds, so many short samples are averaged before the median.
const HOT_SETUPS: usize = 30;
const HOT_SETUP_BATCH: usize = 5;
/// Client connections (and threads): the host's two cores.
const CONNS: usize = 2;
/// `serve_hot` open-loop rates, requests/s: keep-alive across both
/// connections, and one fresh connection per request.
const HOT_LOW_RPS: f64 = 5_000.0;
const HOT_HIGH_RPS: f64 = 40_000.0;
const FRESH_RPS: f64 = 100.0;
/// Shares of a cycle's length given to the low, high and fresh windows.
const LOW_SHARE: f64 = 0.3;
const HIGH_SHARE: f64 = 0.4;
const FRESH_SHARE: f64 = 0.3;
/// Closed-loop ceiling of traced runs: requests per second of schedule.
const CEILING_PER_SECOND: f64 = 60_000.0;
/// Length of one `serve_hot` cycle's schedule, s; a run has
/// `--seconds / HOT_CYCLE_S` cycles.
const HOT_CYCLE_S: f64 = 0.5;
/// `paper_study`'s served phase: keep-alive requests/s over one
/// connection to the studied world.
const STUDIED_RPS: f64 = 5_000.0;
/// Fresh-connection `/healthz` exchanges timed by the accept probe.
const ACCEPT_PROBES: usize = 50;

/// A started server and the state needed to verify and stop it.
pub struct Served {
    pub world: World,
    pub server: Server,
    flag: ShutdownFlag,
    pub cfg: ServeConfig,
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server (outside every timed section) and hands the
    /// world back.
    pub fn stop(self) -> World {
        self.flag.trigger();
        self.server.stop();
        self.world
    }
}

/// Starts `router` behind `Server::start`, as `repro --serve` does
/// (admin routes included).
pub fn start(
    router: Arc<WorldRouter>,
    cfg: ServeConfig,
) -> std::io::Result<(Server, ShutdownFlag)> {
    let flag = ShutdownFlag::new();
    let handler = Arc::new(AdminHandler::new(router, flag.clone()));
    let server = Server::start("127.0.0.1:0", cfg, handler)?;
    Ok((server, flag))
}

/// One set-up: build, bind, and one warm pass rendering every mix
/// target into the served router's cache, under the key a socket
/// client's request carries. The pass runs in-process, so socket
/// scheduling and the 2 ms accept poll stay out of `setup_s`; a
/// `/healthz` round trip afterwards, untimed, proves the server up.
fn setup_once(cfg: &WorldConfig) -> Result<(Served, Mix, f64, f64), String> {
    let t = Instant::now();
    let world = World::build(cfg.clone()).map_err(|e| format!("world build: {e}"))?;
    let build_s = t.elapsed().as_secs_f64();
    let scfg = ServeConfig::default();
    let router = world.serve_router();
    let (server, flag) =
        start(Arc::clone(&router), scfg.clone()).map_err(|e| format!("bind: {e}"))?;
    let built_s = t.elapsed().as_secs_f64();
    let mix = mix::hot(&world);
    let ctx = crate::check::socket_ctx(scfg.vantage, scfg.sim_now);
    let t = Instant::now();
    for target in &mix.targets {
        let status = router.handle(&Request::get(target.clone()), &ctx).status;
        if status != 200 {
            return Err(format!("warm pass: {target} answered {status}"));
        }
    }
    let warm_s = t.elapsed().as_secs_f64();
    let served = Served {
        world,
        server,
        flag,
        cfg: scfg,
    };
    let health = Request::get("/healthz".to_string()).encode();
    Conn::open(served.addr())
        .and_then(|mut c| c.exchange(&health))
        .map_err(|e| format!("/healthz: {e}"))?;
    Ok((served, mix, build_s, built_s + warm_s))
}

/// Runs `HOT_SETUPS` set-ups in batches of `HOT_SETUP_BATCH` spaced by
/// [`crate::trace::SETUP_GAP`], records their times, and keeps the last
/// one's server; earlier servers are stopped outside the timed
/// sections.
fn setup(run: &mut Run, cfg: &WorldConfig) -> Result<(Served, Mix), String> {
    let (n, batch) = (HOT_SETUPS, HOT_SETUP_BATCH);
    let (r, _) = run.tracer.span("setup", |_| {
        let (mut builds, mut setups) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut kept = None;
        for i in 0..n {
            if let Some((served, _)) = kept.take() {
                drop(Served::stop(served));
            }
            setup_gap(i, batch);
            let (served, mix, build_s, setup_s) = setup_once(cfg)?;
            builds.push(build_s);
            setups.push(setup_s);
            kept = Some((served, mix));
        }
        Ok::<_, String>((kept.expect("n >= 1"), builds, setups))
    });
    let (kept, builds, setups) = r?;
    let b = &mut run.book;
    b.set_from("world.build_s", batch_median(&builds, batch), builds);
    b.set_from("setup_s", batch_median(&setups, batch), setups);
    Ok(kept)
}

/// Checks that the server answered exactly the requests the clients
/// completed since `before`; returns the server's count.
fn served_gate(run: &mut Run, before: &[(&'static str, u64)], clients_completed: u64) -> u64 {
    let served =
        counter(&servestats::snapshot(), "requests_served") - counter(before, "requests_served");
    run.gate(
        "requests_served",
        if served == clients_completed {
            Ok(())
        } else {
            Err(format!(
                "server answered {served} requests, clients completed {clients_completed}"
            ))
        },
    );
    served
}

/// Records the serve-layer counter deltas of a timed phase and checks
/// that the server answered exactly the requests the clients completed.
fn serve_rows(run: &mut Run, before: &[(&'static str, u64)], clients_completed: u64) {
    let served = served_gate(run, before, clients_completed);
    let after = servestats::snapshot();
    let d = |k: &str| counter(&after, k) - counter(before, k);
    let b = &mut run.book;
    b.set("serve.requests_served", served as f64);
    b.set("serve.conns_accepted", d("conns_accepted") as f64);
    b.set(
        "serve.bytes_per_request",
        d("bytes_written") as f64 / served.max(1) as f64,
    );
    let pool = (d("pool_hits") + d("pool_misses")).max(1);
    b.set("serve.pool_hit_share", d("pool_hits") as f64 / pool as f64);
    for k in ["idle_timeouts", "parse_rejects", "read_resets"] {
        b.set(&format!("serve.{k}"), d(k) as f64);
    }
    let probes = (d("cache_hits") + d("cache_misses")).max(1);
    b.set(
        "servefront.cache_hit_share",
        d("cache_hits") as f64 / probes as f64,
    );
    b.set(
        "servefront.cache_invalidations",
        d("cache_invalidations") as f64,
    );
}

/// Latency rows of one client stage: p50, p99 and sample count.
fn latency_rows(b: &mut Book, name: &str, o: &Outcome) {
    let mut lat = o.lat_us.clone();
    b.set_from(
        &format!("serve.lat_p50_us.{name}"),
        median(&mut lat),
        vec![o.lat_us.len() as f64],
    );
    b.set_from(
        &format!("serve.lat_p99_us.{name}"),
        percentile(&mut lat, 99.0),
        vec![o.lat_us.len() as f64],
    );
}

/// Sample count and generator lateness of the client behind
/// `p50_us`, printed beside it.
pub fn latency_notes(b: &mut Book, o: &Outcome) {
    let mut late = o.late_us.clone();
    b.note("p50_us.samples", o.lat_us.len() as f64);
    b.note("p50_us.late_p50_us", median(&mut late));
    b.note("p50_us.late_p99_us", percentile(&mut late, 99.0));
}

/// Lateness and reconnect rows of the generator across stages.
fn generator_rows(b: &mut Book, stages: &[&Outcome]) {
    let mut late: Vec<f64> = stages.iter().flat_map(|o| o.late_us.clone()).collect();
    let n = late.len() as f64;
    b.set_from("load.late_p50_us", median(&mut late), vec![n]);
    b.set_from("load.late_p99_us", percentile(&mut late, 99.0), vec![n]);
    let reconnects: u64 = stages.iter().map(|o| o.reconnects).sum();
    b.set("load.reconnects", reconnects as f64);
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// `serve_hot`: the fresh paper world behind `ServeConfig::default()`
/// with the cached router, driven with `repro --load`'s default mix:
/// open loops at a low and a high fixed rate over two keep-alive
/// connections, and one at a low rate opening a fresh connection per
/// request. Traced runs add a fixed-count closed-loop ceiling.
pub fn serve_hot(run: &mut Run) -> Result<(), String> {
    let cfg = study::paper(run.seed, 2);
    let (served, mix) = setup(run, &cfg)?;
    let addr = served.addr();
    let fork = SeedFork::new(run.seed).fork("serve_hot");
    let cycles = (run.seconds as f64 / HOT_CYCLE_S).round() as usize;
    let low_n = (HOT_LOW_RPS * HOT_CYCLE_S * LOW_SHARE) as usize;
    let high_n = (HOT_HIGH_RPS * HOT_CYCLE_S * HIGH_SHARE) as usize;
    let fresh_n = (FRESH_RPS * HOT_CYCLE_S * FRESH_SHARE) as usize;
    let ceiling_n = (CEILING_PER_SECOND * HOT_CYCLE_S) as usize;
    let traced = run.tracer.enabled();

    // The stages run interleaved, one window of each per cycle, so every
    // metric samples the whole run and a slow spell on the host hits
    // them alike; each metric is the median over cycles.
    let before = servestats::snapshot();
    let process = CpuClock::process();
    let (mut low, mut high, mut fresh, mut ceiling) =
        <(Outcome, Outcome, Outcome, Outcome)>::default();
    let (mut high_p50, mut server_cpu, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    for c in 0..cycles {
        let f = fork.fork_idx("cycle", c as u64);
        // The server's CPU time over the cycle's open-loop windows: the
        // process's, less what the load clients' own threads spent.
        let cpu_start = process.now_s();
        let mut clients_cpu_s = 0.0;
        let (o, _) = run.tracer.span("load.low", |_| {
            let picks = mix.stage_picks(f.fork("low"), low_n, CONNS);
            client::open_stage(addr, &mix.wires, &picks, HOT_LOW_RPS)
        });
        let o = o.map_err(io("low stage"))?;
        clients_cpu_s += o.cpu_s;
        low.merge(o);
        let (o, _) = run.tracer.span("load.high", |_| {
            let picks = mix.stage_picks(f.fork("high"), high_n, CONNS);
            client::open_stage(addr, &mix.wires, &picks, HOT_HIGH_RPS)
        });
        let o = o.map_err(io("high stage"))?;
        high_p50.push(median(&mut o.lat_us.clone()));
        clients_cpu_s += o.cpu_s;
        high.merge(o);
        let (o, _) = run.tracer.span("load.fresh", |_| {
            let picks = mix.picks(f.fork("fresh"), fresh_n);
            let start = Instant::now() + Duration::from_millis(20);
            let interval = Duration::from_secs_f64(1.0 / FRESH_RPS);
            client::open_fresh(addr, &mix.wires, &picks, start, interval)
        });
        clients_cpu_s += o.cpu_s;
        fresh.merge(o);
        server_cpu.push(process.now_s() - cpu_start - clients_cpu_s);
        if traced {
            let picks = mix.stage_picks(f.fork("ceiling"), ceiling_n, CONNS);
            let (o, _) = run.tracer.span("load.ceiling", |_| {
                client::closed_stage(addr, &mix.wires, &picks)
            });
            let o = o.map_err(io("ceiling stage"))?;
            rounds.push(o.elapsed_s);
            ceiling.merge(o);
        }
    }
    let stages = [&low, &high, &fresh, &ceiling];
    serve_rows(run, &before, stages.iter().map(|o| o.completed).sum());
    run.attempted += stages.iter().map(|o| o.sent).sum::<u64>();
    run.failed += stages.iter().map(|o| o.sent - o.ok).sum::<u64>();

    // The whole schedule's server CPU time: the median cycle's × cycles.
    let cpu_s = median(&mut server_cpu.clone()) * cycles as f64;
    run.book.set_from("cpu_s", cpu_s, server_cpu);
    run.book
        .set_from("p50_us", median(&mut high_p50.clone()), high_p50);
    latency_notes(&mut run.book, &high);
    latency_rows(&mut run.book, "low", &low);
    latency_rows(&mut run.book, "high", &high);
    let mut conn_lat = fresh.lat_us.clone();
    run.book.set_from(
        "serve.conn_p50_us",
        median(&mut conn_lat),
        vec![fresh.lat_us.len() as f64],
    );
    generator_rows(&mut run.book, &[&low, &high, &fresh]);
    if traced {
        // The fixed ceiling batch's time: its median round × rounds.
        let ceiling_s = median(&mut rounds) * cycles as f64;
        run.book
            .set("serve.ceiling_rps", ceiling.completed as f64 / ceiling_s);
    }

    let ctx = crate::check::socket_ctx(served.cfg.vantage, served.cfg.sim_now);
    let parity = crate::check::socket_parity(&served.world, addr, &mix, &ctx);
    run.gate("socket_parity", parity.map(|_| ()));
    drop(served.stop());
    if traced {
        crate::probes::run_all(run, &cfg, None)?;
    }
    Ok(())
}

/// `paper_study`'s served phase: the studied world served as `repro
/// --serve` serves it after the report (cached router, `sim_now` at the
/// study's end); one keep-alive client sends `repro --load`'s default
/// mix at [`STUDIED_RPS`] in `--seconds` / 2 cycles of [`HOT_CYCLE_S`].
/// Returns each cycle's p50 latency (µs) and the whole phase's outcome,
/// after checking socket parity and the served count.
pub fn serve_studied(run: &mut Run, world: &World) -> Result<(Vec<f64>, Outcome), String> {
    let cfg = ServeConfig {
        sim_now: world.study_end(),
        ..ServeConfig::default()
    };
    let (server, flag) = start(world.serve_router(), cfg.clone()).map_err(io("bind"))?;
    let addr = server.local_addr();
    let mix = mix::hot(world);
    let fork = SeedFork::new(run.seed).fork("paper_study.serve");
    let cycles = ((run.seconds as f64 / 2.0 / HOT_CYCLE_S).round() as usize).max(1);
    let n = (STUDIED_RPS * HOT_CYCLE_S) as usize;
    let before = servestats::snapshot();
    let (mut all, mut p50) = (Outcome::default(), Vec::new());
    let mut load = || {
        for c in 0..cycles {
            let picks = [mix.picks(fork.fork_idx("cycle", c as u64), n)];
            let o = client::open_stage(addr, &mix.wires, &picks, STUDIED_RPS)
                .map_err(io("served stage"))?;
            p50.push(median(&mut o.lat_us.clone()));
            all.merge(o);
        }
        Ok::<(), String>(())
    };
    let (loaded, _) = run.tracer.span("load.studied", |_| load());
    let checked = loaded.map(|()| {
        served_gate(run, &before, all.completed);
        let ctx = crate::check::socket_ctx(cfg.vantage, cfg.sim_now);
        let parity = crate::check::socket_parity(world, addr, &mix, &ctx);
        run.gate("socket_parity", parity.map(|_| ()));
    });
    flag.trigger();
    server.stop();
    checked?;
    run.attempted += all.sent;
    run.failed += all.sent - all.ok;
    Ok((p50, all))
}

/// Runs `work` while a side thread samples in-process `handle` on a
/// cached router of the world (see [`sample_live_handle`]); returns
/// what `work` returned and the samples, µs.
pub fn with_live_sampler<R>(world: &World, work: impl FnOnce() -> R) -> (R, Vec<f64>) {
    let mix = mix::catalog(world);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let live = s.spawn(|| sample_live_handle(world, &mix, &stop));
        let out = work();
        stop.store(true, Ordering::Relaxed);
        (out, live.join().expect("live sampler panicked"))
    })
}

/// Rows of the live sampler: its p99 and the cache books it moved
/// since `before` (the day loop invalidates the cache twice per day).
pub fn live_rows(b: &mut Book, before: &[(&'static str, u64)], mut live: Vec<f64>) {
    let after = servestats::snapshot();
    let d = |k: &str| counter(&after, k) - counter(before, k);
    let n = live.len() as f64;
    b.set_from(
        "servefront.live_handle_p99_us",
        percentile(&mut live, 99.0),
        vec![n],
    );
    let probes = (d("cache_hits") + d("cache_misses")).max(1);
    b.set(
        "servefront.cache_hit_share",
        d("cache_hits") as f64 / probes as f64,
    );
    b.set(
        "servefront.cache_invalidations",
        d("cache_invalidations") as f64,
    );
}

/// In-process `handle` over the catalog mix on a cached router of its
/// own (the day loop invalidates it like a served one), sampled every
/// 10 ms until `stop`; µs each.
fn sample_live_handle(world: &World, mix: &Mix, stop: &AtomicBool) -> Vec<f64> {
    let router = world.serve_router();
    let ctx = crate::check::socket_ctx(iiscope::subsystems::types::Country::Us, world.study_end());
    let picks = mix.picks(SeedFork::new(0).fork("live-sampler"), 1 << 16);
    let mut out = Vec::new();
    for &pick in picks.iter().cycle() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let req = Request::get(mix.targets[pick].clone());
        let t = Instant::now();
        std::hint::black_box(router.handle(&req, &ctx));
        out.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::thread::sleep(Duration::from_millis(10));
    }
    out
}

/// Median µs of `ACCEPT_PROBES` fresh-connection `/healthz` exchanges
/// against a server of its own.
pub fn accept_us(world: &World) -> Result<f64, String> {
    let (server, flag) =
        start(world.serve_router(), ServeConfig::default()).map_err(io("accept probe bind"))?;
    let health = Request::get("/healthz".to_string()).encode();
    let mut times = Vec::with_capacity(ACCEPT_PROBES);
    let mut result = Ok(());
    for _ in 0..ACCEPT_PROBES {
        let t = Instant::now();
        match Conn::open(server.local_addr()).and_then(|mut c| c.exchange(&health)) {
            Ok(_) => times.push(t.elapsed().as_nanos() as f64 / 1e3),
            Err(e) => {
                result = Err(format!("accept probe: {e}"));
                break;
            }
        }
    }
    flag.trigger();
    server.stop();
    result.map(|()| median(&mut times))
}
