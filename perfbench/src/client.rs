//! Socket clients with fixed schedules.
//!
//! Open-loop stages send a fixed number of requests, each due at a fixed
//! instant, and time every request from that instant, so a stall is
//! charged to every request queued behind it. The closed-loop ceiling
//! sends a fixed number of requests, a pipelined window at a time, as
//! fast as the server answers. Lateness (how far behind its schedule
//! the generator itself ran) is kept beside every latency.

use crate::cpu::CpuClock;
use iiscope::subsystems::wire::ResponseView;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request that takes longer than this forfeits (counted as failed).
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off and the read timeout set.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one encoded request and reads its whole response; returns
    /// the status.
    pub fn exchange(&mut self, wire: &[u8]) -> std::io::Result<u16> {
        self.stream.write_all(wire)?;
        self.next_status()
    }

    /// Like [`Conn::exchange`], but returns the response's raw bytes.
    pub fn fetch_raw(&mut self, wire: &[u8]) -> std::io::Result<Vec<u8>> {
        self.stream.write_all(wire)?;
        let (_, len) = self.read_one()?;
        Ok(self.buf.drain(..len).collect())
    }

    /// Consumes the next response; returns its status.
    fn next_status(&mut self) -> std::io::Result<u16> {
        let (status, len) = self.read_one()?;
        self.buf.drain(..len);
        Ok(status)
    }

    /// Reads until one whole response sits at the front of `buf`;
    /// returns its status and length.
    fn read_one(&mut self) -> std::io::Result<(u16, usize)> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let parsed = ResponseView::parse(&self.buf)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("{e:?}")))?;
            if let Some((view, consumed)) = parsed {
                return Ok((view.status, consumed));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Requests in flight per connection in the closed-loop ceiling.
const PIPELINE: usize = 16;

/// What one client (or a merge of several) saw.
#[derive(Default)]
pub struct Outcome {
    /// Latency of each request from its due instant, µs, in send order;
    /// a failed request counts as infinitely late.
    pub lat_us: Vec<f64>,
    /// How late each request was sent relative to its due instant, µs.
    pub late_us: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered 200.
    pub ok: u64,
    /// Requests answered at all (any status).
    pub completed: u64,
    /// Connections re-opened after a failure.
    pub reconnects: u64,
    /// Wall time from the first due instant to the last completion, s.
    pub elapsed_s: f64,
    /// CPU time of the client's own thread (open loops), s.
    pub cpu_s: f64,
}

impl Outcome {
    /// Folds another client's outcome into this one.
    pub fn merge(&mut self, o: Outcome) {
        self.lat_us.extend(o.lat_us);
        self.late_us.extend(o.late_us);
        self.sent += o.sent;
        self.ok += o.ok;
        self.completed += o.completed;
        self.reconnects += o.reconnects;
        self.elapsed_s = self.elapsed_s.max(o.elapsed_s);
        self.cpu_s += o.cpu_s;
    }

    fn record(&mut self, result: std::io::Result<u16>, due: Instant) -> bool {
        self.sent += 1;
        match result {
            Ok(status) => {
                self.lat_us.push(due.elapsed().as_nanos() as f64 / 1e3);
                self.completed += 1;
                if status == 200 {
                    self.ok += 1;
                }
                true
            }
            Err(_) => {
                self.lat_us.push(f64::INFINITY);
                false
            }
        }
    }
}

/// Sleeps until `due`, then returns how late the send is.
fn wait_until(due: Instant) -> f64 {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due).as_nanos() as f64 / 1e3
}

/// Open loop over one keep-alive connection: request `i` of `picks` is
/// due at `start + offset + i * interval`.
pub fn open_keepalive(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    picks: &[usize],
    start: Instant,
    offset: Duration,
    interval: Duration,
) -> std::io::Result<Outcome> {
    let clock = CpuClock::this_thread();
    let cpu_start = clock.now_s();
    let mut conn = Conn::open(addr)?;
    let mut out = Outcome::default();
    for (i, &pick) in picks.iter().enumerate() {
        let due = start + offset + interval * i as u32;
        out.late_us.push(wait_until(due));
        if !out.record(conn.exchange(&wires[pick]), due) {
            out.reconnects += 1;
            conn = Conn::open(addr)?;
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.cpu_s = clock.now_s() - cpu_start;
    Ok(out)
}

/// Open loop with a fresh connection per request (connect, send, read
/// the whole response, close), timed from the due instant.
pub fn open_fresh(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    picks: &[usize],
    start: Instant,
    interval: Duration,
) -> Outcome {
    let clock = CpuClock::this_thread();
    let cpu_start = clock.now_s();
    let mut out = Outcome::default();
    for (i, &pick) in picks.iter().enumerate() {
        let due = start + interval * i as u32;
        out.late_us.push(wait_until(due));
        let result = Conn::open(addr).and_then(|mut c| c.exchange(&wires[pick]));
        out.record(result, due);
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.cpu_s = clock.now_s() - cpu_start;
    out
}

/// Closed loop over one keep-alive connection with `PIPELINE`
/// requests in flight: each window of picks goes out in one write and
/// the next window follows once all its responses are in. Pipelining
/// makes the ceiling bound by the server's per-request work rather than
/// by thread wake-ups, which on a 2-vCPU host depend on where the
/// scheduler happens to place client and server threads.
fn closed_pipelined(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    picks: &[usize],
) -> std::io::Result<Outcome> {
    let mut conn = Conn::open(addr)?;
    let mut out = Outcome::default();
    let mut batch = Vec::new();
    let start = Instant::now();
    for window in picks.chunks(PIPELINE) {
        batch.clear();
        for &pick in window {
            batch.extend_from_slice(&wires[pick]);
        }
        let due = Instant::now();
        let sent = conn.stream.write_all(&batch);
        let mut broken = sent.is_err();
        for _ in window {
            let result = if broken {
                Err(ErrorKind::BrokenPipe.into())
            } else {
                conn.next_status()
            };
            broken |= !out.record(result, due);
        }
        if broken {
            out.reconnects += 1;
            conn = Conn::open(addr)?;
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Runs `client` for every connection's picks on its own thread and
/// merges what they saw.
fn per_connection(
    picks: &[Vec<usize>],
    client: impl Fn(usize, &[usize]) -> std::io::Result<Outcome> + Sync,
) -> std::io::Result<Outcome> {
    let results: Vec<std::io::Result<Outcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = picks
            .iter()
            .enumerate()
            .map(|(c, p)| {
                let client = &client;
                s.spawn(move || client(c, p))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Outcome::default();
    for r in results {
        out.merge(r?);
    }
    Ok(out)
}

/// Runs one open-loop keep-alive stage over one connection per `picks`
/// entry: the stage's requests are interleaved across connections at
/// `rate` per second in total, `picks[c]` being connection `c`'s
/// targets.
pub fn open_stage(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    picks: &[Vec<usize>],
    rate: f64,
) -> std::io::Result<Outcome> {
    let conns = picks.len() as u32;
    let slot = Duration::from_secs_f64(1.0 / rate);
    // A common start a little ahead, so every connection is open before
    // its first request is due.
    let start = Instant::now() + Duration::from_millis(20);
    per_connection(picks, |c, p| {
        open_keepalive(addr, wires, p, start, slot * c as u32, slot * conns)
    })
}

/// Runs the closed loop over one connection per `picks` entry.
pub fn closed_stage(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    picks: &[Vec<usize>],
) -> std::io::Result<Outcome> {
    per_connection(picks, |_, p| closed_pipelined(addr, wires, p))
}
