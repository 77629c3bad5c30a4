//! The TCP client.
//!
//! Open loop ([`run_phase`]): requests follow a fixed schedule.  Each
//! connection is owned by one thread, which writes every request when it
//! falls due (several at once when it runs behind, pipelining them) and
//! otherwise waits for replies until its next send time.  A request's
//! latency runs from its *intended* send time to the reply's `END` line, so
//! a server stall is charged to every request scheduled during it instead
//! of being hidden by a client that waited (coordinated omission).
//!
//! Saturating ([`run_saturated`]): each connection keeps a fixed number of
//! requests in flight, writing the next as soon as a reply frees a slot, so
//! the server is never idle and the rate of answers is the server's own.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When the request is due, from the start of the phase.
    pub due: Duration,
    /// Index of the query text in the phase's query table.
    pub query: usize,
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub query: usize,
    /// Intended send time from the start of the phase (open loop), or the
    /// actual one (saturating).
    pub due: Duration,
    /// How late the request was written (actual − intended send time).
    pub lateness: Duration,
    /// `due` to `END`; `None` when no reply came in time.
    pub latency: Option<Duration>,
    /// Status line and body lines of the reply, `\n`-joined (no `END`).
    pub reply: String,
}

/// Result of one phase.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub outcomes: Vec<Outcome>,
    /// Requests still unanswered when the last request was written.
    pub backlog: usize,
    /// Connection-level errors (connect, write or read failures).
    pub conn_errors: usize,
}

/// A fixed-rate schedule of `count` requests cycling through `queries`
/// indices in order.
pub fn schedule(rate_qps: f64, seconds: f64, queries: &[usize]) -> Vec<Planned> {
    let count = (rate_qps * seconds).round().max(1.0) as usize;
    let gap = 1.0 / rate_qps;
    (0..count)
        .map(|i| Planned {
            due: Duration::from_secs_f64(gap * i as f64),
            query: queries[i % queries.len()],
        })
        .collect()
}

/// Replies still missing this long after a phase's last due time count as
/// unanswered.
const DRAIN: Duration = Duration::from_secs(5);

/// How a phase talks to the server.
#[derive(Debug, Clone, Copy)]
pub struct Wire<'a> {
    /// Client connections (and threads).
    pub connections: usize,
    /// Prepended to every query line (e.g. a `@d=<ms> ` deadline).
    pub prefix: &'a str,
    /// ACK every reply at once.  The servers do not set `TCP_NODELAY`, so
    /// with Linux's delayed ACK on the client a reply can sit in the
    /// server's Nagle buffer until the client's next request carries the
    /// ACK; latency would then measure the client's send gap.
    pub quickack: bool,
}

/// When a connection writes its next request.
#[derive(Debug, Clone, Copy)]
enum Pacing {
    /// At the request's due time.
    Schedule,
    /// As soon as fewer than `inflight` requests are outstanding, until
    /// `stop` after the start.
    Window { inflight: usize, stop: Duration },
}

/// Runs `plan` against `addr` open loop (request `i` goes to connection
/// `i % connections`).
pub fn run_phase(addr: SocketAddr, texts: &[String], plan: &[Planned], wire: Wire) -> PhaseResult {
    let last_due = plan.last().map_or(Duration::ZERO, |p| p.due);
    run_paced(addr, texts, plan, wire, Pacing::Schedule, last_due + DRAIN)
}

/// Sends `queries` (in order, spread over the connections) for `seconds`,
/// each connection keeping `inflight` requests outstanding; queries left
/// when the time is up are not sent.
pub fn run_saturated(
    addr: SocketAddr,
    texts: &[String],
    queries: &[usize],
    seconds: f64,
    inflight: usize,
    wire: Wire,
) -> PhaseResult {
    let plan: Vec<Planned> =
        queries.iter().map(|&query| Planned { due: Duration::ZERO, query }).collect();
    let stop = Duration::from_secs_f64(seconds);
    let pacing = Pacing::Window { inflight: inflight.max(1), stop };
    run_paced(addr, texts, &plan, wire, pacing, stop + DRAIN)
}

fn run_paced(
    addr: SocketAddr,
    texts: &[String],
    plan: &[Planned],
    wire: Wire,
    pacing: Pacing,
    give_up: Duration,
) -> PhaseResult {
    let Wire { connections, prefix, quickack } = wire;
    let connections = connections.max(1);
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<(Vec<Outcome>, usize, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let mine: Vec<Planned> =
                    plan.iter().skip(c).step_by(connections).cloned().collect();
                scope.spawn(move || {
                    run_connection(addr, texts, &mine, prefix, quickack, pacing, start, give_up)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut phase = PhaseResult::default();
    for (outcomes, backlog, failed) in results {
        phase.outcomes.extend(outcomes);
        phase.backlog += backlog;
        phase.conn_errors += usize::from(failed);
    }
    phase.outcomes.sort_by_key(|o| o.due);
    phase
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

const POLLIN: i16 = 1;
const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;

/// Acknowledges received data at once instead of delaying the ACK.  Linux
/// clears the flag again after a while, so it is re-armed after every read.
fn quickack(fd: i32) {
    let on: i32 = 1;
    // SAFETY: `on` outlives the call and its size is passed; the option
    // only changes the socket's ACK timing.
    unsafe {
        setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

/// Waits until `fd` is readable or `timeout` passes (nanosecond timer, unlike
/// a socket read timeout, which the kernel rounds up to a scheduler tick).
fn wait_readable(fd: i32, timeout: Duration) -> bool {
    let mut pfd = PollFd { fd, events: POLLIN, revents: 0 };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid out (`repr(C)` mirrors
    // `struct pollfd` / `struct timespec` on 64-bit Linux) for the duration
    // of the call; one descriptor is passed and no signal mask.
    let ready = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    ready > 0
}

/// One connection's loop.  Returns the outcomes (open loop, of every
/// planned request; saturating, of those sent; unanswered ones have
/// `latency: None`), the backlog at the last send and whether the
/// connection failed.
#[allow(clippy::too_many_arguments)]
fn run_connection(
    addr: SocketAddr,
    texts: &[String],
    plan: &[Planned],
    prefix: &str,
    ack_at_once: bool,
    pacing: Pacing,
    start: Instant,
    give_up: Duration,
) -> (Vec<Outcome>, usize, bool) {
    let mut outcomes: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome {
            query: p.query,
            due: p.due,
            lateness: Duration::ZERO,
            latency: None,
            reply: String::new(),
        })
        .collect();
    let windowed = matches!(pacing, Pacing::Window { .. });
    let Ok(mut stream) = TcpStream::connect(addr) else {
        // Open loop, every planned request was attempted; saturating, none.
        if windowed {
            outcomes.clear();
        }
        return (outcomes, 0, true);
    };
    let _ = stream.set_nodelay(true);
    let fd = stream.as_raw_fd();
    if ack_at_once {
        quickack(fd);
    }
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    let mut backlog = None;
    let mut chunk = vec![0u8; 1 << 16];
    let mut pending: Vec<u8> = Vec::new();
    let mut reply = String::new();
    let mut out = String::new();
    let mut failed = false;
    loop {
        let elapsed = Instant::now().saturating_duration_since(start);
        let open = match pacing {
            Pacing::Schedule => next < plan.len(),
            Pacing::Window { stop, .. } => next < plan.len() && elapsed < stop,
        };
        // Write everything due, in one syscall when behind.
        while open && next < plan.len() {
            match pacing {
                Pacing::Schedule if plan[next].due <= elapsed => {
                    outcomes[next].lateness = elapsed - plan[next].due;
                }
                Pacing::Window { inflight, .. } if outstanding.len() < inflight => {
                    outcomes[next].due = elapsed;
                }
                _ => break,
            }
            out.push_str(prefix);
            out.push_str(&texts[plan[next].query]);
            out.push('\n');
            outstanding.push_back(next);
            next += 1;
        }
        if !out.is_empty() {
            if stream.write_all(out.as_bytes()).is_err() {
                failed = true;
                break;
            }
            out.clear();
        }
        if !open || next == plan.len() {
            backlog.get_or_insert(outstanding.len());
            if outstanding.is_empty() {
                break;
            }
        }
        let wait = if open && next < plan.len() && matches!(pacing, Pacing::Schedule) {
            (start + plan[next].due).saturating_duration_since(Instant::now())
        } else if elapsed >= give_up {
            break;
        } else {
            give_up - elapsed
        };
        if !wait_readable(fd, wait) {
            continue;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                failed = true;
                break;
            }
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                continue
            }
            Err(_) => {
                failed = true;
                break;
            }
        };
        let arrived = Instant::now();
        if ack_at_once {
            quickack(fd);
        }
        pending.extend_from_slice(&chunk[..n]);
        let mut consumed = 0;
        while let Some(len) = pending[consumed..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&pending[consumed..consumed + len]);
            let text = line.trim_end();
            if text == "END" {
                if let Some(i) = outstanding.pop_front() {
                    outcomes[i].latency = Some(arrived - (start + outcomes[i].due));
                    outcomes[i].reply = std::mem::take(&mut reply);
                }
                reply.clear();
            } else {
                if !reply.is_empty() {
                    reply.push('\n');
                }
                reply.push_str(text);
            }
            consumed += len + 1;
        }
        pending.drain(..consumed);
    }
    if windowed {
        outcomes.truncate(next);
    }
    (outcomes, backlog.unwrap_or(outstanding.len()), failed)
}

/// Sends one request and waits for its reply (control lines, probes).
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer: stream, reader })
    }

    /// Writes `line` and returns the reply's lines before `END`.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer.write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self.reader.read_line(&mut buf).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("connection closed".into());
            }
            let text = buf.trim_end();
            if text == "END" {
                return Ok(reply);
            }
            if !reply.is_empty() {
                reply.push('\n');
            }
            reply.push_str(text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub line server that answers `OK` per request, stalling once for
    /// `stall` before answering the request that arrives after `stall_at`.
    fn stub(stall_at: Duration, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let reader = BufReader::new(stream);
            let started = Instant::now();
            let mut stalled = false;
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if !stalled && started.elapsed() >= stall_at {
                    stalled = true;
                    std::thread::sleep(stall);
                }
                if writer.write_all(format!("OK 0 q={line}\nEND\n").as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_raises_the_latency_of_every_request_scheduled_during_it() {
        let stall = Duration::from_millis(100);
        let (addr, server) = stub(Duration::from_millis(200), stall);
        let texts: Vec<String> = (0..4).map(|i| format!("q{i}")).collect();
        // 1000 qps for 0.5 s: the stall at ~200 ms covers ~100 requests.
        let plan = schedule(1000.0, 0.5, &[0, 1, 2, 3]);
        let wire = Wire { connections: 1, prefix: "", quickack: true };
        let phase = run_phase(addr, &texts, &plan, wire);
        server.join().unwrap();
        assert_eq!(phase.conn_errors, 0);
        assert!(phase.outcomes.iter().all(|o| o.latency.is_some()));
        // Find the stalled request: the first with latency ≥ 90 ms.
        let first = phase
            .outcomes
            .iter()
            .position(|o| o.latency.unwrap() >= Duration::from_millis(90))
            .expect("the stall shows");
        let stall_start = phase.outcomes[first].due;
        // Every request scheduled during the stall waited for its end: its
        // latency is at least the rest of the stall from its due time.
        let mut covered = 0;
        for o in &phase.outcomes[first..] {
            if o.due >= stall_start + Duration::from_millis(90) {
                break;
            }
            let rest = stall - (o.due - stall_start);
            assert!(
                o.latency.unwrap() + Duration::from_millis(5) >= rest,
                "request due {:?} reports {:?}, less than the {:?} left of the stall",
                o.due,
                o.latency.unwrap(),
                rest
            );
            covered += 1;
        }
        assert!(covered >= 80, "only {covered} requests fell in the stall");
        // Replies are matched to requests in order.
        for o in &phase.outcomes {
            assert!(o.reply.ends_with(&format!("q=q{}", o.query)), "{}", o.reply);
        }
    }

    #[test]
    fn a_saturating_phase_runs_at_the_servers_pace() {
        // A server that takes 2 ms per request: 0.3 s of saturation with one
        // connection answers about 150 requests, whatever the client could
        // send, and each waits behind the others in flight.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                std::thread::sleep(Duration::from_millis(2));
                if writer.write_all(format!("OK 0 q={line}\nEND\n").as_bytes()).is_err() {
                    break;
                }
            }
        });
        let texts: Vec<String> = (0..4).map(|i| format!("q{i}")).collect();
        let queries: Vec<usize> = (0..10_000).map(|i| i % 4).collect();
        let wire = Wire { connections: 1, prefix: "", quickack: true };
        let phase = run_saturated(addr, &texts, &queries, 0.3, 4, wire);
        server.join().unwrap();
        assert_eq!(phase.conn_errors, 0);
        let n = phase.outcomes.len();
        assert!((100..=160).contains(&n), "{n} requests sent in 0.3 s at 2 ms each");
        assert!(phase.outcomes.iter().all(|o| o.latency.is_some()));
        // Four in flight: a request waits for up to three ahead of it.
        let mut latencies: Vec<Duration> =
            phase.outcomes.iter().filter_map(|o| o.latency).collect();
        latencies.sort();
        assert!(latencies[n / 2] >= Duration::from_millis(6), "median {:?}", latencies[n / 2]);
        for o in &phase.outcomes {
            assert!(o.reply.ends_with(&format!("q=q{}", o.query)), "{}", o.reply);
        }
    }

    #[test]
    fn requests_left_unanswered_count_as_backlog() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Accept, never answer, close after the client gives up.
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(400));
            drop(stream);
        });
        let texts = vec!["q".to_owned()];
        let plan = schedule(100.0, 0.1, &[0]);
        let wire = Wire { connections: 1, prefix: "", quickack: true };
        let phase = run_phase(addr, &texts, &plan, wire);
        server.join().unwrap();
        assert_eq!(phase.backlog, plan.len());
        assert!(phase.outcomes.iter().all(|o| o.latency.is_none()));
    }
}
