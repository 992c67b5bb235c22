//! The open-loop load generator: one thread per keep-alive connection,
//! each writing requests at their scheduled times whether or not
//! earlier replies have arrived (HTTP/1.1 pipelining) and matching
//! replies in order.
//!
//! Arrivals are evenly spaced at the offered rate, the connections
//! interleaved; latency counts from the scheduled send time, so a
//! stall shows up in every request it delays. Between sends a thread
//! waits for replies with `ppoll`, whose nanosecond timeout lets it
//! wake for the next send on time (socket read timeouts round up to a
//! scheduler tick).

use crate::splitter::ReplySplitter;
use crate::stats::{median, percentile};
use crate::trace::{ClientRecord, PERF_ID};
use crate::workload::{Expect, Generator, Verdict};
use cm_httpkit::{serialize_request, ConnectionMode};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// Failure notes kept per point; the rest are only counted.
const MAX_NOTES: usize = 8;

mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

    pub const POLLIN: c_short = 0x001;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    /// `struct timespec`.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Wait until `fd` is readable or `timeout` passes; true when readable
/// (or hung up, which the following read reports).
fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut entry = sys::PollFd {
        fd,
        events: sys::POLLIN,
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout
            .as_secs()
            .try_into()
            .unwrap_or(std::os::raw::c_long::MAX),
        tv_nsec: timeout.subsec_nanos().into(),
    };
    // SAFETY: `entry` and `ts` are live, correctly laid-out locals for
    // the whole call, `nfds` = 1 matches the single entry, and a null
    // signal mask asks ppoll to leave the thread's mask unchanged.
    let n = unsafe { sys::ppoll(&mut entry, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(err)
        };
    }
    Ok(n > 0)
}

/// One keep-alive connection and the request stream it carries.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    splitter: ReplySplitter,
    generator: Generator,
    index: u64,
    next_id: u64,
    /// CPUs the load thread driving this connection runs on (empty:
    /// wherever the scheduler puts it).
    cpus: Vec<usize>,
    /// Set once the stream lost sync (EOF, malformed reply, or a reply
    /// that never came); every later request on it fails.
    broken: Option<String>,
}

impl Connection {
    /// Connect to the monitor; the thread driving the connection will
    /// run on `cpus` (empty: anywhere).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn open(
        addr: SocketAddr,
        generator: Generator,
        index: usize,
        cpus: Vec<usize>,
    ) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Connection {
            stream,
            splitter: ReplySplitter::default(),
            generator,
            index: index as u64,
            next_id: 1,
            cpus,
            broken: None,
        })
    }
}

/// One point.
#[derive(Debug, Clone, Copy)]
pub struct PointSpec {
    /// Offered rate over all connections, requests per second.
    pub rate: f64,
    /// How long requests are scheduled for.
    pub duration: Duration,
    /// Tag requests with `X-Perf-Id` and keep client records.
    pub traced: bool,
    /// Stop sending once the oldest unanswered request is this late
    /// (the step has failed its SLO by then; draining a growing backlog
    /// would only waste the run's time).
    pub abort_after: Option<Duration>,
}

/// Expected replies per latency window. Latencies are also kept per
/// window of scheduled time, each long enough for about this many
/// requests at the point's rate: enough for a well-estimated p95, and
/// short enough that a host scheduling stall (a shared two-vCPU VM
/// shows several per second of 3–15 ms) spoils only the window it falls
/// in, so the median over windows tracks the program, not the host.
pub const WINDOW_REQUESTS: f64 = 1000.0;

/// How long to wait for outstanding replies once sending stops.
const DRAIN: Duration = Duration::from_secs(5);

/// What one point measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Offered rate.
    pub rate: f64,
    /// Scheduled duration.
    pub duration: Duration,
    /// Requests scheduled in the window.
    pub offered: usize,
    /// Requests written.
    pub sent: usize,
    /// Replies parsed before the window ended.
    pub completed_in_window: usize,
    /// Scheduled-to-parsed latency per reply, nanoseconds, ascending. A
    /// failed request counts as `u64::MAX`: it misses any limit.
    pub latency_ns: Vec<u64>,
    /// The latencies again, split by scheduled time into windows of
    /// about [`WINDOW_REQUESTS`] requests, each ascending.
    pub windows: Vec<Vec<u64>>,
    /// Scheduled-to-written lag per request, nanoseconds, ascending.
    pub lag_ns: Vec<u64>,
    /// Requests that failed the oracle.
    pub failed: usize,
    /// The first failures, described.
    pub notes: Vec<String>,
    /// Verdicts the oracle expects, per [`Verdict::ALL`] index.
    pub predicted: [u64; 3],
    /// Client records (traced points only).
    pub client: Vec<ClientRecord>,
    /// Sending stopped early under `abort_after`.
    pub aborted: bool,
    /// CPU time the topology used during the point: the whole process's
    /// CPU time less the load threads' own.
    pub topology_cpu: Duration,
    /// CPU time the load threads used during the point.
    pub load_cpu: Duration,
}

impl Outcome {
    /// Latency percentile `p` in milliseconds, if the sample supports it.
    #[must_use]
    pub fn latency_ms(&self, p: f64) -> Option<f64> {
        percentile(&self.latency_ns, p).map(|ns| ns as f64 / 1e6)
    }

    /// Median over the windows of each window's latency percentile `p`,
    /// in milliseconds; `None` unless at least half the windows (and at
    /// least one) support `p`.
    #[must_use]
    pub fn windowed_ms(&self, p: f64) -> Option<f64> {
        let supported: Vec<f64> = self.per_window_ms(p).into_iter().flatten().collect();
        (!supported.is_empty() && supported.len() * 2 >= self.windows.len())
            .then(|| median(&supported))
    }

    /// Each window's latency percentile `p` in milliseconds (`None`
    /// where the window does not support it).
    #[must_use]
    pub fn per_window_ms(&self, p: f64) -> Vec<Option<f64>> {
        self.windows
            .iter()
            .map(|w| percentile(w, p).map(|ns| ns as f64 / 1e6))
            .collect()
    }

    /// Generator lag p99 in microseconds, if supported.
    #[must_use]
    pub fn lag_p99_us(&self) -> Option<f64> {
        percentile(&self.lag_ns, 99.0).map(|ns| ns as f64 / 1e3)
    }

    /// Replies parsed in the window per second of window.
    #[must_use]
    pub fn achieved_rps(&self) -> f64 {
        self.completed_in_window as f64 / self.duration.as_secs_f64()
    }

    /// The SLO: windowed percentile `p` ≤ `limit_ms`, no failures, and
    /// no growing backlog (≥ 98% of offered requests answered within the
    /// point).
    #[must_use]
    pub fn meets_slo(&self, p: f64, limit_ms: f64) -> bool {
        !self.aborted
            && self.failed == 0
            && self.completed_in_window * 50 >= self.offered * 49
            && self.windowed_ms(p).is_some_and(|v| v <= limit_ms)
    }

    /// Topology CPU microseconds per answered request.
    #[must_use]
    pub fn cpu_us_per_request(&self) -> f64 {
        self.topology_cpu.as_secs_f64() * 1e6 / self.latency_ns.len().max(1) as f64
    }

    /// Fold in a later point at the same rate: its windows follow this
    /// point's.
    pub fn append(&mut self, mut other: Outcome) {
        self.duration += other.duration;
        self.topology_cpu += other.topology_cpu;
        self.load_cpu += other.load_cpu;
        let windows = std::mem::take(&mut other.windows);
        self.merge(other);
        self.windows.extend(windows);
        self.latency_ns.sort_unstable();
        self.lag_ns.sort_unstable();
    }

    fn merge(&mut self, other: Outcome) {
        self.offered += other.offered;
        self.sent += other.sent;
        self.completed_in_window += other.completed_in_window;
        self.latency_ns.extend(other.latency_ns);
        if self.windows.len() < other.windows.len() {
            self.windows.resize_with(other.windows.len(), Vec::new);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
        self.lag_ns.extend(other.lag_ns);
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(note);
            }
        }
        for (p, o) in self.predicted.iter_mut().zip(other.predicted) {
            *p += o;
        }
        self.client.extend(other.client);
        self.aborted |= other.aborted;
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.latency_ns.push(u64::MAX);
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }
}

/// Drive every connection through one point, one thread each.
#[must_use]
pub fn run_point(conns: &mut [Connection], spec: PointSpec) -> Outcome {
    let interval = Duration::from_secs_f64(conns.len() as f64 / spec.rate);
    let start = Instant::now() + Duration::from_millis(1);
    let n_conns = conns.len() as u32;
    let cpu_before = crate::cpus::process_cpu();
    let parts: Vec<(Outcome, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let offset = interval * i as u32 / n_conns;
                scope.spawn(move || drive(conn, spec, start, offset, interval))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let process_cpu = crate::cpus::process_cpu().saturating_sub(cpu_before);
    let mut total = Outcome {
        rate: spec.rate,
        duration: spec.duration,
        ..Outcome::default()
    };
    let mut load_cpu = Duration::ZERO;
    for (part, cpu) in parts {
        load_cpu += cpu;
        total.merge(part);
    }
    total.topology_cpu = process_cpu.saturating_sub(load_cpu);
    total.load_cpu = load_cpu;
    total.latency_ns.sort_unstable();
    for window in &mut total.windows {
        window.sort_unstable();
    }
    total.lag_ns.sort_unstable();
    total
}

/// A request written and not yet answered.
#[derive(Debug)]
struct Pending {
    id: u64,
    due: Instant,
    written: Instant,
    expect: Expect,
    line: String,
}

/// Drive one connection through a point; also returns the CPU time the
/// driving thread itself used.
fn drive(
    conn: &mut Connection,
    spec: PointSpec,
    origin: Instant,
    offset: Duration,
    interval: Duration,
) -> (Outcome, Duration) {
    let own_cpu = crate::cpus::thread_cpu();
    let first = origin + offset;
    let window_end = origin + spec.duration;
    let scheduled = (spec.duration.saturating_sub(offset).as_secs_f64() / interval.as_secs_f64())
        .ceil() as usize;
    let due_at = |next: usize| first + interval * next as u32;
    let windows =
        ((spec.duration.as_secs_f64() * spec.rate / WINDOW_REQUESTS).round() as usize).max(1);
    let window_of = |due: Instant| {
        let into = due.saturating_duration_since(origin).as_secs_f64();
        ((into / spec.duration.as_secs_f64() * windows as f64) as usize).min(windows - 1)
    };
    let mut out = Outcome {
        offered: scheduled,
        windows: vec![Vec::new(); windows],
        ..Outcome::default()
    };
    if let Some(why) = &conn.broken {
        out.fail(format!("connection {} unusable: {why}", conn.index));
        return (out, Duration::ZERO);
    }
    if !conn.cpus.is_empty() {
        if let Err(e) = crate::cpus::pin(&conn.cpus) {
            out.fail(format!("pin load thread to {:?}: {e}", conn.cpus));
            return (out, Duration::ZERO);
        }
    }
    let fd = conn.stream.as_raw_fd();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut wire = Vec::with_capacity(4096);
    let mut buf = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let mut stop_sending = false;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let sending = next < scheduled && !stop_sending;
        if sending && due_at(next) <= now {
            wire.clear();
            let batch_start = pending.len();
            while next < scheduled && due_at(next) <= now {
                let (mut request, expect) = conn.generator.next_request();
                let id = (conn.index << 40) | conn.next_id;
                conn.next_id += 1;
                if spec.traced {
                    request = request.header(PERF_ID, id.to_string());
                }
                serialize_request(&mut wire, &request, ConnectionMode::KeepAlive);
                out.predicted[expect.verdict as usize] += 1;
                pending.push_back(Pending {
                    id,
                    due: due_at(next),
                    written: now,
                    expect,
                    line: format!("{} {}", request.method, request.path),
                });
                next += 1;
            }
            if let Err(e) = conn.stream.write_all(&wire) {
                conn.broken = Some(format!("write: {e}"));
                break;
            }
            let written = Instant::now();
            for p in pending.iter_mut().skip(batch_start) {
                p.written = written;
                out.lag_ns.push(nanos(written - p.due));
            }
            out.sent += pending.len() - batch_start;
            continue;
        }
        if !sending && pending.is_empty() {
            break;
        }
        if sending {
            if let (Some(limit), Some(oldest)) = (spec.abort_after, pending.front()) {
                if now.saturating_duration_since(oldest.due) > limit {
                    stop_sending = true;
                    out.aborted = true;
                    continue;
                }
            }
        }
        let wake = if sending {
            due_at(next)
        } else {
            *drain_deadline.get_or_insert_with(|| now.max(window_end) + DRAIN)
        };
        if !sending && now >= wake {
            conn.broken = Some(format!("{} replies missing after drain", pending.len()));
            break;
        }
        match wait_readable(fd, wake.saturating_duration_since(now)) {
            Ok(false) => continue,
            Ok(true) => {}
            Err(e) => {
                conn.broken = Some(format!("poll: {e}"));
                break;
            }
        }
        let n = match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.broken = Some("monitor closed the connection".into());
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                conn.broken = Some(format!("read: {e}"));
                break;
            }
        };
        let parsed = Instant::now();
        conn.splitter.push(&buf[..n]);
        loop {
            let keep_body = pending
                .front()
                .is_some_and(|p| p.expect.created_id.is_some());
            let reply = match conn.splitter.next_reply(keep_body) {
                Ok(Some(reply)) => reply,
                Ok(None) => break,
                Err(e) => {
                    conn.broken = Some(e.to_string());
                    break;
                }
            };
            let Some(p) = pending.pop_front() else {
                conn.broken = Some(format!("unsolicited reply {}", reply.status));
                break;
            };
            if let Some(problem) = check(&p.expect, reply.status, reply.body.as_deref()) {
                out.fail(format!("{}: {problem}", p.line));
                continue;
            }
            let latency = nanos(parsed - p.due);
            out.latency_ns.push(latency);
            out.windows[window_of(p.due)].push(latency);
            if parsed <= window_end {
                out.completed_in_window += 1;
            }
            if spec.traced {
                out.client.push(ClientRecord {
                    id: p.id,
                    due: p.due,
                    written: p.written,
                    parsed,
                });
            }
        }
        if conn.broken.is_some() {
            break;
        }
    }
    if let Some(why) = &conn.broken {
        let why = why.clone();
        for p in pending.drain(..) {
            out.fail(format!("{}: {why}", p.line));
        }
    }
    (out, crate::cpus::thread_cpu().saturating_sub(own_cpu))
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The oracle for one reply: `None` when it is what the request expects.
fn check(expect: &Expect, status: u16, body: Option<&[u8]>) -> Option<String> {
    if status != expect.status {
        return Some(format!("status {status}, expected {}", expect.status));
    }
    let want = expect.created_id?;
    let got = body
        .and_then(|b| std::str::from_utf8(b).ok())
        .and_then(|text| cm_rest::parse_json(text).ok())
        .and_then(|json| json.get("volume")?.get("id")?.as_int());
    match got {
        Some(id) if u64::try_from(id).ok() == Some(want) => None,
        other => Some(format!("created id {other:?}, predicted {want}")),
    }
}

/// Verdict labels the oracle predicts, paired with their counts.
#[must_use]
pub fn predicted_labels(predicted: [u64; 3]) -> Vec<(&'static str, u64)> {
    Verdict::ALL
        .iter()
        .map(|v| (v.label(), predicted[*v as usize]))
        .collect()
}
