//! Readiness-driven reactor transport: a non-blocking epoll/poll event
//! loop serving many connections per thread.
//!
//! The blocking worker-pool server costs one thread per *in-flight
//! connection* and a steady tax of `setsockopt` timeout syscalls per
//! request. This module replaces that with per-core **reactor shards**:
//! a dedicated acceptor thread round-robins accepted sockets to `N`
//! single-threaded shards, and each shard drives its connections through
//! a readiness loop — `epoll_wait` (Linux, via thin FFI declared here; no
//! external crates) or a portable `poll(2)` fallback — so
//! accept→parse→dispatch→respond never crosses a thread.
//!
//! Per connection the shard keeps a byte-accumulating read buffer fed to
//! [`crate::wire::try_parse_request`] (every complete pipelined request
//! already buffered is parsed and answered before the socket is
//! re-armed), reused head/body response buffers flushed with **vectored
//! writes** (`writev`), and a logical deadline on the shard's
//! [`crate::timer::TimerWheel`] — idle timeout, slow-read guard,
//! long-poll parking and close-drain all become wheel entries instead of
//! per-socket `SO_RCVTIMEO` syscalls.
//!
//! Long-poll handlers (the `/-/events/stream` admin route) cooperate via
//! [`crate::server::try_request_park`]: instead of blocking the shard
//! they return immediately and the connection is *parked* on the wheel,
//! retried at a short cadence until data arrives or its wait budget
//! expires. A parked connection costs a wheel entry, not a thread.

use crate::server::{
    with_park_scope, Handler, ReactorBackend, ServerConfig, ShedCause, ShedDecision,
};
use crate::timer::{TimerWheel, DEFAULT_SLOTS, DEFAULT_TICK};
use crate::wire::{serialize_response_parts, try_parse_request, wants_close, ConnectionMode};
use cm_model::HttpMethod;
use cm_obs::{Lane, OverloadStats, LANES};
use cm_rest::{RestRequest, RestResponse, StatusCode};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Thin FFI over the handful of syscalls the reactor needs. Declared
/// directly (the workspace builds offline with no external crates); the
/// epoll family is Linux-only, everything else is portable POSIX.
mod sys {
    use std::os::raw::{c_int, c_void};

    #[cfg(target_os = "linux")]
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_ADD: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_DEL: c_int = 2;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_MOD: c_int = 3;
    #[cfg(target_os = "linux")]
    pub const EPOLLIN: u32 = 0x001;
    #[cfg(target_os = "linux")]
    pub const EPOLLOUT: u32 = 0x004;
    #[cfg(target_os = "linux")]
    pub const EPOLLERR: u32 = 0x008;
    #[cfg(target_os = "linux")]
    pub const EPOLLHUP: u32 = 0x010;
    #[cfg(target_os = "linux")]
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    pub const F_SETFL: c_int = 4;
    pub const F_SETFD: c_int = 2;
    pub const FD_CLOEXEC: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: c_int = 0x0004;

    /// `struct epoll_event`; packed on x86 per the kernel ABI.
    #[cfg(target_os = "linux")]
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct pollfd`.
    #[derive(Clone, Copy)]
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    /// `struct iovec` for `writev`.
    #[repr(C)]
    pub struct IoVec {
        pub base: *const c_void,
        pub len: usize,
    }

    #[cfg(target_os = "linux")]
    pub type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type NFds = std::os::raw::c_uint;

    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    }
}

/// One readiness event, normalised across backends.
#[derive(Debug, Clone, Copy)]
struct Event {
    token: u64,
    readable: bool,
    writable: bool,
    /// Error or hang-up: handled through the read path (which observes
    /// EOF / the socket error) rather than as a separate close.
    broken: bool,
}

/// The readiness poller: epoll on Linux, `poll(2)` everywhere else (or
/// when forced by [`ReactorBackend::Poll`] so the fallback stays tested
/// on Linux too).
enum Poller {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: i32,
        buf: Vec<sys::EpollEvent>,
    },
    Poll {
        entries: Vec<sys::PollFd>,
        tokens: Vec<u64>,
    },
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Poller::Epoll { epfd, .. } = self {
            unsafe { sys::close(*epfd) };
        }
    }
}

impl Poller {
    fn new(backend: ReactorBackend) -> std::io::Result<Poller> {
        match backend {
            ReactorBackend::Poll => Ok(Poller::Poll {
                entries: Vec::new(),
                tokens: Vec::new(),
            }),
            #[cfg(target_os = "linux")]
            ReactorBackend::Auto | ReactorBackend::Epoll => {
                let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(Poller::Epoll {
                    epfd,
                    buf: vec![sys::EpollEvent { events: 0, data: 0 }; 512],
                })
            }
            #[cfg(not(target_os = "linux"))]
            ReactorBackend::Auto => Ok(Poller::Poll {
                entries: Vec::new(),
                tokens: Vec::new(),
            }),
            #[cfg(not(target_os = "linux"))]
            ReactorBackend::Epoll => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "epoll backend requires Linux",
            )),
        }
    }

    #[cfg(target_os = "linux")]
    fn epoll_mask(writable: bool) -> u32 {
        let mut mask = sys::EPOLLIN | sys::EPOLLRDHUP;
        if writable {
            mask |= sys::EPOLLOUT;
        }
        mask
    }

    fn poll_mask(writable: bool) -> i16 {
        if writable {
            sys::POLLIN | sys::POLLOUT
        } else {
            sys::POLLIN
        }
    }

    fn register(&mut self, fd: i32, token: u64, writable: bool) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd, .. } => {
                let mut ev = sys::EpollEvent {
                    events: Self::epoll_mask(writable),
                    data: token,
                };
                if unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            }
            Poller::Poll { entries, tokens } => {
                entries.push(sys::PollFd {
                    fd,
                    events: Self::poll_mask(writable),
                    revents: 0,
                });
                tokens.push(token);
                Ok(())
            }
        }
    }

    fn reregister(&mut self, fd: i32, token: u64, writable: bool) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd, .. } => {
                let mut ev = sys::EpollEvent {
                    events: Self::epoll_mask(writable),
                    data: token,
                };
                unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_MOD, fd, &mut ev) };
            }
            Poller::Poll { entries, tokens } => {
                if let Some(i) = tokens.iter().position(|t| *t == token) {
                    entries[i].events = Self::poll_mask(writable);
                }
            }
        }
    }

    fn deregister(&mut self, fd: i32, token: u64) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd, .. } => {
                let mut ev = sys::EpollEvent { events: 0, data: 0 };
                unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
            }
            Poller::Poll { entries, tokens } => {
                if let Some(i) = tokens.iter().position(|t| *t == token) {
                    entries.swap_remove(i);
                    tokens.swap_remove(i);
                }
            }
        }
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> std::io::Result<()> {
        events.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd, buf } => {
                let n = unsafe {
                    sys::epoll_wait(*epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                };
                if n < 0 {
                    let e = std::io::Error::last_os_error();
                    if e.kind() == std::io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(e);
                }
                for ev in buf.iter().take(n as usize) {
                    // Copy out of the (packed) ABI struct before use.
                    let raw: sys::EpollEvent = *ev;
                    events.push(Event {
                        token: raw.data,
                        readable: raw.events & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                        writable: raw.events & sys::EPOLLOUT != 0,
                        broken: raw.events & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    });
                }
                Ok(())
            }
            Poller::Poll { entries, tokens } => {
                let n = unsafe {
                    sys::poll(entries.as_mut_ptr(), entries.len() as sys::NFds, timeout_ms)
                };
                if n < 0 {
                    let e = std::io::Error::last_os_error();
                    if e.kind() == std::io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(e);
                }
                for (entry, token) in entries.iter_mut().zip(tokens.iter()) {
                    if entry.revents != 0 {
                        events.push(Event {
                            token: *token,
                            readable: entry.revents & sys::POLLIN != 0,
                            writable: entry.revents & sys::POLLOUT != 0,
                            broken: entry.revents & (sys::POLLERR | sys::POLLHUP) != 0,
                        });
                        entry.revents = 0;
                    }
                }
                Ok(())
            }
        }
    }
}

/// A self-pipe used to wake a shard out of its poll wait (new connections
/// in the inbox, shutdown). Both ends are non-blocking and close-on-exec.
#[derive(Debug)]
struct WakePipe {
    read_fd: i32,
    write_fd: i32,
}

impl WakePipe {
    fn new() -> std::io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        for fd in fds {
            unsafe {
                sys::fcntl(fd, sys::F_SETFL, sys::O_NONBLOCK);
                sys::fcntl(fd, sys::F_SETFD, sys::FD_CLOEXEC);
            }
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

/// The write end of a shard's wake pipe, shared by the acceptor and the
/// shutdown path.
#[derive(Debug, Clone)]
pub(crate) struct Waker {
    pipe: Arc<WakePipe>,
}

impl Waker {
    pub(crate) fn wake(&self) {
        let byte = 1u8;
        // A full pipe already guarantees a pending wake-up; EAGAIN is fine.
        unsafe { sys::write(self.pipe.write_fd, std::ptr::addr_of!(byte).cast(), 1) };
    }
}

/// Vectored write of `bufs` to `fd`.
fn writev_fd(fd: i32, bufs: &[&[u8]]) -> std::io::Result<usize> {
    let iovecs: Vec<sys::IoVec> = bufs
        .iter()
        .map(|b| sys::IoVec {
            base: b.as_ptr().cast(),
            len: b.len(),
        })
        .collect();
    let n = unsafe { sys::writev(fd, iovecs.as_ptr(), iovecs.len() as i32) };
    if n < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Which logical deadline a connection's wheel entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Waiting for the next request on an idle keep-alive connection.
    Idle,
    /// A partial request is buffered; the slow-client guard.
    Read,
    /// Parked long-poll: retry the handler at this tick.
    Park,
    /// Write side shut down; draining until the peer closes.
    Drain,
}

/// Lifecycle state of one connection.
enum ConnState {
    /// Reading/answering requests.
    Open,
    /// A long-poll handler asked to park: retry `request` until data
    /// arrives or `deadline` passes, then answer whatever the handler
    /// returns.
    Parked {
        request: Box<RestRequest>,
        deadline: Instant,
        close: bool,
    },
    /// Response(s) written and write side shut down; discarding reads
    /// until EOF so the peer never sees a reset before the final bytes.
    Draining,
}

/// One unit of parsed-but-not-yet-dispatched work on a connection.
/// Requests are answered strictly in arrival order per connection, so
/// the lane queues schedule *connections* and each connection drains
/// its own FIFO — priority reorders between connections, never within
/// one (pipelined responses must not interleave on the wire).
enum PendingWork {
    /// A parsed request awaiting dispatch, stamped at admission.
    Request {
        request: Box<RestRequest>,
        admitted: Instant,
        lane: Lane,
    },
    /// A response decided at parse time (enqueue-time shed, malformed
    /// framing) that must still ride the FIFO to keep wire order.
    Answer {
        response: Box<RestResponse>,
        lane: Lane,
        close_hint: bool,
    },
}

impl PendingWork {
    fn lane(&self) -> Lane {
        match self {
            PendingWork::Request { lane, .. } | PendingWork::Answer { lane, .. } => *lane,
        }
    }
}

/// Classify a request into its priority lane.
fn lane_for(request: &RestRequest) -> Lane {
    if request.path.starts_with(crate::admin::ADMIN_PREFIX) {
        Lane::Admin
    } else if request.method == HttpMethod::Get {
        Lane::Read
    } else {
        Lane::Mutation
    }
}

/// One connection owned by a shard.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Raw bytes not yet parsed into requests.
    read_buf: Vec<u8>,
    /// Parsed work awaiting dispatch, in arrival order.
    pending: VecDeque<PendingWork>,
    /// Token currently sitting in a shard lane queue.
    queued: bool,
    /// When the first byte of the currently-buffered partial request
    /// arrived: the slow-read guard charges from this *fixed* origin,
    /// so a client trickling header bytes cannot extend its deadline —
    /// even while the run queue is saturated.
    read_started: Option<Instant>,
    /// Framing already failed on this connection: its 400 rides the
    /// FIFO and any further input is junk to be discarded, never
    /// re-parsed into duplicate errors.
    input_dead: bool,
    /// Response heads of the pending write batch (reused scratch).
    head_buf: Vec<u8>,
    /// Response bodies of the pending write batch (reused scratch).
    body_buf: String,
    /// Per-response (head_len, body_len) in concatenation order.
    segs: Vec<(u32, u32)>,
    /// Total bytes in the pending batch and how many are on the wire.
    out_total: usize,
    written: usize,
    served: usize,
    close_after_write: bool,
    peer_eof: bool,
    registered_writable: bool,
    timer_kind: TimerKind,
    timer_gen: u64,
    timer_armed: bool,
    deadline: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant, idle: Duration) -> Conn {
        Conn {
            stream,
            state: ConnState::Open,
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            queued: false,
            read_started: None,
            input_dead: false,
            head_buf: Vec::new(),
            body_buf: String::new(),
            segs: Vec::new(),
            out_total: 0,
            written: 0,
            served: 0,
            close_after_write: false,
            peer_eof: false,
            registered_writable: false,
            timer_kind: TimerKind::Idle,
            timer_gen: 0,
            timer_armed: false,
            deadline: now + idle,
        }
    }

    fn pending_out(&self) -> usize {
        self.out_total - self.written
    }

    /// Append one serialised response to the write batch.
    fn enqueue(&mut self, response: &RestResponse, mode: ConnectionMode) {
        let h0 = self.head_buf.len();
        let b0 = self.body_buf.len();
        serialize_response_parts(&mut self.head_buf, &mut self.body_buf, response, mode);
        let hl = self.head_buf.len() - h0;
        let bl = self.body_buf.len() - b0;
        self.segs.push((hl as u32, bl as u32));
        self.out_total += hl + bl;
    }

    /// Slices of the unwritten tail of the batch, in wire order,
    /// bounded to keep one `writev` under IOV_MAX.
    fn collect_iovecs<'a>(&'a self, out: &mut Vec<&'a [u8]>) {
        const MAX_IOVECS: usize = 64;
        let mut skip = self.written;
        let (mut h, mut b) = (0usize, 0usize);
        for &(hl, bl) in &self.segs {
            let (hl, bl) = (hl as usize, bl as usize);
            for (start, len, body) in [(h, hl, false), (b, bl, true)] {
                if len == 0 {
                    continue;
                }
                if skip >= len {
                    skip -= len;
                } else {
                    let slice = if body {
                        &self.body_buf.as_bytes()[start + skip..start + len]
                    } else {
                        &self.head_buf[start + skip..start + len]
                    };
                    out.push(slice);
                    skip = 0;
                    if out.len() >= MAX_IOVECS {
                        return;
                    }
                }
            }
            h += hl;
            b += bl;
        }
    }
}

/// Cadence at which a parked long-poll re-checks its stream for data.
const PARK_POLL: Duration = Duration::from_millis(20);
/// How long a closed connection drains before the socket is dropped.
const DRAIN_MAX: Duration = Duration::from_secs(1);
/// Per-event read cap (bytes) so one firehose connection cannot starve
/// its shard; level-triggered readiness re-reports the remainder.
const READ_CHUNK: usize = 16 * 1024;
const MAX_READS_PER_EVENT: usize = 16;
/// CoDel target: queue delay below this resets the standing-queue clock.
const CODEL_TARGET: Duration = Duration::from_millis(5);
/// CoDel interval: delay continuously above target for this long marks
/// a standing queue, and reads shed until it drains.
const CODEL_INTERVAL: Duration = Duration::from_millis(100);

/// The wake pipe's poller token; connection tokens start above it.
const WAKE_TOKEN: u64 = 0;

/// Handle to a running reactor: the acceptor, the shard threads, and
/// their wakers.
pub(crate) struct ReactorEngine {
    accept_thread: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    wakers: Vec<Waker>,
    shard_count: usize,
}

impl std::fmt::Debug for ReactorEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorEngine")
            .field("shards", &self.shard_count)
            .finish()
    }
}

impl ReactorEngine {
    /// Number of reactor shards (the server's thread budget besides the
    /// acceptor).
    pub(crate) fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Spawn the acceptor and shard threads. Poller and wake-pipe
    /// creation happens here so resource errors surface at bind time.
    pub(crate) fn spawn(
        listener: TcpListener,
        handler: Arc<Handler>,
        config: &ServerConfig,
        stop: Arc<AtomicBool>,
        connections: Arc<AtomicU64>,
        overload: Arc<OverloadStats>,
    ) -> std::io::Result<ReactorEngine> {
        let shard_count = effective_shards(config);
        let mut shards = Vec::with_capacity(shard_count);
        let mut wakers = Vec::with_capacity(shard_count);
        let mut inboxes = Vec::with_capacity(shard_count);

        for _ in 0..shard_count {
            let poller = Poller::new(config.reactor_backend)?;
            let pipe = Arc::new(WakePipe::new()?);
            let waker = Waker {
                pipe: Arc::clone(&pipe),
            };
            let inbox: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            wakers.push(waker);
            inboxes.push(Arc::clone(&inbox));
            let handler = Arc::clone(&handler);
            let stop = Arc::clone(&stop);
            let cfg = config.clone();
            let stats = Arc::clone(&overload);
            shards.push(std::thread::spawn(move || {
                Shard::new(poller, pipe, inbox, handler, cfg, stop, stats).run();
            }));
        }

        let stop_accept = Arc::clone(&stop);
        let accept_wakers: Vec<Waker> = wakers.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut next = 0usize;
            for stream in listener.incoming() {
                if stop_accept.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                connections.fetch_add(1, Ordering::Relaxed);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                inboxes[next].lock().unwrap().push(stream);
                accept_wakers[next].wake();
                next = (next + 1) % inboxes.len();
            }
        });

        Ok(ReactorEngine {
            accept_thread: Some(accept_thread),
            shards,
            wakers,
            shard_count,
        })
    }

    /// Join everything; the caller has already set the stop flag and
    /// woken the accept loop with a dummy connection.
    pub(crate) fn join(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for waker in &self.wakers {
            waker.wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }
}

/// Resolve the configured shard count (0 = one per available core).
pub(crate) fn effective_shards(config: &ServerConfig) -> usize {
    if config.shards > 0 {
        config.shards
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8)
    }
}

/// One reactor shard: poller, timer wheel, and the connections assigned
/// to it.
struct Shard {
    poller: Poller,
    pipe: Arc<WakePipe>,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    handler: Arc<Handler>,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel,
    next_token: u64,
    rscratch: Vec<u8>,
    /// Connection tokens ready to run, one queue per priority lane
    /// (admin drains first, reads shed first). A token appears at most
    /// once across all lanes (`Conn::queued`).
    lanes: [VecDeque<u64>; LANES],
    /// Requests currently queued across this shard's connections — the
    /// bound the enqueue-time shed checks.
    pending_total: usize,
    /// CoDel state: when queue delay first rose above target, `None`
    /// while below (bursts reset it).
    codel_above_since: Option<Instant>,
    /// Shared per-lane admission/shed accounting (exposed via
    /// `HttpServer::overload_stats`).
    stats: Arc<OverloadStats>,
}

impl Shard {
    fn new(
        poller: Poller,
        pipe: Arc<WakePipe>,
        inbox: Arc<Mutex<Vec<TcpStream>>>,
        handler: Arc<Handler>,
        cfg: ServerConfig,
        stop: Arc<AtomicBool>,
        stats: Arc<OverloadStats>,
    ) -> Shard {
        Shard {
            poller,
            pipe,
            inbox,
            handler,
            cfg,
            stop,
            conns: HashMap::new(),
            wheel: TimerWheel::new(DEFAULT_SLOTS, DEFAULT_TICK, Instant::now()),
            next_token: WAKE_TOKEN + 1,
            rscratch: vec![0u8; READ_CHUNK],
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            pending_total: 0,
            codel_above_since: None,
            stats,
        }
    }

    fn run(mut self) {
        if self
            .poller
            .register(self.pipe.read_fd, WAKE_TOKEN, false)
            .is_err()
        {
            return;
        }
        let mut events: Vec<Event> = Vec::with_capacity(512);
        let mut fired: Vec<(u64, u64)> = Vec::new();
        let tick_ms = i32::try_from(self.wheel.tick().as_millis()).unwrap_or(10);
        loop {
            if self.poller.wait(&mut events, tick_ms).is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    self.drain_wake();
                    self.adopt_new_connections();
                } else {
                    self.on_event(*ev);
                }
            }
            fired.clear();
            self.wheel.expire_into(Instant::now(), &mut fired);
            for &(token, gen) in &fired {
                self.on_timer(token, gen);
            }
            // Dispatch everything parsed this iteration, admin lane
            // first. With overload control off this runs in the same
            // loop pass the bytes arrived in — pure FIFO plumbing.
            self.drain_run_queue();
        }
        // Shutdown: best-effort flush of pending responses, then drop
        // (close) every socket.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.pending_out() > 0 {
                    let _ = flush_writes(conn);
                }
            }
            self.close(token);
        }
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.pipe.read_fd, sink.as_mut_ptr().cast(), sink.len()) };
            if n <= 0 || (n as usize) < sink.len() {
                break;
            }
        }
    }

    fn adopt_new_connections(&mut self) {
        let streams: Vec<TcpStream> = std::mem::take(&mut *self.inbox.lock().unwrap());
        let now = Instant::now();
        for stream in streams {
            let token = self.next_token;
            self.next_token += 1;
            let fd = stream.as_raw_fd();
            if self.poller.register(fd, token, false).is_err() {
                continue; // conn dropped (closed)
            }
            let mut conn = Conn::new(stream, now, self.cfg.idle_timeout);
            arm_timer(
                &mut self.wheel,
                &mut conn,
                token,
                TimerKind::Idle,
                now + self.cfg.idle_timeout,
            );
            self.conns.insert(token, conn);
        }
    }

    fn on_event(&mut self, ev: Event) {
        if !self.conns.contains_key(&ev.token) {
            return;
        }
        if ev.writable {
            let Some(conn) = self.conns.get_mut(&ev.token) else {
                return;
            };
            match flush_writes(conn) {
                Ok(_) => {}
                Err(_) => {
                    self.close(ev.token);
                    return;
                }
            }
        }
        if (ev.readable || ev.broken) && !self.read_ready(ev.token) {
            return;
        }
        self.after_io(ev.token);
    }

    /// Pull bytes off the socket. Returns false when the connection was
    /// closed.
    fn read_ready(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        for _ in 0..MAX_READS_PER_EVENT {
            match conn.stream.read(&mut self.rscratch) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    if matches!(conn.state, ConnState::Draining) {
                        continue; // discard
                    }
                    conn.read_buf.extend_from_slice(&self.rscratch[..n]);
                    if n < self.rscratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return false;
                }
            }
        }
        true
    }

    /// After any I/O: parse new input into the run queue, schedule the
    /// connection for dispatch, then flush / retire / re-arm.
    fn after_io(&mut self, token: u64) {
        self.process_input(token);
        self.schedule_conn(token);
        self.after_work(token);
    }

    /// Put `token` into its priority lane if it has runnable work and
    /// is not already scheduled. The lane is the *head* request's lane:
    /// a connection's FIFO never reorders, priority only decides which
    /// connection drains next.
    fn schedule_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.queued || conn.close_after_write || !matches!(conn.state, ConnState::Open) {
            return;
        }
        let Some(work) = conn.pending.front() else {
            return;
        };
        let lane = work.lane();
        conn.queued = true;
        self.lanes[lane.index()].push_back(token);
    }

    /// Flush, retire finished connections, update poller interest and
    /// timers — the post-dispatch half of the I/O path.
    fn after_work(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if flush_writes(conn).is_err() {
            self.close(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.peer_eof && matches!(conn.state, ConnState::Draining) {
            // The peer acknowledged our half-close; done.
            self.close(token);
            return;
        }
        // Finished writing a closing batch: half-close and drain.
        if conn.close_after_write
            && conn.pending_out() == 0
            && !matches!(conn.state, ConnState::Draining)
        {
            self.start_drain(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.peer_eof
            && conn.pending_out() == 0
            && conn.pending.is_empty()
            && matches!(conn.state, ConnState::Open)
            && !conn.close_after_write
        {
            // Peer finished sending, every buffered request is answered
            // and nothing is pending: the connection is done.
            self.close(token);
            return;
        }
        self.update_interest_and_timer(token);
    }

    fn update_interest_and_timer(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want_write = conn.pending_out() > 0;
        if want_write != conn.registered_writable {
            conn.registered_writable = want_write;
            self.poller
                .reregister(conn.stream.as_raw_fd(), token, want_write);
        }
        if matches!(conn.state, ConnState::Open) {
            let now = Instant::now();
            if conn.read_buf.is_empty() {
                conn.read_started = None;
                arm_timer(
                    &mut self.wheel,
                    conn,
                    token,
                    TimerKind::Idle,
                    now + self.cfg.idle_timeout,
                );
            } else {
                // Partial request buffered: the slow-client guard. The
                // deadline is charged from the *first byte* of this
                // request (fixed origin) — trickling more header bytes
                // must not extend it, or a slow-loris client holds the
                // connection open indefinitely.
                let origin = *conn.read_started.get_or_insert(now);
                arm_timer(
                    &mut self.wheel,
                    conn,
                    token,
                    TimerKind::Read,
                    origin + self.cfg.read_timeout,
                );
            }
        }
    }

    /// Parse every complete request in the read buffer into the run
    /// queue (admission-stamped) before the socket is re-armed —
    /// request pipelining. Dispatch happens in [`Shard::run_conn`].
    fn process_input(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !matches!(conn.state, ConnState::Open) {
            return;
        }
        if conn.input_dead {
            // Bytes after a framing error are junk; never re-parse them
            // into duplicate 400s.
            conn.read_buf.clear();
            return;
        }
        let now = Instant::now();
        let mut consumed = 0usize;
        loop {
            if conn.close_after_write {
                break;
            }
            match try_parse_request(&conn.read_buf[consumed..]) {
                Ok(Some((request, used))) => {
                    consumed += used;
                    let lane = lane_for(&request);
                    let limit = match lane {
                        Lane::Admin => usize::MAX, // admin is never shed
                        Lane::Mutation => self.cfg.overload.queue_limit.saturating_mul(2),
                        Lane::Read => self.cfg.overload.queue_limit,
                    };
                    if self.cfg.overload.enabled && self.pending_total >= limit.max(1) {
                        // Enqueue-time shed: answer a marked 503 now,
                        // but ride the FIFO so pipelined responses keep
                        // wire order.
                        self.stats.note_shed(lane);
                        if let Some(observer) = &self.cfg.shed_observer {
                            observer.notify(
                                &request,
                                &ShedDecision {
                                    lane,
                                    queue_wait: Duration::ZERO,
                                    budget: self.cfg.overload.deadline,
                                    cause: ShedCause::QueueFull,
                                },
                            );
                        }
                        let response = RestResponse::overload_shed(format!(
                            "overload: shard run queue full ({} queued)",
                            self.pending_total
                        ));
                        conn.pending.push_back(PendingWork::Answer {
                            response: Box::new(response),
                            lane,
                            close_hint: wants_close(&request.headers),
                        });
                    } else {
                        conn.pending.push_back(PendingWork::Request {
                            request: Box::new(request),
                            admitted: now,
                            lane,
                        });
                        self.pending_total += 1;
                        self.stats.adjust_depth(lane, 1);
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Malformed framing / oversized declaration: a 400
                    // that closes, queued behind any earlier requests —
                    // their responses still flush first.
                    let resp = RestResponse::error(StatusCode::BAD_REQUEST, e.to_string());
                    conn.pending.push_back(PendingWork::Answer {
                        response: Box::new(resp),
                        lane: Lane::Read,
                        close_hint: true,
                    });
                    conn.input_dead = true;
                    break;
                }
            }
        }
        if consumed > 0 {
            conn.read_buf.drain(..consumed);
            // Whatever remains is the start of the *next* request: its
            // slow-read clock starts now.
            conn.read_started = (!conn.read_buf.is_empty()).then_some(now);
        }
        if conn.input_dead {
            conn.read_buf.clear();
        }
    }

    /// Pop and run every scheduled connection, admin lane first.
    fn drain_run_queue(&mut self) {
        while let Some(token) = self.pop_lane() {
            self.run_conn(token);
        }
    }

    /// The next scheduled connection, in lane-priority order.
    fn pop_lane(&mut self) -> Option<u64> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }

    /// Admission check at dispatch time. `None` admits; `Some` sheds.
    fn should_shed(&mut self, lane: Lane, wait: Duration, now: Instant) -> Option<ShedCause> {
        if !self.cfg.overload.enabled || lane == Lane::Admin {
            return None;
        }
        if wait >= self.cfg.overload.deadline {
            // The queue wait consumed the whole budget: serving this
            // request now would produce a late, worthless answer.
            return Some(ShedCause::BudgetExhausted);
        }
        if wait < CODEL_TARGET {
            self.codel_above_since = None;
            return None;
        }
        // Queue delay above target: a burst until it has stood for a
        // whole interval, a standing queue after — drain it by
        // shedding reads (mutations outrank them and keep flowing).
        match self.codel_above_since {
            None => {
                self.codel_above_since = Some(now);
                None
            }
            Some(since) if now.duration_since(since) >= CODEL_INTERVAL && lane == Lane::Read => {
                Some(ShedCause::StandingQueue)
            }
            Some(_) => None,
        }
    }

    /// Drain one scheduled connection's FIFO: shed or dispatch each
    /// queued request in arrival order, then flush / retire / re-arm.
    /// Stops early when the connection parks (long-poll) or queues a
    /// closing response; remaining work is rescheduled when the park
    /// delivers.
    fn run_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.queued = false;
        } else {
            return; // closed while scheduled
        }
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.close_after_write || !matches!(conn.state, ConnState::Open) {
                break;
            }
            let Some(work) = conn.pending.pop_front() else {
                break;
            };
            match work {
                PendingWork::Answer {
                    response,
                    lane: _,
                    close_hint,
                } => {
                    let Some(close) = self.count_response(token, close_hint) else {
                        return;
                    };
                    self.finish_response(token, &response, close);
                }
                PendingWork::Request {
                    request,
                    admitted,
                    lane,
                } => {
                    self.pending_total -= 1;
                    self.stats.adjust_depth(lane, -1);
                    let now = Instant::now();
                    let wait = now.duration_since(admitted);
                    if let Some(cause) = self.should_shed(lane, wait, now) {
                        self.stats.note_shed(lane);
                        if let Some(observer) = &self.cfg.shed_observer {
                            observer.notify(
                                &request,
                                &ShedDecision {
                                    lane,
                                    queue_wait: wait,
                                    budget: self.cfg.overload.deadline,
                                    cause,
                                },
                            );
                        }
                        let response = RestResponse::overload_shed(format!(
                            "overload: queue wait {}ms against a {}ms budget ({})",
                            wait.as_millis(),
                            self.cfg.overload.deadline.as_millis(),
                            cause.label(),
                        ));
                        let Some(close) = self.count_response(token, wants_close(&request.headers))
                        else {
                            return;
                        };
                        self.finish_response(token, &response, close);
                    } else {
                        self.stats.note_admitted(lane, wait);
                        self.dispatch_request(token, *request);
                    }
                }
            }
        }
        self.after_work(token);
    }

    /// Count one more response on `token`'s connection and decide
    /// whether it closes the connection: the client asked, the
    /// per-connection budget is spent, or the server is stopping.
    /// `None` when the connection is already gone.
    fn count_response(&mut self, token: u64, client_close: bool) -> Option<bool> {
        let conn = self.conns.get_mut(&token)?;
        conn.served += 1;
        Some(
            client_close
                || conn.served >= self.cfg.max_requests_per_conn
                || self.stop.load(Ordering::SeqCst),
        )
    }

    fn dispatch_request(&mut self, token: u64, request: RestRequest) {
        let Some(close) = self.count_response(token, wants_close(&request.headers)) else {
            return;
        };
        // Only admin-space requests may park (the long-poll stream); for
        // them the request is retained so the handler can be re-invoked
        // from the timer wheel. The hot path clones nothing.
        let parkable = request.path.starts_with(crate::admin::ADMIN_PREFIX);
        if parkable {
            let retained = request.clone();
            let (response, park) = with_park_scope(|| (self.handler)(request));
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if let Some(wait_ms) = park {
                let now = Instant::now();
                let deadline = now + Duration::from_millis(wait_ms);
                conn.state = ConnState::Parked {
                    request: Box::new(retained),
                    deadline,
                    close,
                };
                let next = deadline.min(now + PARK_POLL);
                arm_timer(&mut self.wheel, conn, token, TimerKind::Park, next);
                return;
            }
            self.finish_response(token, &response, close);
        } else {
            let response = (self.handler)(request);
            self.finish_response(token, &response, close);
        }
    }

    fn finish_response(&mut self, token: u64, response: &RestResponse, close: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.enqueue(
            response,
            if close {
                ConnectionMode::Close
            } else {
                ConnectionMode::KeepAlive
            },
        );
        if close {
            conn.close_after_write = true;
        }
    }

    fn on_timer(&mut self, token: u64, gen: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.timer_armed || gen != conn.timer_gen {
            return; // stale entry from an earlier schedule
        }
        let now = Instant::now();
        if now < conn.deadline {
            // The logical deadline moved later since this entry was
            // queued; keep riding the wheel.
            self.wheel.schedule(token, gen, conn.deadline);
            return;
        }
        conn.timer_armed = false;
        match conn.timer_kind {
            TimerKind::Idle => {
                // Between requests and the peer went quiet: close.
                self.start_drain(token);
            }
            TimerKind::Read => {
                // Stalled mid-request: answer 400 and close, matching
                // the blocking server's slow-client guard. The 400
                // rides the run-queue FIFO so responses to requests
                // admitted earlier on this connection still go first.
                let resp = RestResponse::error(StatusCode::BAD_REQUEST, "request read timed out");
                conn.pending.push_back(PendingWork::Answer {
                    response: Box::new(resp),
                    lane: Lane::Read,
                    close_hint: true,
                });
                conn.input_dead = true;
                conn.read_buf.clear();
                self.schedule_conn(token);
                self.after_work(token);
            }
            TimerKind::Park => self.park_retry(token),
            TimerKind::Drain => self.close(token),
        }
    }

    /// A parked long-poll's retry tick: re-run the handler; deliver its
    /// response when it no longer asks to park or the wait budget is
    /// spent, otherwise park again.
    fn park_retry(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.peer_eof {
            // Client gave up while parked.
            self.close(token);
            return;
        }
        let ConnState::Parked {
            request,
            deadline,
            close,
        } = std::mem::replace(&mut conn.state, ConnState::Open)
        else {
            return;
        };
        let now = Instant::now();
        let (response, park) = with_park_scope(|| (self.handler)((*request).clone()));
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if park.is_some() && now < deadline {
            conn.state = ConnState::Parked {
                request,
                deadline,
                close,
            };
            let next = deadline.min(now + PARK_POLL);
            arm_timer(&mut self.wheel, conn, token, TimerKind::Park, next);
            return;
        }
        // Data arrived (or the budget is spent): deliver, then resume
        // any pipelined requests buffered behind the long-poll.
        self.finish_response(token, &response, close);
        self.after_io(token);
    }

    fn start_drain(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.peer_eof {
            // Peer is already gone; no drain needed.
            self.close(token);
            return;
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
        conn.state = ConnState::Draining;
        conn.read_buf.clear();
        arm_timer(
            &mut self.wheel,
            conn,
            token,
            TimerKind::Drain,
            Instant::now() + DRAIN_MAX,
        );
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            // Release queue accounting for work that will never run
            // (the peer is gone — there is no one to answer).
            for work in &conn.pending {
                if let PendingWork::Request { lane, .. } = work {
                    self.pending_total = self.pending_total.saturating_sub(1);
                    self.stats.adjust_depth(*lane, -1);
                }
            }
            self.poller.deregister(conn.stream.as_raw_fd(), token);
            // Dropping the stream closes the fd.
        }
    }
}

/// (Re-)arm a connection's logical deadline. Same-kind updates just move
/// the stored deadline — the existing wheel entry re-arms itself on
/// expiry — so a busy connection costs O(1) wheel entries instead of one
/// per event.
fn arm_timer(
    wheel: &mut TimerWheel,
    conn: &mut Conn,
    token: u64,
    kind: TimerKind,
    deadline: Instant,
) {
    conn.deadline = deadline;
    if conn.timer_armed && conn.timer_kind == kind {
        return;
    }
    conn.timer_kind = kind;
    conn.timer_gen += 1;
    conn.timer_armed = true;
    wheel.schedule(token, conn.timer_gen, deadline);
}

/// Flush as much of the pending batch as the socket accepts, vectored.
/// `Ok(true)` when the batch fully drained (buffers reset, capacity
/// kept), `Ok(false)` on a partial write (EWOULDBLOCK).
fn flush_writes(conn: &mut Conn) -> std::io::Result<bool> {
    loop {
        if conn.pending_out() == 0 {
            if conn.out_total > 0 {
                conn.head_buf.clear();
                conn.body_buf.clear();
                conn.segs.clear();
                conn.out_total = 0;
                conn.written = 0;
            }
            return Ok(true);
        }
        let n = {
            let mut iovecs: Vec<&[u8]> = Vec::with_capacity(16);
            conn.collect_iovecs(&mut iovecs);
            match writev_fd(conn.stream.as_raw_fd(), &iovecs) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        conn.written += n;
    }
}
