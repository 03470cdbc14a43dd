//! The wire server: an accept loop feeding N connection-handler threads,
//! each multiplexing its connections with non-blocking reads, a
//! poll/park loop, and per-connection read/write buffers.
//!
//! Each handler calls straight into the [`ServiceHandle`] fast paths —
//! a clean GET rides the seqlock lock-free read without ever touching a
//! shard mutex, a PUT is applied on the handler thread under the shard
//! mutex — so the service's demand-path concurrency story survives the
//! network hop intact.
//!
//! Backpressure is explicit, never implicit: a connection that pipelines
//! more than its in-flight window, or whose target shard already has
//! [`ServiceHandle::queue_bound`] clients blocked on its mutex, gets a
//! typed RETRY response instead of a stalled socket; the handler thread
//! does not join the wait on a saturated shard (which would convoy every
//! other connection it owns). A malformed frame gets a MALFORMED
//! response and a connection close — after the response flushes, never a
//! mid-frame reset. Shutdown drains: in-flight responses flush, newly
//! decoded frames are refused with SHUTTING_DOWN, then connections close.

use crate::wire::{decode_request, Request, Response, Status, TRACE_NONE};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sudoku_svc::ServiceHandle;

/// Handler poll nap when every connection is idle: short enough that a
/// single in-flight request sees ~100 µs added latency at worst, long
/// enough that an idle server burns no core.
const IDLE_NAP: Duration = Duration::from_micros(100);

/// Accept-loop nap when no connection is pending.
const ACCEPT_NAP: Duration = Duration::from_millis(1);

/// Per-pump read chunk; bounds how long one connection can monopolize its
/// handler before the others get a turn.
const READ_CHUNK: usize = 64 * 1024;

/// How long a graceful drain waits for handlers to flush and close every
/// connection before the hard stop.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

/// Wire-server tuning.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address (default loopback-only, like the HTTP exporter).
    pub bind: IpAddr,
    /// Port (0 = ephemeral; read it back via [`NetServer::addr`]).
    pub port: u16,
    /// Connection-handler threads; connections are distributed round-robin.
    pub handlers: usize,
    /// Per-connection in-flight window: responses buffered but not yet
    /// flushed to the socket before further GET/PUT frames shed RETRY.
    pub window: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            bind: IpAddr::from([127, 0, 0, 1]),
            port: 0,
            handlers: 2,
            window: 1024,
        }
    }
}

/// The running wire front end. [`NetServer::shutdown`] drains gracefully;
/// drop stops hard (flushes nothing beyond the current pump).
pub struct NetServer {
    addr: SocketAddr,
    draining: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    handle: ServiceHandle,
}

impl NetServer {
    /// Binds `cfg.bind:cfg.port` and starts the accept loop plus
    /// `cfg.handlers` connection-handler threads, all serving through
    /// `handle`'s fast paths.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim.
    pub fn start(handle: ServiceHandle, cfg: NetConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind((cfg.bind, cfg.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let draining = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let n_handlers = cfg.handlers.max(1);
        let inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>> = (0..n_handlers)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        let handlers = inboxes
            .iter()
            .map(|inbox| {
                let inbox = Arc::clone(inbox);
                let handle = handle.clone();
                let draining = Arc::clone(&draining);
                let stop = Arc::clone(&stop);
                let cfg = cfg.clone();
                std::thread::spawn(move || handler_loop(&handle, &cfg, &inbox, &draining, &stop))
            })
            .collect();
        let accept = {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let draining = Arc::clone(&draining);
            std::thread::spawn(move || {
                accept_loop(&listener, &inboxes, &handle, &draining, &stop);
            })
        };
        Ok(NetServer {
            addr,
            draining,
            stop,
            accept: Some(accept),
            handlers,
            handle,
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, refuse newly decoded frames with
    /// SHUTTING_DOWN, flush every in-flight response, close connections,
    /// and join the threads. Bounded by an internal deadline — a client
    /// that stops reading cannot wedge the shutdown.
    pub fn shutdown(mut self) {
        self.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.handle.registry().net_open_connections.get() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.stop.store(true, Ordering::Release);
        self.join();
    }

    fn join(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.draining.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        self.join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    inboxes: &[Arc<Mutex<Vec<TcpStream>>>],
    handle: &ServiceHandle,
    draining: &AtomicBool,
    stop: &AtomicBool,
) {
    let reg = handle.registry();
    let mut next = 0usize;
    while !stop.load(Ordering::Acquire) {
        if draining.load(Ordering::Acquire) {
            // Refuse new connections during the drain but keep the thread
            // alive so shutdown's join is uniform.
            std::thread::sleep(ACCEPT_NAP);
            continue;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Per-frame responses are latency-sensitive and batched by
                // the pump already; Nagle on top adds only delay.
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                reg.net_connections.inc();
                reg.net_open_connections.inc();
                let inbox = &inboxes[next % inboxes.len()];
                next = next.wrapping_add(1);
                inbox.lock().unwrap_or_else(|e| e.into_inner()).push(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_NAP),
            Err(_) => std::thread::sleep(ACCEPT_NAP),
        }
    }
}

/// One connection's state inside a handler.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` already consumed by the decoder (compacted when
    /// large, so steady-state decoding never memmoves per frame).
    rstart: usize,
    wbuf: Vec<u8>,
    wstart: usize,
    /// Responses buffered in `wbuf` and not yet fully flushed — the
    /// in-flight window RETRY shed is tested against.
    pending: usize,
    /// Close once `wbuf` flushes (EOF, malformed frame, or drain).
    close_after_flush: bool,
}

enum Pump {
    Progress,
    Idle,
    Close,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::with_capacity(READ_CHUNK),
            rstart: 0,
            wbuf: Vec::with_capacity(READ_CHUNK),
            wstart: 0,
            pending: 0,
            close_after_flush: false,
        }
    }

    /// Flushes as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) -> Result<bool, ()> {
        let mut progressed = false;
        while self.wstart < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wstart..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.wstart += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if self.wstart == self.wbuf.len() {
            self.wbuf.clear();
            self.wstart = 0;
            self.pending = 0;
        }
        Ok(progressed)
    }

    /// One poll round: flush pending responses, read what the socket has,
    /// decode and serve every complete frame, flush again.
    fn pump(&mut self, handle: &ServiceHandle, cfg: &NetConfig, draining: bool) -> Pump {
        let mut progressed = match self.flush() {
            Ok(p) => p,
            Err(()) => return Pump::Close,
        };
        if self.close_after_flush || draining {
            self.close_after_flush = true;
            if self.wstart == self.wbuf.len() && !draining {
                return Pump::Close;
            }
        }
        // Read a bounded chunk so one firehose connection cannot starve
        // the handler's other connections.
        if !self.close_after_flush || draining {
            let mut read_total = 0usize;
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.close_after_flush = true;
                        break;
                    }
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        read_total += n;
                        progressed = true;
                        if read_total >= READ_CHUNK {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return Pump::Close,
                }
            }
        }
        let reg = handle.registry();
        // Decode and serve every complete frame in the buffer.
        loop {
            match decode_request(&self.rbuf[self.rstart..]) {
                Ok(None) => break,
                Ok(Some((request, used))) => {
                    self.rstart += used;
                    reg.net_frames.inc();
                    progressed = true;
                    self.serve(handle, cfg, draining, &request);
                }
                Err(err) => {
                    // Typed refusal, then close — never a silent reset.
                    reg.net_malformed.inc();
                    let _ = err; // the wire has no room for the detail; counters carry it
                    Response {
                        id: 0,
                        status: Status::Malformed,
                        trace: TRACE_NONE,
                        body: Vec::new(),
                    }
                    .encode(&mut self.wbuf);
                    self.pending += 1;
                    self.rstart = 0;
                    self.rbuf.clear();
                    self.close_after_flush = true;
                    progressed = true;
                    break;
                }
            }
        }
        // Compact the consumed prefix once it dominates the buffer.
        if self.rstart > 0 && (self.rstart >= self.rbuf.len() || self.rstart > READ_CHUNK) {
            self.rbuf.drain(..self.rstart);
            self.rstart = 0;
        }
        match self.flush() {
            Ok(p) => progressed |= p,
            Err(()) => return Pump::Close,
        }
        if self.close_after_flush && self.wstart == self.wbuf.len() {
            return Pump::Close;
        }
        if progressed {
            Pump::Progress
        } else {
            Pump::Idle
        }
    }

    /// Serves one decoded frame straight through the handle's fast paths,
    /// appending the response to `wbuf`.
    fn serve(&mut self, handle: &ServiceHandle, cfg: &NetConfig, draining: bool, req: &Request) {
        let reg = handle.registry();
        let id = req.id();
        let response = if draining {
            Response {
                id,
                status: Status::ShuttingDown,
                trace: TRACE_NONE,
                body: Vec::new(),
            }
        } else {
            match *req {
                Request::Ping { .. } => Response {
                    id,
                    status: Status::Ok,
                    trace: TRACE_NONE,
                    body: Vec::new(),
                },
                Request::Stats { .. } => Response {
                    id,
                    status: Status::Ok,
                    trace: TRACE_NONE,
                    body: handle.stats_json().into_bytes(),
                },
                Request::Get { line, .. } => {
                    if self.shed(handle, cfg, line) {
                        reg.net_sheds.inc();
                        Response {
                            id,
                            status: Status::Retry,
                            trace: TRACE_NONE,
                            body: Vec::new(),
                        }
                    } else {
                        let (trace, result) = handle.read_traced(line);
                        let trace = trace.unwrap_or(TRACE_NONE);
                        match result {
                            Ok(data) => Response {
                                id,
                                status: Status::Ok,
                                trace,
                                body: data.to_bytes().to_vec(),
                            },
                            Err(e) => error_response(id, trace, &e),
                        }
                    }
                }
                Request::Put { line, ref data, .. } => {
                    if self.shed(handle, cfg, line) {
                        reg.net_sheds.inc();
                        Response {
                            id,
                            status: Status::Retry,
                            trace: TRACE_NONE,
                            body: Vec::new(),
                        }
                    } else {
                        let (trace, result) = handle.write_traced(line, data);
                        let trace = trace.unwrap_or(TRACE_NONE);
                        match result {
                            Ok(()) => Response {
                                id,
                                status: Status::Ok,
                                trace,
                                body: Vec::new(),
                            },
                            Err(e) => error_response(id, trace, &e),
                        }
                    }
                }
            }
        };
        response.encode(&mut self.wbuf);
        self.pending += 1;
    }

    /// The RETRY-shed decision for a GET/PUT on `line`: the connection's
    /// in-flight window is full (a client pipelining faster than it reads
    /// responses back), or the owning shard is saturated (the queue bound
    /// of clients already wait on its mutex; joining them would block this
    /// handler thread, convoying every other connection it owns — the
    /// typed wire refusal is strictly kinder).
    fn shed(&self, handle: &ServiceHandle, cfg: &NetConfig, line: u64) -> bool {
        self.pending >= cfg.window.max(1)
            || handle.shard_depth(handle.shard_of(line)) >= handle.queue_bound()
    }
}

fn error_response(id: u64, trace: u64, e: &sudoku_svc::ServiceError) -> Response {
    let body = match e.shard() {
        Some(shard) => (shard as u64).to_le_bytes().to_vec(),
        None => Vec::new(),
    };
    Response {
        id,
        status: Status::from_error(e),
        trace,
        body,
    }
}

fn handler_loop(
    handle: &ServiceHandle,
    cfg: &NetConfig,
    inbox: &Mutex<Vec<TcpStream>>,
    draining: &AtomicBool,
    stop: &AtomicBool,
) {
    let reg = handle.registry();
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        {
            let mut pending = inbox.lock().unwrap_or_else(|e| e.into_inner());
            conns.extend(pending.drain(..).map(Conn::new));
        }
        let drain = draining.load(Ordering::Acquire);
        let mut progressed = false;
        conns.retain_mut(|conn| match conn.pump(handle, cfg, drain) {
            Pump::Progress => {
                progressed = true;
                true
            }
            Pump::Idle => true,
            Pump::Close => {
                reg.net_open_connections.dec();
                progressed = true;
                false
            }
        });
        if stop.load(Ordering::Acquire) {
            // Hard stop: whatever is still open closes on drop. The
            // graceful path (shutdown) only sets `stop` once every
            // connection drained or the deadline passed.
            let orphaned = inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
                .count();
            for _ in 0..conns.len() + orphaned {
                reg.net_open_connections.dec();
            }
            return;
        }
        if !progressed {
            std::thread::sleep(IDLE_NAP);
        }
    }
}
