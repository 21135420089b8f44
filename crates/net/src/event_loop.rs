//! The NDJSON-over-TCP server: one readiness-driven loop thread
//! multiplexing thousands of connections.
//!
//! Interactive dialog workloads are dominated by mostly-idle
//! connections, which is where readiness polling costs two buffers per
//! connection instead of a thread:
//!
//! * **accept / read / frame** happen on the single loop thread over
//!   non-blocking sockets ([`Poller`]: epoll on Linux, `poll(2)`
//!   fallback elsewhere);
//! * complete lines go to the [`ConnectionHandler`], which must not
//!   block — for [`EngineHandler`](crate::EngineHandler) that is the
//!   engine's non-blocking `submit` path, so the loop never waits on
//!   inference; for `chatpattern-router`'s handler it is a write to a
//!   worker's link, or a list to park the line on;
//! * **replies** are pushed — by the engine worker that finished the
//!   job, or by the router's reader of the worker that answered — into
//!   a per-connection [`OutboundQueue`](crate::OutboundQueue)
//!   and the loop is poked through a [`WakePipe`]; the loop writes them
//!   out as sockets accept bytes. The loop never blocks on a slow
//!   client: past the configured high-water mark the client is
//!   disconnected (a *backpressure kill*, reported separately from
//!   clean closes in the engine's connection counters);
//! * a peer that **half-closes** (EOF on our read side) has said "no
//!   more requests", nothing else: the connection stays until every
//!   reply owed for the lines it sent has been written, then closes
//!   clean. A reset, a write error or a kill closes at once.

use crate::conn::{FlushOutcome, Framed, NonblockingConn, ReadOutcome};
use crate::conn::{DEFAULT_MAX_LINE_BYTES, DEFAULT_OUTBOUND_HIGH_WATER};
use crate::handler::ConnectionHandler;
use crate::poller::{Interest, PollEvent, Poller, WakePipe};
use crate::sink::LineSink;
use chatpattern_core::wire::ResponseEnvelope;
use chatpattern_core::{ConnCounters, Error};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Default connection cap — bounded by fd budget and per-connection
/// buffer memory, not by threads.
pub const DEFAULT_EVENT_LOOP_CONNECTIONS: usize = 4096;

/// Tuning for [`EventLoopServer`].
#[derive(Debug, Clone)]
pub struct EventLoopConfig {
    /// Accepts pause (connections queue in the OS backlog) at this many
    /// live connections (≥ 1).
    pub max_connections: usize,
    /// Longest accepted request line; longer lines are answered with an
    /// error envelope and discarded without unbounded buffering.
    pub max_line_bytes: usize,
    /// Per-connection outbound byte cap; a peer that falls further
    /// behind than this is disconnected (backpressure kill).
    pub outbound_high_water: usize,
    /// Use the portable `poll(2)` backend even where epoll is
    /// available — keeps the fallback path testable on Linux.
    pub force_poll_fallback: bool,
}

impl Default for EventLoopConfig {
    fn default() -> EventLoopConfig {
        EventLoopConfig {
            max_connections: DEFAULT_EVENT_LOOP_CONNECTIONS,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            outbound_high_water: DEFAULT_OUTBOUND_HIGH_WATER,
            force_poll_fallback: false,
        }
    }
}

/// Why a connection left the loop.
enum CloseReason {
    /// The peer finished and was answered, a reset, or a write to a
    /// vanished peer.
    Clean,
    /// The outbound queue overflowed its high-water mark.
    Backpressure,
}

/// State shared between the loop thread, whoever pushes replies (via
/// each queue's notify hook), and the handle.
struct Shared {
    /// Tokens whose outbound queues need loop attention.
    dirty: Mutex<Vec<u64>>,
    wake: WakePipe,
    stop: AtomicBool,
}

/// A bound-but-not-yet-serving server: `bind` first (so callers can
/// learn the OS-assigned port under `:0`), then
/// [`spawn`](EventLoopServer::spawn) the loop.
pub struct EventLoopServer {
    listener: TcpListener,
    addr: SocketAddr,
    config: EventLoopConfig,
    counters: Option<Arc<ConnCounters>>,
}

impl EventLoopServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// Any socket-level bind failure; `InvalidInput` for a connection
    /// cap of zero (a server that would never accept).
    pub fn bind(addr: impl ToSocketAddrs, config: EventLoopConfig) -> io::Result<EventLoopServer> {
        if config.max_connections == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_connections must be at least 1 (got 0)",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(EventLoopServer {
            listener,
            addr,
            config,
            counters: None,
        })
    }

    /// The bound address (the real port, even when bound with `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Attaches connection counters (live/peak/disconnect reasons) so
    /// the transport shows up in the engine's `Stats`.
    #[must_use]
    pub fn conn_counters(mut self, counters: Arc<ConnCounters>) -> EventLoopServer {
        self.counters = Some(counters);
        self
    }

    /// Starts the loop thread and returns the handle used to stop it.
    ///
    /// # Errors
    ///
    /// Poller or wake-pipe creation failure.
    pub fn spawn<H: ConnectionHandler>(self, handler: Arc<H>) -> io::Result<EventLoopHandle> {
        self.listener.set_nonblocking(true)?;
        let mut poller = if self.config.force_poll_fallback {
            Poller::poll_fallback()?
        } else {
            Poller::new()?
        };
        let shared = Arc::new(Shared {
            dirty: Mutex::new(Vec::new()),
            wake: WakePipe::new()?,
            stop: AtomicBool::new(false),
        });
        poller.register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(shared.wake.read_fd(), TOKEN_WAKE, Interest::READ)?;
        let addr = self.addr;
        let mut state = LoopState {
            poller,
            listener: self.listener,
            config: self.config,
            handler,
            counters: self.counters,
            shared: Arc::clone(&shared),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            accept_paused: false,
        };
        let handler: Arc<dyn ConnectionHandler> = state.handler.clone();
        let thread = std::thread::spawn(move || state.run());
        Ok(EventLoopHandle {
            addr,
            shared,
            handler,
            thread: Some(thread),
        })
    }
}

/// A running server. Dropping the handle *without* calling
/// [`EventLoopHandle::shutdown`] leaves the loop running for the life
/// of the process (what the serve binary wants); `shutdown` quiesces,
/// flushes and joins it (what the router's `Shutdown` and tests want).
pub struct EventLoopHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handler: Arc<dyn ConnectionHandler>,
    thread: Option<JoinHandle<()>>,
}

impl EventLoopHandle {
    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the handler to hand over every reply it still owes
    /// ([`ConnectionHandler::quiesce`]), then stops the loop — which
    /// gives each connection one last write pass before closing it —
    /// and joins the loop thread. Connections stay readable during the
    /// wait, so a peer that keeps sending keeps it waiting.
    pub fn shutdown(mut self) {
        // The loop keeps serving while the handler quiesces, so the
        // replies land in live queues, not ones teardown closed.
        self.handler.quiesce();
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Parks this thread on the loop forever (the serve binary's
    /// foreground mode).
    pub fn join(mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

struct Slot {
    conn: NonblockingConn,
    sink: Arc<LineSink>,
    /// The peer sent EOF: no more requests, READ interest dropped; the
    /// connection goes once nothing is owed and nothing is queued.
    read_closed: bool,
}

struct LoopState<H: ConnectionHandler> {
    poller: Poller,
    listener: TcpListener,
    config: EventLoopConfig,
    handler: Arc<H>,
    counters: Option<Arc<ConnCounters>>,
    shared: Arc<Shared>,
    conns: HashMap<u64, Slot>,
    next_token: u64,
    accept_paused: bool,
}

impl<H: ConnectionHandler> LoopState<H> {
    fn run(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            // Asked before each wait, not after it: the pass below
            // drains the wake pipe, so a stop raised while it ran has
            // lost its wake byte by now, and one raised after this
            // line still finds its byte in the pipe.
            if self.shared.stop.load(Ordering::SeqCst) {
                // Shutdown quiesced the handler first, so every owed
                // reply is queued by now: flush what the last pass has
                // not seen yet, with the usual kill/close accounting.
                self.flush_dirty();
                break;
            }
            if self.poller.wait(&mut events, -1).is_err() {
                // Pathological poller failure: back off instead of
                // spinning; the stop flag is still honoured above.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            let mut accept_ready = false;
            let mut wake_ready = false;
            let ready = std::mem::take(&mut events);
            for ev in &ready {
                match ev.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKE => wake_ready = true,
                    token => {
                        if ev.readable || ev.hangup {
                            self.conn_readable(token);
                        }
                        if ev.writable {
                            self.flush_token(token);
                        }
                    }
                }
            }
            events = ready;
            if wake_ready {
                self.shared.wake.drain();
            }
            // Drain the dirty list every pass: a worker may have
            // queued a reply whose wake byte raced this wait.
            self.flush_dirty();
            if accept_ready {
                self.accept_ready();
            }
            if self.accept_paused && self.conns.len() < self.config.max_connections {
                self.resume_accepts();
            }
        }
        // Teardown: give every non-killed queue one final write pass
        // — bounded: each stops at WouldBlock rather than waiting for
        // a slow reader — then silence the queues so a handler that
        // does not quiesce drops its late replies instead of
        // accumulating them forever.
        for slot in self.conns.values_mut() {
            if !slot.conn.outbound().is_killed() {
                let _ = slot.conn.flush_ready();
            }
            slot.conn.outbound().close();
        }
    }

    fn flush_dirty(&mut self) {
        let dirty = std::mem::take(&mut *self.shared.dirty.lock().expect("dirty lock"));
        for token in dirty {
            self.flush_token(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            if self.conns.len() >= self.config.max_connections {
                self.pause_accepts();
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let token = self.next_token;
                    self.next_token += 1;
                    let shared = Arc::clone(&self.shared);
                    let notify = move || {
                        shared.dirty.lock().expect("dirty lock").push(token);
                        shared.wake.wake();
                    };
                    let Ok(conn) = NonblockingConn::new(
                        stream,
                        self.config.max_line_bytes,
                        self.config.outbound_high_water,
                        notify,
                    ) else {
                        continue;
                    };
                    let sink = Arc::new(LineSink::new(Box::new(conn.outbound().writer())));
                    if self
                        .poller
                        .register(conn.raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    if let Some(counters) = &self.counters {
                        counters.connected();
                    }
                    self.conns.insert(
                        token,
                        Slot {
                            conn,
                            sink,
                            read_closed: false,
                        },
                    );
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (e.g. fd exhaustion): the
                    // level-triggered listener would refire immediately,
                    // so yield briefly instead of spinning.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    fn pause_accepts(&mut self) {
        if !self.accept_paused {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.accept_paused = true;
        }
    }

    fn resume_accepts(&mut self) {
        if self
            .poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_ok()
        {
            self.accept_paused = false;
        }
    }

    fn conn_readable(&mut self, token: u64) {
        let mut products = Vec::new();
        let (outcome, sink) = {
            let Some(slot) = self.conns.get_mut(&token) else {
                return;
            };
            if slot.read_closed {
                // READ interest is gone, so this is an error or a full
                // hangup: the peer is not reading any more either.
                self.close(token, CloseReason::Clean);
                return;
            }
            let mut scratch = [0u8; 16 * 1024];
            let outcome = slot.conn.read_ready(&mut scratch, &mut products);
            (outcome, Arc::clone(&slot.sink))
        };
        for product in products {
            match product {
                Framed::Line(line) => {
                    if !line.trim().is_empty() {
                        self.handler.on_line(&line, &sink);
                    }
                }
                Framed::Oversize { bytes } => {
                    let error = Error::config(format!(
                        "request line exceeds {} bytes ({bytes} bytes discarded)",
                        self.config.max_line_bytes
                    ));
                    sink.send_line(
                        &ResponseEnvelope::error(serde_json::Value::Null, &error).to_line(),
                    );
                }
            }
        }
        if sink.has_failed() || outcome == ReadOutcome::Closed {
            self.close(token, CloseReason::Clean);
            return;
        }
        if outcome == ReadOutcome::Eof {
            if let Some(slot) = self.conns.get_mut(&token) {
                slot.read_closed = true;
            }
        }
        // Opportunistic flush: synchronous replies (decode errors,
        // typed back-pressure) go out this pass instead of waiting for
        // the wake pipe. After an EOF it also drops READ interest (a
        // level-triggered EOF would refire every pass) and closes a
        // connection that is owed nothing.
        self.flush_token(token);
    }

    /// Writes what the socket will take, keeps the registered interest
    /// in step (READ until the peer's EOF, WRITE while bytes are
    /// queued), and closes a connection that is finished: killed,
    /// failed, or — after the peer's EOF — answered in full.
    fn flush_token(&mut self, token: u64) {
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        // Asked before the flush: a reply the sink no longer counts is
        // in the queue by now, so if the flush then leaves the queue
        // empty, that reply has been written.
        let answered = slot.read_closed && slot.sink.owed() == 0;
        let outcome = slot.conn.flush_ready();
        match outcome {
            FlushOutcome::Idle if answered => self.close(token, CloseReason::Clean),
            FlushOutcome::Idle | FlushOutcome::Pending => {
                let wanted = Interest {
                    readable: !slot.read_closed,
                    writable: outcome == FlushOutcome::Pending,
                };
                if wanted != slot.conn.interest
                    && self
                        .poller
                        .modify(slot.conn.raw_fd(), token, wanted)
                        .is_ok()
                {
                    slot.conn.interest = wanted;
                }
            }
            FlushOutcome::Killed => self.close(token, CloseReason::Backpressure),
            FlushOutcome::Closed => self.close(token, CloseReason::Clean),
        }
    }

    fn close(&mut self, token: u64, reason: CloseReason) {
        let Some(slot) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(slot.conn.raw_fd());
        slot.conn.outbound().close();
        // Count before the handler callback: a stats line flushed from
        // `on_disconnect` must already see this disconnect.
        if let Some(counters) = &self.counters {
            match reason {
                CloseReason::Clean => counters.disconnected_clean(),
                CloseReason::Backpressure => counters.disconnected_backpressure(),
            }
        }
        self.handler.on_disconnect(&slot.sink);
        // Dropping the slot closes the socket fd.
    }
}
