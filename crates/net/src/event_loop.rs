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
//! * **replies** are written to the socket by the thread that has
//!   them — the engine worker that finished the job, the loop thread on
//!   a cache hit, or the router's reader of the worker that answered —
//!   through the connection's [`LineSink`](crate::LineSink), while
//!   nothing is queued there; what the socket would not take is queued,
//!   the loop is poked through a [`WakePipe`] and writes it out as the
//!   socket accepts bytes. Nobody blocks on a slow client: past the
//!   configured high-water mark of queued bytes the client is
//!   disconnected (a *backpressure kill*, reported separately from
//!   clean closes in the engine's connection counters);
//! * the loop keeps the **one count of owed replies**: a line handed
//!   to the handler (or an oversize line the loop answers itself) is
//!   owed until its one [`LineSink::send`](crate::LineSink::send);
//! * a peer that **half-closes** (EOF on our read side) has said "no
//!   more requests", nothing else: the connection stays until every
//!   reply owed for the lines it sent has been written, then closes
//!   clean. A reset, a write error or a kill closes at once;
//! * a **shutdown** follows the same rule for every live connection: the
//!   loop serves on until none is owed a reply, then gives each one
//!   last write pass and closes it;
//! * a connection the loop waits on — after its peer's EOF, or once a
//!   stop is raised — is marked *watched*, under its sink's lock, before
//!   the loop reads its owed count: every later reply then pokes the
//!   loop, written directly or not.

use crate::conn::{FlushOutcome, Framed, NonblockingConn, ReadOutcome};
use crate::conn::{DEFAULT_MAX_LINE_BYTES, DEFAULT_OUTBOUND_HIGH_WATER};
use crate::handler::ConnectionHandler;
use crate::poller::{Interest, PollEvent, Poller, WakePipe};
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
}

impl Default for EventLoopConfig {
    fn default() -> EventLoopConfig {
        EventLoopConfig {
            max_connections: DEFAULT_EVENT_LOOP_CONNECTIONS,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            outbound_high_water: DEFAULT_OUTBOUND_HIGH_WATER,
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
        self.spawn_on(Poller::new()?, handler)
    }

    /// [`EventLoopServer::spawn`] over a given backend — the tests' way
    /// to run the loop over `poll(2)` on a host that has epoll.
    fn spawn_on<H: ConnectionHandler>(
        self,
        mut poller: Poller,
        handler: Arc<H>,
    ) -> io::Result<EventLoopHandle> {
        self.listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            dirty: Mutex::new(Vec::new()),
            wake: WakePipe::new()?,
            stop: AtomicBool::new(false),
        });
        poller.register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(shared.wake.read_fd(), TOKEN_WAKE, Interest::READ)?;
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
        let thread = std::thread::spawn(move || state.run());
        Ok(EventLoopHandle {
            addr: self.addr,
            shared,
            thread: Some(thread),
        })
    }
}

/// A running server. Dropping the handle *without* calling
/// [`EventLoopHandle::shutdown`] leaves the loop running for the life
/// of the process (what the serve binary wants); `shutdown` answers
/// what is owed, flushes and joins it (what the router's `Shutdown`
/// and tests want).
pub struct EventLoopHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl EventLoopHandle {
    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the loop once no live connection is owed a reply — each
    /// then gets one last write pass before it is closed — and joins
    /// the loop thread. The loop serves as usual until then, so replies
    /// land in live queues; a peer that keeps sending keeps it waiting,
    /// and one that closed is owed nothing.
    pub fn shutdown(mut self) {
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
            // drains the wake pipe, so a stop raised — or a reply
            // settled — while it ran has lost its wake byte by now, and
            // one raised after this line still finds its byte in the
            // pipe.
            if self.shared.stop.load(Ordering::SeqCst) && self.all_answered() {
                // Every owed reply is queued by now: flush what the
                // last pass has not seen yet, with the usual kill/close
                // accounting.
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
        // a slow reader — then silence the queues.
        for slot in self.conns.values() {
            let _ = slot.conn.sink().flush();
            slot.conn.sink().close();
        }
    }

    /// Whether no live connection is owed a reply. Marks each one
    /// watched first, so every reply still owed wakes the loop.
    fn all_answered(&self) -> bool {
        let mut answered = true;
        for slot in self.conns.values() {
            answered &= slot.conn.sink().watch() == 0;
        }
        answered
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
            (outcome, Arc::clone(slot.conn.sink()))
        };
        for product in products {
            match product {
                Framed::Line(line) => {
                    if !line.trim().is_empty() {
                        sink.owe();
                        self.handler.on_line(&line, &sink);
                    }
                }
                Framed::Oversize { bytes } => {
                    let error = Error::config(format!(
                        "request line exceeds {} bytes ({bytes} bytes discarded)",
                        self.config.max_line_bytes
                    ));
                    sink.owe();
                    sink.send(&ResponseEnvelope::error(serde_json::Value::Null, &error).to_line());
                }
            }
        }
        if outcome == ReadOutcome::Closed {
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
        // Asked before the flush, and after the peer's EOF only: a
        // reply the sink no longer counts is written or queued by now,
        // so if the flush then leaves the queue empty, it has been
        // written; one still counted wakes the loop, which watches the
        // connection from here on.
        let answered = slot.read_closed && slot.conn.sink().watch() == 0;
        let outcome = slot.conn.sink().flush();
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
        slot.conn.sink().close();
        if let Some(counters) = &self.counters {
            match reason {
                CloseReason::Clean => counters.disconnected_clean(),
                CloseReason::Backpressure => counters.disconnected_backpressure(),
            }
        }
        // Dropping the slot closes the socket fd.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LineSink;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    /// Answers every line with itself.
    struct Echo;

    impl ConnectionHandler for Echo {
        fn on_line(&self, line: &str, sink: &Arc<LineSink>) {
            sink.send(line);
        }
    }

    #[test]
    fn poll_fallback_backend_serves_round_trips() {
        let server =
            EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default()).expect("binds");
        let handle = server
            .spawn_on(Poller::poll_fallback().expect("poll table"), Arc::new(Echo))
            .expect("loop starts");
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        for line in ["{\"id\":1}", "{\"id\":\"fallback\"}"] {
            writeln!(stream, "{line}").expect("writes");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reads");
            assert_eq!(reply, format!("{line}\n"), "a round trip over poll(2)");
        }
        drop((stream, reader));
        handle.shutdown();
    }

    /// Answers `now` at once, holds the loop thread inside `hold` —
    /// on purpose: it tells the test it is there, then blocks until the
    /// test releases it, and answers `held` — and hands every other
    /// line's sink to the test, which answers it when it likes: a job
    /// still running.
    struct Parker {
        parked: Sender<Arc<LineSink>>,
        entered: Sender<()>,
        release: Mutex<Receiver<()>>,
    }

    impl ConnectionHandler for Parker {
        fn on_line(&self, line: &str, sink: &Arc<LineSink>) {
            match line {
                "now" => {
                    sink.send("now");
                }
                "hold" => {
                    self.entered.send(()).expect("test listens");
                    let release = self.release.lock().expect("release lock");
                    release.recv().expect("the test releases the loop");
                    sink.send("held");
                }
                _ => self.parked.send(Arc::clone(sink)).expect("test listens"),
            }
        }
    }

    /// The test's side of [`Parker`]: the parked sinks, and the loop
    /// thread held inside a `hold` line.
    struct Parked {
        jobs: Receiver<Arc<LineSink>>,
        entered: Receiver<()>,
        release: Sender<()>,
    }

    fn spawn_parker_on(server: EventLoopServer) -> (EventLoopHandle, Parked) {
        let (parked, jobs) = channel();
        let (entered, has_entered) = channel();
        let (release, released) = channel();
        let parker = Parker {
            parked,
            entered,
            release: Mutex::new(released),
        };
        let handle = server.spawn(Arc::new(parker)).expect("loop starts");
        let parked = Parked {
            jobs,
            entered: has_entered,
            release,
        };
        (handle, parked)
    }

    fn spawn_parker() -> (EventLoopHandle, Receiver<Arc<LineSink>>) {
        let server = EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default());
        let (handle, parked) = spawn_parker_on(server.expect("binds"));
        (handle, parked.jobs)
    }

    /// Runs `shutdown` on a thread of its own; the receiver hears when
    /// it has returned.
    fn shut_down(handle: EventLoopHandle) -> Receiver<()> {
        let (done, has_returned) = channel();
        std::thread::spawn(move || {
            handle.shutdown();
            let _ = done.send(());
        });
        has_returned
    }

    /// Reads `stream`'s lines on a thread of its own: the receiver
    /// hears each, and disconnects at the end of the stream.
    fn lines_of(stream: &TcpStream) -> Receiver<String> {
        let reader = BufReader::new(stream.try_clone().expect("clones"));
        let (heard, lines) = channel();
        std::thread::spawn(move || {
            for line in reader.lines() {
                let Ok(line) = line else { return };
                let _ = heard.send(line);
            }
        });
        lines
    }

    /// Whether `lines` ended (the peer's EOF, or a reset) with no
    /// further line.
    fn ended(lines: &Receiver<String>) -> bool {
        matches!(
            lines.recv_timeout(PATIENCE),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
        )
    }

    /// One `now` round trip on a connection of its own: the loop has
    /// handled what it saw before this line.
    fn round_trip(addr: SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.write_all(b"now\n").expect("writes");
        let mut reply = [0u8; 4];
        stream.read_exact(&mut reply).expect("the reply arrives");
        assert_eq!(&reply, b"now\n");
        stream
    }

    const PATIENCE: Duration = Duration::from_secs(60);

    /// The reply goes out from the thread that has it: it does not wait
    /// for the loop thread, held inside another connection's line here.
    #[test]
    fn a_reply_reaches_its_peer_while_the_loop_is_held_in_another_line() {
        let server = EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default());
        let (handle, parked) = spawn_parker_on(server.expect("binds"));
        let mut waiting = TcpStream::connect(handle.local_addr()).expect("connects");
        waiting.write_all(b"job\n").expect("writes");
        let job = parked
            .jobs
            .recv_timeout(PATIENCE)
            .expect("the line is handed out");
        let replies = lines_of(&waiting);
        let mut holding = TcpStream::connect(handle.local_addr()).expect("connects");
        holding.write_all(b"hold\n").expect("writes");
        parked
            .entered
            .recv_timeout(PATIENCE)
            .expect("the loop takes the line");

        assert!(job.send("done"));
        let reply = replies.recv_timeout(PATIENCE);
        parked.release.send(()).expect("the loop is held");
        assert_eq!(
            reply.as_deref(),
            Ok("done"),
            "the reply, with the loop held"
        );
        let held = lines_of(&holding);
        assert_eq!(held.recv_timeout(PATIENCE).as_deref(), Ok("held"));
        drop((waiting, holding));
        handle.shutdown();
    }

    /// A half-closed peer is owed its last reply, which the replier
    /// writes itself; the loop, watching the connection since the EOF,
    /// then closes it.
    #[test]
    fn a_half_closed_peer_gets_its_last_reply_written_directly_then_eof() {
        let (handle, jobs) = spawn_parker();
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
        stream.write_all(b"job\n").expect("writes");
        let job = jobs.recv_timeout(PATIENCE).expect("the line is handed out");
        let replies = lines_of(&stream);
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-closes");
        // Most likely the loop has seen the EOF by now; the reply must
        // arrive, and then the EOF, either way.
        drop(round_trip(handle.local_addr()));
        assert!(job.send("done"));
        assert_eq!(replies.recv_timeout(PATIENCE).as_deref(), Ok("done"));
        assert!(ended(&replies), "the close follows the last reply");
        handle.shutdown();
    }

    /// A shutdown waits for the reply it is owed, and a reply written
    /// straight to the socket ends that wait.
    #[test]
    fn shutdown_returns_after_a_last_reply_written_directly() {
        let (handle, jobs) = spawn_parker();
        let addr = handle.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.write_all(b"job\n").expect("writes");
        let job = jobs.recv_timeout(PATIENCE).expect("the line is handed out");
        let replies = lines_of(&stream);
        let has_returned = shut_down(handle);
        // The loop serves on while it is owed a reply.
        drop(round_trip(addr));
        assert!(job.send("done"));
        has_returned
            .recv_timeout(PATIENCE)
            .expect("shutdown returns once the reply is written");
        assert_eq!(replies.recv_timeout(PATIENCE).as_deref(), Ok("done"));
        assert!(ended(&replies), "the close follows the last reply");
    }

    /// A service that is never asked: the reset test reads the loop's
    /// connection counters through an engine's `Stats`.
    struct Unasked;

    impl chatpattern_core::PatternService for Unasked {
        fn execute(
            &self,
            _: chatpattern_core::PatternRequest,
        ) -> Result<chatpattern_core::PatternResponse, Error> {
            Err(Error::internal("not asked"))
        }
    }

    /// A reply written to a peer that reset fails, and the connection
    /// leaves as a clean disconnect. The loop thread is held inside
    /// another line meanwhile, so the write meets the reset before the
    /// loop can read it.
    #[test]
    fn a_direct_write_to_a_reset_peer_fails_and_the_connection_leaves_clean() {
        let engine = chatpattern_core::PatternEngine::new(Unasked);
        let server = EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default())
            .expect("binds")
            .conn_counters(engine.conn_counters());
        let (handle, parked) = spawn_parker_on(server);
        let mut reset = TcpStream::connect(handle.local_addr()).expect("connects");
        reset.write_all(b"job\nnow\n").expect("writes");
        let job = parked
            .jobs
            .recv_timeout(PATIENCE)
            .expect("the line is handed out");
        let mut peek = [0u8; 4];
        reset.peek(&mut peek).expect("the `now` reply arrives");
        let mut holding = TcpStream::connect(handle.local_addr()).expect("connects");
        holding.write_all(b"hold\n").expect("writes");
        parked
            .entered
            .recv_timeout(PATIENCE)
            .expect("the loop takes the line");
        // Closing with the `now` reply unread resets the connection.
        drop(reset);

        let sent = job.send("too late");
        parked.release.send(()).expect("the loop is held");
        assert!(!sent, "a write to a reset peer fails");
        let held = lines_of(&holding);
        assert_eq!(held.recv_timeout(PATIENCE).as_deref(), Ok("held"));
        // The failed write told the loop, which closed the connection
        // before it read this line.
        holding.write_all(b"now\n").expect("writes");
        assert_eq!(held.recv_timeout(PATIENCE).as_deref(), Ok("now"));
        let stats = engine.stats();
        assert_eq!(
            (stats.disconnects_clean, stats.disconnects_backpressure),
            (1, 0)
        );
        drop(holding);
        handle.shutdown();
    }

    /// The loop's close of a connection closes its socket, though a job
    /// still holds the connection's sink: the sink lets go of it.
    #[test]
    fn a_closed_connections_socket_closes_while_a_job_holds_its_sink() {
        let config = EventLoopConfig {
            outbound_high_water: 1,
            ..EventLoopConfig::default()
        };
        let server = EventLoopServer::bind("127.0.0.1:0", config).expect("binds");
        let (handle, parked) = spawn_parker_on(server);
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
        stream.write_all(b"kill\njob\n").expect("writes");
        let kill = parked
            .jobs
            .recv_timeout(PATIENCE)
            .expect("the line is handed out");
        let job = parked
            .jobs
            .recv_timeout(PATIENCE)
            .expect("the line is handed out");
        // The peer is not reading: more than the socket takes is left
        // queued, past the mark, and the loop kills the connection.
        assert!(!kill.send(&"x".repeat(4 << 20)));
        let mut read = Vec::new();
        let (done, has_read) = channel();
        let mut reader = stream.try_clone().expect("clones");
        std::thread::spawn(move || {
            let _ = reader.read_to_end(&mut read);
            let _ = done.send(());
        });
        has_read
            .recv_timeout(PATIENCE)
            .expect("the socket closes while the job holds its sink");
        assert!(!job.send("late"));
        handle.shutdown();
    }

    #[test]
    fn shutdown_waits_for_a_reply_produced_after_it_began() {
        let (handle, jobs) = spawn_parker();
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
        stream.write_all(b"job\n").expect("writes");
        let job = jobs.recv_timeout(PATIENCE).expect("the line is handed out");

        let has_returned = shut_down(handle);
        assert!(
            has_returned
                .recv_timeout(Duration::from_millis(300))
                .is_err(),
            "shutdown returned while a live connection was owed a reply"
        );
        assert!(job.send("done"), "the queue is still open");
        has_returned
            .recv_timeout(PATIENCE)
            .expect("shutdown returns once the reply is queued");
        let mut replies = String::new();
        stream.read_to_string(&mut replies).expect("reads to EOF");
        assert_eq!(replies, "done\n", "the reply, then the close");
    }

    #[test]
    fn shutdown_does_not_wait_for_a_connection_that_closed_mid_job() {
        let (handle, jobs) = spawn_parker();
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
        stream.write_all(b"job\n").expect("writes");
        let job = jobs.recv_timeout(PATIENCE).expect("the line is handed out");
        // Closing with the `now` reply unread resets the connection:
        // the loop drops it at once, not on a half-close.
        stream.write_all(b"now\n").expect("writes");
        let mut peek = [0u8; 4];
        stream.peek(&mut peek).expect("the reply arrives");
        drop(stream);

        shut_down(handle)
            .recv_timeout(PATIENCE)
            .expect("shutdown does not wait for a connection that is gone");
        assert!(!job.send("too late"), "the job's reply goes nowhere");
    }
}
