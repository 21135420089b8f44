//! The blocking NDJSON-over-TCP server.

use crate::sink::LineSink;
use chatpattern_core::ConnCounters;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Default cap on concurrently served connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// What a server does with each connection's traffic. One handler
/// instance is shared by every connection (hold shared state in
/// `Arc`s; the engine itself is the usual state).
pub trait ConnectionHandler: Send + Sync + 'static {
    /// One non-empty NDJSON line arrived. Replies go through `sink`
    /// (shared with any completion threads the handler spawns), and
    /// may be written from any thread at any later time — the wire
    /// protocol's `id` is the correlation key, not ordering.
    fn on_line(&self, line: &str, sink: &Arc<LineSink>);

    /// The connection's read side ended (clean EOF, reset, or the
    /// write side failing). Per-connection teardown — e.g. flushing
    /// stats — goes here.
    fn on_disconnect(&self, _sink: &Arc<LineSink>) {}

    /// Blocks until every reply the handler still owes for lines it
    /// already accepted has been handed to its sink. A transport calls
    /// this before tearing its connections down, so completions in
    /// flight are not written into closed queues. Handlers that answer
    /// inside `on_line` owe nothing and keep the no-op default.
    fn quiesce(&self) {}
}

/// A bound-but-not-yet-serving TCP server: `bind` first (so callers
/// can learn the OS-assigned port under `:0`), then [`spawn`] the
/// accept loop.
///
/// Threading model — deliberately boring, because the environment has
/// no async runtime: one accept thread, one thread per live
/// connection, and a counting gate that stops accepting beyond
/// `max_connections` (back-pressure lands in the OS accept backlog).
///
/// [`spawn`]: NdjsonServer::spawn
pub struct NdjsonServer {
    listener: TcpListener,
    addr: SocketAddr,
    max_connections: usize,
    counters: Option<Arc<ConnCounters>>,
}

impl NdjsonServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// Any socket-level bind failure.
    pub fn bind(addr: impl ToSocketAddrs, max_connections: usize) -> io::Result<NdjsonServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(NdjsonServer {
            listener,
            addr,
            max_connections: max_connections.max(1),
            counters: None,
        })
    }

    /// Attaches connection counters (live/peak/disconnect reasons) so
    /// the transport shows up in the engine's `Stats`. Thread-transport
    /// disconnects are always *clean* — its back-pressure lands in the
    /// accept gate, never in a mid-stream kill.
    #[must_use]
    pub fn conn_counters(mut self, counters: Arc<ConnCounters>) -> NdjsonServer {
        self.counters = Some(counters);
        self
    }

    /// The bound address (the real port, even when bound with `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the accept loop on a background thread and returns the
    /// handle used to stop it.
    pub fn spawn<H: ConnectionHandler>(self, handler: Arc<H>) -> ServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in self.listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // The gate: wait until a connection slot frees up
                    // before serving this stream (it is already
                    // accepted; the cap bounds *serving* threads).
                    let (count, freed) = &*gate;
                    let mut active = count.lock().expect("gate lock");
                    while *active >= self.max_connections {
                        active = freed.wait(active).expect("gate wait");
                    }
                    *active += 1;
                    drop(active);
                    let handler = Arc::clone(&handler);
                    let gate = Arc::clone(&gate);
                    let counters = self.counters.clone();
                    std::thread::spawn(move || {
                        if let Some(counters) = &counters {
                            counters.connected();
                        }
                        serve_connection(stream, &*handler, counters.as_deref());
                        let (count, freed) = &*gate;
                        *count.lock().expect("gate lock") -= 1;
                        freed.notify_one();
                    });
                }
            })
        };
        ServerHandle {
            addr: self.addr,
            stop,
            accept: Some(accept),
        }
    }
}

/// Runs one connection to completion: read lines, hand them to the
/// handler, notify it when the peer goes away. The disconnect is
/// counted before `on_disconnect` so a stats flush from the callback
/// already sees it.
fn serve_connection<H: ConnectionHandler>(
    stream: TcpStream,
    handler: &H,
    counters: Option<&ConnCounters>,
) {
    let sink = match stream.try_clone() {
        Ok(write_half) => Arc::new(LineSink::new(Box::new(write_half))),
        Err(_) => {
            if let Some(counters) = counters {
                counters.disconnected_clean();
            }
            return;
        }
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        handler.on_line(&line, &sink);
        if sink.is_closed() || sink.has_failed() {
            break;
        }
    }
    // Note: completion threads may still hold the sink and deliver
    // late replies — a client that half-closed its write side keeps
    // receiving answers until the last writer drops the sink.
    if let Some(counters) = counters {
        counters.disconnected_clean();
    }
    handler.on_disconnect(&sink);
}

/// A running server. Dropping the handle *without* calling
/// [`ServerHandle::shutdown`] leaves the accept loop running for the
/// life of the process (what a serve binary wants); `shutdown` stops
/// accepting and joins the accept thread (what tests want).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept thread.
    /// Connections already being served run to their natural EOF.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop is blocked in `accept()`; poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Parks this thread on the accept loop forever (the serve
    /// binary's foreground mode).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}
