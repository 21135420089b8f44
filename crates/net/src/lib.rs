//! # cp_net — NDJSON-over-TCP transport for the ChatPattern wire
//! protocol
//!
//! The wire protocol (`docs/WIRE_PROTOCOL.md`): one JSON request
//! envelope per line in, one response envelope per line out, `id` as
//! the only correlation key. This crate carries it over TCP, the
//! product's one carrier — deliberately std-only (the offline build
//! has no async runtime):
//!
//! * one server, the readiness-driven [`EventLoopServer`] (epoll on
//!   Linux via direct `extern "C"` declarations, portable `poll(2)`
//!   fallback): thousands of mostly-idle connections on one loop
//!   thread, incremental NDJSON framing, replies written by the thread
//!   that has them with bounded per-connection queues for what a socket
//!   would not take (slow readers are disconnected past a high-water
//!   mark instead of buffered without bound), and the one count of
//!   owed replies: the loop counts each line it hands to the handler
//!   until its reply is written or queued, so a peer's half-close
//!   ("no more requests") and [`EventLoopHandle::shutdown`] alike wait
//!   until every live connection has been answered what it is owed;
//! * one contract for what happens to a line, [`ConnectionHandler`]
//!   (`on_line` does not block and answers the line exactly once), and
//!   the [`EngineHandler`] that plugs a
//!   [`PatternEngine`](chatpattern_core::PatternEngine) into it: the
//!   engine worker that finishes a job hands the reply to the
//!   connection itself;
//! * [`LineSink`], a connection's outbound side, which handlers answer
//!   through with [`LineSink::send`] — a reply to a peer that is gone
//!   is dropped, not an error;
//! * the blocking [`NdjsonClient`], and the dial-with-backoff under it
//!   ([`connect_with_backoff`]).
//!
//! `chatpattern-serve` is an [`EventLoopServer`] over an
//! [`EngineHandler`]; `chatpattern-router` is the same server over a
//! handler of its own that forwards each line to a worker it dialled
//! with [`connect_with_backoff`].
//!
//! ```
//! use chatpattern_core::wire::RequestEnvelope;
//! use chatpattern_core::{ChatPattern, EngineConfig, PatternEngine, PatternRequest};
//! use cp_net::{ClientConfig, EngineHandler, EventLoopConfig, EventLoopServer, NdjsonClient};
//! use std::sync::Arc;
//!
//! let system = ChatPattern::builder()
//!     .window(16)
//!     .training_patterns(8)
//!     .diffusion_steps(6)
//!     .build()?;
//! let engine = Arc::new(PatternEngine::with_config(system, EngineConfig::default())?);
//! let server = EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default()).expect("binds");
//! let addr = server.local_addr();
//! let handle = server
//!     .spawn(Arc::new(EngineHandler::new(engine)))
//!     .expect("loop starts");
//!
//! let mut client = NdjsonClient::connect(&addr.to_string(), ClientConfig::default())
//!     .expect("connects");
//! let reply = client
//!     .call(&RequestEnvelope {
//!         id: serde_json::to_value(&1u64),
//!         tenant: None,
//!         request: PatternRequest::Stats,
//!     })
//!     .expect("stats round-trips");
//! assert_eq!(reply.id.as_u64(), Some(1));
//! handle.shutdown();
//! # Ok::<(), chatpattern_core::Error>(())
//! ```

mod client;
#[cfg(unix)]
mod conn;
#[cfg(unix)]
mod event_loop;
#[cfg(unix)]
mod handler;
#[cfg(unix)]
mod poller;

pub use client::{connect_with_backoff, ClientConfig, NdjsonClient};
#[cfg(unix)]
pub use conn::{LineSink, DEFAULT_MAX_LINE_BYTES};
#[cfg(unix)]
pub use event_loop::{
    EventLoopConfig, EventLoopHandle, EventLoopServer, DEFAULT_EVENT_LOOP_CONNECTIONS,
};
#[cfg(unix)]
pub use handler::{ConnectionHandler, EngineHandler};
#[cfg(unix)]
pub use poller::raise_nofile_limit;
