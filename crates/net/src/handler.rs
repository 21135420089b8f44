//! What a transport does with each line — the [`ConnectionHandler`]
//! contract — and the handler that feeds decoded wire envelopes into a
//! [`PatternEngine`](chatpattern_core::PatternEngine).

use crate::conn::LineSink;
use chatpattern_core::wire::{decode_request_line, ResponseEnvelope};
use chatpattern_core::{PatternEngine, PatternService};
use std::sync::Arc;

/// What a server does with each connection's traffic. One handler
/// instance is shared by every connection (hold shared state in
/// `Arc`s: the engine for [`EngineHandler`], the fleet's links and
/// routing tables for the router's handler).
pub trait ConnectionHandler: Send + Sync + 'static {
    /// One non-empty NDJSON line arrived. **Must not block**: the event
    /// loop calls this on its one thread, so every connection waits
    /// while it runs — what would wait (a job, a worker's answer, a
    /// session on the move, a link to redial) is handed to the thread
    /// that ends the wait. The line is answered exactly once, with
    /// [`LineSink::send`], now or from any thread at any later time —
    /// the wire protocol's `id` is the correlation key, not ordering.
    /// The loop counts the line as owed until that answer, so a peer
    /// that half-closes, and a server asked to shut down, is kept
    /// until it has been answered.
    fn on_line(&self, line: &str, sink: &Arc<LineSink>);
}

/// Serves one engine over any number of connections:
/// each accepted request registers a completion callback on its job
/// ([`JobHandle::on_done`](chatpattern_core::JobHandle::on_done)), so
/// the engine worker that finishes the job serialises the reply and
/// hands it to the connection's sink itself — no thread waits per
/// request, and the handler keeps no count of its own: the event loop
/// knows what each connection is still owed. Replies go out the moment
/// the job finishes, out of submission order when jobs finish out of
/// order; the envelope `id` is the correlation key. Malformed lines get
/// an immediate error envelope and never tear down the stream.
///
/// Back-pressure is **typed, not blocking**: requests are submitted
/// non-blocking under the envelope's tenant, so a full queue
/// (`QueueFull`) or an exhausted tenant quota (`Overloaded`) answers
/// immediately with an error envelope carrying `retry_after_ms`
/// instead of stalling the reader — one flooding connection cannot
/// freeze every other connection's submissions. The hand-over to a
/// connection is a non-blocking write to its socket, with what the
/// socket would not take left in a bounded queue, and never waits for
/// the peer.
pub struct EngineHandler<S: PatternService + Send + Sync + 'static> {
    engine: Arc<PatternEngine<S>>,
}

impl<S: PatternService + Send + Sync + 'static> EngineHandler<S> {
    #[must_use]
    pub fn new(engine: Arc<PatternEngine<S>>) -> EngineHandler<S> {
        EngineHandler { engine }
    }
}

impl<S: PatternService + Send + Sync + 'static> ConnectionHandler for EngineHandler<S> {
    fn on_line(&self, line: &str, sink: &Arc<LineSink>) {
        match decode_request_line(line) {
            Ok(envelope) => {
                let id = envelope.id;
                let handle = match self
                    .engine
                    .submit_as(envelope.tenant.as_deref(), envelope.request)
                {
                    Ok(handle) => handle,
                    Err(error) => {
                        // QueueFull / Overloaded: answer right now with
                        // the retry-after hint rather than blocking the
                        // connection's reader.
                        sink.send(&ResponseEnvelope::error(id, &error).to_line());
                        return;
                    }
                };
                let sink = Arc::clone(sink);
                handle.on_done(move |result| {
                    let envelope = match result {
                        Ok(response) => ResponseEnvelope::ok(id, response),
                        Err(error) => ResponseEnvelope::error(id, &error),
                    };
                    sink.send(&envelope.to_line());
                });
            }
            Err((id, error)) => {
                sink.send(&ResponseEnvelope::error(id, &error).to_line());
            }
        }
    }
}
