//! What a transport does with each line — the [`ConnectionHandler`]
//! contract — and the handler that feeds decoded wire envelopes into a
//! [`PatternEngine`](chatpattern_core::PatternEngine).

use crate::conn::LineSink;
use chatpattern_core::wire::{decode_request_line, ResponseEnvelope};
use chatpattern_core::{PatternEngine, PatternService};
use std::sync::{Arc, Condvar, Mutex};

/// What a server does with each connection's traffic. One handler
/// instance is shared by every connection (hold shared state in
/// `Arc`s: the engine for [`EngineHandler`], the fleet's links and
/// routing tables for the router's handler).
pub trait ConnectionHandler: Send + Sync + 'static {
    /// One non-empty NDJSON line arrived. **Must not block**: the event
    /// loop calls this on its one thread, so every connection waits
    /// while it runs — what would wait (a job, a worker's answer, a
    /// session on the move, a link to redial) is handed to the thread
    /// that ends the wait. Replies go through `sink`, now or from any
    /// thread at any later time — the wire protocol's `id` is the
    /// correlation key, not ordering. A reply that comes later is
    /// announced with [`LineSink::owe`] before this returns and sent
    /// with [`LineSink::send_owed`], so a peer that half-closes is
    /// kept until it has been answered.
    fn on_line(&self, line: &str, sink: &Arc<LineSink>);

    /// Blocks until every reply the handler still owes for lines it
    /// already accepted has been handed to its sink. A transport calls
    /// this before tearing its connections down, so completions in
    /// flight are not written into closed queues. Handlers that answer
    /// inside `on_line` owe nothing and keep the no-op default.
    fn quiesce(&self) {}
}

/// Serves one engine over any number of connections:
/// each accepted request registers a completion callback on its job
/// ([`JobHandle::on_done`](chatpattern_core::JobHandle::on_done)), so
/// the engine worker that finishes the job serialises the reply and
/// hands it to the connection's sink itself — no thread waits per
/// request. Replies go out the moment the job finishes, out of
/// submission order when jobs finish out of order; the envelope `id`
/// is the correlation key. Malformed lines get an immediate error
/// envelope and never tear down the stream.
///
/// Back-pressure is **typed, not blocking**: requests are submitted
/// non-blocking under the envelope's tenant, so a full queue
/// (`QueueFull`) or an exhausted tenant quota (`Overloaded`) answers
/// immediately with an error envelope carrying `retry_after_ms`
/// instead of stalling the reader — one flooding connection cannot
/// freeze every other connection's submissions. The hand-over to a
/// connection is a push into its bounded outbound queue and never
/// waits for the peer.
pub struct EngineHandler<S: PatternService + Send + Sync + 'static> {
    engine: Arc<PatternEngine<S>>,
    in_flight: Arc<(Mutex<usize>, Condvar)>,
}

impl<S: PatternService + Send + Sync + 'static> EngineHandler<S> {
    #[must_use]
    pub fn new(engine: Arc<PatternEngine<S>>) -> EngineHandler<S> {
        EngineHandler {
            engine,
            in_flight: Arc::new((Mutex::new(0), Condvar::new())),
        }
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
                        sink.send_line(&ResponseEnvelope::error(id, &error).to_line());
                        return;
                    }
                };
                let sink = Arc::clone(sink);
                let in_flight = Arc::clone(&self.in_flight);
                *in_flight.0.lock().expect("in-flight lock") += 1;
                sink.owe();
                handle.on_done(move |result| {
                    let envelope = match result {
                        Ok(response) => ResponseEnvelope::ok(id, response),
                        Err(error) => ResponseEnvelope::error(id, &error),
                    };
                    sink.send_owed(&envelope.to_line());
                    let (count, zero) = &*in_flight;
                    *count.lock().expect("in-flight lock") -= 1;
                    zero.notify_all();
                });
            }
            Err((id, error)) => {
                sink.send_line(&ResponseEnvelope::error(id, &error).to_line());
            }
        }
    }

    fn quiesce(&self) {
        let (count, zero) = &*self.in_flight;
        let mut active = count.lock().expect("in-flight lock");
        while *active > 0 {
            active = zero.wait(active).expect("in-flight wait");
        }
    }
}
