//! The bridge from transport to engine: a [`ConnectionHandler`] that
//! feeds decoded wire envelopes into a
//! [`PatternEngine`](chatpattern_core::PatternEngine).

use crate::server::ConnectionHandler;
use crate::sink::LineSink;
use chatpattern_core::wire::{decode_request_line, ResponseEnvelope};
use chatpattern_core::{PatternEngine, PatternService};
use std::sync::{Arc, Condvar, Mutex};

/// Serves one engine over any number of connections (TCP or stdio):
/// each accepted request gets a completion-writer thread, so replies
/// go out the moment the job finishes — out of submission order when
/// jobs finish out of order; the envelope `id` is the correlation
/// key. Malformed lines get an immediate error envelope and never
/// tear down the stream.
///
/// Back-pressure is **typed, not blocking**: requests are submitted
/// non-blocking under the envelope's tenant, so a full queue
/// (`QueueFull`) or an exhausted tenant quota (`Overloaded`) answers
/// immediately with an error envelope carrying `retry_after_ms`
/// instead of stalling the reader thread — one flooding connection
/// can no longer freeze every other connection's submissions. The
/// engine's bounded queue still caps in-flight jobs (and thereby
/// live writer threads) at roughly `queue_depth + workers`.
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

    /// The served engine (for stats reporting at disconnect).
    #[must_use]
    pub fn engine(&self) -> &Arc<PatternEngine<S>> {
        &self.engine
    }

    /// Blocks until every accepted request has been answered — what a
    /// stdio loop does between EOF and printing its final stats, so
    /// the numbers include all in-flight work.
    pub fn drain(&self) {
        let (count, zero) = &*self.in_flight;
        let mut active = count.lock().expect("in-flight lock");
        while *active > 0 {
            active = zero.wait(active).expect("in-flight wait");
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
                std::thread::spawn(move || {
                    let envelope = match handle.wait() {
                        Ok(response) => ResponseEnvelope::ok(id, response),
                        Err(error) => ResponseEnvelope::error(id, &error),
                    };
                    sink.send_line(&envelope.to_line());
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
        self.drain();
    }
}
