//! Shared line-oriented output with disconnect-tolerant semantics.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Is this I/O error the peer going away (as opposed to a real
/// failure)? A client that got every answer it wanted and closed its
/// end is normal protocol shutdown, not an error — `EPIPE` spew on a
/// closed pipe was a real serve bug this predicate fixes.
#[must_use]
pub fn is_disconnect(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
    )
}

/// One NDJSON output stream (a TCP connection's outbound queue, or
/// stdout) shared between whoever reads the requests and whichever
/// threads finish them.
///
/// Every write is line + flush under one mutex, so concurrent writers
/// never interleave bytes. Failure handling is sticky and two-tier:
///
/// * a *disconnect* ([`is_disconnect`]) marks the sink closed — later
///   writes become silent no-ops (the peer is gone; there is nobody
///   to tell);
/// * any other I/O error marks the sink *failed* and records the
///   first message for the caller to report.
///
/// A handler that answers a line later says so with [`LineSink::owe`]
/// and answers with [`LineSink::send_owed`]; [`LineSink::owed`] is how
/// the event loop knows whether a peer that stopped sending is still
/// waiting for replies.
pub struct LineSink {
    out: Mutex<Box<dyn Write + Send>>,
    owed: AtomicUsize,
    closed: AtomicBool,
    failed: AtomicBool,
    error: Mutex<Option<String>>,
}

impl LineSink {
    /// Wraps any writer (sockets, stdout, test buffers).
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>) -> LineSink {
        LineSink {
            out: Mutex::new(out),
            owed: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    /// A sink over this process's stdout.
    #[must_use]
    pub fn stdout() -> LineSink {
        LineSink::new(Box::new(io::stdout()))
    }

    /// Writes one line (appending `\n`) and flushes. Returns `false`
    /// once the sink is closed or failed — callers use that to stop
    /// producing output for a connection that is gone.
    pub fn send_line(&self, line: &str) -> bool {
        self.write_line(line, false)
    }

    /// Promises one later [`LineSink::send_owed`].
    pub fn owe(&self) {
        self.owed.fetch_add(1, Ordering::SeqCst);
    }

    /// [`LineSink::send_line`] for a reply promised with
    /// [`LineSink::owe`].
    pub fn send_owed(&self, line: &str) -> bool {
        self.write_line(line, true)
    }

    /// Replies promised and not yet handed over. Waits for a write in
    /// progress, so a reply no longer counted here has reached the
    /// writer.
    #[must_use]
    pub fn owed(&self) -> usize {
        let _out = self.out.lock().expect("sink lock");
        self.owed.load(Ordering::SeqCst)
    }

    fn write_line(&self, line: &str, owed: bool) -> bool {
        // One write call for line + newline: atomic on the wire and
        // exactly one failure point for the tests' failing writers.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        let mut out = self.out.lock().expect("sink lock");
        if owed {
            // Under the lock and ahead of the write: whoever acts on the
            // written line (the event loop, woken by the push into its
            // queue) already sees the count without it, and nobody sees
            // the lower count while the line is still on its way.
            self.owed.fetch_sub(1, Ordering::SeqCst);
        }
        if self.closed.load(Ordering::Relaxed) || self.failed.load(Ordering::Relaxed) {
            return false;
        }
        let outcome = out.write_all(framed.as_bytes()).and_then(|()| out.flush());
        drop(out);
        match outcome {
            Ok(()) => true,
            Err(error) if is_disconnect(error.kind()) => {
                self.closed.store(true, Ordering::Relaxed);
                false
            }
            Err(error) => {
                self.failed.store(true, Ordering::Relaxed);
                let mut slot = self.error.lock().expect("error lock");
                slot.get_or_insert_with(|| error.to_string());
                false
            }
        }
    }

    /// True once the peer disconnected mid-stream (clean close).
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// True once a non-disconnect I/O error occurred.
    #[must_use]
    pub fn has_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// The first real I/O error message, when [`LineSink::has_failed`].
    #[must_use]
    pub fn error(&self) -> Option<String> {
        self.error.lock().expect("error lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FailAfter {
        remaining: usize,
        kind: io::ErrorKind,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.remaining == 0 {
                return Err(io::Error::new(self.kind, "peer gone"));
            }
            self.remaining -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn broken_pipe_closes_cleanly_and_silences_later_writes() {
        let sink = LineSink::new(Box::new(FailAfter {
            remaining: 1,
            kind: io::ErrorKind::BrokenPipe,
        }));
        assert!(sink.send_line("first"));
        assert!(!sink.send_line("second"));
        assert!(sink.is_closed());
        assert!(!sink.has_failed());
        assert_eq!(sink.error(), None);
        // Already closed: a no-op, not another write attempt.
        assert!(!sink.send_line("third"));
    }

    #[test]
    fn real_errors_are_sticky_and_reported() {
        let sink = LineSink::new(Box::new(FailAfter {
            remaining: 0,
            kind: io::ErrorKind::Other,
        }));
        assert!(!sink.send_line("first"));
        assert!(sink.has_failed());
        assert!(!sink.is_closed());
        assert_eq!(sink.error().as_deref(), Some("peer gone"));
    }
}
