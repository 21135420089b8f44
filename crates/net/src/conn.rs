//! Per-connection state for the event loop: incremental NDJSON framing
//! over a non-blocking socket, and the bounded outbound queue
//! ([`LineSink`]) that lets engine workers hand replies to the loop
//! without ever blocking on a slow peer.

use crate::poller::Interest;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default per-connection outbound high-water mark: a peer that falls
/// this many unread reply bytes behind is disconnected.
pub(crate) const DEFAULT_OUTBOUND_HIGH_WATER: usize = 8 << 20;

/// Default per-line byte cap (a single envelope larger than this is
/// rejected with an error envelope, not buffered without bound). The
/// same figure as the outbound mark, so any line a server can emit —
/// a session snapshot, say — it can also take back.
pub const DEFAULT_MAX_LINE_BYTES: usize = DEFAULT_OUTBOUND_HIGH_WATER;

/// One framing product from [`LineFramer::push`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Framed {
    /// A complete line (terminator and trailing `\r` stripped).
    Line(String),
    /// A line that exceeded the cap; its `bytes` were discarded up to
    /// and including the terminating newline. Emitted exactly once per
    /// oversize line, in stream order, so the owner can answer it with
    /// an error envelope at the right position.
    Oversize { bytes: usize },
}

/// Incremental NDJSON line assembly. Bytes arrive in arbitrary chunks
/// (short reads, coalesced lines, lines straddling read boundaries);
/// complete lines come out in order. Memory is bounded: once a partial
/// line exceeds `max_line` the framer switches to discard mode until
/// the next newline, then reports one [`Framed::Oversize`].
pub(crate) struct LineFramer {
    buf: Vec<u8>,
    max_line: usize,
    discarding: bool,
    discarded: usize,
}

impl LineFramer {
    #[must_use]
    pub(crate) fn new(max_line: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            max_line: max_line.max(1),
            discarding: false,
            discarded: 0,
        }
    }

    /// Feeds one received chunk, appending completed products to `out`.
    pub(crate) fn push(&mut self, chunk: &[u8], out: &mut Vec<Framed>) {
        let mut rest = chunk;
        while !rest.is_empty() {
            match rest.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if self.discarding {
                        self.discarded += pos + 1;
                        out.push(Framed::Oversize {
                            bytes: self.discarded,
                        });
                        self.discarding = false;
                        self.discarded = 0;
                    } else if self.buf.len() + pos > self.max_line {
                        // The whole oversize line arrived before we ever
                        // hit the cap mid-chunk.
                        out.push(Framed::Oversize {
                            bytes: self.buf.len() + pos + 1,
                        });
                        self.buf.clear();
                    } else {
                        self.buf.extend_from_slice(&rest[..pos]);
                        if self.buf.last() == Some(&b'\r') {
                            self.buf.pop();
                        }
                        let line = std::mem::take(&mut self.buf);
                        out.push(Framed::Line(String::from_utf8_lossy(&line).into_owned()));
                    }
                    rest = &rest[pos + 1..];
                }
                None => {
                    if self.discarding {
                        self.discarded += rest.len();
                    } else if self.buf.len() + rest.len() > self.max_line {
                        self.discarded = self.buf.len() + rest.len();
                        self.buf = Vec::new();
                        self.discarding = true;
                    } else {
                        self.buf.extend_from_slice(rest);
                    }
                    rest = &[];
                }
            }
        }
    }
}

struct Outbound {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of `chunks.front()` already written to the socket.
    head: usize,
    /// Total unsent bytes across all chunks.
    bytes: usize,
    /// Lines handed to the handler and not yet answered.
    owed: usize,
    /// Cleared when the loop tears the connection down; later pushes
    /// are dropped.
    open: bool,
    /// Set when a push overflows the high-water mark; the loop kills
    /// the connection on its next pass.
    killed: bool,
}

/// The outbound side of one event-loop connection, shared between the
/// loop thread and whichever threads answer the connection's lines.
/// Repliers push whole lines; the loop drains the queue into the
/// non-blocking socket. Pushing never blocks: past `high_water`
/// buffered bytes the queue flips to `killed` and the peer is
/// disconnected — bounded back-pressure instead of unbounded memory
/// for a stalled reader.
///
/// The event loop counts a line as owed when it hands it to the
/// handler, and the line's one [`LineSink::send`] settles it: that
/// count is how the loop knows whether a peer that stopped sending, or
/// a server asked to shut down, is still waiting for replies.
pub struct LineSink {
    inner: Mutex<Outbound>,
    high_water: usize,
    /// Called (outside the lock) whenever the loop must look at this
    /// queue again: new data, or a kill.
    notify: Box<dyn Fn() + Send + Sync>,
}

impl LineSink {
    pub(crate) fn new(
        high_water: usize,
        notify: impl Fn() + Send + Sync + 'static,
    ) -> Arc<LineSink> {
        Arc::new(LineSink {
            inner: Mutex::new(Outbound {
                chunks: VecDeque::new(),
                head: 0,
                bytes: 0,
                owed: 0,
                open: true,
                killed: false,
            }),
            high_water: high_water.max(1),
            notify: Box::new(notify),
        })
    }

    /// Queues the one reply to a line the event loop handed out
    /// (appending `\n`), settling that line in the push's critical
    /// section even when the connection is gone. Returns `false` once
    /// the connection is gone — closed, or killed by this push or an
    /// earlier one — so callers can stop producing output for it.
    ///
    /// Every line gets exactly one `send`: a second answer to one line
    /// is a handler bug, caught by a `debug_assert!` (the count stays
    /// at zero in a release build rather than wrapping).
    pub fn send(&self, line: &str) -> bool {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        let mut inner = self.lock();
        // Whoever sees the lower count (the event loop, woken by this
        // push) also sees the line in the queue.
        let settled = inner.owed.checked_sub(1);
        inner.owed = settled.unwrap_or(0);
        let live = inner.open && !inner.killed;
        let fits = live && inner.bytes + framed.len() <= self.high_water;
        if fits {
            inner.bytes += framed.len();
            inner.chunks.push_back(framed);
        } else if live {
            inner.killed = true;
        }
        drop(inner);
        debug_assert!(settled.is_some(), "a reply sent for a line owed none");
        if live {
            (self.notify)();
        }
        fits
    }

    /// Records one line handed to the handler, to be settled by its
    /// [`LineSink::send`].
    pub(crate) fn owe(&self) {
        self.lock().owed += 1;
    }

    /// Lines handed out and not yet answered. Counted under the
    /// queue's lock, so a reply no longer counted here is in the queue.
    pub(crate) fn owed(&self) -> usize {
        self.lock().owed
    }

    fn lock(&self) -> MutexGuard<'_, Outbound> {
        self.inner.lock().expect("outbound lock")
    }

    /// Loop-side teardown: silences all future pushes.
    pub(crate) fn close(&self) {
        let mut inner = self.lock();
        inner.open = false;
        inner.chunks.clear();
        inner.bytes = 0;
        inner.head = 0;
    }

    /// True once a push overflowed the high-water mark.
    #[must_use]
    pub(crate) fn is_killed(&self) -> bool {
        self.lock().killed
    }
}

/// What a readiness-driven read pass concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Socket drained to `WouldBlock`; connection still live.
    Open,
    /// The peer finished sending (EOF). It may still be reading.
    Eof,
    /// The connection failed (a reset or another read error).
    Closed,
}

/// What a flush pass concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushOutcome {
    /// Queue fully drained; write interest can be dropped.
    Idle,
    /// Socket would block with bytes still queued; keep write interest.
    Pending,
    /// The queue overflowed its high-water mark; kill the connection.
    Killed,
    /// Peer closed under us.
    Closed,
}

/// One live event-loop connection: the non-blocking socket plus its
/// read-side [`LineFramer`] and write-side [`LineSink`].
pub(crate) struct NonblockingConn {
    stream: TcpStream,
    framer: LineFramer,
    sink: Arc<LineSink>,
    /// The interest set currently registered with the poller.
    pub(crate) interest: Interest,
}

impl NonblockingConn {
    /// Takes ownership of an accepted stream, flips it non-blocking,
    /// and wires the sink's notify hook.
    pub(crate) fn new(
        stream: TcpStream,
        max_line: usize,
        high_water: usize,
        notify: impl Fn() + Send + Sync + 'static,
    ) -> io::Result<NonblockingConn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(NonblockingConn {
            stream,
            framer: LineFramer::new(max_line),
            sink: LineSink::new(high_water, notify),
            interest: Interest::READ,
        })
    }

    #[must_use]
    pub(crate) fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    #[must_use]
    pub(crate) fn sink(&self) -> &Arc<LineSink> {
        &self.sink
    }

    /// Drains the readable socket, appending framing products to
    /// `out`, until it would block, ends ([`ReadOutcome::Eof`]) or
    /// fails ([`ReadOutcome::Closed`]).
    pub(crate) fn read_ready(&mut self, scratch: &mut [u8], out: &mut Vec<Framed>) -> ReadOutcome {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => self.framer.push(&scratch[..n], out),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }

    /// Writes as much queued output as the socket will take without
    /// blocking.
    pub(crate) fn flush_ready(&mut self) -> FlushOutcome {
        let mut inner = self.sink.lock();
        if inner.killed {
            return FlushOutcome::Killed;
        }
        loop {
            let Some(front) = inner.chunks.front() else {
                return FlushOutcome::Idle;
            };
            let head = inner.head;
            match self.stream.write(&front[head..]) {
                Ok(0) => return FlushOutcome::Closed,
                Ok(n) => {
                    inner.head += n;
                    inner.bytes -= n;
                    if inner.head == inner.chunks.front().map_or(0, Vec::len) {
                        inner.chunks.pop_front();
                        inner.head = 0;
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    return FlushOutcome::Pending;
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return FlushOutcome::Closed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(framer: &mut LineFramer, chunks: &[&[u8]]) -> Vec<Framed> {
        let mut out = Vec::new();
        for chunk in chunks {
            framer.push(chunk, &mut out);
        }
        out
    }

    #[test]
    fn coalesced_lines_in_one_chunk_come_out_in_order() {
        let mut framer = LineFramer::new(64);
        let out = lines(&mut framer, &[b"alpha\nbeta\ngamma\n"]);
        assert_eq!(
            out,
            vec![
                Framed::Line("alpha".into()),
                Framed::Line("beta".into()),
                Framed::Line("gamma".into()),
            ]
        );
        // Nothing of them is left over: a bare newline is an empty line.
        assert_eq!(
            lines(&mut framer, &[b"\n"]),
            vec![Framed::Line(String::new())]
        );
    }

    #[test]
    fn split_reads_reassemble_a_line_across_boundaries() {
        let mut framer = LineFramer::new(64);
        let out = lines(
            &mut framer,
            &[b"{\"id\":", b"1,\"k\"", b":\"v\"}", b"\n{\"id\":2}", b"\n"],
        );
        assert_eq!(
            out,
            vec![
                Framed::Line("{\"id\":1,\"k\":\"v\"}".into()),
                Framed::Line("{\"id\":2}".into()),
            ]
        );
    }

    #[test]
    fn one_byte_at_a_time_still_frames() {
        let mut framer = LineFramer::new(64);
        let mut out = Vec::new();
        for b in b"ab\ncd\n" {
            framer.push(&[*b], &mut out);
        }
        assert_eq!(
            out,
            vec![Framed::Line("ab".into()), Framed::Line("cd".into())]
        );
    }

    #[test]
    fn crlf_terminators_are_stripped() {
        let mut framer = LineFramer::new(64);
        let out = lines(&mut framer, &[b"hello\r\nworld\r", b"\n"]);
        assert_eq!(
            out,
            vec![Framed::Line("hello".into()), Framed::Line("world".into())]
        );
    }

    #[test]
    fn oversize_line_is_rejected_once_and_framing_resumes() {
        let mut framer = LineFramer::new(8);
        let big = vec![b'x'; 100];
        let mut out = Vec::new();
        framer.push(&big, &mut out);
        assert!(out.is_empty(), "no product until the newline arrives");
        framer.push(b"yy\nok\n", &mut out);
        assert_eq!(
            out,
            vec![Framed::Oversize { bytes: 103 }, Framed::Line("ok".into())]
        );
    }

    #[test]
    fn oversize_line_entirely_inside_one_chunk() {
        let mut framer = LineFramer::new(4);
        let out = lines(&mut framer, &[b"toolongline\nok\n"]);
        assert_eq!(
            out,
            vec![Framed::Oversize { bytes: 12 }, Framed::Line("ok".into())]
        );
    }

    /// A queue with `lines` lines handed out, as the event loop
    /// leaves it before the handler answers.
    fn owing(
        high_water: usize,
        lines: usize,
        notify: impl Fn() + Send + Sync + 'static,
    ) -> Arc<LineSink> {
        let queue = LineSink::new(high_water, notify);
        for _ in 0..lines {
            queue.owe();
        }
        queue
    }

    #[test]
    fn outbound_queue_kills_past_high_water_and_notifies() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let notified = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&notified);
        let queue = owing(10, 3, move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        assert!(queue.send("1234"));
        assert_eq!(notified.load(Ordering::SeqCst), 1);
        assert!(!queue.is_killed());
        // 5 + 6 > 10: overflow kills the queue (and notifies the loop).
        assert!(!queue.send("67890"));
        assert!(queue.is_killed());
        assert_eq!(notified.load(Ordering::SeqCst), 2);
        // Later sends fail fast without flipping state back.
        assert!(!queue.send("x"));
        assert!(queue.is_killed());
        assert_eq!(queue.owed(), 0);
    }

    #[test]
    fn closed_queue_silences_writers() {
        let queue = owing(1024, 1, || {});
        queue.close();
        assert!(!queue.send("late reply"));
        assert!(!queue.is_killed());
    }

    /// A reply owed to a connection that is gone is still a reply
    /// handed over: the count the loop closes a half-closed peer by
    /// must come back to zero either way.
    #[test]
    fn a_send_to_a_closed_or_killed_queue_fails_and_settles_what_it_owed() {
        for kill in [false, true] {
            let queue = owing(8, 2 + usize::from(kill), || {});
            assert!(queue.send("ok"));
            assert_eq!(queue.owed(), 1 + usize::from(kill));
            if kill {
                assert!(!queue.send("past the mark"));
                assert!(queue.is_killed());
            } else {
                queue.close();
            }
            assert!(!queue.send("late"));
            assert_eq!(queue.owed(), 0, "kill: {kill}");
        }
    }

    /// A handler that answers one line twice has a bug the debug build
    /// names at the second answer; either way the count the loop
    /// shuts down by stays at zero instead of wrapping to `usize::MAX`
    /// (which would hold every later shutdown forever).
    #[test]
    fn a_second_answer_to_one_line_is_caught_and_never_wraps_the_count() {
        use std::panic::AssertUnwindSafe;
        let queue = owing(1024, 1, || {});
        assert!(queue.send("first"));
        let second = std::panic::catch_unwind(AssertUnwindSafe(|| queue.send("second")));
        assert_eq!(second.is_err(), cfg!(debug_assertions), "{second:?}");
        assert_eq!(queue.owed(), 0);
    }
}
