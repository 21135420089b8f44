//! Per-connection state for the event loop: incremental NDJSON framing
//! over a non-blocking socket, and the connection's outbound side
//! ([`LineSink`]), through which whichever thread has a reply writes it
//! to the socket itself, with a bounded queue for what the socket would
//! not take — never blocking on a slow peer.

use crate::poller::Interest;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
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
                        // The buffer is the line: copied again only
                        // to replace invalid bytes with U+FFFD.
                        let line = String::from_utf8(std::mem::take(&mut self.buf)).unwrap_or_else(
                            |invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned(),
                        );
                        out.push(Framed::Line(line));
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
    /// The connection's socket, written only under this lock; dropped
    /// by [`LineSink::close`], so a closed connection's socket closes
    /// with its slot even while a job still holds the sink.
    stream: Option<Arc<TcpStream>>,
    /// What the socket would not take yet, in order.
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of `chunks.front()` already written to the socket.
    head: usize,
    /// Total unsent bytes across all chunks.
    bytes: usize,
    /// Lines handed to the handler and not yet answered.
    owed: usize,
    /// Set once the loop waits for this connection's owed count (the
    /// peer's EOF, or a stop): from then on every send notifies it.
    watched: bool,
    /// Set when a send would queue past the high-water mark; the loop
    /// kills the connection on its next pass.
    killed: bool,
    /// Set when a write failed (a reset peer); the loop closes the
    /// connection on its next pass.
    broken: bool,
}

/// The outbound side of one event-loop connection, shared between the
/// loop thread and whichever threads answer the connection's lines.
/// A reply is written straight to the non-blocking socket by the thread
/// that sends it — an engine worker, the loop thread on a cache hit, a
/// router link's reader — while nothing is queued; what the socket
/// would not take is queued, and the loop writes it out as the socket
/// drains. One lock covers the socket's writes and the queue, so lines
/// never interleave. Sending never blocks: past `high_water` queued
/// bytes the connection flips to `killed` and the peer is disconnected
/// — bounded back-pressure instead of unbounded memory for a stalled
/// reader.
///
/// The event loop counts a line as owed when it hands it to the
/// handler, and the line's one [`LineSink::send`] settles it: that
/// count is how the loop knows whether a peer that stopped sending, or
/// a server asked to shut down, is still waiting for replies.
pub struct LineSink {
    inner: Mutex<Outbound>,
    high_water: usize,
    /// Called (outside the lock) whenever the loop must look at this
    /// connection again: bytes queued, a kill, a failed write, or any
    /// reply once the connection is watched.
    notify: Box<dyn Fn() + Send + Sync>,
}

impl LineSink {
    pub(crate) fn new(
        stream: Arc<TcpStream>,
        high_water: usize,
        notify: impl Fn() + Send + Sync + 'static,
    ) -> Arc<LineSink> {
        Arc::new(LineSink {
            inner: Mutex::new(Outbound {
                stream: Some(stream),
                chunks: VecDeque::new(),
                head: 0,
                bytes: 0,
                owed: 0,
                watched: false,
                killed: false,
                broken: false,
            }),
            high_water: high_water.max(1),
            notify: Box::new(notify),
        })
    }

    /// Sends the one reply to a line the event loop handed out
    /// (appending `\n`): written to the socket at once while nothing is
    /// queued, queued for the loop as far as the socket would not take
    /// it. The line is settled in the same critical section even when
    /// the connection is gone. Returns `false` once the connection is
    /// gone — closed, killed by this send or an earlier one, or its
    /// peer reset — so callers can stop producing output for it.
    ///
    /// Every line gets exactly one `send`: a second answer to one line
    /// is a handler bug, caught by a `debug_assert!` (the count stays
    /// at zero in a release build rather than wrapping).
    pub fn send(&self, line: &str) -> bool {
        let mut inner = self.lock();
        // Whoever sees the lower count (the event loop, woken by this
        // send when it watches) also sees the line written or queued.
        let settled = inner.owed.checked_sub(1);
        inner.owed = settled.unwrap_or(0);
        let line = line.as_bytes();
        let written = match inner.stream.as_deref() {
            Some(_) if inner.killed || inner.broken => None,
            Some(_) if !inner.chunks.is_empty() => Some(Ok(0)),
            Some(stream) => Some(write_line(stream, line)),
            None => None,
        };
        // `(sent, notify)`: a connection already gone is the loop's no
        // longer; a written line concerns it only while it watches.
        let (sent, notify) = match written {
            None => (false, false),
            Some(Ok(written)) if written > line.len() => (true, inner.watched),
            Some(Ok(written)) if inner.bytes + line.len() + 1 - written <= self.high_water => {
                let mut rest = Vec::with_capacity(line.len() + 1 - written);
                rest.extend_from_slice(&line[written..]);
                rest.push(b'\n');
                inner.bytes += rest.len();
                inner.chunks.push_back(rest);
                (true, true)
            }
            Some(Ok(_)) => {
                inner.killed = true;
                (false, true)
            }
            Some(Err(_)) => {
                inner.broken = true;
                (false, true)
            }
        };
        drop(inner);
        debug_assert!(settled.is_some(), "a reply sent for a line owed none");
        if notify {
            (self.notify)();
        }
        sent
    }

    /// Records one line handed to the handler, to be settled by its
    /// [`LineSink::send`].
    pub(crate) fn owe(&self) {
        self.lock().owed += 1;
    }

    /// Marks the connection watched — every later [`LineSink::send`]
    /// notifies the loop — and returns the lines handed out and not yet
    /// answered. Both under the lock, so a reply no longer counted here
    /// is written or queued, and one still counted will wake the loop.
    pub(crate) fn watch(&self) -> usize {
        let mut inner = self.lock();
        inner.watched = true;
        inner.owed
    }

    fn lock(&self) -> MutexGuard<'_, Outbound> {
        self.inner.lock().expect("outbound lock")
    }

    /// Loop-side teardown: silences all future sends and lets go of the
    /// socket.
    pub(crate) fn close(&self) {
        let mut inner = self.lock();
        inner.stream = None;
        inner.chunks.clear();
        inner.bytes = 0;
        inner.head = 0;
    }

    /// Writes as much queued output as the socket will take without
    /// blocking.
    pub(crate) fn flush(&self) -> FlushOutcome {
        let mut guard = self.lock();
        let Outbound {
            stream,
            chunks,
            head,
            bytes,
            killed,
            broken,
            ..
        } = &mut *guard;
        if *killed {
            return FlushOutcome::Killed;
        }
        let Some(stream) = stream.as_deref().filter(|_| !*broken) else {
            return FlushOutcome::Closed;
        };
        while let Some(front) = chunks.front() {
            match (&*stream).write(&front[*head..]) {
                Ok(0) => return FlushOutcome::Closed,
                Ok(n) => {
                    *head += n;
                    *bytes -= n;
                    if *head == front.len() {
                        chunks.pop_front();
                        *head = 0;
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    return FlushOutcome::Pending;
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return FlushOutcome::Closed,
            }
        }
        FlushOutcome::Idle
    }
}

/// Writes `line` and its `\n` — one vectored write, more only after a
/// short one — until done or the socket would block; returns the bytes
/// written, `line.len() + 1` when all of it went.
fn write_line(mut stream: &TcpStream, line: &[u8]) -> io::Result<usize> {
    let mut written = 0;
    while written <= line.len() {
        let parts = [IoSlice::new(&line[written..]), IoSlice::new(b"\n")];
        match stream.write_vectored(&parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(written)
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
    /// A send would have queued past the high-water mark; kill the
    /// connection.
    Killed,
    /// Peer closed under us.
    Closed,
}

/// One live event-loop connection: the non-blocking socket plus its
/// read-side [`LineFramer`] and write-side [`LineSink`], which holds
/// the socket too.
pub(crate) struct NonblockingConn {
    stream: Arc<TcpStream>,
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
        let stream = Arc::new(stream);
        Ok(NonblockingConn {
            sink: LineSink::new(Arc::clone(&stream), high_water, notify),
            stream,
            framer: LineFramer::new(max_line),
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
            match (&*self.stream).read(scratch) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => self.framer.push(&scratch[..n], out),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    #[test]
    fn invalid_utf8_frames_to_replacement_characters() {
        let mut framer = LineFramer::new(64);
        // A character split across reads is whole once its line is.
        let out = lines(
            &mut framer,
            &[b"{\"id\":\"\xff\xfe\"}\n", b"caf\xc3", b"\xa9\n"],
        );
        assert_eq!(
            out,
            vec![
                Framed::Line("{\"id\":\"\u{fffd}\u{fffd}\"}".into()),
                Framed::Line("caf\u{e9}".into()),
            ]
        );
    }

    /// A connected pair over loopback: the server's end, non-blocking
    /// as the loop holds it, and the peer's.
    fn pair() -> (Arc<TcpStream>, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let peer = TcpStream::connect(listener.local_addr().expect("bound")).expect("connects");
        let (ours, _) = listener.accept().expect("accepts");
        ours.set_nonblocking(true).expect("non-blocking");
        (Arc::new(ours), peer)
    }

    /// A sink with `lines` lines handed out, as the event loop leaves it
    /// before the handler answers, and its peer — one that has stopped
    /// reading with the socket full, if `stalled`.
    fn owing(
        high_water: usize,
        lines: usize,
        stalled: bool,
        notify: impl Fn() + Send + Sync + 'static,
    ) -> (Arc<LineSink>, TcpStream) {
        let (ours, peer) = pair();
        if stalled {
            loop {
                match (&*ours).write(&[0; 64 * 1024]) {
                    Ok(_) => {}
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) => panic!("filling the socket: {err}"),
                }
            }
        }
        let queue = LineSink::new(ours, high_water, notify);
        for _ in 0..lines {
            queue.owe();
        }
        (queue, peer)
    }

    fn counter() -> (Arc<AtomicUsize>, impl Fn() + Send + Sync + 'static) {
        let notified = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&notified);
        (notified, move || {
            count.fetch_add(1, Ordering::SeqCst);
        })
    }

    /// A reply the socket takes is written by the sender and concerns
    /// the loop only once it watches the connection.
    #[test]
    fn a_reply_the_socket_takes_is_written_at_once_and_wakes_the_loop_only_when_watched() {
        let (notified, notify) = counter();
        let (queue, peer) = owing(1024, 2, false, notify);
        assert!(queue.send("first"));
        assert_eq!(notified.load(Ordering::SeqCst), 0, "nothing queued");
        assert_eq!(queue.watch(), 1);
        assert!(queue.send("second"));
        assert_eq!(notified.load(Ordering::SeqCst), 1, "watched");
        assert_eq!(queue.flush(), FlushOutcome::Idle);
        let mut reader = io::BufReader::new(peer);
        for expected in ["first\n", "second\n"] {
            let mut line = String::new();
            io::BufRead::read_line(&mut reader, &mut line).expect("reads");
            assert_eq!(line, expected);
        }
    }

    /// Only what the socket would not take is queued, and the loop's
    /// flush writes it out after what went at once.
    #[test]
    fn what_the_socket_would_not_take_is_queued_and_flushed_in_order() {
        let (notified, notify) = counter();
        let (queue, peer) = owing(8 << 20, 1, false, notify);
        let line = "x".repeat(4 << 20);
        assert!(queue.send(&line));
        let queued = queue.lock().bytes;
        assert!(queued > 0 && queued <= line.len(), "{queued} bytes queued");
        assert_eq!(notified.load(Ordering::SeqCst), 1, "the loop flushes");
        let reading = std::thread::spawn(move || {
            let mut got = Vec::new();
            Read::read_to_end(&mut &peer, &mut got).expect("reads to EOF");
            got
        });
        // A blocking flush waits for the peer instead of for a poller.
        let stream = Arc::clone(queue.lock().stream.as_ref().expect("open"));
        stream.set_nonblocking(false).expect("blocking");
        assert_eq!(queue.flush(), FlushOutcome::Idle);
        stream.shutdown(std::net::Shutdown::Write).expect("closes");
        let got = reading.join().expect("the reader ends");
        assert_eq!(got.len(), line.len() + 1);
        assert!(got.ends_with(b"x\n") && got.iter().filter(|b| **b == b'x').count() == line.len());
    }

    #[test]
    fn outbound_queue_kills_past_high_water_and_notifies() {
        let (notified, notify) = counter();
        let (queue, _peer) = owing(10, 3, true, notify);
        assert!(queue.send("1234"));
        assert_eq!(notified.load(Ordering::SeqCst), 1);
        assert_eq!(queue.flush(), FlushOutcome::Pending);
        // 5 + 6 > 10: overflow kills the queue (and notifies the loop).
        assert!(!queue.send("67890"));
        assert_eq!(queue.flush(), FlushOutcome::Killed);
        assert_eq!(notified.load(Ordering::SeqCst), 2);
        // Later sends fail fast without flipping state back.
        assert!(!queue.send("x"));
        assert_eq!(queue.flush(), FlushOutcome::Killed);
        assert_eq!(queue.watch(), 0);
    }

    #[test]
    fn closed_queue_silences_writers() {
        let (queue, _peer) = owing(1024, 1, false, || {});
        queue.close();
        assert!(queue.lock().stream.is_none());
        assert!(!queue.send("late reply"));
        assert_eq!(queue.flush(), FlushOutcome::Closed);
    }

    /// A reply owed to a connection that is gone is still a reply
    /// handed over: the count the loop closes a half-closed peer by
    /// must come back to zero either way.
    #[test]
    fn a_send_to_a_closed_or_killed_queue_fails_and_settles_what_it_owed() {
        for kill in [false, true] {
            let (queue, _peer) = owing(8, 2 + usize::from(kill), kill, || {});
            assert!(queue.send("ok"));
            assert_eq!(queue.watch(), 1 + usize::from(kill));
            if kill {
                assert!(!queue.send("past the mark"));
                assert_eq!(queue.flush(), FlushOutcome::Killed);
            } else {
                queue.close();
            }
            assert!(!queue.send("late"));
            assert_eq!(queue.watch(), 0, "kill: {kill}");
        }
    }

    /// A handler that answers one line twice has a bug the debug build
    /// names at the second answer; either way the count the loop
    /// shuts down by stays at zero instead of wrapping to `usize::MAX`
    /// (which would hold every later shutdown forever).
    #[test]
    fn a_second_answer_to_one_line_is_caught_and_never_wraps_the_count() {
        use std::panic::AssertUnwindSafe;
        let (queue, _peer) = owing(1024, 1, false, || {});
        assert!(queue.send("first"));
        let second = std::panic::catch_unwind(AssertUnwindSafe(|| queue.send("second")));
        assert_eq!(second.is_err(), cfg!(debug_assertions), "{second:?}");
        assert_eq!(queue.watch(), 0);
    }
}
