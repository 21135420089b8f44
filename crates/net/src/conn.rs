//! Per-connection state for the event loop: incremental NDJSON framing
//! over a non-blocking socket, and a bounded outbound queue that lets
//! engine workers hand replies to the loop without ever blocking on a
//! slow peer.

use crate::poller::Interest;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::{Arc, Mutex};

/// Default per-connection outbound high-water mark: a peer that falls
/// this many unread reply bytes behind is disconnected.
pub const DEFAULT_OUTBOUND_HIGH_WATER: usize = 8 << 20;

/// Default per-line byte cap (a single envelope larger than this is
/// rejected with an error envelope, not buffered without bound). The
/// same figure as the outbound mark, so any line a server can emit —
/// a session snapshot, say — it can also take back.
pub const DEFAULT_MAX_LINE_BYTES: usize = DEFAULT_OUTBOUND_HIGH_WATER;

/// One framing product from [`LineFramer::push`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Framed {
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
pub struct LineFramer {
    buf: Vec<u8>,
    max_line: usize,
    discarding: bool,
    discarded: usize,
}

impl LineFramer {
    #[must_use]
    pub fn new(max_line: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            max_line: max_line.max(1),
            discarding: false,
            discarded: 0,
        }
    }

    /// Feeds one received chunk, appending completed products to `out`.
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<Framed>) {
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

    /// Bytes currently buffered for an incomplete line.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

struct OutboundInner {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of `chunks.front()` already written to the socket.
    head: usize,
    /// Total unsent bytes across all chunks.
    bytes: usize,
    /// Cleared when the loop tears the connection down; later pushes
    /// fail with `BrokenPipe` (which [`crate::LineSink`] treats as a
    /// clean close).
    open: bool,
    /// Set when a push overflows the high-water mark; the loop kills
    /// the connection on its next pass.
    killed: bool,
}

/// The outbound side of one event-loop connection. Engine workers
/// push framed reply lines (via [`QueueWriter`] under a `LineSink`);
/// the loop thread drains the queue into the non-blocking socket.
/// Pushing never blocks: past `high_water` buffered bytes the queue
/// flips to `killed` and the peer is disconnected — bounded
/// back-pressure instead of unbounded memory for a stalled reader.
pub struct OutboundQueue {
    inner: Mutex<OutboundInner>,
    high_water: usize,
    /// Called (outside the lock) whenever the loop must look at this
    /// queue again: new data, or a kill.
    notify: Box<dyn Fn() + Send + Sync>,
}

impl OutboundQueue {
    pub fn new(high_water: usize, notify: impl Fn() + Send + Sync + 'static) -> Arc<OutboundQueue> {
        Arc::new(OutboundQueue {
            inner: Mutex::new(OutboundInner {
                chunks: VecDeque::new(),
                head: 0,
                bytes: 0,
                open: true,
                killed: false,
            }),
            high_water: high_water.max(1),
            notify: Box::new(notify),
        })
    }

    /// Enqueues one framed line. Fails with `BrokenPipe` once the
    /// connection is gone or the high-water mark is exceeded.
    fn push(&self, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("outbound lock");
        if !inner.open || inner.killed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "connection gone"));
        }
        if inner.bytes + data.len() > self.high_water {
            inner.killed = true;
            drop(inner);
            (self.notify)();
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "outbound high-water mark exceeded",
            ));
        }
        inner.bytes += data.len();
        inner.chunks.push_back(data.to_vec());
        drop(inner);
        (self.notify)();
        Ok(())
    }

    /// Loop-side teardown: silences all future pushes.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("outbound lock");
        inner.open = false;
        inner.chunks.clear();
        inner.bytes = 0;
        inner.head = 0;
    }

    /// True once a push overflowed the high-water mark.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.inner.lock().expect("outbound lock").killed
    }

    /// A `Write` front for this queue, suitable for `LineSink::new`.
    #[must_use]
    pub fn writer(self: &Arc<OutboundQueue>) -> QueueWriter {
        QueueWriter {
            queue: Arc::clone(self),
        }
    }
}

/// `Write` adapter: each `write` call enqueues one chunk. `LineSink`
/// frames line + `\n` into a single `write_all`, so every chunk is one
/// complete reply line and partial-line interleaving is impossible.
pub struct QueueWriter {
    queue: Arc<OutboundQueue>,
}

impl Write for QueueWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.queue.push(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What a readiness-driven read pass concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Socket drained to `WouldBlock`; connection still live.
    Open,
    /// The peer finished sending (EOF). It may still be reading.
    Eof,
    /// The connection failed (a reset or another read error).
    Closed,
}

/// What a flush pass concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
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
/// read-side [`LineFramer`] and write-side [`OutboundQueue`].
pub struct NonblockingConn {
    stream: TcpStream,
    framer: LineFramer,
    outbound: Arc<OutboundQueue>,
    /// The interest set currently registered with the poller.
    pub interest: Interest,
}

impl NonblockingConn {
    /// Takes ownership of an accepted stream, flips it non-blocking,
    /// and wires the outbound queue's notify hook.
    pub fn new(
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
            outbound: OutboundQueue::new(high_water, notify),
            interest: Interest::READ,
        })
    }

    #[must_use]
    pub fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    #[must_use]
    pub fn outbound(&self) -> &Arc<OutboundQueue> {
        &self.outbound
    }

    /// Drains the readable socket, appending framing products to
    /// `out`, until it would block, ends ([`ReadOutcome::Eof`]) or
    /// fails ([`ReadOutcome::Closed`]).
    pub fn read_ready(&mut self, scratch: &mut [u8], out: &mut Vec<Framed>) -> ReadOutcome {
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
    pub fn flush_ready(&mut self) -> FlushOutcome {
        let mut inner = self.outbound.inner.lock().expect("outbound lock");
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
        assert_eq!(framer.buffered(), 0);
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
    fn outbound_queue_kills_past_high_water_and_notifies() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let notified = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&notified);
        let queue = OutboundQueue::new(10, move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        let mut writer = queue.writer();
        assert!(writer.write_all(b"12345").is_ok());
        assert_eq!(notified.load(Ordering::SeqCst), 1);
        assert!(!queue.is_killed());
        // 5 + 6 > 10: overflow kills the queue (and notifies the loop).
        let err = writer.write_all(b"678901").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(queue.is_killed());
        assert_eq!(notified.load(Ordering::SeqCst), 2);
        // Later writes fail fast without flipping state back.
        assert!(writer.write_all(b"x").is_err());
    }

    #[test]
    fn closed_queue_silences_writers() {
        let queue = OutboundQueue::new(1024, || {});
        queue.close();
        let mut writer = queue.writer();
        let err = writer.write_all(b"late reply").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(!queue.is_killed());
    }
}
