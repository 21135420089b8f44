//! Readiness polling over raw file descriptors, with zero crate deps.
//!
//! The event-loop transport needs one primitive the standard library does
//! not expose: "tell me which of these sockets are readable or writable
//! without blocking on any single one of them". This module provides it
//! twice over, behind one [`Poller`] front:
//!
//! * **epoll** on Linux, declared via direct `extern "C"` prototypes so no
//!   external crate is required. Interest is registered once per fd and the
//!   kernel hands back only the ready set — O(ready), which is what lets a
//!   single loop thread carry thousands of mostly-idle dialog connections.
//! * **`poll(2)`** everywhere else on unix (and on Linux when explicitly
//!   requested, so the fallback stays compiled and tested). Interest lives
//!   in a userland table and the whole table is re-submitted per wait —
//!   O(registered), fine for hundreds of fds and universally portable.
//!
//! Both backends are level-triggered: a fd keeps reporting ready until the
//! condition is drained, so the loop never needs to worry about missed
//! edges after a short read.
//!
//! Why both stay. A copy of the loop run on `poll(2)` on Linux was probed
//! with 3 000 `Stats` round trips on one connection to a window-16 serve
//! holding N idle connections (median / p95 µs):
//!
//! | idle connections | epoll | `poll(2)` |
//! |---|---|---|
//! | 1 000 | 35 / 84 | 470 / 4 153 |
//! | 4 000 | 60 / 123 | 2 921 / 6 385 |
//!
//! With no idle connections the two did not resolve (33–76 µs each), nor
//! did four alternating 20 s pairs on each TCP benchmark workload. So epoll
//! is justified by traffic no workload has, and `poll(2)` is the only path
//! off Linux: neither is dropped without a many-idle-connections workload.

use std::collections::HashMap;
use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    /// The token the fd was registered with.
    pub(crate) token: u64,
    /// Reading will not block (includes EOF: the read returns 0).
    pub(crate) readable: bool,
    /// Writing will not block.
    pub(crate) writable: bool,
    /// Error or hangup; the owner should read to completion and close.
    pub(crate) hangup: bool,
}

/// Interest set for one registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub(crate) readable: bool,
    pub(crate) writable: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

// ---------------------------------------------------------------------------
// Shared libc declarations (unix).
// ---------------------------------------------------------------------------

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    // Declared with a fixed third argument instead of `...`; on every unix
    // ABI this crate targets the calling convention is identical for the
    // F_GETFL/F_SETFL/F_SETFD commands used here.
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
}

const F_SETFD: c_int = 2;
const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const FD_CLOEXEC: c_int = 1;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x4;

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;
const POLLNVAL: i16 = 0x20;

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    // SAFETY: plain fcntl on an owned fd; no memory is passed.
    unsafe {
        let flags = fcntl(fd, F_GETFL, 0);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// epoll backend (Linux only).
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll {
    use super::*;

    // The x86_64 kernel ABI packs epoll_event to 12 bytes; other
    // architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    pub(super) const EPOLLIN: u32 = 0x1;
    pub(super) const EPOLLOUT: u32 = 0x4;
    pub(super) const EPOLLERR: u32 = 0x8;
    pub(super) const EPOLLHUP: u32 = 0x10;

    pub(super) struct Epoll {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut events = 0u32;
            if interest.readable {
                events |= EPOLLIN;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: ev outlives the call; the kernel copies it.
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn register(&self, fd: RawFd, token: u64, i: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, i)
        }

        pub(super) fn modify(&self, fd: RawFd, token: u64, i: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, i)
        }

        pub(super) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: pre-2.6.9 kernels require a non-null event for DEL.
            if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            out: &mut Vec<PollEvent>,
            timeout_ms: c_int,
        ) -> io::Result<()> {
            let n = loop {
                // SAFETY: buf is a live, correctly sized slice for the call.
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as c_int,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let bits = ev.events;
                let token = ev.data;
                out.push(PollEvent {
                    token,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: epfd is owned and closed exactly once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// poll(2) backend (all unix; the portable fallback).
// ---------------------------------------------------------------------------

struct PollTable {
    // fd -> (token, interest); re-submitted wholesale on every wait.
    interest: HashMap<RawFd, (u64, Interest)>,
}

impl PollTable {
    fn new() -> PollTable {
        PollTable {
            interest: HashMap::new(),
        }
    }

    fn register(&mut self, fd: RawFd, token: u64, i: Interest) -> io::Result<()> {
        if self.interest.insert(fd, (token, i)).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, i: Interest) -> io::Result<()> {
        match self.interest.get_mut(&fd) {
            Some(slot) => {
                *slot = (token, i);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self.interest.remove(&fd) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: c_int) -> io::Result<()> {
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.interest.len());
        let mut tokens: Vec<u64> = Vec::with_capacity(self.interest.len());
        for (&fd, &(token, i)) in &self.interest {
            let mut events = 0i16;
            if i.readable {
                events |= POLLIN;
            }
            if i.writable {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
            tokens.push(token);
        }
        let n = loop {
            // SAFETY: fds is a live, correctly sized slice for the call.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if n >= 0 {
                break n;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if n == 0 {
            return Ok(());
        }
        for (slot, token) in fds.iter().zip(tokens) {
            let re = slot.revents;
            if re == 0 {
                continue;
            }
            out.push(PollEvent {
                token,
                readable: re & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0,
                writable: re & POLLOUT != 0,
                hangup: re & (POLLHUP | POLLERR | POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Front.
// ---------------------------------------------------------------------------

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Poll(PollTable),
}

/// Readiness poller over raw fds; epoll on Linux, `poll(2)` elsewhere.
pub(crate) struct Poller {
    backend: Backend,
}

impl Poller {
    /// The platform-preferred backend.
    pub(crate) fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller {
                backend: Backend::Epoll(epoll::Epoll::new()?),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Poller::poll_fallback()
        }
    }

    /// The portable `poll(2)` backend: what non-Linux unix runs, and
    /// what tests select on Linux so the fallback stays exercised.
    #[cfg_attr(target_os = "linux", allow(dead_code))]
    pub(crate) fn poll_fallback() -> io::Result<Poller> {
        Ok(Poller {
            backend: Backend::Poll(PollTable::new()),
        })
    }

    pub(crate) fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.register(fd, token, interest),
            Backend::Poll(p) => p.register(fd, token, interest),
        }
    }

    pub(crate) fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.modify(fd, token, interest),
            Backend::Poll(p) => p.modify(fd, token, interest),
        }
    }

    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.deregister(fd),
            Backend::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks up to `timeout_ms` (−1 = forever) and appends the ready set
    /// to `out`. `out` is cleared first.
    pub(crate) fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.wait(out, timeout_ms),
            Backend::Poll(p) => p.wait(out, timeout_ms),
        }
    }
}

// ---------------------------------------------------------------------------
// Wake pipe.
// ---------------------------------------------------------------------------

/// A self-pipe used to interrupt a blocked [`Poller::wait`] from another
/// thread. Completion writers call [`WakePipe::wake`]; the loop registers
/// the read end and drains it on readiness.
pub(crate) struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    pub(crate) fn new() -> io::Result<WakePipe> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: fds is a valid out-array of 2 ints.
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let (read_fd, write_fd) = (fds[0], fds[1]);
        for fd in [read_fd, write_fd] {
            // SAFETY: plain fcntl on fds we just created.
            unsafe {
                fcntl(fd, F_SETFD, FD_CLOEXEC);
            }
            if let Err(err) = set_nonblocking_fd(fd) {
                // SAFETY: both ends are owned and not yet shared.
                unsafe {
                    close(read_fd);
                    close(write_fd);
                }
                return Err(err);
            }
        }
        Ok(WakePipe { read_fd, write_fd })
    }

    pub(crate) fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Non-blocking, signal-safe poke. A full pipe already guarantees the
    /// loop will wake, so EAGAIN is success.
    pub(crate) fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one-byte write from a live stack buffer.
        unsafe {
            write(self.write_fd, (&byte as *const u8).cast(), 1);
        }
    }

    /// Drain all pending wake bytes (called by the loop on readiness).
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: read into a live stack buffer of the stated size.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: both ends are owned and closed exactly once.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

/// Raise the process `RLIMIT_NOFILE` soft limit toward the hard limit so
/// many-connection transports and benches are not capped by a conservative
/// shell default. Returns the resulting `(soft, hard)` pair, or `None` if
/// the limits could not be read.
pub fn raise_nofile_limit() -> Option<(u64, u64)> {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }
    #[cfg(target_os = "macos")]
    const RLIMIT_NOFILE: c_int = 8;
    #[cfg(not(target_os = "macos"))]
    const RLIMIT_NOFILE: c_int = 7;

    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: lim is a valid out-pointer for both calls.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return None;
        }
        if lim.cur < lim.max {
            let want = RLimit {
                cur: lim.max,
                max: lim.max,
            };
            if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                lim = want;
            }
        }
    }
    Some((lim.cur, lim.max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn exercise(mut poller: Poller) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        // Nothing pending yet: a zero-timeout wait reports nothing.
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 7));

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.wait(&mut events, 2_000).unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "listener should become readable on connect"
        );

        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        poller
            .register(
                accepted.as_raw_fd(),
                9,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        client.write_all(b"hi").unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut saw = false;
        while std::time::Instant::now() < deadline && !saw {
            poller.wait(&mut events, 100).unwrap();
            saw = events.iter().any(|e| e.token == 9 && e.readable);
        }
        assert!(saw, "accepted socket should be readable after client write");
        // A fresh socket with write interest reports writable immediately.
        assert!(events
            .iter()
            .any(|e| e.token == 9 && (e.readable || e.writable)));

        poller
            .modify(accepted.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        poller.deregister(accepted.as_raw_fd()).unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn default_backend_reports_readiness() {
        exercise(Poller::new().unwrap());
    }

    #[test]
    fn poll_fallback_reports_readiness() {
        let poller = Poller::poll_fallback().unwrap();
        assert!(matches!(poller.backend, Backend::Poll(_)));
        exercise(poller);
    }

    #[test]
    fn wake_pipe_wakes_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 1, Interest::READ).unwrap();
        pipe.wake();
        let mut events = Vec::new();
        poller.wait(&mut events, 2_000).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        pipe.drain();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 1));
    }
}
