//! The blocking NDJSON client — one request/response connection with
//! timeouts — and the dial-with-backoff under it, which the router
//! also (re)connects its worker links with.

use chatpattern_core::wire::{RequestEnvelope, ResponseEnvelope};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connection policy: how long to wait, how often to retry.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (`None` = block forever). The default is
    /// generous because a diffusion job legitimately takes a while.
    pub read_timeout: Option<Duration>,
    /// Total connection attempts before giving up (≥ 1).
    pub attempts: u32,
    /// Sleep before the second attempt; doubles per retry, capped at
    /// [`ClientConfig::max_backoff`].
    pub backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(300)),
            attempts: 5,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// Resolves, then dials every resolved address once per attempt, with
/// exponential backoff between attempts. What the client connects
/// with and the router (re)dials a worker with.
///
/// # Errors
///
/// The last connection error after all attempts fail.
pub fn connect_with_backoff(
    addr: impl ToSocketAddrs,
    config: &ClientConfig,
) -> io::Result<TcpStream> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        ));
    }
    let mut last = None;
    let mut pause = config.backoff;
    for attempt in 0..config.attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(pause);
            pause = (pause * 2).min(config.max_backoff);
        }
        for addr in &addrs {
            match TcpStream::connect_timeout(addr, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(config.read_timeout)?;
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(error) => last = Some(error),
            }
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// A blocking request/response NDJSON connection to one server.
pub struct NdjsonClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl NdjsonClient {
    /// Connects (with the config's retry policy).
    ///
    /// # Errors
    ///
    /// The last connection error once every attempt failed.
    pub fn connect(addr: &str, config: ClientConfig) -> io::Result<NdjsonClient> {
        let stream = connect_with_backoff(addr, &config)?;
        let writer = stream.try_clone()?;
        Ok(NdjsonClient {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request envelope as one NDJSON line.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, envelope: &RequestEnvelope) -> io::Result<()> {
        let line = serde_json::to_string(envelope)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.send_line(&line)
    }

    /// Sends one raw line.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads the next non-empty line; `None` at clean EOF.
    ///
    /// # Errors
    ///
    /// Socket read failures, including `WouldBlock`/`TimedOut` when
    /// the read timeout expires.
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if !line.trim().is_empty() {
                return Ok(Some(line.trim_end_matches(['\r', '\n']).to_owned()));
            }
        }
    }

    /// Reads the next response envelope.
    ///
    /// # Errors
    ///
    /// Read failures; `UnexpectedEof` when the server closed; a
    /// decode failure maps to `InvalidData`.
    pub fn recv(&mut self) -> io::Result<ResponseEnvelope> {
        let line = self.recv_line()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        serde_json::from_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {line}")))
    }

    /// Strict request-then-response exchange. Correct only for
    /// clients that never pipeline (tests, control calls); pipelined
    /// traffic must match ids itself.
    ///
    /// # Errors
    ///
    /// Send or receive failures.
    pub fn call(&mut self, envelope: &RequestEnvelope) -> io::Result<ResponseEnvelope> {
        self.send(envelope)?;
        self.recv()
    }
}
