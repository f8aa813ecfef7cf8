//! Blocking client for the `qprac-serve` protocol.
//!
//! One [`Client`] wraps one TCP connection. Requests on a connection
//! are answered in order, so [`Client::run_many`] pipelines a batch of
//! keys: it keeps up to [`PIPELINE_WINDOW`] `RUNB`s in flight and reads
//! the replies as they come. Every other call, [`Client::run`]
//! included, sends one request and blocks on its reply. A shard serves
//! one request per connection at a time, so for parallel simulations
//! open several clients — the server multiplexes every connection on
//! one event loop and coalesces duplicate in-flight keys across all of
//! them.

use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use qprac_obs::Snapshot;
use sim::{CellResult, RunKey};

use crate::protocol::{queue_request, read_response, write_request, Request, Response};

/// `RUNB`s [`Client::run_many`] keeps in flight on one connection:
/// enough to hide the round trip behind the server's work, few enough
/// that the requests always fit the socket buffers and the replies stay
/// under the server's reply-backlog cap.
pub const PIPELINE_WINDOW: usize = 64;

/// Default connect/read/write deadline (`QPRAC_REMOTE_TIMEOUT_MS`):
/// bounded — a hung shard must fail the call, not the pool — but
/// generous enough for a full-scale simulation cell to complete.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_millis(30_000);

/// The `QPRAC_REMOTE_TIMEOUT_MS` knob (unset/empty/`0` =
/// [`DEFAULT_TIMEOUT`], never infinite).
pub fn timeout_from_env() -> Duration {
    match sim::env_u64("QPRAC_REMOTE_TIMEOUT_MS", 0) {
        0 => DEFAULT_TIMEOUT,
        ms => Duration::from_millis(ms),
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport problem (connect, read, write, framing).
    Io(io::Error),
    /// The server answered `ERR` — the connection remains usable.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Whether retrying the same key can succeed. Transport failures
    /// (timeouts, resets, truncated frames) are transient by
    /// definition; among server-side `ERR`s only a dead worker — the
    /// single-flight poison or a caught simulation panic — is worth
    /// re-driving, since the protocol is key-only and idempotent.
    /// Everything else ("unknown workload", malformed key) is
    /// authoritative: the same request will fail the same way anywhere.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Server(msg) => msg.contains("panicked"),
        }
    }
}

/// A connected `qprac-serve` client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server address (`host:port`) with no deadlines
    /// (blocking calls wait forever — fine for trusted local tests;
    /// failover paths should use [`Client::connect_timeout`]).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connect with deadlines on every operation: `timeout` bounds the
    /// TCP connect, every read and every write, so a hung or
    /// half-dead server turns into a timeout error instead of a
    /// stalled worker thread.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let mut last = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    return Client::from_stream(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        // Request/response round trips: no Nagle delay.
        stream.set_nodelay(true).ok();
        // Room for a window's worth of small replies per read.
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Send one request and read its response; `ERR` becomes
    /// [`ClientError::Server`].
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_request(&mut self.writer, req)?;
        match read_response(&mut self.reader)? {
            Response::Err(msg) => Err(ClientError::Server(msg)),
            response => Ok(response),
        }
    }

    /// A control verb's text payload.
    fn call_text(&mut self, req: &Request) -> Result<String, ClientError> {
        match self.call(req)? {
            Response::Ok(payload) => Ok(payload),
            _ => Err(ClientError::Server(format!(
                "unexpected binary response to {req:?}"
            ))),
        }
    }

    /// Resolve a batch of cells by canonical key text (the `RUNB`
    /// verb), pipelined: up to [`PIPELINE_WINDOW`] requests are in
    /// flight at once, and each binary frame is decoded into a
    /// [`CellResult`] as it arrives.
    ///
    /// `on_reply` is called once per answered key, in key order, as
    /// soon as its reply is read. A server `ERR` answers its key with
    /// [`ClientError::Server`], and the batch goes on. A transport
    /// error ends the batch: it is the last call, the keys after it get
    /// none, and the connection is no longer usable.
    pub fn run_many(
        &mut self,
        keys: &[&str],
        mut on_reply: impl FnMut(Result<CellResult, ClientError>),
    ) {
        let (mut sent, mut answered) = (0, 0);
        while answered < keys.len() {
            // Top the window up once half of it has been answered, so
            // one flush carries many requests.
            if sent < keys.len() && sent - answered <= PIPELINE_WINDOW / 2 {
                let room = PIPELINE_WINDOW - (sent - answered);
                let batch = &keys[sent..keys.len().min(sent + room)];
                if let Err(e) = self.send_runb(batch) {
                    return on_reply(Err(e.into()));
                }
                sent += batch.len();
            }
            answered += 1;
            match read_response(&mut self.reader) {
                Ok(Response::OkBin(frame)) => {
                    on_reply(sim::codec::decode_cell(&frame).map_err(|e| {
                        ClientError::Server(format!("undecodable binary response: {e}"))
                    }))
                }
                Ok(Response::Err(msg)) => on_reply(Err(ClientError::Server(msg))),
                Ok(Response::Ok(_)) => on_reply(Err(ClientError::Server(
                    "unexpected text response to RUNB".into(),
                ))),
                Err(e) => return on_reply(Err(e.into())),
            }
        }
    }

    /// Write one `RUNB` line per key, then flush them together.
    fn send_runb(&mut self, keys: &[&str]) -> io::Result<()> {
        for key in keys {
            queue_request(&mut self.writer, &Request::RunBin(key.to_string()))?;
        }
        self.writer.flush()
    }

    /// Resolve one cell by canonical key text: a batch of one.
    pub fn run_key_text(&mut self, key_text: &str) -> Result<CellResult, ClientError> {
        let mut reply = None;
        self.run_many(&[key_text], |r| reply = Some(r));
        reply.expect("a batch of one gets exactly one reply")
    }

    /// [`Self::run_key_text`] for an already-built [`RunKey`].
    pub fn run(&mut self, key: &RunKey) -> Result<CellResult, ClientError> {
        self.run_key_text(key.as_str())
    }

    /// One counter or gauge of the server, by its registry name (e.g.
    /// `qprac_simulated_total`, `qprac_queue_depth`), read from one
    /// [`Self::metrics`] scrape. A name the scrape lacks is an error,
    /// not a 0, so a misspelled name cannot pass for an idle counter.
    pub fn stat(&mut self, name: &str) -> Result<u64, ClientError> {
        let snap = Snapshot::parse_prometheus(&self.metrics()?).map_err(ClientError::Server)?;
        snap.counters
            .get(name)
            .copied()
            .or_else(|| snap.gauges.get(name).and_then(|&g| u64::try_from(g).ok()))
            .ok_or_else(|| ClientError::Server(format!("no counter or gauge {name:?} in METRICS")))
    }

    /// Fetch the server's registry in Prometheus text exposition
    /// format (the `METRICS` verb). Feed the text to
    /// [`Snapshot::parse_prometheus`] to merge scrapes across shards.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.call_text(&Request::Metrics)
    }

    /// Ask the server to shut down gracefully: it stops accepting,
    /// drains in-flight work, and exits its accept loop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let payload = self.call_text(&Request::Shutdown)?;
        if payload == "draining" {
            Ok(())
        } else {
            Err(ClientError::Server(format!(
                "unexpected shutdown reply {payload:?}"
            )))
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let payload = self.call_text(&Request::Ping)?;
        if payload == "pong" {
            Ok(())
        } else {
            Err(ClientError::Server(format!(
                "unexpected ping reply {payload:?}"
            )))
        }
    }
}
