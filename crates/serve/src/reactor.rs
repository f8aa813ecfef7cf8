//! The server's one serve loop: a bounded `poll(2)` readiness loop
//! over nonblocking sockets.
//!
//! One reactor thread owns every connection as a small state machine
//! (read buffer → framed request → response buffer); the only other
//! threads are a **fixed** dispatch pool sized like the simulation
//! worker bound. Idle connections therefore cost a pollfd and two
//! buffers — no OS thread — so one shard sustains thousands of open
//! clients on a constant thread count (pinned by
//! `crates/serve/tests/cluster.rs`).
//!
//! Division of labor per request:
//!
//! - control verbs (`PING`/`METRICS`/`SHUTDOWN`) are answered inline
//!   on the reactor thread;
//! - a `RUNB` first probes the memory tier with its raw key text. Only
//!   parsed, hence canonical, keys are ever inserted, so a byte-equal
//!   hit is well-formed: its cached payload is copied into the write
//!   buffer (`OKB`) with no parse and no encode, and a warm request
//!   never leaves the reactor thread;
//! - a miss is parsed inline; a malformed key (`ERR`) is answered on
//!   the spot, and a well-formed one goes to the dispatch pool, which
//!   drives the [`resolve`] path (memory → disk → single-flight simulation)
//!   and posts the response back through a [`WakePipe`]. The pool's
//!   fixed size is the one bound on concurrent simulations; jobs it has
//!   not taken yet wait in its queue, counted by the `queue_depth`
//!   gauge. While a job is out the connection is busy: nothing further
//!   is parsed on it.
//!
//! Requests on a connection are therefore answered strictly in order:
//! an inline answer is only ever produced while no pool job is out for
//! that connection. A client may pipeline any number of requests; they
//! queue in the connection's read buffer, whose size is capped, and
//! parsing pauses while the unflushed replies exceed a cap of their
//! own. A peer that floods requests and never reads its replies hits
//! TCP backpressure, never unbounded server memory.
//!
//! Armed chaos ([`Chaos`]) injects its faults here too: `drop` hangs up
//! at accept; `delay` is drawn here exactly once for every well-formed
//! `RUNB` — for a raw memory hit right after the probe, for a miss once
//! its key parses — and a request it picks, warm or not, is parsed and
//! goes to the dispatch pool, where it stalls a worker (never the
//! reactor thread) before it resolves;
//! `trunc` halves a response frame and closes the connection once that
//! half is flushed; and `kill` panics inside [`resolve`], which the
//! dispatch worker's `catch_unwind` turns into a retryable `ERR`.
//!
//! `SHUTDOWN` drains: accepting stops, in-flight resolves complete,
//! their responses flush, then the loop exits.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sim::{CellSpec, RunKey};

use crate::chaos::Chaos;
use crate::poll::{poll_fds, PollFd, WakePipe, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::protocol::{parse_request, write_okb, write_response, Request, Response, MAX_LINE};
use crate::server::{control_payload, parse_key, resolve, Inner, Payload, REPLY_BACKLOG_CAP};

/// Read-buffer soft cap per connection: past this the reactor stops
/// reading (TCP backpressure) until the backlog drains, so a peer that
/// floods pipelined requests cannot balloon server memory.
const RBUF_SOFT_CAP: usize = 256 * 1024;

/// One `RUNB` the reactor could not answer inline.
struct DispatchJob {
    slot: usize,
    gen: u64,
    spec: CellSpec,
    key: RunKey,
    /// The chaos stall this worker serves before resolving.
    delay: Option<Duration>,
    t0: Instant,
}

/// A completed resolve, addressed back to its connection (dropped if
/// the fd was reused meanwhile — `gen` disambiguates).
struct DispatchDone {
    slot: usize,
    gen: u64,
    outcome: Result<Payload, String>,
}

/// Reactor ↔ dispatch-pool plumbing.
struct DispatchShared {
    queue: Mutex<VecDeque<DispatchJob>>,
    available: Condvar,
    done: Mutex<Vec<DispatchDone>>,
    wake: WakePipe,
    stop: AtomicBool,
}

impl DispatchShared {
    fn submit(&self, job: DispatchJob) {
        self.queue.lock().unwrap().push_back(job);
        self.available.notify_one();
    }

    fn take_done(&self) -> Vec<DispatchDone> {
        std::mem::take(&mut *self.done.lock().unwrap())
    }
}

/// Dispatch-pool worker: resolve cells until told to stop.
fn dispatch_worker(inner: &Inner, shared: &DispatchShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    inner.metrics.queue_depth.add(-1);
                    break job;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        if let Some(delay) = job.delay {
            std::thread::sleep(delay);
        }
        // resolve() already converts simulation panics into Err; the
        // outer guard catches the chaos leader-kill and the truly
        // unexpected, so a worker never dies and strands the reactor.
        let outcome = catch_unwind(AssertUnwindSafe(|| resolve(inner, &job.spec, job.key)))
            .unwrap_or_else(|_| Err("simulation worker panicked".into()));
        let outcome = answered(inner, outcome, job.t0);
        shared.done.lock().unwrap().push(DispatchDone {
            slot: job.slot,
            gen: job.gen,
            outcome,
        });
        shared.wake.wake();
    }
}

/// Count and time one answered `RUNB` — inline or from the pool, the
/// same way — and pass its outcome on to be framed.
fn answered(
    inner: &Inner,
    outcome: Result<Payload, String>,
    t0: Instant,
) -> Result<Payload, String> {
    let m = &inner.metrics;
    if outcome.is_err() {
        m.errors.inc();
    }
    m.run_requests.inc();
    m.lat_runb.record(t0.elapsed());
    outcome
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Generation stamp: a dispatch completion for an older tenant of
    /// this slot must not reach the new one.
    gen: u64,
    /// Bytes read but not yet consumed as request lines.
    rbuf: Vec<u8>,
    /// Serialized responses not yet written, from `wpos` on.
    wbuf: Vec<u8>,
    wpos: usize,
    /// A `RUNB` is with the dispatch pool; no further requests are
    /// parsed until it completes (per-connection ordering).
    busy: bool,
    /// Peer EOF seen (or shutdown): finish writing, then close.
    closing: bool,
    /// The chaos `trunc` fault cut a frame: flush what is left of it,
    /// then shut the socket down. Nothing more is read or answered.
    cut: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wpos >= self.wbuf.len()
    }

    /// Reply bytes queued but not yet written.
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether buffered request lines may be parsed and answered.
    fn parses(&self) -> bool {
        !self.busy && !self.cut && self.backlog() < REPLY_BACKLOG_CAP
    }

    /// Whether the connection reads further requests.
    fn wants_input(&self) -> bool {
        self.parses() && !self.closing
    }

    fn push_response(&mut self, response: &Response, inner: &Inner) {
        self.push_frame(inner, |w| write_response(w, response));
    }

    /// Frame a `RUNB` outcome: the payload is copied straight from the
    /// memory tier's bytes into the write buffer.
    fn push_runb(&mut self, outcome: Result<Payload, String>, inner: &Inner) {
        match outcome {
            Ok(payload) => self.push_frame(inner, |w| write_okb(w, &payload)),
            Err(reason) => self.push_response(&Response::Err(reason), inner),
        }
    }

    fn push_frame(&mut self, inner: &Inner, frame: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) {
        let start = self.wbuf.len();
        // Writing into a Vec cannot fail.
        frame(&mut self.wbuf).expect("vec write");
        if inner.chaos.as_ref().is_some_and(Chaos::truncate_write) {
            self.wbuf.truncate(start + (self.wbuf.len() - start) / 2);
            self.cut = true;
        }
        let queued = self.wbuf.len() - start;
        inner.metrics.reply_backlog.add(queued as i64);
    }
}

/// The poll-readiness accept/serve loop. Returns after a `SHUTDOWN`
/// drain.
pub(crate) fn serve(listener: TcpListener, inner: Arc<Inner>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let shared = Arc::new(DispatchShared {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        done: Mutex::new(Vec::new()),
        wake: WakePipe::new()?,
        stop: AtomicBool::new(false),
    });
    let workers: Vec<_> = (0..inner.worker_count)
        .map(|i| {
            let inner = Arc::clone(&inner);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("qprac-dispatch-{i}"))
                .spawn(move || dispatch_worker(&inner, &shared))
                .expect("spawn dispatch worker")
        })
        .collect();

    let mut reactor = Reactor {
        inner,
        listener,
        shared: Arc::clone(&shared),
        conns: Vec::new(),
        free: Vec::new(),
        next_gen: 0,
        jobs_in_flight: 0,
        accepting: true,
    };
    let outcome = reactor.run();

    shared.stop.store(true, Ordering::SeqCst);
    shared.available.notify_all();
    for w in workers {
        let _ = w.join();
    }
    outcome
}

struct Reactor {
    inner: Arc<Inner>,
    listener: TcpListener,
    shared: Arc<DispatchShared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    /// Dispatched resolves not yet completed (queued or executing).
    jobs_in_flight: usize,
    accepting: bool,
}

impl Reactor {
    fn run(&mut self) -> io::Result<()> {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut polled_slots: Vec<usize> = Vec::new();
        loop {
            // After a SHUTDOWN: exit once every job is answered and
            // every answer is flushed.
            if !self.accepting
                && self.jobs_in_flight == 0
                && self.conns.iter().flatten().all(|c| c.flushed())
            {
                return Ok(());
            }

            fds.clear();
            polled_slots.clear();
            fds.push(PollFd::new(self.shared.wake.fd(), POLLIN));
            let listening = self.accepting;
            if listening {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            }
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(c) = conn else { continue };
                let mut events = 0i16;
                if c.wants_input() && c.rbuf.len() < RBUF_SOFT_CAP {
                    events |= POLLIN;
                }
                if !c.flushed() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                polled_slots.push(slot);
            }

            poll_fds(&mut fds, -1)?;

            if fds[0].returned(POLLIN) {
                self.shared.wake.drain();
            }
            for done in self.shared.take_done() {
                self.handle_done(done);
            }
            // Index by what was polled: a SHUTDOWN handled just above
            // may have stopped accepting since.
            let conn_fds_start = if listening {
                if fds[1].returned(POLLIN) {
                    self.accept_ready();
                }
                2
            } else {
                1
            };
            for (fd, &slot) in fds[conn_fds_start..].iter().zip(&polled_slots) {
                if fd.revents != 0 {
                    self.process_slot(slot, fd.revents);
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if !self.accepting {
                        continue; // raced a shutdown: hang up
                    }
                    if self.live_connections() >= self.inner.max_conns {
                        self.inner.metrics.rejected_conns.inc();
                        continue; // at capacity: hang up without a byte
                    }
                    if self
                        .inner
                        .chaos
                        .as_ref()
                        .is_some_and(Chaos::drop_connection)
                    {
                        continue; // the drop fault: hang up without a byte
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        gen: self.next_gen,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        busy: false,
                        closing: false,
                        cut: false,
                    };
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.conns[slot] = Some(conn);
                            slot
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.conns.len() - 1
                        }
                    };
                    self.inner
                        .metrics
                        .connections
                        .set(self.live_connections() as i64);
                    let _ = slot;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (aborted handshake, fd
                // pressure) must not kill the daemon; retry next round.
                Err(_) => break,
            }
        }
    }

    fn live_connections(&self) -> usize {
        self.conns.len() - self.free.len()
    }

    fn handle_done(&mut self, done: DispatchDone) {
        self.jobs_in_flight -= 1;
        let stale = match self.conns[done.slot].as_mut() {
            Some(c) if c.gen == done.gen => {
                c.push_runb(done.outcome, &self.inner);
                c.busy = false;
                false
            }
            // The requester is gone (hung up mid-resolve); the work is
            // not wasted — the result is already in the caches.
            _ => true,
        };
        if !stale {
            self.process_slot(done.slot, 0);
        }
    }

    /// Drive one connection through read → parse/dispatch → flush.
    fn process_slot(&mut self, slot: usize, revents: i16) {
        let Some(mut c) = self.conns[slot].take() else {
            return;
        };
        let keep = self.drive(&mut c, slot, revents);
        if keep {
            self.conns[slot] = Some(c);
        } else {
            self.free.push(slot);
            let m = &self.inner.metrics;
            m.reply_backlog.add(-(c.backlog() as i64));
            m.connections.set(self.live_connections() as i64);
        }
    }

    fn drive(&mut self, c: &mut Conn, slot: usize, revents: i16) -> bool {
        if revents & (POLLERR | POLLNVAL) != 0 {
            return false;
        }
        if revents & (POLLIN | POLLHUP) != 0 && c.wants_input() && !read_some(c) {
            return false;
        }
        if !self.advance(c, slot) {
            return false;
        }
        if !flush_some(c, &self.inner) {
            return false;
        }
        if c.cut && c.flushed() {
            let _ = c.stream.shutdown(Shutdown::Both);
            return false;
        }
        // A closed peer with nothing pending: release the slot.
        !(c.closing && !c.busy && c.flushed())
    }

    /// Consume complete request lines until the connection goes busy,
    /// its reply backlog stays over the cap, or it runs out of input.
    /// Returns false when the connection must close (a transport error,
    /// an oversized line, non-UTF-8 — the same conditions that error
    /// [`crate::protocol::read_line`]).
    fn advance(&mut self, c: &mut Conn, slot: usize) -> bool {
        // Consumed lines are cut from the buffer once, on the way out.
        let mut start = 0;
        let keep = loop {
            if c.backlog() >= REPLY_BACKLOG_CAP && !flush_some(c, &self.inner) {
                break false;
            }
            if !c.parses() {
                break true;
            }
            let rest = &c.rbuf[start..];
            let window = rest.len().min(MAX_LINE as usize);
            let Some(nl) = rest[..window].iter().position(|&b| b == b'\n') else {
                // No complete line: fine mid-stream, fatal past the cap
                // or once the peer can never finish the line.
                break (rest.len() as u64) < MAX_LINE && (!c.closing || rest.is_empty());
            };
            let mut line = &rest[..nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            let Ok(line) = String::from_utf8(line.to_vec()) else {
                break false;
            };
            start += nl + 1;
            let t0 = Instant::now();
            self.inner.metrics.requests.inc();
            match parse_request(&line) {
                Ok(Request::RunBin(key_text)) => self.run_bin(c, slot, &key_text, t0),
                Ok(req) => {
                    let payload = control_payload(&self.inner, &req);
                    c.push_response(&Response::Ok(payload), &self.inner);
                    if let Some(hist) = self.inner.metrics.latency(&req) {
                        hist.record(t0.elapsed());
                    }
                    if req == Request::Shutdown {
                        self.accepting = false;
                    }
                }
                Err(reason) => {
                    self.inner.metrics.errors.inc();
                    c.push_response(&Response::Err(reason), &self.inner);
                }
            }
        };
        c.rbuf.drain(..start);
        keep
    }

    /// One `RUNB`: answered inline when the memory tier holds its raw
    /// key text or the key is malformed, else handed to the dispatch
    /// pool, which leaves the connection busy until the reply is back.
    fn run_bin(&mut self, c: &mut Conn, slot: usize, key_text: &str, t0: Instant) {
        let inner = &*self.inner;
        let draw_delay = || inner.chaos.as_ref().and_then(Chaos::delay);
        // Only parsed keys enter the tier, so a raw hit is well-formed
        // and takes its one delay draw here. A delayed request stalls a
        // pool worker, never this thread, so it takes the pool path
        // even when it is warm.
        let warm = inner.lru().get(key_text);
        let mut drawn = None;
        if let Some(payload) = warm {
            let delay = draw_delay();
            if delay.is_none() {
                inner.metrics.mem_hits.inc();
                return c.push_runb(answered(inner, Ok(payload), t0), inner);
            }
            drawn = Some(delay);
        }
        // A parser bug must not take the serve loop down with it: a
        // panic becomes the same retryable ERR a panicked worker sends.
        let parsed = catch_unwind(AssertUnwindSafe(|| parse_key(inner, key_text)))
            .unwrap_or_else(|_| Err("key parser panicked".into()));
        let spec = match parsed {
            Ok(spec) => spec,
            Err(reason) => return c.push_runb(answered(inner, Err(reason), t0), inner),
        };
        let delay = drawn.unwrap_or_else(draw_delay);
        let key = spec.key();
        c.busy = true;
        self.jobs_in_flight += 1;
        // Counted before the push, so the worker's decrement on taking
        // the job never drives the gauge below zero.
        inner.metrics.queue_depth.add(1);
        self.shared.submit(DispatchJob {
            slot,
            gen: c.gen,
            spec,
            key,
            delay,
            t0,
        });
    }
}

/// Nonblocking read into the connection buffer (bounded by
/// [`RBUF_SOFT_CAP`]). Returns false on a fatal transport error.
fn read_some(c: &mut Conn) -> bool {
    let mut buf = [0u8; 16 * 1024];
    while c.rbuf.len() < RBUF_SOFT_CAP {
        match (&c.stream).read(&mut buf) {
            Ok(0) => {
                c.closing = true;
                break;
            }
            Ok(n) => c.rbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Nonblocking write of the pending response bytes. Returns false on a
/// fatal transport error (the peer is gone).
fn flush_some(c: &mut Conn, inner: &Inner) -> bool {
    let before = c.backlog();
    let alive = loop {
        if c.flushed() {
            c.wbuf.clear();
            c.wpos = 0;
            break true;
        }
        match (&c.stream).write(&c.wbuf[c.wpos..]) {
            Ok(0) => break false,
            Ok(n) => c.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // A peer that reads slowly but never catches up keeps
                // the buffer from emptying: drop the written prefix.
                if c.wpos >= REPLY_BACKLOG_CAP {
                    c.wbuf.drain(..c.wpos);
                    c.wpos = 0;
                }
                break true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break false,
        }
    };
    inner
        .metrics
        .reply_backlog
        .add(c.backlog() as i64 - before as i64);
    alive
}
