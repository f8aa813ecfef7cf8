//! The `qprac-serve` wire protocol: line-oriented requests,
//! length-prefixed responses.
//!
//! ```text
//! request  := "RUNB " <canonical run-key text> "\n"
//!           | "STATS\n"
//!           | "HEALTH\n"
//!           | "METRICS\n"
//!           | "SHUTDOWN\n"
//!           | "PING\n"
//! response := "OKB " <len> "\n" <len frame bytes>
//!           | "OK text " <len> "\n" <len payload bytes>
//!           | "ERR " <len> "\n" <len message bytes>
//! ```
//!
//! `RUNB` resolves one cell and answers with an `OKB` frame whose
//! payload is the [`sim::codec`] cell encoding (self-describing kind,
//! versioned, checksummed) — the same bytes the run cache stores. The
//! control verbs answer `OK text` with a UTF-8 payload.
//!
//! Requests are single lines because canonical run keys never contain
//! newlines; responses are length-prefixed because stats payloads are
//! multi-line. Both sides cap line and payload sizes so a garbage peer
//! cannot balloon memory.

use std::io::{self, BufRead, Read, Write};

/// Maximum request-line length (canonical keys are ~200 bytes).
pub const MAX_LINE: u64 = 64 * 1024;
/// Maximum response payload (a 128-channel `RunStats` is ~20 KiB).
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Resolve one cell by its canonical [`sim::RunKey`] text, answered
    /// in the binary cell encoding ([`Response::OkBin`]).
    RunBin(String),
    /// Server counters (requests / hits / simulated / coalesced).
    Stats,
    /// Replica health: uptime, queue depth, in-flight work — what a
    /// failover-aware client routes on.
    Health,
    /// The same registry data as `STATS`/`HEALTH` in Prometheus text
    /// exposition format — what `scrape_cluster` merges across shards.
    Metrics,
    /// Graceful teardown: stop accepting, drain in-flight work, exit.
    Shutdown,
    /// Liveness probe.
    Ping,
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success of a control verb: a text payload.
    Ok(String),
    /// Success for a `RUNB` request: a [`sim::codec`] cell frame.
    OkBin(Vec<u8>),
    /// Failure: a human-readable reason. The connection stays usable.
    Err(String),
}

/// Read one `\n`-terminated line, bounded by [`MAX_LINE`]. Returns
/// `None` on clean EOF before any byte; errors on EOF mid-line (a
/// truncated request) or an oversized line.
pub fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let n = r.take(MAX_LINE).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            if n as u64 == MAX_LINE {
                "request line exceeds MAX_LINE"
            } else {
                "connection truncated mid-line"
            },
        ));
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map(Some).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("non-UTF-8 request: {e}"),
        )
    })
}

/// Parse one request line. Malformed lines are a recoverable error (the
/// server answers `ERR` and keeps the connection) — distinct from the
/// I/O errors of [`read_line`], which close it.
pub fn parse_request(line: &str) -> Result<Request, String> {
    if let Some(key) = line.strip_prefix("RUNB ") {
        let key = key.trim();
        if key.is_empty() {
            return Err("RUNB needs a run-key argument".into());
        }
        return Ok(Request::RunBin(key.to_string()));
    }
    match line.trim_end() {
        "STATS" => Ok(Request::Stats),
        "HEALTH" => Ok(Request::Health),
        "METRICS" => Ok(Request::Metrics),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "PING" => Ok(Request::Ping),
        other => Err(format!(
            "unknown request {:?} (expected RUNB <key> | STATS | HEALTH | METRICS | SHUTDOWN | PING)",
            clip(other, 80)
        )),
    }
}

/// Write one request line.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    match req {
        Request::RunBin(key) => writeln!(w, "RUNB {key}"),
        Request::Stats => writeln!(w, "STATS"),
        Request::Health => writeln!(w, "HEALTH"),
        Request::Metrics => writeln!(w, "METRICS"),
        Request::Shutdown => writeln!(w, "SHUTDOWN"),
        Request::Ping => writeln!(w, "PING"),
    }?;
    w.flush()
}

/// Write one framed response.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    match resp {
        Response::Ok(payload) => {
            write!(w, "OK text {}\n{payload}", payload.len())?;
        }
        Response::OkBin(frame) => {
            writeln!(w, "OKB {}", frame.len())?;
            w.write_all(frame)?;
        }
        Response::Err(msg) => {
            write!(w, "ERR {}\n{msg}", msg.len())?;
        }
    }
    w.flush()
}

/// Read one framed response (status line + exact payload bytes).
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let line = read_line(r)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        )
    })?;
    // OKB carries raw bytes; the text arms re-validate UTF-8.
    if let Some(len) = line.strip_prefix("OKB ") {
        let mut frame = vec![0u8; parse_len(len, &line)?];
        r.read_exact(&mut frame)?;
        return Ok(Response::OkBin(frame));
    }
    let (len, make): (&str, fn(String) -> Response) =
        if let Some(len) = line.strip_prefix("OK text ") {
            (len, Response::Ok)
        } else if let Some(len) = line.strip_prefix("ERR ") {
            (len, Response::Err)
        } else {
            return Err(bad_frame(&line, "expected OKB, OK text or ERR"));
        };
    let len = parse_len(len, &line)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let payload = String::from_utf8(payload).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("non-UTF-8 payload: {e}"),
        )
    })?;
    Ok(make(payload))
}

fn parse_len(text: &str, line: &str) -> io::Result<usize> {
    let len: usize = text
        .trim()
        .parse()
        .map_err(|_| bad_frame(line, "bad payload length"))?;
    if len > MAX_PAYLOAD {
        return Err(bad_frame(line, "payload exceeds MAX_PAYLOAD"));
    }
    Ok(len)
}

fn bad_frame(line: &str, why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed response frame {:?}: {why}", clip(line, 80)),
    )
}

/// Clip a string for error messages (char-boundary safe).
fn clip(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, resp).unwrap();
        read_response(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn requests_render_and_parse() {
        for req in [
            Request::RunBin("workload:x;cores=4".into()),
            Request::Stats,
            Request::Health,
            Request::Metrics,
            Request::Shutdown,
            Request::Ping,
        ] {
            let mut buf = Vec::new();
            write_request(&mut buf, &req).unwrap();
            let line = read_line(&mut Cursor::new(buf)).unwrap().unwrap();
            assert_eq!(parse_request(&line).unwrap(), req);
        }
        assert!(parse_request("RUN workload:x;cores=4").is_err());
        assert!(parse_request("RUNB ").is_err());
        assert!(parse_request("DELETE everything").is_err());
        assert!(parse_request("").is_err());
    }

    #[test]
    fn responses_round_trip_including_multiline_payloads() {
        let ok = Response::Ok("requests=1\nmem_hits=2\n".into());
        assert_eq!(round_trip_response(&ok), ok);
        let empty = Response::Ok(String::new());
        assert_eq!(round_trip_response(&empty), empty);
        let err = Response::Err("unknown workload \"nope\"".into());
        assert_eq!(round_trip_response(&err), err);
        // Binary frames carry arbitrary (non-UTF-8) bytes untouched.
        let bin = Response::OkBin(vec![0xFF, 0x00, b'\n', 0xC3, 0x28, 7]);
        assert_eq!(round_trip_response(&bin), bin);
        let bin_empty = Response::OkBin(Vec::new());
        assert_eq!(round_trip_response(&bin_empty), bin_empty);
    }

    #[test]
    fn pipelined_responses_leave_the_stream_aligned() {
        let a = Response::Ok("41".into());
        let b = Response::Err("x".into());
        let mut buf = Vec::new();
        write_response(&mut buf, &a).unwrap();
        write_response(&mut buf, &b).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_response(&mut cur).unwrap(), a);
        assert_eq!(read_response(&mut cur).unwrap(), b);
    }

    #[test]
    fn truncated_and_oversized_frames_error_cleanly() {
        // EOF mid-line.
        let mut cur = Cursor::new(b"RUNB half-a-request".to_vec());
        assert!(read_line(&mut cur).is_err());
        // Clean EOF.
        let mut cur = Cursor::new(Vec::new());
        assert!(read_line(&mut cur).unwrap().is_none());
        // Payload shorter than its declared length.
        let mut cur = Cursor::new(b"OK text 10\n41".to_vec());
        assert!(read_response(&mut cur).is_err());
        // Absurd declared length is rejected before allocation.
        let mut cur = Cursor::new(b"OK text 99999999999\n".to_vec());
        assert!(read_response(&mut cur).is_err());
        // Garbage status line.
        let mut cur = Cursor::new(b"YO 3\nabc".to_vec());
        assert!(read_response(&mut cur).is_err());
    }
}
