//! Always-on SQL serving front door.
//!
//! The paper's shared-execution designs (QPipe SP, CJOIN's global query
//! plan) assume one *always-running* pipeline absorbing many concurrent
//! queries. This crate is that deployment shape: a line-protocol TCP
//! listener over a single [`SharingDb`] — the engine (and, in the GQP
//! modes, the CJOIN pipeline) is constructed once and every connection's
//! SQL is routed into it, so concurrent clients share work exactly as the
//! library benchmarks do.
//!
//! # Protocol
//!
//! One request per line. A line starting with `.` is a meta command:
//!
//! ```text
//! .ping            -> PONG
//! .mode            -> OK mode <label>
//! .routes          -> OK routes qc=N spl=N gqp=N   (AUTO routing counters)
//! .deadline_ms N   -> OK deadline_ms N     (0 clears; applies per query)
//! .quit            -> BYE                  (server closes the connection)
//! ```
//!
//! Any other non-empty line is a SQL `SELECT`. The response is a schema
//! frame, zero or more row frames, and a terminator:
//!
//! ```text
//! SCHEMA col1|col2|...
//! ROW v1|v2|...
//! END <rows> <micros>
//! ```
//!
//! or, terminally, a typed error frame:
//!
//! ```text
//! ERR <KIND> <retry_after_ms|-> <message>
//! ```
//!
//! with `KIND` one of `PARSE`, `BIND`, `PLAN`, `SHED`, `DEADLINE`,
//! `CANCELLED`, `ABORTED`, `STORAGE`, `INTERNAL`, `PROTO`. Only `SHED`
//! carries a Retry-After (computed from the admission gate's
//! [`RetryHint`] snapshot); every other kind sends `-`. An `ERR` frame
//! can follow `ROW` frames (e.g. a deadline expiring mid-stream); it
//! always terminates the request.
//!
//! Fault isolation: each request runs inside a panic belt, so a poisoned
//! statement (or an injected failpoint in the engine underneath) produces
//! an `ERR` frame on one connection — never a dead listener. Rows are
//! streamed batch-at-a-time straight off the engine's zero-copy
//! [`FactBatch`](qs_storage::FactBatch) currency, without re-materializing
//! output pages.

use qs_core::db::SharingDb;
use qs_engine::{AdmissionConfig, EngineError, QueryOpts, RetryHint};
use qs_sql::SqlError;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest accepted request line (bytes). A line that exceeds it gets an
/// `ERR PROTO` frame and the connection is closed — a client streaming an
/// unterminated line must not grow server memory without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Rows per write-buffer flush while streaming a result.
const FLUSH_EVERY_ROWS: u64 = 256;

/// Monotonic counters exposed by a running server (all relaxed; read via
/// [`ServerHandle::stats`]).
#[derive(Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests (SQL statements) received.
    pub requests: AtomicU64,
    /// Requests answered with `END`.
    pub completed: AtomicU64,
    /// Requests answered with an `ERR` frame.
    pub errors: AtomicU64,
    /// `ERR SHED` frames (subset of `errors`).
    pub sheds: AtomicU64,
    /// Panics contained by the per-request belt.
    pub panics_contained: AtomicU64,
}

/// Point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub connections: u64,
    pub requests: u64,
    pub completed: u64,
    pub errors: u64,
    pub sheds: u64,
    pub panics_contained: u64,
}

/// A running listener. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] to stop accepting (connections already open
/// drain until their clients disconnect).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    stats: Arc<ServerStats>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.stats;
        StatsSnapshot {
            connections: s.connections.load(Ordering::Relaxed),
            requests: s.requests.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            sheds: s.sheds.load(Ordering::Relaxed),
            panics_contained: s.panics_contained.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting new connections and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block on the accept loop (for a foreground server binary).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Start serving `db` on `addr` (e.g. `"127.0.0.1:0"`). The database —
/// and with it the shared engine/CJOIN pipeline — must already be built;
/// `serve` only adds the listener. One thread per connection; the accept
/// loop and every request are panic-isolated.
pub fn serve(db: Arc<SharingDb>, addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());

    let accept_stop = stop.clone();
    let accept_stats = stats.clone();
    let accept_thread = std::thread::Builder::new()
        .name("qs-server-accept".into())
        .spawn(move || {
            let mut conn_id = 0u64;
            while !accept_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        // A socket that rejects the set-up is still
                        // served, only with the kernel's defaults.
                        let _ = configure_stream(&stream);
                        conn_id += 1;
                        accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                        let db = db.clone();
                        let stats = accept_stats.clone();
                        // Connection threads are detached: they end when
                        // their client disconnects or sends `.quit`. A
                        // failed spawn only drops this connection.
                        let _ = std::thread::Builder::new()
                            .name(format!("qs-conn-{conn_id}"))
                            .spawn(move || connection_loop(db, stats, stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })?;

    Ok(ServerHandle {
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
        stats,
    })
}

/// Socket set-up for every accepted connection. `TCP_NODELAY`: a reply
/// is a few small frames flushed together, and with Nagle's algorithm on,
/// a reply written while the client has not yet acknowledged the previous
/// one waits for that (delayed) acknowledgement before it is sent.
fn configure_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Retry-After for a shed query: one queue-timeout per queued submitter
/// ahead of the shed one (they drain roughly sequentially through the
/// gate), floored at half a timeout and capped at 10 s.
pub fn retry_after_ms(hint: &RetryHint, admission: Option<&AdmissionConfig>) -> u64 {
    let timeout_ms = admission
        .map(|a| a.queue_timeout.as_millis() as u64)
        .unwrap_or(100)
        .max(2);
    (timeout_ms / 2 + timeout_ms * hint.queue_depth as u64).min(10_000)
}

/// Render an [`EngineError`] as a protocol error frame (without the
/// trailing newline).
pub fn engine_error_frame(e: &EngineError, admission: Option<&AdmissionConfig>) -> String {
    let (kind, retry, msg) = match e {
        EngineError::Shed(hint) => (
            "SHED",
            Some(retry_after_ms(hint, admission)),
            format!(
                "overloaded: {} running, {} queued",
                hint.running, hint.queue_depth
            ),
        ),
        EngineError::DeadlineExceeded => ("DEADLINE", None, e.to_string()),
        EngineError::Cancelled => ("CANCELLED", None, e.to_string()),
        EngineError::Aborted(_) => ("ABORTED", None, e.to_string()),
        EngineError::Storage(_) => ("STORAGE", None, e.to_string()),
        EngineError::Plan(_) => ("PLAN", None, e.to_string()),
    };
    err_frame(kind, retry, &msg)
}

fn err_frame(kind: &str, retry_ms: Option<u64>, msg: &str) -> String {
    let retry = match retry_ms {
        Some(ms) => ms.to_string(),
        None => "-".to_string(),
    };
    // An error frame is one line; the message must not smuggle newlines.
    let msg: String = msg
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {kind} {retry} {msg}")
}

fn sql_error_frame(e: &SqlError) -> String {
    match e {
        SqlError::Lex { .. } | SqlError::Parse { .. } => err_frame("PARSE", None, &e.to_string()),
        SqlError::Bind(_) => err_frame("BIND", None, &e.to_string()),
    }
}

/// Read one `\n`-terminated line without letting a hostile client grow
/// the buffer past [`MAX_LINE_BYTES`]. `Ok(None)` = clean EOF;
/// `Err(line-too-long)` is surfaced as `ERR PROTO` by the caller.
fn read_line_capped(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> io::Result<Option<()>> {
    buf.clear();
    let n = reader
        .take((MAX_LINE_BYTES + 1) as u64)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.len() > MAX_LINE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request line exceeds MAX_LINE_BYTES",
        ));
    }
    Ok(Some(()))
}

fn connection_loop(db: Arc<SharingDb>, stats: Arc<ServerStats>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let admission = db.config().admission.clone();
    let mut deadline: Option<Duration> = None;
    let mut linebuf: Vec<u8> = Vec::new();

    loop {
        match read_line_capped(&mut reader, &mut linebuf) {
            Ok(Some(())) => {}
            Ok(None) => return, // clean EOF
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = writeln!(
                    writer,
                    "{}",
                    err_frame("PROTO", None, "request line too long")
                );
                let _ = writer.flush();
                return;
            }
            Err(_) => return,
        }
        let line = String::from_utf8_lossy(&linebuf).trim().to_string();
        if line.is_empty() {
            continue;
        }

        // Meta commands.
        if let Some(meta) = line.strip_prefix('.') {
            let reply = match meta.split_once(' ') {
                None if meta == "ping" => "PONG".to_string(),
                None if meta == "quit" => {
                    let _ = writeln!(writer, "BYE");
                    let _ = writer.flush();
                    return;
                }
                None if meta == "mode" => format!("OK mode {}", db.mode().label()),
                None if meta == "routes" => {
                    // Routing decision counters: all-zero unless the
                    // server runs in AUTO mode.
                    let r = db.router_stats();
                    format!(
                        "OK routes qc={} spl={} gqp={}",
                        r.query_centric, r.sp_pull, r.gqp_sp
                    )
                }
                Some(("deadline_ms", v)) => match v.trim().parse::<u64>() {
                    Ok(0) => {
                        deadline = None;
                        "OK deadline_ms 0".to_string()
                    }
                    Ok(ms) => {
                        deadline = Some(Duration::from_millis(ms));
                        format!("OK deadline_ms {ms}")
                    }
                    Err(_) => err_frame("PROTO", None, "usage: .deadline_ms <millis>"),
                },
                _ => err_frame("PROTO", None, &format!("unknown meta command .{meta}")),
            };
            if writeln!(writer, "{reply}").and_then(|_| writer.flush()).is_err() {
                return;
            }
            continue;
        }

        // SQL request, inside the per-request panic belt: a poisoned
        // statement gets an ERR frame, the connection (and listener)
        // live on.
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_sql(&db, &line, deadline, admission.as_ref(), &mut writer)
        }));
        let disposition = match outcome {
            Ok(d) => d,
            Err(_) => {
                stats.panics_contained.fetch_add(1, Ordering::Relaxed);
                let frame = err_frame("INTERNAL", None, "contained panic while serving request");
                match writeln!(writer, "{frame}").and_then(|_| writer.flush()) {
                    Ok(()) => Disposition::Error,
                    Err(_) => Disposition::Gone,
                }
            }
        };
        match disposition {
            Disposition::Completed => {
                stats.completed.fetch_add(1, Ordering::Relaxed);
            }
            Disposition::Error => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            Disposition::Shed => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                stats.sheds.fetch_add(1, Ordering::Relaxed);
            }
            Disposition::Gone => return, // client went away mid-stream
        }
    }
}

enum Disposition {
    Completed,
    Error,
    Shed,
    /// The client disconnected (write failed); the query was cancelled.
    Gone,
}

/// Execute one SQL statement and stream its frames. Never panics out
/// (the caller's belt is the last resort); IO failure means the client
/// left — cancel the running query and report [`Disposition::Gone`].
fn serve_sql(
    db: &SharingDb,
    sql: &str,
    deadline: Option<Duration>,
    admission: Option<&AdmissionConfig>,
    writer: &mut BufWriter<TcpStream>,
) -> Disposition {
    let started = Instant::now();

    // Front end split so the frame kind distinguishes parse/bind errors
    // (client bugs) from plan/engine errors.
    let plan = match qs_sql::plan_sql(sql, db.catalog()) {
        Ok(p) => p,
        Err(e) => return finish_err(writer, sql_error_frame(&e)),
    };
    let plan = match qs_plan::optimize(plan, db.catalog()) {
        Ok(p) => p,
        Err(e) => {
            return finish_err(writer, engine_error_frame(&EngineError::Plan(e), admission))
        }
    };

    let opts = match deadline {
        Some(d) => QueryOpts::with_deadline(d),
        None => QueryOpts::default(),
    };
    let mut ticket = match db.submit_with(&plan, &opts) {
        Ok(t) => t,
        Err(e) => {
            let shed = matches!(e, EngineError::Shed(_));
            let d = finish_err(writer, engine_error_frame(&e, admission));
            return match (shed, d) {
                (_, Disposition::Gone) => Disposition::Gone,
                (true, _) => Disposition::Shed,
                (false, d) => d,
            };
        }
    };

    // Schema frame.
    let header: Vec<&str> = ticket
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    if writeln!(writer, "SCHEMA {}", header.join("|")).is_err() {
        ticket.cancel();
        return Disposition::Gone;
    }

    // Stream result rows batch-at-a-time off the zero-copy currency: the
    // selection indexes the shared page directly, so sparse batches are
    // not re-materialized into fresh pages just to be printed.
    let mut rows = 0u64;
    let mut cell = String::new();
    loop {
        match ticket.next_batch() {
            Ok(Some(batch)) => {
                let page = batch.page();
                let ncols = page.schema().columns().len();
                for &t in batch.sel() {
                    cell.clear();
                    for c in 0..ncols {
                        if c > 0 {
                            cell.push('|');
                        }
                        use std::fmt::Write as _;
                        let _ = write!(cell, "{}", page.value(t as usize, c));
                    }
                    if writeln!(writer, "ROW {cell}").is_err() {
                        ticket.cancel();
                        return Disposition::Gone;
                    }
                    rows += 1;
                    if rows.is_multiple_of(FLUSH_EVERY_ROWS) && writer.flush().is_err() {
                        ticket.cancel();
                        return Disposition::Gone;
                    }
                }
            }
            Ok(None) => {
                let micros = started.elapsed().as_micros();
                return match writeln!(writer, "END {rows} {micros}")
                    .and_then(|_| writer.flush())
                {
                    Ok(()) => Disposition::Completed,
                    Err(_) => Disposition::Gone,
                };
            }
            Err(e) => {
                return finish_err(writer, engine_error_frame(&e, admission));
            }
        }
    }
}

fn finish_err(writer: &mut BufWriter<TcpStream>, frame: String) -> Disposition {
    match writeln!(writer, "{frame}").and_then(|_| writer.flush()) {
        Ok(()) => {
            if frame.starts_with("ERR SHED") {
                Disposition::Shed
            } else {
                Disposition::Error
            }
        }
        Err(_) => Disposition::Gone,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_scales_with_queue_depth() {
        let admission = AdmissionConfig {
            max_concurrent: 2,
            max_queued: 8,
            queue_timeout: Duration::from_millis(100),
        };
        let at = |queue_depth| {
            retry_after_ms(
                &RetryHint {
                    queue_depth,
                    running: 2,
                },
                Some(&admission),
            )
        };
        assert_eq!(at(0), 50);
        assert_eq!(at(3), 350);
        assert_eq!(at(1000), 10_000, "capped");
        // Without a configured gate the default base still yields a
        // finite, non-zero backoff.
        assert!(retry_after_ms(&RetryHint::default(), None) > 0);
    }

    #[test]
    fn accepted_streams_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        configure_stream(&stream).unwrap();
        assert!(stream.nodelay().unwrap());
    }

    #[test]
    fn error_frames_are_single_line_and_typed() {
        let f = engine_error_frame(
            &EngineError::Shed(RetryHint {
                queue_depth: 2,
                running: 4,
            }),
            None,
        );
        assert!(f.starts_with("ERR SHED "), "{f}");
        assert!(!f.contains('\n'));
        let f = engine_error_frame(&EngineError::Aborted("x\ny".into()), None);
        assert!(f.starts_with("ERR ABORTED -"), "{f}");
        assert!(!f.contains('\n'), "newlines must be stripped: {f}");
        assert!(engine_error_frame(&EngineError::DeadlineExceeded, None)
            .starts_with("ERR DEADLINE -"));
        assert!(engine_error_frame(&EngineError::Cancelled, None).starts_with("ERR CANCELLED -"));
    }
}
