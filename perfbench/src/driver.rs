//! Building the system under test and driving one open-loop window.
//!
//! Two driver threads, whatever the offered load: one plans and submits
//! on schedule, one drains tickets (or reads responses) in submission
//! order. Concurrency comes from outstanding tickets. Every arrival ends
//! in exactly one [`Outcome`]; nothing is retried.

use crate::oracle::{row_text, Checksum};
use crate::sys;
use crate::trace::{QuerySpans, Span};
use crate::workload::{Arrival, Instance, Spec, DATA_SEED};
use qs_cjoin::CjoinStats;
use qs_core::{DbConfig, ExecutionMode, RouterSnapshot, SharingDb};
use qs_engine::{AdmissionConfig, EngineError, MetricsSnapshot, QueryTicket};
use qs_server::ServerHandle;
use qs_storage::{BufferPoolStats, Catalog, DiskConfig, DiskStats};
use qs_workload::ssb::data::{generate_ssb, SsbConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections of the wire workload (at most `nproc` = 2 driver
/// threads and connections on the reference machine).
pub const CONNECTIONS: usize = 2;

/// The serving front door's admission defaults (`qs_server` binary):
/// they make the router's gate-load signal live and let shedding happen.
pub fn admission() -> AdmissionConfig {
    AdmissionConfig {
        max_concurrent: 64,
        max_queued: 128,
        queue_timeout: Duration::from_millis(500),
    }
}

/// Generate the workload's SSB data.
pub fn generate(spec: &Spec) -> Arc<Catalog> {
    let catalog = Catalog::new();
    generate_ssb(
        &catalog,
        &SsbConfig {
            scale: spec.scale,
            seed: DATA_SEED,
            ..SsbConfig::default()
        },
    );
    catalog
}

/// The system under test, ready for its first submit.
pub struct System {
    /// The database every query runs in.
    pub db: Arc<SharingDb>,
    /// The listener of the wire workload.
    pub server: Option<ServerHandle>,
}

impl System {
    /// Build it: data generation, `SharingDb::new` in `Auto` mode with
    /// otherwise default settings, and the listener bind if the workload
    /// goes over the wire. This is what `setup_s` times.
    pub fn build(spec: &Spec) -> Result<System, String> {
        let catalog = generate(spec);
        let mut config = DbConfig::new(ExecutionMode::Auto);
        config.admission = Some(admission());
        if spec.disk_resident {
            // As `scenarios::ssb_db`: a pool of a quarter of the data, so
            // scans keep reaching the simulated disk.
            config.disk = DiskConfig::disk_resident();
            config.buffer_pool_pages = Some((catalog.total_pages() / 4).max(8));
        }
        let db = Arc::new(SharingDb::new(catalog, config).map_err(|e| format!("db: {e}"))?);
        let server = if spec.wire {
            Some(qs_server::serve(db.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?)
        } else {
            None
        };
        Ok(System { db, server })
    }

    /// Stop the listener, if any.
    pub fn shutdown(self) {
        if let Some(s) = self.server {
            s.shutdown();
        }
    }
}

/// How one arrival ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Complete and equal to the reference answer.
    Completed,
    /// Complete but different from the reference answer.
    Wrong,
    /// Refused by admission control.
    Shed,
    /// Any other error.
    Errored,
}

/// One arrival's result. Times are nanoseconds from the run origin.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Inside the measured window.
    pub measured: bool,
    /// How it ended.
    pub outcome: Outcome,
    /// When it was due.
    pub scheduled: u64,
    /// When the submitter got to it.
    pub started: u64,
    /// When its last result (or error) arrived.
    pub end: u64,
    /// Server-reported execution time (`END` micros; wire only).
    pub exec_us: u64,
    /// Response bytes read (wire only).
    pub bytes: u64,
}

/// Engine counters, read through the public API.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// QPipe engine metrics.
    pub engine: MetricsSnapshot,
    /// CJOIN pipeline statistics (zero until its lazy start).
    pub cjoin: CjoinStats,
    /// Router decisions.
    pub routes: RouterSnapshot,
    /// Buffer pool.
    pub pool: BufferPoolStats,
    /// Simulated disk.
    pub disk: DiskStats,
}

impl Counters {
    fn read(db: &SharingDb) -> Counters {
        Counters {
            engine: db.metrics(),
            cjoin: db.cjoin_stats().unwrap_or_default(),
            routes: db.router_stats(),
            pool: db.pool().stats(),
            disk: db.pool().disk().stats(),
        }
    }
}

/// Everything one window produced.
pub struct Window {
    /// One record per arrival, in submission order.
    pub records: Vec<Record>,
    /// Spans (traced windows only).
    pub spans: Vec<Span>,
    /// Window start: the first measured submit (counters reset here).
    pub start: u64,
    /// Window end: the last result.
    pub end: u64,
    /// Process CPU seconds over the window.
    pub process_cpu_s: f64,
    /// CPU seconds over the window of the driver threads that run no
    /// code of the system under test: both on the wire, where they only
    /// do socket I/O and checksums; in process only the drainer, since
    /// the submitter's time is `plan_sql`, `optimize` and `submit`.
    pub driver_cpu_s: f64,
    /// Counter deltas over the window.
    pub counters: Counters,
}

fn ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Sleep until `at` after `origin`; the time the caller got there.
fn pace(origin: Instant, at: Duration) -> u64 {
    let now = origin.elapsed();
    if at > now {
        std::thread::sleep(at - now);
    }
    ns(origin)
}

/// What the submitter hands the drainer for one arrival.
struct Submitted<T> {
    /// Position in the schedule (the query id of its spans).
    seq: u64,
    arrival: Arrival,
    started: u64,
    /// `[plan_sql done, optimize done, submit done]` (traced only).
    marks: [u64; 3],
    sent: T,
}

/// Readings the submitter takes when the measured window opens.
struct Opened {
    start: u64,
    process_cpu_s: f64,
    thread_cpu_s: f64,
}

fn open_window(db: &SharingDb, origin: Instant) -> Result<Opened, String> {
    db.reset_metrics();
    Ok(Opened {
        start: ns(origin),
        process_cpu_s: sys::process_cpu_s()?,
        thread_cpu_s: sys::thread_cpu_s()?,
    })
}

/// The submit side shared by both transports: pace each arrival, open
/// the window at the first measured one, and hand `submit`'s result to
/// the drainer. Returns the window-open readings and the thread's CPU
/// seconds spent inside the window.
fn submit_loop<T>(
    db: &SharingDb,
    origin: Instant,
    arrivals: &[Arrival],
    tx: mpsc::Sender<Submitted<T>>,
    mut submit: impl FnMut(&Arrival, &mut [u64; 3]) -> T,
) -> Result<(Opened, f64), String> {
    let mut opened = None;
    for (seq, a) in arrivals.iter().enumerate() {
        let mut started = pace(origin, a.at);
        if a.measured && opened.is_none() {
            opened = Some(open_window(db, origin)?);
            started = ns(origin);
        }
        let mut marks = [0u64; 3];
        let sent = submit(a, &mut marks);
        if tx
            .send(Submitted {
                seq: seq as u64,
                arrival: *a,
                started,
                marks,
                sent,
            })
            .is_err()
        {
            return Err("drainer stopped early".into());
        }
    }
    let opened = opened.ok_or("schedule has no measured arrival")?;
    let cpu = sys::thread_cpu_s()? - opened.thread_cpu_s;
    Ok((opened, cpu))
}

/// What the drainer hands back when the window closes.
struct Drained {
    records: Vec<Record>,
    spans: Vec<Span>,
    /// The drain thread's CPU seconds inside the window.
    thread_cpu_s: f64,
    counters: Counters,
    /// Process CPU seconds at the window's end.
    process_cpu_s: f64,
}

/// The drain side shared by both transports: consume in submission
/// order, reading the thread's CPU from the first measured arrival on,
/// and close the window after the last one.
fn drain_loop<T>(
    db: &SharingDb,
    rx: mpsc::Receiver<Submitted<T>>,
    mut drain: impl FnMut(Submitted<T>, &mut Vec<Span>) -> Result<Record, String>,
) -> Result<Drained, String> {
    let mut records = Vec::new();
    let mut spans = Vec::new();
    let mut cpu_start = None;
    for sub in rx {
        if sub.arrival.measured && cpu_start.is_none() {
            cpu_start = Some(sys::thread_cpu_s()?);
        }
        records.push(drain(sub, &mut spans)?);
    }
    let counters = Counters::read(db);
    let process_cpu_s = sys::process_cpu_s()?;
    let thread_cpu_s = sys::thread_cpu_s()? - cpu_start.ok_or("no measured arrival drained")?;
    Ok(Drained {
        records,
        spans,
        thread_cpu_s,
        counters,
        process_cpu_s,
    })
}

/// Run both loops on their own threads and assemble the window.
/// `submitter_is_driver`: the submit thread runs no code of the system
/// under test, so its CPU is left out of the process CPU.
fn run_window<T: Send>(
    db: &SharingDb,
    origin: Instant,
    arrivals: &[Arrival],
    submitter_is_driver: bool,
    submit: impl FnMut(&Arrival, &mut [u64; 3]) -> T + Send,
    drain: impl FnMut(Submitted<T>, &mut Vec<Span>) -> Result<Record, String> + Send,
) -> Result<Window, String> {
    let (tx, rx) = mpsc::channel();
    let (sub, drained) = std::thread::scope(|s| {
        let sub = s.spawn(|| submit_loop(db, origin, arrivals, tx, submit));
        let drained = s.spawn(|| drain_loop(db, rx, drain));
        (
            sub.join().map_err(|_| "submitter panicked".to_string()),
            drained.join().map_err(|_| "drainer panicked".to_string()),
        )
    });
    // The drainer's error is the cause when both failed: the submitter
    // only sees that its channel closed.
    let d = drained??;
    let (opened, submit_cpu) = sub??;
    let end = d
        .records
        .iter()
        .map(|r| r.end)
        .max()
        .unwrap_or(opened.start);
    Ok(Window {
        records: d.records,
        spans: d.spans,
        start: opened.start,
        end,
        process_cpu_s: d.process_cpu_s - opened.process_cpu_s,
        driver_cpu_s: d.thread_cpu_s + if submitter_is_driver { submit_cpu } else { 0.0 },
        counters: d.counters,
    })
}

/// SQL text to a ticket through the public front end, one layer per
/// call so each can be timed: `qs_sql::plan_sql`, `qs_plan::optimize`,
/// `SharingDb::submit`.
fn plan_and_submit(
    db: &SharingDb,
    sql: &str,
    origin: Instant,
    marks: Option<&mut [u64; 3]>,
) -> Result<QueryTicket, EngineError> {
    let catalog = db.catalog();
    let naive = qs_sql::plan_sql(sql, catalog).map_err(|e| EngineError::Aborted(e.to_string()));
    let t1 = marks.is_some().then(|| ns(origin));
    let plan = naive.and_then(|p| qs_plan::optimize(p, catalog).map_err(EngineError::Plan));
    let t2 = marks.is_some().then(|| ns(origin));
    let ticket = plan.and_then(|p| db.submit(&p));
    if let Some(m) = marks {
        *m = [t1.unwrap_or(0), t2.unwrap_or(0), ns(origin)];
    }
    ticket
}

/// Drain a ticket, checksumming its rows. Returns the checksum (or the
/// error that ended the stream) and when the first batch arrived.
fn drain_ticket(
    mut ticket: QueryTicket,
    origin: Instant,
) -> (Result<Checksum, EngineError>, Option<u64>) {
    let mut sum = Checksum::default();
    let mut first = None;
    let mut text = String::new();
    loop {
        match ticket.next_batch() {
            Ok(Some(batch)) => {
                first.get_or_insert_with(|| ns(origin));
                let page = batch.page();
                let ncols = page.schema().columns().len();
                for &t in batch.sel() {
                    row_text((0..ncols).map(|c| page.value(t as usize, c)), &mut text);
                    sum.add_row(&text);
                }
            }
            Ok(None) => return (Ok(sum), first),
            Err(e) => return (Err(e), first),
        }
    }
}

fn outcome(result: &Result<Checksum, EngineError>, expected: Checksum) -> Outcome {
    match result {
        Ok(sum) if *sum == expected => Outcome::Completed,
        Ok(_) => Outcome::Wrong,
        Err(EngineError::Shed(_)) => Outcome::Shed,
        Err(_) => Outcome::Errored,
    }
}

/// One in-process window: `plan_sql` → `optimize` → `submit` on the
/// submitter, `next_batch` to the end on the drainer.
pub fn in_process(
    db: &SharingDb,
    pool: &[Instance],
    answers: &[Checksum],
    arrivals: &[Arrival],
    traced: bool,
) -> Result<Window, String> {
    let origin = Instant::now();
    run_window(
        db,
        origin,
        arrivals,
        false,
        |a, marks| plan_and_submit(db, &pool[a.instance].sql, origin, traced.then_some(marks)),
        |sub, spans| {
            let (result, first) = match sub.sent {
                Ok(ticket) => drain_ticket(ticket, origin),
                Err(e) => (Err(e), None),
            };
            let end = ns(origin);
            let scheduled = sub.arrival.at.as_nanos() as u64;
            if traced {
                let [planned, optimized, submit_done] = sub.marks;
                let first = first.unwrap_or(end);
                let mut q = QuerySpans::new(spans, sub.seq, scheduled, end);
                q.child("sql.plan_sql", sub.started, planned);
                q.child("plan.optimize", planned, optimized);
                q.child("core.submit", optimized, submit_done);
                q.child("engine.first_batch", submit_done, first);
                q.child("engine.drain", first, end);
            }
            Ok(Record {
                measured: sub.arrival.measured,
                outcome: outcome(&result, answers[sub.arrival.instance]),
                scheduled,
                started: sub.started,
                end,
                exec_us: 0,
                bytes: 0,
            })
        },
    )
}

/// A line-protocol client connection: the submitter writes, the drainer
/// reads.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Longest a response may take before the run is declared stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

fn connect(server: &ServerHandle) -> Result<Conn, String> {
    let s = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    s.set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    let writer = s.try_clone().map_err(|e| format!("clone: {e}"))?;
    Ok(Conn {
        writer,
        reader: BufReader::new(s),
    })
}

/// Read one response: `(outcome, END micros, bytes read)`.
fn read_response(
    reader: &mut BufReader<TcpStream>,
    expected: Checksum,
) -> Result<(Outcome, u64, u64), String> {
    let mut sum = Checksum::default();
    let mut bytes = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        bytes += n as u64;
        let l = line.trim_end_matches(['\r', '\n']);
        if let Some(row) = l.strip_prefix("ROW ") {
            sum.add_row(row);
        } else if let Some(end) = l.strip_prefix("END ") {
            let micros = end
                .split_whitespace()
                .nth(1)
                .and_then(|m| m.parse().ok())
                .ok_or_else(|| format!("bad END frame: {l}"))?;
            let o = if sum == expected {
                Outcome::Completed
            } else {
                Outcome::Wrong
            };
            return Ok((o, micros, bytes));
        } else if let Some(err) = l.strip_prefix("ERR ") {
            let o = if err.starts_with("SHED ") {
                Outcome::Shed
            } else {
                Outcome::Errored
            };
            return Ok((o, 0, bytes));
        } else if !l.starts_with("SCHEMA ") {
            return Err(format!("unexpected frame: {l}"));
        }
    }
}

/// One wire window: SQL lines written on schedule, round-robin over
/// [`CONNECTIONS`] connections, responses read in submission order.
pub fn wire(
    db: &SharingDb,
    server: &ServerHandle,
    pool: &[Instance],
    answers: &[Checksum],
    arrivals: &[Arrival],
    traced: bool,
) -> Result<Window, String> {
    let mut conns = (0..CONNECTIONS)
        .map(|_| connect(server))
        .collect::<Result<Vec<_>, _>>()?;
    let mut writers = conns
        .iter()
        .map(|c| c.writer.try_clone().map_err(|e| format!("clone: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let origin = Instant::now();
    let mut next_write = 0usize;
    let mut next_read = 0usize;
    let window = run_window(
        db,
        origin,
        arrivals,
        true,
        |a, _| {
            let w = &mut writers[next_write % CONNECTIONS];
            next_write += 1;
            let line = format!("{}\n", pool[a.instance].sql);
            w.write_all(line.as_bytes())
                .map_err(|e| format!("write: {e}"))
        },
        |sub, spans| {
            sub.sent.clone()?;
            let conn = &mut conns[next_read % CONNECTIONS];
            next_read += 1;
            let (outcome, exec_us, bytes) =
                read_response(&mut conn.reader, answers[sub.arrival.instance])?;
            let end = ns(origin);
            let scheduled = sub.arrival.at.as_nanos() as u64;
            if traced {
                let mut q = QuerySpans::new(spans, sub.seq, scheduled, end);
                q.child("server.roundtrip", sub.started, end);
            }
            Ok(Record {
                measured: sub.arrival.measured,
                outcome,
                scheduled,
                started: sub.started,
                end,
                exec_us,
                bytes,
            })
        },
    )?;
    for c in &mut conns {
        let mut bye = String::new();
        c.writer
            .write_all(b".quit\n")
            .and_then(|_| c.reader.read_line(&mut bye))
            .map_err(|e| format!("quit: {e}"))?;
    }
    Ok(window)
}

/// Off the request path: run `statements` one at a time in process,
/// timing each front-end and engine layer as the in-process workloads
/// do. The wire workload's front end runs inside the server, where the
/// benchmark cannot time it; this gives its per-layer numbers on the
/// same statements. Spans go to `spans` under query ids from
/// `first_query` on. Returns the number of wrong answers.
pub fn replay(
    db: &SharingDb,
    pool: &[Instance],
    answers: &[Checksum],
    statements: &[Arrival],
    spans: &mut Vec<Span>,
    first_query: u64,
) -> usize {
    let origin = Instant::now();
    let mut wrong = 0;
    for (seq, a) in statements.iter().enumerate() {
        let start = ns(origin);
        let mut marks = [0u64; 3];
        let sql = &pool[a.instance].sql;
        let (result, first) = match plan_and_submit(db, sql, origin, Some(&mut marks)) {
            Ok(t) => drain_ticket(t, origin),
            Err(e) => (Err(e), None),
        };
        let end = ns(origin);
        if outcome(&result, answers[a.instance]) != Outcome::Completed {
            wrong += 1;
        }
        let [planned, optimized, submitted] = marks;
        let first = first.unwrap_or(end);
        let mut q = QuerySpans::new(spans, first_query + seq as u64, start, end);
        q.child("sql.plan_sql", start, planned);
        q.child("plan.optimize", planned, optimized);
        q.child("core.submit", optimized, submitted);
        q.child("engine.first_batch", submitted, first);
        q.child("engine.drain", first, end);
    }
    wrong
}
