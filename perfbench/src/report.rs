//! The metrics: their names and units, and how each is computed from
//! a window's records, spans and counter deltas.

use crate::driver::{Counters, Outcome, Record, Window};
use crate::stats::{median, ratio, tail};
use crate::trace::{self_times, Span};
use crate::workload::Spec;
use qs_engine::StageKind;

/// A metric's name, unit and the direction that is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Name in the result line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Def] = &[
    def("latency_p50_ms", "ms", "lower"),
    def("latency_p99_ms", "ms", "lower"),
    def("goodput_qps", "1/s", "higher"),
    def("cpu_ms_per_query", "ms", "lower"),
    def("ok_ratio", "ratio", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// One layer each, measured in the traced run. Per-layer times are self
/// times of the spans the benchmark records around each layer's call.
pub const PER_LAYER: &[Def] = &[
    def("bench.lag_p99_ms", "ms", "lower"),
    def("bench.in_flight_mean", "count", "lower"),
    def("bench.trace_overhead_p50_ms", "ms", "lower"),
    def("sql.plan_sql_us_p50", "us", "lower"),
    def("plan.optimize_us_p50", "us", "lower"),
    def("core.submit_us_p50", "us", "lower"),
    def("core.submit_us_p99", "us", "lower"),
    def("core.route.qc_share", "ratio", "lower"),
    def("core.route.sp_share", "ratio", "higher"),
    def("core.route.gqp_share", "ratio", "higher"),
    def("engine.first_batch_ms_p50", "ms", "lower"),
    def("engine.drain_ms_p50", "ms", "lower"),
    def("engine.sp_hit_ratio.scan", "ratio", "higher"),
    def("engine.sp_hit_ratio.join", "ratio", "higher"),
    def("engine.sp_hit_ratio.aggregate", "ratio", "higher"),
    def("engine.sp_hit_ratio.cjoin", "ratio", "higher"),
    def("engine.pages_shared_per_query", "pages/query", "higher"),
    def("engine.rows_scanned_per_query", "rows/query", "lower"),
    def("engine.packets_per_query", "packets/query", "lower"),
    def("engine.queries_shed", "count", "lower"),
    def("cjoin.admissions_per_gqp_query", "ratio", "lower"),
    def("cjoin.admission_evals_per_admission", "evals/adm", "lower"),
    def("cjoin.dedup_ratio", "ratio", "higher"),
    def("cjoin.fact_pages_per_admission", "pages/adm", "lower"),
    def("cjoin.tuple_drop_ratio", "ratio", "lower"),
    def("storage.pool_hit_ratio", "ratio", "higher"),
    def("storage.disk_reads_per_query", "reads/query", "lower"),
    def("storage.disk_wait_ms_per_query", "ms/query", "lower"),
    def("server.exec_us_p50", "us", "lower"),
    def("server.wire_us_p50", "us", "lower"),
    def("server.bytes_per_query", "bytes/query", "lower"),
];

/// Computed values, in the order of the definitions they belong to.
pub type Values = Vec<(Def, f64)>;

/// Measured records of the completed-and-correct queries.
fn completed(w: &Window) -> impl Iterator<Item = &Record> {
    w.records
        .iter()
        .filter(|r| r.measured && r.outcome == Outcome::Completed)
}

/// `(attempted, failed)` over the measured windows of all trials.
pub fn outcomes(trials: &[Window]) -> (usize, usize) {
    let attempted: usize = trials
        .iter()
        .map(|w| w.records.iter().filter(|r| r.measured).count())
        .sum();
    let done: usize = trials.iter().map(|w| completed(w).count()).sum();
    (attempted, attempted - done)
}

/// Any measured or warm-up answer that differed from the oracle.
pub fn wrong_answers(w: &Window) -> usize {
    w.records
        .iter()
        .filter(|r| r.outcome == Outcome::Wrong)
        .count()
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Latencies (scheduled arrival to last result) of completed queries, ms.
fn latencies_ms(w: &Window) -> Vec<f64> {
    sorted(
        completed(w)
            .map(|r| (r.end - r.scheduled) as f64 / 1e6)
            .collect(),
    )
}

fn p99(sorted: &[f64], what: &str) -> Result<f64, String> {
    tail(sorted, 0.99).ok_or_else(|| {
        format!(
            "{what}: p99 needs {} samples beyond it, {} samples give fewer",
            crate::stats::MIN_BEYOND,
            sorted.len()
        )
    })
}

/// Latencies a stretch of the run must hold: the p99 of 1600 has 16
/// samples beyond it.
pub const STRETCH_SAMPLES: usize = 1600;

/// The sorted latencies of the run's stretches: runs of consecutive
/// trials holding at least [`STRETCH_SAMPLES`] latencies each, a short
/// remainder joining the last stretch (a run too short for two is one
/// stretch).
fn stretches(trials: &[Window]) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    let mut open = Vec::new();
    for w in trials {
        open.extend(latencies_ms(w));
        if open.len() >= STRETCH_SAMPLES {
            out.push(std::mem::take(&mut open));
        }
    }
    match out.last_mut() {
        Some(last) => last.append(&mut open),
        None => out.push(open),
    }
    out.into_iter().map(sorted).collect()
}

/// `latency_p99_ms`: the p99 of each stretch, median over the stretches.
/// A few slow seconds of the host then move one stretch, not the run.
fn stretch_p99(trials: &[Window]) -> Result<f64, String> {
    let tails = stretches(trials)
        .iter()
        .map(|s| p99(s, "latency"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(median(&tails))
}

fn window_s(w: &Window) -> f64 {
    (w.end.saturating_sub(w.start)) as f64 / 1e9
}

/// End-to-end metrics of a run's untraced trials, over the pooled
/// measured windows, each scheduled to last `trial_s`.
pub fn end_to_end(
    spec: &Spec,
    trials: &[Window],
    trial_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Result<Values, String> {
    let lat = sorted(trials.iter().flat_map(latencies_ms).collect());
    let good = lat.iter().filter(|&&l| l <= spec.latency_limit_ms).count() as f64;
    // Goodput's window: from the scheduled opening of each measured window
    // to the later of its scheduled close and its last answer, so that
    // goodput cannot exceed the offered rate.
    let open = spec.warmup.as_secs_f64();
    let window: f64 = trials
        .iter()
        .map(|w| (w.end as f64 / 1e9).max(open + trial_s) - open)
        .sum();
    let cpu_ms: f64 = trials
        .iter()
        .map(|w| (w.process_cpu_s - w.driver_cpu_s) * 1e3)
        .sum();
    let (attempted, failed) = outcomes(trials);
    let values: [f64; END_TO_END.len()] = [
        median(&lat),
        stretch_p99(trials)?,
        ratio(good, window),
        ratio(cpu_ms, lat.len() as f64),
        ratio((attempted - failed) as f64, attempted as f64),
        setup_s,
        peak_rss_mb,
    ];
    Ok(END_TO_END.iter().copied().zip(values).collect())
}

/// `(samples, stretches, fewest samples beyond a stretch's p99)` of the
/// completed queries that `latency_p99_ms` was computed from.
pub fn latency_support(trials: &[Window]) -> (usize, usize, usize) {
    let parts = stretches(trials);
    let samples = parts.iter().map(Vec::len).sum();
    let beyond = parts
        .iter()
        .map(|s| tail(s, 0.99).map_or(0, |p| s.iter().filter(|&&l| l > p).count()))
        .min()
        .unwrap_or(0);
    (samples, parts.len(), beyond)
}

/// Each trial's latency p50 and p99 and its share of CJOIN routes, for
/// the human-readable table.
pub fn trial_latencies(trials: &[Window]) -> String {
    trials
        .iter()
        .map(|w| {
            let lat = latencies_ms(w);
            let p99 = tail(&lat, 0.99).map_or("-".to_string(), |v| format!("{v:.2}"));
            let r = &w.counters.routes;
            let gqp = ratio(r.gqp_sp as f64, r.total() as f64);
            format!("{:.2}/{p99} (gqp {gqp:.2})", median(&lat))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Self times in µs of the spans named `name` whose query passes `keep`.
fn self_us(spans: &[Span], keep: impl Fn(u64) -> bool, name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, (n, _))| *n == name && keep(s.query))
        .map(|(_, (_, t))| t as f64 / 1e3)
        .collect()
}

/// Per-layer metrics over the pooled traced trials. `untraced` are the
/// run's other trials, for the tracing overhead.
pub fn per_layer(untraced: &[Window], traced: &[Window]) -> Result<Values, String> {
    let measured = || {
        traced
            .iter()
            .flat_map(|t| t.records.iter().filter(|r| r.measured))
    };
    let done = traced.iter().map(|t| completed(t).count()).sum::<usize>() as f64;
    let lag = sorted(
        measured()
            .map(|r| (r.started.saturating_sub(r.scheduled)) as f64 / 1e6)
            .collect(),
    );
    let resident: f64 = measured().map(|r| (r.end - r.scheduled) as f64 / 1e9).sum();
    let window: f64 = traced.iter().map(window_s).sum();
    let pooled_p50 = |ws: &[Window]| median(&ws.iter().flat_map(latencies_ms).collect::<Vec<_>>());

    // Spans of measured arrivals, and of statements replayed off the
    // request path (query ids past the schedule).
    let layer = |name: &str| -> Vec<f64> {
        sorted(
            traced
                .iter()
                .flat_map(|t| {
                    let keep = |q: u64| t.records.get(q as usize).is_none_or(|r| r.measured);
                    self_us(&t.spans, keep, name)
                })
                .collect(),
        )
    };
    let submit = layer("core.submit");

    // A counter summed over the traced trials.
    let sum =
        |f: &dyn Fn(&Counters) -> u64| traced.iter().map(|t| f(&t.counters)).sum::<u64>() as f64;
    let hit = |s: StageKind| {
        let h = sum(&|c| c.engine.sp_hits[s as usize]);
        ratio(h, h + sum(&|c| c.engine.sp_misses[s as usize]))
    };
    let (qc, sp, gqp) = (
        sum(&|c| c.routes.query_centric),
        sum(&|c| c.routes.sp_pull),
        sum(&|c| c.routes.gqp_sp),
    );
    let routes = qc + sp + gqp;
    let adm = sum(&|c| c.cjoin.admissions);
    let evals = sum(&|c| c.cjoin.admission_evals);
    let dedup = sum(&|c| c.cjoin.admission_dedup_hits);
    let pool_hits = sum(&|c| c.pool.hits);

    let wire: Vec<&Record> = measured()
        .filter(|r| r.outcome == Outcome::Completed && r.bytes > 0)
        .collect();
    let exec: Vec<f64> = wire.iter().map(|r| r.exec_us as f64).collect();
    let on_wire: Vec<f64> = wire
        .iter()
        .map(|r| (r.end - r.started) as f64 / 1e3 - r.exec_us as f64)
        .collect();
    let bytes: f64 = wire.iter().map(|r| r.bytes as f64).sum();

    let values: [f64; PER_LAYER.len()] = [
        p99(&lag, "lag")?,
        ratio(resident, window),
        pooled_p50(traced) - pooled_p50(untraced),
        median(&layer("sql.plan_sql")),
        median(&layer("plan.optimize")),
        median(&submit),
        p99(&submit, "core.submit")?,
        ratio(qc, routes),
        ratio(sp, routes),
        ratio(gqp, routes),
        median(&layer("engine.first_batch")) / 1e3,
        median(&layer("engine.drain")) / 1e3,
        hit(StageKind::Scan),
        hit(StageKind::Join),
        hit(StageKind::Aggregate),
        hit(StageKind::Cjoin),
        ratio(sum(&|c| c.engine.pages_shared), done),
        ratio(sum(&|c| c.engine.rows_scanned), done),
        ratio(sum(&|c| c.engine.packets.iter().sum()), done),
        sum(&|c| c.engine.queries_shed),
        ratio(adm, gqp),
        ratio(evals, adm),
        ratio(dedup, dedup + evals),
        ratio(sum(&|c| c.cjoin.fact_pages), adm),
        ratio(
            sum(&|c| c.cjoin.tuples_dropped),
            sum(&|c| c.cjoin.tuples_in),
        ),
        ratio(pool_hits, pool_hits + sum(&|c| c.pool.misses)),
        ratio(sum(&|c| c.disk.reads), done),
        ratio(sum(&|c| c.disk.busy_nanos) / 1e6, done),
        median(&exec),
        median(&on_wire),
        ratio(bytes, wire.len() as f64),
    ];
    Ok(PER_LAYER.iter().copied().zip(values).collect())
}

/// The result line: one JSON object on one line.
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &[(String, Def, f64)],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, d, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and directions here and in `BENCHMARK.json`
    /// must agree, and so must the workload names and reasons.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let section = |key: &str| -> String {
            let from = text.find(&format!("\"{key}\"")).expect(key);
            let open = from + text[from..].find('[').unwrap();
            let close = open + text[open..].find(']').unwrap();
            text[open..close].to_string()
        };
        let field = |obj: &str, key: &str| -> String {
            let at = obj
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("{key} in {obj}"));
            let rest = &obj[at + key.len() + 2..];
            let start = rest.find('"').unwrap() + 1;
            let end = start + rest[start..].find('"').unwrap();
            rest[start..end].to_string()
        };
        let objects = |s: String| -> Vec<String> {
            s.split('{')
                .skip(1)
                .map(|o| o.split('}').next().unwrap().to_string())
                .collect()
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let objs = objects(section(key));
            assert_eq!(objs.len(), defs.len(), "{key} count");
            for (o, d) in objs.iter().zip(defs) {
                assert_eq!(field(o, "name"), d.name);
                assert_eq!(field(o, "unit"), d.unit, "{}", d.name);
                assert_eq!(field(o, "better"), d.better, "{}", d.name);
            }
        }
        let workloads = objects(section("workloads"));
        let specs = crate::workload::all();
        assert_eq!(workloads.len(), specs.len());
        for (o, s) in workloads.iter().zip(&specs) {
            assert_eq!(field(o, "name"), s.name);
            assert_eq!(field(o, "why"), s.why);
        }
    }

    /// A trial whose completed queries took `ms` each.
    fn trial(ms: &[f64]) -> Window {
        let records = ms
            .iter()
            .map(|&l| Record {
                measured: true,
                outcome: Outcome::Completed,
                scheduled: 0,
                started: 0,
                end: (l * 1e6) as u64,
                exec_us: 0,
                bytes: 0,
            })
            .collect();
        Window {
            records,
            spans: Vec::new(),
            start: 0,
            end: 0,
            process_cpu_s: 0.0,
            driver_cpu_s: 0.0,
            counters: Counters::default(),
        }
    }

    /// Stretches gather consecutive trials up to `STRETCH_SAMPLES`, and
    /// one slow stretch does not set the run's p99.
    #[test]
    fn p99_is_the_median_over_stretches() {
        let calm: Vec<f64> = (1..=400).map(|i| i as f64 / 10.0).collect();
        let slow: Vec<f64> = calm.iter().map(|l| l * 3.0).collect();
        let mut trials: Vec<Window> = (0..12).map(|_| trial(&calm)).collect();
        trials[1] = trial(&slow);
        assert_eq!(latency_support(&trials).1, 3);
        let p = stretch_p99(&trials).unwrap();
        assert_eq!(p, p99(&sorted(calm.repeat(4)), "calm").unwrap());
        // A remainder joins the last stretch; too few samples are one.
        assert_eq!(latency_support(&trials[..7]).1, 1);
        assert_eq!(latency_support(&trials[..9]).1, 2);
        assert!(stretch_p99(&trials[..2]).is_err());
    }

    #[test]
    fn json_line_is_one_line_with_units() {
        let d = END_TO_END[0];
        let line = json_line(true, 10, 1, &[(d.name.to_string(), d, 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \
             \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
