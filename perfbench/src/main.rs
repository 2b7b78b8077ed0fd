//! The repository benchmark: open-loop workloads against the public API
//! of the sharing engine, every answer checked against the reference
//! evaluator. See `README.md` in this directory.

mod cli;
mod driver;
mod oracle;
mod report;
mod stats;
mod sys;
mod trace;
mod workload;

use driver::{System, Window};
use report::{Def, Values};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::Spec;

/// Longest wait for a retired system's threads to exit.
const RETIRE_WAIT: Duration = Duration::from_secs(5);

/// Statements of the wire workload replayed off the request path to
/// time its front end, shared out over a run's traced trials (enough
/// for a p99 with ten samples beyond it).
const REPLAYED: usize = 1000;

/// Time a trial may take beyond its warm-up and measured window: set-up,
/// the backlog's drain, replays and retiring the system.
const TRIAL_SLACK: Duration = Duration::from_secs(2);

/// Time a workload may take beyond its trials: data generation and the
/// reference answers.
const WORKLOAD_SLACK: Duration = Duration::from_secs(30);

/// How long a run may take before it counts as stuck and fails instead
/// of hanging: 130 s for one workload of 50 s.
fn watchdog(args: &cli::Args) -> Duration {
    let trials = workload::trials(args.seconds as f64, args.trace) as u32;
    args.workloads
        .iter()
        .map(|name| {
            let spec = workload::by_name(name).expect("parser checked the name");
            Duration::from_secs(args.seconds)
                + (spec.warmup + TRIAL_SLACK) * trials
                + WORKLOAD_SLACK
        })
        .sum()
}

/// What one workload run reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    end_to_end: Values,
    per_layer: Option<Values>,
}

/// Everything fixed before the clock starts.
struct Inputs {
    pool: Vec<workload::Instance>,
    answers: Vec<oracle::Checksum>,
    schedules: Vec<Vec<workload::Arrival>>,
}

fn inputs(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<Inputs, String> {
    let catalog = driver::generate(spec);
    let pool = workload::pool(spec, &catalog)?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let answers = oracle::answers(&catalog, &pool, threads)?;
    let schedules = workload::schedules(spec, seed, pool.len(), seconds, traced);
    Ok(Inputs {
        pool,
        answers,
        schedules,
    })
}

fn window(
    sys: &System,
    inputs: &Inputs,
    schedule: &[workload::Arrival],
    traced: bool,
) -> Result<Window, String> {
    let (pool, answers) = (&inputs.pool, &inputs.answers);
    match &sys.server {
        Some(server) => driver::wire(&sys.db, server, pool, answers, schedule, traced),
        None => driver::in_process(&sys.db, pool, answers, schedule, traced),
    }
}

/// Stop a system and wait (up to [`RETIRE_WAIT`]) until the process is
/// back to `base_threads`, so that its exiting threads do not run into
/// the next trial.
fn retire(sys: System, base_threads: usize) -> Result<(), String> {
    sys.shutdown();
    let t = Instant::now();
    while sys::threads()? > base_threads && t.elapsed() < RETIRE_WAIT {
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// Run a workload. A traced run alternates untraced and traced trials:
/// end-to-end metrics come from the untraced ones, per-layer metrics
/// from the traced ones, and the tracing overhead from the difference.
fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let inputs = inputs(spec, seed, seconds, traced)?;
    let base_threads = sys::threads()?;
    let mut setups = Vec::new();
    let mut untraced = Vec::new();
    let mut traced_trials = Vec::new();
    let mut wrong = 0;
    let replayed = REPLAYED.div_ceil((inputs.schedules.len() / 2).max(1));
    for (i, schedule) in inputs.schedules.iter().enumerate() {
        let t = Instant::now();
        let sys = System::build(spec)?;
        setups.push(t.elapsed().as_secs_f64());
        let tracing = traced && i % 2 == 1;
        let mut w = window(&sys, &inputs, schedule, tracing)?;
        wrong += report::wrong_answers(&w);
        if tracing && spec.wire {
            let statements: Vec<_> = schedule
                .iter()
                .filter(|a| a.measured)
                .take(replayed)
                .copied()
                .collect();
            let (pool, answers) = (&inputs.pool, &inputs.answers);
            let first_query = schedule.len() as u64;
            wrong += driver::replay(
                &sys.db,
                pool,
                answers,
                &statements,
                &mut w.spans,
                first_query,
            );
        }
        retire(sys, base_threads)?;
        if tracing {
            traced_trials.push(w);
        } else {
            untraced.push(w);
        }
    }
    println!(
        "trials: latency p50/p99 ms {}",
        report::trial_latencies(&untraced)
    );
    let rss = sys::peak_rss_mb()?;
    let trial_s = seconds / inputs.schedules.len() as f64;
    let end_to_end = report::end_to_end(spec, &untraced, trial_s, stats::median(&setups), rss)?;
    let (samples, stretches, beyond) = report::latency_support(&untraced);
    println!(
        "latency: {samples} samples in {stretches} stretches, each with at least {beyond} \
         beyond its p99"
    );
    let (mut attempted, mut failed) = report::outcomes(&untraced);
    let mut per_layer = None;
    if traced {
        per_layer = Some(report::per_layer(&untraced, &traced_trials)?);
        let spans: Vec<&[trace::Span]> = traced_trials.iter().map(|w| &w.spans[..]).collect();
        let path = PathBuf::from(format!(".bench_out/trace-{}-seed{seed}.jsonl", spec.name));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        (attempted, failed) = report::outcomes(&traced_trials);
    }
    Ok(Outcome {
        correct: wrong == 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
    })
}

fn print_table(title: &str, values: &Values) {
    println!("{title}");
    for (d, v) in values {
        println!("  {:<38} {:>14.4} {}", d.name, v, d.unit);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let limit = watchdog(&args);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: still running after {limit:?}; giving up");
        std::process::exit(3);
    });

    let prefix = args.workloads.len() > 1;
    let mut all: Vec<(String, Def, f64)> = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for name in &args.workloads {
        let spec = workload::by_name(name).expect("parser checked the name");
        let trials = workload::trials(args.seconds as f64, args.trace);
        println!(
            "config: workload={} seed={} seconds={} trace={} transport={} mode=AUTO scale={} \
             data={} rate={}/s burst={} pool={}x{} selectivity={:?} limit_ms={} \
             trials={}x(warmup {}s + {}s) admission=64/128/500ms",
            spec.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            if spec.wire { "tcp x2" } else { "in-process" },
            spec.scale,
            if spec.disk_resident {
                "disk-resident"
            } else {
                "memory-resident"
            },
            spec.rate,
            spec.burst,
            spec.templates.len(),
            spec.variants,
            spec.selectivity,
            spec.latency_limit_ms,
            trials,
            spec.warmup.as_secs_f64(),
            args.seconds as f64 / trials as f64,
        );
        println!("why: {}", spec.why);
        let out = match run(&spec, args.seed, args.seconds as f64, args.trace) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", spec.name);
                std::process::exit(1);
            }
        };
        print_table(
            &format!("end-to-end ({}, untraced)", spec.name),
            &out.end_to_end,
        );
        println!(
            "  failed_ratio {:.6} ({} of {} attempted: shed, errored or wrong)",
            stats::ratio(out.failed as f64, out.attempted as f64),
            out.failed,
            out.attempted
        );
        if let Some(layers) = &out.per_layer {
            print_table(
                &format!("per-layer ({}, traced; times are self times)", spec.name),
                layers,
            );
        }
        let reported = out.per_layer.as_ref().unwrap_or(&out.end_to_end);
        for (d, v) in reported {
            if !v.is_finite() {
                eprintln!("perfbench: {} is not finite", d.name);
                std::process::exit(1);
            }
            let key = if prefix {
                format!("{}.{}", spec.name, d.name)
            } else {
                d.name.to_string()
            };
            all.push((key, *d, *v));
        }
        correct &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
    }
    println!("{}", report::json_line(correct, attempted, failed, &all));
    if !correct {
        eprintln!("perfbench: answers differed from the reference evaluator");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One workload of 50 s, as `BENCHMARK.json` runs it, gets under
    /// three minutes; longer runs and `--workload all` get time in
    /// proportion.
    #[test]
    fn watchdog_scales_with_the_run() {
        let args = |w: &str| cli::parse(&["--workload".into(), w.into()]).unwrap();
        let one = |w: &str| {
            let mut a = args(w);
            a.seconds = 50;
            watchdog(&a)
        };
        for spec in workload::all() {
            assert!(one(spec.name) <= Duration::from_secs(175), "{}", spec.name);
        }
        let mut all = args("all");
        all.seconds = 600;
        assert!(watchdog(&all) > Duration::from_secs(600 * all.workloads.len() as u64));
    }

    /// A tiny run of every workload emits every metric, finite and with
    /// a unit, and checks out against the reference evaluator.
    #[test]
    fn smoke_every_metric_is_emitted() {
        for mut spec in workload::all() {
            // Four trials, two untraced and two traced, offering ~1250
            // queries each way: enough for a p99.
            spec.rate = 250.0 / spec.burst as f64;
            spec.scale = 0.001;
            spec.warmup = Duration::from_millis(200);
            let out = run(&spec, 3, 10.0, true).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(out.correct, "{}", spec.name);
            let (goodput, qps) = out.end_to_end[2];
            assert_eq!(goodput.name, "goodput_qps");
            // Each trial offers round(rate × trial length) events.
            let t = workload::TRIAL_SECONDS;
            let offered = (spec.rate * t).round() * spec.burst as f64 / t;
            assert!(qps <= offered, "{}: {qps} > {offered}", spec.name);
            let layers = out.per_layer.expect("traced run");
            for (defs, values) in [
                (report::END_TO_END, &out.end_to_end),
                (report::PER_LAYER, &layers),
            ] {
                let names: Vec<&str> = values.iter().map(|(d, _)| d.name).collect();
                let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
                assert_eq!(names, want, "{}", spec.name);
                for (d, v) in values {
                    assert!(v.is_finite(), "{} {}", spec.name, d.name);
                    assert!(!d.unit.is_empty(), "{}", d.name);
                }
            }
        }
    }
}
