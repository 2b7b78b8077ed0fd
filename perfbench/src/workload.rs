//! The workloads, their query pools and their arrival schedules.
//!
//! Everything a run submits is fixed here before the measurement clock
//! starts: which template instantiations exist (the pool, part of the
//! workload's definition, whose answers the oracle precomputes) and,
//! from the seed, when each arrival is due and which pool entry it asks.

use qs_storage::Catalog;
use qs_workload::ssb::queries::TemplateParams;
use qs_workload::SsbTemplate;
use std::time::Duration;

/// SSB scale factor of every workload (60 k `lineorder` rows).
pub const SCALE: f64 = 0.01;

/// Seed of the generated SSB data. The workload seed varies what is
/// asked and when; the data stays the same so runs compare.
pub const DATA_SEED: u64 = 42;

/// Arrivals run before the measured window opens, so stage threads,
/// the lazily started CJOIN pipeline and the buffer pool settle first.
const WARMUP: Duration = Duration::from_millis(500);

/// One workload: what is asked, how often, and through which door.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// SQL text over the TCP line protocol (`true`) or in-process calls.
    pub wire: bool,
    /// Simulated disk with the buffer pool at a quarter of the data.
    pub disk_resident: bool,
    /// Templates the pool instantiates.
    pub templates: &'static [SsbTemplate],
    /// Instantiations per template in the pool.
    pub variants: usize,
    /// Fact-selectivity override applied to every instantiation.
    pub selectivity: Option<f64>,
    /// Arrival events (single queries or bursts) per second.
    pub rate: f64,
    /// Queries per arrival event: `1` is a plain Poisson stream, more a
    /// compound Poisson stream whose bursts repeat one instantiation.
    pub burst: usize,
    /// A completed query counts toward goodput only within this latency.
    pub latency_limit_ms: f64,
    /// SSB scale factor.
    pub scale: f64,
    /// Unmeasured arrivals ahead of the window, at the same rate.
    pub warmup: Duration,
}

const Q1: &[SsbTemplate] = &[SsbTemplate::Q1_1, SsbTemplate::Q1_2, SsbTemplate::Q1_3];
const Q2_1: &[SsbTemplate] = &[SsbTemplate::Q2_1];

/// The benchmark's workloads, in the order `--workload all` runs them.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "selective-wire",
            why:
                "SQL over TCP at 1% selectivity and light load, disk-resident: the router avoids \
                  CJOIN, so parse, optimize, submit, scan, the buffer pool and the wire do the work",
            wire: true,
            disk_resident: true,
            templates: Q1,
            variants: 64,
            selectivity: Some(0.01),
            // The server answers each connection's requests one at a time
            // and a query takes about 14 ms there, mostly disk waits: at
            // 60 /s the two connections are under half busy, queries rarely
            // queue, and the per-query path is what latency measures.
            rate: 60.0,
            burst: 1,
            // About twice the p99.
            latency_limit_ms: 100.0,
            scale: SCALE,
            warmup: WARMUP,
        },
        Spec {
            name: "star-similar",
            why: "bursts of 20 identical Q2.1 queries from a 4-variant pool: CJOIN admission and \
                  attach, SP and SPL replay do the work",
            wire: false,
            disk_resident: false,
            templates: Q2_1,
            variants: 4,
            selectivity: None,
            // Large bursts, mostly apart: the first members of a burst
            // take SP routes until six are in flight and the rest attach
            // to one CJOIN admission. The bursts that arrive within a few
            // milliseconds of the one before queue behind its submits and
            // set the latency tail.
            rate: 8.0,
            burst: 20,
            latency_limit_ms: 250.0,
            scale: SCALE,
            warmup: WARMUP,
        },
    ]
}

/// Look up a workload by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// SplitMix64: a small seeded generator whose stream is fixed by this
/// file alone, so a seed means the same inputs on every commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One template instantiation of a workload's pool.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Template.
    pub template: SsbTemplate,
    /// Literal parameters.
    pub params: TemplateParams,
    /// The SQL text submitted for it.
    pub sql: String,
}

/// Seed of the pools. A workload's pool is part of its definition, like
/// its templates: the run seed draws the schedule from it, so runs with
/// different seeds ask the same kinds of queries in a different order.
const POOL_SEED: u64 = 0x706f_6f6c;

/// The pool: `variants` fixed random instantiations of each template.
pub fn pool(spec: &Spec, catalog: &Catalog) -> Result<Vec<Instance>, String> {
    let mut rng = Rng::new(POOL_SEED);
    let mut out = Vec::new();
    for &template in spec.templates {
        for _ in 0..spec.variants {
            let params = TemplateParams {
                variant: rng.next_u64() >> 1,
                selectivity: spec.selectivity,
            };
            let sql = template
                .sql(catalog, &params)
                .map_err(|e| format!("{}: {e}", template.name()))?;
            out.push(Instance {
                template,
                params,
                sql,
            });
        }
    }
    Ok(out)
}

/// One scheduled query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time from the run origin.
    pub at: Duration,
    /// Index into the pool.
    pub instance: usize,
    /// Inside the measured window (`false` during warm-up).
    pub measured: bool,
}

/// Shuffle `v` in place (Fisher-Yates).
fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// `n` event times on `[from, from + len)`, the first at `from`: a
/// Poisson process stratified over its gaps. The gaps are the `n`
/// midpoint quantiles of the exponential distribution, scaled to fill
/// the interval, in seeded order. Every seed offers the same number of
/// events with the same gaps, so the near-coincident arrivals that set
/// the latency tail are as many in every run; only their order differs.
fn event_times(rng: &mut Rng, n: usize, from: f64, len: f64) -> Vec<f64> {
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln())
        .collect();
    shuffle(rng, &mut gaps);
    let scale = len / gaps.iter().sum::<f64>();
    let mut at = from;
    gaps.iter()
        .map(|g| {
            let t = at;
            at += g * scale;
            t
        })
        .collect()
}

/// `n` pool indices in seeded order, every index of `0..pool_len` asked
/// as often as any other (give or take one), so the mix of cheap and
/// costly instantiations is the same in every run.
fn deck(rng: &mut Rng, n: usize, pool_len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool_len).collect();
    shuffle(rng, &mut order);
    let mut picks: Vec<usize> = (0..n).map(|i| order[i % pool_len]).collect();
    shuffle(rng, &mut picks);
    picks
}

/// Longest measured window of one trial. A run of `seconds` is split
/// into trials of at most this length, each on a freshly built system:
/// the engine's state drifts while it runs (stage worker pools only
/// grow; star-similar's p50 rose by a quarter over a 5 s trial), so
/// independent short trials repeat better than one long one.
pub const TRIAL_SECONDS: f64 = 2.5;

/// Trials of a run of `seconds`; a traced run needs at least two, one
/// untraced and one traced.
pub fn trials(seconds: f64, traced: bool) -> usize {
    let min = if traced { 2.0 } else { 1.0 };
    (seconds / TRIAL_SECONDS).ceil().max(min) as usize
}

/// The arrival schedules of a run, one per trial: each has
/// `spec.warmup` of unmeasured arrivals, then its share of `seconds` of
/// measured ones, at `spec.rate` events per second.
pub fn schedules(
    spec: &Spec,
    seed: u64,
    pool_len: usize,
    seconds: f64,
    traced: bool,
) -> Vec<Vec<Arrival>> {
    let mut rng = Rng::new(seed ^ 0x7363_6865_6475_6c65);
    let trials = trials(seconds, traced);
    let warm = spec.warmup.as_secs_f64();
    (0..trials)
        .map(|_| {
            let mut out = Vec::new();
            for (measured, from, len) in [(false, 0.0, warm), (true, warm, seconds / trials as f64)]
            {
                let events = (spec.rate * len).round() as usize;
                let times = event_times(&mut rng, events, from, len);
                for (at, instance) in times.into_iter().zip(deck(&mut rng, events, pool_len)) {
                    for _ in 0..spec.burst {
                        out.push(Arrival {
                            at: Duration::from_secs_f64(at),
                            instance,
                            measured,
                        });
                    }
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        for spec in all() {
            let a = schedules(&spec, 7, 100, 12.0, false);
            assert_eq!(a.len(), 5, "12 s is five trials");
            assert_eq!(a, schedules(&spec, 7, 100, 12.0, false), "{}", spec.name);
            assert_ne!(a, schedules(&spec, 8, 100, 12.0, false), "{}", spec.name);
            assert_ne!(a[0], a[1], "trials differ");
            for t in &a {
                assert!(t.windows(2).all(|w| w[0].at <= w[1].at));
                assert!(t.iter().any(|x| !x.measured) && t.iter().any(|x| x.measured));
            }
        }
    }

    #[test]
    fn poisson_workloads_offer_a_fixed_count() {
        let spec = by_name("selective-wire").unwrap();
        let measured = |seed| {
            schedules(&spec, seed, 10, TRIAL_SECONDS, false)[0]
                .iter()
                .filter(|a| a.measured)
                .count()
        };
        assert_eq!(measured(1), (spec.rate * TRIAL_SECONDS) as usize);
        assert_eq!(measured(1), measured(2));
    }

    /// Seeds reorder the gaps and the pool entries; they do not change
    /// which gaps there are or how often each entry is asked.
    #[test]
    fn seeds_share_gaps_and_mix() {
        let gaps = |seed| {
            let mut t = event_times(&mut Rng::new(seed), 20, 1.0, 2.5);
            assert_eq!(t[0], 1.0);
            t.push(3.5);
            let mut g: Vec<f64> = t.windows(2).map(|w| w[1] - w[0]).collect();
            g.sort_by(f64::total_cmp);
            g
        };
        let (a, b) = (gaps(1), gaps(2));
        assert!(a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-9), "{a:?} vs {b:?}");
        assert!((a.iter().sum::<f64>() - 2.5).abs() < 1e-9);
        let asked = |seed| {
            let mut n = [0usize; 4];
            for i in deck(&mut Rng::new(seed), 22, 4) {
                n[i] += 1;
            }
            n
        };
        assert!(asked(1).iter().all(|&n| n == 5 || n == 6), "{:?}", asked(1));
        assert_eq!(asked(1).iter().sum::<usize>(), 22);
        assert_ne!(deck(&mut Rng::new(1), 22, 4), deck(&mut Rng::new(2), 22, 4));
    }

    #[test]
    fn bursts_repeat_one_instantiation() {
        let spec = by_name("star-similar").unwrap();
        let s = &schedules(&spec, 3, 4, 5.0, false)[0];
        let mut i = 0;
        while i < s.len() {
            let j = s[i..].iter().take_while(|a| a.at == s[i].at).count();
            assert_eq!(j, spec.burst);
            assert!(s[i..i + j].iter().all(|a| a.instance == s[i].instance));
            i += j;
        }
    }
}
