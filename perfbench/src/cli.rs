//! Strict command line: every flag is known, given at most once, and
//! checked; anything else is an error, never a silent default.

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <selective-wire|star-similar|all> \
[--seed <u64>] [--seconds <1-600>] [--trace <0|1>]";

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload names to run, in order.
    pub workloads: Vec<String>,
    /// Seed of the arrival schedule.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut seconds: Option<u64> = None;
    let mut trace: Option<bool> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        let dup = || format!("{flag} given twice");
        match flag.as_str() {
            "--workload" => {
                let known = value == "all" || crate::workload::by_name(value).is_some();
                if !known {
                    return Err(format!("unknown workload `{value}`"));
                }
                workload
                    .replace(value.clone())
                    .map_or(Ok(()), |_| Err(dup()))?
            }
            "--seed" => seed.replace(number()?).map_or(Ok(()), |_| Err(dup()))?,
            "--seconds" => {
                let s = number()?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds.replace(s).map_or(Ok(()), |_| Err(dup()))?
            }
            "--trace" => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
                trace.replace(t).map_or(Ok(()), |_| Err(dup()))?
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        crate::workload::all()
            .iter()
            .map(|s| s.name.to_string())
            .collect()
    } else {
        vec![workload]
    };
    Ok(Args {
        workloads,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(50),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_the_benchmark_json_form() {
        let a = p("--workload star-similar --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workloads, ["star-similar"]);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12, true));
        assert_eq!(
            p("--workload all").unwrap().workloads.len(),
            crate::workload::all().len()
        );
    }

    #[test]
    fn rejects_anything_unknown_or_malformed() {
        for bad in [
            "",
            "--workload nope",
            "--workload star-similar --mode auto",
            "--workload star-similar --seed",
            "--workload star-similar --seed -1",
            "--workload star-similar --seconds 0",
            "--workload star-similar --trace 2",
            "--workload star-similar --seed 1 --seed 2",
            "--workload star-similar extra",
        ] {
            assert!(p(bad).is_err(), "accepted `{bad}`");
        }
    }
}
