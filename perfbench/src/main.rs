//! The robust-qp benchmark: end-to-end and per-layer runs of its workloads.
//!
//! ```text
//! perfbench --workload <suite-eval|serve-inproc|serve-tcp>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from `--seed`, sets up (several times,
//! reporting the fastest), measures for `--seconds`, then checks that the
//! program's outputs are correct. Human-readable lines come first; the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones in [`END_TO_END`]; with `--trace 1`
//! they are the per-layer ones in [`layers::PER_LAYER`]. See `NOTES.md`
//! for why each workload exists and what each metric means.

mod cold_start;
mod layers;
mod serve;
mod stats;
mod suite_eval;

use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics every `--trace 0` run reports, with units.
/// Each workload defines its own unit of work and latency (NOTES.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// Human-readable report lines (timings with sample counts).
    pub lines: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Count one attempted operation, failed if `problem` is `Some`; the
    /// first few problems are kept as report lines.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failed <= 10 {
                self.lines.push(format!("CHECK FAILED: {p}"));
            }
        }
    }

    /// Add a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }
}

/// SplitMix64: the seeded generator behind every workload's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<Outcome, String> {
    layers::register_all();
    let mut out = match args.workload.as_str() {
        "suite-eval" => suite_eval::run(args)?,
        "serve-inproc" => serve::run(args, serve::Arm::InProc)?,
        "serve-tcp" => serve::run(args, serve::Arm::Tcp)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let fail_ratio = layers::ratio(out.failed as f64, out.attempted as f64);
    out.line(format!(
        "fail_ratio: {fail_ratio} ratio ({} failed of {} attempted)",
        out.failed, out.attempted
    ));
    if !args.trace {
        let rss = peak_rss_mb()?;
        out.line(format!("peak_rss_mb: {rss:.1} MB"));
        out.metrics.push(("peak_rss_mb", rss, "MB"));
    }
    let mut want: Vec<&str> = if args.trace {
        layers::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    want.sort_unstable();
    let mut got: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    got.sort_unstable();
    if got != want {
        return Err(format!("metric set {got:?} does not match the contract {want:?}"));
    }
    if let Some(bad) = out.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {} is not finite: {}", bad.0, bad.1));
    }
    if out.attempted == 0 {
        return Err("the run attempted no operation".to_string());
    }
    Ok(out)
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!(
                "workload {} seed {} seconds {} trace {}",
                args.workload,
                args.seed,
                args.seconds.as_secs(),
                u8::from(args.trace)
            );
            for line in &out.lines {
                println!("{line}");
            }
            println!("{}", result_json(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            lines: vec![],
            metrics: vec![("setup_s", 0.5, "s"), ("latency_p50_ms", 1.25, "ms")],
        };
        assert_eq!(
            result_json(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
