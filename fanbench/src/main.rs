//! `fanbench`: the FANNet benchmark. One seeded workload per run:
//!
//! ```text
//! cargo run --release --manifest-path fanbench/Cargo.toml -- \
//!     --workload <noise-analysis|fault-analysis|serve-open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: whether every output
//! check passed, how many were attempted and failed, and the metrics —
//! the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. The exit code is non-zero when an output check failed.
//! See `fanbench/README.md` for what each workload and metric measures.

mod analysis;
mod kernel;
mod metrics;
mod nets;
mod rng;
mod serve;
mod spans;
mod stats;
mod steal;

use std::path::PathBuf;

use analysis::Kind;
use metrics::{Checks, Metrics, END_TO_END, PER_LAYER};

/// Analysis threads, client connections and server workers: the two
/// cores of the machine the benchmark was calibrated on.
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// One run's arguments.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its span log.
    pub out_dir: Option<PathBuf>,
}

/// Sets every per-layer metric to 0, for the layers a workload does not
/// run; measured ones overwrite it.
pub fn zero_all(m: &mut Metrics) {
    for (name, _) in PER_LAYER {
        m.set(name, 0.0);
    }
}

fn parse_args() -> Result<(String, Run), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("bad --seconds: need a positive number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}`: need 0 or 1")),
    };
    Ok((
        workload,
        Run {
            seed,
            seconds,
            trace,
            out_dir: trace.then(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))),
        },
    ))
}

fn main() {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("fanbench: {e}");
            eprintln!(
                "usage: fanbench --workload <noise-analysis|fault-analysis|serve-open> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let (mut m, checks): (Metrics, Checks) = match workload.as_str() {
        "noise-analysis" => analysis::run(Kind::Noise, &run),
        "fault-analysis" => analysis::run(Kind::Fault, &run),
        "serve-open" => serve::run(&run),
        other => {
            eprintln!("fanbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let names: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    if !run.trace {
        m.set(
            "ok_frac",
            stats::ratio(
                (checks.attempted - checks.failed) as f64,
                checks.attempted as f64,
            ),
        );
        m.set("peak_rss_mb", metrics::peak_rss_mb());
    }
    println!("{}", metrics::result_line(checks, &m, names));
    if checks.failed > 0 {
        eprintln!(
            "fanbench: {} of {} output checks failed",
            checks.failed, checks.attempted
        );
        std::process::exit(1);
    }
}
