//! The FEDEX-rs benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload notebook|cold_scale|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload replays one fixed sequence of operations drawn from
//! `--seed`; its length is `--seconds` times the workload's nominal rate,
//! so counts and memory depend on the seed and the run length, never on
//! how fast the host happens to be. Every explanation is digested and
//! checked (see [`check`]); any mismatch or untyped failure makes the
//! process exit 1 after printing its result.
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run. `--trace
//! 1` runs the same sequence twice on fresh state — untraced, then traced
//! stage by stage from this package's own spans — and prints the
//! per-layer metrics; the two runs must agree explanation for
//! explanation. Spans are written to `perfbench/traces/` when the run
//! ends. The last line of standard output is the result object.

mod check;
mod cold_scale;
mod library;
mod notebook;
mod queries;
mod report;
mod serve;
mod solo;
mod stats;
mod tracer;

use std::process::ExitCode;

use report::Outcome;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload notebook|cold_scale|serve --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "notebook" => notebook::run(&args),
        "cold_scale" => cold_scale::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
