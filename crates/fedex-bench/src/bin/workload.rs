//! Workload trace generator + replayer — the CLI over
//! [`fedex_bench::workload`].
//!
//! ```text
//! # Compile a seeded preset (smoke by default, or chaos) to a trace file:
//! cargo run --release -p fedex-bench --bin workload -- \
//!     gen [--preset smoke|chaos] --seed 11 --out smoke.trace.ndjson
//!
//! # Replay it (spawns an in-process server, under the trace's fault
//! # plan if it has one), score the gate, and write the report;
//! # --differential replays twice against fresh servers and
//! # additionally asserts response-identity:
//! cargo run --release -p fedex-bench --bin workload -- \
//!     replay --trace smoke.trace.ndjson --differential --report BENCH_pr10.json
//!
//! # Or drive an already-running server (traces without a fault plan):
//! cargo run --release -p fedex-bench --bin workload -- \
//!     replay --trace smoke.trace.ndjson --addr 127.0.0.1:4641 --speed 0
//! ```
//!
//! Exit status: `0` = the gate passed, `1` = a gate violation,
//! `2` = usage, I/O, or trace-format error (typed, never a panic).

use fedex_bench::workload::{gate, preset, replay, report_json, ReplayConfig, Trace};
use fedex_serve::Json;

fn usage() -> ! {
    eprintln!(
        "usage:\n  workload gen [--preset smoke|chaos] [--seed N] [--out PATH]\n  workload replay --trace PATH [--addr HOST:PORT] [--workers N] [--speed X] \
         [--report PATH] [--differential]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("workload: {msg}");
    std::process::exit(2);
}

/// Exit with usage on any argument that is not one of a subcommand's
/// flags (`valued` take the next argument, `switches` stand alone): a
/// misspelt flag must not silently fall back to its default.
fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) {
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        i += if valued.contains(&arg) {
            2
        } else if switches.contains(&arg) {
            1
        } else {
            eprintln!("workload: unknown argument {arg:?}");
            usage()
        };
    }
}

/// `--flag value` lookup.
fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).unwrap_or_else(|| usage()).clone())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("replay") => run_replay(&args[1..]),
        _ => usage(),
    }
}

fn gen(args: &[String]) {
    check_flags(args, &["--preset", "--seed", "--out"], &[]);
    let seed = opt(args, "--seed")
        .map(|s| s.parse().unwrap_or_else(|_| fail("--seed wants a u64")))
        .unwrap_or(11);
    let name = opt(args, "--preset").unwrap_or_else(|| "smoke".to_string());
    let trace = preset(&name, seed).unwrap_or_else(|e| fail(&format!("compile: {e}")));
    let text = trace.to_ndjson();
    match opt(args, "--out") {
        Some(path) => {
            std::fs::write(&path, &text).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            eprintln!(
                "# wrote {} ops ({} bytes) to {path}",
                trace.ops.len(),
                text.len()
            );
        }
        None => print!("{text}"),
    }
}

/// Pretty-print the report one top-level key per line, so committed
/// report artifacts diff cleanly.
fn render_report(report: &Json) -> String {
    let Json::Obj(pairs) = report else {
        return report.to_string();
    };
    let mut out = String::from("{\n");
    for (i, (k, v)) in pairs.iter().enumerate() {
        let comma = if i + 1 == pairs.len() { "" } else { "," };
        out.push_str(&format!("  {}: {v}{comma}\n", Json::Str(k.clone())));
    }
    out.push_str("}\n");
    out
}

fn run_replay(args: &[String]) {
    check_flags(
        args,
        &["--trace", "--addr", "--workers", "--speed", "--report"],
        &["--differential"],
    );
    let path = opt(args, "--trace").unwrap_or_else(|| usage());
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let trace = Trace::parse(&text).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")));
    let differential = args.iter().any(|a| a == "--differential");
    let cfg = ReplayConfig {
        addr: opt(args, "--addr"),
        workers: opt(args, "--workers")
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| fail("--workers wants a usize"))
            })
            .unwrap_or(2),
        speed: opt(args, "--speed")
            .map(|s| s.parse().unwrap_or_else(|_| fail("--speed wants a float")))
            .unwrap_or(1.0),
    };
    if differential && cfg.addr.is_some() {
        fail("--differential needs fresh servers; it cannot be combined with --addr");
    }

    eprintln!(
        "# replaying {} ops, {} clients{}{}",
        trace.ops.len(),
        trace.header.clients,
        if differential { ", differential" } else { "" },
        match &trace.header.faults {
            Some(spec) => format!(", faults {spec}"),
            None => String::new(),
        }
    );
    let mut runs = Vec::new();
    for i in 0..if differential { 2 } else { 1 } {
        runs.push(
            replay(&trace, &cfg).unwrap_or_else(|e| fail(&format!("replay #{}: {e}", i + 1))),
        );
    }
    let violations = gate(&trace, &runs);

    let report = report_json(&trace, &runs[0], &violations);
    let rendered = render_report(&report);
    match opt(args, "--report") {
        Some(out) => {
            std::fs::write(&out, &rendered).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
            eprintln!("# report written to {out}");
        }
        None => print!("{rendered}"),
    }
    if violations.is_empty() {
        eprintln!("# gate: PASS");
    } else {
        for v in &violations {
            eprintln!("# VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
