//! `sagabench`: one end-to-end benchmark of saga.
//!
//! ```text
//! sagabench --workload <serve_read|ingest_fresh|construct_cycle>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from the seed, measures for the given
//! number of seconds in whole rounds of the same operations, checks the
//! program's outputs against independently computed answers, and prints
//! human-readable lines followed by one JSON result line. With
//! `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics. See `README.md`.

mod common;
mod construct_cycle;
mod ingest_fresh;
mod layers;
mod oracle;
mod probes;
mod reads;
mod serve_read;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Report, Run};

/// End-to-end metrics, in report order.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "work_per_s",
    "op_p50_ms",
    "heavy_p50_ms",
];

const USAGE: &str =
    "usage: sagabench --workload <serve_read|ingest_fresh|construct_cycle> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
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
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `nproc`, CPU model and source revision of this run.
fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\" rev={}", git_rev())
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout without `.git` reports `unknown`.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(PathBuf::from(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sagabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: PathBuf::from(".bench_run").join(format!("{}-{}", args.workload, std::process::id())),
    };
    println!(
        "# sagabench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# host {}", host_stamp());
    let _ = std::fs::remove_dir_all(&run.dir);
    if let Err(e) = std::fs::create_dir_all(&run.dir) {
        eprintln!("sagabench: cannot create {}: {e}", run.dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "serve_read" => serve_read::run(&run),
        "ingest_fresh" => ingest_fresh::run(&run),
        "construct_cycle" => construct_cycle::run(&run),
        other => {
            eprintln!("sagabench: unknown workload {other}\n{USAGE}");
            let _ = std::fs::remove_dir_all(&run.dir);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&run.dir);
    let _ = std::fs::remove_dir(".bench_run");
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sagabench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    finish(report, args.trace)
}

/// Print the human-readable lines and the result line.
fn finish(mut report: Report, trace: bool) -> ExitCode {
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        if END_TO_END.contains(&m.name) {
            println!("  {:<14} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    println!("# attempted={} failed={}", report.attempted, report.failed);
    // The traced run reports per-layer metrics; its end-to-end figures
    // (printed above) show the tracing overhead.
    report
        .metrics
        .retain(|m| END_TO_END.contains(&m.name) != trace);
    if !trace {
        for name in END_TO_END {
            let measured = report
                .metrics
                .iter()
                .any(|m| m.name == name && m.value.is_finite());
            report.check(measured, || {
                format!("end-to-end metric {name} was not measured")
            });
        }
    }
    if report.attempted == 0 {
        report.check(false, || "no operation was attempted".into());
    }
    for line in report
        .notes
        .iter()
        .filter(|l| l.starts_with("CHECK FAILED"))
    {
        eprintln!("{line}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
