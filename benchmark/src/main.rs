//! End-to-end and per-layer benchmark of the FBMPK kernels and the
//! serving layer. See README.md in this directory for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! fbmpk-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The process
//! exits with status 1 after printing it when any operation failed its
//! correctness check, and with status 2 on a bad command line.

mod gate;
mod heap;
mod inputs;
mod kernel;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["mpk-fem", "krylov-circuit", "serve-hot", "serve-churn"];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: fbmpk-benchmark --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed {value:?}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err(format!("seconds must be at least 1, got {value}"));
                }
                seconds = Some(s);
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
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; known: {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "mpk-fem" => kernel::run(&kernel::MPK_FEM, args.seed, args.seconds, args.trace),
        "krylov-circuit" => {
            kernel::run(&kernel::KRYLOV_CIRCUIT, args.seed, args.seconds, args.trace)
        }
        "serve-hot" => serve::hot(args.seed, args.seconds, args.trace),
        "serve-churn" => serve::churn(args.seed, args.seconds, args.trace),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Directory the traced run writes its spans to, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cpu_at_start = report::CpuTimes::now();
    let report = run(&args);
    let steal_frac = report::CpuTimes::now().steal_frac_since(&cpu_at_start);
    let o = &report.outcome;
    let d = &report.diag;
    println!(
        "{} seed {} {}: {} operations, {} failed, {} timed samples",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        o.attempted,
        o.failed,
        d.samples
    );
    let catalogue: &[(&str, &str)] =
        if args.trace { &report::PER_LAYER } else { &report::END_TO_END };
    for (name, unit) in catalogue {
        if let Some((_, v)) = o.metrics.iter().find(|(n, _)| n == name) {
            println!("  {name:<28} {v:>14.4} {unit}");
        }
    }
    if !args.trace {
        let (pct, beyond) = (d.tail_pct, d.tail_beyond);
        println!(
            "  {:<28} {:>14.4} ms  (p{pct}, {beyond} samples beyond; printed, not gated)",
            "tail_ms", d.tail_ms
        );
    }
    if let Some(tr) = &report.trace {
        let path = format!("{TRACE_DIR}/{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, tr.chrome_json()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    println!("{}", d.line(&args.workload, args.seed, steal_frac));
    println!("{}", o.to_json(args.trace));
    if !o.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload serve-hot --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "serve-hot".into(), seed: 3, seconds: 10.0, trace: true });
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload mpk-fem --seed x --seconds 10 --trace 0",
            "--workload mpk-fem --seed 1 --seconds 0 --trace 0",
            "--workload mpk-fem --seed 1 --seconds 10 --trace 2",
            "--workload mpk-fem --seed 1 --seconds 10",
            "--workload mpk-fem --seed 1 --seconds 10 --trace",
            "--workload mpk-fem --seed 1 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
