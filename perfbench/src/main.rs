//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, a report line with every metric the workload
//! measured, any layer tables, and last the result line: one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Build and run it
//! through `python3 perfbench/run.py` from the repository root.

use perfbench::{provenance, report, result, run, Opts};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--rev <id>]",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Opts {
        seed: 1,
        seconds: 10.0,
        ..Opts::default()
    };
    let (mut workload, mut rev) = (None, "unknown".to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(val.clone());
                true
            }
            "--seed" => val.parse().map(|v| o.seed = v).is_ok(),
            "--seconds" => val
                .parse::<f64>()
                .map(|v| o.seconds = v)
                .is_ok_and(|()| o.seconds > 0.0),
            "--trace" => match val.as_str() {
                "0" => true,
                "1" => {
                    o.trace = true;
                    true
                }
                _ => false,
            },
            "--rev" => {
                rev = val.clone();
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument {flag} {val}");
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    println!("provenance {}", provenance(&workload, &o, &rev));
    let out = match run(&workload, &o) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &out.lines {
        println!("{line}");
    }
    println!("report {}", report(&out));
    println!("{}", result(&out, o.trace));
    ExitCode::SUCCESS
}
