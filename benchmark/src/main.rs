//! The Deca-rs benchmark: five workloads × three storage modes, job times
//! measured from outside the program, per-layer probes and a traced pass.
//!
//! ```text
//! deca-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object
//! deca-benchmark [--seed <n>] [--seconds <s>]
//!     every workload, timed then traced; prints every metric and writes
//!     out/results-seed<n>.json
//! deca-benchmark --compare a.json b.json
//!     A/A comparison of two results files
//! ```
//!
//! See the README for why each workload exists and what each metric means.

mod metrics;
mod probes;
mod results;
mod run;
mod server_mix;
mod spans;
mod stats;
mod workloads;

#[cfg(test)]
mod smoke;

use run::{enter_scratch, RunArgs};
use workloads::Workload;

const USAGE: &str = "usage: deca-benchmark [--workload <name> --trace <0|1>] [--seed <n>] \
                     [--seconds <s>] | --compare <a.json> <b.json>";

enum Command {
    One(RunArgs),
    Everything { seed: u64, seconds: f64 },
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => return Ok(Command::Compare(value()?.clone(), value()?.clone())),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(match workload {
        Some(workload) => Command::One(RunArgs { workload, seed, seconds, trace, scale: 1 }),
        None => Command::Everything { seed, seconds },
    })
}

/// Runs the command; `Ok(false)` is a completed run with a bad verdict.
fn execute(command: Command) -> Result<bool, String> {
    match command {
        Command::Compare(a, b) => Ok(!results::compare_files(&a, &b)?),
        Command::Everything { seed, seconds } => results::run_everything(seed, seconds),
        Command::One(args) => {
            let output = run::run(&args)?;
            let file = results::run_file(args.workload, args.trace);
            std::fs::write(&file, output.to_json(&args).to_pretty())
                .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
            println!("{}", output.result_line());
            // A failed job is reported in the result, which is the run's
            // verdict; the run itself completed.
            Ok(true)
        }
    }
}

fn main() {
    // The program reads DECA_* variables as knobs (scheduler, GC plan and
    // threads, shuffle copying); a measurement must not depend on them.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DECA_") {
            std::env::remove_var(key);
        }
    }
    let code = match enter_scratch() {
        Err(e) => {
            eprintln!("{e}");
            2
        }
        Ok(tmp) => {
            let args: Vec<String> = std::env::args().skip(1).collect();
            let code = match parse(&args) {
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    2
                }
                Ok(command) => match execute(command) {
                    Ok(true) => 0,
                    Ok(false) => 1,
                    Err(e) => {
                        eprintln!("{e}");
                        1
                    }
                },
            };
            let _ = std::fs::remove_dir_all(&tmp);
            code
        }
    };
    std::process::exit(code);
}
