//! The repository's one benchmark. `run.sh` builds and starts it; see
//! `README.md` for the workloads, the metrics and how to read them.
//!
//! ```text
//! msp-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! msp-benchmark all [--reps N] [--seed S] [--seconds S] [--trace] [--only W] [--out DIR]
//! msp-benchmark compare FIRST.json SECOND.json
//! msp-benchmark table RESULTS.json
//! msp-benchmark manifest
//! ```

mod api;
mod gen;
mod json;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
}

fn single(args: Vec<String>) -> Result<(), String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, 1u64, report::RUN_SECONDS as f64, false);
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(value::<String>(&flag, it.next())?),
            "--seed" => seed = value(&flag, it.next())?,
            "--seconds" => seconds = value(&flag, it.next())?,
            "--trace" => trace = value::<u8>(&flag, it.next())? != 0,
            "--out" => out_dir = value(&flag, it.next())?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let w = workloads::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("no workload named {name}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let outcome = workloads::run(
        w,
        &workloads::Args {
            seed,
            seconds,
            trace,
            out_dir,
        },
    )?;
    for v in &outcome.violations {
        eprintln!("{name}: output check: {v}");
    }
    if outcome.failed > 0 {
        eprintln!(
            "{name}: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
    }
    println!("{}", report::result_line(&outcome)?);
    if outcome.failed > 0 || !outcome.violations.is_empty() {
        return Err("output check failed".into());
    }
    Ok(())
}

fn all(args: Vec<String>) -> Result<(), String> {
    let mut a = report::AllArgs {
        reps: 1,
        seed: 1,
        seconds: report::RUN_SECONDS,
        trace: false,
        only: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--reps" => a.reps = value(&flag, it.next())?,
            "--seed" => a.seed = value(&flag, it.next())?,
            "--seconds" => a.seconds = value(&flag, it.next())?,
            "--trace" => a.trace = true,
            "--only" => a.only = Some(value(&flag, it.next())?),
            "--out" => a.out_dir = value(&flag, it.next())?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    report::run_all(&a)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(args.split_off(1)),
        Some("compare") if args.len() == 3 => {
            report::compare_sets(Path::new(&args[1]), Path::new(&args[2])).and_then(|(w, u)| {
                if w + u == 0 {
                    Ok(())
                } else {
                    Err(format!("{w} rows worse, {u} unresolved"))
                }
            })
        }
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(())
        }
        Some("table") if args.len() == 2 => {
            report::trajectory_table(Path::new(&args[1])).map(|t| print!("{t}"))
        }
        Some(f) if f.starts_with("--") => single(args),
        _ => Err("usage: see benchmark/README.md".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("msp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
