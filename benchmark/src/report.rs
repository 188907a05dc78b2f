//! Result files: the one-line result of a single run, the result set
//! `run.sh` writes for all workloads, and the comparison of two sets.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{compare, median, spread, Better, Verdict};
use crate::workloads::{Kind, Load, Outcome, Workload, RECOVER_SCALE, WORKLOADS};

/// Seconds one run measures by default, and what the driver is told.
pub const RUN_SECONDS: u64 = 10;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The single line a run prints last: `correct`, `attempted`, `failed`
/// and the metrics of the mode it ran in.
pub fn result_line(outcome: &Outcome) -> Result<String, String> {
    let values = outcome.per_layer.as_ref().unwrap_or(&outcome.end_to_end);
    let metrics = values
        .complete()
        .map_err(|name| format!("metric {name} was not measured"))?;
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0 && outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    s.push_str("}}");
    Ok(s)
}

fn first_line_of(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Facts about the machine and the code, for the head of a result set.
fn host_facts() -> BTreeMap<&'static str, String> {
    let mut h = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    h.insert("nproc", nproc.to_string());
    h.insert(
        "cpu",
        first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
    );
    h.insert(
        "kernel",
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
    );
    // A checkout that is not a git repository has no commit to name.
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    h.insert("git_commit", commit);
    let scales: Vec<String> = WORKLOADS
        .iter()
        .map(|w| match w.kind {
            Kind::Request { world, .. } => format!("{}={}", w.name, world.time_scale),
            Kind::Recover { .. } => format!("{}={RECOVER_SCALE}", w.name),
        })
        .collect();
    h.insert("time_scales", scales.join(" "));
    h
}

pub struct AllArgs {
    pub reps: usize,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub only: Option<String>,
    pub out_dir: std::path::PathBuf,
}

/// One process per (workload, repetition): run this same binary in
/// single-run mode and read the line it prints last.
fn run_once(w: &Workload, a: &AllArgs, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start {}: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("no result line")?;
    json::parse(line)
}

/// Per metric name, the values of every repetition.
type Series = BTreeMap<String, Vec<f64>>;

fn collect(series: &mut Series, result: &Json) -> Result<(), String> {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result without metrics")?;
    for (name, m) in metrics {
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or("metric without value")?;
        series.entry(name.clone()).or_default().push(v);
    }
    Ok(())
}

fn series_json(series: &Series) -> String {
    let rows: Vec<String> = series
        .iter()
        .map(|(name, values)| {
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            format!(
                "      {}: {{\"unit\": {}, \"median\": {}, \"values\": [{}]}}",
                json::quote(name),
                json::quote(unit_of(name)),
                median(values),
                list.join(", ")
            )
        })
        .collect();
    format!("{{\n{}\n    }}", rows.join(",\n"))
}

/// Run every workload `reps` times (and once more traced, if asked),
/// print one `workload metric value unit` line per metric, and write the
/// result set to `<out>/results.json`.
pub fn run_all(a: &AllArgs) -> Result<(), String> {
    let host = host_facts();
    for (k, v) in &host {
        println!("host {k} {v}");
    }
    println!("host seed {}", a.seed);
    let mut sections = Vec::new();
    let mut failed_ops = 0u64;
    for w in WORKLOADS {
        if a.only.as_deref().is_some_and(|o| o != w.name) {
            continue;
        }
        let (mut e2e, mut layers) = (Series::new(), Series::new());
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        for rep in 0..a.reps + usize::from(a.trace) {
            let traced = rep == a.reps;
            let r = run_once(w, a, traced)?;
            collect(if traced { &mut layers } else { &mut e2e }, &r)?;
            attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            correct &= r.get("correct") == Some(&Json::Bool(true));
        }
        for (name, values) in e2e.iter().chain(&layers) {
            println!("{} {name} {} {}", w.name, median(values), unit_of(name));
        }
        println!(
            "{} error_rate {} ratio ({failed} failed of {attempted} attempted)",
            w.name,
            failed / attempted
        );
        if a.trace {
            // Closed loops slow down under tracing, open loops only get
            // later: compare whichever the load generator does not fix.
            let open = matches!(
                w.kind,
                Kind::Request {
                    load: Load::Open { .. },
                    ..
                }
            );
            let (plain, traced) = if open {
                ("latency_p50_ms", "client.traced_p50_ms")
            } else {
                ("throughput_rps", "client.traced_rps")
            };
            let (p, t) = (median(&e2e[plain]), median(&layers[traced]));
            let worse = if open { t / p - 1.0 } else { 1.0 - t / p };
            println!(
                "{} trace_overhead_pct {} % (of {plain})",
                w.name,
                worse * 100.0
            );
        }
        failed_ops += failed as u64 + u64::from(!correct);
        sections.push(format!(
            "  {}: {{\n    \"why\": {},\n    \"attempted\": {attempted}, \"failed\": {failed}, \"correct\": {correct},\n    \"end_to_end\": {},\n    \"per_layer\": {}\n  }}",
            json::quote(w.name),
            json::quote(w.why),
            series_json(&e2e),
            series_json(&layers),
        ));
    }
    let host_json: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
        .collect();
    let doc = format!(
        "{{\n\"schema\": 1,\n\"host\": {{{}}},\n\"seed\": {}, \"reps\": {}, \"seconds\": {},\n\"workloads\": {{\n{}\n}}\n}}\n",
        host_json.join(", "),
        a.seed,
        a.reps,
        a.seconds,
        sections.join(",\n")
    );
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let path = a.out_dir.join("results.json");
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if failed_ops > 0 {
        return Err(format!(
            "{failed_ops} failed operations or output violations"
        ));
    }
    Ok(())
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_of(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    set.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_f64s()
}

/// Apply every end-to-end metric's bound to two result sets, one row per
/// workload and metric. Returns how many rows are worse and unresolved.
pub fn compare_sets(a: &Path, b: &Path) -> Result<(usize, usize), String> {
    let (sa, sb) = (load(a)?, load(b)?);
    let (mut worse, mut unresolved) = (0, 0);
    println!("workload metric first second change bound spread verdict");
    for w in WORKLOADS {
        for e in END_TO_END {
            let (Some(va), Some(vb)) = (
                values_of(&sa, w.name, e.name),
                values_of(&sb, w.name, e.name),
            ) else {
                continue;
            };
            let verdict = compare(&va, &vb, e.bound, e.floor_abs, e.better);
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Same => {}
            }
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{} {} {ma:.4} {mb:.4} {:+.1}% {:.0}% {:.1}% {}",
                w.name,
                e.name,
                (mb / ma - 1.0) * 100.0,
                e.bound * 100.0,
                spread(&va).max(spread(&vb)) * 100.0,
                match verdict {
                    Verdict::Worse => "worse",
                    Verdict::Same => "same",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok((worse, unresolved))
}

/// The trajectory table of the README: one row per workload, one column
/// per end-to-end metric, medians of one result set.
pub fn trajectory_table(path: &Path) -> Result<String, String> {
    let set = load(path)?;
    let host = |k: &str| {
        set.get("host")
            .and_then(|h| h.get(k))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    let mut s = format!(
        "Result set `{}`: commit {}, {} cores, {}, kernel {}.\n\n| workload |",
        path.display(),
        host("git_commit"),
        host("nproc"),
        host("cpu"),
        host("kernel"),
    );
    for e in END_TO_END {
        let _ = write!(s, " {} ({}) |", e.name, e.unit);
    }
    s.push_str("\n|---|");
    s.push_str(&"---:|".repeat(END_TO_END.len()));
    for w in WORKLOADS {
        let _ = write!(s, "\n| `{}` |", w.name);
        for e in END_TO_END {
            match values_of(&set, w.name, e.name) {
                Some(v) => {
                    let _ = write!(s, " {:.4} |", median(&v));
                }
                None => s.push_str(" — |"),
            }
        }
    }
    s.push('\n');
    Ok(s)
}

/// `BENCHMARK.json` — what the driver reads — written from the same
/// tables the program prints from.
pub fn manifest() -> String {
    let dir = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name,
                e.unit,
                dir(e.better),
                e.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|l| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                l.name,
                l.unit,
                dir(l.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_printed_manifest() {
        let on_disk =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `run.sh --manifest`");
        assert!(json::parse(&on_disk).is_ok());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
