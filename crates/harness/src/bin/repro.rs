//! Regenerate every table and figure of the paper's evaluation (§5) and
//! check the paper's claims against them.
//!
//! ```text
//! repro [--scale S] [--requests N] [--only fig14|fig15|fig16|fig17|ablation]
//! ```
//!
//! * `--scale` — global time scale (default 0.1: all simulated latencies
//!   are a tenth of the paper's; reported numbers are normalized back).
//! * `--requests` — end-client requests per measured cell (default 400;
//!   the paper used 20 000).
//!
//! Output is markdown, suitable for pasting into `EXPERIMENTS.md`. After
//! the tables it lists every claim of [`experiments::violations`] that the
//! figures run did not meet, and exits 1 if there is one. A bad argument
//! prints the usage and exits 2.

use msp_harness::experiments::{self, Fig14Row, Reproduction, ThresholdRow};

const USAGE: &str =
    "usage: repro [--scale S] [--requests N] [--only fig14|fig15|fig16|fig17|ablation]";

const FIGURES: [&str; 5] = ["fig14", "fig15", "fig16", "fig17", "ablation"];

#[derive(Debug, PartialEq)]
struct Args {
    scale: f64,
    requests: u64,
    only: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        scale: 0.1,
        requests: experiments::DEFAULT_REQUESTS,
        only: None,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--scale" => {
                let v = value()?;
                parsed.scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--scale {v}: not a finite number >= 0"))?;
            }
            "--requests" => {
                let v = value()?;
                parsed.requests = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--requests {v}: not a whole number > 0"))?;
            }
            "--only" => {
                let v = value()?;
                if !FIGURES.contains(&v.as_str()) {
                    return Err(format!("--only {v}: no such figure"));
                }
                parsed.only = Some(v);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn ms(v: f64) -> String {
    format!("{v:.2}")
}

fn rps(v: f64) -> String {
    format!("{v:.1}")
}

/// Print one markdown table under a `##` heading.
fn table(title: &str, header: &str, rows: impl IntoIterator<Item = Vec<String>>) {
    println!("\n## {title}\n");
    println!("| {header} |");
    println!("|{}", "---|".repeat(header.split(" | ").count()));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

fn fig14(title: &str, rows: &[Fig14Row]) {
    table(
        title,
        "config | m | avg RT (paper-ms) | p95 | max | throughput (paper req/s)",
        rows.iter().map(|r| {
            let (s, scale) = (r.summary, r.time_scale);
            vec![
                r.config.name().into(),
                r.m.to_string(),
                ms(s.avg_ms_paper(scale)),
                ms(s.p95.as_secs_f64() * 1e3 / scale.max(1e-9)),
                ms(s.max_ms_paper(scale)),
                rps(s.throughput_paper(scale)),
            ]
        }),
    );
}

fn thresholds(title: &str, rows: &[ThresholdRow]) {
    table(
        title,
        "ckpt threshold | crash every | crashes | throughput (paper req/s) | avg RT (paper-ms) | max RT",
        rows.iter().map(|r| {
            let (s, scale) = (r.summary, r.time_scale);
            vec![
                r.threshold.map_or("none".into(), |t| format!("{} KB", t >> 10)),
                if r.crash_every == 0 { "-".into() } else { r.crash_every.to_string() },
                r.crashes.to_string(),
                rps(s.throughput_paper(scale)),
                ms(s.avg_ms_paper(scale)),
                ms(s.max_ms_paper(scale)),
            ]
        }),
    );
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scale = args.scale;
    let n = args.requests;
    let want = |name: &str| args.only.as_deref().is_none_or(|o| o == name);
    let mut run = Reproduction::default();
    println!("# Reproduction run — scale {scale}, {n} requests per cell");

    if want("fig14") {
        run.fig14_table = experiments::fig14_table(scale, n);
        fig14("Figure 14 table: response time, m = 1", &run.fig14_table);
        run.fig14_chart = experiments::fig14_chart(scale, n);
        fig14(
            "Figure 14 chart: response time vs calls to ServiceMethod2",
            &run.fig14_chart,
        );
    }
    if want("fig15") {
        thresholds(
            "Figure 15(a): throughput vs checkpointing threshold",
            &experiments::fig15a(scale, n),
        );
        run.fig15b = experiments::fig15b(scale, n);
        table(
            "Figure 15(b): throughput vs crash rate",
            "config | crash every N requests | crashes | throughput (paper req/s) | avg RT (paper-ms)",
            run.fig15b.iter().map(|r| {
                let (s, scale) = (r.summary, r.time_scale);
                vec![
                    r.config.name().into(),
                    if r.crash_every == 0 { "never".into() } else { r.crash_every.to_string() },
                    r.crashes.to_string(),
                    rps(s.throughput_paper(scale)),
                    ms(s.avg_ms_paper(scale)),
                ]
            }),
        );
    }
    if want("fig16") {
        run.fig16_table = experiments::fig16_table(scale, n);
        table(
            "Figure 16 table: maximum response time",
            "configuration | max RT (paper-ms) | avg RT (paper-ms) | crashes",
            run.fig16_table.iter().map(|r| {
                let (s, scale) = (r.summary, r.time_scale);
                let (max, avg) = (s.max_ms_paper(scale), s.avg_ms_paper(scale));
                vec![r.label.clone(), ms(max), ms(avg), r.crashes.to_string()]
            }),
        );
        run.fig16_chart = experiments::fig16_chart(scale, n);
        thresholds(
            "Figure 16 chart: throughput at fixed crash rate vs checkpointing threshold",
            &run.fig16_chart,
        );
    }
    if want("fig17") {
        run.fig17 = experiments::fig17(scale, n / 2, 8);
        table(
            "Figure 17: multiple clients, batch flushing",
            "config | flush mode | clients | throughput (paper req/s) | avg RT (paper-ms)",
            run.fig17.iter().map(|r| {
                let (s, scale) = (r.summary, r.time_scale);
                vec![
                    r.config.name().into(),
                    format!("{:?}", r.mode),
                    r.clients.to_string(),
                    rps(s.throughput_paper(scale)),
                    ms(s.avg_ms_paper(scale)),
                ]
            }),
        );
    }
    if want("ablation") {
        run.overhead = experiments::ablation_logging_overhead(scale, n);
        table(
            "Ablation: logging overhead per request",
            "config | m | flushes/req | sectors/req | padded B/req | log B/req",
            run.overhead.iter().map(|r| {
                vec![
                    r.config.name().into(),
                    r.m.to_string(),
                    format!("{:.2}", r.flushes_per_request),
                    format!("{:.2}", r.sectors_per_request),
                    format!("{:.0}", r.padded_bytes_per_request),
                    format!("{:.0}", r.log_bytes_per_request),
                ]
            }),
        );
        table(
            "Ablation: batch-flush timeout sweep (4 clients, pessimistic)",
            "timeout (ms) | throughput (paper req/s) | avg RT (paper-ms)",
            experiments::ablation_batch_timeout(scale, n / 2)
                .into_iter()
                .map(|(t, s)| {
                    vec![
                        t.to_string(),
                        rps(s.throughput_paper(scale)),
                        ms(s.avg_ms_paper(scale)),
                    ]
                }),
        );
    }

    let violations = experiments::violations(&run);
    println!("\n## Claims\n");
    if violations.is_empty() {
        println!("Every checked claim holds.");
        return;
    }
    for v in &violations {
        println!("- VIOLATED: {v}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_and_valid_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!((a.scale, a.requests, a.only), (0.1, 400, None));
        let a = parse(&["--scale", "0", "--requests", "50", "--only", "fig17"]).unwrap();
        assert_eq!(
            a,
            Args {
                scale: 0.0,
                requests: 50,
                only: Some("fig17".into())
            }
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--fast"][..],
            &["--scale", "x"],
            &["--scale", "-0.1"],
            &["--scale", "inf"],
            &["--scale", "NaN"],
            &["--scale"],
            &["--requests", "0"],
            &["--requests", "-3"],
            &["--requests", "many"],
            &["--only", "fig71"],
            &["--only"],
            &["fig14"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
