//! Accuracy-gated, stage-attributed benchmark of the LION pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload envelope_solve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times the workload end to end with tracing off;
//! `--trace 1` replays its operations layer by layer with a span around
//! each call and reports per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (each `{"value", "unit"}`). Findings and the machine
//! fingerprint go to standard error, and the run's result document to
//! `.bench_out/`. `--baseline <document>` compares against an earlier
//! result document, refusing (exit 0) when it came from another machine.
//! See `perfbench/README.md` for the workloads and metrics.

mod env;
mod inputs;
mod outcome;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use lion::obs::json::{self, escape, Json};

use crate::env::Env;
use crate::inputs::Workload;
use crate::workloads::{Metric, Report};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut baseline = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--baseline" => baseline = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        baseline,
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    )
}

/// Compares this run's metrics with a result document from an earlier
/// run against the bounds in `BENCHMARK.json`. Returns whether every
/// bounded metric stayed within its bound.
fn compare(report: &Report, baseline: &Json) -> bool {
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| json::parse(&text).ok());
    let bound_of = |name: &str| -> Option<(f64, bool)> {
        let list = spec.as_ref()?.get("end_to_end")?.as_array()?;
        let entry = list
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?;
        let lower = entry.get("better").and_then(Json::as_str) == Some("lower");
        Some((entry.get("bound")?.as_f64()?, lower))
    };
    let mut within = true;
    for m in &report.metrics {
        let Some(old) = baseline
            .get("metrics")
            .and_then(|ms| ms.get(m.name))
            .and_then(|v| v.get("value"))
            .and_then(Json::as_f64)
        else {
            continue;
        };
        let change = (m.value - old) / old;
        let verdict = match bound_of(m.name) {
            Some((bound, lower)) if (if lower { change } else { -change }) > bound => {
                within = false;
                "WORSE than bound"
            }
            Some(_) => "within bound",
            None => "unbounded",
        };
        eprintln!(
            "{:<24} {old:>14.4} -> {:>14.4} {:+7.2}%  {verdict}",
            m.name,
            m.value,
            change * 100.0
        );
    }
    within
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1] \
                 [--baseline <result document>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let env = Env::current();
    eprintln!("env: {}", env.to_json());
    let baseline = match &args.baseline {
        None => None,
        Some(path) => {
            let doc = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text).map_err(|e| e.to_string()));
            match doc {
                Err(e) => {
                    eprintln!("perfbench: cannot read baseline {path}: {e}");
                    return ExitCode::from(2);
                }
                Ok(doc) => {
                    if let Some(why) = env.mismatch(&doc) {
                        eprintln!("comparison REFUSED (baseline from another machine): {why}");
                        return ExitCode::SUCCESS;
                    }
                    Some(doc)
                }
            }
        }
    };

    // Set up several times: the median is the set-up time, and every
    // set-up must generate the same inputs from the seed.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut fingerprints = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let t = Instant::now();
        let fresh = workloads::setup(args.workload, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        fingerprints.push(inputs::fingerprint(&fresh.passes));
        setup = Some(fresh);
    }
    let setup = setup.expect("at least one set-up");
    let setup_s = stats::median(&setup_s);
    let mut report = if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        Report {
            failed: 1,
            notes: vec!["one seed generated different inputs across set-ups".to_string()],
            ..Report::default()
        }
    } else if args.trace {
        workloads::measure_traced(&setup, args.seconds)
    } else {
        workloads::measure(&setup, setup_s, args.seconds)
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        let note = format!("{} is not a finite number", m.name);
        report.notes.push(note);
        report.failed += 1;
        report.correct = false;
    }

    eprintln!(
        "workload {} seed {} trace {}: correct={} attempted={} failed={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.correct,
        report.attempted,
        report.failed
    );
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for m in &report.metrics {
        eprintln!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let document = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"env\":{},\"result\":{}}}\n",
        escape(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        env.to_json(),
        result_line(&report)
    );
    let path = std::path::PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, document))
    {
        eprintln!("perfbench: result document not written: {e}");
    }

    let within = match &baseline {
        Some(doc) => compare(&report, doc.get("result").unwrap_or(doc)),
        None => true,
    };
    println!("{}", result_line(&report));
    if report.correct && within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
