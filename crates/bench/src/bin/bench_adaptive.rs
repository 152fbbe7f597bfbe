//! Tracked benchmark for the adaptive sweep and the solves around it.
//!
//! Measures median wall times on the fig16-style workload (indoor
//! scenario, ±0.75 m track, paper defaults) for:
//!
//! - a single full-trace 2D solve,
//! - the 6×6 adaptive sweep (every cell the batch solve on its
//!   range-restricted profile),
//! - one IRLS reweight iteration on the incremental normal equations,
//! - one streaming re-solve (sliding window push + windowed locate).
//!
//! Usage:
//!
//! - `bench_adaptive` — run and print the `lion-bench-5` JSON document.
//! - `bench_adaptive --write PATH` — run and also write the document.
//! - `bench_adaptive --check PATH` — run, refuse (exit 0) if the
//!   committed baseline came from a different machine or toolchain,
//!   otherwise verify that fresh medians are within 3× of the
//!   committed ones (exit code 1 otherwise).
//!
//! Run with `--release`; debug-build numbers are meaningless.

use std::time::Instant;

use lion_core::{
    locate_window_in, AdaptiveConfig, AdaptiveOutcome, Localizer2d, LocalizerConfig, SlidingWindow,
    SolveSpace, Workspace,
};
use lion_geom::{LineSegment, Point3};
use lion_linalg::NormalEq;

use lion_bench::rig;

/// How many times slower/faster than the committed baseline a fresh
/// median may be before `--check` fails. Machine-to-machine variance is
/// large; 3× catches order-of-magnitude regressions without flaking.
const CHECK_RATIO: f64 = 3.0;
/// The tracked medians, in document order.
const BENCHES: [&str; 4] = [
    "single_solve_ns",
    "sweep_ns",
    "irls_iteration_ns",
    "streaming_resolve_ns",
];

fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_ns(f: &mut impl FnMut()) -> u64 {
    let t = Instant::now();
    f();
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn bench(runs: usize, mut f: impl FnMut()) -> u64 {
    // One untimed warm-up sizes the buffers and warms the caches.
    f();
    median_ns((0..runs).map(|_| time_ns(&mut f)).collect())
}

/// The fig16-style workload: indoor multipath, narrow-beam antenna at
/// (0, 0.8, 0), one scan of the ±0.75 m track.
fn workload(seed: u64) -> (Vec<(Point3, f64)>, LocalizerConfig) {
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = lion_sim::Antenna::builder(antenna_pos)
        .gain_exponent(6.0)
        .boresight(lion_geom::Vec3::new(0.0, -1.0, 0.0))
        .build();
    let mut scenario = rig::indoor_scenario(antenna, seed);
    let track = LineSegment::along_x(-0.75, 0.75, 0.0, 0.0).expect("valid");
    let trace = scenario
        .scan(&track, rig::TAG_SPEED, rig::READ_RATE)
        .expect("valid scan");
    (
        trace.to_measurements(),
        rig::paper_localizer_config(antenna_pos),
    )
}

/// Fresh medians, in [`BENCHES`] order.
struct BenchResults([u64; 4]);

impl BenchResults {
    fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        BENCHES.into_iter().zip(self.0)
    }

    fn to_json(&self) -> String {
        let benches = self
            .named()
            .map(|(name, median)| format!("\"{name}\":{{\"median\":{median}}}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"lion-bench-5\",\"env\":{},\"benches\":{{{}}}}}",
            lion_bench::benv::BenchEnv::current().to_json(),
            benches,
        )
    }
}

fn run_benches() -> BenchResults {
    let (m, config) = workload(42);
    let grid = AdaptiveConfig::default();
    let localizer = Localizer2d::new(config.clone());

    let mut ws = Workspace::new();
    let single_solve_ns = bench(51, || {
        localizer.locate_in(&m, &mut ws).expect("solvable trace");
    });

    let mut ws = Workspace::new();
    let mut out = AdaptiveOutcome::default();
    let sweep_ns = bench(21, || {
        localizer
            .locate_adaptive_into(&m, &grid, &mut ws, &mut out)
            .expect("solvable sweep");
    });

    // One IRLS reweight iteration on incremental normal equations the
    // size of a typical sweep cell (~200 rows, 3 columns): perturb the
    // weights slightly (rank-1 updates), re-solve.
    let rows = 200;
    let mut ne = NormalEq::new();
    ne.begin(3);
    for i in 0..rows {
        let x = i as f64 / rows as f64;
        ne.push_row(&[2.0 * x, x * x, 1.0], 0.75 * x * x + 0.25 * x + 0.5);
    }
    ne.solve().expect("well-conditioned system");
    let mut weights = vec![1.0_f64; rows];
    let mut tick = 0usize;
    let irls_iteration_ns = bench(201, || {
        tick += 1;
        // Touch a handful of weights per iteration, as IRLS does once the
        // residuals settle.
        for j in 0..8 {
            let idx = (tick * 13 + j * 17) % rows;
            weights[idx] = 0.5 + 0.5 * ((tick + j) % 7) as f64 / 7.0;
        }
        ne.set_weights(&weights).expect("valid weights");
        ne.solve().expect("well-conditioned system");
    });

    // Streaming re-solve: a full sliding window in steady state — push
    // one read (evicting the oldest) and re-run the windowed locate.
    // Ping-pong over the middle of the trace so consecutive pushes stay
    // spatially adjacent (unwrapping needs a continuous track) and the
    // geometry stays near boresight.
    let span = 768.min(m.len());
    let start = (m.len() - span) / 2;
    let slice = &m[start..start + span];
    let mut cursor = 0usize;
    let mut forward = true;
    let mut tick = 0u64;
    let mut next = || {
        let read = slice[cursor];
        if forward {
            if cursor + 1 == slice.len() {
                forward = false;
            } else {
                cursor += 1;
            }
        } else if cursor == 0 {
            forward = true;
        } else {
            cursor -= 1;
        }
        tick += 1;
        (tick as f64 * 0.01, read)
    };
    let mut window = SlidingWindow::new(256).expect("valid capacity");
    for _ in 0..slice.len() {
        let (t, (p, phase)) = next();
        window.push(t, p, phase);
    }
    let mut ws = Workspace::new();
    let streaming_resolve_ns = bench(51, || {
        let (t, (p, phase)) = next();
        window.push(t, p, phase);
        locate_window_in(&config, SolveSpace::TwoD, &window, &mut ws).expect("solvable window");
    });

    BenchResults([
        single_solve_ns,
        sweep_ns,
        irls_iteration_ns,
        streaming_resolve_ns,
    ])
}

fn load_baseline(path: &str) -> Result<Vec<(&'static str, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = lion_obs::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
    if schema != "lion-bench-5" {
        return Err(format!("{path}: unexpected schema {schema:?}"));
    }
    let benches = doc.get("benches").ok_or("missing benches")?;
    let mut medians = Vec::new();
    for name in BENCHES {
        let median = benches
            .get(name)
            .and_then(|b| b.get("median"))
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing bench {name}"))?;
        medians.push((name, median));
    }
    Ok(medians)
}

fn check(results: &BenchResults, path: &str) -> Result<(), String> {
    let baseline = load_baseline(path)?;
    let mut failures = Vec::new();
    for (name, fresh) in results.named() {
        let committed = baseline
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        let ratio = fresh as f64 / committed.max(1) as f64;
        let status = if !(1.0 / CHECK_RATIO..=CHECK_RATIO).contains(&ratio) {
            failures.push(format!(
                "{name}: fresh {fresh} ns vs committed {committed} ns (ratio {ratio:.2})"
            ));
            "FAIL"
        } else {
            "ok"
        };
        eprintln!("check {name}: fresh {fresh} ns, committed {committed} ns [{status}]");
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let results = run_benches();
    let json = results.to_json();
    println!("{json}");
    match args.first().map(String::as_str) {
        Some("--write") => {
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_5.json");
            std::fs::write(path, format!("{json}\n")).expect("write baseline");
            eprintln!("wrote {path}");
        }
        Some("--check") => {
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_5.json");
            lion_bench::benv::refuse_if_cross_machine(path);
            if let Err(e) = check(&results, path) {
                eprintln!("benchmark check FAILED: {e}");
                std::process::exit(1);
            }
            eprintln!("benchmark check passed");
        }
        Some(other) => {
            eprintln!("unknown argument {other}; use --write [PATH] or --check [PATH]");
            std::process::exit(2);
        }
        None => {}
    }
}
