//! The tracked same-machine regression benchmark: one run, one schema
//! (`lion-bench`), one committed baseline (`BENCH.json`).
//!
//! Fourteen medians, each on the workload named beside it:
//!
//! - fig16 rig (indoor scenario, ±0.75 m linear track, paper defaults):
//!   `single_solve_ns` (one full-trace 2D solve), `sweep_ns` (the 6×6
//!   adaptive sweep), `streaming_resolve_ns` (one 256-read sliding
//!   window push + windowed locate);
//! - the same trace restricted to the paper's 0.8 m scanning range,
//!   through each backend behind the [`Solver`](lion_core::Solver) seam:
//!   `linear_solve_ns`, `grid_solve_ns`, and the grid-backend sweep
//!   `sweep_grid_ns`;
//! - synthetic normal equations the size of a sweep cell:
//!   `irls_iteration_ns` (a few rank-1 weight updates + re-solve);
//! - indoor circular scan (0.3 m radius): `replay_resolve_ns` and
//!   `incremental_resolve_ns`, one steady-state re-solve after each
//!   16-read cadence tick, through the full O(window) replay and the
//!   O(delta) [`IncrementalState`] patch;
//! - 1024-sample pipeline-shaped inputs: the five `lion_linalg::simd`
//!   kernels (`phase_unwrap_ns`, `sliding_mean_ns`, `radical_rows_ns`,
//!   `gram_accumulate_ns`, `exp_weights_ns`).
//!
//! Alongside them it records the linear-vs-grid estimate distance
//! (`parity_m`), the cost of one `/metrics` render
//! (`metrics_render_ns`) and of one history-sampler tick
//! (`sampler_tick_ns`), and the incremental-vs-replay speedup.
//!
//! Usage:
//!
//! - `bench_tracked` — run and print the JSON document.
//! - `bench_tracked --write [PATH]` — run and also write the document
//!   (default `BENCH.json`).
//! - `bench_tracked --check [PATH]` — run, refuse (exit 0) if the
//!   committed baseline came from a different machine or toolchain,
//!   otherwise evaluate every gate of [`check`] and exit 1 if any fails.
//!
//! Run with `--release`; debug-build numbers are meaningless. For
//! native-tuned numbers (not comparable to the committed baseline) use
//! `just bench-native`.

use std::hint::black_box;
use std::time::Instant;

use lion_core::{
    locate_window_in, AdaptiveConfig, AdaptiveOutcome, GridConfig, IncrementalState, Localizer2d,
    LocalizerConfig, PhaseProfile, SlidingWindow, SolveSpace, SolverKind, Workspace,
};
use lion_geom::{CircularArc, LineSegment, Point3, Trajectory, Vec3};
use lion_linalg::{simd, NormalEq};

use lion_bench::rig;

/// Document schema tag; a baseline with any other tag is rejected.
const SCHEMA: &str = "lion-bench";
/// Baseline path used when `--write` / `--check` name none.
const DEFAULT_PATH: &str = "BENCH.json";
/// The tracked medians, in document order.
const MEDIANS: [&str; 14] = [
    "single_solve_ns",
    "sweep_ns",
    "irls_iteration_ns",
    "streaming_resolve_ns",
    "linear_solve_ns",
    "grid_solve_ns",
    "sweep_grid_ns",
    "replay_resolve_ns",
    "incremental_resolve_ns",
    "phase_unwrap_ns",
    "sliding_mean_ns",
    "radical_rows_ns",
    "gram_accumulate_ns",
    "exp_weights_ns",
];
/// How many times slower or faster than the committed baseline a fresh
/// median may be. Run-to-run variance on one machine reaches ~2×; 3×
/// catches order-of-magnitude regressions without flaking, and a 3×
/// speed-up means the baseline no longer describes the code.
const CHECK_RATIO: f64 = 3.0;
/// Absolute budget for one full-trace 2D solve: half of the ~1.36 ms
/// the pipeline took before the SoA/SIMD rework. Absolute gates are
/// safe because the env refusal guarantees the numbers come from the
/// machine that wrote the baseline.
const SINGLE_SOLVE_BUDGET_NS: u64 = 700_000;
/// Absolute budget for one steady-state incremental re-solve tick: the
/// median before the SoA/SIMD rework rerouted its shared kernels.
const INCREMENTAL_BUDGET_NS: u64 = 14_672;
/// Budget for one `/metrics` scrape render of a fleet-shaped registry:
/// ~100× the measured cost, still far below any sane scrape interval.
const METRICS_RENDER_BUDGET_NS: u64 = 5_000_000;
/// Budget for one steady-state history-sampler tick on the same
/// registry: the background sampler runs once a second inside live
/// pipelines, so a tick must stay far under its period.
const SAMPLER_TICK_BUDGET_NS: u64 = 5_000_000;
/// The documented linear-vs-grid agreement radius on the fig16 rig
/// (DESIGN §12), enforced on both the fresh and the committed parity.
const PARITY_LIMIT_M: f64 = 0.02;
/// The fresh incremental-vs-replay speedup must reach this fraction of
/// the committed one. Relative, not an absolute floor: the SoA/SIMD
/// rework sped the replay path up ~6×, shrinking the remaining gap.
const SPEEDUP_MARGIN: f64 = 0.6;
/// Reads pushed per streaming cadence tick (the stream default).
const CADENCE: usize = 16;
/// Sliding-window capacity (the stream default).
const WINDOW: usize = 256;
/// Kernel input length — the order of one full fig16 trace, so kernel
/// medians sit on the same curve as the end-to-end ones.
const KERNEL_N: usize = 1024;

/// One benchmark run, fresh or loaded from a baseline.
#[derive(Debug, Clone, PartialEq)]
struct Results {
    /// Median wall time per entry of [`MEDIANS`], in that order.
    medians: [u64; MEDIANS.len()],
    parity_m: f64,
    metrics_render_ns: u64,
    sampler_tick_ns: u64,
}

impl Results {
    fn median(&self, name: &str) -> u64 {
        let i = MEDIANS
            .iter()
            .position(|&n| n == name)
            .expect("name is a tracked median");
        self.medians[i]
    }

    fn speedup(&self) -> f64 {
        self.median("replay_resolve_ns") as f64
            / self.median("incremental_resolve_ns").max(1) as f64
    }

    fn to_json(&self) -> String {
        let medians = MEDIANS
            .iter()
            .zip(self.medians)
            .map(|(name, ns)| format!("\"{name}\":{ns}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"env\":{},\"medians\":{{{medians}}},\
             \"parity_m\":{:.6},\"metrics_render_ns\":{},\"sampler_tick_ns\":{},\
             \"speedup_incremental_vs_replay\":{:.2}}}",
            lion_bench::benv::BenchEnv::current().to_json(),
            self.parity_m,
            self.metrics_render_ns,
            self.sampler_tick_ns,
            self.speedup(),
        )
    }

    /// Parses a baseline document; every tracked entry must be present.
    /// The speedup is derived from the medians, so its field is not read.
    fn parse(text: &str) -> Result<Self, String> {
        let doc = lion_obs::json::parse(text).map_err(|e| format!("parse: {e}"))?;
        let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("unexpected schema {schema:?}, want {SCHEMA:?}"));
        }
        let medians = doc.get("medians").ok_or("missing medians")?;
        let mut out = [0; MEDIANS.len()];
        for (slot, name) in out.iter_mut().zip(MEDIANS) {
            *slot = medians
                .get(name)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("missing median {name}"))?;
        }
        let u64_field = |name: &str| {
            doc.get(name)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("missing {name}"))
        };
        Ok(Results {
            medians: out,
            parity_m: doc
                .get("parity_m")
                .and_then(|v| v.as_f64())
                .ok_or("missing parity_m")?,
            metrics_render_ns: u64_field("metrics_render_ns")?,
            sampler_tick_ns: u64_field("sampler_tick_ns")?,
        })
    }
}

/// Evaluates every gate of the fresh run against the committed baseline,
/// one `(held, description)` per gate.
fn check(fresh: &Results, committed: &Results) -> Vec<(bool, String)> {
    let mut gates = Vec::new();
    for ((name, f), c) in MEDIANS.iter().zip(fresh.medians).zip(committed.medians) {
        let ratio = f as f64 / c.max(1) as f64;
        gates.push((
            (1.0 / CHECK_RATIO..=CHECK_RATIO).contains(&ratio),
            format!(
                "{name}: fresh {f} ns vs committed {c} ns (ratio {ratio:.2}, limit {CHECK_RATIO}x)"
            ),
        ));
    }
    for (name, ns, budget) in [
        (
            "single_solve_ns",
            fresh.median("single_solve_ns"),
            SINGLE_SOLVE_BUDGET_NS,
        ),
        (
            "incremental_resolve_ns",
            fresh.median("incremental_resolve_ns"),
            INCREMENTAL_BUDGET_NS,
        ),
        (
            "metrics_render_ns",
            fresh.metrics_render_ns,
            METRICS_RENDER_BUDGET_NS,
        ),
        (
            "sampler_tick_ns",
            fresh.sampler_tick_ns,
            SAMPLER_TICK_BUDGET_NS,
        ),
    ] {
        gates.push((
            ns <= budget,
            format!("{name}: fresh {ns} ns, budget {budget} ns"),
        ));
    }
    for (which, parity) in [("fresh", fresh.parity_m), ("committed", committed.parity_m)] {
        gates.push((
            parity <= PARITY_LIMIT_M,
            format!("{which} parity_m: {parity:.4} m, radius {PARITY_LIMIT_M} m"),
        ));
    }
    let floor = committed.speedup() * SPEEDUP_MARGIN;
    gates.push((
        fresh.speedup() >= floor,
        format!(
            "speedup: fresh {:.2}x, committed {:.2}x (floor {floor:.2}x = committed x {SPEEDUP_MARGIN})",
            fresh.speedup(),
            committed.speedup(),
        ),
    ));
    gates
}

fn time_ns(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Median of `runs` samples, after one discarded warm-up sample that
/// sizes the buffers and warms the caches. Each `sample` call returns
/// its own timing, so it can do untimed set-up before the timed part.
fn bench(runs: usize, mut sample: impl FnMut() -> u64) -> u64 {
    sample();
    let mut samples: Vec<u64> = (0..runs).map(|_| sample()).collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One indoor-scenario scan (narrow-beam antenna at (0, 0.8, 0)) of
/// `track`, with the paper's localizer configuration.
fn workload(track: &dyn Trajectory) -> (Vec<(Point3, f64)>, LocalizerConfig) {
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = lion_sim::Antenna::builder(antenna_pos)
        .gain_exponent(6.0)
        .boresight(Vec3::new(0.0, -1.0, 0.0))
        .build();
    let trace = rig::indoor_scenario(antenna, 42)
        .scan(track, rig::TAG_SPEED, rig::READ_RATE)
        .expect("valid scan");
    (
        trace.to_measurements(),
        rig::paper_localizer_config(antenna_pos),
    )
}

/// The fig16 rig: one scan of the ±0.75 m linear track.
fn linear_workload() -> (Vec<(Point3, f64)>, LocalizerConfig) {
    workload(&LineSegment::along_x(-0.75, 0.75, 0.0, 0.0).expect("valid segment"))
}

/// A closed 0.3 m circle: the incremental state machine replays every
/// lower-dimension window, so the O(delta) path needs a track spanning
/// two dimensions, and a closed one lets the feed wrap seamlessly.
fn circular_workload() -> (Vec<(Point3, f64)>, LocalizerConfig) {
    workload(
        &CircularArc::new(
            Point3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            0.3,
            0.0,
            std::f64::consts::TAU,
        )
        .expect("valid arc"),
    )
}

/// An endless read feed over a trace that keeps consecutive reads
/// spatially adjacent (unwrapping needs a continuous track): it wraps
/// around a closed track and ping-pongs along an open one.
struct Feed<'a> {
    reads: &'a [(Point3, f64)],
    closed: bool,
    tick: usize,
}

impl Feed<'_> {
    fn push(&mut self, window: &mut SlidingWindow, reads: usize) {
        let n = self.reads.len();
        for _ in 0..reads {
            let i = if self.closed {
                self.tick % n
            } else {
                let j = self.tick % (2 * n);
                if j < n {
                    j
                } else {
                    2 * n - 1 - j
                }
            };
            self.tick += 1;
            let (p, phase) = self.reads[i];
            window.push(self.tick as f64 * 0.01, p, phase);
        }
    }
}

fn run() -> Results {
    let (m, config) = linear_workload();
    let linear = Localizer2d::new(config.clone());
    let grid = Localizer2d::new(LocalizerConfig {
        solver: SolverKind::Grid(GridConfig::default()),
        ..config.clone()
    });
    let adaptive = AdaptiveConfig::default();
    let mut ws = Workspace::new();
    let mut out = AdaptiveOutcome::default();

    let single_solve_ns = bench(51, || {
        time_ns(|| {
            linear.locate_in(&m, &mut ws).expect("solvable trace");
        })
    });
    let sweep_ns = bench(21, || {
        time_ns(|| {
            linear
                .locate_adaptive_into(&m, &adaptive, &mut ws, &mut out)
                .expect("solvable sweep");
        })
    });
    let sweep_grid_ns = bench(5, || {
        time_ns(|| {
            grid.locate_adaptive_into(&m, &adaptive, &mut ws, &mut out)
                .expect("solvable sweep");
        })
    });

    // Backend solves run on the paper's 0.8 m scanning range: the range
    // restriction keeps the off-beam tail out, which the linear backend
    // would down-weight but the unweighted likelihood would not.
    let profile = {
        let mut p = PhaseProfile::from_wrapped(&m, config.wavelength).expect("valid trace");
        p.smooth(config.smoothing_window);
        p.restrict_x(-0.4, 0.4)
    };
    let parity_m = {
        let ls = linear
            .locate_profile_in(&profile, &mut ws)
            .expect("solvable trace");
        let lg = grid
            .locate_profile_in(&profile, &mut ws)
            .expect("solvable trace");
        ls.position.distance(lg.position)
    };
    let linear_solve_ns = bench(51, || {
        time_ns(|| {
            linear
                .locate_profile_in(&profile, &mut ws)
                .expect("solvable trace");
        })
    });
    let grid_solve_ns = bench(21, || {
        time_ns(|| {
            grid.locate_profile_in(&profile, &mut ws)
                .expect("solvable trace");
        })
    });

    // Streaming re-solve in steady state: push one read into a full
    // window and re-run the windowed locate, ping-ponging over the middle
    // 768 reads so the geometry stays near boresight.
    let span = 768.min(m.len());
    let start = (m.len() - span) / 2;
    let mut feed = Feed {
        reads: &m[start..start + span],
        closed: false,
        tick: 0,
    };
    let mut window = SlidingWindow::new(WINDOW).expect("valid capacity");
    feed.push(&mut window, span);
    let streaming_resolve_ns = bench(51, || {
        feed.push(&mut window, 1);
        time_ns(|| {
            locate_window_in(&config, SolveSpace::TwoD, &window, &mut ws).expect("solvable window");
        })
    });

    let (c, circle_config) = circular_workload();
    let (replay_resolve_ns, incremental_resolve_ns) = resolve_medians(&c, &circle_config);
    let kernels = kernel_medians();

    Results {
        medians: [
            single_solve_ns,
            sweep_ns,
            irls_iteration_ns(),
            streaming_resolve_ns,
            linear_solve_ns,
            grid_solve_ns,
            sweep_grid_ns,
            replay_resolve_ns,
            incremental_resolve_ns,
            kernels[0],
            kernels[1],
            kernels[2],
            kernels[3],
            kernels[4],
        ],
        parity_m,
        metrics_render_ns: metrics_render_ns(),
        sampler_tick_ns: sampler_tick_ns(),
    }
}

/// One IRLS reweight iteration on incremental normal equations the size
/// of a typical sweep cell (~200 rows, 3 columns): perturb a handful of
/// weights, as IRLS does once the residuals settle, and re-solve.
fn irls_iteration_ns() -> u64 {
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
    bench(201, || {
        time_ns(|| {
            tick += 1;
            for j in 0..8 {
                let idx = (tick * 13 + j * 17) % rows;
                weights[idx] = 0.5 + 0.5 * ((tick + j) % 7) as f64 / 7.0;
            }
            ne.set_weights(&weights).expect("valid weights");
            ne.solve().expect("well-conditioned system");
        })
    })
}

/// Steady-state re-solve medians `(replay, incremental)` on the circular
/// trace. Each sample pushes one cadence tick untimed — ingest costs the
/// same in both modes — and times the re-solve alone. Both paths consume
/// the identical read sequence, and the incremental median includes its
/// periodic resyncs: the steady-state cost, not a best-case delta tick.
fn resolve_medians(reads: &[(Point3, f64)], config: &LocalizerConfig) -> (u64, u64) {
    let space = SolveSpace::TwoD;
    let full_window = || {
        let mut feed = Feed {
            reads,
            closed: true,
            tick: 0,
        };
        let mut window = SlidingWindow::new(WINDOW).expect("valid capacity");
        feed.push(&mut window, WINDOW);
        (feed, window)
    };
    let mut ws = Workspace::new();

    let (mut feed, mut window) = full_window();
    let replay = bench(101, || {
        feed.push(&mut window, CADENCE);
        time_ns(|| {
            locate_window_in(config, space, &window, &mut ws).expect("solvable window");
        })
    });

    let (mut feed, mut window) = full_window();
    let mut state = IncrementalState::new();
    state
        .solve_window(&mut window, config, space, &mut ws)
        .expect("warm-up resync solves");
    let incremental = bench(401, || {
        feed.push(&mut window, CADENCE);
        time_ns(|| {
            state
                .solve_window(&mut window, config, space, &mut ws)
                .expect("solvable window");
        })
    });
    (replay, incremental)
}

/// Medians of the five SIMD kernels on [`KERNEL_N`]-sample inputs, in
/// [`MEDIANS`] order.
fn kernel_medians() -> [u64; 5] {
    let n = KERNEL_N;
    let kernel = |f: &mut dyn FnMut()| bench(201, || time_ns(&mut *f));

    // Wrapped phases along a steady sweep, ~0.12 rad between reads: the
    // few-revolutions-per-trace shape the fig16 rig produces.
    let wrapped: Vec<f64> = (0..n)
        .map(|i| {
            let theta = i as f64 * 0.12;
            (theta + std::f64::consts::PI).rem_euclid(std::f64::consts::TAU) - std::f64::consts::PI
        })
        .collect();
    let mut phases = wrapped.clone();
    let mut revs: Vec<f64> = Vec::new();
    let phase_unwrap = kernel(&mut || {
        phases.copy_from_slice(&wrapped);
        simd::phase_unwrap_in_place(&mut phases, &mut revs);
        black_box(phases[n - 1]);
    });

    // Moving-average smoothing at the pipeline's default window width.
    let mut prefix = vec![0.0_f64; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + wrapped[i];
    }
    let mut smoothed = vec![0.0_f64; n];
    let sliding_mean = kernel(&mut || {
        simd::sliding_mean_from_prefix(&prefix, 9, &mut smoothed);
        black_box(smoothed[n / 2]);
    });

    // Radical-line rows for the planar solve (k = 2), one row per pair
    // at the interval strategy's typical gap.
    let k = 2;
    let coords: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.37).sin()).collect();
    let deltas: Vec<f64> = (0..n)
        .map(|i| 1.0 + (i as f64 * 0.11).cos() * 0.2)
        .collect();
    let gap = 32;
    let pair_i: Vec<i32> = (0..n - gap).map(|i| i as i32).collect();
    let pair_j: Vec<i32> = (gap..n).map(|j| j as i32).collect();
    let rows = pair_i.len();
    let mut design = vec![0.0_f64; rows * (k + 1)];
    let mut rhs = vec![0.0_f64; rows];
    let radical_rows = kernel(&mut || {
        simd::radical_rows(
            &coords,
            n,
            k,
            &deltas,
            &pair_i,
            &pair_j,
            &mut design,
            &mut rhs,
        );
        black_box(rhs[rows - 1]);
    });

    // Gram accumulation of that planar system (N = k + 1 = 3).
    let weights = vec![1.0_f64; rows];
    let gram_accumulate = kernel(&mut || {
        let (gram, grhs) = simd::gram_fixed::<3>(&design, &rhs, &weights);
        black_box(gram[2][2] + grhs[0]);
    });

    // IRLS weight kernel on non-positive exponents of residual scale.
    let exponents: Vec<f64> = (0..n).map(|i| -(i as f64 * 0.017) % 30.0).collect();
    let mut xs = exponents.clone();
    let exp_weights = kernel(&mut || {
        xs.copy_from_slice(&exponents);
        simd::exp_non_positive(&mut xs);
        black_box(xs[n - 1]);
    });

    [
        phase_unwrap,
        sliding_mean,
        radical_rows,
        gram_accumulate,
        exp_weights,
    ]
}

/// A registry shaped like a live fleet run: a handful of counters and
/// gauges, the fleet rollup gauges, and well-populated stage histograms
/// (a histogram renders one sample per non-zero bucket, so spread values
/// drive the render cost).
fn fleet_registry() -> lion_obs::Registry {
    let registry = lion_obs::Registry::new();
    registry.counter_add("engine.jobs", 4096);
    registry.counter_add("engine.failed", 3);
    registry.gauge_set("engine.workers", 8.0);
    for rule in [
        "residual_drift",
        "convergence_stall",
        "ingress_shed",
        "solve_latency",
        "solver_disagreement",
    ] {
        registry.gauge_set(&format!("fleet.rule.{rule}.firing"), 2.0);
    }
    for stage in [
        "unwrap",
        "smooth",
        "pairs",
        "solve",
        "adaptive",
        "job_busy",
        "queue_wait",
        "execute",
    ] {
        let name = format!("engine.stage.{stage}_ns");
        for i in 0..4096u64 {
            registry.histogram_record(&name, (i * 7919) % 10_000_000);
        }
    }
    registry
}

/// One `/metrics` scrape render: registry snapshot + Prometheus text.
fn metrics_render_ns() -> u64 {
    let registry = fleet_registry();
    let mut rendered = 0usize;
    let ns = bench(51, || {
        time_ns(|| {
            let text = lion_obs::export::to_prometheus(&registry.snapshot());
            rendered = black_box(text.len());
        })
    });
    assert!(rendered > 0, "render produced no exposition text");
    ns
}

/// One steady-state history-sampler tick: every counter and gauge
/// becomes a point, every histogram a sparse delta against the previous
/// snapshot. A manual clock advanced one period per sample keeps every
/// tick a real sample, and the warm-up absorbs the first-sample cost.
fn sampler_tick_ns() -> u64 {
    let registry = fleet_registry();
    let clock = lion_obs::ManualClock::new(0);
    let tsdb = std::sync::Arc::new(lion_obs::Tsdb::new(lion_obs::TsdbConfig::default()));
    let mut sampler = lion_obs::Sampler::new(tsdb.clone(), 1, clock.clone());
    let mut ticked = 0u64;
    let ns = bench(51, || {
        clock.advance(1_000_000_000);
        time_ns(|| {
            ticked = sampler.tick(&registry).expect("tick due");
        })
    });
    assert!(ticked > 0, "sampler never sampled");
    assert!(tsdb.stats().series > 0, "no series stored");
    ns
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    if !matches!(mode, None | Some("--write" | "--check")) || args.len() > 2 {
        eprintln!("usage: bench_tracked [--write [PATH] | --check [PATH]]");
        std::process::exit(2);
    }
    let path = args.get(1).map_or(DEFAULT_PATH, String::as_str);
    if mode == Some("--check") {
        lion_bench::benv::refuse_if_cross_machine(path);
    }
    let fresh = run();
    let json = fresh.to_json();
    println!("{json}");
    match mode {
        Some("--write") => {
            std::fs::write(path, format!("{json}\n")).expect("write baseline");
            eprintln!("wrote {path}");
        }
        Some("--check") => {
            let committed = std::fs::read_to_string(path)
                .map_err(|e| format!("read: {e}"))
                .and_then(|text| Results::parse(&text))
                .unwrap_or_else(|e| {
                    eprintln!("benchmark check FAILED: {path}: {e}");
                    std::process::exit(1);
                });
            let gates = check(&fresh, &committed);
            for (held, line) in &gates {
                eprintln!("check {line} [{}]", if *held { "ok" } else { "FAIL" });
            }
            if gates.iter().any(|(held, _)| !held) {
                eprintln!("benchmark check FAILED");
                std::process::exit(1);
            }
            eprintln!("benchmark check passed");
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A baseline every gate accepts, with the speedup at 2×.
    fn baseline() -> Results {
        let mut medians = [10_000; MEDIANS.len()];
        medians[0] = 150_000; // single_solve_ns
        medians[7] = 12_000; // replay_resolve_ns
        medians[8] = 6_000; // incremental_resolve_ns
        Results {
            medians,
            parity_m: 0.003,
            metrics_render_ns: 300_000,
            sampler_tick_ns: 13_000,
        }
    }

    fn set_median(r: &mut Results, name: &str, ns: u64) {
        let i = MEDIANS.iter().position(|&n| n == name).expect("tracked");
        r.medians[i] = ns;
    }

    fn failures(fresh: &Results, committed: &Results) -> Vec<String> {
        check(fresh, committed)
            .into_iter()
            .filter(|(held, _)| !held)
            .map(|(_, line)| line)
            .collect()
    }

    /// Asserts exactly one gate fails and its description starts with `what`.
    fn fails_only(fresh: &Results, committed: &Results, what: &str) {
        let failed = failures(fresh, committed);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].starts_with(what), "{failed:?}");
    }

    #[test]
    fn matching_run_passes_every_gate() {
        assert_eq!(failures(&baseline(), &baseline()), Vec::<String>::new());
    }

    #[test]
    fn median_beyond_3x_either_way_fails() {
        let committed = baseline();
        // Moving a median can also trip its budget or the speedup floor;
        // judge the ratio gate alone.
        let ratio_failed = |name: &str, ns: u64| {
            let mut fresh = committed.clone();
            set_median(&mut fresh, name, ns);
            failures(&fresh, &committed)
                .iter()
                .any(|l| l.starts_with(&format!("{name}: fresh {ns} ns vs committed")))
        };
        for name in MEDIANS {
            let c = committed.median(name);
            assert!(!ratio_failed(name, 3 * c), "{name} at 3x slower");
            assert!(!ratio_failed(name, c.div_ceil(3)), "{name} at 3x faster");
            assert!(ratio_failed(name, 3 * c + 3), "{name} beyond 3x slower");
            assert!(ratio_failed(name, c / 3 - 1), "{name} beyond 3x faster");
        }
    }

    #[test]
    fn single_solve_over_700us_fails() {
        let mut r = baseline();
        set_median(&mut r, "single_solve_ns", 700_000);
        assert!(failures(&r, &r).is_empty());
        set_median(&mut r, "single_solve_ns", 700_001);
        fails_only(&r, &r, "single_solve_ns: fresh 700001 ns, budget");
    }

    #[test]
    fn incremental_resolve_over_14672ns_fails() {
        let mut r = baseline();
        set_median(&mut r, "replay_resolve_ns", 30_000);
        set_median(&mut r, "incremental_resolve_ns", 14_672);
        assert!(failures(&r, &r).is_empty());
        set_median(&mut r, "incremental_resolve_ns", 14_673);
        fails_only(&r, &r, "incremental_resolve_ns: fresh 14673 ns, budget");
    }

    #[test]
    fn render_or_sampler_tick_over_5ms_fails() {
        let mut r = baseline();
        r.metrics_render_ns = 5_000_001;
        fails_only(
            &r,
            &baseline(),
            "metrics_render_ns: fresh 5000001 ns, budget",
        );
        let mut r = baseline();
        r.sampler_tick_ns = 5_000_001;
        fails_only(&r, &baseline(), "sampler_tick_ns: fresh 5000001 ns, budget");
    }

    #[test]
    fn parity_beyond_2cm_fails_fresh_or_committed() {
        let mut wide = baseline();
        wide.parity_m = 0.021;
        fails_only(&wide, &baseline(), "fresh parity_m");
        fails_only(&baseline(), &wide, "committed parity_m");
    }

    #[test]
    fn speedup_below_06x_committed_fails() {
        let committed = baseline();
        let mut fresh = committed.clone();
        // 2× committed; fresh 1.2× sits on the floor, just under fails.
        set_median(&mut fresh, "replay_resolve_ns", 7_200);
        assert!(failures(&fresh, &committed).is_empty());
        set_median(&mut fresh, "replay_resolve_ns", 7_190);
        fails_only(&fresh, &committed, "speedup");
    }

    #[test]
    fn document_round_trips_and_rejects_drift() {
        let r = baseline();
        let json = r.to_json();
        assert_eq!(Results::parse(&json), Ok(r));

        let err = Results::parse(&json.replace("lion-bench", "lion-bench-5")).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let err =
            Results::parse(&json.replace("\"sweep_grid_ns\"", "\"sweep_linear_ns\"")).unwrap_err();
        assert!(err.contains("sweep_grid_ns"), "{err}");
        let err = Results::parse(&json.replace("\"parity_m\"", "\"parity\"")).unwrap_err();
        assert!(err.contains("parity_m"), "{err}");
    }

    #[test]
    fn committed_baseline_parses_and_passes_against_itself() {
        let text = include_str!("../../../../BENCH.json");
        let committed = Results::parse(text).expect("BENCH.json matches the schema");
        assert_eq!(failures(&committed, &committed), Vec::<String>::new());
    }
}
