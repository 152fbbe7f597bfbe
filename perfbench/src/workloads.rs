//! Set-up, the untraced end-to-end measurement of each workload, and the
//! traced per-layer run.
//!
//! Every workload is a closed loop on the calling thread: each call
//! starts when the previous one returns. A first pass runs every input
//! once and scores it against the planted phase centers; then a fixed
//! subset is timed over and over until the run's time is up, and every
//! repetition must reproduce the first pass bit for bit, so a timing
//! always belongs to a checked answer.

use std::borrow::Cow;
use std::hint::black_box;
use std::time::{Duration, Instant};

use lion::core::{
    locate_window_in, AdaptiveConfig, AdaptiveTrial, CoreError, Estimate, Localizer2d, SolveSpace,
    Workspace,
};
use lion::engine::Engine;
use lion::geom::Point3;
use lion::stream::{StreamConfig, StreamLocalizer};

use crate::inputs::{self, elapsed_ns, Input, Workload};
use crate::outcome::Tally;
use crate::replay::{self, Replayer, STAGES};
use crate::spans::Spans;
use crate::stats;

/// Flight-recorder capacity the portal fleet installs.
const RECORDER_CAPACITY: usize = 1 << 14;
/// Inputs each set-up warms the caches with before timing.
const WARMUP_OPS: usize = 8;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable findings, printed to stderr.
    pub notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// A workload's inputs and the objects its operations call.
pub struct Setup {
    workload: Workload,
    /// The generated tag passes.
    pub passes: Vec<Input>,
    /// Simulation time of each pass, nanoseconds.
    scan_ns: Vec<u64>,
    localizers: Vec<Localizer2d>,
    stream: StreamConfig,
    /// Fans the adaptive sweep over as many workers as the machine has
    /// cores.
    engine: Engine,
    adaptive: AdaptiveConfig,
}

/// Simulates the inputs, builds every configuration, and warms up.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let mut scan_ns = Vec::new();
    let passes = inputs::generate(workload, seed, &mut scan_ns);
    let localizers = passes
        .iter()
        .map(|p| Localizer2d::new(p.config.clone()))
        .collect();
    let setup = Setup {
        workload,
        passes,
        scan_ns,
        localizers,
        stream: inputs::stream_config(),
        engine: Engine::builder()
            .workers(std::thread::available_parallelism().map_or(1, usize::from))
            .build()
            .expect("valid worker count"),
        adaptive: AdaptiveConfig::default(),
    };
    match setup.batch_op() {
        Some(mut op) => {
            for i in 0..WARMUP_OPS.min(setup.passes.len()) {
                let _ = black_box(op(i));
            }
        }
        None => {
            let mut stream = StreamLocalizer::new(setup.stream.clone()).expect("valid config");
            for read in &setup.passes[0].reads {
                let _ = black_box(stream.push(*read));
            }
        }
    }
    setup
}

/// One operation of a batch workload, by pass index.
type BatchOp<'a> = Box<dyn FnMut(usize) -> Result<Estimate, CoreError> + 'a>;

impl Setup {
    /// The operation of a batch workload: one `locate_in` with a reused
    /// workspace, or one engine sweep. `None` for the portal feeds, whose
    /// operations are the pushes that emit an estimate.
    fn batch_op(&self) -> Option<BatchOp<'_>> {
        match self.workload {
            Workload::EnvelopeSolve | Workload::LongTrack => {
                let mut ws = Workspace::new();
                Some(Box::new(move |i| {
                    self.localizers[i].locate_in(black_box(&self.passes[i].measurements), &mut ws)
                }))
            }
            Workload::AdaptiveSweep => Some(Box::new(move |i| {
                let p = &self.passes[i];
                self.engine
                    .locate_adaptive_2d(black_box(&p.measurements), &p.config, &self.adaptive)
                    .map(|outcome| outcome.estimate)
            })),
            Workload::PortalStream => None,
        }
    }
}

/// The bits of an estimate a repeated operation must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Estimate {
        position: [u64; 3],
        mean_residual: u64,
        iterations: usize,
        equation_count: usize,
    },
    Refused(&'static str),
}

impl Answer {
    fn of(result: &Result<Estimate, CoreError>) -> Answer {
        match result {
            Ok(e) => Answer::Estimate {
                position: [
                    e.position.x.to_bits(),
                    e.position.y.to_bits(),
                    e.position.z.to_bits(),
                ],
                mean_residual: e.mean_residual.to_bits(),
                iterations: e.iterations,
                equation_count: e.equation_count,
            },
            Err(e) => Answer::Refused(e.kind()),
        }
    }

    fn position(result: &Result<Estimate, CoreError>) -> Option<Point3> {
        result.as_ref().ok().map(|e| e.position)
    }
}

/// Fails the run when operation `index` did not reproduce its first answer.
fn check_repeat(
    report: &mut Report,
    first: Answer,
    index: usize,
    result: &Result<Estimate, CoreError>,
) {
    let answer = Answer::of(result);
    if answer != first {
        report.fail(format!(
            "operation {index} changed its answer between passes: {first:?} vs {answer:?}"
        ));
    }
}

/// Operations a run times: enough for p99 to have ten beyond it, few
/// enough that each repeats many times within a run. They are spread
/// evenly over the inputs, so they sample every depth.
const TIMED_OPS: usize = 1024;
/// Portal feeds a run times (about 1300 pushes that emit an estimate).
const TIMED_FEEDS: usize = 96;

/// Per-operation latencies and per-unit wall times of an untraced run.
///
/// The run cycles the same timed inputs, so every operation repeats. Its
/// latency is its fastest repetition: other processes on the machine
/// only ever add time (preemption, contention for the shared caches, in
/// bursts lasting seconds), and the fastest repetition is the one they
/// disturbed least. The run's percentiles are taken over the operations,
/// so they still describe the workload's inputs (some converge late, some
/// hit the IRLS cap). Throughput is taken the same way: the work done
/// divided by the sum of each unit's fastest repetition.
struct Timings {
    /// Latency repetitions of each operation, microseconds.
    per_op_us: Vec<Vec<f64>>,
    /// Throughput units (an operation, or a portal feed): the work one
    /// repetition does and each repetition's wall time, seconds.
    units: Vec<(usize, Vec<f64>)>,
    timed: u64,
}

impl Timings {
    fn new() -> Self {
        Timings {
            per_op_us: Vec::new(),
            units: Vec::new(),
            timed: 0,
        }
    }

    /// Records one repetition of operation `index`.
    fn latency(&mut self, index: usize, ns: u64) {
        if self.per_op_us.len() <= index {
            self.per_op_us.resize_with(index + 1, Vec::new);
        }
        self.per_op_us[index].push(ns as f64 / 1e3);
        self.timed += 1;
    }

    /// Records one repetition of throughput unit `index`, which did
    /// `work` units of work.
    fn unit(&mut self, index: usize, work: usize, ns: u64) {
        if self.units.len() <= index {
            self.units.resize_with(index + 1, || (work, Vec::new()));
        }
        self.units[index].1.push(ns as f64 / 1e9);
    }

    /// Work per second at every unit's fastest repetition.
    fn rate(&self) -> f64 {
        let work: usize = self.units.iter().map(|(work, _)| work).sum();
        let secs: f64 = self.units.iter().map(|(_, reps)| fastest(reps)).sum();
        work as f64 / secs
    }
}

/// The smallest of `values` (`+inf` when empty).
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Fills the end-to-end metrics of an untraced run.
fn end_to_end(report: &mut Report, setup_s: f64, timings: Timings, tally: &Tally) {
    report.attempted = timings.timed;
    let per_op = stats::sorted(timings.per_op_us.iter().map(|reps| fastest(reps)).collect());
    let p99 = stats::supported_percentile(&per_op, 99.0);
    if p99.is_none() {
        report.fail(format!(
            "{} timed operations leave fewer than {} beyond p99",
            per_op.len(),
            stats::MIN_BEYOND
        ));
    }
    report.notes.push(format!(
        "{} timed calls over {} operations",
        timings.timed,
        per_op.len(),
    ));
    if tally.errors_m.is_empty() {
        report.fail("no operation returned an estimate".to_string());
    }
    report.correct = report.failed == 0;
    report.push("setup_s", setup_s, "s");
    if report.correct {
        report.push("latency_p50_us", stats::percentile(&per_op, 50.0), "us");
        report.push("latency_p99_us", p99.unwrap_or(f64::NAN), "us");
        report.push("throughput_per_s", timings.rate(), "1/s");
    }
    report.push("error_p50_mm", tally.error_mm(50.0), "mm");
    report.push("error_p90_mm", tally.error_mm(90.0), "mm");
    report.notes.push(format!(
        "outcomes over {} attempts: {} ok, {} misreport, {} refused",
        tally.attempts(),
        tally.ok,
        tally.misreport,
        tally.refused
    ));
}

/// Untraced end-to-end run of `setup`'s workload for `seconds`.
pub fn measure(setup: &Setup, setup_s: f64, seconds: f64) -> Report {
    let budget = Duration::from_secs_f64(seconds);
    match setup.batch_op() {
        Some(op) => measure_batch(setup, setup_s, budget, op),
        None => measure_stream(setup, setup_s, budget),
    }
}

/// One batch operation per input: every input once, scored, then the
/// timed subset over and over.
fn measure_batch(setup: &Setup, setup_s: f64, budget: Duration, mut op: BatchOp<'_>) -> Report {
    let mut report = Report::default();
    let mut tally = Tally::default();
    let reference: Vec<Answer> = setup
        .passes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let result = op(i);
            tally.record(Answer::position(&result), p.truth);
            Answer::of(&result)
        })
        .collect();
    let n = setup.passes.len();
    let timed: Vec<usize> = (0..TIMED_OPS.min(n))
        .map(|k| k * n / TIMED_OPS.min(n))
        .collect();
    let mut timings = Timings::new();
    let start = Instant::now();
    while timings.timed == 0 || start.elapsed() < budget {
        for (k, &i) in timed.iter().enumerate() {
            let t = Instant::now();
            let result = op(i);
            let dt = elapsed_ns(t);
            timings.latency(k, dt);
            timings.unit(k, 1, dt);
            check_repeat(&mut report, reference[i], i, &result);
        }
    }
    if setup.workload == Workload::AdaptiveSweep {
        let workers = setup.engine.workers();
        report.notes.push(format!("engine workers: {workers}"));
    }
    end_to_end(&mut report, setup_s, timings, &tally);
    report
}

/// The portal feeds pushed read by read, with the flight recorder
/// installed as the fleet runs it. A first pass pushes every feed,
/// scores every estimate, and checks each against a batch `locate_in`
/// over the same window (replay parity). The timed feeds are then pushed
/// over and over, alternating between timing each push (latency of the
/// pushes that emit an estimate) and timing whole feeds (reads per
/// second), so per-read clock reads do not count against throughput.
fn measure_stream(setup: &Setup, setup_s: f64, budget: Duration) -> Report {
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut reference = Vec::new();
    // One pipeline per portal, reset between belt passes as a portal's
    // would be: the working set stays that of twelve streams.
    let mut streams: Vec<StreamLocalizer> = (0..inputs::PORTALS)
        .map(|_| StreamLocalizer::new(setup.stream.clone()).expect("valid config"))
        .collect();
    let batch = Localizer2d::new(setup.stream.localizer.clone());
    let mut batch_ws = Workspace::new();
    let mut window = Vec::new();
    let _ = lion::obs::install_flight_recorder(RECORDER_CAPACITY);
    for (i, p) in setup.passes.iter().enumerate() {
        let stream = &mut streams[i % inputs::PORTALS];
        stream.reset();
        for read in &p.reads {
            let result = match stream.push(*read) {
                Ok(None) => continue,
                Ok(Some(est)) => Ok(est.batch),
                Err(e) => Err(e),
            };
            stream.window().write_measurements_into(&mut window);
            let parity = batch.locate_in(&window, &mut batch_ws);
            if Answer::of(&parity) != Answer::of(&result) {
                report.fail(format!(
                    "tick {}: stream {:?} != batch {:?} over the same window",
                    reference.len(),
                    Answer::of(&result),
                    Answer::of(&parity)
                ));
            }
            tally.record(Answer::position(&result), p.truth);
            reference.push(Answer::of(&result));
        }
    }
    let feeds = &setup.passes[..TIMED_FEEDS.min(setup.passes.len())];
    let mut timings = Timings::new();
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < 2 || start.elapsed() < budget {
        let mut tick = 0usize;
        for (i, p) in feeds.iter().enumerate() {
            let stream = &mut streams[i % inputs::PORTALS];
            stream.reset();
            if pass % 2 == 1 {
                let t = Instant::now();
                for read in &p.reads {
                    let _ = black_box(stream.push(*read));
                }
                timings.unit(i, p.reads.len(), elapsed_ns(t));
                continue;
            }
            for read in &p.reads {
                let t = Instant::now();
                let pushed = stream.push(*read);
                let dt = elapsed_ns(t);
                let result = match pushed {
                    Ok(None) => continue,
                    Ok(Some(est)) => Ok(est.batch),
                    Err(e) => Err(e),
                };
                timings.latency(tick, dt);
                check_repeat(&mut report, reference[tick], tick, &result);
                tick += 1;
            }
        }
        pass += 1;
    }
    let recorder = lion::obs::uninstall_flight_recorder();
    report.notes.push(format!(
        "{pass} passes over {} feeds; recorder dropped {} records",
        feeds.len(),
        recorder.map_or(0, |r| r.drain().total_dropped())
    ));
    end_to_end(&mut report, setup_s, timings, &tally);
    report
}

/// Seconds of a traced run's budget each phase gets: the solve-stage
/// replay, the stream layer, the adaptive layer, the recorder on/off.
const PHASE_SHARES: [f64; 4] = [0.5, 0.2, 0.2, 0.1];

/// Traced per-layer run: replays the workload's operations through each
/// layer's public functions with a span around every call.
pub fn measure_traced(setup: &Setup, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new();
    let budget = |i: usize| Duration::from_secs_f64(seconds * PHASE_SHARES[i]);

    let scan_ms = stats::median(
        &setup
            .scan_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    report.push("sim.scan_ms", scan_ms, "ms");

    let tally = score(setup);
    report.push("ok_frac", tally.share(tally.ok), "ratio");
    report.push("misreport_frac", tally.share(tally.misreport), "ratio");

    let portal = Localizer2d::new(setup.stream.localizer.clone());
    let solves = solve_inputs(setup, &portal);
    trace_solves(&mut report, &mut spans, &solves, budget(0));
    trace_stream(&mut report, &mut spans, setup, budget(1));
    trace_sweeps(&mut report, &mut spans, setup, budget(2));
    trace_recorder(&mut report, setup, budget(3));

    report.correct = report.failed == 0;
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("spans-{}.json", setup.workload.name()));
    match spans.write_chrome_trace(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans; log written to {}",
            spans.closed(),
            path.display()
        )),
        Err(e) => report.notes.push(format!("spans not written: {e}")),
    }
    report
}

/// Pushes every portal feed once through a reset stream, calling `tick`
/// after each push that emits an estimate or fails.
fn for_each_tick(setup: &Setup, mut tick: impl FnMut(&Input, &StreamLocalizer, Option<Point3>)) {
    let mut stream = StreamLocalizer::new(setup.stream.clone()).expect("valid config");
    for p in &setup.passes {
        stream.reset();
        for read in &p.reads {
            match stream.push(*read) {
                Ok(None) => {}
                Ok(Some(est)) => tick(p, &stream, Some(est.position)),
                Err(_) => tick(p, &stream, None),
            }
        }
    }
}

/// Scores one untimed pass of the workload's operations.
fn score(setup: &Setup) -> Tally {
    let mut tally = Tally::default();
    match setup.batch_op() {
        Some(mut op) => {
            for (i, p) in setup.passes.iter().enumerate() {
                tally.record(Answer::position(&op(i)), p.truth);
            }
        }
        None => for_each_tick(setup, |p, _, position| {
            tally.record(position, p.truth);
        }),
    }
    tally
}

/// One batch solve of the traced run: its input and its localizer.
type Solve<'a> = (Cow<'a, [(Point3, f64)]>, &'a Localizer2d);

/// The batch solves a workload performs: its passes, or — on the portal
/// feeds — the windows of every estimate a stream pass emits.
fn solve_inputs<'a>(setup: &'a Setup, portal: &'a Localizer2d) -> Vec<Solve<'a>> {
    if setup.workload != Workload::PortalStream {
        return setup
            .passes
            .iter()
            .zip(&setup.localizers)
            .map(|(p, loc)| (Cow::Borrowed(p.measurements.as_slice()), loc))
            .collect();
    }
    let mut windows = Vec::new();
    for_each_tick(setup, |_, stream, _| {
        let mut window = Vec::new();
        stream.window().write_measurements_into(&mut window);
        windows.push((Cow::Owned(window), portal));
    });
    windows
}

/// Phase A: every solve untraced through `locate_in`, then replayed
/// stage by stage; the replay must reproduce the batch result.
fn trace_solves(report: &mut Report, spans: &mut Spans, solves: &[Solve<'_>], budget: Duration) {
    let mut ws = Workspace::new();
    let mut replayer = Replayer::new();
    let mut untraced_us = Vec::new();
    let mut replay_us = Vec::new();
    let (mut iterations, mut pair_counts, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    let (mut solved, mut at_cap) = (0u64, 0u64);
    let start = Instant::now();
    let mut first_pass = true;
    while first_pass || start.elapsed() < budget {
        for (i, (m, loc)) in solves.iter().enumerate() {
            let t = Instant::now();
            let batch = loc.locate_in(black_box(m), &mut ws);
            untraced_us.push(elapsed_ns(t) as f64 / 1e3);
            spans.enter("solve.replay");
            let replayed = replayer.run(black_box(m), loc.config(), spans);
            replay_us.push(spans.exit_as("solve.replay") as f64 / 1e3);
            report.attempted += 1;
            if !replay::agrees(&batch, &replayed) {
                report.fail(format!(
                    "solve {i}: replay {replayed:?} != locate_in {batch:?}"
                ));
            }
            if let (true, Ok(r)) = (first_pass, &replayed) {
                solved += 1;
                at_cap += u64::from(!r.converged);
                iterations.push(r.iterations as f64);
                pair_counts.push(r.pairs as f64);
                rows.push(r.equation_count as f64);
            }
        }
        first_pass = false;
    }
    let locate_us = stats::median(&untraced_us);
    let stage_sum: f64 = STAGES.iter().map(|s| spans.median_self_us(s)).sum();
    let stage = |name: &str| spans.median_self_us(name);
    report.push("preprocess.unwrap_us", stage("preprocess.unwrap"), "us");
    report.push("preprocess.smooth_us", stage("preprocess.smooth"), "us");
    report.push("frame.us", stage("frame"), "us");
    report.push("pairs.us", stage("pairs"), "us");
    report.push("pairs.count", stats::median(&pair_counts), "count");
    report.push("assemble.us", stage("assemble"), "us");
    report.push("assemble.rows", stats::median(&rows), "count");
    report.push("irls.us", stage("irls"), "us");
    report.push("irls.iterations_p50", stats::median(&iterations), "count");
    report.push(
        "irls.hit_cap_frac",
        at_cap as f64 / solved.max(1) as f64,
        "ratio",
    );
    report.push("covariance.us", stage("covariance"), "us");
    report.push("locate.us", locate_us, "us");
    report.push("attribution_ratio", stage_sum / locate_us, "ratio");
    report.push(
        "trace.overhead_us",
        stats::median(&replay_us) - locate_us,
        "us",
    );
}

/// Phase B: the passes' reads pushed through the stream. Each push that
/// emits is followed by a `locate_window_in` on the same window.
fn trace_stream(report: &mut Report, spans: &mut Spans, setup: &Setup, budget: Duration) {
    let mut stream = StreamLocalizer::new(setup.stream.clone()).expect("valid config");
    let mut ws = Workspace::new();
    let (mut due, mut failed, mut late) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut fed = 0usize;
    'feeds: loop {
        for p in &setup.passes {
            if fed >= setup.passes.len().min(12) && start.elapsed() >= budget {
                break 'feeds;
            }
            fed += 1;
            stream.reset();
            let late_before = stream.rejected_late();
            let reads = p.stream_reads();
            spans.enter("stream.feed");
            for read in reads.iter() {
                spans.enter("stream.push");
                let pushed = stream.push(*read);
                if matches!(pushed, Ok(None)) {
                    spans.exit_as("stream.push");
                    continue;
                }
                spans.exit_as("stream.tick");
                due += 1;
                failed += u64::from(pushed.is_err());
                spans.time("stream.solve", || {
                    let _ = black_box(locate_window_in(
                        &setup.stream.localizer,
                        SolveSpace::TwoD,
                        stream.window(),
                        &mut ws,
                    ));
                });
            }
            spans.exit_as("stream.feed");
            late += stream.rejected_late() - late_before;
        }
    }
    report.push(
        "stream.push_ns",
        spans.median_self_us("stream.push") * 1e3,
        "ns",
    );
    report.push(
        "stream.solve_us",
        spans.median_self_us("stream.solve"),
        "us",
    );
    report.push(
        "stream.solve_fail_frac",
        failed as f64 / due.max(1) as f64,
        "ratio",
    );
    report.push("stream.late_rejected", late as f64, "count");
}

/// Phase C: the adaptive sweep as plan → cells → finish on this thread,
/// then the same sweep through the engine, which must agree bit for bit.
fn trace_sweeps(report: &mut Report, spans: &mut Spans, setup: &Setup, budget: Duration) {
    let mut ws = Workspace::new();
    let workers = setup.engine.workers() as f64;
    let (mut efficiency, mut cells) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut swept = 0usize;
    'sweeps: loop {
        for (i, (p, loc)) in setup.passes.iter().zip(&setup.localizers).enumerate() {
            if swept >= 4 && start.elapsed() >= budget {
                break 'sweeps;
            }
            swept += 1;
            spans.enter("adaptive.sweep");
            let plan = spans.time("adaptive.plan", || {
                loc.sweep_plan(&p.measurements, &setup.adaptive, &mut ws)
            });
            let Ok(plan) = plan else {
                spans.exit_as("adaptive.sweep");
                continue;
            };
            let results: Vec<Result<AdaptiveTrial, CoreError>> = (0..plan.cell_count())
                .map(|cell| spans.time("adaptive.cell", || plan.solve_cell(cell, &mut ws)))
                .collect();
            let outcome = spans.time("adaptive.finish", || plan.finish(results));
            let busy_ns = spans.exit_as("adaptive.sweep") as f64;
            let t = Instant::now();
            let engine =
                setup
                    .engine
                    .locate_adaptive_2d(&p.measurements, &p.config, &setup.adaptive);
            let wall_ns = elapsed_ns(t) as f64;
            efficiency.push(busy_ns / (workers * wall_ns));
            cells.push(plan.cell_count() as f64);
            report.attempted += 1;
            let ours = outcome.map(|o| o.estimate);
            let theirs = engine.map(|o| o.estimate);
            if Answer::of(&ours) != Answer::of(&theirs) {
                report.fail(format!(
                    "sweep {i}: engine {theirs:?} != sequential {ours:?}"
                ));
            }
        }
    }
    report.push(
        "adaptive.plan_us",
        spans.median_self_us("adaptive.plan"),
        "us",
    );
    report.push(
        "adaptive.cell_us",
        spans.median_self_us("adaptive.cell"),
        "us",
    );
    report.push(
        "adaptive.finish_us",
        spans.median_self_us("adaptive.finish"),
        "us",
    );
    report.push("adaptive.cells", stats::median(&cells), "count");
    report.push("engine.parallel_eff", stats::median(&efficiency), "ratio");
}

/// Phase D: the passes' reads streamed with the flight recorder off and
/// on, alternating, plus the recorder's record and drop counts for one
/// pass with the fleet's capacity.
fn trace_recorder(report: &mut Report, setup: &Setup, budget: Duration) {
    let feeds: Vec<_> = setup
        .passes
        .iter()
        .take(12)
        .map(Input::stream_reads)
        .collect();
    let mut stream = StreamLocalizer::new(setup.stream.clone()).expect("valid config");
    let run_feeds = |stream: &mut StreamLocalizer| -> (f64, u64) {
        let t = Instant::now();
        let mut ticks = 0;
        for reads in &feeds {
            stream.reset();
            for read in reads.iter() {
                ticks += u64::from(!matches!(black_box(stream.push(*read)), Ok(None)));
            }
        }
        (t.elapsed().as_secs_f64(), ticks)
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let (mut records, mut dropped, mut ticks) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while off.len() < 3 || start.elapsed() < budget {
        off.push(run_feeds(&mut stream).0);
        let recorder = lion::obs::install_flight_recorder(RECORDER_CAPACITY);
        let (wall, emitted) = run_feeds(&mut stream);
        on.push(wall);
        lion::obs::uninstall_flight_recorder();
        let tail = recorder.drain();
        records = tail.records().len() as u64 + tail.total_dropped();
        dropped = tail.total_dropped();
        ticks = emitted;
    }
    let (off, on) = (stats::median(&off), stats::median(&on));
    report.push("obs.recorder_cost_pct", (on - off) / off * 100.0, "%");
    report.push(
        "obs.spans_per_tick",
        records as f64 / ticks.max(1) as f64,
        "count",
    );
    report.push("obs.dropped", dropped as f64, "count");
}
