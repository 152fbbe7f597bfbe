//! Fleet-wide health rollups and SLO budgets.
//!
//! The [`crate::Doctor`] judges **one** stream. A deployment runs
//! thousands (RF-CHORD-style logistics portals: many antennas, sustained
//! read traffic), and an operator cannot read a thousand
//! [`HealthReport`]s — they need the rollup: how many streams are
//! healthy, which rules are firing where, who the worst offenders are,
//! and whether the fleet is still inside its latency/error objectives.
//!
//! Two pieces:
//!
//! - [`FleetDoctor`] — consumes per-stream [`HealthReport`]s
//!   ([`FleetDoctor::ingest`]) and per-solve latency/failure samples
//!   ([`FleetDoctor::observe_solve`], [`FleetDoctor::observe_failure`]),
//!   and produces a deterministic [`FleetReport`]: per-rule firing
//!   counts with worst-offender stream ids, healthy/degraded/critical
//!   stream totals, and p50/p99 rollups of per-stream residual-drift
//!   ratio and solve-latency p99 built on the exact-merge
//!   [`Histogram`].
//! - [`SloTracker`] — a rolling window of solve outcomes scored against
//!   a latency objective and an error budget: the fraction of solves
//!   within the objective, the failure rate broken down by error kind
//!   (the `failures_by_kind` taxonomy), and the **burn rate** — failure
//!   rate divided by budget, so `> 1` means the budget is being spent
//!   faster than it accrues.
//!
//! A process-wide [`TelemetryHub`] carries one `FleetDoctor` for the
//! scrape server ([`crate::http`]) and the engine to share. Like the
//! flight recorder, the hub sits behind a relaxed-atomic gate:
//! [`telemetry_hub`] costs one atomic load when nothing is installed,
//! so the streaming hot path stays instrumented unconditionally.
//!
//! Rollups are order-insensitive by construction — counts are sums,
//! distributions are exact histogram merges, and worst-offender ties
//! break on the smaller stream id — so a fleet ingested in any stream
//! order yields the same report.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::alert::{AlertEngine, AlertExpr, AlertRule, RecordingRule};
use crate::doctor::{HealthReport, RuleStatus};
use crate::hist::Histogram;
use crate::registry::Registry;
use crate::tsdb::{SampleClock, Sampler, Tsdb, TsdbConfig, WallClock};

/// Scale for recording the dimensionless residual-drift ratio into a
/// `u64` histogram: 1.0 → 1000.
const RATIO_SCALE: f64 = 1e3;

/// Rolling-window service-level objective for the fleet's solves.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Solves per rolling window (≥ 1; default 1024).
    pub window: usize,
    /// A solve slower than this misses the latency objective (default
    /// 1 ms — generous against the 5.5 µs `streaming_resolve_ns` median
    /// committed in `BENCH.json`).
    pub latency_objective_ns: u64,
    /// Fraction of solves allowed to fail or miss the objective before
    /// the budget is exhausted (default 0.01, i.e. 99% objective).
    pub error_budget: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            window: 1024,
            latency_objective_ns: 1_000_000,
            error_budget: 0.01,
        }
    }
}

/// One solve outcome as the SLO window retains it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SloSample {
    /// A solve that completed in the given wall time.
    Ok { latency_ns: u64 },
    /// A solve that failed, tagged with its `failures_by_kind` key.
    Failed { kind: String },
}

/// Rolling-window latency objective and error-budget burn rate.
///
/// Feed one [`SloTracker::observe_solve`] per completed solve and one
/// [`SloTracker::observe_failure`] per failed solve; read the verdict
/// with [`SloTracker::report`].
#[derive(Debug, Clone)]
pub struct SloTracker {
    config: SloConfig,
    recent: VecDeque<SloSample>,
    total: u64,
}

/// A point-in-time SLO verdict over the rolling window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Solves (ok + failed) currently in the window.
    pub window_len: u64,
    /// Solves ever observed.
    pub total: u64,
    /// The latency objective compared against, nanoseconds.
    pub latency_objective_ns: u64,
    /// Fraction of windowed solves that completed within the objective
    /// (failed solves count as misses). 1.0 on an empty window.
    pub attainment: f64,
    /// The configured error budget (allowed miss fraction).
    pub error_budget: f64,
    /// Budget consumption rate: miss fraction / budget. Above 1.0 the
    /// budget is being spent faster than it accrues.
    pub burn_rate: f64,
    /// Windowed failure counts by error kind, sorted by kind.
    pub failures_by_kind: Vec<(String, u64)>,
}

impl SloReport {
    /// Renders the report as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let failures: Vec<String> = self
            .failures_by_kind
            .iter()
            .map(|(kind, n)| format!("\"{}\":{n}", crate::json::escape(kind)))
            .collect();
        format!(
            "{{\"window_len\":{},\"total\":{},\"latency_objective_ns\":{},\
             \"attainment\":{},\"error_budget\":{},\"burn_rate\":{},\
             \"failures_by_kind\":{{{}}}}}",
            self.window_len,
            self.total,
            self.latency_objective_ns,
            fmt_f64(self.attainment),
            fmt_f64(self.error_budget),
            fmt_f64(self.burn_rate),
            failures.join(","),
        )
    }
}

impl SloTracker {
    /// Creates a tracker (window clamped to ≥ 1, budget to a positive
    /// minimum so the burn rate stays finite).
    pub fn new(mut config: SloConfig) -> SloTracker {
        config.window = config.window.max(1);
        config.error_budget = config.error_budget.max(1e-9);
        SloTracker {
            config,
            recent: VecDeque::new(),
            total: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    fn push(&mut self, sample: SloSample) {
        self.total = self.total.saturating_add(1);
        self.recent.push_back(sample);
        if self.recent.len() > self.config.window {
            self.recent.pop_front();
        }
    }

    /// Records one completed solve.
    pub fn observe_solve(&mut self, latency_ns: u64) {
        self.push(SloSample::Ok { latency_ns });
    }

    /// Records one failed solve under its `failures_by_kind` key.
    pub fn observe_failure(&mut self, kind: &str) {
        self.push(SloSample::Failed {
            kind: kind.to_string(),
        });
    }

    /// The current windowed verdict.
    pub fn report(&self) -> SloReport {
        let window_len = self.recent.len() as u64;
        let mut within = 0u64;
        let mut failures: BTreeMap<&str, u64> = BTreeMap::new();
        for sample in &self.recent {
            match sample {
                SloSample::Ok { latency_ns } => {
                    if *latency_ns <= self.config.latency_objective_ns {
                        within += 1;
                    }
                }
                SloSample::Failed { kind } => *failures.entry(kind).or_insert(0) += 1,
            }
        }
        let attainment = if window_len == 0 {
            1.0
        } else {
            within as f64 / window_len as f64
        };
        SloReport {
            window_len,
            total: self.total,
            latency_objective_ns: self.config.latency_objective_ns,
            attainment,
            error_budget: self.config.error_budget,
            burn_rate: (1.0 - attainment) / self.config.error_budget,
            failures_by_kind: failures
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// Rollup state for one watchdog rule across the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleRollup {
    /// Rule name (the doctor's fixed set).
    pub rule: String,
    /// Streams whose latest ingested report had this rule firing.
    pub firing: u64,
    /// Streams whose latest report left this rule with insufficient
    /// data.
    pub insufficient: u64,
    /// Stream id with the largest rule value (ties break toward the
    /// smaller id), when any stream reported a judged value.
    pub worst_stream: Option<String>,
    /// That stream's rule value.
    pub worst_value: f64,
}

/// The fleet-wide health rollup: stream totals, per-rule aggregation,
/// latency/drift distributions, and the SLO verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Streams ingested.
    pub streams: u64,
    /// Streams with no rule firing.
    pub healthy: u64,
    /// Streams with exactly one rule firing.
    pub degraded: u64,
    /// Streams with two or more rules firing.
    pub critical: u64,
    /// Per-rule rollups in the doctor's fixed rule order.
    pub rules: Vec<RuleRollup>,
    /// p50/p99 of per-stream residual-drift ratios (×1000).
    pub residual_ratio_milli: (u64, u64),
    /// p50/p99 of per-stream windowed solve-latency p99s, nanoseconds.
    pub solve_p99_ns: (u64, u64),
    /// The SLO verdict at report time.
    pub slo: SloReport,
}

/// Formats an `f64` for the in-repo JSON parser: finite as-is,
/// non-finite as `null`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl FleetReport {
    /// The rollup for one rule by name.
    pub fn rule(&self, name: &str) -> Option<&RuleRollup> {
        self.rules.iter().find(|r| r.rule == name)
    }

    /// Renders the report as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let rules: Vec<String> = self
            .rules
            .iter()
            .map(|r| {
                format!(
                    "{{\"rule\":\"{}\",\"firing\":{},\"insufficient\":{},\
                     \"worst_stream\":{},\"worst_value\":{}}}",
                    crate::json::escape(&r.rule),
                    r.firing,
                    r.insufficient,
                    match &r.worst_stream {
                        Some(id) => format!("\"{}\"", crate::json::escape(id)),
                        None => "null".to_string(),
                    },
                    fmt_f64(r.worst_value),
                )
            })
            .collect();
        format!(
            "{{\"streams\":{},\"healthy\":{},\"degraded\":{},\"critical\":{},\
             \"rules\":[{}],\
             \"residual_ratio_milli\":{{\"p50\":{},\"p99\":{}}},\
             \"solve_p99_ns\":{{\"p50\":{},\"p99\":{}}},\
             \"slo\":{}}}",
            self.streams,
            self.healthy,
            self.degraded,
            self.critical,
            rules.join(","),
            self.residual_ratio_milli.0,
            self.residual_ratio_milli.1,
            self.solve_p99_ns.0,
            self.solve_p99_ns.1,
            self.slo.to_json(),
        )
    }

    /// Publishes the rollup as registry gauges (`fleet.*`), so the
    /// Prometheus exposition carries the fleet verdict alongside the raw
    /// pipeline metrics.
    pub fn record_into(&self, registry: &Registry) {
        registry.gauge_set("fleet.streams", self.streams as f64);
        registry.gauge_set("fleet.healthy", self.healthy as f64);
        registry.gauge_set("fleet.degraded", self.degraded as f64);
        registry.gauge_set("fleet.critical", self.critical as f64);
        for rule in &self.rules {
            registry.gauge_set(
                &format!("fleet.rule.{}.firing", rule.rule),
                rule.firing as f64,
            );
        }
        registry.gauge_set(
            "fleet.residual_ratio_milli.p99",
            self.residual_ratio_milli.1 as f64,
        );
        registry.gauge_set("fleet.solve_p99_ns.p99", self.solve_p99_ns.1 as f64);
        registry.gauge_set("fleet.slo.attainment", self.slo.attainment);
        registry.gauge_set("fleet.slo.burn_rate", self.slo.burn_rate);
        registry.gauge_set("fleet.slo.window_len", self.slo.window_len as f64);
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet health: {} streams ({} healthy, {} degraded, {} critical)",
            self.streams, self.healthy, self.degraded, self.critical,
        )?;
        for r in &self.rules {
            write!(
                f,
                "  {:18} firing={:<4} insufficient={:<4}",
                r.rule, r.firing, r.insufficient,
            )?;
            match &r.worst_stream {
                Some(id) => writeln!(f, " worst={id} ({:.6})", r.worst_value)?,
                None => writeln!(f, " worst=-")?,
            }
        }
        writeln!(
            f,
            "  residual ratio p50/p99 = {}/{} milli, solve p99 p50/p99 = {}/{} ns",
            self.residual_ratio_milli.0,
            self.residual_ratio_milli.1,
            self.solve_p99_ns.0,
            self.solve_p99_ns.1,
        )?;
        writeln!(
            f,
            "  SLO: attainment {:.4} over {} solves, budget {:.4}, burn rate {:.2}",
            self.slo.attainment, self.slo.window_len, self.slo.error_budget, self.slo.burn_rate,
        )
    }
}

/// The doctor's fixed rule order, mirrored here so the rollup reports
/// every rule even before any stream mentioned it.
pub(crate) const RULE_ORDER: [&str; 6] = [
    "residual_drift",
    "convergence_stall",
    "ingress_shed",
    "solve_latency",
    "solver_disagreement",
    "resolve_fallback",
];

/// Running per-rule accumulator inside [`FleetDoctor`].
#[derive(Debug, Clone, Default)]
struct RuleAccum {
    firing: u64,
    insufficient: u64,
    /// Worst judged `(value, stream id)` so far.
    worst: Option<(f64, String)>,
}

/// Aggregates per-stream [`HealthReport`]s and per-solve SLO samples
/// into a fleet-wide [`FleetReport`]. See the module docs.
#[derive(Debug, Clone)]
pub struct FleetDoctor {
    streams: u64,
    healthy: u64,
    degraded: u64,
    critical: u64,
    rules: BTreeMap<String, RuleAccum>,
    residual_ratio: Histogram,
    solve_p99: Histogram,
    slo: SloTracker,
}

impl FleetDoctor {
    /// Creates an empty rollup with the given SLO objective.
    pub fn new(slo: SloConfig) -> FleetDoctor {
        FleetDoctor {
            streams: 0,
            healthy: 0,
            degraded: 0,
            critical: 0,
            rules: BTreeMap::new(),
            residual_ratio: Histogram::new(),
            solve_p99: Histogram::new(),
            slo: SloTracker::new(slo),
        }
    }

    /// Streams ingested so far.
    pub fn streams(&self) -> u64 {
        self.streams
    }

    /// Consumes one stream's final health report. `stream_id` names the
    /// stream in worst-offender listings; ingesting the same id twice
    /// counts as two streams (rollups are additive, not keyed).
    pub fn ingest(&mut self, stream_id: &str, health: &HealthReport) {
        self.streams = self.streams.saturating_add(1);
        let firing = health
            .rules
            .iter()
            .filter(|r| r.status == RuleStatus::Firing)
            .count();
        match firing {
            0 => self.healthy += 1,
            1 => self.degraded += 1,
            _ => self.critical += 1,
        }
        for rule in &health.rules {
            let entry = self.rules.entry(rule.rule.to_string()).or_default();
            match rule.status {
                RuleStatus::Firing => entry.firing += 1,
                RuleStatus::Insufficient => entry.insufficient += 1,
                RuleStatus::Healthy => {}
            }
            if rule.status != RuleStatus::Insufficient {
                let replace = match &entry.worst {
                    None => true,
                    // Ties break toward the smaller stream id so the
                    // rollup is independent of ingestion order.
                    Some((value, id)) => {
                        rule.value > *value || (rule.value == *value && stream_id < id.as_str())
                    }
                };
                if replace {
                    entry.worst = Some((rule.value, stream_id.to_string()));
                }
                match rule.rule {
                    "residual_drift" => {
                        let milli = (rule.value * RATIO_SCALE).clamp(0.0, u64::MAX as f64);
                        self.residual_ratio.record(milli as u64);
                    }
                    "solve_latency" => {
                        let ns = rule.value.clamp(0.0, u64::MAX as f64);
                        self.solve_p99.record(ns as u64);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Records one completed solve into the SLO window.
    pub fn observe_solve(&mut self, latency_ns: u64) {
        self.slo.observe_solve(latency_ns);
    }

    /// Records one failed solve into the SLO window under its
    /// `failures_by_kind` key.
    pub fn observe_failure(&mut self, kind: &str) {
        self.slo.observe_failure(kind);
    }

    /// The current fleet-wide rollup.
    pub fn report(&self) -> FleetReport {
        let rules = RULE_ORDER
            .iter()
            .map(|name| {
                let accum = self.rules.get(*name).cloned().unwrap_or_default();
                let (worst_value, worst_stream) = match accum.worst {
                    Some((value, id)) => (value, Some(id)),
                    None => (0.0, None),
                };
                RuleRollup {
                    rule: (*name).to_string(),
                    firing: accum.firing,
                    insufficient: accum.insufficient,
                    worst_stream,
                    worst_value,
                }
            })
            .collect();
        FleetReport {
            streams: self.streams,
            healthy: self.healthy,
            degraded: self.degraded,
            critical: self.critical,
            rules,
            residual_ratio_milli: (self.residual_ratio.p50(), self.residual_ratio.p99()),
            solve_p99_ns: (self.solve_p99.p50(), self.solve_p99.p99()),
            slo: self.slo.report(),
        }
    }
}

/// Configuration for the hub's metrics-history plane: the store sizing,
/// the sampling cadence and clock, and the rule sets the alert engine
/// evaluates on every sample.
///
/// The default enables a [`WallClock`]-driven 1 s cadence with the
/// Doctor-mirroring alert rules ([`AlertRule::doctor_rules`]) and a
/// solve-error-rate recording rule; tests inject a
/// [`ManualClock`](crate::ManualClock) for deterministic timestamps.
#[derive(Debug)]
pub struct HistoryConfig {
    /// Time-series store sizing.
    pub tsdb: TsdbConfig,
    /// Sampling period in injected-clock nanoseconds.
    pub sample_period_ns: u64,
    /// The sampler's time source.
    pub clock: Arc<dyn SampleClock>,
    /// Recording rules materialized as `rule:<name>` gauge series.
    pub recording_rules: Vec<RecordingRule>,
    /// Alert rules evaluated on every sample.
    pub alert_rules: Vec<AlertRule>,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig {
            tsdb: TsdbConfig::default(),
            sample_period_ns: 1_000_000_000,
            clock: Arc::new(WallClock),
            recording_rules: vec![RecordingRule::new(
                "solve_error_rate",
                AlertExpr::CounterRatePerSec {
                    series: "lion.stream.solve_errors".to_string(),
                    window_ns: 60_000_000_000,
                },
            )],
            alert_rules: AlertRule::doctor_rules(),
        }
    }
}

/// The hub's optional history plane: store, sampler, and alert engine.
#[derive(Debug)]
struct HistoryPlane {
    tsdb: Arc<Tsdb>,
    sampler: Mutex<Sampler>,
    alerts: Mutex<AlertEngine>,
}

/// Shared live-telemetry state: one fleet rollup the engine writes and
/// the scrape server ([`crate::http::TelemetryServer`]) reads, plus an
/// optional history plane ([`TelemetryHub::enable_history`]) backing
/// `/query` and `/alerts`.
#[derive(Debug)]
pub struct TelemetryHub {
    fleet: Mutex<FleetDoctor>,
    history: RwLock<Option<HistoryPlane>>,
}

impl TelemetryHub {
    /// Creates a hub with an empty fleet rollup under `slo`.
    pub fn new(slo: SloConfig) -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub {
            fleet: Mutex::new(FleetDoctor::new(slo)),
            history: RwLock::new(None),
        })
    }

    /// Runs `f` with the hub's fleet doctor locked.
    pub fn with_fleet<R>(&self, f: impl FnOnce(&mut FleetDoctor) -> R) -> R {
        f(&mut self.fleet.lock().expect("fleet doctor poisoned"))
    }

    /// The current fleet rollup.
    pub fn fleet_report(&self) -> FleetReport {
        self.with_fleet(|fleet| fleet.report())
    }

    /// Attaches a history plane (store + sampler + alert engine),
    /// replacing any previous one, and returns the store handle. Call
    /// [`TelemetryHub::sample_tick`] — or spawn a
    /// [`TelemetryHub::start_background_sampler`] — to feed it.
    pub fn enable_history(&self, config: HistoryConfig) -> Arc<Tsdb> {
        let tsdb = Arc::new(Tsdb::new(config.tsdb));
        let sampler = Sampler::new(tsdb.clone(), config.sample_period_ns, config.clock);
        let alerts = AlertEngine::new(config.recording_rules, config.alert_rules);
        let plane = HistoryPlane {
            tsdb: tsdb.clone(),
            sampler: Mutex::new(sampler),
            alerts: Mutex::new(alerts),
        };
        *self.history.write().expect("history lock poisoned") = Some(plane);
        tsdb
    }

    /// The history store, when a plane is enabled.
    pub fn tsdb(&self) -> Option<Arc<Tsdb>> {
        self.history
            .read()
            .expect("history lock poisoned")
            .as_ref()
            .map(|plane| plane.tsdb.clone())
    }

    /// Whether a history plane is enabled.
    pub fn history_enabled(&self) -> bool {
        self.history
            .read()
            .expect("history lock poisoned")
            .is_some()
    }

    /// One sampling step: refreshes the fleet gauges into the global
    /// registry, snapshots the registry into the store if the sampler's
    /// clock says a sample is due, and — on a sample — runs the alert
    /// rules at the sample timestamp. Returns the sample timestamp when
    /// a sample was taken; no-ops (cheaply) without a history plane.
    ///
    /// Deterministic by construction: the engine calls this at fixed
    /// lifecycle points and the timestamps come from the injected clock,
    /// so alert transitions are bit-identical across worker counts.
    pub fn sample_tick(&self) -> Option<u64> {
        let history = self.history.read().expect("history lock poisoned");
        let plane = history.as_ref()?;
        let report = self.fleet_report();
        report.record_into(crate::global());
        let t_ns = plane
            .sampler
            .lock()
            .expect("sampler poisoned")
            .tick(crate::global())?;
        plane
            .alerts
            .lock()
            .expect("alert engine poisoned")
            .evaluate(&plane.tsdb, t_ns, Some(&report));
        Some(t_ns)
    }

    /// Runs `f` against the alert engine, when a history plane is
    /// enabled.
    pub fn with_alerts<R>(&self, f: impl FnOnce(&AlertEngine) -> R) -> Option<R> {
        let history = self.history.read().expect("history lock poisoned");
        let plane = history.as_ref()?;
        let alerts = plane.alerts.lock().expect("alert engine poisoned");
        Some(f(&alerts))
    }

    /// The alert engine's `/alerts` JSON, when a history plane is
    /// enabled.
    pub fn alerts_json(&self) -> Option<String> {
        self.with_alerts(|alerts| alerts.to_json())
    }

    /// Spawns a thread that calls [`TelemetryHub::sample_tick`] every
    /// `poll` until the returned handle is stopped or dropped. The
    /// sampler's own clock still decides when samples are due; `poll`
    /// only bounds the check latency, so a quarter of the sample period
    /// is a good value.
    pub fn start_background_sampler(
        self: &Arc<Self>,
        poll: std::time::Duration,
    ) -> BackgroundSampler {
        let hub = self.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("lion-sampler".to_string())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    hub.sample_tick();
                    std::thread::sleep(poll);
                }
            })
            .expect("spawn sampler thread");
        BackgroundSampler {
            stop,
            handle: Some(handle),
        }
    }
}

/// Handle to the hub's background sampling thread; stops (and joins) it
/// on [`BackgroundSampler::stop`] or drop.
#[derive(Debug)]
pub struct BackgroundSampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl BackgroundSampler {
    /// Signals the thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for BackgroundSampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Fast-path gate: `true` only while a hub is installed — one relaxed
/// load on the streaming path when telemetry is off.
static HUB_ACTIVE: AtomicBool = AtomicBool::new(false);

static GLOBAL_HUB: RwLock<Option<Arc<TelemetryHub>>> = RwLock::new(None);

/// Builds a [`TelemetryHub`] with `slo` and installs it process-wide,
/// replacing any previous hub. The engine starts feeding it immediately;
/// pair with a [`crate::http::TelemetryServer`] to expose it.
pub fn install_telemetry_hub(slo: SloConfig) -> Arc<TelemetryHub> {
    let hub = TelemetryHub::new(slo);
    let mut slot = GLOBAL_HUB.write().expect("hub lock poisoned");
    *slot = Some(hub.clone());
    HUB_ACTIVE.store(true, Ordering::Relaxed);
    hub
}

/// Uninstalls the process-wide hub, returning it (for a final report)
/// if one was installed.
pub fn uninstall_telemetry_hub() -> Option<Arc<TelemetryHub>> {
    let mut slot = GLOBAL_HUB.write().expect("hub lock poisoned");
    HUB_ACTIVE.store(false, Ordering::Relaxed);
    slot.take()
}

/// The installed hub, if any. One relaxed atomic load when none is —
/// the streaming layers call this unconditionally.
pub fn telemetry_hub() -> Option<Arc<TelemetryHub>> {
    if !HUB_ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    GLOBAL_HUB.read().expect("hub lock poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doctor::{Doctor, DoctorConfig, SolveObservation};

    fn health(residual: f64, solve_ns: u64, shed: u64) -> HealthReport {
        let mut doctor = Doctor::new(DoctorConfig {
            window: 4,
            ..DoctorConfig::default()
        });
        for i in 0..8 {
            doctor.observe(SolveObservation {
                time: i as f64,
                // First window clean, second at `residual`: a drifted
                // stream fires residual_drift against its own baseline.
                mean_residual: if i < 4 { 1e-3 } else { residual },
                converged: true,
                solve_ns,
                reads_in: 25,
                shed,
                solver_disagreement_m: Some(1e-3),
                resolve_fallback: Some(false),
            });
        }
        doctor.report()
    }

    #[test]
    fn rollup_classifies_streams_and_finds_worst_offenders() {
        let mut fleet = FleetDoctor::new(SloConfig::default());
        fleet.ingest("stream-0", &health(1e-3, 1_000, 0)); // healthy
        fleet.ingest("stream-1", &health(5e-2, 1_000, 0)); // drift fires
        fleet.ingest("stream-2", &health(9e-2, 1_000, 20)); // drift + shed
        let report = fleet.report();
        assert_eq!(report.streams, 3);
        assert_eq!(
            (report.healthy, report.degraded, report.critical),
            (1, 1, 1)
        );
        let drift = report.rule("residual_drift").expect("rule present");
        assert_eq!(drift.firing, 2);
        assert_eq!(drift.worst_stream.as_deref(), Some("stream-2"));
        assert!(drift.worst_value > report.rule("ingress_shed").unwrap().worst_value);
        // Every doctor rule appears, in the doctor's order.
        let names: Vec<&str> = report.rules.iter().map(|r| r.rule.as_str()).collect();
        assert_eq!(names, RULE_ORDER);
    }

    #[test]
    fn rollup_is_independent_of_ingest_order() {
        let reports = [
            ("a", health(1e-3, 1_000, 0)),
            ("b", health(5e-2, 2_000, 5)),
            ("c", health(9e-2, 500, 0)),
        ];
        let mut forward = FleetDoctor::new(SloConfig::default());
        for (id, h) in &reports {
            forward.ingest(id, h);
        }
        let mut backward = FleetDoctor::new(SloConfig::default());
        for (id, h) in reports.iter().rev() {
            backward.ingest(id, h);
        }
        assert_eq!(forward.report(), backward.report());
        assert_eq!(forward.report().to_json(), backward.report().to_json());
    }

    #[test]
    fn worst_offender_ties_break_toward_smaller_id() {
        let h = health(5e-2, 1_000, 0);
        let mut a = FleetDoctor::new(SloConfig::default());
        a.ingest("z", &h);
        a.ingest("a", &h);
        let mut b = FleetDoctor::new(SloConfig::default());
        b.ingest("a", &h);
        b.ingest("z", &h);
        let worst = |f: &FleetDoctor| {
            f.report()
                .rule("residual_drift")
                .unwrap()
                .worst_stream
                .clone()
        };
        assert_eq!(worst(&a), Some("a".to_string()));
        assert_eq!(worst(&a), worst(&b));
    }

    #[test]
    fn slo_burn_rate_tracks_failures_and_slow_solves() {
        let mut slo = SloTracker::new(SloConfig {
            window: 100,
            latency_objective_ns: 10_000,
            error_budget: 0.05,
        });
        for _ in 0..90 {
            slo.observe_solve(5_000);
        }
        for _ in 0..5 {
            slo.observe_solve(50_000); // misses the objective
        }
        for _ in 0..5 {
            slo.observe_failure("degenerate_window");
        }
        let report = slo.report();
        assert_eq!(report.window_len, 100);
        assert!((report.attainment - 0.90).abs() < 1e-12);
        // 10% misses against a 5% budget: burning 2× too fast.
        assert!((report.burn_rate - 2.0).abs() < 1e-9);
        assert_eq!(
            report.failures_by_kind,
            vec![("degenerate_window".to_string(), 5)]
        );
        // And the window really rolls: flood with clean solves.
        for _ in 0..100 {
            slo.observe_solve(1_000);
        }
        let clean = slo.report();
        assert_eq!(clean.attainment, 1.0);
        assert_eq!(clean.burn_rate, 0.0);
        assert!(clean.failures_by_kind.is_empty());
    }

    #[test]
    fn fleet_report_json_parses_and_gauges_publish() {
        let mut fleet = FleetDoctor::new(SloConfig::default());
        fleet.ingest("s0", &health(1e-3, 1_000, 0));
        fleet.observe_solve(500);
        fleet.observe_failure("no_pairs");
        let report = fleet.report();
        let doc = crate::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(doc.get("streams").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            doc.get("slo")
                .and_then(|s| s.get("failures_by_kind"))
                .and_then(|f| f.get("no_pairs"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        let registry = Registry::new();
        report.record_into(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("fleet.streams"), Some(1.0));
        assert_eq!(snap.gauge("fleet.healthy"), Some(1.0));
        assert!(snap.gauge("fleet.slo.burn_rate").is_some());
        // Display renders without panicking and mentions the totals.
        assert!(report.to_string().contains("1 streams"));
    }

    #[test]
    fn hub_gate_is_off_by_default_and_replaceable() {
        // Serialize against other tests touching the global hub.
        let _hub = install_telemetry_hub(SloConfig::default());
        assert!(telemetry_hub().is_some());
        let taken = uninstall_telemetry_hub().expect("installed");
        taken.with_fleet(|fleet| assert_eq!(fleet.streams(), 0));
        assert!(telemetry_hub().is_none());
    }

    #[test]
    fn slo_window_wraps_at_exactly_the_configured_size() {
        let mut slo = SloTracker::new(SloConfig::default());
        // Fill the window to exactly 1024 with misses, then verify the
        // 1025th observation evicts exactly one (the oldest) sample.
        for _ in 0..1024 {
            slo.observe_failure("no_pairs");
        }
        let full = slo.report();
        assert_eq!(full.window_len, 1024);
        assert_eq!(full.total, 1024);
        assert_eq!(full.attainment, 0.0);
        slo.observe_solve(1);
        let wrapped = slo.report();
        assert_eq!(wrapped.window_len, 1024);
        assert_eq!(wrapped.total, 1025);
        // 1023 failures + 1 hit remain.
        assert!((wrapped.attainment - 1.0 / 1024.0).abs() < 1e-12);
        assert_eq!(
            wrapped.failures_by_kind,
            vec![("no_pairs".to_string(), 1023)]
        );
    }

    #[test]
    fn all_failure_window_pins_burn_rate_to_budget_inverse() {
        let mut slo = SloTracker::new(SloConfig {
            window: 16,
            latency_objective_ns: 1_000,
            error_budget: 0.01,
        });
        for i in 0..16 {
            if i % 2 == 0 {
                slo.observe_failure("degenerate_window");
            } else {
                // A completed solve that misses the objective is a miss too.
                slo.observe_solve(1_000_000);
            }
        }
        let report = slo.report();
        assert_eq!(report.attainment, 0.0);
        // 100% misses / 1% budget = 100× burn, exactly.
        assert!((report.burn_rate - 100.0).abs() < 1e-9);
    }

    #[test]
    fn burn_rate_decays_monotonically_as_misses_age_out() {
        let mut slo = SloTracker::new(SloConfig {
            window: 32,
            latency_objective_ns: 1_000,
            error_budget: 0.05,
        });
        for _ in 0..32 {
            slo.observe_failure("no_pairs");
        }
        let mut last = slo.report().burn_rate;
        assert!(last > 1.0);
        // Each clean solve displaces one miss: the burn rate must fall
        // (or stay equal) every step, reaching exactly zero at the end.
        for _ in 0..32 {
            slo.observe_solve(1);
            let burn = slo.report().burn_rate;
            assert!(
                burn <= last + 1e-12,
                "burn rate rose while misses aged out: {burn} > {last}"
            );
            last = burn;
        }
        assert_eq!(last, 0.0);
    }

    #[test]
    fn hub_history_plane_samples_and_alerts_deterministically() {
        use crate::tsdb::ManualClock;
        let hub = TelemetryHub::new(SloConfig::default());
        assert!(!hub.history_enabled());
        assert!(hub.sample_tick().is_none());

        let clock = ManualClock::new(0);
        let tsdb = hub.enable_history(HistoryConfig {
            sample_period_ns: 1_000_000_000,
            clock: clock.clone(),
            alert_rules: vec![AlertRule::above(
                "shed",
                AlertExpr::GaugeLast {
                    series: "fleet.rule.ingress_shed.firing".to_string(),
                },
                0.0,
            )
            .annotate("doctor_rule", "ingress_shed")],
            ..HistoryConfig::default()
        });
        assert!(hub.history_enabled());

        // First tick samples at t=0; the fleet gauges land in the store.
        assert_eq!(hub.sample_tick(), Some(0));
        assert_eq!(tsdb.gauge_last("fleet.rule.ingress_shed.firing"), Some(0.0));
        // Not due again until the clock advances a full period.
        assert_eq!(hub.sample_tick(), None);

        // A shedding stream flips the gauge; the alert fires on the
        // next due sample, at exactly the manual-clock timestamp.
        hub.with_fleet(|fleet| fleet.ingest("s9", &health(1e-3, 1_000, 20)));
        clock.set(1_000_000_000);
        assert_eq!(hub.sample_tick(), Some(1_000_000_000));
        let firing = hub.with_alerts(|a| a.firing().join(",")).unwrap();
        assert_eq!(firing, "shed");
        let json = hub.alerts_json().unwrap();
        assert!(json.contains("\"state\":\"firing\""), "{json}");
        assert!(json.contains("\"worst_stream\":\"s9\""), "{json}");
    }
}
