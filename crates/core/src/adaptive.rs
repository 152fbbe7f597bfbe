//! Adaptive parameter selection (paper Sec. IV-C1, evaluated in
//! Figs. 16–18).
//!
//! The scanning range and scanning interval materially change the estimate
//! quality: too small a range and the phase barely varies (plane-wave
//! regime); too large and off-beam samples poison the system; too small an
//! interval and noise dominates the pairwise phase difference. The paper's
//! key empirical finding is that the **mean weighted-least-squares
//! residual tracks the distance error**: the configuration whose mean
//! residual sits closest to zero is (nearly) the most accurate one. This
//! module sweeps the parameter grid, ranks trials by `|mean residual|`,
//! and averages the best few estimates.
//!
//! # One sweep, each cell is the batch solve
//!
//! The sweep unwraps and smooths the profile once. Every
//! `(range, interval)` cell then runs exactly the solve
//! [`Localizer::locate_in`] runs — the backend dispatch, so the linear
//! model or the likelihood grid as
//! [`LocalizerConfig::solver`] selects — on the samples whose x lies in
//! `[cx − range/2, cx + range/2]`, where `cx` is the x centroid of the
//! whole trajectory. The cell's interval replaces the pair strategy's
//! spacing, and the restricted profile's own middle sample is the
//! reference (`config.reference_index` is ignored). Each cell therefore
//! finds its own principal-component frame. Grid cells ignore the
//! interval (the grid scores samples directly, no pairing), so cells
//! that share a range produce identical estimates and only the range
//! axis of the sweep differentiates them.
//!
//! Before any cell runs, the sweep checks the whole trajectory: an
//! out-of-range `rank_tolerance` fails with
//! [`CoreError::InvalidConfig`] and unusable geometry with
//! [`CoreError::DegenerateGeometry`], instead of every cell failing and
//! the sweep reporting [`CoreError::NoPairs`].
//!
//! The restricted profile and every solve buffer live in the
//! [`Workspace`], so a steady-state
//! [`Localizer::locate_adaptive_into`] performs **zero heap
//! allocations**.
//!
//! The sweep is also available as an owned [`SweepPlan`] whose cells can
//! be solved independently (and concurrently) with per-worker
//! workspaces. Both paths call one cell function, and
//! [`SweepPlan::finish`] ranks with the same total order, so the outcome
//! is bit-identical to the sequential sweep for any worker count.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use lion_geom::Point3;

use crate::error::CoreError;
use crate::localizer::{
    analyze_geometry_small, check_rank_tolerance, with_measurements_profile, Estimate, Localizer,
    LocalizerConfig,
};
use crate::preprocess::PhaseProfile;
use crate::solver::{dispatch_profile, SolveSpace};
use crate::workspace::{elapsed_ns, StageMetrics, Workspace};

/// The parameter grid for the adaptive sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Scanning ranges to try (full widths in meters, centered on the
    /// trajectory's x centroid). The paper sweeps 0.6–1.1 m.
    pub scanning_ranges: Vec<f64>,
    /// Scanning intervals to try (meters). The paper sweeps 0.10–0.35 m.
    pub intervals: Vec<f64>,
    /// How many of the best trials (smallest `|mean residual|`) to average
    /// into the final estimate.
    pub keep: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            scanning_ranges: vec![0.6, 0.7, 0.8, 0.9, 1.0, 1.1],
            intervals: vec![0.10, 0.15, 0.20, 0.25, 0.30, 0.35],
            keep: 3,
        }
    }
}

impl AdaptiveConfig {
    /// Starts a validating builder seeded with the paper's sweep grid
    /// (ranges 0.6–1.1 m, intervals 0.10–0.35 m, keep 3).
    ///
    /// # Example
    ///
    /// ```
    /// use lion_core::AdaptiveConfig;
    ///
    /// # fn main() -> Result<(), lion_core::CoreError> {
    /// let grid = AdaptiveConfig::builder()
    ///     .scanning_ranges(vec![0.6, 0.8])
    ///     .intervals(vec![0.2])
    ///     .keep(1)
    ///     .build()?;
    /// assert_eq!(grid.scanning_ranges.len(), 2);
    /// assert!(AdaptiveConfig::builder().keep(0).build().is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> AdaptiveConfigBuilder {
        AdaptiveConfigBuilder {
            config: AdaptiveConfig::default(),
        }
    }

    /// Checks the grid invariants: non-empty ranges/intervals, every entry
    /// positive and finite, `keep ≥ 1`. The sweep runs this before
    /// touching the data.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending
    /// parameter.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.scanning_ranges.is_empty() || self.intervals.is_empty() {
            return Err(CoreError::InvalidConfig {
                parameter: "adaptive grid",
                found: "empty ranges or intervals".to_string(),
            });
        }
        if self.keep == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "keep",
                found: "0".to_string(),
            });
        }
        for &r in &self.scanning_ranges {
            if !(r > 0.0 && r.is_finite()) {
                return Err(CoreError::InvalidConfig {
                    parameter: "scanning_ranges",
                    found: format!("{r}"),
                });
            }
        }
        for &i in &self.intervals {
            if !(i > 0.0 && i.is_finite()) {
                return Err(CoreError::InvalidConfig {
                    parameter: "intervals",
                    found: format!("{i}"),
                });
            }
        }
        Ok(())
    }
}

/// Validating builder for [`AdaptiveConfig`]. Created by
/// [`AdaptiveConfig::builder`]; struct-literal construction keeps
/// working.
#[derive(Debug, Clone)]
pub struct AdaptiveConfigBuilder {
    config: AdaptiveConfig,
}

impl AdaptiveConfigBuilder {
    /// Sets the scanning ranges to sweep (full widths, meters).
    pub fn scanning_ranges(mut self, ranges: Vec<f64>) -> Self {
        self.config.scanning_ranges = ranges;
        self
    }

    /// Sets the scanning intervals to sweep (meters).
    pub fn intervals(mut self, intervals: Vec<f64>) -> Self {
        self.config.intervals = intervals;
        self
    }

    /// Sets how many of the best trials to average.
    pub fn keep(mut self, keep: usize) -> Self {
        self.config.keep = keep;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`AdaptiveConfig::validate`].
    pub fn build(self) -> Result<AdaptiveConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// One trial of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveTrial {
    /// Scanning range used (meters).
    pub range: f64,
    /// Scanning interval used (meters).
    pub interval: f64,
    /// The estimate this configuration produced.
    pub estimate: Estimate,
}

/// The outcome of an adaptive sweep.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// The selected estimate: the position is the average of the `keep`
    /// best trials; the remaining fields are copied from the single best
    /// trial.
    pub estimate: Estimate,
    /// All successful trials, ranked by `|mean residual|` ascending.
    pub trials: Vec<AdaptiveTrial>,
    /// Number of `(range, interval)` combinations that failed (too few
    /// pairs, rank problems, …) and were skipped.
    pub skipped: usize,
}

impl<const D: usize> Localizer<D> {
    /// Runs the adaptive parameter sweep (see the module docs).
    ///
    /// # Errors
    ///
    /// - configuration errors from [`AdaptiveConfig`] validation and an
    ///   out-of-range `rank_tolerance`,
    /// - [`CoreError::NoPairs`] when every combination fails,
    /// - preprocessing errors from the underlying profile construction,
    /// - [`CoreError::DegenerateGeometry`] when the whole trajectory has
    ///   unusable geometry.
    pub fn locate_adaptive(
        &self,
        measurements: &[(Point3, f64)],
        adaptive: &AdaptiveConfig,
    ) -> Result<AdaptiveOutcome, CoreError> {
        self.locate_adaptive_in(measurements, adaptive, &mut Workspace::new())
    }

    /// [`Localizer::locate_adaptive`] with a reusable [`Workspace`].
    /// Bit-identical results; sweep timings and counters land in `ws`.
    ///
    /// # Errors
    ///
    /// See [`Localizer::locate_adaptive`].
    pub fn locate_adaptive_in(
        &self,
        measurements: &[(Point3, f64)],
        adaptive: &AdaptiveConfig,
        ws: &mut Workspace,
    ) -> Result<AdaptiveOutcome, CoreError> {
        let mut out = AdaptiveOutcome::default();
        self.locate_adaptive_into(measurements, adaptive, ws, &mut out)?;
        Ok(out)
    }

    /// [`Localizer::locate_adaptive_in`] into a caller-owned outcome:
    /// the trial list's capacity is reused across calls, making the
    /// steady-state sweep fully allocation-free.
    ///
    /// # Errors
    ///
    /// See [`Localizer::locate_adaptive`]. On error `out` holds no
    /// meaningful data.
    pub fn locate_adaptive_into(
        &self,
        measurements: &[(Point3, f64)],
        adaptive: &AdaptiveConfig,
        ws: &mut Workspace,
        out: &mut AdaptiveOutcome,
    ) -> Result<(), CoreError> {
        adaptive.validate()?;
        let base = self.config();
        with_measurements_profile(measurements, base, ws, |profile, ws| {
            sweep_profile(profile, base, Self::SPACE, adaptive, ws, out)
        })
    }

    /// Builds an owned [`SweepPlan`] whose cells can be solved on any
    /// worker with any workspace — the engine's fan-out entry point.
    /// Preprocessing timings and the reads-dropped counter land in `ws`.
    ///
    /// # Errors
    ///
    /// See [`Localizer::locate_adaptive`].
    pub fn sweep_plan(
        &self,
        measurements: &[(Point3, f64)],
        adaptive: &AdaptiveConfig,
        ws: &mut Workspace,
    ) -> Result<SweepPlan, CoreError> {
        adaptive.validate()?;
        let base = self.config();
        with_measurements_profile(measurements, base, ws, |profile, ws| {
            let cx = check_trajectory(
                profile,
                base,
                Self::SPACE,
                &adaptive.scanning_ranges,
                &mut ws.metrics,
            )?;
            Ok(SweepPlan {
                profile: profile.clone(),
                config: base.clone(),
                space: Self::SPACE,
                cx,
                cells: adaptive
                    .scanning_ranges
                    .iter()
                    .flat_map(|&range| adaptive.intervals.iter().map(move |&i| (range, i)))
                    .collect(),
                keep: adaptive.keep,
            })
        })
    }
}

/// The sequential sweep over a prepared profile: solves every cell in
/// plan order.
fn sweep_profile(
    profile: &PhaseProfile,
    base: &LocalizerConfig,
    space: SolveSpace,
    adaptive: &AdaptiveConfig,
    ws: &mut Workspace,
    out: &mut AdaptiveOutcome,
) -> Result<(), CoreError> {
    let _sweep_span = lion_obs::span!("lion.adaptive");
    let sweep_start = Instant::now();
    out.trials.clear();
    out.skipped = 0;
    // Cells accrue pairs/solve time below; snapshotting the disjoint
    // pipeline sum lets the sweep attribute its own orchestration
    // overhead (range restriction, ranking) exactly.
    let inner_before = ws.metrics.pipeline_ns();
    let cx = check_trajectory(
        profile,
        base,
        space,
        &adaptive.scanning_ranges,
        &mut ws.metrics,
    )?;
    for &range in &adaptive.scanning_ranges {
        for &interval in &adaptive.intervals {
            match solve_cell(profile, base, space, cx, range, interval, ws) {
                Ok(estimate) => out.trials.push(AdaptiveTrial {
                    range,
                    interval,
                    estimate,
                }),
                Err(_) => out.skipped += 1,
            }
        }
    }
    let sweep_ns = elapsed_ns(sweep_start);
    let metrics = &mut ws.metrics;
    let inner_ns = metrics.pipeline_ns() - inner_before;
    metrics.adaptive_ns += sweep_ns;
    metrics.adaptive_exclusive_ns += sweep_ns.saturating_sub(inner_ns);
    metrics.adaptive_trials += out.trials.len() as u64;
    metrics.adaptive_skipped += out.skipped as u64;
    lion_obs::event!(
        lion_obs::Level::Debug,
        "lion.adaptive.sweep",
        "trials" => out.trials.len(),
        "skipped" => out.skipped,
        "sweep_ns" => sweep_ns,
    );
    conclude(adaptive.keep, out)
}

/// Rejects what would fail every cell alike — an out-of-range
/// `rank_tolerance` or a degenerate whole trajectory — so the sweep
/// reports that cause instead of [`CoreError::NoPairs`]. Records the
/// reads each scanning range drops and returns the range center: the
/// trajectory's x centroid (the paper centers its scanning range at
/// x = 0 with the antenna at the track middle).
fn check_trajectory(
    profile: &PhaseProfile,
    base: &LocalizerConfig,
    space: SolveSpace,
    ranges: &[f64],
    metrics: &mut StageMetrics,
) -> Result<f64, CoreError> {
    check_rank_tolerance(base.rank_tolerance)?;
    let positions = profile.positions();
    analyze_geometry_small(positions, space, base.rank_tolerance)?;
    let n = positions.len();
    let cx = positions.iter().map(|p| p.x).sum::<f64>() / n as f64;
    for &range in ranges {
        let (lo, hi) = (cx - range / 2.0, cx + range / 2.0);
        let kept = positions.iter().filter(|p| p.x >= lo && p.x <= hi).count();
        metrics.reads_dropped += (n - kept) as u64;
    }
    Ok(cx)
}

/// Solves one `(range, interval)` cell: the batch solve
/// ([`crate::solver::dispatch_profile`]) on the samples inside
/// `[cx − range/2, cx + range/2]`, with the cell's pair interval and the
/// restricted profile's own middle sample as reference. The one cell
/// solve behind both the sequential sweep and [`SweepPlan::solve_cell`].
fn solve_cell(
    profile: &PhaseProfile,
    base: &LocalizerConfig,
    space: SolveSpace,
    cx: f64,
    range: f64,
    interval: f64,
    ws: &mut Workspace,
) -> Result<Estimate, CoreError> {
    let cell_start = Instant::now();
    let mut cell = std::mem::take(&mut ws.sweep.cell_profile);
    profile.restrict_x_into(cx - range / 2.0, cx + range / 2.0, &mut cell);
    let config = LocalizerConfig {
        pair_strategy: base.pair_strategy.with_interval(interval),
        reference_index: None,
        ..base.clone()
    };
    let solved = dispatch_profile(&cell, &config, space, ws);
    ws.sweep.cell_profile = cell;
    lion_obs::global().histogram_record("lion.adaptive.cell_ns", elapsed_ns(cell_start));
    solved
}

/// Ranks the trials by `|mean residual|` ascending, breaking ties by
/// interval then range — a total order over distinct grid cells, so the
/// result is independent of cell visit order — and averages the `keep`
/// best positions into the outcome's estimate; the remaining fields come
/// from the best trial.
///
/// # Errors
///
/// [`CoreError::NoPairs`] when no trial succeeded.
fn conclude(keep: usize, out: &mut AdaptiveOutcome) -> Result<(), CoreError> {
    if out.trials.is_empty() {
        return Err(CoreError::NoPairs);
    }
    out.trials.sort_unstable_by(|a, b| {
        a.estimate
            .mean_residual
            .abs()
            .total_cmp(&b.estimate.mean_residual.abs())
            .then(a.interval.total_cmp(&b.interval))
            .then(a.range.total_cmp(&b.range))
    });
    let keep = keep.min(out.trials.len());
    let inv = 1.0 / keep as f64;
    let avg = out.trials[..keep].iter().fold(Point3::ORIGIN, |acc, t| {
        Point3::new(
            acc.x + t.estimate.position.x * inv,
            acc.y + t.estimate.position.y * inv,
            acc.z + t.estimate.position.z * inv,
        )
    });
    out.estimate = out.trials[0].estimate.clone();
    out.estimate.position = avg;
    Ok(())
}

/// An owned, immutable description of one adaptive sweep: the prepared
/// profile, the base configuration and solve space, the range center,
/// and the flattened `(range, interval)` grid (ranges outer, intervals
/// inner, both in configuration order — the sequential visit order).
///
/// Cells are independent — solve them on any worker with any
/// [`Workspace`] via [`SweepPlan::solve_cell`], then reduce with
/// [`SweepPlan::finish`]. The outcome is bit-identical to the sequential
/// [`Localizer::locate_adaptive`] for any worker count: both run the
/// same cell solve, and the ranking is a total order over cells.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    profile: PhaseProfile,
    config: LocalizerConfig,
    space: SolveSpace,
    cx: f64,
    /// `(range, interval)` per cell, in sequential visit order.
    cells: Vec<(f64, f64)>,
    keep: usize,
}

impl SweepPlan {
    /// Number of grid cells in the plan.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The `(range, interval)` of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= cell_count()`.
    pub fn cell(&self, index: usize) -> (f64, f64) {
        self.cells[index]
    }

    /// How many best trials [`SweepPlan::finish`] averages.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// Solves cell `index` with `ws`'s scratch buffers; pair/solve
    /// timings and counters land in `ws`.
    ///
    /// # Errors
    ///
    /// Per-cell failures ([`CoreError::NoPairs`],
    /// [`CoreError::TooFewMeasurements`], solver errors). Pass them to
    /// [`SweepPlan::finish`], which counts them as skipped.
    ///
    /// # Panics
    ///
    /// Panics when `index >= cell_count()`.
    pub fn solve_cell(&self, index: usize, ws: &mut Workspace) -> Result<AdaptiveTrial, CoreError> {
        let (range, interval) = self.cells[index];
        solve_cell(
            &self.profile,
            &self.config,
            self.space,
            self.cx,
            range,
            interval,
            ws,
        )
        .map(|estimate| AdaptiveTrial {
            range,
            interval,
            estimate,
        })
    }

    /// Reduces per-cell results — **in cell-index order** — into the
    /// sweep outcome: failures count as skipped, survivors are ranked by
    /// `|mean residual|`, and the `keep` best positions averaged.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoPairs`] when every cell failed.
    pub fn finish(
        &self,
        results: impl IntoIterator<Item = Result<AdaptiveTrial, CoreError>>,
    ) -> Result<AdaptiveOutcome, CoreError> {
        let mut out = AdaptiveOutcome::default();
        for result in results {
            match result {
                Ok(trial) => out.trials.push(trial),
                Err(_) => out.skipped += 1,
            }
        }
        conclude(self.keep, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localizer::{Localizer2d, Localizer3d};
    use crate::pairs::PairStrategy;
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    fn phase_of(target: Point3, p: Point3) -> f64 {
        (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU)
    }

    fn linear_scan(target: Point3, half_range: f64, step: f64) -> Vec<(Point3, f64)> {
        let n = (2.0 * half_range / step) as usize;
        (0..=n)
            .map(|i| {
                let p = Point3::new(-half_range + i as f64 * step, 0.0, 0.0);
                (p, phase_of(target, p))
            })
            .collect()
    }

    fn cfg() -> LocalizerConfig {
        LocalizerConfig {
            smoothing_window: 1,
            pair_strategy: PairStrategy::Interval { interval: 0.2 },
            side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
            ..LocalizerConfig::default()
        }
    }

    #[test]
    fn adaptive_sweep_matches_truth_on_clean_data() {
        let target = Point3::new(0.1, 0.8, 0.0);
        let m = linear_scan(target, 0.6, 0.005);
        let outcome = Localizer2d::new(cfg())
            .locate_adaptive(&m, &AdaptiveConfig::default())
            .unwrap();
        assert!(
            outcome.estimate.distance_error(target) < 1e-5,
            "error {}",
            outcome.estimate.distance_error(target)
        );
        assert!(!outcome.trials.is_empty());
        // Trials are sorted by |mean residual|.
        for w in outcome.trials.windows(2) {
            assert!(w[0].estimate.mean_residual.abs() <= w[1].estimate.mean_residual.abs() + 1e-15);
        }
    }

    #[test]
    fn range_restriction_reduces_sample_count() {
        let target = Point3::new(0.0, 0.8, 0.0);
        let m = linear_scan(target, 1.25, 0.01); // 2.5 m track
        let adaptive = AdaptiveConfig {
            scanning_ranges: vec![0.6],
            intervals: vec![0.2],
            keep: 1,
        };
        let outcome = Localizer2d::new(cfg())
            .locate_adaptive(&m, &adaptive)
            .unwrap();
        // With a 0.6 m range and 0.2 m interval there are ~40 pairs, far
        // fewer than the full 250-sample scan would give.
        assert!(outcome.trials[0].estimate.equation_count < 60);
    }

    #[test]
    fn empty_grid_rejected() {
        let m = linear_scan(Point3::new(0.0, 0.8, 0.0), 0.5, 0.01);
        let bad = AdaptiveConfig {
            scanning_ranges: vec![],
            intervals: vec![0.2],
            keep: 1,
        };
        assert!(Localizer2d::new(cfg()).locate_adaptive(&m, &bad).is_err());
        let bad = AdaptiveConfig {
            scanning_ranges: vec![0.6],
            intervals: vec![],
            keep: 1,
        };
        assert!(Localizer2d::new(cfg()).locate_adaptive(&m, &bad).is_err());
        let bad = AdaptiveConfig {
            scanning_ranges: vec![0.6],
            intervals: vec![0.2],
            keep: 0,
        };
        assert!(Localizer2d::new(cfg()).locate_adaptive(&m, &bad).is_err());
        let bad = AdaptiveConfig {
            scanning_ranges: vec![-0.6],
            intervals: vec![0.2],
            keep: 1,
        };
        assert!(Localizer2d::new(cfg()).locate_adaptive(&m, &bad).is_err());
    }

    #[test]
    fn all_failures_reported_as_no_pairs() {
        let m = linear_scan(Point3::new(0.0, 0.8, 0.0), 0.3, 0.01);
        // Intervals longer than the whole range: every combination fails.
        let bad = AdaptiveConfig {
            scanning_ranges: vec![0.4],
            intervals: vec![5.0],
            keep: 1,
        };
        assert!(matches!(
            Localizer2d::new(cfg()).locate_adaptive(&m, &bad),
            Err(CoreError::NoPairs)
        ));
    }

    #[test]
    fn skipped_counts_unusable_ranges() {
        let m = linear_scan(Point3::new(0.0, 0.8, 0.0), 0.5, 0.01);
        let adaptive = AdaptiveConfig {
            // 1 mm range keeps ~0 samples → whole row skipped.
            scanning_ranges: vec![0.001, 0.8],
            intervals: vec![0.2, 0.3],
            keep: 1,
        };
        let outcome = Localizer2d::new(cfg())
            .locate_adaptive(&m, &adaptive)
            .unwrap();
        assert!(outcome.skipped >= 2);
        assert!(!outcome.trials.is_empty());
    }

    #[test]
    fn keep_larger_than_trials_is_fine() {
        let target = Point3::new(0.0, 0.8, 0.0);
        let m = linear_scan(target, 0.5, 0.01);
        let adaptive = AdaptiveConfig {
            scanning_ranges: vec![0.8],
            intervals: vec![0.2],
            keep: 50,
        };
        let outcome = Localizer2d::new(cfg())
            .locate_adaptive(&m, &adaptive)
            .unwrap();
        assert!(outcome.estimate.distance_error(target) < 1e-5);
    }

    #[test]
    fn sweep_records_exclusive_time_disjoint_from_pipeline_stages() {
        let target = Point3::new(0.1, 0.8, 0.0);
        let m = linear_scan(target, 0.6, 0.005);
        let mut ws = Workspace::new();
        Localizer2d::new(cfg())
            .locate_adaptive_in(&m, &AdaptiveConfig::default(), &mut ws)
            .unwrap();
        let metrics = ws.take_metrics();
        // The exclusive share can never exceed the inclusive sweep time,
        // and busy time is the exact sum of the disjoint components.
        assert!(metrics.adaptive_exclusive_ns <= metrics.adaptive_ns);
        assert_eq!(
            metrics.busy_ns(),
            metrics.pipeline_ns() + metrics.adaptive_exclusive_ns
        );
        // The sweep ran inner solves, so some pipeline time was recorded
        // inside it; the inclusive timer must cover that too.
        assert!(metrics.solve_ns > 0);
        assert!(metrics.adaptive_ns >= metrics.adaptive_exclusive_ns);
    }

    #[test]
    fn degenerate_trajectory_fails_the_whole_sweep() {
        // Every cell would fail on its own; the sweep must name the real
        // cause instead of reporting that no cell produced pairs.
        let m: Vec<(Point3, f64)> = (0..50).map(|i| (Point3::ORIGIN, 0.01 * i as f64)).collect();
        let loc = Localizer2d::new(cfg());
        let grid = AdaptiveConfig::default();
        assert!(matches!(
            loc.locate_adaptive(&m, &grid),
            Err(CoreError::DegenerateGeometry { .. })
        ));
        assert!(matches!(
            loc.sweep_plan(&m, &grid, &mut Workspace::new()),
            Err(CoreError::DegenerateGeometry { .. })
        ));
    }

    #[test]
    fn zero_rank_tolerance_fails_the_whole_sweep() {
        let m = linear_scan(Point3::new(0.1, 0.8, 0.0), 0.6, 0.005);
        let mut c = cfg();
        c.rank_tolerance = 0.0;
        let loc = Localizer2d::new(c);
        let grid = AdaptiveConfig::default();
        assert!(matches!(
            loc.locate_adaptive(&m, &grid),
            Err(CoreError::InvalidConfig {
                parameter: "rank_tolerance",
                ..
            })
        ));
        assert!(matches!(
            loc.sweep_plan(&m, &grid, &mut Workspace::new()),
            Err(CoreError::InvalidConfig {
                parameter: "rank_tolerance",
                ..
            })
        ));
    }

    #[test]
    fn repeated_sweeps_with_reused_workspace_are_bit_identical() {
        let target = Point3::new(0.1, 0.8, 0.0);
        let m = linear_scan(target, 0.6, 0.005);
        let loc = Localizer2d::new(cfg());
        let grid = AdaptiveConfig::default();
        let mut ws = Workspace::new();
        let mut first = AdaptiveOutcome::default();
        loc.locate_adaptive_into(&m, &grid, &mut ws, &mut first)
            .unwrap();
        let mut second = AdaptiveOutcome::default();
        loc.locate_adaptive_into(&m, &grid, &mut ws, &mut second)
            .unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn sweep_plan_matches_sequential_sweep() {
        let target = Point3::new(0.1, 0.8, 0.0);
        let m = linear_scan(target, 0.6, 0.005);
        let loc = Localizer2d::new(cfg());
        let grid = AdaptiveConfig::default();
        let sequential = loc.locate_adaptive(&m, &grid).unwrap();
        let mut ws = Workspace::new();
        let plan = loc.sweep_plan(&m, &grid, &mut ws).unwrap();
        assert_eq!(plan.cell_count(), 36);
        let results: Vec<_> = (0..plan.cell_count())
            .map(|i| plan.solve_cell(i, &mut ws))
            .collect();
        let fanned = plan.finish(results).unwrap();
        assert_eq!(sequential, fanned);
    }

    #[test]
    fn sweep_plan_3d_matches_sequential_sweep() {
        let target = Point3::new(0.1, 0.2, 0.7);
        let m: Vec<(Point3, f64)> = (0..400)
            .map(|i| {
                let a = i as f64 * TAU / 400.0;
                let p = Point3::new(0.35 * a.cos(), 0.35 * a.sin(), 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut c = cfg();
        c.side_hint = Some(Point3::new(0.0, 0.0, 0.5));
        let adaptive = AdaptiveConfig {
            scanning_ranges: vec![0.7, 0.5],
            intervals: vec![0.15, 0.25],
            keep: 2,
        };
        let loc = Localizer3d::new(c);
        let sequential = loc.locate_adaptive(&m, &adaptive).unwrap();
        let mut ws = Workspace::new();
        let plan = loc.sweep_plan(&m, &adaptive, &mut ws).unwrap();
        let results: Vec<_> = (0..plan.cell_count())
            .map(|i| plan.solve_cell(i, &mut ws))
            .collect();
        let fanned = plan.finish(results).unwrap();
        assert_eq!(sequential, fanned);
    }

    #[test]
    fn grid_solver_sweep_matches_truth_and_plan_fanout() {
        let target = Point3::new(0.1, 0.8, 0.0);
        let m = linear_scan(target, 0.6, 0.005);
        let mut c = cfg();
        c.solver = crate::SolverKind::Grid(crate::GridConfig::default());
        let loc = Localizer2d::new(c);
        let adaptive = AdaptiveConfig {
            scanning_ranges: vec![0.8, 1.0],
            intervals: vec![0.2],
            keep: 1,
        };
        let sequential = loc.locate_adaptive(&m, &adaptive).unwrap();
        assert!(
            sequential.estimate.distance_error(target) < 1e-4,
            "error {}",
            sequential.estimate.distance_error(target)
        );
        // Grid cells carry no pairing: the whole range subset scores.
        assert!(sequential.trials[0].estimate.equation_count > 100);
        let mut ws = Workspace::new();
        let plan = loc.sweep_plan(&m, &adaptive, &mut ws).unwrap();
        let results: Vec<_> = (0..plan.cell_count())
            .map(|i| plan.solve_cell(i, &mut ws))
            .collect();
        let fanned = plan.finish(results).unwrap();
        assert_eq!(sequential, fanned);
    }

    #[test]
    fn adaptive_3d_on_planar_circle() {
        let target = Point3::new(0.1, 0.2, 0.7);
        let m: Vec<(Point3, f64)> = (0..400)
            .map(|i| {
                let a = i as f64 * TAU / 400.0;
                let p = Point3::new(0.35 * a.cos(), 0.35 * a.sin(), 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut c = cfg();
        c.side_hint = Some(Point3::new(0.0, 0.0, 0.5));
        let adaptive = AdaptiveConfig {
            scanning_ranges: vec![0.7],
            intervals: vec![0.15, 0.25],
            keep: 2,
        };
        let outcome = Localizer3d::new(c).locate_adaptive(&m, &adaptive).unwrap();
        assert!(
            outcome.estimate.distance_error(target) < 1e-4,
            "error {}",
            outcome.estimate.distance_error(target)
        );
    }
}
