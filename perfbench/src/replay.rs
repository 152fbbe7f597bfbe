//! Stage-by-stage replay of one 2D linear solve through public functions.
//!
//! `Localizer2d::locate_in` runs unwrap → smooth → frame → pairs → row
//! assembly → IRLS → covariance inside one call. The traced run replays
//! the same arithmetic one public call at a time, with a span around each
//! stage, and checks that the replay reproduces `locate_in`'s equation
//! count, IRLS iteration count and mean residual bit for bit — otherwise
//! the stage times would describe some other computation.

use lion::core::{model, CoreError, Estimate, LocalizerConfig, PhaseProfile, Weighting};
use lion::geom::{Point3, Vec3};
use lion::linalg::{
    solve_irls_normal, sym_eigen3, IrlsConfig, Matrix, NormalEq, NormalIrlsScratch, Vector,
};

use crate::spans::Spans;

/// Stage span names, in pipeline order.
pub const STAGES: [&str; 7] = [
    "preprocess.unwrap",
    "preprocess.smooth",
    "frame",
    "pairs",
    "assemble",
    "irls",
    "covariance",
];

/// Samples a 2D solve needs at least.
const MIN_SAMPLES_2D: usize = 4;

/// What the replay reproduces of one solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replayed {
    /// Rows of the stacked system.
    pub equation_count: usize,
    /// IRLS reweighting iterations.
    pub iterations: usize,
    /// Mean residual after the final solve.
    pub mean_residual: f64,
    /// Whether IRLS stopped before its iteration cap.
    pub converged: bool,
    /// Sample pairs the strategy produced.
    pub pairs: usize,
}

/// Whether a replay agrees with the batch result: the same
/// `equation_count`, `iterations` and bit-identical `mean_residual`, or
/// the same error. The replay stops after the covariance stage, so a
/// batch solve that fails later (mirror recovery) may leave the replay
/// successful.
pub fn agrees(
    batch: &Result<Estimate, CoreError>,
    replay: &Result<Replayed, &'static str>,
) -> bool {
    match (batch, replay) {
        (Ok(e), Ok(r)) => {
            e.equation_count == r.equation_count
                && e.iterations == r.iterations
                && e.mean_residual.to_bits() == r.mean_residual.to_bits()
        }
        (Err(e), Err(kind)) => e.kind() == *kind,
        (Err(e), Ok(_)) => e.kind() == "recovery_failed",
        (Ok(_), Err(_)) => false,
    }
}

/// Reusable buffers for the replay, mirroring the solver workspace.
#[derive(Debug)]
pub struct Replayer {
    profile: PhaseProfile,
    prefix: Vec<f64>,
    tmp: Vec<f64>,
    deltas: Vec<f64>,
    coords: Vec<f64>,
    pairs: Vec<(usize, usize)>,
    pair_i: Vec<i32>,
    pair_j: Vec<i32>,
    design: Matrix,
    rhs: Vector,
    ne: NormalEq,
    irls: NormalIrlsScratch,
    cov_diag: Vec<f64>,
}

/// The principal frame of the sample positions: centroid, axes (strongest
/// spread first) and how many of the two planar directions are spanned.
fn planar_frame(
    positions: &[Point3],
    rank_tolerance: f64,
) -> Result<(Point3, [Vec3; 3], usize), &'static str> {
    let inv = 1.0 / positions.len() as f64;
    let centroid = positions.iter().fold(Point3::ORIGIN, |acc, p| {
        Point3::new(acc.x + p.x * inv, acc.y + p.y * inv, acc.z + p.z * inv)
    });
    let mut cov = [[0.0_f64; 3]; 3];
    for p in positions {
        let d = *p - centroid;
        let v = [d.x, d.y, 0.0];
        for r in 0..3 {
            for c in 0..3 {
                cov[r][c] += v[r] * v[c];
            }
        }
    }
    let (vals, vecs) = sym_eigen3(&cov);
    let s1 = vals[0].max(0.0).sqrt();
    if s1 <= 1e-12 {
        return Err("degenerate_geometry");
    }
    let axes = vecs.map(|v| Vec3::new(v[0], v[1], v[2]));
    let spanned = vals
        .iter()
        .take(2)
        .filter(|&&v| v.max(0.0).sqrt() / s1 >= rank_tolerance)
        .count();
    if spanned == 0 {
        return Err("degenerate_geometry");
    }
    Ok((centroid, axes, spanned))
}

impl Replayer {
    /// Empty buffers; they grow on first use and are then reused.
    pub fn new() -> Self {
        Replayer {
            profile: PhaseProfile::default(),
            prefix: Vec::new(),
            tmp: Vec::new(),
            deltas: Vec::new(),
            coords: Vec::new(),
            pairs: Vec::new(),
            pair_i: Vec::new(),
            pair_j: Vec::new(),
            design: Matrix::zeros(0, 0),
            rhs: Vector::zeros(0),
            ne: NormalEq::new(),
            irls: NormalIrlsScratch::new(),
            cov_diag: Vec::new(),
        }
    }

    /// Replays one 2D linear solve of `measurements` under `config`, each
    /// stage in its own span under the innermost open one.
    pub fn run(
        &mut self,
        measurements: &[(Point3, f64)],
        config: &LocalizerConfig,
        spans: &mut Spans,
    ) -> Result<Replayed, &'static str> {
        let irls_config: IrlsConfig = match config.weighting {
            Weighting::Weighted(cfg) => cfg,
            _ => return Err("invalid_config"),
        };
        let Replayer {
            profile,
            prefix,
            tmp,
            deltas,
            coords,
            pairs,
            pair_i,
            pair_j,
            design,
            rhs,
            ne,
            irls,
            cov_diag,
        } = self;

        spans
            .time("preprocess.unwrap", || {
                profile.rebuild_from_wrapped(measurements, config.wavelength)
            })
            .map_err(|e| e.kind())?;
        spans.time("preprocess.smooth", || {
            profile.smooth_with_scratch(config.smoothing_window, prefix, tmp)
        });

        let k = spans.time("frame", || {
            let n = profile.len();
            if n < MIN_SAMPLES_2D {
                return Err("too_few_measurements");
            }
            let reference = match config.reference_index {
                Some(r) if r < n => r,
                Some(_) => return Err("invalid_config"),
                None => n / 2,
            };
            let positions = profile.positions();
            let (centroid, axes, k) = planar_frame(positions, config.rank_tolerance)?;
            profile.delta_distances_into(reference, deltas);
            coords.clear();
            coords.reserve(n * k);
            for axis in axes.iter().take(k) {
                for p in positions {
                    coords.push(
                        (p.x - centroid.x) * axis.x
                            + (p.y - centroid.y) * axis.y
                            + (p.z - centroid.z) * axis.z,
                    );
                }
            }
            Ok(k)
        })?;

        spans.time("pairs", || {
            config.pair_strategy.pairs_into(profile.positions(), pairs)
        });
        spans
            .time("assemble", || {
                model::build_system_soa(
                    coords,
                    profile.len(),
                    k,
                    deltas,
                    pairs,
                    pair_i,
                    pair_j,
                    design,
                    rhs,
                )
            })
            .map_err(|e| e.kind())?;
        let outcome = spans
            .time("irls", || {
                ne.set_system(k + 1, design.as_slice(), rhs.as_slice());
                solve_irls_normal(ne, &irls_config, irls)
            })
            .map_err(|_| "linalg")?;
        spans.time("covariance", || {
            let m = ne.rows();
            let cols = ne.cols();
            let wsum: f64 = irls.weights().iter().sum();
            if m > cols && wsum > 0.0 {
                let dof = (m - cols) as f64;
                let sigma2 = irls
                    .residuals()
                    .iter()
                    .zip(irls.weights())
                    .map(|(r, w)| w * r * r)
                    .sum::<f64>()
                    / dof.max(1.0)
                    / (wsum / m as f64).max(f64::MIN_POSITIVE);
                if ne.set_weights(irls.weights()).is_ok()
                    && ne.covariance_diag_into(cov_diag).is_ok()
                {
                    for d in cov_diag.iter_mut() {
                        *d = (sigma2 * *d).max(0.0).sqrt();
                    }
                }
            }
        });
        Ok(Replayed {
            equation_count: design.rows(),
            iterations: outcome.iterations,
            mean_residual: outcome.mean_residual,
            converged: outcome.converged,
            pairs: pairs.len(),
        })
    }
}
