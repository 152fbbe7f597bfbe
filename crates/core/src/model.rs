//! The linear localization model: turning sample pairs into the
//! least-squares system `𝓐·𝓧 = 𝓚` (paper Eqs. 7, 9, 12).
//!
//! For a pair of tag positions `Tᵢ, Tⱼ` with distance differences
//! `Δdᵢ, Δdⱼ` relative to the common reference sample, substituting
//! `d_t = d_r + Δd_t` (Eq. 6) into the radical-line equation (Eq. 5) and
//! expanding `d² = d_r² + 2·d_r·Δd + Δd²` cancels the quadratic `d_r²`
//! term and leaves one linear equation per pair:
//!
//! ```text
//! Σ_c 2(c_i − c_j)·c  +  2(Δdᵢ − Δdⱼ)·d_r  =  Σ_c (c_i² − c_j²) − Δdᵢ² + Δdⱼ²
//! ```
//!
//! over the coordinates `c` (x, y in 2D; x, y, z in 3D) plus the unknown
//! reference distance `d_r`.

use lion_linalg::{Matrix, Vector};

use crate::error::CoreError;

/// Builds the design matrix and right-hand side from per-sample coordinates
/// and distance differences.
///
/// `coords` is row-major `n × k` (`k` solvable coordinates per sample, in
/// whatever frame the caller chose); `deltas` has length `n`. Each pair
/// `(i, j)` becomes one row with `k + 1` columns — the coordinates then
/// `d_r`.
///
/// # Errors
///
/// - [`CoreError::InvalidConfig`] when buffer sizes disagree or `k == 0`,
/// - [`CoreError::NoPairs`] when `pairs` is empty,
/// - [`CoreError::TooFewMeasurements`] when there are fewer pairs than
///   unknowns (`k + 1`),
/// - [`CoreError::InvalidConfig`] when a pair index is out of bounds.
pub fn build_system(
    coords: &[f64],
    k: usize,
    deltas: &[f64],
    pairs: &[(usize, usize)],
) -> Result<(Matrix, Vector), CoreError> {
    let mut design = Matrix::zeros(0, 0);
    let mut rhs = Vector::zeros(0);
    build_system_into(coords, k, deltas, pairs, &mut design, &mut rhs)?;
    Ok((design, rhs))
}

/// [`build_system`] into caller-provided buffers, reusing their
/// allocations.
///
/// `design` and `rhs` are resized in place and fully overwritten. This is
/// the entry point the per-worker [`crate::Workspace`] drives: a batch of
/// solves reuses one design matrix instead of allocating per solve.
///
/// # Errors
///
/// Same as [`build_system`]; on error the buffer contents are unspecified.
pub fn build_system_into(
    coords: &[f64],
    k: usize,
    deltas: &[f64],
    pairs: &[(usize, usize)],
    design: &mut Matrix,
    rhs: &mut Vector,
) -> Result<(), CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidConfig {
            parameter: "k",
            found: "0".to_string(),
        });
    }
    if !coords.len().is_multiple_of(k) || coords.len() / k != deltas.len() {
        return Err(CoreError::InvalidConfig {
            parameter: "coords/deltas",
            found: format!("{} coords (k={k}) vs {} deltas", coords.len(), deltas.len()),
        });
    }
    if pairs.is_empty() {
        return Err(CoreError::NoPairs);
    }
    let n = deltas.len();
    if pairs.len() < k + 1 {
        return Err(CoreError::TooFewMeasurements {
            got: pairs.len(),
            needed: k + 1,
        });
    }
    design.reset_zeroed(pairs.len(), k + 1);
    rhs.reset_zeroed(pairs.len());
    for (row, &(i, j)) in pairs.iter().enumerate() {
        if i >= n || j >= n {
            return Err(CoreError::InvalidConfig {
                parameter: "pairs",
                found: format!("pair ({i}, {j}) out of bounds for {n} samples"),
            });
        }
        let mut kappa = 0.0;
        for c in 0..k {
            let ci = coords[i * k + c];
            let cj = coords[j * k + c];
            design[(row, c)] = 2.0 * (ci - cj);
            kappa += ci * ci - cj * cj;
        }
        design[(row, k)] = 2.0 * (deltas[i] - deltas[j]);
        kappa -= deltas[i] * deltas[i] - deltas[j] * deltas[j];
        rhs[row] = kappa;
    }
    Ok(())
}

/// [`build_system_into`] over **axis-major** coordinates, assembled by
/// the runtime-dispatched `lion_linalg::simd` row kernel.
///
/// `coords` is `k × n` axis-major (`coords[c * n + i]` is coordinate `c`
/// of sample `i`) — each frame axis is one contiguous lane, which is what
/// lets the kernel gather both pair endpoints with vector loads. The
/// caller-owned `pair_i`/`pair_j` lanes are refilled from `pairs` (after
/// bounds validation, so the `i32` narrowing is always exact). Validation
/// and row arithmetic mirror [`build_system_into`] operation for
/// operation; for identical inputs the produced system is bit-identical.
///
/// # Errors
///
/// Same as [`build_system`]; on error the buffer contents are
/// unspecified.
#[allow(clippy::too_many_arguments)]
pub fn build_system_soa(
    coords: &[f64],
    n: usize,
    k: usize,
    deltas: &[f64],
    pairs: &[(usize, usize)],
    pair_i: &mut Vec<i32>,
    pair_j: &mut Vec<i32>,
    design: &mut Matrix,
    rhs: &mut Vector,
) -> Result<(), CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidConfig {
            parameter: "k",
            found: "0".to_string(),
        });
    }
    if coords.len() != n * k || deltas.len() != n {
        return Err(CoreError::InvalidConfig {
            parameter: "coords/deltas",
            found: format!("{} coords (k={k}) vs {} deltas", coords.len(), deltas.len()),
        });
    }
    if pairs.is_empty() {
        return Err(CoreError::NoPairs);
    }
    if pairs.len() < k + 1 {
        return Err(CoreError::TooFewMeasurements {
            got: pairs.len(),
            needed: k + 1,
        });
    }
    pair_i.clear();
    pair_j.clear();
    pair_i.reserve(pairs.len());
    pair_j.reserve(pairs.len());
    for &(i, j) in pairs {
        if i >= n || j >= n {
            return Err(CoreError::InvalidConfig {
                parameter: "pairs",
                found: format!("pair ({i}, {j}) out of bounds for {n} samples"),
            });
        }
        pair_i.push(i as i32);
        pair_j.push(j as i32);
    }
    design.reset_zeroed(pairs.len(), k + 1);
    rhs.reset_zeroed(pairs.len());
    lion_linalg::simd::radical_rows(
        coords,
        n,
        k,
        deltas,
        pair_i,
        pair_j,
        design.as_mut_slice(),
        rhs.as_mut_slice(),
    );
    Ok(())
}

/// Verifies analytically that the true target satisfies the generated
/// equations (used by tests and debug assertions): returns the maximum
/// absolute equation violation at the given solution.
pub fn max_violation(design: &Matrix, rhs: &Vector, solution: &Vector) -> f64 {
    match design.mul_vector(solution) {
        Ok(ax) => ax
            .as_slice()
            .iter()
            .zip(rhs.as_slice())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs())),
        Err(_) => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_geom::Point3;

    /// Builds exact coords/deltas for an antenna at `target` and returns
    /// the system plus the expected solution.
    fn exact_system_2d(
        target: Point3,
        tags: &[Point3],
        reference: usize,
    ) -> (Matrix, Vector, Vector) {
        let d_ref = target.distance(tags[reference]);
        let deltas: Vec<f64> = tags.iter().map(|t| target.distance(*t) - d_ref).collect();
        let coords: Vec<f64> = tags.iter().flat_map(|t| [t.x, t.y]).collect();
        let pairs: Vec<(usize, usize)> = (0..tags.len() - 1).map(|i| (i, i + 1)).collect();
        let (a, k) = build_system(&coords, 2, &deltas, &pairs).unwrap();
        let expect = Vector::from_slice(&[target.x, target.y, d_ref]);
        (a, k, expect)
    }

    #[test]
    fn exact_solution_satisfies_equations_2d() {
        let target = Point3::new(0.5, 0.8, 0.0);
        let tags: Vec<Point3> = (0..8)
            .map(|i| {
                let a = i as f64 * 0.7;
                Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0)
            })
            .collect();
        let (a, k, expect) = exact_system_2d(target, &tags, 0);
        assert!(max_violation(&a, &k, &expect) < 1e-12);
    }

    #[test]
    fn solving_exact_system_recovers_target_2d() {
        let target = Point3::new(-0.2, 1.1, 0.0);
        let tags: Vec<Point3> = (0..10)
            .map(|i| {
                let a = i as f64 * 0.6;
                Point3::new(0.25 * a.cos() + 0.05, 0.25 * a.sin() - 0.1, 0.0)
            })
            .collect();
        let (a, k, expect) = exact_system_2d(target, &tags, 0);
        let sol = lion_linalg::lstsq::solve(&a, &k).unwrap();
        for (s, e) in sol.as_slice().iter().zip(expect.as_slice()) {
            assert!((s - e).abs() < 1e-9, "{s} vs {e}");
        }
    }

    #[test]
    fn exact_solution_3d() {
        let target = Point3::new(0.1, 0.9, 0.3);
        let tags: Vec<Point3> = (0..12)
            .map(|i| {
                let a = i as f64 * 0.5;
                Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.05 * i as f64)
            })
            .collect();
        let reference = 3;
        let d_ref = target.distance(tags[reference]);
        let deltas: Vec<f64> = tags.iter().map(|t| target.distance(*t) - d_ref).collect();
        let coords: Vec<f64> = tags.iter().flat_map(|t| [t.x, t.y, t.z]).collect();
        let pairs: Vec<(usize, usize)> = (0..tags.len() - 1).map(|i| (i, i + 1)).collect();
        let (a, k) = build_system(&coords, 3, &deltas, &pairs).unwrap();
        let sol = lion_linalg::lstsq::solve(&a, &k).unwrap();
        let expect = [target.x, target.y, target.z, d_ref];
        for (s, e) in sol.as_slice().iter().zip(expect) {
            assert!((s - e).abs() < 1e-8, "{s} vs {e}");
        }
    }

    #[test]
    fn one_dimensional_frame_solves_u_and_dr() {
        // Collinear tags: solve only [u, d_r] in the track frame.
        let target = Point3::new(0.2, 1.0, 0.0); // u* = 0.2, perpendicular 1.0
        let us: Vec<f64> = (0..30).map(|i| -0.3 + i as f64 * 0.02).collect();
        let tags: Vec<Point3> = us.iter().map(|&u| Point3::new(u, 0.0, 0.0)).collect();
        let reference = 15;
        let d_ref = target.distance(tags[reference]);
        let deltas: Vec<f64> = tags.iter().map(|t| target.distance(*t) - d_ref).collect();
        let pairs: Vec<(usize, usize)> = (0..20).map(|i| (i, i + 10)).collect();
        let (a, k) = build_system(&us, 1, &deltas, &pairs).unwrap();
        let sol = lion_linalg::lstsq::solve(&a, &k).unwrap();
        assert!((sol[0] - 0.2).abs() < 1e-9, "u {}", sol[0]);
        assert!((sol[1] - d_ref).abs() < 1e-9, "d_r {}", sol[1]);
        // Perpendicular recovery: v = √(d_r² − (u − u_ref)²).
        let v = (sol[1] * sol[1] - (sol[0] - us[reference]).powi(2)).sqrt();
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn irls_stop_is_invariant_to_frame_and_reference() {
        // One noisy circular scan, solved in its own frame with sample 0 as
        // the reference, then in a rotated + translated frame measured in
        // decimetres with a mid-scan reference. The two radical-line
        // systems are affine reparametrizations of each other (the same
        // fitted values and residuals, up to the unit), so both IRLS loops
        // must stop at the same iteration and agree on the antenna's world
        // position. A step test in σ units that is not a Mahalanobis
        // form, such as `‖Δx‖∞ < c·s`, stops a step apart here.
        use lion_linalg::{lstsq, solve_irls_normal, IrlsConfig, NormalEq, NormalIrlsScratch};
        let antenna = Point3::new(0.35, 0.9, 0.0);
        let n = 120;
        let tags: Vec<Point3> = (0..n)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / n as f64;
                Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0)
            })
            .collect();
        // Millimetre-scale deterministic noise plus a few multipath-like
        // outliers, on each sample's measured distance.
        let measured: Vec<f64> = tags
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let noise = 0.002 * ((i as f64 * 12.9898).sin() * 43758.5453).fract();
                let outlier = if i % 17 == 0 { 0.02 } else { 0.0 };
                antenna.distance(*t) + noise + outlier
            })
            .collect();
        let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + n / 4) % n)).collect();
        let (sin, cos) = 0.7_f64.sin_cos();
        let shift = (2.5, -1.25);
        // The moved frame also measures lengths in decimetres.
        const UNIT: f64 = 10.0;
        let config = IrlsConfig::default();
        // Solves in the frame `to_frame` maps world points into; returns
        // each loop's iteration count and the solved position mapped back
        // to the world by `to_world`.
        let run = |to_frame: &dyn Fn(Point3) -> (f64, f64),
                   to_world: &dyn Fn(f64, f64) -> (f64, f64),
                   unit: f64,
                   reference: usize| {
            let coords: Vec<f64> = tags
                .iter()
                .flat_map(|t| {
                    let (x, y) = to_frame(*t);
                    [x, y]
                })
                .collect();
            let deltas: Vec<f64> = measured
                .iter()
                .map(|d| (d - measured[reference]) * unit)
                .collect();
            let (a, k) = build_system(&coords, 2, &deltas, &pairs).unwrap();
            let mut ne = NormalEq::new();
            ne.set_system(3, a.as_slice(), k.as_slice());
            let normal =
                solve_irls_normal(&mut ne, &config, &mut NormalIrlsScratch::new()).unwrap();
            let qr = lstsq::solve_irls(&a, &k, &config).unwrap();
            assert!(normal.converged && qr.converged);
            assert!(normal.iterations < config.max_iterations);
            let x = ne.solution();
            (
                (normal.iterations, to_world(x[0], x[1])),
                (qr.iterations, to_world(qr.solution[0], qr.solution[1])),
            )
        };
        let own = run(&|p| (p.x, p.y), &|x, y| (x, y), 1.0, 0);
        let moved = run(
            &|p| {
                let (x, y) = (cos * p.x - sin * p.y, sin * p.x + cos * p.y);
                (UNIT * x + shift.0, UNIT * y + shift.1)
            },
            &|x, y| {
                let (dx, dy) = ((x - shift.0) / UNIT, (y - shift.1) / UNIT);
                (cos * dx + sin * dy, -sin * dx + cos * dy)
            },
            UNIT,
            n / 2 + 7,
        );
        for ((it_a, pa), (it_b, pb)) in [(own.0, moved.0), (own.1, moved.1)] {
            assert_eq!(it_a, it_b);
            assert!(
                (pa.0 - pb.0).abs() < 1e-9 && (pa.1 - pb.1).abs() < 1e-9,
                "{pa:?} vs {pb:?}"
            );
        }
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            build_system(&[], 0, &[], &[(0, 1)]),
            Err(CoreError::InvalidConfig { parameter: "k", .. })
        ));
        assert!(matches!(
            build_system(&[1.0, 2.0, 3.0], 2, &[0.0], &[(0, 1)]),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            build_system(&[1.0, 2.0], 1, &[0.0, 0.1], &[]),
            Err(CoreError::NoPairs)
        ));
        assert!(matches!(
            build_system(&[1.0, 2.0], 1, &[0.0, 0.1], &[(0, 1)]),
            Err(CoreError::TooFewMeasurements { needed: 2, .. })
        ));
        assert!(matches!(
            build_system(&[1.0, 2.0], 1, &[0.0, 0.1], &[(0, 5), (0, 1)]),
            Err(CoreError::InvalidConfig {
                parameter: "pairs",
                ..
            })
        ));
    }

    #[test]
    fn max_violation_detects_wrong_solution() {
        let target = Point3::new(0.5, 0.8, 0.0);
        let tags: Vec<Point3> = (0..6)
            .map(|i| {
                let a = i as f64;
                Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0)
            })
            .collect();
        let (a, k, expect) = exact_system_2d(target, &tags, 0);
        let mut wrong = expect.clone();
        wrong[0] += 0.1;
        assert!(max_violation(&a, &k, &wrong) > 1e-3);
        // Dimension mismatch returns infinity rather than panicking.
        assert!(max_violation(&a, &k, &Vector::zeros(1)).is_infinite());
    }
}
