//! Scoring every operation against the simulator's planted phase center.
//!
//! An operation that returns an estimate within [`OK_RADIUS_M`] of the
//! planted phase center is *ok*; one that returns an estimate farther
//! off is a *misreport* (a confident wrong answer); one that returns an
//! error is *refused*. A refusal is neither ok nor a misreport: outside
//! the operating envelope it is the required outcome.

use lion::geom::Point3;

use crate::stats;

/// Largest distance from the planted phase center an ok estimate may
/// have (meters).
pub const OK_RADIUS_M: f64 = 0.05;

/// The class of one operation's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// An estimate within [`OK_RADIUS_M`] of truth.
    Ok,
    /// An estimate more than [`OK_RADIUS_M`] off.
    Misreport,
    /// No estimate.
    Refused,
}

/// Classifies one operation: `estimate` is `None` when it was refused.
pub fn classify(estimate: Option<Point3>, truth: Point3) -> Outcome {
    match estimate {
        None => Outcome::Refused,
        Some(p) if p.distance(truth) <= OK_RADIUS_M => Outcome::Ok,
        Some(_) => Outcome::Misreport,
    }
}

/// Outcome counts and the errors of every returned estimate.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations classified [`Outcome::Ok`].
    pub ok: u64,
    /// Operations classified [`Outcome::Misreport`].
    pub misreport: u64,
    /// Operations classified [`Outcome::Refused`].
    pub refused: u64,
    /// Distance to truth of every returned estimate, meters.
    pub errors_m: Vec<f64>,
}

impl Tally {
    /// Scores one operation.
    pub fn record(&mut self, estimate: Option<Point3>, truth: Point3) -> Outcome {
        let outcome = classify(estimate, truth);
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Misreport => self.misreport += 1,
            Outcome::Refused => self.refused += 1,
        }
        if let Some(p) = estimate {
            self.errors_m.push(p.distance(truth));
        }
        outcome
    }

    /// Operations scored.
    pub fn attempts(&self) -> u64 {
        self.ok + self.misreport + self.refused
    }

    /// Share of attempts in `count`.
    pub fn share(&self, count: u64) -> f64 {
        count as f64 / self.attempts().max(1) as f64
    }

    /// Percentile `q` of the returned estimates' errors, millimeters
    /// (`NaN` when every attempt was refused).
    pub fn error_mm(&self, q: f64) -> f64 {
        if self.errors_m.is_empty() {
            return f64::NAN;
        }
        stats::percentile(&stats::sorted(self.errors_m.clone()), q) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_split_at_the_ok_radius() {
        let truth = Point3::new(0.021, 0.788, 0.0);
        let near = Point3::new(truth.x + 0.049, truth.y, 0.0);
        let far = Point3::new(truth.x + 0.051, truth.y, 0.0);
        assert_eq!(classify(Some(truth), truth), Outcome::Ok);
        assert_eq!(classify(Some(near), truth), Outcome::Ok);
        assert_eq!(classify(Some(far), truth), Outcome::Misreport);
        assert_eq!(classify(None, truth), Outcome::Refused);
    }

    #[test]
    fn tally_counts_against_attempts() {
        let truth = Point3::new(0.0, 0.8, 0.0);
        let mut t = Tally::default();
        t.record(Some(Point3::new(0.0, 0.801, 0.0)), truth);
        t.record(Some(Point3::new(0.3, 0.8, 0.0)), truth);
        t.record(None, truth);
        t.record(None, truth);
        assert_eq!((t.ok, t.misreport, t.refused, t.attempts()), (1, 1, 2, 4));
        assert_eq!(t.share(t.refused), 0.5);
        // Refusals carry no error; the two estimates do.
        assert_eq!(t.errors_m.len(), 2);
        assert!((t.error_mm(50.0) - 1.0).abs() < 1e-9);
        assert!((t.error_mm(100.0) - 300.0).abs() < 1e-9);
        assert!(Tally::default().error_mm(50.0).is_nan());
    }
}
