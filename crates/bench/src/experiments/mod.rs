//! One module per reproduced figure, plus ablations.
//!
//! Every experiment exposes `report(seed) -> ExperimentReport`, printing
//! the same series the corresponding paper figure plots. Modules also
//! expose finer-grained `run*` functions with trial counts for tests.

use std::fmt;

use lion_engine::MetricsReport;

pub mod ablations;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16_18;
pub mod fig2;
pub mod fig20;
pub mod fig21;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig9;

/// A rendered experiment: identifier, human title, and the output lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentReport {
    /// Short identifier (`fig13a`, `ablation_pairs`, ...).
    pub id: String,
    /// Human-readable title referencing the paper figure.
    pub title: String,
    /// The measured series, one line per row.
    pub lines: Vec<String>,
    /// Engine instrumentation for the batch that produced the series,
    /// when the experiment ran on the [`lion_engine`] engine.
    pub metrics: Option<MetricsReport>,
}

impl ExperimentReport {
    /// Creates a report.
    pub fn new(id: &str, title: &str) -> Self {
        ExperimentReport {
            id: id.to_string(),
            title: title.to_string(),
            lines: Vec::new(),
            metrics: None,
        }
    }

    /// Appends one output line.
    pub fn push(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Attaches the engine metrics printed below the series.
    pub fn with_metrics(mut self, metrics: MetricsReport) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        for line in &self.lines {
            writeln!(f, "  {line}")?;
        }
        if let Some(metrics) = &self.metrics {
            writeln!(f, "  -- engine --")?;
            for line in metrics.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

/// All experiment identifiers, in paper order.
pub fn available_experiments() -> Vec<&'static str> {
    vec![
        "fig2",
        "fig3",
        "fig4",
        "fig6",
        "fig9",
        "fig13a",
        "fig13b",
        "fig14a",
        "fig14b",
        "fig15",
        "fig16_17",
        "fig18",
        "fig20",
        "fig21",
        "ablation_pairs",
        "ablation_adaptive",
        "ablation_smooth",
        "ablation_weightfn",
        "ablation_reference",
        "ablation_position_error",
        "ablation_refine",
    ]
}

/// Runs one experiment by identifier; `None` for unknown identifiers.
pub fn run_experiment(id: &str, seed: u64) -> Option<ExperimentReport> {
    Some(match id {
        "fig2" => fig2::report(seed),
        "fig3" => fig3::report(seed),
        "fig4" => fig4::report(seed),
        "fig6" => fig6::report(seed),
        "fig9" => fig9::report(seed),
        "fig13a" => fig13::report_accuracy(seed),
        "fig13b" => fig13::report_timing(seed),
        "fig14a" => fig14::report_3d(seed),
        "fig14b" => fig14::report_2d(seed),
        "fig15" => fig15::report(seed),
        "fig16_17" => fig16_18::report_range(seed),
        "fig18" => fig16_18::report_interval(seed),
        "fig20" => fig20::report(seed),
        "fig21" => fig21::report(seed),
        "ablation_pairs" => ablations::report_pairs(seed),
        "ablation_adaptive" => ablations::report_adaptive(seed),
        "ablation_smooth" => ablations::report_smoothing(seed),
        "ablation_weightfn" => ablations::report_weightfn(seed),
        "ablation_reference" => ablations::report_reference(seed),
        "ablation_position_error" => ablations::report_position_error(seed),
        "ablation_refine" => ablations::report_refine(seed),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        for id in available_experiments() {
            // Do not *run* everything here (slow); just check the id set
            // matches the dispatcher by probing the unknown case.
            assert_ne!(id, "unknown");
        }
        assert!(run_experiment("unknown", 0).is_none());
    }

    #[test]
    fn report_display() {
        let mut r = ExperimentReport::new("figX", "title");
        r.push("row 1");
        let s = r.to_string();
        assert!(s.contains("figX"));
        assert!(s.contains("row 1"));
    }
}
