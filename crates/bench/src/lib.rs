//! Shared plumbing for the experiment binaries: a plain-text table printer
//! and a `--quick`/`--full` argument convention.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | binary    | artifact | contents |
//! |-----------|----------|----------|
//! | `table1`  | Table 1  | the base POWER4-like machine configuration |
//! | `table2`  | Table 2  | the explored design space |
//! | `fig3`    | Figure 3 | analytic AVF-step error, 100 MB cache |
//! | `fig4`    | Figure 4 | analytic SOFR-step error, min-of-N system |
//! | `sec5_1`  | §5.1     | AVF & SOFR vs Monte Carlo, uniprocessor + SPEC |
//! | `fig5`    | Figure 5 | AVF-step error, synthesized workloads |
//! | `fig6a`   | Figure 6a| SOFR-step error, SPEC clusters |
//! | `fig6b`   | Figure 6b| SOFR-step error, synthesized-workload clusters |
//! | `sec5_4`  | §5.4     | SoftArch vs Monte Carlo across the space |
//! | `ablation_phase`  | — | start-phase convention sensitivity |
//! | `ablation_trials` | — | Monte Carlo convergence |

#![warn(missing_docs)]

use serr_core::checkpoint::{SweepOptions, SweepReport};
use serr_core::experiments::ExperimentConfig;
use serr_obs::{Event, Level, Obs};

/// Renders rows as an aligned plain-text table.
///
/// ```
/// use serr_bench::render_table;
/// let out = render_table(
///     &["name", "value"],
///     &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
/// );
/// assert!(out.contains("name"));
/// assert!(out.lines().count() >= 4);
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&line(&headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>()));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage with two decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a float in compact scientific notation.
#[must_use]
pub fn sci(x: f64) -> String {
    format!("{x:.3e}")
}

/// Resolves the experiment configuration from command-line arguments:
/// `--quick` for smoke runs, anything else (or nothing) for the full
/// reproduction settings recorded in EXPERIMENTS.md.
#[must_use]
pub fn config_from_args() -> ExperimentConfig {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    }
}

/// Resolves checkpoint behavior from command-line arguments: the figure
/// binaries resume from their journal by default (a killed multi-hour run
/// picks up where it stopped), and `--fresh` discards the journal first.
#[must_use]
pub fn sweep_options_from_args() -> SweepOptions {
    if std::env::args().any(|a| a == "--fresh") {
        SweepOptions::fresh()
    } else {
        SweepOptions::resume()
    }
}

/// Unpacks a sweep report for a figure binary: bookkeeping (resume/compute
/// counts) and any failed points become typed events on an info-level
/// stderr observer — keeping stdout a clean table — and the completed rows
/// come back for rendering.
pub fn unpack_report<R>(name: &str, report: SweepReport<R>) -> Vec<R> {
    let obs = Obs::stderr(Level::Info);
    obs.emit(
        Event::new("sweep.summary", 0)
            .with("sweep", name.to_owned())
            .with("rows", report.rows.len() as u64)
            .with("resumed", report.resumed as u64)
            .with("computed", report.computed as u64)
            .with("failed", report.failures.len() as u64),
    );
    for f in &report.failures {
        obs.emit(
            Event::warn("sweep.point_failed", f.index as u64)
                .with("sweep", name.to_owned())
                .with("point", f.index as u64)
                .with("error", f.error.to_string()),
        );
    }
    report.rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["xxxx".into(), "1".into()], vec!["y".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows end aligned on the last column.
        assert!(lines[0].ends_with("long-header"));
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].ends_with('2'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(sci(12345.678), "1.235e4");
    }
}
