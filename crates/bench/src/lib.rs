//! Shared report plumbing for the table/figure regenerators, and the
//! brute-vs-pruned race of the `plansearch` and `inferbench` gates.

#![warn(missing_docs)]

use std::time::Instant;

/// A simple fixed-width text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with per-column widths; first column left-aligned.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        if cols == 0 {
            return String::new();
        }
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i].saturating_sub(c.chars().count());
                if i == 0 {
                    line.push_str(c);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(c);
                }
                if i + 1 < cells.len() {
                    line.push_str("  ");
                }
            }
            line
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a float in engineering style with `digits` significant decimals.
pub fn eng(value: f64, digits: usize) -> String {
    if value == 0.0 {
        return "0".into();
    }
    let magnitude = value.abs();
    if (0.01..10_000.0).contains(&magnitude) {
        format!("{value:.digits$}")
    } else {
        format!("{value:.digits$e}")
    }
}

/// Format a ratio like `971x`.
pub fn times(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.0}x")
    } else {
        format!("{value:.1}x")
    }
}

/// One brute-vs-pruned plan-search race (see [`search_race`]).
pub struct SearchRace<P, S> {
    /// The pruned search's answer.
    pub result: parsim::LatticeResult<P, S>,
    /// Feasible set, frontier and argmin all equal the brute arm's.
    pub identical: bool,
    /// Wall time of `reps` brute passes, ms.
    pub naive_ms: f64,
    /// Wall time of `reps` pruned passes, ms.
    pub pruned_ms: f64,
}

/// Race a pruned lattice search against its naive oracle on one space.
///
/// The brute arm builds the full deliverable — feasible set, frontier,
/// argmin — from `naive` through the core's reference operators. One
/// untimed pass of each arm feeds the equivalence gate; then `reps` brute
/// passes and `reps` pruned passes are timed.
pub fn search_race<Sp, P, S>(
    space: &Sp,
    reps: u32,
    naive: impl Fn(&Sp) -> Vec<P>,
    pruned: impl Fn(&Sp) -> parsim::LatticeResult<P, S>,
) -> SearchRace<P, S>
where
    P: parsim::Ranked + PartialEq,
{
    let brute = |space: &Sp| {
        let feasible = naive(space);
        let pareto = parsim::pareto_frontier_reference(&feasible);
        let best = parsim::argmin_point(&feasible);
        (feasible, pareto, best)
    };

    let result = pruned(space);
    let (feasible, pareto, best) = brute(space);
    let identical = result.feasible == feasible && result.pareto == pareto && result.best == best;

    let naive_start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(brute(std::hint::black_box(space)));
    }
    let naive_ms = naive_start.elapsed().as_secs_f64() * 1e3;
    let pruned_start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(pruned(std::hint::black_box(space)));
    }
    let pruned_ms = pruned_start.elapsed().as_secs_f64() * 1e3;
    SearchRace {
        result,
        identical,
        naive_ms,
        pruned_ms,
    }
}

/// Print a titled section header.
pub fn section(title: impl std::fmt::Display) {
    println!("\n=== {title} ===\n");
}

/// Parse a `--table N` / `--figure N` style CLI argument; `Ok(None)` = all.
///
/// Delegates to the structured flag parser shared with the `serve` binary
/// ([`serve::flags::Flags`]). A present flag with a missing, flag-like, or
/// non-numeric value is reported as an `Err` so the binaries can print
/// usage instead of panicking.
pub fn parse_selector(flag: &str) -> Result<Option<u32>, String> {
    serve::flags::Flags::from_env().get(flag)
}

/// Reject unknown `--flags` (typo guard shared with the `serve` binary).
pub fn check_known_flags(known: &[&str]) -> Result<(), String> {
    serve::flags::Flags::from_env().check_known(known)
}

/// Parse a `--trace PATH` argument, falling back to the `FRONTIER_TRACE`
/// environment variable. `None` means tracing stays in memory only.
pub fn parse_trace_path() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .or_else(|| obs::trace_path_from_env().map(std::path::PathBuf::from))
}

/// Flush the global recorder: write the JSONL trace to `path` and a
/// Chrome-trace JSON array to `<path>.chrome.json`. Prints a short note so
/// the user knows where the trace landed.
pub fn export_trace(path: &std::path::Path) -> std::io::Result<()> {
    let rec = obs::recorder();
    rec.write_jsonl(path)?;
    let chrome = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{ext}.chrome.json"),
        None => "chrome.json".to_string(),
    });
    rec.write_chrome_trace(&chrome)?;
    eprintln!(
        "trace: {} events -> {} (+ {})",
        rec.len(),
        path.display(),
        chrome.display()
    );
    Ok(())
}

/// Export the trace if the CLI/env selected a path; report failures to
/// stderr without aborting the run.
pub fn finish_trace() {
    if let Some(path) = parse_trace_path() {
        if let Err(e) = export_trace(&path) {
            eprintln!("trace: failed to write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]).row(["b", "22222"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].ends_with("22222"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn zero_column_table_renders_empty() {
        let t = Table::new(Vec::<String>::new());
        assert_eq!(t.render(), "");
    }

    #[test]
    fn single_column_table_renders() {
        let mut t = Table::new(["only"]);
        t.row(["x"]);
        let s = t.render();
        assert!(s.starts_with("only\n----\n"));
    }

    #[test]
    fn selector_parses_value_and_absence() {
        let flags = serve::flags::Flags::from_args(["--table", "3"]);
        assert_eq!(flags.get::<u32>("--table"), Ok(Some(3)));
        assert_eq!(flags.get::<u32>("--figure"), Ok(None));
    }

    #[test]
    fn selector_rejects_garbage_without_panicking() {
        let flags = serve::flags::Flags::from_args(["--table", "two"]);
        let err = flags.get::<u32>("--table").unwrap_err();
        assert!(err.contains("--table"), "{err}");
        assert!(err.contains("two"), "{err}");
        let flags = serve::flags::Flags::from_args(["--table"]);
        assert!(flags.get::<u32>("--table").is_err());
    }

    #[test]
    fn eng_formats_ranges() {
        assert_eq!(eng(0.0, 2), "0");
        assert_eq!(eng(3.25159, 2), "3.25");
        assert_eq!(eng(1.5e13, 2), "1.50e13");
    }

    #[test]
    fn times_formats() {
        assert_eq!(times(971.2), "971x");
        assert_eq!(times(6.6), "6.6x");
    }
}
