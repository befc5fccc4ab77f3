//! Figure output: JSON artifacts plus paper-style console tables.
//!
//! Every `fig*` binary produces one [`Figure`] per paper figure its runs
//! describe: a set of named series or rows, headline comparisons, and
//! notes. Results are printed as aligned tables and written to
//! `results/<id>.json` so EXPERIMENTS.md can quote them verbatim.

use crate::harness::write_artifact;
use metrics::Series;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// One reproduced figure or table.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Identifier, e.g. "fig04".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Swept series (message-size figures).
    pub series: Vec<Series>,
    /// Free-form table rows: `(label, value, unit)`.
    pub rows: Vec<(String, f64, String)>,
    /// Headline claims checked against the paper.
    pub claims: Vec<Claim>,
}

/// A headline comparison: paper value vs measured.
#[derive(Debug, Clone, Serialize)]
pub struct Claim {
    /// What is being compared (e.g. "NAT throughput degradation @1280B").
    pub what: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Unit or scale ("%", "x", "$/h", "us").
    pub unit: String,
}

impl Claim {
    /// Builds a claim.
    pub fn new(
        what: impl Into<String>,
        paper: f64,
        measured: f64,
        unit: impl Into<String>,
    ) -> Claim {
        Claim {
            what: what.into(),
            paper,
            measured,
            unit: unit.into(),
        }
    }
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Figure {
        Figure {
            id: id.into(),
            title: title.into(),
            series: Vec::new(),
            rows: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Adds a table row.
    pub fn push_row(&mut self, label: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.rows.push((label.into(), value, unit.into()));
    }

    /// Adds a paper-vs-measured claim.
    pub fn push_claim(&mut self, c: Claim) {
        self.claims.push(c);
    }

    /// Prints the figure as console tables.
    pub fn print(&self) {
        println!("==== {} — {} ====", self.id, self.title);
        if !self.series.is_empty() {
            // Header: x then one column per series.
            print!("{:>10}", "x");
            for s in &self.series {
                print!("  {:>14}", format!("{} [{}]", s.name, s.unit));
            }
            println!();
            let xs: Vec<f64> = self.series[0].points.iter().map(|p| p.x).collect();
            for (i, x) in xs.iter().enumerate() {
                print!("{x:>10.0}");
                for s in &self.series {
                    match s.points.get(i) {
                        Some(p) => print!("  {:>8.1}±{:<5.1}", p.y.mean, p.y.stddev),
                        None => print!("  {:>14}", "-"),
                    }
                }
                println!();
            }
        }
        for (label, value, unit) in &self.rows {
            println!("  {label:<52} {value:>12.3} {unit}");
        }
        if !self.claims.is_empty() {
            println!("  -- paper vs measured --");
            for c in &self.claims {
                println!(
                    "  {:<52} paper {:>8.2}{u}  measured {:>8.2}{u}",
                    c.what,
                    c.paper,
                    c.measured,
                    u = c.unit
                );
            }
        }
        println!();
    }

    /// Writes `<id>.json` under `dir` (created if missing) through
    /// [`write_artifact`], so a failed write exits the process.
    pub fn write_json(&self, dir: impl AsRef<Path>) -> PathBuf {
        let path = dir.as_ref().join(format!("{}.json", self.id));
        let text = serde_json::to_string_pretty(self).expect("figure serializes");
        write_artifact(&path, &text);
        path
    }

    /// Prints and writes to the default `results/` directory.
    pub fn finish(&self) {
        self.print();
        println!("[written {}]", self.write_json("results").display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Summary;

    #[test]
    fn figure_serializes_and_writes() {
        let mut f = Figure::new("figtest", "test figure");
        let mut s = Series::new("NAT", "Mbit/s");
        s.push(
            64.0,
            Summary {
                count: 1,
                mean: 10.0,
                stddev: 1.0,
                min: 9.0,
                max: 11.0,
            },
        );
        f.push_series(s);
        f.push_row("degradation", 68.0, "%");
        f.push_claim(Claim::new("tput ratio", 2.1, 2.3, "x"));
        let dir = std::env::temp_dir().join("nestless-figtest");
        let p = f.write_json(&dir);
        let text = std::fs::read_to_string(p).unwrap();
        assert!(text.contains("figtest"));
        assert!(text.contains("NAT"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
