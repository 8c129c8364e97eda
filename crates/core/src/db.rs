//! The results database: one record per (test, compilation) run.

use serde::{Deserialize, Serialize};

use flit_toolchain::cache::BuildStats;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::CompilerKind;

/// One (test, compilation) result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Test name.
    pub test: String,
    /// The compilation.
    pub compilation: Compilation,
    /// Human-readable compilation label.
    pub label: String,
    /// Simulated wall-clock seconds (summed over data-driven runs,
    /// with deterministic measurement jitter applied). `None` when the
    /// compilation failed to link or the run crashed: a partial sum up
    /// to the crash is not a measurement, and timing analysis must skip
    /// it rather than ingest a sentinel.
    pub seconds: Option<f64>,
    /// The user `compare` metric against the baseline compilation's
    /// result (summed over data-driven runs). `0.0` = considered equal.
    pub comparison: f64,
    /// Bitwise equality with the baseline result.
    pub bitwise_equal: bool,
    /// ℓ2 norm of the baseline result (for relativizing errors).
    pub baseline_norm: f64,
    /// The run crashed (mixed-ABI executables only; never for the
    /// uniform builds of the matrix sweep).
    pub crashed: bool,
}

impl RunRecord {
    /// Is this a *variable* run (differs from baseline)?
    pub fn is_variable(&self) -> bool {
        !self.crashed && !self.bitwise_equal
    }

    /// Relative error: `comparison / baseline_norm` (the paper's
    /// Figure 6 normalization: "errors were normalized by dividing by
    /// the ℓ2 norm of the baseline mesh values").
    pub fn relative_error(&self) -> f64 {
        if self.comparison == 0.0 {
            0.0
        } else if self.baseline_norm == 0.0 {
            f64::INFINITY
        } else {
            self.comparison / self.baseline_norm
        }
    }
}

/// All results of a matrix sweep.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResultsDb {
    /// The application name.
    pub app: String,
    /// All run records.
    pub rows: Vec<RunRecord>,
    /// Build-work counters from the sweep that produced this database
    /// (diagnostics; not part of the scientific results — `rows` are
    /// bit-identical whether or not the build cache was enabled).
    pub build_stats: BuildStats,
}

impl ResultsDb {
    /// Create an empty database for an application.
    pub fn new(app: impl Into<String>) -> Self {
        ResultsDb {
            app: app.into(),
            rows: vec![],
            build_stats: BuildStats::default(),
        }
    }

    /// All records for one test.
    pub fn for_test(&self, test: &str) -> Vec<&RunRecord> {
        self.rows.iter().filter(|r| r.test == test).collect()
    }

    /// All records for one compilation label.
    pub(crate) fn for_compilation(&self, label: &str) -> Vec<&RunRecord> {
        self.rows.iter().filter(|r| r.label == label).collect()
    }

    /// Distinct test names, in first-seen order.
    pub fn tests(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        self.rows
            .iter()
            .filter(|r| seen.insert(r.test.clone()))
            .map(|r| r.test.clone())
            .collect()
    }

    /// Distinct compilations, in first-seen order.
    pub fn compilations(&self) -> Vec<Compilation> {
        let mut seen = std::collections::HashSet::new();
        self.rows
            .iter()
            .filter(|r| seen.insert(r.label.clone()))
            .map(|r| r.compilation.clone())
            .collect()
    }

    /// `(variable runs, total runs)` for one compiler — Table 1's
    /// "# Variable Runs" column.
    pub(crate) fn variable_runs(&self, compiler: CompilerKind) -> (usize, usize) {
        let rows: Vec<&RunRecord> = self
            .rows
            .iter()
            .filter(|r| r.compilation.compiler == compiler)
            .collect();
        let var = rows.iter().filter(|r| r.is_variable()).count();
        (var, rows.len())
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ResultsDb serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_toolchain::compiler::OptLevel;

    fn rec(test: &str, compiler: CompilerKind, opt: OptLevel, cmp: f64) -> RunRecord {
        let compilation = Compilation::new(compiler, opt, vec![]);
        RunRecord {
            test: test.into(),
            label: compilation.label(),
            compilation,
            seconds: Some(1.0),
            comparison: cmp,
            bitwise_equal: cmp == 0.0,
            baseline_norm: 10.0,
            crashed: false,
        }
    }

    #[test]
    fn queries_work() {
        let mut db = ResultsDb::new("demo");
        db.rows
            .push(rec("t1", CompilerKind::Gcc, OptLevel::O0, 0.0));
        db.rows
            .push(rec("t1", CompilerKind::Gcc, OptLevel::O2, 0.5));
        db.rows
            .push(rec("t2", CompilerKind::Icpc, OptLevel::O2, 0.0));
        assert_eq!(db.for_test("t1").len(), 2);
        assert_eq!(db.tests(), vec!["t1".to_string(), "t2".to_string()]);
        assert_eq!(db.compilations().len(), 3);
        assert_eq!(db.variable_runs(CompilerKind::Gcc), (1, 2));
        assert_eq!(db.variable_runs(CompilerKind::Icpc), (0, 1));
        assert_eq!(db.for_compilation("g++ -O2").len(), 1);
    }

    #[test]
    fn relative_error_normalizes() {
        let r = rec("t", CompilerKind::Gcc, OptLevel::O2, 2.5);
        assert_eq!(r.relative_error(), 0.25);
        let clean = rec("t", CompilerKind::Gcc, OptLevel::O0, 0.0);
        assert_eq!(clean.relative_error(), 0.0);
        let mut zero_norm = rec("t", CompilerKind::Gcc, OptLevel::O2, 1.0);
        zero_norm.baseline_norm = 0.0;
        assert_eq!(zero_norm.relative_error(), f64::INFINITY);
    }

    #[test]
    fn json_round_trip() {
        let mut db = ResultsDb::new("demo");
        db.rows
            .push(rec("t1", CompilerKind::Clang, OptLevel::O3, 0.125));
        let json = db.to_json();
        let back = ResultsDb::from_json(&json).unwrap();
        assert_eq!(back.app, "demo");
        assert_eq!(back.rows.len(), 1);
        assert_eq!(back.rows[0].comparison, 0.125);
        assert_eq!(back.rows[0].compilation.compiler, CompilerKind::Clang);
    }
}
