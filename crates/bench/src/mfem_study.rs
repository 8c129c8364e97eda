//! Shared drivers for the MFEM study: the 4,636-run sweep and the
//! bisect-every-variable-compilation characterization (Tables 1–2,
//! Figures 4–6).

use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig, SearchOutcome};
use flit_core::db::ResultsDb;
use flit_core::metrics::l2_compare;
use flit_core::runner::{run_matrix, RunnerConfig};
use flit_core::test::FlitTest;
use flit_exec::{run_on, ThreadsBackend};
use flit_mfem::examples::example_driver;
use flit_mfem::mfem_examples;
use flit_program::build::Build;
use flit_program::model::SimProgram;
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::{mfem_matrix, Compilation};
use flit_toolchain::compiler::CompilerKind;

/// Run the full 244-compilation × 19-example sweep.
pub fn mfem_sweep(program: &SimProgram) -> ResultsDb {
    let tests = mfem_examples();
    let dyn_tests: Vec<&dyn FlitTest> = tests.iter().map(|t| t as &dyn FlitTest).collect();
    run_matrix(
        program,
        &dyn_tests,
        &mfem_matrix(),
        &RunnerConfig::default(),
    )
    .expect("the MFEM sweep runs")
}

/// Outcome counters of one compiler's bisect characterization
/// (a Table-2 column).
#[derive(Debug, Clone, Default)]
pub struct BisectCharacterization {
    /// Searches attempted (variable runs for this compiler).
    pub searches: usize,
    /// File Bisect completions (no crash; link-step-only counts as a
    /// completion with zero files, as in the paper's accounting).
    pub file_successes: usize,
    /// Searches that found files; the Symbol Bisect denominator.
    pub with_files: usize,
    /// Searches where every found file descended to symbol level.
    pub symbol_successes: usize,
    /// Searches ended by a mixed-ABI crash.
    pub crashes: usize,
    /// Total Test executions across searches.
    pub executions: usize,
}

impl BisectCharacterization {
    /// Mean executions per search.
    pub fn avg_executions(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.executions as f64 / self.searches as f64
        }
    }
}

/// Bisect every variable (test, compilation) pair in the sweep,
/// aggregated per compiler. Searches are independent, so they fan out
/// over `threads` workers with deterministic aggregation. All searches
/// share `ctx`, so repeated baselines and mixed links across jobs are
/// built once; its counters afterwards describe the whole
/// characterization.
pub fn bisect_all_variable_with(
    program: &SimProgram,
    db: &ResultsDb,
    threads: usize,
    ctx: &BuildCtx,
) -> Vec<(CompilerKind, BisectCharacterization)> {
    let jobs: Vec<(String, Compilation)> = db
        .rows
        .iter()
        .filter(|r| r.is_variable())
        .map(|r| (r.test.clone(), r.compilation.clone()))
        .collect();

    let run_job =
        |test: &str, comp: &Compilation| -> (CompilerKind, SearchOutcome, bool, bool, usize) {
            let ex: usize = test[2..].parse().expect("test names are exNN");
            let driver = example_driver(ex, 1);
            let base = Build::new(program, Compilation::baseline());
            let var = Build::tagged(program, comp.clone(), 1);
            let res = bisect_hierarchical(
                &base,
                &var,
                &driver,
                &[0.35, 0.62],
                &l2_compare,
                &HierarchicalConfig::all().with_ctx(ctx.clone()),
                &ThreadsBackend::new(1),
            );
            let with_files = !res.files.is_empty();
            let symbol_ok = with_files && res.file_level_only.is_empty() && !res.symbols.is_empty();
            (
                comp.compiler,
                res.outcome,
                with_files,
                symbol_ok,
                res.executions,
            )
        };

    // A work queue (not static chunking): searches vary wildly in cost,
    // and the queue keeps every worker busy until the jobs run out.
    // Results land in job order, so aggregation is schedule-independent.
    let results: Vec<(CompilerKind, SearchOutcome, bool, bool, usize)> =
        run_on(&ThreadsBackend::new(threads), jobs.len(), |i| {
            let (t, c) = &jobs[i];
            run_job(t, c)
        })
        .unwrap_or_else(|e| panic!("bisect workers must not panic: {e}"));

    let mut per: Vec<(CompilerKind, BisectCharacterization)> = CompilerKind::MFEM_STUDY
        .iter()
        .map(|&c| (c, BisectCharacterization::default()))
        .collect();
    for (compiler, outcome, with_files, symbol_ok, executions) in results {
        let entry = &mut per
            .iter_mut()
            .find(|(c, _)| *c == compiler)
            .expect("MFEM compilers only")
            .1;
        entry.searches += 1;
        entry.executions += executions;
        match outcome {
            SearchOutcome::Crashed(_) => entry.crashes += 1,
            _ => {
                entry.file_successes += 1;
                if with_files {
                    entry.with_files += 1;
                    if symbol_ok {
                        entry.symbol_successes += 1;
                    }
                }
            }
        }
    }
    per
}

/// Default worker count for the heavy studies.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_mfem::mfem_program;

    #[test]
    fn sweep_and_characterization_smoke() {
        // Full pipeline on a thinned matrix: baseline + a handful of
        // compilations, to keep the unit test fast.
        let program = mfem_program();
        let tests = mfem_examples();
        let dyn_tests: Vec<&dyn FlitTest> = tests.iter().map(|t| t as &dyn FlitTest).collect();
        let comps: Vec<Compilation> = mfem_matrix()
            .into_iter()
            .filter(|c| {
                c.label() == "g++ -O0"
                    || c.label() == "g++ -O2"
                    || c.label() == "g++ -O3 -mavx2 -mfma -funsafe-math-optimizations"
                    || c.label() == "icpc -O0"
            })
            .collect();
        assert_eq!(comps.len(), 4);
        let db = run_matrix(&program, &dyn_tests, &comps, &RunnerConfig::default())
            .expect("thinned sweep runs");
        assert_eq!(db.rows.len(), 4 * 19);
        let character = bisect_all_variable_with(&program, &db, 4, &BuildCtx::cached());
        let total_searches: usize = character.iter().map(|(_, c)| c.searches).sum();
        let variable = db.rows.iter().filter(|r| r.is_variable()).count();
        assert_eq!(total_searches, variable);
        assert!(variable > 5, "expected some variable runs, got {variable}");
        // gcc searches never crash (no ABI hazard).
        let gcc = &character
            .iter()
            .find(|(c, _)| *c == CompilerKind::Gcc)
            .unwrap()
            .1;
        assert_eq!(gcc.crashes, 0);
        assert!(gcc.avg_executions() > 3.0);
    }
}
