//! Wall-clock scaling of the planner-driven parallel bisection: one
//! hierarchical search with its frontier fanned out, and the
//! whole-study characterization with every (test, compilation) search
//! on one executor, at 1/2/4/8 workers.
//!
//! The searches are byte-identical at every width (asserted in the
//! determinism suite); this bench measures only the wall-clock effect.
//! The speedup ceiling is the host's core count — on a single-core
//! container every width measures ~1×.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use flit_bench::mfem_study::bisect_all_variable_with;
use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig};
use flit_core::metrics::l2_compare;
use flit_core::runner::{run_matrix, RunnerConfig};
use flit_core::test::FlitTest;
use flit_exec::ThreadsBackend;
use flit_mfem::examples::example_driver;
use flit_mfem::{mfem_examples, mfem_program};
use flit_program::build::Build;
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::{mfem_matrix, Compilation};
use flit_toolchain::compiler::{CompilerKind, OptLevel};
use flit_toolchain::flags::Switch;

/// One hierarchical search, frontier fanned out on an executor (width 1
/// is the serial search). A fresh uncached build context per iteration
/// keeps the jobs arms comparable (no warm cache favoring whichever ran
/// second).
fn bench_single_search(c: &mut Criterion) {
    let program = mfem_program();
    let baseline = Build::new(&program, Compilation::baseline());
    let variable = Build::tagged(
        &program,
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]),
        1,
    );
    let driver = example_driver(13, 1);
    let mut group = c.benchmark_group("bisect_parallel/single_search");
    group.sample_size(10);
    for &jobs in &[1usize, 2, 4, 8] {
        let exec = ThreadsBackend::new(jobs);
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, _| {
            b.iter(|| {
                bisect_hierarchical(
                    &baseline,
                    &variable,
                    &driver,
                    &[0.35, 0.62],
                    &l2_compare,
                    &HierarchicalConfig::all(),
                    &exec,
                )
            });
        });
    }
    group.finish();
}

/// The Table-2 characterization (every variable (test, compilation)
/// pair of a thinned sweep) with all searches on one executor.
fn bench_characterization(c: &mut Criterion) {
    let program = mfem_program();
    let tests = mfem_examples();
    let dyn_tests: Vec<&dyn FlitTest> = tests.iter().map(|t| t as &dyn FlitTest).collect();
    let comps: Vec<Compilation> = mfem_matrix()
        .into_iter()
        .filter(|c| {
            c.label() == "g++ -O0"
                || c.label() == "g++ -O3 -mavx2 -mfma -funsafe-math-optimizations"
                || c.label() == "clang++ -O3 -funsafe-math-optimizations"
        })
        .collect();
    let db = run_matrix(&program, &dyn_tests, &comps, &RunnerConfig::default())
        .expect("thinned sweep runs");
    let mut group = c.benchmark_group("bisect_parallel/characterization");
    group.sample_size(10);
    for &jobs in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, _| {
            b.iter(|| bisect_all_variable_with(&program, &db, jobs, &BuildCtx::uncached()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_search, bench_characterization);
criterion_main!(benches);
