//! Criterion benchmark of the build-artifact cache: hierarchical
//! bisection and the gcc matrix sweep with the cache off (every object
//! compiled fresh), with a cold cache per run, and with a warm cache
//! shared across runs (the workflow/Table-2 regime, where repeated
//! links memo-hit).

use criterion::{criterion_group, criterion_main, Criterion};

use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig};
use flit_core::metrics::l2_compare;
use flit_core::runner::{run_matrix, RunnerConfig};
use flit_core::test::FlitTest;
use flit_exec::ThreadsBackend;
use flit_mfem::examples::example_driver;
use flit_mfem::{mfem_examples, mfem_program};
use flit_program::build::Build;
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::{compilation_matrix, Compilation};
use flit_toolchain::compiler::{CompilerKind, OptLevel};
use flit_toolchain::flags::Switch;

fn bench_bisect(c: &mut Criterion) {
    let program = mfem_program();
    let driver = example_driver(13, 1);
    let baseline = Build::new(&program, Compilation::baseline());
    let variable = Build::tagged(
        &program,
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]),
        1,
    );
    let input = [0.35, 0.62];

    let run = |cfg: &HierarchicalConfig| {
        bisect_hierarchical(
            &baseline,
            &variable,
            &driver,
            &input,
            &l2_compare,
            cfg,
            &ThreadsBackend::new(1),
        )
    };

    let mut group = c.benchmark_group("cache_bisect");
    group.sample_size(10);
    group.bench_function("uncached", |b| {
        b.iter(|| run(&HierarchicalConfig::all().with_ctx(BuildCtx::counting())));
    });
    group.bench_function("cold_cache", |b| {
        b.iter(|| run(&HierarchicalConfig::all().with_ctx(BuildCtx::cached())));
    });
    let warm = HierarchicalConfig::all().with_ctx(BuildCtx::cached());
    group.bench_function("warm_cache", |b| b.iter(|| run(&warm)));
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let program = mfem_program();
    let tests = mfem_examples();
    let dyn_tests: Vec<&dyn FlitTest> = tests.iter().map(|t| t as &dyn FlitTest).collect();
    let gcc_only = compilation_matrix(CompilerKind::Gcc);

    let mut group = c.benchmark_group("cache_sweep");
    group.sample_size(10);
    group.bench_function("gcc_68_uncached", |b| {
        b.iter(|| {
            run_matrix(
                &program,
                &dyn_tests,
                &gcc_only,
                &RunnerConfig {
                    cache: false,
                    ..Default::default()
                },
            )
        });
    });
    group.bench_function("gcc_68_cached", |b| {
        b.iter(|| run_matrix(&program, &dyn_tests, &gcc_only, &RunnerConfig::default()));
    });
    group.finish();
}

criterion_group!(benches, bench_bisect, bench_sweep);
criterion_main!(benches);
