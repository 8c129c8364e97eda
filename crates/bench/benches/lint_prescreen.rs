//! Criterion benchmark of the static prescreen: certifying a pair with
//! `flit-absint` (the one static analysis) over the MFEM program and a
//! Table-3-sized synthetic codebase, and the end-to-end payoff — a
//! certificate-seeded parallel hierarchical search against the
//! unseeded one on the Table-2 MFEM fixture.

use criterion::{criterion_group, criterion_main, Criterion};

use flit_absint::certify_pair;
use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig};
use flit_bisect::{prescreen_for, LintMode};
use flit_core::metrics::l2_compare;
use flit_exec::ThreadsBackend;
use flit_mfem::examples::example_driver;
use flit_mfem::mfem_program;
use flit_program::build::Build;
use flit_program::generate::{filler_files, FillerSpec};
use flit_program::model::{Driver, SimProgram};
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::{CompilerKind, OptLevel};
use flit_toolchain::flags::Switch;

fn variable() -> Compilation {
    Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma])
}

fn bench_certify(c: &mut Criterion) {
    let mfem = mfem_program();
    let ex13 = example_driver(13, 1);
    // Table 3's MFEM shape: ~97 files, ~31 functions per file, every
    // function an entry point so the walk visits all of them.
    let synthetic = SimProgram::new(
        "table3",
        filler_files(&FillerSpec {
            files: 97,
            funcs_per_file: 31,
            ..FillerSpec::default()
        }),
    );
    let entries = synthetic
        .files
        .iter()
        .flat_map(|f| &f.functions)
        .filter(|f| f.visibility == flit_program::model::Visibility::Exported)
        .map(|f| f.name.clone())
        .collect();
    let everything = Driver::new("all", entries, 1, 32);
    let base = Compilation::baseline();
    let var = variable();

    let mut group = c.benchmark_group("absint_certify");
    group.bench_function("mfem_ex13_pair", |b| {
        b.iter(|| certify_pair(&mfem, &mfem, &ex13, &base, &var, CompilerKind::Gcc));
    });
    group.bench_function("synthetic_97x31", |b| {
        b.iter(|| {
            certify_pair(
                &synthetic,
                &synthetic,
                &everything,
                &base,
                &var,
                CompilerKind::Gcc,
            )
        });
    });
    group.finish();
}

fn bench_seeded_search(c: &mut Criterion) {
    let program = mfem_program();
    let baseline = Build::new(&program, Compilation::baseline());
    let variable = Build::tagged(&program, variable(), 1);
    let driver = example_driver(13, 1);
    let input = [0.35, 0.62];
    let exec = ThreadsBackend::new(8);
    let seeded = prescreen_for(
        LintMode::Seed,
        &baseline,
        &variable,
        &driver,
        &HierarchicalConfig::all(),
    )
    .expect("seeding builds a prescreen");

    let run = |cfg: &HierarchicalConfig| {
        bisect_hierarchical(
            &baseline,
            &variable,
            &driver,
            &input,
            &l2_compare,
            cfg,
            &exec,
        )
    };

    let mut group = c.benchmark_group("lint_seeded_search");
    group.sample_size(10);
    group.bench_function("unseeded_jobs8", |b| {
        b.iter(|| run(&HierarchicalConfig::all()));
    });
    group.bench_function("seeded_jobs8", |b| {
        b.iter(|| run(&HierarchicalConfig::all().with_prescreen(seeded.clone())));
    });
    group.finish();
}

criterion_group!(benches, bench_certify, bench_seeded_search);
criterion_main!(benches);
