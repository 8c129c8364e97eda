//! Criterion benchmark of the static prescreen: analyzer throughput
//! over the MFEM program and a Table-3-sized synthetic codebase, full
//! pair prediction, and the end-to-end payoff — a lint-seeded parallel
//! hierarchical search against the unseeded one on the Table-2 MFEM
//! fixture.

use criterion::{criterion_group, criterion_main, Criterion};

use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig};
use flit_core::metrics::l2_compare;
use flit_exec::ThreadsBackend;
use flit_lint::{analyze_program, predict_pair};
use flit_mfem::examples::example_driver;
use flit_mfem::mfem_program;
use flit_program::build::Build;
use flit_program::generate::{filler_files, FillerSpec};
use flit_program::model::SimProgram;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::{CompilerKind, OptLevel};
use flit_toolchain::flags::Switch;

fn bench_analyze(c: &mut Criterion) {
    let mfem = mfem_program();
    // Table 3's MFEM shape: ~97 files, ~31 functions per file.
    let synthetic = SimProgram::new(
        "table3",
        filler_files(&FillerSpec {
            files: 97,
            funcs_per_file: 31,
            ..FillerSpec::default()
        }),
    );

    let mut group = c.benchmark_group("lint_analyze");
    group.bench_function("mfem", |b| b.iter(|| analyze_program(&mfem)));
    group.bench_function("synthetic_97x31", |b| {
        b.iter(|| analyze_program(&synthetic));
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let program = mfem_program();
    let baseline = Build::new(&program, Compilation::baseline());
    let variable = Build::tagged(
        &program,
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]),
        1,
    );
    let driver = example_driver(13, 1);

    let mut group = c.benchmark_group("lint_predict");
    group.bench_function("mfem_pair", |b| {
        b.iter(|| predict_pair(&baseline, &variable, Some(&driver), CompilerKind::Gcc));
    });
    group.finish();
}

fn bench_seeded_search(c: &mut Criterion) {
    let program = mfem_program();
    let baseline = Build::new(&program, Compilation::baseline());
    let variable = Build::tagged(
        &program,
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]),
        1,
    );
    let driver = example_driver(13, 1);
    let input = [0.35, 0.62];
    let pred = predict_pair(&baseline, &variable, Some(&driver), CompilerKind::Gcc);
    let exec = ThreadsBackend::new(8);

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
        b.iter(|| run(&HierarchicalConfig::all().with_prescreen(pred.prescreen())));
    });
    group.finish();
}

criterion_group!(benches, bench_analyze, bench_predict, bench_seeded_search);
criterion_main!(benches);
