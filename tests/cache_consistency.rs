//! The build-artifact cache must be invisible in the science and
//! visible in the build-work counters: sweeps and bisections produce
//! bit-identical results with the cache on or off, while the cached
//! Table-2 workload compiles at least 2× fewer objects.

use flit::prelude::*;
use flit_bench::bisect_all_variable_with;
use flit_toolchain::cache::BuildCtx;

fn thinned_matrix() -> Vec<Compilation> {
    compilation_matrix(CompilerKind::Gcc)
        .into_iter()
        .filter(|c| {
            matches!(
                c.label().as_str(),
                "g++ -O0"
                    | "g++ -O2"
                    | "g++ -O3 -mavx2 -mfma"
                    | "g++ -O3 -mavx2 -mfma -funsafe-math-optimizations"
            )
        })
        .collect()
}

fn sweep(cache: bool) -> ResultsDb {
    let program = flit::mfem::mfem_program();
    let tests = flit::mfem::mfem_examples();
    let dyn_tests: Vec<&dyn FlitTest> = tests.iter().map(|t| t as &dyn FlitTest).collect();
    run_matrix(
        &program,
        &dyn_tests,
        &thinned_matrix(),
        &RunnerConfig {
            cache,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn sweep_rows_are_bit_identical_with_cache_on_and_off() {
    let on = sweep(true);
    let off = sweep(false);
    assert_eq!(on.rows.len(), off.rows.len());
    for (a, b) in on.rows.iter().zip(&off.rows) {
        assert_eq!(a.test, b.test);
        assert_eq!(a.label, b.label);
        assert_eq!(a.seconds.map(f64::to_bits), b.seconds.map(f64::to_bits));
        assert_eq!(a.comparison.to_bits(), b.comparison.to_bits());
        assert_eq!(a.bitwise_equal, b.bitwise_equal);
        assert_eq!(a.baseline_norm.to_bits(), b.baseline_norm.to_bits());
        assert_eq!(a.crashed, b.crashed);
    }
    // Only the diagnostics differ. A sweep's compilations are all
    // distinct, so its reuse is the baseline executable (linked for
    // reference runs, then requested again as a matrix entry): one
    // link memo hit, one program's worth of compiles saved.
    assert!(on.build_stats.link_memo_hits > 0);
    assert!(on.build_stats.objects_compiled < off.build_stats.objects_compiled);
    assert_eq!(off.build_stats.object_cache_hits, 0);
    assert_eq!(off.build_stats.link_memo_hits, 0);
}

#[test]
fn bisect_found_sets_match_with_cache_on_and_off() {
    let program = flit::mfem::mfem_program();
    let base = Build::new(&program, Compilation::baseline());
    let var = Build::tagged(
        &program,
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]),
        1,
    );
    let driver = flit::mfem::examples::example_driver(1, 1);
    let run = |ctx: BuildCtx| {
        bisect_hierarchical(
            &base,
            &var,
            &driver,
            &[0.35, 0.62],
            &l2_compare,
            &HierarchicalConfig::all().with_ctx(ctx),
            &ThreadsBackend::new(1),
        )
    };
    let plain = run(BuildCtx::uncached());
    let cached = run(BuildCtx::cached());
    assert_eq!(plain.outcome, cached.outcome);
    assert_eq!(plain.files, cached.files);
    assert_eq!(plain.symbols, cached.symbols);
    assert_eq!(plain.file_level_only, cached.file_level_only);
    assert_eq!(plain.executions, cached.executions);
}

#[test]
fn table2_workload_compiles_at_least_2x_fewer_objects_cached() {
    // The thinned Table-2 pipeline: sweep, then bisect every variable
    // (test, compilation) pair, once per context mode.
    let program = flit::mfem::mfem_program();
    let db = sweep(true);

    let counting = BuildCtx::counting();
    let off = bisect_all_variable_with(&program, &db, 4, &counting);
    let cached = BuildCtx::cached();
    let on = bisect_all_variable_with(&program, &db, 4, &cached);

    // Identical characterization either way.
    for ((c1, a), (c2, b)) in off.iter().zip(&on) {
        assert_eq!(c1, c2);
        assert_eq!(a.searches, b.searches);
        assert_eq!(a.file_successes, b.file_successes);
        assert_eq!(a.with_files, b.with_files);
        assert_eq!(a.symbol_successes, b.symbol_successes);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.executions, b.executions);
    }

    let off_stats = counting.stats();
    let on_stats = cached.stats();
    assert!(on_stats.object_cache_hits > 0);
    assert!(on_stats.link_memo_hits > 0);
    assert!(
        off_stats.objects_compiled >= 2 * on_stats.objects_compiled,
        "expected >=2x fewer compiles with the cache: {} uncached vs {} cached",
        off_stats.objects_compiled,
        on_stats.objects_compiled
    );
    // Counting mode observed every request; it just never reused.
    assert_eq!(off_stats.object_cache_hits, 0);
    assert_eq!(off_stats.link_memo_hits, 0);
    assert_eq!(off_stats.objects_compiled, off_stats.object_requests());
}

#[test]
fn counters_survive_the_json_round_trip() {
    let db = sweep(true);
    let back = ResultsDb::from_json(&db.to_json()).unwrap();
    assert_eq!(back.build_stats, db.build_stats);
    assert!(back.build_stats.objects_compiled > 0);
}
