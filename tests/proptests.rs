//! Cross-crate property-based tests: the bisection algorithms against
//! randomized ground truth, the linker's interposition invariants, and
//! the engine's determinism under random environments.

use std::collections::BTreeSet;

use proptest::prelude::*;

use flit::bisect::algo::bisect_all;
use flit::bisect::baselines::{ddmin, linear_search};
use flit::bisect::biggest::bisect_biggest;
use flit::bisect::test_fn::TestError;
use flit::core::analysis::{fastest_is_reproducible_count, speedup_series};
use flit::prelude::*;

/// Ground truth: `n` items, a set of variable items with distinct
/// magnitudes (Assumption 1) acting individually (Assumption 2).
#[derive(Debug, Clone)]
struct GroundTruth {
    n: usize,
    variable: Vec<(u32, f64)>,
}

fn ground_truth() -> impl Strategy<Value = GroundTruth> {
    (2usize..300, prop::collection::btree_set(0u32..300, 0..8)).prop_map(|(n, raw)| {
        let variable: Vec<(u32, f64)> = raw
            .into_iter()
            .filter(|&i| (i as usize) < n)
            .enumerate()
            // Powers of two: sums of distinct subsets are all distinct.
            .map(|(rank, i)| (i, 2f64.powi(rank as i32)))
            .collect();
        GroundTruth { n, variable }
    })
}

fn scripted(gt: GroundTruth) -> impl Fn(&[u32]) -> Result<f64, TestError> + Sync {
    move |items: &[u32]| {
        Ok(items
            .iter()
            .map(|i| {
                gt.variable
                    .iter()
                    .find(|(w, _)| w == i)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0)
            })
            .sum())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BisectAll finds exactly the ground-truth variable set — no false
    /// positives, no false negatives — and its dynamic verification
    /// passes, for every instance satisfying the two assumptions.
    #[test]
    fn bisect_all_is_exact(gt in ground_truth()) {
        let items: Vec<u32> = (0..gt.n as u32).collect();
        let expected: BTreeSet<u32> = gt.variable.iter().map(|(i, _)| *i).collect();
        let out = bisect_all(scripted(gt.clone()), &items, &ThreadsBackend::new(1)).unwrap();
        let found: BTreeSet<u32> = out.found.iter().map(|(i, _)| *i).collect();
        prop_assert_eq!(found, expected);
        prop_assert!(out.verified());
    }

    /// The O(k log N) execution bound holds (with the constant from the
    /// analysis in §2.4 plus the 1 + k verification calls).
    #[test]
    fn bisect_all_obeys_the_complexity_bound(gt in ground_truth()) {
        let items: Vec<u32> = (0..gt.n as u32).collect();
        let k = gt.variable.len();
        let out = bisect_all(scripted(gt), &items, &ThreadsBackend::new(1)).unwrap();
        let log_n = (gt_log2(items.len())) + 1;
        let bound = 2 * (k + 1) * log_n + k + 4;
        prop_assert!(
            out.executions <= bound,
            "executions {} > bound {} (n={}, k={})",
            out.executions, bound, items.len(), k
        );
    }

    /// All three search algorithms agree on the answer.
    #[test]
    fn searches_agree(gt in ground_truth()) {
        let items: Vec<u32> = (0..gt.n as u32).collect();
        let b = bisect_all(scripted(gt.clone()), &items, &ThreadsBackend::new(1)).unwrap();
        let d = ddmin(scripted(gt.clone()), &items).unwrap();
        let l = linear_search(scripted(gt.clone()), &items).unwrap();
        let norm = |o: &flit::bisect::algo::BisectOutcome<u32>| -> BTreeSet<u32> {
            o.found.iter().map(|(i, _)| *i).collect()
        };
        prop_assert_eq!(norm(&b), norm(&l));
        prop_assert_eq!(norm(&d), norm(&l));
    }

    /// BisectBiggest(k) returns the top-k by magnitude, in order.
    #[test]
    fn biggest_returns_the_top_k(gt in ground_truth(), k in 1usize..5) {
        let items: Vec<u32> = (0..gt.n as u32).collect();
        let mut expected: Vec<(u32, f64)> = gt.variable.clone();
        expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        expected.truncate(k);
        let out = bisect_biggest(scripted(gt), &items, k, &ThreadsBackend::new(1)).unwrap();
        prop_assert_eq!(out.found, expected);
    }

    /// Linker interposition invariant: for any subset S of a file's
    /// exported symbols, the symbol-mixed executable resolves exactly S
    /// to the variable copy and the complement to the baseline copy.
    #[test]
    fn symbol_mixing_resolves_exactly(selection in prop::collection::btree_set(0usize..6, 0..7)) {
        let functions: Vec<Function> = (0..6)
            .map(|i| Function::exported(format!("f{i}"), Kernel::Benign { flavor: i as u8 }))
            .collect();
        let program = SimProgram::new(
            "linker-prop",
            vec![SourceFile::new("one.cpp", functions)],
        );
        let base = Build::new(&program, Compilation::baseline());
        let var = Build::tagged(&program, Compilation::perf_reference(), 1);
        let picked: BTreeSet<String> = selection.iter().map(|i| format!("f{i}")).collect();
        let exe = flit::program::build::symbol_mixed_executable(
            &base, &var, 0, &picked, CompilerKind::Gcc,
        )
        .unwrap();
        for i in 0..6 {
            let name = format!("f{i}");
            let obj = exe.defining_object(&name).unwrap();
            let tag = exe.objects[obj].build_tag;
            prop_assert_eq!(tag == 1, picked.contains(&name), "{}", name);
        }
    }

    /// Engine determinism under arbitrary compilations: two runs of any
    /// study compilation produce bitwise-identical output and timing.
    #[test]
    fn engine_is_deterministic_for_any_compilation(idx in 0usize..244, input in 0.0f64..1.0) {
        let comp = mfem_matrix()[idx].clone();
        let program = SimProgram::new(
            "engine-prop",
            vec![SourceFile::new(
                "k.cpp",
                vec![
                    Function::exported("work", Kernel::DotMix { stride: 3 }),
                    Function::exported("trans", Kernel::TranscMap { freq: 1.9 }),
                ],
            )],
        );
        let build = Build::new(&program, comp);
        let exe = build.executable().unwrap();
        let driver = Driver::new("prop", vec!["work".into(), "trans".into()], 2, 32);
        let engine = Engine::new(&program, &exe);
        let a = engine.run(&driver, &[input]).unwrap();
        let b = engine.run(&driver, &[input]).unwrap();
        prop_assert_eq!(&a.output, &b.output);
        prop_assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        // Output stays finite and bounded for every compilation.
        for &x in &a.output {
            prop_assert!(x.is_finite() && x.abs() <= 8.0);
        }
    }

    /// If two vectors compare equal under the d-digit comparison, they
    /// are genuinely close: every element pair is within one unit in
    /// the d-th significant digit. (Strict monotonicity in d does NOT
    /// hold — rounding boundaries can separate at coarser digit counts —
    /// which is why Table 4 treats each digit level as its own
    /// experiment.)
    #[test]
    fn digit_limited_zero_implies_closeness(
        xs in prop::collection::vec(0.01f64..1000.0, 1..20),
        noise in prop::collection::vec(-1e-4f64..1e-4, 1..20),
        d in 2u32..10,
    ) {
        let n = xs.len().min(noise.len());
        let ys: Vec<f64> = xs[..n].iter().zip(&noise[..n]).map(|(x, e)| x + e).collect();
        let xs = &xs[..n];
        let cmp = digit_limited_compare(d);
        if cmp(xs, &ys) == 0.0 {
            for (x, y) in xs.iter().zip(&ys) {
                let rel = ((x - y) / x).abs();
                prop_assert!(rel <= 1.5 * 10f64.powi(1 - d as i32), "rel {rel} at d={d}");
            }
        }
        // And the comparison of a vector with itself is always zero.
        prop_assert_eq!(cmp(xs, xs), 0.0);
    }
}

fn gt_log2(n: usize) -> usize {
    (usize::BITS - n.max(1).leading_zeros()) as usize
}

/// Arbitrary results databases, including the degenerate rows a real
/// sweep can produce: crashed rows (comparison = ∞), zero/NaN/infinite
/// seconds, zero baseline norms, and duplicated (test, compilation)
/// pairs.
fn arbitrary_db() -> impl Strategy<Value = ResultsDb> {
    prop::collection::vec((0usize..4, 0usize..244, 0u8..5, 0u8..4, 0u8..3), 0..25).prop_map(|raw| {
        let mut db = ResultsDb::new("prop-analysis");
        for (test_i, comp_i, sec_kind, cmp_kind, flavor) in raw {
            let compilation = mfem_matrix()[comp_i].clone();
            let seconds = match sec_kind {
                0 => Some(0.0),
                1 => Some(f64::NAN),
                2 => Some(f64::INFINITY),
                3 => None, // missing measurement, crashed or not
                _ => Some(0.5 + test_i as f64),
            };
            let comparison = match cmp_kind {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => f64::NAN,
                _ => 1e-9,
            };
            db.rows.push(RunRecord {
                test: format!("t{test_i}"),
                label: compilation.label(),
                compilation,
                seconds,
                comparison,
                bitwise_equal: cmp_kind == 0 && flavor != 0,
                baseline_norm: if flavor == 1 { 0.0 } else { 10.0 },
                crashed: flavor == 0,
            });
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full analysis layer tolerates arbitrary databases — crashed
    /// rows, INFINITY comparisons, NaN/zero seconds, duplicated and
    /// missing (test, compilation) pairs — without panicking.
    #[test]
    fn analysis_never_panics_on_arbitrary_rows(db in arbitrary_db()) {
        for t in db.tests() {
            let _ = speedup_series(&db, &t);
            let _ = category_bars(&db, &t);
            let _ = variability_summary(&db, &t);
        }
        for c in [CompilerKind::Gcc, CompilerKind::Clang, CompilerKind::Icpc] {
            let _ = compiler_summary(&db, c);
        }
        let _ = switch_attribution(&db);
        let _ = fastest_is_reproducible_count(&db);
    }
}
