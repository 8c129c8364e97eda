//! The full §3.4 Laghos debugging session, replayed end-to-end:
//!
//! 1. the public branch produces NaN under `xlc++ -O3` — Bisect finds
//!    the two visible symbols around the `xsw` UB swap macro;
//! 2. on the fixed branch, `-O3` still diverges by ~11 % — Bisect
//!    (digit-limited, k = 1) pins the `== 0.0` viscosity comparison in
//!    a handful of runs;
//! 3. after the epsilon-compare fix, `-O3` agrees with the trusted
//!    compilations.
//!
//! ```sh
//! cargo run --example laghos_debugging
//! ```

use flit::laghos::experiment::{compilation_under_test, LAGHOS_INPUT};
use flit::laghos::{laghos_driver, laghos_program, LaghosVariant};
use flit::prelude::*;

fn l2(xs: &[f64]) -> f64 {
    flit::fpsim::ulp::l2_norm(xs)
}

fn run(variant: LaghosVariant, comp: &Compilation) -> Vec<f64> {
    let program = laghos_program(variant);
    let build = Build::new(&program, comp.clone());
    let exe = build.executable().expect("laghos links");
    Engine::new(&program, &exe)
        .run(&laghos_driver(), &LAGHOS_INPUT)
        .expect("laghos runs")
        .output
}

fn main() {
    let trusted = Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![]);
    let aggressive = compilation_under_test(); // xlc++ -O3

    // --- Act 1: the NaN hunt on the public branch ---
    println!("Act 1: the public branch under xlc++ -O3");
    let out = run(LaghosVariant::WithXswBug, &aggressive);
    println!(
        "  {} of {} output values are NaN — 'all results were NaN'",
        out.iter().filter(|x| x.is_nan()).count(),
        out.len()
    );

    let program = laghos_program(LaghosVariant::WithXswBug);
    let result = bisect_hierarchical(
        &Build::new(&program, trusted.clone()),
        &Build::tagged(&program, aggressive.clone(), 1),
        &laghos_driver(),
        &LAGHOS_INPUT,
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    println!(
        "  Bisect blames {:?} in {} executions",
        result
            .symbols
            .iter()
            .map(|s| s.symbol.as_str())
            .collect::<Vec<_>>(),
        result.executions
    );
    println!("  → both call the static helper containing `#define xsw(a,b) a^=b^=a^=b`");
    println!("    (undefined behaviour; xlc++ -O3 is entitled to produce garbage)\n");

    // --- Act 2: the == 0.0 comparison on the fixed branch ---
    println!("Act 2: the xsw-fixed branch under xlc++ -O3");
    let trusted_out = run(LaghosVariant::XswFixed, &trusted);
    let o3_out = run(LaghosVariant::XswFixed, &aggressive);
    println!(
        "  energy norm: trusted {:.4}, -O3 {:.4} ({:+.1}%)",
        l2(&trusted_out),
        l2(&o3_out),
        100.0 * (l2(&o3_out) / l2(&trusted_out) - 1.0),
    );

    let program = laghos_program(LaghosVariant::XswFixed);
    // Digit-limited comparison (2 significant digits) + BisectBiggest(1):
    // the cheapest way to the dominant contributor (Table 4's best row).
    let result = bisect_hierarchical(
        &Build::new(&program, trusted.clone()),
        &Build::tagged(&program, aggressive.clone(), 1),
        &laghos_driver(),
        &LAGHOS_INPUT,
        &digit_limited_compare(2),
        &HierarchicalConfig {
            k: Some(1),
            ..HierarchicalConfig::all()
        },
        &ThreadsBackend::new(1),
    );
    println!(
        "  Bisect (2 digits, k=1) blames {:?} in {} executions",
        result
            .symbols
            .iter()
            .map(|s| s.symbol.as_str())
            .collect::<Vec<_>>(),
        result.executions
    );
    println!("  → an exact `if (q == 0.0)` on a value with tiny compiler-induced variability\n");

    // --- Act 3: the epsilon-compare fix ---
    println!("Act 3: after changing to an epsilon-based comparison");
    let fixed_trusted = run(LaghosVariant::EpsilonCompare, &trusted);
    let fixed_o3 = run(LaghosVariant::EpsilonCompare, &aggressive);
    let rel = flit::fpsim::ulp::l2_diff(&fixed_trusted, &fixed_o3) / l2(&fixed_trusted);
    println!(
        "  relative difference trusted vs -O3: {rel:.2e} — 'results close to the trusted \
         results, even under xlc++ -O3'"
    );
    assert!(rel < 1e-9);
}
