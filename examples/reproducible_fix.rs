//! Closing the Figure-1 loop: after Bisect blames a reduction, fix it
//! with a **bit-reproducible reduction operator** (the paper's related
//! work [3], Arteaga–Fuhrer–Hoefler, "Designing Bit-Reproducible
//! Portable High-Performance Applications") and re-run FLiT to confirm
//! the whole compilation matrix is now bitwise equal.
//!
//! ```sh
//! cargo run --release --example reproducible_fix
//! ```

use flit::prelude::*;

fn app(fixed: bool) -> SimProgram {
    let reduction = if fixed {
        Kernel::DotMixReproducible { stride: 5 }
    } else {
        Kernel::DotMix { stride: 5 }
    };
    SimProgram::new(
        if fixed { "climate-fixed" } else { "climate" },
        vec![
            SourceFile::new(
                "dycore.cpp",
                vec![
                    Function::exported("GlobalEnergyIntegral", reduction),
                    Function::exported("AdvectTracers", Kernel::Benign { flavor: 3 }),
                ],
            ),
            SourceFile::new(
                "io.cpp",
                vec![Function::exported(
                    "History_Write",
                    Kernel::Benign { flavor: 6 },
                )],
            ),
        ],
    )
}

fn sweep(program: &SimProgram) -> (usize, usize) {
    let test = DriverTest::new(
        Driver::new(
            "climate-regression",
            vec![
                "GlobalEnergyIntegral".into(),
                "AdvectTracers".into(),
                "History_Write".into(),
            ],
            3,
            64,
        ),
        1,
        vec![0.44],
    );
    let tests: Vec<&dyn FlitTest> = vec![&test];
    let db = run_matrix(program, &tests, &mfem_matrix(), &RunnerConfig::default()).unwrap();
    let variable = db.rows.iter().filter(|r| r.is_variable()).count();
    (variable, db.rows.len())
}

fn main() {
    // Before: the global energy integral is an ordinary reduction.
    let broken = app(false);
    let (var_before, total) = sweep(&broken);
    println!("before the fix: {var_before}/{total} compilations produce different energies");
    assert!(var_before > 0);

    // Bisect tells us which function to fix.
    let culprit_comp =
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]);
    let res = bisect_hierarchical(
        &Build::new(&broken, Compilation::baseline()),
        &Build::tagged(&broken, culprit_comp, 1),
        &Driver::new(
            "climate-regression",
            vec![
                "GlobalEnergyIntegral".into(),
                "AdvectTracers".into(),
                "History_Write".into(),
            ],
            3,
            64,
        ),
        &[0.44],
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    println!(
        "Bisect blames: {:?}",
        res.symbols
            .iter()
            .map(|s| s.symbol.as_str())
            .collect::<Vec<_>>()
    );
    assert_eq!(res.symbols.len(), 1);
    assert_eq!(res.symbols[0].symbol, "GlobalEnergyIntegral");

    // After: swap in the binned, bit-reproducible reduction.
    let fixed = app(true);
    let (var_after, total) = sweep(&fixed);
    println!("after the fix:  {var_after}/{total} compilations differ");
    assert_eq!(var_after, 0, "the reproducible reduction must be invariant");

    println!("\n→ reproducibility restored across all {total} runs without banning optimizations");
    println!("  (the reproducible operator costs ~2x in the reduction itself — the price");
    println!("   the bit-reproducibility literature reports for binned accumulation)");
}
