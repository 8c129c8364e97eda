//! Regenerate the **§3.6 MPI support study**:
//!
//! 1. verify run-to-run determinism of the 17 wrappable MFEM examples
//!    under 24-way decomposition (100 executions each);
//! 2. show that changing the parallelism changes the ℓ2 result (domain
//!    decomposition changes the grid density);
//! 3. verify Bisect finds the same files and functions under the
//!    parallel configuration as it did sequentially.

use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig, SearchOutcome};
use flit_core::metrics::l2_compare;
use flit_exec::ThreadsBackend;
use flit_fpsim::ulp::l2_norm;
use flit_mfem::examples::{example_driver, mpi_wrappable};
use flit_mfem::mfem_program;
use flit_program::build::Build;
use flit_program::engine::Engine;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::{CompilerKind, OptLevel};
use flit_toolchain::flags::Switch;

const RANKS: usize = 24;
const INPUT: [f64; 2] = [0.35, 0.62];

fn main() {
    let program = mfem_program();
    let build = Build::new(&program, Compilation::perf_reference());
    let exe = build.executable().expect("reference build links");
    let engine = Engine::new(&program, &exe);

    // Step 1: 100-run bitwise determinism under MPI for the 17
    // wrappable examples.
    println!("Step 1: run-to-run determinism under {RANKS} ranks (100 runs each)");
    let mut deterministic = 0;
    for ex in 1..=19 {
        if !mpi_wrappable(ex) {
            println!("  ex{ex:02}: skipped (cannot wrap MPI_Init/MPI_Finalize)");
            continue;
        }
        let driver = example_driver(ex, RANKS);
        let first = engine.run(&driver, &INPUT).expect("example runs");
        let ok = (1..100).all(|_| {
            engine
                .run(&driver, &INPUT)
                .is_ok_and(|o| o.output == first.output)
        });
        if ok {
            deterministic += 1;
        }
        println!(
            "  ex{ex:02}: {}",
            if ok {
                "bitwise deterministic"
            } else {
                "NON-DETERMINISTIC"
            }
        );
    }
    println!("  {deterministic}/17 verified (paper: all 17 converted tests passed)");
    println!();

    // Step 2: parallelism changes the result.
    println!("Step 2: does parallelization change the result?");
    let mut changed = 0;
    for ex in 1..=19 {
        if !mpi_wrappable(ex) {
            continue;
        }
        let seq = engine
            .run(&example_driver(ex, 1), &INPUT)
            .expect("sequential run");
        let par = engine
            .run(&example_driver(ex, RANKS), &INPUT)
            .expect("parallel run");
        let differs = seq.output != par.output;
        if differs {
            changed += 1;
        }
        println!(
            "  ex{ex:02}: sequential |u| = {:.6}, {RANKS}-rank |u| = {:.6} → {}",
            l2_norm(&seq.output),
            l2_norm(&par.output),
            if differs { "changed" } else { "identical" }
        );
    }
    println!(
        "  {changed}/17 changed (paper: all — \"increasing the parallelism changed the result\", via grid density)"
    );
    println!();

    // Step 3: Bisect under MPI finds the same files/functions.
    println!("Step 3: Bisect agreement between sequential and {RANKS}-rank runs");
    let variable = Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]);
    let mut agree = 0;
    let mut attempted = 0;
    for ex in [1usize, 4, 8, 9, 13, 14, 17, 19] {
        let base = Build::new(&program, Compilation::baseline());
        let var = Build::tagged(&program, variable.clone(), 1);
        let run = |ranks: usize| {
            bisect_hierarchical(
                &base,
                &var,
                &example_driver(ex, ranks),
                &INPUT,
                &l2_compare,
                &HierarchicalConfig::all(),
                &ThreadsBackend::new(1),
            )
        };
        let seq = run(1);
        let par = run(RANKS);
        if seq.outcome != SearchOutcome::Completed || seq.files.is_empty() {
            println!("  ex{ex:02}: no successful sequential Bisect run — skipped");
            continue;
        }
        attempted += 1;
        let names = |r: &flit_bisect::hierarchy::HierarchicalResult| {
            let mut f: Vec<String> = r.files.iter().map(|x| x.file_name.clone()).collect();
            let mut s: Vec<String> = r.symbols.iter().map(|x| x.symbol.clone()).collect();
            f.sort();
            s.sort();
            (f, s)
        };
        let (sf, ss) = names(&seq);
        let (pf, ps) = names(&par);
        let same = sf == pf && ss == ps;
        if same {
            agree += 1;
        }
        println!(
            "  ex{ex:02}: files {sf:?}, symbols {ss:?} → {}",
            if same {
                "identical under MPI"
            } else {
                "DIFFERENT under MPI"
            }
        );
    }
    println!(
        "  {agree}/{attempted} agree (paper: every sampled test isolated the same sets of files and functions)"
    );
}
