//! Extension of §3.3's compiler characterization: attribute variability
//! to individual *switches* across the whole MFEM sweep — which flags a
//! project can allow without risking reproducibility, and which
//! libraries the blame concentrates in.

use flit_bench::mfem_sweep;
use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig};
use flit_core::analysis::switch_attribution;
use flit_core::metrics::l2_compare;
use flit_exec::ThreadsBackend;
use flit_mfem::examples::example_driver;
use flit_mfem::mfem_program;
use flit_program::build::Build;
use flit_report::table::{Align, Table};
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::{CompilerKind, OptLevel};
use flit_toolchain::flags::Switch;

fn main() {
    let program = mfem_program();
    let db = mfem_sweep(&program);

    let mut table = Table::new(&["switch", "variable runs", "rate"])
        .with_title("Per-switch variability attribution (MFEM, 4,636 runs)")
        .with_aligns(&[Align::Left, Align::Right, Align::Right]);
    for (switch, variable, total) in switch_attribution(&db) {
        table.row(&[
            switch,
            format!("{variable}/{total}"),
            format!("{:.1}%", 100.0 * variable as f64 / total as f64),
        ]);
    }
    println!("{}", table.render());

    // Library-level blame for one representative search (the workflow's
    // "Library, Source, and Function Blame" box).
    let base = Build::new(&program, Compilation::baseline());
    let var = Build::tagged(
        &program,
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]),
        1,
    );
    let res = bisect_hierarchical(
        &base,
        &var,
        &example_driver(8, 1),
        &[0.35, 0.62],
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    println!("library blame for ex08 under g++ -O3 -mavx2 -mfma -funsafe-math-optimizations:");
    for (lib, value) in res.library_blame() {
        println!("  {lib:<12} Test magnitude {value:.3e}");
    }
}
