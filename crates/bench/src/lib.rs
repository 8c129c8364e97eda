//! # flit-bench
//!
//! The experiment harness: shared drivers for the paper's tables and
//! figures. Each `src/bin/` binary regenerates one table or figure
//! (`table1` … `table5`, `fig2`, `fig4`, `fig5`, `fig6`, `motivation`,
//! `mpi_study`); `benches/` holds the Criterion microbenchmarks
//! (Bisect vs delta debugging vs linear scaling, substrate throughput).

pub mod mfem_study;

pub use mfem_study::{bisect_all_variable_with, mfem_sweep, BisectCharacterization};
