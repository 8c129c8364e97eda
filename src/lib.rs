//! # flit — multi-level analysis of compiler-induced variability
//!
//! A from-scratch Rust reproduction of *Multi-Level Analysis of
//! Compiler-Induced Variability and Performance Tradeoffs* (Bentley,
//! Briggs, Gopalakrishnan, Ahn, Laguna, Lee, Jones — HPDC 2019): the
//! FLiT testing framework, its Bisect algorithm suite, and the paper's
//! three case studies (MFEM, Laghos, LULESH), on top of a fully
//! simulated compiler toolchain.
//!
//! This crate is a facade: it re-exports the workspace's crates under
//! stable module names and provides a small [`prelude`].
//!
//! ```
//! use flit::prelude::*;
//!
//! // The paper's Figure 2, in five lines: find {2, 8, 9} among 1..=10.
//! let items: Vec<u32> = (1..=10).collect();
//! let weights = [(2u32, 0.25), (8, 1.5), (9, 0.125)];
//! let test = |set: &[u32]| -> Result<f64, TestError> {
//!     Ok(set.iter().filter_map(|i| weights.iter().find(|(w, _)| w == i)).map(|(_, v)| v).sum())
//! };
//! let out = bisect_all(test, &items, &ThreadsBackend::new(1)).unwrap();
//! let mut found: Vec<u32> = out.found.iter().map(|(i, _)| *i).collect();
//! found.sort();
//! assert_eq!(found, vec![2, 8, 9]);
//! assert!(out.verified());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flit_bisect as bisect;
pub use flit_core as core;
pub use flit_exec as exec;
pub use flit_fpsim as fpsim;
pub use flit_fuzz as fuzz;
pub use flit_inject as inject;
pub use flit_laghos as laghos;
pub use flit_lulesh as lulesh;
pub use flit_mfem as mfem;
pub use flit_persist as persist;
pub use flit_program as program;
pub use flit_report as report;
pub use flit_serve as serve;
pub use flit_toolchain as toolchain;
pub use flit_trace as trace;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use flit_bisect::algo::bisect_all;
    pub use flit_bisect::biggest::bisect_biggest;
    pub use flit_bisect::hierarchy::{
        bisect_hierarchical, HierarchicalConfig, HierarchicalResult, Prescreen, SearchOutcome,
    };
    pub use flit_bisect::journal::{load_journal, JournalError, JournalRecord, JournalWriter};
    pub use flit_bisect::ledger::{LedgerHandle, LedgerStats, QueryLedger, SearchKeys};
    pub use flit_bisect::parallel::SharedOracle;
    pub use flit_bisect::planner::{BisectPlan, PlanStep, SearchMode};
    pub use flit_bisect::test_fn::{MemoTest, TestError};
    pub use flit_core::analysis::{
        category_bars, compiler_summary, switch_attribution, variability_summary,
    };
    pub use flit_core::db::{ResultsDb, RunRecord};
    pub use flit_core::metrics::{digit_limited_compare, l2_compare};
    pub use flit_core::runner::{run_matrix, RunnerConfig};
    pub use flit_core::test::{DriverTest, FlitTest, RunContext, TestResult};
    pub use flit_core::workflow::{run_workflow, LintMode, WorkflowConfig};
    pub use flit_exec::{ExecBackend, ProcessBackend, ThreadsBackend};
    pub use flit_fpsim::env::{FpEnv, MathLib, SimdWidth};
    pub use flit_fuzz::{
        check_seed, run_campaign, CampaignConfig, CampaignResult, OracleConfig, SeedVerdict,
    };
    pub use flit_program::build::Build;
    pub use flit_program::engine::Engine;
    pub use flit_program::kernel::Kernel;
    pub use flit_program::model::{Driver, Function, SimProgram, SourceFile, Visibility};
    pub use flit_toolchain::compilation::{compilation_matrix, mfem_matrix, Compilation};
    pub use flit_toolchain::compiler::{CompilerKind, OptLevel};
    pub use flit_toolchain::flags::Switch;
    pub use flit_trace::event::{Span, Trace, TraceEvent};
    pub use flit_trace::registry::{Counter, MetricsRegistry};
    pub use flit_trace::sink::TraceSink;
}
