//! # flit-bisect
//!
//! The paper's central algorithmic contribution: a suite of bisection
//! algorithms that root-cause compiler-induced result variability down
//! to source files and functions.
//!
//! * [`algo`] — Algorithm 1 (`BisectAll`), including the two
//!   dynamic-verification assertions that check the **Unique Error**
//!   and **Singleton Blame Site** assumptions at run time (§2.2, §2.4).
//!   It runs as a [`planner`] plan; the literal `BisectOne` recursion
//!   is that plan's oracle in the planner's unit tests.
//! * [`biggest`] — `BisectBiggest` (§2.5): uniform-cost search for the
//!   `k` largest contributors with early exit.
//! * [`hierarchy`] — the dual-level File→Symbol search (§2.3), one walk
//!   over any Test metric: File Bisect mixes object files, Symbol
//!   Bisect re-compiles the found file with `-fPIC` and links two
//!   complementarily-weakened copies.
//! * [`prescreen`] — the static prescreen in front of it: one
//!   `flit-absint` certification of the pair seeds speculation
//!   ([`LintMode::Seed`]) or also prunes `Invariant` items
//!   ([`LintMode::Prune`]).
//! * [`baselines`] — Zeller–Hildebrandt `ddmin` (delta debugging) and a
//!   linear scan, implemented for the complexity comparisons
//!   (O(k·log N) vs O(k²·log N) vs O(N)).
//! * [`planner`] — the frontier-based search planner: the serial
//!   algorithms as a pure replayable state machine whose outcomes are
//!   byte-identical at any worker count.
//! * [`parallel`] — the one wave driver: every search (`bisect_all`,
//!   `bisect_biggest`, the hierarchy's levels) runs its plans on a
//!   `flit-exec` [`ExecBackend`](flit_exec::ExecBackend) with a Test
//!   oracle keyed into a query ledger; `ThreadsBackend::new(1)` is the
//!   serial search.
//! * [`ledger`] — the query ledger every search answers through: one
//!   sharded single-flight answer table, shared by every search a
//!   workflow spawns (or private to one search), keyed on canonical
//!   link-recipe digests.
//! * [`journal`] — the on-disk checkpoint journal backing the ledger:
//!   CRC-checked JSONL records written atomically, replayed on
//!   `--resume` for byte-identical continuation of killed searches.
//! * [`test_fn`] — the memoizing `Test` wrapper with execution counting
//!   (the paper reports searches in *program executions*; memoization is
//!   why the verification assertions cost only `1 + k` extra runs).
//! * [`perf`] — the performance bisect: the same hierarchy walk driven by
//!   a timing metric (seeded timing samples + Welch's t-test) that
//!   root-causes which file/symbol makes a compilation *slower*, with a
//!   confidence interval and verdict on every speedup claim.

pub mod algo;
pub mod baselines;
pub mod biggest;
pub mod hierarchy;
pub mod journal;
pub mod ledger;
pub mod parallel;
pub mod perf;
pub mod planner;
pub mod prescreen;
pub mod test_fn;
pub mod wire;

pub use algo::{bisect_all, bisect_all_unpruned, AssumptionViolation, BisectOutcome, TraceRow};
pub use biggest::bisect_biggest;
pub use hierarchy::{bisect_hierarchical, HierarchicalConfig, HierarchicalResult, SearchOutcome};
pub use journal::{load_journal, JournalAnswer, JournalError, JournalRecord, JournalWriter};
pub use ledger::{LedgerHandle, LedgerStats, QueryLedger, SearchKeys};
pub use parallel::SharedOracle;
pub use perf::{
    perf_bisect, PerfBisectResult, PerfConfig, PerfFileFinding, PerfOutcome, PerfSymbolFinding,
};
pub use planner::{BisectPlan, PlanFailure, PlanOutcome, PlanStep, Query, SearchMode};
pub use prescreen::{prescreen_for, record_certificates, LintMode};
pub use test_fn::{MemoTest, TestError, TestFn};
pub use wire::{evaluate, ExeRecipe, WireRequest, WireTask};
