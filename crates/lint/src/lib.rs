//! # flit-lint
//!
//! Static FP-sensitivity analysis over the simulated program IR: the
//! *prescreen* to Bisect's dynamic search.
//!
//! The paper's Bisect (§2.3–2.4) is purely dynamic: it learns which
//! files and symbols induce variability by running the program. But
//! the simulated IR is fully transparent — every kernel's numeric
//! structure, every call edge, every visibility annotation is known
//! statically. This crate exploits that:
//!
//! 1. [`sensitivity`] — an abstract interpretation of each kernel: the
//!    set of [`FpEnv`] features (FMA contraction, SIMD reassociation,
//!    x87 extended precision, FTZ, reciprocal math, vendor mathlib, UB
//!    exploitation) whose change *can* alter its output, plus
//!    structural hazard lints (exact FP compares, UB kernels).
//! 2. [`analyze`] — propagation through the call graph under the
//!    toolchain's intra-TU binding rules (static and inlinable callees
//!    inherit their caller's compilation; `-fPIC` disables the
//!    inlining half).
//! 3. [`predict`] — intersect with a compilation pair's FpEnv diff to
//!    rank the files/symbols Bisect should blame, flag link-step-only
//!    (mathlib) variability, and predict mixed-ABI link crashes with
//!    the linker's own predicate.
//! 4. [`audit`] — score those predictions against dynamic ground truth
//!    (a hierarchical bisection or an injection study): recall must be
//!    1.0 for pruning to be sound; precision is reported honestly.
//!
//! The prediction feeds back into the search as a
//! [`Prescreen`](flit_bisect::hierarchy::Prescreen), built by
//! [`prescreen_for`] from a [`LintMode`]: seeding reorders speculative
//! execution (identical results, fewer Test executions); pruning drops
//! the items `flit-absint` certifies `Invariant`, under a one-query
//! residual audit.
//!
//! [`FpEnv`]: flit_fpsim::env::FpEnv

pub mod analyze;
pub mod audit;
pub mod predict;
pub mod render;
pub mod sensitivity;

pub use analyze::{analyze_program, reachable, FunctionLint, ProgramLint};
pub use audit::{audit_hierarchy, audit_injection, HierarchyAudit, InjectionAudit, LevelAudit};
pub use predict::{
    predict_pair, prescreen_for, record_certificates, FilePrediction, LintMode, PairPrediction,
    SymbolPrediction,
};
pub use render::render_prediction;
pub use sensitivity::{diff, diff_pic, kernel_sensitivity, Feature, Hazard, SensitivitySet};
