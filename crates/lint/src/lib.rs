//! # flit-lint
//!
//! The static prescreen to Bisect's dynamic search, built on the one
//! static analysis: `flit-absint`'s certified per-pair divergence
//! bounds.
//!
//! The paper's Bisect (§2.3–2.4) is purely dynamic: it learns which
//! files and symbols induce variability by running the program. The
//! simulated IR is fully transparent, so `flit-absint` certifies every
//! bisect item of a compilation pair before anything runs. This crate
//! turns those certificates into what the search and the user see:
//!
//! 1. [`prescreen`] — the [`LintMode`] and [`prescreen_for`], which
//!    certifies a pair once and builds a
//!    [`Prescreen`](flit_bisect::hierarchy::Prescreen): certificate
//!    scores seed speculation (identical results, fewer wasted Test
//!    executions), and in `Prune` mode the `Invariant` items leave the
//!    search space under a one-query residual audit;
//! 2. [`hazards`] — structural hazard lints (exact FP compares, UB
//!    kernels, opaque kernels) on the functions a driver reaches;
//! 3. [`render`] — the one report: the certificate tables `flit bound`
//!    prints, and `flit lint`'s report around them.

pub mod hazards;
pub mod prescreen;
pub mod render;

pub use hazards::{kernel_hazards, reachable, reachable_hazards, Hazard};
pub use prescreen::{prescreen_for, record_certificates, LintMode};
pub use render::{render_certificates, render_lint};
