//! # flit-mfem
//!
//! A miniature finite-element library standing in for MFEM in the
//! paper's §3.1–§3.3 study: 19 end-to-end examples used as FLiT tests,
//! handwritten numerical files whose kernels span the paper's
//! sensitivity classes, and filler code bringing the program to MFEM's
//! published statistics (Table 3: 97 source files, ~31 functions per
//! file, 2,998 exported functions, 103,205 SLOC).
//!
//! The examples are *engineered* to reproduce the study's structure:
//!
//! * examples 12 and 18 are fully invariant (benign kernels only);
//! * examples 4, 5, 9, 10 and 15 call transcendental kernels, so every
//!   Intel compilation varies them through the link-step math library;
//! * example 8 is an iterative CG solve on an ill-conditioned system
//!   with a 1e-12 stopping criterion, blaming nine matrix/vector
//!   functions (Finding 1);
//! * example 13 funnels a single rank-1-update (`M += a·A·Aᵀ`)
//!   perturbation through an environment-independent chaotic amplifier,
//!   producing a ~190 % relative error with exactly one blamed function
//!   (Finding 2).

pub mod codebase;
pub mod examples;
pub mod files;

pub use codebase::{mfem_program, CodebaseStats, TABLE3};
pub use examples::{mfem_examples, mpi_wrappable};
