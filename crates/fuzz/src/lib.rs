//! `flit-fuzz` — generative differential-testing campaign over the
//! whole pipeline, with planted ground truth.
//!
//! Each seed generates a random codebase with *planted blame sets*
//! ([`flit_program::generate::random_planted`]): FP-sensitive kernels
//! behind exported, static, inlinable, and cross-file entry shapes,
//! plus mixed-ABI hazards, all recorded as ground truth. The oracle
//! ([`oracle::check_seed`]) then checks its layers against that truth:
//!
//! 1. the hierarchical bisection's found set equals the planted blame
//!    set (files and symbols),
//! 2. `--jobs 8` returns byte-identical results to `--jobs 1`, and a
//!    seeded kill-and-resume through the checkpoint journal replays to
//!    the same bytes,
//! 3. the journal round-trips: the file on disk reloads cleanly,
//! 4. with `--backend process`, the search through `flit worker`
//!    subprocesses is byte-identical to the in-process one,
//! 5. `flit-absint`'s certificates are sound against the planted truth
//!    and the observed divergences, and flag the ABI hazard exactly
//!    when the linker does.
//!
//! Divergent seeds feed a delta-debugging shrinker (`shrink::shrink`)
//! that minimizes the planted spec and emits a self-contained fixture
//! snippet. The campaign driver ([`campaign::run_campaign`]) surfaces
//! as `flit fuzz --seeds A..B`.

pub mod campaign;
pub mod oracle;
pub mod pairs;
pub mod shrink;

pub use campaign::{render_report, run_campaign, CampaignConfig, CampaignResult};
pub use oracle::{check_seed, OracleConfig, SeedVerdict};
