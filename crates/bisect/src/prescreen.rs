//! The Bisect prescreen: one `flit-absint` certification of a
//! `(baseline, variable)` pair, turned into a [`Prescreen`].
//!
//! * **Seed** — every item not certified `Invariant` gets its
//!   [`Certificate::score`](flit_absint::Certificate::score) as its
//!   speculation priority (certified bounds first, `Unknown` above every
//!   finite bound); `Invariant` items get none, so speculation never
//!   spends a query on them.
//! * **Prune** — the same priorities, plus the certificates themselves:
//!   the search drops the `Invariant` items under a residual audit.
//!
//! A pair whose mixed binaries can crash
//! ([`PairCertificates::abi_hazard`]) seeds no priorities: its gated
//! certificates say nothing about arithmetic, so there is nothing to
//! rank, and a seeded search of it speculates nothing.

use flit_absint::PairCertificates;
use flit_program::build::Build;
use flit_program::model::Driver;
use flit_trace::names::counter;
use flit_trace::TraceSink;

use crate::hierarchy::{HierarchicalConfig, Prescreen};

/// How the static prescreen participates in a hierarchical search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintMode {
    /// No static analysis.
    #[default]
    Off,
    /// Certify the pair, record `absint.certified.*` in the trace, and
    /// *seed* the search's speculative frontier with the certificate
    /// scores. Seeding only orders speculation, so findings, traces and
    /// execution counts match an unseeded search. A width-1 search
    /// (every workflow search) speculates nothing and executes exactly
    /// what the unseeded one does; a wider search
    /// (`flit bisect --jobs N --lint-seed`) wastes fewer speculative
    /// executions.
    Seed,
    /// Seed, and *prune*: drop the `Invariant`-certified files and
    /// symbols from the search space. Sound by construction — an
    /// `Invariant` certificate proves its item cannot move the Test
    /// value — and guarded by one residual audit query per pruned
    /// level, which reports a dishonest certificate as a violation.
    /// Found sets match the unpruned search.
    Prune,
}

/// The prescreen a search of `(baseline, variable)` under `cfg` runs
/// with in `mode` (`None` for [`LintMode::Off`]). Certifies the pair
/// once, with the search's own link driver, and records
/// `absint.certified.*` into `cfg.trace`.
pub fn prescreen_for(
    mode: LintMode,
    baseline: &Build<'_>,
    variable: &Build<'_>,
    driver: &Driver,
    cfg: &HierarchicalConfig,
) -> Option<Prescreen> {
    if mode == LintMode::Off {
        return None;
    }
    let certs = flit_absint::certify_pair(
        baseline.program,
        variable.program,
        driver,
        &baseline.compilation,
        &variable.compilation,
        cfg.link_driver,
    );
    record_certificates(&cfg.trace, &certs);
    let mut screen = Prescreen::default();
    if !certs.abi_hazard {
        for (fid, cert) in certs.files.iter().enumerate() {
            if !cert.prunable() {
                screen.file_priority.insert(fid, cert.score());
            }
        }
        for (symbol, cert) in &certs.symbols {
            if !cert.prunable() {
                screen.symbol_priority.insert(symbol.clone(), cert.score());
            }
        }
    }
    if mode == LintMode::Prune {
        screen.certificates = Some(certs);
    }
    Some(screen)
}

/// Record the `absint.certified.*` counters for one pair's certificates.
pub fn record_certificates(trace: &TraceSink, certs: &PairCertificates) {
    let (inv, bnd, unk) = certs.counts();
    trace.counter(counter::ABSINT_CERTIFIED_INVARIANT).incr(inv);
    trace.counter(counter::ABSINT_CERTIFIED_BOUNDED).incr(bnd);
    trace.counter(counter::ABSINT_CERTIFIED_UNKNOWN).incr(unk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_program::kernel::Kernel;
    use flit_program::model::{Function, SimProgram, SourceFile};
    use flit_toolchain::compilation::Compilation;
    use flit_toolchain::compiler::{CompilerKind, OptLevel};
    use flit_toolchain::flags::Switch;

    fn program() -> SimProgram {
        SimProgram::new(
            "prescreen-test",
            vec![
                SourceFile::new(
                    "hot.cpp",
                    vec![Function::exported("dot", Kernel::DotMix { stride: 3 })],
                ),
                SourceFile::new(
                    "cold.cpp",
                    vec![Function::exported("idle", Kernel::Benign { flavor: 0 })],
                ),
            ],
        )
    }

    fn driver() -> Driver {
        Driver::new("d", vec!["dot".into(), "idle".into()], 1, 32)
    }

    fn screen(mode: LintMode, variable: Compilation) -> Option<Prescreen> {
        let p = program();
        let baseline = Build::new(
            &p,
            Compilation::new(CompilerKind::Gcc, OptLevel::O0, vec![]),
        );
        let variable = Build::tagged(&p, variable, 1);
        prescreen_for(
            mode,
            &baseline,
            &variable,
            &driver(),
            &HierarchicalConfig::all(),
        )
    }

    fn fast() -> Compilation {
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe])
    }

    #[test]
    fn off_builds_nothing() {
        assert!(screen(LintMode::Off, fast()).is_none());
    }

    #[test]
    fn seed_scores_the_certified_bounds_and_skips_invariant_items() {
        let screen = screen(LintMode::Seed, fast()).expect("seeding builds a prescreen");
        assert!(screen.certificates.is_none(), "seeding never prunes");
        assert!(screen.file_score(0) > 0.0 && screen.file_score(0).is_finite());
        assert!(screen.symbol_score("dot") > 0.0);
        assert_eq!(screen.file_score(1), 0.0, "Benign is certified invariant");
        assert!(!screen.symbol_priority.contains_key("idle"));
    }

    #[test]
    fn prune_attaches_the_certificates_behind_the_scores() {
        let screen = screen(LintMode::Prune, fast()).expect("pruning builds a prescreen");
        let certs = screen.certificates.as_ref().expect("certificates attached");
        assert_eq!(screen.file_score(0), certs.file(0).score());
        assert!(certs.file(1).prunable());
    }

    #[test]
    fn abi_hazard_pair_seeds_no_priorities() {
        let icpc = Compilation::new(CompilerKind::Icpc, OptLevel::O2, vec![]);
        let screen = screen(LintMode::Seed, icpc).expect("seeding builds a prescreen");
        assert!(
            screen.file_priority.is_empty(),
            "{:?}",
            screen.file_priority
        );
        assert!(screen.symbol_priority.is_empty());
    }

    #[test]
    fn seeding_records_the_certificate_counters() {
        let p = program();
        let baseline = Build::new(&p, Compilation::baseline());
        let variable = Build::tagged(&p, fast(), 1);
        let trace = TraceSink::enabled();
        let cfg = HierarchicalConfig::all().with_trace(trace.clone());
        prescreen_for(LintMode::Seed, &baseline, &variable, &driver(), &cfg);
        let snap = trace.snapshot();
        let total: u64 = [
            counter::ABSINT_CERTIFIED_INVARIANT,
            counter::ABSINT_CERTIFIED_BOUNDED,
            counter::ABSINT_CERTIFIED_UNKNOWN,
        ]
        .iter()
        .map(|c| snap.counter(c))
        .sum();
        assert_eq!(total, 4, "two files and two symbols certified");
    }
}
