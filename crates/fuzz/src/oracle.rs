//! The per-seed differential oracle: generate a planted codebase, run
//! the real pipeline against it, and compare every output to the
//! generator's ground truth.
//!
//! Checks per seed:
//!
//! * **(a) found-set equality** — `BisectAll`'s blamed files and
//!   symbols must equal the planted blame set exactly (no misses, no
//!   extras), with no `file_level_only` caps and no assumption
//!   violations;
//! * **(c) width and resume byte-identity** — the jobs=N planner run
//!   must equal the serial result structurally (every f64 bit), and a
//!   kill-and-resume through a checkpoint journal must land on the
//!   identical result;
//! * **(d) journal round-trip** — the journal written by (c) must
//!   reload cleanly and replay without executing a single extra query;
//! * **(f) certified-bound soundness** — `flit-absint`'s certificates
//!   must never contradict this seed's ground truth or observations:
//!   their ABI-hazard flag must match the linker predicate (every
//!   seed), and unless the search crashed as that predicate explains,
//!   no planted-blame item may be certified `Invariant` (the seed and
//!   prune lose nothing), every file-level singleton Test value must
//!   sit inside its certified bound, and the measured whole-pair
//!   divergence must sit inside the whole-pair bound.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use flit_bisect::hierarchy::{
    bisect_hierarchical, HierarchicalConfig, HierarchicalResult, SearchOutcome,
};
use flit_bisect::journal::{load_journal, JournalWriter};
use flit_bisect::ledger::{LedgerHandle, QueryLedger};
use flit_core::metrics::l2_compare;
use flit_exec::{ExecBackend, ProcessBackend, ThreadsBackend};
use flit_program::build::Build;
use flit_program::generate::{plant, random_planted, PlantedCodebase, PlantedSpec};
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::CompilerKind;
use flit_trace::TraceSink;

use crate::pairs::{pair_for_seed, FuzzPair};

/// Which oracle layers to run for a seed.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Width of the parallel cross-check (values < 2 skip it).
    pub jobs: usize,
    /// Run the kill-and-resume + journal round-trip layer.
    pub check_resume: bool,
    /// Worker command for the process-backend byte-identity layer
    /// (`None` skips it). Typically the running `flit` binary plus the
    /// `worker` subcommand.
    pub process_cmd: Option<Vec<String>>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            jobs: 8,
            check_resume: false,
            process_cmd: None,
        }
    }
}

/// The oracle's verdict for one seed.
#[derive(Debug, Clone)]
pub struct SeedVerdict {
    /// The seed.
    pub seed: u64,
    /// Compilation pair bisected.
    pub pair: &'static str,
    /// Number of planted sites.
    pub sites: usize,
    /// How many sites were expected blame under this pair.
    pub expected_sites: usize,
    /// True when the search crashed *and* the pair is an ABI hazard —
    /// the Table-2 outcome, explained and accepted.
    pub crashed_explained: bool,
    /// Every oracle mismatch, human-readable. Empty = pass.
    pub divergences: Vec<String>,
    /// Program executions the serial search spent.
    pub executions: usize,
    /// True when the certified-bound soundness layer ran.
    pub bound_checked: bool,
}

impl SeedVerdict {
    /// Did every oracle layer agree with the ground truth?
    pub(crate) fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The planted blame set under a pair: files and symbols of every site
/// whose kernel feels this pair's env diff.
pub(crate) fn expected_blame(
    planted: &PlantedCodebase,
    pair: &FuzzPair,
) -> (BTreeSet<usize>, BTreeSet<String>) {
    let mut files = BTreeSet::new();
    let mut symbols = BTreeSet::new();
    for site in &planted.sites {
        if pair.hits.contains(&site.kernel) {
            files.insert(site.file_id);
            symbols.insert(site.blamed_symbol.clone());
        }
    }
    (files, symbols)
}

/// Scratch path for a seed's checkpoint journal.
fn scratch_journal(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flit-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    dir.join(format!("seed-{seed:08x}.jsonl"))
}

fn run_search(
    planted: &PlantedCodebase,
    pair: &FuzzPair,
    compare: &(dyn Fn(&[f64], &[f64]) -> f64 + Sync),
    ledger: Option<&std::sync::Arc<QueryLedger>>,
    jobs: usize,
    backend: Option<Arc<dyn ExecBackend>>,
) -> HierarchicalResult {
    let baseline = Build::new(&planted.program, Compilation::baseline());
    let variable = Build::tagged(&planted.program, pair.variable.clone(), 1);
    let mut cfg = HierarchicalConfig::all();
    if let Some(ledger) = ledger {
        cfg = cfg.with_ledger(LedgerHandle::new(
            ledger.clone(),
            1,
            format!("{}/{}", planted.driver.name, pair.variable.label()),
        ));
    }
    if let Some(backend) = backend {
        cfg = cfg.with_backend(backend);
    }
    let input = &[0.3, 0.7];
    bisect_hierarchical(
        &baseline,
        &variable,
        &planted.driver,
        input,
        compare,
        &cfg,
        &ThreadsBackend::new(jobs),
    )
}

/// A compare metric that panics after `budget` calls — the in-process
/// stand-in for `kill -9` mid-search (same idiom as the resume
/// durability suite).
fn killing_compare(budget: usize) -> impl Fn(&[f64], &[f64]) -> f64 + Sync {
    let remaining = AtomicUsize::new(budget);
    move |a, b| {
        if remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_err()
        {
            panic!("killed: compare budget exhausted");
        }
        l2_compare(a, b)
    }
}

/// Run the oracle against an explicit spec (the shrinker re-enters
/// here with mutated specs).
pub(crate) fn check_spec(seed: u64, spec: &PlantedSpec, cfg: &OracleConfig) -> SeedVerdict {
    let planted = plant(spec);
    let pair = pair_for_seed(seed);
    let (expected_files, expected_symbols) = expected_blame(&planted, &pair);
    let mut divergences = Vec::new();
    let mut crashed_explained = false;

    // Layer (a): the serial verifying search vs the planted truth.
    let serial = run_search(&planted, &pair, &l2_compare, None, 1, None);
    match &serial.outcome {
        SearchOutcome::Crashed(why) => {
            if pair.abi_hazard {
                crashed_explained = true;
            } else {
                divergences.push(format!("unexplained crash: {why}"));
            }
        }
        SearchOutcome::Completed => {
            let found_files: BTreeSet<usize> = serial.files.iter().map(|f| f.file_id).collect();
            let found_symbols: BTreeSet<String> =
                serial.symbols.iter().map(|s| s.symbol.clone()).collect();
            if found_files != expected_files {
                divergences.push(format!(
                    "file blame mismatch: found {found_files:?}, planted {expected_files:?}"
                ));
            }
            if found_symbols != expected_symbols {
                divergences.push(format!(
                    "symbol blame mismatch: found {found_symbols:?}, planted {expected_symbols:?}"
                ));
            }
            if !serial.file_level_only.is_empty() {
                divergences.push(format!(
                    "unexpected file_level_only caps: {:?} (menu kernels survive -fPIC)",
                    serial.file_level_only
                ));
            }
            if !serial.violations.is_empty() {
                divergences.push(format!("assumption violations: {:?}", serial.violations));
            }
        }
        SearchOutcome::LinkStepOnly if expected_files.is_empty() && expected_symbols.is_empty() => {
            // Legitimate: every planted kernel is invariant under this
            // pair (e.g. an FMA-only site bisected against icpc's
            // no-FMA fast model), so nothing diverges anywhere and the
            // mixed link reproduces the baseline exactly.
        }
        other => divergences.push(format!(
            "unexpected outcome {other:?} (expected blame: {expected_files:?})"
        )),
    }

    // Layer (c1): planner-driven parallel width must agree bit-for-bit.
    if cfg.jobs > 1 {
        let wide = run_search(&planted, &pair, &l2_compare, None, cfg.jobs, None);
        if crashed_explained {
            if !matches!(wide.outcome, SearchOutcome::Crashed(_)) {
                divergences.push(format!(
                    "jobs={} did not reproduce the ABI crash: {:?}",
                    cfg.jobs, wide.outcome
                ));
            }
        } else if wide != serial {
            divergences.push(format!(
                "jobs=1 vs jobs={} results differ:\n  serial {serial:?}\n  wide {wide:?}",
                cfg.jobs
            ));
        }
    }

    // Layer (e): process-backend byte-identity — the same serial
    // search, but every Test query ships to `flit worker` subprocesses
    // through the coordinator. Found sets, execution counts, and every
    // f64 bit must match the in-process serial result. (Skipped on
    // explained ABI crashes: the layer exists to pin transport
    // fidelity, not crash semantics.)
    if let (Some(cmd), false) = (&cfg.process_cmd, crashed_explained) {
        let backend: Arc<dyn ExecBackend> = Arc::new(ProcessBackend::new(cmd.clone(), 2));
        let remote = run_search(&planted, &pair, &l2_compare, None, 1, Some(backend));
        if remote != serial {
            divergences.push(format!(
                "process backend vs in-process serial differ:\n  serial {serial:?}\n  process {remote:?}"
            ));
        }
    }

    // Layers (c2) + (d): kill-and-resume byte-identity through a
    // checkpoint journal, then a clean journal round-trip.
    if cfg.check_resume && !crashed_explained {
        let fp = planted.program.fingerprint();
        let path = scratch_journal(seed);
        std::fs::remove_file(&path).ok();
        let budget = (seed % 23) as usize; // kill early, mid, or never
        let ledger = QueryLedger::new(fp, &TraceSink::disabled());
        ledger.attach_journal(JournalWriter::create(&path, fp).unwrap());
        // The kill is simulated by a panic; silence the default hook's
        // backtrace while it unwinds (the campaign would otherwise spew
        // one per resume check).
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let killed = catch_unwind(AssertUnwindSafe(|| {
            run_search(
                &planted,
                &pair,
                &killing_compare(budget),
                Some(&ledger),
                1,
                None,
            )
        }));
        std::panic::set_hook(prev_hook);
        if let Ok(res) = &killed {
            // A budget generous enough to finish yields the serial
            // outcome — which is `LinkStepOnly` when the pair hits none
            // of the planted kernels. Anything else (a violated search
            // invariant, say) is a real divergence.
            if !matches!(
                res.outcome,
                SearchOutcome::Crashed(_) | SearchOutcome::Completed | SearchOutcome::LinkStepOnly
            ) {
                divergences.push(format!("killed run odd outcome: {:?}", res.outcome));
            }
        }
        if let Some(err) = ledger.journal_error() {
            divergences.push(format!("journal write error during kill: {err}"));
        }
        drop(ledger);

        match JournalWriter::resume(&path, fp) {
            Ok((writer, records)) => {
                let resumed_ledger = QueryLedger::new(fp, &TraceSink::disabled());
                resumed_ledger.preload(&records);
                resumed_ledger.attach_journal(writer);
                let resumed =
                    run_search(&planted, &pair, &l2_compare, Some(&resumed_ledger), 1, None);
                if resumed != serial {
                    divergences.push(format!(
                        "kill-and-resume result differs from uninterrupted run \
                         (budget {budget}):\n  gold {serial:?}\n  resumed {resumed:?}"
                    ));
                }
                let stats = resumed_ledger.stats();
                if stats.replayed != records.len() as u64 {
                    divergences.push(format!(
                        "journal replay accounting: {} replayed of {} records",
                        stats.replayed,
                        records.len()
                    ));
                }
            }
            Err(err) => divergences.push(format!("journal resume failed: {err}")),
        }
        // The completed journal must still load as a whole.
        if let Err(err) = load_journal(&path, fp) {
            divergences.push(format!("journal round-trip failed: {err}"));
        }
        std::fs::remove_file(&path).ok();
    }

    // Layer (f): certified-bound soundness. The certifier models the
    // same contract the search runs (mixed binaries linked by gcc), so
    // its verdicts are checkable against both the planted truth and the
    // values the serial search actually measured. The bound checks are
    // skipped on explained ABI crashes — there the observed side is a
    // crash, not a number.
    let certs = flit_absint::certify_pair(
        &planted.program,
        &planted.program,
        &planted.driver,
        &Compilation::baseline(),
        &pair.variable,
        CompilerKind::Gcc,
    );
    if certs.abi_hazard != pair.abi_hazard {
        divergences.push(format!(
            "certificate abi_hazard {} but linker predicate says {}",
            certs.abi_hazard, pair.abi_hazard
        ));
    }
    if !crashed_explained {
        // (f1) No planted-blame item may be certified Invariant: the
        // ground truth says it diverges, so an Invariant there would be
        // an unsound certificate (and would wrongly prune the search).
        for fid in &expected_files {
            if certs.file(*fid) == flit_absint::Certificate::Invariant {
                divergences.push(format!(
                    "unsound certificate: file {fid} is planted blame but certified Invariant"
                ));
            }
        }
        for symbol in &expected_symbols {
            if certs.symbol(symbol) == flit_absint::Certificate::Invariant {
                divergences.push(format!(
                    "unsound certificate: symbol {symbol} is planted blame but certified Invariant"
                ));
            }
        }
        // (f2) Every file-level singleton Test value the serial search
        // measured must respect that file's certified bound — the exact
        // quantity the certificate models.
        for f in &serial.files {
            let cert = certs.file(f.file_id);
            if cert.contradicted_by(f.value) {
                divergences.push(format!(
                    "certified bound violated: file {} observed {:e} against {cert:?}",
                    f.file_name, f.value
                ));
            }
        }
        // (f3) The measured whole-pair divergence (each pure binary
        // linked by its own compiler, the certifier's whole-pair model)
        // must respect the whole-pair bound.
        let observed_whole = (|| -> Result<f64, String> {
            let base = Build::new(&planted.program, Compilation::baseline());
            let cand = Build::new(&planted.program, pair.variable.clone());
            let input = &[0.3, 0.7];
            let run = |b: &Build| -> Result<Vec<f64>, String> {
                let exe = b.executable().map_err(|e| format!("link: {e}"))?;
                flit_program::engine::Engine::new(&planted.program, &exe)
                    .run(&planted.driver, input)
                    .map(|o| o.output)
                    .map_err(|e| format!("run: {e}"))
            };
            Ok(l2_compare(&run(&base)?, &run(&cand)?))
        })();
        match observed_whole {
            Ok(observed) => {
                if certs.whole.contradicted_by(observed) {
                    divergences.push(format!(
                        "whole-pair bound violated: observed {observed:e} against {:?}",
                        certs.whole
                    ));
                }
            }
            Err(why) => divergences.push(format!("whole-pair measurement failed: {why}")),
        }
    }

    SeedVerdict {
        seed,
        pair: pair.name,
        sites: planted.sites.len(),
        expected_sites: expected_files.len(),
        crashed_explained,
        divergences,
        executions: serial.executions,
        bound_checked: !crashed_explained,
    }
}

/// Run the oracle for one seed of the campaign space.
pub fn check_seed(seed: u64, cfg: &OracleConfig) -> SeedVerdict {
    check_spec(seed, &random_planted(seed), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_seed_range_passes_every_layer() {
        let cfg = OracleConfig {
            jobs: 4,
            check_resume: false,
            process_cmd: None,
        };
        for seed in 0..6u64 {
            let v = check_seed(seed, &cfg);
            assert!(v.passed(), "seed {seed} diverged: {:?}", v.divergences);
        }
    }

    #[test]
    fn resume_layer_holds_on_a_seeded_kill() {
        let cfg = OracleConfig {
            jobs: 2,
            check_resume: true,
            process_cmd: None,
        };
        // Seed 1 draws a gcc pair (no ABI hazard), so the resume layer
        // actually runs.
        let v = check_seed(1, &cfg);
        assert!(!v.crashed_explained);
        assert!(v.passed(), "seed 1 diverged: {:?}", v.divergences);
    }

    #[test]
    fn expected_blame_filters_by_hit_table() {
        use flit_program::generate::{FillerSpec, PlantKernel, PlantShape, PlantedSpec};
        // Div is not in the gcc-fma hit table; Dot and Norm are.
        let spec = PlantedSpec {
            filler: FillerSpec {
                files: 2,
                funcs_per_file: 4,
                prefix: "eb".into(),
                ..FillerSpec::default()
            },
            sites: vec![
                (PlantKernel::Dot, PlantShape::ExportedEntry),
                (PlantKernel::Norm, PlantShape::ExportedEntry),
                (PlantKernel::Div, PlantShape::CrossFileChain),
            ],
            seed: 3,
        };
        let planted = plant(&spec);
        let pair = crate::pairs::pair_menu()
            .into_iter()
            .find(|p| p.name == "gcc-fma")
            .unwrap();
        let (files, symbols) = expected_blame(&planted, &pair);
        assert_eq!(files.len(), 2);
        assert_eq!(symbols.len(), 2);
        assert!(symbols
            .iter()
            .all(|s| s.contains("site00") || s.contains("site01")));
    }
}
