//! The campaign driver: run the per-seed oracle over a seed range
//! (corpus seeds first), inside an optional wall-clock budget, shrink
//! every divergence, and report.

use std::time::Instant;

use flit_trace::names::{counter, phase};
use flit_trace::TraceSink;

use crate::oracle::{check_seed, check_spec, OracleConfig};
use crate::shrink::shrink;
use flit_program::generate::random_planted;

/// Campaign parameters (the `flit fuzz` flag surface).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed range `start..end`.
    pub start: u64,
    /// Exclusive end of the range.
    pub end: u64,
    /// Wall-clock budget; `None` runs the whole range.
    pub budget_secs: Option<u64>,
    /// Parallel width of the jobs cross-check (values < 2 skip it).
    pub jobs: usize,
    /// Minimize divergent specs and emit fixture snippets.
    pub shrink: bool,
    /// Run the kill-and-resume layer on every `resume_stride`-th seed
    /// (0 disables it). Corpus seeds always get it.
    pub resume_stride: u64,
    /// Worker command for the process-backend byte-identity layer.
    /// When set, every seed that runs the resume layer (corpus seeds
    /// and `resume_stride` hits) also re-runs its search through
    /// worker subprocesses and requires a bit-identical result.
    pub process_cmd: Option<Vec<String>>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            start: 0,
            end: 100,
            budget_secs: None,
            jobs: 8,
            shrink: true,
            resume_stride: 16,
            process_cmd: None,
        }
    }
}

/// One divergence, with its shrink artifacts when shrinking ran.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The divergent seed.
    pub seed: u64,
    /// Compilation pair it bisected.
    pub pair: &'static str,
    /// The oracle mismatches.
    pub details: Vec<String>,
    /// Accepted shrink steps (0 when shrinking was off or fruitless).
    pub shrink_steps: usize,
    /// Site count before → after shrinking.
    pub sites_before_after: (usize, usize),
    /// The self-contained fixture snippet, when shrinking ran.
    pub fixture: Option<String>,
}

/// Campaign totals.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Seeds actually checked (corpus + range, minus any budget cut).
    pub seeds_run: u64,
    /// Seeds on which every layer agreed.
    pub passed: u64,
    /// Explained ABI-hazard crashes (subset of `passed`).
    pub explained_crashes: u64,
    /// Seeds that ran the kill-and-resume layer.
    pub resume_checks: u64,
    /// Seeds that ran the process-backend byte-identity layer.
    pub process_checks: u64,
    /// Seeds that ran the certified-bound soundness layer.
    pub bound_checks: u64,
    /// Total program executions across serial searches.
    pub executions: u64,
    /// Every divergence, in discovery order.
    pub divergences: Vec<Divergence>,
    /// True when the budget expired before the range was exhausted.
    pub out_of_budget: bool,
}

impl CampaignResult {
    /// Zero divergences?
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Seeds from the checked-in corpus file (`crates/fuzz/corpus.txt`):
/// known-interesting seeds that run before the requested range.
pub(crate) fn corpus_seeds() -> Vec<u64> {
    include_str!("../corpus.txt")
        .lines()
        .filter_map(|l| {
            let l = l.split('#').next().unwrap_or("").trim();
            if l.is_empty() {
                None
            } else {
                l.parse().ok()
            }
        })
        .collect()
}

/// Run the campaign. Corpus seeds run first (always with the resume
/// layer), then the configured range; the budget is checked between
/// seeds, never mid-oracle.
pub fn run_campaign(cfg: &CampaignConfig, trace: &TraceSink) -> CampaignResult {
    let started = Instant::now();
    let mut result = CampaignResult {
        seeds_run: 0,
        passed: 0,
        explained_crashes: 0,
        resume_checks: 0,
        process_checks: 0,
        bound_checks: 0,
        executions: 0,
        divergences: Vec::new(),
        out_of_budget: false,
    };

    let corpus = corpus_seeds();
    let seeds = corpus
        .iter()
        .copied()
        .map(|s| (s, true))
        .chain((cfg.start..cfg.end).map(|s| (s, false)));

    for (seed, from_corpus) in seeds {
        if let Some(budget) = cfg.budget_secs {
            if started.elapsed().as_secs() >= budget {
                result.out_of_budget = true;
                break;
            }
        }
        let check_resume = from_corpus || (cfg.resume_stride > 0 && seed % cfg.resume_stride == 0);
        let process_cmd = if check_resume {
            cfg.process_cmd.clone()
        } else {
            None
        };
        let oracle = OracleConfig {
            jobs: cfg.jobs,
            check_resume,
            process_cmd,
        };
        let verdict = check_seed(seed, &oracle);

        result.seeds_run += 1;
        result.executions += verdict.executions as u64;
        trace.counter(counter::FUZZ_SEEDS_RUN).incr(1);
        trace.span(
            phase::FUZZ,
            format!("seed-{seed:06}/{}", verdict.pair),
            verdict.executions as u64,
            0.0,
        );
        if check_resume {
            result.resume_checks += 1;
            trace.counter(counter::FUZZ_RESUME_CHECKS).incr(1);
        }
        if oracle.process_cmd.is_some() && !verdict.crashed_explained {
            result.process_checks += 1;
        }
        if verdict.bound_checked {
            result.bound_checks += 1;
            trace.counter(counter::FUZZ_BOUND_CHECKS).incr(1);
        }
        if verdict.crashed_explained {
            result.explained_crashes += 1;
            trace.counter(counter::FUZZ_CRASHES_EXPLAINED).incr(1);
        }
        if verdict.passed() {
            result.passed += 1;
            trace.counter(counter::FUZZ_SEEDS_PASSED).incr(1);
            continue;
        }

        trace.counter(counter::FUZZ_DIVERGENCES).incr(1);
        let spec = random_planted(seed);
        let mut divergence = Divergence {
            seed,
            pair: verdict.pair,
            details: verdict.divergences.clone(),
            shrink_steps: 0,
            sites_before_after: (spec.sites.len(), spec.sites.len()),
            fixture: None,
        };
        if cfg.shrink {
            let mut still_fails =
                |s: &flit_program::generate::PlantedSpec| !check_spec(seed, s, &oracle).passed();
            let shrunk = shrink(seed, &spec, &mut still_fails);
            trace
                .counter(counter::FUZZ_SHRINK_STEPS)
                .incr(shrunk.steps as u64);
            divergence.shrink_steps = shrunk.steps;
            divergence.sites_before_after = (spec.sites.len(), shrunk.spec.sites.len());
            divergence.fixture = Some(shrunk.fixture);
        }
        result.divergences.push(divergence);
    }
    result
}

/// Human-readable campaign report (the `flit fuzz` output).
pub fn render_report(cfg: &CampaignConfig, result: &CampaignResult) -> String {
    let mut out = format!(
        "flit fuzz: seeds {}..{} | jobs {} | resume stride {}{}\n\n",
        cfg.start,
        cfg.end,
        cfg.jobs,
        cfg.resume_stride,
        match cfg.budget_secs {
            Some(b) => format!(" | budget {b}s"),
            None => String::new(),
        }
    );
    out.push_str(&format!(
        "seeds run          {:>8}{}\n\
         passed             {:>8}\n\
         explained crashes  {:>8}  (planted ABI hazards, Table 2)\n\
         resume checks      {:>8}\n\
         process checks     {:>8}\n\
         bound checks       {:>8}  (certified bounds vs observed divergence)\n\
         executions         {:>8}\n\
         divergences        {:>8}\n",
        result.seeds_run,
        if result.out_of_budget {
            "  (budget expired)"
        } else {
            ""
        },
        result.passed,
        result.explained_crashes,
        result.resume_checks,
        result.process_checks,
        result.bound_checks,
        result.executions,
        result.divergences.len(),
    ));
    for d in &result.divergences {
        out.push_str(&format!(
            "\nDIVERGENCE seed {} ({}) — {} site(s) shrunk to {} in {} step(s)\n",
            d.seed, d.pair, d.sites_before_after.0, d.sites_before_after.1, d.shrink_steps
        ));
        for detail in &d.details {
            out.push_str(&format!("  * {detail}\n"));
        }
        if let Some(fixture) = &d.fixture {
            out.push_str("  shrunk fixture:\n");
            for line in fixture.lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
    }
    if result.clean() {
        out.push_str("\nno divergences: pipeline agrees with every planted blame set\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_parses_and_is_sorted_unique() {
        let seeds = corpus_seeds();
        assert!(!seeds.is_empty());
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seeds, sorted, "keep corpus.txt sorted and duplicate-free");
    }

    #[test]
    fn a_tiny_campaign_is_clean_and_counts_add_up() {
        let cfg = CampaignConfig {
            start: 0,
            end: 4,
            budget_secs: None,
            jobs: 2,
            shrink: true,
            resume_stride: 0,
            process_cmd: None,
        };
        let trace = TraceSink::enabled();
        let result = run_campaign(&cfg, &trace);
        assert!(result.clean(), "{:?}", result.divergences);
        assert_eq!(
            result.seeds_run,
            corpus_seeds().len() as u64 + 4,
            "corpus runs before the range"
        );
        assert_eq!(result.passed, result.seeds_run);
        // Corpus seeds always run the resume layer.
        assert_eq!(result.resume_checks, corpus_seeds().len() as u64);
        let snap = trace.snapshot();
        assert_eq!(snap.counter(counter::FUZZ_SEEDS_RUN), result.seeds_run);
        assert_eq!(snap.counter(counter::FUZZ_SEEDS_PASSED), result.passed);
        assert_eq!(snap.counter(counter::FUZZ_DIVERGENCES), 0);
        let report = render_report(&cfg, &result);
        assert!(report.contains("no divergences"), "{report}");
    }

    #[test]
    fn budget_zero_stops_before_any_seed() {
        let cfg = CampaignConfig {
            budget_secs: Some(0),
            ..CampaignConfig::default()
        };
        let result = run_campaign(&cfg, &TraceSink::disabled());
        assert_eq!(result.seeds_run, 0);
        assert!(result.out_of_budget);
    }
}
