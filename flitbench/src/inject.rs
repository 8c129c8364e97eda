//! `lulesh-inject`: the §3.5 injection study — every LULESH FP site ×
//! every extra operation — with each `run_one` call timed from outside
//! and the operations being per-function injection campaigns.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use flit_inject::study::run_one;
use flit_inject::{
    enumerate_sites, run_study, Classification, InjectionRecord, SiteRef, StudyConfig, StudySummary,
};
use flit_lulesh::{lulesh_driver, lulesh_program};
use flit_program::generate::SplitMix;
use flit_program::model::SimProgram;
use flit_program::sites::InjectOp;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::perf::fnv1a;

use crate::stats::{median, ratio, tail, Checks};
use crate::{timed, RunArgs, Samples};

/// Injections in the full study: 1,094 sites × 4 operations.
pub const INJECTIONS: usize = 4376;

/// Set-ups timed before each pass for `setup_s`.
const SETUPS: usize = 3;

/// The study inputs: program, configuration and the injection list.
struct Study {
    program: SimProgram,
    cfg: StudyConfig,
    jobs: Vec<(SiteRef, InjectOp, f64)>,
}

/// Build the study for `seed`: the Table-5 configuration, and one job
/// per (site, op) with ε ~ U(0, 1) drawn per (seed, site, op) the way
/// `run_study` draws it (each run checks its records against
/// `run_study`'s, so a drift here fails the run).
fn study(seed: u64) -> Study {
    let program = lulesh_program();
    let cfg = StudyConfig {
        compilation: Compilation::perf_reference(),
        driver: lulesh_driver(),
        input: vec![0.53, 0.31],
        seed,
        threads: 1,
    };
    let mut jobs = Vec::new();
    for site in enumerate_sites(&program) {
        for op in InjectOp::ALL {
            let h = fnv1a(format!("{}|{}|{:?}|{}", site.symbol, site.site, op, seed).as_bytes());
            let eps = SplitMix::new(h).unit().max(1e-3);
            jobs.push((site.clone(), op, eps));
        }
    }
    Study { program, cfg, jobs }
}

/// Run every injection in job order on this thread, timing each
/// `run_one` call (s). One thread on a two-core host: with both cores
/// busy, any other runnable task would preempt an injection for a whole
/// scheduler tick, several times an injection's own length.
fn run_all(study: &Study) -> Vec<(InjectionRecord, f64)> {
    study
        .jobs
        .iter()
        .map(|(site, op, eps)| timed(|| run_one(&study.program, &study.cfg, site, *op, *eps)))
        .collect()
}

/// The workload's operations: one function's injection campaign (every
/// site of the function × every operator), timed as the sum of its
/// `run_one` calls. Jobs are grouped by function, so each campaign is a
/// run of consecutive records.
///
/// A single injection lasts about a millisecond, so its latency is set
/// by whether the host happens to be in a fast or slow stretch, or is
/// hit by a preemption of several milliseconds; a campaign of tens to
/// hundreds of injections averages those out and is still a unit a user
/// of the study waits for.
fn campaigns(records: &[(InjectionRecord, f64)]) -> Vec<f64> {
    records
        .chunk_by(|a, b| a.0.site.symbol == b.0.site.symbol)
        .map(|c| c.iter().map(|(_, t)| t).sum())
        .collect()
}

/// A digest of a pass's records, in job order: two passes agree on it
/// exactly when every record (site, operator, ε, classification,
/// executions, blamed symbols) agrees. Hashing record by record keeps
/// the comparison from adding a copy of the study to the pass's peak
/// memory.
fn digest<'a>(records: impl IntoIterator<Item = &'a InjectionRecord>) -> u64 {
    let mut h = DefaultHasher::new();
    for r in records {
        format!("{r:?}").hash(&mut h);
    }
    h.finish()
}

/// Run the workload.
///
/// Operations, for `attempted`/`failed`: each function's campaign
/// (failed if any of its injections is `Wrong` or `Missed`), and each
/// pass as a whole, which must reproduce the program's own
/// `run_study` for the same seed record for record — so a change that
/// shifts the ε draw, the job order or the measurable count fails even
/// when nothing is classified wrong.
pub fn run(args: &RunArgs) -> Result<Samples, String> {
    let mut s = Samples::default();
    let mut passes: Vec<(u64, StudySummary)> = Vec::new();
    s.run_passes(args.seconds, args.trace, |s, _, traced| {
        // Set-up before every pass, so its samples spread over the
        // whole window like the passes do.
        let mut built = None;
        for _ in 0..SETUPS {
            let (st, secs) = timed(|| study(args.seed));
            s.setup_s.push(secs);
            if args.trace {
                s.layer("apps.codebase_s", secs);
            }
            built = Some(st);
        }
        let study = built.expect("at least one set-up ran");
        let (records, secs) = timed(|| run_all(&study));
        for campaign in records.chunk_by(|a, b| a.0.site.symbol == b.0.site.symbol) {
            let mut op = Checks::default();
            for (r, _) in campaign {
                op.check(
                    !matches!(
                        r.classification,
                        Classification::Wrong | Classification::Missed
                    ),
                    || {
                        format!(
                            "{}#{} {:?} eps={}: {:?}, reported {:?}",
                            r.site.symbol, r.site.site, r.op, r.eps, r.classification, r.reported
                        )
                    },
                );
            }
            s.tally.record(op);
        }
        let summary = summarize(records.iter().map(|(r, _)| r));
        passes.push((digest(records.iter().map(|(r, _)| r)), summary.clone()));
        let measured = || {
            records
                .iter()
                .filter(|(r, _)| r.classification != Classification::NotMeasurable)
        };
        let measurable = measured().count() as u64;
        let runs: u64 = measured().map(|(r, _)| r.runs as u64).sum();
        if traced {
            let injections: Vec<f64> = records.iter().map(|(_, t)| t * 1e3).collect();
            s.traced_pass_s.push(secs);
            s.layer(
                "inject.injection_p50_ms",
                median(&injections).unwrap_or(0.0),
            );
            s.layer(
                "inject.injection_tail_ms",
                tail(&injections).map_or(0.0, |t| t.value),
            );
            s.layer("inject.measurable", measurable as f64);
            s.layer("inject.exact", summary.exact as f64);
            s.layer("inject.indirect", summary.indirect as f64);
            s.layer("inject.avg_runs", summary.avg_runs);
        } else {
            s.pass_s.push(secs);
            let campaigns = campaigns(&records);
            s.ops += campaigns.len() as u64;
            s.op_s.push(campaigns);
            s.bisections += measurable;
            s.bisect_time_s += secs;
            s.executions += runs;
        }
        Ok(())
    })?;

    // The reference: the program's own study, on both cores.
    let st = study(args.seed);
    let cfg = StudyConfig {
        threads: 2,
        ..st.cfg.clone()
    };
    let (expected, expected_summary) = run_study(&st.program, &cfg);
    let expected_digest = digest(&expected);
    for (i, (d, summary)) in passes.into_iter().enumerate() {
        let mut op = Checks::default();
        op.check(summary.total == INJECTIONS, || {
            format!(
                "pass {i}: {} injections, expected {INJECTIONS}",
                summary.total
            )
        });
        op.check(summary == expected_summary, || {
            format!("pass {i}: summary {summary:?}, run_study gives {expected_summary:?}")
        });
        op.check(d == expected_digest, || {
            format!("pass {i}: records differ from run_study's")
        });
        s.tally.record(op);
    }
    Ok(s)
}

/// Summarize records the way `run_study` does.
fn summarize<'a>(records: impl IntoIterator<Item = &'a InjectionRecord>) -> StudySummary {
    let mut summary = StudySummary::default();
    let (mut measurable, mut runs) = (0usize, 0usize);
    for r in records {
        summary.total += 1;
        match r.classification {
            Classification::Exact => summary.exact += 1,
            Classification::Indirect => summary.indirect += 1,
            Classification::Wrong => summary.wrong += 1,
            Classification::Missed => summary.missed += 1,
            Classification::NotMeasurable => summary.not_measurable += 1,
        }
        if r.classification != Classification::NotMeasurable {
            measurable += 1;
            runs += r.runs;
        }
    }
    summary.avg_runs = ratio(runs as f64, measurable as f64);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injections_form_one_contiguous_campaign_per_function() {
        let st = study(3);
        assert_eq!(st.jobs.len(), INJECTIONS);
        let runs = st.jobs.chunk_by(|a, b| a.0.symbol == b.0.symbol).count();
        let functions: std::collections::BTreeSet<&str> =
            st.jobs.iter().map(|j| j.0.symbol.as_str()).collect();
        assert_eq!(runs, functions.len(), "each function's jobs are contiguous");
        assert_eq!(runs, 34);
    }
}
