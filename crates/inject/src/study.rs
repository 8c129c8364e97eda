//! The full §3.5 study protocol: inject at every site with every `OP'`,
//! run Bisect, classify, and compute precision/recall (Table 5).

use crossbeam::thread;

use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig, SearchOutcome};
use flit_exec::ThreadsBackend;
use flit_fpsim::ulp::l2_diff;
use flit_program::build::Build;
use flit_program::engine::Engine;
use flit_program::generate::SplitMix;
use flit_program::model::{Driver, SimProgram};
use flit_program::sites::{InjectOp, Injection};
use flit_toolchain::compilation::Compilation;
use flit_toolchain::perf::fnv1a;

use crate::sites::{apply_injection, enumerate_sites, SiteRef};

/// Table 5's categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Classification {
    /// Bisect reported exactly the injected function.
    Exact,
    /// The injected function is not a visible symbol; Bisect reported a
    /// visible (transitive) caller.
    Indirect,
    /// Bisect reported a function that does not explain the injection —
    /// a false positive. (The paper, and this reproduction, observe 0.)
    Wrong,
    /// Variability was measured but Bisect reported nothing — a false
    /// negative. (Observed 0.)
    Missed,
    /// The injection did not change the program output (dead code or a
    /// perturbation absorbed by rounding): benign.
    NotMeasurable,
}

/// One injection's outcome.
#[derive(Debug, Clone)]
pub struct InjectionRecord {
    /// Where we injected.
    pub site: SiteRef,
    /// Which additional operation.
    pub op: InjectOp,
    /// The ε drawn from U(0, 1).
    pub eps: f64,
    /// Outcome category.
    pub classification: Classification,
    /// Program executions Bisect used (0 for not-measurable).
    pub runs: usize,
    /// What Bisect reported (symbols).
    pub reported: Vec<String>,
}

/// Study configuration.
#[derive(Clone)]
pub struct StudyConfig {
    /// The compilation both builds use (the injection is the only
    /// difference between the two source trees).
    pub compilation: Compilation,
    /// The test driver.
    pub driver: Driver,
    /// Test input.
    pub input: Vec<f64>,
    /// RNG seed for the ε values.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

/// Aggregated Table-5 statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StudySummary {
    /// Exact finds.
    pub exact: usize,
    /// Indirect finds.
    pub indirect: usize,
    /// Wrong finds (false positives).
    pub wrong: usize,
    /// Missed finds (false negatives).
    pub missed: usize,
    /// Benign injections.
    pub not_measurable: usize,
    /// Total injections.
    pub total: usize,
    /// Mean Bisect executions over measurable injections.
    pub avg_runs: f64,
}

impl StudySummary {
    /// Precision over measurable injections: correct finds / all finds.
    pub fn precision(&self) -> f64 {
        let correct = (self.exact + self.indirect) as f64;
        let reported = correct + self.wrong as f64;
        if reported == 0.0 {
            1.0
        } else {
            correct / reported
        }
    }

    /// Recall over measurable injections.
    pub fn recall(&self) -> f64 {
        let correct = (self.exact + self.indirect) as f64;
        let measurable = correct + self.missed as f64;
        if measurable == 0.0 {
            1.0
        } else {
            correct / measurable
        }
    }
}

/// Classify one completed bisection against the injected site.
fn classify(program: &SimProgram, site: &SiteRef, reported: &[String]) -> Classification {
    if reported.is_empty() {
        return Classification::Missed;
    }
    if reported.iter().any(|s| s == &site.symbol) {
        return Classification::Exact;
    }
    let callers = program.visible_callers(&site.symbol);
    if reported.iter().any(|s| callers.contains(s)) {
        return Classification::Indirect;
    }
    Classification::Wrong
}

/// Run one injection end-to-end.
pub fn run_one(
    program: &SimProgram,
    cfg: &StudyConfig,
    site: &SiteRef,
    op: InjectOp,
    eps: f64,
) -> InjectionRecord {
    let injection = Injection {
        site: site.site,
        op,
        eps,
    };
    let injected = apply_injection(program, site, injection);

    // Is the injection measurable at all? Compare clean vs injected
    // whole-program runs under the same compilation.
    let clean_build = Build::new(program, cfg.compilation.clone());
    let injected_build = Build::tagged(&injected, cfg.compilation.clone(), 1);
    let clean_exe = clean_build.executable().expect("clean build links");
    let injected_exe = injected_build.executable().expect("injected build links");
    let clean_out = Engine::new(program, &clean_exe)
        .run(&cfg.driver, &cfg.input)
        .expect("clean run");
    let injected_out = Engine::new(&injected, &injected_exe)
        .run(&cfg.driver, &cfg.input)
        .expect("injected run");
    if l2_diff(&clean_out.output, &injected_out.output) == 0.0 {
        return InjectionRecord {
            site: site.clone(),
            op,
            eps,
            classification: Classification::NotMeasurable,
            runs: 0,
            reported: vec![],
        };
    }

    // Bisect: clean tree is the baseline build, injected tree the
    // variable build, identical compilation on both sides.
    let res = bisect_hierarchical(
        &clean_build,
        &injected_build,
        &cfg.driver,
        &cfg.input,
        &l2_diff,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    let reported: Vec<String> = res.symbols.iter().map(|s| s.symbol.clone()).collect();
    let classification = match res.outcome {
        SearchOutcome::Crashed(_) => Classification::Missed,
        _ => classify(program, site, &reported),
    };
    InjectionRecord {
        site: site.clone(),
        op,
        eps,
        classification,
        runs: res.executions,
        reported,
    }
}

/// Run the full study: every site × every `OP'`.
pub fn run_study(program: &SimProgram, cfg: &StudyConfig) -> (Vec<InjectionRecord>, StudySummary) {
    let sites = enumerate_sites(program);
    let mut jobs: Vec<(SiteRef, InjectOp, f64)> = Vec::with_capacity(sites.len() * 4);
    for site in &sites {
        for op in InjectOp::ALL {
            // ε ~ U(0,1), deterministic per (seed, site, op).
            let h =
                fnv1a(format!("{}|{}|{:?}|{}", site.symbol, site.site, op, cfg.seed).as_bytes());
            let eps = SplitMix::new(h).unit().max(1e-3);
            jobs.push((site.clone(), op, eps));
        }
    }

    let nthreads = cfg.threads.max(1);
    let records: Vec<InjectionRecord> = if nthreads == 1 {
        jobs.iter()
            .map(|(s, op, eps)| run_one(program, cfg, s, *op, *eps))
            .collect()
    } else {
        let chunk = jobs.len().div_ceil(nthreads);
        thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move |_| {
                        part.iter()
                            .map(|(s, op, eps)| run_one(program, cfg, s, *op, *eps))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        })
        .expect("study threads must not panic")
    };

    let mut summary = StudySummary {
        total: records.len(),
        ..Default::default()
    };
    let mut measurable_runs = 0usize;
    let mut measurable = 0usize;
    for r in &records {
        match r.classification {
            Classification::Exact => summary.exact += 1,
            Classification::Indirect => summary.indirect += 1,
            Classification::Wrong => summary.wrong += 1,
            Classification::Missed => summary.missed += 1,
            Classification::NotMeasurable => summary.not_measurable += 1,
        }
        if r.classification != Classification::NotMeasurable {
            measurable += 1;
            measurable_runs += r.runs;
        }
    }
    summary.avg_runs = if measurable == 0 {
        0.0
    } else {
        measurable_runs as f64 / measurable as f64
    };
    (records, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_fpsim::env::FpEnv;
    use flit_program::kernel::{Kernel, KernelImpl};
    use flit_program::model::{Function, SourceFile};
    use flit_program::sites::SiteCtx;
    use flit_toolchain::perf::KernelClass;
    use std::sync::Arc;

    struct Wave;
    impl KernelImpl for Wave {
        fn name(&self) -> &str {
            "wave"
        }
        fn eval(&self, state: &mut [f64], env: &FpEnv, inj: Option<Injection>) {
            let mut ctx = SiteCtx::new(env, inj);
            ctx.begin_body(4);
            for x in state.iter_mut() {
                ctx.next_iteration();
                let a = ctx.mul(*x, 0.733);
                let b = ctx.add(a, 0.117);
                let c = ctx.mul_add(b, 0.91, 0.03);
                *x = ctx.div(c, 1.87);
            }
            ctx.end_body();
        }
        fn fp_sites(&self) -> usize {
            4
        }
        fn work(&self) -> f64 {
            4.0
        }
        fn class(&self) -> KernelClass {
            KernelClass::Stencil
        }
    }

    fn program() -> SimProgram {
        SimProgram::new(
            "study-test",
            vec![
                SourceFile::new(
                    "hydro.cpp",
                    vec![
                        Function::exported("wave_step", Kernel::Custom(Arc::new(Wave))),
                        // A static helper with sites, reachable from an
                        // exported caller → indirect finds.
                        Function::local("wave_helper", Kernel::Custom(Arc::new(Wave))),
                        Function::exported("wave_outer", Kernel::Benign { flavor: 1 })
                            .with_calls(vec!["wave_helper".into()]),
                    ],
                ),
                SourceFile::new(
                    "dead.cpp",
                    // Never called by the driver → not measurable.
                    vec![Function::exported(
                        "dead_code",
                        Kernel::Custom(Arc::new(Wave)),
                    )],
                ),
            ],
        )
    }

    fn config() -> StudyConfig {
        StudyConfig {
            compilation: Compilation::perf_reference(),
            driver: Driver::new(
                "study",
                vec!["wave_step".into(), "wave_outer".into()],
                2,
                16,
            ),
            input: vec![0.4],
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn study_classifies_all_three_ways() {
        let p = program();
        let (records, summary) = run_study(&p, &config());
        // 3 injectable functions × 4 sites × 4 ops.
        assert_eq!(summary.total, 48);
        assert_eq!(summary.wrong, 0, "no false positives allowed");
        assert_eq!(summary.missed, 0, "no false negatives allowed");
        // Dead-code sites (16 injections) are not measurable; live ones
        // may occasionally be absorbed by rounding but mostly measure.
        assert!(summary.not_measurable >= 16);
        assert!(summary.exact >= 12, "exact = {}", summary.exact);
        assert!(summary.indirect >= 12, "indirect = {}", summary.indirect);
        assert_eq!(summary.precision(), 1.0);
        assert_eq!(summary.recall(), 1.0);
        assert!(summary.avg_runs > 2.0 && summary.avg_runs < 40.0);
        // Indirect finds report the visible caller.
        for r in &records {
            if r.classification == Classification::Indirect {
                assert_eq!(r.site.symbol, "wave_helper");
                assert_eq!(r.reported, vec!["wave_outer".to_string()]);
            }
            if r.site.symbol == "dead_code" {
                assert_eq!(r.classification, Classification::NotMeasurable);
            }
        }
    }

    #[test]
    fn study_is_deterministic_and_parallel_invariant() {
        let p = program();
        let (seq, sum1) = run_study(&p, &config());
        let mut cfg = config();
        cfg.threads = 4;
        let (par, sum2) = run_study(&p, &cfg);
        assert_eq!(sum1, sum2);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.classification, b.classification);
            assert_eq!(a.eps, b.eps);
            assert_eq!(a.runs, b.runs);
        }
    }
}
