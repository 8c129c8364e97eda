//! Audit the static prescreen (`flit-lint`) against dynamic ground
//! truth, in the paper's two heavyweight regimes:
//!
//! 1. **Table 2** — bisect every variable (test, compilation) MFEM
//!    pair, predict each pair statically, and score file/symbol recall
//!    and precision (micro-averaged), plus the ABI-crash prediction.
//! 2. **Seeding savings** — rerun every ex13 variable pair at 8 jobs
//!    unseeded vs lint-seeded and total the executed Test queries.
//! 3. **Table 5** — the LULESH injection study, auditing the
//!    prediction's coverage of every measurable injection.

use flit_bench::mfem_study::{default_threads, mfem_sweep};
use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig, SearchOutcome};
use flit_core::metrics::l2_compare;
use flit_exec::{Executor, ThreadsBackend};
use flit_inject::study::{run_study, StudyConfig};
use flit_lint::{audit_hierarchy, audit_injection, predict_pair};
use flit_lulesh::{lulesh_driver, lulesh_program};
use flit_mfem::examples::example_driver;
use flit_mfem::mfem_program;
use flit_program::build::Build;
use flit_program::model::SimProgram;
use flit_report::table::{Align, Table};
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::CompilerKind;
use flit_trace::names::counter;
use flit_trace::sink::TraceSink;

struct LevelTotals {
    found: usize,
    predicted: usize,
    hits: usize,
    missed: usize,
}

impl LevelTotals {
    fn new() -> Self {
        LevelTotals {
            found: 0,
            predicted: 0,
            hits: 0,
            missed: 0,
        }
    }
    fn recall(&self) -> f64 {
        if self.found == 0 {
            1.0
        } else {
            self.hits as f64 / self.found as f64
        }
    }
    fn precision(&self) -> f64 {
        if self.predicted == 0 {
            1.0
        } else {
            self.hits as f64 / self.predicted as f64
        }
    }
}

fn table2_audit(program: &SimProgram) {
    let db = mfem_sweep(program);
    let jobs: Vec<(String, Compilation)> = db
        .rows
        .iter()
        .filter(|r| r.is_variable())
        .map(|r| (r.test.clone(), r.compilation.clone()))
        .collect();
    let ctx = BuildCtx::cached();

    let run_job = |test: &str, comp: &Compilation| {
        let ex: usize = test[2..].parse().expect("test names are exNN");
        let driver = example_driver(ex, 1);
        let base = Build::new(program, Compilation::baseline());
        let var = Build::tagged(program, comp.clone(), 1);
        let pred = predict_pair(&base, &var, Some(&driver), CompilerKind::Gcc);
        let res = bisect_hierarchical(
            &base,
            &var,
            &driver,
            &[0.35, 0.62],
            &l2_compare,
            &HierarchicalConfig::all().with_ctx(ctx.clone()),
            &ThreadsBackend::new(1),
        );
        let crashed = matches!(res.outcome, SearchOutcome::Crashed(_));
        (audit_hierarchy(&pred, &res), pred.abi_hazard, crashed)
    };

    let results = Executor::new(default_threads())
        .run(jobs.len(), |i| {
            let (t, c) = &jobs[i];
            run_job(t, c)
        })
        .unwrap_or_else(|e| panic!("audit workers must not panic: {e}"));

    let mut files = LevelTotals::new();
    let mut symbols = LevelTotals::new();
    let mut crash_hits = 0usize;
    let mut crashes = 0usize;
    let mut false_alarms = 0usize;
    let mut unsound = 0usize;
    for (audit, abi_hazard, crashed) in &results {
        for (t, level) in [(&mut files, &audit.files), (&mut symbols, &audit.symbols)] {
            t.found += level.found.len();
            t.predicted += level.predicted.len();
            t.hits += level.hits;
            t.missed += level.missed.len();
        }
        if !audit.sound() {
            unsound += 1;
        }
        if *crashed {
            crashes += 1;
            if *abi_hazard {
                crash_hits += 1;
            }
        } else if *abi_hazard {
            false_alarms += 1;
        }
    }

    let mut table = Table::new(&["Level", "Found", "Predicted", "Hits", "Recall", "Precision"])
        .with_title(format!(
            "Static audit vs Table 2 ({} variable pairs)",
            results.len()
        ))
        .with_aligns(&[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    for (name, t) in [("files", &files), ("symbols", &symbols)] {
        table.row(&[
            name.into(),
            t.found.to_string(),
            t.predicted.to_string(),
            t.hits.to_string(),
            format!("{:.3}", t.recall()),
            format!("{:.3}", t.precision()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "unsound pairs = {unsound} (recall < 1.0 anywhere); \
         ABI crashes predicted = {crash_hits}/{crashes}, false alarms = {false_alarms}"
    );
    assert_eq!(unsound, 0, "static recall must be 1.0 on every pair");
}

fn seeding_savings(program: &SimProgram) {
    let db = mfem_sweep(program);
    let pairs: Vec<Compilation> = db
        .rows
        .iter()
        .filter(|r| r.is_variable() && r.test == "ex13")
        .map(|r| r.compilation.clone())
        .collect();
    let driver = example_driver(13, 1);
    let base = Build::new(program, Compilation::baseline());
    let exec = ThreadsBackend::new(8);
    let ctx = BuildCtx::cached();

    let mut unseeded = 0u64;
    let mut seeded = 0u64;
    for comp in &pairs {
        let var = Build::tagged(program, comp.clone(), 1);
        let pred = predict_pair(&base, &var, Some(&driver), CompilerKind::Gcc);
        for (seed, total) in [(false, &mut unseeded), (true, &mut seeded)] {
            let trace = TraceSink::enabled();
            let mut cfg = HierarchicalConfig::all()
                .with_ctx(ctx.clone())
                .with_trace(trace.clone());
            if seed {
                cfg = cfg.with_prescreen(pred.prescreen());
            }
            let a = bisect_hierarchical(
                &base,
                &var,
                &driver,
                &[0.35, 0.62],
                &l2_compare,
                &cfg,
                &exec,
            );
            let b = bisect_hierarchical(
                &base,
                &var,
                &driver,
                &[0.35, 0.62],
                &l2_compare,
                &HierarchicalConfig::all().with_ctx(ctx.clone()),
                &ThreadsBackend::new(1),
            );
            assert_eq!(a, b, "seeding/width must never change findings");
            *total += trace.snapshot().counter(counter::EXEC_QUERIES_EXECUTED);
        }
    }
    println!(
        "Seeding savings (ex13, {} variable pairs, 8 jobs): \
         {unseeded} executed queries unseeded vs {seeded} lint-seeded ({:.1}% saved)",
        pairs.len(),
        100.0 * (unseeded.saturating_sub(seeded)) as f64 / unseeded.max(1) as f64
    );
}

fn table5_audit() {
    let program = lulesh_program();
    let cfg = StudyConfig {
        compilation: Compilation::perf_reference(),
        driver: lulesh_driver(),
        input: vec![0.53, 0.31],
        seed: 42,
        threads: default_threads(),
    };
    let (records, summary) = run_study(&program, &cfg);
    let audit = audit_injection(&program, &cfg, &records);
    println!(
        "Injection audit vs Table 5: {} measurable injections, {} fully covered; \
         reported-symbol recall = {:.3}, precision = {:.3} \
         (dynamic study: precision {:.3}, recall {:.3})",
        audit.measurable,
        audit.covered,
        audit.recall(),
        audit.precision(),
        summary.precision(),
        summary.recall()
    );
    assert!(audit.sound(), "every reported blame must be predicted");
}

fn main() {
    let program = mfem_program();
    table2_audit(&program);
    seeding_savings(&program);
    table5_audit();
}
