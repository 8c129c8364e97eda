//! Audit the abstract interpreter (`flit-absint`) against dynamic
//! ground truth, in three regimes:
//!
//! 1. **Table 2 soundness + tightness** — certify every variable
//!    (test, compilation) MFEM pair, bisect it dynamically, and check
//!    that no dynamically-blamed item was certified `Invariant` and
//!    that every file-level singleton Test value sits inside its
//!    certified bound. Tightness is reported as the bound/observed
//!    ratio (1.0 = exact; large = sound but loose).
//! 2. **Prune savings** — rerun every ex13 variable pair at 8 jobs
//!    unseeded, certificate-seeded, and certified-pruned, totalling
//!    executed Test queries. Every arm must land on the unseeded
//!    findings; seeding must execute strictly fewer queries than no
//!    seeding, and the prune no more than seeding.
//! 3. **Table 5 coverage** — the LULESH injection study: certify every
//!    measurable `(clean, injected)` pair and check that no symbol the
//!    dynamic search reported is certified `Invariant`, reporting the
//!    precision of the non-`Invariant` set.

use flit_absint::{certify_pair, Certificate};
use flit_bench::mfem_study::{default_threads, mfem_sweep};
use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig, SearchOutcome};
use flit_bisect::{prescreen_for, LintMode};
use flit_core::metrics::l2_compare;
use flit_exec::{run_on, ThreadsBackend};
use flit_inject::sites::apply_injection;
use flit_inject::study::{run_study, Classification, StudyConfig};
use flit_lulesh::{lulesh_driver, lulesh_program};
use flit_mfem::examples::example_driver;
use flit_mfem::mfem_program;
use flit_program::build::Build;
use flit_program::engine::Engine;
use flit_program::model::SimProgram;
use flit_program::sites::Injection;
use flit_report::table::{Align, Table};
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::CompilerKind;
use flit_trace::names::counter;
use flit_trace::sink::TraceSink;

const INPUT: [f64; 2] = [0.35, 0.62];

/// Per-pair audit result.
struct PairAudit {
    inv: u64,
    bnd: u64,
    unk: u64,
    /// Dynamically blamed items certified Invariant (unsound).
    unsound: usize,
    /// File findings whose observed value exceeds the certified bound.
    violated: usize,
    /// bound/observed ratios for file findings with a positive observed
    /// value and a Bounded certificate.
    file_ratios: Vec<f64>,
    /// bound/observed ratio for the whole pair, when measurable.
    whole_ratio: Option<f64>,
    crashed: bool,
}

fn audit_pair(program: &SimProgram, test: &str, comp: &Compilation, ctx: &BuildCtx) -> PairAudit {
    let ex: usize = test[2..].parse().expect("test names are exNN");
    let driver = example_driver(ex, 1);
    let base = Build::new(program, Compilation::baseline());
    let var = Build::tagged(program, comp.clone(), 1);
    let certs = certify_pair(
        program,
        program,
        &driver,
        &Compilation::baseline(),
        comp,
        CompilerKind::Gcc,
    );
    let (inv, bnd, unk) = certs.counts();
    let res = bisect_hierarchical(
        &base,
        &var,
        &driver,
        &INPUT,
        &l2_compare,
        &HierarchicalConfig::all().with_ctx(ctx.clone()),
        &ThreadsBackend::new(1),
    );
    let crashed = matches!(res.outcome, SearchOutcome::Crashed(_));

    let mut unsound = 0;
    let mut violated = 0;
    let mut file_ratios = Vec::new();
    for f in &res.files {
        match certs.file(f.file_id) {
            Certificate::Invariant => unsound += 1,
            cert @ Certificate::Bounded(e) => {
                if cert.contradicted_by(f.value) {
                    violated += 1;
                } else if f.value > 0.0 {
                    file_ratios.push(e / f.value);
                }
            }
            Certificate::Unknown => {}
        }
    }
    for s in &res.symbols {
        if certs.symbol(&s.symbol) == Certificate::Invariant {
            unsound += 1;
        }
    }

    // Whole-pair tightness: each pure binary linked by its own
    // compiler, the certifier's whole-pair model.
    let whole_ratio = match certs.whole {
        Certificate::Bounded(e) if !crashed => {
            let run = |b: &Build| -> Option<Vec<f64>> {
                let exe = b.executable().ok()?;
                Engine::new(program, &exe)
                    .run(&driver, &INPUT)
                    .ok()
                    .map(|o| o.output)
            };
            match (run(&base), run(&Build::new(program, comp.clone()))) {
                (Some(a), Some(b)) => {
                    let observed = l2_compare(&a, &b);
                    if certs.whole.contradicted_by(observed) {
                        violated += 1;
                        None
                    } else if observed > 0.0 {
                        Some(e / observed)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    };

    PairAudit {
        inv,
        bnd,
        unk,
        unsound,
        violated,
        file_ratios,
        whole_ratio,
        crashed,
    }
}

fn ratio_stats(ratios: &mut [f64]) -> (f64, f64, f64) {
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = *ratios.first().unwrap_or(&f64::NAN);
    let med = ratios.get(ratios.len() / 2).copied().unwrap_or(f64::NAN);
    let max = *ratios.last().unwrap_or(&f64::NAN);
    (min, med, max)
}

fn table2_bounds(program: &SimProgram) {
    let db = mfem_sweep(program);
    let jobs: Vec<(String, Compilation)> = db
        .rows
        .iter()
        .filter(|r| r.is_variable())
        .map(|r| (r.test.clone(), r.compilation.clone()))
        .collect();
    let ctx = BuildCtx::cached();

    let results = run_on(&ThreadsBackend::new(default_threads()), jobs.len(), |i| {
        let (t, c) = &jobs[i];
        audit_pair(program, t, c, &ctx)
    })
    .unwrap_or_else(|e| panic!("audit workers must not panic: {e}"));

    let (mut inv, mut bnd, mut unk) = (0u64, 0u64, 0u64);
    let mut unsound = 0usize;
    let mut violated = 0usize;
    let mut crashes = 0usize;
    let mut file_ratios = Vec::new();
    let mut whole_ratios = Vec::new();
    for a in &results {
        inv += a.inv;
        bnd += a.bnd;
        unk += a.unk;
        unsound += a.unsound;
        violated += a.violated;
        crashes += a.crashed as usize;
        file_ratios.extend_from_slice(&a.file_ratios);
        whole_ratios.extend(a.whole_ratio);
    }

    let total = inv + bnd + unk;
    let mut table = Table::new(&["Certificate", "Items", "Share"])
        .with_title(format!(
            "Certificates across Table 2 ({} variable pairs)",
            results.len()
        ))
        .with_aligns(&[Align::Left, Align::Right, Align::Right]);
    for (name, n) in [("invariant", inv), ("bounded", bnd), ("unknown", unk)] {
        table.row(&[
            name.into(),
            n.to_string(),
            format!("{:.1}%", 100.0 * n as f64 / total.max(1) as f64),
        ]);
    }
    println!("{}", table.render());

    let mut tight = Table::new(&["Level", "Samples", "Min", "Median", "Max"])
        .with_title("Bound tightness (certified bound / observed divergence)")
        .with_aligns(&[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    for (name, ratios) in [
        ("file singleton", &mut file_ratios),
        ("whole pair", &mut whole_ratios),
    ] {
        let n = ratios.len();
        let (min, med, max) = ratio_stats(ratios);
        tight.row(&[
            name.into(),
            n.to_string(),
            format!("{min:.2e}"),
            format!("{med:.2e}"),
            format!("{max:.2e}"),
        ]);
    }
    println!("{}", tight.render());
    println!(
        "soundness: {unsound} blamed items certified Invariant, \
         {violated} observed values above their bound \
         ({crashes} ABI-crashed pairs certify Unknown and are exempt)"
    );
    assert_eq!(unsound, 0, "no blamed item may be certified Invariant");
    assert_eq!(violated, 0, "no observed divergence may exceed its bound");
}

fn prune_savings(program: &SimProgram) {
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

    let mut totals = [0u64; 3]; // unseeded, seeded, certified-pruned
    for comp in &pairs {
        let var = Build::tagged(program, comp.clone(), 1);
        let gold = bisect_hierarchical(
            &base,
            &var,
            &driver,
            &INPUT,
            &l2_compare,
            &HierarchicalConfig::all().with_ctx(ctx.clone()),
            &ThreadsBackend::new(1),
        );
        let modes = [LintMode::Off, LintMode::Seed, LintMode::Prune];
        for (mode, total) in modes.into_iter().zip(totals.iter_mut()) {
            let trace = TraceSink::enabled();
            let mut cfg = HierarchicalConfig::all()
                .with_ctx(ctx.clone())
                .with_trace(trace.clone());
            cfg.prescreen = prescreen_for(mode, &base, &var, &driver, &cfg);
            let res = bisect_hierarchical(&base, &var, &driver, &INPUT, &l2_compare, &cfg, &exec);
            assert_eq!(res.files, gold.files, "prune must not change file blame");
            assert_eq!(
                res.symbols, gold.symbols,
                "prune must not change symbol blame"
            );
            assert_eq!(res.file_level_only, gold.file_level_only);
            assert!(res.violations.is_empty(), "{:?}", res.violations);
            *total += trace.snapshot().counter(counter::EXEC_QUERIES_EXECUTED);
        }
    }
    let [unseeded, seeded, certified] = totals;
    println!(
        "Prune savings (ex13, {} variable pairs, 8 jobs): \
         {unseeded} executed queries unseeded, {seeded} seeded, \
         {certified} certified-pruned ({:.1}% below seeded)",
        pairs.len(),
        100.0 * (seeded.saturating_sub(certified)) as f64 / seeded.max(1) as f64
    );
    assert!(
        seeded < unseeded,
        "seeding must reduce executed queries: {seeded} vs unseeded {unseeded}"
    );
    assert!(
        certified <= seeded,
        "the certified prune may not execute more than seeding: \
         {certified} vs seeded {seeded}"
    );
}

fn table5_coverage() {
    let program = lulesh_program();
    let cfg = StudyConfig {
        compilation: Compilation::perf_reference(),
        driver: lulesh_driver(),
        input: vec![0.53, 0.31],
        seed: 42,
        threads: default_threads(),
    };
    let (records, summary) = run_study(&program, &cfg);
    let measurable: Vec<_> = records
        .iter()
        .filter(|r| r.classification != Classification::NotMeasurable)
        .collect();
    // Per record: (every reported symbol non-Invariant, reported hits,
    // reported total, non-Invariant symbols).
    let audits = run_on(
        &ThreadsBackend::new(default_threads()),
        measurable.len(),
        |i| {
            let r = measurable[i];
            let injection = Injection {
                site: r.site.site,
                op: r.op,
                eps: r.eps,
            };
            let injected = apply_injection(&program, &r.site, injection);
            let certs = certify_pair(
                &program,
                &injected,
                &cfg.driver,
                &cfg.compilation,
                &cfg.compilation,
                cfg.compilation.compiler,
            );
            let hits = r
                .reported
                .iter()
                .filter(|s| !certs.symbol(s).prunable())
                .count();
            let moving = certs.symbols.values().filter(|c| !c.prunable()).count();
            (hits == r.reported.len(), hits, r.reported.len(), moving)
        },
    )
    .unwrap_or_else(|e| panic!("audit workers must not panic: {e}"));
    let covered = audits.iter().filter(|a| a.0).count();
    let hits: usize = audits.iter().map(|a| a.1).sum();
    let reported: usize = audits.iter().map(|a| a.2).sum();
    let moving: usize = audits.iter().map(|a| a.3).sum();
    println!(
        "Certificate coverage vs Table 5: {} measurable injections, {covered} fully covered; \
         {hits}/{reported} reported symbols not Invariant, precision = {:.3} \
         ({moving} non-Invariant symbols; dynamic study: precision {:.3}, recall {:.3})",
        measurable.len(),
        hits as f64 / moving.max(1) as f64,
        summary.precision(),
        summary.recall()
    );
    assert_eq!(
        covered,
        measurable.len(),
        "no reported blame may be certified Invariant"
    );
}

fn main() {
    let program = mfem_program();
    table2_bounds(&program);
    prune_savings(&program);
    table5_coverage();
}
