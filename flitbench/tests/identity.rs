//! The probes must be invisible: every report a traced pass produces is
//! byte-identical to the untraced one, and every workload passes its
//! correctness gate on a seed other than the default.

use std::path::PathBuf;
use std::sync::Arc;

use flit_bisect::journal::{load_journal, JournalWriter};
use flit_bisect::ledger::QueryLedger;
use flit_core::workflow::{render_workflow_report, run_workflow, WorkflowConfig};
use flit_exec::{ExecBackend, ProcessBackend};
use flit_trace::sink::TraceSink;
use flitbench::mfem::{staged_workflow, threads_probe, traced_config};
use flitbench::probe::TimedBackend;
use flitbench::{codebase, run, RunArgs};

fn args(workload: &str, seed: u64, trace: bool) -> RunArgs {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "flitbench-test-{workload}-{seed}-{trace}-{}",
        std::process::id()
    ));
    RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        work_dir,
        worker_exe: PathBuf::from(env!("CARGO_BIN_EXE_flitbench")),
    }
}

fn render(app: &str, report: &flit_core::workflow::WorkflowReport) -> String {
    render_workflow_report(app, "", report)
}

#[test]
fn staged_traced_workflow_renders_like_run_workflow() {
    for (app, k) in [("laghos", 8), ("lulesh", 6), ("mfem", 3)] {
        let cb = codebase(app).unwrap();
        let plain = WorkflowConfig {
            max_bisections: k,
            ..WorkflowConfig::default()
        };
        let expected = run_workflow(&cb.app.program, &cb.app.tests, &cb.comps, &plain).unwrap();
        let trace = TraceSink::enabled();
        let probe = threads_probe();
        let traced = WorkflowConfig {
            max_bisections: k,
            ..traced_config(&trace, &probe)
        };
        let staged = staged_workflow(&cb, &traced, true).unwrap();
        assert_eq!(render(app, &staged.report), render(app, &expected), "{app}");
        assert_eq!(
            format!("{:?}", staged.report.db.rows),
            format!("{:?}", expected.db.rows),
            "{app}"
        );
        assert_eq!(
            staged.report.db.build_stats, expected.db.build_stats,
            "{app}"
        );
        assert_eq!(probe.dispatch.calls(), 0, "threads never dispatch");
        assert!(staged.sweep_engine_s > 0.0 && staged.sweep_engine_s <= staged.sweep_s);
        // Untraced, unwrapped stages: the same report, no engine time.
        let bare = staged_workflow(&cb, &plain, false).unwrap();
        assert_eq!(render(app, &bare.report), render(app, &expected), "{app}");
        assert_eq!(bare.report.db.build_stats, expected.db.build_stats, "{app}");
        assert_eq!(bare.sweep_engine_s, 0.0);
    }
}

#[test]
fn staged_checkpoint_and_resume_render_like_run_workflow() {
    let cb = codebase("laghos").unwrap();
    let fp = cb.app.program.fingerprint();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("flitbench-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let plain = run_workflow(
        &cb.app.program,
        &cb.app.tests,
        &cb.comps,
        &WorkflowConfig::default(),
    )
    .unwrap();

    let trace = TraceSink::enabled();
    let probe = threads_probe();
    let ledger = QueryLedger::new(fp, &trace);
    ledger.attach_journal(JournalWriter::create(&path, fp).unwrap());
    let cfg = WorkflowConfig {
        max_bisections: usize::MAX,
        ledger: Some(ledger.clone()),
        ..traced_config(&trace, &probe)
    };
    let checkpointed = staged_workflow(&cb, &cfg, true).unwrap();
    assert_eq!(
        render("laghos", &checkpointed.report),
        render("laghos", &plain)
    );

    let records = load_journal(&path, fp).unwrap();
    assert_eq!(records.len() as u64, ledger.stats().appended);
    let resumed_ledger = QueryLedger::new(fp, &trace);
    resumed_ledger.preload(&records);
    let cfg = WorkflowConfig {
        max_bisections: usize::MAX,
        ledger: Some(resumed_ledger.clone()),
        ..traced_config(&trace, &probe)
    };
    let resumed = staged_workflow(&cb, &cfg, true).unwrap();
    assert_eq!(render("laghos", &resumed.report), render("laghos", &plain));
    assert_eq!(resumed_ledger.stats().executed, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn timed_process_backend_reports_like_the_threads_plane() {
    let cb = codebase("laghos").unwrap();
    let cmd = vec![
        env!("CARGO_BIN_EXE_flitbench").to_string(),
        "worker".to_string(),
    ];
    let probe = Arc::new(TimedBackend::new(Arc::new(ProcessBackend::new(cmd, 2))));
    let cfg = WorkflowConfig {
        max_bisections: 6,
        bisect: flit_bisect::hierarchy::HierarchicalConfig::all()
            .with_backend(probe.clone() as Arc<dyn ExecBackend>),
        ..WorkflowConfig::default()
    };
    let remote = run_workflow(&cb.app.program, &cb.app.tests, &cb.comps, &cfg).unwrap();
    let local = run_workflow(
        &cb.app.program,
        &cb.app.tests,
        &cb.comps,
        &WorkflowConfig {
            max_bisections: 6,
            ..WorkflowConfig::default()
        },
    )
    .unwrap();
    assert_eq!(render("laghos", &remote), render("laghos", &local));
    assert!(probe.dispatch.calls() > 0, "the process plane dispatches");
    assert_eq!(
        probe.dispatch.samples().len() as u64,
        probe.dispatch.calls()
    );
    probe.drain();
}

/// Run a workload once untraced and once traced on a non-default seed:
/// zero failed operations (which includes every traced report matching
/// its untraced or in-process reference byte for byte).
fn gate(workload: &str, seed: u64) {
    for trace in [false, true] {
        let a = args(workload, seed, trace);
        let outcome = run(&a).unwrap();
        let _ = std::fs::remove_dir_all(&a.work_dir);
        assert!(outcome.tally.attempted > 0, "{workload}: nothing checked");
        assert_eq!(
            outcome.tally.failed, 0,
            "{workload} (trace {trace}): {:?}",
            outcome.tally.failures
        );
    }
}

#[test]
fn mfem_workflow_gate_passes_traced_and_untraced() {
    gate("mfem-workflow", 7);
}

#[test]
fn mfem_journaled_gate_passes_traced_and_untraced() {
    gate("mfem-journaled", 7);
}

#[test]
fn fleet_process_gate_passes_traced_and_untraced() {
    gate("fleet-process", 7);
}

#[test]
fn lulesh_inject_gate_passes_on_a_second_seed() {
    let outcome = run(&args("lulesh-inject", 7, false)).unwrap();
    assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.failures);
    // One pass: 34 function campaigns plus the pass's run_study check.
    assert_eq!(outcome.tally.attempted, 35);
}

#[test]
fn fleet_batch_is_serve_bench_traffic_in_seeded_order() {
    let a = flitbench::fleet::batch(1);
    assert_eq!(a, flitbench::fleet::batch(1));
    let b = flitbench::fleet::batch(2);
    assert_ne!(a, b, "the seed drives the submission order");
    assert_eq!(a.len(), 32);
    let sorted = |batch: &[flitbench::fleet::Request]| {
        let mut v = batch.to_vec();
        v.sort_unstable();
        v
    };
    assert_eq!(
        sorted(&a),
        sorted(&b),
        "every seed submits the same traffic"
    );
    for round in a.chunks(16) {
        // Each round: every tenant submits every app once, cap 2.
        let pairs: std::collections::BTreeSet<(&str, &str)> =
            round.iter().map(|&(t, app, _)| (t, app)).collect();
        assert_eq!(pairs.len(), 16);
        assert!(round.iter().all(|&(_, _, k)| k == 2));
        assert!(round[12..].iter().all(|&(_, app, _)| app == "mfem"));
    }
}
