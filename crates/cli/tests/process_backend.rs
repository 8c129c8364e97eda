//! End-to-end tests of the `process` execution backend.
//!
//! Every test here spawns the real `flit` binary so the coordinator
//! resolves its own executable for `flit worker` subprocesses — the
//! exact production path. The invariant under test is the issue's
//! acceptance bar: the process backend must be a pure execution-plane
//! substitution, producing byte-identical reports to the serial
//! in-process algorithm at any worker count and under any worker-kill
//! schedule, with exactly-once ledger accounting.

use proptest::prelude::*;
use std::process::Command;

fn flit(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_flit"))
        .args(args)
        .output()
        .expect("flit binary runs");
    assert!(
        out.status.success(),
        "flit {args:?} failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const BISECT: &[&str] = &[
    "bisect",
    "mfem",
    "--test",
    "ex13",
    "--compilation",
    "g++ -O3 -mavx2 -mfma",
];

const PERF: &[&str] = &[
    "perf",
    "mfem",
    "--test",
    "ex09",
    "--pair",
    "icpc -O2",
    "icpc -O2 -fimf-precision=high",
];

fn with(base: &[&str], extra: &[&str]) -> Vec<&'static str> {
    // Leak is fine in tests; keeps the call sites readable.
    base.iter()
        .chain(extra.iter())
        .map(|s| -> &'static str { Box::leak(s.to_string().into_boxed_str()) })
        .collect()
}

#[test]
fn process_bisect_is_byte_identical_to_serial() {
    let serial = flit(BISECT);
    let process = flit(&with(BISECT, &["--backend", "process", "--workers", "4"]));
    assert_eq!(
        process.replace(" | process backend (4 workers)", ""),
        serial,
        "the process backend must not change bisect findings"
    );
}

#[test]
fn process_certified_prune_is_byte_identical_to_serial() {
    let certified = with(BISECT, &["--prune", "certified"]);
    let serial = flit(&certified);
    let process = flit(&with(
        &certified,
        &["--backend", "process", "--workers", "4"],
    ));
    assert_eq!(
        process.replace(" | process backend (4 workers)", ""),
        serial,
        "the process backend must not change certified-prune findings"
    );
}

#[test]
fn a_forged_invariant_certificate_fails_the_process() {
    // FLIT_FORGE_INVARIANT is the dishonest-certificate test hook: it
    // stamps an Invariant certificate on a file the search would blame.
    // The residual audit must catch the lie and exit nonzero, on both
    // execution backends.
    for backend in [&[][..], &["--backend", "process", "--workers", "2"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_flit"))
            .args(with(BISECT, &["--prune", "certified"]))
            .args(backend)
            .env("FLIT_FORGE_INVARIANT", "linalg/densemat.cpp")
            .output()
            .expect("flit binary runs");
        assert!(
            !out.status.success(),
            "a dishonest certificate must fail the process ({backend:?})"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("certified-prune audit failed"),
            "the violation must be reported, not silently swallowed: {stderr}"
        );
    }
}

#[test]
fn process_perf_is_byte_identical_to_serial() {
    let serial = flit(PERF);
    let process = flit(&with(PERF, &["--backend", "process", "--workers", "3"]));
    assert_eq!(
        process.replace(" | process backend (3 workers)", ""),
        serial,
        "the process backend must not change perf verdicts"
    );
}

#[test]
fn process_workflow_is_byte_identical_to_serial() {
    let base = ["workflow", "laghos", "--max-bisections", "3"];
    let serial = flit(&base);
    let process = flit(&with(&base, &["--backend", "process", "--workers", "2"]));
    assert_eq!(
        process.replace(" | process backend (2 workers)", ""),
        serial,
        "the process backend must not change workflow results"
    );
}

#[test]
fn a_worker_killed_at_every_query_never_changes_findings() {
    let serial = flit(BISECT);
    // Each worker dies right before its 2nd answer, so every other
    // dispatch is lost and requeued for the full length of the search:
    // every query is exercised against the recovery path.
    let schedule = vec!["1"; 40].join(",");
    let process = flit(&with(
        BISECT,
        &[
            "--backend",
            "process",
            "--workers",
            "2",
            "--kill-workers",
            &schedule,
        ],
    ));
    assert_eq!(
        process.replace(" | process backend (2 workers)", ""),
        serial,
        "crash recovery must be invisible in the report"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized kill schedules: whatever subset of workers dies, and
    /// whenever they die, the report stays byte-identical to serial.
    #[test]
    fn random_kill_schedules_never_change_findings(
        schedule in proptest::collection::vec(0u64..3, 1..10),
        workers in 1usize..4,
    ) {
        let serial = flit(BISECT);
        let csv = schedule
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let w = workers.to_string();
        let process = flit(&with(
            BISECT,
            &["--backend", "process", "--workers", &w, "--kill-workers", &csv],
        ));
        prop_assert_eq!(
            process.replace(&format!(" | process backend ({workers} workers)"), ""),
            serial
        );
    }
}

#[test]
fn process_checkpoint_accounts_exactly_once_and_resumes_dead() {
    let path = std::env::temp_dir().join("flit-process-backend-journal.jsonl");
    std::fs::remove_file(&path).ok();
    let path_s = path.to_string_lossy().to_string();

    let plain = flit(BISECT);
    // Checkpoint through the process backend, with workers dying
    // mid-search: the journal must still record each query exactly once.
    let first = flit(&with(
        BISECT,
        &[
            "--backend",
            "process",
            "--workers",
            "2",
            "--kill-workers",
            "1,0,2",
            "--checkpoint",
            &path_s,
        ],
    ));
    // The binary prints the report with a trailing newline; the journal
    // footer lands before it, so prefix-match against the trimmed body.
    let stripped = first.replace(" | process backend (2 workers)", "");
    assert!(
        stripped.starts_with(plain.trim_end()),
        "plain:\n{plain}\nstripped:\n{stripped}"
    );
    assert!(first.contains("journal:"), "{first}");

    // Journal records carry the execution-plane provenance, and the
    // crash-recovery requeue path never double-appends a query: every
    // ledger key appears exactly once.
    let text = std::fs::read_to_string(&path).expect("journal written");
    assert!(
        text.contains("\"backend\":\"process\""),
        "journal must label process-backend answers: {text}"
    );
    let keys: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split("\"key\":\"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let unique: std::collections::BTreeSet<&str> = keys.iter().copied().collect();
    assert_eq!(
        keys.len(),
        unique.len(),
        "requeued queries must not duplicate ledger entries"
    );

    // Resume serially: every answer replays; nothing runs live, and no
    // entry was lost or duplicated by the crash-recovery path.
    let resumed = flit(&with(BISECT, &["--resume", &path_s]));
    assert!(resumed.starts_with(plain.trim_end()), "{resumed}");
    assert!(resumed.contains("journal: 0 executed"), "{resumed}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_poisoned_pool_lock_mid_search_never_aborts_and_accounts_exactly_once() {
    use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig};
    use flit_bisect::ledger::{LedgerHandle, QueryLedger};
    use flit_core::test::FlitTest;
    use flit_exec::{ExecBackend, ProcessBackend};
    use flit_program::build::Build;
    use flit_toolchain::cache::BuildCtx;
    use flit_toolchain::compilation::Compilation;
    use flit_toolchain::compiler::CompilerKind;
    use flit_trace::sink::TraceSink;
    use std::sync::Arc;

    let app = flit_cli::resolve_app("mfem").expect("mfem is bundled");
    let test = app
        .tests
        .iter()
        .find(|t| t.name() == "ex13")
        .expect("ex13 exists");
    let comp = flit_cli::args::parse_compilation("g++ -O3 -mavx2 -mfma").unwrap();
    let baseline = Build::new(&app.program, Compilation::baseline());
    let variable = Build::tagged(&app.program, comp.clone(), 1);
    let input = test.default_input();
    let input = &input[..test.inputs_per_run().min(input.len())];

    let worker = vec![env!("CARGO_BIN_EXE_flit").to_string(), "worker".to_string()];
    let run = |poison: bool| {
        let backend = Arc::new(ProcessBackend::new(worker.clone(), 2));
        if poison {
            // A panic while holding the pool lock used to abort every
            // subsequent dispatch via `.expect("pool lock")`; now the
            // poisoned lock is recovered and the search proceeds.
            backend.poison_pool_for_tests();
        }
        let ledger = QueryLedger::new(app.program.fingerprint(), &TraceSink::disabled());
        let cfg = HierarchicalConfig {
            link_driver: CompilerKind::Gcc,
            k: None,
            ctx: BuildCtx::cached(),
            trace: TraceSink::disabled(),
            prescreen: None,
            ledger: Some(LedgerHandle::new(
                ledger.clone(),
                1,
                format!("{}/{}", test.name(), comp.label()),
            )),
            backend: None,
        }
        .with_backend(backend.clone() as Arc<dyn ExecBackend>);
        let result = bisect_hierarchical(
            &baseline,
            &variable,
            test.driver(),
            input,
            &flit_core::metrics::l2_compare,
            &cfg,
            &*backend,
        );
        (result, ledger.stats())
    };

    let (clean, clean_stats) = run(false);
    let (poisoned, poisoned_stats) = run(true);
    assert_eq!(
        poisoned, clean,
        "recovering a poisoned pool lock must not change findings"
    );
    // Exactly-once completion: the recovery path must not lose or
    // double-count a single physical query.
    assert_eq!(poisoned_stats, clean_stats);
    assert!(clean_stats.executed > 0);
}

#[test]
fn process_trace_renders_the_distributed_execution_table() {
    let path = std::env::temp_dir().join("flit-process-backend-trace.jsonl");
    std::fs::remove_file(&path).ok();
    let path_s = path.to_string_lossy().to_string();
    flit(&with(
        PERF,
        &["--backend", "process", "--workers", "2", "--trace", &path_s],
    ));
    let rendered = flit(&["trace", &path_s]);
    assert!(rendered.contains("Distributed execution"), "{rendered}");
    assert!(rendered.contains("queries dispatched"), "{rendered}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn fuzz_corpus_seeds_cross_check_the_process_backend() {
    // Corpus seeds always run the resume layer, which under
    // `--backend process` also re-runs each search through worker
    // subprocesses and requires a bit-identical result.
    // `flit fuzz` exits nonzero on any divergence, so `flit()`
    // succeeding already certifies a clean campaign.
    let out = flit(&[
        "fuzz",
        "--seeds",
        "0..4",
        "--jobs",
        "2",
        "--backend",
        "process",
    ]);
    assert!(!out.contains("DIVERGENCE"), "{out}");
    let checks: u64 = out
        .lines()
        .find(|l| l.trim_start().starts_with("process checks"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|n| n.parse().ok())
        .expect("summary reports process checks");
    assert!(checks > 0, "at least one seed must cross-check: {out}");
}

#[test]
fn a_deeply_nested_frame_is_a_bad_message_not_an_abort() {
    use std::io::Write;
    use std::process::Stdio;
    let depth = 200_000;
    let payload = "[".repeat(depth) + &"]".repeat(depth);
    let crc = flit_persist::crc32(payload.as_bytes());
    let line = format!("{{\"crc\":\"{crc:08x}\",\"rec\":{payload}}}\n");
    let mut worker = Command::new(env!("CARGO_BIN_EXE_flit"))
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("worker spawns");
    // The worker may exit before reading everything; a broken pipe
    // here is fine.
    let _ = worker.stdin.take().unwrap().write_all(line.as_bytes());
    let out = worker.wait_with_output().expect("worker exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{:?}\n{stderr}", out.status);
    assert!(
        stderr.contains("bad message: recursion limit exceeded"),
        "{stderr}"
    );
}
