//! The matrix runner: every test under every compilation, compared to
//! the trusted baseline.
//!
//! Compilations are independent, so the sweep fans out on the shared
//! [`flit_exec::ThreadsBackend`]: workers pull compilation indices from an
//! atomic work queue and deposit records into that compilation's
//! pre-allocated slot, so the database contents are bit-identical
//! regardless of thread count or schedule — there is no static
//! chunking, and a slow compilation never leaves a whole chunk's worth
//! of work stranded on one thread. A panicking test surfaces as
//! [`RunnerError::WorkerPanicked`] rather than aborting the sweep.

use std::fmt;

use flit_exec::{run_on, ExecError, ThreadsBackend};
use flit_program::model::SimProgram;
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::linker::LinkError;
use flit_toolchain::perf::jitter;
use flit_trace::names::{counter as counter_names, phase};
use flit_trace::sink::TraceSink;

use crate::db::{ResultsDb, RunRecord};
use crate::test::{split_input, FlitTest, RunContext, TestResult};

/// Why a matrix sweep could not produce a database: the trusted
/// baseline itself failed, or a worker died. (Non-baseline compilations
/// that fail to link or crash are *data* — they become crashed records
/// — but without a baseline there is nothing to compare against.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerError {
    /// The baseline compilation failed to link.
    BaselineLink(LinkError),
    /// The baseline run of a test crashed.
    BaselineRun {
        /// The test whose baseline run failed.
        test: String,
        /// The underlying error.
        error: String,
    },
    /// A worker thread panicked while running a compilation. The sweep
    /// reports the panic instead of aborting the process; when several
    /// jobs panic, the lowest compilation index is reported so the
    /// error is schedule-independent.
    WorkerPanicked {
        /// Label of the compilation whose job panicked.
        compilation: String,
        /// The rendered panic payload.
        message: String,
    },
    /// The execution backend failed structurally (e.g. a remote
    /// coordinator exhausted its retry budget).
    Backend {
        /// The backend's structured error message.
        message: String,
    },
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::BaselineLink(e) => {
                write!(f, "the baseline compilation failed to link: {e}")
            }
            RunnerError::BaselineRun { test, error } => {
                write!(f, "the baseline run of test `{test}` failed: {error}")
            }
            RunnerError::WorkerPanicked {
                compilation,
                message,
            } => {
                write!(f, "a runner worker panicked on `{compilation}`: {message}")
            }
            RunnerError::Backend { message } => {
                write!(f, "the runner's execution backend failed: {message}")
            }
        }
    }
}

impl std::error::Error for RunnerError {}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// The trusted baseline compilation (defaults to `g++ -O0`, the
    /// MFEM study's baseline).
    pub baseline: Compilation,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Share compiled objects and memoized links across compilations
    /// (default `true`). Row contents are bit-identical either way;
    /// with the cache off the sweep still counts its build work so the
    /// two arms can be compared.
    pub cache: bool,
    /// Trace sink for per-compilation spans and queue counters
    /// (disabled by default — the sweep records nothing).
    pub trace: TraceSink,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            baseline: Compilation::baseline(),
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cache: true,
            trace: TraceSink::disabled(),
        }
    }
}

/// Results of the baseline pass: per (test, chunk) reference results.
struct BaselineRun {
    /// Per test: per-chunk results.
    results: Vec<Vec<TestResult>>,
    norms: Vec<f64>,
}

fn run_one_compilation(
    program: &SimProgram,
    tests: &[&dyn FlitTest],
    comp: &Compilation,
    baseline: &BaselineRun,
    ctx: &BuildCtx,
    sink: &TraceSink,
) -> Vec<RunRecord> {
    let records = compile_and_run(program, tests, comp, baseline, ctx);
    // One span per compilation: logical cost is the records produced,
    // duration the compilation's total simulated runtime.
    sink.span(
        phase::SWEEP,
        comp.label(),
        records.len() as u64,
        records.iter().filter_map(|r| r.seconds).sum(),
    );
    records
}

fn compile_and_run(
    program: &SimProgram,
    tests: &[&dyn FlitTest],
    comp: &Compilation,
    baseline: &BaselineRun,
    ctx: &BuildCtx,
) -> Vec<RunRecord> {
    let build = flit_program::build::Build::new(program, comp.clone());
    let Ok(exe) = build.executable_in(ctx) else {
        // A compilation that fails to link yields crashed records.
        return tests
            .iter()
            .map(|t| RunRecord {
                test: t.name().to_string(),
                compilation: comp.clone(),
                label: comp.label(),
                seconds: None,
                comparison: f64::INFINITY,
                bitwise_equal: false,
                baseline_norm: 0.0,
                crashed: true,
            })
            .collect();
    };
    let ctx = RunContext { program, exe: &exe };
    tests
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            let chunks = split_input(&t.default_input(), t.inputs_per_run());
            let mut seconds = 0.0f64;
            let mut comparison = 0.0f64;
            let mut bitwise = true;
            let mut crashed = false;
            for (ci, chunk) in chunks.iter().enumerate() {
                match t.run_impl(chunk, &ctx) {
                    Ok((result, secs)) => {
                        let base = &baseline.results[ti][ci];
                        comparison += t.compare(base, &result);
                        bitwise &= result.bitwise_eq(base);
                        seconds += secs;
                    }
                    Err(_) => {
                        crashed = true;
                        bitwise = false;
                        comparison = f64::INFINITY;
                        break;
                    }
                }
            }
            // Crashed rows report no runtime, consistent with the
            // failed-link branch above: a partial `seconds` sum up to
            // the crashing chunk is not a measurement.
            let seconds = if crashed {
                None
            } else {
                Some(seconds * jitter(t.name(), comp))
            };
            RunRecord {
                test: t.name().to_string(),
                compilation: comp.clone(),
                label: comp.label(),
                seconds,
                comparison,
                bitwise_equal: bitwise && !crashed,
                baseline_norm: baseline.norms[ti],
                crashed,
            }
        })
        .collect()
}

/// Run the full matrix: every test under every compilation.
///
/// The baseline compilation is always evaluated (even if absent from
/// `compilations`) to establish the reference results. A failing
/// baseline is a structured [`RunnerError`], not a panic — callers
/// (e.g. the CLI) turn it into a clean nonzero exit.
pub fn run_matrix(
    program: &SimProgram,
    tests: &[&dyn FlitTest],
    compilations: &[Compilation],
    cfg: &RunnerConfig,
) -> Result<ResultsDb, RunnerError> {
    run_matrix_in(program, tests, compilations, cfg, &build_ctx_for(cfg))
}

/// The build context a sweep under `cfg` runs in: caching per
/// `cfg.cache`, and, when a trace sink is attached, with the cache's
/// work counters in the sink's registry so one snapshot covers both.
pub(crate) fn build_ctx_for(cfg: &RunnerConfig) -> BuildCtx {
    match cfg.trace.registry() {
        Some(reg) if cfg.cache => BuildCtx::cached_in(&reg),
        Some(reg) => BuildCtx::counting_in(&reg),
        None if cfg.cache => BuildCtx::cached(),
        None => BuildCtx::counting(),
    }
}

/// [`run_matrix`] through an explicit build context, so a caller (the
/// workflow, the bench harness) can share one artifact cache across the
/// sweep and the bisections that follow it. `cfg.cache` is ignored —
/// the context decides.
pub fn run_matrix_in(
    program: &SimProgram,
    tests: &[&dyn FlitTest],
    compilations: &[Compilation],
    cfg: &RunnerConfig,
    ctx: &BuildCtx,
) -> Result<ResultsDb, RunnerError> {
    // Baseline pass (sequential; it is one compilation).
    let base_build = flit_program::build::Build::new(program, cfg.baseline.clone());
    let base_exe = base_build
        .executable_in(ctx)
        .map_err(RunnerError::BaselineLink)?;
    let base_ctx = RunContext {
        program,
        exe: &base_exe,
    };
    let mut baseline = BaselineRun {
        results: Vec::with_capacity(tests.len()),
        norms: Vec::with_capacity(tests.len()),
    };
    let mut base_seconds = 0.0f64;
    for t in tests {
        let chunks = split_input(&t.default_input(), t.inputs_per_run());
        let mut per_chunk = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let (r, secs) = t
                .run_impl(chunk, &base_ctx)
                .map_err(|e| RunnerError::BaselineRun {
                    test: t.name().to_string(),
                    error: e.to_string(),
                })?;
            base_seconds += secs;
            per_chunk.push(r);
        }
        baseline
            .norms
            .push(per_chunk.iter().map(TestResult::norm).sum::<f64>());
        baseline.results.push(per_chunk);
    }
    cfg.trace.span(
        phase::SWEEP,
        format!("baseline {}", cfg.baseline.label()),
        tests.len() as u64,
        base_seconds,
    );

    // Fan out over compilations on the threads backend: workers pull
    // the next unclaimed index and deposit records into that
    // compilation's slot, so collection order (and therefore the
    // database) is schedule-independent. A panic in any job is captured
    // by the backend and reported as a structured error.
    let nthreads = cfg.threads.max(1).min(compilations.len().max(1));
    let claimed = cfg.trace.counter(counter_names::RUNNER_QUEUE_CLAIMED);
    let drained = cfg.trace.counter(counter_names::RUNNER_QUEUE_DRAINED);
    let mut db = ResultsDb::new(&program.name);
    let backend = ThreadsBackend::with_trace(nthreads, cfg.trace.clone());
    let results = run_on(&backend, compilations.len(), |i| {
        claimed.incr(1);
        run_one_compilation(program, tests, &compilations[i], &baseline, ctx, &cfg.trace)
    })
    .map_err(|e| match e {
        ExecError::WorkerPanicked { job, message } => RunnerError::WorkerPanicked {
            compilation: compilations[job].label(),
            message,
        },
        ExecError::Backend { message } => RunnerError::Backend { message },
    })?;
    // One terminal empty pull per worker, as with the hand-rolled queue.
    drained.incr(nthreads as u64);
    for records in results {
        db.rows.extend(records);
    }
    db.build_stats = ctx.stats();
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::DriverTest;
    use flit_program::kernel::Kernel;
    use flit_program::model::{Driver, Function, SourceFile};
    use flit_toolchain::compilation::compilation_matrix;
    use flit_toolchain::compiler::{CompilerKind, OptLevel};
    use flit_toolchain::flags::Switch;

    fn program() -> SimProgram {
        SimProgram::new(
            "runner-test",
            vec![
                SourceFile::new(
                    "a.cpp",
                    vec![
                        Function::exported("dot", Kernel::DotMix { stride: 3 }),
                        Function::exported("copy", Kernel::Benign { flavor: 5 }),
                    ],
                ),
                SourceFile::new(
                    "b.cpp",
                    vec![Function::exported("trans", Kernel::TranscMap { freq: 2.7 })],
                ),
            ],
        )
    }

    fn tests_for(program_name: &str) -> Vec<DriverTest> {
        let _ = program_name;
        vec![
            DriverTest::new(
                Driver::new("ex1", vec!["dot".into(), "copy".into()], 2, 48),
                2,
                vec![0.3, 0.7],
            ),
            DriverTest::new(
                Driver::new("ex2", vec!["trans".into()], 1, 32),
                1,
                vec![0.4, 0.9], // two chunks → data-driven, runs twice
            ),
        ]
    }

    fn as_dyn(tests: &[DriverTest]) -> Vec<&dyn FlitTest> {
        tests.iter().map(|t| t as &dyn FlitTest).collect()
    }

    #[test]
    fn sweep_identifies_variable_compilations() {
        let p = program();
        let tests = tests_for("x");
        let comps = vec![
            Compilation::baseline(),
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![]),
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]),
            Compilation::new(CompilerKind::Icpc, OptLevel::O0, vec![]),
        ];
        let db = run_matrix(&p, &as_dyn(&tests), &comps, &RunnerConfig::default()).unwrap();
        assert_eq!(db.rows.len(), 8);

        let get = |test: &str, label: &str| {
            db.rows
                .iter()
                .find(|r| r.test == test && r.label == label)
                .unwrap()
                .clone()
        };
        // Baseline row is trivially bitwise-equal to itself.
        assert!(get("ex1", "g++ -O0").bitwise_equal);
        // Plain -O3 is value-safe.
        assert!(get("ex1", "g++ -O3").bitwise_equal);
        assert!(get("ex2", "g++ -O3").bitwise_equal);
        // Unsafe math varies the dot test but not the transcendental one
        // (TranscMap is mathlib-only).
        assert!(!get("ex1", "g++ -O3 -mavx2 -mfma -funsafe-math-optimizations").bitwise_equal);
        assert!(get("ex2", "g++ -O3 -mavx2 -mfma -funsafe-math-optimizations").bitwise_equal);
        // icpc at -O0: link-step vendor math varies the transcendental
        // test only.
        assert!(get("ex1", "icpc -O0").bitwise_equal);
        assert!(!get("ex2", "icpc -O0").bitwise_equal);
        // Performance: O3 beats O0 on the dot test.
        assert!(get("ex1", "g++ -O3").seconds.unwrap() < get("ex1", "g++ -O0").seconds.unwrap());
    }

    #[test]
    fn parallel_and_sequential_agree_bitwise() {
        let p = program();
        let tests = tests_for("x");
        let comps = compilation_matrix(CompilerKind::Gcc);
        let seq = run_matrix(
            &p,
            &as_dyn(&tests),
            &comps,
            &RunnerConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let par = run_matrix(
            &p,
            &as_dyn(&tests),
            &comps,
            &RunnerConfig {
                threads: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.rows.len(), par.rows.len());
        for (a, b) in seq.rows.iter().zip(&par.rows) {
            assert_eq!(a.test, b.test);
            assert_eq!(a.label, b.label);
            assert_eq!(a.comparison.to_bits(), b.comparison.to_bits());
            assert_eq!(a.seconds.map(f64::to_bits), b.seconds.map(f64::to_bits));
            assert_eq!(a.bitwise_equal, b.bitwise_equal);
        }
    }

    #[test]
    fn worker_panic_is_a_structured_error_not_an_abort() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Succeeds during the (sequential) baseline pass, then panics on
        // every fan-out call, so the panic is guaranteed to happen on a
        // worker thread of the executor.
        struct Grenade {
            inner: DriverTest,
            calls: AtomicUsize,
        }
        impl FlitTest for Grenade {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn inputs_per_run(&self) -> usize {
                self.inner.inputs_per_run()
            }
            fn default_input(&self) -> Vec<f64> {
                self.inner.default_input()
            }
            fn run_impl(
                &self,
                input: &[f64],
                ctx: &crate::test::RunContext,
            ) -> Result<(crate::test::TestResult, f64), flit_program::engine::RunError>
            {
                if self.calls.fetch_add(1, Ordering::SeqCst) >= 1 {
                    panic!("simulated harness bug");
                }
                self.inner.run_impl(input, ctx)
            }
        }

        let p = program();
        let grenade = Grenade {
            inner: DriverTest::new(Driver::new("ex1", vec!["dot".into()], 1, 32), 1, vec![0.3]),
            calls: AtomicUsize::new(0),
        };
        let comps = vec![
            Compilation::baseline(),
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![]),
        ];
        for threads in [1, 4] {
            grenade.calls.store(0, Ordering::SeqCst);
            let err = run_matrix(
                &p,
                &[&grenade as &dyn FlitTest],
                &comps,
                &RunnerConfig {
                    threads,
                    ..Default::default()
                },
            )
            .expect_err("the panic must surface as an error");
            // Every fan-out job panics; the lowest compilation index is
            // reported, so the error is the same at any thread count.
            assert_eq!(
                err,
                RunnerError::WorkerPanicked {
                    compilation: "g++ -O0".into(),
                    message: "simulated harness bug".into(),
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cache_on_and_off_agree_bitwise_and_both_count_work() {
        let p = program();
        let tests = tests_for("x");
        let comps = compilation_matrix(CompilerKind::Gcc);
        let on = run_matrix(
            &p,
            &as_dyn(&tests),
            &comps,
            &RunnerConfig {
                cache: true,
                ..Default::default()
            },
        )
        .unwrap();
        let off = run_matrix(
            &p,
            &as_dyn(&tests),
            &comps,
            &RunnerConfig {
                cache: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(on.rows.len(), off.rows.len());
        for (a, b) in on.rows.iter().zip(&off.rows) {
            assert_eq!(a.test, b.test);
            assert_eq!(a.label, b.label);
            assert_eq!(a.comparison.to_bits(), b.comparison.to_bits());
            assert_eq!(a.seconds.map(f64::to_bits), b.seconds.map(f64::to_bits));
            assert_eq!(a.bitwise_equal, b.bitwise_equal);
            assert_eq!(a.crashed, b.crashed);
        }
        // Every executable in the sweep is distinct, so compile counts
        // match; the counting arm just never reuses between requests.
        assert!(on.build_stats.objects_compiled > 0);
        assert!(off.build_stats.objects_compiled >= on.build_stats.objects_compiled);
        assert_eq!(off.build_stats.object_cache_hits, 0);
        assert_eq!(off.build_stats.link_memo_hits, 0);
    }

    #[test]
    fn more_threads_than_compilations_is_fine() {
        let p = program();
        let tests = tests_for("x");
        let comps = vec![Compilation::baseline()];
        let db = run_matrix(
            &p,
            &as_dyn(&tests),
            &comps,
            &RunnerConfig {
                threads: 64,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(db.rows.len(), 2);
    }

    #[test]
    fn baseline_link_failure_is_a_structured_error() {
        // An empty program cannot link (no objects).
        let p = SimProgram::new("empty", vec![]);
        let tests = tests_for("x");
        let err = run_matrix(
            &p,
            &as_dyn(&tests)[..0],
            &[Compilation::baseline()],
            &RunnerConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunnerError::BaselineLink(_)), "{err}");
        assert!(err.to_string().contains("baseline compilation"));
    }

    #[test]
    fn baseline_run_failure_is_a_structured_error() {
        // A driver entry that resolves to no symbol crashes the
        // baseline run itself.
        let p = program();
        let tests = vec![DriverTest::new(
            Driver::new("broken", vec!["missing_symbol".into()], 1, 16),
            1,
            vec![0.5],
        )];
        let err = run_matrix(
            &p,
            &as_dyn(&tests),
            &[Compilation::baseline()],
            &RunnerConfig::default(),
        )
        .unwrap_err();
        match &err {
            RunnerError::BaselineRun { test, .. } => assert_eq!(test, "broken"),
            other => panic!("expected BaselineRun, got {other:?}"),
        }
    }

    #[test]
    fn data_driven_tests_run_per_chunk() {
        // ex2 has 2 chunks of size 1; its comparison is the sum over
        // chunks, and its baseline norm sums both runs.
        let p = program();
        let tests = tests_for("x");
        let comps = vec![Compilation::baseline()];
        let db = run_matrix(&p, &as_dyn(&tests), &comps, &RunnerConfig::default()).unwrap();
        let ex2 = db.rows.iter().find(|r| r.test == "ex2").unwrap();
        assert!(ex2.baseline_norm > 0.0);
        assert!(ex2.bitwise_equal);
    }
}
