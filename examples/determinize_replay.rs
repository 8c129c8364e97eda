//! The left branch of Figure 1: the application is NOT deterministic
//! (racing threads reassociate a reduction), so FLiT cannot run — until
//! a ReMPI-style capture-playback pass records one schedule and replays
//! it, after which the whole workflow (sweep + bisect) applies.
//!
//! ```sh
//! cargo run --release --example determinize_replay
//! ```

use std::sync::Arc;

use flit::core::determinize::{RacyReduce, RrMode, ScheduleLog};
use flit::core::workflow::determinism_check;
use flit::prelude::*;

fn program(log: Arc<ScheduleLog>) -> SimProgram {
    SimProgram::new(
        "openmp-app",
        vec![
            SourceFile::new(
                "reduce.cpp",
                vec![Function::exported(
                    "omp_parallel_sum",
                    Kernel::Custom(Arc::new(RacyReduce { workers: 8, log })),
                )],
            ),
            SourceFile::new(
                "post.cpp",
                vec![Function::exported(
                    "postprocess",
                    Kernel::DotMix { stride: 3 },
                )],
            ),
        ],
    )
}

fn main() {
    let log = Arc::new(ScheduleLog::new());
    let program = program(log.clone());
    let test = DriverTest::new(
        Driver::new(
            "omp-regression",
            vec!["omp_parallel_sum".into(), "postprocess".into()],
            2,
            64,
        ),
        1,
        vec![0.41],
    );

    // Step 1: Figure 1 asks "Code Deterministic?" — race the threads.
    log.set_mode(RrMode::Live);
    let refs = vec![&test];
    let deterministic = determinism_check(&program, &refs, &Compilation::baseline(), 10);
    println!("[1] live determinism check over 10 runs: {deterministic}");
    if deterministic {
        println!("    (the scheduler happened to repeat itself — rare but possible;");
        println!("     a race detector like Archer would still flag the unsynchronized order)");
    } else {
        println!("    → nondeterministic, as expected for unordered parallel reduction");
    }

    // Step 2: determinize via capture-playback (the ReMPI box).
    log.set_mode(RrMode::Record);
    {
        let build = Build::new(&program, Compilation::baseline());
        let exe = build.executable().unwrap();
        let ctx = RunContext {
            program: &program,
            exe: &exe,
        };
        let _ = test.run_impl(&[0.41], &ctx).unwrap();
    }
    println!(
        "[2] recorded {} combination schedules from one execution",
        log.recorded()
    );

    // Step 3: under replay, the determinism gate passes…
    log.set_mode(RrMode::Replay);
    struct ReplayTest {
        inner: DriverTest,
        log: Arc<ScheduleLog>,
    }
    impl FlitTest for ReplayTest {
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
            ctx: &RunContext,
        ) -> Result<(TestResult, f64), flit::program::engine::RunError> {
            self.log.rewind(); // every FLiT execution replays from the top
            self.inner.run_impl(input, ctx)
        }
    }
    let replay_test = ReplayTest {
        inner: DriverTest::new(
            Driver::new(
                "omp-regression",
                vec!["omp_parallel_sum".into(), "postprocess".into()],
                2,
                64,
            ),
            1,
            vec![0.41],
        ),
        log: log.clone(),
    };
    {
        let build = Build::new(&program, Compilation::baseline());
        let exe = build.executable().unwrap();
        let ctx = RunContext {
            program: &program,
            exe: &exe,
        };
        let (a, _) = replay_test.run_impl(&[0.41], &ctx).unwrap();
        let (b, _) = replay_test.run_impl(&[0.41], &ctx).unwrap();
        assert!(a.bitwise_eq(&b));
        println!("[3] replayed executions are bitwise identical — FLiT can proceed");
    }

    // Step 4: …and the ordinary FLiT flow works on the replayed app.
    let tests: Vec<&dyn FlitTest> = vec![&replay_test];
    let comps = compilation_matrix(CompilerKind::Gcc);
    let db = run_matrix(&program, &tests, &comps, &RunnerConfig::default()).unwrap();
    let variable = db.rows.iter().filter(|r| r.is_variable()).count();
    println!(
        "[4] swept {} gcc compilations under replay: {} variable",
        db.rows.len(),
        variable
    );
    assert!(
        variable > 0,
        "the racy reduce + dot mix respond to unsafe math"
    );
    println!("    → the Figure-1 loop closes: determinize, then test and bisect as usual");
}
