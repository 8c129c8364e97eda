//! The coordinator/worker wire format and the `QueryPlane`
//! abstraction over *where* a search's Test queries evaluate.
//!
//! A hierarchical (or perf) search issues exactly five kinds of
//! executable recipes ([`ExeRecipe`]); every query of the File→Symbol
//! walk is one recipe plus a coordinator-side reduction (the comparison
//! metric, Welch statistics, counters). The
//! `QueryPlane` trait captures precisely the part that can move to
//! another process: *build the recipe's executable and run (or time)
//! it*, returning raw vectors. Everything downstream of the raw
//! vectors — `compare`, speedup reports, ledger accounting — stays in
//! the coordinator, which is what makes the process backend
//! byte-identical to the serial search.
//!
//! Two implementations:
//! - `LocalPlane`: evaluates in-process against borrowed [`Build`]s,
//!   with the exact per-recipe error mappings the serial closures have
//!   always used.
//! - `RemotePlane`: serializes the search task once ([`WireTask`]),
//!   ships each query as a [`WireRequest`] through an
//!   [`ExecBackend::dispatch`], and decodes the answer from the
//!   checkpoint-journal answer schema ([`JournalAnswer`] doubles as
//!   the wire answer format).
//!
//! The worker half is [`evaluate`]: given a task digest, a serialized
//! task body, and a serialized request, produce a serialized answer.
//! `flit worker` plugs this into `flit_exec::serve_worker`.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use flit_exec::{ExecBackend, ExecError, QueryEnvelope};
use flit_program::build::{
    file_mixed_executable_in, pic_probe_executable_in, symbol_mixed_executable_in, Build,
};
use flit_program::{Driver, Engine, RunError, SimProgram};
use flit_toolchain::cache::{BuildCtx, RecipeHasher};
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::CompilerKind;

use crate::journal::JournalAnswer;
use crate::test_fn::TestError;

/// Which mixed executable a query builds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExeRecipe {
    /// The all-baseline executable (the trusted reference).
    Baseline,
    /// The all-variable (candidate) executable.
    Candidate,
    /// File-mixed: the given file ids come from the variable build,
    /// everything else from the baseline.
    FileMixed {
        /// Variable file ids (canonically sorted).
        items: Vec<usize>,
    },
    /// The `-fPIC` interposition probe for one file.
    PicProbe {
        /// The probed file id.
        file: usize,
    },
    /// Symbol-mixed within one file: the given symbols come from the
    /// variable build.
    SymbolMixed {
        /// The file under symbol search.
        file: usize,
        /// Variable symbol names (canonically sorted).
        items: Vec<String>,
    },
}

/// One query as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireRequest {
    /// Build the recipe's executable and run it once, returning the
    /// output vector and simulated seconds.
    Run {
        /// The executable to build.
        recipe: ExeRecipe,
    },
    /// Build the recipe's executable and draw timing samples from its
    /// profile under the seeded noise model.
    Time {
        /// The executable to build.
        recipe: ExeRecipe,
        /// Noise-model seed.
        seed: u64,
        /// Number of samples to draw.
        samples: u32,
    },
}

/// Everything a worker needs to evaluate queries for one search:
/// both program structures, both compilations (with build tags), the
/// driver, the input (bit-exact), and the link driver. Registered once
/// per (worker, task digest); queries reference the digest only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireTask {
    /// The baseline program structure.
    pub baseline_program: SimProgram,
    /// The variable program structure (differs from the baseline in
    /// the injection studies; usually identical).
    pub variable_program: SimProgram,
    /// The baseline compilation.
    pub baseline_compilation: Compilation,
    /// The variable compilation.
    pub variable_compilation: Compilation,
    /// Build tag of the baseline build.
    pub baseline_tag: u32,
    /// Build tag of the variable build.
    pub variable_tag: u32,
    /// The test driver.
    pub driver: Driver,
    /// `f64::to_bits` of each input element (bit-exact round trip).
    pub input_bits: Vec<u64>,
    /// The linking compiler (the Intel link-step effect).
    pub link_driver: CompilerKind,
}

impl WireTask {
    /// Capture a search task from its in-process pieces.
    pub fn capture(
        baseline: &Build,
        variable: &Build,
        driver: &Driver,
        input: &[f64],
        link_driver: CompilerKind,
    ) -> Self {
        WireTask {
            baseline_program: baseline.program.clone(),
            variable_program: variable.program.clone(),
            baseline_compilation: baseline.compilation.clone(),
            variable_compilation: variable.compilation.clone(),
            baseline_tag: baseline.tag,
            variable_tag: variable.tag,
            driver: driver.clone(),
            input_bits: input.iter().map(|x| x.to_bits()).collect(),
            link_driver,
        }
    }

    /// Serialize to the wire (the task body of a [`QueryEnvelope`]).
    pub fn to_wire(&self) -> String {
        serde_json::to_string(self).expect("wire task serializes")
    }

    /// Stable digest of a serialized task body.
    pub fn digest_of(body: &str) -> String {
        let mut h = RecipeHasher::new();
        h.write_str(body);
        format!("{:016x}", h.finish())
    }
}

/// Where a search's Test queries evaluate. Both methods take the
/// recipe only; the plane owns (or transports) the task context.
pub(crate) trait QueryPlane: Sync {
    /// Build and run once: `(output vector, simulated seconds)`.
    fn run_recipe(&self, recipe: &ExeRecipe) -> Result<(Vec<f64>, f64), TestError>;

    /// Build and time: the drawn sample vector.
    fn time_recipe(
        &self,
        recipe: &ExeRecipe,
        seed: u64,
        samples: u32,
    ) -> Result<Vec<f64>, TestError>;
}

fn run_to_test_error(e: RunError) -> TestError {
    match e {
        RunError::Crash(s) => TestError::Crash(s),
        RunError::MissingSymbol(s) => TestError::Link(format!("undefined symbol `{s}`")),
        e @ RunError::CorruptBuildTag { .. } => TestError::Link(e.to_string()),
    }
}

/// In-process evaluation against borrowed builds — the historical
/// serial semantics, error mappings included:
///
/// - reference executables (`Baseline`/`Candidate`) map *every* run
///   failure to `Crash` (a reference that cannot run aborts the
///   search);
/// - mixed executables map run failures through the mixed-run rules
///   (`MissingSymbol`/`CorruptBuildTag` are link-shaped);
/// - the `-fPIC` probe keeps real crash messages verbatim and treats
///   everything else as a crash.
pub(crate) struct LocalPlane<'a> {
    /// The trusted baseline build.
    pub baseline: &'a Build<'a>,
    /// The variable (candidate) build.
    pub variable: &'a Build<'a>,
    /// The test driver.
    pub driver: &'a Driver,
    /// The test input.
    pub input: &'a [f64],
    /// The linking compiler.
    pub link_driver: CompilerKind,
    /// The build cache.
    pub ctx: &'a BuildCtx,
}

impl<'a> LocalPlane<'a> {
    fn executable(
        &self,
        recipe: &ExeRecipe,
    ) -> Result<Arc<flit_toolchain::linker::Executable>, TestError> {
        match recipe {
            ExeRecipe::Baseline => self
                .baseline
                .executable_in(self.ctx)
                .map_err(|e| TestError::Link(e.to_string())),
            ExeRecipe::Candidate => self
                .variable
                .executable_in(self.ctx)
                .map_err(|e| TestError::Link(e.to_string())),
            ExeRecipe::FileMixed { items } => {
                let set: BTreeSet<usize> = items.iter().copied().collect();
                file_mixed_executable_in(
                    self.baseline,
                    self.variable,
                    &set,
                    self.link_driver,
                    self.ctx,
                )
                .map_err(|e| TestError::Link(e.to_string()))
            }
            ExeRecipe::PicProbe { file } => pic_probe_executable_in(
                self.baseline,
                self.variable,
                *file,
                self.link_driver,
                self.ctx,
            )
            .map_err(|e| TestError::Link(e.to_string())),
            ExeRecipe::SymbolMixed { file, items } => {
                let set: BTreeSet<String> = items.iter().cloned().collect();
                symbol_mixed_executable_in(
                    self.baseline,
                    self.variable,
                    *file,
                    &set,
                    self.link_driver,
                    self.ctx,
                )
                .map_err(|e| TestError::Link(e.to_string()))
            }
        }
    }

    fn map_run_error(recipe: &ExeRecipe, e: RunError) -> TestError {
        match recipe {
            // A reference executable that cannot run is always a crash.
            ExeRecipe::Baseline | ExeRecipe::Candidate => TestError::Crash(e.to_string()),
            // The probe keeps real crash messages verbatim; anything
            // else (a symbol the probe link dropped) is still a crash
            // at probe level.
            ExeRecipe::PicProbe { .. } => match e {
                RunError::Crash(s) => TestError::Crash(s),
                e => TestError::Crash(e.to_string()),
            },
            ExeRecipe::FileMixed { .. } | ExeRecipe::SymbolMixed { .. } => run_to_test_error(e),
        }
    }
}

impl QueryPlane for LocalPlane<'_> {
    fn run_recipe(&self, recipe: &ExeRecipe) -> Result<(Vec<f64>, f64), TestError> {
        let exe = self.executable(recipe)?;
        let out = Engine::with_variant(self.baseline.program, self.variable.program, &exe)
            .run(self.driver, self.input)
            .map_err(|e| Self::map_run_error(recipe, e))?;
        Ok((out.output, out.seconds))
    }

    fn time_recipe(
        &self,
        recipe: &ExeRecipe,
        seed: u64,
        samples: u32,
    ) -> Result<Vec<f64>, TestError> {
        let exe = self.executable(recipe)?;
        let (_, prof) = Engine::with_variant(self.baseline.program, self.variable.program, &exe)
            .run_with_profile(self.driver, self.input)
            .map_err(|e| Self::map_run_error(recipe, e))?;
        Ok(prof.samples(seed, samples))
    }
}

/// Encode a plane result as the wire answer payload (the journal
/// answer schema, bit-exact floats).
fn encode_answer(result: Result<(Vec<f64>, f64), TestError>) -> JournalAnswer {
    match result {
        Ok((output, seconds)) => JournalAnswer::Output {
            output_bits: output.iter().map(|x| x.to_bits()).collect(),
            seconds_bits: seconds.to_bits(),
        },
        Err(TestError::Crash(message)) => JournalAnswer::Crash { message },
        Err(TestError::Link(message)) => JournalAnswer::Link { message },
    }
}

fn decode_answer(answer: JournalAnswer) -> Result<(Vec<f64>, f64), TestError> {
    match answer {
        JournalAnswer::Output {
            output_bits,
            seconds_bits,
        } => Ok((
            output_bits.into_iter().map(f64::from_bits).collect(),
            f64::from_bits(seconds_bits),
        )),
        JournalAnswer::Score {
            score_bits,
            seconds_bits,
        } => Ok((
            vec![f64::from_bits(score_bits)],
            f64::from_bits(seconds_bits),
        )),
        JournalAnswer::Crash { message } => Err(TestError::Crash(message)),
        JournalAnswer::Link { message } => Err(TestError::Link(message)),
    }
}

/// Evaluation through a remote [`ExecBackend`]: the task is serialized
/// once, each query ships as an envelope, and answers decode from the
/// journal answer schema. Backend transport failures (a query that
/// exhausted its retry budget) surface as `TestError::Crash` with the
/// structured backend message, which aborts the search the same way a
/// crashed mixed executable does.
pub(crate) struct RemotePlane {
    backend: Arc<dyn ExecBackend>,
    digest: String,
    task: String,
}

impl RemotePlane {
    /// Capture and serialize the search task for `backend`.
    pub(crate) fn new(
        backend: Arc<dyn ExecBackend>,
        baseline: &Build,
        variable: &Build,
        driver: &Driver,
        input: &[f64],
        link_driver: CompilerKind,
    ) -> Self {
        let task = WireTask::capture(baseline, variable, driver, input, link_driver).to_wire();
        let digest = WireTask::digest_of(&task);
        RemotePlane {
            backend,
            digest,
            task,
        }
    }

    fn dispatch(&self, request: &WireRequest) -> Result<(Vec<f64>, f64), TestError> {
        let spec = serde_json::to_string(request).expect("wire request serializes");
        let envelope = QueryEnvelope {
            task_digest: self.digest.clone(),
            task: self.task.clone(),
            spec,
        };
        let answer = self.backend.dispatch(&envelope).map_err(|e| match e {
            ExecError::Backend { message } => TestError::Crash(message),
            other => TestError::Crash(other.to_string()),
        })?;
        let decoded: JournalAnswer = serde_json::from_str(&answer.payload)
            .map_err(|e| TestError::Crash(format!("unparseable wire answer: {e}")))?;
        decode_answer(decoded)
    }
}

impl QueryPlane for RemotePlane {
    fn run_recipe(&self, recipe: &ExeRecipe) -> Result<(Vec<f64>, f64), TestError> {
        self.dispatch(&WireRequest::Run {
            recipe: recipe.clone(),
        })
    }

    fn time_recipe(
        &self,
        recipe: &ExeRecipe,
        seed: u64,
        samples: u32,
    ) -> Result<Vec<f64>, TestError> {
        self.dispatch(&WireRequest::Time {
            recipe: recipe.clone(),
            seed,
            samples,
        })
        .map(|(samples, _)| samples)
    }
}

/// Worker-side task cache: deserialized tasks keyed by digest, plus
/// one process-wide build cache so a worker amortizes object files and
/// links across queries exactly like the coordinator would.
struct WorkerTask {
    task: WireTask,
    input: Vec<f64>,
}

fn worker_tasks() -> &'static Mutex<HashMap<String, Arc<WorkerTask>>> {
    static TASKS: OnceLock<Mutex<HashMap<String, Arc<WorkerTask>>>> = OnceLock::new();
    TASKS.get_or_init(Default::default)
}

fn worker_ctx() -> &'static BuildCtx {
    static CTX: OnceLock<BuildCtx> = OnceLock::new();
    CTX.get_or_init(BuildCtx::cached)
}

/// The worker half: evaluate one serialized request against a
/// serialized task, returning the serialized answer payload. Errors
/// (malformed task or request) are encoded as `Crash` answers rather
/// than killing the worker — a malformed frame is a protocol bug the
/// coordinator should see as a structured search abort, not a hang.
pub fn evaluate(digest: &str, task_body: &str, spec: &str) -> String {
    let answer = evaluate_inner(digest, task_body, spec)
        .unwrap_or_else(|message| JournalAnswer::Crash { message });
    serde_json::to_string(&answer).expect("wire answer serializes")
}

fn evaluate_inner(digest: &str, task_body: &str, spec: &str) -> Result<JournalAnswer, String> {
    let cached = {
        let mut tasks = worker_tasks().lock().expect("worker task cache poisoned");
        match tasks.get(digest) {
            Some(t) => Arc::clone(t),
            None => {
                let task: WireTask = serde_json::from_str(task_body)
                    .map_err(|e| format!("worker cannot parse task {digest}: {e}"))?;
                let input = task
                    .input_bits
                    .iter()
                    .copied()
                    .map(f64::from_bits)
                    .collect();
                let t = Arc::new(WorkerTask { task, input });
                tasks.insert(digest.to_string(), Arc::clone(&t));
                t
            }
        }
    };
    let request: WireRequest =
        serde_json::from_str(spec).map_err(|e| format!("worker cannot parse request: {e}"))?;
    let t = &cached.task;
    let baseline = Build::tagged(
        &t.baseline_program,
        t.baseline_compilation.clone(),
        t.baseline_tag,
    );
    let variable = Build::tagged(
        &t.variable_program,
        t.variable_compilation.clone(),
        t.variable_tag,
    );
    let plane = LocalPlane {
        baseline: &baseline,
        variable: &variable,
        driver: &t.driver,
        input: &cached.input,
        link_driver: t.link_driver,
        ctx: worker_ctx(),
    };
    Ok(match request {
        WireRequest::Run { recipe } => encode_answer(plane.run_recipe(&recipe)),
        WireRequest::Time {
            recipe,
            seed,
            samples,
        } => encode_answer(
            plane
                .time_recipe(&recipe, seed, samples)
                .map(|s| (s, 0.0f64)),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_program::{Function, Kernel, SourceFile};

    fn unsafe_gcc() -> Compilation {
        use flit_toolchain::compiler::OptLevel;
        use flit_toolchain::flags::Switch;
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe])
    }

    fn tiny_program() -> SimProgram {
        SimProgram::new(
            "wire-test",
            vec![
                SourceFile::new(
                    "a.cpp",
                    vec![Function::exported("A_dot", Kernel::DotMix { stride: 3 })],
                ),
                SourceFile::new(
                    "b.cpp",
                    vec![Function::exported("B_norm", Kernel::NormScale)],
                ),
            ],
        )
    }

    fn driver() -> Driver {
        Driver::new("t", vec!["A_dot".into(), "B_norm".into()], 2, 24)
    }

    #[test]
    fn wire_task_round_trips_bit_exactly() {
        let prog = tiny_program();
        let baseline = Build::new(&prog, Compilation::baseline());
        let variable = Build::tagged(&prog, unsafe_gcc(), 1);
        let input = [0.3, f64::MIN_POSITIVE, -0.0];
        let task = WireTask::capture(&baseline, &variable, &driver(), &input, CompilerKind::Gcc);
        let wire = task.to_wire();
        let back: WireTask = serde_json::from_str(&wire).unwrap();
        assert_eq!(back.input_bits, task.input_bits);
        assert_eq!(back.baseline_program.fingerprint(), prog.fingerprint());
        assert_eq!(back.variable_compilation, task.variable_compilation);
        assert_eq!(back.variable_tag, 1);
        // Digest is a pure function of the body.
        assert_eq!(WireTask::digest_of(&wire), WireTask::digest_of(&wire));
    }

    #[test]
    fn local_and_worker_evaluation_agree_bit_for_bit() {
        let prog = tiny_program();
        let baseline = Build::new(&prog, Compilation::baseline());
        let variable = Build::tagged(&prog, unsafe_gcc(), 1);
        let d = driver();
        let input = [0.3, 0.7];
        let ctx = BuildCtx::cached();
        let plane = LocalPlane {
            baseline: &baseline,
            variable: &variable,
            driver: &d,
            input: &input,
            link_driver: CompilerKind::Gcc,
            ctx: &ctx,
        };
        let task = WireTask::capture(&baseline, &variable, &d, &input, CompilerKind::Gcc);
        let body = task.to_wire();
        let digest = WireTask::digest_of(&body);
        for recipe in [
            ExeRecipe::Baseline,
            ExeRecipe::Candidate,
            ExeRecipe::FileMixed { items: vec![0] },
            ExeRecipe::PicProbe { file: 0 },
            ExeRecipe::SymbolMixed {
                file: 0,
                items: vec!["A_dot".into()],
            },
        ] {
            let local = plane.run_recipe(&recipe);
            let spec = serde_json::to_string(&WireRequest::Run {
                recipe: recipe.clone(),
            })
            .unwrap();
            let remote: JournalAnswer =
                serde_json::from_str(&evaluate(&digest, &body, &spec)).unwrap();
            assert_eq!(
                encode_answer(local),
                remote,
                "recipe {recipe:?} diverged between local and worker evaluation"
            );
            let timed = plane.time_recipe(&recipe, 42, 4);
            let spec = serde_json::to_string(&WireRequest::Time {
                recipe: recipe.clone(),
                seed: 42,
                samples: 4,
            })
            .unwrap();
            let remote: JournalAnswer =
                serde_json::from_str(&evaluate(&digest, &body, &spec)).unwrap();
            assert_eq!(
                encode_answer(timed.map(|s| (s, 0.0))),
                remote,
                "timed recipe {recipe:?} diverged"
            );
        }
    }

    #[test]
    fn malformed_wire_input_becomes_a_structured_crash_answer() {
        let ans: JournalAnswer = serde_json::from_str(&evaluate("d0", "not json", "{}")).unwrap();
        assert!(
            matches!(&ans, JournalAnswer::Crash { message } if message.contains("cannot parse task")),
            "{ans:?}"
        );
        let prog = tiny_program();
        let baseline = Build::new(&prog, Compilation::baseline());
        let variable = Build::tagged(&prog, unsafe_gcc(), 1);
        let task = WireTask::capture(&baseline, &variable, &driver(), &[0.1], CompilerKind::Gcc);
        let body = task.to_wire();
        let ans: JournalAnswer =
            serde_json::from_str(&evaluate(&WireTask::digest_of(&body), &body, "garbage")).unwrap();
        assert!(
            matches!(&ans, JournalAnswer::Crash { message } if message.contains("cannot parse request")),
            "{ans:?}"
        );
    }
}
