//! The execution engine: runs a driver against a linked executable,
//! resolving every call the way the binary would.

use flit_toolchain::compilation::Compilation;
use flit_toolchain::linker::Executable;
use flit_toolchain::perf::{fnv1a, noise_factor, simulated_seconds, KernelClass};

use crate::model::{Driver, SimProgram, Visibility};

/// A completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Final program state (the "mesh" the tests compare).
    pub output: Vec<f64>,
    /// Simulated wall-clock seconds (deterministic performance model).
    pub seconds: f64,
    /// Number of function invocations executed.
    pub calls: u64,
}

/// Base (noise-free) seconds of one run, aggregated per
/// `(compilation, kernel class)` — the granularity of the perf model's
/// seeded noise distribution.
///
/// Collected by [`Engine::run_with_profile`] so that N repeated timing
/// samples of a whole binary come from *one* engine run: sample *i* is
/// `Σ base_seconds × noise_factor(comp, class, seed, i)` over the
/// profile's entries, which is exactly what running the binary N times
/// under per-(compilation, kernel-class) multiplicative noise would
/// yield.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingProfile {
    /// `(compilation, class, base seconds)` in first-touch execution
    /// order (deterministic: the engine itself is).
    entries: Vec<(Compilation, KernelClass, f64)>,
}

impl TimingProfile {
    fn add(&mut self, comp: &Compilation, class: KernelClass, secs: f64) {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|(c, k, _)| *k == class && c == comp)
        {
            e.2 += secs;
        } else {
            self.entries.push((comp.clone(), class, secs));
        }
    }

    /// Draw `n` whole-run timing samples from the seeded noise model.
    /// Byte-deterministic given the seed.
    pub fn samples(&self, seed: u64, n: u32) -> Vec<f64> {
        (0..n)
            .map(|i| {
                self.entries
                    .iter()
                    .map(|(comp, class, secs)| secs * noise_factor(comp, *class, seed, i))
                    .sum()
            })
            .collect()
    }
}

/// Run-time failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The executable segfaulted (mixed-ABI hazard, §3.3).
    Crash(String),
    /// An entry or callee symbol has no definition in the executable.
    MissingSymbol(String),
    /// An object's `build_tag` names a source tree the engine was not
    /// given: the executable was assembled from builds this engine does
    /// not know about (or the tag itself is corrupt).
    CorruptBuildTag {
        /// Index of the offending object in the executable.
        object: usize,
        /// The out-of-range tag.
        tag: u32,
        /// How many source trees the engine binds.
        trees: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Crash(what) => write!(f, "segmentation fault ({what})"),
            RunError::MissingSymbol(s) => write!(f, "undefined symbol `{s}`"),
            RunError::CorruptBuildTag { object, tag, trees } => write!(
                f,
                "object {object} carries build_tag {tag} but the engine binds {trees} source tree(s)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// The engine binds one or two programs to a linked executable.
///
/// When a bisection mixes objects from two *builds* (a baseline and a
/// variable source tree — identical structure, possibly different
/// bodies, as in the injection study), each object's `build_tag` selects
/// which tree provides its function bodies.
pub struct Engine<'a> {
    programs: Vec<&'a SimProgram>,
    exe: &'a Executable,
}

impl<'a> Engine<'a> {
    /// Create an engine over a single program.
    pub fn new(program: &'a SimProgram, exe: &'a Executable) -> Self {
        Engine {
            programs: vec![program],
            exe,
        }
    }

    /// Create an engine over baseline + variable source trees (indexed
    /// by each object's `build_tag`). The trees must be structurally
    /// identical (same files, same symbols).
    pub fn with_variant(
        baseline: &'a SimProgram,
        variable: &'a SimProgram,
        exe: &'a Executable,
    ) -> Self {
        Engine {
            programs: vec![baseline, variable],
            exe,
        }
    }

    /// The source tree providing bodies for object `obj_idx`.
    ///
    /// A single-tree engine binds every object to its one program —
    /// tags only distinguish trees in mixed builds. With multiple
    /// trees, an out-of-range tag is corruption (previously it was
    /// silently clamped to the last tree, masking exactly the fault a
    /// fuzzer would plant) and is reported as a structured error.
    fn program_of(&self, obj_idx: usize) -> Result<&'a SimProgram, RunError> {
        if self.programs.len() == 1 {
            return Ok(self.programs[0]);
        }
        let tag = self.exe.objects[obj_idx].build_tag;
        self.programs
            .get(tag as usize)
            .copied()
            .ok_or(RunError::CorruptBuildTag {
                object: obj_idx,
                tag,
                trees: self.programs.len(),
            })
    }

    /// Run the driver on the given FLiT test input.
    pub fn run(&self, driver: &Driver, input: &[f64]) -> Result<RunOutput, RunError> {
        self.run_with_profile(driver, input).map(|(out, _)| out)
    }

    /// [`Engine::run`], additionally collecting the per-(compilation,
    /// kernel-class) [`TimingProfile`] that seeds repeated timing
    /// samples. The [`RunOutput`] is identical to [`Engine::run`]'s —
    /// profiling only aggregates the per-call seconds the run already
    /// computes.
    pub fn run_with_profile(
        &self,
        driver: &Driver,
        input: &[f64],
    ) -> Result<(RunOutput, TimingProfile), RunError> {
        // The ABI-hazard crash decision is salted by the driver (test),
        // modeling that different tests exercise different call paths.
        let salt = fnv1a(driver.name.as_bytes());
        if self.exe.crashes(salt) {
            return Err(RunError::Crash(format!(
                "mixed-ABI executable, test `{}`",
                driver.name
            )));
        }
        let mut state = driver.init_state(input);
        let mut seconds = 0.0f64;
        let mut calls = 0u64;
        let mut profile = TimingProfile::default();
        for _ in 0..driver.rounds {
            for entry in &driver.entries {
                self.exec(
                    entry,
                    None,
                    &mut state,
                    &mut seconds,
                    &mut profile,
                    &mut calls,
                    0,
                )?;
            }
        }
        Ok((
            RunOutput {
                output: state,
                seconds,
                calls,
            },
            profile,
        ))
    }

    /// Execute one function: resolve its defining object, evaluate its
    /// kernel under that object's environment, then its callees.
    #[allow(clippy::too_many_arguments)]
    fn exec(
        &self,
        symbol: &str,
        caller_obj: Option<usize>,
        state: &mut Vec<f64>,
        seconds: &mut f64,
        profile: &mut TimingProfile,
        calls: &mut u64,
        depth: usize,
    ) -> Result<(), RunError> {
        assert!(depth < 64, "call depth overflow at `{symbol}`");
        // Structure (files, visibility, call graph) is identical across
        // trees; resolve it against the baseline tree.
        let (file_id, func_idx) = self.programs[0]
            .lookup(symbol)
            .ok_or_else(|| RunError::MissingSymbol(symbol.to_string()))?;
        let func = &self.programs[0].files[file_id].functions[func_idx];

        let obj_idx = match func.visibility {
            Visibility::Static => {
                // A local symbol binds within its translation unit: the
                // caller's object if the caller lives in the same file
                // (the Symbol Bisect duplicate-object case), otherwise
                // whichever object provides this file.
                match caller_obj {
                    Some(c) if self.exe.objects[c].file_id == file_id => c,
                    _ => self
                        .find_object_for_file(file_id)
                        .ok_or_else(|| RunError::MissingSymbol(symbol.to_string()))?,
                }
            }
            Visibility::Exported => {
                // Intra-TU inlining: without -fPIC the compiler may
                // inline a same-TU callee, so the call never reaches the
                // interposed (linker-chosen) definition — the exact
                // failure mode that forces Symbol Bisect to recompile
                // with -fPIC (§2.3).
                match caller_obj {
                    Some(c)
                        if self.exe.objects[c].file_id == file_id
                            && func.inlinable
                            && !self.exe.objects[c].pic =>
                    {
                        c
                    }
                    _ => self
                        .exe
                        .defining_object(symbol)
                        .ok_or_else(|| RunError::MissingSymbol(symbol.to_string()))?,
                }
            }
        };

        let mut env = self.exe.env_of_object(obj_idx);
        if self.exe.objects[obj_idx].pic {
            // Position-independent code stores intermediates at ABI
            // boundaries: extended-precision effects do not survive.
            // This is what makes some variability "disappear under
            // -fPIC", capping the search at file granularity.
            env.extended_precision = false;
        }

        // The *body* comes from whichever source tree built the object.
        let body = &self.program_of(obj_idx)?.files[file_id].functions[func_idx];
        body.kernel.eval(state, &env, body.injection);
        let call_seconds = simulated_seconds(
            &self.exe.objects[obj_idx].compilation,
            body.kernel.class(),
            body.kernel.work(state.len()) * body.work_scale,
        );
        *seconds += call_seconds;
        profile.add(
            &self.exe.objects[obj_idx].compilation,
            body.kernel.class(),
            call_seconds,
        );
        *calls += 1;

        for callee in &func.calls {
            self.exec(
                callee,
                Some(obj_idx),
                state,
                seconds,
                profile,
                calls,
                depth + 1,
            )?;
        }
        Ok(())
    }

    fn find_object_for_file(&self, file_id: usize) -> Option<usize> {
        self.exe.objects.iter().position(|o| o.file_id == file_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Build;
    use crate::kernel::Kernel;
    use crate::model::{Function, SourceFile};
    use flit_toolchain::compilation::Compilation;
    use flit_toolchain::compiler::{CompilerKind, OptLevel};
    use flit_toolchain::flags::Switch;

    impl TimingProfile {
        /// Total base seconds (equals the run's deterministic `seconds` up
        /// to f64 summation order).
        fn total_seconds(&self) -> f64 {
            self.entries.iter().map(|(_, _, s)| s).sum()
        }
    }

    fn program() -> SimProgram {
        SimProgram::new(
            "engine-test",
            vec![
                SourceFile::new(
                    "solver.cpp",
                    vec![
                        Function::exported("solve", Kernel::DotMix { stride: 5 })
                            .with_calls(vec!["norm".into(), "smooth".into()]),
                        Function::exported("norm", Kernel::NormScale).inlinable(),
                        Function::local("tweak", Kernel::Benign { flavor: 3 }),
                    ],
                ),
                SourceFile::new(
                    "mesh.cpp",
                    vec![Function::exported("smooth", Kernel::MatVecMix { n: 10 })
                        .with_calls(vec!["post".into()])],
                ),
                SourceFile::new(
                    "post.cpp",
                    vec![Function::exported("post", Kernel::PolyHorner { degree: 7 })],
                ),
            ],
        )
    }

    fn driver() -> Driver {
        Driver::new("t0", vec!["solve".into()], 3, 48)
    }

    #[test]
    fn uniform_build_runs_deterministically() {
        let p = program();
        let build = Build::new(&p, Compilation::perf_reference());
        let exe = build.executable().unwrap();
        let engine = Engine::new(&p, &exe);
        let a = engine.run(&driver(), &[0.3, 0.6]).unwrap();
        let b = engine.run(&driver(), &[0.3, 0.6]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.calls, 3 * 4); // 4 functions per round, 3 rounds
        assert!(a.seconds > 0.0);
        assert_eq!(a.output.len(), 48);
    }

    #[test]
    fn different_compilations_give_different_results() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let fast = Build::new(
            &p,
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]),
        );
        let exe_b = base.executable().unwrap();
        let exe_f = fast.executable().unwrap();
        let out_b = Engine::new(&p, &exe_b).run(&driver(), &[0.5]).unwrap();
        let out_f = Engine::new(&p, &exe_f).run(&driver(), &[0.5]).unwrap();
        assert_ne!(out_b.output, out_f.output);
        // And the optimized build is faster under the cost model.
        assert!(out_f.seconds < out_b.seconds);
    }

    #[test]
    fn plain_o3_gcc_matches_baseline_bitwise() {
        // The headline of Figure 4a: value-safe optimization exists.
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let o3 = Build::new(
            &p,
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![]),
        );
        let out_b = Engine::new(&p, &base.executable().unwrap())
            .run(&driver(), &[0.5])
            .unwrap();
        let out_o3 = Engine::new(&p, &o3.executable().unwrap())
            .run(&driver(), &[0.5])
            .unwrap();
        assert_eq!(out_b.output, out_o3.output);
        assert!(out_o3.seconds < out_b.seconds);
    }

    #[test]
    fn missing_symbol_is_reported() {
        let p = program();
        let build = Build::new(&p, Compilation::baseline());
        let exe = build.executable().unwrap();
        let engine = Engine::new(&p, &exe);
        let d = Driver::new("bad", vec!["nonexistent".into()], 1, 8);
        assert_eq!(
            engine.run(&d, &[]),
            Err(RunError::MissingSymbol("nonexistent".into()))
        );
    }

    #[test]
    fn mixed_file_build_takes_env_per_file() {
        // File bisect's Test function: mesh.cpp from the variable
        // compilation, everything else baseline. Only `smooth` (in
        // mesh.cpp) should feel the variable env.
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::new(
            &p,
            Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::Avx2Fma]),
        );
        let mixed = crate::build::file_mixed_executable(
            &base,
            &var,
            &[1usize].into_iter().collect(),
            CompilerKind::Gcc,
        )
        .unwrap();
        let out_mixed = Engine::new(&p, &mixed).run(&driver(), &[0.5]).unwrap();
        let out_base = Engine::new(&p, &base.executable().unwrap())
            .run(&driver(), &[0.5])
            .unwrap();
        // MatVecMix is FMA-sensitive, so the mix differs from baseline.
        assert_ne!(out_mixed.output, out_base.output);
        // Mixing only post.cpp (PolyHorner is FMA-sensitive too) also
        // differs, but differently (unique-error assumption).
        let mixed2 = crate::build::file_mixed_executable(
            &base,
            &var,
            &[2usize].into_iter().collect(),
            CompilerKind::Gcc,
        )
        .unwrap();
        let out_mixed2 = Engine::new(&p, &mixed2).run(&driver(), &[0.5]).unwrap();
        assert_ne!(out_mixed2.output, out_base.output);
        assert_ne!(out_mixed2.output, out_mixed.output);
    }

    #[test]
    fn corrupt_build_tag_is_a_structured_error() {
        // Pre-fix, `program_of` clamped an out-of-range tag to the last
        // source tree and the run "succeeded" with the wrong bodies.
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(&p, Compilation::perf_reference(), 1);
        let mut mixed = crate::build::file_mixed_executable(
            &base,
            &var,
            &[1usize].into_iter().collect(),
            CompilerKind::Gcc,
        )
        .unwrap();
        mixed.objects[1].build_tag = 7;
        let err = Engine::with_variant(&p, &p, &mixed)
            .run(&driver(), &[0.5])
            .unwrap_err();
        assert!(
            matches!(
                err,
                RunError::CorruptBuildTag {
                    object: 1,
                    tag: 7,
                    trees: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn single_tree_engine_ignores_build_tags() {
        // Tags only distinguish source trees in mixed builds: a
        // single-program engine binds its one tree no matter what the
        // objects claim (a tagged variable build run standalone).
        let p = program();
        let var = Build::tagged(&p, Compilation::perf_reference(), 1);
        let exe = var.executable().unwrap();
        assert!(exe.objects.iter().all(|o| o.build_tag == 1));
        let out = Engine::new(&p, &exe).run(&driver(), &[0.5]).unwrap();
        assert_eq!(out.output.len(), 48);
    }

    #[test]
    fn timing_profile_accounts_for_every_simulated_second() {
        let p = program();
        let build = Build::new(
            &p,
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]),
        );
        let exe = build.executable().unwrap();
        let engine = Engine::new(&p, &exe);
        let (out, profile) = engine.run_with_profile(&driver(), &[0.3, 0.6]).unwrap();
        // Profiling never perturbs the run itself.
        assert_eq!(out, engine.run(&driver(), &[0.3, 0.6]).unwrap());
        // The aggregated base seconds equal the run's deterministic
        // total (up to f64 summation order).
        let total = profile.total_seconds();
        assert!(
            (total / out.seconds - 1.0).abs() < 1e-12,
            "{total} vs {}",
            out.seconds
        );
        // A uniform build aggregates by (compilation, class): every
        // executed kernel in this fixture is DotHeavy, so one entry.
        assert_eq!(profile.entries.len(), 1);
    }

    #[test]
    fn profile_samples_are_seeded_and_deterministic() {
        let p = program();
        let build = Build::new(&p, Compilation::perf_reference());
        let exe = build.executable().unwrap();
        let (_, profile) = Engine::new(&p, &exe)
            .run_with_profile(&driver(), &[0.5])
            .unwrap();
        let a = profile.samples(11, 8);
        let b = profile.samples(11, 8);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_ne!(a, profile.samples(12, 8));
        // Samples scatter around the deterministic total.
        let total = profile.total_seconds();
        for s in &a {
            assert!((s / total - 1.0).abs() < 0.2, "{s} vs {total}");
        }
    }

    #[test]
    fn mixed_build_profile_splits_entries_by_compilation() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::new(
            &p,
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![]),
        );
        let mixed = crate::build::file_mixed_executable(
            &base,
            &var,
            &[1usize].into_iter().collect(),
            CompilerKind::Gcc,
        )
        .unwrap();
        let (_, profile) = Engine::new(&p, &mixed)
            .run_with_profile(&driver(), &[0.5])
            .unwrap();
        let comps: std::collections::BTreeSet<String> =
            profile.entries.iter().map(|(c, _, _)| c.label()).collect();
        assert_eq!(comps.len(), 2, "both compilations appear: {comps:?}");
    }

    #[test]
    fn decomposition_changes_results_but_stays_deterministic() {
        let p = program();
        let build = Build::new(&p, Compilation::perf_reference());
        let exe = build.executable().unwrap();
        let engine = Engine::new(&p, &exe);
        let d1 = driver();
        let d24 = driver().with_decomposition(24);
        let r1 = engine.run(&d1, &[0.5]).unwrap();
        let r24a = engine.run(&d24, &[0.5]).unwrap();
        let r24b = engine.run(&d24, &[0.5]).unwrap();
        assert_eq!(r24a, r24b, "fixed decomposition is bitwise reproducible");
        assert_ne!(
            r1.output.len(),
            r24a.output.len(),
            "changing parallelism changes the grid"
        );
    }
}
