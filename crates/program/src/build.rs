//! Builds: a program paired with a compilation, and the mixed-object
//! executables FLiT Bisect links.
//!
//! * [`Build::executable`] — the ordinary whole-program build.
//! * [`file_mixed_executable`] — File Bisect's Test binary: the chosen
//!   files' objects come from the *variable* build, the rest from the
//!   *baseline* build (Figure 3, left).
//! * [`symbol_mixed_executable`] — Symbol Bisect's Test binary: the
//!   target file is compiled under **both** builds with `-fPIC`, the
//!   chosen symbols are kept strong in the variable copy and weakened in
//!   the baseline copy (and vice versa), and both copies are linked in
//!   (Figure 3, right).

use std::collections::BTreeSet;
use std::sync::Arc;

use flit_toolchain::cache::{BuildCtx, ObjectKey, RecipeHasher};
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::CompilerKind;
use flit_toolchain::linker::{link, Executable, LinkError};

use crate::model::SimProgram;

/// Unwrap a freshly-built (uncached) executable out of its `Arc`.
fn unwrap_arc(exe: Arc<Executable>) -> Executable {
    Arc::try_unwrap(exe).unwrap_or_else(|a| (*a).clone())
}

/// A program paired with one compilation.
#[derive(Clone)]
pub struct Build<'p> {
    /// The program to compile. File and Symbol Bisect may pair *two*
    /// builds of programs with identical structure (e.g. a clean and an
    /// injected copy of the same source tree).
    pub program: &'p SimProgram,
    /// The compilation triple.
    pub compilation: Compilation,
    /// Build tag stamped onto produced objects (0 = baseline, 1 =
    /// variable by convention). Execution engines use it to bind each
    /// object's function bodies to the right source tree.
    pub tag: u32,
}

impl<'p> Build<'p> {
    /// Create a (baseline-tagged) build.
    pub fn new(program: &'p SimProgram, compilation: Compilation) -> Self {
        Build {
            program,
            compilation,
            tag: 0,
        }
    }

    /// Create a build with an explicit tag.
    pub fn tagged(program: &'p SimProgram, compilation: Compilation, tag: u32) -> Self {
        Build {
            program,
            compilation,
            tag,
        }
    }

    /// Compile one file under this build.
    pub(crate) fn object(&self, file_id: usize, pic: bool) -> flit_toolchain::object::ObjectFile {
        let mut comp = self.compilation.clone();
        if pic {
            comp = comp.with_pic();
        }
        let mut obj = self.program.compile_file(file_id, &comp, pic);
        obj.build_tag = self.tag;
        obj
    }

    /// Compile one file through a build context (cache-aware form of
    /// [`Build::object`]).
    pub(crate) fn object_in(
        &self,
        ctx: &BuildCtx,
        file_id: usize,
        pic: bool,
    ) -> flit_toolchain::object::ObjectFile {
        ctx.object_with(
            ObjectKey {
                program: self.program.fingerprint(),
                file_id,
                compilation: self.compilation.clone(),
                pic,
                tag: self.tag,
            },
            || self.object(file_id, pic),
        )
    }

    /// Compile every file (without `-fPIC`).
    pub fn all_objects(&self) -> Vec<flit_toolchain::object::ObjectFile> {
        self.all_objects_in(&BuildCtx::uncached())
    }

    /// Compile every file through a build context.
    pub(crate) fn all_objects_in(&self, ctx: &BuildCtx) -> Vec<flit_toolchain::object::ObjectFile> {
        (0..self.program.files.len())
            .map(|i| self.object_in(ctx, i, false))
            .collect()
    }

    /// Link the whole program with this build's own driver.
    pub fn executable(&self) -> Result<Executable, LinkError> {
        self.executable_in(&BuildCtx::uncached()).map(unwrap_arc)
    }

    /// Link the whole program through a build context. A link-memo hit
    /// skips both the compiles and the link.
    pub fn executable_in(&self, ctx: &BuildCtx) -> Result<Arc<Executable>, LinkError> {
        let mut h = RecipeHasher::new();
        h.write_str("whole");
        self.hash_into(&mut h);
        ctx.link_with(h.finish(), || {
            link(self.all_objects_in(ctx), self.compilation.compiler)
        })
    }

    /// Mix this build's identity (program structure, compilation, tag)
    /// into a link-recipe digest.
    fn hash_into(&self, h: &mut RecipeHasher) {
        h.write_u64(self.program.fingerprint());
        h.write_str(&self.compilation.label());
        h.write_u64(u64::from(self.tag));
    }
}

/// File Bisect's Test executable: objects for `variable_files` come from
/// `variable`, all others from `baseline`; the link is driven by
/// `driver` (FLiT links mixed binaries consistently — §2.3 forces a
/// common standard library).
pub fn file_mixed_executable(
    baseline: &Build,
    variable: &Build,
    variable_files: &BTreeSet<usize>,
    driver: CompilerKind,
) -> Result<Executable, LinkError> {
    file_mixed_executable_in(
        baseline,
        variable,
        variable_files,
        driver,
        &BuildCtx::uncached(),
    )
    .map(unwrap_arc)
}

/// Cache-aware form of [`file_mixed_executable`]: the link is memoized
/// on `(builds, driver, variable file set)` and the per-file objects are
/// served from the object cache.
pub fn file_mixed_executable_in(
    baseline: &Build,
    variable: &Build,
    variable_files: &BTreeSet<usize>,
    driver: CompilerKind,
    ctx: &BuildCtx,
) -> Result<Arc<Executable>, LinkError> {
    assert_eq!(
        baseline.program.files.len(),
        variable.program.files.len(),
        "mixed builds must share program structure"
    );
    let mut h = recipe(b"file-mixed", baseline, variable, driver);
    for id in variable_files {
        h.write_u64(*id as u64);
    }
    ctx.link_with(h.finish(), || {
        let objects = (0..baseline.program.files.len())
            .map(|i| {
                if variable_files.contains(&i) {
                    variable.object_in(ctx, i, false)
                } else {
                    baseline.object_in(ctx, i, false)
                }
            })
            .collect();
        link(objects, driver)
    })
}

/// Start a link-recipe digest for a mixed executable scheme.
fn recipe(scheme: &[u8], baseline: &Build, variable: &Build, driver: CompilerKind) -> RecipeHasher {
    let mut h = RecipeHasher::new();
    h.write(scheme).write(&[0xFF]);
    baseline.hash_into(&mut h);
    variable.hash_into(&mut h);
    h.write_str(&format!("{driver:?}"));
    h
}

/// Symbol Bisect's Test executable for `target_file`: both builds'
/// copies of that file are compiled `-fPIC`; symbols in
/// `variable_symbols` stay strong in the variable copy (weak in the
/// baseline copy) and vice versa. All other files come from `baseline`.
pub fn symbol_mixed_executable(
    baseline: &Build,
    variable: &Build,
    target_file: usize,
    variable_symbols: &BTreeSet<String>,
    driver: CompilerKind,
) -> Result<Executable, LinkError> {
    symbol_mixed_executable_in(
        baseline,
        variable,
        target_file,
        variable_symbols,
        driver,
        &BuildCtx::uncached(),
    )
    .map(unwrap_arc)
}

/// Cache-aware form of [`symbol_mixed_executable`]. The two `-fPIC`
/// copies of the target file are cached *unweakened*; the
/// selection-specific weakening is applied to clones, and the link is
/// memoized on the full `(builds, driver, target, symbol set)` recipe.
pub fn symbol_mixed_executable_in(
    baseline: &Build,
    variable: &Build,
    target_file: usize,
    variable_symbols: &BTreeSet<String>,
    driver: CompilerKind,
    ctx: &BuildCtx,
) -> Result<Arc<Executable>, LinkError> {
    assert_eq!(
        baseline.program.files.len(),
        variable.program.files.len(),
        "mixed builds must share program structure"
    );
    let mut h = recipe(b"symbol-mixed", baseline, variable, driver);
    h.write_u64(target_file as u64);
    for s in variable_symbols {
        h.write_str(s);
    }
    ctx.link_with(h.finish(), || {
        let mut objects = Vec::with_capacity(baseline.program.files.len() + 1);
        for i in 0..baseline.program.files.len() {
            if i == target_file {
                objects.push(
                    variable
                        .object_in(ctx, i, true)
                        .weaken_except(variable_symbols),
                );
                objects.push(baseline.object_in(ctx, i, true).weaken(variable_symbols));
            } else {
                objects.push(baseline.object_in(ctx, i, false));
            }
        }
        link(objects, driver)
    })
}

/// The executable used to *verify* that variability survives `-fPIC`
/// before Symbol Bisect descends (§2.3: "the target file is recompiled
/// with this flag, and the result is checked"): the whole target file
/// from the variable build at `-fPIC`, everything else baseline.
pub fn pic_probe_executable_in(
    baseline: &Build,
    variable: &Build,
    target_file: usize,
    driver: CompilerKind,
    ctx: &BuildCtx,
) -> Result<Arc<Executable>, LinkError> {
    let mut h = recipe(b"pic-probe", baseline, variable, driver);
    h.write_u64(target_file as u64);
    ctx.link_with(h.finish(), || {
        let objects = (0..baseline.program.files.len())
            .map(|i| {
                if i == target_file {
                    variable.object_in(ctx, i, true)
                } else {
                    baseline.object_in(ctx, i, false)
                }
            })
            .collect();
        link(objects, driver)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::kernel::Kernel;
    use crate::model::{Driver, Function, SourceFile};
    use flit_toolchain::compiler::OptLevel;
    use flit_toolchain::flags::Switch;
    use flit_toolchain::object::Linkage;

    fn program() -> SimProgram {
        SimProgram::new(
            "build-test",
            vec![
                SourceFile::new(
                    "a.cpp",
                    vec![
                        Function::exported("f1", Kernel::DotMix { stride: 2 }),
                        Function::exported("f2", Kernel::NormScale),
                    ],
                ),
                SourceFile::new(
                    "b.cpp",
                    vec![Function::exported(
                        "g",
                        Kernel::HeatSmooth { steps: 3, r: 0.2 },
                    )],
                ),
            ],
        )
    }

    fn var_comp() -> Compilation {
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe])
    }

    #[test]
    fn whole_build_links_every_file_once() {
        let p = program();
        let b = Build::new(&p, Compilation::baseline());
        let exe = b.executable().unwrap();
        assert_eq!(exe.objects.len(), 2);
        assert!(exe.defining_object("f1").is_some());
        assert!(exe.defining_object("g").is_some());
    }

    #[test]
    fn file_mixed_selects_compilations_per_file() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::new(&p, var_comp());
        let exe = file_mixed_executable(
            &base,
            &var,
            &[0usize].into_iter().collect(),
            CompilerKind::Gcc,
        )
        .unwrap();
        assert_eq!(exe.objects[0].compilation, var_comp());
        assert_eq!(exe.objects[1].compilation, Compilation::baseline());
    }

    #[test]
    fn symbol_mixed_links_two_pic_copies() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::new(&p, var_comp());
        let picked: BTreeSet<String> = ["f1".to_string()].into();
        let exe = symbol_mixed_executable(&base, &var, 0, &picked, CompilerKind::Gcc).unwrap();
        assert_eq!(exe.objects.len(), 3);
        // f1 resolves to the variable copy (object 0), f2 to baseline
        // copy (object 1).
        let f1_obj = exe.defining_object("f1").unwrap();
        let f2_obj = exe.defining_object("f2").unwrap();
        assert_eq!(exe.objects[f1_obj].compilation.compiler, CompilerKind::Gcc);
        assert_eq!(exe.objects[f1_obj].compilation.opt, OptLevel::O3);
        assert_eq!(
            exe.objects[f2_obj].compilation,
            Compilation::baseline().with_pic()
        );
        assert!(exe.objects[f1_obj].pic && exe.objects[f2_obj].pic);
        // Both copies carry the full symbol set, complementarily strong.
        assert_eq!(exe.objects[0].linkage_of("f2"), Some(Linkage::Weak));
        assert_eq!(exe.objects[1].linkage_of("f1"), Some(Linkage::Weak));
    }

    #[test]
    fn symbol_mixed_runs_and_takes_only_picked_symbol_from_variable() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::new(&p, var_comp());
        let d = Driver::new("t", vec!["f1".into(), "f2".into(), "g".into()], 2, 32);

        let base_exe = base.executable().unwrap();
        let base_out = Engine::new(&p, &base_exe).run(&d, &[0.4]).unwrap();

        // Empty selection: everything effectively baseline → identical
        // output (pic only washes out extended precision, which the
        // baseline doesn't use).
        let none: BTreeSet<String> = BTreeSet::new();
        let exe0 = symbol_mixed_executable(&base, &var, 0, &none, CompilerKind::Gcc).unwrap();
        let out0 = Engine::new(&p, &exe0).run(&d, &[0.4]).unwrap();
        assert_eq!(out0.output, base_out.output);

        // Picking f1 changes the result; picking f2 changes it
        // differently (unique error).
        let pick1: BTreeSet<String> = ["f1".to_string()].into();
        let exe1 = symbol_mixed_executable(&base, &var, 0, &pick1, CompilerKind::Gcc).unwrap();
        let out1 = Engine::new(&p, &exe1).run(&d, &[0.4]).unwrap();
        assert_ne!(out1.output, base_out.output);

        let pick2: BTreeSet<String> = ["f2".to_string()].into();
        let exe2 = symbol_mixed_executable(&base, &var, 0, &pick2, CompilerKind::Gcc).unwrap();
        let out2 = Engine::new(&p, &exe2).run(&d, &[0.4]).unwrap();
        assert_ne!(out2.output, base_out.output);
        assert_ne!(out2.output, out1.output);
    }

    #[test]
    fn cached_builds_match_uncached_and_hit_the_memo() {
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let var = Build::tagged(&p, var_comp(), 1);
        let set: BTreeSet<usize> = [0usize].into_iter().collect();
        let ctx = BuildCtx::cached();

        let plain = file_mixed_executable(&base, &var, &set, CompilerKind::Gcc).unwrap();
        let c1 = file_mixed_executable_in(&base, &var, &set, CompilerKind::Gcc, &ctx).unwrap();
        let c2 = file_mixed_executable_in(&base, &var, &set, CompilerKind::Gcc, &ctx).unwrap();
        assert_eq!(c1.objects, plain.objects);
        assert_eq!(c1.hazard_seed, plain.hazard_seed);
        assert!(Arc::ptr_eq(&c1, &c2), "second request must hit the memo");

        let picked: BTreeSet<String> = ["f1".to_string()].into();
        let s_plain = symbol_mixed_executable(&base, &var, 0, &picked, CompilerKind::Gcc).unwrap();
        let s_cached =
            symbol_mixed_executable_in(&base, &var, 0, &picked, CompilerKind::Gcc, &ctx).unwrap();
        assert_eq!(s_cached.objects, s_plain.objects);

        let p_plain =
            pic_probe_executable_in(&base, &var, 0, CompilerKind::Gcc, &BuildCtx::uncached())
                .unwrap();
        let p_cached = pic_probe_executable_in(&base, &var, 0, CompilerKind::Gcc, &ctx).unwrap();
        assert_eq!(p_cached.objects, p_plain.objects);

        let w_plain = base.executable().unwrap();
        let w_cached = base.executable_in(&ctx).unwrap();
        assert_eq!(w_cached.objects, w_plain.objects);

        let stats = ctx.stats();
        assert_eq!(stats.link_memo_hits, 1);
        assert!(stats.object_cache_hits > 0, "{stats:?}");
        // Different symbol selections must not alias in the memo.
        let other: BTreeSet<String> = ["f2".to_string()].into();
        let s_other =
            symbol_mixed_executable_in(&base, &var, 0, &other, CompilerKind::Gcc, &ctx).unwrap();
        assert_ne!(s_other.objects, s_cached.objects);
    }

    #[test]
    fn pic_probe_washes_out_extended_precision_variability() {
        // A file whose only variability is extended-precision based
        // loses it under the -fPIC probe — the "cannot go deeper" case.
        let p = program();
        let base = Build::new(&p, Compilation::baseline());
        let ext = Build::new(
            &p,
            Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::FpMath387]),
        );
        let d = Driver::new("t", vec!["f1".into()], 2, 32);
        let base_out = Engine::new(&p, &base.executable().unwrap())
            .run(&d, &[0.4])
            .unwrap();
        // Without pic, file 0 under x87 differs…
        let mixed = file_mixed_executable(
            &base,
            &ext,
            &[0usize].into_iter().collect(),
            CompilerKind::Gcc,
        )
        .unwrap();
        let out = Engine::new(&p, &mixed).run(&d, &[0.4]).unwrap();
        assert_ne!(out.output, base_out.output);
        // …but the -fPIC probe reproduces the baseline bitwise.
        let probe =
            pic_probe_executable_in(&base, &ext, 0, CompilerKind::Gcc, &BuildCtx::uncached())
                .unwrap();
        let out_pic = Engine::new(&p, &probe).run(&d, &[0.4]).unwrap();
        assert_eq!(out_pic.output, base_out.output);
    }
}
