//! Synthetic-codebase generation: deterministic filler files and
//! functions that pad an application out to realistic statistics
//! (Table 3: MFEM has 97 source files, ~31 functions per file, 2,998
//! exported functions, 103,205 SLOC).
//!
//! Filler functions use [`Kernel::Benign`] flavors (exact arithmetic),
//! so they enlarge the Bisect *search space* without perturbing results
//! — exactly the role the thousands of uninvolved MFEM functions play
//! in the paper's searches.

use crate::kernel::Kernel;
use crate::model::{Driver, Function, SourceFile, Visibility};

/// Specification for filler generation.
#[derive(Debug, Clone)]
pub struct FillerSpec {
    /// Number of filler files to generate.
    pub files: usize,
    /// Mean functions per file.
    pub funcs_per_file: usize,
    /// Fraction (per mille) of filler functions with internal linkage.
    pub static_per_mille: u32,
    /// Mean modeled SLOC per function.
    pub sloc_per_func: u32,
    /// Seed for the deterministic generator.
    pub seed: u64,
    /// Name prefix for generated files/symbols.
    pub prefix: String,
}

impl Default for FillerSpec {
    fn default() -> Self {
        FillerSpec {
            files: 10,
            funcs_per_file: 30,
            static_per_mille: 150,
            sloc_per_func: 30,
            seed: 0x5EED,
            prefix: "gen".into(),
        }
    }
}

/// A tiny deterministic PRNG (splitmix64) — filler structure must be
/// identical on every run and platform.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// Next raw value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` via Lemire's widening-multiply map
    /// (`(x * bound) >> 64`): rejection-free and, unlike the previous
    /// `% bound`, free of modulo bias for bounds that do not divide
    /// 2^64. Note this changes the value stream for any given seed.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generate filler source files per the spec.
pub fn filler_files(spec: &FillerSpec) -> Vec<SourceFile> {
    let mut rng = SplitMix::new(spec.seed);
    let mut files = Vec::with_capacity(spec.files);
    for fi in 0..spec.files {
        let jitter = rng.below(7) as i64 - 3;
        let nfuncs = (spec.funcs_per_file as i64 + jitter).max(1) as usize;
        let mut functions = Vec::with_capacity(nfuncs);
        for gi in 0..nfuncs {
            let name = format!("{}_{fi:03}_{gi:02}", spec.prefix);
            let flavor = rng.below(7) as u8;
            let is_static = rng.below(1000) < spec.static_per_mille as u64;
            let sloc_jitter = rng.below(21) as i64 - 10;
            let sloc = (spec.sloc_per_func as i64 + sloc_jitter).max(4) as u32;
            let mut f = if is_static {
                Function::local(&name, Kernel::Benign { flavor })
            } else {
                Function::exported(&name, Kernel::Benign { flavor })
            };
            // Short intra-file call chains for realistic call graphs:
            // every third function calls its predecessor (statics may
            // only be called within the file, which this satisfies).
            if gi > 0 && gi % 3 == 0 {
                let prev = format!("{}_{fi:03}_{:02}", spec.prefix, gi - 1);
                f = f.with_calls(vec![prev]);
            }
            // Statics must be reachable from an exported function in the
            // same file to matter; chains above handle that when they
            // occur — otherwise they model dead code, which real
            // codebases have too.
            f = f.with_sloc(sloc);
            if rng.below(5) == 0 {
                f = f.inlinable();
            }
            functions.push(f);
        }
        files.push(SourceFile::new(
            format!("{}/{}_{fi:03}.cpp", spec.prefix, spec.prefix),
            functions,
        ));
    }
    files
}

/// The FP-sensitive kernels a fuzz campaign may plant. The menu is
/// restricted to kernels whose sensitivity survives `-fPIC` (FMA,
/// reassociation, reciprocal math — not x87 extended precision), so a
/// planted site is findable at *symbol* granularity, never capped at
/// `file_level_only`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlantKernel {
    /// [`Kernel::DotMix`]: FMA + reassociation sensitive.
    Dot,
    /// [`Kernel::MatVecMix`]: FMA + reassociation sensitive.
    MatVec,
    /// [`Kernel::Rank1Mix`]: FMA + reassociation sensitive (Finding 2).
    Rank1,
    /// [`Kernel::NormScale`]: reassociation sensitive.
    Norm,
    /// [`Kernel::PolyHorner`]: FMA sensitive.
    Poly,
    /// [`Kernel::ChaoticAmplify`]: FMA sensitive, and *amplifies*
    /// incoming differences. `HeatSmooth` is deliberately absent from
    /// the plant menu: smoothing is contractive, so a one-ulp FMA
    /// divergence planted in one round can be absorbed by the next
    /// round's stencil — a non-persistent signal no exact oracle can
    /// key on.
    Chaotic,
    /// [`Kernel::CgSolve`]: sensitive to everything, iteration-path
    /// amplified (Finding 1).
    Cg,
    /// [`Kernel::DivScan`]: reciprocal-math sensitive only.
    Div,
}

impl PlantKernel {
    /// Every plantable kernel.
    pub const ALL: [PlantKernel; 8] = [
        PlantKernel::Dot,
        PlantKernel::MatVec,
        PlantKernel::Rank1,
        PlantKernel::Norm,
        PlantKernel::Poly,
        PlantKernel::Chaotic,
        PlantKernel::Cg,
        PlantKernel::Div,
    ];

    /// Instantiate with parameters drawn from safe menus — varied per
    /// site so two sites planting the same kernel still contribute
    /// decorrelated errors (the unique-error assumption).
    pub fn instantiate(self, rng: &mut SplitMix) -> Kernel {
        match self {
            PlantKernel::Dot => Kernel::DotMix {
                stride: 2 + rng.below(5) as usize,
            },
            PlantKernel::MatVec => Kernel::MatVecMix {
                n: 6 + rng.below(6) as usize,
            },
            PlantKernel::Rank1 => Kernel::Rank1Mix {
                // n in {6, 7}: >= 6 keeps the dot products long enough
                // that the whole update almost never rounds identically
                // under an FMA pair (n = 4 instances were bitwise-neutral
                // on ~40 % of states), while < 8 keeps them under the
                // W4 vectorization threshold (len >= 2 lanes), so the
                // kernel stays bitwise-invariant under reassociation-only
                // pairs — Rank1's hit tables need one answer per pair,
                // not one per draw. Alphas are non-dyadic so the scale
                // multiply always rounds.
                n: 6 + rng.below(2) as usize,
                alpha: 0.35 + 0.07 * rng.below(5) as f64,
            },
            PlantKernel::Norm => Kernel::NormScale,
            PlantKernel::Poly => Kernel::PolyHorner {
                degree: 5 + rng.below(6) as usize,
            },
            PlantKernel::Chaotic => Kernel::ChaoticAmplify {
                // Strictly inside the chaotic regime (> 2.57), so the
                // per-step FMA rounding difference grows instead of
                // washing out across driver rounds.
                lambda: 2.61 + 0.12 * rng.below(4) as f64,
                steps: 3 + rng.below(3) as usize,
            },
            PlantKernel::Cg => Kernel::CgSolve {
                n: 8 + rng.below(8) as usize,
                tol: 1e-10,
                cond: 1e4,
            },
            PlantKernel::Div => Kernel::DivScan,
        }
    }
}

/// How a planted kernel is wired into the codebase — each shape
/// exercises a different binding rule of the engine/linker model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlantShape {
    /// The driver calls the exported kernel function directly.
    ExportedEntry,
    /// An exported benign wrapper calls a same-file exported
    /// *inlinable* kernel: non-PIC builds may inline the call, `-fPIC`
    /// symbol search interposes it. The kernel symbol takes the blame.
    ExportedInlinable,
    /// An exported benign wrapper calls a same-file *static* kernel:
    /// the static binds to its caller's object, so the wrapper symbol
    /// takes the blame at symbol granularity.
    StaticBehindWrapper,
    /// A benign entry function in its own file calls the exported
    /// kernel across files: only the kernel's file may be blamed.
    CrossFileChain,
}

impl PlantShape {
    /// Every plantable shape.
    pub(crate) const ALL: [PlantShape; 4] = [
        PlantShape::ExportedEntry,
        PlantShape::ExportedInlinable,
        PlantShape::StaticBehindWrapper,
        PlantShape::CrossFileChain,
    ];
}

/// One planted blame site, recorded as ground truth at generation time.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedSite {
    /// File holding the sensitive kernel body.
    pub file_id: usize,
    /// The symbol the driver's entry list calls for this site.
    pub entry: String,
    /// The exported symbol Symbol Bisect must blame when the site's
    /// kernel feels the environment difference.
    pub blamed_symbol: String,
    /// Which kernel was planted.
    pub kernel: PlantKernel,
    /// How it was wired in.
    pub shape: PlantShape,
}

/// Specification for a codebase with planted blame sets. Shrinkable:
/// the fuzz minimizer drops filler files, drops sites, and simplifies
/// kernels/shapes by rewriting this spec and re-planting.
#[derive(Debug, Clone)]
pub struct PlantedSpec {
    /// Benign filler surrounding the planted sites.
    pub filler: FillerSpec,
    /// The sites to plant, in order. Each gets its own source file.
    pub sites: Vec<(PlantKernel, PlantShape)>,
    /// Seed for site parameters (kernel menus, driver geometry).
    pub seed: u64,
}

/// A generated codebase plus its ground truth.
#[derive(Debug, Clone)]
pub struct PlantedCodebase {
    /// The program: filler files first, then one or two files per site,
    /// then one environment-invariant amplifier file that keeps each
    /// site's divergence observable at the output.
    pub program: crate::model::SimProgram,
    /// A driver whose entries reach every planted site (and a filler
    /// function, so reachability scoping is exercised). Each site entry
    /// is followed by the amplifier entry.
    pub driver: Driver,
    /// Ground truth, in site order.
    pub sites: Vec<PlantedSite>,
}

/// Generate a codebase per the spec. Deterministic in the spec.
pub fn plant(spec: &PlantedSpec) -> PlantedCodebase {
    let prefix = spec.filler.prefix.clone();
    let mut files = filler_files(&spec.filler);
    let mut rng = SplitMix::new(spec.seed ^ 0x5EED_F0ED_5EED_F0ED);
    let mut sites = Vec::with_capacity(spec.sites.len());
    let mut entries = Vec::new();

    // One reachable filler entry keeps the benign closure live, so the
    // oracle also checks that bisect/lint *don't* blame filler.
    if let Some(f) = files
        .iter()
        .flat_map(|f| &f.functions)
        .find(|f| f.visibility == Visibility::Exported)
    {
        entries.push(f.name.clone());
    }

    for (i, &(kernel, shape)) in spec.sites.iter().enumerate() {
        let kname = format!("{prefix}_site{i:02}_kern");
        let wname = format!("{prefix}_site{i:02}_wrap");
        let k = kernel.instantiate(&mut rng);
        let (site_functions, entry, blamed) = match shape {
            PlantShape::ExportedEntry => (
                vec![Function::exported(&kname, k)],
                kname.clone(),
                kname.clone(),
            ),
            PlantShape::ExportedInlinable => (
                vec![
                    Function::exported(&wname, Kernel::Benign { flavor: 1 })
                        .with_calls(vec![kname.clone()]),
                    Function::exported(&kname, k).inlinable(),
                ],
                wname.clone(),
                kname.clone(),
            ),
            PlantShape::StaticBehindWrapper => (
                vec![
                    Function::exported(&wname, Kernel::Benign { flavor: 2 })
                        .with_calls(vec![kname.clone()]),
                    Function::local(&kname, k),
                ],
                wname.clone(),
                wname.clone(),
            ),
            PlantShape::CrossFileChain => (
                vec![Function::exported(&kname, k)],
                format!("{prefix}_site{i:02}_entry"),
                kname.clone(),
            ),
        };
        let file_id = files.len();
        files.push(SourceFile::new(
            format!("{prefix}/site_{i:02}.cpp"),
            site_functions,
        ));
        if shape == PlantShape::CrossFileChain {
            // The benign hop lives in its own file; it must never be
            // blamed.
            files.push(SourceFile::new(
                format!("{prefix}/site_{i:02}_entry.cpp"),
                vec![Function::exported(&entry, Kernel::Benign { flavor: 4 })
                    .with_calls(vec![kname.clone()])],
            ));
        }
        entries.push(entry.clone());
        entries.push(format!("{prefix}_amp"));
        sites.push(PlantedSite {
            file_id,
            entry,
            blamed_symbol: blamed,
            kernel,
            shape,
        });
    }

    // An exact chaotic amplifier runs after every site entry. It is
    // environment-invariant (plain arithmetic only, so Bisect never
    // blames it), but it stretches whatever one-ulp difference the
    // preceding site just produced to macroscopic scale before the next
    // kernel runs. Without it a later contractive or overwriting kernel
    // (CgSolve's converge-to-tolerance, Rank1Mix's residual rewrite)
    // can absorb an earlier site's divergence, and the recorded ground
    // truth would overstate the observable blame set.
    files.push(SourceFile::new(
        format!("{prefix}/amplifier.cpp"),
        vec![Function::exported(
            format!("{prefix}_amp"),
            Kernel::AmplifyExact {
                lambda: 2.9,
                steps: 80,
            },
        )],
    ));

    let state_size = 48 + 16 * rng.below(3) as usize;
    // Twelve rounds, not two: a single kernel evaluation under an FP
    // environment pair can round identically by chance (Rank1Mix lands
    // bitwise-equal on ~11 % of random states under pure-FMA pairs).
    // The amplifier scrambles the state between rounds, so each round
    // is an independent chance for the planted kernel to express the
    // difference: per-site miss probability drops to ~0.11^12 ≈ 3e-12,
    // which keeps every planted site observable — the property the
    // oracle's exact found-set comparison relies on.
    let driver = Driver::new(format!("{prefix}_drv"), entries, 12, state_size);
    let program = crate::model::SimProgram::new(format!("{prefix}_app"), files);
    PlantedCodebase {
        program,
        driver,
        sites,
    }
}

/// A random spec for one fuzz seed: small filler (a few files), one to
/// three planted sites with seed-chosen kernels and shapes. Symbol and
/// file names embed the seed, so structurally distinct seeds never
/// share a program fingerprint (which keys build caches and journals).
pub fn random_planted(seed: u64) -> PlantedSpec {
    let mut rng = SplitMix::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFACE);
    let prefix = format!("fz{seed:06x}");
    let filler = FillerSpec {
        files: 3 + rng.below(5) as usize,
        funcs_per_file: 6 + rng.below(8) as usize,
        static_per_mille: 150,
        sloc_per_func: 30,
        seed: rng.next_u64(),
        prefix,
    };
    let nsites = 1 + rng.below(3) as usize;
    let sites = (0..nsites)
        .map(|_| {
            (
                PlantKernel::ALL[rng.below(PlantKernel::ALL.len() as u64) as usize],
                PlantShape::ALL[rng.below(PlantShape::ALL.len() as u64) as usize],
            )
        })
        .collect();
    PlantedSpec {
        filler,
        sites,
        seed: rng.next_u64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimProgram;

    /// Count functions by visibility in a set of files.
    fn count_by_visibility(files: &[SourceFile]) -> (usize, usize) {
        let mut exported = 0;
        let mut statics = 0;
        for file in files {
            for f in &file.functions {
                match f.visibility {
                    Visibility::Exported => exported += 1,
                    Visibility::Static => statics += 1,
                }
            }
        }
        (exported, statics)
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = FillerSpec::default();
        let a = filler_files(&spec);
        let b = filler_files(&spec);
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.name, fb.name);
            assert_eq!(fa.functions.len(), fb.functions.len());
            for (ga, gb) in fa.functions.iter().zip(&fb.functions) {
                assert_eq!(ga.name, gb.name);
                assert_eq!(ga.sloc, gb.sloc);
            }
        }
    }

    #[test]
    fn seed_changes_structure() {
        let a = filler_files(&FillerSpec::default());
        let b = filler_files(&FillerSpec {
            seed: 999,
            ..FillerSpec::default()
        });
        let funcs_a: usize = a.iter().map(|f| f.functions.len()).sum();
        let funcs_b: usize = b.iter().map(|f| f.functions.len()).sum();
        // Same scale, different detail.
        assert!(funcs_a.abs_diff(funcs_b) < 100);
        let sloc_a: u32 = a.iter().map(super::super::model::SourceFile::sloc).sum();
        let sloc_b: u32 = b.iter().map(super::super::model::SourceFile::sloc).sum();
        assert_ne!(sloc_a, sloc_b);
    }

    #[test]
    fn filler_forms_a_valid_program() {
        let files = filler_files(&FillerSpec {
            files: 20,
            ..FillerSpec::default()
        });
        let p = SimProgram::new("filler", files);
        assert!(p.total_functions() > 400);
        let (exported, statics) = count_by_visibility(&p.files);
        assert!(exported > statics, "most filler is exported");
        assert!(statics > 0, "some filler is static");
    }

    #[test]
    fn filler_scale_tracks_spec() {
        let spec = FillerSpec {
            files: 50,
            funcs_per_file: 31,
            ..FillerSpec::default()
        };
        let files = filler_files(&spec);
        assert_eq!(files.len(), 50);
        let total: usize = files.iter().map(|f| f.functions.len()).sum();
        let mean = total as f64 / 50.0;
        assert!((28.0..34.0).contains(&mean), "mean funcs/file = {mean}");
    }

    #[test]
    fn splitmix_basics() {
        let mut r = SplitMix::new(1);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, b);
        assert_eq!(SplitMix::new(1).next_u64(), a);
        for _ in 0..100 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(10) < 10);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn planting_is_deterministic_and_valid() {
        for seed in 0..25u64 {
            let spec = random_planted(seed);
            let a = plant(&spec);
            let b = plant(&spec);
            // SimProgram::new validated symbols/calls, or we'd have
            // panicked. Ground truth must be reproducible.
            assert_eq!(a.sites, b.sites, "seed {seed}");
            assert_eq!(a.program.fingerprint(), b.program.fingerprint());
            assert_eq!(a.driver.entries, b.driver.entries);
            assert!(!a.sites.is_empty() && a.sites.len() <= 3);
            for site in &a.sites {
                // The blamed symbol must be exported (Symbol Bisect
                // only interposes exported symbols) and live in the
                // recorded file or, for wrappers, alongside it.
                let (fid, fi) = a.program.lookup(&site.blamed_symbol).unwrap();
                assert_eq!(fid, site.file_id, "seed {seed}");
                let f = &a.program.files[fid].functions[fi];
                assert_eq!(f.visibility, Visibility::Exported, "seed {seed}");
                assert!(a.driver.entries.contains(&site.entry));
            }
        }
    }

    #[test]
    fn shapes_wire_the_documented_bindings() {
        let spec = PlantedSpec {
            filler: FillerSpec {
                files: 2,
                funcs_per_file: 4,
                prefix: "shape".into(),
                ..FillerSpec::default()
            },
            sites: vec![
                (PlantKernel::Dot, PlantShape::ExportedEntry),
                (PlantKernel::Poly, PlantShape::ExportedInlinable),
                (PlantKernel::MatVec, PlantShape::StaticBehindWrapper),
                (PlantKernel::Div, PlantShape::CrossFileChain),
            ],
            seed: 7,
        };
        let planted = plant(&spec);
        let p = &planted.program;
        let by_shape = |s: PlantShape| {
            planted
                .sites
                .iter()
                .find(|site| site.shape == s)
                .unwrap()
                .clone()
        };
        // ExportedEntry: driver calls the kernel symbol itself.
        let s = by_shape(PlantShape::ExportedEntry);
        assert_eq!(s.entry, s.blamed_symbol);
        // ExportedInlinable: kernel is exported + inlinable, blamed.
        let s = by_shape(PlantShape::ExportedInlinable);
        let (_, fi) = p.lookup(&s.blamed_symbol).unwrap();
        assert!(p.files[s.file_id].functions[fi].inlinable);
        assert_ne!(s.entry, s.blamed_symbol);
        // StaticBehindWrapper: the kernel is static; the wrapper takes
        // the blame.
        let s = by_shape(PlantShape::StaticBehindWrapper);
        let static_kern = p.files[s.file_id]
            .functions
            .iter()
            .find(|f| f.visibility == Visibility::Static)
            .unwrap();
        assert!(static_kern.name.ends_with("_kern"));
        assert!(s.blamed_symbol.ends_with("_wrap"));
        // CrossFileChain: the entry lives in a different file than the
        // blamed kernel.
        let s = by_shape(PlantShape::CrossFileChain);
        let (entry_file, _) = p.lookup(&s.entry).unwrap();
        assert_ne!(entry_file, s.file_id);
    }

    #[test]
    fn seeds_produce_distinct_fingerprints() {
        // Fingerprints key build caches and checkpoint journals; two
        // seeds must never collide structurally.
        let mut prints = std::collections::BTreeSet::new();
        for seed in 0..50u64 {
            assert!(prints.insert(plant(&random_planted(seed)).program.fingerprint()));
        }
    }

    #[test]
    fn below_uses_lemire_widening_multiply() {
        // Pins the sampling map: `below(b)` must equal
        // `(next_u64() as u128 * b) >> 64`, the scaled high half of the
        // raw draw — not `next_u64() % b`, which over-weights small
        // residues for bounds that do not divide 2^64. Fails on the
        // pre-fix modulo stream.
        let mut raw = SplitMix::new(42);
        let mut sampled = SplitMix::new(42);
        for bound in [1u64, 3, 7, 10, 21, 1000, u64::MAX / 2 + 1] {
            let x = raw.next_u64();
            let expect = ((u128::from(x) * u128::from(bound)) >> 64) as u64;
            assert_eq!(sampled.below(bound), expect, "bound {bound}");
        }
        // The high-half map preserves order: the top of the raw range
        // lands at bound-1, the bottom at 0.
        let mut r = SplitMix::new(7);
        for _ in 0..200 {
            assert!(r.below(13) < 13);
        }
    }
}
