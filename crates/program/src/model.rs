//! The program model: source files, functions, drivers.

use std::collections::{BTreeSet, HashMap, VecDeque};

use flit_toolchain::cache::RecipeHasher;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::object::{Linkage, ObjectFile, SymbolEntry};
use flit_toolchain::perf::KernelClass;
use serde::{Deserialize, Serialize};

use crate::kernel::Kernel;
use crate::sites::Injection;

/// Symbol visibility at the source level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Visibility {
    /// Globally exported (a strong symbol in the object file).
    Exported,
    /// `static` / internal linkage (a local symbol: invisible to the
    /// linker, not interposable, always "inlined" into its TU).
    Static,
}

/// One function: a kernel, its linkage properties, and its callees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Function {
    /// Unique (program-wide) symbol name.
    pub name: String,
    /// Linkage visibility.
    pub visibility: Visibility,
    /// Whether intra-TU callers may inline this function when the TU is
    /// compiled without `-fPIC`.
    pub inlinable: bool,
    /// The body.
    pub kernel: Kernel,
    /// Callee symbol names, invoked in order after the body runs.
    pub calls: Vec<String>,
    /// Modeled source lines (Table 3 statistics).
    pub sloc: u32,
    /// Work multiplier for the performance model (e.g. a mesh routine
    /// that moves far more data than its kernel's nominal cost).
    pub work_scale: f64,
    /// Active injection, if the injection pass has rewritten this
    /// function (`flit-inject`).
    pub injection: Option<Injection>,
}

impl Function {
    /// A plain exported function with defaults derived from the kernel.
    pub fn exported(name: impl Into<String>, kernel: Kernel) -> Self {
        Function {
            name: name.into(),
            visibility: Visibility::Exported,
            inlinable: false,
            kernel,
            calls: vec![],
            sloc: 18,
            work_scale: 1.0,
            injection: None,
        }
    }

    /// A `static` (local) function.
    pub fn local(name: impl Into<String>, kernel: Kernel) -> Self {
        Function {
            visibility: Visibility::Static,
            ..Function::exported(name, kernel)
        }
    }

    /// Builder: mark inlinable.
    pub fn inlinable(mut self) -> Self {
        self.inlinable = true;
        self
    }

    /// Builder: add callees.
    pub fn with_calls(mut self, calls: Vec<String>) -> Self {
        self.calls = calls;
        self
    }

    /// Builder: set modeled SLOC.
    pub fn with_sloc(mut self, sloc: u32) -> Self {
        self.sloc = sloc;
        self
    }

    /// Performance class of the body.
    pub fn class(&self) -> KernelClass {
        self.kernel.class()
    }
}

/// One source file (one translation unit).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SourceFile {
    /// File name (e.g. `linalg/densemat.cpp`).
    pub name: String,
    /// The functions defined in this file.
    pub functions: Vec<Function>,
}

impl SourceFile {
    /// Create a file.
    pub fn new(name: impl Into<String>, functions: Vec<Function>) -> Self {
        SourceFile {
            name: name.into(),
            functions,
        }
    }

    /// Total modeled SLOC (functions plus a per-file header overhead).
    pub fn sloc(&self) -> u32 {
        12 + self.functions.iter().map(|f| f.sloc).sum::<u32>()
    }
}

/// A complete application: files, functions, and a symbol index.
#[derive(Debug, Clone)]
pub struct SimProgram {
    /// Program name.
    pub name: String,
    /// The source files.
    pub files: Vec<SourceFile>,
    index: HashMap<String, (usize, usize)>,
    /// Structural fingerprint: everything object files can depend on
    /// (file names, symbol names, visibility). Function *bodies* are
    /// excluded on purpose — the simulated compiler never encodes them
    /// into objects, so structurally identical programs (e.g. a clean
    /// and an injected copy) may share cached build artifacts.
    fingerprint: u64,
}

impl SimProgram {
    /// Build a program, validating symbol uniqueness.
    ///
    /// # Panics
    /// If two functions share a name, or a call references an undefined
    /// symbol, or a `static` function is called from another file.
    pub fn new(name: impl Into<String>, files: Vec<SourceFile>) -> Self {
        let mut index = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                let prev = index.insert(f.name.clone(), (fi, gi));
                assert!(prev.is_none(), "duplicate symbol `{}`", f.name);
            }
        }
        let mut h = RecipeHasher::new();
        for file in &files {
            h.write_str(&file.name);
            for f in &file.functions {
                h.write_str(&f.name);
                h.write_u64(match f.visibility {
                    Visibility::Exported => 0,
                    Visibility::Static => 1,
                });
            }
        }
        let prog = SimProgram {
            name: name.into(),
            files,
            index,
            fingerprint: h.finish(),
        };
        // Validate the call graph.
        for (fi, file) in prog.files.iter().enumerate() {
            for f in &file.functions {
                for callee in &f.calls {
                    let (cfi, cgi) = *prog
                        .index
                        .get(callee)
                        .unwrap_or_else(|| panic!("`{}` calls undefined `{callee}`", f.name));
                    let target = &prog.files[cfi].functions[cgi];
                    assert!(
                        target.visibility == Visibility::Exported || cfi == fi,
                        "`{}` calls static `{callee}` across files",
                        f.name
                    );
                }
            }
        }
        prog
    }

    /// The structural fingerprint used as the build-cache key component
    /// for this program (see the field docs for what it covers).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Look up a symbol: `(file index, function index)`.
    pub fn lookup(&self, symbol: &str) -> Option<(usize, usize)> {
        self.index.get(symbol).copied()
    }

    /// The function for a symbol.
    pub fn function(&self, symbol: &str) -> Option<&Function> {
        let (fi, gi) = self.lookup(symbol)?;
        Some(&self.files[fi].functions[gi])
    }

    /// Mutable access to a function (used by the injection pass).
    pub fn function_mut(&mut self, symbol: &str) -> Option<&mut Function> {
        let (fi, gi) = self.lookup(symbol)?;
        Some(&mut self.files[fi].functions[gi])
    }

    /// Total number of functions.
    pub fn total_functions(&self) -> usize {
        self.files.iter().map(|f| f.functions.len()).sum()
    }

    /// Number of exported functions (the paper's "functions which are
    /// exported symbols", Table 3).
    pub fn exported_functions(&self) -> usize {
        self.files
            .iter()
            .flat_map(|f| &f.functions)
            .filter(|f| f.visibility == Visibility::Exported)
            .count()
    }

    /// Total modeled source lines of code.
    pub fn total_sloc(&self) -> u32 {
        self.files.iter().map(SourceFile::sloc).sum()
    }

    /// Exported symbol names defined in file `file_id`, sorted — the
    /// search space of Symbol Bisect for that file.
    pub fn exported_symbols_of_file(&self, file_id: usize) -> Vec<String> {
        let mut v: Vec<String> = self.files[file_id]
            .functions
            .iter()
            .filter(|f| f.visibility == Visibility::Exported)
            .map(|f| f.name.clone())
            .collect();
        v.sort();
        v
    }

    /// The exported functions that (transitively) call `symbol` — used
    /// to classify "indirect finds" in the injection study (§3.5: "the
    /// source function is not a visible symbol but Bisect was able to
    /// find the visible symbol which used the injected function").
    pub fn visible_callers(&self, symbol: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .files
            .iter()
            .flat_map(|file| &file.functions)
            .filter(|f| {
                f.visibility == Visibility::Exported && self.reachable(&f.calls).contains(symbol)
            })
            .map(|f| f.name.clone())
            .collect();
        out.sort();
        out
    }

    /// Symbols reachable from `entries` over *all* calls (bound or
    /// interposed — any call executes its callee under some
    /// environment). Functions outside this set never run, so they
    /// cannot contribute variability.
    pub fn reachable(&self, entries: &[String]) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<&str> = entries.iter().map(String::as_str).collect();
        while let Some(symbol) = queue.pop_front() {
            let Some(func) = self.function(symbol) else {
                continue;
            };
            if !seen.insert(func.name.clone()) {
                continue;
            }
            for callee in &func.calls {
                if !seen.contains(callee) {
                    queue.push_back(callee);
                }
            }
        }
        seen
    }

    /// Compile one file under a compilation, producing its object file.
    pub(crate) fn compile_file(&self, file_id: usize, comp: &Compilation, pic: bool) -> ObjectFile {
        let file = &self.files[file_id];
        ObjectFile {
            file_id,
            file_name: file.name.clone(),
            compilation: comp.clone(),
            pic,
            build_tag: 0,
            symbols: file
                .functions
                .iter()
                .map(|f| SymbolEntry {
                    name: f.name.clone(),
                    linkage: match f.visibility {
                        Visibility::Exported => Linkage::Strong,
                        Visibility::Static => Linkage::Local,
                    },
                })
                .collect(),
        }
    }
}

// Manual impls: `index` and `fingerprint` are derived state, so the
// wire carries `{name, files}` only and deserialization rebuilds (and
// re-validates) through [`SimProgram::new`] — a deserialized program is
// structurally identical to the original, fingerprint included.
impl Serialize for SimProgram {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("files".to_string(), self.files.to_value()),
        ])
    }
}

impl Deserialize for SimProgram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let name = String::from_value(v.field("name")?)?;
        let files = Vec::<SourceFile>::from_value(v.field("files")?)?;
        Ok(SimProgram::new(name, files))
    }
}

/// How a test drives the program: the entry sequence `main()` performs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Driver {
    /// Driver (test) name; also salts the ABI-crash model the way real
    /// crash sites depend on the exercised code path.
    pub name: String,
    /// Exported symbols called by `main()`, in order, each round.
    pub entries: Vec<String>,
    /// How many rounds of the entry sequence to run (the time loop).
    pub rounds: usize,
    /// State vector length (the mesh/grid size).
    pub state_size: usize,
    /// Domain-decomposition factor: the number of MPI ranks/threads the
    /// run is decomposed over. Changing it changes the grid density and
    /// therefore the results (§3.6), but any fixed value is
    /// run-to-run deterministic.
    pub decomposition: usize,
}

impl Driver {
    /// A sequential driver.
    pub fn new(
        name: impl Into<String>,
        entries: Vec<String>,
        rounds: usize,
        state_size: usize,
    ) -> Self {
        Driver {
            name: name.into(),
            entries,
            rounds,
            state_size,
            decomposition: 1,
        }
    }

    /// Same driver decomposed over `ranks` domains.
    pub fn with_decomposition(mut self, ranks: usize) -> Self {
        self.decomposition = ranks.max(1);
        self
    }

    /// Build the initial state from the FLiT test input. This runs in
    /// the harness (outside the compiled program), so it uses plain
    /// arithmetic and is environment-independent.
    ///
    /// Domain decomposition adds ghost-layer padding per rank, changing
    /// the effective grid size — the mechanism by which "increasing the
    /// parallelism changed the result" in §3.6.
    pub fn init_state(&self, input: &[f64]) -> Vec<f64> {
        let pad = (self.decomposition - 1) * 2;
        let n = self.state_size + pad;
        (0..n)
            .map(|i| {
                let base = if input.is_empty() {
                    0.5
                } else {
                    input[i % input.len()].clamp(0.0, 1.0)
                };
                let ripple = ((i * 37 + 11) % 101) as f64 / 101.0;
                0.15 + 0.7 * (0.5 * base + 0.5 * ripple)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> SimProgram {
        SimProgram::new(
            "tiny",
            vec![
                SourceFile::new(
                    "a.cpp",
                    vec![
                        Function::exported("alpha", Kernel::DotMix { stride: 3 })
                            .with_calls(vec!["helper".into(), "beta".into()]),
                        Function::local("helper", Kernel::Benign { flavor: 2 }),
                    ],
                ),
                SourceFile::new(
                    "b.cpp",
                    vec![Function::exported("beta", Kernel::NormScale).with_sloc(30)],
                ),
            ],
        )
    }

    #[test]
    fn lookup_and_counts() {
        let p = tiny_program();
        assert_eq!(p.lookup("alpha"), Some((0, 0)));
        assert_eq!(p.lookup("beta"), Some((1, 0)));
        assert_eq!(p.lookup("nope"), None);
        assert_eq!(p.total_functions(), 3);
        assert_eq!(p.exported_functions(), 2);
        assert!(p.total_sloc() > 50);
    }

    #[test]
    fn exported_symbols_of_file_excludes_statics() {
        let p = tiny_program();
        assert_eq!(p.exported_symbols_of_file(0), vec!["alpha".to_string()]);
    }

    #[test]
    fn visible_callers_resolves_transitively() {
        let p = tiny_program();
        assert_eq!(p.visible_callers("helper"), vec!["alpha".to_string()]);
        assert_eq!(p.visible_callers("beta"), vec!["alpha".to_string()]);
    }

    /// a.cpp: exported `wrap` → static `hot` (ZeroGate); exported
    /// `cold` (UbSwap). b.cpp: exported `cross` calls `wrap`.
    fn program() -> SimProgram {
        SimProgram::new(
            "hazard-test",
            vec![
                SourceFile::new(
                    "a.cpp",
                    vec![
                        Function::exported("wrap", Kernel::Benign { flavor: 0 })
                            .with_calls(vec!["hot".into()]),
                        Function::local("hot", Kernel::ZeroGate { boost: 2.0 }),
                        Function::exported("cold", Kernel::UbSwap),
                    ],
                ),
                SourceFile::new(
                    "b.cpp",
                    vec![Function::exported("cross", Kernel::Benign { flavor: 2 })
                        .with_calls(vec!["wrap".into()])],
                ),
            ],
        )
    }

    #[test]
    fn reachability_walks_all_calls() {
        let r = program().reachable(&["cross".into()]);
        assert!(r.contains("cross") && r.contains("wrap"));
        assert!(r.contains("hot"), "transitively via wrap");
        assert!(!r.contains("cold"));
    }

    #[test]
    #[should_panic(expected = "duplicate symbol")]
    fn duplicate_symbols_rejected() {
        SimProgram::new(
            "dup",
            vec![SourceFile::new(
                "a.cpp",
                vec![
                    Function::exported("f", Kernel::DivScan),
                    Function::exported("f", Kernel::NormScale),
                ],
            )],
        );
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn undefined_callee_rejected() {
        SimProgram::new(
            "bad",
            vec![SourceFile::new(
                "a.cpp",
                vec![Function::exported("f", Kernel::DivScan).with_calls(vec!["ghost".into()])],
            )],
        );
    }

    #[test]
    #[should_panic(expected = "across files")]
    fn cross_file_static_call_rejected() {
        SimProgram::new(
            "bad2",
            vec![
                SourceFile::new(
                    "a.cpp",
                    vec![Function::local("s", Kernel::Benign { flavor: 0 })],
                ),
                SourceFile::new(
                    "b.cpp",
                    vec![Function::exported("f", Kernel::DivScan).with_calls(vec!["s".into()])],
                ),
            ],
        );
    }

    #[test]
    fn compile_file_maps_visibility_to_linkage() {
        let p = tiny_program();
        let comp = Compilation::baseline();
        let obj = p.compile_file(0, &comp, false);
        assert_eq!(obj.file_name, "a.cpp");
        assert_eq!(obj.linkage_of("alpha"), Some(Linkage::Strong));
        assert_eq!(obj.linkage_of("helper"), Some(Linkage::Local));
        assert!(!obj.pic);
        let pic_obj = p.compile_file(0, &comp, true);
        assert!(pic_obj.pic);
    }

    #[test]
    fn driver_init_state_is_deterministic_and_bounded() {
        let d = Driver::new("t", vec!["alpha".into()], 2, 64);
        let s1 = d.init_state(&[0.25, 0.75]);
        let s2 = d.init_state(&[0.25, 0.75]);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 64);
        for &x in &s1 {
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn decomposition_changes_grid_density() {
        let d1 = Driver::new("t", vec![], 1, 64);
        let d24 = d1.clone().with_decomposition(24);
        let s1 = d1.init_state(&[0.5]);
        let s24 = d24.init_state(&[0.5]);
        assert_eq!(s1.len(), 64);
        assert_eq!(s24.len(), 64 + 46);
        assert_ne!(s1.len(), s24.len());
    }
}
