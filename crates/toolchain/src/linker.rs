//! The linker: symbol resolution, mixed-compilation executables, and the
//! ABI-compatibility hazard.
//!
//! Resolution rules (the ones FLiT Bisect exploits, §2.3):
//!
//! 1. More than one **strong** definition of a symbol → duplicate-symbol
//!    error.
//! 2. One strong definition → it wins over any number of weak ones.
//! 3. Only weak definitions → the linker keeps the first one it
//!    encounters (object order matters).
//!
//! The link **driver** matters twice: it selects the math library
//! (Intel links its vendor library), and mixing Intel objects into a
//! GNU-driven link (or vice versa) creates the ABI hazard that caused
//! ~20 % of the paper's Intel File Bisect runs to end in a segfault.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

use flit_fpsim::env::{FpEnv, MathLib};

use crate::compiler::CompilerKind;
use crate::object::{Linkage, ObjectFile};
use crate::perf::fnv1a;

/// Link-time errors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkError {
    /// Two strong definitions of the same symbol.
    DuplicateSymbol(String),
    /// No objects were provided.
    EmptyLink,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::DuplicateSymbol(s) => {
                write!(f, "duplicate strong symbol `{s}`")
            }
            LinkError::EmptyLink => write!(f, "no object files given to the linker"),
        }
    }
}

impl std::error::Error for LinkError {}

/// A linked executable: object files plus the global symbol resolution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Executable {
    /// The linked objects, in link order.
    pub objects: Vec<ObjectFile>,
    /// Global symbol → index of the defining object.
    pub globals: HashMap<String, usize>,
    /// The compiler driver that performed the link.
    pub driver: CompilerKind,
    /// Math library selected by the link step.
    pub mathlib: MathLib,
    /// Whether this link mixes Intel and GNU-family objects.
    pub abi_hazard: bool,
    /// Deterministic seed identifying this exact object mix (drives the
    /// crash decision so reruns reproduce).
    pub hazard_seed: u64,
}

/// Per-mille probability that a hazardous (Intel+GNU) mixed executable
/// segfaults at run time. Calibrated so that a File Bisect search of
/// ~30 links fails with probability ≈ 0.2, matching Table 2's 778/984
/// Intel File Bisect success rate.
const ABI_CRASH_PER_MILLE: u64 = 8;

impl Executable {
    /// The [`FpEnv`] of object `idx` inside this executable (math
    /// library comes from the link step).
    pub fn env_of_object(&self, idx: usize) -> FpEnv {
        let mut env = self.objects[idx].compilation.fp_env();
        env.mathlib = self.mathlib;
        env
    }

    /// Index of the object defining `symbol` globally.
    pub fn defining_object(&self, symbol: &str) -> Option<usize> {
        self.globals.get(symbol).copied()
    }

    /// Deterministic ABI-hazard verdict: does running this executable
    /// (with the given salt — e.g. the test id) segfault?
    ///
    /// Real mixed-ABI crashes depend on which incompatible call paths
    /// the run actually exercises, which is why the same object mix can
    /// crash under one test and not another; the salt models that.
    pub fn crashes(&self, salt: u64) -> bool {
        if !self.abi_hazard {
            return false;
        }
        let h = self.hazard_seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
        h % 1000 < ABI_CRASH_PER_MILLE
    }
}

/// Whether a link mixing objects from `object_compilers` under the
/// given `driver` is ABI-hazardous: at least one Intel object combined
/// with at least one GNU-family object *or* a GNU-family driver (§2.3).
///
/// This is the single source of truth for the hazard model — [`link`]
/// applies it to decide [`Executable::abi_hazard`], and `flit-absint`
/// calls it to predict mixed-link crashes without building anything.
pub fn mixed_abi_hazard(object_compilers: &[CompilerKind], driver: CompilerKind) -> bool {
    let has_intel = object_compilers.contains(&CompilerKind::Icpc);
    let has_gnu =
        object_compilers.iter().any(|c| *c != CompilerKind::Icpc) || driver != CompilerKind::Icpc;
    has_intel && has_gnu
}

/// Link object files into an executable.
///
/// See the module docs for the resolution rules. The `driver` is the
/// compiler that performs the final link (FLiT links mixed bisection
/// binaries with the baseline's driver and forces a common C++ standard
/// library — §2.3).
pub fn link(objects: Vec<ObjectFile>, driver: CompilerKind) -> Result<Executable, LinkError> {
    if objects.is_empty() {
        return Err(LinkError::EmptyLink);
    }
    let mut globals: HashMap<String, usize> = HashMap::new();
    let mut strong: HashMap<String, usize> = HashMap::new();

    for (idx, obj) in objects.iter().enumerate() {
        for sym in &obj.symbols {
            match sym.linkage {
                Linkage::Local => {}
                Linkage::Strong => {
                    if strong.contains_key(&sym.name) {
                        return Err(LinkError::DuplicateSymbol(sym.name.clone()));
                    }
                    strong.insert(sym.name.clone(), idx);
                    globals.insert(sym.name.clone(), idx);
                }
                Linkage::Weak => {
                    // First weak wins, but only if no strong definition
                    // has been (or will be) seen; fix up below.
                    globals.entry(sym.name.clone()).or_insert(idx);
                }
            }
        }
    }
    // Strong definitions override weak ones regardless of order.
    for (name, idx) in &strong {
        globals.insert(name.clone(), *idx);
    }

    let compilers: Vec<CompilerKind> = objects.iter().map(|o| o.compilation.compiler).collect();
    let abi_hazard = mixed_abi_hazard(&compilers, driver);

    let mut seed_input = String::new();
    for o in &objects {
        seed_input.push_str(&format!(
            "{}:{}:{};",
            o.file_id,
            o.compilation.label(),
            o.pic
        ));
    }
    let hazard_seed = fnv1a(seed_input.as_bytes());

    let mathlib = if driver == CompilerKind::Icpc {
        MathLib::Vendor
    } else {
        MathLib::Reference
    };

    Ok(Executable {
        objects,
        globals,
        driver,
        mathlib,
        abi_hazard,
        hazard_seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compilation::Compilation;
    use crate::compiler::OptLevel;
    use crate::object::SymbolEntry;
    use std::collections::BTreeSet;

    impl Executable {
        /// The [`FpEnv`] governing the definition of `symbol`, or `None` if
        /// the symbol is not globally defined.
        fn env_for(&self, symbol: &str) -> Option<FpEnv> {
            let &idx = self.globals.get(symbol)?;
            Some(self.env_of_object(idx))
        }
    }

    fn obj(file_id: usize, compiler: CompilerKind, syms: &[(&str, Linkage)]) -> ObjectFile {
        ObjectFile {
            file_id,
            file_name: format!("file{file_id}.cpp"),
            compilation: Compilation::new(compiler, OptLevel::O2, vec![]),
            pic: false,
            build_tag: 0,
            symbols: syms
                .iter()
                .map(|(n, l)| SymbolEntry {
                    name: n.to_string(),
                    linkage: *l,
                })
                .collect(),
        }
    }

    #[test]
    fn empty_link_fails() {
        assert!(matches!(
            link(vec![], CompilerKind::Gcc),
            Err(LinkError::EmptyLink)
        ));
    }

    #[test]
    fn duplicate_strong_symbols_error() {
        let a = obj(0, CompilerKind::Gcc, &[("f", Linkage::Strong)]);
        let b = obj(1, CompilerKind::Gcc, &[("f", Linkage::Strong)]);
        match link(vec![a, b], CompilerKind::Gcc) {
            Err(LinkError::DuplicateSymbol(name)) => assert_eq!(name, "f"),
            other => panic!("expected duplicate-symbol error, got {other:?}"),
        }
    }

    #[test]
    fn strong_beats_weak_regardless_of_order() {
        let weak = obj(0, CompilerKind::Gcc, &[("f", Linkage::Weak)]);
        let strong = obj(1, CompilerKind::Gcc, &[("f", Linkage::Strong)]);
        // Weak first:
        let exe = link(vec![weak.clone(), strong.clone()], CompilerKind::Gcc).unwrap();
        assert_eq!(exe.defining_object("f"), Some(1));
        // Strong first:
        let exe = link(vec![strong, weak], CompilerKind::Gcc).unwrap();
        assert_eq!(exe.defining_object("f"), Some(0));
    }

    #[test]
    fn first_weak_wins_without_strong() {
        let a = obj(0, CompilerKind::Gcc, &[("f", Linkage::Weak)]);
        let b = obj(1, CompilerKind::Gcc, &[("f", Linkage::Weak)]);
        let exe = link(vec![a, b], CompilerKind::Gcc).unwrap();
        assert_eq!(exe.defining_object("f"), Some(0));
    }

    #[test]
    fn locals_are_invisible_to_resolution() {
        let a = obj(0, CompilerKind::Gcc, &[("f", Linkage::Local)]);
        let b = obj(1, CompilerKind::Gcc, &[("f", Linkage::Strong)]);
        let exe = link(vec![a, b], CompilerKind::Gcc).unwrap();
        assert_eq!(exe.defining_object("f"), Some(1));
        // A purely local symbol is not in the global map at all.
        let c = obj(0, CompilerKind::Gcc, &[("g", Linkage::Local)]);
        let exe = link(vec![c], CompilerKind::Gcc).unwrap();
        assert_eq!(exe.defining_object("g"), None);
        assert_eq!(exe.env_for("g"), None);
    }

    #[test]
    fn icpc_driver_links_vendor_mathlib() {
        let a = obj(0, CompilerKind::Icpc, &[("f", Linkage::Strong)]);
        let exe = link(vec![a], CompilerKind::Icpc).unwrap();
        assert_eq!(exe.mathlib, MathLib::Vendor);
        assert_eq!(exe.env_for("f").unwrap().mathlib, MathLib::Vendor);
        let b = obj(0, CompilerKind::Gcc, &[("f", Linkage::Strong)]);
        let exe = link(vec![b], CompilerKind::Gcc).unwrap();
        assert_eq!(exe.mathlib, MathLib::Reference);
    }

    #[test]
    fn pure_gnu_links_never_crash() {
        let a = obj(0, CompilerKind::Gcc, &[("f", Linkage::Strong)]);
        let b = obj(1, CompilerKind::Clang, &[("g", Linkage::Strong)]);
        let exe = link(vec![a, b], CompilerKind::Gcc).unwrap();
        assert!(!exe.abi_hazard);
        for salt in 0..10_000 {
            assert!(!exe.crashes(salt));
        }
    }

    #[test]
    fn intel_gnu_mix_is_hazardous_and_sometimes_crashes() {
        let a = obj(0, CompilerKind::Icpc, &[("f", Linkage::Strong)]);
        let b = obj(1, CompilerKind::Gcc, &[("g", Linkage::Strong)]);
        let exe = link(vec![a, b], CompilerKind::Gcc).unwrap();
        assert!(exe.abi_hazard);
        let crashes = (0..100_000u64).filter(|&s| exe.crashes(s)).count();
        // ~0.8% of runs crash; allow wide slack.
        assert!(
            (200..2500).contains(&crashes),
            "crash count {crashes} out of calibration"
        );
    }

    #[test]
    fn crash_verdict_is_deterministic() {
        let a = obj(0, CompilerKind::Icpc, &[("f", Linkage::Strong)]);
        let b = obj(1, CompilerKind::Gcc, &[("g", Linkage::Strong)]);
        let exe = link(vec![a.clone(), b.clone()], CompilerKind::Gcc).unwrap();
        let exe2 = link(vec![a, b], CompilerKind::Gcc).unwrap();
        for salt in 0..1000 {
            assert_eq!(exe.crashes(salt), exe2.crashes(salt));
        }
    }

    #[test]
    fn symbol_bisect_style_link_resolves_each_symbol_once() {
        // Two copies of the same object, complementarily weakened, plus
        // a baseline object for another file.
        let variable = obj(
            0,
            CompilerKind::Gcc,
            &[("f", Linkage::Strong), ("g", Linkage::Strong)],
        );
        let baseline = variable.clone();
        let picked: BTreeSet<String> = ["f".to_string()].into();
        let var_copy = variable.weaken_except(&picked); // f strong, g weak
        let base_copy = baseline.weaken(&picked); // f weak, g strong
        let exe = link(vec![var_copy, base_copy], CompilerKind::Gcc).unwrap();
        assert_eq!(exe.defining_object("f"), Some(0));
        assert_eq!(exe.defining_object("g"), Some(1));
    }
}
