//! Object files, symbol linkage, and the `objcopy` weakening trick.
//!
//! §2.3, "Exploiting Linker Behavior and Objcopy": FLiT's Symbol Bisect
//! duplicates an object file and uses `objcopy` to turn a chosen subset
//! of its strong symbols weak; the complementary subset is weakened in
//! the other copy. Linking both copies then yields an executable that
//! takes each function from exactly one of the two compilations.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::compilation::Compilation;

/// Symbol binding, as in ELF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Linkage {
    /// Globally visible, unique definition required.
    Strong,
    /// Globally visible; the linker keeps a strong definition if one
    /// exists, otherwise the first weak definition encountered.
    Weak,
    /// File-local (`static` / internal linkage): invisible to the
    /// linker, and *not replaceable by interposition* — the reason the
    /// paper's Symbol Bisect is "limited to search within the space of
    /// globally exported symbols".
    Local,
}

/// One symbol table entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SymbolEntry {
    /// The (mangled) symbol name.
    pub name: String,
    /// Its binding.
    pub linkage: Linkage,
}

/// A compiled object file: the product of one source file under one
/// compilation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectFile {
    /// Index of the source file in the program's file list.
    pub file_id: usize,
    /// Source file name (for diagnostics).
    pub file_name: String,
    /// The compilation that produced this object.
    pub compilation: Compilation,
    /// Whether the file was compiled `-fPIC` (interposition-safe: the
    /// compiler may not inline globally visible functions into intra-TU
    /// callers).
    pub pic: bool,
    /// Which build produced this object (0 = baseline). Lets an
    /// execution engine bind bodies from the right *source tree* when a
    /// bisection mixes two builds of structurally identical programs
    /// (e.g. a clean and an injected copy — the §3.5 injection study).
    pub build_tag: u32,
    /// The symbol table.
    pub symbols: Vec<SymbolEntry>,
}

impl ObjectFile {
    /// Linkage of `name` in this object, if defined.
    pub fn linkage_of(&self, name: &str) -> Option<Linkage> {
        self.symbols
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.linkage)
    }

    /// `objcopy --weaken-symbol` for each name in `names`: returns a
    /// copy of this object with those strong symbols turned weak.
    /// Unknown names and already-weak/local symbols are left untouched,
    /// exactly like the real tool.
    pub fn weaken(&self, names: &BTreeSet<String>) -> ObjectFile {
        let mut out = self.clone();
        for sym in &mut out.symbols {
            if sym.linkage == Linkage::Strong && names.contains(&sym.name) {
                sym.linkage = Linkage::Weak;
            }
        }
        out
    }

    /// `objcopy --weaken`: weaken *all* strong symbols except those in
    /// `keep` — the complement operation Symbol Bisect applies to the
    /// second copy of the object file.
    pub fn weaken_except(&self, keep: &BTreeSet<String>) -> ObjectFile {
        let mut out = self.clone();
        for sym in &mut out.symbols {
            if sym.linkage == Linkage::Strong && !keep.contains(&sym.name) {
                sym.linkage = Linkage::Weak;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompilerKind, OptLevel};

    impl ObjectFile {
        /// All globally visible (strong or weak) symbol names, sorted.
        fn exported_symbols(&self) -> Vec<&str> {
            let mut v: Vec<&str> = self
                .symbols
                .iter()
                .filter(|s| s.linkage != Linkage::Local)
                .map(|s| s.name.as_str())
                .collect();
            v.sort_unstable();
            v
        }
    }

    fn obj() -> ObjectFile {
        ObjectFile {
            file_id: 3,
            file_name: "mesh.cpp".into(),
            compilation: Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![]),
            pic: false,
            build_tag: 0,
            symbols: vec![
                SymbolEntry {
                    name: "assemble".into(),
                    linkage: Linkage::Strong,
                },
                SymbolEntry {
                    name: "dot_kernel".into(),
                    linkage: Linkage::Strong,
                },
                SymbolEntry {
                    name: "helper_static".into(),
                    linkage: Linkage::Local,
                },
            ],
        }
    }

    #[test]
    fn exported_excludes_locals() {
        assert_eq!(obj().exported_symbols(), vec!["assemble", "dot_kernel"]);
    }

    #[test]
    fn weaken_turns_strong_weak() {
        let names: BTreeSet<String> = ["assemble".to_string()].into();
        let w = obj().weaken(&names);
        assert_eq!(w.linkage_of("assemble"), Some(Linkage::Weak));
        assert_eq!(w.linkage_of("dot_kernel"), Some(Linkage::Strong));
        assert_eq!(w.linkage_of("helper_static"), Some(Linkage::Local));
    }

    #[test]
    fn weaken_except_is_complementary() {
        let keep: BTreeSet<String> = ["assemble".to_string()].into();
        let w = obj().weaken_except(&keep);
        assert_eq!(w.linkage_of("assemble"), Some(Linkage::Strong));
        assert_eq!(w.linkage_of("dot_kernel"), Some(Linkage::Weak));
        // Locals are never touched.
        assert_eq!(w.linkage_of("helper_static"), Some(Linkage::Local));
    }

    #[test]
    fn weaken_ignores_unknown_names() {
        let names: BTreeSet<String> = ["nonexistent".to_string()].into();
        let w = obj().weaken(&names);
        assert_eq!(w, obj());
    }

    #[test]
    fn weaken_pair_covers_all_symbols_once() {
        // The Symbol Bisect invariant: for any chosen set S, weakening S
        // in copy A and everything-but-S in copy B leaves each exported
        // symbol strong in exactly one copy.
        let o = obj();
        let s: BTreeSet<String> = ["dot_kernel".to_string()].into();
        let a = o.weaken(&s);
        let b = o.weaken_except(&s);
        for name in o.exported_symbols() {
            let strong_in_a = a.linkage_of(name) == Some(Linkage::Strong);
            let strong_in_b = b.linkage_of(name) == Some(Linkage::Strong);
            assert!(strong_in_a ^ strong_in_b, "{name}");
        }
    }
}
