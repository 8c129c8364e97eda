//! Compilers and optimization levels.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The compilers used in the paper's studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CompilerKind {
    /// `g++` (GNU), version 8.2.0 in the MFEM study.
    Gcc,
    /// `clang++` (LLVM), version 6.0.1.
    Clang,
    /// `icpc` (Intel), version 18.0.3. Links the vendor math library.
    Icpc,
    /// `xlc++` (IBM), used in the Laghos study.
    Xlc,
}

impl CompilerKind {
    /// Human-readable driver name (`g++`, `clang++`, …).
    pub fn driver(self) -> &'static str {
        match self {
            CompilerKind::Gcc => "g++",
            CompilerKind::Clang => "clang++",
            CompilerKind::Icpc => "icpc",
            CompilerKind::Xlc => "xlc++",
        }
    }

    /// Version string matching the paper's Table 1 (xlc from §3.4).
    pub(crate) fn version(self) -> &'static str {
        match self {
            CompilerKind::Gcc => "8.2.0",
            CompilerKind::Clang => "6.0.1",
            CompilerKind::Icpc => "18.0.3",
            CompilerKind::Xlc => "16.1.0",
        }
    }

    /// Release date, as reported in Table 1.
    pub fn released(self) -> &'static str {
        match self {
            CompilerKind::Gcc => "26 July 2018",
            CompilerKind::Clang => "05 July 2018",
            CompilerKind::Icpc => "16 May 2018",
            CompilerKind::Xlc => "2018",
        }
    }

    /// All compilers in the MFEM study.
    pub const MFEM_STUDY: [CompilerKind; 3] =
        [CompilerKind::Gcc, CompilerKind::Clang, CompilerKind::Icpc];
}

impl fmt::Display for CompilerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.driver(), self.version())
    }
}

/// Base optimization levels (`-O0` … `-O3`), swept by the studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OptLevel {
    /// `-O0`: no optimization — the trusted baseline level.
    O0,
    /// `-O1`.
    O1,
    /// `-O2`: the common production level; speedups are reported
    /// relative to `g++ -O2`.
    O2,
    /// `-O3`.
    O3,
}

impl OptLevel {
    /// All four levels, in order.
    pub(crate) const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

    /// Numeric level.
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
            OptLevel::O3 => 3,
        }
    }

    /// True if the optimizer runs at all (`-O1` and above). Several
    /// semantic effects (contraction, reassociation, FTZ setup) only
    /// kick in when it does.
    pub(crate) fn optimizing(self) -> bool {
        self != OptLevel::O0
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "-O{}", self.as_u8())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(CompilerKind::Gcc.to_string(), "g++-8.2.0");
        assert_eq!(CompilerKind::Clang.to_string(), "clang++-6.0.1");
        assert_eq!(CompilerKind::Icpc.to_string(), "icpc-18.0.3");
        assert_eq!(OptLevel::O2.to_string(), "-O2");
    }

    #[test]
    fn opt_levels_ordered() {
        assert!(OptLevel::O0 < OptLevel::O3);
        assert_eq!(OptLevel::ALL.len(), 4);
        assert!(!OptLevel::O0.optimizing());
        assert!(OptLevel::O1.optimizing());
    }
}
