//! Structural hazard lints: properties of a kernel that make it a
//! divergence amplifier or a UB victim, independent of any particular
//! compilation pair, reported for the functions a test driver can
//! reach.

use flit_program::kernel::Kernel;
use flit_program::model::{Driver, SimProgram};

/// A hazard lint on one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hazard {
    /// An exact floating-point comparison (`== 0.0`) gates a large
    /// branch divergence (the Laghos viscosity pattern).
    ExactFpCompare,
    /// The kernel contains undefined behaviour that UB-exploiting
    /// optimization levels miscompile (the Laghos `xsw` macro).
    UndefinedBehaviour,
    /// The kernel body is opaque to the abstract interpreter: it
    /// certifies it only under identical environments.
    OpaqueKernel,
}

impl Hazard {
    /// Short stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Hazard::ExactFpCompare => "exact-fp-compare",
            Hazard::UndefinedBehaviour => "undefined-behaviour",
            Hazard::OpaqueKernel => "opaque-kernel",
        }
    }
}

/// Structural hazard lints for a kernel (see [`Hazard`]).
pub(crate) fn kernel_hazards(kernel: &Kernel) -> Vec<Hazard> {
    match kernel {
        Kernel::ZeroGate { .. } => vec![Hazard::ExactFpCompare],
        Kernel::UbSwap => vec![Hazard::UndefinedBehaviour],
        Kernel::Custom(_) => vec![Hazard::OpaqueKernel],
        _ => vec![],
    }
}

/// Hazard lints on the functions reachable from `driver`, as
/// `(symbol, hazard)` in program order.
pub fn reachable_hazards(program: &SimProgram, driver: &Driver) -> Vec<(String, Hazard)> {
    let live = program.reachable(&driver.entries);
    program
        .files
        .iter()
        .flat_map(|file| &file.functions)
        .filter(|f| live.contains(&f.name))
        .flat_map(|f| {
            kernel_hazards(&f.kernel)
                .into_iter()
                .map(|h| (f.name.clone(), h))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_program::model::{Function, SourceFile};

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
    fn hazards_flag_the_laghos_patterns() {
        assert_eq!(
            kernel_hazards(&Kernel::ZeroGate { boost: 100.0 }),
            vec![Hazard::ExactFpCompare]
        );
        assert_eq!(
            kernel_hazards(&Kernel::UbSwap),
            vec![Hazard::UndefinedBehaviour]
        );
        assert!(kernel_hazards(&Kernel::DivScan).is_empty());
    }

    #[test]
    fn only_reachable_hazards_are_reported() {
        let driver = Driver::new("d", vec!["cross".into()], 1, 8);
        assert_eq!(
            reachable_hazards(&program(), &driver),
            vec![("hot".to_string(), Hazard::ExactFpCompare)]
        );
    }
}
