//! The bundled applications the CLI can operate on.

use flit_core::test::DriverTest;
use flit_laghos::{laghos_driver, laghos_program, LaghosVariant};
use flit_lulesh::{lulesh_driver, lulesh_program};
use flit_mfem::{mfem_examples, mfem_program};
use flit_program::model::SimProgram;

/// A bundled application: a program plus its FLiT test suite.
pub struct BundledApp {
    /// Application name (the CLI argument).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The program under test.
    pub program: SimProgram,
    /// Its FLiT tests.
    pub tests: Vec<DriverTest>,
}

/// Names of all bundled applications.
pub(crate) fn app_names() -> Vec<&'static str> {
    vec!["mfem", "laghos", "laghos-xsw", "lulesh"]
}

/// Resolve an application by name.
pub fn resolve_app(name: &str) -> Option<BundledApp> {
    match name {
        "mfem" => Some(BundledApp {
            name: "mfem",
            description: "mini finite-element library, 19 examples (§3.1-§3.3)",
            program: mfem_program(),
            tests: mfem_examples(),
        }),
        "laghos" => Some(BundledApp {
            name: "laghos",
            description: "Lagrangian hydro proxy, xsw fixed, ==0.0 viscosity bug present (§3.4)",
            program: laghos_program(LaghosVariant::XswFixed),
            tests: vec![DriverTest::new(laghos_driver(), 2, vec![0.42, 0.77])],
        }),
        "laghos-xsw" => Some(BundledApp {
            name: "laghos-xsw",
            description: "Lagrangian hydro proxy, public branch with the xsw UB macro (§3.4)",
            program: laghos_program(LaghosVariant::WithXswBug),
            tests: vec![DriverTest::new(laghos_driver(), 2, vec![0.42, 0.77])],
        }),
        "lulesh" => Some(BundledApp {
            name: "lulesh",
            description: "shock-hydro proxy with 1,094 injectable FP instructions (§3.5)",
            program: lulesh_program(),
            tests: vec![DriverTest::new(lulesh_driver(), 2, vec![0.53, 0.31])],
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_core::test::FlitTest;

    #[test]
    fn every_listed_app_resolves() {
        for name in app_names() {
            let app = resolve_app(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert_eq!(app.name, name);
            assert!(!app.tests.is_empty());
            assert!(app.program.total_functions() > 5);
            // Test drivers resolve against the program.
            for t in &app.tests {
                assert!(app.program.function(&t.driver().entries[0]).is_some());
                assert!(!t.name().is_empty());
            }
        }
        assert!(resolve_app("nope").is_none());
    }
}
