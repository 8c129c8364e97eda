//! The 19 end-to-end MFEM examples, as FLiT tests.
//!
//! Each driver is a `main()` that calls a sequence of library functions
//! over a mesh-sized state, repeated for a few "time steps". Examples
//! are padded with mesh/IO routines (memory-bound, exact) so that — as
//! in the paper — the *fastest* compilation is usually a value-safe one
//! and only a couple of examples are dominated by vectorizable
//! floating-point work (Figure 4b's example 9).

use flit_core::test::DriverTest;
use flit_program::model::Driver;

/// Mesh size used by every example.
pub(crate) const STATE_SIZE: usize = 64;

/// Which examples can be wrapped for the MPI study (§3.6: "only 17 of
/// the 19 tests were able to be easily wrapped so that the FLiT
/// framework could call MPI_Init and MPI_Finalize — tests 17 and 18
/// could not be accommodated").
pub fn mpi_wrappable(example: usize) -> bool {
    example != 17 && example != 18
}

/// The padding routines every driver interleaves (memory-bound, exact):
/// mesh handling and I/O dominate FEM runtimes.
fn padding() -> Vec<String> {
    vec![
        "Mesh_Refine".into(),
        "GridFunction_Update".into(),
        "Vector_Copy".into(),
        "GridFunction_Save".into(),
    ]
}

/// The entry sequence of one example.
pub(crate) fn example_entries(example: usize) -> Vec<String> {
    let own: Vec<&str> = match example {
        // Diffusion with CG: classic dot-product-sensitive pipeline.
        1 => vec!["MassIntegrator_Assemble", "CGSolver_Mult", "Vector_Norml2"],
        // Elasticity-ish assembly.
        2 => vec!["DiffusionIntegrator_Assemble", "Integrator_Setup"],
        // High-order basis evaluation (polynomial kernels).
        3 => vec!["ShapeFunction_Eval", "QuadratureRule_Get"],
        // Transcendental source term + assembly (Intel link-step group).
        4 => vec!["SineCoefficient_Eval", "MassIntegrator_Assemble"],
        // Smoothing + transcendental boundary data (Figure 4a). The
        // transcendental evaluation comes *after* the smoother so the
        // vendor-library ulps are not diffused away.
        5 => vec!["Smoother_Apply", "ExpCoefficient_Eval"],
        // Geometry determinants.
        6 => vec!["Mesh_GetDeterminants", "Mesh_ReorderElements"],
        // Normalization-heavy postprocessing (reciprocal-math group).
        7 => vec!["Geometry_Normalize", "Mesh_ReorderElements"],
        // Finding 1: iterative solve, 1e-12 criterion, nine
        // matrix/vector functions.
        8 => vec![
            "Vector_Dot",
            "Vector_Norml2",
            "DenseMatrix_Mult",
            "CGSolver_Mult",
            "Solver_ResidualNorm",
            "MassIntegrator_Assemble",
            "DiffusionIntegrator_Assemble",
            "Geometry_Volume",
            "Quadrature_Integrate",
            // The nonlinear relaxation magnifies the solver-path
            // difference to the observed ~1e-6 scale; it is exact
            // arithmetic, so it is never blamed itself.
            "NonlinearForm_MildRelax",
        ],
        // Figure 4b: dominated by vectorizable FP work + vendor math —
        // the one example where variable compilations win big.
        9 => vec![
            "SineCoefficient_Eval",
            "Quadrature_Integrate",
            "DenseMatrix_Mult",
            "Quadrature_Integrate",
            "DenseMatrix_Mult",
            "Quadrature_Integrate",
        ],
        // Projection + transcendental data (library call last so the
        // ulps survive the projection smoothing).
        10 => vec!["GridFunction_ProjectCoefficient", "ExpCoefficient_Eval"],
        // Pure smoothing (FMA-only sensitivity).
        11 => vec!["Smoother_Apply", "Smoother_Setup"],
        // Fully invariant (Figure 5/6: "no compilations that produced
        // variability").
        12 => vec!["Mesh_Refine", "Mesh_ReorderElements", "Vector_Copy"],
        // Finding 2: the rank-1 update amplified by a nonlinear solve —
        // one blamed function, ~190 % relative error.
        13 => vec![
            "DenseMatrix_AddMultAAt",
            "NonlinearForm_Relax",
            "GridFunction_ZeroMean",
        ],
        // Quadrature sweep.
        14 => vec!["Quadrature_Integrate", "Quadrature_Weights"],
        // Transcendental-only (Intel link-step group).
        15 => vec!["SineCoefficient_Eval", "ExpCoefficient_Eval"],
        // Determinant + basis polynomials.
        16 => vec!["ShapeFunction_Eval", "Mesh_GetDeterminants"],
        // Solver benchmark (not MPI-wrappable).
        17 => vec!["CGSolver_Mult", "Solver_Monitor"],
        // Mesh-only utility (invariant; not MPI-wrappable).
        18 => vec!["Mesh_ReorderElements", "GridFunction_Save", "Vector_Neg"],
        // Normalization + norms (reciprocal + reduction).
        19 => vec!["Geometry_Normalize", "Vector_Norml2"],
        _ => panic!("MFEM has 19 examples; got {example}"),
    };
    let mut entries: Vec<String> = Vec::new();
    for (i, name) in own.iter().enumerate() {
        entries.push(name.to_string());
        // Interleave padding after every other FP routine. Example 9 is
        // the exception: it stays compute-dominated (Figure 4b).
        if example != 9 && i % 2 == 1 {
            entries.extend(padding());
        }
    }
    if example != 9 {
        entries.extend(padding());
    }
    entries
}

/// The driver for one example (1-based), at the given decomposition.
pub fn example_driver(example: usize, decomposition: usize) -> Driver {
    Driver::new(
        format!("ex{example:02}"),
        example_entries(example),
        2,
        STATE_SIZE,
    )
    .with_decomposition(decomposition)
}

/// All 19 examples as FLiT tests (sequential decomposition).
pub fn mfem_examples() -> Vec<DriverTest> {
    (1..=19)
        .map(|i| DriverTest::new(example_driver(i, 1), 2, vec![0.35, 0.62]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebase::mfem_program;

    #[test]
    fn nineteen_examples_with_unique_names() {
        let tests = mfem_examples();
        assert_eq!(tests.len(), 19);
        let names: std::collections::HashSet<&str> =
            tests.iter().map(flit_core::FlitTest::name).collect();
        assert_eq!(names.len(), 19);
    }

    #[test]
    fn every_entry_resolves_in_the_program() {
        let p = mfem_program();
        for i in 1..=19 {
            for entry in example_entries(i) {
                assert!(
                    p.function(&entry).is_some(),
                    "ex{i:02} calls missing `{entry}`"
                );
            }
        }
    }

    #[test]
    fn example_8_touches_nine_sensitive_functions() {
        let own: Vec<String> = example_entries(8);
        let sensitive = crate::files::sensitive_functions();
        let count = own
            .iter()
            .filter(|e| sensitive.contains(&e.as_str()))
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert_eq!(count, 9, "Finding 1: nine functions cause variability");
    }

    #[test]
    fn invariant_examples_call_only_exact_kernels() {
        let p = mfem_program();
        let sensitive = crate::files::sensitive_functions();
        for ex in [12usize, 18] {
            for entry in example_entries(ex) {
                assert!(
                    !sensitive.contains(&entry.as_str()),
                    "ex{ex:02} must stay invariant but calls {entry}"
                );
                assert!(p.function(&entry).is_some());
            }
        }
    }

    #[test]
    fn mpi_wrappability_matches_the_paper() {
        let wrappable: Vec<usize> = (1..=19).filter(|&i| mpi_wrappable(i)).collect();
        assert_eq!(wrappable.len(), 17);
        assert!(!mpi_wrappable(17));
        assert!(!mpi_wrappable(18));
    }

    #[test]
    #[should_panic(expected = "19 examples")]
    fn example_zero_is_rejected() {
        example_entries(0);
    }
}
