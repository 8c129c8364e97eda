//! The handwritten numerical files of the mini-FEM library.
//!
//! Each function's kernel determines its compiler-sensitivity class
//! (see `flit_program::kernel`), which in turn determines which
//! compilations vary which examples. Function and file names follow
//! MFEM's layout (linalg/, fem/, mesh/, general/).

use flit_program::kernel::Kernel;
use flit_program::model::{Function, SourceFile};

/// The handwritten source files (the rest of the codebase is generated
/// filler — see [`crate::codebase`]).
pub(crate) fn interesting_files() -> Vec<SourceFile> {
    vec![
        SourceFile::new(
            "linalg/vector.cpp",
            vec![
                Function::exported("Vector_Dot", Kernel::DotMix { stride: 7 }).with_sloc(42),
                Function::exported("Vector_Norml2", Kernel::NormScale).with_sloc(35),
                Function::exported("Vector_Add", Kernel::Benign { flavor: 0 }).with_sloc(24),
                Function::exported("Vector_Copy", Kernel::Benign { flavor: 6 }).with_sloc(12),
                Function::exported("Vector_Neg", Kernel::Benign { flavor: 1 })
                    .inlinable()
                    .with_sloc(9),
            ],
        ),
        SourceFile::new(
            "linalg/densemat.cpp",
            vec![
                Function::exported("DenseMatrix_Mult", Kernel::MatVecMix { n: 12 }).with_sloc(66),
                Function::exported(
                    "DenseMatrix_AddMultAAt",
                    Kernel::Rank1Mix { n: 8, alpha: 0.73 },
                )
                .with_sloc(58),
                Function::exported("DenseMatrix_Transpose", Kernel::Benign { flavor: 2 })
                    .with_sloc(28),
                Function::exported("DenseMatrix_Trace", Kernel::Benign { flavor: 4 })
                    .inlinable()
                    .with_sloc(14),
            ],
        ),
        SourceFile::new(
            "linalg/solvers.cpp",
            vec![
                Function::exported(
                    "CGSolver_Mult",
                    Kernel::CgSolve {
                        n: 24,
                        tol: 1e-12,
                        // High enough to converge to *different* iterates
                        // under different semantics, low enough that CG
                        // does not stagnate above the 1e-12 criterion.
                        cond: 1e3,
                    },
                )
                .with_sloc(112),
                Function::exported("Solver_ResidualNorm", Kernel::NormScale).with_sloc(31),
                Function::exported("Solver_Monitor", Kernel::Benign { flavor: 5 }).with_sloc(22),
            ],
        ),
        SourceFile::new(
            "fem/bilininteg.cpp",
            vec![
                Function::exported("MassIntegrator_Assemble", Kernel::DotMix { stride: 3 })
                    .with_sloc(88),
                Function::exported("DiffusionIntegrator_Assemble", Kernel::MatVecMix { n: 10 })
                    .with_sloc(94),
                Function::exported("Integrator_Setup", Kernel::Benign { flavor: 3 }).with_sloc(26),
            ],
        ),
        SourceFile::new(
            "fem/fe_basis.cpp",
            vec![
                Function::exported("ShapeFunction_Eval", Kernel::PolyHorner { degree: 9 })
                    .with_sloc(47),
                Function::exported("QuadratureRule_Get", Kernel::Benign { flavor: 2 })
                    .with_sloc(33),
                Function::local("basis_scratch_init", Kernel::Benign { flavor: 6 }).with_sloc(11),
            ],
        ),
        SourceFile::new(
            "fem/coefficient.cpp",
            vec![
                Function::exported("SineCoefficient_Eval", Kernel::TranscMap { freq: 3.1 })
                    .with_sloc(29),
                Function::exported("ExpCoefficient_Eval", Kernel::TranscMap { freq: 1.7 })
                    .with_sloc(27),
                Function::exported("ConstCoefficient_Eval", Kernel::Benign { flavor: 4 })
                    .inlinable()
                    .with_sloc(8),
            ],
        ),
        SourceFile::new(
            "mesh/mesh.cpp",
            vec![
                Function::exported("Mesh_Refine", Kernel::Benign { flavor: 3 }).with_sloc(105),
                Function::exported("Mesh_ReorderElements", Kernel::Benign { flavor: 2 })
                    .with_sloc(41),
                Function::exported("Mesh_GetDeterminants", Kernel::PolyHorner { degree: 5 })
                    .with_sloc(38),
            ],
        ),
        SourceFile::new(
            "mesh/geom.cpp",
            vec![
                Function::exported("Geometry_Volume", Kernel::DotMix { stride: 11 }).with_sloc(36),
                Function::exported("Geometry_Normalize", Kernel::DivScan).with_sloc(25),
            ],
        ),
        SourceFile::new(
            "fem/gridfunc.cpp",
            vec![
                Function::exported(
                    "GridFunction_ProjectCoefficient",
                    Kernel::HeatSmooth { steps: 9, r: 0.24 },
                )
                .with_sloc(54),
                Function::exported("GridFunction_Save", Kernel::Benign { flavor: 6 }).with_sloc(30),
                Function::exported("GridFunction_Update", Kernel::Benign { flavor: 0 })
                    .with_sloc(27),
                Function::exported("GridFunction_ZeroMean", Kernel::Benign { flavor: 7 })
                    .with_sloc(16),
            ],
        ),
        SourceFile::new(
            "fem/nonlinearform.cpp",
            vec![
                Function::exported(
                    "NonlinearForm_Relax",
                    Kernel::AmplifyExact {
                        lambda: 2.9,
                        steps: 80,
                    },
                )
                .with_sloc(49),
                Function::exported(
                    "NonlinearForm_MildRelax",
                    Kernel::AmplifyExact {
                        lambda: 2.62,
                        steps: 16,
                    },
                )
                .with_sloc(37),
            ],
        ),
        SourceFile::new(
            "general/quadrature.cpp",
            vec![
                Function::exported("Quadrature_Integrate", Kernel::DotMix { stride: 5 })
                    .with_sloc(44),
                Function::exported("Quadrature_Weights", Kernel::Benign { flavor: 4 })
                    .with_sloc(19),
            ],
        ),
        SourceFile::new(
            "general/smoother.cpp",
            vec![
                Function::exported(
                    "Smoother_Apply",
                    Kernel::HeatSmooth {
                        steps: 12,
                        r: 0.249,
                    },
                )
                .with_sloc(40),
                Function::exported("Smoother_Setup", Kernel::Benign { flavor: 1 }).with_sloc(18),
            ],
        ),
    ]
}

/// Names of all *sensitive* (non-benign, non-exact) functions — the
/// candidates any Bisect run may blame.
pub fn sensitive_functions() -> Vec<&'static str> {
    vec![
        "Vector_Dot",
        "Vector_Norml2",
        "DenseMatrix_Mult",
        "DenseMatrix_AddMultAAt",
        "CGSolver_Mult",
        "Solver_ResidualNorm",
        "MassIntegrator_Assemble",
        "DiffusionIntegrator_Assemble",
        "ShapeFunction_Eval",
        "SineCoefficient_Eval",
        "ExpCoefficient_Eval",
        "Mesh_GetDeterminants",
        "Geometry_Volume",
        "Geometry_Normalize",
        "GridFunction_ProjectCoefficient",
        "Quadrature_Integrate",
        "Smoother_Apply",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_program::model::SimProgram;

    #[test]
    fn interesting_files_form_a_valid_program() {
        let p = SimProgram::new("mfem-core", interesting_files());
        assert_eq!(p.files.len(), 12);
        assert!(p.total_functions() >= 30);
        // Every sensitive function exists and is exported.
        for name in sensitive_functions() {
            let f = p.function(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(
                f.visibility,
                flit_program::model::Visibility::Exported,
                "{name}"
            );
        }
    }

    #[test]
    fn finding2_kernel_is_the_rank1_update() {
        let p = SimProgram::new("mfem-core", interesting_files());
        let f = p.function("DenseMatrix_AddMultAAt").unwrap();
        assert!(matches!(f.kernel, Kernel::Rank1Mix { .. }));
    }
}
