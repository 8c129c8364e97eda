//! Program assembly: the LULESH proxy's files, call graph, and the
//! exact Table-3/Table-5 statistics (5,459 SLOC, 1,094 static FP
//! instructions).

use std::sync::Arc;

use flit_program::kernel::Kernel;
use flit_program::model::{Driver, Function, SimProgram, SourceFile};
use flit_toolchain::perf::KernelClass;

use crate::kernels::{self, ElemLoopKernel, ELEM_WIDTH};

/// The paper's LULESH statistics (§3.5).
pub const LULESH_SLOC: u32 = 5_459;
/// Static floating-point instruction count (§3.5: "there are 1,094
/// floating point operations"; ×4 `OP'`s = the 4,376 injections).
pub const LULESH_FP_OPS: usize = 1_094;

fn elem(
    name: &'static str,
    body: fn(&mut flit_program::sites::SiteCtx, &mut [f64]),
    corners: usize,
    class: KernelClass,
) -> Kernel {
    Kernel::Custom(Arc::new(ElemLoopKernel {
        name,
        body,
        corners,
        class,
    }))
}

/// Build the LULESH proxy program.
///
/// Structure follows LULESH 2.0: the hot kernels (several of them
/// `static`) in `lulesh.cc`; EOS/utility code; and init/comm/viz files
/// the benchmark driver never calls. The dead `EOSTableSeries`
/// padding function is sized at build time so the total static FP
/// instruction count is exactly [`LULESH_FP_OPS`], and the final
/// function's SLOC is padded to [`LULESH_SLOC`].
pub fn lulesh_program() -> SimProgram {
    use kernels::*;
    use KernelClass::*;

    let lulesh_cc = SourceFile::new(
        "lulesh.cc",
        vec![
            // --- Nodal phase ---
            Function::exported(
                "LagrangeNodal",
                elem("LagrangeNodal", lagrange_nodal, 3, Stencil),
            )
            .with_calls(vec![
                "CalcForceForNodes".into(),
                "CalcAccelerationForNodes".into(),
                "CalcVelocityForNodes".into(),
                "CalcPositionForNodes".into(),
            ])
            .with_sloc(64),
            Function::exported(
                "CalcForceForNodes",
                elem("CalcForceForNodes", calc_force_for_nodes, 4, Stencil),
            )
            .with_calls(vec!["CalcVolumeForceForElems".into()])
            .with_sloc(48),
            Function::exported(
                "CalcVolumeForceForElems",
                elem(
                    "CalcVolumeForceForElems",
                    calc_volume_force_for_elems,
                    7,
                    Stencil,
                ),
            )
            .with_calls(vec![
                "SumElemFaceNormal".into(),
                "CalcElemNodalForce".into(),
            ])
            .with_sloc(92),
            Function::exported(
                "CalcAccelerationForNodes",
                elem(
                    "CalcAccelerationForNodes",
                    calc_acceleration_for_nodes,
                    3,
                    Stencil,
                ),
            )
            .with_sloc(37),
            Function::exported(
                "CalcVelocityForNodes",
                elem("CalcVelocityForNodes", calc_velocity_for_nodes, 3, Stencil),
            )
            .with_sloc(41),
            Function::exported(
                "CalcPositionForNodes",
                elem("CalcPositionForNodes", calc_position_for_nodes, 3, Stencil),
            )
            .with_sloc(28),
            // --- Element phase ---
            Function::exported(
                "LagrangeElements",
                elem("LagrangeElements", lagrange_elements, 3, Stencil),
            )
            .with_calls(vec![
                "CalcKinematicsForElems".into(),
                "CalcQForElems".into(),
                "ApplyMaterialPropertiesForElems".into(),
                "UpdateVolumesForElems".into(),
            ])
            .with_sloc(71),
            Function::exported(
                "CalcKinematicsForElems",
                elem(
                    "CalcKinematicsForElems",
                    calc_kinematics_for_elems,
                    6,
                    DotHeavy,
                ),
            )
            .with_calls(vec![
                "CalcElemShapeFunctionDerivatives".into(),
                "CalcElemVelocityGradient".into(),
                "CalcElemVolume".into(),
                "CalcElemCharacteristicLength".into(),
            ])
            .with_sloc(102),
            Function::exported(
                "CalcQForElems",
                elem("CalcQForElems", calc_monotonic_q_gradients, 3, Stencil),
            )
            .with_calls(vec!["CalcMonotonicQRegionForElems".into()])
            .with_sloc(58),
            Function::exported(
                "CalcMonotonicQRegionForElems",
                elem(
                    "CalcMonotonicQRegionForElems",
                    calc_monotonic_q_region,
                    4,
                    Branchy,
                ),
            )
            .with_sloc(118),
            Function::exported(
                "ApplyMaterialPropertiesForElems",
                elem(
                    "ApplyMaterialPropertiesForElems",
                    apply_material_properties,
                    3,
                    Branchy,
                ),
            )
            .with_calls(vec!["EvalEOSForElems".into()])
            .with_sloc(66),
            Function::exported(
                "EvalEOSForElems",
                elem("EvalEOSForElems", eval_eos_for_elems, 6, DotHeavy),
            )
            .with_calls(vec![
                "CalcPressureForElems".into(),
                "CalcEnergyForElems".into(),
                "CalcSoundSpeedForElems".into(),
            ])
            .with_sloc(124),
            Function::exported(
                "CalcPressureForElems",
                elem("CalcPressureForElems", calc_pressure_for_elems, 4, DotHeavy),
            )
            .with_sloc(53),
            Function::exported(
                "CalcEnergyForElems",
                elem("CalcEnergyForElems", calc_energy_for_elems, 9, DotHeavy),
            )
            .with_sloc(186),
            Function::exported(
                "CalcSoundSpeedForElems",
                elem(
                    "CalcSoundSpeedForElems",
                    calc_sound_speed_for_elems,
                    3,
                    DivHeavy,
                ),
            )
            .with_sloc(39),
            Function::exported(
                "UpdateVolumesForElems",
                elem("UpdateVolumesForElems", update_volumes_for_elems, 3, Memory),
            )
            .with_sloc(31),
            // --- Time constraints ---
            Function::exported(
                "CalcTimeConstraintsForElems",
                elem(
                    "CalcTimeConstraintsForElems",
                    calc_time_constraints,
                    3,
                    Branchy,
                ),
            )
            .with_calls(vec![
                "CalcCourantConstraintForElems".into(),
                "CalcHydroConstraintForElems".into(),
            ])
            .with_sloc(42),
            Function::exported(
                "CalcCourantConstraintForElems",
                elem(
                    "CalcCourantConstraintForElems",
                    calc_courant_constraint,
                    6,
                    DivHeavy,
                ),
            )
            .with_sloc(61),
            Function::exported(
                "CalcHydroConstraintForElems",
                elem(
                    "CalcHydroConstraintForElems",
                    calc_hydro_constraint,
                    6,
                    DivHeavy,
                ),
            )
            .with_sloc(57),
            // --- static inline helpers (indirect-find territory) ---
            Function::local(
                "CalcElemShapeFunctionDerivatives",
                elem(
                    "CalcElemShapeFunctionDerivatives",
                    calc_elem_shape_function_derivatives,
                    4,
                    DotHeavy,
                ),
            )
            .with_sloc(118),
            Function::local(
                "CalcElemVelocityGradient",
                elem(
                    "CalcElemVelocityGradient",
                    calc_elem_velocity_gradient,
                    4,
                    DotHeavy,
                ),
            )
            .with_sloc(74),
            Function::local(
                "CalcElemVolume",
                elem("CalcElemVolume", calc_elem_volume, 5, DotHeavy),
            )
            .with_calls(vec!["VoluDer".into()])
            .with_sloc(139),
            Function::local(
                "CalcElemCharacteristicLength",
                elem(
                    "CalcElemCharacteristicLength",
                    calc_elem_characteristic_length,
                    3,
                    DivHeavy,
                ),
            )
            .with_calls(vec!["AreaFace".into()])
            .with_sloc(67),
            Function::local("AreaFace", elem("AreaFace", area_face, 2, DotHeavy)).with_sloc(33),
            Function::local("VoluDer", elem("VoluDer", volu_der, 3, Stencil)).with_sloc(44),
            Function::local(
                "SumElemFaceNormal",
                elem("SumElemFaceNormal", sum_elem_face_normal, 5, Stencil),
            )
            .with_sloc(88),
            Function::local(
                "CalcElemNodalForce",
                elem("CalcElemNodalForce", calc_elem_nodal_force, 4, Stencil),
            )
            .with_sloc(52),
            // --- dead: hourglass control (regular proxy mesh) ---
            Function::exported(
                "CalcFBHourglassForceForElems",
                elem(
                    "CalcFBHourglassForceForElems",
                    calc_fb_hourglass_force,
                    2,
                    Stencil,
                ),
            )
            .with_calls(vec!["CalcElemFBHourglassForce".into()])
            .with_sloc(161),
            Function::local(
                "CalcElemFBHourglassForce",
                elem(
                    "CalcElemFBHourglassForce",
                    calc_elem_fb_hourglass_force,
                    2,
                    Stencil,
                ),
            )
            .with_sloc(95),
        ],
    );

    let lulesh_init = SourceFile::new(
        "lulesh-init.cc",
        vec![
            Function::exported(
                "InitStressTermsForElems",
                elem("InitStressTermsForElems", init_stress_terms, 4, Memory),
            )
            .with_sloc(44),
            // The padding EOS table, sized below for the exact FP count.
            Function::exported(
                "EOSTableSeries",
                Kernel::Custom(Arc::new(PaddedSeries {
                    name: "EOSTableSeries",
                    terms: 1, // replaced below
                })),
            )
            .with_sloc(210),
            Function::exported("BuildMeshTopology", Kernel::Benign { flavor: 3 }).with_sloc(148),
            Function::exported("SetupBoundaryConditions", Kernel::Benign { flavor: 2 })
                .with_sloc(96),
        ],
    );

    let lulesh_comm = SourceFile::new(
        "lulesh-comm.cc",
        vec![
            Function::exported(
                "CommSendPosVel",
                elem("CommSendPosVel", comm_send_pos_vel, 2, Memory),
            )
            .with_sloc(132),
            Function::exported(
                "CommSyncEnergy",
                elem("CommSyncEnergy", comm_sync_energy, 2, Memory),
            )
            .with_sloc(104),
            Function::exported("CommAllocateBuffers", Kernel::Benign { flavor: 6 }).with_sloc(71),
        ],
    );

    let lulesh_viz = SourceFile::new(
        "lulesh-viz.cc",
        vec![
            Function::exported("DumpToVisit", elem("DumpToVisit", dump_to_visit, 3, Memory))
                .with_sloc(123),
            Function::exported("DumpDomainToVisit", Kernel::Benign { flavor: 1 }).with_sloc(87),
        ],
    );

    let lulesh_util = SourceFile::new(
        "lulesh-util.cc",
        vec![
            Function::exported("ParseCommandLineOptions", Kernel::Benign { flavor: 4 })
                .with_sloc(141),
            Function::exported("VerifyAndWriteFinalOutput", Kernel::Benign { flavor: 5 })
                .with_sloc(68),
        ],
    );

    let mut files = vec![lulesh_cc, lulesh_init, lulesh_comm, lulesh_viz, lulesh_util];

    // Size the padding series so the static FP-instruction total is
    // exactly LULESH_FP_OPS.
    let current: usize = files
        .iter()
        .flat_map(|f| &f.functions)
        .map(|f| f.kernel.fp_sites())
        .sum();
    assert!(
        current < LULESH_FP_OPS,
        "hand-written kernels overshot the FP-op budget: {current}"
    );
    // The 1-term stub is included in `current`; replace it with a
    // series sized so the total lands exactly on the published count.
    let pad_terms = LULESH_FP_OPS - (current - 1);
    for f in &mut files[1].functions {
        if f.name == "EOSTableSeries" {
            f.kernel = Kernel::Custom(Arc::new(PaddedSeries {
                name: "EOSTableSeries",
                terms: pad_terms,
            }));
        }
    }

    // Pad SLOC to the published count.
    let sloc: u32 = files.iter().map(SourceFile::sloc).sum();
    assert!(sloc <= LULESH_SLOC, "SLOC overshot: {sloc}");
    let deficit = LULESH_SLOC - sloc;
    files.last_mut().unwrap().functions.last_mut().unwrap().sloc += deficit;

    SimProgram::new("lulesh", files)
}

/// The benchmark driver: the standard LULESH time loop
/// (`LagrangeNodal` → `LagrangeElements` → `CalcTimeConstraints`),
/// over a 16-element mesh, two time steps.
pub fn lulesh_driver() -> Driver {
    Driver::new(
        "lulesh",
        vec![
            "LagrangeNodal".into(),
            "LagrangeElements".into(),
            "CalcTimeConstraintsForElems".into(),
        ],
        2,
        16 * ELEM_WIDTH,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_program::build::Build;
    use flit_program::engine::Engine;
    use flit_toolchain::compilation::Compilation;

    #[test]
    fn fp_op_count_matches_the_paper_exactly() {
        let p = lulesh_program();
        let total: usize = p
            .files
            .iter()
            .flat_map(|f| &f.functions)
            .map(|f| f.kernel.fp_sites())
            .sum();
        assert_eq!(total, LULESH_FP_OPS);
    }

    #[test]
    fn sloc_matches_the_paper_exactly() {
        let p = lulesh_program();
        assert_eq!(p.total_sloc(), LULESH_SLOC);
    }

    #[test]
    fn live_static_dead_split_is_reasonable() {
        // Table 5 shape: ~61% of injections exact (exported, live),
        // ~22% indirect (static, live), ~16% not measurable (dead).
        let p = lulesh_program();
        let driver = lulesh_driver();
        let live = p.reachable(&driver.entries);
        let mut live_exported = 0usize;
        let mut live_static = 0usize;
        let mut dead = 0usize;
        for file in &p.files {
            for f in &file.functions {
                let sites = f.kernel.fp_sites();
                if sites == 0 {
                    continue;
                }
                if !live.contains(&f.name) {
                    dead += sites;
                } else if f.visibility == flit_program::model::Visibility::Exported {
                    live_exported += sites;
                } else {
                    live_static += sites;
                }
            }
        }
        let total = live_exported + live_static + dead;
        assert_eq!(total, LULESH_FP_OPS);
        let frac = |n: usize| n as f64 / total as f64;
        assert!(
            (0.45..0.75).contains(&frac(live_exported)),
            "exported fraction {}",
            frac(live_exported)
        );
        assert!(
            (0.12..0.35).contains(&frac(live_static)),
            "static fraction {}",
            frac(live_static)
        );
        assert!(
            (0.08..0.30).contains(&frac(dead)),
            "dead fraction {}",
            frac(dead)
        );
    }

    #[test]
    fn driver_runs_deterministically_and_bounded() {
        let p = lulesh_program();
        let build = Build::new(&p, Compilation::perf_reference());
        let exe = build.executable().unwrap();
        let engine = Engine::new(&p, &exe);
        let a = engine.run(&lulesh_driver(), &[0.53]).unwrap();
        let b = engine.run(&lulesh_driver(), &[0.53]).unwrap();
        assert_eq!(a, b);
        for &x in &a.output {
            assert!(x.is_finite() && (0.0..=2.0).contains(&x));
        }
        // The full time loop executes all live functions.
        assert!(a.calls >= 2 * 20, "calls = {}", a.calls);
    }
}
