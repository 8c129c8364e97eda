//! The hydro kernels: each is a loop over elements whose body is a
//! branch-free straight-line sequence of floating-point operations
//! through [`SiteCtx`] — so every lexical operation is one static,
//! injectable instruction, exactly like an instruction in the LLVM IR
//! the paper's pass rewrites.
//!
//! Element layout: the program state is a flat array of 4-wide element
//! records `[x, v, e, q]` — coordinate/volume, velocity, internal
//! energy, artificial viscosity. Every body maintains the invariant
//! that all fields stay within `[FLOOR, CEIL]` via branch-free
//! min/max clamps (which are FP instructions, and injection sites, in
//! their own right).

use flit_fpsim::env::FpEnv;
use flit_program::kernel::KernelImpl;
use flit_program::sites::{Injection, SiteCtx};
use flit_toolchain::perf::KernelClass;

/// Fields per element record.
pub(crate) const ELEM_WIDTH: usize = 4;
/// Lower bound every field is clamped to.
pub(crate) const FLOOR: f64 = 0.05;
/// Upper bound every field is clamped to.
pub(crate) const CEIL: f64 = 1.95;

/// An element-loop kernel: a straight-line body applied per element,
/// lexically repeated `corners` times — the way the real LULESH kernels
/// unroll over hexahedron corners and faces (each unrolled copy is its
/// own set of static instructions).
pub(crate) struct ElemLoopKernel {
    /// Function name (matches the LULESH source symbol).
    pub name: &'static str,
    /// The per-corner body. Must be branch-free so every iteration
    /// executes the same lexical site sequence.
    pub body: fn(&mut SiteCtx, &mut [f64]),
    /// How many lexically-unrolled per-corner copies the function body
    /// contains (6 faces, 8 corners, … in the real source).
    pub corners: usize,
    /// Performance class.
    pub class: KernelClass,
}

impl ElemLoopKernel {
    fn probe_sites(&self) -> usize {
        let env = FpEnv::strict();
        let mut ctx = SiteCtx::counting(&env);
        let mut scratch = [0.41, 0.52, 0.63, 0.37];
        (self.body)(&mut ctx, &mut scratch);
        ctx.site_count() * self.corners.max(1)
    }
}

impl KernelImpl for ElemLoopKernel {
    fn name(&self) -> &str {
        self.name
    }

    fn eval(&self, state: &mut [f64], env: &FpEnv, inj: Option<Injection>) {
        let sites = self.probe_sites();
        let mut ctx = SiteCtx::new(env, inj);
        ctx.begin_body(sites);
        for chunk in state.chunks_exact_mut(ELEM_WIDTH) {
            ctx.next_iteration();
            // The unrolled corner copies run back-to-back; the cursor
            // advances through each copy's distinct site range.
            for _ in 0..self.corners.max(1) {
                (self.body)(&mut ctx, chunk);
            }
        }
        ctx.end_body();
    }

    fn fp_sites(&self) -> usize {
        self.probe_sites()
    }

    fn work(&self) -> f64 {
        // Each static site executes once per element; size to a 16-elem
        // default mesh for the cost model.
        (self.probe_sites() * 16) as f64
    }

    fn class(&self) -> KernelClass {
        self.class
    }
}

/// Branch-free clamp into the field invariant (2 sites).
fn clamp(ctx: &mut SiteCtx, v: f64) -> f64 {
    let lo = ctx.max(v, FLOOR);
    ctx.min(lo, CEIL)
}

// ---------------------------------------------------------------------
// Nodal phase (LagrangeNodal and its callees)
// ---------------------------------------------------------------------

/// Nodal driver body: mild smoothing of coordinates against velocity.
pub(crate) fn lagrange_nodal(ctx: &mut SiteCtx, e: &mut [f64]) {
    let dt = 0.0107;
    let xn = ctx.mul_add(e[1], dt, e[0]);
    e[0] = clamp(ctx, xn);
}

/// Force accumulation driver: couples pressure-like energy into force.
pub(crate) fn calc_force_for_nodes(ctx: &mut SiteCtx, e: &mut [f64]) {
    let stress = ctx.mul_add(e[2], -0.731, e[3]);
    let f = ctx.mul(stress, 0.25);
    let vn = ctx.add(e[1], f);
    e[1] = clamp(ctx, vn);
}

/// Stress-term force: σ = −p − q integrated over faces.
pub(crate) fn calc_volume_force_for_elems(ctx: &mut SiteCtx, e: &mut [f64]) {
    let p = ctx.mul(e[2], 0.617);
    let sigma = ctx.sub(-0.0, p);
    let sigma = ctx.sub(sigma, e[3]);
    let area = ctx.mul(e[0], e[0]);
    let f = ctx.mul(sigma, area);
    let scaled = ctx.mul(f, 0.125);
    let vn = ctx.add(e[1], scaled);
    e[1] = clamp(ctx, vn);
}

/// a = F/m with a nodal mass derived from the coordinate field.
pub(crate) fn calc_acceleration_for_nodes(ctx: &mut SiteCtx, e: &mut [f64]) {
    let mass = ctx.add(e[0], 0.731);
    let accel = ctx.div(e[1], mass);
    let damped = ctx.mul(accel, 0.0625);
    let vn = ctx.add(e[1], damped);
    e[1] = clamp(ctx, vn);
}

/// v += a·dt with a velocity cutoff (u_cut in real LULESH).
pub(crate) fn calc_velocity_for_nodes(ctx: &mut SiteCtx, e: &mut [f64]) {
    let dt = 0.0093;
    let dv = ctx.mul(e[1], dt);
    let vn = ctx.add(e[1], dv);
    let cut = ctx.max(vn, 0.07);
    e[1] = clamp(ctx, cut);
}

/// x += v·dt.
pub(crate) fn calc_position_for_nodes(ctx: &mut SiteCtx, e: &mut [f64]) {
    let dt = 0.0093;
    let xn = ctx.mul_add(e[1], dt, e[0]);
    e[0] = clamp(ctx, xn);
}

// ---------------------------------------------------------------------
// Element phase (LagrangeElements and its callees)
// ---------------------------------------------------------------------

/// Element driver: relaxes energy toward the kinetic field.
pub(crate) fn lagrange_elements(ctx: &mut SiteCtx, e: &mut [f64]) {
    let ke = ctx.mul(e[1], e[1]);
    let blend = ctx.mul_add(ke, 0.125, e[2]);
    let en = ctx.mul(blend, 0.888);
    e[2] = clamp(ctx, en);
}

/// Kinematics: strain rates from the deformation field.
pub(crate) fn calc_kinematics_for_elems(ctx: &mut SiteCtx, e: &mut [f64]) {
    let dvol = ctx.sub(e[0], e[1]);
    let rate = ctx.mul(dvol, 0.43);
    let denom = ctx.add(e[0], 0.311);
    let vdov = ctx.div(rate, denom);
    let en = ctx.mul_add(vdov, -0.09, e[2]);
    e[2] = clamp(ctx, en);
    let xn = ctx.mul_add(rate, 0.017, e[0]);
    e[0] = clamp(ctx, xn);
}

/// Q gradients: monotonic gradient estimate for the viscosity.
pub(crate) fn calc_monotonic_q_gradients(ctx: &mut SiteCtx, e: &mut [f64]) {
    let dv = ctx.sub(e[1], e[3]);
    let norm = ctx.add(e[0], 0.233);
    let grad = ctx.div(dv, norm);
    let g2 = ctx.mul(grad, grad);
    let qn = ctx.mul_add(g2, 0.31, e[3]);
    let damped = ctx.mul(qn, 0.82);
    e[3] = clamp(ctx, damped);
}

/// Q region: the qlin/qquad viscosity update.
pub(crate) fn calc_monotonic_q_region(ctx: &mut SiteCtx, e: &mut [f64]) {
    let dvel = ctx.sub(e[1], 0.5);
    let qlin = ctx.mul(dvel, 0.17);
    let qquad = ctx.mul(dvel, dvel);
    let qq = ctx.mul(qquad, 0.29);
    let q = ctx.add(qlin, qq);
    let qpos = ctx.max(q, 0.0);
    let qn = ctx.mul_add(qpos, 0.5, e[3]);
    let relaxed = ctx.mul(qn, 0.77);
    e[3] = clamp(ctx, relaxed);
}

/// EOS pressure: a linear-in-compression pressure with a floor
/// (p_min in the real code).
pub(crate) fn calc_pressure_for_elems(ctx: &mut SiteCtx, e: &mut [f64]) {
    let relvol = ctx.add(e[0], 0.5);
    let invvol = ctx.div(1.0, relvol);
    let compression = ctx.sub(invvol, 0.667);
    let bvc = ctx.mul(compression, 0.391);
    let p = ctx.mul_add(e[2], 0.441, bvc);
    let floored = ctx.max(p, 0.111);
    let rest = ctx.mul(e[2], 0.75);
    let blend = ctx.mul_add(floored, 0.25, rest);
    e[2] = clamp(ctx, blend);
}

/// EOS energy: the iterative e_new refinement, unrolled (the real
/// CalcEnergyForElems performs several corrector passes).
pub(crate) fn calc_energy_for_elems(ctx: &mut SiteCtx, e: &mut [f64]) {
    // Pass 1.
    let work = ctx.mul(e[3], 0.043);
    let e1 = ctx.sub(e[2], work);
    let e1 = ctx.max(e1, 0.09);
    // Pass 2: pressure feedback.
    let phalf = ctx.mul(e1, 0.395);
    let dvol = ctx.sub(e[0], 0.5);
    let pdv = ctx.mul(phalf, dvol);
    let e2 = ctx.mul_add(pdv, -0.5, e1);
    let e2 = ctx.max(e2, 0.09);
    // Pass 3: q feedback.
    let qterm = ctx.mul(e[3], 0.21);
    let e3 = ctx.add(e2, qterm);
    let scaled = ctx.mul(e3, 0.93);
    // Final cut (e_cut).
    let cut = ctx.max(scaled, 0.10);
    e[2] = clamp(ctx, cut);
}

/// Sound speed: c = sqrt(γ·p/ρ)-shaped.
pub(crate) fn calc_sound_speed_for_elems(ctx: &mut SiteCtx, e: &mut [f64]) {
    let rho = ctx.add(e[0], 0.41);
    let p = ctx.mul(e[2], 0.63);
    let ratio = ctx.div(p, rho);
    let gam = ctx.mul(ratio, 1.4);
    let c = ctx.sqrt(gam);
    let vn = ctx.mul_add(c, 0.031, e[1]);
    e[1] = clamp(ctx, vn);
}

/// Apply material properties: EOS preamble with volume error bounds.
pub(crate) fn apply_material_properties(ctx: &mut SiteCtx, e: &mut [f64]) {
    let vol = ctx.max(e[0], 0.12);
    let vol = ctx.min(vol, 1.88);
    let rest = ctx.mul(e[0], 0.95);
    let relax = ctx.mul_add(vol, 0.05, rest);
    e[0] = clamp(ctx, relax);
}

/// EvalEOS driver body: mixes compression history.
pub(crate) fn eval_eos_for_elems(ctx: &mut SiteCtx, e: &mut [f64]) {
    let relvol = ctx.add(e[0], 0.52);
    let comp = ctx.div(1.0, relvol);
    let delta = ctx.sub(comp, 0.66);
    let en = ctx.mul_add(delta, 0.11, e[2]);
    e[2] = clamp(ctx, en);
}

/// v_new = v·(1 + dvov) with the volume cut.
pub(crate) fn update_volumes_for_elems(ctx: &mut SiteCtx, e: &mut [f64]) {
    let dvov = ctx.mul(e[1], 0.021);
    let vn = ctx.mul_add(e[0], dvov, e[0]);
    let cut = ctx.max(vn, 0.11);
    e[0] = clamp(ctx, cut);
}

/// Courant constraint: dt ≤ ℓ/(c + |vdov|·ℓ)-shaped.
pub(crate) fn calc_courant_constraint(ctx: &mut SiteCtx, e: &mut [f64]) {
    let e_shift = ctx.add(e[2], 0.09);
    let c = ctx.sqrt(e_shift);
    let ell = ctx.add(e[0], 0.21);
    let denom = ctx.mul_add(e[1], 0.3, c);
    let dt = ctx.div(ell, denom);
    let qn = ctx.mul_add(dt, 0.013, e[3]);
    e[3] = clamp(ctx, qn);
}

/// Hydro constraint: dt ≤ dvovmax guard.
pub(crate) fn calc_hydro_constraint(ctx: &mut SiteCtx, e: &mut [f64]) {
    let dvov = ctx.mul(e[1], 0.067);
    let mag = ctx.max(dvov, 0.011);
    let dt = ctx.div(0.31, mag);
    let capped = ctx.min(dt, 1.7);
    let qn = ctx.mul_add(capped, 0.009, e[3]);
    e[3] = clamp(ctx, qn);
}

/// Time-constraint driver body.
pub(crate) fn calc_time_constraints(ctx: &mut SiteCtx, e: &mut [f64]) {
    let eterm = ctx.mul(e[2], 0.02);
    let blend = ctx.mul_add(e[3], 0.06, eterm);
    let vn = ctx.add(e[1], blend);
    e[1] = clamp(ctx, vn);
}

// ---------------------------------------------------------------------
// Static (internal-linkage) helpers — the source of indirect finds.
// ---------------------------------------------------------------------

/// Shape-function derivatives: the 8-node hexahedron Jacobian, heavily
/// unrolled in the real code; `static inline` in lulesh.cc.
pub(crate) fn calc_elem_shape_function_derivatives(ctx: &mut SiteCtx, e: &mut [f64]) {
    // Jacobian columns from the element fields (a 3x3-ish reduction).
    let j0 = ctx.sub(e[0], e[1]);
    let j1 = ctx.sub(e[1], e[2]);
    let j2 = ctx.sub(e[2], e[3]);
    let c0 = ctx.mul(j1, j2);
    let c1 = ctx.mul(j2, j0);
    let c2 = ctx.mul(j0, j1);
    let det0 = ctx.mul(j0, c0);
    let det1 = ctx.mul_add(j1, c1, det0);
    let det = ctx.mul_add(j2, c2, det1);
    let safe = ctx.max(det, 0.013);
    let inv = ctx.div(0.125, safe);
    let xn = ctx.mul_add(inv, 0.021, e[0]);
    e[0] = clamp(ctx, xn);
    let vn = ctx.mul_add(c0, 0.017, e[1]);
    e[1] = clamp(ctx, vn);
}

/// Element volume: the triple-product volume formula (static).
pub(crate) fn calc_elem_volume(ctx: &mut SiteCtx, e: &mut [f64]) {
    let d1 = ctx.sub(e[1], e[0]);
    let d2 = ctx.sub(e[2], e[0]);
    let d3 = ctx.sub(e[3], e[0]);
    let t1 = ctx.mul(d1, d2);
    let t2 = ctx.mul(d2, d3);
    let t3 = ctx.mul(d3, d1);
    let s = ctx.add(t1, t2);
    let s = ctx.add(s, t3);
    let vol = ctx.mul(s, 0.166_666_666_666_666_66);
    let mag = ctx.max(vol, 0.021);
    let rest = ctx.mul(e[0], 0.945);
    let xn = ctx.mul_add(mag, 0.055, rest);
    e[0] = clamp(ctx, xn);
}

/// Face-normal accumulation (static SumElemFaceNormal).
pub(crate) fn sum_elem_face_normal(ctx: &mut SiteCtx, e: &mut [f64]) {
    let bisect_x = ctx.add(e[0], e[1]);
    let bisect_y = ctx.add(e[2], e[3]);
    let ax = ctx.mul(bisect_x, 0.25);
    let ay = ctx.mul(bisect_y, 0.25);
    let nx = ctx.mul(ax, ay);
    let vn = ctx.mul_add(nx, 0.043, e[1]);
    e[1] = clamp(ctx, vn);
}

/// Nodal force gather (static CalcElemNodalForce-alike).
pub(crate) fn calc_elem_nodal_force(ctx: &mut SiteCtx, e: &mut [f64]) {
    let fx = ctx.mul(e[2], 0.311);
    let fy = ctx.mul(e[3], 0.177);
    let f = ctx.sub(fx, fy);
    let vn = ctx.mul_add(f, 0.25, e[1]);
    e[1] = clamp(ctx, vn);
}

/// Velocity gradient (static CalcElemVelocityGradient).
pub(crate) fn calc_elem_velocity_gradient(ctx: &mut SiteCtx, e: &mut [f64]) {
    let dv = ctx.sub(e[1], e[3]);
    let detj = ctx.add(e[0], 0.37);
    let inv_det = ctx.div(1.0, detj);
    let dxx = ctx.mul(dv, inv_det);
    let dyy = ctx.mul(dxx, 0.5);
    let trace = ctx.add(dxx, dyy);
    let en = ctx.mul_add(trace, -0.031, e[2]);
    e[2] = clamp(ctx, en);
}

/// Face area (static AreaFace).
pub(crate) fn area_face(ctx: &mut SiteCtx, e: &mut [f64]) {
    let fx = ctx.sub(e[0], e[2]);
    let gx = ctx.sub(e[1], e[3]);
    let f2 = ctx.mul(fx, fx);
    let g2 = ctx.mul(gx, gx);
    let fg = ctx.mul(fx, gx);
    let cross = ctx.mul(fg, -0.5);
    let area = ctx.mul_add(f2, g2, cross);
    let pos = ctx.max(area, 0.008);
    let qn = ctx.mul_add(pos, 0.021, e[3]);
    e[3] = clamp(ctx, qn);
}

/// Characteristic length (static CalcElemCharacteristicLength).
pub(crate) fn calc_elem_characteristic_length(ctx: &mut SiteCtx, e: &mut [f64]) {
    let a = ctx.mul(e[0], e[0]);
    let vol = ctx.mul(e[0], a);
    let area = ctx.max(a, 0.019);
    let scaled_vol = ctx.mul(vol, 4.0);
    let char_len = ctx.div(scaled_vol, area);
    let capped = ctx.min(char_len, 1.3);
    let rest = ctx.mul(e[0], 0.967);
    let xn = ctx.mul_add(capped, 0.033, rest);
    e[0] = clamp(ctx, xn);
}

/// Volume derivative (static VoluDer).
pub(crate) fn volu_der(ctx: &mut SiteCtx, e: &mut [f64]) {
    let s1 = ctx.add(e[1], e[2]);
    let s2 = ctx.add(e[2], e[3]);
    let p = ctx.mul(s1, s2);
    let d = ctx.mul(p, 0.083_333_333_333_333_33);
    let xn = ctx.mul_add(d, 0.027, e[0]);
    e[0] = clamp(ctx, xn);
}

// ---------------------------------------------------------------------
// Dead code (never called by the benchmark driver): hourglass control
// (our mesh never needs it), init, comm, and viz paths.
// ---------------------------------------------------------------------

/// Hourglass force driver (dead: the proxy mesh stays regular).
pub(crate) fn calc_fb_hourglass_force(ctx: &mut SiteCtx, e: &mut [f64]) {
    let h0 = ctx.sub(e[0], e[1]);
    let h1 = ctx.sub(e[1], e[2]);
    let h2 = ctx.sub(e[2], e[3]);
    let h3 = ctx.sub(e[3], e[0]);
    let g0 = ctx.mul(h0, 0.7);
    let g1 = ctx.mul(h1, 0.7);
    let g2 = ctx.mul(h2, 0.7);
    let g3 = ctx.mul(h3, 0.7);
    let s0 = ctx.add(g0, g2);
    let s1 = ctx.add(g1, g3);
    let coef = ctx.mul(s0, s1);
    let vn = ctx.mul_add(coef, 0.05, e[1]);
    e[1] = clamp(ctx, vn);
}

/// Per-element hourglass force (static, reachable only from the dead
/// driver).
pub(crate) fn calc_elem_fb_hourglass_force(ctx: &mut SiteCtx, e: &mut [f64]) {
    let hgfx = ctx.mul(e[0], 0.11);
    let hgfy = ctx.mul(e[1], 0.13);
    let hgfz = ctx.mul(e[2], 0.17);
    let sum = ctx.add(hgfx, hgfy);
    let sum = ctx.add(sum, hgfz);
    let vn = ctx.mul_add(sum, 0.07, e[1]);
    e[1] = clamp(ctx, vn);
}

/// Initial stress terms (dead: only used at t = 0, before the driver's
/// measurement window).
pub(crate) fn init_stress_terms(ctx: &mut SiteCtx, e: &mut [f64]) {
    let p0 = ctx.mul(e[2], 0.5);
    let sig = ctx.sub(-0.0, p0);
    let en = ctx.mul_add(sig, -0.08, e[2]);
    e[2] = clamp(ctx, en);
}

/// Ghost-exchange packing arithmetic (dead: single-domain run).
pub(crate) fn comm_send_pos_vel(ctx: &mut SiteCtx, e: &mut [f64]) {
    let half_v = ctx.mul(e[1], 0.5);
    let packed = ctx.mul_add(e[0], 0.5, half_v);
    let vn = ctx.add(packed, 0.001);
    e[1] = clamp(ctx, vn);
}

/// Energy-sync reduction for ghost cells (dead).
pub(crate) fn comm_sync_energy(ctx: &mut SiteCtx, e: &mut [f64]) {
    let pair = ctx.add(e[2], e[3]);
    let avg = ctx.mul(pair, 0.5);
    let en = ctx.mul_add(avg, 0.02, e[2]);
    e[2] = clamp(ctx, en);
}

/// Visualization dump scaling (dead).
pub(crate) fn dump_to_visit(ctx: &mut SiteCtx, e: &mut [f64]) {
    let scaled = ctx.mul(e[2], 100.0);
    let shifted = ctx.add(scaled, 1.0);
    let back = ctx.div(shifted, 101.0);
    e[2] = clamp(ctx, back);
}

/// Unrolled polynomial series used to pad the program to LULESH's
/// exact static FP-instruction count (a long dead EOS table — see
/// `program::PAD_TERMS`). Each term is a distinct lexical operation,
/// like an unrolled loop in the source.
pub(crate) struct PaddedSeries {
    /// Symbol name.
    pub name: &'static str,
    /// Number of unrolled fused multiply-add terms.
    pub terms: usize,
}

impl KernelImpl for PaddedSeries {
    fn name(&self) -> &str {
        self.name
    }

    fn eval(&self, state: &mut [f64], env: &FpEnv, inj: Option<Injection>) {
        let mut ctx = SiteCtx::new(env, inj);
        let mut acc = 0.25f64;
        for k in 0..self.terms {
            // Lexically unrolled series: every term is its own site.
            let coef = [0.125, -0.25, 0.375, -0.5, 0.0625, -0.125, 0.3125, -0.375][k % 8];
            acc = ctx.mul_add(acc, 0.498, coef * 0.1 + 0.13);
        }
        if let Some(x) = state.first_mut() {
            let blended = 0.875 * *x + 0.125 * (acc.clamp(0.0, 1.0));
            *x = blended.clamp(FLOOR, CEIL);
        }
    }

    fn fp_sites(&self) -> usize {
        self.terms
    }

    fn work(&self) -> f64 {
        self.terms as f64
    }

    fn class(&self) -> KernelClass {
        KernelClass::DotHeavy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_program::sites::InjectOp;

    fn all_bodies() -> Vec<ElemLoopKernel> {
        macro_rules! k {
            ($name:literal, $f:ident, $class:expr) => {
                ElemLoopKernel {
                    name: $name,
                    body: $f,
                    corners: 3,
                    class: $class,
                }
            };
        }
        use KernelClass::*;
        vec![
            k!("LagrangeNodal", lagrange_nodal, Stencil),
            k!("CalcForceForNodes", calc_force_for_nodes, Stencil),
            k!(
                "CalcVolumeForceForElems",
                calc_volume_force_for_elems,
                Stencil
            ),
            k!(
                "CalcAccelerationForNodes",
                calc_acceleration_for_nodes,
                Stencil
            ),
            k!("CalcVelocityForNodes", calc_velocity_for_nodes, Stencil),
            k!("CalcPositionForNodes", calc_position_for_nodes, Stencil),
            k!("LagrangeElements", lagrange_elements, Stencil),
            k!(
                "CalcKinematicsForElems",
                calc_kinematics_for_elems,
                DotHeavy
            ),
            k!(
                "CalcMonotonicQGradients",
                calc_monotonic_q_gradients,
                Stencil
            ),
            k!("CalcMonotonicQRegion", calc_monotonic_q_region, Branchy),
            k!("CalcPressureForElems", calc_pressure_for_elems, DotHeavy),
            k!("CalcEnergyForElems", calc_energy_for_elems, DotHeavy),
            k!(
                "CalcSoundSpeedForElems",
                calc_sound_speed_for_elems,
                DivHeavy
            ),
            k!(
                "ApplyMaterialProperties",
                apply_material_properties,
                Branchy
            ),
            k!("EvalEOSForElems", eval_eos_for_elems, DotHeavy),
            k!("UpdateVolumesForElems", update_volumes_for_elems, Memory),
            k!("CalcCourantConstraint", calc_courant_constraint, DivHeavy),
            k!("CalcHydroConstraint", calc_hydro_constraint, DivHeavy),
            k!("CalcTimeConstraints", calc_time_constraints, Branchy),
            k!("ShapeDeriv", calc_elem_shape_function_derivatives, DotHeavy),
            k!("ElemVolume", calc_elem_volume, DotHeavy),
            k!("FaceNormal", sum_elem_face_normal, Stencil),
            k!("NodalForce", calc_elem_nodal_force, Stencil),
            k!("VelGradient", calc_elem_velocity_gradient, DotHeavy),
            k!("AreaFace", area_face, DotHeavy),
            k!("CharLength", calc_elem_characteristic_length, DivHeavy),
            k!("VoluDer", volu_der, Stencil),
            k!("FBHourglass", calc_fb_hourglass_force, Stencil),
            k!("ElemFBHourglass", calc_elem_fb_hourglass_force, Stencil),
            k!("InitStress", init_stress_terms, Memory),
            k!("CommSendPosVel", comm_send_pos_vel, Memory),
            k!("CommSyncEnergy", comm_sync_energy, Memory),
            k!("DumpToVisit", dump_to_visit, Memory),
        ]
    }

    #[test]
    fn every_body_has_sites_and_is_bounded() {
        let env = FpEnv::strict();
        for k in all_bodies() {
            assert!(k.fp_sites() > 0, "{} has no sites", k.name);
            // Boundedness: iterate the kernel many times.
            let mut state: Vec<f64> = (0..32)
                .map(|i| 0.2 + 0.5 * ((i as f64 * 0.37).sin() * 0.5 + 0.5))
                .collect();
            for _ in 0..50 {
                k.eval(&mut state, &env, None);
                for &x in &state {
                    assert!(
                        x.is_finite() && (FLOOR..=CEIL).contains(&x),
                        "{}: field escaped to {x}",
                        k.name
                    );
                }
            }
        }
    }

    #[test]
    fn site_counts_are_stable_and_branch_free() {
        // The probe must report the same count regardless of data: run
        // the body on several element values and compare site usage.
        let env = FpEnv::strict();
        for k in all_bodies() {
            // fp_sites includes the corner unrolling; the probe below
            // runs a single corner copy.
            let expected = k.fp_sites() / k.corners;
            for seed in 0..5 {
                let mut ctx = SiteCtx::counting(&env);
                let mut e = [
                    0.1 + 0.17 * seed as f64,
                    0.9 - 0.11 * seed as f64,
                    0.3 + 0.13 * seed as f64,
                    0.6 - 0.07 * seed as f64,
                ];
                (k.body)(&mut ctx, &mut e);
                assert_eq!(
                    ctx.site_count(),
                    expected,
                    "{}: data-dependent site count",
                    k.name
                );
            }
        }
    }

    #[test]
    fn injection_at_every_site_is_applied() {
        // For each kernel, injecting at each site perturbs the output
        // for at least one site (and never crashes for any).
        let env = FpEnv::strict();
        for k in all_bodies() {
            let clean: Vec<f64> = (0..16).map(|i| 0.3 + 0.02 * i as f64).collect();
            k.eval(&mut clean.clone(), &env, None);
            let mut any_effect = false;
            for site in 0..k.fp_sites() {
                let mut dirty: Vec<f64> = (0..16).map(|i| 0.3 + 0.02 * i as f64).collect();
                let mut base = dirty.clone();
                k.eval(
                    &mut dirty,
                    &env,
                    Some(Injection {
                        site,
                        op: InjectOp::Add,
                        eps: 0.9,
                    }),
                );
                k.eval(&mut base, &env, None);
                if dirty != base {
                    any_effect = true;
                }
            }
            assert!(any_effect, "{}: no site had any effect", k.name);
        }
    }

    #[test]
    fn padded_series_counts_its_terms() {
        let pad = PaddedSeries {
            name: "pad",
            terms: 57,
        };
        assert_eq!(pad.fp_sites(), 57);
        let env = FpEnv::strict();
        let mut s = vec![0.5; 4];
        pad.eval(&mut s, &env, None);
        assert!(s[0].is_finite() && (FLOOR..=CEIL).contains(&s[0]));
    }
}
