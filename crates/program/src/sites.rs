//! Static floating-point instruction sites and the injection hook.
//!
//! The paper's injection framework (§3.5) is an LLVM pass: "given a
//! target floating-point instruction of the form `x OP y` … we introduce
//! an additional operation `x OP' ε`", applied *before* optimization.
//! An injection location is "a file, function and floating-point
//! instruction tuple".
//!
//! Our analog: injectable kernels evaluate their arithmetic through a
//! [`SiteCtx`], which numbers each *lexical* (static) floating-point
//! operation in the kernel body. Loop iterations re-execute the same
//! lexical site, so — exactly like an IR instruction — one injection
//! perturbs every dynamic execution of that instruction.
//!
//! Kernel bodies used with `SiteCtx` must be branch-free per element
//! (use [`SiteCtx::min`]/[`SiteCtx::max`] instead of `if`) so that every
//! iteration executes the same site sequence; [`SiteCtx::begin_body`]
//! re-aligns the counter at the top of each iteration.

use serde::{Deserialize, Serialize};

use flit_fpsim::env::FpEnv;
use flit_fpsim::ops;

/// The additional operation `OP'` applied at an injection site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InjectOp {
    /// `x + ε`
    Add,
    /// `x - ε`
    Sub,
    /// `x * (1 + ε·2⁻⁴⁰)` — multiplicative perturbations use a
    /// near-unity factor so the program stays in range; the paper's ε is
    /// similarly chosen "from a uniform distribution between 0 and 1"
    /// scaled to be small (their example uses `1e-100`).
    Mul,
    /// `x / (1 + ε·2⁻⁴⁰)`
    Div,
}

impl InjectOp {
    /// All four basic operations.
    pub const ALL: [InjectOp; 4] = [InjectOp::Add, InjectOp::Sub, InjectOp::Mul, InjectOp::Div];

    /// Apply the perturbation to an operand.
    #[inline]
    pub(crate) fn apply(self, x: f64, eps: f64) -> f64 {
        // Additive perturbations are scaled to sit far below the data
        // (like the paper's 1e-100 example but large enough to survive
        // double rounding); multiplicative ones hug 1.0.
        match self {
            InjectOp::Add => x + eps * 1e-13,
            InjectOp::Sub => x - eps * 1e-13,
            InjectOp::Mul => x * (1.0 + eps * 9.094947017729282e-13), // 2^-40
            InjectOp::Div => x / (1.0 + eps * 9.094947017729282e-13),
        }
    }
}

/// An injection: perturb static site `site` (within one function) with
/// `x OP' ε` before the original operation executes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Injection {
    /// Static FP-instruction index within the target function's kernel.
    pub site: usize,
    /// The additional operation.
    pub op: InjectOp,
    /// ε drawn from U(0, 1).
    pub eps: f64,
}

/// Evaluation context for injectable kernels: environment-aware
/// arithmetic with static-site numbering and an optional injection.
pub struct SiteCtx<'a> {
    env: &'a FpEnv,
    injection: Option<Injection>,
    cursor: usize,
    body_base: usize,
    body_len: usize,
    max_site: usize,
    counting: bool,
}

impl<'a> SiteCtx<'a> {
    /// A live evaluation context (with optional injection).
    pub fn new(env: &'a FpEnv, injection: Option<Injection>) -> Self {
        SiteCtx {
            env,
            injection,
            cursor: 0,
            body_base: 0,
            body_len: 0,
            max_site: 0,
            counting: false,
        }
    }

    /// A counting context: evaluates normally (strict env) but its only
    /// purpose is [`SiteCtx::site_count`] — the first pass of the
    /// injection framework, "identifying potential valid injection
    /// locations".
    pub fn counting(env: &'a FpEnv) -> Self {
        let mut c = SiteCtx::new(env, None);
        c.counting = true;
        c
    }

    /// Number of distinct static sites touched so far.
    pub fn site_count(&self) -> usize {
        self.max_site
    }

    /// Mark the start of a loop body executing `sites_in_body` lexical
    /// FP operations: iterations re-run the same site ids.
    ///
    /// Call once before the loop with the per-iteration site count; call
    /// [`SiteCtx::next_iteration`] at the top of each iteration.
    pub fn begin_body(&mut self, sites_in_body: usize) {
        self.body_base = self.cursor;
        self.body_len = sites_in_body;
    }

    /// Reset the cursor to the top of the current loop body.
    pub fn next_iteration(&mut self) {
        self.cursor = self.body_base;
    }

    /// Close the loop: subsequent straight-line sites continue after the
    /// body's site range.
    pub fn end_body(&mut self) {
        self.cursor = self.body_base + self.body_len;
        self.max_site = self.max_site.max(self.cursor);
    }

    #[inline]
    fn tick(&mut self, x: f64) -> f64 {
        let site = self.cursor;
        self.cursor += 1;
        self.max_site = self.max_site.max(self.cursor);
        match self.injection {
            Some(inj) if inj.site == site => inj.op.apply(x, inj.eps),
            _ => x,
        }
    }

    /// `a + b` (one static site; injection perturbs `a`).
    #[inline]
    pub fn add(&mut self, a: f64, b: f64) -> f64 {
        let a = self.tick(a);
        ops::add(self.env, a, b)
    }

    /// `a - b`.
    #[inline]
    pub fn sub(&mut self, a: f64, b: f64) -> f64 {
        let a = self.tick(a);
        ops::sub(self.env, a, b)
    }

    /// `a * b`.
    #[inline]
    pub fn mul(&mut self, a: f64, b: f64) -> f64 {
        let a = self.tick(a);
        ops::mul(self.env, a, b)
    }

    /// `a / b`.
    #[inline]
    pub fn div(&mut self, a: f64, b: f64) -> f64 {
        let a = self.tick(a);
        ops::div(self.env, a, b)
    }

    /// `a*b + c` (contraction-sensitive; counts as one site like an IR
    /// fmuladd).
    #[inline]
    pub fn mul_add(&mut self, a: f64, b: f64, c: f64) -> f64 {
        let a = self.tick(a);
        ops::mul_add(self.env, a, b, c)
    }

    /// `sqrt(a)`.
    #[inline]
    pub fn sqrt(&mut self, a: f64) -> f64 {
        let a = self.tick(a);
        ops::sqrt(self.env, a)
    }

    /// Branch-free `min` (an FP instruction, hence a site).
    #[inline]
    pub fn min(&mut self, a: f64, b: f64) -> f64 {
        let a = self.tick(a);
        if a < b {
            a
        } else {
            b
        }
    }

    /// Branch-free `max`.
    #[inline]
    pub fn max(&mut self, a: f64, b: f64) -> f64 {
        let a = self.tick(a);
        if a > b {
            a
        } else {
            b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(ctx: &mut SiteCtx, x: f64) -> f64 {
        // 3 lexical sites.
        let a = ctx.mul(x, 2.0);
        let b = ctx.add(a, 1.0);
        ctx.div(b, 3.0)
    }

    #[test]
    fn straight_line_counts_sites() {
        let env = FpEnv::strict();
        let mut ctx = SiteCtx::counting(&env);
        let _ = body(&mut ctx, 1.0);
        assert_eq!(ctx.site_count(), 3);
    }

    #[test]
    fn loop_iterations_share_sites() {
        let env = FpEnv::strict();
        let mut ctx = SiteCtx::counting(&env);
        ctx.begin_body(3);
        for i in 0..10 {
            ctx.next_iteration();
            let _ = body(&mut ctx, i as f64);
        }
        ctx.end_body();
        // 10 iterations, still 3 static sites.
        assert_eq!(ctx.site_count(), 3);
        // Straight-line code after the loop continues numbering.
        let _ = ctx.add(1.0, 2.0);
        assert_eq!(ctx.site_count(), 4);
    }

    #[test]
    fn injection_perturbs_exactly_one_site() {
        let env = FpEnv::strict();
        let clean = {
            let mut ctx = SiteCtx::new(&env, None);
            body(&mut ctx, 0.7)
        };
        for site in 0..3 {
            let inj = Injection {
                site,
                op: InjectOp::Add,
                eps: 0.5,
            };
            let mut ctx = SiteCtx::new(&env, Some(inj));
            let perturbed = body(&mut ctx, 0.7);
            assert_ne!(clean, perturbed, "site {site} should perturb");
        }
        // An out-of-range site leaves the result untouched.
        let inj = Injection {
            site: 99,
            op: InjectOp::Add,
            eps: 0.5,
        };
        let mut ctx = SiteCtx::new(&env, Some(inj));
        assert_eq!(body(&mut ctx, 0.7), clean);
    }

    #[test]
    fn injection_applies_to_every_iteration_of_a_loop_site() {
        let env = FpEnv::strict();
        let run = |inj: Option<Injection>| {
            let mut ctx = SiteCtx::new(&env, inj);
            let mut acc = 0.0;
            ctx.begin_body(1);
            for i in 1..=4 {
                ctx.next_iteration();
                acc = ctx.add(acc, i as f64);
            }
            ctx.end_body();
            acc
        };
        let clean = run(None);
        assert_eq!(clean, 10.0);
        let inj = Injection {
            site: 0,
            op: InjectOp::Add,
            eps: 1.0,
        };
        let perturbed = run(Some(inj));
        // The accumulator operand is perturbed by 1e-13 on each of the 4
        // iterations (modulo rounding of the running sum).
        assert!((perturbed - 10.0 - 4e-13).abs() < 1e-14);
    }

    #[test]
    fn inject_ops_all_do_something() {
        for op in InjectOp::ALL {
            assert_ne!(op.apply(1.0, 0.7), 1.0, "{op:?}");
        }
        // Zero eps is the identity for add/sub and near-identity for mul/div.
        assert_eq!(InjectOp::Add.apply(2.5, 0.0), 2.5);
        assert_eq!(InjectOp::Mul.apply(2.5, 0.0), 2.5);
    }

    #[test]
    fn min_max_are_branch_free_sites() {
        let env = FpEnv::strict();
        let mut ctx = SiteCtx::counting(&env);
        let m = ctx.min(3.0, 1.0);
        let x = ctx.max(m, 2.0);
        assert_eq!((m, x), (1.0, 2.0));
        assert_eq!(ctx.site_count(), 2);
    }
}
