//! Certificate construction: replay the engine's exact call walk
//! abstractly, once per bisect item.
//!
//! The walk mirrors `flit_program::engine` bit for bit:
//!
//! - structure (symbol table, call lists) comes from the baseline tree;
//! - at **file** granularity every function evaluates under its
//!   defining file's environment (static calls bind into the caller's
//!   object only within the same file, and exported intra-file inlining
//!   never crosses an object boundary), so flipping file `f` changes
//!   exactly the evaluations of functions defined in `f`;
//! - at **symbol** granularity every object is PIC (extended precision
//!   washed, exported calls always interposed through the definer), so
//!   flipping symbol `s` changes the evaluations of `s` plus the
//!   same-file `static` functions it (transitively) pulls into its
//!   object — reached *through `s`*; the same static called from an
//!   unflipped exported function still runs baseline;
//! - the **whole-pair** walk flips every evaluation (all-baseline
//!   binary vs all-candidate binary, each linked by its own driver).
//!
//! Because a file/symbol item's environment does not depend on which
//! *other* items are flipped, an `Invariant` verdict is set-invariant:
//! swapping the item's compilation changes no computation in *any*
//! mixed binary of the pair, which is exactly the property sound
//! frontier pruning needs.

use std::collections::BTreeMap;

use flit_fpsim::env::FpEnv;
use flit_program::model::Visibility;
use flit_program::{Driver, Function, SimProgram};
use flit_toolchain::{mixed_abi_hazard, Compilation, CompilerKind};

use crate::domain::AbsState;
use crate::realization::same_realization;
use crate::transfer;
use crate::Certificate;

/// Everything the analysis can certify about one (program, driver,
/// compilation pair).
#[derive(Debug, Clone)]
pub struct PairCertificates {
    /// Baseline compilation label.
    pub base_label: String,
    /// Candidate compilation label.
    pub cand_label: String,
    /// Per-file certificates, indexed by `file_id`.
    pub files: Vec<Certificate>,
    /// Per-exported-symbol certificates.
    pub symbols: BTreeMap<String, Certificate>,
    /// The whole-pair certificate: bound on `l2_diff` between the
    /// all-baseline and all-candidate binaries.
    pub whole: Certificate,
    /// A mixed binary of this pair can crash at link time (the
    /// linker's mixed-ABI predicate). Every item certificate is then
    /// `Unknown`: the gate says nothing about arithmetic.
    pub abi_hazard: bool,
}

impl PairCertificates {
    /// Certificate for a file item (Unknown when out of range).
    pub fn file(&self, file_id: usize) -> Certificate {
        self.files
            .get(file_id)
            .copied()
            .unwrap_or(Certificate::Unknown)
    }

    /// Certificate for a symbol item (Unknown when unknown symbol).
    pub fn symbol(&self, name: &str) -> Certificate {
        self.symbols
            .get(name)
            .copied()
            .unwrap_or(Certificate::Unknown)
    }

    /// Counts by kind over all item certificates (files + symbols),
    /// for `absint.*` trace counters.
    pub fn counts(&self) -> (u64, u64, u64) {
        let mut inv = 0;
        let mut bnd = 0;
        let mut unk = 0;
        for c in self.files.iter().chain(self.symbols.values()) {
            match c {
                Certificate::Invariant => inv += 1,
                Certificate::Bounded(_) => bnd += 1,
                Certificate::Unknown => unk += 1,
            }
        }
        (inv, bnd, unk)
    }
}

/// Which bisect item is flipped to the candidate compilation.
#[derive(Debug, Clone, Copy)]
enum Flip<'a> {
    File(usize),
    Symbol(&'a str),
    Whole,
}

/// Certify every bisect item of `(base, cand)` on `program` under
/// `driver`.
///
/// `cand_prog` carries the candidate build tree's bodies (pass the same
/// reference as `base_prog` when both trees share sources, the normal
/// bisect case). `link_driver` is the driver that links *mixed*
/// binaries (FLiT links with the baseline's driver); the whole-pair
/// comparison links each pure binary with its own driver.
pub fn certify_pair(
    base_prog: &SimProgram,
    cand_prog: &SimProgram,
    driver: &Driver,
    base: &Compilation,
    cand: &Compilation,
    link_driver: CompilerKind,
) -> PairCertificates {
    // Gate: mixed-ABI crash hazard. A crash on either side of a mixed
    // comparison is a discrete result change no arithmetic bound covers.
    let abi_hazard = mixed_abi_hazard(&[base.compiler], link_driver)
        || mixed_abi_hazard(&[base.compiler, cand.compiler], link_driver);
    let item = |flip| {
        if abi_hazard {
            Certificate::Unknown
        } else {
            certify_item(base_prog, cand_prog, driver, base, cand, link_driver, flip)
        }
    };
    let files = (0..base_prog.files.len())
        .map(|fid| item(Flip::File(fid)))
        .collect();
    let symbols = base_prog
        .files
        .iter()
        .flat_map(|file| &file.functions)
        .filter(|f| matches!(f.visibility, Visibility::Exported))
        .map(|f| (f.name.clone(), item(Flip::Symbol(&f.name))))
        .collect();
    let whole = certify_item(
        base_prog,
        cand_prog,
        driver,
        base,
        cand,
        link_driver,
        Flip::Whole,
    );
    PairCertificates {
        base_label: base.label(),
        cand_label: cand.label(),
        files,
        symbols,
        whole,
        abi_hazard,
    }
}

/// Abstract walk state threaded through the call tree.
struct Walk<'a> {
    base_prog: &'a SimProgram,
    cand_prog: &'a SimProgram,
    env_base: FpEnv,
    env_cand: FpEnv,
    state_len: usize,
    abs: AbsState,
    /// Some flipped evaluation had a diverging realization or body.
    invariant_broken: bool,
}

fn certify_item(
    base_prog: &SimProgram,
    cand_prog: &SimProgram,
    driver: &Driver,
    base: &Compilation,
    cand: &Compilation,
    link_driver: CompilerKind,
    flip: Flip,
) -> Certificate {
    // The whole-pair comparison links each pure binary with its own
    // driver, so it has its own crash gate (items are gated by the
    // caller).
    if matches!(flip, Flip::Whole)
        && (mixed_abi_hazard(&[base.compiler], base.compiler)
            || mixed_abi_hazard(&[cand.compiler], cand.compiler))
    {
        return Certificate::Unknown;
    }

    // Environment each run assigns to baseline / flipped evaluations.
    let (env_base, env_cand) = match flip {
        Flip::Whole => (
            base.fp_env_linked(base.compiler),
            cand.fp_env_linked(cand.compiler),
        ),
        Flip::File(_) => (
            base.fp_env_linked(link_driver),
            cand.fp_env_linked(link_driver),
        ),
        Flip::Symbol(_) => {
            // Symbol Bisect recompiles everything PIC; the engine washes
            // extended precision out of PIC objects.
            let mut eb = base.fp_env_linked(link_driver);
            let mut ec = cand.fp_env_linked(link_driver);
            eb.extended_precision = false;
            ec.extended_precision = false;
            (eb, ec)
        }
    };

    let state_len = driver.state_size + (driver.decomposition.max(1) - 1) * 2;
    let mut walk = Walk {
        base_prog,
        cand_prog,
        env_base,
        env_cand,
        state_len,
        abs: AbsState::initial(),
        invariant_broken: false,
    };

    for _round in 0..driver.rounds {
        for entry in &driver.entries {
            let entry_flipped = match flip {
                Flip::Whole => true,
                Flip::File(_) => false, // decided per function below
                Flip::Symbol(s) => entry == s,
            };
            visit(&mut walk, entry, flip, entry_flipped, 0);
        }
    }

    finalize(&walk)
}

/// One function evaluation plus its callees, mirroring `Engine::exec`.
fn visit(walk: &mut Walk, symbol: &str, flip: Flip, in_flipped_object: bool, depth: usize) {
    if depth >= 64 {
        walk.abs.unknown = true;
        return;
    }
    let Some((fi, _gi)) = lookup(walk.base_prog, symbol) else {
        walk.abs.unknown = true;
        return;
    };
    let fn_a = walk.base_prog.function(symbol).expect("validated symbol");

    // Does THIS evaluation run under the candidate environment in run B?
    let flipped_eval = match flip {
        Flip::Whole => true,
        Flip::File(fid) => fi == fid,
        Flip::Symbol(_) => in_flipped_object,
    };

    let env_a = walk.env_base;
    let env_b = if flipped_eval {
        walk.env_cand
    } else {
        walk.env_base
    };

    // Gate 2: body identity across the two build trees. A differing
    // body (injection, edited kernel) evaluates two different dataflows;
    // envelope both and saturate the difference.
    let fn_b = if flipped_eval {
        walk.cand_prog.function(symbol)
    } else {
        Some(fn_a)
    };
    let bodies_differ = match fn_b {
        Some(b) => flipped_eval && !same_body(fn_a, b),
        None => true,
    };

    if flipped_eval
        && (bodies_differ || !same_realization(&fn_a.kernel, &env_a, &env_b, walk.state_len))
    {
        walk.invariant_broken = true;
    }

    if bodies_differ {
        let kb = fn_b.map_or(&fn_a.kernel, |f| &f.kernel);
        let mut run_a = walk.abs;
        let mut run_b = walk.abs;
        transfer::apply(&fn_a.kernel, &mut run_a, &env_a, &env_a, walk.state_len);
        transfer::apply(kb, &mut run_b, &env_b, &env_b, walk.state_len);
        walk.abs = AbsState::merge_diverged(run_a, run_b);
    } else {
        transfer::apply(&fn_a.kernel, &mut walk.abs, &env_a, &env_b, walk.state_len);
    }

    // Callees execute in order after the body (structure from the
    // baseline tree, like the engine's programs[0] lookup).
    let calls = fn_a.calls.clone();
    for callee in &calls {
        let callee_flipped = callee_context(walk.base_prog, fn_a, callee, flip, in_flipped_object);
        visit(walk, callee, flip, callee_flipped, depth + 1);
    }
}

/// Which object (baseline or flipped) a callee evaluation binds into —
/// the engine's static/exported binding rules.
fn callee_context(
    prog: &SimProgram,
    caller: &Function,
    callee: &str,
    flip: Flip,
    caller_flipped: bool,
) -> bool {
    match flip {
        Flip::Whole => true,
        // File granularity: binding never crosses a file boundary into a
        // different environment — handled per function inside `visit`.
        Flip::File(_) => false,
        Flip::Symbol(s) => {
            let Some(f) = prog.function(callee) else {
                return false;
            };
            match f.visibility {
                // Static callees live in the caller's object (program
                // validation guarantees same file).
                Visibility::Static => caller_flipped,
                // PIC objects always interpose exported calls through
                // the definer: flipped iff the callee IS the flipped
                // symbol. (`caller`/inlining is irrelevant under PIC.)
                Visibility::Exported => {
                    let _ = caller;
                    callee == s
                }
            }
        }
    }
}

fn lookup(prog: &SimProgram, symbol: &str) -> Option<(usize, usize)> {
    prog.lookup(symbol)
}

/// Compare the two trees' versions of a function (kernel + injection —
/// structure is already validated equal).
fn same_body(a: &Function, b: &Function) -> bool {
    serde::Serialize::to_value(a) == serde::Serialize::to_value(b)
}

fn finalize(walk: &Walk) -> Certificate {
    if !walk.invariant_broken && !walk.abs.unknown {
        // Every evaluation realized identical arithmetic on both sides:
        // the two executions are bit-identical (NaNs included), so
        // l2_diff is exactly zero.
        return Certificate::Invariant;
    }
    let abs = &walk.abs;
    if abs.unknown || !abs.delta.is_finite() || (abs.nan && abs.delta > 0.0) {
        return Certificate::Unknown;
    }
    // Element-wise bound to ℓ2: ‖A − B‖₂ ≤ √n · max_i |A_i − B_i|,
    // rounded outward.
    let n = walk.state_len.max(1) as f64;
    let eps = flit_fpsim::interval::next_up(n.sqrt() * abs.delta);
    Certificate::Bounded(eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_program::{Kernel, SourceFile};
    use flit_toolchain::{OptLevel, Switch};

    fn two_file_program() -> SimProgram {
        SimProgram::new(
            "app",
            vec![
                SourceFile::new(
                    "sensitive.cpp",
                    vec![Function::exported("hot_dot", Kernel::DotMix { stride: 3 })
                        .with_calls(vec!["helper".into()])],
                ),
                SourceFile::new(
                    "benign.cpp",
                    vec![
                        Function::exported("helper", Kernel::Benign { flavor: 2 }),
                        Function::exported("transc", Kernel::TranscMap { freq: 3.0 }),
                    ],
                ),
            ],
        )
    }

    fn driver() -> Driver {
        Driver::new("t", vec!["hot_dot".into(), "transc".into()], 3, 64)
    }

    fn unsafe_gcc() -> Compilation {
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe])
    }

    #[test]
    fn benign_file_is_invariant_and_sensitive_file_is_not() {
        let prog = two_file_program();
        let base = Compilation::baseline();
        let cand = unsafe_gcc();
        let certs = certify_pair(&prog, &prog, &driver(), &base, &cand, CompilerKind::Gcc);
        // File 1 holds only exact-arithmetic and mathlib-only kernels;
        // the gcc pair never changes the mathlib (link driver decides).
        assert_eq!(certs.file(1), Certificate::Invariant);
        // File 0 holds the reduction kernel: realization differs.
        assert!(matches!(certs.file(0), Certificate::Bounded(_)));
        assert_eq!(certs.symbol("helper"), Certificate::Invariant);
        assert_eq!(certs.symbol("transc"), Certificate::Invariant);
        assert!(matches!(certs.symbol("hot_dot"), Certificate::Bounded(_)));
        assert!(matches!(certs.whole, Certificate::Bounded(_)));
    }

    #[test]
    fn identical_pair_is_invariant_everywhere() {
        let prog = two_file_program();
        let base = Compilation::baseline();
        let certs = certify_pair(&prog, &prog, &driver(), &base, &base, CompilerKind::Gcc);
        assert!(certs.files.iter().all(|c| *c == Certificate::Invariant));
        assert!(certs.symbols.values().all(|c| *c == Certificate::Invariant));
        assert_eq!(certs.whole, Certificate::Invariant);
        assert!(!certs.abi_hazard);
    }

    #[test]
    fn intel_pair_hits_the_abi_gate() {
        let prog = two_file_program();
        let base = Compilation::baseline();
        let cand = Compilation::new(CompilerKind::Icpc, OptLevel::O2, vec![]);
        let certs = certify_pair(&prog, &prog, &driver(), &base, &cand, CompilerKind::Gcc);
        // Mixed gcc/icpc objects under a gcc link: every mixed binary
        // can crash, so no item certificate is sound.
        assert!(certs.abi_hazard);
        assert!(certs.files.iter().all(|c| *c == Certificate::Unknown));
        assert!(certs.symbols.values().all(|c| *c == Certificate::Unknown));
        // The pure-vs-pure whole comparison never mixes ABIs, and the
        // icpc side links the vendor mathlib: transc diverges bounded.
        assert!(matches!(certs.whole, Certificate::Bounded(_)));
    }

    #[test]
    fn differing_bodies_break_invariance() {
        let prog = two_file_program();
        let mut edited = two_file_program();
        edited.function_mut("helper").unwrap().kernel = Kernel::Benign { flavor: 5 };
        let base = Compilation::baseline();
        let certs = certify_pair(&prog, &edited, &driver(), &base, &base, CompilerKind::Gcc);
        assert_ne!(certs.symbol("helper"), Certificate::Invariant);
        assert_ne!(certs.file(1), Certificate::Invariant);
        // The other file's evaluations are untouched by the edit.
        assert_eq!(certs.file(0), Certificate::Invariant);
    }

    #[test]
    fn static_closure_rides_with_the_flipped_symbol() {
        let prog = SimProgram::new(
            "app",
            vec![SourceFile::new(
                "one.cpp",
                vec![
                    Function::exported("outer", Kernel::Benign { flavor: 1 })
                        .with_calls(vec!["inner".into()]),
                    Function::local("inner", Kernel::HeatSmooth { steps: 2, r: 0.2 }),
                    Function::exported("other", Kernel::Benign { flavor: 2 })
                        .with_calls(vec!["inner".into()]),
                ],
            )],
        );
        let drv = Driver::new("t", vec!["outer".into(), "other".into()], 1, 32);
        let base = Compilation::baseline();
        // gcc -O2 -mavx2 -mfma: FMA contraction on, nothing else.
        let cand = Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::Avx2Fma]);
        let certs = certify_pair(&prog, &prog, &drv, &base, &cand, CompilerKind::Gcc);
        // Flipping `outer` drags the static FMA-sensitive `inner` into
        // the candidate object: not invariant.
        assert_ne!(certs.symbol("outer"), Certificate::Invariant);
        // Flipping `other` does the same through its own call.
        assert_ne!(certs.symbol("other"), Certificate::Invariant);
    }

    #[test]
    fn bound_is_small_for_mathlib_only_divergence() {
        let prog = SimProgram::new(
            "app",
            vec![SourceFile::new(
                "t.cpp",
                vec![Function::exported(
                    "transc",
                    Kernel::TranscMap { freq: 3.0 },
                )],
            )],
        );
        let drv = Driver::new("t", vec!["transc".into()], 1, 64);
        let base = Compilation::baseline();
        let cand = Compilation::new(CompilerKind::Icpc, OptLevel::O1, vec![]);
        let certs = certify_pair(&prog, &prog, &drv, &base, &cand, CompilerKind::Gcc);
        match certs.whole {
            Certificate::Bounded(e) => {
                assert!(e > 0.0 && e < 1e-10, "mathlib bound should be tight: {e}");
            }
            other => panic!("expected a bounded whole certificate, got {other:?}"),
        }
    }
}
