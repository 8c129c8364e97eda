//! The CGAL case from the paper's conclusion: "we have identified
//! specific instances of when it is unsafe to apply higher levels of
//! optimization, as these can drastically change the computed results
//! (e.g., even **discrete answers such as the number of points on a
//! mesh**)."
//!
//! This example builds a computational-geometry-style application whose
//! convex-hull construction uses *non-robust orientation predicates*:
//! the sign of a nearly-cancelling determinant decides whether a point
//! joins the hull. Under a value-changing compilation the determinant's
//! low bits — and sometimes its **sign** — change, so the hull has a
//! different number of points. The test returns the hull as a string
//! (the `std::string` result type of the FLiT API), FLiT flags the
//! discrete mismatch, and Bisect root-causes it to the predicate
//! function.
//!
//! ```sh
//! cargo run --release --example cgal_discrete
//! ```

use std::sync::Arc;

use flit::fpsim::reduce;
use flit::prelude::*;
use flit::program::kernel::KernelImpl;
use flit::program::sites::Injection;
use flit::toolchain::perf::KernelClass;

/// A non-robust orientation predicate bank: for each of 8 query points,
/// computes an ill-conditioned determinant under the compilation's FP
/// semantics and stores the *discrete* orientation (0.0 or 1.0) into
/// the state. The determinant's residual sits at rounding scale, so its
/// sign is semantics-dependent — exactly the CGAL failure mode.
struct OrientationPredicates;

impl KernelImpl for OrientationPredicates {
    fn name(&self) -> &str {
        "orientation_predicates"
    }

    fn eval(&self, state: &mut [f64], env: &FpEnv, _inj: Option<Injection>) {
        let n = state.len();
        if n < 16 {
            return;
        }
        const SCALES: [f64; 8] = [4.0, 0.25, 2.0, 0.5, 1.0, 4.0, 0.25, 2.0];
        for point in 0..8 {
            // An ill-conditioned "determinant": a cancelling, scaled dot
            // product of coordinate slices (evaluated under `env`).
            let a: Vec<f64> = (0..n)
                .map(|i| state[(i + point) % n] * SCALES[i % 8])
                .collect();
            let b: Vec<f64> = (0..n)
                .map(|i| {
                    let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                    sign * state[(i * 3 + point + 1) % n] * SCALES[(i * 5 + 3) % 8]
                })
                .collect();
            let det = reduce::dot(env, &a, &b);
            // The predicate: orientation = sign of the residual below
            // the determinant's leading 46 bits (a knife-edge decision
            // that a robust implementation would filter; this one is
            // deliberately non-robust).
            let y = det * 70_368_744_177_664.0; // 2^46
            let residual = y - y.round();
            state[point] = if residual > 0.0 { 1.0 } else { 0.0 };
        }
    }

    fn fp_sites(&self) -> usize {
        0
    }
    fn work(&self) -> f64 {
        512.0
    }
    fn class(&self) -> KernelClass {
        KernelClass::DotHeavy
    }
}

/// The FLiT test: runs the geometry pipeline and serializes the hull as
/// a string, using the API's `std::string` result variant.
struct HullTest {
    driver: Driver,
}

impl FlitTest for HullTest {
    fn name(&self) -> &str {
        "hull-regression"
    }
    fn inputs_per_run(&self) -> usize {
        2
    }
    fn default_input(&self) -> Vec<f64> {
        vec![0.37, 0.81]
    }
    fn run_impl(
        &self,
        input: &[f64],
        ctx: &RunContext,
    ) -> Result<(TestResult, f64), flit::program::engine::RunError> {
        let out = ctx.run_driver(&self.driver, input)?;
        // The orientation flags are the exact 0.0/1.0 markers; the rest
        // of the state (coordinates) lives strictly inside (0, 1), and
        // the hull code may permute the array (benign data movement).
        let flags: Vec<u8> = out
            .output
            .iter()
            .filter(|&&x| x == 0.0 || x == 1.0)
            .map(|&x| x as u8)
            .collect();
        let count: usize = flags.iter().map(|&f| f as usize).sum();
        Ok((
            TestResult::Str(format!("hull: {count} points, pattern {flags:?}")),
            out.seconds,
        ))
    }
}

fn main() {
    let program = SimProgram::new(
        "cgal-like",
        vec![
            SourceFile::new(
                "predicates.cpp",
                vec![Function::exported(
                    "Orientation_2",
                    Kernel::Custom(Arc::new(OrientationPredicates)),
                )],
            ),
            SourceFile::new(
                "hull.cpp",
                vec![
                    Function::exported("ConvexHull_Insert", Kernel::Benign { flavor: 2 }),
                    Function::exported("ConvexHull_Report", Kernel::Benign { flavor: 6 }),
                ],
            ),
        ],
    );
    let test = HullTest {
        driver: Driver::new(
            "hull",
            vec![
                "Orientation_2".into(),
                "ConvexHull_Insert".into(),
                "ConvexHull_Report".into(),
            ],
            1,
            64,
        ),
    };

    // Sweep the gcc matrix: discrete outputs either match exactly or
    // differ as a whole (the compare metric is 0/1 for strings).
    let tests: Vec<&dyn FlitTest> = vec![&test];
    let db = run_matrix(
        &program,
        &tests,
        &compilation_matrix(CompilerKind::Gcc),
        &RunnerConfig::default(),
    )
    .expect("sweep runs");
    println!("gcc matrix: {} compilations", db.rows.len());
    let mut changed = Vec::new();
    for r in &db.rows {
        if r.is_variable() {
            changed.push(r.label.clone());
        }
    }
    println!(
        "{} compilations change the DISCRETE hull (point count / pattern):",
        changed.len()
    );
    for label in &changed {
        println!("  {label}");
    }
    assert!(
        !changed.is_empty(),
        "value-changing flags must flip at least one orientation"
    );

    // Show the actual discrete difference for one of them.
    let base_build = Build::new(&program, Compilation::baseline());
    let base_exe = base_build.executable().unwrap();
    let (baseline, _) = test
        .run_impl(
            &[0.37, 0.81],
            &RunContext {
                program: &program,
                exe: &base_exe,
            },
        )
        .unwrap();
    let var_comp = db
        .rows
        .iter()
        .find(|r| r.is_variable())
        .unwrap()
        .compilation
        .clone();
    let var_build = Build::new(&program, var_comp.clone());
    let var_exe = var_build.executable().unwrap();
    let (variable, _) = test
        .run_impl(
            &[0.37, 0.81],
            &RunContext {
                program: &program,
                exe: &var_exe,
            },
        )
        .unwrap();
    println!("\nbaseline ({}):", Compilation::baseline().label());
    println!("  {baseline:?}");
    println!("variable ({}):", var_comp.label());
    println!("  {variable:?}");
    assert!(!baseline.bitwise_eq(&variable));

    // And Bisect pins the non-robust predicate.
    let res = bisect_hierarchical(
        &Build::new(&program, Compilation::baseline()),
        &Build::tagged(&program, var_comp, 1),
        &test.driver,
        &[0.37, 0.81],
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    println!(
        "\nBisect blames: {:?} in {} executions",
        res.symbols
            .iter()
            .map(|s| s.symbol.as_str())
            .collect::<Vec<_>>(),
        res.executions
    );
    assert_eq!(res.symbols.len(), 1);
    assert_eq!(res.symbols[0].symbol, "Orientation_2");
    println!("\n→ 'even discrete answers such as the number of points on a mesh' can change;");
    println!("  the fix is a robust predicate (exact filtering), not a compiler flag.");
}
