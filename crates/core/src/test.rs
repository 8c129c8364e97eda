//! The user test API — a faithful port of FLiT's C++ test class.
//!
//! §2: "For each test, the user creates a class and defines four
//! methods": `getInputsPerRun`, `getDefaultInput`, `run_impl`, and
//! `compare`. The result can be "a single floating-point value, or a
//! std::string … so that the user can use more complex structures
//! returned, such as arbitrary meshes" (we add a first-class vector
//! variant for meshes). If `getDefaultInput` returns more values than
//! `getInputsPerRun`, "the input is split up, and the test is executed
//! multiple times, thus allowing data-driven testing."

use flit_program::engine::{Engine, RunError};
use flit_program::model::{Driver, SimProgram};
use flit_toolchain::linker::Executable;

use flit_fpsim::ulp;

/// A test result: scalar, mesh/vector, or string.
#[derive(Debug, Clone, PartialEq)]
pub enum TestResult {
    /// A single floating-point value.
    Scalar(f64),
    /// A full mesh/volume of values (the MFEM examples "produce
    /// calculated values over a full mesh").
    Vector(Vec<f64>),
    /// An arbitrary serialized structure.
    Str(String),
}

impl TestResult {
    /// ℓ2 norm of the result (0 for strings), used to relativize errors.
    pub(crate) fn norm(&self) -> f64 {
        match self {
            TestResult::Scalar(x) => x.abs(),
            TestResult::Vector(v) => ulp::l2_norm(v),
            TestResult::Str(_) => 0.0,
        }
    }

    /// Bitwise equality (the reproducibility predicate).
    pub fn bitwise_eq(&self, other: &TestResult) -> bool {
        match (self, other) {
            (TestResult::Scalar(a), TestResult::Scalar(b)) => a.to_bits() == b.to_bits(),
            (TestResult::Vector(a), TestResult::Vector(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (TestResult::Str(a), TestResult::Str(b)) => a == b,
            _ => false,
        }
    }
}

/// Execution context handed to `run_impl`: the program bound to one
/// compiled-and-linked executable.
pub struct RunContext<'a> {
    /// The application under test.
    pub program: &'a SimProgram,
    /// The linked executable for the compilation being tested.
    pub exe: &'a Executable,
}

impl RunContext<'_> {
    /// Run a driver through the engine.
    pub fn run_driver(
        &self,
        driver: &Driver,
        input: &[f64],
    ) -> Result<flit_program::engine::RunOutput, RunError> {
        Engine::new(self.program, self.exe).run(driver, input)
    }
}

/// A FLiT test: the four user-provided methods.
pub trait FlitTest: Send + Sync {
    /// Test name (unique within a suite).
    fn name(&self) -> &str;

    /// `getInputsPerRun`: number of floating-point inputs consumed per
    /// execution.
    fn inputs_per_run(&self) -> usize;

    /// `getDefaultInput`: the input vector; if longer than
    /// [`FlitTest::inputs_per_run`], the runner splits it and executes
    /// the test once per chunk (data-driven testing).
    fn default_input(&self) -> Vec<f64>;

    /// `run_impl`: execute the test under the given compilation
    /// context, returning the result and the simulated wall-clock
    /// seconds consumed (`0.0` for tests outside the cost model).
    fn run_impl(&self, input: &[f64], ctx: &RunContext) -> Result<(TestResult, f64), RunError>;

    /// `compare`: a metric between the baseline result and a test
    /// result; `0` means "considered equal", positive means variability.
    /// The default is the MFEM study's `||baseline − actual||₂` (with
    /// string results compared for equality).
    fn compare(&self, baseline: &TestResult, other: &TestResult) -> f64 {
        default_compare(baseline, other)
    }
}

/// The default comparison metric: ℓ2 difference for numeric results,
/// discrete mismatch for strings or type mismatches.
pub(crate) fn default_compare(baseline: &TestResult, other: &TestResult) -> f64 {
    match (baseline, other) {
        (TestResult::Scalar(a), TestResult::Scalar(b)) => {
            if a.to_bits() == b.to_bits() {
                0.0
            } else if a.is_nan() || b.is_nan() {
                f64::INFINITY
            } else {
                (a - b).abs()
            }
        }
        (TestResult::Vector(a), TestResult::Vector(b)) => ulp::l2_diff(a, b),
        (TestResult::Str(a), TestResult::Str(b)) => {
            if a == b {
                0.0
            } else {
                1.0
            }
        }
        _ => f64::INFINITY,
    }
}

/// The standard program-driven test: runs a [`Driver`] and returns the
/// final state as a mesh. All the bundled applications (MFEM examples,
/// Laghos, LULESH) are `DriverTest`s.
pub struct DriverTest {
    name: String,
    driver: Driver,
    inputs_per_run: usize,
    default_input: Vec<f64>,
}

impl DriverTest {
    /// Create a driver-based test.
    pub fn new(driver: Driver, inputs_per_run: usize, default_input: Vec<f64>) -> Self {
        DriverTest {
            name: driver.name.clone(),
            driver,
            inputs_per_run,
            default_input,
        }
    }

    /// The underlying driver (used by Bisect to re-run the test).
    pub fn driver(&self) -> &Driver {
        &self.driver
    }
}

impl FlitTest for DriverTest {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs_per_run(&self) -> usize {
        self.inputs_per_run
    }

    fn default_input(&self) -> Vec<f64> {
        self.default_input.clone()
    }

    fn run_impl(&self, input: &[f64], ctx: &RunContext) -> Result<(TestResult, f64), RunError> {
        let out = ctx.run_driver(&self.driver, input)?;
        Ok((TestResult::Vector(out.output), out.seconds))
    }
}

/// Split a default input into per-run chunks (data-driven testing).
/// A zero `inputs_per_run` means the test takes no input and runs once.
pub(crate) fn split_input(default_input: &[f64], inputs_per_run: usize) -> Vec<Vec<f64>> {
    if inputs_per_run == 0 || default_input.is_empty() {
        return vec![default_input.to_vec()];
    }
    default_input
        .chunks(inputs_per_run)
        .map(<[f64]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_input_chunks_data() {
        assert_eq!(
            split_input(&[1.0, 2.0, 3.0, 4.0, 5.0], 2),
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0]]
        );
        assert_eq!(split_input(&[1.0], 0), vec![vec![1.0]]);
        assert_eq!(split_input(&[], 3), vec![Vec::<f64>::new()]);
    }

    #[test]
    fn default_compare_semantics() {
        use TestResult::*;
        assert_eq!(default_compare(&Scalar(1.0), &Scalar(1.0)), 0.0);
        assert_eq!(default_compare(&Scalar(1.0), &Scalar(1.5)), 0.5);
        assert_eq!(
            default_compare(&Scalar(1.0), &Scalar(f64::NAN)),
            f64::INFINITY
        );
        assert_eq!(
            default_compare(&Vector(vec![0.0, 3.0]), &Vector(vec![4.0, 3.0])),
            4.0
        );
        assert_eq!(default_compare(&Str("a".into()), &Str("a".into())), 0.0);
        assert_eq!(default_compare(&Str("a".into()), &Str("b".into())), 1.0);
        assert_eq!(
            default_compare(&Scalar(1.0), &Str("a".into())),
            f64::INFINITY
        );
    }

    #[test]
    fn bitwise_eq_distinguishes_signed_zero() {
        use TestResult::*;
        assert!(Scalar(0.0).bitwise_eq(&Scalar(0.0)));
        assert!(!Scalar(0.0).bitwise_eq(&Scalar(-0.0)));
        assert!(Vector(vec![1.0]).bitwise_eq(&Vector(vec![1.0])));
        assert!(!Vector(vec![1.0]).bitwise_eq(&Vector(vec![1.0, 2.0])));
        assert!(!Scalar(1.0).bitwise_eq(&Vector(vec![1.0])));
    }

    #[test]
    fn result_norms() {
        use TestResult::*;
        assert_eq!(Scalar(-2.0).norm(), 2.0);
        assert_eq!(Vector(vec![3.0, 4.0]).norm(), 5.0);
        assert_eq!(Str("x".into()).norm(), 0.0);
    }
}
