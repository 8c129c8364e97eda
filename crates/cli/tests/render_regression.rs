//! Byte-exact regression pin for the serialized `flit lint` report: the
//! certificate tables `flit bound` shares, then the hazard lints. Any
//! change to the serialized form (certificate kinds, bound formatting,
//! table layout, section order) shows up as a diff against a
//! known-good snapshot.

use flit_cli::render::render_lint;
use flit_program::kernel::Kernel;
use flit_program::model::{Driver, Function, SimProgram, SourceFile};
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::{CompilerKind, OptLevel};
use flit_toolchain::flags::Switch;

const EXPECTED: &str = "\
# flit lint — pin

whole pair: bounded (l2_diff <= 1.511e1)
items: 1 invariant, 4 bounded, 0 unknown

Certified bounds — files (invariant files omitted)
+---+----------+-------------+---------+
| # | file     | certificate | bound   |
+---+----------+-------------+---------+
| 0 | hot.cpp  | bounded     | 1.202e0 |
| 1 | trig.cpp | bounded     | 1.511e1 |
+---+----------+-------------+---------+
0 invariant files omitted

Certified bounds — symbols (invariant symbols omitted)
+--------+-------------+---------+
| symbol | certificate | bound   |
+--------+-------------+---------+
| dot    | bounded     | 1.202e0 |
| gate   | bounded     | 1.511e1 |
+--------+-------------+---------+
1 invariant symbols omitted

Hazard lints
+--------+------------------+
| symbol | hazard           |
+--------+------------------+
| gate   | exact-fp-compare |
+--------+------------------+
";

#[test]
fn serialized_lint_output_is_byte_identical() {
    let p = SimProgram::new(
        "pin",
        vec![
            SourceFile::new(
                "hot.cpp",
                vec![Function::exported("dot", Kernel::DotMix { stride: 3 })],
            ),
            SourceFile::new(
                "trig.cpp",
                vec![
                    Function::exported("trig", Kernel::TranscMap { freq: 2.0 }),
                    Function::exported("gate", Kernel::ZeroGate { boost: 2.0 }),
                ],
            ),
        ],
    );
    let driver = Driver::new(
        "pin",
        vec!["dot".into(), "trig".into(), "gate".into()],
        1,
        32,
    );
    let baseline = Compilation::new(CompilerKind::Gcc, OptLevel::O0, vec![]);
    let variable = Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]);
    let certs = flit_absint::certify_pair(&p, &p, &driver, &baseline, &variable, CompilerKind::Gcc);
    let text = render_lint("pin", &p, &driver, &certs);
    assert_eq!(text, EXPECTED);
}
