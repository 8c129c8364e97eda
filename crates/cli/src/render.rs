//! The one static-analysis report, through the shared `flit-report`
//! table machinery: `flit bound` prints the certificate tables, and
//! `flit lint` prints them followed by the pair's warnings and the
//! hazard lints.

use flit_absint::{reachable_hazards, Certificate, PairCertificates};
use flit_program::model::{Driver, SimProgram};
use flit_report::table::{Align, Table};

fn cert_cells(cert: &Certificate) -> (String, String) {
    let bound = match cert {
        Certificate::Bounded(e) => format!("{e:.3e}"),
        _ => "-".to_string(),
    };
    (cert.kind().to_string(), bound)
}

/// The certificate tables for one pair: the whole-pair verdict, the
/// item counts, and every file and symbol that can move the result
/// (`Invariant` items, usually the vast majority, are only counted).
pub(crate) fn render_certificates(program: &SimProgram, certs: &PairCertificates) -> String {
    let (inv, bnd, unk) = certs.counts();
    let (whole_kind, whole_bound) = cert_cells(&certs.whole);
    let mut out = format!("whole pair: {whole_kind}");
    if whole_bound != "-" {
        out.push_str(&format!(" (l2_diff <= {whole_bound})"));
    }
    out.push_str(&format!(
        "\nitems: {inv} invariant, {bnd} bounded, {unk} unknown\n\n"
    ));

    let mut files = Table::new(&["#", "file", "certificate", "bound"])
        .with_title("Certified bounds — files (invariant files omitted)")
        .with_aligns(&[Align::Right, Align::Left, Align::Left, Align::Right]);
    let mut invariant_files = 0usize;
    for (fid, file) in program.files.iter().enumerate() {
        let cert = certs.file(fid);
        if cert.prunable() {
            invariant_files += 1;
            continue;
        }
        let (kind, bound) = cert_cells(&cert);
        files.row(&[fid.to_string(), file.name.clone(), kind, bound]);
    }
    out.push_str(&files.render());
    out.push_str(&format!("{invariant_files} invariant files omitted\n\n"));

    let mut symbols = Table::new(&["symbol", "certificate", "bound"])
        .with_title("Certified bounds — symbols (invariant symbols omitted)")
        .with_aligns(&[Align::Left, Align::Left, Align::Right]);
    let mut invariant_symbols = 0usize;
    for (name, cert) in &certs.symbols {
        if cert.prunable() {
            invariant_symbols += 1;
            continue;
        }
        let (kind, bound) = cert_cells(cert);
        symbols.row(&[name.clone(), kind, bound]);
    }
    out.push_str(&symbols.render());
    out.push_str(&format!("{invariant_symbols} invariant symbols omitted\n"));
    out
}

/// `flit lint`'s report for one pair: the certificate tables, then a
/// mixed-ABI crash warning and the hazard lints on functions reachable
/// from `driver`.
pub fn render_lint(
    title: &str,
    program: &SimProgram,
    driver: &Driver,
    certs: &PairCertificates,
) -> String {
    let mut out = format!("# flit lint — {title}\n\n");
    out.push_str(&render_certificates(program, certs));
    if certs.abi_hazard {
        out.push_str(
            "\nWARNING: mixed-ABI link predicted to CRASH (Intel objects under a \
             GNU-compatible link, Table 2's File Bisect failures)\n",
        );
    }
    let hazards = reachable_hazards(program, driver);
    if !hazards.is_empty() {
        let mut table = Table::new(&["symbol", "hazard"])
            .with_title("Hazard lints")
            .with_aligns(&[Align::Left, Align::Left]);
        for (symbol, h) in &hazards {
            table.row(&[symbol.clone(), h.name().to_string()]);
        }
        out.push('\n');
        out.push_str(&table.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_program::kernel::Kernel;
    use flit_program::model::{Function, SourceFile};
    use flit_toolchain::compilation::Compilation;
    use flit_toolchain::compiler::{CompilerKind, OptLevel};
    use flit_toolchain::flags::Switch;

    fn program() -> SimProgram {
        SimProgram::new(
            "render-test",
            vec![
                SourceFile::new(
                    "k.cpp",
                    vec![
                        Function::exported("dot", Kernel::DotMix { stride: 3 }),
                        Function::exported("gate", Kernel::ZeroGate { boost: 2.0 }),
                    ],
                ),
                SourceFile::new(
                    "trig.cpp",
                    vec![Function::exported("trig", Kernel::TranscMap { freq: 2.0 })],
                ),
            ],
        )
    }

    fn lint(driver: &Driver, variable: Compilation) -> String {
        let p = program();
        let base = Compilation::new(CompilerKind::Gcc, OptLevel::O0, vec![]);
        let certs = flit_absint::certify_pair(&p, &p, driver, &base, &variable, CompilerKind::Gcc);
        render_lint("render-test", &p, driver, &certs)
    }

    #[test]
    fn renders_all_sections() {
        let driver = Driver::new("d", vec!["dot".into(), "gate".into()], 1, 32);
        let icpc = Compilation::new(CompilerKind::Icpc, OptLevel::O2, vec![Switch::FastMath]);
        let text = lint(&driver, icpc);
        assert!(text.contains("Certified bounds — files"), "{text}");
        assert!(text.contains("Certified bounds — symbols"), "{text}");
        assert!(text.contains("mixed-ABI link predicted to CRASH"), "{text}");
        assert!(text.contains("Hazard lints"), "{text}");
        assert!(text.contains("exact-fp-compare"), "{text}");
        assert!(!text.contains("link step"), "{text}");
    }
}
