//! Delta-debugging shrinker for divergent seeds: minimize the failing
//! [`PlantedSpec`] — drop filler files, drop sites, simplify kernels
//! and shapes, thin the filler — re-checking the oracle after every
//! candidate step, then emit a self-contained Rust fixture snippet so
//! the campaign bug becomes a permanent regression test.

use flit_program::generate::{PlantKernel, PlantShape, PlantedSpec};

/// Outcome of minimizing one divergence.
#[derive(Debug, Clone)]
pub(crate) struct ShrinkResult {
    /// The minimized, still-failing spec.
    pub spec: PlantedSpec,
    /// Accepted shrink steps.
    pub steps: usize,
    /// A self-contained Rust snippet reproducing the divergence.
    pub fixture: String,
}

/// Every one-step smaller candidate of `spec`, most aggressive first.
fn candidates(spec: &PlantedSpec) -> Vec<PlantedSpec> {
    let mut out = Vec::new();
    // Drop sites (rear first, so indices of earlier sites are stable).
    for i in (0..spec.sites.len()).rev() {
        if spec.sites.len() > 1 {
            let mut s = spec.clone();
            s.sites.remove(i);
            out.push(s);
        }
    }
    // Drop filler wholesale, then halve it.
    if spec.filler.files > 0 {
        let mut s = spec.clone();
        s.filler.files = 0;
        out.push(s);
        if spec.filler.files > 1 {
            let mut s = spec.clone();
            s.filler.files /= 2;
            out.push(s);
        }
    }
    // Thin the filler files.
    if spec.filler.files > 0 && spec.filler.funcs_per_file > 1 {
        let mut s = spec.clone();
        s.filler.funcs_per_file = 1;
        out.push(s);
    }
    // Simplify each site: plainest kernel, plainest shape.
    for i in 0..spec.sites.len() {
        let (kernel, shape) = spec.sites[i];
        if kernel != PlantKernel::Dot {
            let mut s = spec.clone();
            s.sites[i].0 = PlantKernel::Dot;
            out.push(s);
        }
        if shape != PlantShape::ExportedEntry {
            let mut s = spec.clone();
            s.sites[i].1 = PlantShape::ExportedEntry;
            out.push(s);
        }
    }
    out
}

/// Greedily minimize `spec` under `still_fails` (which must return
/// `true` for the input spec). Runs candidate passes to a fixpoint:
/// each accepted step restarts the scan from the shrunk spec.
pub(crate) fn shrink(
    seed: u64,
    spec: &PlantedSpec,
    still_fails: &mut dyn FnMut(&PlantedSpec) -> bool,
) -> ShrinkResult {
    let mut current = spec.clone();
    let mut steps = 0usize;
    'outer: loop {
        for cand in candidates(&current) {
            if still_fails(&cand) {
                current = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    let fixture = render_fixture(seed, &current);
    ShrinkResult {
        spec: current,
        steps,
        fixture,
    }
}

/// Render the spec as a compilable Rust snippet: paste into a test,
/// assert the oracle verdict, and the campaign bug is pinned forever.
pub(crate) fn render_fixture(seed: u64, spec: &PlantedSpec) -> String {
    let mut sites = String::new();
    for (kernel, shape) in &spec.sites {
        sites.push_str(&format!(
            "            (PlantKernel::{kernel:?}, PlantShape::{shape:?}),\n"
        ));
    }
    format!(
        "// Shrunk from fuzz seed {seed} (pair: {pair}). Reproduce with:\n\
         //   let v = check_spec({seed}, &spec, &OracleConfig::default());\n\
         //   assert!(v.passed(), \"{{:?}}\", v.divergences);\n\
         let spec = PlantedSpec {{\n\
         \x20   filler: FillerSpec {{\n\
         \x20       files: {files},\n\
         \x20       funcs_per_file: {fpf},\n\
         \x20       static_per_mille: {spm},\n\
         \x20       sloc_per_func: {sloc},\n\
         \x20       seed: {fseed:#x},\n\
         \x20       prefix: \"{prefix}\".into(),\n\
         \x20   }},\n\
         \x20   sites: vec![\n{sites}\x20   ],\n\
         \x20   seed: {sseed:#x},\n\
         }};\n",
        pair = crate::pairs::pair_for_seed(seed).name,
        files = spec.filler.files,
        fpf = spec.filler.funcs_per_file,
        spm = spec.filler.static_per_mille,
        sloc = spec.filler.sloc_per_func,
        fseed = spec.filler.seed,
        prefix = spec.filler.prefix,
        sseed = spec.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_program::generate::FillerSpec;

    fn fat_spec() -> PlantedSpec {
        PlantedSpec {
            filler: FillerSpec {
                files: 8,
                funcs_per_file: 12,
                prefix: "shrink".into(),
                ..FillerSpec::default()
            },
            sites: vec![
                (PlantKernel::Poly, PlantShape::CrossFileChain),
                (PlantKernel::Cg, PlantShape::StaticBehindWrapper),
                (PlantKernel::Div, PlantShape::ExportedInlinable),
            ],
            seed: 99,
        }
    }

    #[test]
    fn shrinks_to_the_failure_kernel_against_a_synthetic_oracle() {
        // Synthetic bug: "fails whenever a CgSolve site is present".
        // The minimum is one Cg site, no filler, plainest shape.
        let spec = fat_spec();
        let mut fails = |s: &PlantedSpec| s.sites.iter().any(|(k, _)| *k == PlantKernel::Cg);
        assert!(fails(&spec), "predicate must hold on the input");
        let r = shrink(42, &spec, &mut fails);
        assert_eq!(
            r.spec.sites,
            vec![(PlantKernel::Cg, PlantShape::ExportedEntry)]
        );
        assert_eq!(r.spec.filler.files, 0);
        assert!(
            r.steps >= 4,
            "expected several accepted steps, got {}",
            r.steps
        );
    }

    #[test]
    fn fixture_snippet_is_self_contained() {
        let r = shrink(7, &fat_spec(), &mut |s: &PlantedSpec| {
            s.sites.iter().any(|(k, _)| *k == PlantKernel::Cg)
        });
        for needle in [
            "PlantedSpec {",
            "FillerSpec {",
            "PlantKernel::Cg",
            "PlantShape::ExportedEntry",
            "check_spec(7",
        ] {
            assert!(
                r.fixture.contains(needle),
                "missing `{needle}`:\n{}",
                r.fixture
            );
        }
    }

    #[test]
    fn a_passing_spec_shrinks_nowhere() {
        let spec = fat_spec();
        // Predicate depends on nothing shrinkable-beyond: always true,
        // so the shrinker must bottom out at the global minimum instead
        // of looping forever.
        let r = shrink(1, &spec, &mut |_: &PlantedSpec| true);
        assert_eq!(r.spec.sites.len(), 1);
        assert_eq!(r.spec.filler.files, 0);
        assert_eq!(
            r.spec.sites[0],
            (PlantKernel::Dot, PlantShape::ExportedEntry)
        );
    }
}
