//! The one call-graph walk, `SimProgram::reachable`, and
//! `visible_callers` (written on top of it) checked against an
//! independent depth-first reference search, `calls_transitively`, on
//! the MFEM and LULESH codebases and a range of fuzz-planted ones.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use flit::lulesh::lulesh_program;
use flit::mfem::mfem_program;
use flit::program::generate;
use flit::program::model::{SimProgram, Visibility};

/// Does `from` reach `to` through the call graph?
fn calls_transitively(p: &SimProgram, from: &str, to: &str) -> bool {
    let mut stack = vec![from.to_string()];
    let mut seen = HashSet::new();
    while let Some(cur) = stack.pop() {
        if !seen.insert(cur.clone()) {
            continue;
        }
        if let Some(f) = p.function(&cur) {
            for callee in &f.calls {
                if callee == to {
                    return true;
                }
                stack.push(callee.clone());
            }
        }
    }
    false
}

/// Check `reachable` and `visible_callers` against the reference for
/// every symbol of `p`. The reference answers `true` only for a `to`
/// that appears in some call list, so it is asked about those names;
/// for every other name it is `false` by construction.
fn assert_walk_matches_reference(p: &SimProgram) {
    let functions: Vec<_> = p.files.iter().flat_map(|f| &f.functions).collect();
    let callees: BTreeSet<&str> = functions
        .iter()
        .flat_map(|f| f.calls.iter().map(String::as_str))
        .collect();
    // `from` → every symbol the reference says `from` calls transitively.
    let reference: BTreeMap<&str, BTreeSet<&str>> = functions
        .iter()
        .map(|f| {
            let from = f.name.as_str();
            let reached = callees
                .iter()
                .copied()
                .filter(|to| calls_transitively(p, from, to))
                .collect();
            (from, reached)
        })
        .collect();

    for (from, reached) in &reference {
        let mut expected: BTreeSet<String> = reached.iter().map(|s| (*s).to_string()).collect();
        expected.insert((*from).to_string());
        assert_eq!(
            p.reachable(&[(*from).to_string()]),
            expected,
            "{}: reachable from `{from}`",
            p.name
        );
    }

    // `to` → its exported transitive callers, in name order.
    let mut callers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for f in functions
        .iter()
        .filter(|f| f.visibility == Visibility::Exported)
    {
        for to in &reference[f.name.as_str()] {
            callers.entry(to).or_default().insert(&f.name);
        }
    }
    for f in &functions {
        let symbol = f.name.as_str();
        let expected: Vec<&str> = callers
            .get(symbol)
            .map(|c| c.iter().copied().collect())
            .unwrap_or_default();
        assert_eq!(
            p.visible_callers(symbol),
            expected,
            "{}: visible callers of `{symbol}`",
            p.name
        );
    }
}

#[test]
fn reachable_matches_the_reference_on_mfem() {
    assert_walk_matches_reference(&mfem_program());
}

#[test]
fn reachable_matches_the_reference_on_lulesh() {
    assert_walk_matches_reference(&lulesh_program());
}

#[test]
fn reachable_matches_the_reference_on_planted_programs() {
    for seed in 0..64 {
        let planted = generate::plant(&generate::random_planted(seed));
        assert_walk_matches_reference(&planted.program);
    }
}
