//! Regenerate **Figure 2**: the illustrative BisectAll trace over ten
//! elements with variability-inducing items {2, 8, 9}.

use flit_bisect::algo::bisect_all;
use flit_bisect::test_fn::TestError;
use flit_exec::ThreadsBackend;

fn main() {
    let items: Vec<u32> = (1..=10).collect();
    // Unique magnitudes for the three variable elements, so Assumption 1
    // holds by construction.
    let weights = [(2u32, 0.25f64), (8, 1.5), (9, 0.125)];
    let test = |set: &[u32]| -> Result<f64, TestError> {
        Ok(set
            .iter()
            .map(|i| {
                weights
                    .iter()
                    .find(|(w, _)| w == i)
                    .map_or(0.0, |(_, v)| *v)
            })
            .sum())
    };
    let out = bisect_all(test, &items, &ThreadsBackend::new(1)).expect("scripted test cannot fail");

    println!("Figure 2: illustrative example of BisectAll (Algorithm 1)");
    println!();
    println!("Step | items fed to Test                | result");
    println!("-----+----------------------------------+-------");
    for (step, row) in out.trace.iter().enumerate() {
        let mut cells = String::new();
        for i in 1..=10u32 {
            let c = if row.tested.contains(&i) {
                format!("{i:>2} ")
            } else if row.space.contains(&i) {
                " · ".to_string()
            } else {
                " x ".to_string()
            };
            cells.push_str(&c);
        }
        let verdict = if row.value > 0.0 { "✘" } else { "✔" };
        println!("{:>4} | {cells} | {verdict}", step + 1);
    }
    let mut found: Vec<u32> = out.found.iter().map(|(i, _)| *i).collect();
    found.sort();
    println!("-----+----------------------------------+-------");
    println!("Result: {found:?}   (paper: {{2, 8, 9}})");
    println!(
        "Test executions: {} (Figure 2 shows 13 rows; memoization prunes repeats)",
        out.executions
    );
    println!(
        "Dynamic verification: {}",
        if out.verified() {
            "passed (no false negatives possible; false positives impossible)"
        } else {
            "VIOLATED"
        }
    );
    assert_eq!(found, vec![2, 8, 9]);
}
