//! Criterion benchmarks of the search algorithms' complexity claims
//! (§2.2/§2.4): Bisect is O(k·log N), delta debugging O(k²·log N),
//! linear search O(N) — including the crossover where linear wins when
//! k is proportional to N.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use flit_bisect::algo::{bisect_all, bisect_all_unpruned};
use flit_bisect::baselines::{ddmin, linear_search};
use flit_bisect::biggest::bisect_biggest;
use flit_bisect::test_fn::TestError;
use flit_exec::ThreadsBackend;

/// A scripted Test with `k` variable elements spread over `n`.
fn weights(n: usize, k: usize) -> Vec<(u32, f64)> {
    (0..k)
        .map(|j| (((j * n) / k + n / (2 * k).max(1)) as u32, 1.0 + j as f64))
        .collect()
}

fn scripted(weights: Vec<(u32, f64)>) -> impl Fn(&[u32]) -> Result<f64, TestError> + Sync {
    move |items: &[u32]| {
        Ok(items
            .iter()
            .map(|i| {
                weights
                    .iter()
                    .find(|(w, _)| w == i)
                    .map_or(0.0, |(_, v)| *v)
            })
            .sum())
    }
}

fn bench_search_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_scaling_n");
    for &n in &[256usize, 1024, 4096] {
        let items: Vec<u32> = (0..n as u32).collect();
        let k = 4;
        group.bench_with_input(BenchmarkId::new("bisect_all", n), &n, |b, _| {
            b.iter(|| {
                bisect_all(scripted(weights(n, k)), &items, &ThreadsBackend::new(1)).unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("ddmin", n), &n, |b, _| {
            b.iter(|| ddmin(scripted(weights(n, k)), &items).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
            b.iter(|| linear_search(scripted(weights(n, k)), &items).unwrap());
        });
    }
    group.finish();
}

fn bench_search_scaling_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_scaling_k");
    let n = 1024usize;
    let items: Vec<u32> = (0..n as u32).collect();
    for &k in &[1usize, 4, 16, 64] {
        group.bench_with_input(BenchmarkId::new("bisect_all", k), &k, |b, _| {
            b.iter(|| {
                bisect_all(scripted(weights(n, k)), &items, &ThreadsBackend::new(1)).unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("bisect_biggest_top1", k), &k, |b, _| {
            b.iter(|| {
                bisect_biggest(scripted(weights(n, k)), &items, 1, &ThreadsBackend::new(1)).unwrap()
            });
        });
    }
    group.finish();
}

/// Execution-count report (the paper's unit): printed once per run so
/// `cargo bench` output documents the complexity table alongside the
/// wall-clock numbers.
fn report_execution_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("execution_counts");
    group.sample_size(10);
    group.bench_function("report", |b| {
        b.iter(|| {
            let n = 2998usize; // MFEM's exported-function count
            let items: Vec<u32> = (0..n as u32).collect();
            let k = 9; // example 8's blame-set size
            let bis = bisect_all(scripted(weights(n, k)), &items, &ThreadsBackend::new(1)).unwrap();
            let lin = linear_search(scripted(weights(n, k)), &items).unwrap();
            assert!(bis.executions < lin.executions / 10);
            (bis.executions, lin.executions)
        });
    });
    group.finish();
}

/// Ablation of the §2.2 found-set pruning optimization ("one
/// significant deviation from Delta debugging").
fn bench_pruning_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruning_ablation");
    let n = 2048usize;
    let items: Vec<u32> = (0..n as u32).collect();
    for &k in &[4usize, 12] {
        let w: Vec<(u32, f64)> = (0..k)
            .map(|j| ((n - 1 - j * 3) as u32, 1.0 + j as f64))
            .collect();
        group.bench_with_input(BenchmarkId::new("pruned", k), &k, |b, _| {
            b.iter(|| bisect_all(scripted(w.clone()), &items, &ThreadsBackend::new(1)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("unpruned", k), &k, |b, _| {
            b.iter(|| {
                bisect_all_unpruned(scripted(w.clone()), &items, &ThreadsBackend::new(1)).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_search_scaling,
    bench_search_scaling_k,
    bench_pruning_ablation,
    report_execution_counts
);
criterion_main!(benches);
