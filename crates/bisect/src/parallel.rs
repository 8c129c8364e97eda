//! The wave driver for [`BisectPlan`]: a Test oracle answering through
//! a query ledger plus a wave scheduler on an [`ExecBackend`].
//!
//! The division of labor: the *planner* decides which queries matter
//! and in what canonical order their answers are consumed; the *oracle*
//! keys each item set into the search's [`QueryLedger`], whose
//! single-flight table memoizes evaluations (and shares them across
//! searches handed the same ledger); the *driver* below batches
//! frontier queries into waves and fans them out on an
//! [`ExecBackend`]. Answers only ever enter a plan through its answer
//! table, so speculative or wasted evaluations can never change an
//! outcome — `--jobs 8` is byte-identical to `--jobs 1`, and a width-1
//! backend is the serial search.

use std::hash::Hash;

use flit_exec::{run_on, ExecBackend, ExecError};
use flit_persist::Fnv128;
use flit_trace::names::{counter, phase};
use flit_trace::sink::TraceSink;

use crate::algo::BisectOutcome;
use crate::ledger::{LedgerHandle, QueryLedger};
use crate::planner::{Answer, BisectPlan, PlanFailure, PlanOutcome, PlanStep};
use crate::test_fn::TestError;

/// A raw thread-safe Test function, boxed.
type RawTest<'f, I> = Box<dyn Fn(&[I]) -> Answer + Sync + 'f>;

/// A function digesting an item set into its ledger key, boxed.
type KeyFn<'f, I> = Box<dyn Fn(&[I]) -> String + Sync + 'f>;

/// A Test oracle: a raw thread-safe Test function whose every
/// evaluation is answered through a [`LedgerHandle`] under the key
/// `key` digests from the (canonical) item set.
pub struct SharedOracle<'f, I> {
    raw: RawTest<'f, I>,
    handle: LedgerHandle,
    key: KeyFn<'f, I>,
}

impl<'f, I> SharedOracle<'f, I> {
    /// Wrap a raw thread-safe test function: items arrive canonical
    /// (sorted, deduplicated) and it returns the metric value plus the
    /// run's simulated seconds. The ledger's single-flight table
    /// memoizes it under `key(items)` and records the hits and misses
    /// as `exec.queries.*` counters.
    pub(crate) fn new(
        raw: impl Fn(&[I]) -> Answer + Sync + 'f,
        handle: LedgerHandle,
        key: impl Fn(&[I]) -> String + Sync + 'f,
    ) -> Self {
        SharedOracle {
            raw: Box::new(raw),
            handle,
            key: Box::new(key),
        }
    }

    /// Evaluate (memoized, single-flight). `items` must be canonical —
    /// frontier queries already are.
    pub(crate) fn eval(&self, items: &[I]) -> Answer {
        self.handle
            .eval_score(&(self.key)(items), || (self.raw)(items))
    }
}

/// A speculative-query priority for seeded drives: scores a frontier
/// query's (canonical) item set. Queries scoring `> 0.0` are kept,
/// highest score first; zero-scoring queries are dropped from the
/// speculative fill — evaluating them would only warm the memo for
/// item sets a prescreen predicts invariant.
pub(crate) type SpeculationScore<'a, I> = &'a (dyn Fn(&[I]) -> f64 + Sync);

/// Drive several plans to completion jointly on one execution backend.
///
/// Each wave gathers every active plan's frontier: all *required*
/// queries (the replay cannot advance without them), then speculative
/// queries up to the backend width. The wave fans out on `backend`, the
/// answers are fed back, and the plans step again — so independent
/// searches and both branches of each split evaluate concurrently while
/// every plan's observables stay byte-identical to its serial run.
/// (Remote backends fan the wave out locally too — their oracles route
/// each evaluation through [`ExecBackend::dispatch`] internally.) At
/// width 1 a wave holds only the required queries: the serial search.
///
/// An optional speculation priority (`seed`) only filters and reorders
/// the *speculative* portion of each wave: required queries are
/// dispatched unconditionally and in frontier order, and answers enter
/// a plan only through its answer table, whose replay consumes them in
/// the serial algorithm's order. Every observable of the outcome —
/// found sets, execution counts, traces, violations — is therefore
/// byte-identical to the unseeded (and the serial) run at any worker
/// count; seeding changes only which speculative evaluations are spent,
/// i.e. the `exec.queries.executed` counter and wall-clock. Dropped
/// zero-score queries are tallied under `lint.speculation.skipped`.
///
/// Returns one result per plan, in order. `Err(ExecError)` only on a
/// panicking oracle (a Test *error* is a per-plan `PlanFailure`).
pub(crate) fn drive_plans<I>(
    plans: &mut [BisectPlan<I>],
    oracles: &[&SharedOracle<'_, I>],
    backend: &dyn ExecBackend,
    trace: &TraceSink,
    label: &str,
    seed: Option<SpeculationScore<'_, I>>,
) -> Result<Vec<Result<PlanOutcome<I>, PlanFailure>>, ExecError>
where
    I: Clone + Ord + Hash + Send + Sync,
{
    assert_eq!(plans.len(), oracles.len(), "one oracle per plan");
    let waves = trace.counter(counter::EXEC_WAVES);
    let skipped = seed.map(|_| trace.counter(counter::LINT_SPECULATION_SKIPPED));
    let mut results: Vec<Option<Result<PlanOutcome<I>, PlanFailure>>> =
        plans.iter().map(|_| None).collect();
    let mut wave = 0usize;
    loop {
        let mut required: Vec<(usize, Vec<I>)> = Vec::new();
        let mut speculative: Vec<(usize, Vec<I>)> = Vec::new();
        for (pi, plan) in plans.iter().enumerate() {
            if results[pi].is_some() {
                continue;
            }
            match plan.step() {
                PlanStep::Done(result) => results[pi] = Some(*result),
                PlanStep::Frontier(queries) => {
                    for q in queries {
                        if q.required {
                            required.push((pi, q.items));
                        } else {
                            speculative.push((pi, q.items));
                        }
                    }
                }
            }
        }
        if required.is_empty() {
            // Every active plan emits at least one required query, so
            // an empty required set means every plan is done.
            break;
        }
        // Fill idle workers with speculation, never shrinking below the
        // required set. A seed priority drops predicted-invariant
        // queries and spends the fill on the likeliest culprits first.
        if let Some(score) = seed {
            let before = speculative.len();
            let mut scored: Vec<(f64, (usize, Vec<I>))> = speculative
                .into_iter()
                .map(|q| (score(&q.1), q))
                .filter(|(s, _)| *s > 0.0)
                .collect();
            if let Some(skipped) = &skipped {
                skipped.incr((before - scored.len()) as u64);
            }
            // Stable sort: equal scores keep frontier order.
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            speculative = scored.into_iter().map(|(_, q)| q).collect();
        }
        let budget = backend.workers().max(required.len());
        let mut batch = required;
        let fill = budget - batch.len();
        batch.extend(speculative.into_iter().take(fill));

        waves.incr(1);
        if trace.is_enabled() {
            trace.span(
                phase::EXEC_WAVE,
                format!("{label}/wave-{wave:04}"),
                batch.len() as u64,
                0.0,
            );
        }
        let answers = run_on(backend, batch.len(), |j| {
            let (pi, items) = &batch[j];
            oracles[*pi].eval(items)
        })?;
        for ((pi, items), answer) in batch.into_iter().zip(answers) {
            plans[pi].answer(&items, answer);
        }
        wave += 1;
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every plan ran to completion"))
        .collect())
}

/// Emit the canonical `exec.query` spans for a completed search: one
/// span per execution, in serial consumption order, with the item-set
/// size as cost and the run's simulated seconds as duration. Identical
/// at any worker count.
pub(crate) fn emit_query_spans<I>(trace: &TraceSink, label: &str, outcome: &PlanOutcome<I>) {
    if !trace.is_enabled() {
        return;
    }
    for (i, (size, secs)) in outcome.consumed.iter().enumerate() {
        trace.span(
            phase::EXEC_QUERY,
            format!("{label}/q{i:04}(n={size})"),
            *size as u64,
            *secs,
        );
    }
}

/// Drive one flat search (`bisect_all`, `bisect_all_unpruned`,
/// `bisect_biggest`) on `backend`. A panicking test function surfaces
/// as [`TestError::Crash`] naming the lowest panicking query.
pub(crate) fn drive_flat<I, F>(
    plan: BisectPlan<I>,
    test_fn: F,
    backend: &dyn ExecBackend,
) -> Result<BisectOutcome<I>, TestError>
where
    I: Clone + Ord + Hash + Send + Sync,
    F: Fn(&[I]) -> Result<f64, TestError> + Sync,
{
    let trace = TraceSink::disabled();
    let handle = LedgerHandle::new(QueryLedger::new(0, &trace), 1, "bisect");
    let raw = move |items: &[I]| test_fn(items).map(|v| (v, 0.0));
    let oracle = SharedOracle::new(raw, handle, |items: &[I]| {
        let mut h = Fnv128::new();
        items.hash(&mut h);
        h.hex()
    });
    let mut results = drive_plans(&mut [plan], &[&oracle], backend, &trace, "bisect", None)
        .map_err(|e| TestError::Crash(e.to_string()))?;
    match results.pop().expect("one plan in, one result out") {
        Ok(p) => Ok(p.outcome),
        Err(f) => Err(f.error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bisect_all, bisect_all_unpruned};
    use crate::biggest::bisect_biggest;
    use crate::planner::SearchMode;
    use flit_exec::ThreadsBackend;

    fn magnitude(weights: Vec<(u32, f64)>) -> impl Fn(&[u32]) -> Result<f64, TestError> + Sync {
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

    #[test]
    fn parallel_matches_serial_at_every_width() {
        // Width 1 is the serial search; the planner tests pin it against
        // the verbatim reference loop.
        let weights = vec![(2, 0.25), (8, 1.5), (9, 0.125), (30, 3.0)];
        let items: Vec<u32> = (1..=40).collect();
        let serial =
            bisect_all(magnitude(weights.clone()), &items, &ThreadsBackend::new(1)).unwrap();
        for jobs in [2, 8] {
            let exec = ThreadsBackend::new(jobs);
            let par = bisect_all(magnitude(weights.clone()), &items, &exec).unwrap();
            assert_eq!(par.found, serial.found, "jobs={jobs}");
            assert_eq!(par.executions, serial.executions, "jobs={jobs}");
            assert_eq!(par.trace, serial.trace, "jobs={jobs}");
            assert_eq!(par.violations, serial.violations, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_biggest_matches_serial() {
        let weights: Vec<(u32, f64)> = (0..9).map(|j| (j * 13 + 4, 1.0 + j as f64)).collect();
        let items: Vec<u32> = (0..128).collect();
        for k in [1, 4] {
            let serial = bisect_biggest(
                magnitude(weights.clone()),
                &items,
                k,
                &ThreadsBackend::new(1),
            )
            .unwrap();
            let exec = ThreadsBackend::new(8);
            let par = bisect_biggest(magnitude(weights.clone()), &items, k, &exec).unwrap();
            assert_eq!(par.found, serial.found, "k={k}");
            assert_eq!(par.executions, serial.executions, "k={k}");
        }
    }

    #[test]
    fn joint_plans_share_the_oracle() {
        // Two searches over the same space share one oracle: the
        // second's queries are largely memo hits, and outcomes match
        // their serial runs exactly.
        let weights = vec![(5, 1.0), (20, 2.0)];
        let items: Vec<u32> = (0..32).collect();
        let sink = TraceSink::enabled();
        let handle = LedgerHandle::new(QueryLedger::new(0, &sink), 1, "joint");
        let oracle = SharedOracle::new(
            {
                let f = magnitude(weights.clone());
                move |items: &[u32]| f(items).map(|v| (v, 0.0))
            },
            handle,
            |items: &[u32]| format!("{items:?}"),
        );
        let mut plans = [
            BisectPlan::new(&items, SearchMode::All),
            BisectPlan::new(&items, SearchMode::AllUnpruned),
        ];
        let exec = ThreadsBackend::new(4);
        let results =
            drive_plans(&mut plans, &[&oracle, &oracle], &exec, &sink, "joint", None).unwrap();
        let [a, b] = <[_; 2]>::try_from(results).ok().unwrap();
        let serial = ThreadsBackend::new(1);
        let serial_a = bisect_all(magnitude(weights.clone()), &items, &serial).unwrap();
        let serial_b = bisect_all_unpruned(magnitude(weights.clone()), &items, &serial).unwrap();
        assert_eq!(a.unwrap().outcome, serial_a);
        assert_eq!(b.unwrap().outcome, serial_b);
        let trace = sink.snapshot();
        assert!(
            trace.counter(counter::EXEC_QUERIES_MEMOIZED) > 0,
            "shared memo"
        );
        assert!(trace.counter(counter::EXEC_WAVES) > 0);
    }

    #[test]
    fn panicking_test_fn_becomes_a_crash_error() {
        let items: Vec<u32> = (0..16).collect();
        for jobs in [1, 2] {
            let err = bisect_all(
                |_items: &[u32]| -> Result<f64, TestError> { panic!("oracle exploded") },
                &items,
                &ThreadsBackend::new(jobs),
            )
            .unwrap_err();
            match err {
                TestError::Crash(s) => assert!(s.contains("exploded"), "{s}"),
                other => panic!("expected Crash, got {other:?}"),
            }
        }
    }
}
