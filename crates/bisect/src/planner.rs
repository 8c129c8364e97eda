//! The frontier-based search planner: Bisect decoupled from execution.
//!
//! [`BisectPlan`] is a pure state machine. It holds the search
//! definition (item set + [`SearchMode`]) and a table of Test answers
//! received so far; [`BisectPlan::step`] *replays* the serial algorithm
//! against that table. When the replay hits a query with no answer yet
//! it suspends and returns the [`frontier`](PlanStep::Frontier): the one
//! query the serial algorithm needs next (`required`), plus the
//! speculative queries it would need soon on either branch of the
//! pending split. The wave driver (`drive_plans`) evaluates a subset
//! of the frontier on an execution backend — at width 1 just the
//! required queries, wider with speculation too —
//! feeds the answers back via [`BisectPlan::answer`], and steps again.
//!
//! Because every observable — found set, trace rows, execution count,
//! simulated-seconds total, assumption violations — is derived from the
//! *replay* (which consumes answers in the serial algorithm's exact
//! call order, counting each distinct canonical set on first touch,
//! just like [`MemoTest`](crate::test_fn::MemoTest)), the outcome is
//! byte-identical to the blocking recursion no matter how many workers
//! raced ahead or which speculative answers were wasted.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hash::Hash;

use crate::algo::{AssumptionViolation, BisectOutcome, TraceRow};
use crate::biggest::Node;
use crate::test_fn::TestError;

/// How many split levels ahead a suspended replay speculates: up to ~7
/// speculative queries per suspension.
const SPECULATION_DEPTH: usize = 3;

/// Which serial algorithm the plan replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// `BisectAll` with found-set pruning (Algorithm 1).
    All,
    /// `BisectAll` without pruning (the §2.2 ablation).
    AllUnpruned,
    /// `BisectBiggest(k)` — uniform-cost search, early exit.
    Biggest(usize),
}

/// A pending Test query emitted by [`BisectPlan::step`].
///
/// `items` is canonical (sorted, deduplicated) — the memo key. Exactly
/// the queries marked `required` block the serial replay; the rest are
/// speculation that a parallel driver can use to fill idle workers.
#[derive(Debug, Clone, PartialEq)]
pub struct Query<I> {
    /// The canonical item set to evaluate.
    pub items: Vec<I>,
    /// True when the serial replay cannot advance without this answer.
    pub required: bool,
}

/// A Test answer: the metric value plus the run's simulated seconds.
pub(crate) type Answer = Result<(f64, f64), TestError>;

/// A completed search: the outcome plus the canonical execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome<I> {
    /// The search outcome, byte-identical to the serial algorithm's.
    pub outcome: BisectOutcome<I>,
    /// Total simulated seconds, summed in serial consumption order (so
    /// the f64 total is bitwise-stable at any worker count).
    pub seconds: f64,
    /// Per-execution records `(set size, simulated seconds)` in serial
    /// consumption order — the basis for `exec.query` trace spans.
    pub consumed: Vec<(usize, f64)>,
}

/// A failed search: the error, plus the executions the serial algorithm
/// performed up to and including the failing query (the hierarchy
/// reports partial counts and spans on crash, so these must match the
/// serial path exactly).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFailure {
    /// The propagated Test error.
    pub error: TestError,
    /// Executions consumed before the failure, including the failing
    /// query itself (it was a real run in the serial algorithm too).
    pub executions: usize,
    /// Simulated seconds of the successful executions.
    pub seconds: f64,
    /// Per-execution records of the successful executions.
    pub consumed: Vec<(usize, f64)>,
}

/// What [`BisectPlan::step`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep<I> {
    /// The replay is blocked: evaluate (at least the required subset
    /// of) these queries and [`answer`](BisectPlan::answer) them. The
    /// first query is always required.
    Frontier(Vec<Query<I>>),
    /// The replay ran to completion (or to a propagated Test error).
    Done(Box<Result<PlanOutcome<I>, PlanFailure>>),
}

/// Canonicalize an item set into its memo key, exactly as
/// [`MemoTest`](crate::test_fn::MemoTest) does.
pub(crate) fn canonical<I: Clone + Ord>(items: &[I]) -> Vec<I> {
    let mut key: Vec<I> = items.to_vec();
    key.sort();
    key.dedup();
    key
}

/// The planner state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct BisectPlan<I> {
    items: Vec<I>,
    mode: SearchMode,
    answers: HashMap<Vec<I>, Answer>,
}

impl<I> BisectPlan<I>
where
    I: Clone + Ord + Hash,
{
    /// A plan over `items` in the given mode.
    pub fn new(items: &[I], mode: SearchMode) -> Self {
        BisectPlan {
            items: items.to_vec(),
            mode,
            answers: HashMap::new(),
        }
    }

    /// Record the answer for a query (canonicalized internally). The
    /// first answer for a key wins; re-answers are ignored, mirroring
    /// the memo semantics.
    pub fn answer(&mut self, items: &[I], answer: Answer) {
        self.answers.entry(canonical(items)).or_insert(answer);
    }

    /// True when this key already has an answer.
    pub fn is_answered(&self, items: &[I]) -> bool {
        self.answers.contains_key(&canonical(items))
    }

    /// Replay the serial algorithm against the answers so far.
    pub fn step(&self) -> PlanStep<I> {
        let mut replay = Replay::new(self);
        let result = match self.mode {
            SearchMode::All => replay.run_all(true),
            SearchMode::AllUnpruned => replay.run_all(false),
            SearchMode::Biggest(k) => replay.run_biggest(k),
        };
        match result {
            Ok(found) => {
                let (trace, violations) = match self.mode {
                    // BisectBiggest reports neither traces nor
                    // violations, exactly like the serial function.
                    SearchMode::Biggest(_) => (vec![], vec![]),
                    _ => (replay.trace, replay.violations),
                };
                PlanStep::Done(Box::new(Ok(PlanOutcome {
                    outcome: BisectOutcome {
                        found,
                        executions: replay.executions,
                        violations,
                        trace,
                    },
                    seconds: replay.seconds,
                    consumed: replay.consumed,
                })))
            }
            Err(Stop::Crash(error)) => PlanStep::Done(Box::new(Err(PlanFailure {
                error,
                executions: replay.executions,
                seconds: replay.seconds,
                consumed: replay.consumed,
            }))),
            Err(Stop::Suspend) => {
                debug_assert!(
                    !replay.pending.is_empty(),
                    "a suspended replay must leave a non-empty frontier"
                );
                PlanStep::Frontier(replay.pending)
            }
        }
    }
}

/// Why a replay stopped early.
enum Stop {
    /// A consumed answer was a Test error: the search aborts.
    Crash(TestError),
    /// A needed answer is missing: the frontier is in `pending`.
    Suspend,
}

/// What one `BisectOne` replay yields: the items it consumed from the
/// search space, and the blamed (item, value) when Assumption 2 held.
type OneResult<I> = Result<(Vec<I>, Option<(I, f64)>), Stop>;

/// One replay of the serial algorithm against the current answer table.
struct Replay<'p, I> {
    plan: &'p BisectPlan<I>,
    /// Keys consumed so far this replay; counting on first touch
    /// reproduces `MemoTest`'s miss accounting.
    counted: HashSet<Vec<I>>,
    executions: usize,
    seconds: f64,
    consumed: Vec<(usize, f64)>,
    trace: Vec<TraceRow<I>>,
    violations: Vec<AssumptionViolation<I>>,
    pending: Vec<Query<I>>,
    pending_keys: HashSet<Vec<I>>,
}

impl<'p, I> Replay<'p, I>
where
    I: Clone + Ord + Hash,
{
    fn new(plan: &'p BisectPlan<I>) -> Self {
        Replay {
            plan,
            counted: HashSet::new(),
            executions: 0,
            seconds: 0.0,
            consumed: Vec::new(),
            trace: Vec::new(),
            violations: Vec::new(),
            pending: Vec::new(),
            pending_keys: HashSet::new(),
        }
    }

    /// Ask for `key` to be evaluated (no-op if answered or already
    /// pending). Required queries keep their emission order, which is
    /// the serial consumption order.
    fn want(&mut self, key: Vec<I>, required: bool) {
        if self.plan.answers.contains_key(&key) || self.pending_keys.contains(&key) {
            return;
        }
        self.pending_keys.insert(key.clone());
        self.pending.push(Query {
            items: key,
            required,
        });
    }

    /// Consume the answer for `items`: count it on first touch (a
    /// `MemoTest` miss), suspend if missing, abort on error. Error
    /// answers count as an execution — the serial run performed them.
    fn probe(&mut self, items: &[I]) -> Result<f64, Stop> {
        let key = canonical(items);
        match self.plan.answers.get(&key) {
            Some(Ok((value, secs))) => {
                if self.counted.insert(key.clone()) {
                    self.executions += 1;
                    self.seconds += secs;
                    self.consumed.push((key.len(), *secs));
                }
                Ok(*value)
            }
            Some(Err(e)) => {
                if self.counted.insert(key) {
                    self.executions += 1;
                }
                Err(Stop::Crash(e.clone()))
            }
            None => {
                self.want(key, true);
                Err(Stop::Suspend)
            }
        }
    }

    /// Speculatively emit the queries `bisect_one(slice)` would probe,
    /// exploring both branches of any unanswered split down to `depth`
    /// levels.
    fn speculate(&mut self, slice: &[I], depth: usize) {
        if depth == 0 || slice.is_empty() {
            return;
        }
        if slice.len() == 1 {
            self.want(canonical(slice), false);
            return;
        }
        let mid = slice.len() / 2;
        let (d1, d2) = slice.split_at(mid);
        match self.plan.answers.get(&canonical(d1)) {
            // The split's outcome is known: follow the branch the
            // serial algorithm will take, at full remaining depth.
            Some(Ok((v, _))) => {
                if *v > 0.0 {
                    self.speculate(d1, depth);
                } else {
                    self.speculate(d2, depth);
                }
            }
            Some(Err(_)) => {}
            // Unknown: this probe is (or will be) on the frontier;
            // speculate one level into both possible continuations.
            None => {
                self.want(canonical(d1), false);
                self.speculate(d1, depth - 1);
                self.speculate(d2, depth - 1);
            }
        }
    }

    /// The `BisectOne` recursion (algo.rs) as a replay.
    fn one(&mut self, items: &[I], space: &[I]) -> OneResult<I> {
        if items.len() == 1 {
            let v = self.probe(items)?;
            self.trace.push(TraceRow {
                tested: items.to_vec(),
                space: space.to_vec(),
                value: v,
            });
            if v > 0.0 {
                return Ok((items.to_vec(), Some((items[0].clone(), v))));
            }
            self.violations.push(AssumptionViolation::SingletonBlame {
                element: items[0].clone(),
            });
            return Ok((items.to_vec(), None));
        }
        let mid = items.len() / 2;
        let (d1, d2) = items.split_at(mid);
        let v1 = match self.probe(d1) {
            Ok(v) => v,
            Err(Stop::Suspend) => {
                // Blocked on this split: widen the frontier with both
                // continuations so idle workers have useful guesses.
                self.speculate(d1, SPECULATION_DEPTH);
                self.speculate(d2, SPECULATION_DEPTH);
                return Err(Stop::Suspend);
            }
            Err(crash) => return Err(crash),
        };
        self.trace.push(TraceRow {
            tested: d1.to_vec(),
            space: space.to_vec(),
            value: v1,
        });
        if v1 > 0.0 {
            self.one(d1, space)
        } else {
            let (g, next) = self.one(d2, space)?;
            let mut g2 = g;
            g2.extend_from_slice(d1);
            Ok((g2, next))
        }
    }

    /// `BisectAll` / `BisectAllUnpruned` (algo.rs) as a replay.
    fn run_all(&mut self, pruned: bool) -> Result<Vec<(I, f64)>, Stop> {
        let items = self.plan.items.clone();
        let items = &items;
        let mut found: Vec<(I, f64)> = Vec::new();
        let mut t: Vec<I> = items.to_vec();

        loop {
            let v = match self.probe(&t) {
                Ok(v) => v,
                Err(Stop::Suspend) => {
                    // If positive, the next queries come from
                    // bisect_one(t); if zero, the loop breaks and the
                    // verification needs Test(found).
                    self.speculate(&t, SPECULATION_DEPTH);
                    let found_items: Vec<I> = found.iter().map(|(i, _)| i.clone()).collect();
                    self.want(canonical(&found_items), false);
                    return Err(Stop::Suspend);
                }
                Err(crash) => return Err(crash),
            };
            self.trace.push(TraceRow {
                tested: t.clone(),
                space: t.clone(),
                value: v,
            });
            if v.is_nan() || v <= 0.0 {
                break;
            }
            let space = t.clone();
            let (g, next) = self.one(&t, &space)?;
            if pruned {
                if let Some(pair) = next {
                    found.push(pair);
                } else {
                    t.retain(|x| !g.contains(x));
                    break;
                }
                t.retain(|x| !g.contains(x));
            } else {
                match next {
                    Some((elem, value)) => {
                        t.retain(|x| *x != elem);
                        found.push((elem, value));
                    }
                    None => break,
                }
            }
            if t.is_empty() {
                break;
            }
        }

        // Dynamic verification of Assumption 1: Test(items) =
        // Test(found). Want both jointly when missing so a parallel
        // driver can evaluate them in one wave; consumption order
        // (items first) still matches the serial algorithm.
        let found_items: Vec<I> = found.iter().map(|(i, _)| i.clone()).collect();
        let items_key = canonical(items);
        let found_key = canonical(&found_items);
        let items_missing = !self.plan.answers.contains_key(&items_key);
        let found_missing = !self.plan.answers.contains_key(&found_key);
        if items_missing || found_missing {
            self.want(items_key, items_missing);
            self.want(found_key, true);
            return Err(Stop::Suspend);
        }
        let items_value = self.probe(items)?;
        let found_value = self.probe(&found_items)?;
        if items_value != found_value && !(items_value.is_nan() && found_value.is_nan()) {
            self.violations.push(AssumptionViolation::UniqueError {
                items_value,
                found_value,
            });
        }
        Ok(found)
    }

    /// `BisectBiggest` (biggest.rs) as a replay.
    fn run_biggest(&mut self, k: usize) -> Result<Vec<(I, f64)>, Stop> {
        let items = self.plan.items.clone();
        let items = &items;
        let mut found: Vec<(I, f64)> = Vec::new();
        let mut heap: BinaryHeap<Node<I>> = BinaryHeap::new();

        let v0 = self.probe(items)?;
        if v0 > 0.0 && k > 0 {
            heap.push(Node {
                value: v0,
                items: items.to_vec(),
            });
        }

        while let Some(Node { value, items: cur }) = heap.pop() {
            if found.len() >= k && value <= found.last().map_or(f64::INFINITY, |(_, v)| *v) {
                break;
            }
            if cur.len() == 1 {
                found.push((cur[0].clone(), value));
                found.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                found.truncate(k);
                continue;
            }
            let mid = cur.len() / 2;
            // The serial expansion always tests both halves; want any
            // missing ones jointly before consuming either, so both
            // land in one wave. Consumption stays d1-then-d2.
            let halves = [&cur[..mid], &cur[mid..]];
            let mut suspended = false;
            for half in halves {
                if !half.is_empty() && !self.plan.answers.contains_key(&canonical(half)) {
                    self.want(canonical(half), true);
                    suspended = true;
                }
            }
            if suspended {
                return Err(Stop::Suspend);
            }
            for half in halves {
                if half.is_empty() {
                    continue;
                }
                let v = self.probe(half)?;
                if v > 0.0 {
                    heap.push(Node {
                        value: v,
                        items: half.to_vec(),
                    });
                }
            }
        }
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bisect_all;
    use crate::biggest::bisect_biggest;
    use crate::test_fn::{MemoTest, TestFn};
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

    /// What one `BisectOne` round found: the prunable set `G`, plus the
    /// blamed element and its singleton Test value (`None` when the
    /// singleton assertion failed).
    type BisectOneFound<I> = (Vec<I>, Option<(I, f64)>);

    /// `BisectOne` (Algorithm 1), the recursion the planner replays,
    /// kept as its independent oracle: find one variability-inducing
    /// element inside `items` (which must test positive). Returns `(G,
    /// found, found_value)` where `G` is the prunable set *including*
    /// `found`.
    fn bisect_one<I, F>(
        test: &mut MemoTest<I, F>,
        items: &[I],
        space: &[I],
        trace: &mut Vec<TraceRow<I>>,
        violations: &mut Vec<AssumptionViolation<I>>,
    ) -> Result<BisectOneFound<I>, TestError>
    where
        I: Clone + Ord + Hash,
        F: TestFn<I>,
    {
        if items.len() == 1 {
            // Base case — line 2-4, with the line-3 assertion as dynamic
            // verification rather than a panic.
            let v = test.test(items)?;
            trace.push(TraceRow {
                tested: items.to_vec(),
                space: space.to_vec(),
                value: v,
            });
            if v > 0.0 {
                return Ok((items.to_vec(), Some((items[0].clone(), v))));
            }
            violations.push(AssumptionViolation::SingletonBlame {
                element: items[0].clone(),
            });
            // The singleton is still prunable (it does not matter alone);
            // report no find for this round.
            return Ok((items.to_vec(), None));
        }
        let mid = items.len() / 2;
        let (d1, d2) = items.split_at(mid);
        let v1 = test.test(d1)?;
        trace.push(TraceRow {
            tested: d1.to_vec(),
            space: space.to_vec(),
            value: v1,
        });
        if v1 > 0.0 {
            bisect_one(test, d1, space, trace, violations)
        } else {
            let (g, next) = bisect_one(test, d2, space, trace, violations)?;
            // Line 10: Δ1 tested zero, so it is prunable alongside G.
            let mut g2 = g;
            g2.extend_from_slice(d1);
            Ok((g2, next))
        }
    }

    /// The pre-planner `BisectAll` loop, kept verbatim as a reference
    /// implementation for differential testing.
    fn reference_bisect_all<F>(test_fn: F, items: &[u32]) -> Result<BisectOutcome<u32>, TestError>
    where
        F: TestFn<u32>,
    {
        let mut test = MemoTest::new(test_fn);
        let mut trace = Vec::new();
        let mut violations = Vec::new();
        let mut found: Vec<(u32, f64)> = Vec::new();
        let mut t: Vec<u32> = items.to_vec();
        loop {
            let v = test.test(&t)?;
            trace.push(TraceRow {
                tested: t.clone(),
                space: t.clone(),
                value: v,
            });
            if v.is_nan() || v <= 0.0 {
                break;
            }
            let (g, next) = bisect_one(
                &mut test,
                &t.clone(),
                &t.clone(),
                &mut trace,
                &mut violations,
            )?;
            if let Some(pair) = next {
                found.push(pair);
            } else {
                t.retain(|x| !g.contains(x));
                break;
            }
            t.retain(|x| !g.contains(x));
            if t.is_empty() {
                break;
            }
        }
        let items_value = test.test(items)?;
        let found_items: Vec<u32> = found.iter().map(|(i, _)| *i).collect();
        let found_value = test.test(&found_items)?;
        if items_value != found_value && !(items_value.is_nan() && found_value.is_nan()) {
            violations.push(AssumptionViolation::UniqueError {
                items_value,
                found_value,
            });
        }
        Ok(BisectOutcome {
            found,
            executions: test.executions(),
            violations,
            trace,
        })
    }

    #[test]
    fn replay_matches_reference_recursion_exactly() {
        let cases: Vec<Vec<(u32, f64)>> = vec![
            vec![],
            vec![(2, 0.25), (8, 1.5), (9, 0.125)],
            vec![(0, 1.0)],
            vec![(31, 2.0)],
            (0..7).map(|j| (j * 4 + 1, 1.0 + j as f64)).collect(),
        ];
        for weights in cases {
            let items: Vec<u32> = (0..32).collect();
            let planner =
                bisect_all(magnitude(weights.clone()), &items, &ThreadsBackend::new(1)).unwrap();
            let reference = reference_bisect_all(magnitude(weights.clone()), &items).unwrap();
            assert_eq!(planner.found, reference.found, "weights {weights:?}");
            assert_eq!(planner.executions, reference.executions);
            assert_eq!(planner.trace, reference.trace);
            assert_eq!(planner.violations, reference.violations);
        }
    }

    #[test]
    fn frontier_head_is_always_required_and_fresh() {
        let items: Vec<u32> = (0..64).collect();
        let oracle = magnitude(vec![(5, 1.0), (40, 2.0)]);
        let mut plan = BisectPlan::new(&items, SearchMode::All);
        let mut rounds = 0;
        loop {
            match plan.step() {
                PlanStep::Done(result) => {
                    let outcome = result.unwrap().outcome;
                    let mut f: Vec<u32> = outcome.found.iter().map(|(i, _)| *i).collect();
                    f.sort();
                    assert_eq!(f, vec![5, 40]);
                    break;
                }
                PlanStep::Frontier(queries) => {
                    assert!(queries[0].required, "head of frontier must be required");
                    for q in &queries {
                        assert!(!plan.is_answered(&q.items), "frontier repeats answered key");
                        assert_eq!(q.items, canonical(&q.items), "queries are canonical");
                    }
                    // Answer the whole frontier, speculation included.
                    for q in queries {
                        let answer = oracle(&q.items).map(|v| (v, 0.0));
                        plan.answer(&q.items, answer);
                    }
                }
            }
            rounds += 1;
            assert!(rounds < 10_000, "planner does not converge");
        }
    }

    #[test]
    fn answering_speculation_never_changes_the_outcome() {
        for weights in [
            vec![(3, 0.5), (12, 0.25), (27, 4.0)],
            vec![(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)],
        ] {
            let items: Vec<u32> = (0..32).collect();
            let serial = reference_bisect_all(magnitude(weights.clone()), &items).unwrap();
            // Greedy driver: answer every frontier query each round.
            let oracle = magnitude(weights.clone());
            let mut plan = BisectPlan::new(&items, SearchMode::All);
            let greedy = loop {
                match plan.step() {
                    PlanStep::Done(result) => break result.unwrap().outcome,
                    PlanStep::Frontier(queries) => {
                        for q in queries {
                            plan.answer(&q.items, oracle(&q.items).map(|v| (v, 0.0)));
                        }
                    }
                }
            };
            assert_eq!(serial.found, greedy.found);
            assert_eq!(serial.executions, greedy.executions);
            assert_eq!(serial.trace, greedy.trace);
            assert_eq!(serial.violations, greedy.violations);
        }
    }

    #[test]
    fn failure_reports_partial_executions_like_the_serial_memo() {
        let items: Vec<u32> = (0..32).collect();
        let crashy = |items: &[u32]| -> Result<f64, TestError> {
            if items.len() == 8 {
                Err(TestError::Crash("segv".into()))
            } else {
                Ok(if items.contains(&7) { 1.0 } else { 0.0 })
            }
        };
        // Serial reference: the `MemoTest` loop calls the raw test once
        // per miss, so an outer probe counts its executions.
        let mut misses = 0usize;
        let counted = |items: &[u32]| {
            misses += 1;
            crashy(items)
        };
        let err = reference_bisect_all(counted, &items).unwrap_err();
        assert!(matches!(err, TestError::Crash(_)));

        let mut plan = BisectPlan::new(&items, SearchMode::All);
        let failure = loop {
            match plan.step() {
                PlanStep::Done(result) => break result.unwrap_err(),
                PlanStep::Frontier(queries) => {
                    for q in queries {
                        plan.answer(&q.items, crashy(&q.items).map(|v| (v, 0.0)));
                    }
                }
            }
        };
        assert!(matches!(failure.error, TestError::Crash(_)));
        assert_eq!(failure.executions, misses, "crash counts as an execution");
    }

    /// The pre-planner `BisectBiggest` UCS loop, kept verbatim as a
    /// reference implementation for differential testing.
    fn reference_biggest<F>(
        test_fn: F,
        items: &[u32],
        k: usize,
    ) -> Result<BisectOutcome<u32>, TestError>
    where
        F: TestFn<u32>,
    {
        let mut test = MemoTest::new(test_fn);
        let mut found: Vec<(u32, f64)> = Vec::new();
        let mut heap: BinaryHeap<Node<u32>> = BinaryHeap::new();
        let v0 = test.test(items)?;
        if v0 > 0.0 && k > 0 {
            heap.push(Node {
                value: v0,
                items: items.to_vec(),
            });
        }
        while let Some(Node { value, items: cur }) = heap.pop() {
            if found.len() >= k && value <= found.last().map_or(f64::INFINITY, |(_, v)| *v) {
                break;
            }
            if cur.len() == 1 {
                found.push((cur[0], value));
                found.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                found.truncate(k);
                continue;
            }
            let mid = cur.len() / 2;
            for half in [&cur[..mid], &cur[mid..]] {
                if half.is_empty() {
                    continue;
                }
                let v = test.test(half)?;
                if v > 0.0 {
                    heap.push(Node {
                        value: v,
                        items: half.to_vec(),
                    });
                }
            }
        }
        Ok(BisectOutcome {
            found,
            executions: test.executions(),
            violations: vec![],
            trace: vec![],
        })
    }

    #[test]
    fn biggest_replay_matches_reference_ucs() {
        let weights: Vec<(u32, f64)> = (0..6).map(|j| (j * 9 + 2, 1.0 + j as f64)).collect();
        let items: Vec<u32> = (0..64).collect();
        for k in [0, 1, 3, 10] {
            let reference = reference_biggest(magnitude(weights.clone()), &items, k).unwrap();
            let planner = bisect_biggest(
                magnitude(weights.clone()),
                &items,
                k,
                &ThreadsBackend::new(1),
            )
            .unwrap();
            assert_eq!(planner.found, reference.found, "k={k}");
            assert_eq!(planner.executions, reference.executions, "k={k}");
        }
    }
}
