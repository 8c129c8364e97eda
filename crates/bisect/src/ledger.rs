//! The workflow-wide query ledger: one sharded single-flight memo
//! table shared by every search a workflow spawns, optionally backed by
//! the on-disk checkpoint [`journal`](crate::journal).
//!
//! Keys are canonical digests of the *mixed link recipe* (which program
//! pair, which driver and input, which per-file compilation labels), so
//! identical file-level queries issued by different searches — e.g. the
//! reference run shared by every variable compilation of one test, or
//! the all-baseline `Test(∅)` link of every link-step-only pair —
//! execute once and are served to everyone else as shared hits.
//!
//! Accounting is split in two layers and that split is load-bearing:
//! *logical* observables (per-search execution counts, `bisect.*`
//! counters, level seconds, spans) are incremented by the searches on
//! first touch exactly as before, whether the answer came from a live
//! run, a shared hit, or a journal replay — so every existing result is
//! byte-identical with the ledger attached. Only the *physical*
//! `exec.queries.*` counters move: `executed` counts true evaluations,
//! `shared_hits` counts answers served across searches, and the
//! `journal.*` counters count replayed/appended records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use flit_exec::SingleFlight;
use flit_persist::Fnv128;
use flit_trace::names::counter as counter_names;
use flit_trace::registry::Counter;
use flit_trace::sink::TraceSink;

use crate::journal::{JournalAnswer, JournalRecord, JournalWriter};
use crate::test_fn::TestError;

/// The origin tag of answers preloaded from a checkpoint journal.
const REPLAY_ORIGIN: u64 = 0;

/// A completed, cacheable Test answer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StoredAnswer {
    /// A scored query: `(metric value, simulated seconds)`.
    Score {
        /// The Test metric value.
        value: f64,
        /// The run's simulated seconds.
        seconds: f64,
    },
    /// A reference run: `(full output vector, simulated seconds)`.
    Output {
        /// The run's output vector.
        output: Vec<f64>,
        /// The run's simulated seconds.
        seconds: f64,
    },
    /// The mixed executable crashed.
    Crash(String),
    /// The mixed link failed.
    Link(String),
}

impl StoredAnswer {
    fn to_journal(&self) -> JournalAnswer {
        match self {
            StoredAnswer::Score { value, seconds } => JournalAnswer::Score {
                score_bits: value.to_bits(),
                seconds_bits: seconds.to_bits(),
            },
            StoredAnswer::Output { output, seconds } => JournalAnswer::Output {
                output_bits: output.iter().map(|x| x.to_bits()).collect(),
                seconds_bits: seconds.to_bits(),
            },
            StoredAnswer::Crash(message) => JournalAnswer::Crash {
                message: message.clone(),
            },
            StoredAnswer::Link(message) => JournalAnswer::Link {
                message: message.clone(),
            },
        }
    }

    fn from_journal(answer: &JournalAnswer) -> Self {
        match answer {
            JournalAnswer::Score {
                score_bits,
                seconds_bits,
            } => StoredAnswer::Score {
                value: f64::from_bits(*score_bits),
                seconds: f64::from_bits(*seconds_bits),
            },
            JournalAnswer::Output {
                output_bits,
                seconds_bits,
            } => StoredAnswer::Output {
                output: output_bits.iter().map(|b| f64::from_bits(*b)).collect(),
                seconds: f64::from_bits(*seconds_bits),
            },
            JournalAnswer::Crash { message } => StoredAnswer::Crash(message.clone()),
            JournalAnswer::Link { message } => StoredAnswer::Link(message.clone()),
        }
    }
}

/// A point-in-time snapshot of a ledger's physical counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerStats {
    /// Queries actually evaluated (single-flight compute).
    pub executed: u64,
    /// Hits served back to the search that first executed the query.
    pub memoized: u64,
    /// Hits served across searches (a *different* search executed it).
    pub shared_hits: u64,
    /// Journal records preloaded on resume.
    pub replayed: u64,
    /// Hits served from preloaded journal answers.
    pub replay_served: u64,
    /// Records appended to the journal during this run.
    pub appended: u64,
}

/// The workflow-wide sharded single-flight answer table.
///
/// Create one per workflow ([`QueryLedger::new`]), hand each search a
/// [`LedgerHandle`] with a distinct nonzero origin, and optionally
/// attach a [`JournalWriter`] / preload journal records for durability.
pub struct QueryLedger {
    fingerprint: u64,
    memo: SingleFlight<String, (StoredAnswer, u64)>,
    stats_executed: AtomicU64,
    stats_memoized: AtomicU64,
    stats_shared: AtomicU64,
    stats_replayed: AtomicU64,
    stats_replay_served: AtomicU64,
    stats_appended: AtomicU64,
    executed: Counter,
    memoized: Counter,
    shared: Counter,
    replayed: Counter,
    appended: Counter,
    journal: Mutex<Option<JournalWriter>>,
    journal_error: Mutex<Option<String>>,
    backend_label: Mutex<String>,
    upstream: Mutex<Option<(Arc<QueryLedger>, u64)>>,
}

impl std::fmt::Debug for QueryLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryLedger")
            .field("fingerprint", &self.fingerprint)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl QueryLedger {
    /// A fresh ledger for a program with the given structural
    /// fingerprint. Physical hit/miss counters land on `trace`.
    pub fn new(fingerprint: u64, trace: &TraceSink) -> Arc<Self> {
        Arc::new(QueryLedger {
            fingerprint,
            memo: SingleFlight::new(),
            stats_executed: AtomicU64::new(0),
            stats_memoized: AtomicU64::new(0),
            stats_shared: AtomicU64::new(0),
            stats_replayed: AtomicU64::new(0),
            stats_replay_served: AtomicU64::new(0),
            stats_appended: AtomicU64::new(0),
            executed: trace.counter(counter_names::EXEC_QUERIES_EXECUTED),
            memoized: trace.counter(counter_names::EXEC_QUERIES_MEMOIZED),
            shared: trace.counter(counter_names::EXEC_QUERIES_SHARED_HITS),
            replayed: trace.counter(counter_names::JOURNAL_REPLAYED),
            appended: trace.counter(counter_names::JOURNAL_APPENDED),
            journal: Mutex::new(None),
            journal_error: Mutex::new(None),
            backend_label: Mutex::new(crate::journal::BACKEND_LOCAL.to_string()),
            upstream: Mutex::new(None),
        })
    }

    /// Chain this ledger to a fleet-wide `parent`: on a local memo
    /// miss, the answer is computed *through* `parent.eval` (tagged
    /// with this ledger's `origin` in the parent) instead of directly.
    ///
    /// This is the `flit-serve` tenant-scoping layer. Each tenant's
    /// workflow gets its own child ledger — so its journal still
    /// records every answer the tenant needed and its resume state
    /// stays self-contained — while actual query evaluation
    /// single-flights in the shared parent. Give every tenant a
    /// distinct nonzero parent origin and the parent's `shared_hits`
    /// counts *exactly* the cross-tenant deduplication (intra-tenant
    /// repeats are absorbed by the child memo or counted as parent
    /// memo hits). `parent` must not itself chain back to this ledger.
    pub fn set_upstream(&self, parent: Arc<QueryLedger>, origin: u64) {
        assert_ne!(origin, REPLAY_ORIGIN, "origin 0 is reserved for replay");
        *self.upstream.lock() = Some((parent, origin));
    }

    /// Record which execution plane computes this ledger's answers
    /// (journal provenance; defaults to
    /// [`crate::journal::BACKEND_LOCAL`]). Replay matches on key and
    /// never reads this.
    pub fn set_backend_label(&self, label: &str) {
        *self.backend_label.lock() = label.to_string();
    }

    /// Attach a checkpoint journal: every freshly computed answer is
    /// appended (atomically) from now on.
    pub fn attach_journal(&self, writer: JournalWriter) {
        *self.journal.lock() = Some(writer);
    }

    /// Preload journal records as already-answered queries. Records are
    /// installed in journal order before any live query consults the
    /// table; a key that is somehow already resolved keeps its first
    /// answer.
    pub fn preload(&self, records: &[JournalRecord]) {
        for rec in records {
            if self.memo.insert(
                rec.key.clone(),
                (StoredAnswer::from_journal(&rec.answer), REPLAY_ORIGIN),
            ) {
                self.stats_replayed.fetch_add(1, Ordering::Relaxed);
                self.replayed.incr(1);
            }
        }
    }

    /// Snapshot the physical counters.
    pub fn stats(&self) -> LedgerStats {
        LedgerStats {
            executed: self.stats_executed.load(Ordering::Relaxed),
            memoized: self.stats_memoized.load(Ordering::Relaxed),
            shared_hits: self.stats_shared.load(Ordering::Relaxed),
            replayed: self.stats_replayed.load(Ordering::Relaxed),
            replay_served: self.stats_replay_served.load(Ordering::Relaxed),
            appended: self.stats_appended.load(Ordering::Relaxed),
        }
    }

    /// The first journal-append failure, if any (a failing journal
    /// never aborts a search; the caller surfaces this at the end).
    pub fn journal_error(&self) -> Option<String> {
        self.journal_error.lock().clone()
    }

    fn append_to_journal(&self, pair: &str, key: &str, answer: &StoredAnswer) {
        let mut journal = self.journal.lock();
        if let Some(writer) = journal.as_mut() {
            let backend = self.backend_label.lock().clone();
            match writer.append(pair, key, &backend, answer.to_journal()) {
                Ok(()) => {
                    self.stats_appended.fetch_add(1, Ordering::Relaxed);
                    self.appended.incr(1);
                }
                Err(e) => {
                    let mut slot = self.journal_error.lock();
                    if slot.is_none() {
                        *slot = Some(format!(
                            "journal append failed at {}: {e}",
                            writer.path().display()
                        ));
                    }
                }
            }
        }
    }

    fn eval(
        &self,
        origin: u64,
        pair: &str,
        key: &str,
        compute: impl FnOnce() -> StoredAnswer,
    ) -> StoredAnswer {
        let (entry, computed) = self.memo.get_or_compute(key.to_string(), || {
            // With an upstream parent attached (tenant scoping), the
            // computation single-flights fleet-wide in the parent; this
            // ledger still journals the answer below, so the tenant's
            // resume state is complete even for answers another tenant
            // computed.
            let upstream = self.upstream.lock().clone();
            let answer = match upstream {
                Some((parent, parent_origin)) => parent.eval(parent_origin, pair, key, compute),
                None => compute(),
            };
            // Journal before the answer is released to any waiter: a
            // crash after this point leaves the answer on disk.
            self.append_to_journal(pair, key, &answer);
            (answer, origin)
        });
        let (answer, answered_by) = entry;
        if computed {
            self.stats_executed.fetch_add(1, Ordering::Relaxed);
            self.executed.incr(1);
        } else if answered_by == origin {
            self.stats_memoized.fetch_add(1, Ordering::Relaxed);
            self.memoized.incr(1);
        } else if answered_by == REPLAY_ORIGIN {
            self.stats_replay_served.fetch_add(1, Ordering::Relaxed);
            self.memoized.incr(1);
        } else {
            self.stats_shared.fetch_add(1, Ordering::Relaxed);
            self.shared.incr(1);
        }
        answer
    }
}

/// One search's view of a shared [`QueryLedger`]: carries the search's
/// origin tag (to tell memo hits from cross-search shared hits) and its
/// human-readable compilation-pair label (journal self-description).
#[derive(Debug, Clone)]
pub struct LedgerHandle {
    ledger: Arc<QueryLedger>,
    origin: u64,
    pair: String,
}

impl LedgerHandle {
    /// A handle for the search tagged `origin` (must be nonzero — zero
    /// is reserved for journal-replayed answers).
    pub fn new(ledger: Arc<QueryLedger>, origin: u64, pair: impl Into<String>) -> Self {
        assert_ne!(origin, REPLAY_ORIGIN, "origin 0 is reserved for replay");
        LedgerHandle {
            ledger,
            origin,
            pair: pair.into(),
        }
    }

    /// Evaluate a scored query through the ledger.
    pub fn eval_score(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<(f64, f64), TestError>,
    ) -> Result<(f64, f64), TestError> {
        let answer = self
            .ledger
            .eval(self.origin, &self.pair, key, || match compute() {
                Ok((value, seconds)) => StoredAnswer::Score { value, seconds },
                Err(TestError::Crash(m)) => StoredAnswer::Crash(m),
                Err(TestError::Link(m)) => StoredAnswer::Link(m),
            });
        match answer {
            StoredAnswer::Score { value, seconds } => Ok((value, seconds)),
            StoredAnswer::Crash(m) => Err(TestError::Crash(m)),
            StoredAnswer::Link(m) => Err(TestError::Link(m)),
            StoredAnswer::Output { .. } => Err(TestError::Crash(format!(
                "ledger answer type mismatch for key `{key}`"
            ))),
        }
    }

    /// Evaluate a reference (full-output) query through the ledger.
    pub(crate) fn eval_output(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<(Vec<f64>, f64), TestError>,
    ) -> Result<(Vec<f64>, f64), TestError> {
        let answer = self
            .ledger
            .eval(self.origin, &self.pair, key, || match compute() {
                Ok((output, seconds)) => StoredAnswer::Output { output, seconds },
                Err(TestError::Crash(m)) => StoredAnswer::Crash(m),
                Err(TestError::Link(m)) => StoredAnswer::Link(m),
            });
        match answer {
            StoredAnswer::Output { output, seconds } => Ok((output, seconds)),
            StoredAnswer::Crash(m) => Err(TestError::Crash(m)),
            StoredAnswer::Link(m) => Err(TestError::Link(m)),
            StoredAnswer::Score { .. } => Err(TestError::Crash(format!(
                "ledger answer type mismatch for key `{key}`"
            ))),
        }
    }
}

/// Canonical ledger keys for one hierarchical search task.
///
/// The task digest covers everything a query's answer depends on
/// *except* the per-query link recipe: both program fingerprints, the
/// driver and input vector, the baseline compilation, and the link
/// driver. The variable compilation's label enters only through the
/// per-query recipe digests — which is exactly what lets the reference
/// run (an all-baseline link) and the `Test(∅)` query (ditto) be shared
/// across every variable compilation of the same test.
#[derive(Debug, Clone)]
pub struct SearchKeys {
    task: String,
}

impl SearchKeys {
    /// Digest the task-level identity of a hierarchical search.
    pub(crate) fn new(
        baseline_fingerprint: u64,
        variable_fingerprint: u64,
        driver_name: &str,
        input: &[f64],
        baseline_label: &str,
        link_driver: &str,
    ) -> Self {
        let mut h = Fnv128::new();
        h.update_u64(baseline_fingerprint);
        h.update_u64(variable_fingerprint);
        h.update_str(driver_name);
        h.update_u64(input.len() as u64);
        for x in input {
            h.update_u64(x.to_bits());
        }
        h.update_str(baseline_label);
        h.update_str(link_driver);
        SearchKeys { task: h.hex() }
    }

    /// Key of the trusted reference run (variable-independent).
    pub(crate) fn reference(&self) -> String {
        format!("ref/{}", self.task)
    }

    /// Key of a file-level Test query. The recipe digest covers the
    /// canonical item set plus — only when the set is nonempty — the
    /// variable compilation's label: an empty set links pure baseline
    /// objects, so its answer is shared across variable compilations.
    pub(crate) fn file_query(&self, variable_label: &str, items: &[usize]) -> String {
        let mut sorted: Vec<usize> = items.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut h = Fnv128::new();
        h.update_u64(sorted.len() as u64);
        for i in &sorted {
            h.update_u64(*i as u64);
        }
        if !sorted.is_empty() {
            h.update_str(variable_label);
        }
        format!("file/{}/{}", self.task, h.hex())
    }

    /// Key of a `-fPIC` probe of one found file.
    pub(crate) fn probe(&self, variable_label: &str, file_id: usize) -> String {
        let mut h = Fnv128::new();
        h.update_str(variable_label);
        h.update_u64(file_id as u64);
        format!("probe/{}/{}", self.task, h.hex())
    }

    /// Key of a symbol-level Test query within one found file.
    pub(crate) fn symbol_query(
        &self,
        variable_label: &str,
        file_id: usize,
        items: &[String],
    ) -> String {
        let mut sorted: Vec<&String> = items.iter().collect();
        sorted.sort();
        sorted.dedup();
        let mut h = Fnv128::new();
        h.update_str(variable_label);
        h.update_u64(file_id as u64);
        h.update_u64(sorted.len() as u64);
        for s in &sorted {
            h.update_str(s);
        }
        format!("sym/{}/{}", self.task, h.hex())
    }

    /// Key of the performance baseline timing run. Perf keys live under
    /// distinct `perf*/` prefixes (a perf answer is a Welch effect, not
    /// a variability metric, so it must never alias a `ref/`, `file/`,
    /// or `sym/` answer for the same task) and digest the full noise
    /// protocol — sample count, significance level, and noise seed —
    /// because changing any of them changes the answer.
    pub(crate) fn perf_reference(&self, samples: u32, alpha: f64, seed: u64) -> String {
        let h = Self::perf_params(samples, alpha, seed);
        format!("perfref/{}/{}", self.task, h.hex())
    }

    /// Key of a file-level perf Test query (timing of the file-mixed
    /// binary vs the baseline samples). The empty set links pure
    /// baseline objects, so — like [`SearchKeys::file_query`] — it is
    /// shared across variable compilations.
    pub(crate) fn perf_file_query(
        &self,
        variable_label: &str,
        items: &[usize],
        samples: u32,
        alpha: f64,
        seed: u64,
    ) -> String {
        let mut sorted: Vec<usize> = items.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut h = Self::perf_params(samples, alpha, seed);
        h.update_u64(sorted.len() as u64);
        for i in &sorted {
            h.update_u64(*i as u64);
        }
        if !sorted.is_empty() {
            h.update_str(variable_label);
        }
        format!("perffile/{}/{}", self.task, h.hex())
    }

    /// Key of a symbol-level perf Test query within one found file. The
    /// empty set is the `-fPIC`-overhead reference (target file pic'd
    /// under the baseline build), so symbol-level comparisons cancel
    /// the pic speed factor instead of misattributing it.
    pub(crate) fn perf_symbol_query(
        &self,
        variable_label: &str,
        file_id: usize,
        items: &[String],
        samples: u32,
        alpha: f64,
        seed: u64,
    ) -> String {
        let mut sorted: Vec<&String> = items.iter().collect();
        sorted.sort();
        sorted.dedup();
        let mut h = Self::perf_params(samples, alpha, seed);
        h.update_str(variable_label);
        h.update_u64(file_id as u64);
        h.update_u64(sorted.len() as u64);
        for s in &sorted {
            h.update_str(s);
        }
        format!("perfsym/{}/{}", self.task, h.hex())
    }

    fn perf_params(samples: u32, alpha: f64, seed: u64) -> Fnv128 {
        let mut h = Fnv128::new();
        h.update_u64(samples as u64);
        h.update_u64(alpha.to_bits());
        h.update_u64(seed);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> SearchKeys {
        SearchKeys::new(1, 2, "ex1", &[0.5, 1.5], "g++ -O0", "Gcc")
    }

    #[test]
    fn keys_are_canonical_over_item_order() {
        let k = keys();
        assert_eq!(
            k.file_query("icpc -O3", &[3, 1, 2]),
            k.file_query("icpc -O3", &[1, 2, 3, 2])
        );
        assert_ne!(
            k.file_query("icpc -O3", &[1]),
            k.file_query("icpc -O3", &[2])
        );
        // The empty set is variable-independent; nonempty sets are not.
        assert_eq!(k.file_query("icpc -O3", &[]), k.file_query("g++ -O3", &[]));
        assert_ne!(
            k.file_query("icpc -O3", &[1]),
            k.file_query("g++ -O3", &[1])
        );
        let a = vec!["b".to_string(), "a".to_string()];
        let b = vec!["a".to_string(), "b".to_string()];
        assert_eq!(
            k.symbol_query("icpc -O3", 1, &a),
            k.symbol_query("icpc -O3", 1, &b)
        );
        assert_ne!(
            k.symbol_query("icpc -O3", 1, &a),
            k.symbol_query("icpc -O3", 2, &a)
        );
    }

    #[test]
    fn perf_keys_never_alias_variability_keys_and_bind_noise_params() {
        let k = keys();
        // Distinct namespaces for the same logical query.
        assert_ne!(k.perf_reference(8, 0.05, 42), k.reference());
        assert_ne!(
            k.perf_file_query("icpc -O3", &[1, 2], 8, 0.05, 42),
            k.file_query("icpc -O3", &[1, 2])
        );
        assert!(k.perf_reference(8, 0.05, 42).starts_with("perfref/"));
        assert!(k
            .perf_file_query("icpc -O3", &[1], 8, 0.05, 42)
            .starts_with("perffile/"));
        assert!(k
            .perf_symbol_query("icpc -O3", 1, &[], 8, 0.05, 42)
            .starts_with("perfsym/"));
        // Canonical over item order, like the variability keys.
        assert_eq!(
            k.perf_file_query("icpc -O3", &[3, 1, 2], 8, 0.05, 42),
            k.perf_file_query("icpc -O3", &[1, 2, 3, 2], 8, 0.05, 42)
        );
        // Empty file set is variable-independent.
        assert_eq!(
            k.perf_file_query("icpc -O3", &[], 8, 0.05, 42),
            k.perf_file_query("g++ -O3", &[], 8, 0.05, 42)
        );
        // Every noise-protocol parameter changes the key.
        let base = k.perf_file_query("icpc -O3", &[1], 8, 0.05, 42);
        assert_ne!(base, k.perf_file_query("icpc -O3", &[1], 16, 0.05, 42));
        assert_ne!(base, k.perf_file_query("icpc -O3", &[1], 8, 0.01, 42));
        assert_ne!(base, k.perf_file_query("icpc -O3", &[1], 8, 0.05, 43));
    }

    #[test]
    fn shared_hits_are_distinguished_from_memo_hits() {
        let trace = TraceSink::enabled();
        let ledger = QueryLedger::new(11, &trace);
        let one = LedgerHandle::new(ledger.clone(), 1, "t/one");
        let two = LedgerHandle::new(ledger.clone(), 2, "t/two");
        let k = keys().file_query("icpc -O3", &[1, 2]);
        assert_eq!(one.eval_score(&k, || Ok((2.5, 0.5))).unwrap(), (2.5, 0.5));
        // Same origin again: a memo hit.
        assert_eq!(
            one.eval_score(&k, || panic!("must not recompute")).unwrap(),
            (2.5, 0.5)
        );
        // Different origin: a shared hit.
        assert_eq!(
            two.eval_score(&k, || panic!("must not recompute")).unwrap(),
            (2.5, 0.5)
        );
        let stats = ledger.stats();
        assert_eq!(
            (stats.executed, stats.memoized, stats.shared_hits),
            (1, 1, 1)
        );
        let snap = trace.snapshot();
        assert_eq!(snap.counter(counter_names::EXEC_QUERIES_EXECUTED), 1);
        assert_eq!(snap.counter(counter_names::EXEC_QUERIES_SHARED_HITS), 1);
    }

    #[test]
    fn upstream_chaining_counts_cross_tenant_dedup_at_the_fleet_ledger() {
        let fleet_trace = TraceSink::enabled();
        let fleet = QueryLedger::new(11, &fleet_trace);
        let tenant = |origin: u64| {
            let child = QueryLedger::new(11, &TraceSink::disabled());
            child.set_upstream(fleet.clone(), origin);
            LedgerHandle::new(child, 1, "t/pair")
        };
        let (alpha, beta) = (tenant(1), tenant(2));
        let k = keys().file_query("icpc -O3", &[1, 2]);

        // Tenant alpha computes; tenant beta's identical query is a
        // fleet shared hit and never recomputes.
        assert_eq!(alpha.eval_score(&k, || Ok((2.5, 0.5))).unwrap(), (2.5, 0.5));
        assert_eq!(
            beta.eval_score(&k, || panic!("deduped fleet-wide"))
                .unwrap(),
            (2.5, 0.5)
        );
        // Intra-tenant repeat: absorbed by the child memo, invisible to
        // the fleet.
        assert_eq!(
            alpha.eval_score(&k, || panic!("child memo hit")).unwrap(),
            (2.5, 0.5)
        );
        let stats = fleet.stats();
        assert_eq!(
            (stats.executed, stats.memoized, stats.shared_hits),
            (1, 0, 1),
            "fleet shared_hits must count exactly the cross-tenant dedup"
        );
        assert_eq!(
            fleet_trace
                .snapshot()
                .counter(counter_names::EXEC_QUERIES_SHARED_HITS),
            1
        );
    }

    #[test]
    fn tenant_journal_is_complete_even_for_fleet_served_answers() {
        let dir = std::env::temp_dir().join(format!(
            "flit-ledger-upstream-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = TraceSink::disabled();
        let fleet = QueryLedger::new(11, &trace);
        let k = keys().file_query("icpc -O3", &[1]);

        // Another tenant computed the answer first.
        LedgerHandle::new(
            {
                let first = QueryLedger::new(11, &trace);
                first.set_upstream(fleet.clone(), 1);
                first
            },
            1,
            "t/first",
        )
        .eval_score(&k, || Ok((4.0, 0.25)))
        .unwrap();

        // This tenant journals the answer it was *served*, so a
        // restart replays it without touching the fleet.
        let path = dir.join("tenant.jsonl");
        let child = QueryLedger::new(11, &trace);
        child.set_upstream(fleet.clone(), 2);
        child.attach_journal(JournalWriter::create(&path, 11).unwrap());
        LedgerHandle::new(child.clone(), 1, "t/second")
            .eval_score(&k, || panic!("fleet-served"))
            .unwrap();
        assert_eq!(child.stats().appended, 1);

        let fleet_before = fleet.stats();
        let resumed = QueryLedger::new(11, &trace);
        resumed.set_upstream(fleet.clone(), 2);
        let (_, records) = JournalWriter::resume(&path, 11).unwrap();
        resumed.preload(&records);
        assert_eq!(
            LedgerHandle::new(resumed, 1, "t/second")
                .eval_score(&k, || panic!("must replay"))
                .unwrap(),
            (4.0, 0.25)
        );
        assert_eq!(
            fleet.stats(),
            fleet_before,
            "journal replay must not re-query the fleet"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_cached_and_replayed() {
        let trace = TraceSink::disabled();
        let ledger = QueryLedger::new(11, &trace);
        let h = LedgerHandle::new(ledger, 1, "t");
        let k = "file/x/err".to_string();
        let err = h
            .eval_score(&k, || Err(TestError::Link("no such symbol".into())))
            .unwrap_err();
        assert_eq!(err, TestError::Link("no such symbol".into()));
        let again = h.eval_score(&k, || panic!("cached")).unwrap_err();
        assert_eq!(again, err);
    }

    #[test]
    fn preloaded_answers_serve_without_computing() {
        let trace = TraceSink::enabled();
        let ledger = QueryLedger::new(11, &trace);
        let rec = JournalRecord {
            seq: 0,
            version: crate::journal::JOURNAL_VERSION,
            fingerprint: 11,
            pair: "t/one".into(),
            key: "ref/task0".into(),
            backend: crate::journal::BACKEND_LOCAL.into(),
            answer: JournalAnswer::Output {
                output_bits: vec![1.5f64.to_bits()],
                seconds_bits: 0.25f64.to_bits(),
            },
        };
        ledger.preload(&[rec]);
        let h = LedgerHandle::new(ledger.clone(), 1, "t/one");
        let (out, secs) = h
            .eval_output("ref/task0", || panic!("must replay, not run"))
            .unwrap();
        assert_eq!(out, vec![1.5]);
        assert_eq!(secs, 0.25);
        let stats = ledger.stats();
        assert_eq!(stats.executed, 0);
        assert_eq!(stats.replayed, 1);
        assert_eq!(stats.replay_served, 1);
        assert_eq!(trace.snapshot().counter(counter_names::JOURNAL_REPLAYED), 1);
    }

    #[test]
    fn computed_answers_are_journaled() {
        let dir = std::env::temp_dir().join(format!(
            "flit-ledger-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let trace = TraceSink::disabled();
        let ledger = QueryLedger::new(11, &trace);
        ledger.attach_journal(JournalWriter::create(&path, 11).unwrap());
        let h = LedgerHandle::new(ledger.clone(), 1, "t/one");
        h.eval_score("file/x/a", || Ok((1.0, 2.0))).unwrap();
        h.eval_score("file/x/a", || panic!("cached")).unwrap(); // hit: not re-journaled
        h.eval_score("file/x/b", || Err(TestError::Crash("segv".into())))
            .unwrap_err();
        assert_eq!(ledger.stats().appended, 2);
        assert!(ledger.journal_error().is_none());

        // A fresh ledger resumed from that journal replays both answers
        // and computes nothing.
        let resumed = QueryLedger::new(11, &trace);
        let (writer, records) = JournalWriter::resume(&path, 11).unwrap();
        resumed.preload(&records);
        resumed.attach_journal(writer);
        let h2 = LedgerHandle::new(resumed.clone(), 1, "t/one");
        assert_eq!(h2.eval_score("file/x/a", || panic!()).unwrap(), (1.0, 2.0));
        assert_eq!(
            h2.eval_score("file/x/b", || panic!()).unwrap_err(),
            TestError::Crash("segv".into())
        );
        assert_eq!(resumed.stats().executed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
