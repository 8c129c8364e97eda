//! Canonical phase and counter names.
//!
//! Every subsystem records under a fixed name so that traces from
//! different runs (and the `flit trace` renderer) agree on vocabulary.

/// Span phases.
pub mod phase {
    /// Matrix-sweep spans: one per compilation, plus the baseline pass.
    pub const SWEEP: &str = "sweep";
    /// File-level bisection spans (one per hierarchical search).
    pub const BISECT_FILE: &str = "bisect.file";
    /// Symbol-level bisection spans (one per searched file).
    pub const BISECT_SYMBOL: &str = "bisect.symbol";
    /// Workflow-driver spans (Figure 1's numbered stages).
    pub const WORKFLOW: &str = "workflow";
    /// Backend scheduling waves: one span per frontier wave dispatched
    /// by the bisect wave driver (cost = wave width in queries).
    pub const EXEC_WAVE: &str = "exec.wave";
    /// Canonical per-query spans of a planner-driven search, emitted in
    /// serial consumption order (cost = item-set size, duration =
    /// simulated seconds) — byte-identical at any `--jobs` value.
    pub const EXEC_QUERY: &str = "exec.query";
    /// Fuzz-campaign spans: one per checked seed (cost = program
    /// executions the seed's serial search spent).
    pub const FUZZ: &str = "fuzz";
    /// File-level performance-bisect spans (one per perf search).
    pub const PERF_FILE: &str = "perf.file";
    /// Symbol-level performance-bisect spans (one per searched file).
    pub const PERF_SYMBOL: &str = "perf.symbol";
    /// `flit-serve` daemon spans: one per completed workflow submission
    /// (cost = 1, duration = the job's simulated seconds).
    pub const SERVE: &str = "serve";
}

/// Counter names.
pub mod counter {
    /// Object files actually produced by the simulated compiler.
    pub const BUILD_OBJECTS_COMPILED: &str = "build.objects_compiled";
    /// Object requests served from the cache.
    pub const BUILD_OBJECT_CACHE_HITS: &str = "build.object_cache_hits";
    /// Link steps actually performed.
    pub const BUILD_LINKS: &str = "build.links";
    /// Executable requests served from the link memo.
    pub const BUILD_LINK_MEMO_HITS: &str = "build.link_memo_hits";

    /// Compilations claimed from the runner's work queue.
    pub const RUNNER_QUEUE_CLAIMED: &str = "runner.queue.claimed";
    /// Terminal queue pulls that found the queue empty (one per worker).
    pub const RUNNER_QUEUE_DRAINED: &str = "runner.queue.drained";

    /// Reference (trusted-baseline) executions of hierarchical searches.
    pub const BISECT_REFERENCE_RUNS: &str = "bisect.executions.reference";
    /// File-level Test-function executions (Table 2's File Bisect runs).
    pub const BISECT_FILE_RUNS: &str = "bisect.executions.file";
    /// `-fPIC` probe executions.
    pub const BISECT_PROBE_RUNS: &str = "bisect.executions.probe";
    /// Symbol-level Test-function executions (Table 2's Symbol Bisect
    /// runs).
    pub const BISECT_SYMBOL_RUNS: &str = "bisect.executions.symbol";

    /// Jobs submitted to a `flit-exec` executor.
    pub const EXEC_JOBS_SUBMITTED: &str = "exec.jobs.submitted";
    /// Jobs that ran to completion on an executor worker.
    pub const EXEC_JOBS_COMPLETED: &str = "exec.jobs.completed";
    /// Jobs whose closure panicked (captured, not process-aborting).
    pub const EXEC_JOBS_PANICKED: &str = "exec.jobs.panicked";
    /// Frontier waves dispatched by the parallel bisect drivers.
    pub const EXEC_WAVES: &str = "exec.waves";
    /// Oracle queries actually evaluated (single-flight memo misses).
    pub const EXEC_QUERIES_EXECUTED: &str = "exec.queries.executed";
    /// Oracle queries served from the shared memo.
    pub const EXEC_QUERIES_MEMOIZED: &str = "exec.queries.memoized";
    /// Ledger queries answered by a *different* search's earlier
    /// execution (workflow-wide cross-search deduplication).
    pub const EXEC_QUERIES_SHARED_HITS: &str = "exec.queries.shared_hits";

    /// Query envelopes dispatched to a remote execution backend.
    pub const EXEC_BACKEND_DISPATCHED: &str = "exec.backend.dispatched";
    /// Worker subprocesses spawned by the process backend.
    pub const EXEC_BACKEND_WORKER_SPAWNS: &str = "exec.backend.worker_spawns";
    /// Worker subprocesses that died mid-exchange and were retired.
    pub const EXEC_BACKEND_WORKER_DEATHS: &str = "exec.backend.worker_deaths";
    /// In-flight queries requeued after a worker death.
    pub const EXEC_BACKEND_REQUEUED: &str = "exec.backend.requeued";

    /// Checkpoint-journal records replayed into the ledger on resume.
    pub const JOURNAL_REPLAYED: &str = "journal.records.replayed";
    /// Checkpoint-journal records appended during this run.
    pub const JOURNAL_APPENDED: &str = "journal.records.appended";

    /// Speculative planner queries a seeded search skipped because
    /// every item was certified `Invariant` (prioritization, not
    /// pruning — found sets are unaffected).
    pub const LINT_SPECULATION_SKIPPED: &str = "lint.speculation.skipped";

    /// Items certified `Invariant` by the abstract interpreter.
    pub const ABSINT_CERTIFIED_INVARIANT: &str = "absint.certified.invariant";
    /// Items certified `Bounded(ε)` by the abstract interpreter.
    pub const ABSINT_CERTIFIED_BOUNDED: &str = "absint.certified.bounded";
    /// Items the abstract interpreter could not certify (`Unknown`).
    pub const ABSINT_CERTIFIED_UNKNOWN: &str = "absint.certified.unknown";
    /// Files excluded from the search space by a certified prune
    /// (`flit bisect --prune certified`, `flit workflow --lint prune`).
    pub const ABSINT_PRUNED_FILES: &str = "absint.pruned.files";
    /// Symbols excluded from the search space by a certified prune.
    pub const ABSINT_PRUNED_SYMBOLS: &str = "absint.pruned.symbols";
    /// Residual audits run by a certified prune: one per pruned level,
    /// each comparing `Test(all)` with `Test(kept)`.
    pub const ABSINT_PRUNE_AUDITS: &str = "absint.prune.audits";

    /// Hierarchical searches launched by the workflow driver.
    pub const WORKFLOW_BISECTIONS: &str = "workflow.bisections";
    /// Variable (test, compilation) rows found by the workflow sweep.
    pub const WORKFLOW_VARIABLE_ROWS: &str = "workflow.variable_rows";

    /// Trusted baseline timing runs of performance-bisect searches.
    pub const PERF_REFERENCE_RUNS: &str = "perf.executions.reference";
    /// File-level perf Test executions (timed file-mixed binaries).
    pub const PERF_FILE_RUNS: &str = "perf.executions.file";
    /// Symbol-level perf Test executions (timed symbol-mixed binaries).
    pub const PERF_SYMBOL_RUNS: &str = "perf.executions.symbol";
    /// Timing samples drawn from the seeded noise model.
    pub const PERF_SAMPLES_DRAWN: &str = "perf.samples.drawn";
    /// Welch verdicts concluding the candidate is faster.
    pub const PERF_VERDICTS_FASTER: &str = "perf.verdicts.faster";
    /// Welch verdicts concluding the candidate is slower.
    pub const PERF_VERDICTS_SLOWER: &str = "perf.verdicts.slower";
    /// Welch verdicts unable to separate the pair at the chosen α.
    pub const PERF_VERDICTS_INCONCLUSIVE: &str = "perf.verdicts.inconclusive";

    /// Seeds the fuzz campaign checked.
    pub const FUZZ_SEEDS_RUN: &str = "fuzz.seeds.run";
    /// Seeds on which every oracle layer agreed with the planted truth.
    pub const FUZZ_SEEDS_PASSED: &str = "fuzz.seeds.passed";
    /// Seeds whose search crashed on a planted ABI hazard (explained —
    /// the Table-2 outcome, counted separately from passes).
    pub const FUZZ_CRASHES_EXPLAINED: &str = "fuzz.crashes.explained";
    /// Oracle divergences (ground truth violated) found by the campaign.
    pub const FUZZ_DIVERGENCES: &str = "fuzz.divergences";
    /// Seeds that additionally ran the kill-and-resume oracle layer.
    pub const FUZZ_RESUME_CHECKS: &str = "fuzz.resume.checks";
    /// Seeds that additionally ran the certified-bound soundness layer
    /// (observed divergence vs `flit-absint` certificates).
    pub const FUZZ_BOUND_CHECKS: &str = "fuzz.bound.checks";
    /// Accepted delta-debugging shrink steps across all divergences.
    pub const FUZZ_SHRINK_STEPS: &str = "fuzz.shrink.steps";

    /// Workflow submissions accepted by the `flit-serve` daemon.
    pub const SERVE_SUBMISSIONS: &str = "serve.submissions";
    /// Submissions that ran to completion (success or structured
    /// workflow error — everything that produced a response).
    pub const SERVE_COMPLETED: &str = "serve.completed";
    /// Submissions refused by admission control (queue at capacity or
    /// daemon draining).
    pub const SERVE_REJECTED: &str = "serve.rejected";
    /// Distinct tenant ids seen since the daemon started.
    pub const SERVE_TENANTS: &str = "serve.tenants";
    /// Status endpoint requests served.
    pub const SERVE_STATUS_REQUESTS: &str = "serve.status.requests";
}
