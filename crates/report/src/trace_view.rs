//! Rendering for `flit-trace` traces: the `flit trace <file>` view.
//!
//! Every exhibit derives from a canonically-ordered [`Trace`]: a
//! per-phase span summary, the top-N slowest sweep compilations, the
//! bisect execution counts per level (the paper's Tables 2/4 "number
//! of runs"), the searches' frontier-width histogram, the build-cache
//! hit rates, and one counter table per layer that ran (certified
//! bounds, query ledger, perf bisect, process backend, fleet, fuzz).

use flit_trace::event::Trace;
use flit_trace::names::{counter, phase};

use crate::table::{fmt_f64, Align, Table};

/// Per-phase span rollup: count, total logical cost, total wall-unit
/// duration.
pub(crate) fn phase_summary(trace: &Trace) -> Table {
    let mut t = Table::new(&["phase", "spans", "cost", "wall units"])
        .with_title("Trace summary by phase")
        .with_aligns(&[Align::Left, Align::Right, Align::Right, Align::Right]);
    for p in trace.phases() {
        let spans = trace.spans_in(&p);
        let cost: u64 = spans.iter().map(|s| s.cost).sum();
        let duration: f64 = spans.iter().map(|s| s.duration).sum();
        t.row(&[
            p,
            spans.len().to_string(),
            cost.to_string(),
            fmt_f64(duration, 4),
        ]);
    }
    t
}

/// The `top` slowest sweep compilations by wall-unit duration.
pub(crate) fn slowest_compilations(trace: &Trace, top: usize) -> Table {
    let mut t = Table::new(&["compilation", "records", "wall units"])
        .with_title(format!("Slowest sweep compilations (top {top})"))
        .with_aligns(&[Align::Left, Align::Right, Align::Right]);
    for s in trace.slowest(phase::SWEEP, top) {
        t.row(&[s.label.clone(), s.cost.to_string(), fmt_f64(s.duration, 4)]);
    }
    t
}

/// Bisect executions per level: reference runs, file-level Test runs,
/// `-fPIC` probes, symbol-level Test runs, and the total.
pub(crate) fn bisect_executions(trace: &Trace) -> Table {
    let mut t = Table::new(&["level", "executions"])
        .with_title("Bisect executions by level")
        .with_aligns(&[Align::Left, Align::Right]);
    let levels = [
        ("reference", counter::BISECT_REFERENCE_RUNS),
        ("file bisect", counter::BISECT_FILE_RUNS),
        ("fPIC probe", counter::BISECT_PROBE_RUNS),
        ("symbol bisect", counter::BISECT_SYMBOL_RUNS),
    ];
    let mut total = 0u64;
    for (name, key) in levels {
        let v = trace.counter(key);
        total += v;
        t.row(&[name.to_string(), v.to_string()]);
    }
    t.row(&["total".to_string(), total.to_string()]);
    t
}

/// Frontier widths of the planner-driven searches: one row per observed
/// `exec.wave` width (ascending), with how many waves dispatched that
/// many Test queries, the queries they carried, and a bar scaled to the
/// busiest width. A serial search is a single width-1 row; wider
/// backends spread waves to the right. Empty when the trace holds no
/// waves.
pub(crate) fn frontier_widths(trace: &Trace) -> Table {
    let mut t = Table::new(&["width", "waves", "queries", ""])
        .with_title("Bisect frontier width histogram")
        .with_aligns(&[Align::Right, Align::Right, Align::Right, Align::Left]);
    let mut waves_by_width: std::collections::BTreeMap<u64, u64> = Default::default();
    for s in trace.spans_in(phase::EXEC_WAVE) {
        *waves_by_width.entry(s.cost).or_default() += 1;
    }
    let busiest = waves_by_width.values().copied().max().unwrap_or(1);
    for (width, waves) in waves_by_width {
        t.row(&[
            width.to_string(),
            waves.to_string(),
            (width * waves).to_string(),
            "#".repeat((waves * 48).div_ceil(busiest) as usize),
        ]);
    }
    t
}

/// Build-cache effectiveness: requests, hits and hit rate for the
/// object cache and the link memo.
pub(crate) fn cache_hit_rates(trace: &Trace) -> Table {
    let mut t = Table::new(&["layer", "requests", "hits", "hit rate"])
        .with_title("Build-cache hit rates")
        .with_aligns(&[Align::Left, Align::Right, Align::Right, Align::Right]);
    let compiled = trace.counter(counter::BUILD_OBJECTS_COMPILED);
    let obj_hits = trace.counter(counter::BUILD_OBJECT_CACHE_HITS);
    let links = trace.counter(counter::BUILD_LINKS);
    let memo_hits = trace.counter(counter::BUILD_LINK_MEMO_HITS);
    let rate = |hits: u64, total: u64| -> String {
        if total == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * hits as f64 / total as f64)
        }
    };
    t.row(&[
        "objects".to_string(),
        (compiled + obj_hits).to_string(),
        obj_hits.to_string(),
        rate(obj_hits, compiled + obj_hits),
    ]);
    t.row(&[
        "links".to_string(),
        (links + memo_hits).to_string(),
        memo_hits.to_string(),
        rate(memo_hits, links + memo_hits),
    ]);
    t
}

/// An activity-gated "counter | value" section: it renders only when
/// its `gate` counters sum above zero (an empty `gate` means every
/// row's counter), because an all-zero table would read as "the layer
/// ran and did nothing".
struct CounterTable {
    title: &'static str,
    gate: &'static [&'static str],
    rows: &'static [(&'static str, &'static str)],
}

/// The counter sections, in report order.
const COUNTER_TABLES: [CounterTable; 6] = [
    // Certified bounds (`flit-absint`): items certified per kind, the
    // speculation a seeded search skipped, and what a pruning search
    // did with the certificates; present when a certification ran.
    CounterTable {
        title: "Certified bounds (absint)",
        gate: &[],
        rows: &[
            ("certified invariant", counter::ABSINT_CERTIFIED_INVARIANT),
            ("certified bounded", counter::ABSINT_CERTIFIED_BOUNDED),
            ("certified unknown", counter::ABSINT_CERTIFIED_UNKNOWN),
            ("files pruned", counter::ABSINT_PRUNED_FILES),
            ("symbols pruned", counter::ABSINT_PRUNED_SYMBOLS),
            ("residual audits", counter::ABSINT_PRUNE_AUDITS),
            ("speculations skipped", counter::LINT_SPECULATION_SKIPPED),
        ],
    },
    // The workflow-wide query ledger: Test queries executed, served
    // from the per-search memo, deduplicated across sibling searches
    // (`shared_hits`), and the checkpoint journal's replay/append
    // volume. A plain search records no shared hits and no journal.
    CounterTable {
        title: "Resume & dedup (query ledger)",
        gate: &[
            counter::EXEC_QUERIES_SHARED_HITS,
            counter::JOURNAL_REPLAYED,
            counter::JOURNAL_APPENDED,
        ],
        rows: &[
            ("queries executed", counter::EXEC_QUERIES_EXECUTED),
            ("memo hits", counter::EXEC_QUERIES_MEMOIZED),
            (
                "cross-search shared hits",
                counter::EXEC_QUERIES_SHARED_HITS,
            ),
            ("journal records replayed", counter::JOURNAL_REPLAYED),
            ("journal records appended", counter::JOURNAL_APPENDED),
        ],
    },
    // Performance bisect: timed executions per level, samples drawn
    // from the seeded noise model, and the Welch verdict split of every
    // statistical claim.
    CounterTable {
        title: "Performance bisect",
        gate: &[counter::PERF_REFERENCE_RUNS],
        rows: &[
            ("reference timings", counter::PERF_REFERENCE_RUNS),
            ("file-level timings", counter::PERF_FILE_RUNS),
            ("symbol-level timings", counter::PERF_SYMBOL_RUNS),
            ("samples drawn", counter::PERF_SAMPLES_DRAWN),
            ("verdicts: faster", counter::PERF_VERDICTS_FASTER),
            ("verdicts: slower", counter::PERF_VERDICTS_SLOWER),
            (
                "verdicts: inconclusive",
                counter::PERF_VERDICTS_INCONCLUSIVE,
            ),
        ],
    },
    // The process backend: query envelopes dispatched to workers,
    // worker churn, and in-flight queries requeued after a death. The
    // threads backend dispatches none.
    CounterTable {
        title: "Distributed execution",
        gate: &[counter::EXEC_BACKEND_DISPATCHED],
        rows: &[
            ("queries dispatched", counter::EXEC_BACKEND_DISPATCHED),
            ("worker spawns", counter::EXEC_BACKEND_WORKER_SPAWNS),
            ("worker deaths", counter::EXEC_BACKEND_WORKER_DEATHS),
            ("queries requeued", counter::EXEC_BACKEND_REQUEUED),
        ],
    },
    // The `flit-serve` daemon: submission volume, tenants, and the
    // fleet-wide dedup multi-tenant single-flight buys
    // (`exec.queries.shared_hits` on the daemon's sink counts exactly
    // the cross-tenant hits: every tenant evaluates through the fleet
    // ledger under its own origin).
    CounterTable {
        title: "Fleet (flit-serve)",
        gate: &[counter::SERVE_SUBMISSIONS],
        rows: &[
            ("submissions accepted", counter::SERVE_SUBMISSIONS),
            ("submissions completed", counter::SERVE_COMPLETED),
            ("submissions rejected", counter::SERVE_REJECTED),
            ("tenants", counter::SERVE_TENANTS),
            ("status requests", counter::SERVE_STATUS_REQUESTS),
            ("fleet queries executed", counter::EXEC_QUERIES_EXECUTED),
            (
                "cross-tenant shared hits",
                counter::EXEC_QUERIES_SHARED_HITS,
            ),
        ],
    },
    // A fuzz campaign: seeds checked, pass/divergence split, explained
    // ABI-hazard crashes, resume checks, and shrink effort.
    CounterTable {
        title: "Fuzz campaign",
        gate: &[counter::FUZZ_SEEDS_RUN],
        rows: &[
            ("seeds run", counter::FUZZ_SEEDS_RUN),
            ("seeds passed", counter::FUZZ_SEEDS_PASSED),
            ("explained crashes", counter::FUZZ_CRASHES_EXPLAINED),
            ("divergences", counter::FUZZ_DIVERGENCES),
            ("resume checks", counter::FUZZ_RESUME_CHECKS),
            ("shrink steps", counter::FUZZ_SHRINK_STEPS),
        ],
    },
];

/// One counter section (empty when its gate counters are all zero).
fn counter_table(trace: &Trace, spec: &CounterTable) -> Table {
    let mut t = Table::new(&["counter", "value"])
        .with_title(spec.title)
        .with_aligns(&[Align::Left, Align::Right]);
    let gate: Vec<&str> = match spec.gate {
        [] => spec.rows.iter().map(|(_, key)| *key).collect(),
        keys => keys.to_vec(),
    };
    if gate.iter().map(|key| trace.counter(key)).sum::<u64>() == 0 {
        return t;
    }
    for (name, key) in spec.rows {
        t.row(&[(*name).to_string(), trace.counter(key).to_string()]);
    }
    t
}

/// The full `flit trace` report: all exhibits, separated by blank
/// lines. The phase, slowest-compilation, bisect-execution and cache
/// sections always render, with their headers, so the output shape is
/// stable; the frontier histogram and the counter sections appear only
/// with data.
pub fn render_trace(trace: &Trace, top: usize) -> String {
    // (section, rendered even when empty)
    let exhibits = [
        (phase_summary(trace), true),
        (slowest_compilations(trace, top), true),
        (bisect_executions(trace), true),
        (frontier_widths(trace), false),
        (cache_hit_rates(trace), true),
    ];
    let counters = COUNTER_TABLES
        .iter()
        .map(|spec| (counter_table(trace, spec), false));
    exhibits
        .into_iter()
        .chain(counters)
        .filter(|(t, always)| *always || !t.is_empty())
        .map(|(t, _)| t.render())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_trace::event::Span;
    use std::collections::BTreeMap;

    fn sample_trace() -> Trace {
        let spans = vec![
            Span {
                phase: phase::SWEEP.into(),
                label: "g++ -O2".into(),
                cost: 2,
                duration: 1.5,
            },
            Span {
                phase: phase::SWEEP.into(),
                label: "g++ -O3".into(),
                cost: 2,
                duration: 0.5,
            },
            Span {
                phase: phase::BISECT_FILE.into(),
                label: "ex1/g++ -O3 -funsafe-math-optimizations".into(),
                cost: 9,
                duration: 4.0,
            },
            Span {
                phase: phase::EXEC_WAVE.into(),
                label: "ex1/file/wave-0000".into(),
                cost: 4,
                duration: 0.0,
            },
            Span {
                phase: phase::EXEC_WAVE.into(),
                label: "ex1/file/wave-0001".into(),
                cost: 2,
                duration: 0.0,
            },
        ];
        let counters: BTreeMap<String, u64> = [
            (counter::BISECT_REFERENCE_RUNS.to_string(), 1),
            (counter::BISECT_FILE_RUNS.to_string(), 9),
            (counter::BISECT_PROBE_RUNS.to_string(), 1),
            (counter::BISECT_SYMBOL_RUNS.to_string(), 6),
            (counter::BUILD_OBJECTS_COMPILED.to_string(), 10),
            (counter::BUILD_OBJECT_CACHE_HITS.to_string(), 30),
            (counter::BUILD_LINKS.to_string(), 8),
            (counter::BUILD_LINK_MEMO_HITS.to_string(), 2),
        ]
        .into_iter()
        .collect();
        Trace::from_parts(spans, counters)
    }

    #[test]
    fn phase_summary_rolls_up_per_phase() {
        let t = phase_summary(&sample_trace()).render();
        assert!(t.contains("sweep"), "{t}");
        assert!(t.contains("bisect.file"), "{t}");
        // Sweep totals: 2 spans, cost 4, 2.0 wall units.
        let sweep_line = t.lines().find(|l| l.contains("sweep")).unwrap();
        assert!(sweep_line.contains('4'), "{sweep_line}");
    }

    #[test]
    fn slowest_ranks_and_truncates() {
        let t = slowest_compilations(&sample_trace(), 1);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("g++ -O2"));
    }

    #[test]
    fn bisect_executions_totals_match() {
        let t = bisect_executions(&sample_trace()).render();
        let total_line = t.lines().find(|l| l.contains("total")).unwrap();
        assert!(total_line.contains("17"), "{total_line}");
    }

    #[test]
    fn hit_rates_divide_hits_by_requests() {
        let t = cache_hit_rates(&sample_trace()).render();
        assert!(t.contains("75.0%"), "{t}"); // 30 of 40 object requests
        assert!(t.contains("20.0%"), "{t}"); // 2 of 10 link requests
    }

    /// The first three cells (width, waves, queries) of each data row
    /// of a rendered frontier table.
    fn histogram_rows(t: &Table) -> Vec<Vec<String>> {
        t.render()
            .lines()
            .filter(|l| l.starts_with('|'))
            .skip(1)
            .map(|l| {
                l.split('|')
                    .skip(1)
                    .take(3)
                    .map(|c| c.trim().to_string())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn frontier_widths_histogram_rows_per_width() {
        let t = frontier_widths(&sample_trace());
        // Widths ascend; each width saw one wave.
        assert_eq!(
            histogram_rows(&t),
            [["2", "1", "2"], ["4", "1", "4"]],
            "{}",
            t.render()
        );
        assert!(t.render().contains("####"));
    }

    #[test]
    fn width_1_trace_is_a_single_histogram_row() {
        let spans = (0..1200)
            .map(|i| Span {
                phase: phase::EXEC_WAVE.into(),
                label: format!("ex13/file/wave-{i:04}"),
                cost: 1,
                duration: 0.0,
            })
            .collect();
        let trace = Trace::from_parts(spans, BTreeMap::new());
        let t = frontier_widths(&trace);
        assert_eq!(
            histogram_rows(&t),
            [["1", "1200", "1200"]],
            "{}",
            t.render()
        );
        assert!(render_trace(&trace, 5).contains("frontier width histogram"));
    }

    #[test]
    fn trace_without_waves_omits_the_frontier_section() {
        assert!(frontier_widths(&Trace::default()).is_empty());
        let out = render_trace(&Trace::default(), 5);
        assert!(!out.contains("frontier width"), "{out}");
    }

    #[test]
    fn empty_trace_renders_all_sections() {
        let out = render_trace(&Trace::default(), 5);
        assert!(out.contains("Trace summary by phase"));
        assert!(out.contains("Bisect executions by level"));
        assert!(out.contains("Build-cache hit rates"));
        // Zero-request layers report "-", not a division by zero.
        assert!(out.contains('-'));
        // No certification pass → no certified-bounds section.
        assert!(!out.contains("Certified bounds"));
        // No ledger activity → no resume/dedup section.
        assert!(!out.contains("Resume & dedup"));
    }

    #[test]
    fn fleet_section_appears_only_when_a_daemon_accepted_submissions() {
        let counters: BTreeMap<String, u64> = [
            (counter::SERVE_SUBMISSIONS.to_string(), 6),
            (counter::SERVE_COMPLETED.to_string(), 5),
            (counter::SERVE_REJECTED.to_string(), 1),
            (counter::SERVE_TENANTS.to_string(), 3),
            (counter::SERVE_STATUS_REQUESTS.to_string(), 2),
            (counter::EXEC_QUERIES_EXECUTED.to_string(), 40),
            (counter::EXEC_QUERIES_SHARED_HITS.to_string(), 25),
        ]
        .into_iter()
        .collect();
        let out = render_trace(&Trace::from_parts(vec![], counters), 5);
        assert!(out.contains("Fleet (flit-serve)"), "{out}");
        let line = |name: &str| out.lines().find(|l| l.contains(name)).unwrap().to_string();
        assert!(line("submissions accepted").contains('6'));
        assert!(line("tenants").contains('3'));
        assert!(line("cross-tenant shared hits").contains("25"));
        // A serial run with ledger activity but no daemon must not
        // surface the Fleet table.
        assert!(!render_trace(&sample_trace(), 5).contains("Fleet (flit-serve)"));
    }

    #[test]
    fn resume_dedup_section_appears_only_with_ledger_activity() {
        let counters: BTreeMap<String, u64> = [
            (counter::EXEC_QUERIES_EXECUTED.to_string(), 40),
            (counter::EXEC_QUERIES_MEMOIZED.to_string(), 12),
            (counter::EXEC_QUERIES_SHARED_HITS.to_string(), 5),
            (counter::JOURNAL_REPLAYED.to_string(), 33),
            (counter::JOURNAL_APPENDED.to_string(), 7),
        ]
        .into_iter()
        .collect();
        let trace = Trace::from_parts(vec![], counters);
        let out = render_trace(&trace, 5);
        assert!(out.contains("Resume & dedup (query ledger)"), "{out}");
        let line = |name: &str| out.lines().find(|l| l.contains(name)).unwrap().to_string();
        assert!(line("queries executed").contains("40"));
        assert!(line("cross-search shared hits").contains('5'));
        assert!(line("journal records replayed").contains("33"));
        // An ordinary shared-oracle run (memo counters only, no ledger)
        // must NOT surface the section.
        let plain: BTreeMap<String, u64> = [
            (counter::EXEC_QUERIES_EXECUTED.to_string(), 9),
            (counter::EXEC_QUERIES_MEMOIZED.to_string(), 3),
        ]
        .into_iter()
        .collect();
        let out = render_trace(&Trace::from_parts(vec![], plain), 5);
        assert!(!out.contains("Resume & dedup"), "{out}");
    }

    #[test]
    fn fuzz_section_appears_only_after_a_campaign() {
        let counters: BTreeMap<String, u64> = [
            (counter::FUZZ_SEEDS_RUN.to_string(), 1000),
            (counter::FUZZ_SEEDS_PASSED.to_string(), 998),
            (counter::FUZZ_CRASHES_EXPLAINED.to_string(), 14),
            (counter::FUZZ_DIVERGENCES.to_string(), 2),
            (counter::FUZZ_RESUME_CHECKS.to_string(), 63),
            (counter::FUZZ_SHRINK_STEPS.to_string(), 11),
        ]
        .into_iter()
        .collect();
        let out = render_trace(&Trace::from_parts(vec![], counters), 5);
        assert!(out.contains("Fuzz campaign"), "{out}");
        let line = |name: &str| out.lines().find(|l| l.contains(name)).unwrap().to_string();
        assert!(line("seeds run").contains("1000"));
        assert!(line("divergences").contains('2'));
        assert!(line("shrink steps").contains("11"));
        // No campaign → no section.
        let out = render_trace(&Trace::from_parts(vec![], BTreeMap::new()), 5);
        assert!(!out.contains("Fuzz campaign"), "{out}");
    }

    #[test]
    fn perf_section_appears_only_after_a_perf_bisect() {
        let counters: BTreeMap<String, u64> = [
            (counter::PERF_REFERENCE_RUNS.to_string(), 3),
            (counter::PERF_FILE_RUNS.to_string(), 9),
            (counter::PERF_SYMBOL_RUNS.to_string(), 6),
            (counter::PERF_SAMPLES_DRAWN.to_string(), 144),
            (counter::PERF_VERDICTS_SLOWER.to_string(), 3),
            (counter::PERF_VERDICTS_INCONCLUSIVE.to_string(), 1),
        ]
        .into_iter()
        .collect();
        let out = render_trace(&Trace::from_parts(vec![], counters), 5);
        assert!(out.contains("Performance bisect"), "{out}");
        let line = |name: &str| out.lines().find(|l| l.contains(name)).unwrap().to_string();
        assert!(line("reference timings").contains('3'));
        assert!(line("samples drawn").contains("144"));
        assert!(line("verdicts: slower").contains('3'));
        // No perf bisect → no section.
        let out = render_trace(&Trace::from_parts(vec![], BTreeMap::new()), 5);
        assert!(!out.contains("Performance bisect"), "{out}");
    }

    #[test]
    fn distributed_section_appears_only_after_remote_dispatch() {
        let counters: BTreeMap<String, u64> = [
            (counter::EXEC_BACKEND_DISPATCHED.to_string(), 250),
            (counter::EXEC_BACKEND_WORKER_SPAWNS.to_string(), 7),
            (counter::EXEC_BACKEND_WORKER_DEATHS.to_string(), 3),
            (counter::EXEC_BACKEND_REQUEUED.to_string(), 3),
        ]
        .into_iter()
        .collect();
        let out = render_trace(&Trace::from_parts(vec![], counters), 5);
        assert!(out.contains("Distributed execution"), "{out}");
        let line = |name: &str| out.lines().find(|l| l.contains(name)).unwrap().to_string();
        assert!(line("queries dispatched").contains("250"));
        assert!(line("worker spawns").contains('7'));
        assert!(line("worker deaths").contains('3'));
        assert!(line("queries requeued").contains('3'));
        // Threads-only runs never dispatch an envelope → no section.
        let out = render_trace(&Trace::from_parts(vec![], BTreeMap::new()), 5);
        assert!(!out.contains("Distributed execution"), "{out}");
    }

    #[test]
    fn certified_section_appears_only_with_activity() {
        let counters: BTreeMap<String, u64> = [
            (counter::ABSINT_CERTIFIED_INVARIANT.to_string(), 120),
            (counter::ABSINT_CERTIFIED_BOUNDED.to_string(), 7),
            (counter::LINT_SPECULATION_SKIPPED.to_string(), 31),
        ]
        .into_iter()
        .collect();
        let out = render_trace(&Trace::from_parts(vec![], counters), 5);
        assert!(out.contains("Certified bounds (absint)"), "{out}");
        let line = |name: &str| out.lines().find(|l| l.contains(name)).unwrap().to_string();
        assert!(line("certified invariant").contains("120"));
        assert!(line("speculations skipped").contains("31"));
        let out = render_trace(&Trace::from_parts(vec![], BTreeMap::new()), 5);
        assert!(!out.contains("Certified bounds (absint)"), "{out}");
    }
}
