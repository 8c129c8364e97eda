//! # flitbench
//!
//! The flit-rs benchmark: four workloads driven through the libraries'
//! public entry points, end-to-end metrics from untraced passes, and
//! per-layer metrics from traced passes that time calls at public seams
//! from outside the program (see `README.md` in this directory).

pub mod fleet;
pub mod inject;
pub mod mfem;
pub mod probe;
pub mod stats;
pub mod sys;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use flit_cli::{resolve_app, BundledApp};
use flit_toolchain::compilation::{compilation_matrix, Compilation};
use flit_toolchain::compiler::CompilerKind;

use stats::{median, ratio, tail, Tally};

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, reported by every workload from untraced passes.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("ok_frac", "ratio"),
    m("ops_per_s", "1/s"),
    m("op_p50_ms", "ms"),
    m("op_tail_ms", "ms"),
    m("bisections_per_s", "1/s"),
    m("executions_per_bisection", "count"),
];

/// Per-layer metrics, reported by every workload from traced passes
/// (zero where the workload does not reach the layer).
pub const PER_LAYER: &[Metric] = &[
    m("apps.codebase_s", "s"),
    m("core.determinism_s", "s"),
    m("core.sweep_s", "s"),
    m("core.sweep_rows", "count"),
    m("core.sweep_rows_per_s", "1/s"),
    m("core.sweep_engine_s", "s"),
    m("core.sweep_build_s", "s"),
    m("core.analysis_s", "s"),
    m("core.bisect_stage_s", "s"),
    m("core.bisections", "count"),
    m("toolchain.objects_requested", "count"),
    m("toolchain.objects_compiled", "count"),
    m("toolchain.object_hit_ratio", "ratio"),
    m("toolchain.links_requested", "count"),
    m("toolchain.links_performed", "count"),
    m("toolchain.link_hit_ratio", "ratio"),
    m("toolchain.cache_drop_s", "s"),
    m("bisect.executions.reference", "count"),
    m("bisect.executions.file", "count"),
    m("bisect.executions.probe", "count"),
    m("bisect.executions.symbol", "count"),
    m("ledger.queries_executed", "count"),
    m("ledger.shared_hits", "count"),
    m("ledger.dedup_ratio", "ratio"),
    m("journal.records_appended", "count"),
    m("journal.bytes_written", "bytes"),
    m("journal.checkpoint_s", "s"),
    m("journal.resume_s", "s"),
    m("journal.load_s", "s"),
    m("journal.records_replayed", "count"),
    m("journal.replay_s", "s"),
    m("exec.dispatch_calls", "count"),
    m("exec.dispatch_busy_s", "s"),
    m("exec.dispatch_p50_us", "us"),
    m("exec.dispatch_tail_us", "us"),
    m("exec.run_units_calls", "count"),
    m("exec.run_units_s", "s"),
    m("exec.backend.worker_spawns", "count"),
    m("exec.backend.worker_deaths", "count"),
    m("exec.backend.requeued", "count"),
    m("serve.runner_s", "s"),
    m("serve.queue_wait_p50_ms", "ms"),
    m("serve.submissions", "count"),
    m("serve.completed", "count"),
    m("serve.rejected", "count"),
    m("inject.measurable", "count"),
    m("inject.exact", "count"),
    m("inject.indirect", "count"),
    m("inject.avg_runs", "count"),
    m("inject.injection_p50_ms", "ms"),
    m("inject.injection_tail_ms", "ms"),
    m("trace.overhead_frac", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "mfem-workflow",
    "mfem-journaled",
    "fleet-process",
    "lulesh-inject",
];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for journals and daemon state.
    pub work_dir: PathBuf,
    /// This benchmark's executable, whose `worker` mode serves the
    /// process backend.
    pub worker_exe: PathBuf,
}

/// Everything one run measured. Workloads fill it pass by pass;
/// [`Samples::finish`] reduces it to the reported metrics.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up durations (s), one per set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident memory of each untraced pass (MiB).
    pub peak_rss_mb: Vec<f64>,
    /// Untraced pass wall times (s).
    pub pass_s: Vec<f64>,
    /// Traced pass wall times (s).
    pub traced_pass_s: Vec<f64>,
    /// Untraced operation latencies (s), one list per pass.
    pub op_s: Vec<Vec<f64>>,
    /// Consecutive untraced passes pooled into one tail sample (see
    /// [`op_tail`]); 0 or 1 takes the tail per pass.
    pub tail_passes: usize,
    /// Operations completed in untraced passes.
    pub ops: u64,
    /// Bisection searches completed in untraced passes.
    pub bisections: u64,
    /// The time base of `bisections` (s): the bisect stage on the MFEM
    /// workloads, the whole pass on the others.
    pub bisect_time_s: f64,
    /// Logical program executions of those searches.
    pub executions: u64,
    /// Per-layer readings, one per traced pass.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Correctness accounting over every pass.
    pub tally: Tally,
    /// Human-readable notes for the log.
    pub notes: Vec<String>,
}

/// The reduced result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness accounting.
    pub tally: Tally,
    /// The reported metrics, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Which metric list `metrics` follows.
    pub traced: bool,
    /// Notes for the log.
    pub notes: Vec<String>,
}

impl Samples {
    /// Record one per-layer reading for the current traced pass.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown layer metric {name}"
        );
        self.layers.entry(name).or_default().push(value);
    }

    /// Reduce to the reported metrics: end-to-end for an untraced run,
    /// per-layer (medians over traced passes) for a traced one.
    pub fn finish(mut self, traced: bool) -> Outcome {
        let mut metrics = BTreeMap::new();
        if traced {
            for metric in PER_LAYER {
                let v = self
                    .layers
                    .get(metric.name)
                    .and_then(|xs| median(xs))
                    .unwrap_or(0.0);
                metrics.insert(metric.name, v);
            }
            let overhead = match (median(&self.traced_pass_s), median(&self.pass_s)) {
                (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
                _ => 0.0,
            };
            metrics.insert("trace.overhead_frac", overhead);
        } else {
            let total: f64 = self.pass_s.iter().sum();
            let pooled: Vec<f64> = self.op_s.concat();
            let t = op_tail(&self.op_s, self.tail_passes);
            if let Some(t) = t {
                self.notes.push(format!(
                    "op_tail_ms is p{:.2} of {} operations",
                    t.percentile, t.samples
                ));
            }
            metrics.insert("wall_s", median(&self.pass_s).unwrap_or(0.0));
            metrics.insert("setup_s", median(&self.setup_s).unwrap_or(0.0));
            metrics.insert("peak_rss_mb", median(&self.peak_rss_mb).unwrap_or(0.0));
            metrics.insert("ok_frac", self.tally.ok_frac());
            metrics.insert("ops_per_s", ratio(self.ops as f64, total));
            metrics.insert("op_p50_ms", median(&pooled).unwrap_or(0.0) * 1e3);
            metrics.insert("op_tail_ms", t.map_or(0.0, |t| t.value * 1e3));
            metrics.insert(
                "bisections_per_s",
                ratio(self.bisections as f64, self.bisect_time_s),
            );
            metrics.insert(
                "executions_per_bisection",
                ratio(self.executions as f64, self.bisections as f64),
            );
        }
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.notes.push(format!(
            "{} set-ups; pass seconds untraced [{}] traced [{}]; pass peak MB [{}]",
            self.setup_s.len(),
            list(&self.pass_s),
            list(&self.traced_pass_s),
            list(&self.peak_rss_mb)
        ));
        Outcome {
            tally: self.tally,
            metrics,
            traced,
            notes: self.notes,
        }
    }
}

/// The operation tail of a run, over a fixed sample size so that it is
/// the same percentile on every run however many passes fit the window.
///
/// The untraced passes are pooled in consecutive groups of `group`
/// (incomplete trailing groups are left out). When every group holds
/// the 21 or more operations a tail above the median needs, the tail
/// is taken per group and the median over groups is reported.
/// Otherwise — too few passes for one group, or too few operations in
/// a group — it is taken over all the run's operations.
pub fn op_tail(per_pass: &[Vec<f64>], group: usize) -> Option<stats::Tail> {
    let groups: Vec<Vec<f64>> = per_pass
        .chunks_exact(group.max(1))
        .map(<[Vec<f64>]>::concat)
        .collect();
    if !groups.is_empty() && groups.iter().all(|g| g.len() >= 21) {
        let tails: Vec<stats::Tail> = groups.iter().filter_map(|g| tail(g)).collect();
        let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        return Some(stats::Tail {
            value: median(&values)?,
            percentile: tails[0].percentile,
            samples: tails[0].samples,
        });
    }
    tail(&per_pass.concat())
}

impl Samples {
    /// Run passes until the measurement window closes. A traced run
    /// alternates untraced and traced passes (so the tracing overhead is
    /// measured under the same conditions) and always makes at least
    /// one of each; an untraced run makes at least one pass. Each
    /// untraced pass records its own peak resident memory, counted from
    /// the memory live when it starts (free memory the allocator still
    /// holds from earlier passes is released first).
    pub fn run_passes(
        &mut self,
        seconds: f64,
        trace: bool,
        mut pass: impl FnMut(&mut Samples, usize, bool) -> Result<(), String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let min_passes = if trace { 2 } else { 1 };
        let mut i = 0;
        while i < min_passes || start.elapsed().as_secs_f64() < seconds {
            let traced = trace && i % 2 == 1;
            sys::release_free_memory();
            sys::reset_peak_rss();
            pass(self, i, traced)?;
            if !traced {
                if let Some(mb) = sys::peak_rss_mb() {
                    self.peak_rss_mb.push(mb);
                }
            }
            i += 1;
        }
        Ok(())
    }
}

/// Time `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A bundled application with the compilation matrix `flit workflow`
/// sweeps for it by default.
pub struct Codebase {
    /// Program and test suite.
    pub app: BundledApp,
    /// The default compilation matrix.
    pub comps: Vec<Compilation>,
}

/// Construct a bundled application and its default matrix (gcc + xlc
/// for the Laghos variants, the three MFEM-study compilers otherwise —
/// the `flit workflow` defaults).
pub fn codebase(name: &str) -> Result<Codebase, String> {
    let app = resolve_app(name).ok_or_else(|| format!("unknown application `{name}`"))?;
    let compilers: &[CompilerKind] = if name.starts_with("laghos") {
        &[CompilerKind::Gcc, CompilerKind::Xlc]
    } else {
        &CompilerKind::MFEM_STUDY
    };
    let comps = compilers
        .iter()
        .flat_map(|&c| compilation_matrix(c))
        .collect();
    Ok(Codebase { app, comps })
}

/// A fresh, empty scratch directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Dispatch one run to its workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let samples = match args.workload.as_str() {
        "mfem-workflow" => mfem::workflow(args)?,
        "mfem-journaled" => mfem::journaled(args)?,
        "fleet-process" => fleet::run(args)?,
        "lulesh-inject" => inject::run(args)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (available: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(samples.finish(args.trace))
}

/// Render a metric value as JSON, keeping every digit measured.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value", "unit"}`).
    pub fn to_json(&self) -> String {
        let list = if self.traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|metric| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    metric.name,
                    json_number(self.metrics.get(metric.name).copied().unwrap_or(0.0)),
                    metric.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable table for the log.
    pub fn to_table(&self, args: &RunArgs) -> String {
        let list = if self.traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "flitbench {} seed {} ({} run, {} s window)\n",
            args.workload,
            args.seed,
            if self.traced { "traced" } else { "untraced" },
            args.seconds
        );
        for metric in list {
            let v = self.metrics.get(metric.name).copied().unwrap_or(0.0);
            out.push_str(&format!(
                "  {:<30} {:>16.6} {}\n",
                metric.name, v, metric.unit
            ));
        }
        out.push_str(&format!(
            "  operations: {} attempted, {} failed (failed_frac {:.6})\n",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_frac()
        ));
        for why in &self.tally.failures {
            out.push_str(&format!("  FAILED: {why}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(metric.name.len() <= 64);
            assert!(metric.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn untraced_outcome_reports_every_end_to_end_metric_with_its_base() {
        let mut s = Samples {
            setup_s: vec![0.2, 0.1, 0.3],
            pass_s: vec![2.0, 4.0],
            op_s: vec![vec![2.0], vec![4.0]],
            ops: 2,
            bisections: 120,
            bisect_time_s: 6.0,
            executions: 1800,
            ..Samples::default()
        };
        s.tally.check(true, String::new);
        let out = s.finish(false);
        assert_eq!(out.metrics.len(), END_TO_END.len());
        assert_eq!(out.metrics["wall_s"], 3.0);
        assert_eq!(out.metrics["setup_s"], 0.2);
        assert_eq!(out.metrics["ops_per_s"], 2.0 / 6.0);
        assert_eq!(out.metrics["bisections_per_s"], 20.0);
        assert_eq!(out.metrics["executions_per_bisection"], 15.0);
        assert_eq!(out.metrics["op_tail_ms"], 3000.0, "two samples: the median");
        assert_eq!(out.metrics["ok_frac"], 1.0);
        let json = out.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(json.contains("\"wall_s\": {\"value\": 3.0, \"unit\": \"s\"}"));
    }

    #[test]
    fn op_tail_is_per_pass_when_every_pass_is_large_enough() {
        let pass = |offset: f64| (0..100).map(|i| f64::from(i) + offset).collect::<Vec<_>>();
        // Three passes of 100: each tail is rank 89 (p90); report the
        // median of the three.
        let t = op_tail(&[pass(0.0), pass(10.0), pass(5.0)], 1).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (94.0, 90.0, 100));
        // One small pass: pool instead (201 - 10 = 191 → p95.02).
        let t = op_tail(&[pass(0.0), vec![1.0], pass(5.0)], 1).unwrap();
        assert_eq!(t.samples, 201);
        assert_eq!(op_tail(&[], 1), None);
    }

    #[test]
    fn op_tail_pools_a_fixed_number_of_passes() {
        let pass = |offset: f64| (0..32).map(|i| f64::from(i) + offset).collect::<Vec<_>>();
        // Groups of three passes of 32: n = 96 → rank 85, p89.58,
        // whether the run made four passes or five (the incomplete
        // trailing group is left out).
        for passes in [4, 5] {
            let runs: Vec<Vec<f64>> = (0..passes).map(|p| pass(f64::from(p) * 100.0)).collect();
            let t = op_tail(&runs, 3).unwrap();
            assert_eq!(t.samples, 96, "{passes} passes");
            assert!((t.percentile - 100.0 * 86.0 / 96.0).abs() < 1e-12);
            let mut first: Vec<f64> = runs[..3].concat();
            first.sort_by(f64::total_cmp);
            assert_eq!(t.value, first[85]);
        }
        // Six passes: two groups, the median of their two tails.
        let runs: Vec<Vec<f64>> = (0..6).map(|p| pass(f64::from(p) * 100.0)).collect();
        let tails: Vec<f64> = runs
            .chunks(3)
            .map(|g| {
                let mut v = g.concat();
                v.sort_by(f64::total_cmp);
                v[85]
            })
            .collect();
        assert_eq!(
            op_tail(&runs, 3).unwrap().value,
            (tails[0] + tails[1]) / 2.0
        );
        // Too few passes for one group: the pooled rule.
        let t = op_tail(&[pass(0.0), pass(1.0)], 3).unwrap();
        assert_eq!(t.samples, 64);
        // One operation per pass (the MFEM workloads): never a group of
        // 21, so the tail of everything — the median below 21 samples.
        let single: Vec<Vec<f64>> = (0..12).map(|i| vec![f64::from(i)]).collect();
        let t = op_tail(&single, 1).unwrap();
        assert_eq!((t.value, t.percentile), (5.5, 50.0));
    }

    #[test]
    fn traced_outcome_reports_every_layer_and_the_overhead() {
        let mut s = Samples {
            pass_s: vec![2.0],
            traced_pass_s: vec![2.2],
            ..Samples::default()
        };
        s.layer("core.sweep_s", 1.0);
        s.layer("core.sweep_s", 3.0);
        let out = s.finish(true);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        assert_eq!(out.metrics["core.sweep_s"], 2.0);
        assert_eq!(out.metrics["exec.dispatch_calls"], 0.0);
        assert!((out.metrics["trace.overhead_frac"] - 0.1).abs() < 1e-12);
        // Nothing attempted is never reported as correct.
        assert!(out
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 0"));
    }
}
