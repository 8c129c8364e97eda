//! Hand-rolled argument parsing (no external dependency; the surface is
//! small and stable). Each subcommand's flags parse once, into the
//! struct its command function takes.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use flit_bisect::journal::BACKEND_LOCAL;
use flit_bisect::LintMode;
use flit_exec::{ExecBackend, ProcessBackend, ThreadsBackend};
use flit_trace::sink::TraceSink;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
}

/// The `flit` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List bundled applications.
    Apps,
    /// Sweep the compilation matrix for one application.
    Run(RunArgs),
    /// Performance-vs-reproducibility analysis.
    Analyze(AnalyzeArgs),
    /// Hierarchical File → Symbol bisection of one variable compilation.
    Bisect(BisectArgs),
    /// Statistical performance bisect: confirm a compilation is slower
    /// than another, then root-cause the slowdown to files and symbols
    /// with a confidence interval and Welch verdict on every claim.
    Perf(PerfArgs),
    /// Certified per-pair divergence bounds: run the abstract
    /// interpreter over one compilation pair and print every item's
    /// certificate without executing anything.
    Bound(PairArgs),
    /// Static analysis report: the certificates of a compilation pair
    /// against the baseline, its warnings and the hazard lints, without
    /// running anything.
    Lint(LintArgs),
    /// Run the perturbation-injection study.
    Inject(InjectArgs),
    /// The full Figure-1 workflow: determinism check → sweep → analysis
    /// → bisect everything variable.
    Workflow(WorkflowArgs),
    /// Generative differential-testing campaign: random codebases with
    /// planted blame sets, checked against the whole pipeline.
    Fuzz(FuzzArgs),
    /// Summarize a JSONL trace produced by `flit workflow --trace`.
    Trace(TraceArgs),
    /// Serve Test/Time queries over stdin/stdout for a coordinator
    /// (the worker half of the `process` execution backend).
    Worker,
    /// The multi-tenant workflow daemon and its control endpoints.
    Serve(ServeArgs),
    /// Submit one workflow to a running daemon and print the report.
    Submit(SubmitArgs),
    /// Print usage.
    Help,
}

/// `flit run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Application name.
    pub app: String,
    /// Restrict to one compiler (`gcc`, `clang`, `icpc`, `xlc`).
    pub compiler: Option<String>,
    /// Emit the results database as JSON instead of a table.
    pub json: bool,
}

/// `flit analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Application name.
    pub app: String,
}

/// `flit bisect`.
#[derive(Debug, Clone, PartialEq)]
pub struct BisectArgs {
    /// Application name.
    pub app: String,
    /// Test name (defaults to the app's first test).
    pub test: Option<String>,
    /// The variable compilation, e.g. `"icpc -O2"` or
    /// `"g++ -O3 -mavx2 -mfma"`.
    pub compilation: String,
    /// `BisectBiggest(k)` instead of the verifying `BisectAll`.
    pub biggest: Option<usize>,
    /// `--lint-seed` seeds speculation from the certificates (identical
    /// findings, fewer Test executions); `--prune certified` also drops
    /// `Invariant`-certified items (found sets stay byte-identical,
    /// under a one-query residual audit per pruned level) and wins
    /// over `--lint-seed`.
    pub lint: LintMode,
    /// Journal every completed Test answer to this file (atomic
    /// appends; safe to kill the process at any point).
    pub checkpoint: Option<String>,
    /// Replay a checkpoint journal before issuing any live query,
    /// continuing a killed search exactly where it stopped.
    pub resume: Option<String>,
    /// Where the search's Test queries execute (the result is
    /// identical on every backend and at any width).
    pub exec: ExecArgs,
}

/// `flit perf`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfArgs {
    /// The pair to time, e.g. `"icpc -O2"` against
    /// `"icpc -O2 -prec-div"`, and where to write the search's trace.
    pub pair: PairArgs,
    /// Timing samples per executable (default 8).
    pub samples: Option<usize>,
    /// Significance level for the Welch tests (default 0.05).
    pub alpha: Option<f64>,
    /// Noise-model seed (default 42).
    pub seed: Option<u64>,
    /// Where the timing queries execute (the result is byte-identical
    /// at any width).
    pub exec: ExecArgs,
}

/// `flit bound`, and the pair `flit perf` times.
#[derive(Debug, Clone, PartialEq)]
pub struct PairArgs {
    /// Application name.
    pub app: String,
    /// Test name scoping the driver (defaults to the app's first test).
    pub test: Option<String>,
    /// Baseline compilation label, e.g. `"g++ -O0"`.
    pub base: String,
    /// Candidate compilation label, e.g. `"g++ -O3 -mavx2 -mfma"`.
    pub candidate: String,
    /// Write a JSONL trace here (`flit bound`'s has the `absint.*`
    /// counters).
    pub trace: Option<String>,
}

/// `flit lint`.
#[derive(Debug, Clone, PartialEq)]
pub struct LintArgs {
    /// Application name.
    pub app: String,
    /// Test name scoping reachability (defaults to the app's first
    /// test).
    pub test: Option<String>,
    /// The variable compilation (defaults to
    /// `g++ -O3 -mavx2 -mfma -funsafe-math-optimizations`).
    pub compilation: String,
}

/// The default variable compilation for `flit lint` when none is
/// given: the paper's most variability-inducing gcc configuration.
const DEFAULT_LINT_COMPILATION: &str = "g++ -O3 -mavx2 -mfma -funsafe-math-optimizations";

/// `flit inject`.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectArgs {
    /// Application name.
    pub app: String,
    /// Print the records of the first n sites (the study itself always
    /// runs every site).
    pub limit: Option<usize>,
}

/// `flit workflow`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowArgs {
    /// Application name.
    pub app: String,
    /// Cap on bisections (default: all).
    pub max_bisections: Option<usize>,
    /// Write a JSONL trace of the whole workflow here.
    pub trace: Option<String>,
    /// Static prescreen mode for the bisection stage (`--lint seed`,
    /// or `--lint prune` for the certified prune; default off).
    pub lint: LintMode,
    /// Journal every completed bisection Test answer to this file.
    pub checkpoint: Option<String>,
    /// Replay a checkpoint journal before the bisection stage.
    pub resume: Option<String>,
    /// Where the bisection stage runs: `--jobs` searches fan out on
    /// one shared executor, and `--backend process` evaluates their
    /// Test queries in workers (the report is identical either way).
    pub exec: ExecArgs,
}

/// `flit fuzz`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzArgs {
    /// Seed range, inclusive start, exclusive end.
    pub seeds: (u64, u64),
    /// Wall-clock budget in seconds (default: run the whole range).
    pub budget_secs: Option<u64>,
    /// Shrink divergent seeds and print fixture snippets.
    pub shrink: bool,
    /// Write a JSONL trace of the campaign here.
    pub trace: Option<String>,
    /// `--jobs`: width of the parallel cross-check (default 8; 1 skips
    /// it); `--backend process` additionally cross-checks every corpus
    /// seed against `flit worker` subprocesses.
    pub exec: ExecArgs,
}

/// `flit trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Path to the JSONL trace file.
    pub file: String,
    /// How many slowest compilations to show (default 10).
    pub top: usize,
}

/// `flit serve`: exactly one of its three modes.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeArgs {
    /// `--listen`: run the daemon (blocks until a shutdown request
    /// drains it).
    Listen(ListenArgs),
    /// `--status`: query a running daemon's fleet status.
    Status {
        /// Daemon address.
        connect: String,
    },
    /// `--shutdown`: drain and stop a running daemon.
    Shutdown {
        /// Daemon address.
        connect: String,
    },
}

/// `flit serve --listen`.
#[derive(Debug, Clone, PartialEq)]
pub struct ListenArgs {
    /// Listen address (e.g. `127.0.0.1:7070`, port 0 for ephemeral).
    pub addr: String,
    /// Root of the daemon's persistent state (per-tenant journals live
    /// under `<dir>/tenants/`). Default `flit-serve-state`.
    pub state_dir: Option<String>,
    /// Concurrent submissions executed (runner threads).
    pub max_inflight: Option<usize>,
    /// Where submissions' bisection queries execute (`--backend
    /// process`: one shared worker pool, drained at shutdown).
    pub exec: ExecArgs,
    /// Export the daemon's JSONL trace here during shutdown drain
    /// (render with `flit trace`; includes the Fleet table).
    pub trace: Option<String>,
}

/// `flit submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Application name.
    pub app: String,
    /// Daemon address.
    pub connect: String,
    /// Tenant id (namespaces the daemon-side checkpoint journal).
    pub tenant: String,
    /// Cap on bisections (default: all).
    pub max_bisections: Option<usize>,
    /// Worker threads for the workflow's bisection stage.
    pub jobs: Option<usize>,
}

/// The execution flags, `--jobs`, `--backend threads|process`,
/// `--workers` and `--kill-workers`: where a command's queries run.
/// Each command takes the subset its parser lists; the worker-pool
/// flags need `--backend process`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecArgs {
    /// In-process worker threads (`--jobs`).
    pub jobs: Option<usize>,
    /// The `flit worker` pool under `--backend process` (`None`: the
    /// in-process threads backend).
    pub(crate) process: Option<ProcessArgs>,
}

/// The worker pool of `--backend process`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProcessArgs {
    /// Pool width: `--workers`, falling back to `--jobs`, then 4.
    pub workers: usize,
    /// Deterministic worker-kill schedule (testing): the i-th spawned
    /// worker exits right before its n_i-th answer.
    pub kill_schedule: Vec<u64>,
}

impl ExecArgs {
    /// In-process worker threads (`--jobs`, default 1).
    pub(crate) fn threads(&self) -> usize {
        self.jobs.unwrap_or(1)
    }

    /// The `flit worker` command line under `--backend process`.
    pub(crate) fn worker_cmd(&self) -> Result<Option<Vec<String>>, ParseError> {
        self.process.as_ref().map(|_| worker_cmd()).transpose()
    }

    /// The worker pool under `--backend process`, recording
    /// `exec.backend.*` counters into `trace` (`None` for threads).
    pub(crate) fn remote(
        &self,
        trace: &TraceSink,
    ) -> Result<Option<Arc<dyn ExecBackend>>, ParseError> {
        let Some(p) = &self.process else {
            return Ok(None);
        };
        let backend = ProcessBackend::with_trace(worker_cmd()?, p.workers, trace.clone())
            .with_kill_schedule(p.kill_schedule.clone());
        Ok(Some(Arc::new(backend)))
    }

    /// The backend a search evaluates on: `remote`, else `--jobs`
    /// in-process threads.
    pub(crate) fn executor(&self, remote: Option<Arc<dyn ExecBackend>>) -> Arc<dyn ExecBackend> {
        remote.unwrap_or_else(|| Arc::new(ThreadsBackend::new(self.threads())))
    }

    /// The backend label a checkpoint journal records with each answer.
    pub(crate) fn ledger_label(&self) -> &'static str {
        if self.process.is_some() {
            "process"
        } else {
            BACKEND_LOCAL
        }
    }

    /// Report-header note naming the process backend (empty for
    /// threads).
    pub(crate) fn note(&self) -> String {
        self.process.as_ref().map_or_else(String::new, |p| {
            format!(" | process backend ({} workers)", p.workers)
        })
    }

    /// A search report's header note: the process backend, else the
    /// `--jobs` width when it is above 1.
    pub(crate) fn search_note(&self) -> String {
        match self.threads() {
            jobs if self.process.is_none() && jobs > 1 => format!(" | {jobs} jobs"),
            _ => self.note(),
        }
    }
}

/// The command line workers execute: this binary's own executable with
/// the `worker` subcommand. `FLIT_WORKER_EXE` overrides the executable
/// path (used by tests, whose `current_exe` is the test harness, not
/// `flit`).
fn worker_cmd() -> Result<Vec<String>, ParseError> {
    let exe = match std::env::var("FLIT_WORKER_EXE") {
        Ok(path) => path,
        Err(_) => std::env::current_exe()
            .map_err(|e| ParseError(format!("cannot locate the flit executable: {e}")))?
            .to_string_lossy()
            .into_owned(),
    };
    Ok(vec![exe, "worker".to_string()])
}

/// A parse failure, with a message for the user.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Usage text.
pub(crate) const USAGE: &str = "\
flit — compiler-induced variability tester (FLiT reproduction)

USAGE:
  flit apps
  flit run <app> [--compiler gcc|clang|icpc|xlc] [--json]
  flit analyze <app>
  flit bisect <app> --compilation \"<compiler -On [flags]>\" [--test <name>] [--biggest <k>] [--jobs <n>] [--lint-seed] [--prune certified] [--checkpoint <file.jsonl>] [--resume <file.jsonl>] [--backend threads|process] [--workers <n>]
  flit perf <app> --pair \"<base>\" \"<candidate>\" [--test <name>] [--samples <n>] [--alpha <a>] [--seed <s>] [--jobs <n>] [--trace <file.jsonl>] [--backend threads|process] [--workers <n>]
  flit bound <app> --pair \"<base>\" \"<candidate>\" [--test <name>] [--trace <file.jsonl>]
  flit lint <app> [--compilation \"<compiler -On [flags]>\"] [--test <name>]
  flit inject <app> [--limit <n>]
  flit workflow <app> [--max-bisections <n>] [--jobs <n>] [--trace <file.jsonl>] [--lint seed|prune] [--checkpoint <file.jsonl>] [--resume <file.jsonl>] [--backend threads|process] [--workers <n>]
  flit fuzz --seeds <a>..<b> [--budget-secs <n>] [--shrink] [--jobs <n>] [--trace <file.jsonl>] [--backend threads|process]
  flit trace <file.jsonl> [--top <n>]
  flit serve --listen <addr> [--state-dir <dir>] [--max-inflight <n>] [--backend threads|process] [--workers <n>] [--trace <file.jsonl>]
  flit serve --status --connect <addr>
  flit serve --shutdown --connect <addr>
  flit submit <app> --connect <addr> --tenant <id> [--max-bisections <n>] [--jobs <n>]
  flit worker
  flit help

The `process` backend evaluates Test/timing queries in `flit worker`
subprocesses (crash-isolated; results byte-identical to serial).
`--kill-workers n1,n2,...` installs a deterministic worker-kill
schedule for recovery testing.

`flit inject --limit n` prints the records of the first n sites; the
study itself always runs every site.

`flit bound` prints the abstract interpreter's certificates for a
pair; `flit lint` prints the same tables against the g++ -O0 baseline,
then the mixed-ABI warning and the hazard lints.
`--lint-seed` (bisect) and `--lint seed` (workflow) order speculation
by the certificates' bounds; `--prune certified` (bisect) and
`--lint prune` (workflow) also drop the items certified Invariant,
under a one-query residual audit per pruned level.
A flag the command does not take is an error.
";

/// The execution flags the search commands (`bisect`, `perf`,
/// `workflow`) take besides `--backend`.
const SEARCH_EXEC: &[&str] = &["--jobs", "--workers", "--kill-workers"];

/// One subcommand's arguments, and every flag name its parser asked
/// for; [`Flags::finish`] rejects any other `--token`.
struct Flags<'a> {
    cmd: &'a str,
    rest: &'a [String],
    asked: BTreeSet<&'static str>,
}

impl Flags<'_> {
    fn value(&mut self, name: &'static str) -> Option<String> {
        self.asked.insert(name);
        self.rest
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.rest.get(i + 1))
            .cloned()
    }

    fn has(&mut self, name: &'static str) -> bool {
        self.asked.insert(name);
        self.rest.iter().any(|a| a == name)
    }

    fn number<T: FromStr>(&mut self, name: &'static str) -> Result<Option<T>, ParseError> {
        self.value(name).map(|v| number(name, v)).transpose()
    }

    /// A flag's value that must be one of `modes`.
    fn mode(&mut self, name: &'static str, modes: &[&str]) -> Result<Option<String>, ParseError> {
        match self.value(name) {
            Some(v) if !modes.contains(&v.as_str()) => {
                let modes: Vec<String> = modes.iter().map(|m| format!("`{m}`")).collect();
                Err(ParseError(format!(
                    "{name} takes {}, got `{v}`",
                    modes.join(" or ")
                )))
            }
            v => Ok(v),
        }
    }

    /// A missing mandatory flag or argument.
    fn needs(&self, what: &str) -> ParseError {
        ParseError(format!("`{}` needs {what}\n\n{USAGE}", self.cmd))
    }

    /// The leading positional argument.
    fn first(&self) -> Option<String> {
        self.rest.first().filter(|a| !a.starts_with("--")).cloned()
    }

    fn app(&self) -> Result<String, ParseError> {
        self.first()
            .ok_or_else(|| self.needs("an application name"))
    }

    /// `--pair "<base>" "<candidate>"`.
    fn pair(&mut self) -> Result<(String, String), ParseError> {
        self.asked.insert("--pair");
        let at = self
            .rest
            .iter()
            .position(|a| a == "--pair")
            .ok_or_else(|| self.needs("--pair \"<base>\" \"<candidate>\""))?;
        let label = |off: usize| {
            self.rest
                .get(at + off)
                .filter(|a| !a.starts_with("--"))
                .cloned()
                .ok_or_else(|| {
                    ParseError(format!("--pair takes two compilation labels\n\n{USAGE}"))
                })
        };
        Ok((label(1)?, label(2)?))
    }

    /// `--backend` and the execution flags in `takes` (a subset of
    /// [`SEARCH_EXEC`]).
    fn exec(&mut self, takes: &[&str]) -> Result<ExecArgs, ParseError> {
        let [jobs, workers, kill] = ["--jobs", "--workers", "--kill-workers"]
            .map(|name| takes.contains(&name).then(|| self.value(name)).flatten());
        let jobs = jobs.map(|v| number("--jobs", v)).transpose()?;
        let process = self.mode("--backend", &["threads", "process"])?;
        let workers: Option<usize> = workers.map(|v| number("--workers", v)).transpose()?;
        let kill_schedule = kill
            .map(|v| {
                v.split(',')
                    .map(|p| p.trim().parse::<u64>())
                    .collect::<Result<Vec<u64>, _>>()
                    .map_err(|_| {
                        ParseError(format!(
                            "--kill-workers takes comma-separated counts like 1,2,1, got `{v}`"
                        ))
                    })
            })
            .transpose()?;
        let process = process.is_some_and(|b| b == "process");
        let pool = [
            ("--workers", workers.is_some()),
            ("--kill-workers", kill_schedule.is_some()),
        ];
        match pool.into_iter().find(|(_, given)| *given) {
            // Without the pool, a pool flag would be silently ignored.
            Some((flag, _)) if !process => {
                Err(ParseError(format!("{flag} needs --backend process")))
            }
            _ => Ok(ExecArgs {
                jobs,
                process: process.then(|| ProcessArgs {
                    workers: workers.or(jobs).unwrap_or(4).max(1),
                    kill_schedule: kill_schedule.unwrap_or_default(),
                }),
            }),
        }
    }

    /// Reject any `--token` the command's parser did not ask for.
    fn finish(&self) -> Result<(), ParseError> {
        match self
            .rest
            .iter()
            .find(|a| a.starts_with("--") && !self.asked.contains(a.as_str()))
        {
            Some(unknown) => Err(ParseError(format!(
                "`{}` does not take {unknown}\n\n{USAGE}",
                self.cmd
            ))),
            None => Ok(()),
        }
    }
}

/// A numeric flag's value.
fn number<T: FromStr>(name: &str, v: String) -> Result<T, ParseError> {
    v.parse::<T>()
        .map_err(|_| ParseError(format!("{name} takes a number, got `{v}`")))
}

/// Parse a command line (excluding the program name).
pub fn parse(args: &[String]) -> Result<Cli, ParseError> {
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("help", &[][..]),
    };
    let mut f = Flags {
        cmd,
        rest,
        asked: BTreeSet::new(),
    };
    let command = match cmd {
        "apps" => Command::Apps,
        "run" => Command::Run(RunArgs {
            app: f.app()?,
            compiler: f.value("--compiler"),
            json: f.has("--json"),
        }),
        "analyze" => Command::Analyze(AnalyzeArgs { app: f.app()? }),
        "bisect" => {
            let compilation = f
                .value("--compilation")
                .ok_or_else(|| f.needs("--compilation"))?;
            let prune = f.mode("--prune", &["certified"])?.is_some();
            Command::Bisect(BisectArgs {
                app: f.app()?,
                test: f.value("--test"),
                compilation,
                biggest: f.number("--biggest")?,
                lint: match (prune, f.has("--lint-seed")) {
                    (true, _) => LintMode::Prune,
                    (false, true) => LintMode::Seed,
                    (false, false) => LintMode::Off,
                },
                checkpoint: f.value("--checkpoint"),
                resume: f.value("--resume"),
                exec: f.exec(SEARCH_EXEC)?,
            })
        }
        "perf" => {
            let (base, candidate) = f.pair()?;
            let alpha = f
                .value("--alpha")
                .map(|v| {
                    v.parse::<f64>()
                        .ok()
                        .filter(|a| *a > 0.0 && *a < 1.0)
                        .ok_or_else(|| {
                            ParseError(format!("--alpha takes a number in (0, 1), got `{v}`"))
                        })
                })
                .transpose()?;
            let seed = f.number("--seed")?;
            Command::Perf(PerfArgs {
                pair: PairArgs {
                    app: f.app()?,
                    test: f.value("--test"),
                    base,
                    candidate,
                    trace: f.value("--trace"),
                },
                samples: f.number("--samples")?,
                alpha,
                seed,
                exec: f.exec(SEARCH_EXEC)?,
            })
        }
        "bound" => {
            let (base, candidate) = f.pair()?;
            Command::Bound(PairArgs {
                app: f.app()?,
                test: f.value("--test"),
                base,
                candidate,
                trace: f.value("--trace"),
            })
        }
        "lint" => Command::Lint(LintArgs {
            app: f.app()?,
            test: f.value("--test"),
            compilation: f
                .value("--compilation")
                .unwrap_or_else(|| DEFAULT_LINT_COMPILATION.into()),
        }),
        "inject" => Command::Inject(InjectArgs {
            app: f.app()?,
            limit: f.number("--limit")?,
        }),
        "workflow" => {
            let lint = match f.mode("--lint", &["seed", "prune"])?.as_deref() {
                Some("seed") => LintMode::Seed,
                Some(_) => LintMode::Prune,
                None => LintMode::Off,
            };
            Command::Workflow(WorkflowArgs {
                app: f.app()?,
                max_bisections: f.number("--max-bisections")?,
                trace: f.value("--trace"),
                lint,
                checkpoint: f.value("--checkpoint"),
                resume: f.value("--resume"),
                exec: f.exec(SEARCH_EXEC)?,
            })
        }
        "fuzz" => {
            let spec = f
                .value("--seeds")
                .ok_or_else(|| f.needs("--seeds <a>..<b>"))?;
            let seeds = spec
                .split_once("..")
                .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)))
                .filter(|(a, b)| a < b)
                .ok_or_else(|| {
                    ParseError(format!(
                        "--seeds takes an ascending range like 0..1000, got `{spec}`"
                    ))
                })?;
            Command::Fuzz(FuzzArgs {
                seeds,
                budget_secs: f.number("--budget-secs")?,
                shrink: f.has("--shrink"),
                trace: f.value("--trace"),
                exec: f.exec(&["--jobs"])?,
            })
        }
        "trace" => Command::Trace(TraceArgs {
            file: f.first().ok_or_else(|| f.needs("a trace file"))?,
            top: f.number("--top")?.unwrap_or(10),
        }),
        "serve" => {
            let listen = f.value("--listen");
            let status = f.has("--status");
            let shutdown = f.has("--shutdown");
            if usize::from(listen.is_some()) + usize::from(status) + usize::from(shutdown) != 1 {
                return Err(ParseError(format!(
                    "`serve` takes exactly one of --listen <addr>, --status, --shutdown\n\n{USAGE}"
                )));
            }
            // Only `--listen` asks for the daemon's flags and only the
            // control modes ask for `--connect`, so `finish` rejects
            // each in the other mode.
            Command::Serve(match listen {
                Some(addr) => ServeArgs::Listen(ListenArgs {
                    addr,
                    state_dir: f.value("--state-dir"),
                    max_inflight: f.number("--max-inflight")?,
                    exec: f.exec(&["--workers"])?,
                    trace: f.value("--trace"),
                }),
                None => {
                    let connect = f.value("--connect").ok_or_else(|| {
                        ParseError(format!(
                            "`serve --status`/`--shutdown` need --connect <addr>\n\n{USAGE}"
                        ))
                    })?;
                    if status {
                        ServeArgs::Status { connect }
                    } else {
                        ServeArgs::Shutdown { connect }
                    }
                }
            })
        }
        "submit" => {
            let connect = f
                .value("--connect")
                .ok_or_else(|| f.needs("--connect <addr>"))?;
            let tenant = f
                .value("--tenant")
                .ok_or_else(|| f.needs("--tenant <id>"))?;
            Command::Submit(SubmitArgs {
                app: f.app()?,
                connect,
                tenant,
                max_bisections: f.number("--max-bisections")?,
                jobs: f.number("--jobs")?,
            })
        }
        "worker" => Command::Worker,
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(ParseError(format!("unknown command `{other}`\n\n{USAGE}"))),
    };
    f.finish()?;
    Ok(Cli { command })
}

/// Parse a compilation label like `"icpc -O2 -fp-model fast=2"` back
/// into a [`flit_toolchain::compilation::Compilation`], by matching
/// against the known matrix (plus the xlc catalog).
pub fn parse_compilation(
    label: &str,
) -> Result<flit_toolchain::compilation::Compilation, ParseError> {
    use flit_toolchain::compilation::compilation_matrix;
    use flit_toolchain::compiler::CompilerKind;
    let all = [
        CompilerKind::Gcc,
        CompilerKind::Clang,
        CompilerKind::Icpc,
        CompilerKind::Xlc,
    ];
    let norm = label.split_whitespace().collect::<Vec<_>>().join(" ");
    for compiler in all {
        for comp in compilation_matrix(compiler) {
            if comp.label() == norm {
                return Ok(comp);
            }
        }
    }
    Err(ParseError(format!(
        "unknown compilation `{label}` (expected e.g. \"g++ -O3 -mavx2 -mfma\" from the study matrix)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_all_subcommands() {
        assert_eq!(parse(&v(&["apps"])).unwrap().command, Command::Apps);
        assert_eq!(
            parse(&v(&["run", "mfem", "--compiler", "gcc", "--json"]))
                .unwrap()
                .command,
            Command::Run(RunArgs {
                app: "mfem".into(),
                compiler: Some("gcc".into()),
                json: true
            })
        );
        assert_eq!(
            parse(&v(&["analyze", "laghos"])).unwrap().command,
            Command::Analyze(AnalyzeArgs {
                app: "laghos".into()
            })
        );
        assert_eq!(
            parse(&v(&[
                "bisect",
                "mfem",
                "--test",
                "ex13",
                "--compilation",
                "icpc -O2",
                "--biggest",
                "2",
                "--jobs",
                "8"
            ]))
            .unwrap()
            .command,
            Command::Bisect(BisectArgs {
                app: "mfem".into(),
                test: Some("ex13".into()),
                compilation: "icpc -O2".into(),
                biggest: Some(2),
                lint: LintMode::Off,
                checkpoint: None,
                resume: None,
                exec: ExecArgs {
                    jobs: Some(8),
                    process: None,
                },
            })
        );
        assert_eq!(
            parse(&v(&[
                "bisect",
                "mfem",
                "--compilation",
                "icpc -O2",
                "--lint-seed"
            ]))
            .unwrap()
            .command,
            Command::Bisect(BisectArgs {
                app: "mfem".into(),
                test: None,
                compilation: "icpc -O2".into(),
                biggest: None,
                lint: LintMode::Seed,
                checkpoint: None,
                resume: None,
                exec: ExecArgs::default(),
            })
        );
        assert_eq!(
            parse(&v(&["lint", "mfem", "--test", "ex13"]))
                .unwrap()
                .command,
            Command::Lint(LintArgs {
                app: "mfem".into(),
                test: Some("ex13".into()),
                compilation: DEFAULT_LINT_COMPILATION.into(),
            })
        );
        assert_eq!(
            parse(&v(&["inject", "lulesh", "--limit", "10"]))
                .unwrap()
                .command,
            Command::Inject(InjectArgs {
                app: "lulesh".into(),
                limit: Some(10)
            })
        );
        assert_eq!(
            parse(&v(&[
                "workflow",
                "laghos",
                "--max-bisections",
                "3",
                "--jobs",
                "4",
                "--trace",
                "wf.jsonl"
            ]))
            .unwrap()
            .command,
            Command::Workflow(WorkflowArgs {
                app: "laghos".into(),
                max_bisections: Some(3),
                trace: Some("wf.jsonl".into()),
                lint: LintMode::Off,
                checkpoint: None,
                resume: None,
                exec: ExecArgs {
                    jobs: Some(4),
                    process: None,
                },
            })
        );
        assert_eq!(
            parse(&v(&["trace", "wf.jsonl", "--top", "5"]))
                .unwrap()
                .command,
            Command::Trace(TraceArgs {
                file: "wf.jsonl".into(),
                top: 5
            })
        );
        assert_eq!(
            parse(&v(&[
                "fuzz",
                "--seeds",
                "0..1000",
                "--budget-secs",
                "60",
                "--shrink",
                "--jobs",
                "4",
                "--trace",
                "fuzz.jsonl"
            ]))
            .unwrap()
            .command,
            Command::Fuzz(FuzzArgs {
                seeds: (0, 1000),
                budget_secs: Some(60),
                shrink: true,
                trace: Some("fuzz.jsonl".into()),
                exec: ExecArgs {
                    jobs: Some(4),
                    process: None,
                },
            })
        );
        assert_eq!(
            parse(&v(&["fuzz", "--seeds", "7..13"])).unwrap().command,
            Command::Fuzz(FuzzArgs {
                seeds: (7, 13),
                budget_secs: None,
                shrink: false,
                trace: None,
                exec: ExecArgs::default(),
            })
        );
        assert_eq!(parse(&v(&[])).unwrap().command, Command::Help);
        assert_eq!(parse(&v(&["help"])).unwrap().command, Command::Help);
    }

    #[test]
    fn parses_certified_prune_and_the_bound_subcommand() {
        match parse(&v(&[
            "bisect",
            "mfem",
            "--compilation",
            "icpc -O2",
            "--prune",
            "certified",
        ]))
        .unwrap()
        .command
        {
            Command::Bisect(args) => assert_eq!(args.lint, LintMode::Prune),
            other => panic!("parsed {other:?}"),
        }
        // Any other prune mode is rejected.
        assert!(parse(&v(&[
            "bisect",
            "mfem",
            "--compilation",
            "icpc -O2",
            "--prune",
            "lint"
        ]))
        .is_err());

        assert_eq!(
            parse(&v(&[
                "bound",
                "mfem",
                "--test",
                "ex13",
                "--pair",
                "g++ -O0",
                "g++ -O3 -mavx2 -mfma",
                "--trace",
                "bound.jsonl"
            ]))
            .unwrap()
            .command,
            Command::Bound(PairArgs {
                app: "mfem".into(),
                test: Some("ex13".into()),
                base: "g++ -O0".into(),
                candidate: "g++ -O3 -mavx2 -mfma".into(),
                trace: Some("bound.jsonl".into()),
            })
        );
        // Missing or one-label pairs fail, same as perf.
        assert!(parse(&v(&["bound", "mfem"])).is_err());
        assert!(parse(&v(&["bound", "mfem", "--pair", "g++ -O0"])).is_err());
    }

    #[test]
    fn parses_perf_with_a_pair_and_protocol_flags() {
        assert_eq!(
            parse(&v(&[
                "perf",
                "mfem",
                "--test",
                "ex19",
                "--pair",
                "icpc -O2",
                "icpc -O2 -prec-div",
                "--samples",
                "16",
                "--alpha",
                "0.01",
                "--seed",
                "7",
                "--jobs",
                "8",
                "--trace",
                "perf.jsonl"
            ]))
            .unwrap()
            .command,
            Command::Perf(PerfArgs {
                pair: PairArgs {
                    app: "mfem".into(),
                    test: Some("ex19".into()),
                    base: "icpc -O2".into(),
                    candidate: "icpc -O2 -prec-div".into(),
                    trace: Some("perf.jsonl".into()),
                },
                samples: Some(16),
                alpha: Some(0.01),
                seed: Some(7),
                exec: ExecArgs {
                    jobs: Some(8),
                    process: None,
                },
            })
        );
        assert_eq!(
            parse(&v(&["perf", "mfem", "--pair", "g++ -O2", "g++ -O3"]))
                .unwrap()
                .command,
            Command::Perf(PerfArgs {
                pair: PairArgs {
                    app: "mfem".into(),
                    test: None,
                    base: "g++ -O2".into(),
                    candidate: "g++ -O3".into(),
                    trace: None,
                },
                samples: None,
                alpha: None,
                seed: None,
                exec: ExecArgs::default(),
            })
        );
        // Missing pair, a one-label pair, and out-of-range alpha all fail.
        assert!(parse(&v(&["perf", "mfem"])).is_err());
        assert!(parse(&v(&["perf", "mfem", "--pair", "g++ -O2"])).is_err());
        assert!(parse(&v(&["perf", "mfem", "--pair", "g++ -O2", "--jobs", "2"])).is_err());
        assert!(parse(&v(&[
            "perf", "mfem", "--pair", "g++ -O2", "g++ -O3", "--alpha", "1.5"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "perf", "mfem", "--pair", "g++ -O2", "g++ -O3", "--seed", "x"
        ]))
        .is_err());
    }

    #[test]
    fn parses_backend_flags_and_the_worker_subcommand() {
        assert_eq!(parse(&v(&["worker"])).unwrap().command, Command::Worker);
        match parse(&v(&[
            "bisect",
            "mfem",
            "--compilation",
            "icpc -O2",
            "--backend",
            "process",
            "--workers",
            "4",
            "--kill-workers",
            "1,2,1",
        ]))
        .unwrap()
        .command
        {
            Command::Bisect(args) => assert_eq!(
                args.exec.process,
                Some(ProcessArgs {
                    workers: 4,
                    kill_schedule: vec![1, 2, 1]
                })
            ),
            other => panic!("parsed {other:?}"),
        }
        match parse(&v(&[
            "workflow",
            "laghos",
            "--backend",
            "process",
            "--jobs",
            "2",
        ]))
        .unwrap()
        .command
        {
            // `--workers` falls back to `--jobs`.
            Command::Workflow(args) => assert_eq!(args.exec.process.map(|p| p.workers), Some(2)),
            other => panic!("parsed {other:?}"),
        }
        match parse(&v(&["fuzz", "--seeds", "0..2", "--backend", "process"]))
            .unwrap()
            .command
        {
            Command::Fuzz(args) => assert!(args.exec.process.is_some()),
            other => panic!("parsed {other:?}"),
        }
        // Unknown backends and malformed kill schedules are errors.
        assert!(parse(&v(&[
            "bisect",
            "mfem",
            "--compilation",
            "icpc -O2",
            "--backend",
            "gpu"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "perf",
            "mfem",
            "--pair",
            "g++ -O2",
            "g++ -O3",
            "--kill-workers",
            "1,x"
        ]))
        .is_err());
    }

    #[test]
    fn parses_serve_and_submit() {
        assert_eq!(
            parse(&v(&[
                "serve",
                "--listen",
                "127.0.0.1:7070",
                "--state-dir",
                "fleet",
                "--max-inflight",
                "4",
                "--backend",
                "process",
                "--workers",
                "3",
                "--trace",
                "serve.jsonl"
            ]))
            .unwrap()
            .command,
            Command::Serve(ServeArgs::Listen(ListenArgs {
                addr: "127.0.0.1:7070".into(),
                state_dir: Some("fleet".into()),
                max_inflight: Some(4),
                exec: ExecArgs {
                    jobs: None,
                    process: Some(ProcessArgs {
                        workers: 3,
                        kill_schedule: vec![]
                    }),
                },
                trace: Some("serve.jsonl".into()),
            }))
        );
        assert_eq!(
            parse(&v(&["serve", "--status", "--connect", "127.0.0.1:7070"]))
                .unwrap()
                .command,
            Command::Serve(ServeArgs::Status {
                connect: "127.0.0.1:7070".into(),
            })
        );
        assert_eq!(
            parse(&v(&["serve", "--shutdown", "--connect", "127.0.0.1:7070"]))
                .unwrap()
                .command,
            Command::Serve(ServeArgs::Shutdown {
                connect: "127.0.0.1:7070".into(),
            })
        );
        assert_eq!(
            parse(&v(&[
                "submit",
                "mfem",
                "--connect",
                "127.0.0.1:7070",
                "--tenant",
                "team-a",
                "--max-bisections",
                "2",
                "--jobs",
                "1"
            ]))
            .unwrap()
            .command,
            Command::Submit(SubmitArgs {
                app: "mfem".into(),
                connect: "127.0.0.1:7070".into(),
                tenant: "team-a".into(),
                max_bisections: Some(2),
                jobs: Some(1),
            })
        );
        // Exactly one serve mode; control endpoints need an address;
        // submissions need a daemon and a tenant.
        assert!(parse(&v(&["serve"])).is_err());
        assert!(parse(&v(&["serve", "--listen", "127.0.0.1:0", "--status"])).is_err());
        assert!(parse(&v(&["serve", "--status"])).is_err());
        assert!(parse(&v(&["serve", "--shutdown"])).is_err());
        // Listen-only flags are errors in the control modes.
        for flag in [
            "--state-dir",
            "--max-inflight",
            "--backend",
            "--workers",
            "--trace",
        ] {
            let args = ["serve", "--status", "--connect", "x", flag, "1"];
            let err = parse(&v(&args)).unwrap_err().0;
            assert!(err.starts_with(&format!("`serve` does not take {flag}\n")));
        }
        assert!(parse(&v(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--backend",
            "gpu"
        ]))
        .is_err());
        assert!(parse(&v(&["submit", "mfem", "--tenant", "team-a"])).is_err());
        assert!(parse(&v(&["submit", "mfem", "--connect", "127.0.0.1:7070"])).is_err());
        assert!(parse(&v(&["submit", "--connect", "x", "--tenant", "t"])).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["run"])).is_err());
        assert!(parse(&v(&["bisect", "mfem"])).is_err());
        assert!(parse(&v(&[
            "bisect",
            "mfem",
            "--compilation",
            "g++ -O2",
            "--biggest",
            "x"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "bisect",
            "mfem",
            "--compilation",
            "g++ -O2",
            "--jobs",
            "-1"
        ]))
        .is_err());
        assert!(parse(&v(&["inject", "lulesh", "--limit", "NaN"])).is_err());
        assert!(parse(&v(&["trace"])).is_err());
        assert!(parse(&v(&["trace", "wf.jsonl", "--top", "many"])).is_err());
        assert!(parse(&v(&["fuzz"])).is_err());
        assert!(parse(&v(&["fuzz", "--seeds", "10"])).is_err());
        assert!(parse(&v(&["fuzz", "--seeds", "9..3"])).is_err());
        assert!(parse(&v(&["fuzz", "--seeds", "5..5"])).is_err());
        assert!(parse(&v(&["fuzz", "--seeds", "0..4", "--budget-secs", "soon"])).is_err());
    }

    #[test]
    fn rejects_flags_the_command_does_not_take() {
        let bisect = |flag: &str| parse(&v(&["bisect", "mfem", "--compilation", "g++ -O2", flag]));
        // The retired lint prune and a typo of it both fail, naming
        // the flag, instead of running an unpruned search.
        for flag in ["--lint-prune", "--lint-prnue"] {
            let err = bisect(flag).unwrap_err();
            assert!(
                err.0.contains(&format!("does not take {flag}")),
                "{}",
                err.0
            );
        }
        assert!(bisect("--lint-seed").is_ok());
        // A typo must not silently run every bisection.
        let err = parse(&v(&["workflow", "laghos", "--max-bisection", "2"])).unwrap_err();
        assert!(err.0.contains("--max-bisection"), "{}", err.0);
        // A flag of another command is not borrowed.
        assert!(parse(&v(&["workflow", "laghos", "--lint-seed"])).is_err());
        assert!(parse(&v(&["apps", "--json"])).is_err());
    }

    /// `--workers` and `--kill-workers` size and kill the worker pool;
    /// without `--backend process` there is none, and the run must not
    /// silently ignore them.
    #[test]
    fn pool_flags_need_the_process_backend() {
        let bisect = ["bisect", "mfem", "--compilation", "g++ -O2"];
        let perf = ["perf", "mfem", "--pair", "g++ -O2", "g++ -O3"];
        let with = |base: &[&str], extra: &[&str]| parse(&v(&[base, extra].concat()));
        for (base, extra, flag) in [
            (
                &bisect[..],
                &["--workers", "3", "--kill-workers", "1,1"][..],
                "--workers",
            ),
            (&bisect, &["--kill-workers", "1"], "--kill-workers"),
            (&perf, &["--workers", "5"], "--workers"),
            (
                &["workflow", "laghos"],
                &["--kill-workers", "2"],
                "--kill-workers",
            ),
            (
                &["serve", "--listen", "127.0.0.1:0"],
                &["--workers", "2"],
                "--workers",
            ),
        ] {
            let err = with(base, extra).unwrap_err().0;
            assert_eq!(
                err,
                format!("{flag} needs --backend process"),
                "{base:?} {extra:?}"
            );
            let pooled = [extra, &["--backend", "process"]].concat();
            assert!(with(base, &pooled).is_ok(), "{base:?} {pooled:?}");
        }
        // The threads backend has no pool either.
        let err = with(&bisect, &["--backend", "threads", "--workers", "2"]).unwrap_err();
        assert_eq!(err.0, "--workers needs --backend process");
    }

    /// The exact text of each parse error, so the wording and the
    /// order in which flags are checked cannot drift.
    #[test]
    fn parse_errors_are_pinned_verbatim() {
        let err = |args: &[&str]| parse(&v(args)).unwrap_err().0;
        let with_usage = |msg: &str| format!("{msg}\n\n{USAGE}");
        for (args, want) in [
            (
                &["bisect", "mfem"][..],
                with_usage("`bisect` needs --compilation"),
            ),
            (
                &["perf", "mfem", "--pair", "g++"],
                with_usage("--pair takes two compilation labels"),
            ),
            (
                &["workflow", "laghos", "--lint", "bogus"],
                "--lint takes `seed` or `prune`, got `bogus`".into(),
            ),
            (
                &["bisect", "mfem", "--compilation", "x", "--prune", "lint"],
                "--prune takes `certified`, got `lint`".into(),
            ),
            (
                &["workflow", "laghos", "--backend", "gpu"],
                "--backend takes `threads` or `process`, got `gpu`".into(),
            ),
            (
                &["workflow", "laghos", "--kill-workers", "a,b"],
                "--kill-workers takes comma-separated counts like 1,2,1, got `a,b`".into(),
            ),
            (
                &["fuzz", "--seeds", "5..2"],
                "--seeds takes an ascending range like 0..1000, got `5..2`".into(),
            ),
            (
                &["serve", "--status"],
                with_usage("`serve --status`/`--shutdown` need --connect <addr>"),
            ),
            (
                &["serve", "--status", "--connect", "x", "--trace", "t.jsonl"],
                with_usage("`serve` does not take --trace"),
            ),
            (
                &["serve", "--shutdown", "--connect", "x", "--state-dir", "d"],
                with_usage("`serve` does not take --state-dir"),
            ),
            (
                &["serve", "--listen", "127.0.0.1:0", "--connect", "x"],
                with_usage("`serve` does not take --connect"),
            ),
            (
                &["submit", "laghos", "--connect", "x"],
                with_usage("`submit` needs --tenant <id>"),
            ),
            (
                &["bisect", "mfem", "--compilation", "x", "--lint-prune"],
                with_usage("`bisect` does not take --lint-prune"),
            ),
            (&["frob"], with_usage("unknown command `frob`")),
        ] {
            assert_eq!(err(args), want, "flit {args:?}");
        }
    }

    #[test]
    fn compilation_labels_round_trip() {
        for label in [
            "g++ -O0",
            "g++ -O3 -mavx2 -mfma -funsafe-math-optimizations",
            "icpc -O2 -fp-model fast=2",
            "xlc++ -O3 -qstrict=vectorprecision",
        ] {
            let c = parse_compilation(label).unwrap();
            assert_eq!(c.label(), label);
        }
        assert!(parse_compilation("tcc -O9").is_err());
    }
}
