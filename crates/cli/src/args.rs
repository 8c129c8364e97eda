//! Hand-rolled argument parsing (no external dependency; the surface is
//! small and stable).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;

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
    Run {
        /// Application name.
        app: String,
        /// Restrict to one compiler (`gcc`, `clang`, `icpc`, `xlc`).
        compiler: Option<String>,
        /// Emit the results database as JSON instead of a table.
        json: bool,
    },
    /// Performance-vs-reproducibility analysis.
    Analyze {
        /// Application name.
        app: String,
    },
    /// Hierarchical File → Symbol bisection of one variable compilation.
    Bisect {
        /// Application name.
        app: String,
        /// Test name (defaults to the app's first test).
        test: Option<String>,
        /// The variable compilation, e.g. `"icpc -O2"` or
        /// `"g++ -O3 -mavx2 -mfma"`.
        compilation: String,
        /// `BisectBiggest(k)` instead of the verifying `BisectAll`.
        biggest: Option<usize>,
        /// Worker threads for the search's Test queries (1 = the serial
        /// algorithm; the result is identical either way).
        jobs: Option<usize>,
        /// Seed speculation from the static prescreen (identical
        /// findings, fewer Test executions).
        lint_seed: bool,
        /// `--prune certified`: drop `Invariant`-certified items using
        /// sound bounds from the abstract interpreter (found sets stay
        /// byte-identical, under a one-query residual audit per pruned
        /// level; implies seeding).
        prune: Option<String>,
        /// Journal every completed Test answer to this file (atomic
        /// appends; safe to kill the process at any point).
        checkpoint: Option<String>,
        /// Replay a checkpoint journal before issuing any live query,
        /// continuing a killed search exactly where it stopped.
        resume: Option<String>,
        /// Execution backend for Test queries: `threads` (default) or
        /// `process` (coordinator + `flit worker` subprocesses).
        backend: Option<String>,
        /// Worker count for the process backend.
        workers: Option<usize>,
        /// Deterministic worker-kill schedule (testing): the i-th
        /// spawned worker exits right before its n_i-th answer.
        kill_workers: Option<Vec<u64>>,
    },
    /// Statistical performance bisect: confirm a compilation is slower
    /// than another, then root-cause the slowdown to files and symbols
    /// with a confidence interval and Welch verdict on every claim.
    Perf {
        /// Application name.
        app: String,
        /// Test name (defaults to the app's first test).
        test: Option<String>,
        /// Baseline compilation label, e.g. `"icpc -O2"`.
        base: String,
        /// Candidate compilation label, e.g. `"icpc -O2 -prec-div"`.
        candidate: String,
        /// Timing samples per executable (default 8).
        samples: Option<usize>,
        /// Significance level for the Welch tests (default 0.05).
        alpha: Option<f64>,
        /// Noise-model seed (default 42).
        seed: Option<u64>,
        /// Worker threads for the search's timing queries (the result
        /// is byte-identical at any width).
        jobs: Option<usize>,
        /// Write a JSONL trace of the search here.
        trace: Option<String>,
        /// Execution backend for timing queries: `threads` (default) or
        /// `process`.
        backend: Option<String>,
        /// Worker count for the process backend.
        workers: Option<usize>,
        /// Deterministic worker-kill schedule (testing).
        kill_workers: Option<Vec<u64>>,
    },
    /// Certified per-pair divergence bounds: run the abstract
    /// interpreter over one compilation pair and print every item's
    /// certificate without executing anything.
    Bound {
        /// Application name.
        app: String,
        /// Test name scoping the driver (defaults to the app's first
        /// test).
        test: Option<String>,
        /// Baseline compilation label, e.g. `"g++ -O0"`.
        base: String,
        /// Candidate compilation label, e.g. `"g++ -O3 -mavx2 -mfma"`.
        candidate: String,
        /// Write a JSONL trace (with `absint.*` counters) here.
        trace: Option<String>,
    },
    /// Static analysis report: the certificates of a compilation pair
    /// against the baseline, its warnings and the hazard lints, without
    /// running anything.
    Lint {
        /// Application name.
        app: String,
        /// Test name scoping reachability (defaults to the app's first
        /// test).
        test: Option<String>,
        /// The variable compilation (defaults to
        /// `g++ -O3 -mavx2 -mfma -funsafe-math-optimizations`).
        compilation: Option<String>,
    },
    /// Run the perturbation-injection study.
    Inject {
        /// Application name.
        app: String,
        /// Cap the number of sites (all four OP's still run per site).
        limit: Option<usize>,
    },
    /// The full Figure-1 workflow: determinism check → sweep → analysis
    /// → bisect everything variable.
    Workflow {
        /// Application name.
        app: String,
        /// Cap on bisections (default: all).
        max_bisections: Option<usize>,
        /// Worker threads for the bisection stage (searches fan out on
        /// one shared executor; the report is identical at any width).
        jobs: Option<usize>,
        /// Write a JSONL trace of the whole workflow here.
        trace: Option<String>,
        /// Static prescreen mode for the bisection stage: `seed`, or
        /// `prune` for the certified prune (default: off).
        lint: Option<String>,
        /// Journal every completed bisection Test answer to this file.
        checkpoint: Option<String>,
        /// Replay a checkpoint journal before the bisection stage.
        resume: Option<String>,
        /// Execution backend for the bisection stage's Test queries:
        /// `threads` (default) or `process`.
        backend: Option<String>,
        /// Worker count for the process backend.
        workers: Option<usize>,
        /// Deterministic worker-kill schedule (testing).
        kill_workers: Option<Vec<u64>>,
    },
    /// Generative differential-testing campaign: random codebases with
    /// planted blame sets, checked against the whole pipeline.
    Fuzz {
        /// Seed range, inclusive start, exclusive end.
        seeds: (u64, u64),
        /// Wall-clock budget in seconds (default: run the whole range).
        budget_secs: Option<u64>,
        /// Shrink divergent seeds and print fixture snippets.
        shrink: bool,
        /// Width of the parallel cross-check (default 8; 1 skips it).
        jobs: Option<usize>,
        /// Write a JSONL trace of the campaign here.
        trace: Option<String>,
        /// `process` additionally cross-checks every corpus seed
        /// against `flit worker` subprocesses (default: threads only).
        backend: Option<String>,
    },
    /// Summarize a JSONL trace produced by `flit workflow --trace`.
    Trace {
        /// Path to the JSONL trace file.
        file: String,
        /// How many slowest compilations to show (default 10).
        top: Option<usize>,
    },
    /// Serve Test/Time queries over stdin/stdout for a coordinator
    /// (the worker half of the `process` execution backend).
    Worker,
    /// The multi-tenant workflow daemon and its control endpoints.
    Serve {
        /// Listen address (e.g. `127.0.0.1:7070`, port 0 for
        /// ephemeral). Present = run the daemon (blocks until a
        /// shutdown request drains it).
        listen: Option<String>,
        /// Query a running daemon's fleet status instead.
        status: bool,
        /// Drain and stop a running daemon instead.
        shutdown: bool,
        /// Daemon address for `--status` / `--shutdown`.
        connect: Option<String>,
        /// Root of the daemon's persistent state (per-tenant journals
        /// live under `<dir>/tenants/`). Default `flit-serve-state`.
        state_dir: Option<String>,
        /// Concurrent submissions executed (runner threads).
        max_inflight: Option<usize>,
        /// Execution backend for submissions' bisection queries:
        /// `threads` (default) or `process` (one shared worker pool,
        /// drained at shutdown).
        backend: Option<String>,
        /// Worker count for the process backend.
        workers: Option<usize>,
        /// Export the daemon's JSONL trace here during shutdown drain
        /// (render with `flit trace`; includes the Fleet table).
        trace: Option<String>,
    },
    /// Submit one workflow to a running daemon and print the report.
    Submit {
        /// Application name.
        app: String,
        /// Daemon address.
        connect: String,
        /// Tenant id (namespaces the daemon-side checkpoint journal).
        tenant: String,
        /// Cap on bisections (default: all).
        max_bisections: Option<usize>,
        /// Worker threads for the workflow's bisection stage.
        jobs: Option<usize>,
    },
    /// Print usage.
    Help,
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
pub const USAGE: &str = "\
flit — compiler-induced variability tester (FLiT reproduction)

USAGE:
  flit apps
  flit run <app> [--compiler gcc|clang|icpc|xlc] [--json]
  flit analyze <app>
  flit bisect <app> --compilation \"<compiler -On [flags]>\" [--test <name>] [--biggest <k>] [--jobs <n>] [--lint-seed] [--prune certified] [--checkpoint <file.jsonl>] [--resume <file.jsonl>] [--backend threads|process] [--workers <n>]
  flit perf <app> --pair \"<base>\" \"<candidate>\" [--test <name>] [--samples <n>] [--alpha <a>] [--seed <s>] [--jobs <n>] [--trace <file.jsonl>] [--backend threads|process] [--workers <n>]
  flit bound <app> --pair \"<base>\" \"<candidate>\" [--test <name>] [--trace <file.jsonl>]
  flit lint <app> [--compilation \"<compiler -On [flags]>\"] [--test <name>]
  flit inject <app> [--limit <n-sites>]
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

`flit bound` prints the abstract interpreter's certificates for a
pair; `flit lint` prints the same tables against the g++ -O0 baseline,
then mixed-ABI and link-step warnings and the hazard lints.
`--lint-seed` (bisect) and `--lint seed` (workflow) order speculation
by the certificates' bounds; `--prune certified` (bisect) and
`--lint prune` (workflow) also drop the items certified Invariant,
under a one-query residual audit per pruned level.
A flag the command does not take is an error.
";

/// Parse a command line (excluding the program name).
pub fn parse(args: &[String]) -> Result<Cli, ParseError> {
    let mut it = args.iter();
    let cmd = it.next().map_or("help", String::as_str);
    let rest: Vec<&String> = it.collect();
    // Every flag name the command's arm asks for; any other `--token`
    // is rejected once the arm has parsed.
    let asked: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let ask = |name: &str| {
        asked.borrow_mut().insert(name.to_string());
    };
    let flag_value = |name: &str| -> Option<String> {
        ask(name);
        rest.iter()
            .position(|a| a.as_str() == name)
            .and_then(|i| rest.get(i + 1))
            .map(ToString::to_string)
    };
    let has_flag = |name: &str| {
        ask(name);
        rest.iter().any(|a| a.as_str() == name)
    };
    let positional = || -> Result<String, ParseError> {
        rest.first()
            .filter(|a| !a.starts_with("--"))
            .map(ToString::to_string)
            .ok_or_else(|| ParseError(format!("`{cmd}` needs an application name\n\n{USAGE}")))
    };

    let num_flag = |name: &str| -> Result<Option<usize>, ParseError> {
        match flag_value(name) {
            Some(v) => v
                .parse::<usize>()
                .map(Some)
                .map_err(|_| ParseError(format!("{name} takes a number, got `{v}`"))),
            None => Ok(None),
        }
    };

    let backend_flag = || -> Result<Option<String>, ParseError> {
        match flag_value("--backend") {
            Some(v) if v == "threads" || v == "process" => Ok(Some(v)),
            Some(v) => Err(ParseError(format!(
                "--backend takes `threads` or `process`, got `{v}`"
            ))),
            None => Ok(None),
        }
    };
    let kill_flag = || -> Result<Option<Vec<u64>>, ParseError> {
        match flag_value("--kill-workers") {
            Some(v) => v
                .split(',')
                .map(|p| {
                    p.trim().parse::<u64>().map_err(|_| {
                        ParseError(format!(
                            "--kill-workers takes comma-separated counts like 1,2,1, got `{v}`"
                        ))
                    })
                })
                .collect::<Result<Vec<u64>, ParseError>>()
                .map(Some),
            None => Ok(None),
        }
    };

    let pair_labels = || -> Result<(String, String), ParseError> {
        ask("--pair");
        let pair_at = rest
            .iter()
            .position(|a| a.as_str() == "--pair")
            .ok_or_else(|| {
                ParseError(format!(
                    "`{cmd}` needs --pair \"<base>\" \"<candidate>\"\n\n{USAGE}"
                ))
            })?;
        let pair_label = |off: usize| -> Result<String, ParseError> {
            rest.get(pair_at + off)
                .filter(|a| !a.starts_with("--"))
                .map(ToString::to_string)
                .ok_or_else(|| {
                    ParseError(format!("--pair takes two compilation labels\n\n{USAGE}"))
                })
        };
        Ok((pair_label(1)?, pair_label(2)?))
    };

    let command = match cmd {
        "apps" => Command::Apps,
        "run" => Command::Run {
            app: positional()?,
            compiler: flag_value("--compiler"),
            json: has_flag("--json"),
        },
        "analyze" => Command::Analyze { app: positional()? },
        "bisect" => {
            let compilation = flag_value("--compilation")
                .ok_or_else(|| ParseError(format!("`bisect` needs --compilation\n\n{USAGE}")))?;
            let prune = flag_value("--prune");
            if let Some(mode) = &prune {
                if mode != "certified" {
                    return Err(ParseError(format!(
                        "--prune takes `certified`, got `{mode}`"
                    )));
                }
            }
            Command::Bisect {
                app: positional()?,
                test: flag_value("--test"),
                compilation,
                biggest: num_flag("--biggest")?,
                jobs: num_flag("--jobs")?,
                lint_seed: has_flag("--lint-seed"),
                prune,
                checkpoint: flag_value("--checkpoint"),
                resume: flag_value("--resume"),
                backend: backend_flag()?,
                workers: num_flag("--workers")?,
                kill_workers: kill_flag()?,
            }
        }
        "perf" => {
            let (base, candidate) = pair_labels()?;
            let alpha = match flag_value("--alpha") {
                Some(v) => Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|a| *a > 0.0 && *a < 1.0)
                        .ok_or_else(|| {
                            ParseError(format!("--alpha takes a number in (0, 1), got `{v}`"))
                        })?,
                ),
                None => None,
            };
            let seed = match flag_value("--seed") {
                Some(v) => Some(
                    v.parse::<u64>()
                        .map_err(|_| ParseError(format!("--seed takes a number, got `{v}`")))?,
                ),
                None => None,
            };
            Command::Perf {
                app: positional()?,
                test: flag_value("--test"),
                base,
                candidate,
                samples: num_flag("--samples")?,
                alpha,
                seed,
                jobs: num_flag("--jobs")?,
                trace: flag_value("--trace"),
                backend: backend_flag()?,
                workers: num_flag("--workers")?,
                kill_workers: kill_flag()?,
            }
        }
        "bound" => {
            let (base, candidate) = pair_labels()?;
            Command::Bound {
                app: positional()?,
                test: flag_value("--test"),
                base,
                candidate,
                trace: flag_value("--trace"),
            }
        }
        "lint" => Command::Lint {
            app: positional()?,
            test: flag_value("--test"),
            compilation: flag_value("--compilation"),
        },
        "inject" => Command::Inject {
            app: positional()?,
            limit: num_flag("--limit")?,
        },
        "workflow" => {
            let lint = flag_value("--lint");
            if let Some(mode) = &lint {
                if mode != "seed" && mode != "prune" {
                    return Err(ParseError(format!(
                        "--lint takes `seed` or `prune`, got `{mode}`"
                    )));
                }
            }
            Command::Workflow {
                app: positional()?,
                max_bisections: num_flag("--max-bisections")?,
                jobs: num_flag("--jobs")?,
                trace: flag_value("--trace"),
                lint,
                checkpoint: flag_value("--checkpoint"),
                resume: flag_value("--resume"),
                backend: backend_flag()?,
                workers: num_flag("--workers")?,
                kill_workers: kill_flag()?,
            }
        }
        "fuzz" => {
            let spec = flag_value("--seeds")
                .ok_or_else(|| ParseError(format!("`fuzz` needs --seeds <a>..<b>\n\n{USAGE}")))?;
            let seeds = spec
                .split_once("..")
                .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)))
                .filter(|(a, b)| a < b)
                .ok_or_else(|| {
                    ParseError(format!(
                        "--seeds takes an ascending range like 0..1000, got `{spec}`"
                    ))
                })?;
            let budget_secs =
                match flag_value("--budget-secs") {
                    Some(v) => Some(v.parse::<u64>().map_err(|_| {
                        ParseError(format!("--budget-secs takes a number, got `{v}`"))
                    })?),
                    None => None,
                };
            Command::Fuzz {
                seeds,
                budget_secs,
                shrink: has_flag("--shrink"),
                jobs: num_flag("--jobs")?,
                trace: flag_value("--trace"),
                backend: backend_flag()?,
            }
        }
        "trace" => {
            let file = rest
                .first()
                .filter(|a| !a.starts_with("--"))
                .map(ToString::to_string)
                .ok_or_else(|| ParseError(format!("`trace` needs a trace file\n\n{USAGE}")))?;
            Command::Trace {
                file,
                top: num_flag("--top")?,
            }
        }
        "serve" => {
            let listen = flag_value("--listen");
            let status = has_flag("--status");
            let shutdown = has_flag("--shutdown");
            let modes = usize::from(listen.is_some()) + usize::from(status) + usize::from(shutdown);
            if modes != 1 {
                return Err(ParseError(format!(
                    "`serve` takes exactly one of --listen <addr>, --status, --shutdown\n\n{USAGE}"
                )));
            }
            let connect = flag_value("--connect");
            if (status || shutdown) && connect.is_none() {
                return Err(ParseError(format!(
                    "`serve --status`/`--shutdown` need --connect <addr>\n\n{USAGE}"
                )));
            }
            Command::Serve {
                listen,
                status,
                shutdown,
                connect,
                state_dir: flag_value("--state-dir"),
                max_inflight: num_flag("--max-inflight")?,
                backend: backend_flag()?,
                workers: num_flag("--workers")?,
                trace: flag_value("--trace"),
            }
        }
        "submit" => {
            let connect = flag_value("--connect")
                .ok_or_else(|| ParseError(format!("`submit` needs --connect <addr>\n\n{USAGE}")))?;
            let tenant = flag_value("--tenant")
                .ok_or_else(|| ParseError(format!("`submit` needs --tenant <id>\n\n{USAGE}")))?;
            Command::Submit {
                app: positional()?,
                connect,
                tenant,
                max_bisections: num_flag("--max-bisections")?,
                jobs: num_flag("--jobs")?,
            }
        }
        "worker" => Command::Worker,
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(ParseError(format!("unknown command `{other}`\n\n{USAGE}"))),
    };
    let asked = asked.borrow();
    if let Some(unknown) = rest
        .iter()
        .find(|a| a.starts_with("--") && !asked.contains(a.as_str()))
    {
        return Err(ParseError(format!(
            "`{cmd}` does not take {unknown}\n\n{USAGE}"
        )));
    }
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
            Command::Run {
                app: "mfem".into(),
                compiler: Some("gcc".into()),
                json: true
            }
        );
        assert_eq!(
            parse(&v(&["analyze", "laghos"])).unwrap().command,
            Command::Analyze {
                app: "laghos".into()
            }
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
            Command::Bisect {
                app: "mfem".into(),
                test: Some("ex13".into()),
                compilation: "icpc -O2".into(),
                biggest: Some(2),
                jobs: Some(8),
                lint_seed: false,
                prune: None,
                checkpoint: None,
                resume: None,
                backend: None,
                workers: None,
                kill_workers: None,
            }
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
            Command::Bisect {
                app: "mfem".into(),
                test: None,
                compilation: "icpc -O2".into(),
                biggest: None,
                jobs: None,
                lint_seed: true,
                prune: None,
                checkpoint: None,
                resume: None,
                backend: None,
                workers: None,
                kill_workers: None,
            }
        );
        assert_eq!(
            parse(&v(&["lint", "mfem", "--test", "ex13"]))
                .unwrap()
                .command,
            Command::Lint {
                app: "mfem".into(),
                test: Some("ex13".into()),
                compilation: None,
            }
        );
        assert_eq!(
            parse(&v(&["inject", "lulesh", "--limit", "10"]))
                .unwrap()
                .command,
            Command::Inject {
                app: "lulesh".into(),
                limit: Some(10)
            }
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
            Command::Workflow {
                app: "laghos".into(),
                max_bisections: Some(3),
                jobs: Some(4),
                trace: Some("wf.jsonl".into()),
                lint: None,
                checkpoint: None,
                resume: None,
                backend: None,
                workers: None,
                kill_workers: None,
            }
        );
        assert_eq!(
            parse(&v(&["trace", "wf.jsonl", "--top", "5"]))
                .unwrap()
                .command,
            Command::Trace {
                file: "wf.jsonl".into(),
                top: Some(5)
            }
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
            Command::Fuzz {
                seeds: (0, 1000),
                budget_secs: Some(60),
                shrink: true,
                jobs: Some(4),
                trace: Some("fuzz.jsonl".into()),
                backend: None,
            }
        );
        assert_eq!(
            parse(&v(&["fuzz", "--seeds", "7..13"])).unwrap().command,
            Command::Fuzz {
                seeds: (7, 13),
                budget_secs: None,
                shrink: false,
                jobs: None,
                trace: None,
                backend: None,
            }
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
            Command::Bisect { prune, .. } => assert_eq!(prune.as_deref(), Some("certified")),
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
            Command::Bound {
                app: "mfem".into(),
                test: Some("ex13".into()),
                base: "g++ -O0".into(),
                candidate: "g++ -O3 -mavx2 -mfma".into(),
                trace: Some("bound.jsonl".into()),
            }
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
            Command::Perf {
                app: "mfem".into(),
                test: Some("ex19".into()),
                base: "icpc -O2".into(),
                candidate: "icpc -O2 -prec-div".into(),
                samples: Some(16),
                alpha: Some(0.01),
                seed: Some(7),
                jobs: Some(8),
                trace: Some("perf.jsonl".into()),
                backend: None,
                workers: None,
                kill_workers: None,
            }
        );
        assert_eq!(
            parse(&v(&["perf", "mfem", "--pair", "g++ -O2", "g++ -O3"]))
                .unwrap()
                .command,
            Command::Perf {
                app: "mfem".into(),
                test: None,
                base: "g++ -O2".into(),
                candidate: "g++ -O3".into(),
                samples: None,
                alpha: None,
                seed: None,
                jobs: None,
                trace: None,
                backend: None,
                workers: None,
                kill_workers: None,
            }
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
            Command::Bisect {
                backend,
                workers,
                kill_workers,
                ..
            } => {
                assert_eq!(backend.as_deref(), Some("process"));
                assert_eq!(workers, Some(4));
                assert_eq!(kill_workers, Some(vec![1, 2, 1]));
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&v(&[
            "workflow",
            "laghos",
            "--backend",
            "threads",
            "--workers",
            "2",
        ]))
        .unwrap()
        .command
        {
            Command::Workflow {
                backend, workers, ..
            } => {
                assert_eq!(backend.as_deref(), Some("threads"));
                assert_eq!(workers, Some(2));
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&v(&["fuzz", "--seeds", "0..2", "--backend", "process"]))
            .unwrap()
            .command
        {
            Command::Fuzz { backend, .. } => assert_eq!(backend.as_deref(), Some("process")),
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
            Command::Serve {
                listen: Some("127.0.0.1:7070".into()),
                status: false,
                shutdown: false,
                connect: None,
                state_dir: Some("fleet".into()),
                max_inflight: Some(4),
                backend: Some("process".into()),
                workers: Some(3),
                trace: Some("serve.jsonl".into()),
            }
        );
        assert_eq!(
            parse(&v(&["serve", "--status", "--connect", "127.0.0.1:7070"]))
                .unwrap()
                .command,
            Command::Serve {
                listen: None,
                status: true,
                shutdown: false,
                connect: Some("127.0.0.1:7070".into()),
                state_dir: None,
                max_inflight: None,
                backend: None,
                workers: None,
                trace: None,
            }
        );
        assert_eq!(
            parse(&v(&["serve", "--shutdown", "--connect", "127.0.0.1:7070"]))
                .unwrap()
                .command,
            Command::Serve {
                listen: None,
                status: false,
                shutdown: true,
                connect: Some("127.0.0.1:7070".into()),
                state_dir: None,
                max_inflight: None,
                backend: None,
                workers: None,
                trace: None,
            }
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
            Command::Submit {
                app: "mfem".into(),
                connect: "127.0.0.1:7070".into(),
                tenant: "team-a".into(),
                max_bisections: Some(2),
                jobs: Some(1),
            }
        );
        // Exactly one serve mode; control endpoints need an address;
        // submissions need a daemon and a tenant.
        assert!(parse(&v(&["serve"])).is_err());
        assert!(parse(&v(&["serve", "--listen", "127.0.0.1:0", "--status"])).is_err());
        assert!(parse(&v(&["serve", "--status"])).is_err());
        assert!(parse(&v(&["serve", "--shutdown"])).is_err());
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
