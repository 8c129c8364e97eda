//! `flitbench`: run one benchmark workload and print its metrics.
//!
//! ```text
//! flitbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! flitbench worker        # process-backend worker (spawned by the fleet workload)
//! ```
//!
//! The human-readable table goes to standard error; standard output
//! carries the seed echo and, as its last line, the JSON result.

use std::process::ExitCode;

use flitbench::{run, RunArgs, WORKLOADS};

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or_else(|| {
        format!(
            "--workload is required (available: {})",
            WORKLOADS.join(", ")
        )
    })?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (available: {})",
            WORKLOADS.join(", ")
        ));
    }
    let work_dir = std::env::current_dir()
        .map_err(|e| format!("cannot read the working directory: {e}"))?
        .join(".bench_work")
        .join(format!("{workload}-{}", std::process::id()));
    let worker_exe =
        std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
        worker_exe,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        return match flit_cli::run_worker() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("flitbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flitbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "flitbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    match result {
        Ok(outcome) => {
            eprint!("{}", outcome.to_table(&args));
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flitbench: {e}");
            ExitCode::FAILURE
        }
    }
}
