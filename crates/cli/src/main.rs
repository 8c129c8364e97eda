//! The `flit` binary: thin wrapper over `flit_cli`.

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match flit_cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The worker subcommand is an interactive protocol loop over
    // stdin/stdout, not a report-producing command.
    if cli.command == flit_cli::Command::Worker {
        return match flit_cli::run_worker() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("worker error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match flit_cli::commands::execute(&cli) {
        Ok(report) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{report}").and_then(|()| stdout.flush()) {
                // A reader that stopped early (`flit ... | head`) wants
                // no more output; that is not a failure.
                Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                    eprintln!("error: cannot write the report: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
