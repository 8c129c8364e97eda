//! # flit-cli
//!
//! Library backing the `flit` command-line tool (argument parsing and
//! command implementations live here so they can be unit-tested; the
//! binary is a thin wrapper).
//!
//! The subcommand surface mirrors the real FLiT tool; `flit help`
//! prints it (`args::USAGE`). Each subcommand parses once into its
//! struct in [`args`] (`flit bisect` → [`args::BisectArgs`]), which its
//! function in [`commands`] takes.

pub mod apps;
pub mod args;
pub mod commands;
pub mod render;
pub mod serve;
pub mod worker;

pub use apps::{resolve_app, BundledApp};
pub use args::{parse, Cli, Command};
pub use worker::run_worker;
