//! `flit-serve`: the long-running multi-tenant workflow daemon behind
//! `flit serve`.
//!
//! The paper's workflow is a one-shot CLI run; the ROADMAP's north star
//! is a service where every team in an organization continuously
//! bisects its applications. This crate is that service layer:
//!
//! - **Protocol** ([`protocol`]): one CRC-framed JSON line per message
//!   over TCP — the same bounded [`flit_persist::read_framed`] codec the
//!   checkpoint journal and the coordinator/worker wire use, with an
//!   explicit schema version on every request.
//! - **Scheduling** ([`sched`]): admission control (bounded queue) plus
//!   deterministic round-robin fairness across tenants, so one chatty
//!   tenant cannot starve the rest and the dispatch order is a pure
//!   function of the queue state.
//! - **Daemon** ([`daemon`]): a [`std::net::TcpListener`] accept loop,
//!   a fixed pool of runner threads over the shared
//!   [`flit_exec::ExecBackend`], a per-tenant checkpoint journal
//!   (namespaced under [`flit_persist::tenant_journal_path`]), and a
//!   fleet-wide [`flit_bisect::ledger::QueryLedger`] that deduplicates
//!   identical queries *across tenants* — `exec.queries.shared_hits`
//!   on the daemon's trace sink is exactly the fleet-wide dedup.
//!
//! The crate is deliberately ignorant of the workflow itself: callers
//! implement [`daemon::WorkflowRunner`] (the CLI does, reusing its
//! bundled apps and report renderer), which keeps the daemon reusable
//! and the dependency graph acyclic.

pub mod daemon;
pub mod protocol;
pub mod sched;
