//! The serve wire protocol: one CRC-framed JSON line per message.
//!
//! Requests and responses travel as single lines through the
//! [`flit_persist`] framed codec ([`write_framed`]/[`read_framed`]) —
//! the exact framing, byte cap and bounded JSON parse used by the
//! checkpoint journal and the coordinator/worker wire, so there is one
//! frame format in the workspace and one place it is checked.
//!
//! **Schema-version rule:** every request carries
//! [`PROTOCOL_VERSION`]. The daemon rejects a version it does not know
//! with a structured [`Response::Error`] naming both versions — the
//! same posture the checkpoint journal takes with its per-record
//! version field. Bump the constant whenever a request or response
//! variant changes shape; never reinterpret an old number.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use flit_persist::{read_framed, write_framed};

/// The protocol schema version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Largest request frame the daemon reads, newline included (64 KiB).
/// A client that sends more without a newline is refused instead of
/// growing the daemon's memory.
pub const MAX_REQUEST_FRAME: u64 = 64 * 1024;

/// How long each read of a connected client's request may block. A
/// client that sends nothing in time is refused, so it cannot hold its
/// connection thread forever.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit one workflow run for a tenant and block for its report.
    Submit {
        /// Protocol schema version ([`PROTOCOL_VERSION`]).
        version: u32,
        /// Tenant id: namespaces the checkpoint journal and the
        /// fair-scheduling queue. Free-form; sanitized before touching
        /// the filesystem.
        tenant: String,
        /// The bundled application to run (as `flit workflow <app>`).
        app: String,
        /// Cap on bisections (`None` = all).
        max_bisections: Option<usize>,
        /// Worker threads for the workflow's bisection stage.
        jobs: Option<usize>,
    },
    /// Ask for the daemon's fleet status.
    Status {
        /// Protocol schema version ([`PROTOCOL_VERSION`]).
        version: u32,
    },
    /// Drain and stop the daemon: in-flight and queued jobs finish,
    /// new submissions are refused, the backend is drained, then the
    /// acknowledgement is sent.
    Shutdown {
        /// Protocol schema version ([`PROTOCOL_VERSION`]).
        version: u32,
    },
}

impl Request {
    /// The version the peer claimed to speak.
    pub(crate) fn version(&self) -> u32 {
        match self {
            Request::Submit { version, .. }
            | Request::Status { version }
            | Request::Shutdown { version } => *version,
        }
    }
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A completed workflow submission.
    Report {
        /// The tenant the report belongs to.
        tenant: String,
        /// The rendered workflow report — byte-identical to a serial
        /// `flit workflow` run of the same submission.
        body: String,
        /// The job's simulated seconds (the latency unit the status
        /// endpoint aggregates).
        simulated_seconds: f64,
    },
    /// Fleet status.
    Status(StatusReport),
    /// Shutdown acknowledged: everything drained.
    ShutdownAck {
        /// Submissions completed over the daemon's lifetime.
        completed: u64,
    },
    /// A structured refusal or failure (bad version, admission
    /// control, workflow error). Never a process abort.
    Error {
        /// What went wrong, for the human on the other end.
        message: String,
    },
}

/// Fleet-wide physical query counters, summed over every per-app
/// fleet ledger (the daemon-side view of `exec.queries.*`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetStats {
    /// Queries actually evaluated, fleet-wide.
    pub executed: u64,
    /// Same-origin repeat hits at the fleet table.
    pub memoized: u64,
    /// Cross-tenant deduplicated hits — the headline metric.
    pub shared_hits: u64,
}

/// Latency summary of the submit endpoint, in *simulated seconds*
/// (deterministic, so published targets are stable in CI), reported
/// the way Touati argues performance claims must be: with a Student-t
/// confidence interval, not a bare point estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Completed submissions in the sample.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Student-t CI lower bound at `level`.
    pub ci_lo: f64,
    /// Student-t CI upper bound at `level`.
    pub ci_hi: f64,
    /// Confidence level of the interval (e.g. 0.95).
    pub level: f64,
    /// 95th-percentile latency.
    pub p95: f64,
}

/// The `flit serve --status` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Protocol schema version the daemon speaks.
    pub version: u32,
    /// Distinct tenants seen since start, lexicographically sorted.
    pub tenants: Vec<String>,
    /// Submissions accepted.
    pub submissions: u64,
    /// Submissions completed (response produced).
    pub completed: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Fleet-wide query dedup counters.
    pub fleet: FleetStats,
    /// Submit-endpoint latency summary (`None` until a submission
    /// completes).
    pub latency: Option<LatencySummary>,
}

/// One request/response exchange with a daemon at `addr`.
pub fn roundtrip(addr: impl ToSocketAddrs, request: &Request) -> std::io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    write_framed(&stream, request)?;
    // A response carries at most one rendered workflow report; the
    // worker wire's cap bounds it with wide margin.
    read_framed(std::io::BufReader::new(stream), flit_exec::MAX_WIRE_FRAME)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection without responding",
        )
    })
}

/// Submit one workflow and block for the tenant's report.
pub fn submit(
    addr: impl ToSocketAddrs,
    tenant: &str,
    app: &str,
    max_bisections: Option<usize>,
    jobs: Option<usize>,
) -> std::io::Result<Response> {
    roundtrip(
        addr,
        &Request::Submit {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
            app: app.to_string(),
            max_bisections,
            jobs,
        },
    )
}

/// Fetch the daemon's fleet status.
pub fn status(addr: impl ToSocketAddrs) -> std::io::Result<Response> {
    roundtrip(
        addr,
        &Request::Status {
            version: PROTOCOL_VERSION,
        },
    )
}

/// Drain and stop the daemon.
pub fn shutdown(addr: impl ToSocketAddrs) -> std::io::Result<Response> {
    roundtrip(
        addr,
        &Request::Shutdown {
            version: PROTOCOL_VERSION,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_and_responses_round_trip_framed() {
        let req = Request::Submit {
            version: PROTOCOL_VERSION,
            tenant: "team-a".into(),
            app: "mfem".into(),
            max_bisections: Some(3),
            jobs: None,
        };
        let mut buf = Vec::new();
        write_framed(&mut buf, &req).unwrap();
        let line = String::from_utf8(buf.clone()).unwrap();
        assert!(line.starts_with("{\"crc\":\""), "framed: {line}");
        let back: Request = read_framed(&buf[..], MAX_REQUEST_FRAME).unwrap().unwrap();
        assert_eq!(back, req);
        assert_eq!(back.version(), PROTOCOL_VERSION);

        let resp = Response::Status(StatusReport {
            version: PROTOCOL_VERSION,
            tenants: vec!["a".into(), "b".into()],
            submissions: 4,
            completed: 4,
            rejected: 1,
            fleet: FleetStats {
                executed: 10,
                memoized: 2,
                shared_hits: 7,
            },
            latency: Some(LatencySummary {
                n: 4,
                mean: 1.5,
                ci_lo: 1.2,
                ci_hi: 1.8,
                level: 0.95,
                p95: 1.9,
            }),
        });
        let mut buf = Vec::new();
        write_framed(&mut buf, &resp).unwrap();
        let back: Response = read_framed(&buf[..], MAX_REQUEST_FRAME).unwrap().unwrap();
        assert_eq!(back, resp);
    }
}
