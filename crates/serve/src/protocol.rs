//! The serve wire protocol: one CRC-framed JSON line per message.
//!
//! Requests and responses travel as single lines framed by
//! [`flit_persist::frame_record`] — the exact framing (and validator)
//! used by the checkpoint journal and the coordinator/worker wire, so
//! there is one frame format in the workspace and one place it is
//! checked.
//!
//! **Schema-version rule:** every request carries
//! [`PROTOCOL_VERSION`]. The daemon rejects a version it does not know
//! with a structured [`Response::Error`] naming both versions — the
//! same posture the checkpoint journal takes with its per-record
//! version field. Bump the constant whenever a request or response
//! variant changes shape; never reinterpret an old number.

use std::io::{BufRead, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde::{Deserialize, Serialize};

use flit_persist::{frame_record, unframe_record};

/// The protocol schema version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Largest request frame the daemon reads, newline included (64 KiB).
/// A client that sends more without a newline is refused instead of
/// growing the daemon's memory.
pub const MAX_REQUEST_FRAME: u64 = 64 * 1024;

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
    pub fn version(&self) -> u32 {
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

/// Write one framed message line.
pub fn write_frame<T: Serialize>(w: &mut impl Write, value: &T) -> std::io::Result<()> {
    let payload = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    writeln!(w, "{}", frame_record(&payload))?;
    w.flush()
}

/// Read one framed message line; `Ok(None)` on a clean EOF. A corrupt
/// frame or an unknown message shape is `InvalidData`, never a panic.
pub fn read_frame<T: serde::Deserialize>(r: &mut impl BufRead) -> std::io::Result<Option<T>> {
    read_frame_within(r, u64::MAX)
}

/// [`read_frame`] that reads at most `cap` bytes of the line: a longer
/// line is `InvalidData` naming the cap, and its excess is never
/// buffered.
pub(crate) fn read_frame_within<T: serde::Deserialize>(
    r: &mut impl BufRead,
    cap: u64,
) -> std::io::Result<Option<T>> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut line = Vec::new();
    if r.by_ref()
        .take(cap.saturating_add(1))
        .read_until(b'\n', &mut line)?
        == 0
    {
        return Ok(None);
    }
    if line.len() as u64 > cap {
        return Err(invalid(format!("frame exceeds the {cap}-byte cap")));
    }
    let line = String::from_utf8(line).map_err(|e| invalid(e.to_string()))?;
    let payload = unframe_record(line.trim_end_matches(['\n', '\r']))
        .map_err(|e| invalid(format!("bad frame: {e}")))?;
    let value = serde_json::from_str(payload).map_err(|e| invalid(e.to_string()))?;
    Ok(Some(value))
}

/// One request/response exchange with a daemon at `addr`.
pub fn roundtrip(addr: impl ToSocketAddrs, request: &Request) -> std::io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    write_frame(&mut writer, request)?;
    let mut reader = std::io::BufReader::new(stream);
    read_frame(&mut reader)?.ok_or_else(|| {
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
        write_frame(&mut buf, &req).unwrap();
        let line = String::from_utf8(buf.clone()).unwrap();
        assert!(line.starts_with("{\"crc\":\""), "framed: {line}");
        let back: Request = read_frame(&mut std::io::BufReader::new(&buf[..]))
            .unwrap()
            .unwrap();
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
        write_frame(&mut buf, &resp).unwrap();
        let back: Response = read_frame(&mut std::io::BufReader::new(&buf[..]))
            .unwrap()
            .unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn corrupt_frames_are_structured_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Status { version: 1 }).unwrap();
        // Flip one payload byte: CRC validation rejects the line.
        let corrupted = String::from_utf8(buf).unwrap().replace("Status", "STATUS");
        let err =
            read_frame::<Request>(&mut std::io::BufReader::new(corrupted.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Clean EOF is None, not an error.
        assert!(
            read_frame::<Request>(&mut std::io::BufReader::new(&b""[..]))
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn capped_read_refuses_an_overlong_frame_by_name() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Request::Status {
                version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        let fits = buf.len() as u64;
        let back: Request = read_frame_within(&mut std::io::BufReader::new(&buf[..]), fits)
            .unwrap()
            .unwrap();
        assert_eq!(
            back,
            Request::Status {
                version: PROTOCOL_VERSION
            }
        );
        let err = read_frame_within::<Request>(&mut std::io::BufReader::new(&buf[..]), fits - 1)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&format!("{}-byte cap", fits - 1)),
            "{err}"
        );
    }
}
