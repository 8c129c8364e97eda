//! End-to-end tests of the `flit serve` multi-tenant workflow daemon.
//!
//! Every test spawns the real `flit` binary as the daemon — so the
//! daemon resolves its own executable for `flit worker` subprocesses
//! under `--backend process`, the exact production path — and drives
//! it with the real `flit submit` / `flit serve --status` /
//! `flit serve --shutdown` clients. The invariants under test are the
//! issue's acceptance bar: concurrent multi-tenant submissions must be
//! byte-identical to serial `flit workflow` runs (under both execution
//! backends, and across a daemon kill-and-restart), and the fleet's
//! cross-tenant dedup must be strictly positive and surfaced.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WORKFLOW: &[&str] = &["workflow", "laghos", "--max-bisections", "2"];

fn flit(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_flit"))
        .args(args)
        .output()
        .expect("flit binary runs");
    assert!(
        out.status.success(),
        "flit {args:?} failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flit-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawn a daemon on an ephemeral port and wait for it to advertise
/// its address via `<state_dir>/serve.addr`.
fn spawn_daemon(dir: &Path, extra: &[&str]) -> (Child, String) {
    let addr_file = dir.join("serve.addr");
    // A previous daemon over the same state dir left its address
    // behind; make sure we wait for the *new* daemon's file.
    let _ = std::fs::remove_file(&addr_file);
    let child = Command::new(env!("CARGO_BIN_EXE_flit"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--state-dir",
            &dir.to_string_lossy(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            if !addr.trim().is_empty() {
                break addr.trim().to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never advertised its address in {}",
            addr_file.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

fn shutdown_daemon(mut child: Child, addr: &str) {
    let ack = flit(&["serve", "--shutdown", "--connect", addr]);
    assert!(ack.contains("drained and stopped"), "{ack}");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly after a drain");
}

/// Pull one `<label>: ...` value line out of the rendered status report.
fn status_line(status: &str, label: &str) -> String {
    status
        .lines()
        .find(|l| l.starts_with(label))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{status}"))
        .to_string()
}

fn shared_hits(status: &str) -> u64 {
    let line = status_line(status, "fleet queries:");
    line.split(',')
        .find(|part| part.contains("shared hits"))
        .and_then(|part| part.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable fleet line: {line}"))
}

fn fleet_executed(status: &str) -> u64 {
    let line = status_line(status, "fleet queries:");
    line.split(':')
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable fleet line: {line}"))
}

#[test]
fn concurrent_tenants_are_byte_identical_to_serial_and_dedupe_fleet_wide() {
    let serial = flit(WORKFLOW);
    let dir = state_dir("threads");
    let (child, addr) = spawn_daemon(&dir, &["--max-inflight", "3"]);

    let tenants = ["team-a", "team-b", "team-c"];
    let handles: Vec<_> = tenants
        .into_iter()
        .map(|tenant| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                flit(&[
                    "submit",
                    "laghos",
                    "--connect",
                    &addr,
                    "--tenant",
                    tenant,
                    "--max-bisections",
                    "2",
                ])
            })
        })
        .collect();
    for handle in handles {
        let body = handle.join().unwrap();
        assert_eq!(
            body, serial,
            "a daemon submission must be byte-identical to the serial CLI"
        );
    }

    let status = flit(&["serve", "--status", "--connect", &addr]);
    assert!(
        status_line(&status, "tenants").contains("team-a, team-b, team-c"),
        "{status}"
    );
    assert!(
        status_line(&status, "submissions:").contains("3 accepted, 3 completed, 0 rejected"),
        "{status}"
    );
    // Three tenants ran the identical workflow: all of the 2nd and 3rd
    // tenants' physical queries dedupe against the first's.
    let hits = shared_hits(&status);
    assert!(
        hits > 0,
        "cross-tenant dedup must be strictly positive:\n{status}"
    );
    let executed = fleet_executed(&status);
    assert!(executed > 0, "{status}");
    assert!(
        hits >= 2 * executed,
        "3 identical submissions should share at least twice what one executes \
         (executed {executed}, shared {hits}):\n{status}"
    );
    // The latency endpoint reports simulated seconds with a Student-t
    // CI once submissions completed.
    let latency = status_line(&status, "submit latency");
    assert!(latency.contains("n=3"), "{latency}");
    assert!(latency.contains("ci95=["), "{latency}");
    assert!(latency.contains("p95="), "{latency}");

    // Every tenant's journal landed in its own namespace.
    for tenant in tenants {
        let tenant_dir = dir.join("tenants").join(tenant);
        assert!(tenant_dir.is_dir(), "missing {}", tenant_dir.display());
    }

    shutdown_daemon(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn process_backend_daemon_is_byte_identical_to_the_serial_process_cli() {
    let serial = flit(&[
        "workflow",
        "laghos",
        "--max-bisections",
        "2",
        "--backend",
        "process",
        "--workers",
        "2",
    ]);
    let dir = state_dir("process");
    let (child, addr) = spawn_daemon(&dir, &["--backend", "process", "--workers", "2"]);
    let body = flit(&[
        "submit",
        "laghos",
        "--connect",
        &addr,
        "--tenant",
        "team-a",
        "--max-bisections",
        "2",
    ]);
    assert_eq!(
        body, serial,
        "a process-backend submission must match the serial process-backend CLI"
    );
    // The graceful shutdown drains the shared worker pool before
    // acking; a clean daemon exit is the observable proof.
    shutdown_daemon(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_killed_daemon_resumes_every_tenants_journal_on_restart() {
    let dir = state_dir("restart");
    let (mut child, addr) = spawn_daemon(&dir, &[]);
    let submit = |addr: &str, tenant: &str| {
        flit(&[
            "submit",
            "laghos",
            "--connect",
            addr,
            "--tenant",
            tenant,
            "--max-bisections",
            "2",
        ])
    };
    let first_a = submit(&addr, "team-a");
    let first_b = submit(&addr, "team-b");

    // Kill the daemon hard — no drain, no warning. The per-tenant
    // journals are written atomically per append, so they are complete
    // on disk the moment each submission's response left.
    child.kill().expect("daemon killed");
    child.wait().expect("killed daemon reaped");

    let (child, addr) = spawn_daemon(&dir, &[]);
    assert_eq!(submit(&addr, "team-a"), first_a, "tenant a must resume");
    assert_eq!(submit(&addr, "team-b"), first_b, "tenant b must resume");
    let status = flit(&["serve", "--status", "--connect", &addr]);
    assert_eq!(
        fleet_executed(&status),
        0,
        "resubmissions after a restart must replay from the tenant journals, \
         not re-execute fleet-wide:\n{status}"
    );
    shutdown_daemon(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_trace_export_renders_the_fleet_table() {
    let dir = state_dir("trace");
    let trace_path = dir.join("serve-trace.jsonl");
    let trace_s = trace_path.to_string_lossy().to_string();
    let (child, addr) = spawn_daemon(&dir, &["--trace", &trace_s]);
    for tenant in ["team-a", "team-b"] {
        flit(&[
            "submit",
            "laghos",
            "--connect",
            &addr,
            "--tenant",
            tenant,
            "--max-bisections",
            "1",
        ]);
    }
    shutdown_daemon(child, &addr);

    let rendered = flit(&["trace", &trace_s]);
    assert!(rendered.contains("Fleet (flit-serve)"), "{rendered}");
    let line = |label: &str| {
        rendered
            .lines()
            .find(|l| l.contains(label))
            .unwrap_or_else(|| panic!("no `{label}` row in:\n{rendered}"))
            .to_string()
    };
    assert!(line("submissions accepted").contains('2'), "{rendered}");
    assert!(line("tenants").contains('2'), "{rendered}");
    // Table rows render as `| <counter> | <value> |`.
    let shared: u64 = line("cross-tenant shared hits")
        .split('|')
        .find_map(|cell| cell.trim().parse().ok())
        .expect("shared-hits row is numeric");
    assert!(shared > 0, "two identical tenants must dedupe:\n{rendered}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatch_and_unknown_app_are_structured_refusals() {
    let dir = state_dir("errors");
    let (child, addr) = spawn_daemon(&dir, &[]);

    // An unknown application is a structured daemon-side error: the
    // client exits nonzero with the message, the daemon stays up.
    let out = Command::new(env!("CARGO_BIN_EXE_flit"))
        .args(["submit", "no-such-app", "--connect", &addr, "--tenant", "t"])
        .output()
        .expect("flit binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown application"), "{stderr}");

    // A client speaking a future protocol version is refused by name.
    let response = flit_serve::protocol::roundtrip(
        addr.as_str(),
        &flit_serve::protocol::Request::Status {
            version: flit_serve::protocol::PROTOCOL_VERSION + 1,
        },
    )
    .expect("daemon answers");
    match response {
        flit_serve::protocol::Response::Error { message } => {
            assert!(message.contains("protocol version mismatch"), "{message}");
        }
        other => panic!("expected a structured error, got {other:?}"),
    }

    // The daemon survived both refusals, and neither executed anything.
    let status = flit(&["serve", "--status", "--connect", &addr]);
    assert_eq!(fleet_executed(&status), 0, "{status}");
    shutdown_daemon(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_overlong_request_frame_is_refused_and_the_daemon_survives() {
    use std::io::{Read, Write};
    let dir = state_dir("frame-cap");
    let (child, addr) = spawn_daemon(&dir, &[]);

    // One byte past the cap, and no newline: the daemon must answer
    // with a structured error naming the cap instead of buffering on.
    let cap = flit_serve::protocol::MAX_REQUEST_FRAME as usize;
    let mut stream = std::net::TcpStream::connect(addr.as_str()).expect("daemon accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&vec![b'x'; cap + 1])
        .expect("daemon reads");
    let mut reply = String::new();
    let mut reader = std::io::BufReader::new(&stream);
    std::io::BufRead::read_line(&mut reader, &mut reply).expect("daemon answers within 10 s");
    let response: flit_serve::protocol::Response =
        flit_persist::read_framed(reply.as_bytes(), u64::MAX)
            .expect("a well-formed frame")
            .expect("a response");
    match response {
        flit_serve::protocol::Response::Error { message } => {
            assert!(message.contains(&format!("{cap}-byte cap")), "{message}");
        }
        other => panic!("expected a structured error, got {other:?}"),
    }
    // The daemon closes the refused connection.
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "nothing follows the refusal");

    // The daemon still serves other clients.
    let status = flit(&["serve", "--status", "--connect", &addr]);
    assert_eq!(fleet_executed(&status), 0, "{status}");
    shutdown_daemon(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame around `payload` with a valid CRC.
fn frame(payload: &str) -> String {
    let crc = flit_persist::crc32(payload.as_bytes());
    format!("{{\"crc\":\"{crc:08x}\",\"rec\":{payload}}}\n")
}

/// Send raw bytes as a request (`None`: send nothing) and read the
/// daemon's one-line answer.
fn raw_exchange(addr: &str, request: Option<&[u8]>) -> flit_serve::protocol::Response {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).expect("daemon accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    if let Some(bytes) = request {
        stream.write_all(bytes).expect("daemon reads");
    }
    flit_persist::read_framed(std::io::BufReader::new(&stream), u64::MAX)
        .expect("a well-formed frame")
        .expect("a response")
}

#[test]
fn a_deeply_nested_request_is_refused_and_the_daemon_survives() {
    let dir = state_dir("deep");
    let (child, addr) = spawn_daemon(&dir, &[]);
    let depth = 10_000;
    let request = frame(&("[".repeat(depth) + &"]".repeat(depth)));
    assert!((request.len() as u64) < flit_serve::protocol::MAX_REQUEST_FRAME);
    match raw_exchange(&addr, Some(request.as_bytes())) {
        flit_serve::protocol::Response::Error { message } => {
            assert!(message.contains("recursion limit exceeded"), "{message}");
        }
        other => panic!("expected a structured error, got {other:?}"),
    }
    let status = flit(&["serve", "--status", "--connect", &addr]);
    assert_eq!(fleet_executed(&status), 0, "{status}");
    shutdown_daemon(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_silent_client_is_refused_at_the_request_deadline() {
    let dir = state_dir("silent");
    let (child, addr) = spawn_daemon(&dir, &[]);
    let started = Instant::now();
    match raw_exchange(&addr, None) {
        flit_serve::protocol::Response::Error { message } => {
            assert_eq!(message, "no request within 5 s");
        }
        other => panic!("expected a structured error, got {other:?}"),
    }
    assert!(started.elapsed() >= flit_serve::protocol::REQUEST_DEADLINE);
    let status = flit(&["serve", "--status", "--connect", &addr]);
    assert_eq!(fleet_executed(&status), 0, "{status}");
    shutdown_daemon(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_trickling_client_is_refused_at_the_request_deadline() {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    let dir = state_dir("trickle");
    let (child, addr) = spawn_daemon(&dir, &[]);
    let stream = std::net::TcpStream::connect(&addr).expect("daemon accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // One byte of a never-finished frame per second: every single read
    // completes well inside the deadline, the request never does.
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let response = std::thread::scope(|s| {
        s.spawn(|| {
            let mut writer = &stream;
            for byte in "{\"crc\":\"00000000\",\"rec\":".bytes().cycle().take(30) {
                if stop.load(Ordering::SeqCst) || writer.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_secs(1));
            }
        });
        let response: flit_serve::protocol::Response =
            flit_persist::read_framed(std::io::BufReader::new(&stream), u64::MAX)
                .expect("a well-formed frame")
                .expect("a response");
        stop.store(true, Ordering::SeqCst);
        response
    });
    let elapsed = started.elapsed();
    match response {
        flit_serve::protocol::Response::Error { message } => {
            assert_eq!(message, "no request within 5 s");
        }
        other => panic!("expected a structured error, got {other:?}"),
    }
    assert!(
        elapsed >= flit_serve::protocol::REQUEST_DEADLINE && elapsed < Duration::from_secs(8),
        "refused after {elapsed:?}"
    );
    let status = flit(&["serve", "--status", "--connect", &addr]);
    assert_eq!(fleet_executed(&status), 0, "{status}");
    shutdown_daemon(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}
