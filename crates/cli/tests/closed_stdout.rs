//! A report written to a closed stdout (`flit apps | head -0`, a pager
//! quit early) ends the process quietly with success, never a panic.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A pipe whose read end is gone before `flit` starts, so its first
/// write fails with a broken pipe every time.
fn closed_pipe() -> std::io::PipeWriter {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    writer
}

#[test]
fn a_closed_stdout_is_a_quiet_success() {
    for args in [&["apps"][..], &["help"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_flit"))
            .args(args)
            .stdout(closed_pipe())
            .stderr(Stdio::piped())
            .output()
            .expect("flit binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "flit {args:?}: {stderr}");
        assert!(
            out.status.success(),
            "flit {args:?}: {:?}\n{stderr}",
            out.status
        );
    }
}

#[test]
fn a_daemon_on_a_closed_stdout_serves_and_drains() {
    let dir = std::env::temp_dir().join(format!("flit-closed-stdout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Command::new(env!("CARGO_BIN_EXE_flit"))
        .args(["serve", "--listen", "127.0.0.1:0", "--state-dir"])
        .arg(&dir)
        .stdout(closed_pipe())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        match std::fs::read_to_string(dir.join("serve.addr")) {
            Ok(addr) if !addr.is_empty() => break addr,
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "daemon never advertised its address"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    for mode in ["--status", "--shutdown"] {
        let out = Command::new(env!("CARGO_BIN_EXE_flit"))
            .args(["serve", mode, "--connect", &addr])
            .output()
            .expect("flit binary runs");
        assert!(out.status.success(), "serve {mode}: {out:?}");
    }
    let out = daemon.wait_with_output().expect("daemon exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "daemon: {:?}\n{stderr}", out.status);
    let _ = std::fs::remove_dir_all(&dir);
}
