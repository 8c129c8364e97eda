//! A report written to a closed stdout (`flit apps | head -0`, a pager
//! quit early) ends the process quietly with success, never a panic.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_is_a_quiet_success() {
    for args in [&["apps"][..], &["help"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        // The read end is gone before `flit` starts, so its first write
        // fails with a broken pipe every time.
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_flit"))
            .args(args)
            .stdout(writer)
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
