//! Durability helpers shared by the checkpoint journal and the trace
//! exporter: atomic file writes, CRC32 record checksums, and FNV-128
//! content digests.
//!
//! The atomic write contract is the load-bearing piece: a reader that
//! opens the target path observes either the previous complete payload
//! or the new complete payload — never a prefix of one. That is what
//! lets the journal loader treat any mid-record EOF as *corruption*
//! rather than an innocent crash artifact.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Write `bytes` to `path` atomically: write a uniquely-named temp file
/// in the same directory, flush it, then `rename` it over the target.
/// On any error the temp file is removed, so no partial file is ever
/// observable at *or near* the destination path.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let stem = path.file_name().map_or_else(
        || "atomic".to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    // Unique per (process, call): concurrent writers of the same target
    // never share a temp file.
    let tmp_name = format!(
        ".{stem}.tmp.{}.{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    );
    let tmp: PathBuf = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Map a tenant id to a filesystem-safe directory name, injectively.
/// An id made only of ASCII alphanumerics, `-`, `_` and `.` that does
/// not start with `.` passes through unchanged. Every other byte — path
/// separators, `%` itself, a leading `.` (so no tenant can produce a
/// hidden directory or `..`), spaces, control characters, non-ASCII —
/// is percent-encoded as `%XX`. The empty id maps to `%`, which no
/// other id produces. Distinct tenants therefore never share a
/// directory, and so never share a journal.
pub fn sanitize_tenant(tenant: &str) -> String {
    if tenant.is_empty() {
        return "%".into();
    }
    let mut out = String::with_capacity(tenant.len());
    for (i, b) in tenant.bytes().enumerate() {
        let plain = b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_') || (b == b'.' && i > 0);
        if plain {
            out.push(char::from(b));
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// The per-tenant checkpoint-journal path used by the `flit-serve`
/// daemon: `<state_dir>/tenants/<sanitized tenant>/journal-<fingerprint
/// as 16 hex digits>.jsonl`. Namespacing by tenant keeps each tenant's
/// resume state independent; keying the file name on the program's
/// structural fingerprint keeps journals for different applications
/// (or different versions of one) from mixing in a tenant's directory.
pub fn tenant_journal_path(state_dir: impl AsRef<Path>, tenant: &str, fingerprint: u64) -> PathBuf {
    state_dir
        .as_ref()
        .join("tenants")
        .join(sanitize_tenant(tenant))
        .join(format!("journal-{fingerprint:016x}.jsonl"))
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes` — the
/// per-record checksum used by the checkpoint journal.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Why a framed record line could not be opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line is not `{"crc":"<8 hex>","rec":<payload>}`.
    Malformed(String),
    /// The framing parsed but the stored CRC does not match the
    /// payload.
    Checksum {
        /// CRC stored in the frame, as 8 hex digits.
        expected: String,
        /// CRC of the payload as found, as 8 hex digits.
        actual: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Malformed(message) => write!(f, "{message}"),
            FrameError::Checksum { expected, actual } => write!(
                f,
                "CRC mismatch (stored {expected}, payload hashes to {actual})"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Frame one record payload as a single CRC'd line:
/// `{"crc":"<8 hex>","rec":<payload>}`. This is both the checkpoint
/// journal's record format and the coordinator/worker wire format —
/// one framing, one validator.
pub fn frame_record(payload: &str) -> String {
    format!(
        "{{\"crc\":\"{:08x}\",\"rec\":{payload}}}",
        crc32(payload.as_bytes())
    )
}

/// Open one framed line: validate the framing and the CRC, and return
/// the payload slice. All framing is ASCII, so the fixed byte offsets
/// below are char boundaries in any well-formed line; `get` keeps
/// corrupted lines from turning into panics.
pub fn unframe_record(line: &str) -> Result<&str, FrameError> {
    let (Some("{\"crc\":\""), Some(crc_hex), Some("\",\"rec\":")) =
        (line.get(..8), line.get(8..16), line.get(16..24))
    else {
        return Err(FrameError::Malformed(
            "missing `crc`/`rec` framing".to_string(),
        ));
    };
    let expected = u32::from_str_radix(crc_hex, 16)
        .map_err(|_| FrameError::Malformed(format!("`{crc_hex}` is not a CRC32 in hex")))?;
    let payload = line
        .get(24..line.len() - 1)
        .filter(|_| line.ends_with('}') && line.len() > 25)
        .ok_or_else(|| FrameError::Malformed("record truncated mid-payload".to_string()))?;
    let actual = crc32(payload.as_bytes());
    if actual != expected {
        return Err(FrameError::Checksum {
            expected: format!("{expected:08x}"),
            actual: format!("{actual:08x}"),
        });
    }
    Ok(payload)
}

/// FNV-1a 128-bit digest of `bytes`, rendered as 32 lowercase hex
/// digits. Used to key cross-search memo entries on canonical link
/// recipes; 128 bits keeps accidental collisions out of reach for the
/// table sizes a workflow produces.
pub fn fnv128_hex(bytes: &[u8]) -> String {
    // FNV-1a 128: offset basis and prime from the FNV spec.
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:032x}")
}

/// Incremental FNV-1a 128 hasher for digesting structured content
/// without intermediate allocation.
#[derive(Debug, Clone)]
pub struct Fnv128 {
    state: u128,
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv128 {
    /// Start a fresh digest.
    pub fn new() -> Self {
        Fnv128 {
            state: 0x6c62272e07bb014262b821756295c58d,
        }
    }

    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        const PRIME: u128 = 0x0000000001000000000000000000013b;
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Fold a length-prefixed string in (prefixing prevents `"ab","c"`
    /// from colliding with `"a","bc"` across `update_str` calls).
    pub fn update_str(&mut self, s: &str) {
        self.update(&(s.len() as u64).to_le_bytes());
        self.update(s.as_bytes());
    }

    /// Fold a `u64` in.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Finish: 32 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "flit-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips_and_validates() {
        let payload = r#"{"answer":42,"text":"é\n"}"#;
        let line = frame_record(payload);
        assert!(line.starts_with("{\"crc\":\""));
        assert_eq!(unframe_record(&line).unwrap(), payload);
    }

    #[test]
    fn unframe_rejects_corruption_structurally() {
        let line = frame_record("{\"k\":1}");
        // Flipped payload byte → checksum error, with both CRCs shown.
        let bad = line.replace("\"k\":1", "\"k\":2");
        match unframe_record(&bad).unwrap_err() {
            FrameError::Checksum { expected, actual } => assert_ne!(expected, actual),
            other => panic!("expected Checksum, got {other:?}"),
        }
        // Truncations at every offset are Malformed or Checksum, never
        // a panic, and never accepted.
        for cut in 0..line.len() {
            assert!(unframe_record(&line[..cut]).is_err(), "cut {cut}");
        }
        // Garbage framing.
        match unframe_record("not a frame").unwrap_err() {
            FrameError::Malformed(m) => assert!(m.contains("framing"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        match unframe_record("{\"crc\":\"zzzzzzzz\",\"rec\":{}}").unwrap_err() {
            FrameError::Malformed(m) => assert!(m.contains("CRC32"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn fnv128_is_stable_and_distinct() {
        let a = fnv128_hex(b"hello");
        let b = fnv128_hex(b"hello");
        let c = fnv128_hex(b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 32);

        let mut h = Fnv128::new();
        h.update(b"hello");
        assert_eq!(h.hex(), a);
    }

    #[test]
    fn fnv128_str_framing_prevents_concat_collisions() {
        let mut h1 = Fnv128::new();
        h1.update_str("ab");
        h1.update_str("c");
        let mut h2 = Fnv128::new();
        h2.update_str("a");
        h2.update_str("bc");
        assert_ne!(h1.hex(), h2.hex());
    }

    #[test]
    fn write_atomic_creates_and_replaces() {
        let dir = tmp_dir("basic");
        let p = dir.join("out.jsonl");
        write_atomic(&p, b"first payload\n").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"first payload\n");
        write_atomic(&p, b"second payload, longer than the first\n").unwrap();
        assert_eq!(
            fs::read(&p).unwrap(),
            b"second payload, longer than the first\n"
        );
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_failure_leaves_no_temp_file() {
        let dir = tmp_dir("fail");
        // Target inside a *missing* subdirectory: File::create fails.
        let p = dir.join("no-such-subdir").join("out.txt");
        assert!(write_atomic(&p, b"payload").is_err());
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(leftovers.is_empty(), "unexpected files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The satellite-1 regression: concurrent writers rewriting one
    /// target while a reader polls it. Every observation must be one of
    /// the complete payloads — a torn/partial read fails the test.
    #[test]
    fn concurrent_writers_never_expose_a_partial_file() {
        let dir = tmp_dir("race");
        let p = dir.join("target.jsonl");
        // Two distinct full payloads, both ending in the sentinel line.
        let payload = |tag: u8, reps: usize| -> Vec<u8> {
            let mut v = Vec::new();
            for i in 0..reps {
                v.extend_from_slice(format!("writer-{tag} line {i:04}\n").as_bytes());
            }
            v.extend_from_slice(b"END\n");
            v
        };
        let pay_a = payload(b'a', 200);
        let pay_b = payload(b'b', 350);
        write_atomic(&p, &pay_a).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let mut writers = vec![];
        for pay in [pay_a.clone(), pay_b.clone()] {
            let p = p.clone();
            let stop = stop.clone();
            writers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    write_atomic(&p, &pay).unwrap();
                }
            }));
        }
        for _ in 0..500 {
            let got = fs::read(&p).unwrap();
            assert!(
                got == pay_a || got == pay_b,
                "observed a partial/torn file of {} bytes",
                got.len()
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two *processes* (daemon replicas, or daemon + CLI) checkpointing
    /// one journal path concurrently: after the dust settles, the
    /// surviving file must be exactly one writer's complete output, and
    /// every framed record in it must validate — a file interleaving
    /// two writers' records would fail both checks.
    #[test]
    fn concurrent_framed_checkpoints_survive_as_one_writers_crc_valid_output() {
        let dir = tmp_dir("framed-race");
        let p = dir.join("journal.jsonl");
        let checkpoint = |writer: usize| -> String {
            (0..64)
                .map(|seq| {
                    frame_record(&format!(
                        "{{\"writer\":{writer},\"seq\":{seq},\"answer\":\"score {seq}\"}}"
                    )) + "\n"
                })
                .collect()
        };
        let checkpoints: Vec<String> = (0..4).map(checkpoint).collect();
        std::thread::scope(|scope| {
            for pay in &checkpoints {
                scope.spawn(|| {
                    for _ in 0..50 {
                        write_atomic(&p, pay.as_bytes()).unwrap();
                    }
                });
            }
        });
        let survivor = fs::read_to_string(&p).unwrap();
        assert!(
            checkpoints.contains(&survivor),
            "survivor is not any single writer's complete output ({} bytes)",
            survivor.len()
        );
        let writers: std::collections::BTreeSet<&str> = survivor
            .lines()
            .map(|line| {
                let payload = unframe_record(line).expect("every surviving record is CRC-valid");
                &payload[..payload.find(",\"seq\"").unwrap()]
            })
            .collect();
        assert_eq!(writers.len(), 1, "records from two writers interleaved");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_journal_paths_are_namespaced_and_traversal_safe() {
        let base = Path::new("/srv/flit");
        assert_eq!(
            tenant_journal_path(base, "team-a", 0xabcd),
            base.join("tenants/team-a/journal-000000000000abcd.jsonl")
        );
        // Distinct tenants never share a directory.
        assert_ne!(
            tenant_journal_path(base, "team-a", 1),
            tenant_journal_path(base, "team-b", 1)
        );
        // Hostile ids cannot escape the state dir or hide the journal.
        for hostile in ["../../etc", "a/b", "a\\b", "..", ".hidden", "", "a b"] {
            let path = tenant_journal_path(base, hostile, 1);
            assert!(path.starts_with(base.join("tenants")), "{path:?}");
            assert_eq!(path.components().count(), base.components().count() + 3);
            let dir = path.parent().unwrap().file_name().unwrap();
            assert!(!dir.to_string_lossy().starts_with('.'), "{path:?}");
        }
        assert_eq!(sanitize_tenant("Team_7.prod"), "Team_7.prod");
        // No separator survives, and the name cannot start with `.`.
        assert_eq!(sanitize_tenant("../../etc"), "%2E.%2F..%2Fetc");
    }

    #[test]
    fn tenant_mapping_is_injective() {
        let base = Path::new("/state");
        let paths: Vec<PathBuf> = ["a/b", "a_b", "a%2Fb"]
            .iter()
            .map(|t| tenant_journal_path(base, t, 1))
            .collect();
        assert_ne!(paths[0], paths[1]);
        assert_ne!(paths[0], paths[2]);
        assert_ne!(paths[1], paths[2]);
        let ids = [
            "", "%", ".", "%2E", "_", "..", "a b", "a%20b", "é", "%C3%A9",
        ];
        let names: std::collections::BTreeSet<String> =
            ids.iter().map(|t| sanitize_tenant(t)).collect();
        assert_eq!(names.len(), ids.len(), "{names:?}");
    }
}
