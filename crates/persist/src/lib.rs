//! Durability helpers shared by the checkpoint journal and the trace
//! exporter: atomic file writes, CRC32 record checksums, FNV-128
//! content digests, and the framed codec every external byte path
//! (journal, `flit worker` pipe, `flit-serve` socket) decodes through.
//!
//! The atomic write contract is the load-bearing piece: a reader that
//! opens the target path observes either the previous complete payload
//! or the new complete payload — never a prefix of one. That is what
//! lets the journal loader treat any mid-record EOF as *corruption*
//! rather than an innocent crash artifact.

use std::fs;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

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
pub(crate) fn sanitize_tenant(tenant: &str) -> String {
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

/// Why a framed message could not be read or decoded.
#[derive(Debug)]
pub enum CodecError {
    /// The line (newline included) is longer than the reader's cap.
    TooLong {
        /// The cap, in bytes.
        cap: u64,
    },
    /// The framing or the CRC is wrong.
    Frame(FrameError),
    /// The payload is not UTF-8, or not JSON of the expected type
    /// (including JSON nested deeper than 128 levels).
    Parse(String),
    /// The reader failed.
    Io(std::io::Error),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TooLong { cap } => write!(f, "frame exceeds the {cap}-byte cap"),
            CodecError::Frame(e) => write!(f, "bad frame: {e}"),
            CodecError::Parse(message) => write!(f, "{message}"),
            CodecError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Encode one message as a single CRC-framed line (no newline):
/// `{"crc":"<8 hex>","rec":<JSON>}`. This is the checkpoint journal's
/// record format, the coordinator/worker wire format and the serve
/// protocol's — one framing, one validator.
pub fn encode_framed<T: Serialize>(value: &T) -> String {
    let payload = serde_json::to_string(value).expect("framed messages serialize");
    format!(
        "{{\"crc\":\"{:08x}\",\"rec\":{payload}}}",
        crc32(payload.as_bytes())
    )
}

/// Write one framed message line and flush.
pub fn write_framed<T: Serialize>(mut w: impl Write, value: &T) -> std::io::Result<()> {
    let mut line = encode_framed(value);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Read one framed message line of at most `cap` bytes, newline
/// included; `Ok(None)` on a clean EOF. The read goes through
/// `take(cap + 1)`, so a longer line never grows the line buffer past
/// the cap.
pub fn read_framed<T: Deserialize>(mut r: impl BufRead, cap: u64) -> Result<Option<T>, CodecError> {
    let mut line = Vec::new();
    let read = r
        .by_ref()
        .take(cap.saturating_add(1))
        .read_until(b'\n', &mut line)
        .map_err(CodecError::Io)?;
    if read == 0 {
        return Ok(None);
    }
    if read as u64 > cap {
        return Err(CodecError::TooLong { cap });
    }
    let line = String::from_utf8(line).map_err(|e| CodecError::Parse(e.to_string()))?;
    decode_framed(line.trim_end_matches(['\n', '\r'])).map(Some)
}

/// Decode one framed line (without its newline): framing, CRC, then
/// the JSON parse. All framing is ASCII, so the fixed byte offsets
/// below are char boundaries in any well-formed line; `get` keeps
/// corrupted lines from turning into panics.
pub fn decode_framed<T: Deserialize>(line: &str) -> Result<T, CodecError> {
    let malformed = |message: String| CodecError::Frame(FrameError::Malformed(message));
    let (Some("{\"crc\":\""), Some(crc_hex), Some("\",\"rec\":")) =
        (line.get(..8), line.get(8..16), line.get(16..24))
    else {
        return Err(malformed("missing `crc`/`rec` framing".to_string()));
    };
    let expected = u32::from_str_radix(crc_hex, 16)
        .map_err(|_| malformed(format!("`{crc_hex}` is not a CRC32 in hex")))?;
    let payload = line
        .get(24..line.len() - 1)
        .filter(|_| line.ends_with('}') && line.len() > 25)
        .ok_or_else(|| malformed("record truncated mid-payload".to_string()))?;
    let actual = crc32(payload.as_bytes());
    if actual != expected {
        return Err(CodecError::Frame(FrameError::Checksum {
            expected: format!("{expected:08x}"),
            actual: format!("{actual:08x}"),
        }));
    }
    serde_json::from_str(payload).map_err(|e| CodecError::Parse(e.to_string()))
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
    pub(crate) fn update(&mut self, bytes: &[u8]) {
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

/// Digest any `Hash` value's byte stream into the 128-bit state: read
/// the digest with [`Fnv128::hex`] (`finish` keeps only the low 64 bits).
impl std::hash::Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn finish(&self) -> u64 {
        self.state as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// One-shot FNV-1a 128-bit digest of `bytes`, rendered as 32
    /// lowercase hex digits: the reference the streaming `Fnv128` is
    /// checked against.
    fn fnv128_hex(bytes: &[u8]) -> String {
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

    /// A frame around a hand-written payload.
    fn frame(payload: &str) -> String {
        let crc = crc32(payload.as_bytes());
        format!("{{\"crc\":\"{crc:08x}\",\"rec\":{payload}}}")
    }

    #[test]
    fn frame_round_trips_and_validates() {
        let value = ("é\n".to_string(), 42u32);
        let line = encode_framed(&value);
        assert!(line.starts_with("{\"crc\":\""));
        assert_eq!(line, frame(r#"["é\n",42]"#));
        assert_eq!(decode_framed::<(String, u32)>(&line).unwrap(), value);
    }

    #[test]
    fn unframe_rejects_corruption_structurally() {
        let line = encode_framed(&vec![1u32]);
        let frame_error = |line: &str| match decode_framed::<Vec<u32>>(line) {
            Err(CodecError::Frame(e)) => e,
            other => panic!("expected a frame error, got {other:?}"),
        };
        // Flipped payload byte → checksum error, with both CRCs shown.
        match frame_error(&line.replace("[1]", "[2]")) {
            FrameError::Checksum { expected, actual } => assert_ne!(expected, actual),
            other => panic!("expected Checksum, got {other:?}"),
        }
        // Truncations at every offset are Malformed or Checksum, never
        // a panic, and never accepted.
        for cut in 0..line.len() {
            frame_error(&line[..cut]);
        }
        // Garbage framing.
        match frame_error("not a frame") {
            FrameError::Malformed(m) => assert!(m.contains("framing"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        match frame_error("{\"crc\":\"zzzzzzzz\",\"rec\":{}}") {
            FrameError::Malformed(m) => assert!(m.contains("CRC32"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn codec_round_trips_message_streams() {
        let msgs = vec![vec!["a".to_string()], vec![], vec!["é\n\"".to_string(); 3]];
        let mut wire = Vec::new();
        for m in &msgs {
            write_framed(&mut wire, m).unwrap();
        }
        let text = String::from_utf8(wire.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], encode_framed(&msgs[0]));
        assert_eq!(decode_framed::<Vec<String>>(lines[2]).unwrap(), msgs[2]);
        let mut r = &wire[..];
        for m in &msgs {
            assert_eq!(
                read_framed::<Vec<String>>(&mut r, 1024).unwrap().as_ref(),
                Some(m)
            );
        }
        // A clean EOF is None, not an error.
        assert!(read_framed::<Vec<String>>(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn codec_errors_are_typed_and_name_the_cap() {
        let mut wire = Vec::new();
        write_framed(&mut wire, &vec![7u32; 10]).unwrap();
        let fits = wire.len() as u64;
        assert!(read_framed::<Vec<u32>>(&wire[..], fits).unwrap().is_some());
        // One byte past the cap: refused by name, and the reader stops
        // after cap + 1 bytes.
        let mut r = &wire[..];
        let err = read_framed::<Vec<u32>>(&mut r, fits - 1).unwrap_err();
        assert!(matches!(err, CodecError::TooLong { cap } if cap == fits - 1));
        assert_eq!(
            err.to_string(),
            format!("frame exceeds the {}-byte cap", fits - 1)
        );
        assert!(r.is_empty());
        // CRC, shape, UTF-8 and nesting failures.
        let flipped = String::from_utf8(wire.clone())
            .unwrap()
            .replace("[7,", "[8,");
        let err = read_framed::<Vec<u32>>(flipped.as_bytes(), fits).unwrap_err();
        assert!(
            matches!(err, CodecError::Frame(FrameError::Checksum { .. })),
            "{err}"
        );
        assert!(
            err.to_string().starts_with("bad frame: CRC mismatch"),
            "{err}"
        );
        let err = decode_framed::<String>(&encode_framed(&vec![1u32])).unwrap_err();
        assert!(matches!(err, CodecError::Parse(_)), "{err}");
        let err = read_framed::<u32>(&[0xff, b'\n'][..], 16).unwrap_err();
        assert!(matches!(err, CodecError::Parse(_)), "{err}");
        let deep = "[".repeat(100_000);
        let err = decode_framed::<u32>(&frame(&deep)).unwrap_err();
        assert!(
            err.to_string().starts_with("recursion limit exceeded"),
            "{err}"
        );
        // Every codec error surfaces as InvalidData on an io path.
        let io: std::io::Error = err.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
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
                .map(|seq| encode_framed(&(writer, seq, format!("score {seq}"))) + "\n")
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
        let writers: std::collections::BTreeSet<usize> = survivor
            .lines()
            .map(|line| {
                decode_framed::<(usize, usize, String)>(line)
                    .expect("every surviving record is CRC-valid")
                    .0
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
