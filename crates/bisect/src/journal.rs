//! The on-disk checkpoint journal: every completed Test answer of a
//! workflow, one self-describing JSONL record per line.
//!
//! Each line carries a CRC over its record payload, and every append
//! rewrites the whole file through an atomic tmp-file+rename (see
//! [`flit_persist::write_atomic`]), so the on-disk journal is *always* a
//! complete, valid prefix of the answer history. A mid-record EOF or a
//! CRC mismatch therefore unambiguously means corruption — never an
//! innocent crash artifact — and the loader reports it as a structured
//! [`JournalError`] naming the offending record.
//!
//! Schema compatibility rule: every record embeds `version`; a loader
//! only accepts records whose version it knows (`JOURNAL_VERSION`).
//! Readers must reject — not skip — unknown versions, so a journal
//! written by a newer tool can never be silently half-replayed.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use flit_persist::{decode_framed, encode_framed, write_atomic, CodecError, FrameError};

/// The journal schema version this crate reads and writes.
///
/// Version history:
/// - 1: seq/version/fingerprint/pair/key/answer.
/// - 2: adds `backend` — which execution plane produced the answer —
///   when the record schema became the coordinator/worker wire format.
pub(crate) const JOURNAL_VERSION: u32 = 2;

/// The `backend` value for answers computed in the coordinator
/// process (the serial and `threads` planes).
pub const BACKEND_LOCAL: &str = "local";

/// A completed Test answer, with every float stored as its IEEE-754 bit
/// pattern (`u64`) so the round trip is exact even for values the JSON
/// float syntax cannot represent (NaN, infinities).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalAnswer {
    /// A scored query: the Test metric value plus simulated seconds.
    Score {
        /// `f64::to_bits` of the metric value.
        score_bits: u64,
        /// `f64::to_bits` of the run's simulated seconds.
        seconds_bits: u64,
    },
    /// A reference run: the full output vector plus simulated seconds
    /// (journaled so resuming a completed search re-runs nothing).
    Output {
        /// `f64::to_bits` of each output element.
        output_bits: Vec<u64>,
        /// `f64::to_bits` of the run's simulated seconds.
        seconds_bits: u64,
    },
    /// The mixed executable crashed.
    Crash {
        /// The crash message, exactly as the live run rendered it.
        message: String,
    },
    /// The mixed link failed.
    Link {
        /// The link error message, exactly as the live run rendered it.
        message: String,
    },
}

/// One journal record: a self-describing, versioned Test answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Position in the journal (0-based); detects dropped lines.
    pub seq: u64,
    /// Schema version (`JOURNAL_VERSION`).
    pub version: u32,
    /// Structural fingerprint of the program under search — a journal
    /// never replays into a search over a different program.
    pub fingerprint: u64,
    /// The compilation pair that first executed this query
    /// (self-description; replay matches on `key`, not `pair`).
    pub pair: String,
    /// The canonical ledger key: search-task digest plus the canonical
    /// item-set digest of the mixed link recipe.
    pub key: String,
    /// Which execution plane produced the answer: [`BACKEND_LOCAL`]
    /// for in-process evaluation, a backend label (e.g. `"process"`)
    /// for answers that crossed the wire. Provenance only — replay
    /// matches on `key` and ignores this field.
    pub backend: String,
    /// The answer.
    pub answer: JournalAnswer,
}

/// A structured journal failure, naming the offending record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The journal file could not be read or written.
    Io {
        /// Journal path.
        path: String,
        /// The underlying I/O error.
        message: String,
    },
    /// A line is not a well-formed journal record.
    Malformed {
        /// Journal path.
        path: String,
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A record's CRC does not match its payload.
    Checksum {
        /// Journal path.
        path: String,
        /// 1-based line number of the offending record.
        line: usize,
        /// CRC stored in the record.
        expected: String,
        /// CRC of the payload as found.
        actual: String,
    },
    /// A record was written by an unknown schema version.
    UnsupportedVersion {
        /// Journal path.
        path: String,
        /// 1-based line number of the offending record.
        line: usize,
        /// The version found.
        version: u32,
    },
    /// The journal belongs to a different program.
    FingerprintMismatch {
        /// Journal path.
        path: String,
        /// 1-based line number of the offending record.
        line: usize,
        /// Fingerprint found in the record.
        found: u64,
        /// Fingerprint of the program being searched.
        expected: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, message } => {
                write!(f, "journal {path}: {message}")
            }
            JournalError::Malformed {
                path,
                line,
                message,
            } => write!(f, "journal {path}, record at line {line}: {message}"),
            JournalError::Checksum {
                path,
                line,
                expected,
                actual,
            } => write!(
                f,
                "journal {path}, record at line {line}: CRC mismatch \
                 (stored {expected}, payload hashes to {actual})"
            ),
            JournalError::UnsupportedVersion {
                path,
                line,
                version,
            } => write!(
                f,
                "journal {path}, record at line {line}: unsupported schema \
                 version {version} (this tool reads version {JOURNAL_VERSION})"
            ),
            JournalError::FingerprintMismatch {
                path,
                line,
                found,
                expected,
            } => write!(
                f,
                "journal {path}, record at line {line}: program fingerprint \
                 {found:#018x} does not match the program under search \
                 ({expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// Version probe: reads *only* the `version` field, so a record from
/// any schema generation — older or newer, with fields this build has
/// never heard of — still identifies itself before the full parse.
#[derive(Deserialize)]
struct VersionProbe {
    version: u32,
}

fn parse_line(path: &str, lineno: usize, line: &str) -> Result<JournalRecord, JournalError> {
    // Framing, CRC and the bounded parse are the codec shared with the
    // wire protocol (the journal record schema *is* the wire format).
    let refused = |e: CodecError| {
        let (path, line) = (path.to_string(), lineno);
        match e {
            CodecError::Frame(FrameError::Checksum { expected, actual }) => {
                JournalError::Checksum {
                    path,
                    line,
                    expected,
                    actual,
                }
            }
            CodecError::Frame(FrameError::Malformed(message)) => JournalError::Malformed {
                path,
                line,
                message,
            },
            e => JournalError::Malformed {
                path,
                line,
                message: format!("unparseable record payload: {e}"),
            },
        }
    };
    // Check the schema version before demanding this version's fields,
    // so a valid record of another generation reports
    // UnsupportedVersion rather than a confusing parse failure.
    let VersionProbe { version } = decode_framed(line).map_err(refused)?;
    if version != JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion {
            path: path.to_string(),
            line: lineno,
            version,
        });
    }
    decode_framed(line).map_err(refused)
}

/// Load and fully validate a journal: framing, CRC, sequence order,
/// schema version, and the program fingerprint of every record.
pub fn load_journal(
    path: impl AsRef<Path>,
    expected_fingerprint: u64,
) -> Result<Vec<JournalRecord>, JournalError> {
    let path = path.as_ref();
    let shown = path.display().to_string();
    let content = std::fs::read_to_string(path).map_err(|e| JournalError::Io {
        path: shown.clone(),
        message: e.to_string(),
    })?;
    let mut records = Vec::new();
    for (i, line) in content.split('\n').enumerate() {
        if line.is_empty() {
            // The trailing newline of a complete file, or a blank line
            // mid-file (which the framing check below would reject) —
            // only the former is legal.
            if i + 1 == content.split('\n').count() {
                continue;
            }
            return Err(JournalError::Malformed {
                path: shown,
                line: i + 1,
                message: "blank line inside the journal".to_string(),
            });
        }
        let rec = parse_line(&shown, i + 1, line)?;
        if rec.fingerprint != expected_fingerprint {
            return Err(JournalError::FingerprintMismatch {
                path: shown,
                line: i + 1,
                found: rec.fingerprint,
                expected: expected_fingerprint,
            });
        }
        if rec.seq != records.len() as u64 {
            return Err(JournalError::Malformed {
                path: shown,
                line: i + 1,
                message: format!(
                    "out-of-order record: seq {} at journal position {}",
                    rec.seq,
                    records.len()
                ),
            });
        }
        records.push(rec);
    }
    Ok(records)
}

/// The checkpoint-journal writer.
///
/// Holds every record of the journal in memory; each append rewrites
/// the whole file atomically (the workloads here journal at most a few
/// thousand sub-kilobyte records, so rewriting is cheap and buys the
/// always-a-valid-prefix invariant the loader relies on).
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    lines: Vec<String>,
    fingerprint: u64,
}

impl JournalWriter {
    /// Start a fresh journal at `path` (truncating any existing file —
    /// an empty journal is written immediately so a run killed before
    /// its first answer still leaves a resumable file).
    pub fn create(path: impl Into<PathBuf>, fingerprint: u64) -> io::Result<Self> {
        let path = path.into();
        write_atomic(&path, b"")?;
        Ok(JournalWriter {
            path,
            lines: Vec::new(),
            fingerprint,
        })
    }

    /// Reopen an existing journal for continued appending: load and
    /// validate it, and return the writer alongside the records to
    /// replay.
    pub fn resume(
        path: impl Into<PathBuf>,
        fingerprint: u64,
    ) -> Result<(Self, Vec<JournalRecord>), JournalError> {
        let path = path.into();
        let records = load_journal(&path, fingerprint)?;
        let lines = records.iter().map(encode_framed).collect();
        Ok((
            JournalWriter {
                path,
                lines,
                fingerprint,
            },
            records,
        ))
    }

    /// Append one completed answer and persist the journal atomically.
    /// `backend` records which execution plane produced the answer
    /// (see [`JournalRecord::backend`]).
    pub fn append(
        &mut self,
        pair: &str,
        key: &str,
        backend: &str,
        answer: JournalAnswer,
    ) -> io::Result<()> {
        let rec = JournalRecord {
            seq: self.lines.len() as u64,
            version: JOURNAL_VERSION,
            fingerprint: self.fingerprint,
            pair: pair.to_string(),
            key: key.to_string(),
            backend: backend.to_string(),
            answer,
        };
        self.lines.push(encode_framed(&rec));
        let mut buf = self.lines.join("\n");
        buf.push('\n');
        write_atomic(&self.path, buf.as_bytes())
    }

    /// The journal's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frame a hand-written payload the way the codec does.
    fn frame(payload: &str) -> String {
        let crc = flit_persist::crc32(payload.as_bytes());
        format!("{{\"crc\":\"{crc:08x}\",\"rec\":{payload}}}")
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "flit-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("journal.jsonl")
    }

    fn sample_answers() -> Vec<(String, String, JournalAnswer)> {
        vec![
            (
                "ex1/g++ -O3".to_string(),
                "ref/abc123".to_string(),
                JournalAnswer::Output {
                    output_bits: vec![1.5f64.to_bits(), f64::NAN.to_bits(), 0.0f64.to_bits()],
                    seconds_bits: 0.25f64.to_bits(),
                },
            ),
            (
                "ex1/g++ -O3".to_string(),
                "file/abc123/d0".to_string(),
                JournalAnswer::Score {
                    score_bits: 0.0f64.to_bits(),
                    seconds_bits: 0.125f64.to_bits(),
                },
            ),
            (
                "ex1/icpc -O2".to_string(),
                "file/abc123/d1".to_string(),
                JournalAnswer::Crash {
                    message: "segv in mixed \"exe\"".to_string(),
                },
            ),
            (
                "ex1/icpc -O2".to_string(),
                "sym/abc123/i/3/d2".to_string(),
                JournalAnswer::Link {
                    message: "undefined symbol `solver_norm`".to_string(),
                },
            ),
        ]
    }

    fn write_sample(path: &Path, fingerprint: u64) -> Vec<JournalRecord> {
        let mut w = JournalWriter::create(path, fingerprint).unwrap();
        for (pair, key, ans) in sample_answers() {
            w.append(&pair, &key, BACKEND_LOCAL, ans).unwrap();
        }
        load_journal(path, fingerprint).unwrap()
    }

    #[test]
    fn round_trips_records_exactly() {
        let p = tmp("roundtrip");
        let recs = write_sample(&p, 0xdead_beef);
        assert_eq!(recs.len(), 4);
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.version, JOURNAL_VERSION);
            assert_eq!(rec.fingerprint, 0xdead_beef);
            assert_eq!(rec.backend, BACKEND_LOCAL);
        }
        // Bit-exact floats, including the NaN element.
        match &recs[0].answer {
            JournalAnswer::Output { output_bits, .. } => {
                assert_eq!(output_bits[1], f64::NAN.to_bits());
            }
            other => panic!("expected Output, got {other:?}"),
        }
        assert_eq!(
            recs.iter()
                .map(|r| (r.pair.clone(), r.key.clone(), r.answer.clone()))
                .collect::<Vec<_>>(),
            sample_answers()
        );
    }

    #[test]
    fn resume_continues_the_sequence() {
        let p = tmp("resume");
        write_sample(&p, 7);
        let (mut w, recs) = JournalWriter::resume(&p, 7).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(w.lines.len(), 4);
        w.append(
            "ex1/clang++ -O3",
            "probe/abc123/c/1",
            BACKEND_LOCAL,
            JournalAnswer::Score {
                score_bits: 2.0f64.to_bits(),
                seconds_bits: 1.0f64.to_bits(),
            },
        )
        .unwrap();
        let recs = load_journal(&p, 7).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[4].seq, 4);
    }

    #[test]
    fn fingerprint_mismatch_is_structured() {
        let p = tmp("fpr");
        write_sample(&p, 1);
        let err = load_journal(&p, 2).unwrap_err();
        match &err {
            JournalError::FingerprintMismatch {
                line,
                found,
                expected,
                ..
            } => {
                assert_eq!((*line, *found, *expected), (1, 1, 2));
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn old_version_1_journal_is_rejected_structurally() {
        // A pre-wire-format journal: version 1, no `backend` field.
        // The loader must identify the generation and reject it as
        // UnsupportedVersion — not trip over the missing field, and
        // never panic.
        let p = tmp("ver-old");
        let v1_payload = "{\"seq\":0,\"version\":1,\"fingerprint\":3,\
                          \"pair\":\"p\",\"key\":\"k\",\"answer\":\
                          {\"Score\":{\"score_bits\":0,\"seconds_bits\":0}}}";
        std::fs::write(&p, format!("{}\n", frame(v1_payload))).unwrap();
        match load_journal(&p, 3).unwrap_err() {
            JournalError::UnsupportedVersion { line, version, .. } => {
                assert_eq!((line, version), (1, 1));
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_rejected_structurally() {
        let p = tmp("ver-future");
        let mut w = JournalWriter::create(&p, 3).unwrap();
        w.append(
            "p",
            "k",
            BACKEND_LOCAL,
            JournalAnswer::Score {
                score_bits: 0,
                seconds_bits: 0,
            },
        )
        .unwrap();
        // A record from a future generation, carrying a field this
        // build has never heard of: still identified by its version.
        let v3_payload = "{\"seq\":1,\"version\":3,\"fingerprint\":3,\
                          \"pair\":\"p\",\"key\":\"k2\",\"backend\":\"local\",\
                          \"shard\":7,\"answer\":\
                          {\"Score\":{\"score_bits\":0,\"seconds_bits\":0}}}";
        let mut content = std::fs::read_to_string(&p).unwrap();
        content.push_str(&frame(v3_payload));
        content.push('\n');
        std::fs::write(&p, content).unwrap();
        match load_journal(&p, 3).unwrap_err() {
            JournalError::UnsupportedVersion { line, version, .. } => {
                assert_eq!((line, version), (2, 3));
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_the_crc() {
        let p = tmp("crc");
        write_sample(&p, 9);
        let content = std::fs::read_to_string(&p).unwrap();
        // Flip a digit inside the *first* record's payload.
        let corrupted = content.replacen("\"seq\":0", "\"seq\":9", 1);
        assert_ne!(corrupted, content);
        std::fs::write(&p, corrupted).unwrap();
        match load_journal(&p, 9).unwrap_err() {
            JournalError::Checksum { line, .. } => assert_eq!(line, 1),
            other => panic!("expected Checksum, got {other:?}"),
        }
    }

    #[test]
    fn reordered_records_are_rejected() {
        let p = tmp("seq");
        write_sample(&p, 9);
        let content = std::fs::read_to_string(&p).unwrap();
        let mut lines: Vec<&str> = content.trim_end().split('\n').collect();
        lines.swap(1, 2);
        std::fs::write(&p, format!("{}\n", lines.join("\n"))).unwrap();
        match load_journal(&p, 9).unwrap_err() {
            JournalError::Malformed { line, message, .. } => {
                assert_eq!(line, 2);
                assert!(message.contains("out-of-order"), "{message}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// The satellite-3 exhaustive truncation sweep: truncating the
    /// journal at *every* byte offset must yield either a clean,
    /// complete prefix of the records (truncation at a record boundary
    /// — the legitimate crash-between-appends state) or a structured
    /// error — never a panic and never a silently short table that
    /// misrepresents a *damaged* record as absent.
    #[test]
    fn truncation_at_every_byte_offset_is_structured() {
        let p = tmp("trunc");
        let full = write_sample(&p, 42);
        let content = std::fs::read(&p).unwrap();
        // Byte offsets that end exactly after a record (with or without
        // its trailing newline) are complete prefixes.
        let mut boundary_prefix = std::collections::HashMap::new();
        boundary_prefix.insert(0usize, 0usize);
        let mut count = 0usize;
        for (i, b) in content.iter().enumerate() {
            if *b == b'\n' {
                count += 1;
                boundary_prefix.insert(i, count); // newline itself cut off
                boundary_prefix.insert(i + 1, count); // cut after newline
            }
        }
        for offset in 0..=content.len() {
            std::fs::write(&p, &content[..offset]).unwrap();
            match load_journal(&p, 42) {
                Ok(recs) => {
                    let expect = boundary_prefix.get(&offset).unwrap_or_else(|| {
                        panic!("offset {offset}: accepted a mid-record truncation")
                    });
                    assert_eq!(recs.len(), *expect, "offset {offset}");
                    assert_eq!(recs.as_slice(), &full[..*expect], "offset {offset}");
                }
                Err(JournalError::Malformed { .. } | JournalError::Checksum { .. }) => {
                    assert!(
                        !boundary_prefix.contains_key(&offset),
                        "offset {offset}: rejected a clean prefix"
                    );
                }
                Err(other) => panic!("offset {offset}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn exactly_25_byte_line_is_malformed() {
        // Framing is 24 bytes plus the closing brace: a 25-byte line
        // has an empty payload, the shortest input that reaches the
        // `24..len-1` payload slice. It must be refused structurally.
        let line = "{\"crc\":\"00000000\",\"rec\":}";
        assert_eq!(line.len(), 25);
        match parse_line("j", 1, line) {
            Err(JournalError::Malformed { message, .. }) => {
                assert!(message.contains("truncated mid-payload"), "{message}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // One byte shorter still (framing only, no closing brace) makes
        // the payload range backwards — also structured, not a panic.
        match parse_line("j", 1, &line[..24]) {
            Err(JournalError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn multibyte_truncation_mid_character_is_malformed() {
        // A truncated line can end with a complete multi-byte char, so
        // `line.len() - 1` is *not* a char boundary: the payload slice
        // `24..len-1` must bail out structurally (a direct `&line[..]`
        // index here would panic). 'é' is 2 bytes in UTF-8.
        let rec = JournalRecord {
            seq: 0,
            version: JOURNAL_VERSION,
            fingerprint: 5,
            pair: "p".to_string(),
            key: "k".to_string(),
            backend: BACKEND_LOCAL.to_string(),
            answer: JournalAnswer::Score {
                score_bits: 0,
                seconds_bits: 0,
            },
        };
        let full = encode_framed(&rec);
        for cut in 24..full.len() - 1 {
            let line = format!("{}é", &full[..cut]);
            assert!(!line.is_char_boundary(line.len() - 1));
            match parse_line("j", 1, &line) {
                Err(JournalError::Malformed { message, .. }) => {
                    assert!(message.contains("truncated mid-payload"), "cut {cut}");
                }
                other => panic!("cut {cut}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_truncated_mid_utf8_char_is_structured() {
        // Kill a writer mid-append inside a multi-byte character: the
        // file is no longer valid UTF-8 and the load must surface a
        // structured error (Io from the decode), never a panic.
        let p = tmp("utf8");
        let mut w = JournalWriter::create(&p, 11).unwrap();
        w.append(
            "ex1/g++ –O3", // en-dash: 3 bytes
            "file/abc/0/1",
            BACKEND_LOCAL,
            JournalAnswer::Score {
                score_bits: 0,
                seconds_bits: 0,
            },
        )
        .unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let dash_at = bytes
            .windows(3)
            .position(|w| w == "–".as_bytes())
            .expect("en-dash present in the payload");
        std::fs::write(&p, &bytes[..dash_at + 1]).unwrap();
        match load_journal(&p, 11).unwrap_err() {
            JournalError::Io { .. } | JournalError::Malformed { .. } => {}
            other => panic!("expected Io/Malformed, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let p = tmp("missing");
        match load_journal(p.with_extension("nope"), 0).unwrap_err() {
            JournalError::Io { .. } => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
