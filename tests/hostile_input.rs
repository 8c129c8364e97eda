//! Hostile bytes at every decoder. Each record type that arrives from
//! disk, a socket or a worker pipe goes through its real decode entry
//! point with the same cases: truncation at every byte offset, bit
//! flips (under the original CRC and under a re-computed one, so the
//! parser itself sees the garbage), nesting 10⁵ deep, and one byte past
//! the reader's cap. Every case must end in a structured error (for
//! `wire::evaluate`, a `Crash` answer), never a panic or an abort; a
//! flip re-framed with a fresh CRC may also decode to a different valid
//! record.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use flit::bisect::journal::{JournalAnswer, JournalWriter, BACKEND_LOCAL};
use flit::bisect::wire::{evaluate, ExeRecipe, WireRequest, WireTask};
use flit::exec::process::{FromWorker, ToWorker};
use flit::exec::{serve_worker, MAX_WIRE_FRAME};
use flit::persist::{crc32, encode_framed, read_framed};
use flit::prelude::*;
use flit::serve::protocol::{Request, Response, MAX_REQUEST_FRAME, PROTOCOL_VERSION};
use flit::trace::event::Trace;

/// A decode entry point: `Ok` when the bytes decode (to a record, or
/// to nothing), `Err(message)` for a structured refusal.
type Decode = Box<dyn Fn(&[u8]) -> Result<(), String>>;

/// One record type under attack.
struct Subject {
    name: &'static str,
    /// A valid encoding: one frame line without its newline, or one
    /// bare JSON document.
    valid: String,
    /// Is `valid` a CRC frame?
    framed: bool,
    /// The reader's byte cap, newline included (`None`: no line reader).
    cap: Option<u64>,
    decode: Decode,
}

/// A frame around arbitrary payload bytes, with a freshly computed CRC.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut line = format!("{{\"crc\":\"{:08x}\",\"rec\":", crc32(payload)).into_bytes();
    line.extend_from_slice(payload);
    line.push(b'}');
    line
}

/// One hostile input, whether a structured error is the only
/// acceptable outcome, and what that error must say.
struct Case {
    what: String,
    bytes: Vec<u8>,
    must_fail: bool,
    names: Option<&'static str>,
}

fn cases(s: &Subject) -> Vec<Case> {
    let valid = s.valid.as_bytes();
    let mut out: Vec<Case> = (0..valid.len())
        .map(|cut| Case {
            what: format!("truncated at byte {cut}"),
            bytes: valid[..cut].to_vec(),
            // The empty input is a clean EOF (or an empty file).
            must_fail: cut > 0,
            names: None,
        })
        .collect();
    // The payload of a frame is everything between `"rec":` and the
    // closing brace.
    let payload = if s.framed {
        24..valid.len() - 1
    } else {
        0..valid.len()
    };
    for pos in (0..16).map(|i| i * valid.len() / 16) {
        for bit in 0..8 {
            let mut bytes = valid.to_vec();
            bytes[pos] ^= 1 << bit;
            let in_payload = s.framed && payload.contains(&pos);
            if in_payload {
                out.push(Case {
                    what: format!("bit {bit} of byte {pos} flipped, CRC re-computed"),
                    bytes: frame(&bytes[payload.clone()]),
                    must_fail: false,
                    names: None,
                });
            }
            out.push(Case {
                what: format!("bit {bit} of byte {pos} flipped"),
                bytes,
                // CRC-32 catches every single-bit error in the payload.
                must_fail: in_payload,
                names: None,
            });
        }
    }
    // As deep as 10^5, or as deep as fits under the cap.
    let depth = s
        .cap
        .map_or(100_000, |cap| 100_000.min((cap as usize - 40) / 2));
    let nested = "[".repeat(depth) + &"]".repeat(depth);
    out.push(Case {
        what: format!("nested {depth} deep"),
        bytes: if s.framed {
            frame(nested.as_bytes())
        } else {
            nested.into_bytes()
        },
        must_fail: true,
        names: Some("recursion limit exceeded"),
    });
    if let Some(cap) = s.cap {
        // A frame line of cap + 1 bytes, newline included. The CRC is
        // left wrong: the cap must refuse the line before it is checked.
        let mut line = b"{\"crc\":\"00000000\",\"rec\":\"".to_vec();
        line.resize(cap as usize - 2, b'x');
        line.extend_from_slice(b"\"}\n");
        assert_eq!(line.len() as u64, cap + 1);
        out.push(Case {
            what: "one byte past the cap".into(),
            bytes: line,
            must_fail: true,
            names: Some("-byte cap"),
        });
    }
    out
}

/// Run every case through the subject's decoder.
fn assault(s: &Subject) {
    assert!(
        (s.decode)(s.valid.as_bytes()).is_ok(),
        "{}: the valid encoding must decode",
        s.name
    );
    for case in cases(s) {
        let outcome = catch_unwind(AssertUnwindSafe(|| (s.decode)(&case.bytes)))
            .unwrap_or_else(|_| panic!("{}: {} panicked", s.name, case.what));
        match outcome {
            Err(message) => {
                let want = case.names.unwrap_or_default();
                assert!(
                    !message.is_empty() && message.contains(want),
                    "{}: {}: {message:?} does not say {want:?}",
                    s.name,
                    case.what
                );
            }
            Ok(()) => assert!(!case.must_fail, "{}: {} was accepted", s.name, case.what),
        }
    }
}

/// A decoder that reads one frame the way the protocol and the
/// coordinator do.
fn read_as<T: serde::Deserialize + 'static>(cap: u64) -> Decode {
    Box::new(move |bytes| {
        read_framed::<T>(bytes, cap)
            .map(drop)
            .map_err(|e| e.to_string())
    })
}

/// A `wire::evaluate` result: a `Crash` answer is the structured error.
fn answer(payload: &str) -> Result<(), String> {
    match serde_json::from_str::<JournalAnswer>(payload).expect("evaluate answers in JSON") {
        JournalAnswer::Crash { message } => Err(message),
        _ => Ok(()),
    }
}

fn wire_task() -> String {
    let prog = SimProgram::new(
        "hostile",
        vec![
            SourceFile::new(
                "a.cpp",
                vec![Function::exported("A_dot", Kernel::DotMix { stride: 3 })],
            ),
            SourceFile::new(
                "b.cpp",
                vec![Function::exported("B_norm", Kernel::NormScale)],
            ),
        ],
    );
    let variable = Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]);
    WireTask::capture(
        &Build::new(&prog, Compilation::baseline()),
        &Build::tagged(&prog, variable, 1),
        &Driver::new("t", vec!["A_dot".into(), "B_norm".into()], 2, 8),
        &[0.3, 0.7],
        CompilerKind::Gcc,
    )
    .to_wire()
}

#[test]
fn protocol_messages() {
    assault(&Subject {
        name: "Request",
        valid: encode_framed(&Request::Submit {
            version: PROTOCOL_VERSION,
            tenant: "team-a".into(),
            app: "laghos".into(),
            max_bisections: Some(2),
            jobs: None,
        }),
        framed: true,
        cap: Some(MAX_REQUEST_FRAME),
        decode: read_as::<Request>(MAX_REQUEST_FRAME),
    });
    assault(&Subject {
        name: "Response",
        valid: encode_framed(&Response::Report {
            tenant: "team-a".into(),
            body: "flit workflow laghos\n  1 bisection\n".into(),
            simulated_seconds: 12.5,
        }),
        framed: true,
        cap: Some(MAX_WIRE_FRAME),
        decode: read_as::<Response>(MAX_WIRE_FRAME),
    });
}

#[test]
fn worker_pipe_messages() {
    assault(&Subject {
        name: "ToWorker",
        valid: encode_framed(&ToWorker::Task {
            digest: "d0".into(),
            body: "{\"program\":\"ex1\"}".into(),
        }),
        framed: true,
        cap: Some(MAX_WIRE_FRAME),
        decode: Box::new(|bytes| {
            serve_worker(bytes, std::io::sink(), None, |_, _, _| "{}".into())
                .map_err(|e| e.to_string())
        }),
    });
    assault(&Subject {
        name: "FromWorker",
        valid: encode_framed(&FromWorker::Answer {
            id: 7,
            payload: "{\"Crash\":{\"message\":\"segv\"}}".into(),
        }),
        framed: true,
        cap: Some(MAX_WIRE_FRAME),
        decode: read_as::<FromWorker>(MAX_WIRE_FRAME),
    });
}

#[test]
fn journal_records() {
    let dir = std::env::temp_dir().join(format!("flit-hostile-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let mut writer = JournalWriter::create(&path, 7).unwrap();
    writer
        .append(
            "ex1/g++ -O3",
            "file/abc/0",
            BACKEND_LOCAL,
            JournalAnswer::Output {
                output_bits: vec![1.5f64.to_bits(), f64::NAN.to_bits()],
                seconds_bits: 0.25f64.to_bits(),
            },
        )
        .unwrap();
    let valid = std::fs::read_to_string(&path)
        .unwrap()
        .trim_end()
        .to_string();
    assault(&Subject {
        name: "JournalRecord",
        valid,
        framed: true,
        cap: None,
        decode: Box::new(move |bytes| {
            std::fs::write(&path, bytes).unwrap();
            load_journal(&path, 7).map(drop).map_err(|e| e.to_string())
        }),
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_task_and_request_strings() {
    static FRESH: AtomicUsize = AtomicUsize::new(0);
    let task = wire_task();
    let spec = serde_json::to_string(&WireRequest::Run {
        recipe: ExeRecipe::FileMixed { items: vec![0] },
    })
    .unwrap();
    let run = spec.clone();
    assault(&Subject {
        name: "WireTask",
        valid: task.clone(),
        framed: false,
        cap: None,
        // A fresh digest per case, so no cached task masks the body.
        decode: Box::new(move |bytes| {
            let digest = format!("hostile-{}", FRESH.fetch_add(1, Ordering::Relaxed));
            answer(&evaluate(&digest, &String::from_utf8_lossy(bytes), &run))
        }),
    });
    let digest = WireTask::digest_of(&task);
    assault(&Subject {
        name: "WireRequest",
        valid: spec,
        framed: false,
        cap: None,
        decode: Box::new(move |bytes| {
            answer(&evaluate(&digest, &task, &String::from_utf8_lossy(bytes)))
        }),
    });
}

#[test]
fn results_db_and_trace_files() {
    let mut db = ResultsDb::new("hostile");
    db.rows.push(RunRecord {
        test: "t1".into(),
        compilation: Compilation::baseline(),
        label: Compilation::baseline().label(),
        seconds: Some(1.25),
        comparison: 0.5,
        bitwise_equal: false,
        baseline_norm: 10.0,
        crashed: false,
    });
    assault(&Subject {
        name: "ResultsDb",
        valid: db.to_json(),
        framed: false,
        cap: None,
        decode: Box::new(|bytes| {
            ResultsDb::from_json(&String::from_utf8_lossy(bytes))
                .map(drop)
                .map_err(|e| e.to_string())
        }),
    });
    let trace = Trace::from_jsonl(
        "{\"Span\":{\"phase\":\"sweep\",\"label\":\"g++ -O3\",\"cost\":3,\"duration\":0.5}}",
    )
    .unwrap();
    assault(&Subject {
        name: "Trace",
        valid: trace.to_jsonl().trim_end().to_string(),
        framed: false,
        cap: None,
        decode: Box::new(|bytes| {
            Trace::from_jsonl(&String::from_utf8_lossy(bytes))
                .map(drop)
                .map_err(|e| e.to_string())
        }),
    });
}
