//! `HKRR_TRACE` and `HKRR_LOG` on a one-shot subcommand: `hkrr-serve save`
//! must leave a complete, loadable trace and event log of the fit behind,
//! not empty files.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_hkrr-serve");

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hkrr_save_trace_{name}_{}", std::process::id()))
}

#[test]
fn save_writes_a_complete_trace_and_event_log() {
    let trace = temp("trace.json");
    let events = temp("events.jsonl");
    let model = temp("model.hkrr");
    let status = Command::new(EXE)
        .args(["save", "--n-train", "120", "--n-test", "30", "--out"])
        .arg(&model)
        .env("HKRR_TRACE", &trace)
        .env("HKRR_LOG", &events)
        .status()
        .expect("run hkrr-serve save");
    assert!(status.success(), "save failed: {status}");

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let log = std::fs::read_to_string(&events).expect("event log written");
    for path in [&trace, &events, &model] {
        std::fs::remove_file(path).ok();
    }

    assert!(!text.is_empty(), "trace file is empty");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "[", "file opens a JSON array");
    let spans = &lines[1..];
    assert!(!spans.is_empty(), "no span events in {text}");
    for e in spans {
        let body = e.strip_suffix(',').unwrap_or(e);
        hkrr_bench::json::validate(body).unwrap_or_else(|err| panic!("{err}: {e}"));
    }
    assert!(
        spans.iter().any(|e| e.contains("\"name\":\"train.fit\"")),
        "the fit span is missing: {text}"
    );

    for line in log.lines() {
        hkrr_bench::json::validate(line).unwrap_or_else(|err| panic!("{err}: {line}"));
    }
    let compress = log
        .lines()
        .find(|l| l.contains("\"train.hss_compress\""))
        .unwrap_or_else(|| panic!("no train.hss_compress event in {log:?}"));
    assert!(
        compress.contains("\"saturated\":false"),
        "the default budget does not saturate: {compress}"
    );
}
