//! `wdt train` on a log with a corrupted record, run in its own process:
//! the CSV parser must refuse the line with an error naming the line and
//! the column. Before it did, a `nan` timestamp reached feature extraction
//! and panicked there, `inf` trained and saved a model silently, and a
//! zero-duration record trained as a rate of 0.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn wdt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wdt"))
}

fn tmp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wdt-csv-cli-tests-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn train(log: &Path, model: &Path) -> Output {
    wdt()
        .args(["train", "--log", log.to_str().unwrap(), "--model", model.to_str().unwrap()])
        .args(["--src", "42", "--dst", "0", "--threshold", "0"])
        .output()
        .unwrap()
}

/// Simulate a small campaign into `dir/log.csv`; returns the log's lines
/// and the 0-based index of its third ep42 → ep0 record (file line
/// `at + 1`).
fn campaign(dir: &Path) -> (Vec<String>, usize) {
    let log = dir.join("log.csv");
    let out = wdt()
        .args(["simulate", "--out", log.to_str().unwrap()])
        .args(["--days", "2", "--heavy-edges", "3", "--sparse-edges", "10"])
        .args(["--seed", "7", "--runs", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<String> =
        std::fs::read_to_string(&log).unwrap().lines().map(str::to_string).collect();
    let at = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.split(',').skip(1).take(2).eq(["42", "0"]))
        .nth(2)
        .map(|(i, _)| i)
        .expect("the campaign has ep42 → ep0 transfers");
    (lines, at)
}

/// Train on the log with line `at` replaced by `corrupted`: the command
/// must fail (not panic) with an error naming the line and `column`, and
/// save no model.
fn assert_train_refuses(dir: &Path, lines: &[String], at: usize, corrupted: &str, column: &str) {
    let bad_log = dir.join("bad.csv");
    let model = dir.join("bad-model.json");
    let mut body = lines.to_vec();
    body[at] = corrupted.to_string();
    std::fs::write(&bad_log, body.join("\n") + "\n").unwrap();
    let _ = std::fs::remove_file(&model);

    let out = train(&bad_log, &model);
    let err = String::from_utf8_lossy(&out.stderr);
    // A panic exits with 101; an error return with 1.
    assert_eq!(out.status.code(), Some(1), "{corrupted}: {err}");
    let want = format!("line {}: cannot parse column '{column}'", at + 1);
    assert!(err.contains(&want), "{corrupted}: want {want:?}, got {err}");
    assert!(!model.exists(), "{corrupted}: a model was saved");
}

#[test]
fn train_names_the_line_and_column_of_a_non_finite_timestamp() {
    let dir = tmp_dir("non-finite");
    let (lines, at) = campaign(&dir);

    // The untouched log trains: the edge and flags are valid.
    let model = dir.join("model.json");
    let out = train(&dir.join("log.csv"), &model);
    assert!(out.status.success(), "clean log: {}", String::from_utf8_lossy(&out.stderr));

    for (column, field, value) in
        [("start", 3, "nan"), ("end", 4, "inf"), ("start", 3, "-inf"), ("end", 4, "nan")]
    {
        let mut fields: Vec<&str> = lines[at].split(',').collect();
        fields[field] = value;
        assert_train_refuses(&dir, &lines, at, &fields.join(","), column);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn train_names_the_line_of_a_zero_duration_record() {
    let dir = tmp_dir("zero-duration");
    let (lines, at) = campaign(&dir);
    // End at the start instant; the record still carries its bytes.
    let mut fields: Vec<&str> = lines[at].split(',').collect();
    assert!(fields[5].parse::<f64>().unwrap() > 0.0, "the record moves bytes");
    fields[4] = fields[3];
    assert_train_refuses(&dir, &lines, at, &fields.join(","), "end");
    let _ = std::fs::remove_dir_all(&dir);
}
