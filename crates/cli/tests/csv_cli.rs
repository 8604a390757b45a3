//! `wdt train` on a log with a non-finite timestamp, run in its own
//! process: the CSV parser must refuse the line with an error naming the
//! line and the column. Before it did, `nan` reached feature extraction
//! and panicked there, and `inf` trained and saved a model silently.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn wdt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wdt"))
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wdt-csv-cli-tests-{}", std::process::id()));
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

#[test]
fn train_names_the_line_and_column_of_a_non_finite_timestamp() {
    let dir = tmp_dir();
    let log = dir.join("log.csv");
    let out = wdt()
        .args(["simulate", "--out", log.to_str().unwrap()])
        .args(["--days", "2", "--heavy-edges", "3", "--sparse-edges", "10"])
        .args(["--seed", "7", "--runs", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().collect();

    // The untouched log trains: the edge and flags are valid.
    let model = dir.join("model.json");
    let out = train(&log, &model);
    assert!(out.status.success(), "clean log: {}", String::from_utf8_lossy(&out.stderr));

    // Corrupt the third ep42 → ep0 record (0-based index `at`, so file
    // line `at + 1`).
    let at = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.split(',').skip(1).take(2).eq(["42", "0"]))
        .nth(2)
        .map(|(i, _)| i)
        .expect("the campaign has ep42 → ep0 transfers");
    let bad_log = dir.join("bad.csv");
    for (column, field, value) in
        [("start", 3, "nan"), ("end", 4, "inf"), ("start", 3, "-inf"), ("end", 4, "nan")]
    {
        let mut fields: Vec<&str> = lines[at].split(',').collect();
        fields[field] = value;
        let corrupted = fields.join(",");
        let mut body: Vec<&str> = lines.clone();
        body[at] = &corrupted;
        std::fs::write(&bad_log, body.join("\n") + "\n").unwrap();
        let _ = std::fs::remove_file(&model);

        let out = train(&bad_log, &model);
        let err = String::from_utf8_lossy(&out.stderr);
        // A panic exits with 101; an error return with 1.
        assert_eq!(out.status.code(), Some(1), "{value} in {column}: {err}");
        let want = format!("line {}: cannot parse column '{column}'", at + 1);
        assert!(err.contains(&want), "{value} in {column}: want {want:?}, got {err}");
        assert!(!model.exists(), "{value} in {column}: a model was saved");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
