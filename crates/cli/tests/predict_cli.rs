//! `wdt predict` splits the log into one chunk per worker thread. Rows
//! predict independently, so its output must not depend on how many
//! workers there are. A model artifact `wdt serve` would refuse is
//! refused by `wdt predict` and `wdt explain` too.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use wdt_types::json::JsonValue;

fn wdt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wdt"))
}

fn run(cmd: &mut Command) -> Vec<u8> {
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{cmd:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

fn tmp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wdt-predict-cli-tests-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Simulate a small log into `dir` and train a pooled model on it.
fn log_and_model(dir: &Path) -> (PathBuf, PathBuf) {
    let (log, model) = (dir.join("log.csv"), dir.join("model.json"));
    run(wdt()
        .args(["simulate", "--out", log.to_str().unwrap()])
        .args(["--days", "2", "--heavy-edges", "3", "--sparse-edges", "10"])
        .args(["--seed", "7", "--runs", "1"]));
    run(wdt()
        .args(["train", "--log", log.to_str().unwrap(), "--model", model.to_str().unwrap()])
        .args(["--threshold", "0"]));
    (log, model)
}

fn predict(log: &Path, model: &Path, threads: &str) -> Vec<u8> {
    run(wdt()
        .args(["predict", "--log", log.to_str().unwrap(), "--model", model.to_str().unwrap()])
        .env("WDT_THREADS", threads))
}

#[test]
fn predict_output_is_byte_identical_across_thread_counts() {
    let dir = tmp_dir("threads");
    let (log, model) = log_and_model(&dir);

    let one = predict(&log, &model, "1");
    let text = String::from_utf8(one.clone()).unwrap();
    let rows = text.lines().count() - 1;
    assert!(text.starts_with("id,edge,actual_mbps,predicted_mbps\n"), "{text:.200}");
    assert!(rows > 100, "only {rows} predictions");
    for threads in ["2", "8"] {
        assert!(predict(&log, &model, threads) == one, "WDT_THREADS={threads} output differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The array at `field` of a JSON object, mutably.
fn arr<'a>(m: &'a mut BTreeMap<String, JsonValue>, field: &str) -> &'a mut Vec<JsonValue> {
    match m.get_mut(field) {
        Some(JsonValue::Arr(a)) => a,
        other => panic!("artifact field '{field}' is not an array: {other:?}"),
    }
}

#[test]
fn predict_and_explain_refuse_artifacts_serve_would_refuse() {
    let dir = tmp_dir("refuse");
    let (log, model) = log_and_model(&dir);
    let JsonValue::Obj(good) = JsonValue::parse(&std::fs::read_to_string(&model).unwrap()).unwrap()
    else {
        panic!("artifact is not an object");
    };
    let names = good["names"].as_string_vec().unwrap();
    let col = good["kept"].as_usize_vec().unwrap()[0];

    type Edit = fn(&mut BTreeMap<String, JsonValue>);
    let cases: [(&str, Edit, String); 4] = [
        (
            "kept[0] = 20",
            |m| arr(m, "kept")[0] = JsonValue::Num(20.0),
            format!("artifact column 20 ('{}') is outside the 15-feature serving schema", names[0]),
        ),
        (
            "names[0] and names[1] swapped",
            |m| arr(m, "names").swap(0, 1),
            format!("artifact expects '{}' at column {col}, schema has '{}'", names[1], names[0]),
        ),
        (
            "names[0] renamed",
            |m| arr(m, "names")[0] = JsonValue::Str("ROmax_src".into()),
            format!("artifact expects 'ROmax_src' at column {col}, schema has '{}'", names[0]),
        ),
        (
            "normalizer.std one short",
            |m| {
                let Some(JsonValue::Obj(norm)) = m.get_mut("normalizer") else {
                    panic!("artifact has no normalizer object");
                };
                arr(norm, "std").pop();
            },
            "inconsistent model artifact".to_string(),
        ),
    ];
    for (what, edit, reason) in cases {
        let mut bad = good.clone();
        edit(&mut bad);
        let path = dir.join("bad.json");
        std::fs::write(&path, JsonValue::Obj(bad).to_string()).unwrap();
        let (log, path) = (log.to_str().unwrap(), path.to_str().unwrap());
        for cmd in [
            vec!["predict", "--log", log, "--model", path],
            vec!["explain", "--log", log, "--model", path, "--threshold", "0"],
        ] {
            let out = wdt().args(&cmd).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{what}: {cmd:?} exit; stderr: {stderr}");
            assert!(stderr.contains(&reason), "{what}: {cmd:?} stderr lacks '{reason}': {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
