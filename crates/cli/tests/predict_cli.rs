//! `wdt predict` splits the log into one chunk per worker thread. Rows
//! predict independently, so its output must not depend on how many
//! workers there are.

use std::path::{Path, PathBuf};
use std::process::Command;

fn wdt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wdt"))
}

fn run(cmd: &mut Command) -> Vec<u8> {
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{cmd:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wdt-predict-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn predict(log: &Path, model: &Path, threads: &str) -> Vec<u8> {
    run(wdt()
        .args(["predict", "--log", log.to_str().unwrap(), "--model", model.to_str().unwrap()])
        .env("WDT_THREADS", threads))
}

#[test]
fn predict_output_is_byte_identical_across_thread_counts() {
    let dir = tmp_dir();
    let (log, model) = (dir.join("log.csv"), dir.join("model.json"));
    run(wdt()
        .args(["simulate", "--out", log.to_str().unwrap()])
        .args(["--days", "2", "--heavy-edges", "3", "--sparse-edges", "10"])
        .args(["--seed", "7", "--runs", "1"]));
    run(wdt()
        .args(["train", "--log", log.to_str().unwrap(), "--model", model.to_str().unwrap()])
        .args(["--threshold", "0"]));

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
