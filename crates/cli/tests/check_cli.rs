//! End-to-end test of `wdt check`: the subcommand runs in its own process
//! (so the WDT_CHECK env gate is exercised exactly as in CI), refreshes a
//! golden digest, verifies against it, and fails loudly on drift.

use std::process::Command;

fn wdt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wdt"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("wdt-check-cli-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// Tiny campaign so the test stays fast; the full-size spec is covered by
/// the root golden test and the CI job.
const SPEC: [&str; 8] =
    ["--days", "0.5", "--heavy-edges", "2", "--sparse-edges", "6", "--oracle-cases", "40"];

#[test]
fn check_refreshes_then_verifies_and_detects_drift() {
    let golden = tmp("cli-golden.digest");
    let _ = std::fs::remove_file(&golden);

    // Missing golden without --refresh: a helpful error.
    let out = wdt()
        .arg("check")
        .args(["--golden", golden.to_str().unwrap()])
        .args(SPEC)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--refresh"), "unhelpful error: {err}");

    // --refresh writes the digest.
    let out = wdt()
        .arg("check")
        .args(["--golden", golden.to_str().unwrap(), "--refresh"])
        .args(SPEC)
        .output()
        .unwrap();
    assert!(out.status.success(), "refresh failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&golden).unwrap();
    assert!(text.starts_with("# wdt-check trace digest v1"), "{text}");

    // Same spec now verifies clean, and reports the oracle + campaign runs.
    let out = wdt()
        .arg("check")
        .args(["--golden", golden.to_str().unwrap()])
        .args(SPEC)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "verify failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("0 failure(s)"), "{stdout}");
    assert!(stdout.contains("digest matches"), "{stdout}");
    assert!(stdout.contains("invariant checks"), "checks did not run: {stdout}");

    // A different seed drifts the log; the digest comparison must fail and
    // name the mismatch.
    let out = wdt()
        .arg("check")
        .args(["--golden", golden.to_str().unwrap(), "--seed", "4242"])
        .args(SPEC)
        .output()
        .unwrap();
    assert!(!out.status.success(), "drifted campaign passed the golden check");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("does not match"), "{err}");

    // A corrupted golden file is rejected by its embedded hash.
    std::fs::write(&golden, text.replacen("total", "total 9", 1)).unwrap();
    let out = wdt()
        .arg("check")
        .args(["--golden", golden.to_str().unwrap()])
        .args(SPEC)
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn check_scenario_verifies_a_scenario_digest() {
    let dir = tmp("check-scenario");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sfile = dir.join("s.json");
    std::fs::write(
        &sfile,
        r#"{"name": "check-s", "days": 1.0,
            "traffic": {"heavy_edges": 3, "sparse_edges": 8, "runs": 2},
            "capacity": [{"kind": "egress_limit", "endpoints": [2],
                          "start_day": 0.0, "end_day": 1.0, "factor": 0.4}]}"#,
    )
    .unwrap();
    let golden = dir.join("s.digest");
    let check = |refresh: bool| {
        let mut cmd = wdt();
        cmd.arg("check").args(["--scenario", sfile.to_str().unwrap()]).args([
            "--golden",
            golden.to_str().unwrap(),
            "--oracle-cases",
            "5",
        ]);
        if refresh {
            cmd.arg("--refresh");
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    };
    check(true);
    check(false);
    let text = std::fs::read_to_string(&golden).unwrap();
    assert!(text.contains("scenario: check-s"), "header names the scenario: {text}");
}

#[test]
fn check_rejects_unknown_flags() {
    let out = wdt().arg("check").args(["--golden", "x", "--oracel-cases", "9"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--oracel-cases"), "{err}");
}
