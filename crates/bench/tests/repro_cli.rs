//! `repro` accepts only the targets it evaluates: an unknown flag is an
//! error before any harness is built, and `--help` prints the usage. A
//! failed `--check` still writes every requested file.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_prints_usage_and_exits_zero_without_a_harness() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert!(out.status.success(), "{flag}: {:?}", out.status);
        let stdout = text(&out.stdout);
        assert!(stdout.starts_with("usage: repro"), "{flag}: {stdout}");
        assert!(
            stdout.contains("--freqsweep"),
            "{flag}: usage lists the targets"
        );
        assert!(!text(&out.stderr).contains("building harness"), "{flag}");
    }
}

#[test]
fn unknown_arguments_fail_with_usage_before_any_work() {
    for args in [
        &["--foo"][..],
        &["--fig10"],
        &["--summary", "--sumary"],
        &["fig4"],
        &["--"],
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = text(&out.stderr);
        assert!(
            stderr.contains("unrecognized argument"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(!stderr.contains("building harness"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is evaluated");
    }
}

#[test]
fn known_targets_still_run() {
    let out = repro(&[
        "--table3",
        "--table4",
        "--heuristic-model",
        "--scale",
        "0.05",
    ]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("Table 3"), "{stdout}");
    assert!(stdout.contains("Table 4"), "{stdout}");
}

#[test]
fn failed_shape_check_still_writes_requested_files() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-failed-check");
    let _ = std::fs::remove_dir_all(&dir);
    let csv = dir.join("csv");
    let bench = dir.join("bench.json");
    // At this scale the heuristic model fails at least one shape claim.
    let out = repro(&[
        "--check",
        "--heuristic-model",
        "--scale",
        "0.05",
        "--jobs",
        "2",
        "--csv",
        csv.to_str().unwrap(),
        "--bench-json",
        bench.to_str().unwrap(),
    ]);
    let stdout = text(&out.stdout);
    assert!(stdout.contains("[FAIL]"), "{stdout}");
    assert!(!out.status.success(), "a failed claim exits non-zero");
    let csvs = std::fs::read_dir(&csv)
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert_eq!(csvs, 16, "every CSV is written: {}", text(&out.stderr));
    let json = std::fs::read_to_string(&bench).expect("bench report written");
    assert!(json.contains("colab-bench-run/1"), "{json}");
}
