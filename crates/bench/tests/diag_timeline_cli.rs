//! `diag` and `timeline` reject what they cannot run: an unknown
//! workload, scheduler or flag, and a count or scale that is not
//! positive print the usage on stderr and exit 1 before any simulation,
//! never a panic or a silent default.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn assert_rejected(bin: &str, name: &str, args: &[&str], reason: &str) {
    let out = run(bin, args);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
    assert!(stderr.contains(reason), "{name} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{name} {args:?}: nothing runs");
}

fn assert_help(bin: &str, name: &str) {
    for flag in ["--help", "-h"] {
        let out = run(bin, &[flag]);
        assert!(out.status.success(), "{name} {flag}: {:?}", out.status);
        assert!(text(&out.stdout).starts_with(&format!("usage: {name}")));
    }
}

const DIAG: &str = env!("CARGO_BIN_EXE_diag");
const SCALE: &str = "SCALE must be finite and positive";
const TIMELINE: &str = env!("CARGO_BIN_EXE_timeline");

#[test]
fn diag_rejects_bad_arguments_with_usage() {
    for (args, reason) in [
        (&["Bogus-9", "2", "2"][..], "unknown workload Bogus-9"),
        (&["Sync-2", "two", "2"], "BIG must be a positive count"),
        (&["Sync-2", "0", "0"], "BIG must be a positive count"),
        (&["Sync-2", "2", "0"], "LITTLE must be a positive count"),
        (&["Sync-2", "2", "-1"], "LITTLE must be a positive count"),
        (&["Sync-2", "2", "2", "0"], SCALE),
        (&["Sync-2", "2", "2", "inf"], SCALE),
        (&["Sync-2", "2", "2", "x"], SCALE),
        (
            &["Sync-2", "2", "2", "1", "extra"],
            "unexpected argument extra",
        ),
        (&["--jobs", "0"], "--jobs must be a positive count"),
        (&["--jobs"], "--jobs needs a count"),
        (&["--bogus"], "unrecognized argument --bogus"),
    ] {
        assert_rejected(DIAG, "diag", args, reason);
    }
}

#[test]
fn timeline_rejects_bad_arguments_with_usage() {
    for (args, reason) in [
        (&["nope"][..], "unknown workload nope"),
        (&["ferret", "bogus"], "unknown scheduler bogus"),
        (&["ferret", "colab", "0"], SCALE),
        (&["ferret", "colab", "-0.5"], SCALE),
        (&["ferret", "colab", "NaN"], SCALE),
        (&["ferret", "colab", "0.25", "x"], "unexpected argument x"),
        (&["--bogus"], "unrecognized argument --bogus"),
    ] {
        assert_rejected(TIMELINE, "timeline", args, reason);
    }
}

#[test]
fn help_prints_usage_and_exits_zero() {
    assert_help(DIAG, "diag");
    assert_help(TIMELINE, "timeline");
}

#[test]
fn valid_arguments_still_run() {
    let out = run(DIAG, &["--jobs", "2", "Rand-7", "1", "1", "0.05"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(
        stdout.starts_with("workload Rand-7 on 1B1S scale 0.05"),
        "{stdout}"
    );
    for kind in ["linux", "wash", "colab"] {
        assert!(stdout.contains(&format!("== {kind}")), "{stdout}");
    }

    let out = run(TIMELINE, &["Sync-2", "gts", "0.05"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.starts_with("Sync-2 under gts on 2B2S"), "{stdout}");
    assert!(stdout.contains("decision telemetry:"), "{stdout}");
}
