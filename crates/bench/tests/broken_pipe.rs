//! `repro`, `diag` and `timeline` stop quietly when their reader goes
//! away: with standard output's read end closed before they write, they
//! exit without a panic (a panic would exit 101 with a backtrace).

use std::io::Read;
use std::process::{Command, Stdio};

fn assert_quiet_on_closed_stdout(bin: &str, args: &[&str]) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    // Close the read end before the child writes anything.
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    let status = child.wait().expect("binary exits");
    assert_ne!(status.code(), Some(101), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

#[test]
fn repro_stops_quietly_on_a_closed_pipe() {
    assert_quiet_on_closed_stdout(
        env!("CARGO_BIN_EXE_repro"),
        &["--table3", "--heuristic-model", "--scale", "0.05"],
    );
}

#[test]
fn diag_stops_quietly_on_a_closed_pipe() {
    assert_quiet_on_closed_stdout(env!("CARGO_BIN_EXE_diag"), &["Rand-7", "1", "1", "0.05"]);
}

#[test]
fn timeline_stops_quietly_on_a_closed_pipe() {
    assert_quiet_on_closed_stdout(env!("CARGO_BIN_EXE_timeline"), &["Sync-2", "gts", "0.05"]);
}
