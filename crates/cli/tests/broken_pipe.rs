//! A reader that closes the pipe early (`anyscan … | head -1`) must end
//! the command quietly, not with a panic and exit status 101.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

fn anyscan(dir: &Path, args: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_anyscan"))
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "anyscan {args:?} failed: {status}");
}

#[test]
fn closed_stdout_ends_the_command_quietly() {
    let dir = std::env::temp_dir().join(format!("anyscan-broken-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    anyscan(
        &dir,
        &[
            "generate",
            "--kind",
            "sbm",
            "--n",
            "300",
            "--communities",
            "5",
            "--seed",
            "3",
            "--out",
            "g.bin",
        ],
    );
    anyscan(
        &dir,
        &[
            "index",
            "build",
            "--input",
            "g.bin",
            "--threads",
            "1",
            "--out",
            "g.asix",
        ],
    );

    // 2,000 result lines (~150 KB) outgrow the pipe's buffer, so the
    // command is still writing when the pipe closes below.
    let eps: Vec<String> = (1..=200).map(|i| format!("{}", i as f64 / 200.0)).collect();
    let eps = eps.join(",");
    let mut child = Command::new(env!("CARGO_BIN_EXE_anyscan"))
        .args([
            "index",
            "query",
            "--input",
            "g.bin",
            "--index",
            "g.asix",
            "--eps",
            &eps,
            "--mu",
            "2,3,4,5,6,7,8,9,10,11",
        ])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.contains("clusters"), "header line: {first:?}");
    // The reader is dropped here: the pipe is closed after one line.
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    std::fs::remove_dir_all(&dir).ok();
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        out.status.success(),
        "status {}, stderr: {stderr}",
        out.status
    );
}
