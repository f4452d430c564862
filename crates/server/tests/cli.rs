//! `ddc-serve`'s command line: a flag the usage table does not list — a
//! typo, or a retired flag — must stop the process with exit 2 instead of
//! being ignored while a default engine boots and serves.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `ddc-serve` with `args`, killing it if it is still up after 10 s.
fn run(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ddc-serve"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let start = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if start.elapsed() > Duration::from_secs(10) {
            child.kill().unwrap();
            let out = child.wait_with_output().unwrap();
            panic!(
                "ddc-serve {args:?} was still running after 10 s\nstdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

#[test]
fn bad_flags_exit_2_instead_of_serving() {
    for (args, says) in [
        (
            "--no-such-flag --addr 127.0.0.1:0 --n 100 --dim 4",
            "unknown flag `--no-such-flag`",
        ),
        ("--addr 127.0.0.1:0 --workrs 8", "unknown flag `--workrs`"),
        ("--addr 127.0.0.1:0 --n", "--n needs a value"),
        // The retired access-log pair: `--access-log` now takes the rate.
        (
            "--addr 127.0.0.1:0 --access-log-sample-n 4",
            "unknown flag `--access-log-sample-n`",
        ),
        (
            "--addr 127.0.0.1:0 --access-log",
            "--access-log needs a value",
        ),
        // The retired coalescing knobs.
        (
            "--addr 127.0.0.1:0 --coalesce-window-us 200",
            "unknown flag `--coalesce-window-us`",
        ),
        (
            "--addr 127.0.0.1:0 --coalesce-max-batch 64",
            "unknown flag `--coalesce-max-batch`",
        ),
    ] {
        let out = run(&args.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(says), "{args}: {stderr}");
    }
}
