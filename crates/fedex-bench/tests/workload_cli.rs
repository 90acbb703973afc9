//! The `workload` binary's argument handling: a flag its subcommand does
//! not know is a usage error (exit 2), never a silent default run.

use std::process::Command;

/// Run `workload` with `args`; returns its exit code and stderr.
fn workload(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_workload"))
        .args(args)
        .output()
        .expect("run the workload binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_exit_with_usage() {
    for args in [
        &["gen", "--name", "x"][..],
        &[
            "gen", "--seed", "3", "--preset", "smoke", "--outt", "x.ndjson",
        ],
        &["replay", "--trace", "missing.ndjson", "--worker", "1"],
        &["replay", "--trace", "missing.ndjson", "--differentail"],
    ] {
        let (code, stderr) = workload(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
    }
    // The check rejects only what it does not know.
    let (code, stderr) = workload(&["gen", "--preset", "smoke", "--seed", "3"]);
    assert_eq!(code, Some(0), "{stderr}");
}
