//! The `repro` exit-code contract, end to end against the real binary:
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | success |
//! | 1 | usage/runtime error |
//! | 3 | stream error / failed matrix cells |
//! | 4 | unknown backend / unknown decode mode |
//! | 5 | bad scenario |
//! | 6 | bad snapshot |
//!
//! README §"Exit codes" documents the same table; this test is the
//! executable version.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_file(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cli-contract-{}-{tag}", std::process::id()));
    std::fs::write(&path, bytes).expect("write temp file");
    path
}

#[test]
fn exit_0_on_a_successful_scenario_run() {
    let output = repro()
        .args(["--scenario", "quick-smoke", "scenario"])
        .output()
        .expect("repro runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("pair 0:0 correlated"), "stdout: {stdout}");
    assert!(stdout.contains("vdigest"), "stdout: {stdout}");
}

#[test]
fn exit_1_on_usage_errors() {
    for args in [&["no-such-target"][..], &["scenario"][..], &[][..]] {
        let output = repro().args(args).output().expect("repro runs");
        assert_eq!(output.status.code(), Some(1), "args: {args:?}");
    }
    let stderr =
        String::from_utf8_lossy(&repro().args(["bogus"]).output().expect("repro runs").stderr)
            .to_string();
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    // The usage text carries the whole contract table.
    assert!(stderr.contains("5 bad scenario"), "stderr: {stderr}");
    assert!(stderr.contains("6 bad snapshot"), "stderr: {stderr}");
}

#[test]
fn exit_1_when_a_sizing_flag_breaks_the_spec_validator() {
    // The monitor's sizing flags override fields of the `monitor`
    // preset, so a world the validator rejects fails like a bad `.scn`
    // key would — never as a silent empty run.
    for (flag, message) in [
        ("--pairs", "upstreams must be in 1..="),
        ("--shards", "shards must be in 1..="),
    ] {
        let output = repro()
            .args(["--scale", "quick", flag, "0", "monitor"])
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag} 0: {stderr}");
        assert!(stderr.contains(message), "{flag} 0: {stderr}");
        assert!(stderr.contains("usage:"), "{flag} 0: {stderr}");
        assert!(output.stdout.is_empty(), "{flag} 0 must not run");
    }
}

#[test]
fn exit_3_on_a_stream_error() {
    // A capture that opens correctly and dies mid-packet: the classic
    // pcap magic + one truncated record.
    let garbage = temp_file(
        "stream.pcap",
        &[
            0xd4, 0xc3, 0xb2, 0xa1, 0x02, 0x00, 0x04, 0x00, // magic, version
            0, 0, 0, 0, 0, 0, 0, 0, // zone, sigfigs
            0xff, 0xff, 0, 0, 0x01, 0, 0, 0, // snaplen, linktype
            0x01, 0x02, // torn record header
        ],
    );
    let output = repro()
        .args([
            "--scenario",
            "quick-smoke",
            "--pcap",
            garbage.to_str().unwrap(),
            "scenario",
        ])
        .output()
        .expect("repro runs");
    let _ = std::fs::remove_file(&garbage);
    assert_eq!(
        output.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn exit_4_on_an_unknown_backend_axis() {
    let output = repro()
        .args(["--backends", "paper,bogus", "matrix"])
        .output()
        .expect("repro runs");
    assert_eq!(output.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown backend"), "stderr: {stderr}");
}

#[test]
fn exit_4_on_an_unknown_decode_mode() {
    let output = repro()
        .args(["--scenario", "quick-smoke", "--decode", "bogus", "scenario"])
        .output()
        .expect("repro runs");
    assert_eq!(output.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown decode mode"), "stderr: {stderr}");
    // The error names the valid modes, like the backend twin above.
    assert!(stderr.contains("strict"), "stderr: {stderr}");
    assert!(stderr.contains("robust"), "stderr: {stderr}");
}

#[test]
fn exit_5_on_a_bad_scenario() {
    // An unknown preset name.
    let output = repro()
        .args(["--scenario", "no-such-preset", "scenario"])
        .output()
        .expect("repro runs");
    assert_eq!(output.status.code(), Some(5));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("quick-smoke"),
        "the valid list prints: {stderr}"
    );
    assert!(!stderr.contains("usage:"), "stderr: {stderr}");

    // A file that does not parse.
    let bad = temp_file("bad.scn", b"name = broken\nno-such-key = 1\n");
    let output = repro()
        .args(["--scenario", bad.to_str().unwrap(), "scenario"])
        .output()
        .expect("repro runs");
    let _ = std::fs::remove_file(&bad);
    assert_eq!(output.status.code(), Some(5));
}

#[test]
fn exit_6_on_a_bad_snapshot() {
    let bad = temp_file("bad.ssnp", b"definitely not a snapshot");
    let output = repro()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            bad.to_str().unwrap(),
        ])
        .output()
        .expect("repro runs");
    let _ = std::fs::remove_file(&bad);
    assert_eq!(output.status.code(), Some(6));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("snapshot"), "stderr: {stderr}");
    assert!(!stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn scenarios_target_lists_every_preset() {
    let output = repro().args(["scenarios"]).output().expect("repro runs");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in stepstone_scenario::preset::NAMES {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}
