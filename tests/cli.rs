//! The `htnoc` command line refuses what it cannot parse: it prints its
//! usage to stderr and exits with status 2 instead of running a default.

use std::process::{Command, Output};

fn htnoc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_htnoc"))
        .args(args)
        .output()
        .expect("htnoc runs")
}

#[test]
fn bad_arguments_print_the_usage_and_exit_2() {
    for args in [
        &["bogus"][..],
        &[
            "attack",
            "--app",
            "nope",
            "--strategy",
            "nope",
            "--infected",
            "500",
            "--cycles",
            "99999999999999999999",
        ],
        &["attack", "--app", "nope"],
        &["attack", "--strategy", "nope"],
        &["attack", "--infected", "500"],
        &["attack", "--infected", "-1"],
        &["attack", "--infected", "NaN"],
        &["attack", "--cycles", "99999999999999999999"],
        &["attack", "--cycles", "-5"],
        &["attack", "--seed", "x"],
        &["attack", "--bogus", "1"],
        &["attack", "--app"],
        &["attack", "stray"],
        &["clean", "--strategy", "lob"],
        &["power", "--json"],
        &["list", "extra"],
    ] {
        let out = htnoc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage:"),
            "{args:?} prints no usage: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn json_is_a_switch_not_a_flag_with_a_value() {
    let out = htnoc(&["attack", "--json", "--app", "fft", "--cycles", "10"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("workload fft |"), "{stdout}");
    assert!(stdout.contains("\"delivered_packets\""), "{stdout}");
}

#[test]
fn good_arguments_run() {
    let out = htnoc(&["list"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("strategies:"));
}
