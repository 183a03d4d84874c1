//! The `bits` command line through the built binary: `--tdm` takes only
//! `bibs` or `ka85`, may sit anywhere on the line, and an unknown value
//! or flag is a usage error (exit 2) that names the offending argument.

use std::process::{Command, Output};

const FIG4: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../circuits/fig4.ckt");

fn bits(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bits"))
        .args(args)
        .output()
        .expect("bits runs")
}

#[test]
fn unknown_tdm_is_a_usage_error_naming_the_value() {
    let out = bits(&[FIG4, "--tdm", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bits: unknown TDM 'bogus'"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a usage error");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = bits(&[FIG4, "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument '--frobnicate'"),
        "{stderr}"
    );
}

#[test]
fn tdm_before_the_path_selects_ka85() {
    let out = bits(&["--tdm", "ka85", FIG4]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== BITS flow for circuit"), "{stdout}");
    assert!(stdout.contains("selection (ka85)"), "{stdout}");
}
