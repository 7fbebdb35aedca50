//! `calibrate fig1` at small counts: a first draw without an eligible
//! query is filled up from further draws, and a Hoeffding ratio not above
//! 10× is a failed self-check — exit 1 with the ratio on stderr — not a
//! panic.

use std::process::{Command, Output};

fn fig1(seed: &str) -> Output {
    let flags = ["fig1", "--queries", "1", "--population", "20000", "--pilot", "1000", "--seed", seed];
    Command::new(env!("CARGO_BIN_EXE_calibrate")).args(flags).output().expect("calibrate runs")
}

#[test]
fn a_draw_without_an_eligible_query_is_filled_up() {
    // Seed 6's two queries are neither AVG nor SUM over bounded data.
    let out = fig1("6");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 Conviva-style AVG/SUM queries"), "{stdout}");
    assert!(stdout.contains("Hoeffding / ground-truth sample-size ratio"), "{stdout}");
}

#[test]
fn a_failed_hoeffding_self_check_exits_1_with_the_ratio() {
    // Seed 2's one query needs 9.4× the ground truth's rows under Hoeffding.
    let out = fig1("2");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("got 9.4x") && !stderr.contains("panicked"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("ratio: 9.4x"));
}
