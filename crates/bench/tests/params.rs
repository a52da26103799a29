//! A `G500_*` variable no run can use ends a harness with one line on stderr
//! and exit 2, before anything runs — never the default in silence, never a
//! panic from inside a rank thread (exit 101). One test per failure mode,
//! against a real harness binary.

use std::process::Command;

/// Run `t2_headline` with `var=value`; its exit code and stderr.
fn t2_with(var: &str, value: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_t2_headline"))
        .env(var, value)
        .output()
        .expect("spawn t2_headline");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unparsable_value_exits_2_and_names_it() {
    let (code, err) = t2_with("G500_MAX_RANKS", "abc");
    assert_eq!(code, Some(2), "{err}");
    assert_eq!(
        err.trim(),
        "t2_headline: G500_MAX_RANKS=abc is not an unsigned integer"
    );
    let (code, err) = t2_with("G500_DROP_RATE", "lots");
    assert_eq!(code, Some(2), "{err}");
    assert_eq!(
        err.trim(),
        "t2_headline: G500_DROP_RATE=lots is not a number"
    );
}

#[test]
fn out_of_range_value_exits_2_and_names_the_range() {
    let (code, err) = t2_with("G500_ROOTS", "0");
    assert_eq!(code, Some(2), "{err}");
    assert_eq!(err.trim(), "t2_headline: G500_ROOTS=0 is not at least 1");
    let (code, err) = t2_with("G500_SCALE_PER_RANK", "63");
    assert_eq!(code, Some(2), "{err}");
    assert_eq!(
        err.trim(),
        "t2_headline: G500_SCALE_PER_RANK=63 is not 1 to 62"
    );
}
