//! `scale --wire`: the flag reaches the sessions. `verify` must put
//! every transmitted update through the codec and leave the routing
//! outcome unchanged; an unknown mode is rejected with exit 2.

use std::process::{Command, Output};

fn scale(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scale"))
        .args(["--workload", "churn", "--prefixes", "50", "--minutes", "1"])
        .args(["--obs"])
        .args(extra)
        .output()
        .expect("scale runs")
}

fn stdout_of(extra: &[&str]) -> String {
    let out = scale(extra);
    assert!(
        out.status.success(),
        "scale {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The total of metric `name` in the obs report (0 when absent).
fn metric(report: &str, name: &str) -> u64 {
    report
        .lines()
        .find_map(|l| {
            let mut cols = l.split_whitespace();
            (cols.next() == Some(name)).then(|| cols.next().expect("value").parse().expect("u64"))
        })
        .unwrap_or(0)
}

/// The integer value of `"key":N` in the JSON row.
fn json_u64(row: &str, key: &str) -> u64 {
    let at = row.find(&format!("\"{key}\":")).expect("key in row") + key.len() + 3;
    row[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|v| v.parse().ok())
        .expect("integer value")
}

#[test]
fn wire_verify_encodes_sessions_without_changing_the_run() {
    let off = stdout_of(&[]);
    let verify = stdout_of(&["--wire", "verify"]);
    assert!(off.contains("\"wire\":\"off\""), "{off}");
    assert!(verify.contains("\"wire\":\"verify\""), "{verify}");
    assert_eq!(metric(&off, "core.wire.encoded"), 0);
    let encoded = metric(&verify, "core.wire.encoded");
    assert!(encoded > 0, "--wire verify encoded nothing:\n{verify}");
    assert_eq!(encoded, metric(&verify, "core.updates.transmitted"));
    for name in ["core.updates.received", "core.updates.transmitted"] {
        assert_eq!(metric(&off, name), metric(&verify, name), "{name}");
    }
    assert_eq!(json_u64(&off, "events"), json_u64(&verify, "events"));
}

#[test]
fn unknown_wire_mode_exits_2() {
    let out = scale(&["--wire", "sideways"]);
    assert_eq!(out.status.code(), Some(2));
}
