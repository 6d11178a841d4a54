//! The Table II rows that run in a child process of their own, each
//! driven through `table2 --child-row <label>` at about 1 000
//! iterations: the wire format comes back with one positive sample per
//! run, or the child says why the kernel refused the row.

use std::process::Command;

/// Each row with the `LP_BENCH_ITERS` that gives it about 1 000
/// iterations (the row divides the variable by its own constant).
const ROWS: [(&str, u64); 5] = [
    ("seccomp-bpf", 1_000),
    ("seccomp-trap", 10_000),
    ("seccomp-user", 1_000_000),
    ("ptrace", 1_000_000),
    ("lazypoline-hardened", 1_000),
];

#[test]
fn every_child_row_measures_or_says_why_not() {
    for (label, iters) in ROWS {
        let out = Command::new(env!("CARGO_BIN_EXE_table2"))
            .args(["--child-row", label])
            .env("LP_BENCH_ITERS", iters.to_string())
            .env("LP_BENCH_RUNS", "2")
            .output()
            .expect("table2 runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if out.status.code() == Some(2) {
            // A kernel that refuses the mechanism (a container's own
            // seccomp policy, no SUD, …): the row is left out.
            let refusal = format!("skip: {label} row (");
            assert!(
                stderr.contains(&refusal),
                "{label}: exit 2 without a refusal: {stderr}"
            );
            eprintln!("{}", stderr.trim());
            continue;
        }
        assert!(out.status.success(), "{label}: {}\n{stderr}", out.status);
        let samples: Vec<f64> = stdout
            .lines()
            .find_map(|l| l.strip_prefix("cycles "))
            .unwrap_or_else(|| panic!("{label}: no samples in {stdout:?}"))
            .split_whitespace()
            .map(|t| t.parse().expect("a number"))
            .collect();
        assert_eq!(samples.len(), 2, "{label}: {stdout:?}");
        assert!(
            samples.iter().all(|&c| c.is_finite() && c > 0.0),
            "{label}: {samples:?}"
        );
        if label == "lazypoline-hardened" {
            assert!(stdout.contains("\nharden "), "{label}: {stdout:?}");
        }
    }
}
