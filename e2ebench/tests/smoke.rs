//! Smoke run of every workload at tiny scale, untraced and traced: each
//! run passes its own checks and emits exactly the metric names that
//! `BENCHMARK.json` lists for that mode.

use std::process::Command;

/// The `"name"` values of one list in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// The metric names of the result line `{..., "metrics": {"<name>": {...}, ...}}`.
fn emitted(result_line: &str) -> Vec<String> {
    let metrics = &result_line[result_line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("\"value\"")
        .filter_map(|chunk| chunk.rsplit_once("\": {").map(|(head, _)| head))
        .map(|head| head.rsplit('"').next().expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_emits_every_metric() {
    for workload in listed("workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
                .args(["--workload", &workload, "--seed", "3", "--seconds", "0"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
            let mut got = emitted(last);
            let mut want = listed(section);
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "cold_infer", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench")).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
