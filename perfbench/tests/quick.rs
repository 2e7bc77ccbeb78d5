//! Self-test at quick size: every workload, untraced and traced, ends
//! with a result line that is correct, has no failed operation, and
//! carries every metric `BENCHMARK.json` names, with its unit.

use std::path::PathBuf;
use std::process::Command;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("field value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_ssdm-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {:?}:\n{stdout}",
        out.status
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_reports_every_metric_without_failures() {
    for workload in ["interactive", "analytic", "ingest"] {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = run(workload, trace);
            assert!(line.starts_with("{\"correct\":true,"), "{workload}: {line}");
            assert!(line.contains("\"failed\":0,"), "{workload}: {line}");
            assert!(!line.contains("\"attempted\":0,"), "{workload}: {line}");
            for (name, unit) in declared(section) {
                let entry = format!("\"{name}\":{{\"value\":");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: no {name} in {line}"));
                let (value, rest) = line[at + entry.len()..]
                    .split_once(',')
                    .expect("value, unit");
                let value: f64 = value
                    .parse()
                    .unwrap_or_else(|_| panic!("{workload}: {name} = {value} is not a number"));
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(
                    rest.starts_with(&format!("\"unit\":\"{unit}\"}}")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
        }
    }
}
