//! Runs every workload at its smoke size through the command-line
//! interface and checks the result line against `BENCHMARK.json`.

use bibs_obs::json::{self, Value};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn check_workload(workload: &str, trace: &str, section: &str) {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--size",
        "smoke",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stderr}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));

    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m
                .get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite));
            (
                name.clone(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(printed, declared(section), "{workload} --trace {trace}");
    // Every metric is also printed by name with its unit and sample count.
    for (name, unit) in &printed {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("metric {name} = "))
                    && l.contains(&format!(" {unit} (n="))),
            "{name} missing from the metric lines"
        );
    }
    let meta = stdout
        .lines()
        .find(|l| l.starts_with("{\"meta\":"))
        .expect("a metadata line");
    let meta = json::parse(meta).unwrap();
    let meta = meta.get("meta").unwrap();
    for key in ["nproc", "jobs", "seed", "sizes", "commit", "rustc"] {
        assert!(meta.get(key).is_some(), "metadata lacks {key}");
    }
}

#[test]
fn every_workload_prints_a_valid_untraced_result() {
    for w in ["table2-paper", "wide-arith", "kchain-mintpg"] {
        check_workload(w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_a_valid_traced_result() {
    for w in ["table2-paper", "wide-arith", "kchain-mintpg"] {
        check_workload(w, "1", "per_layer");
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(names, ["table2-paper", "wide-arith", "kchain-mintpg"]);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "wide-arith", "--trace", "2"],
        &["--seed", "1"],
        &["--workload", "wide-arith", "--bogus", "1"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}

/// One-off `core.bibs.select_s` curve over the chain length (NOTES.md):
/// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored --nocapture`.
#[test]
#[ignore]
fn select_curve() {
    use bibs_corpus::gen::Family;
    for stages in [32, 64, 128] {
        let family = Family::MultiKernel { stages, width: 8 };
        let circuit = family.rtl().unwrap();
        let mut times: Vec<f64> = (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                bibs_core::bibs::select(&circuit, &family.bibs_options()).unwrap();
                t.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        println!("select_curve stages={stages} median_s={:.4}", times[1]);
    }
}
