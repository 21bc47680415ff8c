//! Self-tests of the harness at toy extents (`--smoke`: n ≤ 4096, one
//! child, two warm ops). Tier-1 does not build this package, so these
//! are what keeps it from bit-rotting or passing vacuously: run
//! `cargo test --offline --manifest-path benchmark/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use hpfc_benchmark::json::{self, Json};
use hpfc_benchmark::manifest::{self, END_TO_END, PER_LAYER};
use hpfc_benchmark::{op, workloads};

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// Run the real binary; returns (exit ok, stdout).
fn bench(test: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hpfc-benchmark"))
        .args(args)
        .arg("--out")
        .arg(out_dir(test))
        // The parent must scrub this before any child sees it.
        .env("HPFC_REGISTRY", "off")
        .output()
        .expect("spawn the benchmark binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn result_line(stdout: &str) -> Json {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_verifies_and_reports_every_end_to_end_metric() {
    for name in workloads::NAMES {
        let (ok, stdout) = bench("untraced", &["--smoke", "--workload", name, "--seed", "3"]);
        assert!(ok, "{name}: non-zero exit\n{stdout}");
        let line = result_line(&stdout);
        assert_eq!(
            line.get("correct"),
            Some(&Json::Bool(true)),
            "{name}: {stdout}"
        );
        assert_eq!(
            line.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{name}"
        );
        assert_eq!(
            line.get("attempted").and_then(Json::as_f64),
            Some(3.0),
            "{name}: 1 cold + 2 warm"
        );
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{name}: exactly the end-to-end metrics, in table order"
        );
        for (key, m) in metrics {
            assert!(
                manifest::is_contract_name(key),
                "{name}: bad metric name {key:?}"
            );
            let def = manifest::end_to_end(key).expect("known metric");
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{name}.{key}"
            );
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(
                v.is_finite() && v > 0.0,
                "{name}.{key} = {v}: end-to-end metrics are never 0"
            );
        }
        // Every metric is also printed by name with its unit.
        for m in &END_TO_END {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.contains(m.name) && l.trim_end().ends_with(m.unit)),
                "{name}: {} not printed",
                m.name
            );
        }
        assert!(stdout.contains("failed_ops_share"));
        // The stamp travels with the result file, and the HPFC_* name
        // the test planted is recorded as scrubbed.
        let file = out_dir("untraced").join(format!("result-{name}.json"));
        let record = json::parse(&std::fs::read_to_string(&file).expect("result file"))
            .expect("result JSON");
        let machine = record.get("machine").expect("machine stamp");
        for key in [
            "nproc",
            "cpu_model",
            "l2_per_core",
            "l3",
            "rustc",
            "git_commit",
            "scrubbed_env",
        ] {
            assert!(machine.get(key).is_some(), "{name}: stamp lacks {key}");
        }
        assert_eq!(
            machine.get("scrubbed_env"),
            Some(&Json::Arr(vec!["HPFC_REGISTRY".into()]))
        );
        for key in [
            "seed",
            "children_R",
            "warm_ops_per_child_W_max",
            "sample_counts",
            "samples",
        ] {
            assert!(record.get(key).is_some(), "{name}: record lacks {key}");
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_write_spans() {
    for name in workloads::NAMES {
        let (ok, stdout) = bench("traced", &["--smoke", "--workload", name, "--trace", "1"]);
        assert!(ok, "{name}: non-zero exit\n{stdout}");
        let line = result_line(&stdout);
        assert_eq!(
            line.get("correct"),
            Some(&Json::Bool(true)),
            "{name}: {stdout}"
        );
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{name}: exactly the per-layer metrics, in table order"
        );
        for ((key, m), def) in metrics.iter().zip(&PER_LAYER) {
            assert!(manifest::is_contract_name(key));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{name}.{key}"
            );
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}.{key}"
            );
        }

        let file = out_dir("traced").join(format!("trace-{name}.json"));
        let trace =
            json::parse(&std::fs::read_to_string(&file).expect("span file")).expect("span JSON");
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        let named = |n: &str| {
            spans
                .iter()
                .filter(|s| s.get("name").and_then(Json::as_str) == Some(n))
                .count()
        };
        for layer in [
            "op",
            "lang.parse",
            "lang.sema",
            "cfg.build",
            "rgraph.build",
            "rgraph.optimize",
            "codegen.lower",
            "interp.execute",
            "redrive",
            "runtime.redist.plan",
            "runtime.exec.replay",
            "roofline.memcpy",
        ] {
            assert!(named(layer) > 0, "{name}: no `{layer}` span");
        }
        for s in spans {
            let n = |k: &str| s.get(k).and_then(Json::as_f64);
            assert!(n("end_ns") >= n("start_ns"));
            if let Some(p) = n("parent") {
                assert!(p < n("id").unwrap(), "a parent span opens before its child");
            }
        }
        // In the trace file a layer the workload does not exercise is
        // absent, not zero; the guarded ladder is exercised by exactly
        // one workload.
        let measured = trace.get("metrics").expect("metrics");
        assert_eq!(
            measured.get("runtime.fault.checksums_remap_us").is_some(),
            workloads::is_guarded(name),
            "{name}"
        );
        assert!(
            measured.get("roofline.memcpy_gbps").is_some()
                && measured.get("trace_overhead_pct").is_some()
        );
        assert_eq!(
            trace.get("machine").and_then(|m| m.get("scrubbed_env")),
            Some(&Json::Arr(vec!["HPFC_REGISTRY".into()])),
            "{name}: the child records what the parent scrubbed"
        );
        let faults = measured
            .get("runtime.fault.faults_injected")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(
            faults.is_some_and(|f| f > 0.0),
            workloads::is_guarded(name),
            "{name}: fault counters"
        );
    }
}

#[test]
fn a_corrupted_reference_is_counted_as_failed_ops() {
    let (ok, stdout) = bench(
        "corrupt",
        &["--smoke", "--workload", "kernels", "--corrupt-reference"],
    );
    assert!(
        ok,
        "failures feed the result line; they never abort the run"
    );
    let line = result_line(&stdout);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(
        line.get("failed")
            .and_then(Json::as_f64)
            .is_some_and(|f| f >= 3.0),
        "{stdout}"
    );
    assert!(stdout.contains("FAILED:") && stdout.contains("reference says"));
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    let (ok, stdout) = bench("bad", &["--workload", "no_such_workload"]);
    assert!(!ok && stdout.trim().is_empty());
    let (ok, _) = bench("bad", &["--frobnicate"]);
    assert!(!ok);
}

#[test]
fn references_hold_across_seeds_in_process() {
    for name in workloads::NAMES {
        for seed in [0, 1, 2, 41, u64::MAX] {
            let w = workloads::generate(name, seed, true).expect("known workload");
            let o = op::run_op(&w);
            assert!(
                o.failures.is_empty(),
                "{name} seed {seed}: {:?}",
                o.failures
            );
            assert!(o.exact.remaps_moved > 0 && o.exact.net_bytes > 0);
            // (In one long-lived process the registry may quarantine the
            // guarded pair and hand lowering program-stripped artifacts.)
            assert!(
                o.exact.artifact_bytes > 0 || w.guard.is_some(),
                "{name} seed {seed}"
            );
            assert_eq!(
                w.guard.is_some(),
                o.stats.faults_injected > 0,
                "{name} seed {seed}"
            );
        }
    }
}

#[test]
fn the_committed_benchmark_json_is_the_generated_one() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        manifest::manifest().pretty(),
        "regenerate with `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --emit-manifest > BENCHMARK.json`"
    );
}
