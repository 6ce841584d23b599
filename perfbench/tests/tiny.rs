//! Every workload end to end at tiny sizes, in both the timed and the traced
//! run, plus the agreement between the metric lists and `BENCHMARK.json`.

use perfbench::run::{self, Opts, Scale, Workload, END_TO_END, PER_LAYER};
use sfcp_service::json::{self, Value};

fn tiny(workload: Workload, trace: bool) -> run::Report {
    let opts = Opts {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
    };
    run::run(&opts).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()))
}

#[test]
fn every_workload_runs_checked_and_reports_its_metric_set() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tiny");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = tiny(workload, trace);
            assert!(report.correct(), "{}: {:?}", workload.name(), report.errors);
            assert!(report.attempted > 0);
            let names: Vec<(&str, &str)> =
                report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(names, want);
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));

            let line = json::parse(report.result_line().as_bytes()).unwrap();
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            let metrics = line.get("metrics").unwrap();
            assert!(want.iter().all(|(n, _)| metrics.get(n).is_some()));

            let written = report.write(&dir).unwrap();
            assert_eq!(written.len(), if trace { 2 } else { 1 });
            if trace {
                let spans = std::fs::read_to_string(&written[1]).unwrap();
                let doc = json::parse(spans.as_bytes()).unwrap();
                let events = doc.get("traceEvents").unwrap().as_array().unwrap();
                for name in [
                    "solve",
                    "decompose",
                    "canonize",
                    "group_cycles",
                    "sequential",
                    "request",
                ] {
                    assert!(
                        events
                            .iter()
                            .any(|e| e.get("name").and_then(Value::as_str) == Some(name)),
                        "{}: no {name} span",
                        workload.name()
                    );
                }
                assert!(doc
                    .get("programTraceSummary")
                    .and_then(|s| s.get("spans"))
                    .is_some());
            }
        }
    }
}

#[test]
fn traced_runs_see_the_programs_own_phases() {
    let report = tiny(Workload::RandomForest, true);
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    assert!(value("trace.label_tree_nodes") > 0.0);
    assert!(value("trace.doubling_rounds") >= 1.0);
    assert!(value("pram.work") > 0.0 && value("pram.rounds") > 0.0);
    assert_eq!(value("error_rate"), 0.0);
    let cycles = tiny(Workload::LongCycles, true);
    let value = |name: &str| {
        cycles
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    assert_eq!(
        value("trace.label_tree_nodes"),
        0.0,
        "cycles only: no tree labelling"
    );
    assert!(value("trace.label_cycle_nodes") > 0.0);
}

#[test]
fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = json::parse(text.as_bytes()).unwrap();
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), owned(&END_TO_END));
    assert_eq!(list("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
