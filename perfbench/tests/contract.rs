//! The benchmark's own contract: seeded inputs, metric names, the
//! committed `BENCHMARK.json`, the doc, argument handling, and a smoke
//! run of every workload with no failed operation.

use perfbench::metrics::{self, valid_name, Better};
use perfbench::workloads::{rebranch, yolo};
use perfbench::{deploy, run, serve, Args, Workload};
use serde::json::Value as Json;

fn data(ts: &[yoloc_tensor::Tensor]) -> Vec<Vec<f32>> {
    ts.iter().map(|t| t.data().to_vec()).collect()
}

#[test]
fn same_seed_gives_same_inputs_and_trace() {
    for (i, desc) in yolo::descs().iter().enumerate() {
        assert_eq!(
            data(&yolo::inputs(desc, i, 7)),
            data(&yolo::inputs(desc, i, 7))
        );
        assert_ne!(
            data(&yolo::inputs(desc, i, 7)),
            data(&yolo::inputs(desc, i, 8))
        );
    }
    let key = |seed| {
        serve::trace(seed, 2_000_000)
            .iter()
            .map(|a| (a.id, a.model, a.arrival_ns, a.deadline_ns, a.input_seed))
            .collect::<Vec<_>>()
    };
    assert!(!key(7).is_empty());
    assert_eq!(key(7), key(7));
    assert_ne!(key(7), key(8));

    assert_eq!(data(&rebranch::inputs(7)), data(&rebranch::inputs(7)));
    assert_ne!(data(&rebranch::inputs(7)), data(&rebranch::inputs(8)));
    let weights = |seed| {
        let (m, cal) = rebranch::model(seed);
        (
            m.classifier.weight.value.data().to_vec(),
            cal.data().to_vec(),
        )
    };
    assert_eq!(weights(7), weights(7));
    assert_ne!(weights(7), weights(8));

    let faults = |seed| {
        deploy::networks(seed)
            .into_iter()
            .map(|(d, o)| (d, o.faults))
            .collect::<Vec<_>>()
    };
    assert_eq!(faults(7), faults(7));
    assert_ne!(faults(7), faults(8));
}

#[test]
fn metric_and_workload_names_are_valid_and_unique() {
    let mut names: Vec<&str> = metrics::all().map(|m| m.name).collect();
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    for n in &names {
        assert!(valid_name(n), "invalid name {n:?}");
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "duplicate names");
    for bad in ["", ".x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    let setup = metrics::END_TO_END.iter().find(|m| m.name == "setup_s");
    let widest = metrics::END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert!(setup
        .is_some_and(|m| m.unit == "s" && m.better == Better::Lower && m.bound == Some(widest)));
    assert!(widest <= 0.25);
}

#[test]
fn benchmark_json_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        Json::parse(&text).expect("valid JSON"),
        metrics::manifest(),
        "regenerate with `perfbench --manifest`"
    );
}

#[test]
fn readme_tables_match_the_registry() {
    let readme = include_str!("../README.md");
    for m in metrics::all() {
        let (column, workloads) = match m.bound {
            Some(b) => (b.to_string(), String::new()),
            None if m.workloads == Workload::ALL => (m.layer.to_string(), "all | ".to_string()),
            None => {
                let names: Vec<_> = m.workloads.iter().map(|w| w.name()).collect();
                (m.layer.to_string(), format!("{} | ", names.join(", ")))
            }
        };
        let row = format!(
            "| `{}` | {} | {} | {column} | {workloads}{} |",
            m.name,
            m.unit,
            m.better.label(),
            m.about
        );
        assert!(readme.contains(&row), "README.md lacks the row {row}");
    }
    for w in Workload::ALL {
        assert!(
            readme.contains(&format!("`{}`", w.name())),
            "README.md does not describe {}",
            w.name()
        );
    }
}

#[test]
fn arguments_are_validated() {
    let parse = |s: &str| Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = parse("--workload rebranch --seed 3 --seconds 1.5 --trace 1").expect("valid");
    assert_eq!(
        (a.workload, a.seed, a.seconds, a.trace),
        (Workload::Rebranch, 3, 1.5, true)
    );
    assert_eq!(
        parse("--seed 1 --workload yolo").expect("valid").seconds,
        metrics::RUN_SECONDS as f64
    );
    for bad in [
        "--workload nope --seed 1",
        "--workload yolo",
        "--seed 1",
        "--workload yolo --seed -1",
        "--workload yolo --seed 1 --trace 2",
        "--workload yolo --seed 1 --seconds -3",
        "--workload yolo --seed 1 --bogus 1",
        "--workload yolo --seed",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} accepted");
    }
}

/// One test, so the oracles' scalar-tier environment override never
/// overlaps another workload's set-up.
#[test]
fn smoke_run_of_every_workload_has_no_errors() {
    for workload in Workload::ALL {
        let out = run(&Args {
            workload,
            seed: 5,
            seconds: 0.0,
            trace: true,
            smoke: true,
        });
        assert!(out.attempted > 0, "{}: nothing attempted", workload.name());
        assert_eq!(
            out.error_rate(),
            0.0,
            "{}: {} of {} failed",
            workload.name(),
            out.failed,
            out.attempted
        );
        for m in metrics::END_TO_END {
            assert!(
                out.values[m.name] > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                out.values[m.name]
            );
        }
        for traced in [false, true] {
            let line = out.result_json(traced);
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        }
        assert!(out.trace.is_some());
    }
}
