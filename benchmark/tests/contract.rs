//! The catalogue, `BENCHMARK.json` and the result formats agree.

use dpxbench::metrics::{self, valid_name, valid_unit, END_TO_END, PER_LAYER};
use dpxbench::report::{MetricResult, WorkloadResult};
use dpxbench::workloads::NAMES;

#[test]
fn names_follow_the_contract_grammar() {
    assert!(NAMES.iter().all(|n| valid_name(n)));
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name) && valid_unit(m.unit), "{m:?}");
    }
    for good in [
        "wall_s",
        "dag.deps_per_vertex",
        "swlag-sockets-pull",
        "9lives",
    ] {
        assert!(valid_name(good), "{good}");
    }
    let long = "x".repeat(65);
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "slash/name",
        "ü",
        long.as_str(),
    ] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    for good in ["ms", "1/s", "count", "%", "B"] {
        assert!(valid_unit(good), "{good}");
    }
    for bad in ["", "per second", "seventeen-letters"] {
        assert!(!valid_unit(bad), "{bad:?}");
    }
}

#[test]
fn catalogue_names_are_unique_and_setup_is_first_class() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    names.extend(NAMES);
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    let setup = metrics::find("setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    let widest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "set-up has the largest bound");
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
}

/// `BENCHMARK.json` is written by hand; this keeps it equal to the
/// catalogue without a JSON parser: every entry appears verbatim, and
/// there are no entries beyond them.
#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.unwrap()
        );
        assert!(json.contains(&entry), "missing or different: {entry}");
    }
    for m in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.name()
        );
        assert!(json.contains(&entry), "missing or different: {entry}");
    }
    for w in NAMES {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": \"")),
            "{w}"
        );
    }
    let entries = json.matches("{\"name\": ").count();
    assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + NAMES.len());
}

#[test]
fn records_round_trip_and_the_contract_line_is_complete() {
    let mut result = WorkloadResult {
        name: "swlag-threads".to_string(),
        attempted: 5,
        failed: 0,
        ..WorkloadResult::default()
    };
    result
        .metrics
        .push(MetricResult::new("wall_s", &[2.5, 2.25, 2.75]));
    result
        .metrics
        .push(MetricResult::new("cells_per_sec", &[1.6e6]));
    result
        .metrics
        .push(MetricResult::new("dag.dependencies_ns", &[11.0625]));
    result.ledger.push(dpxbench::ledger::LedgerRow::new(
        "dag.dependencies_ns",
        1.0,
        11.0625,
    ));
    result.notes.push("a note\twith a tab".to_string());
    let mut back = WorkloadResult::from_records(&result.to_records()).unwrap();
    result.notes[0] = "a note with a tab".to_string();
    assert_eq!(back, result);
    assert!(WorkloadResult::from_records("no records here\n").is_err());

    let line = back.contract_line(false);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {"));
    for m in END_TO_END {
        assert!(
            line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{}",
            m.name
        );
    }
    assert!(line.contains("\"wall_s\": {\"value\": 2.5, \"unit\": \"s\"}"));
    let layers = back.contract_line(true);
    for m in PER_LAYER {
        assert!(
            layers.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{}",
            m.name
        );
    }
    back.failed = 1;
    assert!(back.contract_line(false).starts_with("{\"correct\": false"));
}
