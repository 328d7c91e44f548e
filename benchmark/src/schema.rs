//! The schema self-check: `BENCHMARK.json` must stay inside the limits
//! its contract sets and must repeat the metric and workload tables of
//! this crate, and a run must have emitted every metric it declares.

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::workloads::SPECS;

const MAX_WORKLOADS: usize = 8;
const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;

/// A workload or metric name: starts with a letter or digit, at most 64
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn check_metric_list(
    section: &str,
    declared: &[Json],
    expected: &[Metric],
    limit: usize,
    problems: &mut Vec<String>,
) {
    if declared.is_empty() || declared.len() > limit {
        problems.push(format!("{section}: {} metrics, allowed 1 to {limit}", declared.len()));
    }
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    for m in declared {
        let name = field(m, "name");
        if !valid_name(&name) {
            problems.push(format!("{section}: metric name {name:?} is not well formed"));
        }
        if !valid_unit(&field(m, "unit")) {
            problems.push(format!("{section}: unit of {name} is not well formed"));
        }
        if !expected.iter().any(|e| e.name == name) {
            problems.push(format!("{section}: {name} is declared but never measured"));
        }
    }
    for e in expected {
        let Some(m) = declared.iter().find(|m| field(m, "name") == e.name) else {
            problems.push(format!("{section}: {} is measured but not declared", e.name));
            continue;
        };
        let bound = m.get("bound").and_then(Json::as_f64);
        if field(m, "unit") != e.unit || field(m, "better") != e.better.as_str() || bound != e.bound
        {
            problems.push(format!(
                "{section}: {} is declared as ({}, {}, {bound:?}), measured as ({}, {}, {:?})",
                e.name,
                field(m, "unit"),
                field(m, "better"),
                e.unit,
                e.better.as_str(),
                e.bound
            ));
        }
    }
}

/// Every way `bench` (the parsed `BENCHMARK.json`) breaks its limits or
/// disagrees with this crate's tables; empty when it is sound.
pub fn check_declaration(bench: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let list = |key: &str| bench.get(key).map(Json::elements).unwrap_or(&[]);

    let workloads = list("workloads");
    if workloads.len() < 2 || workloads.len() > MAX_WORKLOADS {
        problems.push(format!("{} workloads, allowed 2 to {MAX_WORKLOADS}", workloads.len()));
    }
    let declared_names: Vec<&str> =
        workloads.iter().filter_map(|w| w.get("name").and_then(Json::as_str)).collect();
    for name in &declared_names {
        if !valid_name(name) {
            problems.push(format!("workload name {name:?} is not well formed"));
        }
    }
    let measured_names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    if declared_names != measured_names {
        problems.push(format!("workloads declared {declared_names:?}, run {measured_names:?}"));
    }

    check_metric_list("end_to_end", list("end_to_end"), &END_TO_END, MAX_END_TO_END, &mut problems);
    check_metric_list("per_layer", list("per_layer"), &PER_LAYER, MAX_PER_LAYER, &mut problems);
    problems
}

/// The metrics `bench` declares under `section` that `metrics` (the
/// `metrics` object of a result line) does not carry as a number.
pub fn missing_metrics(bench: &Json, section: &str, metrics: &Json) -> Vec<String> {
    bench
        .get(section)
        .map(Json::elements)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str))
        .filter(|name| {
            metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64).is_none()
        })
        .map(|name| format!("{section}: {name} was not emitted"))
        .collect()
}

fn metric_list(table: &[Metric]) -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    Json::Arr(
        table
            .iter()
            .map(|m| {
                let mut entry = vec![
                    ("name", text(m.name)),
                    ("unit", text(m.unit)),
                    ("better", text(m.better.as_str())),
                ];
                entry.extend(m.bound.map(|b| ("bound", Json::Num(b))));
                Json::obj(entry)
            })
            .collect(),
    )
}

/// `BENCHMARK.json` as this crate's tables define it (`--declaration`
/// prints it, so the file is regenerated, not edited, when a table moves).
pub fn declaration(command: &[&str], paths: &[&str], run_seconds: u32) -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let text = |s: &str| Json::Str(s.to_string());
    Json::obj([
        ("command", strings(command)),
        ("paths", strings(paths)),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                SPECS
                    .iter()
                    .map(|s| Json::obj([("name", text(s.name)), ("why", text(s.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", metric_list(&END_TO_END)),
        ("per_layer", metric_list(&PER_LAYER)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn names_and_units() {
        assert!(valid_name("tune_wall_s") && valid_name("cost.hit-rate") && valid_name("3x"));
        assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    fn sound() -> String {
        declaration(&["cargo", "run"], &["benchmark"], 15).render()
    }

    #[test]
    fn a_declaration_made_from_the_tables_is_sound() {
        assert_eq!(check_declaration(&parse(&sound()).unwrap()), Vec::<String>::new());
    }

    #[test]
    fn drift_between_file_and_tables_is_reported() {
        let renamed = sound().replace("\"tune_wall_s\"", "\"tune wall\"");
        let problems = check_declaration(&parse(&renamed).unwrap());
        assert!(problems.iter().any(|p| p.contains("not well formed")));
        assert!(problems.iter().any(|p| p.contains("tune_wall_s is measured but not declared")));

        let rebound = sound().replace("\"bound\":0.25", "\"bound\":0.1");
        assert!(!check_declaration(&parse(&rebound).unwrap()).is_empty());

        let one_workload = r#"{"workloads":[{"name":"tpch22","why":"x"}]}"#;
        let problems = check_declaration(&parse(one_workload).unwrap());
        assert!(problems.iter().any(|p| p.contains("1 workloads")));
    }

    #[test]
    fn missing_metrics_are_named() {
        let bench = parse(&sound()).unwrap();
        let metrics =
            parse(r#"{"setup_s":{"value":0.1,"unit":"s"},"tune_wall_s":{"unit":"s"}}"#).unwrap();
        let missing = missing_metrics(&bench, "end_to_end", &metrics);
        assert_eq!(missing.len(), END_TO_END.len() - 1);
        assert!(missing.contains(&"end_to_end: tune_wall_s was not emitted".to_string()));
    }
}
