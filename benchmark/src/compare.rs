//! `--compare OLD.json NEW.json`: one row per (workload, end-to-end
//! metric) with both values, their ratio, the bound, and a verdict.
//!
//! Two result files of one seed tuned the same databases session by
//! session, so the sessions pair up: the spread (inter-quartile range over
//! median) of the per-session ratios is the run-to-run noise, free of the
//! database-to-database differences.
//! A metric whose spread is wider than its bound is `unresolved` — it can
//! be called neither worse nor unchanged.

use crate::json::Json;
use crate::metrics::{median, quartiles, Better, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub old: f64,
    pub new: f64,
    /// Spread of the paired per-session ratios; 0 when the files carry no
    /// pairable samples.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn end_to_end<'j>(results: &'j Json, workload: &str) -> Option<&'j Json> {
    results.get("workloads")?.get(workload)?.get("end_to_end")
}

fn value(run: &Json, metric: &str) -> Option<f64> {
    run.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn samples(run: &Json, metric: &str) -> Vec<f64> {
    run.get("details")
        .and_then(|d| d.get(metric))
        .and_then(|m| m.get("samples"))
        .map(|s| s.elements().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Inter-quartile range of the per-session ratios over their median — the
/// spread this benchmark uses everywhere — or 0 when the samples do not pair.
fn paired_spread(old: &[f64], new: &[f64]) -> f64 {
    if old.len() != new.len() || old.len() < 2 || old.contains(&0.0) {
        return 0.0;
    }
    let ratios: Vec<f64> = old.iter().zip(new).map(|(o, n)| n / o).collect();
    let (q1, q3) = quartiles(&ratios);
    (q3 - q1) / median(&ratios)
}

/// Compare every workload both files carry.
pub fn compare(old: &Json, new: &Json) -> Vec<Row> {
    let same_inputs = ["seed", "seconds"].iter().all(|key| {
        let of = |r: &Json| r.get("meta").and_then(|m| m.get(key)).and_then(Json::as_f64);
        of(old).is_some() && of(old) == of(new)
    });
    let mut rows = Vec::new();
    for (workload, _) in old.get("workloads").map(Json::members).unwrap_or(&[]) {
        let (Some(a), Some(b)) = (end_to_end(old, workload), end_to_end(new, workload)) else {
            continue;
        };
        for m in &END_TO_END {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            let (Some(old_value), Some(new_value)) = (value(a, m.name), value(b, m.name)) else {
                continue;
            };
            let spread = if same_inputs {
                paired_spread(&samples(a, m.name), &samples(b, m.name))
            } else {
                0.0
            };
            let worse_by = match m.better {
                Better::Lower => (new_value - old_value) / old_value,
                Better::Higher => (old_value - new_value) / old_value,
            };
            let verdict = if spread > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                old: old_value,
                new: new_value,
                spread,
                bound,
                verdict,
            });
        }
    }
    rows
}

/// The table `--compare` prints. Every ratio is new over old.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "old", "new", "new/old", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<18} {:>14.4} {:>14.4} {:>9.4} {:>7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.old,
            r.new,
            r.new / r.old,
            100.0 * r.spread,
            100.0 * r.bound,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn results(wall: f64, wall_samples: &str, improvement: f64) -> Json {
        parse(&format!(
            r#"{{"meta":{{"seed":42,"seconds":15}},"workloads":{{"tpch22":{{"end_to_end":{{
                "metrics":{{"tune_wall_s":{{"value":{wall},"unit":"s"}},
                            "improvement_pct":{{"value":{improvement},"unit":"%"}}}},
                "details":{{"tune_wall_s":{{"samples":{wall_samples}}}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn a_steady_slowdown_past_the_bound_is_worse() {
        let old = results(4.0, "[4.0,4.0,4.0]", 75.0);
        let new = results(5.2, "[5.2,5.2,5.3]", 75.0);
        let rows = compare(&old, &new);
        assert_eq!(rows.len(), 2);
        assert_eq!(verdict(&rows, "tune_wall_s"), Verdict::Worse);
        assert_eq!(verdict(&rows, "improvement_pct"), Verdict::Within);
    }

    #[test]
    fn changes_inside_the_bound_and_gains_are_within() {
        let old = results(4.0, "[4.0,4.0,4.0]", 75.0);
        assert_eq!(
            verdict(&compare(&old, &results(4.4, "[4.4,4.4,4.4]", 75.0)), "tune_wall_s"),
            Verdict::Within
        );
        assert_eq!(
            verdict(&compare(&old, &results(2.0, "[2.0,2.0,2.0]", 80.0)), "tune_wall_s"),
            Verdict::Within
        );
    }

    #[test]
    fn a_higher_is_better_metric_worsens_downwards() {
        let old = results(4.0, "[4.0,4.0,4.0]", 75.0);
        let rows = compare(&old, &results(4.0, "[4.0,4.0,4.0]", 50.0));
        assert_eq!(verdict(&rows, "improvement_pct"), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let old = results(4.0, "[4.0,4.0,4.0]", 75.0);
        let new = results(5.2, "[4.0,4.4,7.2]", 75.0);
        let rows = compare(&old, &new);
        assert_eq!(verdict(&rows, "tune_wall_s"), Verdict::Unresolved);
        assert!(render(&rows).contains("unresolved"));
    }

    #[test]
    fn samples_of_different_seeds_do_not_pair() {
        let old = results(4.0, "[4.0,4.0,4.0]", 75.0);
        let text =
            results(5.2, "[4.0,4.4,7.2]", 75.0).render().replace("\"seed\":42", "\"seed\":7");
        let rows = compare(&old, &parse(&text).unwrap());
        let row = rows.iter().find(|r| r.metric == "tune_wall_s").unwrap();
        assert_eq!((row.spread, row.verdict), (0.0, Verdict::Worse));
    }
}
