//! Tuning results and analysis reports (§6.3).

use crate::checkpoint::SessionCheckpoint;
use crate::control::Completion;
use crate::obs::ObserverSummary;
use dta_physical::Configuration;
use std::fmt;

/// The outcome of a tuning session.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// The recommended physical design (constraint-enforcing structures
    /// and any user-specified configuration included).
    pub recommendation: Configuration,
    /// Workload cost (tuned workload) under the base configuration.
    pub base_cost: f64,
    /// Workload cost under the recommendation.
    pub recommended_cost: f64,
    /// Statements actually tuned (after compression).
    pub statements_tuned: usize,
    /// Statements in the input workload.
    pub total_statements: usize,
    /// Total events (sum of weights) in the input workload.
    pub total_events: f64,
    /// What-if optimizer calls issued: misses not derived, one per attempt.
    pub whatif_calls: usize,
    /// Greedy evaluations across candidate selection and enumeration.
    pub evaluations: usize,
    /// Structures generated during candidate generation.
    pub candidates_generated: usize,
    /// Structures surviving per-query candidate selection (+ merging).
    pub candidates_selected: usize,
    /// Enumeration pool size (after any eager alignment expansion).
    pub pool_size: usize,
    /// Aligned variants synthesized lazily (§4).
    pub lazy_variants: usize,
    /// Statistics requested / actually created (§5.2).
    pub stats_requested: usize,
    pub stats_created: usize,
    /// Work units spent creating statistics (on the data server).
    pub stats_work_units: f64,
    /// Total tuning overhead in work units on the what-if server.
    pub tuning_work_units: f64,
    /// Incremental storage of the recommendation, in bytes.
    pub storage_bytes: u64,
    /// How the session ended: ran to convergence, budget exhausted, or
    /// cancelled. Even the early endings return a valid, storage-bound,
    /// never-worse-than-raw configuration (anytime tuning).
    pub completion: Completion,
    /// What-if calls that panicked and were re-issued (0 in a healthy
    /// session; the name is the report's and the ledger's).
    pub worker_restarts: usize,
    /// Transient server faults absorbed by bounded retry.
    pub whatif_retries: usize,
    /// Deterministic backoff units accounted across those retries.
    pub retry_backoff_units: u64,
    /// Statements degraded to their pre-statistics cost by permanent
    /// faults (their what-if calls kept failing; the session continued
    /// without them instead of aborting).
    pub degraded_statements: Vec<String>,
    /// Session checkpoint for [`crate::tune_resume`], present whenever
    /// the session was cut short (`Completion::BudgetExhausted` or
    /// `Completion::Cancelled` — e.g. a supervisor-preempted tenant).
    pub checkpoint: Option<Box<SessionCheckpoint>>,
    /// Aggregated observer trace (stage spans, counters, per-shard cache
    /// statistics), present when the session ran under a recording
    /// observer ([`crate::tune_with_observer`]). Wall times inside are
    /// report-only; every other field is deterministic.
    pub observer: Option<ObserverSummary>,
}

impl TuningResult {
    /// Expected improvement as a fraction of the base cost.
    pub fn expected_improvement(&self) -> f64 {
        if self.base_cost <= 0.0 {
            return 0.0;
        }
        (1.0 - self.recommended_cost / self.base_cost).max(0.0)
    }
}

impl fmt::Display for TuningResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DTA recommendation")?;
        writeln!(
            f,
            "  expected improvement: {:.1}% (cost {:.1} -> {:.1})",
            self.expected_improvement() * 100.0,
            self.base_cost,
            self.recommended_cost
        )?;
        writeln!(
            f,
            "  tuned {} of {} statements ({} events); {} what-if calls; {} evaluations",
            self.statements_tuned,
            self.total_statements,
            self.total_events,
            self.whatif_calls,
            self.evaluations
        )?;
        writeln!(
            f,
            "  candidates: {} generated, {} selected, pool {} (lazy aligned variants: {})",
            self.candidates_generated, self.candidates_selected, self.pool_size, self.lazy_variants
        )?;
        writeln!(
            f,
            "  statistics: {} requested, {} created ({:.1} work units)",
            self.stats_requested, self.stats_created, self.stats_work_units
        )?;
        writeln!(f, "  storage: {:.1} MB", self.storage_bytes as f64 / (1 << 20) as f64)?;
        if self.completion != Completion::Complete {
            writeln!(f, "  completion: {} (best-so-far recommendation)", self.completion)?;
        }
        if self.worker_restarts > 0 {
            writeln!(f, "  worker restarts (panic isolation): {}", self.worker_restarts)?;
        }
        if self.whatif_retries > 0 {
            writeln!(
                f,
                "  transient faults retried: {} ({} backoff units)",
                self.whatif_retries, self.retry_backoff_units
            )?;
        }
        if !self.degraded_statements.is_empty() {
            writeln!(f, "  degraded statements (permanent faults):")?;
            for s in &self.degraded_statements {
                writeln!(f, "    {}", truncate(s, 80))?;
            }
        }
        write!(f, "{}", self.recommendation)
    }
}

/// Per-statement entry of an evaluation report.
#[derive(Debug, Clone)]
pub struct StatementReport {
    pub database: String,
    pub sql: String,
    pub weight: f64,
    pub current_cost: f64,
    pub proposed_cost: f64,
    /// Structures the proposed plan uses.
    pub used_structures: Vec<String>,
    /// What-if optimizer calls issued for this statement (including
    /// retried attempts).
    pub whatif_calls: usize,
    /// Transient faults absorbed by retry while pricing this statement.
    pub retries: usize,
    /// Whether a permanent fault degraded this statement to its
    /// fallback cost.
    pub degraded: bool,
}

impl StatementReport {
    /// Percentage change for this statement (negative = cheaper).
    pub fn change_percent(&self) -> f64 {
        if self.current_cost <= 0.0 {
            return 0.0;
        }
        (self.proposed_cost / self.current_cost - 1.0) * 100.0
    }
}

/// Exploratory / what-if analysis output (§6.3): the expected percentage
/// change in workload cost for a user-proposed configuration, plus
/// per-statement detail and structure usage.
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    pub statements: Vec<StatementReport>,
    pub current_total: f64,
    pub proposed_total: f64,
}

impl EvaluationReport {
    /// "Expected percentage change in the workload cost compared to the
    /// existing configuration" — negative means improvement.
    pub fn change_percent(&self) -> f64 {
        if self.current_total <= 0.0 {
            return 0.0;
        }
        (self.proposed_total / self.current_total - 1.0) * 100.0
    }

    /// Usage counts: structure name → number of statements using it.
    pub fn structure_usage(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for s in &self.statements {
            for name in &s.used_structures {
                *counts.entry(name.clone()).or_default() += 1;
            }
        }
        counts.into_iter().collect()
    }
}

impl fmt::Display for EvaluationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Evaluation: workload cost {:.1} -> {:.1} ({:+.1}%)",
            self.current_total,
            self.proposed_total,
            self.change_percent()
        )?;
        for s in &self.statements {
            let mut marks = String::new();
            if s.retries > 0 {
                marks.push_str(&format!(" [retried x{}]", s.retries));
            }
            if s.degraded {
                marks.push_str(" [degraded]");
            }
            writeln!(
                f,
                "  [{:+7.1}%] w={:<6} {}{marks}",
                s.change_percent(),
                s.weight,
                truncate(&s.sql, 80)
            )?;
        }
        let usage = self.structure_usage();
        if !usage.is_empty() {
            writeln!(f, "  structure usage:")?;
            for (name, count) in usage {
                writeln!(f, "    {count:>4} x {name}")?;
            }
        }
        Ok(())
    }
}

/// At most `n` bytes of `s`, cut at the last char boundary at or before
/// byte `n`.
fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        return s.to_string();
    }
    let head = (0..=n).rev().find_map(|cut| s.get(..cut)).unwrap_or_default();
    format!("{head}…")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> TuningResult {
        TuningResult {
            recommendation: Configuration::new(),
            base_cost: 200.0,
            recommended_cost: 50.0,
            statements_tuned: 5,
            total_statements: 50,
            total_events: 50.0,
            whatif_calls: 123,
            evaluations: 456,
            candidates_generated: 40,
            candidates_selected: 12,
            pool_size: 15,
            lazy_variants: 3,
            stats_requested: 10,
            stats_created: 4,
            stats_work_units: 77.0,
            tuning_work_units: 999.0,
            storage_bytes: 10 << 20,
            completion: Completion::Complete,
            worker_restarts: 0,
            whatif_retries: 0,
            retry_backoff_units: 0,
            degraded_statements: Vec::new(),
            checkpoint: None,
            observer: None,
        }
    }

    #[test]
    fn improvement_math() {
        let r = result();
        assert!((r.expected_improvement() - 0.75).abs() < 1e-9);
        let mut r2 = result();
        r2.recommended_cost = 300.0;
        assert_eq!(r2.expected_improvement(), 0.0, "never negative");
        r2.base_cost = 0.0;
        assert_eq!(r2.expected_improvement(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let text = result().to_string();
        assert!(text.contains("75.0%"));
        assert!(text.contains("what-if"));
        assert!(text.contains("10.0 MB"));
    }

    #[test]
    fn display_reports_robustness_events() {
        use crate::control::Stage;
        let mut r = result();
        r.completion = Completion::BudgetExhausted { stage: Stage::Enumeration };
        r.worker_restarts = 1;
        r.whatif_retries = 3;
        r.retry_backoff_units = 7;
        r.degraded_statements = vec!["SELECT broken FROM t".to_string()];
        let text = r.to_string();
        assert!(text.contains("budget exhausted during enumeration"), "{text}");
        assert!(text.contains("worker restarts"), "{text}");
        assert!(text.contains("transient faults retried: 3 (7 backoff units)"), "{text}");
        assert!(text.contains("SELECT broken FROM t"), "{text}");
        // a clean run stays quiet about all of it
        let clean = result().to_string();
        assert!(!clean.contains("completion:"), "{clean}");
        assert!(!clean.contains("restarts"), "{clean}");
    }

    #[test]
    fn evaluation_report_math() {
        let rep = EvaluationReport {
            statements: vec![
                StatementReport {
                    database: "d".into(),
                    sql: "SELECT 1".into(),
                    weight: 1.0,
                    current_cost: 100.0,
                    proposed_cost: 40.0,
                    used_structures: vec!["idx_t_a".into()],
                    whatif_calls: 2,
                    retries: 0,
                    degraded: false,
                },
                StatementReport {
                    database: "d".into(),
                    sql: "SELECT 2".into(),
                    weight: 1.0,
                    current_cost: 100.0,
                    proposed_cost: 120.0,
                    used_structures: vec!["idx_t_a".into(), "mv_x".into()],
                    whatif_calls: 5,
                    retries: 3,
                    degraded: true,
                },
            ],
            current_total: 200.0,
            proposed_total: 160.0,
        };
        assert!((rep.change_percent() + 20.0).abs() < 1e-9);
        assert!((rep.statements[0].change_percent() + 60.0).abs() < 1e-9);
        let usage = rep.structure_usage();
        assert_eq!(usage, vec![("idx_t_a".to_string(), 2), ("mv_x".to_string(), 1)]);
        let text = rep.to_string();
        assert!(text.contains("-20.0%"));
        assert!(text.contains("[retried x3]"), "{text}");
        assert!(text.contains("[degraded]"), "{text}");
    }

    #[test]
    fn truncation_cuts_multi_byte_text_at_a_char_boundary() {
        // `é` occupies bytes 79..81, across the 80-byte cut
        let sql = format!("SELECT name FROM cafes WHERE {}'café'", "x".repeat(79 - 33));
        assert_eq!(sql.find('é'), Some(79));
        let head = sql.get(..79).expect("the é starts at byte 79");
        assert_eq!(truncate(&sql, 80), format!("{head}…"));
        assert_eq!(truncate("café", 80), "café");
        let statement = StatementReport {
            database: "d".into(),
            sql: sql.clone(),
            weight: 1.0,
            current_cost: 100.0,
            proposed_cost: 40.0,
            used_structures: Vec::new(),
            whatif_calls: 1,
            retries: 0,
            degraded: false,
        };
        let rep = EvaluationReport {
            statements: vec![statement],
            current_total: 100.0,
            proposed_total: 40.0,
        };
        assert!(rep.to_string().contains("'caf…"), "{rep}");
        let mut r = result();
        r.degraded_statements = vec![sql];
        assert!(r.to_string().contains("'caf…"), "{r}");
    }
}
