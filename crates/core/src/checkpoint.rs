//! Session checkpoints: the serialized form of a parked
//! `Session` — everything an interrupted run must
//! persist so that [`crate::tune_resume`], or a recovered supervisor, can
//! continue it to the byte-identical answer an uninterrupted run would
//! have produced (DESIGN.md §9).
//!
//! A session that is cut short — the work budget ran out
//! ([`crate::Completion::BudgetExhausted`]) or it was cancelled
//! ([`crate::Completion::Cancelled`], e.g. a tenant preempted by the
//! session supervisor) — parks where it is, live. A checkpoint is
//! written from it only when somebody asks: an interrupted `tune*` result
//! carries one, and a fleet manifest carries one per parked tenant. The
//! warmed cache in it holds exactly the entries the search had produced
//! at the cut: a session prices nothing for a report that it keeps.
//!
//! Derived state is deliberately *not* stored: the base configuration,
//! column groups, the merged pool and its ordering, and Phase-2 greedy
//! `remaining` lists are all recomputed deterministically from what is
//! stored (pre-costs, per-item selections, the greedy cursor). The
//! serialized form lives in `dta-xml` (`checkpoint_to_xml` /
//! `checkpoint_from_xml`), which round-trips floats bit-exactly via
//! their IEEE-754 bit patterns.

use crate::candidates::ItemSelection;
use crate::control::Stage;
use crate::cost::CacheExport;
use crate::enumeration::EnumerationResume;
use crate::options::TuningOptions;
use dta_workload::Workload;

/// Statistics-stage outcome (§5.2), captured once that stage completed.
/// A resumed session reuses these numbers and skips re-creation — the
/// statistics already exist on the tuning target.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsProgress {
    /// Statistics requested for the interesting column-groups.
    pub requested: usize,
    /// Statistics actually created.
    pub created: usize,
    /// Server work units spent creating them.
    pub work_units: f64,
    /// Creations abandoned after a permanent fault (or retry exhaustion).
    pub failed: usize,
    /// Transient creation faults absorbed by retry.
    pub retries: usize,
    /// Deterministic backoff units accounted across those retries.
    pub backoff_units: u64,
}

/// An interrupted tuning session, by value, as of its cut point.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    /// The interrupted session's options.
    pub options: TuningOptions,
    /// The compressed (tuned) workload — compression is not re-run.
    pub workload: Workload,
    /// Statement count of the original, uncompressed workload.
    pub total_statements: usize,
    /// Total events (sum of weights) of the original workload.
    pub total_events: f64,
    /// Stage that was in progress at the cut.
    pub stage: Stage,
    /// Work units consumed at the cut (the resumed ledger starts here).
    pub consumed_units: u64,
    /// What-if server overhead units spent before the cut.
    pub tuning_work_units: f64,
    /// Pre-statistics base costs for the completed prefix of items.
    pub pre_costs: Vec<f64>,
    /// Statistics-stage outcome, once that stage completed.
    pub stats: Option<StatsProgress>,
    /// Completed per-item candidate selections (a prefix of the workload
    /// when the cut hit mid-selection; complete for later stages).
    pub selections: Option<Vec<ItemSelection>>,
    /// Enumeration cursor, when the cut hit mid-enumeration.
    pub enumeration: Option<EnumerationResume>,
    /// The warmed what-if cache at the cut.
    pub cache: Vec<CacheExport>,
    /// What-if calls issued before the cut.
    pub whatif_calls: usize,
    /// Worker panics isolated before the cut.
    pub worker_restarts: usize,
    /// Transient faults absorbed by retry before the cut.
    pub whatif_retries: usize,
    /// Deterministic backoff units accounted across those retries.
    pub retry_backoff_units: u64,
    /// Workload item indexes degraded by permanent faults.
    pub degraded: Vec<usize>,
}

impl SessionCheckpoint {
    /// Structural consistency checks, run before a resume touches the
    /// server. Returns a human-readable description of the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.workload.items.len();
        if self.pre_costs.len() > n {
            return Err(format!(
                "checkpoint carries {} pre-costs for {} statements",
                self.pre_costs.len(),
                n
            ));
        }
        if self.stage > Stage::PreCosting && self.pre_costs.len() != n {
            return Err(format!(
                "stage {} requires all {} pre-costs, found {}",
                self.stage,
                n,
                self.pre_costs.len()
            ));
        }
        if self.stage > Stage::Statistics && self.stats.is_none() {
            return Err(format!("stage {} requires statistics progress", self.stage));
        }
        match &self.selections {
            Some(sels) if sels.len() > n => {
                return Err(format!(
                    "checkpoint carries {} selections for {} statements",
                    sels.len(),
                    n
                ));
            }
            Some(sels) if self.stage > Stage::CandidateSelection && sels.len() != n => {
                return Err(format!(
                    "stage {} requires all {} selections, found {}",
                    self.stage,
                    n,
                    sels.len()
                ));
            }
            None if self.stage > Stage::CandidateSelection => {
                return Err(format!("stage {} requires selection results", self.stage));
            }
            _ => {}
        }
        for e in &self.cache {
            if e.item >= n {
                return Err(format!("cache entry for item {} of {}", e.item, n));
            }
            if !e.cost.is_finite() || e.cost < 0.0 {
                return Err(format!("cache entry with invalid cost {}", e.cost));
            }
        }
        for &d in &self.degraded {
            if d >= n {
                return Err(format!("degraded item {} of {}", d, n));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Stage;

    fn checkpoint(n: usize) -> SessionCheckpoint {
        let sql: Vec<String> = (0..n).map(|i| format!("SELECT a FROM t WHERE a = {i};")).collect();
        let workload = Workload::from_sql_file("d", &sql.join(" ")).expect("valid SQL");
        SessionCheckpoint {
            options: TuningOptions::default(),
            workload,
            total_statements: n,
            total_events: n as f64,
            stage: Stage::PreCosting,
            consumed_units: 1,
            tuning_work_units: 2.0,
            pre_costs: vec![1.0],
            stats: None,
            selections: None,
            enumeration: None,
            cache: Vec::new(),
            whatif_calls: 1,
            worker_restarts: 0,
            whatif_retries: 0,
            retry_backoff_units: 0,
            degraded: Vec::new(),
        }
    }

    #[test]
    fn consistent_checkpoint_validates() {
        assert_eq!(checkpoint(3).validate(), Ok(()));
        let mut complete = checkpoint(2);
        complete.stage = Stage::Merging;
        complete.pre_costs = vec![1.0, 2.0];
        complete.stats = Some(StatsProgress {
            requested: 1,
            created: 1,
            work_units: 1.0,
            failed: 0,
            retries: 0,
            backoff_units: 0,
        });
        complete.selections = Some(vec![ItemSelection::default(), ItemSelection::default()]);
        assert_eq!(complete.validate(), Ok(()));
    }

    #[test]
    fn inconsistencies_are_rejected() {
        let mut cp = checkpoint(2);
        cp.pre_costs = vec![1.0, 2.0, 3.0];
        assert!(cp.validate().is_err(), "too many pre-costs");

        let mut cp = checkpoint(2);
        cp.stage = Stage::Statistics;
        assert!(cp.validate().is_err(), "stage past pre-costing needs all pre-costs");

        let mut cp = checkpoint(1);
        cp.stage = Stage::CandidateSelection;
        assert!(cp.validate().is_err(), "selection stage needs stats numbers");

        let mut cp = checkpoint(1);
        cp.degraded = vec![5];
        assert!(cp.validate().is_err(), "degraded index out of range");

        let mut cp = checkpoint(1);
        cp.cache = vec![crate::cost::CacheExport {
            item: 0,
            fingerprint: 1,
            cost: f64::NAN,
            used_structures: Vec::new(),
            verify: 0,
            picks: crate::cost::Picks::NONE,
            epoch: 0,
        }];
        assert!(cp.validate().is_err(), "NaN cached cost");
    }
}
