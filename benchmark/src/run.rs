//! One run of one workload: the end-to-end run (tracing off) or the
//! traced run that yields the per-layer metrics.

use crate::json::Json;
use crate::ladder;
use crate::metrics::{mean, median, summary, Values};
use crate::session::{
    check_fleet, check_result, digest, peak_rss_mb, run_fleet, run_session, set_up, set_up_fleet,
    set_up_standard, tenant_result, FleetRun, Inputs, Session,
};
use crate::trace::{self_ms, total_ms, SpanRecord, Tracer};
use crate::workloads::{self, FLEET3, FLEET_TENANTS, SYNT1_ANYTIME};
use dta::advisor::Counter;
use dta::prelude::*;
use dta::xml;
use std::time::Instant;

/// Set-ups timed per run, so that `setup_s` is a median of several even
/// when few sessions fit (each is tens of milliseconds; the fleet's is
/// three of them and gets fewer).
const SETUP_SAMPLES: usize = 9;
const FLEET_SETUP_SAMPLES: usize = 5;
/// The supervisor's default quantum, which `fleet3` runs under.
const FLEET_QUANTUM: u64 = 64;

/// What one run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub values: Values,
    /// Samples behind the values, for the result files.
    pub details: Json,
    /// Spans of a traced run.
    pub spans: Vec<SpanRecord>,
}

/// Threads a run needs: one, except that a traced solo run also measures
/// a two-worker session.
pub fn threads_needed(workload: &str, trace: bool) -> usize {
    if trace && workload != FLEET3 {
        2
    } else {
        1
    }
}

pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut run = Run::default();
    match (workload == FLEET3, trace) {
        (false, false) => run.end_to_end_solo(workload, seed, seconds),
        (true, false) => run.end_to_end_fleet(seed, seconds),
        (false, true) => run.traced_solo(workload, seed),
        (true, true) => run.traced_fleet(seed),
    }
    let details = Json::obj(run.samples.iter().map(|(name, s)| (*name, summary(s))).chain([(
        "failures",
        Json::Arr(run.failures.iter().map(|f| Json::Str(f.clone())).collect()),
    )]));
    Outcome {
        attempted: run.attempted,
        failures: run.failures,
        values: run.values,
        details,
        spans: run.tracer.spans(),
    }
}

#[derive(Default)]
struct Run {
    attempted: usize,
    failures: Vec<String>,
    values: Values,
    samples: Vec<(&'static str, Vec<f64>)>,
    tracer: Tracer,
}

/// Per-session samples of an end-to-end run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    whatif_calls: Vec<f64>,
    work_units: Vec<f64>,
    improvement_pct: Vec<f64>,
}

impl Samples {
    /// Record one timed region over `results` (one session, or the
    /// tenants of one fleet run: counts add up, improvement averages).
    fn record(&mut self, wall_s: f64, results: &[&TuningResult]) {
        self.wall_s.push(wall_s);
        self.whatif_calls.push(results.iter().map(|r| r.whatif_calls as f64).sum());
        self.work_units.push(results.iter().map(|r| r.tuning_work_units).sum());
        let improvements: Vec<f64> =
            results.iter().map(|r| 100.0 * r.expected_improvement()).collect();
        self.improvement_pct.push(mean(&improvements));
    }
}

impl Run {
    /// Count one attempted timed region; keep its value or its failure.
    fn attempt<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Set a metric to `aggregate` of its per-session sample, and keep the
    /// sample for the result files. An empty sample (every session failed;
    /// the run is not correct) sets nothing.
    fn set_sample(&mut self, name: &'static str, sample: Vec<f64>, aggregate: fn(&[f64]) -> f64) {
        if !sample.is_empty() {
            self.values.set(name, aggregate(&sample));
            self.samples.push((name, sample));
        }
    }

    /// The end-to-end metrics. Every session tunes its own database, so
    /// wall, counts and improvement are means over the sessions (the time
    /// and work to tune these databases, per database); set-up is the
    /// median of same-sized set-ups.
    fn finish_end_to_end(&mut self, samples: Samples, peak_rss_mb: Option<f64>) {
        self.set_sample("setup_s", samples.setup_s, median);
        self.set_sample("tune_wall_s", samples.wall_s, mean);
        self.set_sample("whatif_calls", samples.whatif_calls, mean);
        self.set_sample("tuning_work_units", samples.work_units, mean);
        self.set_sample("improvement_pct", samples.improvement_pct, mean);
        match peak_rss_mb {
            Some(mb) => self.values.set("peak_rss_mb", mb),
            None => self.failures.push("VmHWM is not readable from /proc/self/status".into()),
        }
    }

    fn end_to_end_solo(&mut self, workload: &str, seed: u64, seconds: f64) {
        let spec = workloads::spec(workload).expect("the caller checked the workload name");
        let sessions = workloads::session_count(spec, seconds);
        let mut samples = Samples::default();
        let mut peak = None;
        for i in 0..sessions.max(SETUP_SAMPLES) {
            let (inputs, setup_s) = set_up_standard(workload, workloads::sub_seed(seed, i));
            samples.setup_s.push(setup_s);
            if i >= sessions {
                continue; // a set-up sample only
            }
            let outcome = run_session(&inputs, None);
            // peak memory of set-up plus one session, before any check
            // (checks re-price the uncompressed workload) can raise it
            peak = peak.or_else(peak_rss_mb);
            let checked = outcome.and_then(|s| {
                let expected = workloads::expected_completion(workload);
                check_result(&inputs, &s.result, &s.result_xml, expected).map(|()| s)
            });
            if let Some(s) = self.attempt(&format!("session {i}"), checked) {
                samples.record(s.wall_s, &[&s.result]);
            }
        }
        self.finish_end_to_end(samples, peak);
    }

    fn end_to_end_fleet(&mut self, seed: u64, seconds: f64) {
        let spec = workloads::spec(FLEET3).expect("fleet3 is a workload");
        let runs = workloads::session_count(spec, seconds);
        let mut samples = Samples::default();
        let mut peak = None;
        for i in 0..runs.max(FLEET_SETUP_SAMPLES) {
            let (tenants, setup_s) = set_up_fleet(workloads::sub_seed(seed, i));
            samples.setup_s.push(setup_s);
            if i >= runs {
                continue;
            }
            let outcome = run_fleet(&tenants, FLEET_QUANTUM, None);
            peak = peak.or_else(peak_rss_mb);
            // tenants are compared with their solo sessions in the traced
            // run; here the ~10 s that takes buys a second fleet run
            let checked = outcome.and_then(|run| check_fleet(&tenants, &run, None).map(|()| run));
            if let Some(run) = self.attempt(&format!("fleet run {i}"), checked) {
                let results: Vec<&TuningResult> = FLEET_TENANTS
                    .iter()
                    .filter_map(|id| tenant_result(&run.report, id).ok())
                    .collect();
                samples.record(run.wall_s, &results);
            }
        }
        self.finish_end_to_end(samples, peak);
    }

    /// The traced run of a solo workload, all on the run's own seed: a
    /// two-worker session, an untraced reference session, the traced
    /// session, then the ladder on the traced session's server. The
    /// two-worker session goes first so that the process is as warm for the
    /// reference as for the traced session it is compared with.
    fn traced_solo(&mut self, workload: &str, seed: u64) {
        let expected = workloads::expected_completion(workload);
        let check = |inputs: &Inputs, s: Session| {
            check_result(inputs, &s.result, &s.result_xml, expected).map(|()| s)
        };

        let two_workers = TuningOptions { parallel_workers: 2, ..workloads::options(workload) };
        let (inputs, _) = set_up(workload, seed, &two_workers);
        let parallel = run_session(&inputs, None).and_then(|s| check(&inputs, s));
        let Some(parallel) = self.attempt("two-worker session", parallel) else { return };

        let (inputs, _) = set_up_standard(workload, seed);
        let reference = run_session(&inputs, None)
            .and_then(|s| check(&inputs, s))
            .and_then(|s| same_digest(&parallel, s, "the one-worker session"));
        let Some(reference) = self.attempt("reference session", reference) else { return };
        self.values.set("enumeration.par2_speedup", reference.wall_s / parallel.wall_s);

        let (inputs, _) = set_up_standard(workload, seed);
        let id = self.tracer.begin_session();
        let traced = run_session(&inputs, Some(&self.tracer));
        // the server's own tally, read before the checks add to it
        let invocations = inputs.server.whatif_invocations();
        let traced = traced
            .and_then(|s| check(&inputs, s))
            .and_then(|s| same_digest(&reference, s, "the traced session"));
        let Some(traced) = self.attempt("traced session", traced) else { return };
        self.values.set("server.whatif_invocations", invocations as f64);
        self.values.set(
            "session.trace_overhead_pct",
            100.0 * (traced.wall_s - reference.wall_s) / reference.wall_s,
        );
        self.stage_values(&[id], &[&traced.result]);

        self.workload_values(&[&inputs.workload]);
        if workload == SYNT1_ANYTIME {
            let round_trip = self.checkpoint_round_trip(&traced.result);
            self.attempt("checkpoint round trip", round_trip);
        }
        ladder::run(
            &[ladder::Part {
                server: &inputs.server,
                items: &inputs.workload.items,
                recommendation: &traced.result.recommendation,
            }],
            &mut self.values,
        );
    }

    /// The traced run of the fleet: the fleet at the default quantum, the
    /// fleet at one slice per tenant (the difference is what slicing
    /// costs), then the three tenants traced alone — their stage spans
    /// and counters, summed, are the fleet's stage metrics — and the
    /// ladder over the three servers.
    fn traced_fleet(&mut self, seed: u64) {
        let (tenants, _) = set_up_fleet(seed);
        let sliced_id = self.tracer.begin_session();
        let sliced = run_fleet(&tenants, FLEET_QUANTUM, Some(&self.tracer));
        let Some(sliced) = self.attempt("fleet run", sliced) else { return };

        let (whole_tenants, _) = set_up_fleet(seed);
        let whole_id = self.tracer.begin_session();
        let whole = run_fleet(&whole_tenants, u64::MAX, Some(&self.tracer));
        drop(whole_tenants);
        let Some(whole) = self.attempt("fleet run at one slice per tenant", whole) else { return };

        let solo = solo_sessions(seed, Some(&self.tracer)).and_then(|solo| {
            let results: Vec<&TuningResult> = solo.iter().map(|(_, s)| &s.result).collect();
            check_fleet(&tenants, &sliced, Some(&results))?;
            Ok(solo)
        });
        drop(tenants);
        let Some(solo) = self.attempt("tenants tuned alone", solo) else { return };
        let solo_ids: Vec<u32> = (1..=solo.len() as u32).map(|i| whole_id + i).collect();

        let slices =
            |run: &FleetRun| -> f64 { run.report.tenants.iter().map(|t| t.slices as f64).sum() };
        self.values.set("supervisor.slices", slices(&sliced));
        self.values.set("supervisor.rounds", sliced.report.rounds as f64);
        self.values.set("supervisor.work_units", sliced.report.fleet_consumed as f64);
        let extra_slices = slices(&sliced) - slices(&whole);
        if extra_slices > 0.0 {
            self.values.set(
                "supervisor.slice_overhead_ms",
                1e3 * (sliced.wall_s - whole.wall_s) / extra_slices,
            );
        }
        let start = Instant::now();
        let manifest_xml = xml::manifest_to_xml(&sliced.manifest);
        let read_back = xml::manifest_from_xml(&manifest_xml);
        self.values.set("xml.manifest_roundtrip_ms", start.elapsed().as_secs_f64() * 1e3);
        let round_trip = read_back.map_err(|e| e.to_string()).and_then(|m| {
            if xml::manifest_to_xml(&m) == manifest_xml {
                Ok(())
            } else {
                Err("the manifest does not round-trip".to_string())
            }
        });
        self.attempt("manifest round trip", round_trip);

        let results: Vec<&TuningResult> = solo.iter().map(|(_, s)| &s.result).collect();
        self.stage_values(&solo_ids, &results);
        // parse and write are the fleet run's own; the tenants alone add
        // up to the fleet at one slice each, so that is their reference
        let spans = self.tracer.spans();
        self.values.set("xml.workload_parse_ms", total_ms(&spans, &[sliced_id], "xml.parse"));
        self.values.set("xml.result_write_ms", total_ms(&spans, &[sliced_id], "xml.write"));
        let solo_wall: f64 = solo.iter().map(|(_, s)| s.wall_s).sum();
        self.values
            .set("session.trace_overhead_pct", 100.0 * (solo_wall - whole.wall_s) / whole.wall_s);
        self.values.set(
            "server.whatif_invocations",
            solo.iter().map(|(i, _)| i.server.whatif_invocations() as f64).sum(),
        );
        let generated: Vec<&Workload> = solo.iter().map(|(i, _)| &i.workload).collect();
        self.workload_values(&generated);
        let parts: Vec<ladder::Part<'_>> = solo
            .iter()
            .map(|(inputs, session)| ladder::Part {
                server: &inputs.server,
                items: &inputs.workload.items,
                recommendation: &session.result.recommendation,
            })
            .collect();
        ladder::run(&parts, &mut self.values);
    }

    /// Stage times out of the spans of `sessions`, and the counters of
    /// `results` (which carry their observer summaries), summed.
    fn stage_values(&mut self, sessions: &[u32], results: &[&TuningResult]) {
        let spans = self.tracer.spans();
        let stage = |name: &str| total_ms(&spans, sessions, name);
        let counter = |c: Counter| -> f64 {
            results.iter().filter_map(|r| r.observer.as_ref()).map(|o| o.counter(c) as f64).sum()
        };
        let sum = |f: &dyn Fn(&TuningResult) -> f64| -> f64 { results.iter().map(|r| f(r)).sum() };
        let v = &mut self.values;
        v.set("xml.workload_parse_ms", stage("xml.parse"));
        v.set("xml.result_write_ms", stage("xml.write"));
        v.set("session.precosting_ms", stage("preCosting"));
        v.set("colgroups.stage_ms", stage("columnGroups"));
        v.set("stats.stage_ms", stage("statistics"));
        v.set("stats.requested", sum(&|r| r.stats_requested as f64));
        v.set("stats.created", sum(&|r| r.stats_created as f64));
        v.set("stats.work_units", sum(&|r| r.stats_work_units));
        v.set("candidates.stage_ms", stage("candidateSelection"));
        v.set("candidates.generated", counter(Counter::CandidatesGenerated));
        v.set("candidates.pruned", counter(Counter::CandidatesPruned));
        v.set("merging.stage_ms", stage("merging"));
        v.set("merging.peak_pool_size", counter(Counter::PeakPoolSize));
        v.set("enumeration.stage_ms", stage("enumeration"));
        v.set("enumeration.phase1_ms", stage("greedyPhase1"));
        v.set("enumeration.phase2_ms", stage("greedyPhase2"));
        // greedy evaluations happen in candidate selection and in
        // enumeration; the result counts both, so time both
        let evaluations = sum(&|r| r.evaluations as f64);
        v.set("enumeration.evaluations", evaluations);
        if evaluations > 0.0 {
            let greedy_ms = stage("candidateSelection") + stage("enumeration");
            v.set("enumeration.us_per_evaluation", 1e3 * greedy_ms / evaluations);
        }
        v.set("session.epilogue_ms", stage("epilogue"));
        v.set("session.self_ms", self_ms(&spans, sessions, "tune"));
        // the session ledger: what a work budget would have had to cover
        v.set(
            "control.work_units",
            counter(Counter::BudgetCharged) + counter(Counter::BudgetGranted)
                - counter(Counter::BudgetRefunded),
        );
        let (hits, misses) = (counter(Counter::CacheHits), counter(Counter::CacheMisses));
        v.set("cost.cache_hits", hits);
        v.set("cost.cache_misses", misses);
        if hits + misses > 0.0 {
            v.set("cost.hit_rate", hits / (hits + misses));
        }
        v.set("workload.statements_tuned", sum(&|r| r.statements_tuned as f64));
    }

    /// dta-workload: compression of the generated workloads, timed alone.
    fn workload_values(&mut self, generated: &[&Workload]) {
        let times: Vec<f64> = (0..ladder::REPS)
            .map(|_| {
                let start = Instant::now();
                for w in generated {
                    std::hint::black_box(compress(w, CompressionOptions::default()));
                }
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        self.values.set("workload.compress_ms", median(&times));
        self.values
            .set("workload.statements_in", generated.iter().map(|w| w.len() as f64).sum::<f64>());
    }

    /// dta-xml: the anytime session's checkpoint through the schema.
    fn checkpoint_round_trip(&mut self, result: &TuningResult) -> Result<(), String> {
        let checkpoint =
            result.checkpoint.as_ref().ok_or("a budget-exhausted session carries no checkpoint")?;
        let start = Instant::now();
        let text = xml::checkpoint_to_xml(checkpoint);
        let read_back = xml::checkpoint_from_xml(&text).map_err(|e| e.to_string())?;
        self.values.set("xml.checkpoint_roundtrip_ms", start.elapsed().as_secs_f64() * 1e3);
        self.values.set("xml.checkpoint_bytes", text.len() as f64);
        if xml::checkpoint_to_xml(&read_back) != text {
            return Err("the checkpoint does not round-trip".into());
        }
        Ok(())
    }
}

/// `session`, if it reproduced `reference`'s digest.
fn same_digest(reference: &Session, session: Session, what: &str) -> Result<Session, String> {
    if digest(&session.result) == digest(&reference.result) {
        Ok(session)
    } else {
        Err(format!(
            "{what} does not reproduce the recommendation and counts of the session before it"
        ))
    }
}

/// The fleet's tenants tuned alone, each on a fresh server from `seed`,
/// in [`FLEET_TENANTS`] order; with a tracer, each is a traced session of
/// its own.
fn solo_sessions(seed: u64, tracer: Option<&Tracer>) -> Result<Vec<(Inputs, Session)>, String> {
    FLEET_TENANTS
        .iter()
        .map(|workload| {
            let (inputs, _) = set_up_standard(workload, seed);
            if let Some(t) = tracer {
                t.begin_session();
            }
            let session = run_session(&inputs, tracer).map_err(|e| format!("{workload}: {e}"))?;
            Ok((inputs, session))
        })
        .collect()
}
