//! The timed regions — one tuning session, one fleet run — with their
//! untimed set-up and their correctness checks.
//!
//! A session is XML in, XML out, as the paper's tool is driven: parse the
//! workload and options documents, `tune`, write the output document. The
//! server is fresh for every session, and that is not hygiene: `tune`
//! creates statistics on the server, so a second session on the same
//! server is a different (larger) session.

use crate::trace::{Tracer, TracingObserver};
use crate::workloads;
use dta::advisor::FleetReport;
use dta::prelude::*;
use dta::xml;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What set-up produces: the server under test and the two input
/// documents, plus the generated workload the checks re-price.
pub struct Inputs {
    pub server: Server,
    pub workload: Workload,
    pub workload_xml: String,
    pub options_xml: String,
}

/// Untimed set-up of one session: generate server, data and workload from
/// `seed`, render the input documents. Returns the seconds it took.
pub fn set_up(workload: &str, seed: u64, options: &TuningOptions) -> (Inputs, f64) {
    let start = Instant::now();
    let (server, generated) = workloads::generate(workload, seed);
    let inputs = Inputs {
        workload_xml: xml::workload_to_xml(&generated),
        options_xml: xml::options_to_xml(options),
        server,
        workload: generated,
    };
    (inputs, start.elapsed().as_secs_f64())
}

/// Set-up with the workload's standard options.
pub fn set_up_standard(workload: &str, seed: u64) -> (Inputs, f64) {
    set_up(workload, seed, &workloads::options(workload))
}

/// One finished timed region of a solo workload.
pub struct Session {
    pub wall_s: f64,
    pub result: TuningResult,
    pub result_xml: String,
}

fn span<R>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

fn parse_inputs(inputs: &Inputs) -> Result<(Workload, TuningOptions), String> {
    let workload = xml::workload_from_xml(&inputs.workload_xml).map_err(|e| e.to_string())?;
    let options = xml::options_from_xml(&inputs.options_xml).map_err(|e| e.to_string())?;
    Ok((workload, options))
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into());
    format!("panicked: {text}")
}

/// The timed region. With a tracer the region is wrapped in spans and the
/// tuner reports its stages through a [`TracingObserver`]; without one it
/// is the plain `tune` an end-to-end run measures.
pub fn run_session(inputs: &Inputs, tracer: Option<&Tracer>) -> Result<Session, String> {
    let region = || -> Result<Session, String> {
        let start = Instant::now();
        let (workload, options) = span(tracer, "xml.parse", || parse_inputs(inputs))?;
        let target = TuningTarget::Single(&inputs.server);
        let result = span(tracer, "tune", || match tracer {
            Some(t) => tune_with_observer(&target, &workload, &options, &TracingObserver::new(t)),
            None => tune(&target, &workload, &options),
        })
        .map_err(|e| e.to_string())?;
        let result_xml = span(tracer, "xml.write", || xml::result_to_xml(&result));
        Ok(Session { wall_s: start.elapsed().as_secs_f64(), result, result_xml })
    };
    catch_unwind(AssertUnwindSafe(region)).unwrap_or_else(|p| Err(panic_text(p)))
}

/// What must be identical whenever the same inputs are tuned again —
/// across repetitions, worker counts, observers and the supervisor.
pub fn digest(result: &TuningResult) -> String {
    format!(
        "{}|{}|{}",
        xml::configuration_to_xml(&result.recommendation),
        result.whatif_calls,
        result.evaluations
    )
}

/// `a <= b`; false when either is NaN, so a NaN cost fails its check.
fn at_most(a: f64, b: f64) -> bool {
    a <= b
}

/// The per-session correctness checks (untimed).
pub fn check_result(
    inputs: &Inputs,
    result: &TuningResult,
    result_xml: &str,
    expected: Completion,
) -> Result<(), String> {
    if result.completion != expected {
        return Err(format!("ended \"{}\", expected \"{expected}\"", result.completion));
    }
    let read_back =
        xml::schema::recommendation_from_output(result_xml).map_err(|e| e.to_string())?;
    if read_back != result.recommendation {
        return Err("the output document does not read back to the recommendation".into());
    }
    if !at_most(result.recommended_cost, result.base_cost) {
        return Err(format!(
            "recommended cost {} above base cost {}",
            result.recommended_cost, result.base_cost
        ));
    }
    // an independent re-pricing of the generated (uncompressed) workload
    let report = evaluate_configuration(
        &TuningTarget::Single(&inputs.server),
        &inputs.workload,
        &inputs.server.raw_configuration(),
        &result.recommendation,
    )
    .map_err(|e| e.to_string())?;
    if !at_most(report.proposed_total, report.current_total) {
        return Err(format!(
            "re-priced recommendation costs {} against {} for the raw configuration",
            report.proposed_total, report.current_total
        ));
    }
    Ok(())
}

/// One finished fleet run: three tenants under one `SessionSupervisor`.
pub struct FleetRun {
    pub wall_s: f64,
    pub report: FleetReport,
    /// Output documents, in [`workloads::FLEET_TENANTS`] order.
    pub result_xmls: Vec<String>,
    /// Fleet manifest after the run (for the XML round-trip rung).
    pub manifest: FleetManifest,
}

/// Set up the three tenants of a fleet run, all from one seed.
pub fn set_up_fleet(seed: u64) -> (Vec<Inputs>, f64) {
    let start = Instant::now();
    let tenants = workloads::FLEET_TENANTS.iter().map(|w| set_up_standard(w, seed).0).collect();
    (tenants, start.elapsed().as_secs_f64())
}

/// The fleet's timed region: parse the six input documents, admit the
/// three tenants, run the fleet to completion, write the three output
/// documents. `tenants` are in [`workloads::FLEET_TENANTS`] order.
pub fn run_fleet(
    tenants: &[Inputs],
    quantum: u64,
    tracer: Option<&Tracer>,
) -> Result<FleetRun, String> {
    let region = || -> Result<FleetRun, String> {
        let start = Instant::now();
        let parsed = span(tracer, "xml.parse", || {
            tenants.iter().map(parse_inputs).collect::<Result<Vec<_>, _>>()
        })?;
        let policy = SupervisorPolicy { quantum, ..SupervisorPolicy::default() };
        let mut supervisor = SessionSupervisor::new(policy).map_err(|e| e.to_string())?;
        span(tracer, "supervisor.admit", || {
            let specs = workloads::FLEET_TENANTS.iter().zip(tenants).zip(parsed);
            for ((id, inputs), (workload, options)) in specs {
                supervisor
                    .admit(TenantSpec::new(*id, &inputs.server, workload, options))
                    .map_err(|e| e.to_string())?;
            }
            Ok::<(), String>(())
        })?;
        let report = span(tracer, "supervisor.run", || supervisor.run());
        let result_xmls = span(tracer, "xml.write", || {
            workloads::FLEET_TENANTS
                .iter()
                .map(|id| tenant_result(&report, id).map(xml::result_to_xml))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let wall_s = start.elapsed().as_secs_f64();
        Ok(FleetRun { wall_s, report, result_xmls, manifest: supervisor.manifest() })
    };
    catch_unwind(AssertUnwindSafe(region)).unwrap_or_else(|p| Err(panic_text(p)))
}

/// A tenant's full result out of a fleet report.
pub fn tenant_result<'r>(report: &'r FleetReport, id: &str) -> Result<&'r TuningResult, String> {
    let outcome = report.tenant(id).ok_or_else(|| format!("tenant {id} missing from report"))?;
    if outcome.status != TenantStatus::Completed {
        return Err(format!("tenant {id} ended {}", outcome.status));
    }
    outcome
        .finished
        .as_ref()
        .and_then(|f| f.result.as_deref())
        .ok_or_else(|| format!("tenant {id} carries no result"))
}

/// The fleet's correctness checks (untimed): the fleet ran to the end and
/// every tenant passes the session checks. With `solo` — the same inputs
/// tuned alone on fresh servers, in tenant order — also the supervisor's
/// invariant: each tenant's recommendation, what-if calls and work units
/// are those of its solo session.
pub fn check_fleet(
    tenants: &[Inputs],
    run: &FleetRun,
    solo: Option<&[&TuningResult]>,
) -> Result<(), String> {
    if run.report.stopped.is_some() {
        return Err("the fleet stopped before every tenant finished".into());
    }
    for (i, id) in workloads::FLEET_TENANTS.iter().enumerate() {
        let result = tenant_result(&run.report, id)?;
        check_result(&tenants[i], result, &run.result_xmls[i], Completion::Complete)
            .map_err(|e| format!("tenant {id}: {e}"))?;
        let Some(alone) = solo.map(|s| s[i]) else { continue };
        if xml::configuration_to_xml(&result.recommendation)
            != xml::configuration_to_xml(&alone.recommendation)
        {
            return Err(format!("tenant {id}: recommendation differs from the solo session's"));
        }
        // work units are summed slice by slice in the fleet, so the two
        // totals may differ in the last bits
        let units_apart = (result.tuning_work_units - alone.tuning_work_units).abs();
        if result.whatif_calls != alone.whatif_calls || units_apart > 1e-6 * alone.tuning_work_units
        {
            return Err(format!(
                "tenant {id}: {} what-if calls / {} work units, solo session {} / {}",
                result.whatif_calls,
                result.tuning_work_units,
                alone.whatif_calls,
                alone.tuning_work_units
            ));
        }
    }
    Ok(())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
