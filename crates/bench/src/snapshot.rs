//! The perf-trajectory snapshot behind `dta-bench-snap`: run the seed
//! workloads under a recording observer and freeze the session's shape
//! (stage timings, what-if volume, cache hit rates, pool sizes) as a
//! stable-schema JSON document (`dta-bench/v1`), committed at the repo
//! root as `BENCH_pr<N>.json` so the trajectory across PRs is diffable.
//!
//! Wall-clock fields (`wall_nanos`) vary run to run and machine to
//! machine — they are trajectory data, not assertions. Every other
//! field is deterministic for a given seed workload, so an unexpected
//! diff in a counter is a real behavior change.

use dta::advisor::obs::Counter;
use dta::advisor::{tune_with_observer, RecordingObserver, TuningOptions};
use dta::prelude::*;
use dta::workload::{psoft, synt1, tpch};

/// The seed workloads a snapshot covers, in report order.
pub const SNAP_WORKLOADS: &[&str] = &["tpch", "psoft", "synt1"];

/// One per-stage row of a workload snapshot.
#[derive(Debug, Clone)]
pub struct StageSnap {
    /// Hierarchical span path (e.g. `"enumeration/greedyPhase1"`).
    pub path: String,
    pub enters: u64,
    /// Report-only wall time; varies run to run.
    pub wall_nanos: u128,
    pub whatif_calls: u64,
    pub work_units: u64,
}

/// One workload's frozen session shape.
#[derive(Debug, Clone)]
pub struct WorkloadSnap {
    pub name: String,
    pub whatif_calls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Misses priced from recorded access paths, with no what-if call:
    /// every miss is one or the other (or a degraded statement's
    /// fallback). Absent from snapshots before derived costs.
    pub derived_costs: u64,
    /// Phase-1 sets enumeration counted but did not price, their bound
    /// showing they could not undercut the round's front. Absent from
    /// snapshots before pruning.
    pub pruned_sets: u64,
    pub cache_hit_rate: f64,
    pub peak_pool_size: u64,
    pub evaluations: usize,
    pub base_cost: f64,
    pub recommended_cost: f64,
    pub stages: Vec<StageSnap>,
}

/// Build and tune one seed workload (smoke scale) under a recording
/// observer. Panics on an unknown name — callers pick from
/// [`SNAP_WORKLOADS`].
pub fn run_workload(name: &str) -> WorkloadSnap {
    // smoke scale mirrors RunScale::quick(): shapes intact, seconds not
    // minutes, and deterministic for seed 42. SYNT1 is the exception —
    // a full tune at 0.02 hits the seed-slow merging blowup (pool grows
    // ~14x, see CHANGES.md PR 1), so it runs at the 24-statement smoke
    // size the itw_vs_dta smoke test uses
    let (server, workload) = match name {
        "tpch" => (tpch::build_server(tpch::TpchScale::new(0.002, 1.0), 42), tpch::workload()),
        "psoft" => {
            let b = psoft::build(0.02, 42);
            (b.server, b.workload)
        }
        "synt1" => {
            let b = synt1::build(0.006, 42);
            (b.server, b.workload)
        }
        other => panic!("unknown snapshot workload '{other}'"),
    };
    let target = TuningTarget::Single(&server);
    let obs = RecordingObserver::new();
    let result = tune_with_observer(&target, &workload, &TuningOptions::default(), &obs)
        .expect("seed workload tunes");
    let summary = result.observer.clone().expect("recording observer yields a summary");
    WorkloadSnap {
        name: name.to_string(),
        whatif_calls: summary.counter(Counter::WhatIfCalls),
        cache_hits: summary.counter(Counter::CacheHits),
        cache_misses: summary.counter(Counter::CacheMisses),
        derived_costs: summary.counter(Counter::DerivedCosts),
        pruned_sets: summary.counter(Counter::PrunedSets),
        cache_hit_rate: summary.cache_hit_rate(),
        peak_pool_size: summary.counter(Counter::PeakPoolSize),
        evaluations: result.evaluations,
        base_cost: result.base_cost,
        recommended_cost: result.recommended_cost,
        stages: summary
            .spans
            .iter()
            .map(|s| StageSnap {
                path: s.path.clone(),
                enters: s.enters,
                wall_nanos: s.wall_nanos,
                whatif_calls: s.whatif_calls,
                work_units: s.work_units,
            })
            .collect(),
    }
}

/// The supervisor-throughput snapshot: the seed workloads tuned as a
/// supervised multi-tenant fleet under a fixed scheduling quantum
/// (PR 10). Every field but the derived rate is deterministic.
#[derive(Debug, Clone)]
pub struct SupervisorSnap {
    /// Tenants admitted (one per seed workload).
    pub tenants: usize,
    /// Scheduling quantum, in work units.
    pub quantum: u64,
    /// Scheduling turns the fleet took.
    pub rounds: u64,
    /// Tenants that ran to convergence.
    pub completed: usize,
    /// Slices executed across the fleet.
    pub slices: u64,
    /// Fleet ledger: work units consumed.
    pub work_units: u64,
    /// Supervisor throughput: sessions completed per thousand units.
    pub sessions_per_kilounit: f64,
}

/// Tune the seed workloads as one supervised fleet and freeze its
/// scheduling shape. The quantum is far below any single session's
/// total, so the snapshot exercises real preempt/park/resume cycles.
pub fn run_supervisor() -> SupervisorSnap {
    use dta::advisor::{SessionSupervisor, SupervisorPolicy, TenantSpec};
    let quantum = 1_024;
    let builds: Vec<(String, Server, Workload)> = SNAP_WORKLOADS
        .iter()
        .map(|name| match *name {
            "tpch" => (
                "tpch".to_string(),
                tpch::build_server(tpch::TpchScale::new(0.002, 1.0), 42),
                tpch::workload(),
            ),
            "psoft" => {
                let b = psoft::build(0.02, 42);
                ("psoft".to_string(), b.server, b.workload)
            }
            "synt1" => {
                let b = synt1::build(0.006, 42);
                ("synt1".to_string(), b.server, b.workload)
            }
            other => panic!("unknown snapshot workload '{other}'"),
        })
        .collect();
    let mut sup = SessionSupervisor::new(SupervisorPolicy {
        quantum,
        workers: 2,
        ..SupervisorPolicy::default()
    })
    .expect("snapshot policy is valid");
    for (id, server, workload) in &builds {
        sup.admit(TenantSpec::new(id.clone(), server, workload.clone(), TuningOptions::default()))
            .expect("seed workload names are unique");
    }
    let report = sup.run();
    SupervisorSnap {
        tenants: report.tenants.len(),
        quantum,
        rounds: report.rounds,
        completed: report.completed(),
        slices: report.tenants.iter().map(|t| t.slices).sum(),
        work_units: report.fleet_consumed,
        sessions_per_kilounit: report.sessions_per_kilounit(),
    }
}

/// Render the snapshot document (`dta-bench/v1`).
pub fn snapshot_json(
    pr: u32,
    workloads: &[WorkloadSnap],
    supervisor: Option<&SupervisorSnap>,
) -> String {
    use dta::advisor::obs::json_escape;
    let mut out = format!("{{\"schema\":\"dta-bench/v1\",\"pr\":{pr},\"workloads\":[");
    for (i, w) in workloads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"whatif_calls\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"derived_costs\":{},\"pruned_sets\":{},\"cache_hit_rate\":{:.6},\"peak_pool_size\":{},\
             \"evaluations\":{},\"base_cost\":{:.6},\"recommended_cost\":{:.6},\"stages\":[",
            json_escape(&w.name),
            w.whatif_calls,
            w.cache_hits,
            w.cache_misses,
            w.derived_costs,
            w.pruned_sets,
            w.cache_hit_rate,
            w.peak_pool_size,
            w.evaluations,
            w.base_cost,
            w.recommended_cost,
        ));
        for (j, s) in w.stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"enters\":{},\"wall_nanos\":{},\"whatif_calls\":{},\
                 \"work_units\":{}}}",
                json_escape(&s.path),
                s.enters,
                s.wall_nanos,
                s.whatif_calls,
                s.work_units,
            ));
        }
        out.push_str("]}");
    }
    out.push(']');
    if let Some(s) = supervisor {
        out.push_str(&format!(
            ",\"supervisor\":{{\"tenants\":{},\"quantum\":{},\"rounds\":{},\"completed\":{},\
             \"slices\":{},\"work_units\":{},\"sessions_per_kilounit\":{:.6}}}",
            s.tenants,
            s.quantum,
            s.rounds,
            s.completed,
            s.slices,
            s.work_units,
            s.sessions_per_kilounit,
        ));
    }
    out.push('}');
    out
}

// ---- schema validation -----------------------------------------------------
//
// A hand-rolled JSON reader (no dependencies, like everything else in
// tree): enough of RFC 8259 to parse what the emitter above writes and
// reject malformed or schema-violating documents in CI.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs (duplicates rejected).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing garbage rejected).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|_| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected value at byte {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // multi-byte UTF-8 sequences pass through unchanged
                let len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(&b[*pos..*pos + len.min(b.len() - *pos)])
                    .map_err(|_| "invalid UTF-8 in string")?;
                out.push_str(s);
                *pos += len;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut members: Vec<(String, Json)> = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        if members.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key '{key}'"));
        }
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Validate a snapshot document against the `dta-bench/v1` schema. CI
/// fails the bench-snapshot job on any `Err`.
pub fn validate_snapshot(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == "dta-bench/v1" => {}
        other => return Err(format!("schema must be \"dta-bench/v1\", got {other:?}")),
    }
    match doc.get("pr") {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => {}
        other => return Err(format!("pr must be a non-negative integer, got {other:?}")),
    }
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        return Err("workloads must be an array".to_string());
    };
    if workloads.is_empty() {
        return Err("workloads must be non-empty".to_string());
    }
    let uint = |w: &Json, key: &str| -> Result<f64, String> {
        match w.get(key) {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n),
            other => Err(format!("{key} must be a non-negative integer, got {other:?}")),
        }
    };
    let num = |w: &Json, key: &str| -> Result<f64, String> {
        match w.get(key) {
            Some(Json::Num(n)) if n.is_finite() => Ok(*n),
            other => Err(format!("{key} must be a finite number, got {other:?}")),
        }
    };
    for w in workloads {
        match w.get("name") {
            Some(Json::Str(s)) if !s.is_empty() => {}
            other => return Err(format!("workload name must be non-empty, got {other:?}")),
        }
        let calls = uint(w, "whatif_calls")?;
        let hits = uint(w, "cache_hits")?;
        let misses = uint(w, "cache_misses")?;
        uint(w, "peak_pool_size")?;
        let evaluations = uint(w, "evaluations")?;
        // a pruned set is an evaluation, counted and not priced (absent
        // before there were any)
        if w.get("pruned_sets").is_some() && uint(w, "pruned_sets")? > evaluations {
            return Err(format!("pruned_sets exceed evaluations {evaluations}"));
        }
        num(w, "base_cost")?;
        num(w, "recommended_cost")?;
        let rate = num(w, "cache_hit_rate")?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("cache_hit_rate out of [0,1]: {rate}"));
        }
        // every miss is a call or a derived cost (absent before there
        // were any)
        let derived = match w.get("derived_costs") {
            Some(_) => uint(w, "derived_costs")?,
            None => 0.0,
        };
        if misses > calls + derived {
            return Err(format!(
                "cache_misses {misses} exceed whatif_calls {calls} plus derived_costs {derived}"
            ));
        }
        let _ = hits;
        let Some(Json::Arr(stages)) = w.get("stages") else {
            return Err("stages must be an array".to_string());
        };
        for s in stages {
            match s.get("path") {
                Some(Json::Str(p)) if !p.is_empty() => {}
                other => return Err(format!("stage path must be non-empty, got {other:?}")),
            }
            uint(s, "enters")?;
            uint(s, "wall_nanos")?;
            uint(s, "whatif_calls")?;
            uint(s, "work_units")?;
        }
    }
    // the supervisor section is optional (absent before PR 10)
    if let Some(sup) = doc.get("supervisor") {
        let tenants = uint(sup, "tenants")?;
        uint(sup, "quantum")?;
        uint(sup, "rounds")?;
        let completed = uint(sup, "completed")?;
        uint(sup, "slices")?;
        uint(sup, "work_units")?;
        let rate = num(sup, "sessions_per_kilounit")?;
        if rate < 0.0 {
            return Err(format!("sessions_per_kilounit negative: {rate}"));
        }
        if completed > tenants {
            return Err(format!("completed {completed} exceeds tenants {tenants}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let workloads = vec![WorkloadSnap {
            name: "toy".into(),
            whatif_calls: 10,
            cache_hits: 90,
            cache_misses: 10,
            derived_costs: 0,
            pruned_sets: 5,
            cache_hit_rate: 0.9,
            peak_pool_size: 7,
            evaluations: 42,
            base_cost: 100.5,
            recommended_cost: 40.25,
            stages: vec![StageSnap {
                path: "enumeration/greedyPhase1".into(),
                enters: 1,
                wall_nanos: 123456,
                whatif_calls: 8,
                work_units: 30,
            }],
        }];
        snapshot_json(6, &workloads, None)
    }

    fn sample_supervisor() -> SupervisorSnap {
        SupervisorSnap {
            tenants: 3,
            quantum: 1024,
            rounds: 12,
            completed: 3,
            slices: 19,
            work_units: 9000,
            sessions_per_kilounit: 3.0 * 1000.0 / 9000.0,
        }
    }

    #[test]
    fn emitted_snapshot_validates() {
        let json = sample();
        validate_snapshot(&json).unwrap();
        let doc = parse_json(&json).unwrap();
        assert_eq!(doc.get("pr"), Some(&Json::Num(6.0)));
    }

    #[test]
    fn supervisor_section_validates_and_is_optional() {
        // absent: still valid (pre-PR-10 snapshots)
        validate_snapshot(&sample()).unwrap();
        // an empty workload list is rejected with or without a supervisor
        let json = snapshot_json(10, &[], Some(&sample_supervisor()));
        assert!(validate_snapshot(&json).is_err(), "empty workloads still rejected");
        // present: validated like the rest
        let workloads = vec![WorkloadSnap {
            name: "toy".into(),
            whatif_calls: 10,
            cache_hits: 90,
            cache_misses: 10,
            derived_costs: 0,
            pruned_sets: 5,
            cache_hit_rate: 0.9,
            peak_pool_size: 7,
            evaluations: 42,
            base_cost: 100.5,
            recommended_cost: 40.25,
            stages: Vec::new(),
        }];
        let full = snapshot_json(10, &workloads, Some(&sample_supervisor()));
        validate_snapshot(&full).unwrap();
        let doc = parse_json(&full).unwrap();
        let sup = doc.get("supervisor").expect("supervisor section present");
        assert_eq!(sup.get("completed"), Some(&Json::Num(3.0)));
        // more sessions than tenants is impossible
        let bad = full.replace("\"completed\":3", "\"completed\":9");
        assert!(validate_snapshot(&bad).is_err(), "completed > tenants must be rejected");
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = parse_json(r#"{"a":[1,-2.5e1,"x\"\\\nA"],"b":{"c":null,"d":true}}"#).unwrap();
        let Some(Json::Arr(items)) = doc.get("a") else { panic!("{doc:?}") };
        assert_eq!(items[1], Json::Num(-25.0));
        assert_eq!(items[2], Json::Str("x\"\\\nA".into()));
        assert_eq!(doc.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
    }

    #[test]
    fn validator_rejects_schema_violations() {
        assert!(validate_snapshot("{").is_err(), "malformed document");
        assert!(validate_snapshot("{}").is_err(), "missing schema tag");
        assert!(
            validate_snapshot(r#"{"schema":"dta-bench/v1","pr":6,"workloads":[]}"#).is_err(),
            "empty workload list"
        );
        let bad_rate = sample().replace("\"cache_hit_rate\":0.900000", "\"cache_hit_rate\":1.5");
        assert!(validate_snapshot(&bad_rate).is_err(), "hit rate out of range");
        let trailing = format!("{} ", sample()) + "x";
        assert!(validate_snapshot(&trailing).is_err(), "trailing garbage");
        let dup = r#"{"schema":"dta-bench/v1","schema":"dta-bench/v1"}"#;
        assert!(validate_snapshot(dup).is_err(), "duplicate keys");
        // misses are calls or derived costs, and the field is optional
        let derived = sample().replace("\"whatif_calls\":10", "\"whatif_calls\":4");
        assert!(validate_snapshot(&derived).is_err(), "misses beyond the calls");
        let derived = derived.replace("\"derived_costs\":0", "\"derived_costs\":6");
        validate_snapshot(&derived).unwrap();
        validate_snapshot(&sample().replace("\"derived_costs\":0,", "")).unwrap();
        // pruned sets are evaluations, and the field is optional
        let pruned = sample().replace("\"pruned_sets\":5", "\"pruned_sets\":43");
        assert!(validate_snapshot(&pruned).is_err(), "more pruned sets than evaluations");
        validate_snapshot(&sample().replace("\"pruned_sets\":5,", "")).unwrap();
    }
}
