//! The typed schema layer: DTA inputs and outputs as XML.

use crate::xml::{parse_document, XmlError, XmlNode, XmlWriter};
use dta_catalog::Value;
use dta_core::candidates::ItemSelection;
use dta_core::cost::{CacheExport, Picks};
use dta_core::enumeration::EnumerationResume;
use dta_core::greedy::{GreedyCursor, GreedySnapshot};
use dta_core::supervisor::{FinishedSession, FleetManifest, TenantManifest, TenantStatus};
use dta_core::{
    AlignmentMode, Completion, Counter, CounterTotals, FeatureSet, SessionCheckpoint, Stage,
    StatsProgress, TuningOptions, TuningResult,
};
use dta_physical::{
    Configuration, Index, IndexKind, JoinPair, MaterializedView, PhysicalStructure,
    QualifiedColumn, RangePartitioning, ViewAggregate,
};
use dta_sql::AggFunc;
use dta_workload::{Workload, WorkloadItem};

/// Schema-level errors (syntax or semantic).
#[derive(Debug)]
pub enum SchemaError {
    Xml(XmlError),
    Invalid(String),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Xml(e) => write!(f, "{e}"),
            SchemaError::Invalid(m) => write!(f, "invalid document: {m}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl From<XmlError> for SchemaError {
    fn from(e: XmlError) -> Self {
        SchemaError::Xml(e)
    }
}

fn invalid(m: impl Into<String>) -> SchemaError {
    SchemaError::Invalid(m.into())
}

// ---- bit-exact floats -------------------------------------------------------
//
// Checkpoints must round-trip costs *byte*-exactly — a resumed session's
// recommendation is compared bit-for-bit against the uninterrupted run's.
// Costs are therefore serialized as the hex IEEE-754 bit pattern, not as
// a decimal rendering.

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_bits(node: &XmlNode, attr: &str) -> Result<f64, SchemaError> {
    let raw = node.require_attr(attr)?;
    u64::from_str_radix(raw, 16)
        .map(f64::from_bits)
        .map_err(|_| invalid(format!("bad float bits '{raw}' in '{attr}'")))
}

/// A cache entry's `picks` list: a typed error for a token that is not a
/// number, and unrecorded when absent (a checkpoint written before entries
/// recorded every binding's pick, whose `access` record is not read) or
/// malformed — a number past the 254 positions a pick can hold, or more
/// picks than a record holds ([`Picks::from_slice`]). The evaluator reads
/// a list of another length than its statement's bindings as unrecorded
/// too.
fn parse_picks(node: &XmlNode) -> Result<Picks, SchemaError> {
    let Some(raw) = node.attr("picks") else { return Ok(Picks::NONE) };
    let mut picks = Vec::new();
    for token in raw.split_whitespace() {
        let p: u64 = token.parse().map_err(|_| invalid(format!("bad pick '{token}'")))?;
        picks.push(u8::try_from(p).ok());
    }
    let picks: Option<Vec<u8>> = picks.into_iter().collect();
    Ok(picks.map_or(Picks::NONE, |p| Picks::from_slice(&p)))
}

fn parse_num<T: std::str::FromStr>(node: &XmlNode, attr: &str) -> Result<T, SchemaError> {
    node.require_attr(attr)?
        .parse()
        .map_err(|_| invalid(format!("bad number in '{attr}' of <{}>", node.name)))
}

// ---- values ---------------------------------------------------------------

fn write_value(w: &mut XmlWriter, element: &str, v: &Value) {
    let (ty, text) = match v {
        Value::Null => ("null", String::new()),
        Value::Int(i) => ("int", i.to_string()),
        Value::Float(f) => ("float", f.to_string()),
        Value::Str(s) => ("str", s.clone()),
    };
    w.text_element(element, &[("type", ty)], &text);
}

fn read_value(node: &XmlNode) -> Result<Value, SchemaError> {
    match node.require_attr("type")? {
        "null" => Ok(Value::Null),
        "int" => node
            .text
            .parse()
            .map(Value::Int)
            .map_err(|_| invalid(format!("bad int '{}'", node.text))),
        "float" => node
            .text
            .parse()
            .map(Value::Float)
            .map_err(|_| invalid(format!("bad float '{}'", node.text))),
        "str" => Ok(Value::Str(node.text.clone())),
        other => Err(invalid(format!("unknown value type '{other}'"))),
    }
}

// ---- partitioning -----------------------------------------------------------

fn write_partitioning(w: &mut XmlWriter, p: &RangePartitioning) {
    w.open_with("Partitioning", &[("column", &p.column)]);
    for b in &p.boundaries {
        write_value(w, "Boundary", b);
    }
    w.close();
}

fn read_partitioning(node: &XmlNode) -> Result<RangePartitioning, SchemaError> {
    let column = node.require_attr("column")?;
    let mut boundaries = Vec::new();
    for b in node.children_named("Boundary") {
        boundaries.push(read_value(b)?);
    }
    Ok(RangePartitioning::new(column, boundaries))
}

// ---- configuration ---------------------------------------------------------

fn qualified(attr: &str) -> Result<QualifiedColumn, SchemaError> {
    let (t, c) = attr
        .split_once('.')
        .ok_or_else(|| invalid(format!("expected table.column, got '{attr}'")))?;
    Ok(QualifiedColumn::new(t, c))
}

fn write_structure(w: &mut XmlWriter, s: &PhysicalStructure) {
    match s {
        PhysicalStructure::Index(ix) => {
            let kind = match ix.kind {
                IndexKind::Clustered => "clustered",
                IndexKind::NonClustered => "nonclustered",
            };
            let keys = ix.key_columns.join(",");
            let includes = ix.included_columns.join(",");
            let mut attrs = vec![
                ("database", ix.database.as_str()),
                ("table", ix.table.as_str()),
                ("kind", kind),
                ("keys", keys.as_str()),
            ];
            if !includes.is_empty() {
                attrs.push(("includes", includes.as_str()));
            }
            if ix.enforces_constraint {
                attrs.push(("constraint", "true"));
            }
            if let Some(p) = &ix.partitioning {
                w.open_with("Index", &attrs);
                write_partitioning(w, p);
                w.close();
            } else {
                w.leaf("Index", &attrs);
            }
        }
        PhysicalStructure::View(v) => {
            let tables = v.tables.join(",");
            w.open_with(
                "MaterializedView",
                &[("database", v.database.as_str()), ("tables", tables.as_str())],
            );
            for jp in &v.join_pairs {
                w.leaf(
                    "Join",
                    &[("left", &format!("{}", jp.left)), ("right", &format!("{}", jp.right))],
                );
            }
            for g in &v.group_by {
                w.leaf("GroupBy", &[("column", &format!("{g}"))]);
            }
            for p in &v.projected {
                w.leaf("Project", &[("column", &format!("{p}"))]);
            }
            for a in &v.aggregates {
                let mut attrs = vec![("func", a.func.name())];
                if let Some(text) = &a.arg {
                    attrs.push(("arg", text.as_str()));
                }
                if a.arg_columns.is_empty() {
                    w.leaf("Aggregate", &attrs);
                } else {
                    w.open_with("Aggregate", &attrs);
                    for qc in &a.arg_columns {
                        w.leaf("ArgColumn", &[("column", &format!("{qc}"))]);
                    }
                    w.close();
                }
            }
            if let Some(p) = &v.partitioning {
                write_partitioning(w, p);
            }
            w.close();
        }
        PhysicalStructure::TablePartitioning { database, table, scheme } => {
            w.open_with(
                "TablePartitioning",
                &[("database", database.as_str()), ("table", table.as_str())],
            );
            write_partitioning(w, scheme);
            w.close();
        }
    }
}

fn read_structure(node: &XmlNode) -> Result<PhysicalStructure, SchemaError> {
    match node.name.as_str() {
        "Index" => {
            let database = node.require_attr("database")?;
            let table = node.require_attr("table")?;
            let kind = match node.require_attr("kind")? {
                "clustered" => IndexKind::Clustered,
                "nonclustered" => IndexKind::NonClustered,
                other => return Err(invalid(format!("unknown index kind '{other}'"))),
            };
            let keys: Vec<&str> =
                node.require_attr("keys")?.split(',').filter(|s| !s.is_empty()).collect();
            let includes: Vec<&str> = node
                .attr("includes")
                .map(|s| s.split(',').filter(|s| !s.is_empty()).collect())
                .unwrap_or_default();
            let mut ix = match kind {
                IndexKind::Clustered => Index::clustered(database, table, &keys),
                IndexKind::NonClustered => Index::non_clustered(database, table, &keys, &includes),
            };
            if node.attr("constraint") == Some("true") {
                ix = ix.constraint();
            }
            if let Some(p) = node.child("Partitioning") {
                ix = ix.partitioned(read_partitioning(p)?);
            }
            if !ix.is_well_formed() {
                return Err(invalid(format!("malformed index '{}'", ix.name())));
            }
            Ok(PhysicalStructure::Index(ix))
        }
        "MaterializedView" => {
            let database = node.require_attr("database")?;
            let tables: Vec<&str> = node.require_attr("tables")?.split(',').collect();
            let mut join_pairs = Vec::new();
            for j in node.children_named("Join") {
                join_pairs.push(JoinPair::new(
                    qualified(j.require_attr("left")?)?,
                    qualified(j.require_attr("right")?)?,
                ));
            }
            let mut group_by = Vec::new();
            for g in node.children_named("GroupBy") {
                group_by.push(qualified(g.require_attr("column")?)?);
            }
            let mut projected = Vec::new();
            for p in node.children_named("Project") {
                projected.push(qualified(p.require_attr("column")?)?);
            }
            let mut aggregates = Vec::new();
            for a in node.children_named("Aggregate") {
                let func = AggFunc::from_name(&a.require_attr("func")?.to_ascii_lowercase())
                    .ok_or_else(|| invalid("unknown aggregate function"))?;
                let arg = a.attr("arg").map(str::to_string);
                let mut arg_columns = Vec::new();
                for c in a.children_named("ArgColumn") {
                    arg_columns.push(qualified(c.require_attr("column")?)?);
                }
                aggregates.push(ViewAggregate { func, arg, arg_columns });
            }
            let mut view = if group_by.is_empty() && aggregates.is_empty() {
                MaterializedView::join_view(database, &tables, join_pairs, projected)
            } else {
                MaterializedView::grouped(database, &tables, join_pairs, group_by, aggregates)
            };
            if let Some(p) = node.child("Partitioning") {
                view = view.partitioned(read_partitioning(p)?);
            }
            if !view.is_well_formed() {
                return Err(invalid(format!("malformed view '{}'", view.name())));
            }
            Ok(PhysicalStructure::View(view))
        }
        "TablePartitioning" => {
            let scheme = read_partitioning(
                node.child("Partitioning")
                    .ok_or_else(|| invalid("TablePartitioning without Partitioning child"))?,
            )?;
            Ok(PhysicalStructure::TablePartitioning {
                database: node.require_attr("database")?.to_string(),
                table: node.require_attr("table")?.to_string(),
                scheme,
            })
        }
        other => Err(invalid(format!("unknown structure element <{other}>"))),
    }
}

fn write_configuration_into(w: &mut XmlWriter, config: &Configuration) {
    w.open("Configuration");
    for s in config.iter() {
        write_structure(w, s);
    }
    w.close();
}

/// Serialize a configuration.
pub fn configuration_to_xml(config: &Configuration) -> String {
    let mut w = XmlWriter::new();
    write_configuration_into(&mut w, config);
    w.finish()
}

fn configuration_from_node(node: &XmlNode) -> Result<Configuration, SchemaError> {
    if node.name != "Configuration" {
        return Err(invalid(format!("expected <Configuration>, got <{}>", node.name)));
    }
    let mut config = Configuration::new();
    for child in &node.children {
        config.add(read_structure(child)?);
    }
    Ok(config)
}

/// Parse a configuration document.
pub fn configuration_from_xml(text: &str) -> Result<Configuration, SchemaError> {
    configuration_from_node(&parse_document(text)?)
}

// ---- workload -----------------------------------------------------------

fn write_workload_into(w: &mut XmlWriter, workload: &Workload) {
    w.open("Workload");
    for item in &workload.items {
        let weight = item.weight.to_string();
        w.text_element(
            "Statement",
            &[("database", item.database.as_str()), ("weight", weight.as_str())],
            &item.statement.to_string(),
        );
    }
    w.close();
}

/// Serialize a workload.
pub fn workload_to_xml(workload: &Workload) -> String {
    let mut w = XmlWriter::new();
    write_workload_into(&mut w, workload);
    w.finish()
}

fn workload_from_node(root: &XmlNode) -> Result<Workload, SchemaError> {
    if root.name != "Workload" {
        return Err(invalid("expected <Workload> root"));
    }
    let mut items = Vec::new();
    for s in root.children_named("Statement") {
        let database = s.require_attr("database")?;
        let weight: f64 =
            s.attr("weight").unwrap_or("1").parse().map_err(|_| invalid("bad weight"))?;
        let stmt = dta_sql::parse_statement(&s.text)
            .map_err(|e| invalid(format!("statement does not parse: {e}")))?;
        items.push(WorkloadItem::weighted(database, stmt, weight));
    }
    Ok(Workload::from_items(items))
}

/// Parse a workload document.
pub fn workload_from_xml(text: &str) -> Result<Workload, SchemaError> {
    workload_from_node(&parse_document(text)?)
}

// ---- options -----------------------------------------------------------

/// Write tuning options with full fidelity: a checkpoint embeds this
/// document, and a resumed session must see byte-identical knobs.
/// (Rust's float `Display` is shortest-round-trip, so the decimal knobs
/// parse back to the exact same value.)
fn write_options_into(w: &mut XmlWriter, options: &TuningOptions) {
    let mut features = Vec::new();
    if options.features.indexes {
        features.push("indexes");
    }
    if options.features.views {
        features.push("views");
    }
    if options.features.partitioning {
        features.push("partitioning");
    }
    let features = features.join(",");
    let alignment = match options.alignment {
        AlignmentMode::None => "none",
        AlignmentMode::Lazy => "lazy",
        AlignmentMode::Eager => "eager",
    };
    let colgroup = options.colgroup_cost_threshold.to_string();
    let greedy_m = options.greedy_m.to_string();
    let greedy_k = options.greedy_k.to_string();
    let max_cand = options.max_candidates_per_query.to_string();
    let workers = options.parallel_workers.to_string();
    let keep_whole = options.compression.keep_whole_below.to_string();
    let rep_exp = options.compression.rep_exponent.to_string();
    let rep_scale = options.compression.rep_scale.to_string();
    let storage;
    let budget;
    let mut attrs: Vec<(&str, &str)> = vec![
        ("features", features.as_str()),
        ("alignment", alignment),
        ("compress", if options.compress { "true" } else { "false" }),
        ("reduceStatistics", if options.reduce_statistics { "true" } else { "false" }),
        ("colgroupThreshold", colgroup.as_str()),
        ("greedyM", greedy_m.as_str()),
        ("greedyK", greedy_k.as_str()),
        ("maxCandidatesPerQuery", max_cand.as_str()),
        ("parallelWorkers", workers.as_str()),
        ("keepWholeBelow", keep_whole.as_str()),
        ("repExponent", rep_exp.as_str()),
        ("repScale", rep_scale.as_str()),
    ];
    if let Some(b) = options.storage_bytes {
        storage = b.to_string();
        attrs.push(("storageBytes", storage.as_str()));
    }
    if let Some(t) = options.work_budget_units {
        budget = t.to_string();
        attrs.push(("workBudget", budget.as_str()));
    }
    w.open_with("TuningOptions", &attrs);
    if let Some(user) = &options.user_specified {
        w.open("UserSpecified");
        write_configuration_into(w, user);
        w.close();
    }
    w.close();
}

/// Serialize tuning options (the DTA input document).
pub fn options_to_xml(options: &TuningOptions) -> String {
    let mut w = XmlWriter::new();
    write_options_into(&mut w, options);
    w.finish()
}

fn options_from_node(root: &XmlNode) -> Result<TuningOptions, SchemaError> {
    if root.name != "TuningOptions" {
        return Err(invalid("expected <TuningOptions> root"));
    }
    let mut options = TuningOptions::default();
    if let Some(f) = root.attr("features") {
        let set: Vec<&str> = f.split(',').collect();
        options.features = FeatureSet {
            indexes: set.contains(&"indexes"),
            views: set.contains(&"views"),
            partitioning: set.contains(&"partitioning"),
        };
    }
    match root.attr("alignment") {
        Some("lazy") => options.alignment = AlignmentMode::Lazy,
        Some("eager") => options.alignment = AlignmentMode::Eager,
        _ => options.alignment = AlignmentMode::None,
    }
    if let Some(c) = root.attr("compress") {
        options.compress = c == "true";
    }
    if let Some(r) = root.attr("reduceStatistics") {
        options.reduce_statistics = r == "true";
    }
    if let Some(s) = root.attr("storageBytes") {
        options.storage_bytes = Some(s.parse().map_err(|_| invalid("bad storageBytes"))?);
    }
    if let Some(t) = root.attr("workBudget") {
        options.work_budget_units = Some(t.parse().map_err(|_| invalid("bad workBudget"))?);
    }
    if root.attr("colgroupThreshold").is_some() {
        options.colgroup_cost_threshold = parse_num(root, "colgroupThreshold")?;
    }
    if root.attr("greedyM").is_some() {
        options.greedy_m = parse_num(root, "greedyM")?;
    }
    if root.attr("greedyK").is_some() {
        options.greedy_k = parse_num(root, "greedyK")?;
    }
    if root.attr("maxCandidatesPerQuery").is_some() {
        options.max_candidates_per_query = parse_num(root, "maxCandidatesPerQuery")?;
    }
    if root.attr("parallelWorkers").is_some() {
        options.parallel_workers = parse_num(root, "parallelWorkers")?;
    }
    if root.attr("keepWholeBelow").is_some() {
        options.compression.keep_whole_below = parse_num(root, "keepWholeBelow")?;
    }
    if root.attr("repExponent").is_some() {
        options.compression.rep_exponent = parse_num(root, "repExponent")?;
    }
    if root.attr("repScale").is_some() {
        options.compression.rep_scale = parse_num(root, "repScale")?;
    }
    if let Some(user) = root.child("UserSpecified") {
        let cfg = user
            .child("Configuration")
            .ok_or_else(|| invalid("UserSpecified without Configuration"))?;
        options.user_specified = Some(configuration_from_node(cfg)?);
    }
    Ok(options)
}

/// Parse a tuning-options document. Unspecified knobs take defaults.
pub fn options_from_xml(text: &str) -> Result<TuningOptions, SchemaError> {
    options_from_node(&parse_document(text)?)
}

// ---- result -----------------------------------------------------------

/// Serialize a tuning result (the DTA output document). The embedded
/// `<Configuration>` can be fed back as a user-specified configuration —
/// §6.3's iterative-tuning loop.
pub fn result_to_xml(result: &TuningResult) -> String {
    let mut w = XmlWriter::new();
    w.open("DTAOutput");
    let improvement = format!("{:.4}", result.expected_improvement());
    let base = format!("{:.3}", result.base_cost);
    let rec = format!("{:.3}", result.recommended_cost);
    let statements = result.statements_tuned.to_string();
    let events = result.total_events.to_string();
    let calls = result.whatif_calls.to_string();
    let storage = result.storage_bytes.to_string();
    let completion = match result.completion {
        Completion::Complete => "complete".to_string(),
        Completion::BudgetExhausted { stage } => format!("budgetExhausted:{stage}"),
        Completion::Cancelled { stage } => format!("cancelled:{stage}"),
    };
    // robustness audit trail: how much isolation/retry machinery the
    // session leaned on (quarantine decisions read these)
    let restarts = result.worker_restarts.to_string();
    let retries = result.whatif_retries.to_string();
    let backoff = result.retry_backoff_units.to_string();
    let degraded = result.degraded_statements.len().to_string();
    w.leaf(
        "Report",
        &[
            ("expectedImprovement", improvement.as_str()),
            ("baseCost", base.as_str()),
            ("recommendedCost", rec.as_str()),
            ("statementsTuned", statements.as_str()),
            ("totalEvents", events.as_str()),
            ("whatifCalls", calls.as_str()),
            ("storageBytes", storage.as_str()),
            ("completion", completion.as_str()),
            ("workerRestarts", restarts.as_str()),
            ("whatifRetries", retries.as_str()),
            ("retryBackoffUnits", backoff.as_str()),
            ("degradedStatements", degraded.as_str()),
        ],
    );
    if let Some(obs) = &result.observer {
        write_observer(&mut w, obs);
    }
    w.open("Recommendation");
    write_configuration_into(&mut w, &result.recommendation);
    w.close();
    w.close();
    w.finish()
}

/// Serialize an observer trace: counters and span aggregates. Wall-time
/// attributes are report-only; every other attribute is deterministic
/// across reruns and worker counts.
fn write_observer(w: &mut XmlWriter, obs: &dta_core::ObserverSummary) {
    let dropped = obs.dropped_events.to_string();
    // panic rescues are the headline quarantine-audit number, so they
    // get a first-class attribute on top of their <Counter> row
    let rescues = obs.counter(dta_core::Counter::PanicRescues).to_string();
    w.open_with(
        "Observer",
        &[("droppedEvents", dropped.as_str()), ("panicRescues", rescues.as_str())],
    );
    for (name, value) in &obs.counters {
        let value = value.to_string();
        w.leaf("Counter", &[("name", name.as_str()), ("value", value.as_str())]);
    }
    for span in &obs.spans {
        let enters = span.enters.to_string();
        let wall = span.wall_nanos.to_string();
        let calls = span.whatif_calls.to_string();
        let work = span.work_units.to_string();
        w.leaf(
            "Span",
            &[
                ("path", span.path.as_str()),
                ("enters", enters.as_str()),
                ("wallNanos", wall.as_str()),
                ("whatifCalls", calls.as_str()),
                ("workUnits", work.as_str()),
            ],
        );
    }
    w.close();
}

/// Serialize an exploratory-analysis evaluation (§6.3) with the
/// per-statement what-if call / retry / degradation telemetry, so a
/// `FaultPolicy` run's report shows which statements rode out faults.
pub fn evaluation_to_xml(report: &dta_core::EvaluationReport) -> String {
    let mut w = XmlWriter::new();
    let current = format!("{:.3}", report.current_total);
    let proposed = format!("{:.3}", report.proposed_total);
    let change = format!("{:.4}", report.change_percent());
    w.open_with(
        "DTAEvaluation",
        &[
            ("currentCost", current.as_str()),
            ("proposedCost", proposed.as_str()),
            ("changePercent", change.as_str()),
        ],
    );
    for s in &report.statements {
        let weight = s.weight.to_string();
        let cur = format!("{:.3}", s.current_cost);
        let prop = format!("{:.3}", s.proposed_cost);
        let calls = s.whatif_calls.to_string();
        let retries = s.retries.to_string();
        let degraded = if s.degraded { "true" } else { "false" };
        w.open_with(
            "Statement",
            &[
                ("database", s.database.as_str()),
                ("weight", weight.as_str()),
                ("currentCost", cur.as_str()),
                ("proposedCost", prop.as_str()),
                ("whatifCalls", calls.as_str()),
                ("retries", retries.as_str()),
                ("degraded", degraded),
            ],
        );
        w.text_element("Sql", &[], &s.sql);
        for name in &s.used_structures {
            w.text_element("Uses", &[], name);
        }
        w.close();
    }
    w.close();
    w.finish()
}

/// Extract the recommended configuration from an output document.
pub fn recommendation_from_output(text: &str) -> Result<Configuration, SchemaError> {
    let root = parse_document(text)?;
    if root.name != "DTAOutput" {
        return Err(invalid("expected <DTAOutput> root"));
    }
    let rec = root
        .child("Recommendation")
        .and_then(|r| r.child("Configuration"))
        .ok_or_else(|| invalid("missing Recommendation/Configuration"))?;
    configuration_from_node(rec)
}

// ---- checkpoint -----------------------------------------------------------
//
// A budget-exhausted session's frozen state (DESIGN.md §9). Everything
// cost-valued goes through the bit-pattern helpers so a checkpoint that
// crosses a process boundary resumes to the byte-identical answer.

fn write_selection(w: &mut XmlWriter, sel: &ItemSelection) {
    let generated = sel.generated.to_string();
    let evaluations = sel.evaluations.to_string();
    let benefit = bits(sel.benefit);
    w.open_with(
        "Selection",
        &[
            ("generated", generated.as_str()),
            ("evaluations", evaluations.as_str()),
            ("benefitBits", benefit.as_str()),
        ],
    );
    for s in &sel.chosen {
        write_structure(w, s);
    }
    w.close();
}

fn read_selection(node: &XmlNode) -> Result<ItemSelection, SchemaError> {
    let mut chosen = Vec::new();
    for c in &node.children {
        chosen.push(read_structure(c)?);
    }
    Ok(ItemSelection {
        generated: parse_num(node, "generated")?,
        evaluations: parse_num(node, "evaluations")?,
        chosen,
        benefit: parse_bits(node, "benefitBits")?,
    })
}

fn write_enumeration(w: &mut XmlWriter, resume: &EnumerationResume) {
    let lazy = resume.lazy_variants.to_string();
    let best_cost = bits(resume.snapshot.best_cost);
    let evaluations = resume.snapshot.evaluations.to_string();
    let (phase, next, round_best, ceiling) = match resume.snapshot.cursor {
        GreedyCursor::Phase1 { next, round_best, ceiling } => ("phase1", next, round_best, ceiling),
        GreedyCursor::Phase2 { next, round_best } => ("phase2", next, round_best, None),
    };
    let next = next.to_string();
    let mut attrs: Vec<(&str, &str)> = vec![
        ("lazyVariants", lazy.as_str()),
        ("bestCostBits", best_cost.as_str()),
        ("evaluations", evaluations.as_str()),
        ("phase", phase),
        ("next", next.as_str()),
    ];
    let pos;
    let cost;
    if let Some((p, c)) = round_best {
        pos = p.to_string();
        cost = bits(c);
        attrs.push(("roundBestPos", pos.as_str()));
        attrs.push(("roundBestCostBits", cost.as_str()));
    }
    let ceiling = ceiling.map(bits);
    if let Some(c) = &ceiling {
        attrs.push(("ceilingBits", c.as_str()));
    }
    w.open_with("Enumeration", &attrs);
    for &i in &resume.snapshot.best_set {
        let idx = i.to_string();
        w.leaf("Pick", &[("index", idx.as_str())]);
    }
    w.close();
}

fn read_enumeration(node: &XmlNode) -> Result<EnumerationResume, SchemaError> {
    let round_best = match node.attr("roundBestPos") {
        Some(_) => Some((parse_num(node, "roundBestPos")?, parse_bits(node, "roundBestCostBits")?)),
        None => None,
    };
    let next = parse_num(node, "next")?;
    let cursor = match node.require_attr("phase")? {
        "phase1" => {
            // a checkpoint written before ceilings resumes with none
            let ceiling = match node.attr("ceilingBits") {
                Some(_) => Some(parse_bits(node, "ceilingBits")?),
                None => None,
            };
            GreedyCursor::Phase1 { next, round_best, ceiling }
        }
        "phase2" => GreedyCursor::Phase2 { next, round_best },
        other => return Err(invalid(format!("unknown greedy phase '{other}'"))),
    };
    let mut best_set = Vec::new();
    for p in node.children_named("Pick") {
        best_set.push(parse_num(p, "index")?);
    }
    Ok(EnumerationResume {
        snapshot: GreedySnapshot {
            best_set,
            best_cost: parse_bits(node, "bestCostBits")?,
            evaluations: parse_num(node, "evaluations")?,
            cursor,
        },
        lazy_variants: parse_num(node, "lazyVariants")?,
    })
}

/// Serialize a session checkpoint (interrupted-session state, budget
/// exhausted or cancelled) so a later process can continue the session
/// via `tune_resume`.
pub fn checkpoint_to_xml(cp: &SessionCheckpoint) -> String {
    let mut w = XmlWriter::new();
    write_checkpoint_into(&mut w, cp);
    w.finish()
}

/// Emit the `<SessionCheckpoint>` element into an enclosing document
/// (standalone checkpoints and fleet-manifest rows share this body).
fn write_checkpoint_into(w: &mut XmlWriter, cp: &SessionCheckpoint) {
    let consumed = cp.consumed_units.to_string();
    let work = bits(cp.tuning_work_units);
    let statements = cp.total_statements.to_string();
    let events = bits(cp.total_events);
    let calls = cp.whatif_calls.to_string();
    let restarts = cp.worker_restarts.to_string();
    let retries = cp.whatif_retries.to_string();
    let backoff = cp.retry_backoff_units.to_string();
    w.open_with(
        "SessionCheckpoint",
        &[
            ("stage", cp.stage.as_str()),
            ("consumedUnits", consumed.as_str()),
            ("tuningWorkUnitsBits", work.as_str()),
            ("totalStatements", statements.as_str()),
            ("totalEventsBits", events.as_str()),
            ("whatifCalls", calls.as_str()),
            ("workerRestarts", restarts.as_str()),
            ("whatifRetries", retries.as_str()),
            ("retryBackoffUnits", backoff.as_str()),
        ],
    );
    write_options_into(w, &cp.options);
    write_workload_into(w, &cp.workload);
    w.open("PreCosts");
    for &c in &cp.pre_costs {
        let b = bits(c);
        w.leaf("Cost", &[("bits", b.as_str())]);
    }
    w.close();
    if let Some(stats) = &cp.stats {
        let requested = stats.requested.to_string();
        let created = stats.created.to_string();
        let work = bits(stats.work_units);
        let failed = stats.failed.to_string();
        let retries = stats.retries.to_string();
        let backoff = stats.backoff_units.to_string();
        w.leaf(
            "Stats",
            &[
                ("requested", requested.as_str()),
                ("created", created.as_str()),
                ("workUnitsBits", work.as_str()),
                ("failed", failed.as_str()),
                ("retries", retries.as_str()),
                ("backoffUnits", backoff.as_str()),
            ],
        );
    }
    if let Some(sels) = &cp.selections {
        w.open("Selections");
        for sel in sels {
            write_selection(w, sel);
        }
        w.close();
    }
    if let Some(e) = &cp.enumeration {
        write_enumeration(w, e);
    }
    w.open("Cache");
    for e in &cp.cache {
        let item = e.item.to_string();
        let fp = format!("{:016x}", e.fingerprint);
        let cost = bits(e.cost);
        let verify = format!("{:016x}", e.verify);
        let epoch = e.epoch.to_string();
        let mut attrs = vec![
            ("item", item.as_str()),
            ("fingerprint", fp.as_str()),
            ("costBits", cost.as_str()),
            ("verify", verify.as_str()),
        ];
        // the access path a derived cost reads for each table binding: 0
        // for the table scan, `p` for the `p`-th index on the binding's
        // table that the statement sees
        let picks = e.picks.as_slice().iter().map(u8::to_string).collect::<Vec<_>>().join(" ");
        if !picks.is_empty() {
            attrs.push(("picks", picks.as_str()));
        }
        if e.epoch != 0 {
            attrs.push(("epoch", epoch.as_str()));
        }
        w.open_with("Entry", &attrs);
        for name in &e.used_structures {
            w.leaf("Use", &[("name", name.as_str())]);
        }
        w.close();
    }
    w.close();
    w.open("Degraded");
    for &d in &cp.degraded {
        let idx = d.to_string();
        w.leaf("Item", &[("index", idx.as_str())]);
    }
    w.close();
    w.close();
}

/// Parse a session checkpoint. Returns a typed error — never panics —
/// on truncated, corrupted, or structurally inconsistent documents.
pub fn checkpoint_from_xml(text: &str) -> Result<SessionCheckpoint, SchemaError> {
    let root = parse_document(text)?;
    checkpoint_from_node(&root)
}

/// Parse a `<SessionCheckpoint>` element (standalone document root or a
/// fleet-manifest row).
fn checkpoint_from_node(root: &XmlNode) -> Result<SessionCheckpoint, SchemaError> {
    if root.name != "SessionCheckpoint" {
        return Err(invalid("expected <SessionCheckpoint> root"));
    }
    let stage = Stage::parse(root.require_attr("stage")?)
        .ok_or_else(|| invalid(format!("unknown stage '{}'", root.attr("stage").unwrap_or(""))))?;
    let options = options_from_node(
        root.child("TuningOptions").ok_or_else(|| invalid("checkpoint missing TuningOptions"))?,
    )?;
    let workload = workload_from_node(
        root.child("Workload").ok_or_else(|| invalid("checkpoint missing Workload"))?,
    )?;
    let mut pre_costs = Vec::new();
    for c in root
        .child("PreCosts")
        .ok_or_else(|| invalid("checkpoint missing PreCosts"))?
        .children_named("Cost")
    {
        pre_costs.push(parse_bits(c, "bits")?);
    }
    let stats = match root.child("Stats") {
        Some(s) => Some(StatsProgress {
            requested: parse_num(s, "requested")?,
            created: parse_num(s, "created")?,
            work_units: parse_bits(s, "workUnitsBits")?,
            failed: parse_num(s, "failed")?,
            retries: parse_num(s, "retries")?,
            backoff_units: parse_num(s, "backoffUnits")?,
        }),
        None => None,
    };
    let selections = match root.child("Selections") {
        Some(node) => {
            let mut sels = Vec::new();
            for s in node.children_named("Selection") {
                sels.push(read_selection(s)?);
            }
            Some(sels)
        }
        None => None,
    };
    let enumeration = match root.child("Enumeration") {
        Some(e) => Some(read_enumeration(e)?),
        None => None,
    };
    let mut cache = Vec::new();
    for e in root
        .child("Cache")
        .ok_or_else(|| invalid("checkpoint missing Cache"))?
        .children_named("Entry")
    {
        let fp = e.require_attr("fingerprint")?;
        let verify = e.require_attr("verify")?;
        cache.push(CacheExport {
            item: parse_num(e, "item")?,
            fingerprint: u64::from_str_radix(fp, 16)
                .map_err(|_| invalid(format!("bad fingerprint '{fp}'")))?,
            cost: parse_bits(e, "costBits")?,
            used_structures: e
                .children_named("Use")
                .map(|u| u.require_attr("name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            // a checkpoint written when entries kept all 64 bits: the low
            // half, which is what an entry keeps
            verify: u64::from_str_radix(verify, 16)
                .map(|v| v as u32)
                .map_err(|_| invalid(format!("bad verify fingerprint '{verify}'")))?,
            picks: parse_picks(e)?,
            epoch: match e.attr("epoch") {
                Some(_) => parse_num(e, "epoch")?,
                None => 0,
            },
        });
    }
    let mut degraded = Vec::new();
    for d in root
        .child("Degraded")
        .ok_or_else(|| invalid("checkpoint missing Degraded"))?
        .children_named("Item")
    {
        degraded.push(parse_num(d, "index")?);
    }
    let cp = SessionCheckpoint {
        options,
        workload,
        total_statements: parse_num(root, "totalStatements")?,
        total_events: parse_bits(root, "totalEventsBits")?,
        stage,
        consumed_units: parse_num(root, "consumedUnits")?,
        tuning_work_units: parse_bits(root, "tuningWorkUnitsBits")?,
        pre_costs,
        stats,
        selections,
        enumeration,
        cache,
        whatif_calls: parse_num(root, "whatifCalls")?,
        worker_restarts: parse_num(root, "workerRestarts")?,
        whatif_retries: parse_num(root, "whatifRetries")?,
        retry_backoff_units: parse_num(root, "retryBackoffUnits")?,
        degraded,
    };
    cp.validate().map_err(invalid)?;
    Ok(cp)
}

/// Serialize a fleet manifest — the supervisor's crash-recovery
/// snapshot (`SessionSupervisor::manifest`). Embeds each parked
/// tenant's `<SessionCheckpoint>` and each completed tenant's
/// recommendation with bit-exact costs, so
/// `SessionSupervisor::recover` replays to byte-identical results.
pub fn manifest_to_xml(manifest: &FleetManifest) -> String {
    let mut w = XmlWriter::new();
    let quantum = manifest.quantum.to_string();
    let rounds = manifest.rounds.to_string();
    let consumed = manifest.fleet_consumed.to_string();
    let budget = manifest.fleet_budget.map(|b| b.to_string());
    let mut attrs = vec![
        ("quantum", quantum.as_str()),
        ("rounds", rounds.as_str()),
        ("fleetConsumed", consumed.as_str()),
    ];
    if let Some(b) = &budget {
        attrs.push(("fleetBudget", b.as_str()));
    }
    w.open_with("FleetManifest", &attrs);
    w.open("Queue");
    for id in &manifest.queue {
        w.leaf("Next", &[("id", id.as_str())]);
    }
    w.close();
    for t in &manifest.tenants {
        let consumed = t.consumed.to_string();
        let slices = t.slices.to_string();
        let retries = t.retries.to_string();
        let backoff = t.backoff_owed.to_string();
        let mut attrs = vec![
            ("id", t.id.as_str()),
            ("status", t.status.as_str()),
            ("consumed", consumed.as_str()),
            ("slices", slices.as_str()),
            ("retries", retries.as_str()),
            ("backoffOwed", backoff.as_str()),
        ];
        if t.capped {
            attrs.push(("capped", "true"));
        }
        if let Some(reason) = &t.quarantine_reason {
            attrs.push(("reason", reason.as_str()));
        }
        w.open_with("Tenant", &attrs);
        w.open("Counters");
        for c in Counter::ALL {
            let v = t.counters.get(c).to_string();
            w.leaf("Counter", &[("name", c.name()), ("value", v.as_str())]);
        }
        w.close();
        if let Some(cp) = &t.checkpoint {
            write_checkpoint_into(&mut w, cp);
        }
        if let Some(fin) = &t.finished {
            let base = bits(fin.base_cost);
            let rec = bits(fin.recommended_cost);
            w.open_with(
                "Finished",
                &[("baseCostBits", base.as_str()), ("recommendedCostBits", rec.as_str())],
            );
            write_configuration_into(&mut w, &fin.recommendation);
            w.close();
        }
        w.close();
    }
    w.close();
    w.finish()
}

/// Parse a fleet manifest. Returns a typed error — never panics — on
/// truncated, corrupted, or structurally inconsistent documents.
pub fn manifest_from_xml(text: &str) -> Result<FleetManifest, SchemaError> {
    let root = parse_document(text)?;
    if root.name != "FleetManifest" {
        return Err(invalid("expected <FleetManifest> root"));
    }
    let fleet_budget = match root.attr("fleetBudget") {
        Some(_) => Some(parse_num(&root, "fleetBudget")?),
        None => None,
    };
    let queue: Vec<String> = root
        .child("Queue")
        .ok_or_else(|| invalid("manifest missing Queue"))?
        .children_named("Next")
        .map(|n| n.require_attr("id").map(str::to_string))
        .collect::<Result<_, _>>()?;
    let mut tenants = Vec::new();
    for node in root.children_named("Tenant") {
        let id = node.require_attr("id")?.to_string();
        let status_raw = node.require_attr("status")?;
        let status = TenantStatus::parse(status_raw)
            .ok_or_else(|| invalid(format!("unknown tenant status '{status_raw}'")))?;
        let mut counters = CounterTotals::new();
        for c in node
            .child("Counters")
            .ok_or_else(|| invalid(format!("tenant '{id}' missing Counters")))?
            .children_named("Counter")
        {
            let name = c.require_attr("name")?;
            let counter =
                Counter::parse(name).ok_or_else(|| invalid(format!("unknown counter '{name}'")))?;
            counters.set(counter, parse_num(c, "value")?);
        }
        let checkpoint = match node.child("SessionCheckpoint") {
            Some(cp) => Some(Box::new(checkpoint_from_node(cp)?)),
            None => None,
        };
        let finished = match node.child("Finished") {
            Some(fin) => Some(FinishedSession {
                recommendation: configuration_from_node(
                    fin.child("Configuration")
                        .ok_or_else(|| invalid("Finished missing Configuration"))?,
                )?,
                base_cost: parse_bits(fin, "baseCostBits")?,
                recommended_cost: parse_bits(fin, "recommendedCostBits")?,
                result: None,
            }),
            None => None,
        };
        if status == TenantStatus::Parked && checkpoint.is_none() {
            return Err(invalid(format!("parked tenant '{id}' carries no checkpoint")));
        }
        if status == TenantStatus::Completed && finished.is_none() {
            return Err(invalid(format!("completed tenant '{id}' carries no recommendation")));
        }
        tenants.push(TenantManifest {
            id,
            status,
            consumed: parse_num(node, "consumed")?,
            slices: parse_num(node, "slices")?,
            retries: parse_num(node, "retries")?,
            backoff_owed: parse_num(node, "backoffOwed")?,
            capped: node.attr("capped") == Some("true"),
            quarantine_reason: node.attr("reason").map(str::to_string),
            checkpoint,
            finished,
            counters,
        });
    }
    for id in &queue {
        if !tenants.iter().any(|t| &t.id == id) {
            return Err(invalid(format!("queued tenant '{id}' has no <Tenant> row")));
        }
    }
    Ok(FleetManifest {
        quantum: parse_num(&root, "quantum")?,
        rounds: parse_num(&root, "rounds")?,
        fleet_consumed: parse_num(&root, "fleetConsumed")?,
        fleet_budget,
        queue,
        tenants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> Configuration {
        Configuration::from_structures([
            PhysicalStructure::Index(
                Index::non_clustered("db", "t", &["a", "b"], &["pad"]).partitioned(
                    RangePartitioning::new(
                        "a",
                        vec![Value::Int(10), Value::Float(2.5), Value::Str("x<&>".into())],
                    ),
                ),
            ),
            PhysicalStructure::Index(Index::clustered("db", "u", &["k"]).constraint()),
            PhysicalStructure::TablePartitioning {
                database: "db".into(),
                table: "t".into(),
                scheme: RangePartitioning::new("a", vec![Value::Int(10)]),
            },
            PhysicalStructure::View(MaterializedView::grouped(
                "db",
                &["t", "u"],
                vec![JoinPair::new(QualifiedColumn::new("t", "k"), QualifiedColumn::new("u", "k"))],
                vec![QualifiedColumn::new("t", "a")],
                vec![
                    ViewAggregate::count_star(),
                    ViewAggregate::column(AggFunc::Sum, QualifiedColumn::new("u", "v")),
                    ViewAggregate::expr(
                        AggFunc::Sum,
                        "u.v * (1 - t.a)",
                        vec![QualifiedColumn::new("u", "v"), QualifiedColumn::new("t", "a")],
                    ),
                ],
            )),
        ])
    }

    #[test]
    fn configuration_roundtrip() {
        let config = sample_config();
        let xml = configuration_to_xml(&config);
        let back = configuration_from_xml(&xml).unwrap();
        assert_eq!(config, back, "\n{xml}");
        // read back, every structure is wrapped afresh: it compares equal
        // to, hashes like and is keyed like the one that was written
        for (written, read) in config.handles().iter().zip(back.handles()) {
            assert_eq!(written.content_hash(), read.content_hash());
            assert_eq!(written.table_key(), read.table_key());
        }
        assert_eq!(back.iter().cloned().collect::<Configuration>(), config);
        assert_eq!(back.union(&config), config);
    }

    #[test]
    fn workload_roundtrip() {
        let mut workload = Workload::from_sql_file(
            "db",
            "SELECT a FROM t WHERE x < 10; UPDATE t SET a = 1 WHERE k = 'it''s';",
        )
        .unwrap();
        workload.items[0].weight = 25.0;
        let xml = workload_to_xml(&workload);
        let back = workload_from_xml(&xml).unwrap();
        assert_eq!(workload, back, "\n{xml}");
    }

    #[test]
    fn a_comment_inside_a_statement_separates_its_words() {
        let xml = "<Workload><Statement database=\"d\">SELECT a <!-- note --> FROM t WHERE x = 1</Statement></Workload>";
        let read = workload_from_xml(xml).unwrap();
        let plain = Workload::from_sql_file("d", "SELECT a FROM t WHERE x = 1").unwrap();
        assert_eq!(read, plain);
    }

    #[test]
    fn options_roundtrip() {
        let mut options = TuningOptions::default()
            .with_storage_mb(200)
            .with_features(FeatureSet::indexes_and_views())
            .with_alignment()
            .with_work_budget(5000);
        options.compress = false;
        options.greedy_k = 11;
        options.parallel_workers = 3;
        options.colgroup_cost_threshold = 0.0375;
        options.compression.rep_scale = 0.625;
        options.user_specified = Some(sample_config());
        let xml = options_to_xml(&options);
        let back = options_from_xml(&xml).unwrap();
        assert_eq!(back.features, options.features);
        assert_eq!(back.alignment, options.alignment);
        assert_eq!(back.compress, options.compress);
        assert_eq!(back.storage_bytes, options.storage_bytes);
        assert_eq!(back.work_budget_units, options.work_budget_units);
        assert_eq!(back.greedy_k, options.greedy_k);
        assert_eq!(back.parallel_workers, options.parallel_workers);
        assert_eq!(
            back.colgroup_cost_threshold.to_bits(),
            options.colgroup_cost_threshold.to_bits()
        );
        assert_eq!(back.compression.rep_scale.to_bits(), options.compression.rep_scale.to_bits());
        assert_eq!(back.user_specified, options.user_specified);
        // full fidelity: re-serializing the parsed options is byte-identical
        assert_eq!(options_to_xml(&back), xml);
    }

    #[test]
    fn output_feeds_back_as_input() {
        // §6.3: take the output configuration of one run and feed a
        // modified version as input into a subsequent run
        let result = TuningResult {
            recommendation: sample_config(),
            base_cost: 100.0,
            recommended_cost: 25.0,
            statements_tuned: 5,
            total_statements: 50,
            total_events: 50.0,
            whatif_calls: 10,
            evaluations: 20,
            candidates_generated: 30,
            candidates_selected: 8,
            pool_size: 9,
            lazy_variants: 0,
            stats_requested: 4,
            stats_created: 2,
            stats_work_units: 3.0,
            tuning_work_units: 100.0,
            storage_bytes: 1 << 20,
            completion: Completion::BudgetExhausted { stage: Stage::Enumeration },
            worker_restarts: 0,
            whatif_retries: 0,
            retry_backoff_units: 0,
            degraded_statements: Vec::new(),
            checkpoint: None,
            observer: None,
        };
        let out_xml = result_to_xml(&result);
        assert!(out_xml.contains("completion=\"budgetExhausted:enumeration\""), "{out_xml}");
        assert!(!out_xml.contains("<Observer"), "no observer section without a summary");
        let recovered = recommendation_from_output(&out_xml).unwrap();
        assert_eq!(recovered, result.recommendation);

        // with an observer trace attached, the output carries the
        // counters and span aggregates without disturbing feedback
        let mut traced = result.clone();
        traced.observer = Some(dta_core::ObserverSummary {
            counters: vec![("whatifCalls".into(), 10)],
            spans: vec![dta_core::obs::SpanSummary {
                path: "enumeration/greedyPhase1".into(),
                enters: 1,
                wall_nanos: 12345,
                whatif_calls: 10,
                work_units: 20,
            }],
            shards: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
        });
        let traced_xml = result_to_xml(&traced);
        assert!(
            traced_xml.contains("<Counter name=\"whatifCalls\" value=\"10\"/>"),
            "{traced_xml}"
        );
        assert!(traced_xml.contains("path=\"enumeration/greedyPhase1\""), "{traced_xml}");
        let recovered = recommendation_from_output(&traced_xml).unwrap();
        assert_eq!(recovered, result.recommendation);
    }

    #[test]
    fn evaluation_report_xml_carries_fault_telemetry() {
        let report = dta_core::EvaluationReport {
            statements: vec![dta_core::StatementReport {
                database: "db".into(),
                sql: "SELECT a FROM t WHERE x < 1".into(),
                weight: 2.0,
                current_cost: 100.0,
                proposed_cost: 40.0,
                used_structures: vec!["idx_t_a".into()],
                whatif_calls: 5,
                retries: 3,
                degraded: true,
            }],
            current_total: 100.0,
            proposed_total: 40.0,
        };
        let xml = evaluation_to_xml(&report);
        assert!(xml.contains("whatifCalls=\"5\""), "{xml}");
        assert!(xml.contains("retries=\"3\""), "{xml}");
        assert!(xml.contains("degraded=\"true\""), "{xml}");
        assert!(xml.contains("SELECT a FROM t WHERE x &lt; 1"), "{xml}");
        assert!(xml.contains("<Uses>idx_t_a</Uses>"), "{xml}");
        assert!(xml.contains("changePercent=\"-60.0000\""), "{xml}");
        let parsed = parse_document(&xml).expect("well-formed");
        assert_eq!(parsed.name, "DTAEvaluation");
    }

    fn sample_checkpoint() -> SessionCheckpoint {
        let workload = Workload::from_sql_file(
            "db",
            "SELECT a FROM t WHERE x < 10; SELECT b FROM t WHERE x > 20;",
        )
        .unwrap();
        SessionCheckpoint {
            options: TuningOptions::default().with_work_budget(500),
            workload,
            total_statements: 7,
            total_events: 7.5,
            stage: Stage::Enumeration,
            consumed_units: 321,
            tuning_work_units: 1234.5678901234567,
            pre_costs: vec![10.125, 0.1 + 0.2], // deliberately non-terminating bits
            stats: Some(StatsProgress {
                requested: 9,
                created: 8,
                work_units: 45.375,
                failed: 1,
                retries: 2,
                backoff_units: 6,
            }),
            selections: Some(vec![
                ItemSelection {
                    generated: 5,
                    evaluations: 12,
                    chosen: sample_config().iter().cloned().collect(),
                    benefit: 0.30000000000000004,
                },
                ItemSelection::default(),
            ]),
            enumeration: Some(EnumerationResume {
                snapshot: GreedySnapshot {
                    best_set: vec![3, 0, 5],
                    best_cost: 99.0625,
                    evaluations: 77,
                    cursor: GreedyCursor::Phase2 { next: 4, round_best: Some((2, 98.5)) },
                },
                lazy_variants: 3,
            }),
            cache: vec![
                CacheExport {
                    item: 1,
                    fingerprint: 0xdeadbeef12345678,
                    cost: 17.375,
                    used_structures: vec!["idx_t_x".into()],
                    verify: 0xfeed,
                    picks: Picks::from_slice(&[2, 0, 1]),
                    epoch: 3,
                },
                CacheExport {
                    item: 1,
                    fingerprint: 0x0123_4567,
                    cost: 2.5,
                    used_structures: Vec::new(),
                    verify: 0,
                    picks: Picks::NONE,
                    epoch: 0,
                },
            ],
            whatif_calls: 40,
            worker_restarts: 1,
            whatif_retries: 3,
            retry_backoff_units: 14,
            degraded: vec![1],
        }
    }

    #[test]
    fn checkpoint_roundtrip_is_byte_identical() {
        let cp = sample_checkpoint();
        let xml = checkpoint_to_xml(&cp);
        let back = checkpoint_from_xml(&xml).unwrap();
        // write → parse → re-write is byte-identical: every float made it
        // through via its exact bit pattern
        assert_eq!(checkpoint_to_xml(&back), xml, "\n{xml}");
        assert_eq!(back.pre_costs[1].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back.stage, Stage::Enumeration);
        assert_eq!(back.enumeration.as_ref().unwrap().snapshot.best_set, vec![3, 0, 5]);
        assert_eq!(back.cache[0].fingerprint, 0xdeadbeef12345678);
    }

    #[test]
    fn cache_entry_picks_read_as_recorded_unrecorded_or_a_typed_error() {
        let xml = checkpoint_to_xml(&sample_checkpoint());
        assert!(xml.contains("picks=\"2 0 1\""), "{xml}");
        let picks_of = |xml: &str| checkpoint_from_xml(xml).map(|cp| cp.cache[0].picks);
        // one pick per binding of a join, in planning order
        assert_eq!(picks_of(&xml).unwrap().as_slice(), [2, 0, 1]);
        // a pick past the 254 positions a record holds, more picks than
        // it holds, or an empty list: unrecorded
        for unrecorded in ["2 300 1", "255", "0 1 2 3 4 5 6 7 8", "", "   "] {
            let edited = xml.replacen("picks=\"2 0 1\"", &format!("picks=\"{unrecorded}\""), 1);
            assert_eq!(picks_of(&edited).unwrap(), Picks::NONE, "{unrecorded:?}");
        }
        // a token that is no number: a typed error
        for token in ["2 x 1", "-1", "2,0"] {
            let bad = xml.replacen("picks=\"2 0 1\"", &format!("picks=\"{token}\""), 1);
            assert!(matches!(picks_of(&bad), Err(SchemaError::Invalid(_))), "{token:?}");
        }
        // a checkpoint written when an entry recorded one path by its
        // `access` attribute loads, with the record unrecorded
        for access in ["scan", "0", "7"] {
            let old = xml.replacen("picks=\"2 0 1\"", &format!("access=\"{access}\""), 1);
            assert_eq!(picks_of(&old).unwrap(), Picks::NONE, "{access:?}");
        }
    }

    #[test]
    fn minimal_checkpoint_roundtrips() {
        // earliest possible cut: nothing past pre-costing yet
        let mut cp = sample_checkpoint();
        cp.stage = Stage::PreCosting;
        cp.pre_costs = vec![1.5];
        cp.stats = None;
        cp.selections = None;
        cp.enumeration = None;
        cp.cache.clear();
        cp.degraded.clear();
        let xml = checkpoint_to_xml(&cp);
        let back = checkpoint_from_xml(&xml).unwrap();
        assert_eq!(checkpoint_to_xml(&back), xml);
        assert!(back.stats.is_none() && back.selections.is_none() && back.enumeration.is_none());
    }

    #[test]
    fn corrupted_checkpoints_are_typed_errors_not_panics() {
        let xml = checkpoint_to_xml(&sample_checkpoint());
        // truncation at every content-bearing prefix length must yield
        // Err, never panic (cutting only trailing whitespace is still a
        // complete document, so stop at the last non-whitespace byte)
        for cut in 0..xml.trim_end().len() {
            let prefix = xml.get(..cut).expect("the document is ASCII");
            assert!(checkpoint_from_xml(prefix).is_err(), "prefix {cut} accepted");
        }
        // well-formed XML, wrong root
        assert!(checkpoint_from_xml("<Nope/>").is_err());
        // corrupted float bits
        let bad = xml.replacen("tuningWorkUnitsBits=\"", "tuningWorkUnitsBits=\"zz", 1);
        assert!(checkpoint_from_xml(&bad).is_err());
        // unknown stage
        let bad = xml.replacen("stage=\"enumeration\"", "stage=\"warpDrive\"", 1);
        assert!(checkpoint_from_xml(&bad).is_err());
        // semantically inconsistent (degraded index out of range) is
        // rejected by the embedded validate() pass
        let bad = xml.replacen("<Item index=\"1\"/>", "<Item index=\"99\"/>", 1);
        let err = checkpoint_from_xml(&bad);
        assert!(matches!(err, Err(SchemaError::Invalid(_))), "{err:?}");
    }

    fn sample_manifest() -> FleetManifest {
        let mut parked_counters = CounterTotals::new();
        parked_counters.set(Counter::WhatIfCalls, 40);
        parked_counters.set(Counter::PanicRescues, 2);
        parked_counters.set(Counter::BudgetGranted, 321);
        parked_counters.set(Counter::BudgetRefunded, 9);
        let mut done_counters = CounterTotals::new();
        done_counters.set(Counter::WhatIfCalls, 17);
        done_counters.set(Counter::PeakPoolSize, 11);
        FleetManifest {
            quantum: 64,
            rounds: 12,
            fleet_consumed: 512,
            fleet_budget: Some(1000),
            queue: vec!["t-parked".into()],
            tenants: vec![
                TenantManifest {
                    id: "t-done".into(),
                    status: TenantStatus::Completed,
                    consumed: 191,
                    slices: 3,
                    retries: 0,
                    backoff_owed: 0,
                    capped: false,
                    quarantine_reason: None,
                    checkpoint: None,
                    finished: Some(FinishedSession {
                        recommendation: sample_config(),
                        base_cost: 123.0625,
                        recommended_cost: 0.1 + 0.2, // non-terminating bits
                        result: None,
                    }),
                    counters: done_counters,
                },
                TenantManifest {
                    id: "t-parked".into(),
                    status: TenantStatus::Parked,
                    consumed: 321,
                    slices: 5,
                    retries: 1,
                    backoff_owed: 2,
                    capped: false,
                    quarantine_reason: None,
                    checkpoint: Some(Box::new(sample_checkpoint())),
                    finished: None,
                    counters: parked_counters,
                },
                TenantManifest {
                    id: "t-sick".into(),
                    status: TenantStatus::Quarantined,
                    consumed: 12,
                    slices: 4,
                    retries: 3,
                    backoff_owed: 0,
                    capped: true,
                    quarantine_reason: Some("session failed: server error: boom".into()),
                    checkpoint: None,
                    finished: None,
                    counters: CounterTotals::new(),
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrip_is_byte_identical() {
        let manifest = sample_manifest();
        let xml = manifest_to_xml(&manifest);
        let back = manifest_from_xml(&xml).unwrap();
        assert_eq!(manifest_to_xml(&back), xml, "\n{xml}");
        assert_eq!(back.quantum, 64);
        assert_eq!(back.fleet_budget, Some(1000));
        assert_eq!(back.queue, vec!["t-parked".to_string()]);
        assert_eq!(back.tenants.len(), 3);
        let parked = back.tenants.iter().find(|t| t.id == "t-parked").unwrap();
        assert_eq!(parked.status, TenantStatus::Parked);
        assert_eq!(parked.counters.get(Counter::PanicRescues), 2);
        assert_eq!(parked.checkpoint.as_ref().unwrap().consumed_units, 321);
        let done = back.tenants.iter().find(|t| t.id == "t-done").unwrap();
        let fin = done.finished.as_ref().unwrap();
        assert_eq!(fin.recommended_cost.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(fin.recommendation, sample_config());
        assert!(fin.result.is_none(), "manifests carry no full TuningResult");
        // unbudgeted fleets omit the attribute and still round-trip
        let mut unbudgeted = sample_manifest();
        unbudgeted.fleet_budget = None;
        let xml = manifest_to_xml(&unbudgeted);
        assert!(!xml.contains("fleetBudget"));
        assert_eq!(manifest_from_xml(&xml).unwrap().fleet_budget, None);
    }

    #[test]
    fn corrupted_manifests_are_typed_errors_not_panics() {
        let xml = manifest_to_xml(&sample_manifest());
        for cut in 0..xml.trim_end().len() {
            let prefix = xml.get(..cut).expect("the document is ASCII");
            assert!(manifest_from_xml(prefix).is_err(), "prefix {cut} accepted");
        }
        assert!(manifest_from_xml("<Nope/>").is_err());
        // unknown tenant status
        let bad = xml.replacen("status=\"parked\"", "status=\"zombie\"", 1);
        assert!(manifest_from_xml(&bad).is_err());
        // unknown counter name
        let bad = xml.replacen("name=\"whatifCalls\"", "name=\"warpCoils\"", 1);
        assert!(manifest_from_xml(&bad).is_err());
        // a parked tenant must carry its checkpoint
        let bad = xml.replacen("status=\"parked\"", "status=\"queued\"", 1);
        let requeued = manifest_from_xml(&bad).expect("queued w/ checkpoint is tolerated");
        assert_eq!(requeued.tenants.iter().filter(|t| t.status == TenantStatus::Parked).count(), 0);
        let bad = xml.replacen("status=\"completed\"", "status=\"parked\"", 1);
        assert!(manifest_from_xml(&bad).is_err(), "parked without checkpoint accepted");
        // a queue entry must reference a tenant row
        let bad = xml.replacen("<Next id=\"t-parked\"/>", "<Next id=\"t-ghost\"/>", 1);
        assert!(manifest_from_xml(&bad).is_err());
    }

    #[test]
    fn report_surfaces_robustness_attributes() {
        let result = TuningResult {
            recommendation: sample_config(),
            base_cost: 100.0,
            recommended_cost: 80.0,
            statements_tuned: 2,
            total_statements: 2,
            total_events: 2.0,
            whatif_calls: 9,
            evaluations: 4,
            candidates_generated: 6,
            candidates_selected: 3,
            pool_size: 3,
            lazy_variants: 0,
            stats_requested: 1,
            stats_created: 1,
            stats_work_units: 0.5,
            tuning_work_units: 7.0,
            storage_bytes: 1024,
            completion: Completion::Complete,
            worker_restarts: 3,
            whatif_retries: 5,
            retry_backoff_units: 12,
            degraded_statements: vec!["SELECT a FROM t WHERE x < 10".into()],
            checkpoint: None,
            observer: None,
        };
        let xml = result_to_xml(&result);
        assert!(xml.contains("workerRestarts=\"3\""), "{xml}");
        assert!(xml.contains("whatifRetries=\"5\""), "{xml}");
        assert!(xml.contains("retryBackoffUnits=\"12\""), "{xml}");
        assert!(xml.contains("degradedStatements=\"1\""), "{xml}");
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(configuration_from_xml("<Configuration><Index/></Configuration>").is_err());
        assert!(configuration_from_xml("<Nope/>").is_err());
        assert!(workload_from_xml(
            "<Workload><Statement database=\"d\">NOT SQL</Statement></Workload>"
        )
        .is_err());
        assert!(configuration_from_xml(
            "<Configuration><Index database=\"d\" table=\"t\" kind=\"hash\" keys=\"a\"/></Configuration>"
        )
        .is_err());
        // malformed index (empty keys)
        assert!(configuration_from_xml(
            "<Configuration><Index database=\"d\" table=\"t\" kind=\"nonclustered\" keys=\"\"/></Configuration>"
        )
        .is_err());
    }
}
