//! §6 scriptability: the whole tuning loop driven through the public XML
//! schema — workload in, options in, recommendation out, recommendation
//! back in as a user-specified configuration for a refining run.

use dta::advisor::{tune, TuningOptions};
use dta::prelude::*;
use dta::xml;

fn setup() -> (Server, Workload) {
    let mut server = Server::new("s");
    let mut db = Database::new("d");
    db.add_table(
        Table::new(
            "t",
            vec![
                Column::new("k", ColumnType::BigInt),
                Column::new("a", ColumnType::Int),
                Column::new("g", ColumnType::Int),
                Column::new("pad", ColumnType::Str(40)),
            ],
        )
        .with_primary_key(&["k"]),
    )
    .unwrap();
    server.create_database(db).unwrap();
    let data = server.table_data_mut("d", "t").unwrap();
    for i in 0..30_000i64 {
        data.push_row(vec![
            Value::Int(i),
            Value::Int(i % 300),
            Value::Int(i % 10),
            Value::Str(format!("{i:040}")),
        ]);
    }
    data.set_scale(20.0);
    let workload = Workload::from_sql_file(
        "d",
        "SELECT pad FROM t WHERE a = 17;
         SELECT pad FROM t WHERE a = 100;
         SELECT g, COUNT(*) FROM t WHERE a BETWEEN 10 AND 60 GROUP BY g;",
    )
    .unwrap();
    (server, workload)
}

#[test]
fn full_xml_loop() {
    let (server, workload) = setup();

    // ship the workload as XML (as another tool would)
    let workload_xml = xml::workload_to_xml(&workload);
    let workload2 = xml::workload_from_xml(&workload_xml).expect("workload parses back");
    assert_eq!(workload, workload2);

    // ship options as XML
    let options = TuningOptions::default().with_storage_mb(500);
    let options_xml = xml::options_to_xml(&options);
    let options2 = xml::options_from_xml(&options_xml).expect("options parse back");
    assert_eq!(options2.storage_bytes, options.storage_bytes);

    // tune with the deserialized inputs
    let target = TuningTarget::Single(&server);
    let result = tune(&target, &workload2, &options2).expect("tuning succeeds");
    assert!(result.expected_improvement() > 0.3);

    // serialize the full output; recover the recommendation
    let out_xml = xml::result_to_xml(&result);
    let recommendation = xml::schema::recommendation_from_output(&out_xml).expect("output parses");
    assert_eq!(recommendation, result.recommendation);

    // feed it back in as a user-specified configuration (§6.3 iterative
    // tuning): the refining run must honor every structure
    let refine_options =
        TuningOptions { user_specified: Some(recommendation.clone()), ..TuningOptions::default() };
    let refined = tune(&target, &workload2, &refine_options).expect("refining run succeeds");
    for s in recommendation.iter() {
        assert!(refined.recommendation.contains(s), "refinement dropped {}", s.name());
    }
    // and it can only get better (or stay equal)
    assert!(refined.recommended_cost <= result.recommended_cost * 1.001);
}

/// §9 robustness: a budget-exhausted session shipped through the XML
/// checkpoint schema — as a script would persist it between invocations —
/// resumes to the byte-identical answer of an uninterrupted run.
#[test]
fn checkpoint_xml_roundtrip_resumes_byte_identically() {
    let (server, workload) = setup();
    let target = TuningTarget::Single(&server);
    let options =
        TuningOptions { work_budget_units: Some(2), compress: false, ..TuningOptions::default() };

    let interrupted = tune(&target, &workload, &options).expect("budgeted run succeeds");
    let checkpoint = interrupted.checkpoint.as_deref().expect("a 2-unit budget must exhaust");

    // persist → reload through the public XML schema
    let cp_xml = xml::checkpoint_to_xml(checkpoint);
    let restored = xml::checkpoint_from_xml(&cp_xml).expect("checkpoint parses back");
    assert_eq!(xml::checkpoint_to_xml(&restored), cp_xml, "re-serialization drifted");

    // resume from the reloaded checkpoint; compare to an uninterrupted run
    let resumed = tune_resume(&target, &restored, None).expect("resumed run succeeds");
    let uninterrupted =
        tune(&target, &workload, &TuningOptions { work_budget_units: None, ..options })
            .expect("uninterrupted run succeeds");

    assert_eq!(resumed.completion, Completion::Complete);
    assert_eq!(
        resumed.recommendation.to_string(),
        uninterrupted.recommendation.to_string(),
        "resume changed the recommendation"
    );
    assert_eq!(resumed.recommended_cost.to_bits(), uninterrupted.recommended_cost.to_bits());
    assert_eq!(resumed.base_cost.to_bits(), uninterrupted.base_cost.to_bits());
}

/// The workload of `fixtures/table_level_checkpoint.xml`: [`setup`]'s
/// statements and one that reads `t` through other columns.
const COMPAT_SQL: &str = "SELECT pad FROM t WHERE a = 17;
     SELECT pad FROM t WHERE a = 100;
     SELECT g, COUNT(*) FROM t WHERE a BETWEEN 10 AND 60 GROUP BY g;
     SELECT k FROM t WHERE g = 3;";

/// `fixtures/table_level_checkpoint.xml` is [`COMPAT_SQL`] tuned on
/// [`setup`]'s server under an 80-unit budget, cut in enumeration, by a
/// build whose cost cache projected a statement onto every structure on
/// its tables. A cache entry is keyed on the fingerprint of the
/// projection it priced, and a fingerprint depends on the projected
/// structures alone, so under column-level relevance every entry still
/// prices exactly what it priced then: one whose projection is no longer
/// formed is never looked up, the others still hit. Resumed, the
/// checkpoint must reach that build's answer, bit for bit.
#[test]
fn a_checkpoint_priced_at_table_level_resumes_to_the_same_answer() {
    const RECOMMENDATION: &str = "Configuration (5 structures):
  - idx_t_k
  - idx_t_g_incl_k
  - idx_t_a_g_incl_pad_k
  - mv_t_by_a_g_agg1
  - idx_t_a_incl_pad
";
    const RECOMMENDED_COST_BITS: u64 = 0x4077_73aa_d655_21a4;
    const BASE_COST_BITS: u64 = 0x40d1_7e8b_ccf0_b5cc;
    let fixture = include_str!("fixtures/table_level_checkpoint.xml");
    let checkpoint = xml::checkpoint_from_xml(fixture).expect("the fixture parses");
    let workload = Workload::from_sql_file("d", COMPAT_SQL).unwrap();
    assert_eq!(checkpoint.workload, workload);
    assert!(!checkpoint.cache.is_empty());

    let resume = |checkpoint: &SessionCheckpoint| {
        // the server as the interrupted session left it: its statistics
        let (server, _) = setup();
        let target = TuningTarget::Single(&server);
        let options = TuningOptions { work_budget_units: Some(80), ..checkpoint.options.clone() };
        tune(&target, &workload, &options).expect("budgeted run succeeds");
        tune_resume(&target, checkpoint, None).expect("resumed run succeeds")
    };
    let resumed = resume(&checkpoint);
    assert_eq!(resumed.completion, Completion::Complete);
    assert_eq!(resumed.recommendation.to_string(), RECOMMENDATION);
    assert_eq!(resumed.recommended_cost.to_bits(), RECOMMENDED_COST_BITS);
    assert_eq!(resumed.base_cost.to_bits(), BASE_COST_BITS);

    // here no entry is in reach — every table-level projection holds the
    // primary-key index on `k`, which no statement seeks, covers with or
    // maintains — so the resume prices what a cold cache would
    let cold = resume(&SessionCheckpoint { cache: Vec::new(), ..checkpoint.clone() });
    assert_eq!(cold.recommendation.to_string(), RECOMMENDATION);
    assert_eq!(cold.recommended_cost.to_bits(), RECOMMENDED_COST_BITS);
    assert_eq!(resumed.whatif_calls, cold.whatif_calls);
}

/// A corrupted checkpoint yields a typed schema error — never a panic,
/// never a half-resumed session.
#[test]
fn corrupted_checkpoint_xml_is_a_typed_error() {
    let (server, workload) = setup();
    let target = TuningTarget::Single(&server);
    let options =
        TuningOptions { work_budget_units: Some(2), compress: false, ..TuningOptions::default() };
    let interrupted = tune(&target, &workload, &options).unwrap();
    let cp_xml = xml::checkpoint_to_xml(interrupted.checkpoint.as_deref().unwrap());

    // structural damage: drop the consumed-units ledger
    let damaged = cp_xml.replacen("consumedUnits", "consumedUnitz", 1);
    assert_ne!(damaged, cp_xml, "fixture no longer matches the schema");
    let err = xml::checkpoint_from_xml(&damaged).expect_err("damage must be detected");
    let msg = err.to_string();
    assert!(!msg.is_empty());

    // truncation: cut the document in half
    let err = xml::checkpoint_from_xml(&cp_xml[..cp_xml.len() / 2])
        .expect_err("truncation must be detected");
    assert!(!err.to_string().is_empty());
}

#[test]
fn configuration_xml_handles_every_structure_kind() {
    let (server, workload) = setup();
    let target = TuningTarget::Single(&server);
    // force views + partitioning into the recommendation space
    let options = TuningOptions::default();
    let result = tune(&target, &workload, &options).unwrap();
    let xml_text = xml::configuration_to_xml(&result.recommendation);
    let parsed = xml::configuration_from_xml(&xml_text).unwrap();
    assert_eq!(parsed, result.recommendation, "\n{xml_text}");
    // the XML is also valid input for evaluation on the server
    let errors = parsed.validate(server.catalog());
    assert!(errors.is_empty(), "{errors:?}");
}
