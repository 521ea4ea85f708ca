//! Property tests for the Global-layer wire protocol, including the
//! differential oracles of the direct JSON codec: for every wire-schema
//! type its bytes must equal the `Value`-tree printer's, and any frame —
//! reordered, padded with unknown or duplicate keys, missing keys,
//! re-spaced, or corrupted — must decode to the same value through the
//! typed reader as through the tree, or fail through both.

use gridrm_core::acil::{OutcomeStatus, SourceOutcome};
use gridrm_core::events::{GridRMEvent, Severity};
use gridrm_core::stream::BackpressurePolicy;
use gridrm_dbc::{ColumnMeta, ResultSetMetaData, RowSet};
use gridrm_global::{GlobalRequest, GlobalResponse, WireDelta, WireFrame, WireIdentity, WireRows};
use gridrm_sqlparse::{SqlType, SqlValue};
use gridrm_telemetry::{CostVector, SpanStage, TraceContext, TraceRecord};
use proptest::prelude::*;
use proptest::strategy::ValueTree;
use serde::{Deserialize, Serialize, Value};
use std::fmt::{Debug, Write as _};

fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    WireFrame::encode(msg).into_bytes()
}

fn decode<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> gridrm_dbc::DbcResult<T> {
    WireFrame::decode(bytes).map(|(msg, _)| msg)
}

fn arb_value() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        Just(SqlValue::Null),
        any::<bool>().prop_map(SqlValue::Bool),
        any::<i64>().prop_map(SqlValue::Int),
        (-1e12f64..1e12).prop_map(SqlValue::Float),
        "\\PC{0,20}".prop_map(SqlValue::Str),
        (0i64..i64::MAX / 2).prop_map(SqlValue::Timestamp),
    ]
}

proptest! {
    /// Arbitrary result sets survive the gateway-to-gateway wire format.
    #[test]
    fn wire_rows_roundtrip(
        names in prop::collection::vec("[A-Za-z][A-Za-z0-9]{0,10}", 1..5),
        nrows in 0usize..8,
    ) {
        let meta = ResultSetMetaData::new(
            names.iter().map(|n| ColumnMeta::new(n.clone(), SqlType::Null)).collect(),
        );
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let rows: Vec<Vec<SqlValue>> = (0..nrows)
            .map(|_| {
                (0..names.len())
                    .map(|_| arb_value().new_tree(&mut runner).unwrap().current())
                    .collect()
            })
            .collect();
        let rs = RowSet::new(meta, rows).unwrap();
        let wire = WireRows::from_rowset(&rs);
        let bytes = encode(&wire);
        let back: WireRows = decode(&bytes).unwrap();
        let restored = back.to_rowset().unwrap();
        prop_assert_eq!(restored.rows(), rs.rows());
        prop_assert_eq!(restored.meta().column_count(), rs.meta().column_count());
    }

    /// Requests and responses round-trip, including events with odd text.
    #[test]
    fn request_event_roundtrip(
        gateway in "[a-z-]{1,12}",
        category in "\\PC{0,24}",
        message in "\\PC{0,48}",
        value in prop::option::of(any::<f64>().prop_filter("finite", |f| f.is_finite())),
    ) {
        let req = GlobalRequest::Event {
            from_gateway: gateway.clone(),
            event: GridRMEvent {
                id: 7,
                at_ms: 123,
                source: "x:snmp".into(),
                hostname: Some("h".into()),
                severity: Severity::Warning,
                category: category.clone(),
                message: message.clone(),
                value,
            },
        };
        let back: GlobalRequest = decode(&encode(&req)).unwrap();
        match back {
            GlobalRequest::Event { from_gateway, event } => {
                prop_assert_eq!(from_gateway, gateway);
                prop_assert_eq!(event.category, category);
                prop_assert_eq!(event.message, message);
                prop_assert_eq!(event.value, value);
            }
            other => prop_assert!(false, "wrong variant {:?}", other),
        }
    }

    /// Identities round-trip with any role set.
    #[test]
    fn identity_roundtrip(name in "[a-z]{1,10}", roles in prop::collection::vec("[a-z]{1,8}", 0..5)) {
        let wire = WireIdentity { name: name.clone(), roles };
        let id = wire.to_identity();
        let back = WireIdentity::from(&id);
        prop_assert_eq!(back.name.clone(), name);
        prop_assert_eq!(back.to_identity(), id);
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode::<GlobalRequest>(&bytes);
        let _ = decode::<GlobalResponse>(&bytes);
        let _ = decode::<WireRows>(&bytes);
    }
}

// ---------------------------------------------------------------------
// Generators for every type in `xlint-wire-schema.json`.
// ---------------------------------------------------------------------

/// A strategy drawing from a plain generator function.
struct Gen<T>(fn(&mut TestRunner) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        (self.0)(runner)
    }
}

fn pick<T: Copy>(g: &mut TestRunner, items: &[T]) -> T {
    items[g.usize_below(items.len())]
}

fn chance(g: &mut TestRunner, one_in: usize) -> bool {
    g.usize_below(one_in) == 0
}

/// Text that exercises every escape rule: quotes, backslashes, `/`,
/// named and `\u00xx` control escapes, DEL, and 2-, 3- and 4-byte UTF-8.
fn text(g: &mut TestRunner) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '-', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}',
        '\u{c}', '\u{1f}', '\u{7f}', 'é', '中', '😀', '\u{2028}',
    ];
    let len = g.usize_below(12);
    (0..len).map(|_| pick(g, CHARS)).collect()
}

fn int(g: &mut TestRunner) -> u64 {
    match g.usize_below(4) {
        0 => g.usize_below(10) as u64,
        1 => u64::MAX - g.usize_below(3) as u64,
        _ => g.next_u64() >> g.usize_below(64),
    }
}

fn signed(g: &mut TestRunner) -> i64 {
    match g.usize_below(4) {
        0 => i64::MIN + g.usize_below(3) as i64,
        1 => -(g.usize_below(1000) as i64),
        _ => int(g) as i64,
    }
}

/// Floats on both sides of every printing rule: integral below and above
/// 1e15, negative zero, tiny, huge, and non-finite.
fn float(g: &mut TestRunner) -> f64 {
    const SPECIAL: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -3.0,
        0.1,
        0.72,
        999_999_999_999_999.0,
        1e15,
        1e16,
        -1e300,
        1e-300,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    match g.usize_below(3) {
        0 => pick(g, SPECIAL),
        1 => f64::from_bits(g.next_u64()),
        _ => (g.next_u64() % 2_000_001) as f64 / 1_000.0 - 1_000.0,
    }
}

fn opt<T>(g: &mut TestRunner, f: fn(&mut TestRunner) -> T) -> Option<T> {
    if chance(g, 3) {
        None
    } else {
        Some(f(g))
    }
}

fn list<T>(g: &mut TestRunner, max: usize, f: fn(&mut TestRunner) -> T) -> Vec<T> {
    let len = g.usize_below(max + 1);
    (0..len).map(|_| f(g)).collect()
}

fn backpressure(g: &mut TestRunner) -> BackpressurePolicy {
    use BackpressurePolicy::*;
    pick(g, &[DropOldest, DropNewest, Coalesce])
}

fn cost(g: &mut TestRunner) -> CostVector {
    CostVector {
        msgs_out: int(g),
        msgs_in: int(g),
        bytes_out: int(g),
        bytes_in: int(g),
        rows_scanned: int(g),
        rows_returned: int(g),
        fetch_units: int(g),
        stage_ms: int(g),
    }
}

fn severity(g: &mut TestRunner) -> Severity {
    pick(g, &[Severity::Info, Severity::Warning, Severity::Critical])
}

fn event(g: &mut TestRunner) -> GridRMEvent {
    GridRMEvent {
        id: int(g),
        at_ms: signed(g),
        source: text(g),
        hostname: opt(g, text),
        severity: severity(g),
        category: text(g),
        message: text(g),
        value: opt(g, float),
    }
}

fn status(g: &mut TestRunner) -> OutcomeStatus {
    use OutcomeStatus::*;
    pick(
        g,
        &[Ok, Cached, Coalesced, Timeout, Error, Denied, Deferred],
    )
}

fn outcome(g: &mut TestRunner) -> SourceOutcome {
    SourceOutcome {
        source: text(g),
        status: status(g),
        elapsed_ms: int(g),
        detail: opt(g, text),
    }
}

fn stage(g: &mut TestRunner) -> SpanStage {
    SpanStage {
        stage: text(g),
        at_ms: int(g),
        detail: opt(g, text),
    }
}

fn sql_type(g: &mut TestRunner) -> SqlType {
    use SqlType::*;
    pick(g, &[Int, Float, Str, Bool, Timestamp, Null])
}

fn sql_value(g: &mut TestRunner) -> SqlValue {
    match g.usize_below(6) {
        0 => SqlValue::Null,
        1 => SqlValue::Bool(chance(g, 2)),
        2 => SqlValue::Int(signed(g)),
        3 => SqlValue::Float(float(g)),
        4 => SqlValue::Str(text(g)),
        _ => SqlValue::Timestamp(signed(g)),
    }
}

fn trace_context(g: &mut TestRunner) -> TraceContext {
    TraceContext {
        trace_id: text(g),
        parent_span_id: text(g),
    }
}

fn trace_record(g: &mut TestRunner) -> TraceRecord {
    TraceRecord {
        id: int(g),
        trace_id: text(g),
        span_id: text(g),
        parent_span_id: opt(g, text),
        site: text(g),
        request: text(g),
        source: opt(g, text),
        started_ms: int(g),
        finished_ms: int(g),
        outcome: text(g),
        stages: list(g, 3, stage),
        cost: cost(g),
    }
}

fn identity(g: &mut TestRunner) -> WireIdentity {
    WireIdentity {
        name: text(g),
        roles: list(g, 3, text),
    }
}

fn rows(g: &mut TestRunner) -> WireRows {
    let width = g.usize_below(4);
    let columns = (0..width)
        .map(|_| (text(g), sql_type(g), opt(g, text)))
        .collect();
    let rows = (0..g.usize_below(4))
        .map(|_| (0..width).map(|_| sql_value(g)).collect())
        .collect();
    WireRows { columns, rows }
}

fn delta(g: &mut TestRunner) -> WireDelta {
    WireDelta {
        subscription: int(g),
        seq: int(g),
        emitted_ms: int(g),
        origin: text(g),
        rows: rows(g),
        removed: int(g) as usize,
        coalesced: int(g) as u32,
    }
}

fn request(g: &mut TestRunner) -> GlobalRequest {
    match g.usize_below(6) {
        0 => GlobalRequest::Query {
            from_gateway: text(g),
            identity: identity(g),
            sources: list(g, 4, text),
            sql: text(g),
            max_cache_age_ms: opt(g, int),
            trace: opt(g, trace_context),
            deadline_ms: opt(g, int),
        },
        1 => GlobalRequest::Event {
            from_gateway: text(g),
            event: event(g),
        },
        2 => GlobalRequest::Ping,
        3 => GlobalRequest::Subscribe {
            from_gateway: text(g),
            identity: identity(g),
            sources: list(g, 4, text),
            sql: text(g),
            every_ms: opt(g, int),
            buffer: opt(g, |g| int(g) as usize),
            backpressure: opt(g, backpressure),
        },
        4 => GlobalRequest::PollDeltas {
            subscription: int(g),
            max: int(g) as usize,
        },
        _ => GlobalRequest::Unsubscribe {
            subscription: int(g),
        },
    }
}

fn response(g: &mut TestRunner) -> GlobalResponse {
    match g.usize_below(8) {
        0 => GlobalResponse::Rows {
            rows: rows(g),
            warnings: list(g, 2, text),
            served_from_cache: int(g) as usize,
            spans: list(g, 2, trace_record),
            elapsed_ms: int(g),
            outcomes: list(g, 3, outcome),
        },
        1 => GlobalResponse::EventAccepted,
        2 => GlobalResponse::Pong { gateway: text(g) },
        3 => GlobalResponse::Subscribed {
            subscription: int(g),
        },
        4 => GlobalResponse::Deltas {
            deltas: list(g, 2, delta),
        },
        5 => GlobalResponse::Unsubscribed {
            existed: chance(g, 2),
        },
        6 => GlobalResponse::Error { message: text(g) },
        _ => GlobalResponse::Overloaded {
            queue_depth: int(g),
            retry_after_ms: int(g),
        },
    }
}

/// One value of each of the 16 wire-schema types, by schema name.
struct WireSample {
    backpressure: BackpressurePolicy,
    cost: CostVector,
    request: GlobalRequest,
    response: GlobalResponse,
    event: GridRMEvent,
    status: OutcomeStatus,
    severity: Severity,
    outcome: SourceOutcome,
    stage: SpanStage,
    sql_type: SqlType,
    sql_value: SqlValue,
    trace_context: TraceContext,
    trace_record: TraceRecord,
    delta: WireDelta,
    identity: WireIdentity,
    rows: WireRows,
}

fn wire_sample(g: &mut TestRunner) -> WireSample {
    WireSample {
        backpressure: backpressure(g),
        cost: cost(g),
        request: request(g),
        response: response(g),
        event: event(g),
        status: status(g),
        severity: severity(g),
        outcome: outcome(g),
        stage: stage(g),
        sql_type: sql_type(g),
        sql_value: sql_value(g),
        trace_context: trace_context(g),
        trace_record: trace_record(g),
        delta: delta(g),
        identity: identity(g),
        rows: rows(g),
    }
}

/// Apply `check` to every field of a sample, naming the schema type.
macro_rules! each_wire_type {
    ($sample:expr, $check:ident $(, $arg:expr)*) => {{
        let s = $sample;
        $check("BackpressurePolicy", &s.backpressure $(, $arg)*);
        $check("CostVector", &s.cost $(, $arg)*);
        $check("GlobalRequest", &s.request $(, $arg)*);
        $check("GlobalResponse", &s.response $(, $arg)*);
        $check("GridRMEvent", &s.event $(, $arg)*);
        $check("OutcomeStatus", &s.status $(, $arg)*);
        $check("Severity", &s.severity $(, $arg)*);
        $check("SourceOutcome", &s.outcome $(, $arg)*);
        $check("SpanStage", &s.stage $(, $arg)*);
        $check("SqlType", &s.sql_type $(, $arg)*);
        $check("SqlValue", &s.sql_value $(, $arg)*);
        $check("TraceContext", &s.trace_context $(, $arg)*);
        $check("TraceRecord", &s.trace_record $(, $arg)*);
        $check("WireDelta", &s.delta $(, $arg)*);
        $check("WireIdentity", &s.identity $(, $arg)*);
        $check("WireRows", &s.rows $(, $arg)*);
    }};
}

/// The committed wire schema: its type names, and every field and
/// variant name in it (the pool perturbed frames draw extra keys from).
fn schema() -> (Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../xlint-wire-schema.json");
    let text = std::fs::read_to_string(path).expect("wire schema");
    let schema: Value = serde_json::from_str(&text).expect("wire schema parses");
    let mut types = Vec::new();
    let mut names = Vec::new();
    for ty in schema["types"].as_array().expect("types") {
        types.push(ty["name"].as_str().expect("name").to_owned());
        for member in ["fields", "variants"] {
            for m in ty[member].as_array().expect("members") {
                names.push(m["name"].as_str().expect("member name").to_owned());
            }
        }
    }
    (types, names)
}

#[test]
fn the_sample_covers_every_wire_schema_type() {
    let mut covered = Vec::new();
    let mut record = |name: &'static str, _: &dyn Debug| covered.push(name.to_owned());
    let mut g = TestRunner::deterministic();
    each_wire_type!(wire_sample(&mut g), record);
    let (mut types, _) = schema();
    types.sort();
    covered.sort();
    assert_eq!(covered, types);
}

fn writer_matches_tree<T: Serialize>(name: &str, msg: &T) {
    let direct = serde_json::to_vec(msg).unwrap();
    let tree = serde_json::to_value(msg).unwrap().to_string();
    assert_eq!(
        String::from_utf8(direct).unwrap(),
        tree,
        "{name}: direct writer and tree printer disagree"
    );
}

// ---------------------------------------------------------------------
// Perturbed frames for the decode oracle.
// ---------------------------------------------------------------------

fn ws(g: &mut TestRunner, out: &mut String) {
    if chance(g, 4) {
        for _ in 0..=g.usize_below(2) {
            out.push(pick(g, &[' ', '\n', '\t', '\r']));
        }
    }
}

/// A JSON string literal for `s`, sometimes spelling characters with
/// `\uXXXX` (surrogate pairs included) or `\/` instead of literally.
fn string_literal(g: &mut TestRunner, s: &str, out: &mut String) {
    let mut plain = Vec::new();
    serde::json::write_str(&mut plain, s);
    if !chance(g, 4) {
        out.push_str(std::str::from_utf8(&plain).unwrap());
        return;
    }
    out.push('"');
    for c in s.chars() {
        match c {
            '/' => out.push_str("\\/"),
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 || chance(g, 2) => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04X}");
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Small JSON values that fit no field in particular.
const JUNK: &[&str] = &[
    "null",
    "true",
    "0",
    "-1",
    "2.5",
    "\"x\"",
    "[]",
    "{}",
    "[1,{\"Str\":\"a\"}]",
    "{\"Int\":3}",
    "\"Ping\"",
    "{\"Query\":{}}",
    "[[[[{\"a\":[{}]}]]]]",
];

/// Print `v` as JSON with the variations the reader must accept the
/// same way as the tree parser.
fn perturb(g: &mut TestRunner, v: &Value, pool: &[String], out: &mut String) {
    ws(g, out);
    match v {
        Value::Number(n) => match (n.as_i64(), n.as_u64()) {
            // Integers written as floats: `3` becomes `3.0`.
            (Some(i), _) if chance(g, 3) => {
                let _ = write!(out, "{i}.0");
            }
            (None, Some(u)) if chance(g, 3) => {
                let _ = write!(out, "{u}.0");
            }
            _ => out.push_str(&v.to_string()),
        },
        Value::String(s) => string_literal(g, s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                perturb(g, item, pool, out);
            }
            ws(g, out);
            out.push(']');
        }
        Value::Object(map) => {
            // (key, printed value) members, in the order they go out.
            let mut members: Vec<(String, String)> = Vec::new();
            for (k, val) in map.iter() {
                // Absent key.
                if chance(g, 12) {
                    continue;
                }
                let mut text = String::new();
                perturb(g, val, pool, &mut text);
                members.push((k.clone(), text));
            }
            // Unknown keys, other fields' or variants' names (a second
            // variant key makes a multi-key enum object).
            for _ in 0..g.usize_below(3) {
                if chance(g, 2) {
                    let key = if chance(g, 3) {
                        format!("zz_unknown_{}", g.usize_below(10))
                    } else {
                        pool[g.usize_below(pool.len())].clone()
                    };
                    members.push((key, pick(g, JUNK).to_owned()));
                }
            }
            // Any key order.
            for i in (1..members.len()).rev() {
                members.swap(i, g.usize_below(i + 1));
            }
            // Duplicates: an earlier junk value the real one overrides.
            if !members.is_empty() && chance(g, 4) {
                let at = g.usize_below(members.len());
                let key = members[at].0.clone();
                members.insert(g.usize_below(at + 1), (key, pick(g, JUNK).to_owned()));
            }
            out.push('{');
            for (i, (k, text)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(g, out);
                string_literal(g, k, out);
                ws(g, out);
                out.push(':');
                out.push_str(text);
            }
            ws(g, out);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
    ws(g, out);
}

/// Byte-level damage: truncation, a flipped byte, or an inserted one.
fn corrupt(g: &mut TestRunner, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    let at = g.usize_below(bytes.len());
    match g.usize_below(3) {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << g.usize_below(8),
        _ => bytes.insert(at, pick(g, b"[]{},:\"\\ 0-e.\xff\xc3")),
    }
}

/// Tally of decode outcomes, so the oracle is seen to exercise both.
#[derive(Default)]
struct Agreement {
    both_ok: usize,
    both_err: usize,
}

fn decodes_agree<T>(bytes: &[u8], tally: &mut Agreement)
where
    T: for<'de> Deserialize<'de> + Debug,
{
    let tree = serde_json::from_slice::<Value>(bytes).and_then(serde_json::from_value::<T>);
    let typed = serde_json::from_slice::<T>(bytes);
    match (&tree, &typed) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "tree and typed decodes differ for {}",
                String::from_utf8_lossy(bytes)
            );
            tally.both_ok += 1;
        }
        (Err(_), Err(_)) => tally.both_err += 1,
        _ => panic!(
            "tree {tree:?} vs typed {typed:?} for {}",
            String::from_utf8_lossy(bytes)
        ),
    }
}

fn perturbed_decodes_agree<T>(
    _name: &str,
    msg: &T,
    g: &mut TestRunner,
    pool: &[String],
    tally: &mut Agreement,
) where
    T: Serialize + for<'de> Deserialize<'de> + Debug,
{
    decodes_agree::<T>(&serde_json::to_vec(msg).unwrap(), tally);
    let mut text = String::new();
    perturb(g, &serde_json::to_value(msg).unwrap(), pool, &mut text);
    let mut bytes = text.into_bytes();
    decodes_agree::<T>(&bytes, tally);
    corrupt(g, &mut bytes);
    decodes_agree::<T>(&bytes, tally);
}

proptest! {
    /// The direct writer produces exactly the tree printer's bytes for
    /// every wire-schema type.
    #[test]
    fn direct_writer_matches_tree_printer(sample in Gen(wire_sample)) {
        each_wire_type!(sample, writer_matches_tree);
    }
}

#[test]
fn perturbed_frames_decode_alike_through_tree_and_typed_reader() {
    let (_, pool) = schema();
    let mut g = TestRunner::for_test("perturbed_frames");
    let mut tally = Agreement::default();
    for _ in 0..400 {
        let sample = wire_sample(&mut g);
        each_wire_type!(sample, perturbed_decodes_agree, &mut g, &pool, &mut tally);
    }
    // Both outcomes occur: the oracle compares values, not just errors.
    assert!(tally.both_ok > 3_000, "{} agreed Ok", tally.both_ok);
    assert!(tally.both_err > 1_000, "{} agreed Err", tally.both_err);
}
