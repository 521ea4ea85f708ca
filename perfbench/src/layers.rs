//! The traced run: replay a sample of a workload's requests one at a
//! time through each layer's public entry points, in path order, with a
//! span around every call, and read the counters the crates expose.
//!
//! The wire path is replayed three times over the same mix:
//! - pass A, untraced in process (`FrameService::handle_frame`), which is
//!   the base for coverage and tracing overhead;
//! - pass B, traced in process, split as the wire service splits it:
//!   decode → `Gateway::query` (or `poll_deltas`) → encode;
//! - pass C, the same frames as TCP round trips to the workload's server.
//!
//! Then the workload's client requests go through `GlobalLayer::query`
//! (the fan-out), and the layers below are timed by direct calls: driver
//! resolution, pool execution, cache lookup and store, pump, history,
//! parse, each driver on a pre-opened connection, GLUE translation and
//! the store's SELECT engine.

use crate::alloc;
use crate::report::Metric;
use crate::trace::{by_name, Span, Tracer};
use gridrm_core::{ClientRequest, Gateway, QueryMode};
use gridrm_dbc::{Driver, JdbcUrl, Properties, RowSet};
use gridrm_drivers::{
    mappings, DriverEnv, DriverStats, GangliaDriver, NetLoggerDriver, NwsDriver, ScmsDriver,
    SnmpDriver,
};
use gridrm_global::{GlobalLayer, GlobalRequest, GlobalResponse, WireDelta, WireFrame, WireRows};
use gridrm_glue::{NativeRow, SchemaManager, Translator};
use gridrm_serve::{client_identity, read_frame, TcpServer};
use gridrm_simnet::Network;
use gridrm_sqlparse::ast::{ColumnDef, Statement};
use gridrm_sqlparse::{SqlType, SqlValue};
use gridrm_store::{select_in_memory, Table};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric a traced run reports, with its unit, in the
/// order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("serve.roundtrip_us", "us"),
    ("serve.edge_us", "us"),
    ("serve.accepted", "count"),
    ("serve.shed", "count"),
    ("serve.executed", "count"),
    ("global.wire_service_us", "us"),
    ("global.decode_us", "us"),
    ("global.encode_us", "us"),
    ("global.frame_bytes", "B"),
    ("global.codec_allocs", "count"),
    ("global.codec_alloc_bytes", "B"),
    ("global.fanout_us", "us"),
    ("global.remote_segments", "count"),
    ("core.query_us", "us"),
    ("core.query_allocs", "count"),
    ("core.cache.lookup_us", "us"),
    ("core.cache.store_us", "us"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.lookups", "count"),
    ("core.pool.execute_us", "us"),
    ("core.pool.hit_ratio", "ratio"),
    ("core.pool.checkouts", "count"),
    ("core.pool.discards", "count"),
    ("core.resolve_us", "us"),
    ("core.resolve.cache_ratio", "ratio"),
    ("core.resolve.resolutions", "count"),
    ("core.pump_us", "us"),
    ("core.poll_us", "us"),
    ("core.history_query_us", "us"),
    ("core.stream.deltas", "count"),
    ("sqlparse.parse_us", "us"),
    ("sqlparse.parse_us.star", "us"),
    ("sqlparse.parse_us.cols", "us"),
    ("sqlparse.parse_us.where", "us"),
    ("sqlparse.parse_us.every", "us"),
    ("sqlparse.parse_us.history", "us"),
    ("drivers.execute_us.snmp", "us"),
    ("drivers.execute_us.ganglia", "us"),
    ("drivers.execute_us.nws", "us"),
    ("drivers.execute_us.netlogger", "us"),
    ("drivers.execute_us.scms", "us"),
    ("drivers.native_requests", "count"),
    ("drivers.bytes_parsed", "B"),
    ("glue.translate_us", "us"),
    ("store.select_us", "us"),
    ("simnet.msgs_per_query", "count"),
    ("simnet.bytes_per_query", "B"),
    ("simnet.virtual_ms_per_query", "virtual_ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// The historical statement every workload's traced run times, and the
/// one `live_mixed` issues each tick.
pub const HISTORY_SQL: &str =
    "SELECT hostname, num FROM history WHERE attr = 'Load1' AND num > 0.5";

/// One canonical statement per shape, for `sqlparse.parse_us.<shape>`.
const SHAPES: [(&str, &str); 5] = [
    ("star", "SELECT * FROM Processor"),
    ("cols", "SELECT Hostname, NCpu, Load1 FROM Processor"),
    (
        "where",
        "SELECT Hostname, Load1 FROM Processor WHERE Load1 > 0.5 ORDER BY Hostname",
    ),
    (
        "every",
        "SELECT Hostname, Load1 FROM Processor WHERE Load1 > 0.5 EVERY 2000",
    ),
    ("history", HISTORY_SQL),
];

/// Repetitions of each direct layer probe.
const PROBE_REPS: usize = 50;

/// A produced batch of wire frames for one replay round. `live_mixed`
/// advances its site one tick per round and, when given a tracer, traces
/// its pump as `core.pump`.
pub type Batch<'a> = Box<dyn FnMut(usize, Option<&mut Tracer>) -> Vec<Vec<u8>> + 'a>;

/// What a workload hands the traced run.
pub struct Subject<'a> {
    /// The Global layer whose wire service serves the workload's frames;
    /// its gateway and network are the ones measured.
    pub layer: Arc<GlobalLayer>,
    /// The TCP server fronting that wire service.
    pub server: &'a TcpServer,
    /// The site whose agents the driver probes query.
    pub site: String,
    /// Wire frames for replay round `n`.
    pub batch: Batch<'a>,
    /// Client requests for the fan-out replay.
    pub requests: Vec<ClientRequest>,
    /// Rows in a typical reply, to size the GLUE and store probes.
    pub reply_rows: usize,
}

fn mean_us(total_ns: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns as f64 / calls as f64 / 1e3
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Replay one wire frame the way `GlobalLayer::wire_service` handles it,
/// with a span around each stage. Returns polled deltas, or `Err` when
/// the frame fails to decode or execute.
fn replay_frame(t: &mut Tracer, gateway: &Gateway, frame: &[u8]) -> Result<u64, String> {
    let decoded = t.span("global.decode", |_| {
        WireFrame::decode::<GlobalRequest>(frame)
    });
    let (request, _) = decoded.map_err(|e| e.to_string())?;
    let mut deltas = 0;
    let response = match request {
        GlobalRequest::Query {
            identity,
            sources,
            sql,
            max_cache_age_ms,
            ..
        } => {
            let mode = match max_cache_age_ms {
                Some(age) => QueryMode::Cached {
                    max_age_ms: Some(age),
                },
                None => QueryMode::RealTime,
            };
            let request = ClientRequest::builder(&sql)
                .sources(&sources)
                .identity(identity.to_identity())
                .mode(mode)
                .build();
            let started = gateway.clock().now_millis();
            let resp = t
                .span("core.query", |_| gateway.query(&request))
                .map_err(|e| e.to_string())?;
            GlobalResponse::Rows {
                rows: WireRows::from_rowset(&resp.rows),
                warnings: resp.warnings,
                served_from_cache: resp.served_from_cache,
                spans: Vec::new(),
                elapsed_ms: gateway.clock().now_millis().saturating_sub(started),
                outcomes: resp.outcomes,
            }
        }
        GlobalRequest::PollDeltas { subscription, max } => {
            let polled = t
                .span("core.poll", |_| gateway.poll_deltas(subscription, max))
                .map_err(|e| e.to_string())?;
            deltas = polled.len() as u64;
            GlobalResponse::Deltas {
                deltas: polled.iter().map(WireDelta::from_delta).collect(),
            }
        }
        other => return Err(format!("unexpected frame in replay: {other:?}")),
    };
    let frame = t.span("global.encode", |_| WireFrame::encode(&response));
    std::hint::black_box(frame.len());
    Ok(deltas)
}

/// The local part of a workload's requests: `(url, source, sql)` for
/// every source hosted at `site`.
fn local_pairs(requests: &[ClientRequest], site: &str) -> Vec<(JdbcUrl, String, String)> {
    let marker = format!(".{site}/");
    requests
        .iter()
        .flat_map(|r| r.sources.iter().map(move |s| (s, &r.sql)))
        .filter(|(s, _)| s.contains(&marker))
        .filter_map(|(s, sql)| JdbcUrl::parse(s).ok().map(|u| (u, s.clone(), sql.clone())))
        .take(64)
        .collect()
}

/// Native rows shaped like an SNMP agent's answer for `Processor`.
fn native_processor_rows(schema: &SchemaManager, rows: usize) -> Vec<NativeRow> {
    let mapping = mappings::snmp_mapping();
    let group = schema.schema().group("Processor").cloned();
    let fields = mapping.group("Processor").cloned().unwrap_or_default();
    (0..rows)
        .map(|i| {
            let mut row = NativeRow::new();
            for (attr, fm) in &fields {
                let ty = group
                    .as_ref()
                    .and_then(|g| g.attribute(attr))
                    .map_or(SqlType::Int, |a| a.ty);
                let v = match ty {
                    SqlType::Str => SqlValue::Str(format!("node{i:02}.probe")),
                    SqlType::Float => SqlValue::Float(0.25 + i as f64 * 0.01),
                    _ => SqlValue::Int(40 + i as i64),
                };
                row.insert(fm.native_key.clone(), v);
            }
            row
        })
        .collect()
}

/// Time `reps` executions of `sql` on a connection opened once.
fn probe_driver(
    t: &mut Tracer,
    name: &'static str,
    driver: &dyn Driver,
    stats: &DriverStats,
    url: &str,
    sql: &str,
    totals: &mut (u64, u64, u64),
) -> Result<(), String> {
    let url = JdbcUrl::parse(url).map_err(|e| e.to_string())?;
    let mut conn = driver
        .connect(&url, &Properties::new())
        .map_err(|e| format!("{name}: connect: {e}"))?;
    let mut stmt = conn.create_statement().map_err(|e| e.to_string())?;
    let (_, n0, _, b0) = stats.snapshot();
    for _ in 0..PROBE_REPS {
        t.begin_trace();
        let rows = t.span(name, |_| {
            stmt.execute_query(sql)
                .and_then(|mut rs| RowSet::materialize(rs.as_mut()))
        });
        rows.map_err(|e| format!("{name}: {e}"))?;
    }
    let (_, n1, _, b1) = stats.snapshot();
    totals.0 += PROBE_REPS as u64;
    totals.1 += n1 - n0;
    totals.2 += b1 - b0;
    Ok(())
}

/// The traced run over `rounds` batches per pass (a multiple of four
/// keeps the passes on the same mix). Returns the per-layer metrics
/// (every name in [`PER_LAYER`]) and the recorder holding every span.
pub fn traced_run(mut s: Subject<'_>, rounds: usize) -> Result<(Vec<Metric>, Tracer), String> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut t = Tracer::new();
    alloc::enable(true);
    let gw = s.layer.gateway().clone();
    let net = gw.network().clone();
    let service = s.layer.wire_service();
    let cache0 = gw.cache().stats().snapshot();

    // A warm-up pass, so pass A does not pay first-use costs (pool
    // connections, driver resolution) that pass B would not.
    let warmup = rounds / 4;
    for round in 0..warmup {
        for frame in (s.batch)(round, None) {
            service.handle_frame("perfbench", &frame);
        }
    }

    // Pass A: the untraced base.
    let mut base_ns = 0u64;
    let mut base_frames = 0u64;
    let mut frame_bytes = 0u64;
    for round in warmup..warmup + rounds {
        for frame in (s.batch)(round, None) {
            let started = Instant::now();
            let reply = service.handle_frame("perfbench", &frame);
            base_ns += started.elapsed().as_nanos() as u64;
            base_frames += 1;
            frame_bytes += (frame.len() + reply.len()) as u64;
        }
    }

    // Pass B: traced, in path order.
    let mut deltas = 0u64;
    let mut roots = Vec::new();
    for round in warmup + rounds..warmup + 2 * rounds {
        let frames = (s.batch)(round, Some(&mut t));
        for frame in frames {
            t.begin_trace();
            roots.push(t.spans().len());
            deltas += t.span("request", |t| replay_frame(t, &gw, &frame))?;
        }
    }

    // Pass C: the same mix as TCP round trips.
    let (a0, s0, e0, _) = s.server.stats().snapshot();
    let mut stream =
        TcpStream::connect(s.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    for round in warmup + 2 * rounds..warmup + 3 * rounds {
        for frame in (s.batch)(round, None) {
            let framed = crate::openloop::framed(&frame);
            t.begin_trace();
            let reply = t.span("serve.roundtrip", |_| {
                stream.write_all(&framed)?;
                read_frame(&mut stream)
            });
            match reply {
                Ok(Some(_)) => {}
                other => return Err(format!("TCP round trip failed: {other:?}")),
            }
        }
    }
    drop(stream);
    let (a1, s1, e1, _) = s.server.stats().snapshot();
    m.insert("serve.accepted", (a1 - a0) as f64);
    m.insert("serve.shed", (s1 - s0) as f64);
    m.insert("serve.executed", (e1 - e0) as f64);

    // The fan-out, through the Global layer.
    let g0 = s.layer.stats().snapshot();
    let agents = |net: &Network| net.total_requests_served(|a| !a.ends_with(":gma"));
    let bytes = |net: &Network| -> u64 {
        net.scan()
            .iter()
            .filter_map(|a| net.endpoint_stats(a))
            .map(|e| e.snapshot().bytes_served)
            .sum()
    };
    let (msgs0, bytes0, clock0) = (agents(&net), bytes(&net), net.clock().now_millis());
    let pool0 = gw.connections().stats().snapshot();
    let res0 = gw.driver_manager().stats().snapshot();
    for request in &s.requests {
        t.begin_trace();
        t.span("global.fanout", |_| s.layer.query(request))
            .map_err(|e| format!("fan-out: {e}"))?;
    }
    let queries = s.requests.len().max(1) as f64;
    let g1 = s.layer.stats().snapshot();
    m.insert(
        "global.remote_segments",
        (g1.remote_queries_out - g0.remote_queries_out) as f64 / queries,
    );
    m.insert(
        "simnet.msgs_per_query",
        (agents(&net) - msgs0) as f64 / queries,
    );
    m.insert(
        "simnet.bytes_per_query",
        (bytes(&net) - bytes0) as f64 / queries,
    );
    m.insert(
        "simnet.virtual_ms_per_query",
        (net.clock().now_millis() - clock0) as f64 / queries,
    );
    let cache1 = gw.cache().stats().snapshot();
    let lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    m.insert(
        "core.cache.hit_ratio",
        ratio(cache1.hits - cache0.hits, lookups),
    );
    m.insert("core.cache.lookups", lookups as f64);

    // Resolution, pool, cache: direct calls for the local sources.
    let pairs = local_pairs(&s.requests, &s.site);
    let now = gw.clock().now_millis();
    for (url, source, sql) in &pairs {
        t.begin_trace();
        t.span("core.resolve", |_| gw.driver_manager().resolve(url))
            .map_err(|e| format!("resolve {source}: {e}"))?;
        let rows = t
            .span("core.pool.execute", |_| gw.connections().execute(url, sql))
            .map_err(|e| format!("pool execute {source}: {e}"))?;
        t.span("core.cache.lookup", |_| {
            gw.cache().lookup(source, sql, now, Some(u64::MAX / 2))
        });
        let rows = Arc::new(rows);
        t.span("core.cache.store", |_| {
            gw.cache().store(source, sql, rows, now)
        });
    }
    let pool1 = gw.connections().stats().snapshot();
    let res1 = gw.driver_manager().stats().snapshot();
    m.insert(
        "core.pool.hit_ratio",
        ratio(
            pool1.pool_hits - pool0.pool_hits,
            pool1.checkouts - pool0.checkouts,
        ),
    );
    m.insert(
        "core.pool.checkouts",
        (pool1.checkouts - pool0.checkouts) as f64,
    );
    m.insert(
        "core.pool.discards",
        (pool1.discards - pool0.discards) as f64,
    );
    m.insert(
        "core.resolve.cache_ratio",
        ratio(
            res1.cache_hits - res0.cache_hits,
            res1.resolutions - res0.resolutions,
        ),
    );
    m.insert(
        "core.resolve.resolutions",
        (res1.resolutions - res0.resolutions) as f64,
    );

    // Housekeeping, streams and history.
    if !t.spans().iter().any(|sp| sp.name == "core.pump") {
        for _ in 0..rounds {
            t.begin_trace();
            t.span("core.pump", |_| gw.pump());
        }
    }
    // A workload that polls no subscription of its own gets one probe
    // subscription, so `core.poll_us` is measured on every world.
    if !t.spans().iter().any(|sp| sp.name == "core.poll") {
        let (_, source, _) = pairs.first().ok_or("no local source to subscribe to")?;
        let spec = ClientRequest::builder("SELECT Hostname, Load1 FROM Processor")
            .source(source)
            .identity(client_identity().to_identity())
            .subscribe_every(1_000);
        let id = gw.subscribe(&spec).map_err(|e| format!("subscribe: {e}"))?;
        for _ in 0..rounds {
            t.begin_trace();
            let polled = t
                .span("core.poll", |_| gw.poll_deltas(id, 0))
                .map_err(|e| format!("poll: {e}"))?;
            deltas += polled.len() as u64;
        }
    }
    m.insert("core.stream.deltas", deltas as f64);
    let history =
        ClientRequest::historical(HISTORY_SQL).with_identity(client_identity().to_identity());
    for _ in 0..rounds {
        t.begin_trace();
        t.span("core.history_query", |_| gw.query(&history))
            .map_err(|e| format!("history: {e}"))?;
    }

    // Parse: the workload's own statements, then one per shape.
    for request in &s.requests {
        t.begin_trace();
        t.span("sqlparse.parse", |_| gridrm_sqlparse::parse(&request.sql))
            .map_err(|e| e.to_string())?;
    }
    let mut shape_ns = Vec::new();
    for (shape, sql) in SHAPES {
        let started = t.spans().len();
        for _ in 0..PROBE_REPS {
            t.begin_trace();
            t.span("sqlparse.parse.shape", |_| gridrm_sqlparse::parse(sql))
                .map_err(|e| e.to_string())?;
        }
        let total: u64 = t.spans()[started..].iter().map(Span::duration_ns).sum();
        shape_ns.push((shape, total));
    }
    for (shape, total) in shape_ns {
        let key = match shape {
            "star" => "sqlparse.parse_us.star",
            "cols" => "sqlparse.parse_us.cols",
            "where" => "sqlparse.parse_us.where",
            "every" => "sqlparse.parse_us.every",
            _ => "sqlparse.parse_us.history",
        };
        m.insert(key, mean_us(total, PROBE_REPS as u64));
    }

    // Drivers on pre-opened connections, against this world's agents.
    let schema = Arc::new(SchemaManager::new());
    for mapping in [
        mappings::snmp_mapping(),
        mappings::ganglia_mapping(),
        mappings::nws_mapping(),
        mappings::netlogger_mapping(),
        mappings::scms_mapping(),
    ] {
        schema.register_mapping(mapping);
    }
    let env = DriverEnv::new(net.clone(), schema.clone(), "perfbench.probe");
    let site = &s.site;
    let processor = "SELECT Hostname, NCpu, Load1 FROM Processor";
    let mut totals = (0u64, 0u64, 0u64);
    let snmp = SnmpDriver::new(env.clone());
    probe_driver(
        &mut t,
        "drivers.snmp",
        snmp.as_ref(),
        &snmp.stats(),
        &format!("jdbc:snmp://node01.{site}/public"),
        processor,
        &mut totals,
    )?;
    let ganglia = GangliaDriver::new(env.clone());
    probe_driver(
        &mut t,
        "drivers.ganglia",
        ganglia.as_ref(),
        &ganglia.stats(),
        &format!("jdbc:ganglia://node00.{site}/{site}?ttl=0"),
        processor,
        &mut totals,
    )?;
    let nws = NwsDriver::new(env.clone());
    probe_driver(
        &mut t,
        "drivers.nws",
        nws.as_ref(),
        &nws.stats(),
        &format!("jdbc:nws://node00.{site}/perfdata"),
        "SELECT SourceHost, DestHost, BandwidthMbps FROM NetworkElement",
        &mut totals,
    )?;
    let netlogger = NetLoggerDriver::new(env.clone());
    probe_driver(
        &mut t,
        "drivers.netlogger",
        netlogger.as_ref(),
        &netlogger.stats(),
        &format!("jdbc:netlogger://node00.{site}/log"),
        "SELECT Hostname, Category, Value FROM Event",
        &mut totals,
    )?;
    let scms = ScmsDriver::new(env.clone());
    probe_driver(
        &mut t,
        "drivers.scms",
        scms.as_ref(),
        &scms.stats(),
        &format!("jdbc:scms://node00.{site}/"),
        processor,
        &mut totals,
    )?;
    m.insert("drivers.native_requests", ratio(totals.1, totals.0));
    m.insert("drivers.bytes_parsed", ratio(totals.2, totals.0));

    // GLUE translation and the store's SELECT engine, sized like the
    // workload's replies.
    let handle = schema.handle_for("jdbc-snmp");
    let translator = Translator::new(&handle);
    let native = native_processor_rows(&schema, s.reply_rows.max(1));
    let mut translated = Vec::new();
    for _ in 0..PROBE_REPS {
        t.begin_trace();
        translated = t
            .span("glue.translate", |_| {
                translator.translate_all("Processor", &native)
            })
            .map(|(rows, _)| rows)
            .ok_or("GLUE has no Processor group")?;
    }
    let group = schema
        .schema()
        .group("Processor")
        .cloned()
        .ok_or("no Processor group")?;
    let table = Table {
        name: group.name.clone(),
        columns: group
            .attributes
            .iter()
            .map(|a| ColumnDef {
                name: a.name.clone(),
                ty: a.ty,
                primary_key: false,
            })
            .collect(),
        rows: translated,
    };
    let Ok(Statement::Select(sel)) = gridrm_sqlparse::parse(SHAPES[2].1) else {
        return Err("store probe statement does not parse".into());
    };
    for _ in 0..PROBE_REPS {
        t.begin_trace();
        t.span("store.select", |_| {
            select_in_memory(&table, &sel, now as i64)
        })
        .map_err(|e| e.to_string())?;
    }
    alloc::enable(false);

    // Aggregate spans by layer.
    let names = by_name(t.spans());
    let get = |n: &str| names.get(n).copied().unwrap_or_default();
    let per_call = |n: &str| {
        let (calls, self_ns, _, _) = get(n);
        mean_us(self_ns, calls)
    };
    let wire_us = mean_us(base_ns, base_frames);
    let roundtrip_us = per_call("serve.roundtrip");
    m.insert("serve.roundtrip_us", roundtrip_us);
    m.insert("serve.edge_us", roundtrip_us - wire_us);
    m.insert("global.wire_service_us", wire_us);
    m.insert("global.decode_us", per_call("global.decode"));
    m.insert("global.encode_us", per_call("global.encode"));
    m.insert("global.frame_bytes", ratio(frame_bytes, base_frames));
    let (decodes, _, dec_allocs, dec_bytes) = get("global.decode");
    let (_, _, enc_allocs, enc_bytes) = get("global.encode");
    m.insert(
        "global.codec_allocs",
        ratio(dec_allocs + enc_allocs, decodes),
    );
    m.insert(
        "global.codec_alloc_bytes",
        ratio(dec_bytes + enc_bytes, decodes),
    );
    m.insert("global.fanout_us", per_call("global.fanout"));
    m.insert("core.query_us", per_call("core.query"));
    let (queries_run, _, query_allocs, _) = get("core.query");
    m.insert("core.query_allocs", ratio(query_allocs, queries_run));
    m.insert("core.cache.lookup_us", per_call("core.cache.lookup"));
    m.insert("core.cache.store_us", per_call("core.cache.store"));
    m.insert("core.pool.execute_us", per_call("core.pool.execute"));
    m.insert("core.resolve_us", per_call("core.resolve"));
    m.insert("core.pump_us", per_call("core.pump"));
    m.insert("core.poll_us", per_call("core.poll"));
    m.insert("core.history_query_us", per_call("core.history_query"));
    m.insert("sqlparse.parse_us", per_call("sqlparse.parse"));
    m.insert("drivers.execute_us.snmp", per_call("drivers.snmp"));
    m.insert("drivers.execute_us.ganglia", per_call("drivers.ganglia"));
    m.insert("drivers.execute_us.nws", per_call("drivers.nws"));
    m.insert(
        "drivers.execute_us.netlogger",
        per_call("drivers.netlogger"),
    );
    m.insert("drivers.execute_us.scms", per_call("drivers.scms"));
    let (translations, glue_ns, _, _) = get("glue.translate");
    m.insert(
        "glue.translate_us",
        mean_us(glue_ns, translations * s.reply_rows.max(1) as u64),
    );
    m.insert("store.select_us", per_call("store.select"));

    // Coverage: layer self time inside the replayed requests over the
    // untraced in-process time of the same mix; overhead: traced request
    // time over untraced.
    let spans = t.spans();
    let selfs = crate::trace::self_times(spans);
    let request_traces: std::collections::BTreeSet<u64> =
        roots.iter().map(|&i| spans[i].trace).collect();
    let (mut covered, mut traced) = (0u64, 0u64);
    for (sp, self_ns) in spans.iter().zip(&selfs) {
        if !request_traces.contains(&sp.trace) {
            continue;
        }
        if sp.name == "request" {
            traced += sp.duration_ns();
        } else {
            covered += self_ns;
        }
    }
    let traced_frames = roots.len() as u64;
    let base_per_frame = base_ns as f64 / base_frames.max(1) as f64;
    let traced_per_frame = traced as f64 / traced_frames.max(1) as f64;
    let covered_per_frame = covered as f64 / traced_frames.max(1) as f64;
    m.insert("trace.coverage", covered_per_frame / base_per_frame);
    m.insert("trace.overhead", traced_per_frame / base_per_frame - 1.0);
    m.insert("trace.spans", spans.len() as f64);

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            m.get(name)
                .map(|v| Metric::new(name, *v, unit))
                .ok_or_else(|| format!("traced run did not measure {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((metrics, t))
}
