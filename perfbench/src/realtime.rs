//! `realtime_grid`: brokers and portals fanning RealTime SQL out through
//! `GlobalLayer::query` across a simulated 4-site WAN grid, closed loop
//! with one client thread.
//!
//! Sources mix fine-grained per-host SNMP with coarse Ganglia (`ttl=0`),
//! NWS, NetLogger and SCMS. WHERE literals come from the seed, so the SQL
//! text rarely repeats. Resolution, pool checkout, drivers, agent round
//! trips, GLUE and `store` finishing dominate; the TCP edge is idle and
//! the codec carries only the remote segments.

use crate::layers::Subject;
use crate::report::{Metric, RunResult};
use crate::rng::Rng;
use crate::stats::{self, summarize, Windows};
use crate::sys;
use gridrm_agents::{deploy_site, SiteAgents};
use gridrm_core::{ClientRequest, Gateway, GatewayConfig, OutcomeStatus};
use gridrm_drivers::install_into_gateway;
use gridrm_global::{GlobalLayer, GmaDirectory};
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_serve::{client_identity, query_frame, SchedulerConfig, TcpServer};
use gridrm_simnet::{Latency, Network, SimClock};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sites in the grid.
pub const SITES: usize = 4;
/// Hosts per site.
pub const HOSTS: usize = 8;
/// Fixed world seed: the grid is the same on every run; the workload
/// seed picks sources and WHERE literals.
const WORLD_SEED: u64 = 0x6721d;
/// One-way WAN latency between gateways, virtual ms, and its jitter.
const WAN_MS: u64 = 40;
const WAN_JITTER_MS: u64 = 10;
/// Source sets drawn per request shape.
const INSTANCES: usize = 4;
/// Minimum wall time of one measurement window.
const WINDOW: Duration = Duration::from_secs(2);
/// Virtual time between two `Gateway::pump` calls on every gateway, as
/// a deployed gateway runs its pump; `live_mixed` ticks at the same
/// cadence. The virtual clock moves about 90 ms per query here, so the
/// gateways pump every dozen queries or so.
const PUMP_EVERY_MS: u64 = 1_000;
/// History retention, as in `live_mixed`: with the default 24 h the
/// history store, which records every real-time answer, would grow for
/// the whole run.
const RETENTION_MS: u64 = 120_000;

/// A coarse-grained source, hosted on a site's head node.
#[derive(Clone, Copy)]
enum Coarse {
    Ganglia,
    Scms,
    Nws,
    NetLogger,
}

/// A GLUE group, its projection, and the column the WHERE clause tests
/// (always projected, so the reference can filter the base rows).
struct Group {
    table: &'static str,
    columns: &'static [&'static str],
    predicate: &'static str,
    integer: bool,
}

const PROCESSOR: Group = Group {
    table: "Processor",
    columns: &["Hostname", "NCpu", "Load1"],
    predicate: "Load1",
    integer: false,
};
const MEMORY: Group = Group {
    table: "MainMemory",
    columns: &["Hostname", "RAMSizeMB", "RAMAvailableMB"],
    predicate: "RAMAvailableMB",
    integer: true,
};
const NETWORK: Group = Group {
    table: "NetworkElement",
    columns: &["SourceHost", "DestHost", "BandwidthMbps"],
    predicate: "BandwidthMbps",
    integer: false,
};
const EVENTS: Group = Group {
    table: "Event",
    columns: &["Hostname", "Category", "Value"],
    predicate: "Value",
    integer: false,
};

/// The request shapes, cycled in order so every eight queries carry the
/// same mix: `(group, per-host SNMP sources, coarse sources)`.
const SHAPES: [(&Group, usize, &[Coarse]); 8] = [
    (&PROCESSOR, 2, &[Coarse::Ganglia]),
    (&PROCESSOR, 4, &[Coarse::Scms]),
    (&MEMORY, 3, &[Coarse::Ganglia]),
    (&NETWORK, 0, &[Coarse::Nws, Coarse::Nws]),
    (&PROCESSOR, 6, &[]),
    (&EVENTS, 0, &[Coarse::NetLogger, Coarse::NetLogger]),
    (&MEMORY, 2, &[Coarse::Scms]),
    (&PROCESSOR, 1, &[Coarse::Ganglia, Coarse::Scms]),
];

/// One site: `(model, agents, gateway, layer)`.
type Site = (Arc<SiteModel>, SiteAgents, Arc<Gateway>, Arc<GlobalLayer>);

/// A source set and its base answer: the rows the shape's projection
/// returns with no WHERE clause.
struct Instance {
    sources: Vec<String>,
    columns: Vec<String>,
    predicate_values: Vec<Option<f64>>,
}

/// The built grid and the reference answers for every source set.
pub struct Env {
    net: Arc<Network>,
    sites: Vec<Site>,
    instances: Vec<Instance>,
    /// Largest base value of each shape's predicate column.
    ranges: Vec<f64>,
}

fn build_grid() -> (Arc<Network>, Vec<Site>) {
    let net = Network::new(SimClock::new(), WORLD_SEED);
    let directory = GmaDirectory::new();
    let mut sites = Vec::with_capacity(SITES);
    for i in 0..SITES {
        let name = format!("site{i}");
        let model = SiteModel::generate(WORLD_SEED + i as u64, &SiteSpec::new(&name, HOSTS, 4));
        model.advance_to(600_000);
        let agents = deploy_site(&net, model.clone());
        // One batch of log events for the NetLogger sources to serve.
        agents.pump();
        let mut config = GatewayConfig::new(&format!("gw-{name}"), &name);
        config.history_retention_ms = RETENTION_MS;
        let gateway = Gateway::new(config, net.clone());
        install_into_gateway(&gateway);
        let layer = GlobalLayer::attach(gateway.clone(), directory.clone());
        sites.push((model, agents, gateway, layer));
    }
    for a in 0..SITES {
        for b in 0..SITES {
            if a != b {
                net.set_latency(
                    &format!("gw.site{a}:gma"),
                    &format!("gw.site{b}:gma"),
                    Latency::ms(WAN_MS, WAN_JITTER_MS),
                );
            }
        }
    }
    (net, sites)
}

fn coarse_url(kind: Coarse, site: usize) -> String {
    match kind {
        Coarse::Ganglia => format!("jdbc:ganglia://node00.site{site}/site{site}?ttl=0"),
        Coarse::Scms => format!("jdbc:scms://node00.site{site}/"),
        Coarse::Nws => format!("jdbc:nws://node00.site{site}/perfdata"),
        Coarse::NetLogger => format!("jdbc:netlogger://node00.site{site}/log"),
    }
}

/// Draw `INSTANCES` source sets per shape. Which sites a set touches is
/// fixed by the shape and instance, so every seed splits the same work
/// between the portal and remote gateways; the seed picks the hosts.
fn draw_sources(seed: u64) -> Vec<(usize, Vec<String>)> {
    let mut rng = Rng::new(seed, 11);
    let mut out = Vec::new();
    for (shape, (_, snmp, coarse)) in SHAPES.iter().enumerate() {
        for instance in 0..INSTANCES {
            let mut sources = Vec::with_capacity(snmp + coarse.len());
            // Distinct hosts: a seeded start per set, consecutive after it.
            let first = rng.below(HOSTS);
            for k in 0..*snmp {
                let site = (instance + k) % SITES;
                let host = (first + k / SITES) % HOSTS;
                sources.push(format!("jdbc:snmp://node{host:02}.site{site}/public"));
            }
            for (j, kind) in coarse.iter().enumerate() {
                sources.push(coarse_url(*kind, (instance + j + 1) % SITES));
            }
            out.push((shape, sources));
        }
    }
    out
}

fn portal(sites: &[Site]) -> &Arc<GlobalLayer> {
    &sites[0].3
}

fn request(sql: &str, sources: &[String]) -> ClientRequest {
    ClientRequest::builder(sql)
        .sources(sources)
        .identity(client_identity().to_identity())
        .build()
}

fn select(group: &Group) -> String {
    format!("SELECT {} FROM {}", group.columns.join(", "), group.table)
}

/// Build the grid and compute every source set's base answer through the
/// portal; this also warms driver resolution and the connection pools.
pub fn setup(seed: u64) -> Result<Env, String> {
    let (net, sites) = build_grid();
    let mut instances = Vec::new();
    let mut ranges = vec![0f64; SHAPES.len()];
    for (shape, sources) in draw_sources(seed) {
        let group = SHAPES[shape].0;
        let resp = portal(&sites)
            .query(&request(&select(group), &sources))
            .map_err(|e| format!("base query {}: {e}", group.table))?;
        if let Some(bad) = resp.outcomes.iter().find(|o| o.status != OutcomeStatus::Ok) {
            return Err(format!(
                "base query: {} answered {:?}",
                bad.source, bad.status
            ));
        }
        let columns: Vec<String> = resp
            .rows
            .meta()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let idx = columns
            .iter()
            .position(|c| c == group.predicate)
            .ok_or_else(|| format!("{} missing from base answer", group.predicate))?;
        let predicate_values: Vec<Option<f64>> =
            resp.rows.rows().iter().map(|r| r[idx].as_f64()).collect();
        for v in predicate_values.iter().flatten() {
            ranges[shape] = ranges[shape].max(*v);
        }
        instances.push(Instance {
            sources,
            columns,
            predicate_values,
        });
    }
    Ok(Env {
        net,
        sites,
        instances,
        ranges,
    })
}

/// One generated query and its expected answer.
struct Query {
    request: ClientRequest,
    instance: usize,
    expected_rows: usize,
}

impl Env {
    /// The seeded query stream: shapes in a fixed cycle, a seeded source
    /// set and a seeded WHERE literal for each.
    fn queries(&self, seed: u64) -> impl FnMut() -> Query + '_ {
        let mut rng = Rng::new(seed, 12);
        let mut k = 0usize;
        move || {
            let shape = k % SHAPES.len();
            k += 1;
            let instance = shape * INSTANCES + rng.below(INSTANCES);
            let group = SHAPES[shape].0;
            let top = self.ranges[shape] * 1.1;
            let literal = if group.integer {
                format!("{}", (rng.unit() * top) as i64)
            } else {
                format!("{:.6}", rng.unit() * top)
            };
            let bound: f64 = literal.parse().expect("formatted number parses");
            let inst = &self.instances[instance];
            let expected_rows = inst
                .predicate_values
                .iter()
                .filter(|v| v.is_some_and(|v| v > bound))
                .count();
            let sql = format!("{} WHERE {} > {literal}", select(group), group.predicate);
            Query {
                request: request(&sql, &inst.sources),
                instance,
                expected_rows,
            }
        }
    }

    /// Run every gateway's pump: event dispatch, telemetry, the cache
    /// sweep and history retention.
    fn pump(&self) {
        for (_, _, gateway, _) in &self.sites {
            gateway.pump();
        }
    }

    /// Check one answer against the reference.
    fn check(&self, q: &Query, resp: &gridrm_core::ClientResponse) -> bool {
        let inst = &self.instances[q.instance];
        resp.outcomes.len() == inst.sources.len()
            && resp.outcomes.iter().all(|o| o.status == OutcomeStatus::Ok)
            && resp.rows.len() == q.expected_rows
            && resp
                .rows
                .meta()
                .columns()
                .iter()
                .map(|c| c.name.as_str())
                .eq(inst.columns.iter().map(String::as_str))
    }
}

/// Native requests served by agents (every endpoint but the gateways'
/// GMA ports).
fn agent_requests(net: &Network) -> u64 {
    net.total_requests_served(|a| !a.ends_with(":gma"))
}

/// The untraced run: one client thread, closed loop, for `seconds`.
pub fn run(env: &Env, seed: u64, seconds: f64, setup_s: f64) -> Result<RunResult, String> {
    let mut next = env.queries(seed);
    let layer = portal(&env.sites);
    let clock = env.net.clock().clone();
    // A short warm-up so every source set has been fetched at least once.
    for _ in 0..SHAPES.len() * INSTANCES {
        let q = next();
        layer
            .query(&q.request)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let agents0 = agent_requests(&env.net);
    let mut windows = Windows::new(WINDOW);
    let mut virtual_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut next_pump = clock.now_millis() + PUMP_EVERY_MS;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let q = next();
        let v0 = clock.now_millis();
        let t0 = Instant::now();
        let resp = layer.query(&q.request);
        let ns = t0.elapsed().as_nanos() as u64;
        attempted += 1;
        if resp.as_ref().is_ok_and(|r| env.check(&q, r)) {
            windows.record(ns);
        } else {
            failed += 1;
            windows.record(u64::MAX);
        }
        virtual_ms.push(clock.now_millis() - v0);
        // The pump runs between queries: it costs CPU and wall time in
        // the window, not in any query's latency.
        if clock.now_millis() >= next_pump {
            env.pump();
            next_pump = clock.now_millis() + PUMP_EVERY_MS;
        }
    }
    let agent_msgs = agent_requests(&env.net) - agents0;
    let summary = summarize(&windows.finish());
    virtual_ms.sort_unstable();
    let mut result = RunResult {
        workload: "realtime_grid".into(),
        attempted,
        failed,
        succeeded: attempted - failed,
        checks_ok: agent_msgs > 0,
        ..RunResult::default()
    };
    result.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("p50_us", summary.p50_us, "us"),
        Metric::new("cpu_us_per_req", summary.cpu_us_per_req, "us"),
        Metric::new("queries_per_s", summary.per_s, "1/s"),
        Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
    ];
    result.extra = vec![
        Metric::new(
            "virtual_p50_ms",
            stats::percentile(&virtual_ms, 0.5) as f64,
            "virtual_ms",
        ),
        Metric::new(
            "agent_msgs_per_query",
            agent_msgs as f64 / attempted.max(1) as f64,
            "msgs",
        ),
        Metric::new("host_speed", summary.speed, "x"),
        Metric::new("raw_p50_us", summary.raw_p50_us, "us"),
        Metric::new("raw_cpu_us_per_req", summary.raw_cpu_us_per_req, "us"),
        Metric::new("p50_drift", summary.p50_drift, "x"),
        Metric::new("samples", summary.samples as f64, "count"),
        Metric::new("windows", summary.windows as f64, "count"),
        Metric::new("p90_us", summary.p90_us, "us"),
        Metric::new("p99_us", summary.p99_us, "us"),
        Metric::new("p99_beyond", summary.p99_beyond as f64, "count"),
    ];
    Ok(result)
}

/// Wire frames per traced replay round.
const FRAMES_PER_BATCH: usize = 8;

/// The server the traced run's TCP pass goes through: the portal's own
/// wire service.
pub fn server(env: &Env) -> Result<TcpServer, String> {
    TcpServer::start(
        "127.0.0.1:0",
        portal(&env.sites).wire_service(),
        SchedulerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))
}

/// The subject the traced run replays: a sample of the query stream
/// through the portal, with each query's portal-local sources as the wire
/// frame the portal's own server would receive.
pub fn subject<'a>(env: &'a Env, seed: u64, server: &'a TcpServer) -> Subject<'a> {
    let mut next = env.queries(seed);
    let requests: Vec<ClientRequest> = (0..4 * SHAPES.len()).map(|_| next().request).collect();
    // Three batches' worth of distinct frames, so every pass replays
    // each of them equally often.
    let mut frames = Vec::with_capacity(3 * FRAMES_PER_BATCH);
    while frames.len() < 3 * FRAMES_PER_BATCH {
        let r = next().request;
        let local: Vec<String> = r
            .sources
            .iter()
            .filter(|s| s.contains(".site0/"))
            .cloned()
            .collect();
        if !local.is_empty() {
            frames.push(query_frame(&local, &r.sql, None));
        }
    }
    let layer = portal(&env.sites);
    Subject {
        layer: layer.clone(),
        server,
        site: "site0".into(),
        batch: Box::new(move |round, _| {
            (0..FRAMES_PER_BATCH)
                .map(|k| frames[(round * FRAMES_PER_BATCH + k) % frames.len()].clone())
                .collect()
        }),
        requests,
        reply_rows: HOSTS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_sets_follow_the_shapes() {
        let sets = draw_sources(5);
        assert_eq!(sets.len(), SHAPES.len() * INSTANCES);
        for (shape, sources) in &sets {
            let (_, snmp, coarse) = SHAPES[*shape];
            assert_eq!(sources.len(), snmp + coarse.len());
            let mut dedup = sources.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), sources.len());
        }
        assert_ne!(draw_sources(5), draw_sources(6));
    }
}
