//! `live_mixed`: a monitored site under continuous change, closed loop
//! with one thread, in process through `handle_frame`.
//!
//! Each tick advances virtual time by one second and runs
//! `SiteAgents::pump` and `Gateway::pump`: event ingest writes history,
//! the standing `SELECT … EVERY` subscriptions re-evaluate, and the cache
//! is swept. The tick then issues a fixed mix: cached reads whose
//! `max_cache_age_ms` expires every few ticks (miss, refresh, cache
//! write), a `PollDeltas` for every subscription, and one historical
//! `SELECT` over the history store being written. A read-side gain that
//! slows ingest, delta evaluation or cache refill shows up here.

use crate::cached::STATEMENTS;
use crate::layers::{Subject, HISTORY_SQL};
use crate::report::{Metric, RunResult};
use crate::rng::Rng;
use crate::stats::{summarize, Windows};
use crate::sys;
use crate::trace::Tracer;
use gridrm_agents::{deploy_site, SiteAgents};
use gridrm_core::{ClientRequest, Gateway, GatewayConfig, QueryMode};
use gridrm_drivers::install_into_gateway;
use gridrm_global::transport::FrameService;
use gridrm_global::{GlobalLayer, GlobalRequest, GlobalResponse, GmaDirectory, WireFrame};
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_serve::{client_identity, query_frame, SchedulerConfig, TcpServer};
use gridrm_simnet::{Network, SimClock};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hosts in the site.
pub const HOSTS: usize = 16;
const SITE: &str = "live";
const WORLD_SEED: u64 = 0x6721d;
/// Virtual time per tick.
const TICK_MS: u64 = 1_000;
/// History retention. With the gateway's default 24 h the store grows
/// for the whole run and every figure drifts; at 120 s it plateaus
/// within the warm-up (about 1,800 rows) and the tick cost stays flat.
pub const RETENTION_MS: u64 = 120_000;
/// Ticks run before timing: more than the retention window, so the
/// history store is at its plateau when measurement starts.
const WARMUP_TICKS: usize = 150;
/// Standing subscriptions, each polled every tick.
pub const SUBSCRIPTIONS: usize = 32;
/// Distinct cached reads, and how many run per tick.
const READS: usize = 16;
const READS_PER_TICK: usize = 8;
/// Minimum wall time of one measurement window.
const WINDOW: Duration = Duration::from_secs(1);

/// One cached read and its expected shape.
struct Read {
    frame: Vec<u8>,
    sources: Vec<String>,
    sql: &'static str,
    max_age_ms: u64,
    columns: Vec<String>,
}

/// The live site.
pub struct Env {
    net: Arc<Network>,
    site: Arc<SiteModel>,
    agents: SiteAgents,
    gateway: Arc<Gateway>,
    layer: Arc<GlobalLayer>,
    service: Arc<dyn FrameService>,
    reads: Vec<Read>,
    polls: Vec<Vec<u8>>,
    history: ClientRequest,
}

fn source(n: usize) -> String {
    format!("jdbc:snmp://node{n:02}.{SITE}/public")
}

/// What one request of the mix returned, checked.
enum Answer {
    Ok,
    Deltas(u64),
    Wrong,
}

impl Env {
    /// Advance one tick: time, the resource model, agents, then the
    /// gateway's pump (traced as `core.pump` when a tracer is given).
    fn advance(&self, tracer: Option<&mut Tracer>) {
        let now = self.net.clock().advance(TICK_MS);
        self.site.advance_to(now);
        self.agents.pump();
        match tracer {
            Some(t) => {
                t.begin_trace();
                t.span("core.pump", |_| self.gateway.pump());
            }
            None => {
                self.gateway.pump();
            }
        }
    }

    /// This tick's wire frames: reads drawn from the seeded deck, then a
    /// poll per subscription. Reads are indices below `READS`; polls
    /// follow.
    fn tick_requests(&self, deck: &mut impl FnMut() -> usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..READS_PER_TICK).map(|_| deck()).collect();
        v.extend(READS..READS + self.polls.len());
        v
    }

    fn frame(&self, idx: usize) -> &[u8] {
        if idx < READS {
            &self.reads[idx].frame
        } else {
            &self.polls[idx - READS]
        }
    }

    fn check(&self, idx: usize, reply: &[u8]) -> Answer {
        match WireFrame::decode::<GlobalResponse>(reply) {
            Ok((GlobalResponse::Rows { rows, .. }, _)) if idx < READS => {
                let read = &self.reads[idx];
                let columns_match = rows.columns.iter().map(|c| &c.0).eq(read.columns.iter());
                if columns_match && rows.rows.len() == read.sources.len() {
                    Answer::Ok
                } else {
                    Answer::Wrong
                }
            }
            Ok((GlobalResponse::Deltas { deltas }, _)) if idx >= READS => {
                Answer::Deltas(deltas.len() as u64)
            }
            _ => Answer::Wrong,
        }
    }

    fn history_ok(&self, resp: &gridrm_dbc::DbcResult<gridrm_core::ClientResponse>) -> bool {
        resp.as_ref().is_ok_and(|r| {
            r.rows
                .meta()
                .columns()
                .iter()
                .map(|c| c.name.as_str())
                .eq(["hostname", "num"])
        })
    }

    /// Deltas the gateway has emitted into subscriber buffers.
    fn deltas_emitted(&self) -> u64 {
        self.gateway
            .telemetry()
            .registry()
            .family_values("gridrm_sub_deltas_total")
            .iter()
            .map(|(_, v)| *v as u64)
            .sum()
    }
}

/// The seeded read order: successive shuffles of the distinct reads.
fn deck(seed: u64) -> impl FnMut() -> usize {
    let mut rng = Rng::new(seed, 22);
    let mut cards: Vec<usize> = (0..READS).collect();
    let mut pos = READS;
    move || {
        if pos == READS {
            rng.shuffle(&mut cards);
            pos = 0;
        }
        pos += 1;
        cards[pos - 1]
    }
}

/// Build the site with the short history retention, register the
/// subscriptions over the wire, and warm up until history plateaus.
pub fn setup(seed: u64) -> Result<Env, String> {
    let net = Network::new(SimClock::new(), WORLD_SEED);
    let site = SiteModel::generate(WORLD_SEED, &SiteSpec::new(SITE, HOSTS, 4));
    site.advance_to(600_000);
    net.clock().advance(600_000);
    let agents = deploy_site(&net, site.clone());
    let mut config = GatewayConfig::new("gw-live", SITE);
    config.history_retention_ms = RETENTION_MS;
    let gateway = Gateway::new(config, net.clone());
    install_into_gateway(&gateway);
    let layer = GlobalLayer::attach(gateway.clone(), GmaDirectory::new());
    let service = layer.wire_service();

    let mut rng = Rng::new(seed, 21);
    let mut reads = Vec::with_capacity(READS);
    // Widths, statements and freshness limits are stratified so every
    // seed runs the same mix; the seed picks the hosts.
    for i in 0..READS {
        let width = 1 + i % 4;
        let first = rng.below(HOSTS);
        let sources: Vec<String> = (0..width).map(|k| source((first + k) % HOSTS)).collect();
        let sql = STATEMENTS[(i / 4) % STATEMENTS.len()];
        let max_age_ms = [2_000, 3_000, 4_000][i % 3];
        // The reference: a real-time answer's columns, one row per host.
        let reply = service.handle_frame("reference", &query_frame(&sources, sql, None));
        let columns = match WireFrame::decode::<GlobalResponse>(&reply) {
            Ok((GlobalResponse::Rows { rows, .. }, _)) if rows.rows.len() == width => {
                rows.columns.iter().map(|c| c.0.clone()).collect()
            }
            _ => return Err(format!("reference read {sql} over {width} hosts failed")),
        };
        reads.push(Read {
            frame: query_frame(&sources, sql, Some(max_age_ms)),
            sources,
            sql,
            max_age_ms,
            columns,
        });
    }

    let mut subscriptions = Vec::with_capacity(SUBSCRIPTIONS);
    for i in 0..SUBSCRIPTIONS {
        let first = rng.below(HOSTS);
        let sources: Vec<String> = (0..1 + i % 2)
            .map(|k| source((first + k) % HOSTS))
            .collect();
        let every = [2_000, 3_000, 5_000][i % 3];
        let threshold = ((i % 8) as f64 + rng.unit()) / 8.0;
        let sql = format!(
            "SELECT Hostname, Load1 FROM Processor WHERE Load1 > {threshold:.3} EVERY {every}"
        );
        let frame = WireFrame::encode(&GlobalRequest::Subscribe {
            from_gateway: "wire-client".into(),
            identity: client_identity(),
            sources,
            sql,
            every_ms: None,
            buffer: None,
            backpressure: None,
        });
        match WireFrame::decode::<GlobalResponse>(&service.handle_frame("setup", frame.bytes())) {
            Ok((GlobalResponse::Subscribed { subscription }, _)) => {
                subscriptions.push(subscription)
            }
            other => return Err(format!("subscribe failed: {other:?}")),
        }
    }
    let polls = subscriptions
        .iter()
        .map(|&subscription| {
            WireFrame::encode(&GlobalRequest::PollDeltas {
                subscription,
                max: 0,
            })
            .into_bytes()
        })
        .collect();
    let env = Env {
        net,
        site,
        agents,
        gateway,
        layer,
        service,
        reads,
        polls,
        history: ClientRequest::historical(HISTORY_SQL)
            .with_identity(client_identity().to_identity()),
    };
    let mut cards = deck(seed);
    for _ in 0..WARMUP_TICKS {
        env.advance(None);
        for idx in env.tick_requests(&mut cards) {
            let reply = env.service.handle_frame("warmup", env.frame(idx));
            if matches!(env.check(idx, &reply), Answer::Wrong) {
                return Err(format!("warm-up request {idx} answered wrongly"));
            }
        }
        if !env.history_ok(&env.gateway.query(&env.history)) {
            return Err("warm-up history query failed".into());
        }
    }
    Ok(env)
}

/// The untraced run: whole ticks until `seconds` have passed.
pub fn run(env: &Env, seed: u64, seconds: f64, setup_s: f64) -> Result<RunResult, String> {
    let mut cards = deck(seed.wrapping_add(1));
    let (emitted0, agents0) = (
        env.deltas_emitted(),
        env.net.total_requests_served(|_| true),
    );
    let mut windows = Windows::new(WINDOW);
    let (mut attempted, mut failed, mut polled, mut ticks) = (0u64, 0u64, 0u64, 0u64);
    let mut record = |ok: bool, ns: u64| {
        attempted += 1;
        if ok {
            windows.record(ns);
        } else {
            failed += 1;
            windows.record(u64::MAX);
        }
    };
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        env.advance(None);
        ticks += 1;
        for idx in env.tick_requests(&mut cards) {
            let t0 = Instant::now();
            let reply = env.service.handle_frame("perfbench", env.frame(idx));
            let ns = t0.elapsed().as_nanos() as u64;
            let answer = env.check(idx, &reply);
            if let Answer::Deltas(n) = answer {
                polled += n;
            }
            record(!matches!(answer, Answer::Wrong), ns);
        }
        let t0 = Instant::now();
        let resp = env.gateway.query(&env.history);
        let ns = t0.elapsed().as_nanos() as u64;
        record(env.history_ok(&resp), ns);
    }
    let wall = started.elapsed().as_secs_f64();
    let emitted = env.deltas_emitted() - emitted0;
    let agent_msgs = env.net.total_requests_served(|_| true) - agents0;
    let summary = summarize(&windows.finish());
    let mut result = RunResult {
        workload: "live_mixed".into(),
        attempted,
        failed,
        succeeded: attempted - failed,
        checks_ok: polled == emitted,
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
            "vsec_per_s",
            ticks as f64 * TICK_MS as f64 / 1e3 / wall,
            "vs/s",
        ),
        Metric::new(
            "agent_msgs_per_query",
            agent_msgs as f64 / attempted.max(1) as f64,
            "msgs",
        ),
        Metric::new("deltas_polled", polled as f64, "count"),
        Metric::new("history_rows", history_rows(env) as f64, "count"),
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
    if polled != emitted {
        result.notes.push(format!(
            "FAIL: polled {polled} deltas, gateway emitted {emitted}"
        ));
    }
    Ok(result)
}

/// Rows in the history table now.
fn history_rows(env: &Env) -> usize {
    env.gateway
        .query(
            &ClientRequest::historical("SELECT COUNT(*) FROM history")
                .with_identity(client_identity().to_identity()),
        )
        .ok()
        .and_then(|r| {
            r.rows
                .rows()
                .first()
                .and_then(|row| row.first().and_then(|v| v.as_f64()))
        })
        .map_or(0, |n| n as usize)
}

/// The server the traced run's TCP pass goes through.
pub fn server(env: &Env) -> Result<TcpServer, String> {
    TcpServer::start(
        "127.0.0.1:0",
        env.service.clone(),
        SchedulerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))
}

/// The subject the traced run replays: whole ticks, each advancing the
/// site (pump traced) and replaying that tick's mix.
pub fn subject<'a>(env: &'a Env, seed: u64, server: &'a TcpServer) -> Subject<'a> {
    let mut cards = deck(seed.wrapping_add(2));
    let requests = env
        .reads
        .iter()
        .map(|r| {
            ClientRequest::builder(r.sql)
                .sources(&r.sources)
                .identity(client_identity().to_identity())
                .mode(QueryMode::Cached {
                    max_age_ms: Some(r.max_age_ms),
                })
                .build()
        })
        .collect();
    Subject {
        layer: env.layer.clone(),
        server,
        site: SITE.into(),
        batch: Box::new(move |_, tracer| {
            env.advance(tracer);
            env.tick_requests(&mut cards)
                .into_iter()
                .map(|idx| env.frame(idx).to_vec())
                .collect()
        }),
        requests,
        reply_rows: 4,
    }
}
