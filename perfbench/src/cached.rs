//! `cached_dashboard`: operators' dashboards polling the recent status of
//! a site, open loop over real loopback TCP into an in-process
//! `TcpServer` fronting `ServeWorld`.
//!
//! Virtual time is frozen after warm-up, so every read is a cache hit:
//! the edge, the codec, ACIL/parse and the cache do the work, while
//! drivers, the pool, agents and GLUE stay idle.

use crate::layers::Subject;
use crate::openloop::{framed, OpenLoop, Phase};
use crate::report::{Metric, RunResult};
use crate::rng::Rng;
use crate::stats::{summarize, Lateness, Window};
use crate::sys;
use gridrm_core::{ClientRequest, QueryMode};
use gridrm_global::{GlobalResponse, WireFrame};
use gridrm_serve::{client_identity, query_frame, SchedulerConfig, ServeWorld, TcpServer};
use std::sync::Arc;
use std::time::Duration;

/// Hosts in the served site.
pub const HOSTS: usize = 16;
/// The dashboard statements: a few GLUE groups, one row per host each.
pub const STATEMENTS: [&str; 4] = [
    "SELECT * FROM Processor",
    "SELECT Hostname, NCpu, Load1 FROM Processor",
    "SELECT Hostname, RAMSizeMB, RAMAvailableMB FROM MainMemory",
    "SELECT Hostname, Name, Release FROM OperatingSystem",
];
/// Sources per request, cycled so every 64 requests carry the same mix.
const WIDTHS: [usize; 8] = [1, 1, 1, 2, 4, 4, 8, 16];
/// Distinct requests in the repeating dashboard set.
const DISTINCT: usize = 64;
/// Freshness every request accepts: with time frozen, always a hit.
const MAX_AGE_MS: u64 = 3_600_000;
/// The fixed offered rate at which latency and CPU are reported. No
/// source records how often dashboards poll a gateway, so this is an
/// assumption: about a fifth of the capacity measured on the host the
/// benchmark was built on, so the reported phase runs well short of
/// saturation.
pub const REFERENCE_RATE: u64 = 2_000;
/// The capacity phase: closed loop, `SAT_DEPTH` requests outstanding per
/// connection, in `SAT_WINDOWS` windows of `SAT_WINDOW` requests.
const SAT_DEPTH: u64 = 4;
const SAT_WINDOW: u64 = 2_000;
const SAT_WINDOWS: usize = 16;
/// The rate ladder for `max_qps`, coarse so the answer repeats.
pub const LADDER: [u64; 5] = [1_000, 2_000, 4_000, 8_000, 16_000];
/// A rung passes when its p99 stays within this limit, every request is
/// answered correctly (none shed), and no backlog is left.
pub const P99_LIMIT_US: f64 = 2_000.0;
/// A ladder rung is `RUNG_WINDOWS` windows of `RUNG_WINDOW` requests, so
/// one host stall cannot fail a rung on its own.
const RUNG_WINDOW: u64 = 1_000;
const RUNG_WINDOWS: usize = 3;
/// Requests one connection may have queued before the server sheds.
/// Two connections stand in for many dashboards, so each gets the room
/// of many (the default is 64): a 60 ms stall of the host's vCPU, seen
/// on the machine this was built on, queues ~60 requests per connection
/// at the reference rate, and must not be answered `Overloaded`.
const QUEUE_BOUND: usize = 1_024;
/// How long the generator waits for the last replies of a phase.
const GRACE: Duration = Duration::from_millis(500);

/// One dashboard request and its reference answer.
struct Request {
    sources: Vec<String>,
    sql: &'static str,
    frame: Vec<u8>,
    reply: Vec<u8>,
    rows: usize,
    columns: Vec<String>,
}

/// A built, warmed world behind a listening server.
pub struct Env {
    world: ServeWorld,
    server: TcpServer,
    requests: Vec<Request>,
}

/// The seeded dashboard set: every pairing of a width from `WIDTHS` with
/// a statement, twice, each over a seeded run of consecutive hosts. The
/// mix of reply sizes is the same for every seed; only the hosts differ.
fn generate(world: &ServeWorld, seed: u64) -> Vec<(Vec<String>, &'static str)> {
    let mut rng = Rng::new(seed, 1);
    (0..DISTINCT)
        .map(|i| {
            let width = WIDTHS[i % WIDTHS.len()];
            let sql = STATEMENTS[(i / WIDTHS.len()) % STATEMENTS.len()];
            let first = rng.below(HOSTS);
            let sources = (0..width)
                .map(|k| world.source_url((first + k) % HOSTS))
                .collect();
            (sources, sql)
        })
        .collect()
}

/// Decode a reply into `(rows, column names, served_from_cache)`.
fn decode_rows(reply: &[u8]) -> Option<(usize, Vec<String>, usize)> {
    match WireFrame::decode::<GlobalResponse>(reply) {
        Ok((
            GlobalResponse::Rows {
                rows,
                served_from_cache,
                ..
            },
            _,
        )) => Some((
            rows.rows.len(),
            rows.columns.iter().map(|c| c.0.clone()).collect(),
            served_from_cache,
        )),
        _ => None,
    }
}

/// Build the world, warm every (source, statement) pair into the cache,
/// compute the reference answer of every distinct request, and bind the
/// server.
pub fn setup(seed: u64) -> Result<Env, String> {
    let world = ServeWorld::build(HOSTS);
    let service = world.service();
    for sql in STATEMENTS {
        for n in 0..HOSTS {
            let reply =
                service.handle_frame("warmup", &query_frame(&[world.source_url(n)], sql, None));
            if decode_rows(&reply).is_none() {
                return Err(format!("warm-up of {sql} on host {n} returned no rows"));
            }
        }
    }
    let mut requests = Vec::with_capacity(DISTINCT);
    for (sources, sql) in generate(&world, seed) {
        let frame = query_frame(&sources, sql, Some(MAX_AGE_MS));
        let reply = service.handle_frame("reference", &frame);
        let (rows, columns, from_cache) =
            decode_rows(&reply).ok_or_else(|| format!("reference for {sql} returned no rows"))?;
        // One row per host, every source answered from the cache.
        if rows != sources.len() || from_cache != sources.len() {
            return Err(format!(
                "reference for {sql} over {} sources: {rows} rows, {from_cache} cached",
                sources.len()
            ));
        }
        requests.push(Request {
            sources,
            sql,
            frame,
            reply,
            rows,
            columns,
        });
    }
    let config = SchedulerConfig {
        queue_bound: QUEUE_BOUND,
        ..SchedulerConfig::default()
    };
    let server =
        TcpServer::start("127.0.0.1:0", service, config).map_err(|e| format!("bind: {e}"))?;
    Ok(Env {
        world,
        server,
        requests,
    })
}

/// The seeded request order: successive shuffles of the distinct set.
fn order(seed: u64) -> impl FnMut() -> usize {
    let mut rng = Rng::new(seed, 2);
    let mut deck: Vec<usize> = (0..DISTINCT).collect();
    let mut pos = DISTINCT;
    move || {
        if pos == DISTINCT {
            rng.shuffle(&mut deck);
            pos = 0;
        }
        pos += 1;
        deck[pos - 1]
    }
}

fn connect(env: &Env) -> Result<OpenLoop, String> {
    let references: Vec<(Vec<u8>, usize, Vec<String>, usize)> = env
        .requests
        .iter()
        .map(|r| (r.reply.clone(), r.rows, r.columns.clone(), r.sources.len()))
        .collect();
    let check = Arc::new(move |idx: usize, reply: &[u8]| {
        let (bytes, rows, columns, width) = &references[idx];
        // Replies to a frozen cache are byte-identical to the reference;
        // anything else must still carry the same rows and columns, all
        // served from the cache.
        reply == bytes.as_slice()
            || decode_rows(reply)
                .is_some_and(|(r, c, cached)| r == *rows && c == *columns && cached == *width)
    });
    OpenLoop::connect(env.server.local_addr(), check).map_err(|e| format!("connect: {e}"))
}

/// Requests, failures and lateness summed over phases.
#[derive(Default)]
struct Totals {
    sent: u64,
    failed: u64,
    backlog: u64,
    lateness: Lateness,
}

impl Totals {
    fn add(&mut self, phase: &Phase) {
        self.sent += phase.sent;
        self.failed += phase.failed;
        self.backlog += phase.backlog;
        self.lateness.merge(&phase.lateness);
    }
}

/// What the generator thread measured.
struct Load {
    /// Warm-up, reported phase and passing rungs.
    totals: Totals,
    /// The reported phase, one window per second.
    main: Vec<Window>,
    /// The capacity phase.
    capacity: Vec<Window>,
    /// Lateness in the reported phase.
    lateness: Lateness,
    /// Peak RSS when the reported phase ended, before the ladder's own
    /// sample buffers.
    peak_rss_mb: f64,
    max_qps: u64,
    rungs: Vec<String>,
}

/// How the generator loads the server in a window.
#[derive(Clone, Copy)]
enum Mode {
    /// Open loop at this many requests per second.
    Rate(u64),
    /// Closed loop, this many requests outstanding per connection.
    Saturate(u64),
}

/// `n` consecutive phases of `per_window` requests, one window each,
/// each with the host's speed over it. A window's CPU is the process's
/// less this generator thread's, which runs the host-speed slices.
fn windows(
    client: &mut OpenLoop,
    framed_requests: &[Vec<u8>],
    next: &mut impl FnMut() -> usize,
    mode: Mode,
    per_window: u64,
    n: usize,
    totals: &mut Totals,
) -> Vec<Window> {
    (0..n)
        .map(|_| {
            let (process0, own0) = (sys::process_cpu(), sys::thread_cpu());
            let phase = match mode {
                Mode::Rate(rate) => client.phase(framed_requests, next, rate, per_window, GRACE),
                Mode::Saturate(depth) => {
                    client.saturate(framed_requests, next, depth, per_window, GRACE)
                }
            };
            let cpu = sys::process_cpu()
                .saturating_sub(process0)
                .saturating_sub(sys::thread_cpu().saturating_sub(own0));
            totals.add(&phase);
            Window {
                latencies_ns: phase.latencies_ns,
                wall: phase.wall,
                cpu,
                speed: phase.speed,
            }
        })
        .collect()
}

/// The generator thread: a warm-up burst, the capacity phase, the
/// reference-rate phase, then the rate ladder.
fn drive(mut client: OpenLoop, framed_requests: &[Vec<u8>], seed: u64, seconds: f64) -> Load {
    let started = std::time::Instant::now();
    let mut next = order(seed);
    let mut totals = Totals::default();
    let per_second = REFERENCE_RATE;
    let warm = client.phase(
        framed_requests,
        &mut next,
        REFERENCE_RATE,
        per_second / 2,
        GRACE,
    );
    totals.add(&warm);
    let capacity = windows(
        &mut client,
        framed_requests,
        &mut next,
        Mode::Saturate(SAT_DEPTH),
        SAT_WINDOW,
        SAT_WINDOWS,
        &mut totals,
    );
    // The ladder takes a fixed time; the reported phase gets the rest of
    // the run, in one-second windows.
    let ladder_s: f64 = LADDER
        .iter()
        .map(|&r| (RUNG_WINDOWS as u64 * RUNG_WINDOW) as f64 / r as f64)
        .sum();
    let left = seconds - started.elapsed().as_secs_f64() - ladder_s;
    let main_windows = left.round().max(1.0) as usize;
    let mut reported = Totals::default();
    let main = windows(
        &mut client,
        framed_requests,
        &mut next,
        Mode::Rate(REFERENCE_RATE),
        per_second,
        main_windows,
        &mut reported,
    );
    let peak_rss_mb = sys::peak_rss_mb();
    let lateness = std::mem::take(&mut reported.lateness);
    totals.sent += reported.sent;
    totals.failed += reported.failed;
    let mut load = Load {
        totals,
        main,
        capacity,
        lateness,
        peak_rss_mb,
        max_qps: 0,
        rungs: Vec::new(),
    };
    for rate in LADDER {
        let mut rung = Totals::default();
        let w = windows(
            &mut client,
            framed_requests,
            &mut next,
            Mode::Rate(rate),
            RUNG_WINDOW,
            RUNG_WINDOWS,
            &mut rung,
        );
        let p99_us = summarize(&w).p99_us;
        let pass = p99_us <= P99_LIMIT_US && rung.backlog == 0 && rung.failed == 0;
        load.rungs.push(format!(
            "{rate}/s:p99={p99_us:.0}us{}",
            if pass {
                String::new()
            } else {
                format!("(miss: {} of {} failed)", rung.failed, rung.sent)
            }
        ));
        // Shed or late answers at the rung beyond capacity are the
        // expected sign of overload: they end the ladder, and that rung
        // stays out of the run's request counts.
        if !pass {
            break;
        }
        load.totals.sent += rung.sent;
        load.totals.failed += rung.failed;
        load.max_qps = rate;
    }
    client.close();
    load
}

/// The untraced run. Load comes from one generator thread over two
/// connections; the main thread only waits for it.
pub fn run(env: &Env, seed: u64, seconds: f64, setup_s: f64) -> Result<RunResult, String> {
    let framed_requests: Vec<Vec<u8>> = env.requests.iter().map(|r| framed(&r.frame)).collect();
    let client = connect(env)?;
    let agents_before = env.world.net.total_requests_served(|_| true);
    let load = std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("perfbench-generator".into())
            .spawn_scoped(s, || drive(client, &framed_requests, seed, seconds))
            .map_err(|e| format!("spawn generator: {e}"))?
            .join()
            .map_err(|_| "generator thread panicked".to_owned())
    })?;
    let agent_msgs = env.world.net.total_requests_served(|_| true) - agents_before;

    let main = summarize(&load.main);
    let capacity = summarize(&load.capacity);
    let (late50, late99, late_max) = load.lateness.summary();
    let (accepted, shed, executed, _) = env.server.stats().snapshot();
    let mut result = RunResult {
        workload: "cached_dashboard".into(),
        attempted: load.totals.sent,
        failed: load.totals.failed,
        succeeded: load.totals.sent - load.totals.failed,
        checks_ok: agent_msgs == 0,
        ..RunResult::default()
    };
    result.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("p50_us", main.p50_us, "us"),
        Metric::new("cpu_us_per_req", main.cpu_us_per_req, "us"),
        Metric::new("queries_per_s", capacity.per_s, "1/s"),
        Metric::new("peak_rss_mb", load.peak_rss_mb, "MB"),
    ];
    result.extra = vec![
        Metric::new("max_qps", load.max_qps as f64, "1/s"),
        Metric::new(
            "agent_msgs_per_query",
            agent_msgs as f64 / result.attempted as f64,
            "msgs",
        ),
        Metric::new("offered_rate", REFERENCE_RATE as f64, "1/s"),
        Metric::new("host_speed", main.speed, "x"),
        Metric::new("raw_p50_us", main.raw_p50_us, "us"),
        Metric::new("raw_cpu_us_per_req", main.raw_cpu_us_per_req, "us"),
        Metric::new("p50_drift", main.p50_drift, "x"),
        Metric::new("capacity_p50_us", capacity.p50_us, "us"),
        Metric::new("capacity_windows", capacity.windows as f64, "count"),
        Metric::new("samples", main.samples as f64, "count"),
        Metric::new("windows", main.windows as f64, "count"),
        Metric::new("p90_us", main.p90_us, "us"),
        Metric::new("p99_us", main.p99_us, "us"),
        Metric::new("p99_beyond", main.p99_beyond as f64, "count"),
        Metric::new("lateness_p50_us", late50 as f64 / 1e3, "us"),
        Metric::new("lateness_p99_us", late99 as f64 / 1e3, "us"),
        Metric::new("lateness_max_us", late_max as f64 / 1e3, "us"),
        Metric::new("server_accepted", accepted as f64, "count"),
        Metric::new("server_shed", shed as f64, "count"),
        Metric::new("server_executed", executed as f64, "count"),
    ];
    result
        .notes
        .push(format!("ladder: {}", load.rungs.join(" ")));
    if agent_msgs != 0 {
        result.notes.push(format!(
            "FAIL: {agent_msgs} agent requests on a frozen cache"
        ));
    }
    Ok(result)
}

/// The subject the traced run replays: the dashboard set, in seeded
/// order, through the wire path and the Global layer.
pub fn subject(env: &Env, seed: u64) -> Subject<'_> {
    let mut next = order(seed);
    let sample: Vec<usize> = (0..2 * DISTINCT).map(|_| next()).collect();
    let frames: Vec<Vec<u8>> = sample
        .iter()
        .map(|&i| env.requests[i].frame.clone())
        .collect();
    let requests = sample
        .iter()
        .map(|&i| {
            let r = &env.requests[i];
            ClientRequest::builder(r.sql)
                .sources(&r.sources)
                .identity(client_identity().to_identity())
                .mode(QueryMode::Cached {
                    max_age_ms: Some(MAX_AGE_MS),
                })
                .build()
        })
        .collect();
    Subject {
        layer: env.world.layer.clone(),
        server: &env.server,
        site: "serve".into(),
        batch: Box::new(move |round, _| {
            let n = frames.len();
            (0..16)
                .map(|k| frames[(round * 16 + k) % n].clone())
                .collect()
        }),
        requests,
        reply_rows: HOSTS,
    }
}

/// Reduced-scale checks of this workload live in `main.rs`'s tests; this
/// keeps the generator's mix honest.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_draws_the_same_width_and_statement_mix() {
        let world = ServeWorld::build(HOSTS);
        let a = generate(&world, 1);
        let b = generate(&world, 2);
        let widths = |v: &[(Vec<String>, &'static str)]| {
            let mut w: Vec<(usize, &'static str)> =
                v.iter().map(|(s, sql)| (s.len(), *sql)).collect();
            w.sort_unstable();
            w
        };
        assert_eq!(widths(&a), widths(&b));
        assert_ne!(a, b);
        let mut next = order(3);
        let mut seen: Vec<usize> = (0..DISTINCT).map(|_| next()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..DISTINCT).collect::<Vec<_>>());
    }
}
