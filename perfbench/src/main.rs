//! The GridRM-rs benchmark: three workloads through the public APIs of
//! `serve`, `global` and `core`, every answer checked.
//!
//! ```text
//! perfbench --workload <cached_dashboard|realtime_grid|live_mixed|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with
//! `--trace 1` it replays a sample of the workload layer by layer and
//! reports the per-layer metrics instead, writing its spans to
//! `.bench_out/`. Each run prints one row per workload, then one JSON
//! object as its last line. See `perfbench/README.md`.

mod alloc;
mod cached;
mod calib;
mod layers;
mod live;
mod openloop;
mod realtime;
mod report;
mod rng;
mod stats;
mod sys;
mod trace;

use report::RunResult;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Replay rounds in a traced run.
const TRACE_ROUNDS: usize = 48;

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["cached_dashboard", "realtime_grid", "live_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Host-speed slices read after each set-up.
const SETUP_SLICES: u32 = 64;

/// Run `setup` `SETUPS` times, keep the last result, and report the
/// median time a set-up took, in reference-scaled seconds (see
/// [`calib`]).
fn setup_repeated<E>(setup: impl Fn() -> Result<E, String>) -> Result<(E, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut env = None;
    for _ in 0..SETUPS {
        drop(env.take());
        let started = std::time::Instant::now();
        env = Some(setup()?);
        let took = started.elapsed().as_secs_f64();
        // Set-up runs program code only; the host is read right after.
        times.push(took * calib::speed_now(SETUP_SLICES));
    }
    Ok((env.expect("SETUPS > 0"), stats::median(&times)))
}

/// The untraced run of one workload.
pub fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    // `peak_rss_mb` is this workload's own peak, not that of a workload
    // run before it in the same process.
    sys::reset_peak_rss();
    let result = match workload {
        "cached_dashboard" => {
            let (env, setup_s) = setup_repeated(|| cached::setup(seed))?;
            cached::run(&env, seed, seconds, setup_s)
        }
        "realtime_grid" => {
            let (env, setup_s) = setup_repeated(|| realtime::setup(seed))?;
            realtime::run(&env, seed, seconds, setup_s)
        }
        "live_mixed" => {
            let (env, setup_s) = setup_repeated(|| live::setup(seed))?;
            live::run(&env, seed, seconds, setup_s)
        }
        other => Err(format!("unknown workload {other}")),
    }?;
    let reported: Vec<(&str, &str)> = result
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    if reported != report::END_TO_END {
        return Err(format!(
            "{workload} reported {reported:?}, not the end-to-end set"
        ));
    }
    Ok(result)
}

/// The traced run of one workload: per-layer metrics, spans written out.
pub fn run_traced(workload: &str, seed: u64) -> Result<RunResult, String> {
    let (metrics, tracer) = match workload {
        "cached_dashboard" => {
            let env = cached::setup(seed)?;
            layers::traced_run(cached::subject(&env, seed), TRACE_ROUNDS)?
        }
        "realtime_grid" => {
            let env = realtime::setup(seed)?;
            let server = realtime::server(&env)?;
            layers::traced_run(realtime::subject(&env, seed, &server), TRACE_ROUNDS)?
        }
        "live_mixed" => {
            let env = live::setup(seed)?;
            let server = live::server(&env)?;
            layers::traced_run(live::subject(&env, seed, &server), TRACE_ROUNDS)?
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .map(std::io::BufWriter::new)
        .and_then(|mut f| {
            tracer.write_jsonl(&mut f)?;
            std::io::Write::flush(&mut f)
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let spans = tracer.spans().len() as u64;
    Ok(RunResult {
        workload: workload.into(),
        attempted: spans,
        succeeded: spans,
        failed: 0,
        checks_ok: true,
        metrics,
        extra: Vec::new(),
        notes: vec![format!("spans written to {}", path.display())],
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = sys::nproc();
    let pinned = sys::pin_to_current_cpu().map_or_else(|| "none".to_owned(), |cpu| cpu.to_string());
    println!(
        "inputs: workload={} seed={} seconds={} trace={} nproc={nproc} pinned_cpu={pinned} cpu=\"{}\" loopback={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::cpu_model(),
        if args.trace || args.workload == "cached_dashboard" || args.workload == "all" {
            "yes"
        } else {
            "no"
        },
    );
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for w in workloads {
        let result = if args.trace {
            run_traced(w, args.seed)
        } else {
            run_untraced(w, args.seed, args.seconds)
        };
        match result {
            Ok(r) => {
                println!("{}", r.row());
                for note in &r.notes {
                    println!("  {note}");
                }
                results.push(r);
            }
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let combined = if results.len() == 1 {
        results.remove(0)
    } else {
        RunResult {
            workload: "all".into(),
            attempted: results.iter().map(|r| r.attempted).sum(),
            succeeded: results.iter().map(|r| r.succeeded).sum(),
            failed: results.iter().map(|r| r.failed).sum(),
            checks_ok: results.iter().all(|r| r.checks_ok),
            metrics: results
                .iter()
                .flat_map(|r| {
                    r.metrics.iter().map(move |m| report::Metric {
                        name: format!("{}.{}", r.workload, m.name),
                        ..m.clone()
                    })
                })
                .collect(),
            ..RunResult::default()
        }
    };
    // A wrong answer is reported in the JSON line (`"correct": false`),
    // not as a crash.
    println!("{}", combined.json());
    ExitCode::SUCCESS
}

/// The workloads at reduced scale. Run with `--release`: the debug build
/// works but is slow.
#[cfg(test)]
mod tests {
    use super::*;

    const SECONDS: f64 = 0.5;

    fn get(r: &RunResult, name: &str) -> f64 {
        r.metrics
            .iter()
            .chain(&r.extra)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{} lacks {name}", r.workload))
            .value
    }

    #[test]
    fn cached_dashboard_is_served_entirely_from_cache() {
        let r = run_untraced("cached_dashboard", 3, SECONDS).unwrap();
        assert!(r.correct(), "{}", r.row());
        assert_eq!(get(&r, "agent_msgs_per_query"), 0.0);
        assert_eq!(r.error_rate(), 0.0);
        assert!(get(&r, "p50_us") > 0.0);
    }

    #[test]
    fn realtime_grid_reaches_the_agents() {
        let r = run_untraced("realtime_grid", 3, SECONDS).unwrap();
        assert!(r.correct(), "{}", r.row());
        assert!(get(&r, "agent_msgs_per_query") > 0.0);
        assert!(get(&r, "virtual_p50_ms") > 0.0);
        assert_eq!(r.error_rate(), 0.0);
    }

    #[test]
    fn live_mixed_accounts_for_every_delta() {
        let r = run_untraced("live_mixed", 3, SECONDS).unwrap();
        assert!(r.correct(), "{}", r.row());
        assert!(get(&r, "deltas_polled") > 0.0);
        assert!(get(&r, "vsec_per_s") > 0.0);
        assert_eq!(r.error_rate(), 0.0);
    }

    #[test]
    fn another_seed_reports_the_same_metric_names() {
        let names = |r: &RunResult| r.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        let a = run_untraced("realtime_grid", 1, 0.2).unwrap();
        let b = run_untraced("realtime_grid", 2, 0.2).unwrap();
        assert_eq!(names(&a), names(&b));
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let _guard = alloc::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let env = cached::setup(5).unwrap();
        let (metrics, tracer) = layers::traced_run(cached::subject(&env, 5), 4).unwrap();
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = layers::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        assert!(!tracer.spans().is_empty());
        let value = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(value("core.query_allocs") > 0.0, "allocations are counted");
        assert_eq!(value("core.cache.hit_ratio"), 1.0);
        assert_eq!(value("serve.shed"), 0.0);
        assert!(value("trace.coverage") > 0.5);
    }
}
