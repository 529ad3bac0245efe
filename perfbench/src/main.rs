//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <sweep|plan|serve_hot|serve_cold> --seed N --seconds S
//!           [--trace 0|1] [--setup-only]
//! ```
//!
//! Each workload is a closed loop driven by one thread; its inputs come from
//! `--seed`. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it runs half the time untraced and half traced and prints the
//! per-layer ledger, including the tracing overhead. `--setup-only` times
//! set-up and exits. The last line of standard output is the result object;
//! the line before it records placement, sample counts and oracle checks.
//! `run.py` next to this package builds it and is the entry point.

mod ledger;
mod plan;
mod runner;
mod serving;
mod stats;
mod sweep;
mod sys;

use std::process::ExitCode;
use std::time::Instant;

use ledger::Ledger;
use runner::{closed_loop, Metrics, Workload};
use stats::percentile;
use sys::{pin_current_thread, Placement};

const USAGE: &str = "usage: perfbench --workload <sweep|plan|serve_hot|serve_cold> --seed N \
--seconds S [--trace 0|1] [--setup-only]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["sweep", "plan", "serve_hot", "serve_cold"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.setup_only && (args.seconds.is_nan() || args.seconds <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Build the workload; the caller times this as set-up.
fn setup(args: &Args, placement: Placement) -> Result<Box<dyn Workload>, String> {
    let io = |e: std::io::Error| e.to_string();
    Ok(match args.workload.as_str() {
        "sweep" => Box::new(sweep::Sweep::setup(args.seed)),
        "plan" => Box::new(plan::Plan::setup(args.seed)),
        "serve_hot" => Box::new(serving::ServeHot::setup(placement).map_err(io)?),
        "serve_cold" => Box::new(serving::ServeCold::setup(args.seed, placement).map_err(io)?),
        _ => unreachable!("validated in parse_args"),
    })
}

fn json_info(pairs: &[(String, String)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", obs::json_escape(k), obs::json_escape(v)))
        .collect();
    format!("{{\"info\": {{{}}}}}", fields.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let placement = Placement::detect().map_err(|e| format!("affinity: {e}"))?;
    // The program gets one CPU, so its thread pools get one thread.
    std::env::set_var("RAYON_SHIM_THREADS", "1");
    // Library workloads run the program on the main thread; serve workloads
    // re-pin the main thread to the client CPU once the server is up.
    pin_current_thread(placement.program).map_err(|e| format!("pin: {e}"))?;

    let start = Instant::now();
    let mut w = setup(args, placement)?;
    let setup_s = start.elapsed().as_secs_f64();
    if args.setup_only {
        println!("{{\"setup_s\": {setup_s:?}}}");
        return Ok(());
    }
    let mut setup_ledger = Ledger::default();
    setup_ledger.add(&obs::recorder().events());
    obs::recorder().clear();

    let mut info = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("nproc".to_string(), placement.nproc.to_string()),
        ("placement".to_string(), placement.describe(&args.workload)),
        (
            "program_threads".to_string(),
            "rayon 1; serve: reactor 1, workers 1".to_string(),
        ),
    ];
    let mut metrics;
    let (attempted, failed);
    if args.trace {
        let untraced = closed_loop(w.as_mut(), args.seconds / 2.0, None);
        w.set_traced();
        let mut ledger = Ledger::default();
        let traced = closed_loop(w.as_mut(), args.seconds / 2.0, Some(&mut ledger));
        let verify_failed = w.verify();
        attempted = untraced.attempted + traced.attempted;
        failed = untraced.failed + traced.failed + verify_failed;

        metrics = Metrics::per_layer();
        let ops = traced.attempted.max(1);
        w.layers(&ledger, ops, &mut metrics);
        metrics.layer(
            "obs.events_per_op",
            traced.program_events as f64 / ops as f64,
        );
        for (metric, span) in [
            ("modelzoo.build_family_ms", "modelzoo.build_family"),
            ("engine.family_stats_ms", "engine.family_stats"),
            ("engine.family_plan_ms", "engine.family_plan"),
        ] {
            metrics.layer(metric, setup_ledger.outer_ms(span));
        }
        let op_ms = ledger.outer_ms("perfbench.op") / ops as f64;
        metrics.layer("trace.op_ms", op_ms);
        metrics.layer(
            "trace.overhead_ms",
            percentile(&traced.lat_ms, 0.5) - percentile(&untraced.lat_ms, 0.5),
        );
        info.push(("untraced_ops".into(), untraced.attempted.to_string()));
        info.push(("traced_ops".into(), traced.attempted.to_string()));
        // Share of a traced op spent in each span name, largest first, by
        // self time: which layer this workload loads.
        let mut shares: Vec<(String, f64)> = ledger
            .iter()
            .filter(|(name, _)| !name.starts_with(runner::BENCH_SPAN_PREFIX))
            .map(|(name, t)| (name.clone(), t.self_us as f64 / 1e3 / ops as f64 / op_ms))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = shares
            .iter()
            .take(6)
            .map(|(n, s)| format!("{n}={s:.3}"))
            .collect();
        info.push(("self_time_share".into(), top.join(" ")));
    } else {
        let r = closed_loop(w.as_mut(), args.seconds, None);
        let verify_failed = w.verify();
        attempted = r.attempted;
        failed = r.failed + verify_failed;
        metrics = Metrics::default();
        metrics.set("ops_per_s", r.ops_per_s(), "1/s");
        metrics.set("latency_p50_ms", percentile(&r.lat_ms, 0.5), "ms");
        metrics.set("latency_p90_ms", percentile(&r.lat_ms, 0.9), "ms");
        metrics.set("rss_peak_mb", r.rss_peak_mb, "MB");
        metrics.set("setup_s", setup_s, "s");
        info.push(("latency_samples".into(), r.lat_ms.len().to_string()));
        info.push(("rss_after_ops".into(), w.rss_after_ops().to_string()));
    }
    info.extend(w.info());
    // Dropping the workload shuts a server down and joins its threads.
    drop(w);
    println!("{}", json_info(&info));
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.to_json()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
