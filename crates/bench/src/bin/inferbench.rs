//! `inferbench` — exactness and timing gate for the inference subsystem.
//!
//! ```text
//! inferbench [--reps N] [--summary PATH] [--min-speedup X]
//! ```
//!
//! Two arms, each gated on bit-identity before anything is timed:
//!
//! * **characterization** — the symbolic [`analysis::InferEngine`] sweep
//!   over a (decode batch, context) grid versus [`analysis::characterize_infer`],
//!   the brute-force oracle that rebuilds the concrete prefill and decode
//!   graphs at every point. Every [`analysis::InferPoint`] must compare `==`
//!   (every `f64` bit-identical). Timings then separate the **cold** path
//!   (a fresh engine: family build + instance binds) from the **warm** path
//!   (memoized closed forms), reporting p50 per grid pass and per-point
//!   throughput.
//! * **SLO plan search** — [`parsim::infer_search`] versus
//!   [`parsim::enumerate_infer_naive`] over registry-wide spaces at several
//!   SLO tightness levels, with the Pareto frontier and argmin recomputed
//!   from the naive set through the library's reference operators.
//!
//! Exits nonzero on any mismatch or when the warm symbolic sweep's speedup
//! over the brute-force rebuilds falls below `--min-speedup` (default 1.5).
//! `--summary PATH` writes the numbers as JSON (see `BENCH_infer.json`).

use std::process::ExitCode;
use std::time::Instant;

use analysis::{
    characterize_infer, infer_search_space, InferConfig, InferEngine, InferPlanRequest,
};
use parsim::{enumerate_infer_naive, infer_search, SloTarget};
use serve::flags::Flags;
use serve::json::Json;

const USAGE: &str = "usage: inferbench [--reps N] [--summary PATH] [--min-speedup X]
  --reps         grid/search passes per timing arm (default 50)
  --summary      write a JSON summary to this path
  --min-speedup  fail if warm-symbolic/brute falls below this (default 1.5)";

/// Prompt length shared by every characterization point (a realistic
/// prefill well clear of the decode-like one-token degenerate case).
const PROMPT: u64 = 512;

/// Decode batch ladder × context ladder for the characterization grid.
const BATCHES: [u64; 5] = [1, 4, 16, 64, 256];
const CONTEXTS: [u64; 3] = [512, 1024, 4096];

/// SLO tightness levels swept by the search arm: a tight interactive
/// target (the latency floor prunes hardest), the case study's default,
/// and a lax batch-offline target.
const SLOS: [(f64, f64, f64); 3] = [
    (0.010, 0.100, 50_000.0),
    (0.050, 0.500, 20_000.0),
    (0.500, 5.000, 1_000.0),
];

fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Time `reps` calls of `f`, returning per-call microsecond samples sorted
/// ascending.
fn sample_us<T>(reps: u32, mut f: impl FnMut() -> T) -> Vec<u64> {
    let mut samples = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        samples.push(start.elapsed().as_micros() as u64);
    }
    samples.sort_unstable();
    samples
}

struct CharacterizeRun {
    points: usize,
    identical: bool,
    cold_p50_us: u64,
    warm_p50_us: u64,
    brute_p50_us: u64,
    warm_points_per_s: f64,
    speedup_warm_vs_brute: f64,
}

fn run_characterize(reps: u32) -> CharacterizeRun {
    let cfg = InferConfig::default();
    let grid: Vec<(u64, u64)> = BATCHES
        .iter()
        .flat_map(|&b| CONTEXTS.iter().map(move |&c| (b, c)))
        .collect();

    let brute = |grid: &[(u64, u64)]| {
        grid.iter()
            .map(|&(b, c)| characterize_infer(&cfg, b, PROMPT, c))
            .collect::<Vec<_>>()
    };

    // Untimed equivalence gate: symbolic sweep == brute rebuilds, `==` on
    // every point (and a fresh engine agrees with the warmed global one).
    let warm_points = InferEngine::global().characterize_grid(&cfg, PROMPT, &grid);
    let cold_points = InferEngine::new().characterize_grid(&cfg, PROMPT, &grid);
    let brute_points = brute(&grid);
    let identical = warm_points == brute_points && cold_points == brute_points;
    if !identical {
        eprintln!("inferbench: symbolic characterization diverges from brute-force rebuilds");
    }

    let cold = sample_us(reps, || {
        InferEngine::new().characterize_grid(&cfg, PROMPT, &grid)
    });
    let warm = sample_us(reps, || {
        InferEngine::global().characterize_grid(&cfg, PROMPT, &grid)
    });
    let brute_samples = sample_us(reps, || brute(&grid));

    let warm_p50_us = quantile_us(&warm, 0.5);
    let brute_p50_us = quantile_us(&brute_samples, 0.5);
    CharacterizeRun {
        points: grid.len(),
        identical,
        cold_p50_us: quantile_us(&cold, 0.5),
        warm_p50_us,
        brute_p50_us,
        warm_points_per_s: if warm_p50_us > 0 {
            grid.len() as f64 / (warm_p50_us as f64 / 1e6)
        } else {
            f64::INFINITY
        },
        speedup_warm_vs_brute: if warm_p50_us > 0 {
            brute_p50_us as f64 / warm_p50_us as f64
        } else {
            f64::INFINITY
        },
    }
}

struct SearchRun {
    tpot_ms: f64,
    ttft_ms: f64,
    target_tokens_per_s: f64,
    considered: u64,
    evaluated: u64,
    pruned: u64,
    feasible: usize,
    naive_ms: f64,
    pruned_ms: f64,
    identical: bool,
}

fn run_search(tpot_s: f64, ttft_s: f64, target_tokens_per_s: f64, reps: u32) -> SearchRun {
    let req = InferPlanRequest::registry_default(
        InferConfig::default(),
        PROMPT,
        1024,
        SloTarget {
            p99_token_seconds: tpot_s,
            ttft_seconds: ttft_s,
        },
        target_tokens_per_s,
        1 << 14,
    );
    let space = infer_search_space(&req);

    let race = bench::search_race(&space, reps, enumerate_infer_naive, infer_search);
    if !race.identical {
        eprintln!(
            "inferbench: tpot {} ms: pruned SLO search diverges from naive enumeration",
            tpot_s * 1e3
        );
    }

    let s = &race.result.stats;
    SearchRun {
        tpot_ms: tpot_s * 1e3,
        ttft_ms: ttft_s * 1e3,
        target_tokens_per_s,
        considered: s.considered,
        evaluated: s.evaluated,
        pruned: s.pruned_memory + s.pruned_latency + s.pruned_over_cap,
        feasible: race.result.feasible.len(),
        naive_ms: race.naive_ms,
        pruned_ms: race.pruned_ms,
        identical: race.identical,
    }
}

fn main() -> ExitCode {
    let flags = Flags::from_env();
    if flags.switch("--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let parsed = (|| -> Result<(u32, Option<String>, f64), String> {
        flags.check_known(&["--reps", "--summary", "--min-speedup", "--help"])?;
        Ok((
            flags.get_or("--reps", 50u32)?,
            flags.get::<String>("--summary")?,
            flags.get_or("--min-speedup", 1.5f64)?,
        ))
    })();
    let (reps, summary_path, min_speedup) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("inferbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "inferbench: {}x{} characterization grid + registry SLO search at {} tightness levels, {reps} reps",
        BATCHES.len(),
        CONTEXTS.len(),
        SLOS.len()
    );

    let ch = run_characterize(reps);
    let mut table = bench::Table::new(["arm", "p50 us / pass", "points/s", "speedup", "identical"]);
    table.row([
        "brute rebuild".to_string(),
        ch.brute_p50_us.to_string(),
        format!(
            "{:.0}",
            ch.points as f64 / (ch.brute_p50_us.max(1) as f64 / 1e6)
        ),
        "1x".to_string(),
        ch.identical.to_string(),
    ]);
    table.row([
        "symbolic cold".to_string(),
        ch.cold_p50_us.to_string(),
        format!(
            "{:.0}",
            ch.points as f64 / (ch.cold_p50_us.max(1) as f64 / 1e6)
        ),
        bench::times(ch.brute_p50_us as f64 / ch.cold_p50_us.max(1) as f64),
        ch.identical.to_string(),
    ]);
    table.row([
        "symbolic warm".to_string(),
        ch.warm_p50_us.to_string(),
        format!("{:.0}", ch.warm_points_per_s),
        bench::times(ch.speedup_warm_vs_brute),
        ch.identical.to_string(),
    ]);
    println!("\ncharacterization ({} grid points per pass)", ch.points);
    println!("{}", table.render());

    let searches: Vec<SearchRun> = SLOS
        .iter()
        .map(|&(tpot, ttft, target)| run_search(tpot, ttft, target, reps))
        .collect();
    let mut table = bench::Table::new([
        "tpot ms",
        "ttft ms",
        "tok/s",
        "considered",
        "evaluated",
        "pruned",
        "feasible",
        "naive ms",
        "pruned ms",
        "speedup",
        "identical",
    ]);
    for r in &searches {
        table.row([
            format!("{}", r.tpot_ms),
            format!("{}", r.ttft_ms),
            format!("{}", r.target_tokens_per_s),
            r.considered.to_string(),
            r.evaluated.to_string(),
            r.pruned.to_string(),
            r.feasible.to_string(),
            format!("{:.2}", r.naive_ms),
            format!("{:.2}", r.pruned_ms),
            bench::times(r.naive_ms / r.pruned_ms),
            r.identical.to_string(),
        ]);
    }
    println!("SLO plan search (registry x batch ladder x pow2 replicas)");
    println!("{}", table.render());

    let naive_total: f64 = searches.iter().map(|r| r.naive_ms).sum();
    let pruned_total: f64 = searches.iter().map(|r| r.pruned_ms).sum();
    let search_speedup = naive_total / pruned_total;
    let all_identical = ch.identical && searches.iter().all(|r| r.identical);
    println!(
        "total: warm symbolic {} vs brute rebuilds; pruned search {} vs naive",
        bench::times(ch.speedup_warm_vs_brute),
        bench::times(search_speedup)
    );

    if let Some(path) = summary_path {
        let spaces: Vec<Json> = searches
            .iter()
            .map(|r| {
                Json::obj()
                    .set("tpot_ms", r.tpot_ms)
                    .set("ttft_ms", r.ttft_ms)
                    .set("target_tokens_per_s", r.target_tokens_per_s)
                    .set("considered", r.considered)
                    .set("evaluated", r.evaluated)
                    .set("pruned", r.pruned)
                    .set("feasible", r.feasible as u64)
                    .set("naive_ms", r.naive_ms)
                    .set("pruned_ms", r.pruned_ms)
                    .set("speedup_vs_naive", r.naive_ms / r.pruned_ms)
                    .set("bit_identical", r.identical)
            })
            .collect();
        let doc = Json::obj()
            .set("reps", reps)
            .set(
                "characterize",
                Json::obj()
                    .set("grid_points", ch.points as u64)
                    .set("prompt", PROMPT)
                    .set("cold_p50_us", ch.cold_p50_us)
                    .set("warm_p50_us", ch.warm_p50_us)
                    .set("brute_p50_us", ch.brute_p50_us)
                    .set("warm_points_per_s", ch.warm_points_per_s)
                    .set("speedup_warm_vs_brute", ch.speedup_warm_vs_brute)
                    .set("bit_identical", ch.identical),
            )
            .set(
                "search",
                Json::obj()
                    .set("naive_ms", naive_total)
                    .set("pruned_ms", pruned_total)
                    .set("speedup_pruned_vs_naive", search_speedup)
                    .set("spaces", spaces),
            )
            .set("min_speedup_required", min_speedup)
            .set("all_bit_identical", all_identical);
        if let Err(e) = std::fs::write(&path, doc.render() + "\n") {
            eprintln!("inferbench: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("summary -> {path}");
    }

    if !all_identical {
        eprintln!("inferbench: FAIL — symbolic/pruned paths diverge from the brute oracles");
        return ExitCode::FAILURE;
    }
    if ch.speedup_warm_vs_brute < min_speedup {
        eprintln!(
            "inferbench: FAIL — warm symbolic speedup {:.2}x below required {min_speedup}x",
            ch.speedup_warm_vs_brute
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
