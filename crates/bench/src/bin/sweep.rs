//! `sweep` — timing gate for the symbolic sweep engine.
//!
//! ```text
//! sweep [--points N] [--summary PATH] [--min-speedup X] [--min-batched-speedup X]
//! ```
//!
//! Runs the full Figure 7–10 characterization grid (all five domains, a
//! log-spaced model-size sweep at each domain's default subbatch) four
//! ways and checks that each produces **bit-identical** points:
//!
//! * **brute** — per point: rebuild the training graph, per-op unfolded
//!   stats walk, reference footprint simulation (the pre-optimization
//!   pipeline);
//! * **folded** — per point: rebuild the graph, but fold repeated cost
//!   classes in `stats()` and use the incremental greedy scheduler
//!   (today's [`analysis::characterize`]);
//! * **symbolic** — one width-symbolic family build per domain via a cold
//!   [`analysis::FamilyEngine`], then exact substitution per point with
//!   point-at-a-time evaluation (a one-row batch-VM grid per point);
//! * **batched** — re-price the whole grid on the now-warm engine through
//!   [`FamilyEngine::characterize_many`]: closed forms evaluated by the
//!   batched register VM, footprints priced against the cached family
//!   plans. This is the steady state of a server answering repeated
//!   sweeps; best of three repetitions, since at this scale single-core
//!   scheduling noise rivals the pass itself.
//!
//! All passes run single-threaded so the timings compare algorithms,
//! not rayon scheduling. Exits nonzero on any equivalence mismatch, when
//! symbolic speedup over brute falls below `--min-speedup` (default 10), or
//! when the batched pass's speedup over the per-point symbolic pass falls
//! below `--min-batched-speedup` (default 2).
//! `--summary PATH` writes the numbers as JSON (see `BENCH_sweep.json`).

use std::process::ExitCode;
use std::time::Instant;

use analysis::{characterize, CharacterizationPoint, FamilyEngine};
use cgraph::{footprint_reference, Scheduler};
use modelzoo::{Domain, ModelConfig};
use obs::Json;
use serve::flags::Flags;

const USAGE: &str =
    "usage: sweep [--points N] [--summary PATH] [--min-speedup X] [--min-batched-speedup X]
  --points               sweep points per domain (default 9)
  --summary              write a JSON summary to this path
  --min-speedup          fail if symbolic/brute falls below this (default 10)
  --min-batched-speedup  fail if batched/symbolic falls below this (default 2)";

/// The Figure 7–10 model-size range swept per domain.
const LO_PARAMS: u64 = 1_000_000;
const HI_PARAMS: u64 = 1_000_000_000;

/// Brute-force baseline: the per-point pipeline before subgraph folding and
/// the incremental scheduler — full rebuild, unfolded per-op stats walk,
/// reference footprint simulation.
fn characterize_brute(cfg: &ModelConfig, subbatch: u64) -> CharacterizationPoint {
    let model = cfg.build_training();
    let bindings = model.bindings_with_batch(subbatch);
    let n = model
        .graph
        .stats_unfolded()
        .eval(&bindings)
        .expect("all symbols bound");
    let fp = footprint_reference(&model.graph, &bindings, Scheduler::Best).expect("bound");
    CharacterizationPoint {
        params: n.params,
        subbatch,
        flops_per_step: n.flops,
        flops_per_sample: n.flops / subbatch as f64,
        bytes_per_step: n.bytes,
        op_intensity: n.flops / n.bytes,
        footprint_bytes: fp.peak_bytes as f64,
        seq_len: model.seq_len,
    }
}

struct DomainRun {
    domain: Domain,
    points: usize,
    brute_ms: f64,
    folded_ms: f64,
    symbolic_ms: f64,
    batched_ms: f64,
    identical: bool,
}

fn time_pass<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

fn run_domain(domain: Domain, n_points: usize) -> DomainRun {
    let subbatch = domain.default_subbatch();
    let configs = modelzoo::sweep_configs(domain, LO_PARAMS, HI_PARAMS, n_points);

    let (brute, brute_ms) = time_pass(|| {
        configs
            .iter()
            .map(|cfg| characterize_brute(cfg, subbatch))
            .collect::<Vec<_>>()
    });
    let (folded, folded_ms) = time_pass(|| {
        configs
            .iter()
            .map(|cfg| characterize(cfg, subbatch))
            .collect::<Vec<_>>()
    });
    // Cold engine: the timing includes the one-time family build.
    let engine = FamilyEngine::new();
    let (symbolic, symbolic_ms) = time_pass(|| {
        configs
            .iter()
            .map(|cfg| engine.characterize(cfg, subbatch))
            .collect::<Vec<_>>()
    });
    // Warm batched re-price: the families and instances are cached now, so
    // this times the batched register VM plus the plan-driven footprint
    // simulation. Best of three repetitions.
    let jobs: Vec<(ModelConfig, u64)> = configs.iter().map(|c| (*c, subbatch)).collect();
    let mut batched = Vec::new();
    let mut batched_ms = f64::INFINITY;
    for _ in 0..3 {
        let (pts, ms) = time_pass(|| engine.characterize_many(&jobs));
        batched_ms = batched_ms.min(ms);
        batched = pts;
    }

    let identical = brute == folded && folded == symbolic && symbolic == batched;
    if !identical {
        for (i, (((b, f), s), v)) in brute
            .iter()
            .zip(&folded)
            .zip(&symbolic)
            .zip(&batched)
            .enumerate()
        {
            if b != f || f != s || s != v {
                eprintln!(
                    "sweep: {} point {i} diverges:\n  brute    {b:?}\n  folded   {f:?}\n  symbolic {s:?}\n  batched  {v:?}",
                    domain.key()
                );
            }
        }
    }
    DomainRun {
        domain,
        points: configs.len(),
        brute_ms,
        folded_ms,
        symbolic_ms,
        batched_ms,
        identical,
    }
}

fn main() -> ExitCode {
    let flags = Flags::from_env();
    if flags.switch("--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let parsed = (|| -> Result<(usize, Option<String>, f64, f64), String> {
        flags.check_known(&[
            "--points",
            "--summary",
            "--min-speedup",
            "--min-batched-speedup",
            "--help",
        ])?;
        Ok((
            flags.get_or("--points", 9usize)?,
            flags.get::<String>("--summary")?,
            flags.get_or("--min-speedup", 10.0f64)?,
            flags.get_or("--min-batched-speedup", 2.0f64)?,
        ))
    })();
    let (n_points, summary_path, min_speedup, min_batched) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sweep: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "sweep: Figure 7-10 grid, {n_points} points/domain over {LO_PARAMS}..{HI_PARAMS} params"
    );
    let runs: Vec<DomainRun> = Domain::ALL
        .into_iter()
        .map(|d| run_domain(d, n_points))
        .collect();

    let mut table = bench::Table::new([
        "domain",
        "points",
        "brute ms",
        "folded ms",
        "symbolic ms",
        "batched ms",
        "speedup",
        "identical",
    ]);
    for r in &runs {
        table.row([
            r.domain.key().to_string(),
            r.points.to_string(),
            format!("{:.1}", r.brute_ms),
            format!("{:.1}", r.folded_ms),
            format!("{:.1}", r.symbolic_ms),
            format!("{:.1}", r.batched_ms),
            bench::times(r.brute_ms / r.symbolic_ms),
            r.identical.to_string(),
        ]);
    }
    println!("\n{}", table.render());

    let brute_total: f64 = runs.iter().map(|r| r.brute_ms).sum();
    let folded_total: f64 = runs.iter().map(|r| r.folded_ms).sum();
    let symbolic_total: f64 = runs.iter().map(|r| r.symbolic_ms).sum();
    let batched_total: f64 = runs.iter().map(|r| r.batched_ms).sum();
    let speedup = brute_total / symbolic_total;
    let batched_speedup = symbolic_total / batched_total;
    let all_identical = runs.iter().all(|r| r.identical);
    println!(
        "total: brute {brute_total:.1} ms  folded {folded_total:.1} ms  \
         symbolic {symbolic_total:.1} ms  batched {batched_total:.1} ms  \
         speedup {}  batched-vs-symbolic {}",
        bench::times(speedup),
        bench::times(batched_speedup)
    );

    if let Some(path) = summary_path {
        let domains: Vec<Json> = runs
            .iter()
            .map(|r| {
                Json::obj()
                    .set("domain", r.domain.key())
                    .set("points", r.points)
                    .set("brute_ms", r.brute_ms)
                    .set("folded_ms", r.folded_ms)
                    .set("symbolic_ms", r.symbolic_ms)
                    .set("batched_ms", r.batched_ms)
                    .set("speedup_vs_brute", r.brute_ms / r.symbolic_ms)
                    .set("speedup_batched_vs_symbolic", r.symbolic_ms / r.batched_ms)
                    .set("bit_identical", r.identical)
            })
            .collect();
        let doc = Json::obj()
            .set("points_per_domain", n_points)
            .set("lo_params", LO_PARAMS)
            .set("hi_params", HI_PARAMS)
            .set("brute_ms", brute_total)
            .set("folded_ms", folded_total)
            .set("symbolic_ms", symbolic_total)
            .set("symbolic_batched_ms", batched_total)
            .set("speedup_symbolic_vs_brute", speedup)
            .set("speedup_folded_vs_brute", brute_total / folded_total)
            .set("speedup_batched_vs_symbolic", batched_speedup)
            .set("min_speedup_required", min_speedup)
            .set("min_batched_speedup_required", min_batched)
            .set("all_bit_identical", all_identical)
            .set("domains", domains);
        if let Err(e) = std::fs::write(&path, doc.render() + "\n") {
            eprintln!("sweep: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("summary -> {path}");
    }

    if !all_identical {
        eprintln!("sweep: FAIL — fast paths diverge from brute force");
        return ExitCode::FAILURE;
    }
    if speedup < min_speedup {
        eprintln!("sweep: FAIL — symbolic speedup {speedup:.1}x below required {min_speedup}x");
        return ExitCode::FAILURE;
    }
    if batched_speedup < min_batched {
        eprintln!(
            "sweep: FAIL — batched speedup {batched_speedup:.1}x over per-point symbolic \
             below required {min_batched}x"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
