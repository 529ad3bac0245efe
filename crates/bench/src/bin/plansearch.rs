//! `plansearch` — timing gate for the pruned plan-search enumeration.
//!
//! ```text
//! plansearch [--reps N] [--summary PATH] [--min-speedup X]
//! ```
//!
//! For every domain, builds the full joint plan-search space — the whole
//! accelerator registry × a subbatch ladder × pipeline microbatch options ×
//! the power-of-two worker ladder — through [`analysis::plan_search_space`]
//! (symbolic characterization excluded from the timings), then enumerates
//! it two ways at several epoch deadlines:
//!
//! * **naive** — [`parsim::enumerate_naive`]: price every in-cap lattice
//!   point through the planner's formulas, filter afterwards;
//! * **pruned** — [`parsim::search`]: skip memory-infeasible variants
//!   wholesale, cut each worker ladder at the fleet cap, and drop
//!   allreduce-dominated points before pricing them.
//!
//! The gate is exactness first: the pruned feasible set, Pareto frontier,
//! and argmin plan must be **bit-identical** to the naive enumeration
//! (frontier and argmin recomputed from the naive set with the library's
//! own operators). Exits nonzero on any mismatch or when the pruned
//! speedup over naive falls below `--min-speedup` (default 1.5).
//! `--summary PATH` writes the numbers as JSON (see `BENCH_plansearch.json`).

use std::process::ExitCode;

use analysis::PlanSearchRequest;
use modelzoo::Domain;
use parsim::{enumerate_naive, search, SearchSpace};
use serve::flags::Flags;
use serve::json::Json;

const USAGE: &str = "usage: plansearch [--reps N] [--summary PATH] [--min-speedup X]
  --reps         repetitions per space for stable timings (default 100)
  --summary      write a JSON summary to this path
  --min-speedup  fail if pruned/naive falls below this (default 1.5)";

/// Epoch deadlines swept per domain: a near-impossible crunch (where the
/// allreduce floor prunes hardest), the paper's week, and a lax month.
const DAYS: [f64; 3] = [0.5, 7.5, 30.0];

struct SpaceRun {
    domain: Domain,
    days: f64,
    considered: u64,
    evaluated: u64,
    pruned: u64,
    feasible: usize,
    naive_ms: f64,
    pruned_ms: f64,
    identical: bool,
}

fn run_space(domain: Domain, days: f64, reps: u32) -> SpaceRun {
    let mut req = PlanSearchRequest::registry_default(domain, days, 1 << 22);
    let base = domain.default_subbatch();
    req.subbatches = vec![base, base * 2, base * 4];
    req.microbatches = vec![1, 2, 4, 8, 16, 32];
    let space: SearchSpace = analysis::plan_search_space(&req);

    let race = bench::search_race(&space, reps, enumerate_naive, search);
    if !race.identical {
        eprintln!(
            "plansearch: {} days={days}: pruned search diverges from naive enumeration",
            domain.key()
        );
    }

    let s = &race.result.stats;
    SpaceRun {
        domain,
        days,
        considered: s.considered,
        evaluated: s.evaluated,
        pruned: s.pruned_memory + s.pruned_over_cap + s.pruned_comm_bound,
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
            flags.get_or("--reps", 100u32)?,
            flags.get::<String>("--summary")?,
            flags.get_or("--min-speedup", 1.5f64)?,
        ))
    })();
    let (reps, summary_path, min_speedup) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("plansearch: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "plansearch: registry-wide joint search per domain, deadlines {DAYS:?} days, {reps} reps"
    );
    let runs: Vec<SpaceRun> = Domain::ALL
        .into_iter()
        .flat_map(|d| DAYS.map(|days| run_space(d, days, reps)))
        .collect();

    let mut table = bench::Table::new([
        "domain",
        "days",
        "considered",
        "evaluated",
        "pruned",
        "feasible",
        "naive ms",
        "pruned ms",
        "speedup",
        "identical",
    ]);
    for r in &runs {
        table.row([
            r.domain.key().to_string(),
            format!("{}", r.days),
            r.considered.to_string(),
            r.evaluated.to_string(),
            r.pruned.to_string(),
            r.feasible.to_string(),
            format!("{:.1}", r.naive_ms),
            format!("{:.1}", r.pruned_ms),
            bench::times(r.naive_ms / r.pruned_ms),
            r.identical.to_string(),
        ]);
    }
    println!("\n{}", table.render());

    let naive_total: f64 = runs.iter().map(|r| r.naive_ms).sum();
    let pruned_total: f64 = runs.iter().map(|r| r.pruned_ms).sum();
    let speedup = naive_total / pruned_total;
    let all_identical = runs.iter().all(|r| r.identical);
    let considered: u64 = runs.iter().map(|r| r.considered).sum();
    let evaluated: u64 = runs.iter().map(|r| r.evaluated).sum();
    println!(
        "total: naive {naive_total:.1} ms  pruned {pruned_total:.1} ms  speedup {}  \
         ({evaluated}/{considered} points priced)",
        bench::times(speedup)
    );

    if let Some(path) = summary_path {
        let spaces: Vec<Json> = runs
            .iter()
            .map(|r| {
                Json::obj()
                    .set("domain", r.domain.key())
                    .set("days", r.days)
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
                "deadlines_days",
                DAYS.iter().copied().map(Json::Num).collect::<Vec<_>>(),
            )
            .set("considered", considered)
            .set("evaluated", evaluated)
            .set("naive_ms", naive_total)
            .set("pruned_ms", pruned_total)
            .set("speedup_pruned_vs_naive", speedup)
            .set("min_speedup_required", min_speedup)
            .set("all_bit_identical", all_identical)
            .set("spaces", spaces);
        if let Err(e) = std::fs::write(&path, doc.render() + "\n") {
            eprintln!("plansearch: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("summary -> {path}");
    }

    if !all_identical {
        eprintln!("plansearch: FAIL — pruned search diverges from naive enumeration");
        return ExitCode::FAILURE;
    }
    if speedup < min_speedup {
        eprintln!("plansearch: FAIL — pruned speedup {speedup:.2}x below required {min_speedup}x");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
