//! `sweep`: the symbolic engine's hot path, in process.
//!
//! One op prices all five domains at one fresh, seeded model size across a
//! fixed ladder of four subbatches through
//! `FamilyEngine::global().characterize_many` — 20 points, five instances.
//! Fresh sizes write new interner, memo and batch-program entries on every
//! op. The traced phase additionally replays a seeded sample of ops stage by
//! stage through the public functions the engine is built from, and checks
//! that the replay reproduces `characterize_many` bit for bit.

use std::collections::HashSet;
use std::time::Instant;

use analysis::{CharacterizationPoint, FamilyEngine};
use cgraph::{footprint_with_plan, FootprintPlan, InPlacePolicy, InternedGraphStats, Scheduler};
use modelzoo::{Domain, ModelConfig, BATCH_SYM};
use symath::{batch_program, batch_stats, intern_stats, Bindings, ExprId};

use crate::ledger::Ledger;
use crate::runner::{ratio, Metrics, Workload};
use crate::stats::Rng;

/// The subbatch ladder every op prices.
pub const SUBBATCHES: [u64; 4] = [16, 32, 64, 128];
/// Model sizes are drawn log-uniformly from this parameter-count range.
const PARAMS_RANGE: (f64, f64) = (1e6, 1e10);
/// A sampled op is checked against brute force with this probability…
const ORACLE_ONE_IN: u64 = 16;
/// …up to this many points per run (brute force costs up to ~0.3 s each).
const ORACLE_CAP: usize = 6;
/// Traced ops replayed stage by stage with this probability.
const REPLAY_ONE_IN: u64 = 4;

/// A benchmark-side copy of one structural family, built from the same
/// public functions the engine uses, for the stage-by-stage replay.
struct Replica {
    stats: InternedGraphStats,
    uniq_elems: Vec<ExprId>,
    elem_slot: Vec<(u32, u64)>,
    plan: FootprintPlan,
    seq_len: u64,
}

impl Replica {
    fn build(cfg: &ModelConfig) -> Replica {
        let model = cfg.build_family_training();
        let stats = model.graph.stats_interned();
        let mut uniq_elems: Vec<ExprId> = Vec::new();
        let elem_slot = model
            .graph
            .tensors()
            .iter()
            .map(|t| {
                let e = t.shape.elements_id();
                let slot = match uniq_elems.iter().position(|&u| u == e) {
                    Some(s) => s,
                    None => {
                        uniq_elems.push(e);
                        uniq_elems.len() - 1
                    }
                };
                (slot as u32, t.dtype.size_bytes())
            })
            .collect();
        Replica {
            stats,
            uniq_elems,
            elem_slot,
            plan: FootprintPlan::new(&model.graph),
            seq_len: model.seq_len,
        }
    }
}

/// Wall time of each replayed stage, summed over replayed ops.
#[derive(Default)]
struct StageTimes {
    ops: u64,
    bind_s: f64,
    compile_s: f64,
    eval_s: f64,
    footprint_s: f64,
}

pub struct Sweep {
    rng: Rng,
    engine: &'static FamilyEngine,
    /// Resolved configurations already priced (their `Debug` form).
    seen: HashSet<String>,
    jobs: Vec<(ModelConfig, u64)>,
    out: Vec<CharacterizationPoint>,
    oracle: Vec<(ModelConfig, u64, CharacterizationPoint)>,
    traced: bool,
    replicas: Vec<Replica>,
    stages: StageTimes,
    replay_failures: u64,
    intern_before: symath::InternStats,
    batch_before: symath::BatchStats,
    new_nodes: u64,
    new_memo: u64,
    new_programs: u64,
    program_hits: u64,
}

impl Sweep {
    /// Set-up: build the five model families in the process-wide engine.
    pub fn setup(seed: u64) -> Sweep {
        let engine = FamilyEngine::global();
        for d in Domain::ALL {
            engine.labels_per_sample(&ModelConfig::default_for(d));
        }
        Sweep {
            rng: Rng::new(seed, 1),
            engine,
            seen: HashSet::new(),
            jobs: Vec::new(),
            out: Vec::new(),
            oracle: Vec::new(),
            traced: false,
            replicas: Vec::new(),
            stages: StageTimes::default(),
            replay_failures: 0,
            intern_before: intern_stats(),
            batch_before: batch_stats(),
            new_nodes: 0,
            new_memo: 0,
            new_programs: 0,
            program_hits: 0,
        }
    }

    /// One configuration per domain at a size none of them has been priced
    /// at in this run.
    fn fresh_configs(&mut self) -> Vec<ModelConfig> {
        loop {
            let target = self.rng.log_uniform(PARAMS_RANGE.0, PARAMS_RANGE.1) as u64;
            let cfgs: Vec<ModelConfig> = Domain::ALL
                .iter()
                .map(|&d| ModelConfig::default_for(d).with_target_params(target))
                .collect();
            let keys: Vec<String> = cfgs.iter().map(|c| format!("{c:?}")).collect();
            if keys.iter().all(|k| !self.seen.contains(k)) {
                self.seen.extend(keys);
                return cfgs;
            }
        }
    }

    fn jobs_for(cfgs: &[ModelConfig]) -> Vec<(ModelConfig, u64)> {
        cfgs.iter()
            .flat_map(|&c| SUBBATCHES.iter().map(move |&b| (c, b)))
            .collect()
    }

    /// Price `cfgs` stage by stage, mirroring the engine: bind the widths
    /// into the family expressions, compile and evaluate one batch program
    /// per instance over the subbatch ladder, then simulate the footprint
    /// per point against the family plan.
    fn replay(&mut self, cfgs: &[ModelConfig]) -> Vec<CharacterizationPoint> {
        if self.replicas.is_empty() {
            self.replicas = Domain::ALL
                .iter()
                .map(|&d| Replica::build(&ModelConfig::default_for(d)))
                .collect();
        }
        let points: Vec<Bindings> = SUBBATCHES
            .iter()
            .map(|&b| Bindings::new().with(BATCH_SYM, b as f64))
            .collect();
        let mut out = Vec::with_capacity(cfgs.len() * SUBBATCHES.len());
        for (cfg, rep) in cfgs.iter().zip(&self.replicas) {
            let widths = cfg.family_widths();
            let t = Instant::now();
            let stats = rep.stats.bind_all(&widths);
            let uniq: Vec<ExprId> = rep.uniq_elems.iter().map(|e| e.bind_all(&widths)).collect();
            self.stages.bind_s += t.elapsed().as_secs_f64();

            let mut roots = vec![stats.params, stats.flops, stats.bytes];
            roots.extend_from_slice(&uniq);
            let t = Instant::now();
            let prog = batch_program(&roots);
            self.stages.compile_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let grid = prog.eval_grid(&points).expect("non-empty grid");
            self.stages.eval_s += t.elapsed().as_secs_f64();

            let val = |root: usize, p: usize| *grid[root][p].as_ref().expect("all symbols bound");
            for (p, &subbatch) in SUBBATCHES.iter().enumerate() {
                let elems: Vec<u64> = (0..uniq.len())
                    .map(|j| val(3 + j, p).round().max(0.0) as u64)
                    .collect();
                let sizes: Vec<u64> = rep
                    .elem_slot
                    .iter()
                    .map(|&(slot, db)| elems[slot as usize] * db)
                    .collect();
                let t = Instant::now();
                let fp =
                    footprint_with_plan(&rep.plan, &sizes, Scheduler::Best, InPlacePolicy::Never);
                self.stages.footprint_s += t.elapsed().as_secs_f64();
                let (params, flops, bytes) = (val(0, p), val(1, p), val(2, p));
                out.push(CharacterizationPoint {
                    params,
                    subbatch,
                    flops_per_step: flops,
                    flops_per_sample: flops / subbatch as f64,
                    bytes_per_step: bytes,
                    op_intensity: flops / bytes,
                    footprint_bytes: fp.peak_bytes as f64,
                    seq_len: rep.seq_len,
                });
            }
        }
        self.stages.ops += 1;
        out
    }
}

impl Workload for Sweep {
    fn prepare(&mut self) {
        let cfgs = self.fresh_configs();
        self.jobs = Sweep::jobs_for(&cfgs);
        if self.traced {
            self.intern_before = intern_stats();
            self.batch_before = batch_stats();
        }
    }

    fn execute(&mut self) {
        self.out = self.engine.characterize_many(&self.jobs);
    }

    fn check(&mut self) -> bool {
        if self.traced {
            let (i, b) = (intern_stats(), batch_stats());
            self.new_nodes += i.table_len - self.intern_before.table_len;
            self.new_memo += i.memo_entries - self.intern_before.memo_entries;
            self.new_programs += b.programs_compiled - self.batch_before.programs_compiled;
            self.program_hits += b.program_cache_hits - self.batch_before.program_cache_hits;
        }
        let shaped = self.out.len() == self.jobs.len()
            && self.out.iter().zip(&self.jobs).all(|(p, &(_, b))| {
                p.subbatch == b
                    && p.params > 0.0
                    && p.flops_per_step.is_finite()
                    && p.footprint_bytes > 0.0
            });
        if self.oracle.len() < ORACLE_CAP && self.rng.one_in(ORACLE_ONE_IN) {
            let j = self.rng.range(0, self.jobs.len() as u64 - 1) as usize;
            let (cfg, b) = self.jobs[j];
            self.oracle.push((cfg, b, self.out[j]));
        }
        shaped
    }

    fn traced_extras(&mut self) -> bool {
        if !self.rng.one_in(REPLAY_ONE_IN) {
            return true;
        }
        let cfgs = self.fresh_configs();
        let replayed = self.replay(&cfgs);
        let engine = self.engine.characterize_many(&Sweep::jobs_for(&cfgs));
        let same = replayed == engine;
        if !same {
            self.replay_failures += 1;
            eprintln!("perfbench: sweep replay differs from characterize_many");
        }
        same
    }

    fn verify(&mut self) -> u64 {
        let mut failed = 0;
        for (cfg, b, point) in &self.oracle {
            if analysis::characterize(cfg, *b) != *point {
                eprintln!("perfbench: sweep point differs from characterize: {cfg:?} b={b}");
                failed += 1;
            }
        }
        failed
    }

    fn set_traced(&mut self) {
        self.traced = true;
    }

    fn rss_after_ops(&self) -> u64 {
        64
    }

    fn layers(&self, ledger: &Ledger, ops: u64, m: &mut Metrics) {
        let per_op = |v: f64| v / ops as f64;
        let fp = ledger.get("cgraph.footprint");
        // The replay runs after each op's spans are collected and its own
        // spans are discarded, so these figures cover the timed ops only.
        m.layer("cgraph.footprint_ms", per_op(fp.outer_us as f64 / 1e3));
        m.layer("cgraph.footprint_calls", per_op(fp.outer_calls as f64));
        m.layer(
            "analysis.characterize_many_self_ms",
            per_op(ledger.get("analysis.characterize_many").self_us as f64 / 1e3),
        );
        let st = &self.stages;
        let per_replay = |s: f64| ratio(s * 1e3, st.ops as f64);
        m.layer("symath.bind_ms", per_replay(st.bind_s));
        m.layer("symath.batch_compile_ms", per_replay(st.compile_s));
        m.layer("symath.batch_eval_ms", per_replay(st.eval_s));
        m.layer("symath.intern_new_nodes", per_op(self.new_nodes as f64));
        m.layer("symath.memo_new_entries", per_op(self.new_memo as f64));
        m.layer(
            "symath.batch_programs_new",
            per_op(self.new_programs as f64),
        );
        m.layer(
            "symath.batch_cache_hit_ratio",
            ratio(
                self.program_hits as f64,
                (self.program_hits + self.new_programs) as f64,
            ),
        );
        m.layer(
            "analysis.instances_cached",
            self.engine.instances_cached() as f64,
        );
    }

    fn info(&self) -> Vec<(String, String)> {
        let st = &self.stages;
        vec![
            ("oracle_points".into(), self.oracle.len().to_string()),
            ("replayed_ops".into(), st.ops.to_string()),
            (
                "replay_footprint_ms_per_op".into(),
                format!("{:.3}", ratio(st.footprint_s * 1e3, st.ops as f64)),
            ),
            ("replay_failures".into(), self.replay_failures.to_string()),
        ]
    }
}
