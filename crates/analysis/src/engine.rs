//! The symbolic sweep engine: characterization sweeps evaluated as closed
//! forms instead of per-point graph rebuilds.
//!
//! A Figure 7–10 sweep evaluates N configurations that differ only in one
//! width hyperparameter. The brute-force path rebuilds the training graph and
//! re-derives every cost expression N times. The engine instead:
//!
//! 1. builds the **family** graph once per structural family — the training
//!    graph with the swept width left as a free symbol
//!    ([`modelzoo::WIDTH_SYM`]), with repeated subgraphs folded by
//!    [`cgraph::fold_classes`] inside `stats()`;
//! 2. per configuration, substitutes the integer width into the cached
//!    symbolic stats and per-tensor element expressions — an **exact**
//!    rational-arithmetic substitution, not a float evaluation;
//! 3. per sweep point, binds the subbatch symbol and evaluates the closed
//!    form; the footprint simulation ([`cgraph::footprint_peak`]) runs on
//!    the family plan against the substituted size table.
//!
//! Everything symbolic is held as hash-consed [`ExprId`]s: family stats and
//! element counts are [`InternedGraphStats`] / id vectors, and substitution
//! goes through the `symath` bind memo (one exact substitution per distinct
//! `(expression, width)` pair process-wide). Each instance is priced by one
//! batched register-VM grid ([`batch_program`]) over all of its subbatches;
//! a single point ([`FamilyEngine::characterize`]) is a one-row grid.
//!
//! Every number produced this way is **bit-identical** to
//! [`characterize`](crate::characterize): substitution commutes with the
//! builders' ring operations on widths, so step 2 reproduces the concrete
//! build's canonical expressions; the batch VM replays the tree evaluator's
//! exact f64 operation order; and the footprint simulation sees
//! the same graph structure and the same byte sizes. The golden equivalence
//! suite (`tests/golden_sweep.rs`) asserts this with `==` on every field.
//!
//! The per-configuration **instance cache is LRU-bounded** (the family cache
//! is not: there are only a handful of structural families, but a
//! long-running server sweeps unboundedly many widths). The eviction
//! discipline mirrors `serve`'s memo cache: a monotone tick, touch on use,
//! evict the smallest tick while over capacity.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use cgraph::{footprint_peak, FootprintPlan, InternedGraphStats};
use modelzoo::{ModelConfig, ModelGraph, BATCH_SYM};
use rayon::prelude::*;
use symath::{batch_program, Bindings, ExprId};

use crate::characterize::CharacterizationPoint;
use crate::lru::LruCache;

/// Default bound on cached per-configuration instances.
pub const DEFAULT_INSTANCE_CAPACITY: usize = 1024;

/// One structural family: the width-symbolic training graph and its cost
/// expressions, shared by every configuration in a sweep.
struct Family {
    model: ModelGraph,
    /// Folded symbolic stats over the batch and width symbols.
    stats: InternedGraphStats,
    /// Deduplicated element-count expressions: an unrolled graph repeats the
    /// same tensor shapes across timesteps/blocks, so the thousands of
    /// per-tensor expressions collapse to a handful of distinct ones —
    /// dedup is an id comparison now, not a tree hash.
    uniq_elems: Vec<ExprId>,
    /// Per tensor (indexed like `model.graph.tensors()`): which entry of
    /// `uniq_elems` counts its elements, and its element size in bytes.
    elem_slot: Vec<(u32, u64)>,
    /// Size-independent footprint extraction of the family graph: built once,
    /// priced against every configuration's size table.
    plan: FootprintPlan,
}

/// One configuration: the family expressions with the width substituted,
/// leaving only the batch symbol free.
struct Instance {
    family: Arc<Family>,
    stats: InternedGraphStats,
    uniq_elems: Vec<ExprId>,
}

/// A cache of width-symbolic model families and their per-configuration
/// instantiations. Cheap to share across threads; sweeps call
/// [`characterize`](FamilyEngine::characterize) from rayon workers.
pub struct FamilyEngine {
    families: Mutex<HashMap<String, Arc<Family>>>,
    instances: Mutex<LruCache<Arc<Instance>>>,
}

impl Default for FamilyEngine {
    fn default() -> FamilyEngine {
        FamilyEngine::with_instance_capacity(DEFAULT_INSTANCE_CAPACITY)
    }
}

impl FamilyEngine {
    /// A fresh, empty engine (cold caches — what the sweep benchmark times).
    pub fn new() -> FamilyEngine {
        FamilyEngine::default()
    }

    /// An engine whose instance cache holds at most `capacity` entries.
    pub fn with_instance_capacity(capacity: usize) -> FamilyEngine {
        FamilyEngine {
            families: Mutex::new(HashMap::new()),
            instances: Mutex::new(LruCache::new(capacity)),
        }
    }

    /// The process-wide engine: families built by any sweep are reused by
    /// later sweeps and by the query server.
    pub fn global() -> &'static FamilyEngine {
        static GLOBAL: OnceLock<FamilyEngine> = OnceLock::new();
        GLOBAL.get_or_init(FamilyEngine::new)
    }

    fn family(&self, cfg: &ModelConfig) -> Arc<Family> {
        let key = cfg.family_key();
        if let Some(f) = self.families.lock().expect("poisoned").get(&key) {
            return Arc::clone(f);
        }
        // Built outside the lock: concurrent misses may build twice, but the
        // results are identical and the first insert wins.
        let model = obs::time("modelzoo.build_family", || cfg.build_family_training());
        let stats = obs::time("engine.family_stats", || model.graph.stats_interned());
        let mut uniq_elems: Vec<ExprId> = Vec::new();
        let mut slot_of: HashMap<ExprId, u32> = HashMap::new();
        let elem_slot = model
            .graph
            .tensors()
            .iter()
            .map(|t| {
                let e = t.shape.elements_id();
                let slot = *slot_of.entry(e).or_insert_with(|| {
                    uniq_elems.push(e);
                    (uniq_elems.len() - 1) as u32
                });
                (slot, t.dtype.size_bytes())
            })
            .collect();
        let plan = obs::time("engine.family_plan", || FootprintPlan::new(&model.graph));
        let family = Arc::new(Family {
            model,
            stats,
            uniq_elems,
            elem_slot,
            plan,
        });
        Arc::clone(
            self.families
                .lock()
                .expect("poisoned")
                .entry(key)
                .or_insert(family),
        )
    }

    fn instance_key(cfg: &ModelConfig) -> String {
        let mut key = cfg.family_key();
        for (sym, v) in cfg.family_widths().iter() {
            key.push_str(&format!(";{sym}={v}"));
        }
        key
    }

    fn instance(&self, cfg: &ModelConfig) -> Arc<Instance> {
        let widths = cfg.family_widths();
        let key = FamilyEngine::instance_key(cfg);
        if let Some(hit) = self.instances.lock().expect("poisoned").get(&key) {
            return hit;
        }
        let family = self.family(cfg);
        let stats = family.stats.bind_all(&widths);
        let uniq_elems = family
            .uniq_elems
            .iter()
            .map(|e| e.bind_all(&widths))
            .collect();
        let instance = Arc::new(Instance {
            family,
            stats,
            uniq_elems,
        });
        self.instances
            .lock()
            .expect("poisoned")
            .insert(key, instance)
    }

    /// Symbolic counterpart of [`crate::characterize`]: the same
    /// [`CharacterizationPoint`], bit-for-bit, from the cached closed forms,
    /// priced as a one-row grid.
    pub fn characterize(&self, cfg: &ModelConfig, subbatch: u64) -> CharacterizationPoint {
        let _span = obs::span("analysis.characterize_symbolic")
            .with_arg("domain", cfg.domain().key())
            .with_arg("subbatch", subbatch);
        let inst = self.instance(cfg);
        FamilyEngine::characterize_instance(&inst, &[subbatch])
            .pop()
            .expect("one row in, one point out")
    }

    /// Price one instance at several subbatch sizes through the batched
    /// register VM: one grid evaluation covers the three stats roots and
    /// every distinct element-count expression across all points (shared
    /// sub-expressions computed once per point, not once per root), then one
    /// footprint simulation per point against the cached family plan.
    ///
    /// Bit-identical to [`crate::characterize`] per subbatch: the batched VM
    /// replays the tree walk per point in the same f64 operation order, and
    /// the per-tensor sizes mirror `cgraph::tensor_sizes` exactly (rounded
    /// element count times the element size, each distinct element
    /// expression evaluated once).
    fn characterize_instance(inst: &Instance, subbatches: &[u64]) -> Vec<CharacterizationPoint> {
        if subbatches.is_empty() {
            return Vec::new();
        }
        let mut roots = Vec::with_capacity(3 + inst.uniq_elems.len());
        roots.push(inst.stats.params);
        roots.push(inst.stats.flops);
        roots.push(inst.stats.bytes);
        roots.extend_from_slice(&inst.uniq_elems);
        let prog = batch_program(&roots);
        let points: Vec<Bindings> = subbatches
            .iter()
            .map(|&b| Bindings::new().with(BATCH_SYM, b as f64))
            .collect();
        let grid = prog.eval_grid(&points).expect("grid is non-empty");
        let val =
            |root: usize, p: usize| -> f64 { *grid[root][p].as_ref().expect("all symbols bound") };
        // `ExprId::eval_u64`'s rounding, applied to the batched value.
        let as_u64 = |v: f64| -> u64 {
            assert!(
                v.is_finite() && v >= -0.5,
                "expression evaluated to non-representable u64: {v}"
            );
            v.round().max(0.0) as u64
        };
        subbatches
            .iter()
            .enumerate()
            .map(|(p, &subbatch)| {
                let params = val(0, p);
                let flops = val(1, p);
                let bytes = val(2, p);
                let uniq: Vec<u64> = (0..inst.uniq_elems.len())
                    .map(|j| as_u64(val(3 + j, p)))
                    .collect();
                let sizes: Vec<u64> = inst
                    .family
                    .elem_slot
                    .iter()
                    .map(|&(slot, db)| uniq[slot as usize] * db)
                    .collect();
                let footprint = footprint_peak(&inst.family.plan, &sizes);
                CharacterizationPoint {
                    params,
                    subbatch,
                    flops_per_step: flops,
                    flops_per_sample: flops / subbatch as f64,
                    bytes_per_step: bytes,
                    op_intensity: flops / bytes,
                    footprint_bytes: footprint as f64,
                    seq_len: inst.family.model.seq_len,
                }
            })
            .collect()
    }

    /// Characterize a batch of `(configuration, subbatch)` points. Jobs that
    /// share a configuration are grouped onto one instance and priced in a
    /// single batched-VM grid evaluation; groups run on the rayon pool.
    /// Output order matches input order, so results are deterministic — and
    /// bit-identical to calling [`characterize`](FamilyEngine::characterize)
    /// per job.
    pub fn characterize_many(&self, jobs: &[(ModelConfig, u64)]) -> Vec<CharacterizationPoint> {
        // One instance plus its (input index, subbatch) rows.
        type Group = (Arc<Instance>, Vec<(usize, u64)>);
        let _span = obs::span("analysis.characterize_many").with_arg("jobs", jobs.len() as u64);
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Group> = HashMap::new();
        for (i, (cfg, b)) in jobs.iter().enumerate() {
            let key = FamilyEngine::instance_key(cfg);
            let entry = match groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    order.push(e.key().clone());
                    e.insert((self.instance(cfg), Vec::new()))
                }
            };
            entry.1.push((i, *b));
        }
        let grouped: Vec<Group> = order
            .iter()
            .map(|k| groups.remove(k).expect("grouped by key"))
            .collect();
        obs::recorder().counter("analysis.batch_groups", grouped.len() as f64);
        let mut out: Vec<Option<CharacterizationPoint>> = vec![None; jobs.len()];
        let results: Vec<Vec<(usize, CharacterizationPoint)>> = grouped
            .par_iter()
            .map(|(inst, rows)| {
                let subbatches: Vec<u64> = rows.iter().map(|&(_, b)| b).collect();
                rows.iter()
                    .map(|&(i, _)| i)
                    .zip(FamilyEngine::characterize_instance(inst, &subbatches))
                    .collect()
            })
            .collect();
        for (i, p) in results.into_iter().flatten() {
            out[i] = Some(p);
        }
        out.into_iter()
            .map(|p| p.expect("every job priced"))
            .collect()
    }

    /// Labels consumed per batch element by `cfg`'s family graph — the
    /// slope of `samples_per_step(b)`. Width-independent, so the cached
    /// family answers without building a concrete instance.
    pub fn labels_per_sample(&self, cfg: &ModelConfig) -> u64 {
        self.family(cfg).model.labels_per_sample
    }

    /// Number of family graphs currently cached.
    pub fn families_built(&self) -> usize {
        self.families.lock().expect("poisoned").len()
    }

    /// Number of per-configuration instances currently cached.
    pub fn instances_cached(&self) -> usize {
        self.instances.lock().expect("poisoned").len()
    }

    /// Bound on the instance cache.
    pub fn instance_capacity(&self) -> usize {
        self.instances.lock().expect("poisoned").capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelzoo::Domain;

    #[test]
    fn engine_matches_brute_force_bitwise() {
        let engine = FamilyEngine::new();
        let cfg = ModelConfig::default_for(Domain::WordLm)
            .with_seq_len(6)
            .with_target_params(2_000_000);
        let brute = crate::characterize(&cfg, 16);
        let fast = engine.characterize(&cfg, 16);
        assert_eq!(brute, fast);
    }

    #[test]
    fn one_family_build_serves_a_whole_sweep() {
        let engine = FamilyEngine::new();
        for target in [1_000_000u64, 2_000_000, 4_000_000] {
            let cfg = ModelConfig::default_for(Domain::Nmt)
                .with_seq_len(4)
                .with_target_params(target);
            engine.characterize(&cfg, 8);
        }
        assert_eq!(engine.families_built(), 1);
    }

    #[test]
    fn instance_cache_is_bounded_lru() {
        let engine = FamilyEngine::with_instance_capacity(2);
        for target in [1_000_000u64, 2_000_000, 4_000_000, 8_000_000] {
            let cfg = ModelConfig::default_for(Domain::WordLm)
                .with_seq_len(4)
                .with_target_params(target);
            engine.characterize(&cfg, 8);
        }
        assert_eq!(engine.instances_cached(), 2);
        assert_eq!(engine.instance_capacity(), 2);
        // Eviction must not change results: recompute an evicted width.
        let cfg = ModelConfig::default_for(Domain::WordLm)
            .with_seq_len(4)
            .with_target_params(1_000_000);
        let again = engine.characterize(&cfg, 8);
        let brute = crate::characterize(&cfg, 8);
        assert_eq!(again, brute);
    }

    #[test]
    fn characterize_many_matches_one_by_one() {
        let engine = FamilyEngine::new();
        let jobs: Vec<(ModelConfig, u64)> = [1_000_000u64, 3_000_000]
            .iter()
            .flat_map(|&t| {
                [8u64, 16].iter().map(move |&b| {
                    (
                        ModelConfig::default_for(Domain::CharLm)
                            .with_seq_len(4)
                            .with_target_params(t),
                        b,
                    )
                })
            })
            .collect();
        let batch = engine.characterize_many(&jobs);
        for (job, point) in jobs.iter().zip(&batch) {
            assert_eq!(*point, engine.characterize(&job.0, job.1));
        }
    }
}
