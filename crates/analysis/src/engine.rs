//! The symbolic sweep engines: characterization sweeps evaluated as closed
//! forms instead of per-point graph rebuilds.
//!
//! A Figure 7–10 sweep evaluates N configurations that differ only in one
//! width hyperparameter; a serving sweep evaluates N requests that differ
//! only in prompt, context and head shape. The brute-force paths rebuild
//! the graph and re-derive every cost expression N times. One generic
//! [`Engine`] instead:
//!
//! 1. builds the **family** once per structural family — the graph with the
//!    swept widths left as free symbols — and keeps only the tables every
//!    configuration is priced from (the graph is then freed);
//! 2. per configuration (an **instance**), substitutes the integer widths
//!    into the family's root expressions — an **exact** rational-arithmetic
//!    substitution through the `symath` bind memo, not a float evaluation;
//! 3. per instance, prices every requested batch size as one batched
//!    register-VM grid ([`batch_program`]) over [`BATCH_SYM`] and reads one
//!    point off each grid row. A single point is a one-row grid.
//!
//! What differs between domains is a [`Spec`]: the family key, the widths,
//! the family build, the roots and the point reader. [`Training`] prices a
//! training step ([`FamilyEngine`]): its family graph leaves the width
//! ([`modelzoo::WIDTH_SYM`]) free and folds repeated subgraphs
//! ([`cgraph::fold_classes`]); the family keeps the folded stats, the
//! per-tensor element-slot table and a size-independent [`FootprintPlan`],
//! and each point runs one [`footprint_peak`] simulation against the
//! substituted size table. [`Serving`](crate::Serving) prices prefill and
//! decode ([`InferEngine`](crate::InferEngine)).
//!
//! Every number produced this way is **bit-identical** to
//! [`characterize`](crate::characterize): substitution commutes with the
//! builders' ring operations on widths, so step 2 reproduces the concrete
//! build's canonical expressions; the batch VM replays the tree evaluator's
//! exact f64 operation order; and the footprint simulation sees
//! the same graph structure and the same byte sizes. The golden equivalence
//! suite (`tests/golden_sweep.rs`) asserts this with `==` on every field.
//!
//! **Bounds.** The per-configuration instance cache is the workspace's one
//! [`Lru`], by default bounded by [`DEFAULT_INSTANCE_CAPACITY`]. The family
//! map is not bounded. Training families are keyed by domain and structure,
//! which the `serve` routes never take from a query, so there it holds at
//! most one family per domain default. Serving families are keyed by
//! vocabulary, layers, MLP width and tying, all of which `/v1/infer/*`
//! takes from the query, so a server grows that map by one family per
//! distinct combination.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use cgraph::{footprint_peak, FootprintPlan};
use modelzoo::{ModelConfig, BATCH_SYM};
use rayon::prelude::*;
use symath::{batch_program, Bindings, ExprId};

use crate::characterize::CharacterizationPoint;
use crate::lru::Lru;

/// Default bound on cached per-configuration instances.
pub const DEFAULT_INSTANCE_CAPACITY: usize = 1024;

/// The domain half of an [`Engine`]: how one kind of width-symbolic family
/// is keyed, built and read. The engine owns the rest: the family map, the
/// instance cache, the exact substitution, the grid and the fan-out.
pub trait Spec {
    /// A configuration with every width fixed: what one instance prices.
    type Config: Sync;
    /// The tables extracted once per structural family.
    type Family: Send + Sync;
    /// One priced point.
    type Point: Send;

    /// Key of `cfg`'s structural family: every field that changes graph
    /// structure rather than a width.
    fn family_key(cfg: &Self::Config) -> String;
    /// The integer widths `cfg` substitutes into its family's roots. With
    /// the family key, they identify the instance.
    fn widths(cfg: &Self::Config) -> Bindings;
    /// Build `cfg`'s family. Runs once per family key.
    fn build_family(cfg: &Self::Config) -> Self::Family;
    /// The family expressions a point reads, in the order
    /// [`point`](Spec::point) reads them. Free in the widths and
    /// [`BATCH_SYM`] only.
    fn roots(family: &Self::Family) -> &[ExprId];
    /// Read one point off its grid row: `row[j]` is root `j` at `batch`.
    fn point(family: &Self::Family, cfg: &Self::Config, batch: u64, row: &[f64]) -> Self::Point;
}

/// One configuration: its family, and the family's roots with the widths
/// substituted, leaving only the batch symbol free.
struct Instance<F> {
    family: Arc<F>,
    roots: Vec<ExprId>,
}

/// A family's slot: the first caller builds it, concurrent callers wait.
type FamilyCell<F> = Arc<OnceLock<Arc<F>>>;

/// A cache of width-symbolic families and their per-configuration
/// instances (see the module docs). Cheap to share across threads; sweeps
/// call it from rayon workers.
pub struct Engine<S: Spec> {
    /// One slot per family key, built outside the map's lock.
    families: Mutex<HashMap<String, FamilyCell<S::Family>>>,
    instances: Mutex<Lru<String, Arc<Instance<S::Family>>>>,
}

impl<S: Spec> Default for Engine<S> {
    fn default() -> Engine<S> {
        Engine::with_instance_capacity(DEFAULT_INSTANCE_CAPACITY)
    }
}

impl<S: Spec> Engine<S> {
    /// A fresh, empty engine (cold caches — what the sweep benchmark times).
    pub fn new() -> Engine<S> {
        Engine::default()
    }

    /// An engine whose instance cache holds at most `capacity` entries.
    pub fn with_instance_capacity(capacity: usize) -> Engine<S> {
        Engine {
            families: Mutex::new(HashMap::new()),
            instances: Mutex::new(Lru::new(capacity)),
        }
    }

    fn family(&self, cfg: &S::Config) -> Arc<S::Family> {
        let cell = Arc::clone(
            self.families
                .lock()
                .expect("poisoned")
                .entry(S::family_key(cfg))
                .or_default(),
        );
        Arc::clone(cell.get_or_init(|| Arc::new(S::build_family(cfg))))
    }

    fn instance_key(cfg: &S::Config) -> String {
        let mut key = S::family_key(cfg);
        for (sym, v) in S::widths(cfg).iter() {
            key.push_str(&format!(";{sym}={v}"));
        }
        key
    }

    fn instance(&self, key: &str, cfg: &S::Config) -> Arc<Instance<S::Family>> {
        if let Some(hit) = self.instances.lock().expect("poisoned").get(key) {
            return hit;
        }
        let family = self.family(cfg);
        let widths = S::widths(cfg);
        let roots = S::roots(&family)
            .iter()
            .map(|e| e.bind_all(&widths))
            .collect();
        let instance = Arc::new(Instance { family, roots });
        self.instances
            .lock()
            .expect("poisoned")
            .insert(key.to_owned(), instance)
            .0
    }

    /// Price `cfg` at every batch size in `batches` (non-empty) as one
    /// batch-VM grid over the instance's roots. Bit-identical per batch to
    /// the tree walk: the VM replays its f64 operation order.
    fn price(&self, key: &str, cfg: &S::Config, batches: &[u64]) -> Vec<S::Point> {
        let inst = self.instance(key, cfg);
        let points: Vec<Bindings> = batches
            .iter()
            .map(|&b| Bindings::new().with(BATCH_SYM, b as f64))
            .collect();
        let grid = batch_program(&inst.roots)
            .eval_grid(&points)
            .expect("grid is non-empty");
        batches
            .iter()
            .enumerate()
            .map(|(p, &batch)| {
                let row: Vec<f64> = grid
                    .iter()
                    .map(|root| *root[p].as_ref().expect("all symbols bound"))
                    .collect();
                S::point(&inst.family, cfg, batch, &row)
            })
            .collect()
    }

    /// Price one `(configuration, batch)` point as a one-row grid.
    pub(crate) fn price_one(&self, cfg: &S::Config, batch: u64) -> S::Point {
        self.price(&Engine::<S>::instance_key(cfg), cfg, &[batch])
            .pop()
            .expect("one row in, one point out")
    }

    /// Price a batch of `(configuration, batch)` jobs. Jobs that share an
    /// instance form one group, in first-seen order; each group binds its
    /// instance and prices one grid on the rayon pool. Results come back
    /// in input order, bit-identical to [`price_one`](Engine::price_one)
    /// per job.
    pub(crate) fn price_many(&self, jobs: &[(S::Config, u64)]) -> Vec<S::Point> {
        // An instance key, its configuration and its (input index, batch) rows.
        type Group<'a, C> = (String, &'a C, Vec<(usize, u64)>);
        let mut groups: Vec<Group<'_, S::Config>> = Vec::new();
        let mut slot: HashMap<String, usize> = HashMap::new();
        for (i, (cfg, b)) in jobs.iter().enumerate() {
            match slot.entry(Engine::<S>::instance_key(cfg)) {
                Entry::Occupied(e) => groups[*e.get()].2.push((i, *b)),
                Entry::Vacant(e) => {
                    groups.push((e.key().clone(), cfg, vec![(i, *b)]));
                    e.insert(groups.len() - 1);
                }
            }
        }
        obs::recorder().counter("analysis.batch_groups", groups.len() as f64);
        let priced: Vec<Vec<(usize, S::Point)>> = groups
            .par_iter()
            .map(|(key, cfg, rows)| {
                let batches: Vec<u64> = rows.iter().map(|&(_, b)| b).collect();
                rows.iter()
                    .map(|&(i, _)| i)
                    .zip(self.price(key, cfg, &batches))
                    .collect()
            })
            .collect();
        let mut priced: Vec<(usize, S::Point)> = priced.into_iter().flatten().collect();
        priced.sort_unstable_by_key(|&(i, _)| i);
        priced.into_iter().map(|(_, p)| p).collect()
    }

    /// Number of families currently cached.
    pub fn families_built(&self) -> usize {
        let families = self.families.lock().expect("poisoned");
        families.values().filter(|f| f.get().is_some()).count()
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

/// The training engine: a [`Training`] step priced per
/// `(configuration, subbatch)`.
pub type FamilyEngine = Engine<Training>;

/// The training-step [`Spec`]: one family per structural model
/// configuration, with the swept width ([`modelzoo::WIDTH_SYM`]) free.
pub struct Training;

/// One structural training family: the cost tables extracted from its
/// width-symbolic training graph, shared by every configuration in a
/// sweep. The graph itself is dropped once these tables are extracted.
pub struct TrainingFamily {
    /// Per-sample sequence length the family graph was built with.
    seq_len: u64,
    /// Labels consumed per batch element (see
    /// [`FamilyEngine::labels_per_sample`]).
    labels_per_sample: u64,
    /// Params, FLOPs and bytes of the folded stats, then the deduplicated
    /// element-count expressions: an unrolled graph repeats the same tensor
    /// shapes across timesteps/blocks, so the thousands of per-tensor
    /// expressions collapse to a handful of distinct ones.
    roots: Vec<ExprId>,
    /// Per tensor (indexed like the family graph's `tensors()`): which
    /// element-count root (counted after the three stats roots) counts its
    /// elements, and its element size in bytes.
    elem_slot: Vec<(u32, u64)>,
    /// Size-independent footprint extraction of the family graph: built once,
    /// priced against every configuration's size table.
    plan: FootprintPlan,
}

/// Roots of a [`TrainingFamily`] before its element counts.
const STATS_ROOTS: usize = 3;

impl Spec for Training {
    type Config = ModelConfig;
    type Family = TrainingFamily;
    type Point = CharacterizationPoint;

    fn family_key(cfg: &ModelConfig) -> String {
        cfg.family_key()
    }

    fn widths(cfg: &ModelConfig) -> Bindings {
        cfg.family_widths()
    }

    fn build_family(cfg: &ModelConfig) -> TrainingFamily {
        let model = obs::time("modelzoo.build_family", || cfg.build_family_training());
        let stats = obs::time("engine.family_stats", || model.graph.stats_interned());
        let mut roots = vec![stats.params, stats.flops, stats.bytes];
        let elem_slot = obs::time("engine.family_elems", || {
            let mut slot_of: HashMap<ExprId, u32> = HashMap::new();
            model
                .graph
                .tensors()
                .iter()
                .map(|t| {
                    let e = t.shape.elements_id();
                    let slot = *slot_of.entry(e).or_insert_with(|| {
                        roots.push(e);
                        (roots.len() - 1 - STATS_ROOTS) as u32
                    });
                    (slot, t.dtype.size_bytes())
                })
                .collect()
        });
        let plan = obs::time("engine.family_plan", || FootprintPlan::new(&model.graph));
        let family = TrainingFamily {
            seq_len: model.seq_len,
            labels_per_sample: model.labels_per_sample,
            roots,
            elem_slot,
            plan,
        };
        // Everything the engine prices from is extracted, so the graph is
        // not cached. Freeing a family graph takes tens of milliseconds.
        obs::time("engine.family_drop", || drop(model));
        family
    }

    fn roots(family: &TrainingFamily) -> &[ExprId] {
        &family.roots
    }

    /// The per-tensor sizes mirror `cgraph::tensor_sizes` exactly: rounded
    /// element count times the element size, each distinct element
    /// expression evaluated once.
    fn point(
        family: &TrainingFamily,
        _cfg: &ModelConfig,
        subbatch: u64,
        row: &[f64],
    ) -> CharacterizationPoint {
        // `ExprId::eval_u64`'s rounding, applied to the batched value.
        let uniq: Vec<u64> = row[STATS_ROOTS..]
            .iter()
            .map(|&v| {
                assert!(
                    v.is_finite() && v >= -0.5,
                    "expression evaluated to non-representable u64: {v}"
                );
                v.round().max(0.0) as u64
            })
            .collect();
        let sizes: Vec<u64> = family
            .elem_slot
            .iter()
            .map(|&(slot, db)| uniq[slot as usize] * db)
            .collect();
        let (params, flops, bytes) = (row[0], row[1], row[2]);
        CharacterizationPoint {
            params,
            subbatch,
            flops_per_step: flops,
            flops_per_sample: flops / subbatch as f64,
            bytes_per_step: bytes,
            op_intensity: flops / bytes,
            footprint_bytes: footprint_peak(&family.plan, &sizes) as f64,
            seq_len: family.seq_len,
        }
    }
}

impl FamilyEngine {
    /// The process-wide engine: families built by any sweep are reused by
    /// later sweeps and by the query server.
    pub fn global() -> &'static FamilyEngine {
        static GLOBAL: OnceLock<FamilyEngine> = OnceLock::new();
        GLOBAL.get_or_init(FamilyEngine::new)
    }

    /// Symbolic counterpart of [`crate::characterize`]: the same
    /// [`CharacterizationPoint`], bit-for-bit, from the cached closed forms,
    /// priced as a one-row grid.
    pub fn characterize(&self, cfg: &ModelConfig, subbatch: u64) -> CharacterizationPoint {
        let _span = obs::span("analysis.characterize_symbolic")
            .with_arg("domain", cfg.domain().key())
            .with_arg("subbatch", subbatch);
        self.price_one(cfg, subbatch)
    }

    /// Characterize a batch of `(configuration, subbatch)` points. Jobs that
    /// share a configuration are grouped onto one instance and priced in a
    /// single batched-VM grid evaluation; groups run on the rayon pool.
    /// Output order matches input order, so results are deterministic — and
    /// bit-identical to calling [`characterize`](FamilyEngine::characterize)
    /// per job.
    pub fn characterize_many(&self, jobs: &[(ModelConfig, u64)]) -> Vec<CharacterizationPoint> {
        let _span = obs::span("analysis.characterize_many").with_arg("jobs", jobs.len() as u64);
        self.price_many(jobs)
    }

    /// Labels consumed per batch element by `cfg`'s family graph — the
    /// slope of `samples_per_step(b)`. Width-independent, so the cached
    /// family answers without building a concrete instance.
    pub fn labels_per_sample(&self, cfg: &ModelConfig) -> u64 {
        self.family(cfg).labels_per_sample
    }

    /// `cfg`'s training-step FLOPs and bytes with the widths bound, free in
    /// [`BATCH_SYM`] only: the same interned expressions as the concrete
    /// build's `stats_interned()`, read off the cached instance.
    pub(crate) fn step_costs(&self, cfg: &ModelConfig) -> (ExprId, ExprId) {
        let inst = self.instance(&FamilyEngine::instance_key(cfg), cfg);
        (inst.roots[1], inst.roots[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelzoo::Domain;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use symath::Expr;

    /// How often the fake spec's families were built and its instances
    /// bound. One per test, so tests running in parallel do not share them.
    #[derive(Default)]
    struct Counters {
        builds: AtomicUsize,
        binds: AtomicUsize,
    }

    /// A fake spec that counts: a configuration is `(counters, family,
    /// width)`, its one root is `family · width · batch`, and a point is
    /// `(family, width, batch, value)`. The core reads a family's roots
    /// once per bind, so `roots` counts the binds.
    struct Counting;

    impl Spec for Counting {
        type Config = (&'static Counters, u64, u64);
        type Family = (&'static Counters, [ExprId; 1]);
        type Point = (u64, u64, u64, f64);

        fn family_key(&(_, family, _): &Self::Config) -> String {
            format!("fake;{family}")
        }

        fn widths(&(_, _, width): &Self::Config) -> Bindings {
            Bindings::new().with("fake_w", width as f64)
        }

        fn build_family(&(counters, family, _): &Self::Config) -> Self::Family {
            counters.builds.fetch_add(1, Ordering::Relaxed);
            // Slow enough that concurrent callers of one family overlap.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let root = Expr::int(family as i128) * Expr::sym("fake_w") * modelzoo::batch();
            (counters, [root.interned()])
        }

        fn roots((counters, roots): &Self::Family) -> &[ExprId] {
            counters.binds.fetch_add(1, Ordering::Relaxed);
            roots
        }

        fn point(
            _: &Self::Family,
            &(_, family, width): &Self::Config,
            batch: u64,
            row: &[f64],
        ) -> Self::Point {
            (family, width, batch, row[0])
        }
    }

    fn counters() -> &'static Counters {
        Box::leak(Box::default())
    }

    fn counts(c: &Counters) -> (usize, usize) {
        (
            c.builds.load(Ordering::Relaxed),
            c.binds.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn core_builds_each_family_once_and_binds_each_instance_once() {
        let c = counters();
        let engine: Engine<Counting> = Engine::new();
        // Families 1 and 2, four instances, repeated keys interleaved. Four
        // groups fan out over more than one worker, so both workers ask
        // for both families at once.
        let keys = [
            (1, 10),
            (2, 20),
            (1, 10),
            (1, 30),
            (2, 20),
            (2, 40),
            (1, 10),
            (1, 30),
        ];
        let jobs: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, &(f, w))| ((c, f, w), i as u64 + 1))
            .collect();
        let points = engine.price_many(&jobs);
        assert_eq!(counts(c), (2, 4), "(family builds, instance binds)");
        assert_eq!(engine.families_built(), 2);
        assert_eq!(engine.instances_cached(), 4);
        let expect: Vec<_> = jobs
            .iter()
            .map(|&((_, f, w), b)| (f, w, b, (f * w * b) as f64))
            .collect();
        assert_eq!(points, expect, "results in input order");
        // A repeat is served from the caches.
        assert_eq!(engine.price_many(&jobs), expect);
        assert_eq!(counts(c), (2, 4));
    }

    #[test]
    fn core_binds_nothing_for_an_empty_job_list() {
        let c = counters();
        let engine: Engine<Counting> = Engine::new();
        assert!(engine.price_many(&[]).is_empty());
        assert_eq!(counts(c), (0, 0));
        assert_eq!(engine.families_built(), 0);
        assert_eq!(engine.instances_cached(), 0);
    }

    #[test]
    fn core_binds_an_evicted_instance_again() {
        let c = counters();
        let engine: Engine<Counting> = Engine::with_instance_capacity(1);
        assert_eq!(engine.price_one(&(c, 1, 10), 2), (1, 10, 2, 20.0));
        assert_eq!(engine.price_one(&(c, 1, 10), 3), (1, 10, 3, 30.0));
        assert_eq!(counts(c), (1, 1), "a cached instance is not bound again");
        engine.price_one(&(c, 1, 20), 2);
        assert_eq!(counts(c), (1, 2));
        // (1, 10) was evicted by (1, 20): it is bound again, and the family
        // is not rebuilt.
        assert_eq!(engine.price_one(&(c, 1, 10), 4), (1, 10, 4, 40.0));
        assert_eq!(counts(c), (1, 3));
        assert_eq!(engine.instances_cached(), 1);
    }

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
    fn stored_family_fields_match_the_concrete_build() {
        // A family keeps `seq_len` and `labels_per_sample` as fields rather
        // than reading them off a retained graph: pin them to the concrete
        // training graph's for every domain.
        let engine = FamilyEngine::new();
        for domain in Domain::ALL {
            let cfg = ModelConfig::default_for(domain);
            let model = cfg.build_training();
            assert_eq!(
                engine.labels_per_sample(&cfg),
                model.labels_per_sample,
                "{domain:?}"
            );
            assert_eq!(
                engine.characterize(&cfg, 4).seq_len,
                model.seq_len,
                "{domain:?}"
            );
        }
    }

    #[test]
    fn step_costs_match_the_concrete_build() {
        // Figure 11 reads its affine batch coefficients off these ids. Equal
        // ids are equal expressions, so the coefficients are the concrete
        // build's exactly.
        let engine = FamilyEngine::new();
        for domain in Domain::ALL {
            let cfg = crate::frontier_config(domain);
            let stats = cfg.build_training().graph.stats_interned();
            assert_eq!(
                engine.step_costs(&cfg),
                (stats.flops, stats.bytes),
                "{domain:?}"
            );
        }
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
