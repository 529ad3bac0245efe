//! The inference workload family: prefill/decode characterization with
//! symbolic KV-cache accounting.
//!
//! Training characterization prices one step of `fwd + autodiff + update`;
//! serving the same model prices two very different forward-only phases
//! (see [`modelzoo::build_transformer_prefill_dims`] /
//! [`modelzoo::build_transformer_decode_dims`]):
//!
//! * **prefill** — the prompt pass. Training-like matmul shapes,
//!   compute-bound, sets time-to-first-token.
//! * **decode** — one token per sequence per step. Weight and KV-cache
//!   reads dominate; arithmetic intensity collapses to O(1) FLOP/byte and
//!   the accelerator's memory bandwidth, not its peak FLOP/s, prices the
//!   step.
//!
//! The [`InferEngine`] is the [`Engine`](crate::Engine) core run with the
//! [`Serving`] spec: one **symbolic family build** per structural
//! configuration (vocab, layers, MLP width, tying) with batch, context
//! length, prompt length, head count, and head dimension left free; per
//! request, the width symbols are substituted **exactly** (`bind_all`,
//! memoized) and the closed forms are evaluated across batches as one
//! batched register-VM grid (a single point is a one-row grid). Every
//! number is **bit-identical** to the brute-force path
//! ([`characterize_infer`]) that rebuilds concrete graphs per point — the
//! builders combine dimensions with ring operations only, so substitution
//! commutes with building.
//!
//! The KV-cache footprint is the interned expression
//! `2 · layers · b · ctx · heads · head_dim · dtype_bytes`
//! ([`kv_cache_expr`]) in exactly the four request symbols, so KV memory
//! sweeps for free alongside the graph stats: one `bind_all` per distinct
//! `(ctx, heads, head_dim)`, one grid column per batch.

use std::sync::OnceLock;

use modelzoo::{
    batch, build_transformer_decode_dims, build_transformer_prefill_dims, TransformerConfig,
    BATCH_SYM, CTX_SYM, HEADS_SYM, HEAD_DIM_SYM, PROMPT_SYM,
};
use roofline::{roofline_time, Accelerator, Bound};
use symath::{Bindings, Expr, ExprId};

use crate::engine::{Engine, Spec};

/// Bytes per KV-cache element (the builders cache K/V in f32).
pub const KV_DTYPE_BYTES: u64 = 4;

/// Structural configuration of the served Transformer.
///
/// `heads`/`head_dim` are carried as numbers here but enter the symbolic
/// family as free symbols ([`HEADS_SYM`], [`HEAD_DIM_SYM`]) with
/// `d_model = heads · head_dim`; the structural family key covers only the
/// fields that change the graph's shape-independent structure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InferConfig {
    /// Vocabulary size.
    pub vocab: u64,
    /// Attention head count.
    pub heads: u64,
    /// Per-head dimension (`d_model = heads · head_dim`).
    pub head_dim: u64,
    /// Decoder layers.
    pub layers: u64,
    /// MLP expansion factor.
    pub ff_mult: u64,
    /// Tie the embedding with the output projection.
    pub tied_embedding: bool,
}

impl Default for InferConfig {
    fn default() -> InferConfig {
        InferConfig {
            vocab: 40_000,
            heads: 16,
            head_dim: 64,
            layers: 12,
            ff_mult: 4,
            tied_embedding: true,
        }
    }
}

impl InferConfig {
    /// Model width `d = heads · head_dim`.
    pub fn d_model(&self) -> u64 {
        self.heads * self.head_dim
    }

    /// The equivalent training-side config (seq_len/d_model are overridden
    /// by the inference builders' dims arguments).
    pub fn transformer(&self) -> TransformerConfig {
        TransformerConfig {
            vocab: self.vocab,
            d_model: self.d_model(),
            layers: self.layers,
            seq_len: 1,
            ff_mult: self.ff_mult,
            tied_embedding: self.tied_embedding,
        }
    }

    /// Serving parameter count (decode graph: trunk + output head).
    pub fn param_formula(&self) -> u64 {
        self.transformer().param_formula()
    }

    /// Key of the structural family: every field that changes graph
    /// structure rather than a swept width.
    pub fn family_key(&self) -> String {
        format!(
            "infer;v={};l={};ff={};tied={}",
            self.vocab, self.layers, self.ff_mult, self.tied_embedding
        )
    }
}

/// The KV-cache footprint of a decode step, symbolic in all four request
/// dimensions: `2 · layers · b · ctx · heads · head_dim · 4` bytes (K and V,
/// f32, per layer). Only `layers` is structural.
pub fn kv_cache_expr(layers: u64) -> Expr {
    Expr::int(2)
        * Expr::int(layers as i128)
        * batch()
        * Expr::sym(CTX_SYM)
        * Expr::sym(HEADS_SYM)
        * Expr::sym(HEAD_DIM_SYM)
        * Expr::int(KV_DTYPE_BYTES as i128)
}

/// Interned form of [`kv_cache_expr`] — the id the engine caches and
/// evaluates per sweep point.
pub fn kv_cache_id(layers: u64) -> ExprId {
    kv_cache_expr(layers).interned()
}

/// One characterized serving point: a `(batch, prompt, context)` evaluation
/// of a model's prefill and decode phases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InferPoint {
    /// Decode batch size (concurrent sequences).
    pub batch: u64,
    /// Prompt length (prefill tokens per sequence).
    pub prompt: u64,
    /// Decode context length (prompt + generated so far, current token
    /// included).
    pub context: u64,
    /// Serving parameter count.
    pub params: f64,
    /// Resident weight bytes (f32).
    pub weight_bytes: f64,
    /// Resident KV-cache bytes across the batch at this context length.
    pub kv_cache_bytes: f64,
    /// Prefill-phase algorithmic FLOPs (whole batch).
    pub prefill_flops: f64,
    /// Prefill-phase algorithmic bytes.
    pub prefill_bytes: f64,
    /// Prefill operational intensity, FLOP/B.
    pub prefill_intensity: f64,
    /// Decode-step algorithmic FLOPs (whole batch, one token each).
    pub decode_flops: f64,
    /// Decode-step algorithmic bytes (weights + KV stream + activations).
    pub decode_bytes: f64,
    /// Decode operational intensity, FLOP/B.
    pub decode_intensity: f64,
}

impl InferPoint {
    /// Resident serving memory: weights plus the KV cache. Decode-step
    /// activations are a few `b·d` vectors — noise next to either term —
    /// and are deliberately excluded from the capacity model.
    pub fn serving_bytes(&self) -> f64 {
        self.weight_bytes + self.kv_cache_bytes
    }
}

/// The serving [`Spec`]: prefill and decode of one served Transformer.
/// Its configuration is `(model, prompt, context)`; its family is the six
/// closed forms an [`InferPoint`] reads, built once per structural
/// configuration with prompt, context, head count and head dimension free.
pub struct Serving;

/// The serving engine: [`Serving`] points priced per
/// `(model, batch, prompt, context)`.
pub type InferEngine = Engine<Serving>;

impl Spec for Serving {
    type Config = (InferConfig, u64, u64);
    /// Decode params, prefill FLOPs and bytes, decode FLOPs and bytes, and
    /// the KV-cache bytes.
    type Family = [ExprId; 6];
    type Point = InferPoint;

    fn family_key((cfg, _, _): &Self::Config) -> String {
        cfg.family_key()
    }

    fn widths(&(cfg, prompt, context): &Self::Config) -> Bindings {
        Bindings::new()
            .with(PROMPT_SYM, prompt as f64)
            .with(CTX_SYM, context as f64)
            .with(HEADS_SYM, cfg.heads as f64)
            .with(HEAD_DIM_SYM, cfg.head_dim as f64)
    }

    fn build_family((cfg, _, _): &Self::Config) -> [ExprId; 6] {
        let tcfg = cfg.transformer();
        let d = Expr::sym(HEADS_SYM) * Expr::sym(HEAD_DIM_SYM);
        let (prefill, decode) = obs::time("modelzoo.build_infer_family", || {
            (
                build_transformer_prefill_dims(&tcfg, Expr::sym(PROMPT_SYM), d.clone()),
                build_transformer_decode_dims(&tcfg, Expr::sym(CTX_SYM), d),
            )
        });
        let prefill = prefill
            .graph
            .stats_interned()
            .forward_view()
            .expect("prefill graph is forward-only");
        let decode = decode
            .graph
            .stats_interned()
            .forward_view()
            .expect("decode graph is forward-only");
        [
            decode.params,
            prefill.flops,
            prefill.bytes,
            decode.flops,
            decode.bytes,
            kv_cache_id(cfg.layers),
        ]
    }

    fn roots(family: &[ExprId; 6]) -> &[ExprId] {
        family
    }

    /// The intensity ratios divide the same values the oracle divides.
    fn point(
        _: &[ExprId; 6],
        &(_, prompt, context): &Self::Config,
        batch: u64,
        row: &[f64],
    ) -> InferPoint {
        let [params, prefill_flops, prefill_bytes, decode_flops, decode_bytes, kv_cache_bytes] =
            row.try_into().expect("one value per root");
        InferPoint {
            batch,
            prompt,
            context,
            params,
            weight_bytes: 4.0 * params,
            kv_cache_bytes,
            prefill_flops,
            prefill_bytes,
            prefill_intensity: prefill_flops / prefill_bytes,
            decode_flops,
            decode_bytes,
            decode_intensity: decode_flops / decode_bytes,
        }
    }
}

impl InferEngine {
    /// The process-wide engine, shared by sweeps and the query server.
    pub fn global() -> &'static InferEngine {
        static GLOBAL: OnceLock<InferEngine> = OnceLock::new();
        GLOBAL.get_or_init(InferEngine::new)
    }

    /// Symbolic counterpart of [`characterize_infer`]: the same
    /// [`InferPoint`], bit-for-bit, from the cached closed forms, priced as
    /// a one-row grid.
    pub fn characterize(
        &self,
        cfg: &InferConfig,
        infer_batch: u64,
        prompt: u64,
        context: u64,
    ) -> InferPoint {
        let _span = obs::span("analysis.characterize_infer_symbolic")
            .with_arg("batch", infer_batch)
            .with_arg("context", context);
        self.price_one(&(*cfg, prompt, context), infer_batch)
    }

    /// Characterize a `(batch, context)` grid at one prompt length. Rows
    /// sharing a context share an instance and are priced in one batched-VM
    /// pass; contexts run on the rayon pool. Output order matches input
    /// order, so results are deterministic — and bit-identical to calling
    /// [`characterize`](InferEngine::characterize) per row.
    pub fn characterize_grid(
        &self,
        cfg: &InferConfig,
        prompt: u64,
        grid: &[(u64, u64)],
    ) -> Vec<InferPoint> {
        let _span = obs::span("analysis.characterize_infer_grid").with_arg("jobs", grid.len());
        let jobs: Vec<_> = grid
            .iter()
            .map(|&(b, ctx)| ((*cfg, prompt, ctx), b))
            .collect();
        self.price_many(&jobs)
    }
}

/// The brute-force oracle: build concrete prefill/decode graphs for this
/// exact `(batch, prompt, context)` point and walk their costs directly.
/// [`InferEngine::characterize`] must reproduce this bit-for-bit.
pub fn characterize_infer(
    cfg: &InferConfig,
    infer_batch: u64,
    prompt: u64,
    context: u64,
) -> InferPoint {
    let _span = obs::span("analysis.characterize_infer")
        .with_arg("batch", infer_batch)
        .with_arg("context", context);
    let tcfg = cfg.transformer();
    let d = cfg.d_model();
    let bindings = Bindings::new().with(BATCH_SYM, infer_batch as f64);
    let prefill = build_transformer_prefill_dims(&tcfg, prompt, d)
        .graph
        .stats_interned()
        .forward_view()
        .expect("prefill graph is forward-only")
        .eval(&bindings)
        .expect("bound");
    let decode = build_transformer_decode_dims(&tcfg, context, d)
        .graph
        .stats_interned()
        .forward_view()
        .expect("decode graph is forward-only")
        .eval(&bindings)
        .expect("bound");
    // Direct product, no symbolics: every factor and every partial product
    // is an integer far below 2^53, so this is exact — and therefore
    // bit-identical to the engine's batch-VM evaluation of the interned
    // KV expression (which computes the same integer).
    let kv = 2.0
        * cfg.layers as f64
        * infer_batch as f64
        * context as f64
        * cfg.heads as f64
        * cfg.head_dim as f64
        * KV_DTYPE_BYTES as f64;
    InferPoint {
        batch: infer_batch,
        prompt,
        context,
        params: decode.params,
        weight_bytes: 4.0 * decode.params,
        kv_cache_bytes: kv,
        prefill_flops: prefill.flops,
        prefill_bytes: prefill.bytes,
        prefill_intensity: prefill.operational_intensity(),
        decode_flops: decode.flops,
        decode_bytes: decode.bytes,
        decode_intensity: decode.operational_intensity(),
    }
}

/// One row of the serving case study: a decode batch size priced on a fixed
/// accelerator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServingRow {
    /// Decode batch size.
    pub batch: u64,
    /// Prefill seconds (whole batch, roofline).
    pub prefill_seconds: f64,
    /// Time to first token: prefill + one decode step.
    pub ttft_seconds: f64,
    /// One decode step, seconds (one token per sequence).
    pub decode_step_seconds: f64,
    /// Binding resource of the decode step.
    pub decode_bound: Bound,
    /// Decode arithmetic intensity, FLOP/B.
    pub decode_intensity: f64,
    /// Aggregate decode throughput, tokens/s.
    pub tokens_per_s: f64,
    /// Decode-phase algorithmic FLOP utilization.
    pub decode_flop_utilization: f64,
    /// Resident memory (weights + KV), GB.
    pub serving_gb: f64,
}

/// Table-5-style serving case study: one model, one accelerator, a batch
/// ladder showing the decode phase pinned to the memory roof.
#[derive(Clone, Debug)]
pub struct ServingCaseStudy {
    /// The served configuration.
    pub config: InferConfig,
    /// Serving parameter count.
    pub params: f64,
    /// Prompt length used for prefill/TTFT rows.
    pub prompt: u64,
    /// Decode context length.
    pub context: u64,
    /// The accelerator's achievable ridge point, FLOP/B — intensities below
    /// it price off memory bandwidth.
    pub ridge_point: f64,
    /// Rows in ascending batch order.
    pub rows: Vec<ServingRow>,
}

/// Run the serving case study for `cfg` on `accel`: sweep the decode batch
/// ladder and price both phases with the roofline. The decode phase stays
/// **memory-bound** at every batch size — batching amortizes the weight
/// stream but grows the KV stream in lockstep, so intensity never climbs
/// over the ridge the way training steps do.
pub fn serving_case_study(
    cfg: &InferConfig,
    accel: &Accelerator,
    prompt: u64,
    context: u64,
    batches: &[u64],
) -> ServingCaseStudy {
    let _span = obs::span("analysis.serving_case_study").with_arg("batches", batches.len());
    let engine = InferEngine::global();
    let rows = batches
        .iter()
        .map(|&b| {
            let p = engine.characterize(cfg, b, prompt, context);
            let prefill = roofline_time(p.prefill_flops, p.prefill_bytes, accel);
            let decode = roofline_time(p.decode_flops, p.decode_bytes, accel);
            ServingRow {
                batch: b,
                prefill_seconds: prefill.seconds,
                ttft_seconds: prefill.seconds + decode.seconds,
                decode_step_seconds: decode.seconds,
                decode_bound: decode.bound,
                decode_intensity: p.decode_intensity,
                tokens_per_s: b as f64 / decode.seconds,
                decode_flop_utilization: decode.flop_utilization,
                serving_gb: p.serving_bytes() / 1e9,
            }
        })
        .collect();
    let params = engine
        .characterize(cfg, batches.first().copied().unwrap_or(1), prompt, context)
        .params;
    ServingCaseStudy {
        config: *cfg,
        params,
        prompt,
        context,
        ridge_point: accel.achievable_ridge_point(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> InferConfig {
        InferConfig {
            vocab: 2000,
            heads: 4,
            head_dim: 16,
            layers: 3,
            ff_mult: 4,
            tied_embedding: true,
        }
    }

    #[test]
    fn engine_matches_brute_force_bitwise() {
        let engine = InferEngine::new();
        let cfg = small();
        for (b, p, ctx) in [(1u64, 8u64, 8u64), (4, 16, 48), (32, 8, 512)] {
            let brute = characterize_infer(&cfg, b, p, ctx);
            let fast = engine.characterize(&cfg, b, p, ctx);
            assert_eq!(brute, fast, "b={b} p={p} ctx={ctx}");
        }
    }

    #[test]
    fn one_family_build_serves_a_whole_grid() {
        let engine = InferEngine::new();
        let cfg = small();
        let grid: Vec<(u64, u64)> = [1u64, 4, 16]
            .iter()
            .flat_map(|&b| [32u64, 64, 128].iter().map(move |&c| (b, c)))
            .collect();
        let points = engine.characterize_grid(&cfg, 16, &grid);
        assert_eq!(engine.families_built(), 1);
        assert_eq!(points.len(), grid.len());
        for (i, &(b, ctx)) in grid.iter().enumerate() {
            assert_eq!(points[i], engine.characterize(&cfg, b, 16, ctx));
        }
        // heads·head_dim sweeps reuse the same family too.
        let wider = InferConfig {
            heads: 8,
            head_dim: 32,
            ..cfg
        };
        engine.characterize(&wider, 4, 16, 64);
        assert_eq!(engine.families_built(), 1);
    }

    #[test]
    fn instance_cache_is_bounded_lru() {
        let engine = InferEngine::with_instance_capacity(2);
        let cfg = small();
        for ctx in [32u64, 64, 128, 256] {
            engine.characterize(&cfg, 4, 16, ctx);
        }
        assert_eq!(engine.instances_cached(), 2);
        assert_eq!(engine.instance_capacity(), 2);
        // Eviction must not change results.
        let again = engine.characterize(&cfg, 4, 16, 32);
        assert_eq!(again, characterize_infer(&cfg, 4, 16, 32));
    }

    #[test]
    fn kv_cache_matches_decode_graph_io() {
        // The decode graph's IO is the token ids plus the streamed KV inputs,
        // so kv_cache_bytes must equal io minus the 4-byte token per
        // sequence — the interned expression and the graph agree.
        let cfg = small();
        let tcfg = cfg.transformer();
        let (b, ctx) = (8u64, 96u64);
        let io = build_transformer_decode_dims(&tcfg, ctx, cfg.d_model())
            .graph
            .stats_interned()
            .forward_view()
            .unwrap()
            .eval(&Bindings::new().with(BATCH_SYM, b as f64))
            .unwrap()
            .io;
        let p = characterize_infer(&cfg, b, 16, ctx);
        assert_eq!(p.kv_cache_bytes, io - 4.0 * b as f64);
    }

    #[test]
    fn params_match_closed_form() {
        for tied in [true, false] {
            let cfg = InferConfig {
                tied_embedding: tied,
                ..small()
            };
            let p = characterize_infer(&cfg, 1, 8, 8);
            assert_eq!(p.params, cfg.param_formula() as f64, "tied = {tied}");
        }
    }

    #[test]
    fn case_study_decode_is_memory_bound_below_ridge() {
        let accel = Accelerator::v100_like();
        let study = serving_case_study(
            &InferConfig::default(),
            &accel,
            512,
            1024,
            &[1, 4, 16, 64, 256],
        );
        assert_eq!(study.rows.len(), 5);
        for row in &study.rows {
            assert_eq!(
                row.decode_bound,
                Bound::Memory,
                "decode must price off memory bandwidth at batch {}",
                row.batch
            );
            assert!(
                row.decode_intensity < study.ridge_point,
                "batch {}: intensity {:.2} not below ridge {:.2}",
                row.batch,
                row.decode_intensity,
                study.ridge_point
            );
            assert!(row.ttft_seconds > row.prefill_seconds);
        }
        // Batching buys throughput (weight reads amortize)...
        assert!(study.rows[4].tokens_per_s > 4.0 * study.rows[0].tokens_per_s);
        // ...at a per-step latency cost.
        assert!(study.rows[4].decode_step_seconds > study.rows[0].decode_step_seconds);
    }
}
