//! Inference-phase Transformer builders: prompt **prefill** and single-step
//! batched **decode**.
//!
//! Serving a decoder-only LM has two phases with opposite roofline
//! character (the "millions of users" regime of the paper's §1 north star):
//!
//! * **prefill** — the prompt is processed in one forward pass, identical in
//!   shape to a training forward pass minus the output head and loss. Large
//!   matmuls, compute-bound.
//! * **decode** — one token per sequence per step. Every weight matrix is
//!   read once per step regardless of batch size, and the per-sequence
//!   KV cache (`[b, ctx, d]` per layer for K and for V) is streamed from
//!   memory, so arithmetic intensity collapses toward O(1) FLOP/byte and
//!   the phase prices off memory bandwidth, not peak FLOP/s.
//!
//! Both builders are **dims-generic**: batch, sequence/context length, and
//! model width are `impl Into<Expr>`, and every shape is combined with ring
//! operations only (add/mul — no floors), so building once with symbols and
//! substituting via `bind_all` yields expressions *bit-identical* under
//! evaluation to building with the integers inlined. This is the same
//! contract the training-side `build_*_dims` builders follow, and it is what
//! lets the KV-cache footprint sweep symbolically through the inference
//! engine.
//!
//! The decode builder deliberately represents the KV cache as `Input`
//! tensors of length `ctx` (defined to *include* the current token) rather
//! than materializing a `Concat` append: a concat op would write the whole
//! `[b, ctx, d]` output each step, overcounting the append — the new token's
//! K/V rows are already counted as the QKV projection's output write.

use cgraph::{DType, Graph, GraphError, PointwiseFn, TensorId};
use symath::Expr;

use crate::common::batch;
use crate::transformer::TransformerConfig;

/// A forward-only inference graph plus its result tensor.
///
/// Unlike [`ModelGraph`](crate::ModelGraph) there is no loss and no training
/// path: these graphs price a serving step, and the forward-only stats view
/// (`stats_interned().forward_view()`) is guaranteed to be `Some`.
#[derive(Clone, Debug)]
pub struct InferGraph {
    /// The forward-only compute graph.
    pub graph: Graph,
    /// The final tensor: last hidden states for prefill, logits for decode.
    pub output: TensorId,
}

/// Symbol for the decode context length (prompt + generated so far).
pub const CTX_SYM: &str = "inf_ctx";
/// Symbol for the prompt (prefill) length.
pub const PROMPT_SYM: &str = "inf_p";
/// Symbol for the attention head count.
pub const HEADS_SYM: &str = "inf_h";
/// Symbol for the per-head dimension.
pub const HEAD_DIM_SYM: &str = "inf_hd";

fn norm_dims(g: &mut Graph, name: &str, x: TensorId, d: &Expr) -> Result<TensorId, GraphError> {
    // Modeled with the BatchNorm op (same algorithmic shape: statistics +
    // normalize + affine, 8 FLOPs/element), scale/shift weight `[2d]`.
    let gamma = g.weight(format!("{name}.ln"), [Expr::from(2) * d.clone()])?;
    g.batch_norm(&format!("{name}.ln_op"), x, gamma)
}

/// Transformer trunk shared by prefill and the training builder
/// ([`build_transformer`](crate::build_transformer)): embed `t` tokens per
/// sequence and run `cfg.layers` pre-norm blocks with full per-sequence attention
/// (`[b, t, t]` scores). Returns the final `[b·t, d]` hidden states and the
/// embedding table.
pub(crate) fn build_trunk(
    g: &mut Graph,
    cfg: &TransformerConfig,
    b: &Expr,
    t: &Expr,
    d: &Expr,
) -> (TensorId, TensorId) {
    let v = cfg.vocab;
    let bt = b.clone() * t.clone();

    let tokens = g.input("tokens", [bt.clone()], DType::I32).expect("input");
    let table = g
        .weight("embedding", [Expr::from(v), d.clone()])
        .expect("weight");
    let emb = g.gather("embed", table, tokens).expect("gather");
    let mut x = g
        .reshape("flat0", emb, [bt.clone(), d.clone()])
        .expect("reshape");

    for layer in 0..cfg.layers {
        let name = |s: &str| format!("l{layer}.{s}");
        // --- attention block (pre-norm) ---
        let normed = norm_dims(g, &name("attn"), x, d).expect("norm");
        let wqkv = g
            .weight(name("wqkv"), [d.clone(), Expr::from(3) * d.clone()])
            .expect("w");
        let qkv = g
            .matmul(&name("qkv"), normed, wqkv, false, false)
            .expect("mm");
        let parts = g.split(&name("qkv_split"), qkv, 1, 3).expect("split");
        let seq = |g: &mut Graph, tensor: TensorId, nm: String| {
            g.reshape(&nm, tensor, [b.clone(), t.clone(), d.clone()])
        };
        let q3 = seq(g, parts[0], name("q3")).expect("reshape");
        let k3 = seq(g, parts[1], name("k3")).expect("reshape");
        let v3 = seq(g, parts[2], name("v3")).expect("reshape");
        let scores = g
            .batch_matmul(&name("scores"), q3, k3, false, true)
            .expect("bmm");
        let probs = g.softmax(&name("softmax"), scores).expect("softmax");
        let ctx = g
            .batch_matmul(&name("ctx"), probs, v3, false, false)
            .expect("bmm");
        let ctx = g
            .reshape(&name("ctx_flat"), ctx, [bt.clone(), d.clone()])
            .expect("reshape");
        let wo = g.weight(name("wo"), [d.clone(), d.clone()]).expect("w");
        let proj = g.matmul(&name("proj"), ctx, wo, false, false).expect("mm");
        x = g
            .binary(&name("resid1"), PointwiseFn::Add, proj, x)
            .expect("add");

        // --- MLP block (pre-norm) ---
        let normed = norm_dims(g, &name("mlp"), x, d).expect("norm");
        let ff = Expr::from(cfg.ff_mult) * d.clone();
        let w1 = g.weight(name("w1"), [d.clone(), ff.clone()]).expect("w");
        let w2 = g.weight(name("w2"), [ff, d.clone()]).expect("w");
        let h = g
            .matmul(&name("mlp1"), normed, w1, false, false)
            .expect("mm");
        let h = g.unary(&name("gelu"), PointwiseFn::Tanh, h).expect("act");
        let h = g.matmul(&name("mlp2"), h, w2, false, false).expect("mm");
        x = g
            .binary(&name("resid2"), PointwiseFn::Add, h, x)
            .expect("add");
    }
    (x, table)
}

/// Attach the (optionally tied) output head: `[n, d] -> [n, vocab]` logits.
pub(crate) fn output_head(
    g: &mut Graph,
    cfg: &TransformerConfig,
    x: TensorId,
    table: TensorId,
    d: &Expr,
) -> TensorId {
    let bo = g.weight("out.b", [Expr::from(cfg.vocab)]).expect("bias");
    let logits = if cfg.tied_embedding {
        g.matmul("out", x, table, false, true).expect("tied out")
    } else {
        let wo = g
            .weight("out.w", [d.clone(), Expr::from(cfg.vocab)])
            .expect("w");
        g.matmul("out", x, wo, false, false).expect("out")
    };
    g.bias_add("out_bias", logits, bo).expect("bias")
}

/// Build the **prefill** graph: one forward pass over a `prompt`-token
/// prompt per sequence, producing the final hidden states (and, physically,
/// the KV cache — its write is the QKV projections' output, already priced).
///
/// No output head: the first emitted token comes from the first decode step,
/// so time-to-first-token = prefill + one decode step.
///
/// `cfg.seq_len` and `cfg.d_model` are ignored; the lengths and width come
/// from the `prompt` / `d_model` arguments so the same code path serves
/// concrete and symbolic builds.
pub fn build_transformer_prefill_dims(
    cfg: &TransformerConfig,
    prompt: impl Into<Expr>,
    d_model: impl Into<Expr>,
) -> InferGraph {
    let mut g = Graph::new("transformer_prefill");
    let b = batch();
    let p = prompt.into();
    let d = d_model.into();
    let (x, _table) = build_trunk(&mut g, cfg, &b, &p, &d);
    InferGraph {
        graph: g,
        output: x,
    }
}

/// Build one batched **decode step**: each of `b` sequences extends its
/// context (length `ctx`, current token included) by a single token.
///
/// The query is one token per sequence (`[b, 1, d]`); K and V are `Input`
/// tensors `[b, ctx, d]` per layer — the cache streamed from memory each
/// step. Scores are `[b, 1, ctx]`, so attention does `O(b·ctx·d)` FLOPs over
/// `O(b·ctx·d)` cache bytes: O(1) FLOP/byte, the memory-bound signature.
/// The step ends with the output head (`[b, vocab]` logits).
pub fn build_transformer_decode_dims(
    cfg: &TransformerConfig,
    ctx: impl Into<Expr>,
    d_model: impl Into<Expr>,
) -> InferGraph {
    let mut g = Graph::new("transformer_decode");
    let b = batch();
    let ctx = ctx.into();
    let d = d_model.into();
    let one = Expr::int(1);

    let tokens = g.input("tokens", [b.clone()], DType::I32).expect("input");
    let table = g
        .weight("embedding", [Expr::from(cfg.vocab), d.clone()])
        .expect("weight");
    let mut x = g.gather("embed", table, tokens).expect("gather");

    for layer in 0..cfg.layers {
        let name = |s: &str| format!("l{layer}.{s}");
        // --- attention block (pre-norm), query length 1 ---
        let normed = norm_dims(&mut g, &name("attn"), x, &d).expect("norm");
        let wqkv = g
            .weight(name("wqkv"), [d.clone(), Expr::from(3) * d.clone()])
            .expect("w");
        let qkv = g
            .matmul(&name("qkv"), normed, wqkv, false, false)
            .expect("mm");
        let parts = g.split(&name("qkv_split"), qkv, 1, 3).expect("split");
        let q3 = g
            .reshape(&name("q3"), parts[0], [b.clone(), one.clone(), d.clone()])
            .expect("reshape");
        // KV cache: inputs of length ctx (current token included) — the
        // per-step streaming traffic. The append write is parts[1]/parts[2],
        // already counted as the qkv matmul's output.
        let k_cache = g
            .input(
                name("k_cache"),
                [b.clone(), ctx.clone(), d.clone()],
                DType::F32,
            )
            .expect("input");
        let v_cache = g
            .input(
                name("v_cache"),
                [b.clone(), ctx.clone(), d.clone()],
                DType::F32,
            )
            .expect("input");
        let scores = g
            .batch_matmul(&name("scores"), q3, k_cache, false, true)
            .expect("bmm");
        let probs = g.softmax(&name("softmax"), scores).expect("softmax");
        let attn = g
            .batch_matmul(&name("ctx"), probs, v_cache, false, false)
            .expect("bmm");
        let attn = g
            .reshape(&name("ctx_flat"), attn, [b.clone(), d.clone()])
            .expect("reshape");
        let wo = g.weight(name("wo"), [d.clone(), d.clone()]).expect("w");
        let proj = g.matmul(&name("proj"), attn, wo, false, false).expect("mm");
        x = g
            .binary(&name("resid1"), PointwiseFn::Add, proj, x)
            .expect("add");

        // --- MLP block (pre-norm) ---
        let normed = norm_dims(&mut g, &name("mlp"), x, &d).expect("norm");
        let ff = Expr::from(cfg.ff_mult) * d.clone();
        let w1 = g.weight(name("w1"), [d.clone(), ff.clone()]).expect("w");
        let w2 = g.weight(name("w2"), [ff, d.clone()]).expect("w");
        let h = g
            .matmul(&name("mlp1"), normed, w1, false, false)
            .expect("mm");
        let h = g.unary(&name("gelu"), PointwiseFn::Tanh, h).expect("act");
        let h = g.matmul(&name("mlp2"), h, w2, false, false).expect("mm");
        x = g
            .binary(&name("resid2"), PointwiseFn::Add, h, x)
            .expect("add");
    }

    let logits = output_head(&mut g, cfg, x, table, &d);
    InferGraph {
        graph: g,
        output: logits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::BATCH_SYM;
    use symath::Bindings;

    fn small() -> TransformerConfig {
        TransformerConfig {
            vocab: 1000,
            d_model: 64,
            layers: 3,
            seq_len: 8,
            ff_mult: 4,
            tied_embedding: true,
        }
    }

    #[test]
    fn builders_validate_and_are_forward_only() {
        let cfg = small();
        for m in [
            build_transformer_prefill_dims(&cfg, 8u64, 64u64),
            build_transformer_decode_dims(&cfg, 8u64, 64u64),
        ] {
            m.graph.validate().unwrap();
            let stats = m.graph.stats_interned();
            assert!(
                stats.forward_view().is_some(),
                "inference graphs must have zero backward/update cost"
            );
        }
    }

    #[test]
    fn symbolic_build_binds_bit_identically_to_concrete() {
        let cfg = small();
        let (b, ctx, d) = (4u64, 23u64, 64u64);
        let sym = build_transformer_decode_dims(&cfg, Expr::sym(CTX_SYM), Expr::sym(HEAD_DIM_SYM));
        let conc = build_transformer_decode_dims(&cfg, ctx, d);
        let widths = Bindings::new()
            .with(CTX_SYM, ctx as f64)
            .with(HEAD_DIM_SYM, d as f64);
        let bound = sym.graph.stats_interned().bind_all(&widths);
        let batch_only = Bindings::new().with(BATCH_SYM, b as f64);
        let ns = bound.eval(&batch_only).unwrap();
        let nc = conc.graph.stats_interned().eval(&batch_only).unwrap();
        assert_eq!(ns, nc, "ring-ops-only contract broken");
    }

    #[test]
    fn decode_weight_traffic_is_batch_independent() {
        // One decode step reads every weight matrix exactly once, whatever
        // the batch: bytes(b) - b·(per-sequence bytes) is the constant weight
        // term, so bytes(2b) - bytes(b) = b·per_seq exactly.
        let cfg = small();
        let m = build_transformer_decode_dims(&cfg, 64u64, 64u64);
        let stats = m.graph.stats_interned();
        let at = |b: f64| {
            stats
                .eval(&Bindings::new().with(BATCH_SYM, b))
                .unwrap()
                .bytes
        };
        let (b1, b2, b3) = (at(1.0), at(2.0), at(3.0));
        assert!(
            (b3 - b2) - (b2 - b1) < 1e-6,
            "bytes must be affine in batch"
        );
        let weight_bytes = b1 - (b2 - b1);
        assert!(weight_bytes > 0.0, "constant weight-read term must exist");
    }

    #[test]
    fn decode_intensity_is_far_below_prefill_intensity() {
        let cfg = TransformerConfig {
            vocab: 4000,
            d_model: 512,
            layers: 6,
            seq_len: 128,
            ff_mult: 4,
            tied_embedding: true,
        };
        let b = Bindings::new().with(BATCH_SYM, 8.0);
        let prefill = build_transformer_prefill_dims(&cfg, 128u64, 512u64)
            .graph
            .stats_interned()
            .eval(&b)
            .unwrap();
        let decode = build_transformer_decode_dims(&cfg, 128u64, 512u64)
            .graph
            .stats_interned()
            .eval(&b)
            .unwrap();
        let (ip, id) = (
            prefill.operational_intensity(),
            decode.operational_intensity(),
        );
        assert!(
            ip > 10.0 * id,
            "prefill {ip:.1} FLOP/B should dwarf decode {id:.1} FLOP/B"
        );
        assert!(id < 10.0, "decode intensity should collapse toward O(1)");
    }
}
