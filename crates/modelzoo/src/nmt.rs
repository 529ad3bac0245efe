//! Neural machine translation: bi-LSTM encoder, LSTM decoder, dot attention,
//! output selection (paper Fig 4).

use cgraph::{DType, Graph};
use symath::Expr;

use crate::attention::{attention_combine, attention_step, stack_timesteps};
use crate::common::{batch, Domain, ModelGraph};
use crate::lstm::{bilstm_layer, lstm_layer, split_timesteps};

/// Hyperparameters of the NMT model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NmtConfig {
    /// Word-piece vocabulary size (shared source/target).
    pub vocab: u64,
    /// Hidden width `h`.
    pub hidden: u64,
    /// Decoder LSTM layers.
    pub decoder_layers: u64,
    /// Source sequence length.
    pub src_len: u64,
    /// Target sequence length.
    pub tgt_len: u64,
}

impl Default for NmtConfig {
    fn default() -> NmtConfig {
        // Word-piece NMT with ~25-step unroll — the Table 2 FLOPs/param
        // asymptote (≈ 6q = 149) pins the effective sequence length near 25.
        NmtConfig {
            vocab: 32_000,
            hidden: 1024,
            decoder_layers: 2,
            src_len: 25,
            tgt_len: 25,
        }
    }
}

impl NmtConfig {
    /// Closed-form parameter count mirroring the builder.
    pub fn param_formula(&self) -> u64 {
        let (v, h) = (self.vocab, self.hidden);
        let lstm = |in_dim: u64| in_dim * 4 * h + h * 4 * h + 4 * h;
        let src_emb = v * h;
        let enc = 2 * lstm(h) /* bi */ + lstm(2 * h);
        let tgt_emb = v * h;
        let dec: u64 = (0..self.decoder_layers).map(|_| lstm(h)).sum();
        let combine = 2 * h * h; // W_c [2h, h]
        let out = h * v + v;
        src_emb + enc + tgt_emb + dec + combine + out
    }

    /// Solve the parameter formula for `hidden` (quadratic).
    pub fn with_target_params(mut self, target: u64) -> NmtConfig {
        // p ≈ (16 + 12 + 8·L_dec + 2)h² + 3v·h (two embeddings + output)
        let a = (16 + 12 + 8 * self.decoder_layers + 2) as f64;
        let c1 = 3.0 * self.vocab as f64;
        let t = target as f64;
        let h = ((c1 * c1 + 4.0 * a * t).sqrt() - c1) / (2.0 * a);
        self.hidden = (h.round() as u64).max(8);
        self
    }
}

/// Build the forward graph for `cfg`.
pub fn build_nmt(cfg: &NmtConfig) -> ModelGraph {
    build_nmt_dims(cfg, Expr::from(cfg.hidden))
}

/// Build the forward graph with the hidden width given as an expression
/// (possibly a free symbol). See [`build_word_lm_dims`] for the exactness
/// contract shared by all `_dims` builders.
///
/// [`build_word_lm_dims`]: crate::wordlm::build_word_lm_dims
pub fn build_nmt_dims(cfg: &NmtConfig, h: impl Into<Expr>) -> ModelGraph {
    let h = h.into();
    let mut g = Graph::new(format!("nmt_h{h}"));
    let b = batch();
    let v = cfg.vocab;

    // ---- Encoder ----
    let src = g
        .input(
            "src_tokens",
            [b.clone(), Expr::from(cfg.src_len)],
            DType::I32,
        )
        .expect("fresh graph");
    let src_table = g
        .weight("src_embedding", [Expr::from(v), h.clone()])
        .expect("weight");
    let src_emb = g.gather("src_embed", src_table, src).expect("gather");
    let src_steps = split_timesteps(&mut g, "src_steps", src_emb, cfg.src_len).expect("split");

    let bi = bilstm_layer(&mut g, "enc.bi", &src_steps, h.clone(), h.clone()).expect("bilstm");
    let enc_top = lstm_layer(
        &mut g,
        "enc.l1",
        &bi,
        Expr::from(2u64) * h.clone(),
        h.clone(),
        false,
    )
    .expect("enc lstm");
    let memory = stack_timesteps(&mut g, "enc.memory", &enc_top).expect("stack");

    // ---- Decoder ----
    let tgt = g
        .input(
            "tgt_tokens",
            [b.clone(), Expr::from(cfg.tgt_len)],
            DType::I32,
        )
        .expect("input");
    let tgt_table = g
        .weight("tgt_embedding", [Expr::from(v), h.clone()])
        .expect("weight");
    let tgt_emb = g.gather("tgt_embed", tgt_table, tgt).expect("gather");
    let mut dec_steps = split_timesteps(&mut g, "tgt_steps", tgt_emb, cfg.tgt_len).expect("split");

    for layer in 0..cfg.decoder_layers {
        dec_steps = lstm_layer(
            &mut g,
            &format!("dec.l{layer}"),
            &dec_steps,
            h.clone(),
            h.clone(),
            false,
        )
        .expect("dec lstm");
    }

    // Per-step attention + combine.
    let mut attn_outs = Vec::with_capacity(dec_steps.len());
    for (t, &h_t) in dec_steps.iter().enumerate() {
        let ctx = attention_step(&mut g, &format!("attn.t{t}"), h_t, memory).expect("attention");
        let out = attention_combine(
            &mut g,
            &format!("attn.t{t}"),
            "attn.wc",
            ctx,
            h_t,
            h.clone(),
        )
        .expect("combine");
        attn_outs.push(out);
    }

    // ---- Output ----
    let stacked = stack_timesteps(&mut g, "dec.out", &attn_outs).expect("stack");
    let flat = g
        .reshape(
            "flatten",
            stacked,
            [b.clone() * Expr::from(cfg.tgt_len), h.clone()],
        )
        .expect("reshape");
    let wo = g.weight("out.w", [h.clone(), Expr::from(v)]).expect("w");
    let bo = g.weight("out.b", [Expr::from(v)]).expect("b");
    let logits = g.matmul("out", flat, wo, false, false).expect("matmul");
    let logits = g.bias_add("out_bias", logits, bo).expect("bias");
    let labels = g
        .input("labels", [b * Expr::from(cfg.tgt_len)], DType::I32)
        .expect("labels");
    let loss = g.cross_entropy("loss", logits, labels).expect("loss");

    ModelGraph {
        graph: g,
        loss,
        domain: Domain::Nmt,
        is_training: false,
        seq_len: cfg.src_len + cfg.tgt_len,
        labels_per_sample: cfg.tgt_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NmtConfig {
        NmtConfig {
            vocab: 500,
            hidden: 32,
            decoder_layers: 2,
            src_len: 5,
            tgt_len: 4,
        }
    }

    #[test]
    fn param_count_matches_closed_form() {
        let cfg = small();
        let m = build_nmt(&cfg);
        assert_eq!(m.param_count(), cfg.param_formula());
        m.graph.validate().unwrap();
    }

    #[test]
    fn training_graph_validates() {
        let m = build_nmt(&small()).into_training();
        m.graph.validate().unwrap();
    }

    #[test]
    fn attention_ops_present_per_decoder_step() {
        let cfg = small();
        let m = build_nmt(&cfg);
        let softmaxes = m
            .graph
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, cgraph::OpKind::Softmax))
            .count();
        assert_eq!(softmaxes, cfg.tgt_len as usize);
    }

    #[test]
    fn with_target_params_inverts_formula() {
        for target in [5_000_000u64, 80_000_000] {
            let cfg = NmtConfig::default().with_target_params(target);
            let rel = (cfg.param_formula() as f64 - target as f64).abs() / target as f64;
            assert!(rel < 0.05, "target {target}: rel err {rel}");
        }
    }

    #[test]
    fn flops_are_affine_in_batch() {
        // Activation math scales with b; weight updates and weight-gradient
        // accumulation do not, so step FLOPs are A·b + C (paper: "batched
        // training roughly multiplies these values by the subbatch size").
        let m = build_nmt(&small()).into_training();
        let s = m.graph.stats();
        let f1 = s.flops.eval(&m.bindings_with_batch(1)).unwrap();
        let f2 = s.flops.eval(&m.bindings_with_batch(2)).unwrap();
        let f8 = s.flops.eval(&m.bindings_with_batch(8)).unwrap();
        let predicted = f1 + 7.0 * (f2 - f1);
        assert!((f8 - predicted).abs() < 1e-6 * f8, "{f8} vs {predicted}");
    }
}
