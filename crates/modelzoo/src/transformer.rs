//! Decoder-only Transformer language model — a post-paper architecture
//! (Vaswani et al. 2017) added to test the paper's framework on the model
//! family that ultimately dominated. The paper's own caveat motivates it:
//! "it is very difficult to predict the model structures that will be
//! important for future DL applications" (§1).
//!
//! Per layer: fused QKV + output projections (`4d²` parameters), a
//! 4×-wide MLP (`8d²`), and two pre-norms. Attention is batched per
//! sequence (`[b, q, q]` score tensors), so its FLOPs carry the
//! quadratic-in-`q` term that distinguishes Transformers from the paper's
//! recurrent models: training FLOPs/param ≈ `6q + q²/d` with tying.

use cgraph::{DType, Graph};
use serde::{Deserialize, Serialize};
use symath::Expr;

use crate::common::{batch, Domain, ModelGraph};
use crate::decode::{build_trunk, output_head};

/// Hyperparameters of the Transformer LM.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Vocabulary size.
    pub vocab: u64,
    /// Model width `d`.
    pub d_model: u64,
    /// Decoder layers.
    pub layers: u64,
    /// Sequence length `q`.
    pub seq_len: u64,
    /// MLP expansion factor (canonically 4).
    pub ff_mult: u64,
    /// Tie the embedding with the output projection.
    pub tied_embedding: bool,
}

impl Default for TransformerConfig {
    fn default() -> TransformerConfig {
        TransformerConfig {
            vocab: 40_000,
            d_model: 1024,
            layers: 12,
            seq_len: 80,
            ff_mult: 4,
            tied_embedding: true,
        }
    }
}

impl TransformerConfig {
    /// Closed-form parameter count mirroring the builder.
    pub fn param_formula(&self) -> u64 {
        let d = self.d_model;
        let per_layer = 4 * d * d               // Wq, Wk, Wv, Wo
            + 2 * self.ff_mult * d * d          // MLP in/out
            + 2 * (2 * d); // two norms (scale+shift)
        let out = if self.tied_embedding {
            0
        } else {
            d * self.vocab
        };
        self.vocab * d + self.layers * per_layer + out + self.vocab // + out bias
    }

    /// Solve the parameter formula for `d_model` (quadratic).
    pub fn with_target_params(mut self, target: u64) -> TransformerConfig {
        let a = (self.layers * (4 + 2 * self.ff_mult)) as f64;
        let c1 = if self.tied_embedding {
            self.vocab as f64
        } else {
            2.0 * self.vocab as f64
        } + (4 * self.layers) as f64;
        let t = target.saturating_sub(self.vocab) as f64;
        let d = ((c1 * c1 + 4.0 * a * t).sqrt() - c1) / (2.0 * a);
        self.d_model = (d.round() as u64).max(8);
        self
    }
}

/// Build the forward graph for `cfg`: the shared decoder trunk over
/// `(batch, seq_len, d_model)`, the output head, and the cross-entropy loss.
pub fn build_transformer(cfg: &TransformerConfig) -> ModelGraph {
    let mut g = Graph::new(format!("transformer_d{}", cfg.d_model));
    let b = batch();
    let q = cfg.seq_len;
    let d = Expr::from(cfg.d_model);
    let (x, table) = build_trunk(&mut g, cfg, &b, &Expr::from(q), &d);
    let logits = output_head(&mut g, cfg, x, table, &d);
    let labels = g
        .input("labels", [b * Expr::from(q)], DType::I32)
        .expect("labels");
    let loss = g.cross_entropy("loss", logits, labels).expect("loss");

    ModelGraph {
        graph: g,
        loss,
        domain: Domain::WordLm, // same task family; not part of Domain::ALL
        is_training: false,
        seq_len: q,
        labels_per_sample: q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wordlm::{build_word_lm, WordLmConfig};

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
    fn param_count_matches_closed_form() {
        for tied in [true, false] {
            let cfg = TransformerConfig {
                tied_embedding: tied,
                ..small()
            };
            let m = build_transformer(&cfg);
            assert_eq!(m.param_count(), cfg.param_formula(), "tied = {tied}");
            m.graph.validate().unwrap();
        }
    }

    #[test]
    fn training_graph_validates() {
        let m = build_transformer(&small()).into_training();
        m.graph.validate().unwrap();
    }

    #[test]
    fn with_target_params_inverts_formula() {
        for target in [10_000_000u64, 300_000_000] {
            let cfg = TransformerConfig::default().with_target_params(target);
            let rel = (cfg.param_formula() as f64 - target as f64).abs() / target as f64;
            assert!(rel < 0.05, "target {target}: rel err {rel}");
        }
    }

    #[test]
    fn flops_per_param_is_6q_plus_attention_term() {
        // Training FLOPs/param ≈ 6q + O(q²/d): with d ≫ q it approaches the
        // LSTM's 6q; the attention surcharge is the architectural signature.
        let cfg = TransformerConfig {
            vocab: 1000,
            d_model: 512,
            layers: 4,
            seq_len: 16,
            ff_mult: 4,
            tied_embedding: true,
        };
        let m = build_transformer(&cfg).into_training();
        let n = m.graph.stats().eval(&m.bindings_with_batch(1)).unwrap();
        let ratio = n.flops / n.params;
        let floor = 6.0 * cfg.seq_len as f64;
        assert!(
            ratio > floor && ratio < 1.35 * floor,
            "flops/param {ratio} vs 6q = {floor}"
        );
    }

    #[test]
    fn attention_flops_grow_quadratically_in_sequence_length() {
        let flops_at = |q: u64| {
            let cfg = TransformerConfig {
                seq_len: q,
                ..small()
            };
            let m = build_transformer(&cfg).into_training();
            m.graph
                .stats()
                .eval(&m.bindings_with_batch(1))
                .unwrap()
                .flops
        };
        // Subtract the linear-in-q part measured at two small lengths; what
        // remains must scale ~4× when q doubles.
        let (f8, f16, f32_) = (flops_at(8), flops_at(16), flops_at(32));
        let linear = f16 - f8; // ≈ slope · 8 (plus small quadratic residue)
        let growth_16_32 = f32_ - f16;
        assert!(
            growth_16_32 > 2.0 * linear,
            "expected superlinear growth: {growth_16_32} vs linear {linear}"
        );
    }

    #[test]
    fn matches_lstm_cost_family_at_equal_params_and_tokens() {
        // At the same parameter budget, token budget, and d ≫ q, the
        // Transformer and the tied LSTM cost within ~25% of each other per
        // step — the architectures differ, the paper's FLOPs/param logic
        // carries over.
        let target = 30_000_000u64;
        let q = 16u64;
        let tf = build_transformer(
            &TransformerConfig {
                seq_len: q,
                ..TransformerConfig::default()
            }
            .with_target_params(target),
        )
        .into_training();
        let lstm = build_word_lm(
            &WordLmConfig {
                seq_len: q,
                ..WordLmConfig::default()
            }
            .with_target_params(target),
        )
        .into_training();
        let ntf = tf.graph.stats().eval(&tf.bindings_with_batch(8)).unwrap();
        let nlstm = lstm
            .graph
            .stats()
            .eval(&lstm.bindings_with_batch(8))
            .unwrap();
        let ratio = ntf.flops / nlstm.flops;
        assert!(
            (0.75..1.35).contains(&ratio),
            "transformer/LSTM step FLOPs ratio {ratio}"
        );
    }
}
