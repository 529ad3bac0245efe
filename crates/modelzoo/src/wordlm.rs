//! Word language model: embedding → stacked LSTM → (optional projection) →
//! FC output over the vocabulary (paper Fig 2, §4.2, §6).

use cgraph::{DType, Graph, TensorId};
use symath::Expr;

use crate::common::{batch, Domain, ModelGraph};
use crate::lstm::{lstm_layer, split_timesteps};

/// Hyperparameters of the word LM.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WordLmConfig {
    /// Vocabulary size `v`.
    pub vocab: u64,
    /// Hidden width `h` per recurrent layer.
    pub hidden: u64,
    /// Number of stacked LSTM layers `l`.
    pub layers: u64,
    /// Unrolled sequence length `q`.
    pub seq_len: u64,
    /// Optional LSTM-projection width (paper §6.1): the last hidden layer is
    /// projected to this dimension before the output matmul.
    pub projection: Option<u64>,
    /// Share the embedding table with the output layer (weight tying).
    /// The paper's Table 2 asymptote — exactly `6q` FLOPs/param with a
    /// perfectly linear Figure 7 — only arises when every parameter is
    /// touched each unroll step, i.e. with tied embeddings. Incompatible
    /// with `projection` (the dimensions no longer match).
    pub tied_embedding: bool,
}

impl Default for WordLmConfig {
    fn default() -> WordLmConfig {
        // Matches the paper's characterization setup: 2-layer LSTM, 80-step
        // unroll, 40k vocabulary (the FLOPs/param asymptote 6q ≈ 480 of
        // Table 2 requires q = 80).
        WordLmConfig {
            vocab: 40_000,
            hidden: 1024,
            layers: 2,
            seq_len: 80,
            projection: None,
            tied_embedding: true,
        }
    }
}

impl WordLmConfig {
    /// Closed-form parameter count (embedding + recurrent + output):
    /// `p = v·h + 8h²·l + (proj terms | h·v)` plus biases.
    pub fn param_formula(&self) -> u64 {
        let h = self.hidden;
        let v = self.vocab;
        let l = self.layers;
        let recurrent = 8 * h * h * l + 4 * h * l;
        let (proj, out) = match self.projection {
            Some(p) => (h * p, p * v),
            None if self.tied_embedding => (0, 0), // output reuses the table
            None => (0, h * v),
        };
        v * h + recurrent + proj + out + v // embedding + rec + proj + out + out bias
    }

    /// Solve `param_formula ≈ target` for `hidden`, holding the other
    /// hyperparameters fixed (quadratic in `h`; projection treated at its
    /// default ratio when enabled).
    pub fn with_target_params(mut self, target: u64) -> WordLmConfig {
        // p ≈ 8l·h² + c₁·h with c₁ from embedding/output/projection terms.
        let l = self.layers as f64;
        let v = self.vocab as f64;
        let a = 8.0 * l;
        let c1 = match self.projection {
            // proj = h/8: h·(h/8) adds h²/8; output (h/8)·v adds v/8·h.
            Some(_) => v + v / 8.0,
            None if self.tied_embedding => v,
            None => 2.0 * v,
        };
        let a = match self.projection {
            Some(_) => a + 1.0 / 8.0,
            None => a,
        };
        // Discount the h-independent terms (output bias) before solving.
        let t = (target.saturating_sub(self.vocab)) as f64;
        let h = ((c1 * c1 + 4.0 * a * t).sqrt() - c1) / (2.0 * a);
        self.hidden = (h.round() as u64).max(8);
        if self.projection.is_some() {
            self.projection = Some((self.hidden / 8).max(1));
        }
        self
    }
}

/// Build the forward graph for `cfg`.
pub fn build_word_lm(cfg: &WordLmConfig) -> ModelGraph {
    build_word_lm_dims(cfg, Expr::from(cfg.hidden), cfg.projection.map(Expr::from))
}

/// Build the forward graph with the width dimensions given as expressions.
///
/// `cfg` supplies the *structure* (vocab, layer count, unroll length, tying,
/// whether a projection exists); `h` and `projection` supply the widths and
/// may be free symbols. Passing `Expr::from(cfg.hidden)` reproduces
/// [`build_word_lm`] exactly: the builder only combines widths with ring
/// operations (`+`, `×`), so an integer width and a symbol later substituted
/// with that integer yield the same canonical cost expressions.
pub fn build_word_lm_dims(
    cfg: &WordLmConfig,
    h: impl Into<Expr>,
    projection: Option<Expr>,
) -> ModelGraph {
    let h = h.into();
    assert!(
        !(cfg.tied_embedding && projection.is_some()),
        "weight tying is incompatible with an LSTM projection"
    );
    let mut g = Graph::new(format!("wordlm_h{h}"));
    let b = batch();
    let (v, q) = (cfg.vocab, cfg.seq_len);

    let tokens = g
        .input("tokens", [b.clone(), Expr::from(q)], DType::I32)
        .expect("fresh graph");
    let table = g
        .weight("embedding", [Expr::from(v), h.clone()])
        .expect("fresh graph");
    let embedded = g.gather("embed", table, tokens).expect("gather");

    let mut xs = split_timesteps(&mut g, "steps", embedded, q).expect("split");
    for layer in 0..cfg.layers {
        xs = lstm_layer(
            &mut g,
            &format!("lstm{layer}"),
            &xs,
            h.clone(),
            h.clone(),
            false,
        )
        .expect("lstm layer");
    }

    // Stack the per-step hiddens back to [b·q, h] for the output projection.
    let seq = {
        let stacked: Vec<TensorId> = xs
            .iter()
            .enumerate()
            .map(|(t, &x)| {
                g.reshape(&format!("unsq{t}"), x, [b.clone(), Expr::one(), h.clone()])
                    .expect("reshape")
            })
            .collect();
        g.concat("restack", &stacked, 1).expect("concat")
    };
    let flat = g
        .reshape("flatten", seq, [b.clone() * Expr::from(q), h.clone()])
        .expect("reshape");

    let features = match &projection {
        Some(p) => {
            let wp = g
                .weight("proj.w", [h.clone(), p.clone()])
                .expect("proj weight");
            g.matmul("proj", flat, wp, false, false).expect("proj")
        }
        None => flat,
    };

    let bo = g.weight("out.b", [Expr::from(v)]).expect("out bias");
    let logits = if cfg.tied_embedding && projection.is_none() {
        // Weight tying: logits = features · tableᵀ.
        g.matmul("out", features, table, false, true)
            .expect("out matmul")
    } else {
        let feat_dim = projection.unwrap_or(h);
        let wo = g
            .weight("out.w", [feat_dim, Expr::from(v)])
            .expect("out weight");
        g.matmul("out", features, wo, false, false)
            .expect("out matmul")
    };
    let logits = g.bias_add("out_bias", logits, bo).expect("bias");

    let labels = g
        .input("labels", [b * Expr::from(q)], DType::I32)
        .expect("labels");
    let loss = g.cross_entropy("loss", logits, labels).expect("loss");

    ModelGraph {
        graph: g,
        loss,
        domain: Domain::WordLm,
        is_training: false,
        seq_len: q,
        labels_per_sample: q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgraph::{footprint, Scheduler};

    fn small() -> WordLmConfig {
        WordLmConfig {
            vocab: 1000,
            hidden: 64,
            layers: 2,
            seq_len: 10,
            projection: None,
            tied_embedding: false,
        }
    }

    fn small_tied() -> WordLmConfig {
        WordLmConfig {
            tied_embedding: true,
            ..small()
        }
    }

    #[test]
    fn tied_embedding_gives_exact_6q_matmul_flops_per_param() {
        // With tying, every parameter is touched each unroll step:
        // forward matmul FLOPs = 2q·p exactly; training ≈ 6q·p.
        let cfg = small_tied();
        let m = build_word_lm(&cfg).into_training();
        let n = m.graph.stats().eval(&m.bindings_with_batch(1)).unwrap();
        let ratio = n.flops / n.params;
        let asymptote = 6.0 * cfg.seq_len as f64;
        // Pointwise gate math and the loss add ~10% on top of the matmuls
        // at this small width.
        assert!(
            (ratio / asymptote - 1.0).abs() < 0.15,
            "flops/param {ratio} vs 6q = {asymptote}"
        );
    }

    #[test]
    fn tied_embedding_removes_output_matrix_params() {
        let untied = build_word_lm(&small()).param_count();
        let tied = build_word_lm(&small_tied()).param_count();
        let (v, h) = (small().vocab, small().hidden);
        assert_eq!(untied - tied, v * h);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn tying_with_projection_is_rejected() {
        let cfg = WordLmConfig {
            tied_embedding: true,
            projection: Some(8),
            ..small()
        };
        let _ = build_word_lm(&cfg);
    }

    #[test]
    fn param_count_matches_closed_form() {
        let cfg = small();
        let m = build_word_lm(&cfg);
        assert_eq!(m.param_count(), cfg.param_formula());
        m.graph.validate().unwrap();
    }

    #[test]
    fn param_count_matches_closed_form_with_projection() {
        let cfg = WordLmConfig {
            projection: Some(8),
            ..small()
        };
        let m = build_word_lm(&cfg);
        assert_eq!(m.param_count(), cfg.param_formula());
    }

    #[test]
    fn flops_per_param_approaches_6q_for_large_h() {
        // Forward ≈ q(16h²l + 2hv); training ≈ 3× forward; params ≈ 8h²l+2hv.
        // As h → ∞ the ratio per sample → 6q (paper §4.2 asymptote).
        let cfg = WordLmConfig {
            vocab: 1000,
            hidden: 512,
            layers: 2,
            seq_len: 10,
            projection: None,
            tied_embedding: false,
        };
        let m = build_word_lm(&cfg).into_training();
        let n = m.graph.stats().eval(&m.bindings_with_batch(1)).unwrap();
        let ratio = n.flops / n.params;
        let asymptote = 6.0 * cfg.seq_len as f64;
        assert!(
            ratio > 0.6 * asymptote && ratio < 1.1 * asymptote,
            "flops/param {ratio} vs 6q = {asymptote}"
        );
    }

    #[test]
    fn training_graph_validates_and_updates_all_weights() {
        let m = build_word_lm(&small()).into_training();
        m.graph.validate().unwrap();
        let updates = m
            .graph
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, cgraph::OpKind::SgdUpdate))
            .count();
        // embedding + 2×(wx, wh, bias) + out.w + out.b = 9
        assert_eq!(updates, 9);
    }

    #[test]
    fn footprint_grows_with_batch() {
        let m = build_word_lm(&small()).into_training();
        let f1 = footprint(&m.graph, &m.bindings_with_batch(1), Scheduler::ProgramOrder)
            .unwrap()
            .peak_bytes;
        let f32_ = footprint(
            &m.graph,
            &m.bindings_with_batch(32),
            Scheduler::ProgramOrder,
        )
        .unwrap()
        .peak_bytes;
        assert!(f32_ > f1);
        // Persistent weights dominate at b=1, so scaling is sublinear in b.
        assert!(f32_ < 32 * f1);
    }

    #[test]
    fn with_target_params_inverts_formula() {
        for target in [1_000_000u64, 10_000_000, 100_000_000] {
            let cfg = WordLmConfig::default().with_target_params(target);
            let got = cfg.param_formula() as f64;
            let rel = (got - target as f64).abs() / target as f64;
            assert!(rel < 0.05, "target {target}: got {got} (rel err {rel})");
        }
    }

    #[test]
    fn projection_reduces_output_flops() {
        let base = WordLmConfig {
            vocab: 50_000,
            hidden: 256,
            layers: 2,
            seq_len: 10,
            projection: None,
            tied_embedding: false,
        };
        let proj = WordLmConfig {
            projection: Some(32),
            tied_embedding: false,
            ..base
        };
        let f_base = build_word_lm(&base)
            .into_training()
            .graph
            .stats()
            .eval(&symath::Bindings::new().with("b", 8.0))
            .unwrap()
            .flops;
        let f_proj = build_word_lm(&proj)
            .into_training()
            .graph
            .stats()
            .eval(&symath::Bindings::new().with("b", 8.0))
            .unwrap()
            .flops;
        assert!(
            f_proj < 0.5 * f_base,
            "projection should cut output-layer FLOPs: {f_proj} vs {f_base}"
        );
    }
}
