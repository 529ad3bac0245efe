//! Character language model: recurrent highway network (paper Fig 3).
//!
//! Follows Zilly et al. (ICML 2017): one deep RHN "layer" whose recurrence
//! depth `d` stacks highway sublayers per timestep. The first sublayer mixes
//! the embedded input and the recurrent state (`4h²` parameters); deeper
//! sublayers transform the state only (`2h²` each), so the recurrent
//! parameter count is `2h²(d+1)` and every timestep touches all of it —
//! giving the `6q` FLOPs/param asymptote of Table 2 at `q = 150`.

use cgraph::{DType, Graph, GraphError, PointwiseFn, TensorId};
use symath::Expr;

use crate::common::{batch, Domain, ModelGraph};
use crate::lstm::split_timesteps;

/// Hyperparameters of the character LM.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CharLmConfig {
    /// Character vocabulary size (small: printable ASCII-ish).
    pub vocab: u64,
    /// Hidden width `h`.
    pub hidden: u64,
    /// Recurrence depth `d` (highway sublayers per timestep).
    pub depth: u64,
    /// Unrolled sequence length `q`.
    pub seq_len: u64,
}

impl Default for CharLmConfig {
    fn default() -> CharLmConfig {
        CharLmConfig {
            vocab: 98,
            hidden: 830, // Zilly et al.'s best depth-10 RHN width
            depth: 10,
            seq_len: 150,
        }
    }
}

impl CharLmConfig {
    /// Closed-form parameter count: embedding + recurrent + output + biases.
    pub fn param_formula(&self) -> u64 {
        let (v, h, d) = (self.vocab, self.hidden, self.depth);
        v * h + 2 * h * h * (d + 1) + 2 * h * d + h * v + v
    }

    /// Solve the parameter formula for `hidden` (quadratic).
    pub fn with_target_params(mut self, target: u64) -> CharLmConfig {
        let (v, d) = (self.vocab as f64, self.depth as f64);
        let a = 2.0 * (d + 1.0);
        let c1 = 2.0 * v + 2.0 * d;
        let t = target as f64;
        let h = ((c1 * c1 + 4.0 * a * t).sqrt() - c1) / (2.0 * a);
        self.hidden = (h.round() as u64).max(8);
        self
    }
}

/// Weights of one highway sublayer.
struct RhnSublayer {
    wx_h: Option<TensorId>,
    wx_t: Option<TensorId>,
    r_h: TensorId,
    r_t: TensorId,
    b_h: TensorId,
    b_t: TensorId,
}

fn rhn_sublayer_weights(
    g: &mut Graph,
    name: &str,
    hidden: Expr,
    with_input: bool,
) -> Result<RhnSublayer, GraphError> {
    let h = hidden;
    let make =
        |g: &mut Graph, suffix: &str| g.weight(format!("{name}.{suffix}"), [h.clone(), h.clone()]);
    let (wx_h, wx_t) = if with_input {
        (Some(make(g, "wx_h")?), Some(make(g, "wx_t")?))
    } else {
        (None, None)
    };
    Ok(RhnSublayer {
        wx_h,
        wx_t,
        r_h: make(g, "r_h")?,
        r_t: make(g, "r_t")?,
        b_h: g.weight(format!("{name}.b_h"), [h.clone()])?,
        b_t: g.weight(format!("{name}.b_t"), [h])?,
    })
}

/// One highway sublayer update: `s' = s + T ⊙ (H − s)` (with `s' = H ⊙ T`
/// when there is no incoming state at `t = 0`, matching zero-state folding).
fn rhn_sublayer(
    g: &mut Graph,
    name: &str,
    x: Option<TensorId>,
    s: Option<TensorId>,
    w: &RhnSublayer,
) -> Result<TensorId, GraphError> {
    let mut h_pre: Option<TensorId> = None;
    let mut t_pre: Option<TensorId> = None;
    if let Some(x) = x {
        h_pre = Some(g.matmul(
            &format!("{name}.xh"),
            x,
            w.wx_h.expect("input weights"),
            false,
            false,
        )?);
        t_pre = Some(g.matmul(
            &format!("{name}.xt"),
            x,
            w.wx_t.expect("input weights"),
            false,
            false,
        )?);
    }
    if let Some(s) = s {
        let sh = g.matmul(&format!("{name}.sh"), s, w.r_h, false, false)?;
        let st = g.matmul(&format!("{name}.st"), s, w.r_t, false, false)?;
        h_pre = Some(match h_pre {
            Some(p) => g.binary(&format!("{name}.hsum"), PointwiseFn::Add, p, sh)?,
            None => sh,
        });
        t_pre = Some(match t_pre {
            Some(p) => g.binary(&format!("{name}.tsum"), PointwiseFn::Add, p, st)?,
            None => st,
        });
    }
    let h_pre = h_pre.expect("sublayer needs x or s");
    let t_pre = t_pre.expect("sublayer needs x or s");
    let h_pre = g.bias_add(&format!("{name}.hb"), h_pre, w.b_h)?;
    let t_pre = g.bias_add(&format!("{name}.tb"), t_pre, w.b_t)?;
    let hh = g.unary(&format!("{name}.H"), PointwiseFn::Tanh, h_pre)?;
    let tt = g.unary(&format!("{name}.T"), PointwiseFn::Sigmoid, t_pre)?;
    match s {
        Some(s) => {
            let diff = g.binary(&format!("{name}.diff"), PointwiseFn::Sub, hh, s)?;
            let gated = g.binary(&format!("{name}.gate"), PointwiseFn::Mul, tt, diff)?;
            g.binary(&format!("{name}.out"), PointwiseFn::Add, s, gated)
        }
        None => g.binary(&format!("{name}.out"), PointwiseFn::Mul, hh, tt),
    }
}

/// Build the forward graph for `cfg`.
pub fn build_char_lm(cfg: &CharLmConfig) -> ModelGraph {
    build_char_lm_dims(cfg, Expr::from(cfg.hidden))
}

/// Build the forward graph with the hidden width given as an expression
/// (possibly a free symbol). See [`build_word_lm_dims`] for the exactness
/// contract shared by all `_dims` builders.
///
/// [`build_word_lm_dims`]: crate::wordlm::build_word_lm_dims
pub fn build_char_lm_dims(cfg: &CharLmConfig, h: impl Into<Expr>) -> ModelGraph {
    let h = h.into();
    let mut g = Graph::new(format!("charlm_h{h}"));
    let b = batch();
    let (v, q, d) = (cfg.vocab, cfg.seq_len, cfg.depth);

    let chars = g
        .input("chars", [b.clone(), Expr::from(q)], DType::I32)
        .expect("fresh graph");
    let table = g
        .weight("embedding", [Expr::from(v), h.clone()])
        .expect("fresh graph");
    let embedded = g.gather("embed", table, chars).expect("gather");
    let xs = split_timesteps(&mut g, "steps", embedded, q).expect("split");

    // Shared sublayer weights across timesteps (recurrent reuse).
    let sublayers: Vec<RhnSublayer> = (0..d)
        .map(|s| {
            rhn_sublayer_weights(&mut g, &format!("rhn{s}"), h.clone(), s == 0).expect("weights")
        })
        .collect();

    let mut state: Option<TensorId> = None;
    let mut outputs = Vec::with_capacity(q as usize);
    for (t, &x) in xs.iter().enumerate() {
        let mut s = state;
        for (si, w) in sublayers.iter().enumerate() {
            let x_in = if si == 0 { Some(x) } else { None };
            s = Some(rhn_sublayer(&mut g, &format!("t{t}.s{si}"), x_in, s, w).expect("sublayer"));
        }
        state = s;
        outputs.push(state.expect("depth ≥ 1"));
    }

    let stacked: Vec<TensorId> = outputs
        .iter()
        .enumerate()
        .map(|(t, &x)| {
            g.reshape(&format!("unsq{t}"), x, [b.clone(), Expr::one(), h.clone()])
                .expect("reshape")
        })
        .collect();
    let seq = g.concat("restack", &stacked, 1).expect("concat");
    let flat = g
        .reshape("flatten", seq, [b.clone() * Expr::from(q), h.clone()])
        .expect("reshape");

    let wo = g.weight("out.w", [h.clone(), Expr::from(v)]).expect("w");
    let bo = g.weight("out.b", [Expr::from(v)]).expect("b");
    let logits = g.matmul("out", flat, wo, false, false).expect("matmul");
    let logits = g.bias_add("out_bias", logits, bo).expect("bias");
    let labels = g
        .input("labels", [b * Expr::from(q)], DType::I32)
        .expect("labels");
    let loss = g.cross_entropy("loss", logits, labels).expect("loss");

    ModelGraph {
        graph: g,
        loss,
        domain: Domain::CharLm,
        is_training: false,
        seq_len: q,
        labels_per_sample: q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CharLmConfig {
        CharLmConfig {
            vocab: 50,
            hidden: 32,
            depth: 3,
            seq_len: 6,
        }
    }

    #[test]
    fn param_count_matches_closed_form() {
        let cfg = small();
        let m = build_char_lm(&cfg);
        assert_eq!(m.param_count(), cfg.param_formula());
        m.graph.validate().unwrap();
    }

    #[test]
    fn training_graph_validates() {
        let m = build_char_lm(&small()).into_training();
        m.graph.validate().unwrap();
    }

    #[test]
    fn flops_per_param_approaches_6q() {
        let cfg = CharLmConfig {
            vocab: 50,
            hidden: 256,
            depth: 4,
            seq_len: 8,
        };
        let m = build_char_lm(&cfg).into_training();
        let n = m.graph.stats().eval(&m.bindings_with_batch(1)).unwrap();
        let ratio = n.flops / n.params;
        let asymptote = 6.0 * cfg.seq_len as f64;
        assert!(
            ratio > 0.6 * asymptote && ratio < 1.2 * asymptote,
            "flops/param {ratio} vs 6q = {asymptote}"
        );
    }

    #[test]
    fn with_target_params_inverts_formula() {
        for target in [1_000_000u64, 50_000_000] {
            let cfg = CharLmConfig::default().with_target_params(target);
            let rel = (cfg.param_formula() as f64 - target as f64).abs() / target as f64;
            assert!(rel < 0.05, "target {target}: rel err {rel}");
        }
    }

    #[test]
    fn deeper_rhn_has_more_params_same_flop_ratio() {
        let shallow = CharLmConfig {
            depth: 2,
            ..small()
        };
        let deep = CharLmConfig {
            depth: 6,
            ..small()
        };
        let ps = build_char_lm(&shallow).param_count();
        let pd = build_char_lm(&deep).param_count();
        assert!(pd > ps);
    }
}
