//! Backward-graph construction (reverse-mode autodiff over the op IR).
//!
//! Given a forward graph ending in a [`OpKind::CrossEntropy`] loss, this pass
//! appends the backward ops (vector–Jacobian products per forward op),
//! incremental gradient-accumulation `Add` ops where a tensor feeds several
//! consumers, and one `SgdUpdate` per trainable weight. The generated ops carry the
//! right *cost structure* — e.g. a matmul's backward is two matmuls, so the
//! paper's "backward ≈ 2× forward FLOPs" emerges from the op model rather
//! than being asserted.

use std::collections::HashMap;

use crate::graph::{Graph, GraphError};
use crate::op::{OpId, OpKind, Phase, PointwiseFn};
use crate::tensor::{DType, TensorId, TensorKind};

/// Result of [`build_training_step`].
#[derive(Clone, Debug)]
pub struct TrainingStep {
    /// Gradient tensor per weight, in weight-creation order.
    pub weight_grads: Vec<(TensorId, TensorId)>,
    /// Number of backward ops appended.
    pub backward_ops: usize,
    /// Number of update ops appended.
    pub update_ops: usize,
}

/// Context threaded through the per-op backward rules.
struct Diff<'g> {
    g: &'g mut Graph,
    /// Partial gradients accumulated per forward tensor.
    partials: HashMap<TensorId, Vec<TensorId>>,
    /// Next free `#i` suffix per base name. Suffixes are only ever consumed
    /// in ascending order and names are never removed, so caching the probe
    /// cursor makes `unique_name` O(1) amortized instead of O(duplicates) —
    /// unrolled graphs repeat bases like `acc_grad_w.out` thousands of times.
    name_cursor: HashMap<String, u32>,
}

impl<'g> Diff<'g> {
    /// All gradients — including weight gradients — are freeable: a weight
    /// gradient's last consumer is its `SgdUpdate`, after which the memory
    /// is released. Marking partials persistent would hold every
    /// per-timestep partial for the whole step and inflate the footprint by
    /// orders of magnitude (this is what `TensorKind::WeightGradient`
    /// models for frameworks that do keep them; see the footprint ablation).
    fn grad_kind(&self, _forward: TensorId) -> TensorKind {
        TensorKind::Gradient
    }

    /// Record a partial gradient for `forward`. A second partial is folded
    /// into the first immediately with an `Add` op — incremental
    /// accumulation, so at most one partial per tensor is ever live (a
    /// framework that deferred all accumulation to one `AddN` would hold
    /// every per-timestep weight-gradient simultaneously and blow up the
    /// footprint).
    fn record(&mut self, forward: TensorId, grad: TensorId) {
        let parts = self.partials.entry(forward).or_default();
        if parts.is_empty() {
            parts.push(grad);
            return;
        }
        let prev = parts[0];
        let shape = self.g.tensor(forward).shape.clone();
        let kind = self.grad_kind(forward);
        let name = format!("acc_grad_{}", self.g.tensor(forward).name);
        let out_name = self.unique_name(format!("{name}.out"));
        let out = self
            .g
            .add_op(
                name,
                OpKind::Pointwise(PointwiseFn::Add),
                vec![prev, grad],
                vec![(out_name, shape, DType::F32, kind)],
                Phase::Backward,
            )
            .expect("accumulation add is always well-formed");
        self.partials.insert(forward, vec![out[0]]);
    }

    /// Skip gradients into raw training data and integer tensors.
    fn wants_grad(&self, t: TensorId) -> bool {
        let tensor = self.g.tensor(t);
        tensor.kind != TensorKind::Input && !matches!(tensor.dtype, DType::I32 | DType::I64)
    }

    /// Finalize the gradient of `t`. Accumulation already happened
    /// incrementally in [`Self::record`], so at most one partial exists.
    fn finalize(&mut self, t: TensorId) -> Result<Option<TensorId>, GraphError> {
        match self.partials.remove(&t) {
            None => Ok(None),
            Some(parts) => {
                debug_assert_eq!(parts.len(), 1, "record() keeps one running partial");
                Ok(Some(parts[0]))
            }
        }
    }

    /// Emit a backward op producing one gradient tensor shaped like `like`.
    fn emit(
        &mut self,
        name: &str,
        kind: OpKind,
        inputs: Vec<TensorId>,
        like: TensorId,
    ) -> Result<TensorId, GraphError> {
        let shape = self.g.tensor(like).shape.clone();
        let gkind = self.grad_kind(like);
        let oname = format!("d_{}", self.g.tensor(like).name);
        let oname = self.unique_name(oname);
        let out = self.g.add_op(
            name.to_owned(),
            kind,
            inputs,
            vec![(oname, shape, DType::F32, gkind)],
            Phase::Backward,
        )?;
        let grad = out[0];
        self.record(like, grad);
        Ok(grad)
    }
}

impl Diff<'_> {
    /// First free name for `base`: `base`, then `base#1`, `base#2`, …
    /// (identical to a linear probe, but resuming from the cached cursor).
    fn unique_name(&mut self, base: String) -> String {
        if !self.name_cursor.contains_key(&base) {
            self.name_cursor.insert(base.clone(), 1);
            if self.g.find(&base).is_none() {
                return base;
            }
        }
        let mut i = self.name_cursor[&base];
        loop {
            let candidate = format!("{base}#{i}");
            if self.g.find(&candidate).is_none() {
                self.name_cursor.insert(base, i + 1);
                return candidate;
            }
            i += 1;
        }
    }
}

/// Append backward and update phases for a forward graph whose loss is
/// `loss` (must be produced by a [`OpKind::CrossEntropy`] op).
///
/// Returns the weight→gradient pairing. The input graph must already
/// validate; the output graph validates too (checked by tests).
pub fn build_training_step(g: &mut Graph, loss: TensorId) -> Result<TrainingStep, GraphError> {
    let loss_producer = g
        .producer(loss)
        .unwrap_or_else(|| panic!("loss tensor has no producer"));
    assert!(
        matches!(g.op(loss_producer).kind, OpKind::CrossEntropy),
        "build_training_step requires a CrossEntropy loss, got {:?}",
        g.op(loss_producer).kind
    );

    let mut span = obs::span("cgraph.autodiff").with_arg("graph", g.name.as_str());
    let forward_ops: Vec<OpId> = g.ops().iter().map(|o| o.id()).collect();
    let ops_before = g.ops().len();
    span.arg("forward_ops", ops_before);
    let mut diff = Diff {
        g,
        partials: HashMap::new(),
        name_cursor: HashMap::new(),
    };

    for &op_id in forward_ops.iter().rev() {
        backward_for_op(&mut diff, op_id)?;
    }

    // Weight updates.
    let weights: Vec<TensorId> = diff
        .g
        .tensors()
        .iter()
        .filter(|t| t.kind == TensorKind::Weight)
        .map(|t| t.id())
        .collect();
    let mut weight_grads = Vec::new();
    let mut update_ops = 0;
    for w in weights {
        if let Some(gw) = diff.finalize(w)? {
            let name = format!("sgd_{}", diff.g.tensor(w).name);
            diff.g
                .add_op(name, OpKind::SgdUpdate, vec![w, gw], vec![], Phase::Update)?;
            weight_grads.push((w, gw));
            update_ops += 1;
        }
    }

    let backward_ops = diff.g.ops().len() - ops_before - update_ops;
    span.arg("backward_ops", backward_ops);
    span.arg("update_ops", update_ops);
    Ok(TrainingStep {
        weight_grads,
        backward_ops,
        update_ops,
    })
}

fn backward_for_op(diff: &mut Diff<'_>, op_id: OpId) -> Result<(), GraphError> {
    let op = diff.g.op(op_id).clone();
    let name = format!("bwd_{}", op.name);

    // CrossEntropy seeds the chain: it needs no upstream gradient.
    if matches!(op.kind, OpKind::CrossEntropy) {
        let (logits, labels) = (op.inputs[0], op.inputs[1]);
        diff.emit(
            &name,
            OpKind::CrossEntropyGrad,
            vec![logits, labels],
            logits,
        )?;
        return Ok(());
    }

    // Collect upstream gradients for this op's outputs.
    let mut gys = Vec::with_capacity(op.outputs.len());
    for &y in &op.outputs {
        gys.push(diff.finalize(y)?);
    }
    if gys.iter().all(|g| g.is_none()) {
        return Ok(()); // nothing downstream uses these outputs
    }

    match &op.kind {
        OpKind::MatMul { ta, tb } => {
            let gy = gys[0].expect("matmul has one output");
            let (a, b) = (op.inputs[0], op.inputs[1]);
            assert!(
                !(*ta && *tb),
                "backward for doubly-transposed matmul not supported"
            );
            if diff.wants_grad(a) {
                let (kind, operands) = match (ta, tb) {
                    // C = A·B   → dA = g·Bᵀ
                    (false, false) => (
                        OpKind::MatMul {
                            ta: false,
                            tb: true,
                        },
                        vec![gy, b],
                    ),
                    // C = Aᵀ·B  → dA = B·gᵀ
                    (true, false) => (
                        OpKind::MatMul {
                            ta: false,
                            tb: true,
                        },
                        vec![b, gy],
                    ),
                    // C = A·Bᵀ  → dA = g·B
                    (false, true) => (
                        OpKind::MatMul {
                            ta: false,
                            tb: false,
                        },
                        vec![gy, b],
                    ),
                    (true, true) => unreachable!(),
                };
                diff.emit(&format!("{name}_dA"), kind, operands, a)?;
            }
            if diff.wants_grad(b) {
                let (kind, operands) = match (ta, tb) {
                    (false, false) => (
                        OpKind::MatMul {
                            ta: true,
                            tb: false,
                        },
                        vec![a, gy],
                    ), // Aᵀ·g
                    (true, false) => (
                        OpKind::MatMul {
                            ta: false,
                            tb: false,
                        },
                        vec![a, gy],
                    ), // A·g
                    (false, true) => (
                        OpKind::MatMul {
                            ta: true,
                            tb: false,
                        },
                        vec![gy, a],
                    ), // gᵀ·A
                    (true, true) => unreachable!(),
                };
                diff.emit(&format!("{name}_dB"), kind, operands, b)?;
            }
        }
        OpKind::BatchMatMul { ta, tb } => {
            let gy = gys[0].expect("batch matmul has one output");
            let (a, b) = (op.inputs[0], op.inputs[1]);
            assert!(!*ta, "backward for transposed-A batch matmul not supported");
            if diff.wants_grad(a) {
                // dA = g·Bᵀ (tb=false) or g·B (tb=true)
                diff.emit(
                    &format!("{name}_dA"),
                    OpKind::BatchMatMul {
                        ta: false,
                        tb: !*tb,
                    },
                    vec![gy, b],
                    a,
                )?;
            }
            if diff.wants_grad(b) {
                // dB = Aᵀ·g, or (g)ᵀ·A when forward used Bᵀ
                let (kind, operands) = if *tb {
                    (
                        OpKind::BatchMatMul {
                            ta: true,
                            tb: false,
                        },
                        vec![gy, a],
                    )
                } else {
                    (
                        OpKind::BatchMatMul {
                            ta: true,
                            tb: false,
                        },
                        vec![a, gy],
                    )
                };
                diff.emit(&format!("{name}_dB"), kind, operands, b)?;
            }
        }
        OpKind::Conv2d {
            kh,
            kw,
            stride,
            pad,
        } => {
            let gy = gys[0].expect("conv has one output");
            let (x, w) = (op.inputs[0], op.inputs[1]);
            if diff.wants_grad(x) {
                diff.emit(
                    &format!("{name}_dX"),
                    OpKind::Conv2dBackpropInput {
                        kh: *kh,
                        kw: *kw,
                        stride: *stride,
                        pad: *pad,
                    },
                    vec![gy, w],
                    x,
                )?;
            }
            diff.emit(
                &format!("{name}_dW"),
                OpKind::Conv2dBackpropFilter {
                    kh: *kh,
                    kw: *kw,
                    stride: *stride,
                    pad: *pad,
                },
                vec![x, gy],
                w,
            )?;
        }
        OpKind::Pointwise(f) => {
            let gy = gys[0].expect("pointwise has one output");
            match f {
                PointwiseFn::Add => {
                    // dA = dB = g: route the same tensor to both operands.
                    for &i in &op.inputs {
                        if diff.wants_grad(i) {
                            diff.record(i, gy);
                        }
                    }
                }
                PointwiseFn::Sub => {
                    if diff.wants_grad(op.inputs[0]) {
                        diff.record(op.inputs[0], gy);
                    }
                    if diff.wants_grad(op.inputs[1]) {
                        diff.emit(
                            &format!("{name}_neg"),
                            OpKind::Pointwise(PointwiseFn::Scale),
                            vec![gy],
                            op.inputs[1],
                        )?;
                    }
                }
                PointwiseFn::Mul => {
                    let (a, b) = (op.inputs[0], op.inputs[1]);
                    if diff.wants_grad(a) {
                        diff.emit(
                            &format!("{name}_dA"),
                            OpKind::Pointwise(PointwiseFn::Mul),
                            vec![gy, b],
                            a,
                        )?;
                    }
                    if diff.wants_grad(b) {
                        diff.emit(
                            &format!("{name}_dB"),
                            OpKind::Pointwise(PointwiseFn::Mul),
                            vec![gy, a],
                            b,
                        )?;
                    }
                }
                PointwiseFn::Copy => {
                    if diff.wants_grad(op.inputs[0]) {
                        diff.record(op.inputs[0], gy);
                    }
                }
                _ => {
                    // Unary nonlinearity: dX = g ⊙ f′(x).
                    let x = op.inputs[0];
                    if diff.wants_grad(x) {
                        diff.emit(
                            &format!("{name}_dX"),
                            OpKind::PointwiseGrad(*f),
                            vec![gy, x],
                            x,
                        )?;
                    }
                }
            }
        }
        OpKind::BiasAdd => {
            let gy = gys[0].expect("bias add has one output");
            let (x, b) = (op.inputs[0], op.inputs[1]);
            if diff.wants_grad(x) {
                diff.record(x, gy);
            }
            // dBias = reduce-sum of g over the leading dims.
            let shape = diff.g.tensor(b).shape.clone();
            let kind = diff.grad_kind(b);
            let oname = diff.unique_name(format!("d_{}", diff.g.tensor(b).name));
            let out = diff.g.add_op(
                format!("{name}_dBias"),
                OpKind::Reduce(crate::op::ReduceKind::Sum),
                vec![gy],
                vec![(oname, shape, DType::F32, kind)],
                Phase::Backward,
            )?;
            diff.record(b, out[0]);
        }
        OpKind::EmbeddingGather => {
            let gy = gys[0].expect("gather has one output");
            let (table, idx) = (op.inputs[0], op.inputs[1]);
            diff.emit(
                &format!("{name}_dTable"),
                OpKind::EmbeddingScatterAdd,
                vec![gy, idx],
                table,
            )?;
        }
        OpKind::Softmax => {
            let gy = gys[0].expect("softmax has one output");
            let y = op.outputs[0];
            let x = op.inputs[0];
            if diff.wants_grad(x) {
                diff.emit(&format!("{name}_dX"), OpKind::SoftmaxGrad, vec![gy, y], x)?;
            }
        }
        OpKind::BatchNorm => {
            let gy = gys[0].expect("batch norm has one output");
            let (x, gamma) = (op.inputs[0], op.inputs[1]);
            let dx_shape = diff.g.tensor(x).shape.clone();
            let dgamma_shape = diff.g.tensor(gamma).shape.clone();
            let dx_name = diff.unique_name(format!("d_{}", diff.g.tensor(x).name));
            let dg_name = diff.unique_name(format!("d_{}", diff.g.tensor(gamma).name));
            let dx_kind = diff.grad_kind(x);
            let dg_kind = diff.grad_kind(gamma);
            let outs = diff.g.add_op(
                format!("{name}_grad"),
                OpKind::BatchNormGrad,
                vec![gy, x],
                vec![
                    (dx_name, dx_shape, DType::F32, dx_kind),
                    (dg_name, dgamma_shape, DType::F32, dg_kind),
                ],
                Phase::Backward,
            )?;
            if diff.wants_grad(x) {
                diff.record(x, outs[0]);
            }
            diff.record(gamma, outs[1]);
        }
        OpKind::Pool { kind, k, stride } => {
            let gy = gys[0].expect("pool has one output");
            let x = op.inputs[0];
            if diff.wants_grad(x) {
                let dx_shape = diff.g.tensor(x).shape.clone();
                let dx_name = diff.unique_name(format!("d_{}", diff.g.tensor(x).name));
                let dx_kind = diff.grad_kind(x);
                let outs = diff.g.add_op(
                    format!("{name}_dX"),
                    OpKind::PoolGrad {
                        kind: *kind,
                        k: *k,
                        stride: *stride,
                    },
                    vec![gy],
                    vec![(dx_name, dx_shape, DType::F32, dx_kind)],
                    Phase::Backward,
                )?;
                diff.record(x, outs[0]);
            }
        }
        OpKind::Reduce(_) => {
            let gy = gys[0].expect("reduce has one output");
            let x = op.inputs[0];
            if diff.wants_grad(x) {
                let dx_shape = diff.g.tensor(x).shape.clone();
                let dx_name = diff.unique_name(format!("d_{}", diff.g.tensor(x).name));
                let dx_kind = diff.grad_kind(x);
                let outs = diff.g.add_op(
                    format!("{name}_dX"),
                    OpKind::Broadcast,
                    vec![gy, x],
                    vec![(dx_name, dx_shape, DType::F32, dx_kind)],
                    Phase::Backward,
                )?;
                diff.record(x, outs[0]);
            }
        }
        OpKind::Concat => {
            let gy = gys[0].expect("concat has one output");
            // dXᵢ = split of g, mirroring the forward operand shapes.
            let dtype = DType::F32;
            let outputs: Vec<_> = op
                .inputs
                .iter()
                .map(|&i| {
                    (
                        diff.unique_name(format!("d_{}", diff.g.tensor(i).name)),
                        diff.g.tensor(i).shape.clone(),
                        dtype,
                        diff.grad_kind(i),
                    )
                })
                .collect();
            let outs = diff.g.add_op(
                format!("{name}_dXs"),
                OpKind::Split,
                vec![gy],
                outputs,
                Phase::Backward,
            )?;
            for (&i, &gi) in op.inputs.iter().zip(outs.iter()) {
                if diff.wants_grad(i) {
                    diff.record(i, gi);
                }
            }
        }
        OpKind::Split => {
            // dX = concat of the output grads. Parts with no downstream
            // consumer get a zeros_like gradient (framework semantics).
            let mut parts: Vec<TensorId> = Vec::with_capacity(gys.len());
            for (slot, gy) in gys.iter().enumerate() {
                match gy {
                    Some(t) => parts.push(*t),
                    None => {
                        let fwd = op.outputs[slot];
                        let zero = diff.emit(
                            &format!("{name}_zeros{slot}"),
                            OpKind::Pointwise(PointwiseFn::Copy),
                            vec![fwd],
                            fwd,
                        )?;
                        // The zero grad was recorded against `fwd`; undo that
                        // bookkeeping — it exists only to feed the concat.
                        diff.partials.remove(&fwd);
                        parts.push(zero);
                    }
                }
            }
            let x = op.inputs[0];
            if diff.wants_grad(x) {
                let dx_shape = diff.g.tensor(x).shape.clone();
                let dx_name = diff.unique_name(format!("d_{}", diff.g.tensor(x).name));
                let dx_kind = diff.grad_kind(x);
                let outs = diff.g.add_op(
                    format!("{name}_dX"),
                    OpKind::Concat,
                    parts,
                    vec![(dx_name, dx_shape, DType::F32, dx_kind)],
                    Phase::Backward,
                )?;
                diff.record(x, outs[0]);
            }
        }
        OpKind::Transpose | OpKind::Reshape => {
            let gy = gys[0].expect("unary reshape/transpose output");
            let x = op.inputs[0];
            if diff.wants_grad(x) {
                let kind = if matches!(op.kind, OpKind::Transpose) {
                    OpKind::Transpose
                } else {
                    OpKind::Reshape
                };
                let dx_shape = diff.g.tensor(x).shape.clone();
                let dx_name = diff.unique_name(format!("d_{}", diff.g.tensor(x).name));
                let dx_kind = diff.grad_kind(x);
                let outs = diff.g.add_op(
                    format!("{name}_dX"),
                    kind,
                    vec![gy],
                    vec![(dx_name, dx_shape, DType::F32, dx_kind)],
                    Phase::Backward,
                )?;
                diff.record(x, outs[0]);
            }
        }
        OpKind::CrossEntropy => unreachable!("handled above"),
        kind => panic!("no backward rule for forward op kind {kind:?}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::tensor::DType;
    use symath::{Bindings, Expr};

    fn mlp_with_loss() -> (Graph, TensorId) {
        let mut g = Graph::new("mlp");
        let b = Expr::sym("ad_b");
        let x = g
            .input("x", [b.clone(), Expr::int(64)], DType::F32)
            .unwrap();
        let w1 = g.weight("w1", [Expr::int(64), Expr::int(128)]).unwrap();
        let h = g.matmul("fc1", x, w1, false, false).unwrap();
        let h = g.unary("relu", PointwiseFn::Relu, h).unwrap();
        let w2 = g.weight("w2", [Expr::int(128), Expr::int(10)]).unwrap();
        let logits = g.matmul("fc2", h, w2, false, false).unwrap();
        let labels = g.input("labels", [b], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", logits, labels).unwrap();
        (g, loss)
    }

    #[test]
    fn training_graph_validates() {
        let (mut g, loss) = mlp_with_loss();
        let step = build_training_step(&mut g, loss).unwrap();
        g.validate().unwrap();
        assert_eq!(step.update_ops, 2);
        assert_eq!(step.weight_grads.len(), 2);
    }

    #[test]
    fn pointwise_outputs_and_gradients_share_their_source_dims() {
        // Shapes taken from an existing tensor are refcount bumps, not deep
        // expression copies: a family graph holds tens of thousands of them.
        let (mut g, loss) = mlp_with_loss();
        let step = build_training_step(&mut g, loss).unwrap();
        let shares = |a: TensorId, b: TensorId| {
            std::sync::Arc::ptr_eq(&g.tensor(a).shape.0, &g.tensor(b).shape.0)
        };
        let relu = g.ops().iter().find(|o| o.name == "relu").unwrap();
        assert!(shares(relu.inputs[0], relu.outputs[0]));
        for &(w, dw) in &step.weight_grads {
            assert!(shares(w, dw), "{}", g.tensor(dw).name);
        }
    }

    #[test]
    fn every_weight_gets_exactly_one_update() {
        let (mut g, loss) = mlp_with_loss();
        build_training_step(&mut g, loss).unwrap();
        let updates: Vec<_> = g
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::SgdUpdate))
            .collect();
        assert_eq!(updates.len(), 2);
        let mut targets: Vec<TensorId> = updates.iter().map(|o| o.inputs[0]).collect();
        targets.sort();
        targets.dedup();
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn backward_flops_approx_twice_forward_for_matmul_heavy_graphs() {
        // Deep enough that interior layers (whose backward is two matmuls)
        // dominate; only the first layer skips dX, pulling the ratio a bit
        // under 2.
        let mut g = Graph::new("deep");
        let b = Expr::sym("ad_deep_b");
        let mut t = g
            .input("x", [b.clone(), Expr::int(128)], DType::F32)
            .unwrap();
        for i in 0..8 {
            let w = g
                .weight(format!("w{i}"), [Expr::int(128), Expr::int(128)])
                .unwrap();
            t = g.matmul(&format!("fc{i}"), t, w, false, false).unwrap();
            t = g.unary(&format!("relu{i}"), PointwiseFn::Relu, t).unwrap();
        }
        let labels = g.input("labels", [b], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", t, labels).unwrap();
        build_training_step(&mut g, loss).unwrap();
        let n = g
            .stats()
            .eval(&Bindings::new().with("ad_deep_b", 32.0))
            .unwrap();
        let ratio = n.flops_backward / n.flops_forward;
        assert!(
            ratio > 1.7 && ratio < 2.1,
            "backward/forward = {ratio} out of expected band"
        );
    }

    #[test]
    fn residual_add_shares_gradient_and_accumulates() {
        // y = relu(x·w); z = y + y would be degenerate; use two consumers of
        // one tensor instead: out = (h·w2) with h also feeding an Add.
        let mut g = Graph::new("resid");
        let b = Expr::sym("ad_b2");
        let x = g.input("x", [b.clone(), Expr::int(8)], DType::F32).unwrap();
        let w1 = g.weight("w1", [Expr::int(8), Expr::int(8)]).unwrap();
        let h = g.matmul("fc1", x, w1, false, false).unwrap();
        let w2 = g.weight("w2", [Expr::int(8), Expr::int(8)]).unwrap();
        let h2 = g.matmul("fc2", h, w2, false, false).unwrap();
        let sum = g.binary("residual", PointwiseFn::Add, h, h2).unwrap();
        let labels = g.input("labels", [b], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", sum, labels).unwrap();
        build_training_step(&mut g, loss).unwrap();
        g.validate().unwrap();
        // h has two consumers (fc2 and residual) → its gradient must be
        // accumulated by an incremental Add op.
        let has_acc = g.ops().iter().any(|o| o.name.starts_with("acc_grad_"));
        assert!(
            has_acc,
            "expected incremental accumulation for fan-out tensor"
        );
    }

    #[test]
    fn embedding_gather_gets_scatter_backward() {
        let mut g = Graph::new("emb");
        let b = Expr::sym("ad_b3");
        let table = g.weight("table", [Expr::int(100), Expr::int(16)]).unwrap();
        let idx = g.input("idx", [b.clone()], DType::I32).unwrap();
        let e = g.gather("lookup", table, idx).unwrap();
        let w = g.weight("w", [Expr::int(16), Expr::int(100)]).unwrap();
        let logits = g.matmul("out", e, w, false, false).unwrap();
        let labels = g.input("labels", [b], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", logits, labels).unwrap();
        build_training_step(&mut g, loss).unwrap();
        g.validate().unwrap();
        assert!(g
            .ops()
            .iter()
            .any(|o| matches!(o.kind, OpKind::EmbeddingScatterAdd)));
    }

    #[test]
    fn unused_branches_get_no_backward() {
        let mut g = Graph::new("dead");
        let b = Expr::sym("ad_b4");
        let x = g.input("x", [b.clone(), Expr::int(8)], DType::F32).unwrap();
        let w = g.weight("w", [Expr::int(8), Expr::int(8)]).unwrap();
        let h = g.matmul("fc", x, w, false, false).unwrap();
        // Dead branch: a tanh nobody consumes.
        let wd = g.weight("w_dead", [Expr::int(8), Expr::int(8)]).unwrap();
        let dead = g.matmul("dead_fc", h, wd, false, false).unwrap();
        let _dead2 = g.unary("dead_tanh", PointwiseFn::Tanh, dead).unwrap();
        let labels = g.input("labels", [b], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", h, labels).unwrap();
        let step = build_training_step(&mut g, loss).unwrap();
        g.validate().unwrap();
        // Only `w` is updated; `w_dead` got no gradient.
        assert_eq!(step.update_ops, 1);
    }

    #[test]
    #[should_panic(expected = "CrossEntropy")]
    fn rejects_non_cross_entropy_loss() {
        let mut g = Graph::new("bad");
        let x = g
            .input("x", [Expr::int(4), Expr::int(4)], DType::F32)
            .unwrap();
        let w = g.weight("w", [Expr::int(4), Expr::int(4)]).unwrap();
        let y = g.matmul("mm", x, w, false, false).unwrap();
        let _ = build_training_step(&mut g, y);
    }
}
