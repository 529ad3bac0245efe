//! The compute graph: tensors, ops, and the builder API.
//!
//! Graphs are built append-only: an op may only consume tensors that already
//! exist, and every tensor has at most one producer, so the op list is always
//! a valid topological order. [`Graph::validate`] re-checks the invariants.

use std::collections::HashMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};
use symath::Expr;

use crate::op::{
    conv_out_dim, infer_matmul_shape, Op, OpId, OpKind, Phase, PointwiseFn, PoolKind, ReduceKind,
};
use crate::tensor::{DType, Shape, Tensor, TensorId, TensorKind};

/// Errors raised while constructing or validating a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An op referenced a tensor id that does not exist.
    UnknownTensor(TensorId),
    /// Two tensors were given the same name.
    DuplicateName(String),
    /// Operand shapes are inconsistent for the op.
    ShapeMismatch {
        /// Op name.
        op: String,
        /// Explanation.
        detail: String,
    },
    /// Wrong number of operands.
    Arity {
        /// Op name.
        op: String,
        /// Expected operand count.
        expected: usize,
        /// Actual operand count.
        actual: usize,
    },
    /// A tensor was produced by more than one op.
    MultipleProducers(TensorId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownTensor(t) => write!(f, "unknown tensor id {t:?}"),
            GraphError::DuplicateName(n) => write!(f, "duplicate tensor name `{n}`"),
            GraphError::ShapeMismatch { op, detail } => {
                write!(f, "shape mismatch in op `{op}`: {detail}")
            }
            GraphError::Arity {
                op,
                expected,
                actual,
            } => {
                write!(f, "op `{op}` expects {expected} operands, got {actual}")
            }
            GraphError::MultipleProducers(t) => {
                write!(f, "tensor {t:?} has multiple producers")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Flat CSR consumer index: the ops consuming tensor `t` are
/// `edges[offsets[t] .. offsets[t + 1]]`, in op-insertion order (the same
/// order the old per-tensor `Vec<OpId>` lists held). Built lazily from the
/// append-only edge log, so graph construction does one `Vec` push per
/// consumed operand instead of one heap allocation per tensor.
#[derive(Clone, Debug, Default)]
struct ConsumerCsr {
    offsets: Vec<u32>,
    edges: Vec<OpId>,
}

/// A deep-learning training-step compute graph.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Graph {
    /// Graph name (model identifier).
    pub name: String,
    pub(crate) tensors: Vec<Tensor>,
    pub(crate) ops: Vec<Op>,
    pub(crate) producer: Vec<Option<OpId>>,
    /// Append-only `(tensor index, consuming op)` log; the queryable CSR view
    /// lives in `csr` and is rebuilt on demand after mutation.
    consumer_edges: Vec<(u32, OpId)>,
    csr: OnceLock<ConsumerCsr>,
    name_set: HashMap<String, TensorId>,
}

impl Graph {
    /// A new empty graph.
    pub fn new(name: impl Into<String>) -> Graph {
        Graph {
            name: name.into(),
            ..Graph::default()
        }
    }

    /// All tensors, indexable by [`TensorId::index`].
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// All ops, in topological (construction) order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Look up a tensor.
    pub fn tensor(&self, id: TensorId) -> &Tensor {
        &self.tensors[id.index()]
    }

    /// Look up an op.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// The op that produces `id`, if any (inputs and weights have none).
    pub fn producer(&self, id: TensorId) -> Option<OpId> {
        self.producer[id.index()]
    }

    /// Ops that consume `id` (with multiplicity: an op consuming a tensor
    /// twice appears twice, matching refcount semantics).
    pub fn consumers(&self, id: TensorId) -> &[OpId] {
        let csr = self.csr.get_or_init(|| self.build_csr());
        let lo = csr.offsets[id.index()] as usize;
        let hi = csr.offsets[id.index() + 1] as usize;
        &csr.edges[lo..hi]
    }

    /// Build the CSR view by stable counting sort over the edge log: within
    /// one tensor, edges keep insertion (op) order.
    fn build_csr(&self) -> ConsumerCsr {
        let n = self.tensors.len();
        let mut offsets = vec![0u32; n + 1];
        for &(t, _) in &self.consumer_edges {
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut edges = vec![OpId(0); self.consumer_edges.len()];
        for &(t, op) in &self.consumer_edges {
            let slot = &mut cursor[t as usize];
            edges[*slot as usize] = op;
            *slot += 1;
        }
        ConsumerCsr { offsets, edges }
    }

    /// Record that `op` consumes `t`, invalidating the CSR view.
    pub(crate) fn record_consumer(&mut self, t: TensorId, op: OpId) {
        self.consumer_edges.push((t.index() as u32, op));
        self.csr = OnceLock::new();
    }

    /// Find a tensor by name.
    pub fn find(&self, name: &str) -> Option<TensorId> {
        self.name_set.get(name).copied()
    }

    fn fresh_tensor(
        &mut self,
        name: String,
        shape: Shape,
        dtype: DType,
        kind: TensorKind,
    ) -> Result<TensorId, GraphError> {
        if self.name_set.contains_key(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        let id = TensorId(self.tensors.len() as u32);
        self.name_set.insert(name.clone(), id);
        self.tensors.push(Tensor {
            id,
            name,
            shape,
            dtype,
            kind,
        });
        self.producer.push(None);
        // A fresh tensor widens the CSR offsets table.
        self.csr = OnceLock::new();
        Ok(id)
    }

    /// Add a graph input (training data).
    pub fn input(
        &mut self,
        name: impl Into<String>,
        shape: impl Into<Shape>,
        dtype: DType,
    ) -> Result<TensorId, GraphError> {
        self.fresh_tensor(name.into(), shape.into(), dtype, TensorKind::Input)
    }

    /// Add a persistent optimizer-state tensor (f32), e.g. a momentum
    /// buffer. Source tensor: allocated for the whole step, no producer.
    pub fn optimizer_state(
        &mut self,
        name: impl Into<String>,
        shape: impl Into<Shape>,
    ) -> Result<TensorId, GraphError> {
        self.fresh_tensor(
            name.into(),
            shape.into(),
            DType::F32,
            TensorKind::OptimizerState,
        )
    }

    /// Add a trainable weight tensor (f32).
    pub fn weight(
        &mut self,
        name: impl Into<String>,
        shape: impl Into<Shape>,
    ) -> Result<TensorId, GraphError> {
        self.fresh_tensor(name.into(), shape.into(), DType::F32, TensorKind::Weight)
    }

    /// Low-level op insertion: validates operands and creates output tensors.
    pub fn add_op(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: Vec<TensorId>,
        outputs: Vec<(String, Shape, DType, TensorKind)>,
        phase: Phase,
    ) -> Result<Vec<TensorId>, GraphError> {
        let name = name.into();
        for &t in &inputs {
            if t.index() >= self.tensors.len() {
                return Err(GraphError::UnknownTensor(t));
            }
        }
        self.check_operands(&name, &kind, &inputs)?;
        let op_id = OpId(self.ops.len() as u32);
        let mut out_ids = Vec::with_capacity(outputs.len());
        for (oname, shape, dtype, okind) in outputs {
            let tid = self.fresh_tensor(oname, shape, dtype, okind)?;
            self.producer[tid.index()] = Some(op_id);
            out_ids.push(tid);
        }
        for &t in &inputs {
            self.record_consumer(t, op_id);
        }
        self.ops.push(Op {
            id: op_id,
            name,
            kind,
            inputs,
            outputs: out_ids.clone(),
            phase,
        });
        Ok(out_ids)
    }

    fn check_operands(
        &self,
        name: &str,
        kind: &OpKind,
        inputs: &[TensorId],
    ) -> Result<(), GraphError> {
        let arity_err = |expected: usize| GraphError::Arity {
            op: name.to_owned(),
            expected,
            actual: inputs.len(),
        };
        let shape = |i: usize| &self.tensor(inputs[i]).shape;
        match kind {
            OpKind::MatMul { ta, tb } => {
                if inputs.len() != 2 {
                    return Err(arity_err(2));
                }
                let (a, b) = (shape(0), shape(1));
                if a.rank() != 2 || b.rank() != 2 {
                    return Err(GraphError::ShapeMismatch {
                        op: name.to_owned(),
                        detail: format!("matmul needs rank-2 operands, got {a} and {b}"),
                    });
                }
                let ka = if *ta { a.dim(0) } else { a.dim(1) };
                let kb = if *tb { b.dim(1) } else { b.dim(0) };
                if ka != kb {
                    return Err(GraphError::ShapeMismatch {
                        op: name.to_owned(),
                        detail: format!("contraction dims differ: {ka} vs {kb}"),
                    });
                }
            }
            OpKind::BatchMatMul { ta, tb } => {
                if inputs.len() != 2 {
                    return Err(arity_err(2));
                }
                let (a, b) = (shape(0), shape(1));
                if a.rank() < 3 || b.rank() < 3 {
                    return Err(GraphError::ShapeMismatch {
                        op: name.to_owned(),
                        detail: format!("batch matmul needs rank≥3 operands, got {a} and {b}"),
                    });
                }
                let ka = if *ta {
                    a.dim(a.rank() - 2)
                } else {
                    a.dim(a.rank() - 1)
                };
                let kb = if *tb {
                    b.dim(b.rank() - 1)
                } else {
                    b.dim(b.rank() - 2)
                };
                if ka != kb {
                    return Err(GraphError::ShapeMismatch {
                        op: name.to_owned(),
                        detail: format!("contraction dims differ: {ka} vs {kb}"),
                    });
                }
            }
            OpKind::Conv2d { .. } => {
                if inputs.len() != 2 {
                    return Err(arity_err(2));
                }
                let (x, w) = (shape(0), shape(1));
                if x.rank() != 4 || w.rank() != 4 {
                    return Err(GraphError::ShapeMismatch {
                        op: name.to_owned(),
                        detail: format!(
                            "conv2d needs NCHW input and OIHW weights, got {x} and {w}"
                        ),
                    });
                }
                if x.dim(1) != w.dim(1) {
                    return Err(GraphError::ShapeMismatch {
                        op: name.to_owned(),
                        detail: format!(
                            "input channels {} != weight channels {}",
                            x.dim(1),
                            w.dim(1)
                        ),
                    });
                }
            }
            OpKind::Pointwise(f) => {
                if inputs.len() != f.arity() {
                    return Err(arity_err(f.arity()));
                }
                if f.arity() == 2 && shape(0) != shape(1) {
                    return Err(GraphError::ShapeMismatch {
                        op: name.to_owned(),
                        detail: format!(
                            "binary pointwise operands differ: {} vs {}",
                            shape(0),
                            shape(1)
                        ),
                    });
                }
            }
            OpKind::BiasAdd
            | OpKind::EmbeddingGather
            | OpKind::EmbeddingScatterAdd
            | OpKind::PointwiseGrad(_)
            | OpKind::SoftmaxGrad
            | OpKind::BatchNormGrad
            | OpKind::CrossEntropyGrad
            | OpKind::Conv2dBackpropInput { .. }
            | OpKind::Conv2dBackpropFilter { .. } => {
                if inputs.len() != 2 {
                    return Err(arity_err(2));
                }
            }
            OpKind::SgdUpdate | OpKind::MomentumUpdate | OpKind::AdamUpdate => {
                let expected = match kind {
                    OpKind::SgdUpdate => 2,
                    OpKind::MomentumUpdate => 3,
                    _ => 4,
                };
                if inputs.len() != expected {
                    return Err(arity_err(expected));
                }
                for i in 1..inputs.len() {
                    if shape(i) != shape(0) {
                        return Err(GraphError::ShapeMismatch {
                            op: name.to_owned(),
                            detail: "weight/gradient/state shapes differ".into(),
                        });
                    }
                }
            }
            OpKind::AddN => {
                if inputs.len() < 2 {
                    return Err(arity_err(2));
                }
                for i in 1..inputs.len() {
                    if shape(i) != shape(0) {
                        return Err(GraphError::ShapeMismatch {
                            op: name.to_owned(),
                            detail: "AddN operands must share a shape".into(),
                        });
                    }
                }
            }
            OpKind::CrossEntropy => {
                if inputs.len() != 2 {
                    return Err(arity_err(2));
                }
            }
            _ => {
                if inputs.is_empty() {
                    return Err(arity_err(1));
                }
            }
        }
        Ok(())
    }

    fn auto_name(&self, base: &str) -> String {
        let mut i = self.tensors.len();
        loop {
            let candidate = format!("{base}.{i}");
            if !self.name_set.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    fn unary_out(
        &mut self,
        opname: &str,
        kind: OpKind,
        input: TensorId,
        shape: Shape,
        out_kind: TensorKind,
        phase: Phase,
    ) -> Result<TensorId, GraphError> {
        let dtype = self.tensor(input).dtype;
        let oname = self.auto_name(opname);
        let out = self.add_op(
            opname.to_owned(),
            kind,
            vec![input],
            vec![(oname, shape, dtype, out_kind)],
            phase,
        )?;
        Ok(out[0])
    }

    // ------------------------------------------------------------------
    // Convenience builders (forward phase, activation outputs)
    // ------------------------------------------------------------------

    /// `C = A·B` (rank-2).
    pub fn matmul(
        &mut self,
        name: &str,
        a: TensorId,
        b: TensorId,
        ta: bool,
        tb: bool,
    ) -> Result<TensorId, GraphError> {
        let kind = OpKind::MatMul { ta, tb };
        let shape = infer_matmul_shape(&kind, &self.tensor(a).shape, &self.tensor(b).shape);
        let oname = self.auto_name(name);
        let out = self.add_op(
            name.to_owned(),
            kind,
            vec![a, b],
            vec![(oname, shape, DType::F32, TensorKind::Activation)],
            Phase::Forward,
        )?;
        Ok(out[0])
    }

    /// Batched matmul over shared leading dims.
    pub fn batch_matmul(
        &mut self,
        name: &str,
        a: TensorId,
        b: TensorId,
        ta: bool,
        tb: bool,
    ) -> Result<TensorId, GraphError> {
        let kind = OpKind::BatchMatMul { ta, tb };
        let shape = infer_matmul_shape(&kind, &self.tensor(a).shape, &self.tensor(b).shape);
        let oname = self.auto_name(name);
        let out = self.add_op(
            name.to_owned(),
            kind,
            vec![a, b],
            vec![(oname, shape, DType::F32, TensorKind::Activation)],
            Phase::Forward,
        )?;
        Ok(out[0])
    }

    /// 2-D convolution (NCHW · OIHW).
    pub fn conv2d(
        &mut self,
        name: &str,
        x: TensorId,
        w: TensorId,
        stride: u64,
        pad: u64,
    ) -> Result<TensorId, GraphError> {
        let ws = self.tensor(w).shape.clone();
        let (kh, kw) = (ws.dim(2).clone(), ws.dim(3).clone());
        let kh = kh.as_const().expect("kernel dims must be constant").num() as u64;
        let kw = kw.as_const().expect("kernel dims must be constant").num() as u64;
        let xs = self.tensor(x).shape.clone();
        let oh = conv_out_dim(xs.dim(2), kh, stride, pad);
        let ow = conv_out_dim(xs.dim(3), kw, stride, pad);
        let shape = Shape::from(vec![xs.dim(0).clone(), ws.dim(0).clone(), oh, ow]);
        let kind = OpKind::Conv2d {
            kh,
            kw,
            stride,
            pad,
        };
        let oname = self.auto_name(name);
        let out = self.add_op(
            name.to_owned(),
            kind,
            vec![x, w],
            vec![(oname, shape, DType::F32, TensorKind::Activation)],
            Phase::Forward,
        )?;
        Ok(out[0])
    }

    /// Unary pointwise function.
    pub fn unary(
        &mut self,
        name: &str,
        f: PointwiseFn,
        x: TensorId,
    ) -> Result<TensorId, GraphError> {
        assert_eq!(f.arity(), 1, "unary() requires a unary function");
        let shape = self.tensor(x).shape.clone();
        self.unary_out(
            name,
            OpKind::Pointwise(f),
            x,
            shape,
            TensorKind::Activation,
            Phase::Forward,
        )
    }

    /// Binary pointwise function (same-shape operands).
    pub fn binary(
        &mut self,
        name: &str,
        f: PointwiseFn,
        a: TensorId,
        b: TensorId,
    ) -> Result<TensorId, GraphError> {
        assert_eq!(f.arity(), 2, "binary() requires a binary function");
        let shape = self.tensor(a).shape.clone();
        let oname = self.auto_name(name);
        let out = self.add_op(
            name.to_owned(),
            OpKind::Pointwise(f),
            vec![a, b],
            vec![(oname, shape, DType::F32, TensorKind::Activation)],
            Phase::Forward,
        )?;
        Ok(out[0])
    }

    /// Bias addition broadcast over the trailing dimension.
    pub fn bias_add(
        &mut self,
        name: &str,
        x: TensorId,
        b: TensorId,
    ) -> Result<TensorId, GraphError> {
        let shape = self.tensor(x).shape.clone();
        let oname = self.auto_name(name);
        let out = self.add_op(
            name.to_owned(),
            OpKind::BiasAdd,
            vec![x, b],
            vec![(oname, shape, DType::F32, TensorKind::Activation)],
            Phase::Forward,
        )?;
        Ok(out[0])
    }

    /// Embedding lookup: `table[v,e]` gathered by integer `idx` of any rank.
    pub fn gather(
        &mut self,
        name: &str,
        table: TensorId,
        idx: TensorId,
    ) -> Result<TensorId, GraphError> {
        let e = self.tensor(table).shape.dim(1).clone();
        let mut dims = self.tensor(idx).shape.0.to_vec();
        dims.push(e);
        let oname = self.auto_name(name);
        let out = self.add_op(
            name.to_owned(),
            OpKind::EmbeddingGather,
            vec![table, idx],
            vec![(oname, Shape::from(dims), DType::F32, TensorKind::Activation)],
            Phase::Forward,
        )?;
        Ok(out[0])
    }

    /// Softmax over the trailing dimension.
    pub fn softmax(&mut self, name: &str, x: TensorId) -> Result<TensorId, GraphError> {
        let shape = self.tensor(x).shape.clone();
        self.unary_out(
            name,
            OpKind::Softmax,
            x,
            shape,
            TensorKind::Activation,
            Phase::Forward,
        )
    }

    /// Batch normalization with trainable scale/shift folded into the op.
    pub fn batch_norm(
        &mut self,
        name: &str,
        x: TensorId,
        scale_shift: TensorId,
    ) -> Result<TensorId, GraphError> {
        let shape = self.tensor(x).shape.clone();
        let oname = self.auto_name(name);
        let out = self.add_op(
            name.to_owned(),
            OpKind::BatchNorm,
            vec![x, scale_shift],
            vec![(oname, shape, DType::F32, TensorKind::Activation)],
            Phase::Forward,
        )?;
        Ok(out[0])
    }

    /// Square spatial pooling on NCHW input with symmetric padding.
    pub fn pool(
        &mut self,
        name: &str,
        kind: PoolKind,
        x: TensorId,
        k: u64,
        stride: u64,
        pad: u64,
    ) -> Result<TensorId, GraphError> {
        let xs = self.tensor(x).shape.clone();
        let oh = conv_out_dim(xs.dim(2), k, stride, pad);
        let ow = conv_out_dim(xs.dim(3), k, stride, pad);
        let shape = Shape::from(vec![xs.dim(0).clone(), xs.dim(1).clone(), oh, ow]);
        self.unary_out(
            name,
            OpKind::Pool { kind, k, stride },
            x,
            shape,
            TensorKind::Activation,
            Phase::Forward,
        )
    }

    /// Pooling over the time axis of a `[b, q, h]` tensor (sequence
    /// subsampling used by pyramidal speech encoders). Halves `q`.
    pub fn time_pool2(&mut self, name: &str, x: TensorId) -> Result<TensorId, GraphError> {
        let xs = self.tensor(x).shape.clone();
        let q = xs.dim(1).clone() * Expr::rat(1, 2);
        let shape = Shape::from(vec![xs.dim(0).clone(), q, xs.dim(2).clone()]);
        self.unary_out(
            name,
            OpKind::Pool {
                kind: PoolKind::Avg,
                k: 2,
                stride: 2,
            },
            x,
            shape,
            TensorKind::Activation,
            Phase::Forward,
        )
    }

    /// Full reduction to a scalar.
    pub fn reduce(
        &mut self,
        name: &str,
        kind: ReduceKind,
        x: TensorId,
    ) -> Result<TensorId, GraphError> {
        self.unary_out(
            name,
            OpKind::Reduce(kind),
            x,
            Shape::scalar(),
            TensorKind::Activation,
            Phase::Forward,
        )
    }

    /// Concatenate along `axis`.
    pub fn concat(
        &mut self,
        name: &str,
        xs: &[TensorId],
        axis: usize,
    ) -> Result<TensorId, GraphError> {
        assert!(!xs.is_empty(), "concat of no tensors");
        let first = self.tensor(xs[0]).shape.clone();
        let mut dims = first.0.to_vec();
        let mut cat: Expr = dims[axis].clone();
        for &x in &xs[1..] {
            cat = cat + self.tensor(x).shape.dim(axis).clone();
        }
        dims[axis] = cat;
        let oname = self.auto_name(name);
        let out = self.add_op(
            name.to_owned(),
            OpKind::Concat,
            xs.to_vec(),
            vec![(oname, Shape::from(dims), DType::F32, TensorKind::Activation)],
            Phase::Forward,
        )?;
        Ok(out[0])
    }

    /// Split a tensor along `axis` into `n` equal parts.
    pub fn split(
        &mut self,
        name: &str,
        x: TensorId,
        axis: usize,
        n: u64,
    ) -> Result<Vec<TensorId>, GraphError> {
        let xs = self.tensor(x).shape.clone();
        let mut dims = xs.0.to_vec();
        dims[axis] = dims[axis].clone() * Expr::rat(1, n as i128);
        let shape = Shape::from(dims);
        let dtype = self.tensor(x).dtype;
        let outputs: Vec<_> = (0..n)
            .map(|i| {
                (
                    self.auto_name(&format!("{name}_{i}")),
                    shape.clone(),
                    dtype,
                    TensorKind::Activation,
                )
            })
            .collect();
        self.add_op(
            name.to_owned(),
            OpKind::Split,
            vec![x],
            outputs,
            Phase::Forward,
        )
    }

    /// Metadata-only reshape.
    pub fn reshape(
        &mut self,
        name: &str,
        x: TensorId,
        shape: impl Into<Shape>,
    ) -> Result<TensorId, GraphError> {
        let shape = shape.into();
        self.unary_out(
            name,
            OpKind::Reshape,
            x,
            shape,
            TensorKind::Activation,
            Phase::Forward,
        )
    }

    /// Fused softmax + NLL loss against integer labels; scalar output.
    pub fn cross_entropy(
        &mut self,
        name: &str,
        logits: TensorId,
        labels: TensorId,
    ) -> Result<TensorId, GraphError> {
        let oname = self.auto_name(name);
        let out = self.add_op(
            name.to_owned(),
            OpKind::CrossEntropy,
            vec![logits, labels],
            vec![(oname, Shape::scalar(), DType::F32, TensorKind::Activation)],
            Phase::Forward,
        )?;
        Ok(out[0])
    }

    /// Validate all structural invariants (names, producers, operand shapes,
    /// topological op order).
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut produced = vec![false; self.tensors.len()];
        for op in &self.ops {
            for &i in &op.inputs {
                if i.index() >= self.tensors.len() {
                    return Err(GraphError::UnknownTensor(i));
                }
                // Topological order: inputs must be source tensors or already
                // produced.
                if self.producer[i.index()].is_some() && !produced[i.index()] {
                    return Err(GraphError::ShapeMismatch {
                        op: op.name.clone(),
                        detail: "op consumes a tensor produced later (not topological)".into(),
                    });
                }
            }
            self.check_operands(&op.name, &op.kind, &op.inputs)?;
            for &o in &op.outputs {
                if produced[o.index()] {
                    return Err(GraphError::MultipleProducers(o));
                }
                produced[o.index()] = true;
                if self.producer[o.index()] != Some(op.id) {
                    return Err(GraphError::MultipleProducers(o));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symath::Bindings;

    #[test]
    fn builds_and_validates_a_tiny_mlp() {
        let mut g = Graph::new("mlp");
        let b = Expr::sym("g_b");
        let x = g
            .input("x", [b.clone(), Expr::int(64)], DType::F32)
            .unwrap();
        let w1 = g.weight("w1", [Expr::int(64), Expr::int(128)]).unwrap();
        let h = g.matmul("fc1", x, w1, false, false).unwrap();
        let h = g.unary("relu1", PointwiseFn::Relu, h).unwrap();
        let w2 = g.weight("w2", [Expr::int(128), Expr::int(10)]).unwrap();
        let logits = g.matmul("fc2", h, w2, false, false).unwrap();
        let labels = g.input("labels", [b.clone()], DType::I32).unwrap();
        let _loss = g.cross_entropy("loss", logits, labels).unwrap();
        g.validate().unwrap();
        assert_eq!(g.ops().len(), 4);
        assert_eq!(g.tensor(logits).shape, Shape::from([b, Expr::int(10)]));
    }

    #[test]
    fn rejects_contraction_mismatch() {
        let mut g = Graph::new("bad");
        let a = g
            .input("a", [Expr::int(4), Expr::int(8)], DType::F32)
            .unwrap();
        let w = g.weight("w", [Expr::int(9), Expr::int(2)]).unwrap();
        let err = g.matmul("mm", a, w, false, false).unwrap_err();
        assert!(matches!(err, GraphError::ShapeMismatch { .. }));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut g = Graph::new("dup");
        g.input("x", [Expr::int(1)], DType::F32).unwrap();
        let err = g.input("x", [Expr::int(2)], DType::F32).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateName(_)));
    }

    #[test]
    fn concat_sums_axis_dims() {
        let mut g = Graph::new("cat");
        let a = g
            .input("a", [Expr::int(2), Expr::int(3)], DType::F32)
            .unwrap();
        let b = g
            .input("b", [Expr::int(2), Expr::int(5)], DType::F32)
            .unwrap();
        let c = g.concat("cat", &[a, b], 1).unwrap();
        assert_eq!(g.tensor(c).shape, Shape::from([Expr::int(2), Expr::int(8)]));
    }

    #[test]
    fn split_divides_axis() {
        let mut g = Graph::new("split");
        let a = g
            .input("a", [Expr::int(2), Expr::int(12)], DType::F32)
            .unwrap();
        let parts = g.split("sp", a, 1, 4).unwrap();
        assert_eq!(parts.len(), 4);
        for &p in &parts {
            assert_eq!(g.tensor(p).shape, Shape::from([Expr::int(2), Expr::int(3)]));
        }
    }

    #[test]
    fn conv_shapes_and_flops() {
        let mut g = Graph::new("conv");
        let x = g
            .input(
                "x",
                [Expr::int(1), Expr::int(3), Expr::int(32), Expr::int(32)],
                DType::F32,
            )
            .unwrap();
        let w = g
            .weight(
                "w",
                [Expr::int(16), Expr::int(3), Expr::int(3), Expr::int(3)],
            )
            .unwrap();
        let y = g.conv2d("conv1", x, w, 1, 1).unwrap();
        assert_eq!(
            g.tensor(y).shape,
            Shape::from([Expr::int(1), Expr::int(16), Expr::int(32), Expr::int(32)])
        );
        g.validate().unwrap();
    }

    #[test]
    fn gather_appends_embedding_dim() {
        let mut g = Graph::new("emb");
        let t = g.weight("table", [Expr::int(1000), Expr::int(64)]).unwrap();
        let idx = g
            .input("idx", [Expr::sym("g_b2"), Expr::int(20)], DType::I32)
            .unwrap();
        let e = g.gather("lookup", t, idx).unwrap();
        assert_eq!(
            g.tensor(e).shape,
            Shape::from([Expr::sym("g_b2"), Expr::int(20), Expr::int(64)])
        );
    }

    #[test]
    fn consumer_and_producer_indexes() {
        let mut g = Graph::new("idx");
        let a = g
            .input("a", [Expr::int(4), Expr::int(4)], DType::F32)
            .unwrap();
        let w = g.weight("w", [Expr::int(4), Expr::int(4)]).unwrap();
        let y = g.matmul("mm", a, w, false, false).unwrap();
        let z = g.unary("relu", PointwiseFn::Relu, y).unwrap();
        assert_eq!(g.producer(a), None);
        assert_eq!(g.producer(y), Some(g.ops()[0].id()));
        assert_eq!(g.consumers(y).len(), 1);
        assert_eq!(g.consumers(z).len(), 0);
        assert_eq!(g.consumers(w), g.consumers(a));
    }

    #[test]
    fn time_pool_halves_sequence() {
        let mut g = Graph::new("tp");
        let x = g
            .input(
                "x",
                [Expr::int(8), Expr::int(100), Expr::int(32)],
                DType::F32,
            )
            .unwrap();
        let y = g.time_pool2("pool", x).unwrap();
        assert_eq!(
            g.tensor(y).shape,
            Shape::from([Expr::int(8), Expr::int(50), Expr::int(32)])
        );
        let _ = Bindings::new();
    }
}
