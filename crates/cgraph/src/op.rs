//! Op kinds and their algorithmic cost rules.
//!
//! Costs follow the paper's definitions (§2.1):
//!
//! * **Algorithmic FLOPs** — arithmetic required by the math of the op
//!   (multiplies *and* adds counted separately, so a matmul is `2·m·k·n`),
//!   excluding addressing/loop overhead.
//! * **Algorithmic bytes** — bytes the op must read as inputs plus write as
//!   outputs, ignoring caches and intermediates. Gather/scatter ops only
//!   touch the rows they address, and `Reshape` is free (metadata only).

use symath::Expr;

use crate::tensor::{Shape, Tensor, TensorId};

/// Unary/binary pointwise functions with their per-element FLOP cost.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PointwiseFn {
    /// Elementwise addition (binary).
    Add,
    /// Elementwise subtraction (binary).
    Sub,
    /// Elementwise (Hadamard) product (binary).
    Mul,
    /// Logistic sigmoid (unary).
    Sigmoid,
    /// Hyperbolic tangent (unary).
    Tanh,
    /// Rectified linear unit (unary).
    Relu,
    /// Exponential (unary).
    Exp,
    /// Identity / copy (unary) — zero FLOPs, still moves bytes.
    Copy,
    /// Multiply by a compile-time scalar (unary).
    Scale,
}

impl PointwiseFn {
    /// Number of tensor operands.
    pub fn arity(&self) -> usize {
        match self {
            PointwiseFn::Add | PointwiseFn::Sub | PointwiseFn::Mul => 2,
            _ => 1,
        }
    }

    /// Algorithmic FLOPs per output element.
    ///
    /// Transcendentals are charged a small constant (4) following the
    /// convention that they lower to a handful of fused arithmetic ops;
    /// the paper's counts are dominated by matrix math either way.
    pub fn flops_per_element(&self) -> u64 {
        match self {
            PointwiseFn::Copy => 0,
            PointwiseFn::Add
            | PointwiseFn::Sub
            | PointwiseFn::Mul
            | PointwiseFn::Relu
            | PointwiseFn::Scale => 1,
            PointwiseFn::Exp => 2,
            PointwiseFn::Sigmoid | PointwiseFn::Tanh => 4,
        }
    }
}

/// Pooling flavor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Reduction flavor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReduceKind {
    /// Sum over reduced axes.
    Sum,
    /// Arithmetic mean over reduced axes.
    Mean,
    /// Maximum over reduced axes.
    Max,
}

/// The mathematical operation an [`Op`] performs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Dense matrix multiply `A(m×k) · B(k×n)`, with optional transposes
    /// applied to the *stored* operands before the multiply.
    MatMul {
        /// Transpose the first operand.
        ta: bool,
        /// Transpose the second operand.
        tb: bool,
    },
    /// Batched matrix multiply over a shared leading batch dimension.
    BatchMatMul {
        /// Transpose the first operand's trailing two dims.
        ta: bool,
        /// Transpose the second operand's trailing two dims.
        tb: bool,
    },
    /// 2-D convolution, NCHW input, OIHW weights.
    Conv2d {
        /// Kernel height.
        kh: u64,
        /// Kernel width.
        kw: u64,
        /// Stride (same in both spatial dims).
        stride: u64,
        /// Symmetric zero padding.
        pad: u64,
    },
    /// Pointwise function application.
    Pointwise(PointwiseFn),
    /// Broadcast bias addition over the trailing dimension.
    BiasAdd,
    /// Table lookup: `gather(table[v,e], idx[..]) -> [.., e]`. Zero FLOPs;
    /// reads only the gathered rows.
    EmbeddingGather,
    /// Backward of the gather: scatter-add gradient rows into the table
    /// gradient. One add per gathered element.
    EmbeddingScatterAdd,
    /// Numerically-stabilized softmax over the trailing dimension.
    Softmax,
    /// Batch normalization (training mode: statistics + normalize + affine).
    BatchNorm,
    /// Spatial pooling.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Kernel edge (square kernels).
        k: u64,
        /// Stride.
        stride: u64,
    },
    /// Reduction over all non-kept axes.
    Reduce(ReduceKind),
    /// Concatenate along an axis — pure data movement.
    Concat,
    /// Slice/split along an axis — pure data movement.
    Split,
    /// Transpose / permute — pure data movement.
    Transpose,
    /// Metadata-only shape change; free.
    Reshape,
    /// Fused log-softmax + negative-log-likelihood loss.
    CrossEntropy,
    /// Variadic elementwise sum (gradient accumulation).
    AddN,
    /// In-place SGD weight update `w ← w − lr·g`. Sink op (no outputs).
    SgdUpdate,
    /// Gradient of [`OpKind::Conv2d`] w.r.t. its input:
    /// `dX = conv2dᵀ(dY, W)`. Same FLOPs as the forward conv.
    Conv2dBackpropInput {
        /// Kernel height.
        kh: u64,
        /// Kernel width.
        kw: u64,
        /// Stride of the forward conv.
        stride: u64,
        /// Padding of the forward conv.
        pad: u64,
    },
    /// Gradient of [`OpKind::Conv2d`] w.r.t. its filter:
    /// `dW = corr(X, dY)`. Same FLOPs as the forward conv.
    Conv2dBackpropFilter {
        /// Kernel height.
        kh: u64,
        /// Kernel width.
        kw: u64,
        /// Stride of the forward conv.
        stride: u64,
        /// Padding of the forward conv.
        pad: u64,
    },
    /// Gradient of a unary pointwise function: `dX = dY ⊙ f′(x)`.
    /// Consumes the upstream gradient and the saved forward operand.
    PointwiseGrad(PointwiseFn),
    /// Gradient of [`OpKind::Softmax`]: `dX = y ⊙ (dY − Σ dY·y)`.
    SoftmaxGrad,
    /// Gradient of [`OpKind::BatchNorm`]; also produces the scale/shift
    /// parameter gradient.
    BatchNormGrad,
    /// Gradient of [`OpKind::Pool`] (un-pooling / scatter).
    PoolGrad {
        /// Max or average.
        kind: PoolKind,
        /// Kernel edge.
        k: u64,
        /// Stride.
        stride: u64,
    },
    /// Broadcast a reduced gradient back to the pre-reduction shape.
    Broadcast,
    /// Gradient of [`OpKind::CrossEntropy`]: `dLogits = softmax(x) − onehot(y)`.
    CrossEntropyGrad,
    /// Momentum update `v ← µv + g; w ← w − lr·v`. Inputs `[w, g, v]`;
    /// sink op (state updated in place).
    MomentumUpdate,
    /// Adam update (bias-corrected first/second moments). Inputs
    /// `[w, g, m, v]`; sink op.
    AdamUpdate,
}

/// Which phase of the training step an op belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Phase {
    /// Forward propagation.
    Forward,
    /// Backward propagation.
    Backward,
    /// Weight update.
    Update,
}

/// Stable identifier of an op within its graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// The raw index (useful for dense side tables).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A node in the compute graph: an operation consuming and producing tensors.
#[derive(Clone, Debug)]
pub struct Op {
    pub(crate) id: OpId,
    /// Human-readable name, unique within the graph.
    pub name: String,
    /// The operation performed.
    pub kind: OpKind,
    /// Consumed tensors, in operand order.
    pub inputs: Vec<TensorId>,
    /// Produced tensors.
    pub outputs: Vec<TensorId>,
    /// Training phase this op belongs to.
    pub phase: Phase,
}

impl Op {
    /// The op's identifier.
    pub fn id(&self) -> OpId {
        self.id
    }
}

fn total_elements(tensors: &[&Tensor]) -> Expr {
    tensors.iter().map(|t| t.shape.elements()).sum()
}

fn total_bytes(tensors: &[&Tensor]) -> Expr {
    tensors.iter().map(|t| t.bytes()).sum()
}

/// Algorithmic FLOPs of `kind` given resolved operand tensors.
pub fn op_flops(kind: &OpKind, inputs: &[&Tensor], outputs: &[&Tensor]) -> Expr {
    match kind {
        OpKind::MatMul { ta, .. } => {
            // Output is m×n; contraction length comes from operand A.
            let out = &outputs[0].shape;
            let a = &inputs[0].shape;
            let k = if *ta { a.dim(0) } else { a.dim(a.rank() - 1) };
            Expr::int(2) * out.elements() * k
        }
        OpKind::BatchMatMul { ta, .. } => {
            let out = &outputs[0].shape;
            let a = &inputs[0].shape;
            let k = if *ta {
                a.dim(a.rank() - 2)
            } else {
                a.dim(a.rank() - 1)
            };
            Expr::int(2) * out.elements() * k
        }
        OpKind::Conv2d { kh, kw, .. } => {
            // 2 · N·OH·OW·CO · CI·KH·KW
            let out = &outputs[0].shape; // [n, co, oh, ow]
            let ci = inputs[1].shape.dim(1).clone(); // weights [co, ci, kh, kw]
            Expr::int(2) * out.elements() * ci * Expr::from(kh * kw)
        }
        OpKind::Pointwise(f) => Expr::from(f.flops_per_element()) * outputs[0].shape.elements(),
        OpKind::BiasAdd => outputs[0].shape.elements(),
        OpKind::EmbeddingGather => Expr::zero(),
        OpKind::EmbeddingScatterAdd => {
            // One accumulate per gathered element.
            inputs[0].shape.elements()
        }
        OpKind::Softmax => Expr::int(5) * outputs[0].shape.elements(),
        OpKind::BatchNorm => Expr::int(8) * outputs[0].shape.elements(),
        OpKind::Pool { k, .. } => Expr::from(k * k) * outputs[0].shape.elements(),
        OpKind::Reduce(_) => total_elements(inputs),
        OpKind::Concat | OpKind::Split | OpKind::Transpose | OpKind::Reshape => Expr::zero(),
        OpKind::CrossEntropy => Expr::int(5) * inputs[0].shape.elements(),
        OpKind::AddN => {
            let n = inputs.len() as u64;
            Expr::from(n.saturating_sub(1)) * outputs[0].shape.elements()
        }
        OpKind::SgdUpdate => Expr::int(2) * inputs[0].shape.elements(),
        OpKind::Conv2dBackpropInput { kh, kw, .. } => {
            // inputs: [dY (n,co,oh,ow), W (co,ci,kh,kw)]
            let dy = &inputs[0].shape;
            let ci = inputs[1].shape.dim(1).clone();
            Expr::int(2) * dy.elements() * ci * Expr::from(kh * kw)
        }
        OpKind::Conv2dBackpropFilter { kh, kw, .. } => {
            // inputs: [X, dY]; output dW (co,ci,kh,kw)
            let dy = &inputs[1].shape;
            let ci = outputs[0].shape.dim(1).clone();
            Expr::int(2) * dy.elements() * ci * Expr::from(kh * kw)
        }
        OpKind::PointwiseGrad(f) => {
            Expr::from(f.flops_per_element() + 1) * outputs[0].shape.elements()
        }
        OpKind::SoftmaxGrad => Expr::int(4) * outputs[0].shape.elements(),
        OpKind::BatchNormGrad => Expr::int(11) * outputs[0].shape.elements(),
        OpKind::PoolGrad { .. } => inputs[0].shape.elements(),
        OpKind::Broadcast => Expr::zero(),
        OpKind::CrossEntropyGrad => Expr::int(3) * outputs[0].shape.elements(),
        OpKind::MomentumUpdate => Expr::int(4) * inputs[0].shape.elements(),
        OpKind::AdamUpdate => Expr::int(10) * inputs[0].shape.elements(),
    }
}

/// Algorithmic bytes `(read, written)` of `kind` given resolved operands.
pub fn op_bytes(kind: &OpKind, inputs: &[&Tensor], outputs: &[&Tensor]) -> (Expr, Expr) {
    match kind {
        OpKind::Reshape => (Expr::zero(), Expr::zero()),
        OpKind::EmbeddingGather => {
            // Read the gathered rows (same volume as the output) plus the
            // indices; write the output. The full table is *not* streamed.
            let idx_bytes = inputs[1].bytes();
            let out_bytes = total_bytes(outputs);
            (out_bytes.clone() + idx_bytes, out_bytes)
        }
        OpKind::EmbeddingScatterAdd => {
            // Read incoming gradient rows + indices + current accumulator
            // rows; write the accumulator rows back.
            let grad_bytes = inputs[0].bytes();
            let idx_bytes = inputs[1].bytes();
            (Expr::int(2) * grad_bytes.clone() + idx_bytes, grad_bytes)
        }
        OpKind::SgdUpdate => {
            // Read weight + gradient; write weight.
            let w = inputs[0].bytes();
            let g = inputs[1].bytes();
            (w.clone() + g, w)
        }
        OpKind::MomentumUpdate => {
            // Read w, g, v; write w, v.
            let e = inputs[0].bytes();
            (Expr::int(3) * e.clone(), Expr::int(2) * e)
        }
        OpKind::AdamUpdate => {
            // Read w, g, m, v; write w, m, v.
            let e = inputs[0].bytes();
            (Expr::int(4) * e.clone(), Expr::int(3) * e)
        }
        _ => (total_bytes(inputs), total_bytes(outputs)),
    }
}

/// Infer the output shape of a shape-polymorphic op. Ops whose output shape
/// is not a pure function of input shapes (e.g. `Split`) are handled by the
/// graph builder instead.
pub fn infer_matmul_shape(kind: &OpKind, a: &Shape, b: &Shape) -> Shape {
    match kind {
        OpKind::MatMul { ta, tb } => {
            let m = if *ta { a.dim(1) } else { a.dim(0) }.clone();
            let n = if *tb { b.dim(0) } else { b.dim(1) }.clone();
            Shape::from(vec![m, n])
        }
        OpKind::BatchMatMul { ta, tb } => {
            let r = a.rank();
            let mut dims: Vec<Expr> = a.0[..r - 2].to_vec();
            let m = if *ta { a.dim(r - 1) } else { a.dim(r - 2) }.clone();
            let rb = b.rank();
            let n = if *tb { b.dim(rb - 2) } else { b.dim(rb - 1) }.clone();
            dims.push(m);
            dims.push(n);
            Shape(dims.into())
        }
        _ => panic!("infer_matmul_shape on non-matmul op"),
    }
}

/// Output spatial size of a convolution/pooling window:
/// `⌊(x + 2·pad − k)/stride⌋ + 1`.
///
/// Constant inputs floor exactly (framework semantics); symbolic inputs use
/// the exact rational form, which agrees whenever the division is exact.
pub fn conv_out_dim(x: &Expr, k: u64, stride: u64, pad: u64) -> Expr {
    let numer = x.clone() + Expr::from(2 * pad) - Expr::from(k);
    if let Some(c) = numer.as_const() {
        let n = c.num() / c.den(); // c ≥ 0 for any valid window
        return Expr::int(n / stride as i128 + 1);
    }
    numer * Expr::rat(1, stride as i128) + Expr::one()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{DType, TensorId, TensorKind};
    use symath::Bindings;

    fn tensor(name: &str, dims: Vec<Expr>) -> Tensor {
        Tensor {
            id: TensorId(0),
            name: name.into(),
            shape: Shape(dims.into()),
            dtype: DType::F32,
            kind: TensorKind::Activation,
        }
    }

    #[test]
    fn matmul_flops_are_2mkn() {
        let a = tensor("a", vec![Expr::int(8), Expr::int(16)]);
        let b = tensor("b", vec![Expr::int(16), Expr::int(32)]);
        let c = tensor("c", vec![Expr::int(8), Expr::int(32)]);
        let f = op_flops(
            &OpKind::MatMul {
                ta: false,
                tb: false,
            },
            &[&a, &b],
            &[&c],
        );
        assert_eq!(f, Expr::int(2 * 8 * 16 * 32));
    }

    #[test]
    fn matmul_transposed_contraction_dim() {
        // Aᵀ(k×m) with stored shape [16, 8]: contraction dim is dim(0).
        let a = tensor("a", vec![Expr::int(16), Expr::int(8)]);
        let b = tensor("b", vec![Expr::int(16), Expr::int(32)]);
        let c = tensor("c", vec![Expr::int(8), Expr::int(32)]);
        let f = op_flops(
            &OpKind::MatMul {
                ta: true,
                tb: false,
            },
            &[&a, &b],
            &[&c],
        );
        assert_eq!(f, Expr::int(2 * 8 * 16 * 32));
    }

    #[test]
    fn conv_flops_count_kernel_volume() {
        let x = tensor(
            "x",
            vec![Expr::int(2), Expr::int(3), Expr::int(8), Expr::int(8)],
        );
        let w = tensor(
            "w",
            vec![Expr::int(4), Expr::int(3), Expr::int(3), Expr::int(3)],
        );
        let y = tensor(
            "y",
            vec![Expr::int(2), Expr::int(4), Expr::int(8), Expr::int(8)],
        );
        let f = op_flops(
            &OpKind::Conv2d {
                kh: 3,
                kw: 3,
                stride: 1,
                pad: 1,
            },
            &[&x, &w],
            &[&y],
        );
        // 2 · (2·4·8·8) · 3·3·3
        assert_eq!(f, Expr::int(2 * (2 * 4 * 8 * 8) * 27));
    }

    #[test]
    fn gather_reads_rows_not_table() {
        let table = tensor("table", vec![Expr::int(10_000), Expr::int(64)]);
        let idx = {
            let mut t = tensor("idx", vec![Expr::int(4), Expr::int(8)]);
            t.dtype = DType::I32;
            t
        };
        let out = tensor("out", vec![Expr::int(4), Expr::int(8), Expr::int(64)]);
        let (read, written) = op_bytes(&OpKind::EmbeddingGather, &[&table, &idx], &[&out]);
        let out_bytes = 4u64 * 8 * 64 * 4;
        let idx_bytes = 4u64 * 8 * 4;
        assert_eq!(
            read.eval(&Bindings::new()).unwrap(),
            (out_bytes + idx_bytes) as f64
        );
        assert_eq!(written.eval(&Bindings::new()).unwrap(), out_bytes as f64);
        assert!(op_flops(&OpKind::EmbeddingGather, &[&table, &idx], &[&out]).is_zero());
    }

    #[test]
    fn reshape_is_free() {
        let x = tensor("x", vec![Expr::int(6)]);
        let y = tensor("y", vec![Expr::int(2), Expr::int(3)]);
        let (r, w) = op_bytes(&OpKind::Reshape, &[&x], &[&y]);
        assert!(r.is_zero() && w.is_zero());
        assert!(op_flops(&OpKind::Reshape, &[&x], &[&y]).is_zero());
    }

    #[test]
    fn sgd_update_reads_twice_writes_once() {
        let w = tensor("w", vec![Expr::int(100)]);
        let g = tensor("g", vec![Expr::int(100)]);
        let (r, wr) = op_bytes(&OpKind::SgdUpdate, &[&w, &g], &[]);
        assert_eq!(r.eval(&Bindings::new()).unwrap(), 800.0);
        assert_eq!(wr.eval(&Bindings::new()).unwrap(), 400.0);
        assert_eq!(
            op_flops(&OpKind::SgdUpdate, &[&w, &g], &[])
                .eval(&Bindings::new())
                .unwrap(),
            200.0
        );
    }

    #[test]
    fn conv_out_dim_formula() {
        let x = Expr::int(224);
        // 7×7 stride-2 pad-3 stem: (224 + 6 − 7)/2 + 1 = 112 … with exact
        // rational math (223/2 + 1 = 112.5) TF floors; our models only use
        // divisible configurations, checked here with a divisible case.
        let d = conv_out_dim(&Expr::int(226), 3, 1, 0);
        assert_eq!(d, Expr::int(224));
        let s = conv_out_dim(&x, 2, 2, 0);
        assert_eq!(s, Expr::int(112));
    }

    #[test]
    fn addn_flops_scale_with_operand_count() {
        let a = tensor("a", vec![Expr::int(10)]);
        let b = tensor("b", vec![Expr::int(10)]);
        let c = tensor("c", vec![Expr::int(10)]);
        let out = tensor("o", vec![Expr::int(10)]);
        let f = op_flops(&OpKind::AddN, &[&a, &b, &c], &[&out]);
        assert_eq!(f, Expr::int(20));
    }

    #[test]
    fn batch_matmul_shape_inference() {
        let a = Shape::from([Expr::sym("op_b"), Expr::int(8), Expr::int(16)]);
        let b = Shape::from([Expr::sym("op_b"), Expr::int(16), Expr::int(4)]);
        let out = infer_matmul_shape(
            &OpKind::BatchMatMul {
                ta: false,
                tb: false,
            },
            &a,
            &b,
        );
        assert_eq!(
            out,
            Shape::from([Expr::sym("op_b"), Expr::int(8), Expr::int(4)])
        );
    }
}
