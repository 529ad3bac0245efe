//! Tensors: symbolic shapes, element types, and roles in the training graph.

use std::fmt;
use std::sync::Arc;

use symath::{Bindings, Expr, ExprId, UnboundSymbol};

/// Element type of a tensor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DType {
    /// 16-bit floating point.
    F16,
    /// 32-bit floating point (the paper's default training precision).
    F32,
    /// 64-bit floating point.
    F64,
    /// 32-bit integer (indices).
    I32,
    /// 64-bit integer (indices).
    I64,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size_bytes(&self) -> u64 {
        match self {
            DType::F16 => 2,
            DType::F32 | DType::I32 => 4,
            DType::F64 | DType::I64 => 8,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F16 => "f16",
            DType::F32 => "f32",
            DType::F64 => "f64",
            DType::I32 => "i32",
            DType::I64 => "i64",
        };
        write!(f, "{s}")
    }
}

/// The role a tensor plays during a training step. Roles drive both the
/// footprint model (weights and their gradients are persistent; activations
/// are freed once consumed) and parameter counting.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TensorKind {
    /// Training data fed into the graph; counts toward algorithmic IO.
    Input,
    /// Trainable model parameters; persistent across the step.
    Weight,
    /// Intermediate forward values; freed once all consumers have run.
    Activation,
    /// Backward-pass gradients w.r.t. activations; freed like activations.
    Gradient,
    /// Accumulated gradients w.r.t. weights; persistent until the update.
    WeightGradient,
    /// Optimizer state (momentum/Adam moments); persistent across steps.
    OptimizerState,
}

impl TensorKind {
    /// Whether tensors of this kind stay allocated for the whole step.
    pub fn is_persistent(&self) -> bool {
        matches!(
            self,
            TensorKind::Weight | TensorKind::WeightGradient | TensorKind::OptimizerState
        )
    }
}

/// A tensor shape: an ordered list of symbolic dimensions.
///
/// The dimensions are shared: cloning a shape bumps a reference count
/// rather than copying its expressions, so the many tensors that take an
/// existing tensor's shape (pointwise outputs, gradients) hold one copy of
/// it between them. Equality, hashing and display go by value.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Shape(pub Arc<[Expr]>);

impl Shape {
    /// A scalar (rank-0) shape.
    pub fn scalar() -> Shape {
        Shape(Arc::new([]))
    }

    /// Build a shape from anything convertible to dimensions.
    pub fn of(dims: impl IntoIterator<Item = Expr>) -> Shape {
        Shape(dims.into_iter().collect())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Dimension `i`.
    pub fn dim(&self, i: usize) -> &Expr {
        &self.0[i]
    }

    /// Total element count as a symbolic expression.
    pub fn elements(&self) -> Expr {
        self.0.iter().fold(Expr::one(), |acc, d| acc * d)
    }

    /// Total element count as an interned expression. The fold mirrors
    /// [`Shape::elements`] step for step through the memoized `mul`, so the
    /// result is the same canonical expression — but repeated shapes (an
    /// unrolled graph has thousands of tensors over a handful of distinct
    /// shapes) cost one memo lookup per dimension instead of a tree product.
    pub fn elements_id(&self) -> ExprId {
        self.0
            .iter()
            .fold(ExprId::one(), |acc, d| acc.mul(d.interned()))
    }

    /// Numeric element count under `bindings`.
    pub fn elements_u64(&self, bindings: &Bindings) -> Result<u64, UnboundSymbol> {
        self.elements().eval_u64(bindings)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl<const N: usize> From<[Expr; N]> for Shape {
    fn from(dims: [Expr; N]) -> Shape {
        Shape(dims.into())
    }
}

impl From<Vec<Expr>> for Shape {
    fn from(dims: Vec<Expr>) -> Shape {
        Shape(dims.into())
    }
}

/// Stable identifier of a tensor within its graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TensorId(pub(crate) u32);

impl TensorId {
    /// The raw index (useful for dense side tables).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A tensor node: named, shaped, typed data flowing between ops.
#[derive(Clone, Debug)]
pub struct Tensor {
    pub(crate) id: TensorId,
    /// Human-readable name, unique within the graph.
    pub name: String,
    /// Symbolic shape.
    pub shape: Shape,
    /// Element type.
    pub dtype: DType,
    /// Role in the training step.
    pub kind: TensorKind,
}

impl Tensor {
    /// The tensor's identifier.
    pub fn id(&self) -> TensorId {
        self.id
    }

    /// Size in bytes as a symbolic expression.
    pub fn bytes(&self) -> Expr {
        self.shape.elements() * Expr::from(self.dtype.size_bytes())
    }

    /// Size in bytes as an interned expression (see [`Shape::elements_id`]).
    pub fn bytes_id(&self) -> ExprId {
        self.shape
            .elements_id()
            .mul(ExprId::int(self.dtype.size_bytes() as i128))
    }

    /// Numeric size in bytes under `bindings`.
    pub fn bytes_u64(&self, bindings: &Bindings) -> Result<u64, UnboundSymbol> {
        Ok(self.shape.elements_u64(bindings)? * self.dtype.size_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_elements_multiply() {
        let b = Expr::sym("t_b");
        let h = Expr::sym("t_h");
        let s = Shape::from([b.clone(), h.clone(), Expr::int(4)]);
        assert_eq!(s.elements(), b * h * Expr::int(4));
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape_is_one_element() {
        assert_eq!(Shape::scalar().elements(), Expr::one());
    }

    #[test]
    fn tensor_bytes_use_dtype_width() {
        let t = Tensor {
            id: TensorId(0),
            name: "w".into(),
            shape: Shape::from([Expr::int(10), Expr::int(10)]),
            dtype: DType::F32,
            kind: TensorKind::Weight,
        };
        assert_eq!(t.bytes().as_const().unwrap().num(), 400);
        assert_eq!(t.bytes_u64(&Bindings::new()).unwrap(), 400);
    }

    #[test]
    fn persistence_by_kind() {
        assert!(TensorKind::Weight.is_persistent());
        assert!(TensorKind::WeightGradient.is_persistent());
        assert!(!TensorKind::Activation.is_persistent());
        assert!(!TensorKind::Gradient.is_persistent());
        assert!(!TensorKind::Input.is_persistent());
    }

    #[test]
    fn shape_displays_dims() {
        let s = Shape::from([Expr::sym("t_n"), Expr::int(3)]);
        assert_eq!(s.to_string(), "[t_n, 3]");
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F64.size_bytes(), 8);
        assert_eq!(DType::I32.size_bytes(), 4);
        assert_eq!(DType::I64.size_bytes(), 8);
    }
}
