//! `symath` — a small exact symbolic-algebra engine.
//!
//! This crate is the algebraic substrate for the `frontier` workspace: it
//! represents the polynomial-with-fractional-powers expressions that arise
//! when propagating symbolic tensor dimensions through deep-learning compute
//! graphs (the role sympy plays in the original Catamount artifact of
//! Hestness et al., PPoPP 2019).
//!
//! # Model
//!
//! * [`Expr`] — canonical sum-of-products expressions with exact [`Rat`]
//!   coefficients and exponents, plus `max`, `min`, and `ceil`.
//! * [`Symbol`] — interned names; all symbols denote **positive** reals
//!   (tensor dimensions), which licenses exponent distribution.
//! * [`Bindings`] — symbol → value maps for numeric [`Expr::eval`].
//! * [`ExprId`] — hash-consed expression handles: O(1) equality/hash/clone
//!   and memoized `add`/`mul`/`pow`/`bind_all`.
//! * [`BatchProgram`] — the one compiled evaluator: a set of roots compiled
//!   once into a register VM that evaluates whole grids structure-of-arrays
//!   (see [`batch_program`]), bit-identical per point to the tree walk. A
//!   single point ([`ExprId::eval`]) is a one-wide grid.
//!
//! # Example
//!
//! ```
//! use symath::{Expr, Bindings};
//!
//! // FLOPs of one LSTM layer forward step: 16·q·h² (paper §4.2, l = 1).
//! let h = Expr::sym("h");
//! let q = Expr::sym("q");
//! let flops = Expr::int(16) * &q * h.pow(2);
//!
//! let b = Bindings::new().with("h", 1024.0).with("q", 80.0);
//! assert_eq!(flops.eval(&b).unwrap(), 16.0 * 80.0 * 1024.0 * 1024.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod batch;
/// Single-expression compiled evaluation ([`ExprId::eval`]) checked
/// bitwise against the tree walk.
#[cfg(test)]
#[path = "single_point_tests.rs"]
mod compile;
mod display;
mod eval;
mod expr;
mod intern;
mod rat;
mod symbol;

pub use batch::{batch_stats, BatchError, BatchInstr, BatchProgram, BatchStats};
pub use eval::{Bindings, UnboundSymbol};
pub use expr::{Atom, Expr, Func};
pub use intern::{batch_program, intern_stats, ExprId, InternStats};
pub use rat::Rat;
pub use symbol::Symbol;
