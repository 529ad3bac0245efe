//! `cgraph` — a deep-learning compute-graph IR with an algorithmic cost
//! model.
//!
//! This crate reimplements, from scratch in Rust, the graph-analysis core of
//! the Catamount artifact from Hestness et al., *Beyond Human-Level
//! Accuracy: Computational Challenges in Deep Learning* (PPoPP 2019):
//!
//! * build training-step compute graphs with **symbolic tensor shapes**
//!   ([`Graph`], [`Shape`], backed by [`symath`]),
//! * derive the backward pass structurally via [`build_training_step`]
//!   (a matmul's backward is two matmuls, so cost ratios are emergent),
//! * query **algorithmic FLOPs / bytes / IO** per op or per graph
//!   ([`Graph::stats`]), and
//! * estimate the **minimal memory footprint** by simulating topological
//!   traversals ([`footprint`]).
//!
//! # Example
//!
//! ```
//! use cgraph::{Graph, DType, PointwiseFn, build_training_step};
//! use symath::{Bindings, Expr};
//!
//! let mut g = Graph::new("tiny");
//! let b = Expr::sym("batch");
//! let x = g.input("x", [b.clone(), Expr::int(32)], DType::F32).unwrap();
//! let w = g.weight("w", [Expr::int(32), Expr::int(10)]).unwrap();
//! let logits = g.matmul("fc", x, w, false, false).unwrap();
//! let labels = g.input("y", [b], DType::I32).unwrap();
//! let loss = g.cross_entropy("loss", logits, labels).unwrap();
//! build_training_step(&mut g, loss).unwrap();
//!
//! let n = g.stats().eval(&Bindings::new().with("batch", 64.0)).unwrap();
//! assert_eq!(n.params, 320.0);
//! assert!(n.flops_backward > 0.0); // backward ops were generated
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod autodiff;
mod export;
mod fold;
mod footprint;
mod graph;
mod op;
mod profile;
mod stats;
mod tensor;
mod transform;

pub use autodiff::{build_training_step, TrainingStep};
pub use export::OpCensus;
pub use fold::{fold_classes, FoldClass, FoldReport};
pub use footprint::{
    footprint, footprint_peak, footprint_reference, footprint_with, footprint_with_plan,
    footprint_with_sizes, tensor_sizes, FootprintPlan, FootprintReport, InPlacePolicy, Scheduler,
};
pub use graph::{Graph, GraphError};
pub use op::{
    conv_out_dim, op_bytes, op_flops, Op, OpId, OpKind, Phase, PointwiseFn, PoolKind, ReduceKind,
};
pub use profile::{kind_label, layer_key, phase_label, CostGroup, OpCost, OpProfile};
pub use stats::{
    ForwardStats, GraphStats, InternedForwardStats, InternedGraphStats, NumericForwardStats,
    NumericStats,
};
pub use tensor::{DType, Shape, Tensor, TensorId, TensorKind};
pub use transform::{apply_optimizer, cast_float_precision, optimizer_state_bytes, Optimizer};
