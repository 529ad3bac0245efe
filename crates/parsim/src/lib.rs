//! `parsim` — analytical and discrete-event simulation of parallel DL
//! training: ring/tree allreduce, synchronous data-parallel SGD scaling
//! (paper Figure 12), layer-wise model parallelism with pipelining, and
//! embedding sharding (paper Table 5).
//!
//! ```
//! use parsim::{ring_allreduce_seconds, CommConfig};
//!
//! // 33.6 GB of gradients over 1024 workers at 56 GB/s.
//! let t = ring_allreduce_seconds(33.6e9, 1024, &CommConfig::default());
//! assert!(t > 1.0 && t < 10.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod allreduce;
mod compression;
mod dataparallel;
mod infersearch;
mod lattice;
mod modelparallel;
mod pipeline_des;
mod planner;
mod search;
mod tensorparallel;
mod trace;

pub use allreduce::{
    ring_allreduce_discrete_event, ring_allreduce_seconds, tree_allreduce_seconds, CommConfig,
};
pub use compression::GradCompression;
pub use dataparallel::{
    data_parallel_point, data_parallel_point_compressed, data_parallel_sweep,
    workers_for_epoch_target, ScalePoint, WorkerStep,
};
pub use infersearch::{
    enumerate_infer_naive, infer_plan_point, infer_search, InferPlanPoint, InferProfile,
    InferSearchResult, InferSearchSpace, InferSearchStats, SloTarget,
};
pub use lattice::{
    argmin_point, argmin_point as infer_argmin_point, pareto_frontier, pareto_frontier_reference,
    Axis, LatticeResult, Objectives, Ranked,
};
pub use modelparallel::{
    layer_parallel_plan, peak_footprint, shard_largest_weight, waterfill_largest_weight,
    LayerParallelPlan, Stage,
};
pub use pipeline_des::{
    simulate_balanced_pipeline, simulate_pipeline, simulate_pipeline_traced, PipelineEvent,
    PipelineSim,
};
pub use planner::{plan, ModelParallelism, Plan, PlanRequest};
pub use search::{
    enumerate_naive, plan_point, pow2_candidates, search, split_variants, CandidateProfile,
    SearchPoint, SearchResult, SearchSpace, SearchStats, VariantCost,
};
pub use tensorparallel::{tensor_parallel_plan, TensorParallelConfig, TensorParallelPlan};
pub use trace::pipeline_trace_events;
