//! `analysis` — the characterization and projection pipeline of Hestness et
//! al. (PPoPP 2019), assembled from the workspace substrates:
//!
//! * [`Engine`] — the symbolic sweep engine core: one width-symbolic family
//!   per structure, exact per-configuration substitution into an LRU-bounded
//!   instance cache, one batch-VM grid per instance — bit-identical to the
//!   brute-force walk, an order of magnitude faster. A [`Spec`] supplies the
//!   domain: [`FamilyEngine`] prices [`Training`] steps and [`InferEngine`]
//!   prices [`Serving`] prefill and decode.
//! * [`sweep_domain`] — Figures 7–10 measurements, priced through the
//!   process-wide [`FamilyEngine`] (rayon-parallel). [`characterize`] builds
//!   one concrete [`modelzoo`] training graph and walks [`cgraph`]'s cost
//!   model: the brute-force oracle the engine is tested against.
//! * [`fit_trends`] — the Table 2 asymptotic coefficients (γ, λ, µ, δ).
//! * [`subbatch_analysis`] — the §5.2.1 / Figure 11 subbatch selection, from
//!   the affine batch coefficients of the engine's step costs.
//! * [`frontier_row`]/[`table3`] — the Table 3 frontier training
//!   requirements: the engine-priced [`frontier_config`] combined with
//!   [`scaling`] projections and [`roofline`] timing.
//! * [`verify_first_order`] — Appendix A's check of the Table 2 formulas
//!   against engine-priced points.
//! * [`word_lm_case_study`] — the §6 / Table 5 parallelization case study on
//!   top of [`parsim`].
//! * [`hardware_sensitivity`] — the §6.2.3 design-space exploration: which
//!   hardware resource helps which workload. It and the case study work on
//!   the concrete graph: they read per-tensor names and per-op rooflines,
//!   which the engine does not keep.
//! * [`Lru`] — the workspace's one LRU map, bounding the engines' instance
//!   caches and `serve`'s response cache.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod casestudy;
mod characterize;
mod engine;
mod frontier;
mod infer;
mod inferplan;
mod lru;
mod plansearch;
mod sensitivity;
mod subbatch;
mod trends;
mod verify;

pub use casestudy::{lstm_p_config, word_lm_case_study, CaseStudy, CaseStudyRow};
pub use characterize::{
    characterize, characterize_averaged, sweep_domain, sweep_domain_batches, CharacterizationPoint,
};
pub use engine::{Engine, FamilyEngine, Spec, Training, TrainingFamily};
pub use frontier::{frontier_config, frontier_row, table3, FrontierRow};
pub use infer::{
    characterize_infer, kv_cache_expr, kv_cache_id, serving_case_study, InferConfig, InferEngine,
    InferPoint, Serving, ServingCaseStudy, ServingRow, KV_DTYPE_BYTES,
};
pub use inferplan::{infer_plan, infer_search_space, InferPlanRequest};
pub use lru::Lru;
pub use plansearch::{
    plan_search, plan_search_space, synthetic_stages, PlanSearchRequest, PLAN_USABLE_MEM_FRACTION,
};
pub use sensitivity::{hardware_sensitivity, hardware_variants, HardwareVariant, SensitivityPoint};
pub use subbatch::{fig11_batches, subbatch_analysis, SubbatchAnalysis, SubbatchPoint};
pub use trends::{fit_domain_trends, fit_trends, DomainTrends};
pub use verify::{verify_first_order, ErrorStats, VerificationReport};
