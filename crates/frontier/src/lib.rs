//! # frontier
//!
//! A from-scratch Rust reproduction of **Hestness, Ardalani & Diamos,
//! *Beyond Human-Level Accuracy: Computational Challenges in Deep
//! Learning* (PPoPP 2019)** — the compute-graph characterization, scaling
//! projection, and parallelization analysis of five deep-learning training
//! workloads, plus every substrate the paper depends on:
//!
//! | crate | role |
//! |---|---|
//! | [`symath`] | exact symbolic algebra for tensor dimensions |
//! | [`cgraph`] | compute-graph IR, autodiff, algorithmic cost model, footprint scheduler |
//! | [`modelzoo`] | the five workloads (word LM, char LM, NMT, speech, ResNet) |
//! | [`scaling`] | power-law learning curves and Table 1 projections |
//! | [`roofline`] | Table 4 accelerator, roofline timing, cache-aware matmul traffic |
//! | [`parsim`] | ring-allreduce, data/model parallelism simulation |
//! | [`analysis`] | sweeps, trend fits, subbatch selection, Tables 2–5 assembly |
//!
//! This crate re-exports the full public API and adds a small convenience
//! layer ([`Study`]) for the most common end-to-end question: *what does it
//! take to train domain X to its accuracy frontier?*
//!
//! ```
//! use frontier::prelude::*;
//!
//! let study = Study::new(Domain::ImageClassification);
//! let report = study.frontier_report();
//! // ≈100× more images and ≈12× more parameters than current SOTA …
//! assert!(report.projection.data_scale > 50.0);
//! // … trainable in months, not millennia (unlike the language domains).
//! assert!(report.requirements.epoch_days < 400.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use analysis;
pub use cgraph;
pub use modelzoo;
pub use obs;
pub use parsim;
pub use roofline;
pub use scaling;
pub use symath;

mod querykey;

pub use querykey::QueryKey;

use modelzoo::{Domain, ModelConfig};
use roofline::Accelerator;
use scaling::{scaling_for, Projection};

/// Everything needed for typical use in one import.
pub mod prelude {
    pub use crate::{FrontierReport, QueryKey, Study};
    pub use analysis::{
        characterize, fit_trends, hardware_sensitivity, hardware_variants, subbatch_analysis,
        sweep_domain, word_lm_case_study, CharacterizationPoint, DomainTrends,
    };
    pub use cgraph::{
        apply_optimizer, build_training_step, cast_float_precision, footprint, DType, Graph,
        Optimizer, PointwiseFn, Scheduler,
    };
    pub use modelzoo::{Domain, ModelConfig, ModelGraph};
    pub use parsim::{
        data_parallel_point_compressed, data_parallel_sweep, plan as parallelism_plan,
        tensor_parallel_plan, CommConfig, GradCompression, Plan, PlanRequest, TensorParallelConfig,
        WorkerStep,
    };
    pub use roofline::{
        min_shards_to_fit, roofline_time, swap_report, Accelerator, CacheModel, HostLink,
    };
    pub use scaling::{scaling_for, LearningCurve, ModelSizeCurve};
    pub use symath::{Bindings, Expr, Symbol};
}

/// A frontier-training study of one domain on one accelerator.
#[derive(Clone, Debug)]
pub struct Study {
    domain: Domain,
    accelerator: Accelerator,
}

/// Combined output of [`Study::frontier_report`].
#[derive(Clone, Debug)]
pub struct FrontierReport {
    /// Data/model growth required to hit the accuracy target (Table 1).
    pub projection: Projection,
    /// Per-step compute, memory, footprint, and epoch time (Table 3).
    pub requirements: analysis::FrontierRow,
}

impl Study {
    /// A study of `domain` on the paper's Table 4 accelerator.
    pub fn new(domain: Domain) -> Study {
        Study {
            domain,
            accelerator: Accelerator::v100_like(),
        }
    }

    /// Override the accelerator.
    pub fn with_accelerator(mut self, accelerator: Accelerator) -> Study {
        self.accelerator = accelerator;
        self
    }

    /// The domain under study.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The accelerator configuration in use.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accelerator
    }

    /// The frontier model configuration (scaled to the projected parameter
    /// count).
    pub fn frontier_config(&self) -> ModelConfig {
        analysis::frontier_config(self.domain)
    }

    /// Full frontier report: projection plus training requirements, priced
    /// through the process-wide [`analysis::FamilyEngine`].
    pub fn frontier_report(&self) -> FrontierReport {
        FrontierReport {
            projection: scaling_for(self.domain).project(),
            requirements: analysis::frontier_row(self.domain, &self.accelerator),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_exposes_domain_and_accelerator() {
        let s = Study::new(Domain::WordLm);
        assert_eq!(s.domain(), Domain::WordLm);
        assert_eq!(s.accelerator().name, "V100-like (Table 4)");
    }

    #[test]
    fn frontier_config_matches_projection() {
        let s = Study::new(Domain::CharLm);
        let projection = scaling_for(Domain::CharLm).project();
        let cfg = s.frontier_config();
        let rel = (cfg.param_formula() as f64 - projection.target_params).abs()
            / projection.target_params;
        assert!(rel < 0.10, "config params off by {rel}");
    }

    #[test]
    fn custom_accelerator_flows_through() {
        let mut accel = Accelerator::v100_like();
        accel.name = "double-speed".into();
        accel.peak_flops *= 2.0;
        let s = Study::new(Domain::ImageClassification).with_accelerator(accel);
        let report = s.frontier_report();
        let baseline = Study::new(Domain::ImageClassification).frontier_report();
        assert!(report.requirements.step.seconds < baseline.requirements.step.seconds);
    }
}
