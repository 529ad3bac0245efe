//! Frontier projection (paper Table 3): per-domain training requirements at
//! the target accuracy, priced through the process-wide [`FamilyEngine`].

use modelzoo::{Domain, ModelConfig};
use roofline::{epoch_seconds, roofline_time, to_days, Accelerator, RooflineTime};
use scaling::scaling_for;
use serde::Serialize;

use crate::FamilyEngine;

/// One row of Table 3.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FrontierRow {
    /// Domain label.
    pub domain_label: &'static str,
    /// Projected dataset size, samples (words / chars / word-pieces /
    /// images).
    pub data_samples: f64,
    /// Projected model parameters.
    pub params: f64,
    /// Parameters of the model instance sized to the projection.
    pub built_params: f64,
    /// Profiling subbatch size.
    pub subbatch: u64,
    /// Algorithmic TFLOPs per training step.
    pub tflops_per_step: f64,
    /// Algorithmic memory access per step, TB.
    pub mem_tb_per_step: f64,
    /// Minimal memory footprint, GB.
    pub min_mem_gb: f64,
    /// Roofline step time.
    pub step: RooflineTime,
    /// Days per epoch on one Table 4 accelerator.
    pub epoch_days: f64,
}

/// The frontier-scale model of `domain`: its default configuration sized
/// to the Table 1 projected parameter count.
pub fn frontier_config(domain: Domain) -> ModelConfig {
    let projection = scaling_for(domain).project();
    ModelConfig::default_for(domain).with_target_params(projection.target_params.round() as u64)
}

/// Compute one Table 3 row from the frontier configuration's cached
/// symbolic family. The first row of a domain builds that family; later
/// rows, and `/v1/plan` on the same domain, reuse it.
pub fn frontier_row(domain: Domain, accel: &Accelerator) -> FrontierRow {
    let projection = scaling_for(domain).project();
    let cfg = frontier_config(domain);
    let subbatch = domain.default_subbatch();
    let engine = FamilyEngine::global();
    let point = engine.characterize(&cfg, subbatch);
    let step = roofline_time(point.flops_per_step, point.bytes_per_step, accel);
    let samples_per_step = (subbatch * engine.labels_per_sample(&cfg)) as f64;
    let epoch = epoch_seconds(
        projection.target_data_samples,
        samples_per_step,
        step.seconds,
    );
    FrontierRow {
        domain_label: domain.label(),
        data_samples: projection.target_data_samples,
        params: projection.target_params,
        built_params: point.params,
        subbatch,
        tflops_per_step: point.flops_per_step / 1e12,
        mem_tb_per_step: point.bytes_per_step / 1e12,
        min_mem_gb: point.footprint_bytes / 1e9,
        step,
        epoch_days: to_days(epoch),
    }
}

/// All five Table 3 rows.
pub fn table3(accel: &Accelerator) -> Vec<FrontierRow> {
    Domain::ALL
        .iter()
        .map(|&d| frontier_row(d, accel))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_the_concrete_build_oracle() {
        // Every engine-priced field equals the brute-force row: one concrete
        // training graph built, differentiated, walked and simulated.
        let accel = Accelerator::v100_like();
        for domain in Domain::ALL {
            let row = frontier_row(domain, &accel);
            let cfg = frontier_config(domain);
            let subbatch = domain.default_subbatch();
            let point = crate::characterize(&cfg, subbatch);
            let step = roofline_time(point.flops_per_step, point.bytes_per_step, &accel);
            let epoch = epoch_seconds(
                scaling_for(domain).project().target_data_samples,
                cfg.build_training().samples_per_step(subbatch),
                step.seconds,
            );
            assert_eq!(row.built_params, point.params, "{domain:?}");
            assert_eq!(
                row.tflops_per_step,
                point.flops_per_step / 1e12,
                "{domain:?}"
            );
            assert_eq!(
                row.mem_tb_per_step,
                point.bytes_per_step / 1e12,
                "{domain:?}"
            );
            assert_eq!(row.min_mem_gb, point.footprint_bytes / 1e9, "{domain:?}");
            assert_eq!(row.step.seconds, step.seconds, "{domain:?}");
            assert_eq!(row.epoch_days, to_days(epoch), "{domain:?}");
        }
    }

    #[test]
    fn image_row_matches_paper_bands() {
        // Paper: 28 TFLOPs/step, 0.4 TB/step, 34 GB footprint, 2.3 s step,
        // 84 days/epoch. Loose bands: our ResNet instance is rebuilt from
        // the projection, not transcribed.
        let row = frontier_row(Domain::ImageClassification, &Accelerator::v100_like());
        assert!(
            row.tflops_per_step > 10.0 && row.tflops_per_step < 60.0,
            "tflops {}",
            row.tflops_per_step
        );
        assert!(
            row.step.seconds > 1.0 && row.step.seconds < 5.0,
            "step {}",
            row.step.seconds
        );
        assert!(
            row.epoch_days > 40.0 && row.epoch_days < 180.0,
            "epoch {}",
            row.epoch_days
        );
        assert!(
            row.min_mem_gb > 10.0 && row.min_mem_gb < 80.0,
            "mem {}",
            row.min_mem_gb
        );
    }

    #[test]
    fn speech_row_matches_paper_bands() {
        // Paper: 72 TFLOPs/step, 2.8 TB, 30 GB footprint, 5.8 s step.
        let row = frontier_row(Domain::Speech, &Accelerator::v100_like());
        assert!(
            row.tflops_per_step > 20.0 && row.tflops_per_step < 200.0,
            "tflops {}",
            row.tflops_per_step
        );
        assert!(
            row.min_mem_gb > 10.0 && row.min_mem_gb < 120.0,
            "mem {}",
            row.min_mem_gb
        );
    }

    #[test]
    fn word_lm_row_matches_paper_bands() {
        // Paper: 23.8B params, 1444 TFLOPs/step, 41.5 TB, 272 GB footprint,
        // 115 s step.
        let row = frontier_row(Domain::WordLm, &Accelerator::v100_like());
        assert!(
            (row.built_params / 23.8e9 - 1.0).abs() < 0.15,
            "params {:.3e}",
            row.built_params
        );
        assert!(
            row.tflops_per_step > 900.0 && row.tflops_per_step < 2100.0,
            "tflops {}",
            row.tflops_per_step
        );
        assert!(
            row.mem_tb_per_step > 20.0 && row.mem_tb_per_step < 70.0,
            "mem TB {}",
            row.mem_tb_per_step
        );
        assert!(
            row.min_mem_gb > 150.0 && row.min_mem_gb < 450.0,
            "footprint {}",
            row.min_mem_gb
        );
        assert!(
            row.step.seconds > 80.0 && row.step.seconds < 170.0,
            "step {}",
            row.step.seconds
        );
    }

    #[test]
    fn language_domains_dwarf_image_and_speech() {
        // The paper's headline segmentation: language epochs are years to
        // millennia; image and speech are months.
        let a = Accelerator::v100_like();
        let word = frontier_row(Domain::WordLm, &a);
        let image = frontier_row(Domain::ImageClassification, &a);
        let speech = frontier_row(Domain::Speech, &a);
        assert!(word.epoch_days > 20.0 * image.epoch_days.max(speech.epoch_days));
        // Language domains far exceed the 32 GB accelerator memory (paper:
        // 8–100×); speech and image press against it (paper: 30 and 34 GB;
        // our instances hold fewer transient buffers and land just under).
        assert!(
            word.min_mem_gb > 100.0,
            "word LM footprint {} GB should far exceed capacity",
            word.min_mem_gb
        );
        for row in [&image, &speech] {
            assert!(
                row.min_mem_gb > 15.0,
                "{}: {} GB should press against the 32 GB capacity",
                row.domain_label,
                row.min_mem_gb
            );
        }
    }
}
