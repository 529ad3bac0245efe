//! Characterization sweeps: build training graphs across model sizes and
//! measure algorithmic FLOPs, bytes, operational intensity, and minimal
//! memory footprint (paper §4, Figures 7–10).

use cgraph::{footprint, Scheduler};
use modelzoo::{Domain, ModelConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// One measured point of a characterization sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CharacterizationPoint {
    /// Trainable parameters.
    pub params: f64,
    /// Subbatch size the point was profiled with.
    pub subbatch: u64,
    /// Algorithmic FLOPs per training step.
    pub flops_per_step: f64,
    /// FLOPs per training step per batch element (Figure 7's y-axis).
    pub flops_per_sample: f64,
    /// Algorithmic bytes accessed per step (Figure 8).
    pub bytes_per_step: f64,
    /// Operational intensity, FLOP/B (Figure 9).
    pub op_intensity: f64,
    /// Minimal memory footprint in bytes (Figure 10).
    pub footprint_bytes: f64,
    /// Recurrent unroll length used.
    pub seq_len: u64,
}

/// Characterize one configuration at one subbatch size.
pub fn characterize(cfg: &ModelConfig, subbatch: u64) -> CharacterizationPoint {
    let _span = obs::span("analysis.characterize")
        .with_arg("domain", cfg.domain().key())
        .with_arg("subbatch", subbatch);
    let model = obs::time("modelzoo.build_training", || cfg.build_training());
    let bindings = model.bindings_with_batch(subbatch);
    let n = model
        .graph
        .stats()
        .eval(&bindings)
        .expect("all symbols bound");
    let fp = footprint(&model.graph, &bindings, Scheduler::Best).expect("all symbols bound");
    CharacterizationPoint {
        params: n.params,
        subbatch,
        flops_per_step: n.flops,
        flops_per_sample: n.flops / subbatch as f64,
        bytes_per_step: n.bytes,
        op_intensity: n.flops / n.bytes,
        footprint_bytes: fp.peak_bytes as f64,
        seq_len: model.seq_len,
    }
}

/// Characterize a configuration averaged over several sampled unroll
/// lengths, mirroring the paper's 100–500 profiled steps with per-step
/// sequence-length variation (§4.1). Lengths are drawn uniformly from
/// `[q/2, 3q/2]` around the configuration's nominal length with a fixed
/// seed for reproducibility.
pub fn characterize_averaged(
    cfg: &ModelConfig,
    subbatch: u64,
    length_samples: usize,
    seed: u64,
) -> CharacterizationPoint {
    assert!(length_samples >= 1);
    if matches!(cfg.domain(), Domain::ImageClassification) || length_samples == 1 {
        return characterize(cfg, subbatch);
    }
    let nominal = match cfg {
        ModelConfig::WordLm(c) => c.seq_len,
        ModelConfig::CharLm(c) => c.seq_len,
        ModelConfig::Nmt(c) => c.src_len,
        ModelConfig::Speech(c) => c.audio_len,
        ModelConfig::Resnet(_) => unreachable!(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let lengths: Vec<u64> = (0..length_samples)
        .map(|_| rng.gen_range(nominal / 2..=nominal + nominal / 2).max(2))
        .collect();
    let points: Vec<CharacterizationPoint> = lengths
        .par_iter()
        .map(|&q| characterize(&cfg.with_seq_len(q), subbatch))
        .collect();
    let n = points.len() as f64;
    let mean = |f: fn(&CharacterizationPoint) -> f64| points.iter().map(f).sum::<f64>() / n;
    CharacterizationPoint {
        params: mean(|p| p.params),
        subbatch,
        flops_per_step: mean(|p| p.flops_per_step),
        flops_per_sample: mean(|p| p.flops_per_sample),
        bytes_per_step: mean(|p| p.bytes_per_step),
        op_intensity: mean(|p| p.flops_per_step) / mean(|p| p.bytes_per_step),
        footprint_bytes: mean(|p| p.footprint_bytes),
        seq_len: nominal,
    }
}

/// Sweep a domain across log-spaced parameter targets at its default
/// subbatch (Figures 7–10 x-axes). Points are computed in parallel through
/// the [`FamilyEngine`](crate::FamilyEngine): one width-symbolic family
/// build per domain, then exact substitution per point — bit-identical to
/// calling [`characterize`] per configuration, but without the N rebuilds.
pub fn sweep_domain(
    domain: Domain,
    lo_params: u64,
    hi_params: u64,
    n_points: usize,
) -> Vec<CharacterizationPoint> {
    let _span = obs::span("analysis.sweep_domain")
        .with_arg("domain", domain.key())
        .with_arg("points", n_points);
    let subbatch = domain.default_subbatch();
    let configs = modelzoo::sweep_configs(domain, lo_params, hi_params, n_points);
    let jobs: Vec<(ModelConfig, u64)> = configs.iter().map(|c| (*c, subbatch)).collect();
    let engine = crate::FamilyEngine::global();
    let mut points = engine.characterize_many(&jobs);
    points.sort_by(|a, b| a.params.partial_cmp(&b.params).expect("finite"));
    obs::recorder().counter("analysis.sweep_points", points.len() as f64);
    points
}

/// Sweep a domain at several subbatch sizes (needed to fit the two-term
/// access model `a(p,b) = λp + µb√p`). Uses the symbolic engine: each
/// configuration's closed form is substituted once and evaluated at every
/// subbatch.
pub fn sweep_domain_batches(
    domain: Domain,
    lo_params: u64,
    hi_params: u64,
    n_points: usize,
    subbatches: &[u64],
) -> Vec<CharacterizationPoint> {
    let _span = obs::span("analysis.sweep_domain_batches")
        .with_arg("domain", domain.key())
        .with_arg("points", n_points)
        .with_arg("subbatches", subbatches.len());
    let configs = modelzoo::sweep_configs(domain, lo_params, hi_params, n_points);
    let jobs: Vec<(ModelConfig, u64)> = configs
        .iter()
        .flat_map(|c| subbatches.iter().map(move |&b| (*c, b)))
        .collect();
    crate::FamilyEngine::global().characterize_many(&jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_grow_linearly_with_params_wordlm() {
        // Figure 7: per-sample FLOPs linear in parameter count above ~30M.
        let points = sweep_domain(Domain::WordLm, 20_000_000, 200_000_000, 3);
        assert_eq!(points.len(), 3);
        let ratio0 = points[0].flops_per_sample / points[0].params;
        let ratio2 = points[2].flops_per_sample / points[2].params;
        // FLOPs/param approaches a constant: within 35% across a 10× sweep.
        assert!((ratio0 / ratio2 - 1.0).abs() < 0.35, "{ratio0} vs {ratio2}");
    }

    #[test]
    fn intensity_levels_off_with_model_size() {
        // Figure 9: at fixed subbatch, intensity approaches an asymptote.
        let points = sweep_domain(Domain::Nmt, 20_000_000, 200_000_000, 3);
        let spread = points[2].op_intensity / points[0].op_intensity;
        assert!(spread < 1.6, "intensity should flatten, spread {spread}");
    }

    #[test]
    fn footprint_grows_with_model_size() {
        let points = sweep_domain(Domain::CharLm, 10_000_000, 100_000_000, 3);
        assert!(points
            .windows(2)
            .all(|w| w[1].footprint_bytes > w[0].footprint_bytes));
    }

    #[test]
    fn averaged_characterization_is_reproducible() {
        let cfg = ModelConfig::default_for(Domain::WordLm).with_target_params(5_000_000);
        let a = characterize_averaged(&cfg, 16, 4, 42);
        let b = characterize_averaged(&cfg, 16, 4, 42);
        assert_eq!(a.flops_per_step, b.flops_per_step);
        // A different seed gives (slightly) different unrolls.
        let c = characterize_averaged(&cfg, 16, 4, 43);
        assert_ne!(a.flops_per_step, c.flops_per_step);
    }

    #[test]
    fn resnet_ignores_length_sampling() {
        let cfg =
            ModelConfig::default_for(Domain::ImageClassification).with_target_params(5_000_000);
        let mut small = match cfg {
            ModelConfig::Resnet(c) => c,
            _ => unreachable!(),
        };
        small.image = 64;
        let cfg = ModelConfig::Resnet(small);
        let a = characterize_averaged(&cfg, 4, 5, 1);
        let b = characterize(&cfg, 4);
        assert_eq!(a.flops_per_step, b.flops_per_step);
    }
}
