//! Unified configuration handle and model-size sweeps across the domains.

use crate::charlm::{build_char_lm, CharLmConfig};
use crate::common::{Domain, ModelGraph};
use crate::nmt::{build_nmt, NmtConfig};
use crate::resnet::{build_resnet, ResNetConfig};
use crate::speech::{build_speech, SpeechConfig};
use crate::wordlm::{build_word_lm, WordLmConfig};

/// A domain-tagged model configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ModelConfig {
    /// Word LM hyperparameters.
    WordLm(WordLmConfig),
    /// Character LM hyperparameters.
    CharLm(CharLmConfig),
    /// NMT hyperparameters.
    Nmt(NmtConfig),
    /// Speech hyperparameters.
    Speech(SpeechConfig),
    /// ResNet hyperparameters.
    Resnet(ResNetConfig),
}

impl ModelConfig {
    /// The paper's characterization defaults for `domain`.
    pub fn default_for(domain: Domain) -> ModelConfig {
        match domain {
            Domain::WordLm => ModelConfig::WordLm(WordLmConfig::default()),
            Domain::CharLm => ModelConfig::CharLm(CharLmConfig::default()),
            Domain::Nmt => ModelConfig::Nmt(NmtConfig::default()),
            Domain::Speech => ModelConfig::Speech(SpeechConfig::default()),
            Domain::ImageClassification => ModelConfig::Resnet(ResNetConfig::default()),
        }
    }

    /// The owning domain.
    pub fn domain(&self) -> Domain {
        match self {
            ModelConfig::WordLm(_) => Domain::WordLm,
            ModelConfig::CharLm(_) => Domain::CharLm,
            ModelConfig::Nmt(_) => Domain::Nmt,
            ModelConfig::Speech(_) => Domain::Speech,
            ModelConfig::Resnet(_) => Domain::ImageClassification,
        }
    }

    /// Re-solve the scaling hyperparameter for `target` parameters.
    pub fn with_target_params(self, target: u64) -> ModelConfig {
        match self {
            ModelConfig::WordLm(c) => ModelConfig::WordLm(c.with_target_params(target)),
            ModelConfig::CharLm(c) => ModelConfig::CharLm(c.with_target_params(target)),
            ModelConfig::Nmt(c) => ModelConfig::Nmt(c.with_target_params(target)),
            ModelConfig::Speech(c) => ModelConfig::Speech(c.with_target_params(target)),
            ModelConfig::Resnet(c) => ModelConfig::Resnet(c.with_target_params(target)),
        }
    }

    /// Rebuild the configuration with a different unroll length (the paper
    /// profiles 100–500 steps with per-step sequence-length variation).
    /// For NMT, `q` sets both source and target lengths; for speech it sets
    /// the audio length (rounded up to a poolable multiple); for ResNet it
    /// is a no-op (image models have no unroll).
    pub fn with_seq_len(self, q: u64) -> ModelConfig {
        assert!(q >= 1);
        match self {
            ModelConfig::WordLm(c) => ModelConfig::WordLm(WordLmConfig { seq_len: q, ..c }),
            ModelConfig::CharLm(c) => ModelConfig::CharLm(CharLmConfig { seq_len: q, ..c }),
            ModelConfig::Nmt(c) => ModelConfig::Nmt(NmtConfig {
                src_len: q,
                tgt_len: q,
                ..c
            }),
            ModelConfig::Speech(c) => {
                let granule = 1u64 << (c.encoder_layers - 1);
                let audio = q.div_ceil(granule) * granule;
                ModelConfig::Speech(SpeechConfig {
                    audio_len: audio,
                    ..c
                })
            }
            ModelConfig::Resnet(c) => ModelConfig::Resnet(c),
        }
    }

    /// Closed-form parameter count.
    pub fn param_formula(&self) -> u64 {
        match self {
            ModelConfig::WordLm(c) => c.param_formula(),
            ModelConfig::CharLm(c) => c.param_formula(),
            ModelConfig::Nmt(c) => c.param_formula(),
            ModelConfig::Speech(c) => c.param_formula(),
            ModelConfig::Resnet(c) => c.param_formula(),
        }
    }

    /// Build the forward compute graph.
    pub fn build(&self) -> ModelGraph {
        match self {
            ModelConfig::WordLm(c) => build_word_lm(c),
            ModelConfig::CharLm(c) => build_char_lm(c),
            ModelConfig::Nmt(c) => build_nmt(c),
            ModelConfig::Speech(c) => build_speech(c),
            ModelConfig::Resnet(c) => build_resnet(c),
        }
    }

    /// Build the full training-step graph.
    pub fn build_training(&self) -> ModelGraph {
        self.build().into_training()
    }
}

impl Domain {
    /// The subbatch size the paper profiles this domain with (Table 3).
    pub fn default_subbatch(&self) -> u64 {
        match self {
            Domain::WordLm => 128,
            Domain::CharLm => 96,
            Domain::Nmt => 96,
            Domain::Speech => 128,
            Domain::ImageClassification => 32,
        }
    }
}

/// Log-spaced parameter targets from `lo` to `hi` inclusive.
pub fn log_spaced_targets(lo: u64, hi: u64, n: usize) -> Vec<u64> {
    assert!(n >= 2 && lo >= 1 && hi > lo, "need n≥2 and hi>lo≥1");
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    (0..n)
        .map(|i| {
            let f = i as f64 / (n - 1) as f64;
            (llo + f * (lhi - llo)).exp().round() as u64
        })
        .collect()
}

/// A sweep of configurations of `domain` with roughly log-spaced parameter
/// counts in `[lo_params, hi_params]` — the x-axes of Figures 7–10.
pub fn sweep_configs(domain: Domain, lo_params: u64, hi_params: u64, n: usize) -> Vec<ModelConfig> {
    log_spaced_targets(lo_params, hi_params, n)
        .into_iter()
        .map(|t| ModelConfig::default_for(domain).with_target_params(t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_spacing_endpoints() {
        let t = log_spaced_targets(1_000, 1_000_000, 4);
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], 1_000);
        assert_eq!(t[3], 1_000_000);
        assert!(t.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn sweep_produces_increasing_param_counts() {
        for domain in Domain::ALL {
            let sweep = sweep_configs(domain, 10_000_000, 300_000_000, 4);
            let params: Vec<u64> = sweep.iter().map(|c| c.param_formula()).collect();
            assert!(
                params.windows(2).all(|w| w[1] > w[0]),
                "{domain:?}: {params:?}"
            );
            // Each point within 15% of its target.
            let targets = log_spaced_targets(10_000_000, 300_000_000, 4);
            for (p, t) in params.iter().zip(targets.iter()) {
                let rel = (*p as f64 - *t as f64).abs() / *t as f64;
                assert!(rel < 0.15, "{domain:?}: param {p} vs target {t}");
            }
        }
    }

    #[test]
    fn default_configs_build_and_roundtrip_domain() {
        for domain in Domain::ALL {
            let cfg = ModelConfig::default_for(domain);
            assert_eq!(cfg.domain(), domain);
        }
    }
}
