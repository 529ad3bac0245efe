//! Gradient-compression models for communication reduction (paper §6.2.3,
//! after its references: QSGD (Alistarh et al.), TernGrad (Wen et al.), and
//! deep gradient compression (Lin et al.)).
//!
//! Each scheme trades allreduce bytes for (a) extra pointwise compute to
//! encode/decode and (b) — outside this model's scope — convergence risk.
//! The paper projects 1.5–10× memory/communication reductions from this
//! family of techniques.

/// A gradient-compression scheme applied before the allreduce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GradCompression {
    /// Full-precision f32 gradients (the paper's baseline).
    None,
    /// Half-precision gradients: 2× fewer bytes, negligible encode cost.
    Fp16,
    /// QSGD-style 8-bit stochastic quantization: 4× fewer bytes plus a
    /// per-tensor scale.
    Int8,
    /// TernGrad: ternary levels {−1, 0, +1} packed at 2 bits: 16× fewer
    /// bytes.
    Ternary,
    /// Deep gradient compression: top-k sparsification; only `1/ratio` of
    /// the gradient (value + index) is sent.
    TopK {
        /// Compression ratio (e.g. 100 sends 1% of entries). Values and
        /// 32-bit indices both travel, so wire bytes are `8/ratio` per
        /// parameter.
        ratio: u32,
    },
}

impl GradCompression {
    /// Wire bytes per parameter (f32 baseline = 4).
    pub fn bytes_per_param(&self) -> f64 {
        match self {
            GradCompression::None => 4.0,
            GradCompression::Fp16 => 2.0,
            GradCompression::Int8 => 1.0,
            GradCompression::Ternary => 0.25,
            GradCompression::TopK { ratio } => {
                assert!(*ratio >= 1);
                8.0 / *ratio as f64
            }
        }
    }

    /// Communication reduction vs f32 (the paper's "1.5–10×" band covers
    /// Fp16 through TopK).
    pub fn reduction(&self) -> f64 {
        4.0 / self.bytes_per_param()
    }

    /// Encode+decode FLOPs per parameter (quantization / selection cost).
    pub fn codec_flops_per_param(&self) -> f64 {
        match self {
            GradCompression::None => 0.0,
            GradCompression::Fp16 => 1.0,
            GradCompression::Int8 => 4.0, // scale, clamp, round, rescale
            GradCompression::Ternary => 4.0,
            GradCompression::TopK { .. } => 8.0, // selection + gather/scatter
        }
    }

    /// Wire bytes for a gradient of `params` parameters.
    pub fn wire_bytes(&self, params: f64) -> f64 {
        self.bytes_per_param() * params
    }

    /// Extra per-step codec time on an accelerator with achievable
    /// throughput `flops_per_second`.
    pub fn codec_seconds(&self, params: f64, flops_per_second: f64) -> f64 {
        assert!(flops_per_second > 0.0);
        self.codec_flops_per_param() * params / flops_per_second
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_cover_paper_band() {
        // Paper: "may reduce ... by 1.5–10×".
        assert_eq!(GradCompression::None.reduction(), 1.0);
        assert_eq!(GradCompression::Fp16.reduction(), 2.0);
        assert_eq!(GradCompression::Int8.reduction(), 4.0);
        assert_eq!(GradCompression::Ternary.reduction(), 16.0);
        assert_eq!(GradCompression::TopK { ratio: 100 }.reduction(), 50.0);
    }

    #[test]
    fn wire_bytes_scale_with_params() {
        let p = 8.4e9;
        assert_eq!(GradCompression::None.wire_bytes(p), 4.0 * p);
        assert_eq!(GradCompression::Ternary.wire_bytes(p), p / 4.0);
    }

    #[test]
    fn codec_cost_is_small_vs_saved_transfer() {
        // For the case-study gradients (8.4B params) at V100 throughput,
        // Int8's codec costs ~3 ms while saving seconds of ring time.
        let p = 8.4e9;
        let codec = GradCompression::Int8.codec_seconds(p, 12.5e12);
        assert!(codec < 0.01, "codec {codec}");
        let saved_bytes = GradCompression::None.wire_bytes(p) - GradCompression::Int8.wire_bytes(p);
        let saved_seconds = 2.0 * saved_bytes / 56e9; // ring bandwidth term
        assert!(saved_seconds > 50.0 * codec);
    }

    #[test]
    #[should_panic(expected = "ratio >= 1")]
    fn topk_requires_positive_ratio() {
        let _ = GradCompression::TopK { ratio: 0 }.bytes_per_param();
    }
}
