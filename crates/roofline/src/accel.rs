//! Target accelerator descriptions: the paper's Table 4 part plus a small
//! registry of later accelerator generations for plan search.
//!
//! The paper prices everything against one V100-class device. The plan-search
//! subsystem ranks hardware choices, so this module also carries stylized
//! A100-like, H100-like, and TPU-v3-like profiles — not spec-sheet
//! transcriptions, but internally consistent `(FLOP/s per dtype, memory
//! BW/capacity, interconnect BW)` tuples selectable by registry key.

/// Numeric precision a kernel runs at, for per-dtype peak lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Precision {
    /// IEEE double precision.
    F64,
    /// IEEE single precision (the paper's baseline; all roofline math uses
    /// this peak unless stated otherwise).
    F32,
    /// Half/bfloat16 matrix-engine precision (tensor cores, MXU).
    F16,
}

/// An accelerator configuration for roofline projections.
#[derive(Clone, Debug, PartialEq)]
pub struct Accelerator {
    /// Human-readable name.
    pub name: String,
    /// Peak 32-bit compute throughput, FLOP/s (`x_c`).
    pub peak_flops: f64,
    /// Peak 16-bit (tensor-core / MXU) compute throughput, FLOP/s.
    pub peak_flops_f16: f64,
    /// Peak 64-bit compute throughput, FLOP/s.
    pub peak_flops_f64: f64,
    /// Peak off-chip memory bandwidth, B/s (`x_a`).
    pub peak_mem_bw: f64,
    /// On-chip cache capacity, bytes.
    pub cache_bytes: f64,
    /// Off-chip memory capacity, bytes.
    pub mem_capacity: f64,
    /// Inter-device link bandwidth, B/s.
    pub interconnect_bw: f64,
    /// Fraction of peak FLOP/s that is achievable (paper: 0.8).
    pub achievable_flops_frac: f64,
    /// Fraction of peak bandwidth that is achievable (paper: 0.7).
    pub achievable_bw_frac: f64,
}

fn gib(x: f64) -> f64 {
    x * (1u64 << 30) as f64
}

fn mib(x: f64) -> f64 {
    x * (1u64 << 20) as f64
}

impl Accelerator {
    /// Registry keys of the built-in profiles, in canonical order.
    pub const KEYS: [&'static str; 4] = ["v100", "a100", "h100", "tpu-v3"];

    /// The paper's Table 4 configuration (similar to an NVIDIA V100v2).
    ///
    /// Datasheet anchors (Tesla V100 SXM2, NVIDIA V100 datasheet /
    /// whitepaper WP-08608): 15.7 TFLOP/s fp32, 125 TFLOP/s tensor fp16,
    /// 7.8 TFLOP/s fp64, 900 GB/s HBM2, 6 MiB L2, up to 32 GB capacity,
    /// NVLink 2.0. Table 4 prices the memory system at 898 GB/s and the
    /// interconnect at 56 GB/s (6 links' worth of per-direction NVLink
    /// payload rather than the marketing 300 GB/s aggregate), and this
    /// profile follows the paper where the two disagree.
    pub fn v100_like() -> Accelerator {
        Accelerator {
            name: "V100-like (Table 4)".into(),
            peak_flops: 15.67e12,
            peak_flops_f16: 125e12,
            peak_flops_f64: 7.8e12,
            peak_mem_bw: 898e9,
            cache_bytes: mib(6.0),
            mem_capacity: gib(32.0),
            interconnect_bw: 56e9,
            achievable_flops_frac: 0.8,
            achievable_bw_frac: 0.7,
        }
    }

    /// An A100-80GB-class profile: ~1.25× the V100's f32 peak, 2.3× the
    /// bandwidth, 2.5× the capacity, and a fatter NVLink.
    ///
    /// Datasheet anchors (A100 80GB SXM, NVIDIA A100 datasheet): 19.5
    /// TFLOP/s fp32, 312 TFLOP/s tensor bf16 (dense), 9.7 TFLOP/s fp64,
    /// 2039 GB/s HBM2e, 40 MiB L2, 80 GB capacity, NVLink 3.0 at 600 GB/s
    /// aggregate — carried here as 150 GB/s of usable per-direction
    /// bandwidth to stay consistent with the V100 entry's convention.
    pub fn a100_like() -> Accelerator {
        Accelerator {
            name: "A100-like".into(),
            peak_flops: 19.5e12,
            peak_flops_f16: 312e12,
            peak_flops_f64: 9.7e12,
            peak_mem_bw: 2039e9,
            cache_bytes: mib(40.0),
            mem_capacity: gib(80.0),
            interconnect_bw: 150e9,
            achievable_flops_frac: 0.8,
            achievable_bw_frac: 0.7,
        }
    }

    /// An H100-class profile: the compute-heavy end of the design space the
    /// paper warns about (§6.2.3) — huge matrix-engine peaks over a
    /// comparatively modest capacity.
    ///
    /// Datasheet anchors (H100 SXM, NVIDIA H100 datasheet): 67 TFLOP/s
    /// fp32, 989 TFLOP/s tensor bf16 (dense), 34 TFLOP/s fp64, 3.35 TB/s
    /// HBM3, 50 MiB L2, 80 GB capacity, NVLink 4.0 at 900 GB/s aggregate
    /// — carried as 225 GB/s usable per-direction, same convention as
    /// above.
    pub fn h100_like() -> Accelerator {
        Accelerator {
            name: "H100-like".into(),
            peak_flops: 67e12,
            peak_flops_f16: 989e12,
            peak_flops_f64: 34e12,
            peak_mem_bw: 3350e9,
            cache_bytes: mib(50.0),
            mem_capacity: gib(80.0),
            interconnect_bw: 225e9,
            achievable_flops_frac: 0.8,
            achievable_bw_frac: 0.7,
        }
    }

    /// A TPU-v3-class profile: bfloat16 MXU throughput with a V100-scale
    /// HBM capacity and a strong chip-to-chip interconnect.
    ///
    /// Published anchors (Google Cloud TPU v3 documentation; Jouppi et al.,
    /// CACM 2020): 123 TFLOP/s bf16 per chip, 32 GiB HBM at ~900 GB/s, ICI
    /// links of ~656 Gb/s each (~82 GB/s, carried here as a conservative
    /// 70 GB/s). The MXU has no general fp32/fp64 pipes, so those peaks
    /// are stylized low: fp32 at the vector-unit-scale 16 TFLOP/s, fp64
    /// nominal.
    pub fn tpu_v3_like() -> Accelerator {
        Accelerator {
            name: "TPU-v3-like".into(),
            peak_flops: 16e12,
            peak_flops_f16: 123e12,
            peak_flops_f64: 0.5e12,
            peak_mem_bw: 900e9,
            cache_bytes: mib(32.0),
            mem_capacity: gib(32.0),
            interconnect_bw: 70e9,
            achievable_flops_frac: 0.8,
            achievable_bw_frac: 0.7,
        }
    }

    /// Look up a registry profile by key (see [`Accelerator::KEYS`]).
    pub fn by_key(key: &str) -> Option<Accelerator> {
        match key {
            "v100" => Some(Accelerator::v100_like()),
            "a100" => Some(Accelerator::a100_like()),
            "h100" => Some(Accelerator::h100_like()),
            "tpu-v3" => Some(Accelerator::tpu_v3_like()),
            _ => None,
        }
    }

    /// Every registry profile, keyed, in [`Accelerator::KEYS`] order.
    pub fn registry() -> Vec<(&'static str, Accelerator)> {
        Accelerator::KEYS
            .iter()
            .map(|&k| (k, Accelerator::by_key(k).expect("registry key")))
            .collect()
    }

    /// Peak compute throughput at the given precision.
    pub fn peak_flops_at(&self, precision: Precision) -> f64 {
        match precision {
            Precision::F64 => self.peak_flops_f64,
            Precision::F32 => self.peak_flops,
            Precision::F16 => self.peak_flops_f16,
        }
    }

    /// Achievable compute throughput `0.8·x_c`.
    pub fn achievable_flops(&self) -> f64 {
        self.achievable_flops_frac * self.peak_flops
    }

    /// Achievable memory bandwidth `0.7·x_a`.
    pub fn achievable_bw(&self) -> f64 {
        self.achievable_bw_frac * self.peak_mem_bw
    }

    /// Peak roofline ridge point `x_c / x_a` (FLOP/B).
    pub fn ridge_point(&self) -> f64 {
        self.peak_flops / self.peak_mem_bw
    }

    /// Achievable-throughput ridge point `0.8·x_c / 0.7·x_a` (FLOP/B) — the
    /// operational intensity above which a kernel is compute-bound in
    /// practice.
    pub fn achievable_ridge_point(&self) -> f64 {
        self.achievable_flops() / self.achievable_bw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_ridge_points() {
        let a = Accelerator::v100_like();
        // Paper: ridge 17.4 FLOP/B, rising to 19.9 at achievable throughput.
        assert!((a.ridge_point() - 17.45).abs() < 0.1, "{}", a.ridge_point());
        assert!(
            (a.achievable_ridge_point() - 19.94).abs() < 0.1,
            "{}",
            a.achievable_ridge_point()
        );
    }

    #[test]
    fn achievable_fractions_apply() {
        let a = Accelerator::v100_like();
        assert!((a.achievable_flops() - 0.8 * 15.67e12).abs() < 1.0);
        assert!((a.achievable_bw() - 0.7 * 898e9).abs() < 1.0);
    }

    #[test]
    fn capacity_is_32_gib() {
        let a = Accelerator::v100_like();
        assert_eq!(a.mem_capacity, 32.0 * 1073741824.0);
    }

    #[test]
    fn registry_keys_resolve_and_unknown_is_none() {
        for key in Accelerator::KEYS {
            let a = Accelerator::by_key(key).expect("registry key resolves");
            assert!(a.peak_flops > 0.0 && a.mem_capacity > 0.0, "{key}");
        }
        assert!(Accelerator::by_key("z80").is_none());
        assert!(Accelerator::by_key("V100").is_none(), "keys are exact");
        let reg = Accelerator::registry();
        assert_eq!(reg.len(), Accelerator::KEYS.len());
        assert_eq!(reg[0].1, Accelerator::v100_like());
    }

    #[test]
    fn dtype_peaks_are_ordered() {
        // On every profile the matrix-engine f16 peak dominates f32, which
        // dominates f64.
        for (key, a) in Accelerator::registry() {
            assert!(
                a.peak_flops_at(Precision::F16) > a.peak_flops_at(Precision::F32),
                "{key}"
            );
            assert!(
                a.peak_flops_at(Precision::F32) > a.peak_flops_at(Precision::F64),
                "{key}"
            );
        }
    }

    #[test]
    fn generations_scale_monotonically() {
        let (v100, a100, h100) = (
            Accelerator::v100_like(),
            Accelerator::a100_like(),
            Accelerator::h100_like(),
        );
        assert!(v100.peak_flops < a100.peak_flops && a100.peak_flops < h100.peak_flops);
        assert!(v100.peak_mem_bw < a100.peak_mem_bw && a100.peak_mem_bw < h100.peak_mem_bw);
        assert!(v100.interconnect_bw < a100.interconnect_bw);
        assert!(v100.mem_capacity < a100.mem_capacity);
    }
}
