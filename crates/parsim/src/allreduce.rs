//! Gradient-reduction communication models (paper §6.2.1, after Patarasuk &
//! Yuan's bandwidth-optimal ring allreduce).

/// Communication cost parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommConfig {
    /// Inter-device link bandwidth, B/s (Table 4: 56 GB/s).
    pub link_bw: f64,
    /// Per-hop overhead, seconds: link latency plus per-step software and
    /// synchronization cost. The default is calibrated so the word-LM case
    /// study reproduces the paper's Figure 12 utilization curve (38% at 512
    /// workers, 34% at 1024).
    pub hop_overhead: f64,
}

impl Default for CommConfig {
    fn default() -> CommConfig {
        CommConfig {
            link_bw: 56e9,
            hop_overhead: 2.4e-3,
        }
    }
}

/// Ring allreduce time for `bytes` over `workers` devices:
/// `2·(N−1)·(α + s/(N·bw))` — bandwidth-optimal; each device sends its
/// `s/N` chunk around the ring twice (reduce-scatter + allgather).
pub fn ring_allreduce_seconds(bytes: f64, workers: u64, comm: &CommConfig) -> f64 {
    assert!(bytes >= 0.0);
    if workers <= 1 {
        return 0.0;
    }
    let n = workers as f64;
    2.0 * (n - 1.0) * (comm.hop_overhead + bytes / (n * comm.link_bw))
}

/// Binary-tree allreduce (reduce + broadcast): `2·⌈log₂N⌉·(α + s/bw)`.
/// Latency-optimal but moves the full buffer at every level — the baseline
/// the ring is tested against (`tests::tree_beats_ring_for_tiny_buffers_many_workers`,
/// `tests::ring_beats_tree_for_large_buffers`).
pub fn tree_allreduce_seconds(bytes: f64, workers: u64, comm: &CommConfig) -> f64 {
    assert!(bytes >= 0.0);
    if workers <= 1 {
        return 0.0;
    }
    let levels = (workers as f64).log2().ceil();
    2.0 * levels * (comm.hop_overhead + bytes / comm.link_bw)
}

/// Discrete-event cross-check of the ring: simulate the 2(N−1) hop phases
/// explicitly, each phase completing when the slowest device finishes its
/// send. With homogeneous devices this must equal the closed form.
pub fn ring_allreduce_discrete_event(bytes: f64, workers: u64, comm: &CommConfig) -> f64 {
    if workers <= 1 {
        return 0.0;
    }
    let _span = obs::span("parsim.allreduce_des")
        .with_arg("bytes", bytes)
        .with_arg("workers", workers);
    let n = workers as usize;
    let chunk = bytes / n as f64;
    let mut clock = vec![0.0f64; n];
    // reduce-scatter then allgather: 2(N−1) phases; in each phase device i
    // sends one chunk to device (i+1) mod N and cannot start before both it
    // and its receiver reached the phase barrier.
    for _phase in 0..2 * (n - 1) {
        let mut next = clock.clone();
        for (i, next_t) in next.iter_mut().enumerate() {
            let peer = (i + n - 1) % n; // receives from the left neighbor
            let start = clock[i].max(clock[peer]);
            *next_t = start + comm.hop_overhead + chunk / comm.link_bw;
        }
        clock = next;
    }
    clock.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm() -> CommConfig {
        CommConfig::default()
    }

    #[test]
    fn single_worker_is_free() {
        assert_eq!(ring_allreduce_seconds(1e9, 1, &comm()), 0.0);
        assert_eq!(tree_allreduce_seconds(1e9, 1, &comm()), 0.0);
        assert_eq!(ring_allreduce_discrete_event(1e9, 1, &comm()), 0.0);
    }

    #[test]
    fn ring_bandwidth_term_saturates_at_2s_over_bw() {
        // As N → ∞ the bandwidth component approaches 2·s/bw.
        let c = CommConfig {
            hop_overhead: 0.0,
            ..comm()
        };
        let s = 33.6e9; // LSTM-p gradients
        let t = ring_allreduce_seconds(s, 4096, &c);
        let limit = 2.0 * s / c.link_bw;
        assert!(t < limit && t > 0.99 * limit, "{t} vs {limit}");
    }

    #[test]
    fn discrete_event_matches_closed_form() {
        let c = comm();
        for &n in &[2u64, 3, 8, 64, 500] {
            let des = ring_allreduce_discrete_event(1e9, n, &c);
            let analytic = ring_allreduce_seconds(1e9, n, &c);
            let rel = (des - analytic).abs() / analytic;
            assert!(rel < 1e-9, "N={n}: des {des} vs analytic {analytic}");
        }
    }

    #[test]
    fn tree_beats_ring_for_tiny_buffers_many_workers() {
        // Latency-bound regime: tree's log N hops win.
        let c = comm();
        let t_ring = ring_allreduce_seconds(1e3, 1024, &c);
        let t_tree = tree_allreduce_seconds(1e3, 1024, &c);
        assert!(t_tree < t_ring);
    }

    #[test]
    fn ring_beats_tree_for_large_buffers() {
        // Bandwidth-bound regime: ring's s/N chunks win.
        let c = comm();
        let t_ring = ring_allreduce_seconds(33.6e9, 64, &c);
        let t_tree = tree_allreduce_seconds(33.6e9, 64, &c);
        assert!(t_ring < t_tree);
    }

    #[test]
    fn fig12_overhead_calibration() {
        // The §6 case study: 33.6 GB of LSTM-p gradients. The paper's curve
        // implies ~3.7 s of overhead at 512 workers and ~6.1 s at 1024.
        let c = comm();
        let g = 33.6e9;
        let t512 = ring_allreduce_seconds(g, 512, &c);
        let t1024 = ring_allreduce_seconds(g, 1024, &c);
        assert!((t512 - 3.7).abs() < 0.4, "512 workers: {t512}");
        assert!((t1024 - 6.1).abs() < 0.6, "1024 workers: {t1024}");
    }
}
