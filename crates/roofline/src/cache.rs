//! Cache-hierarchy-aware memory-traffic models for large matrix multiplies
//! (paper §6.1).
//!
//! Algorithmic bytes undercount the traffic of a large matmul: a tiled
//! implementation must re-stream portions of the inputs from off-chip memory
//! whenever the working set exceeds the on-chip cache. The paper models
//! "a common, tiled matrix multiply implementation" (citing Coleman &
//! McKinley 1995) and reports that it cuts the word-LM case study's
//! algorithmic FLOP utilization from 80% to 46%.
//!
//! Three models are provided, from optimistic to faithful-to-the-paper:
//!
//! * [`CacheModel::Algorithmic`] — each operand byte touched exactly once.
//! * [`CacheModel::SquareTile`] — optimal square tiling with three `t×t`
//!   tiles resident (`t = √(Z/3e)`): inputs are re-streamed once per tile
//!   row/column of the output. This is a lower bound on a good GEMM.
//! * [`CacheModel::PanelStream`] — the "common implementation": the output
//!   is computed in row panels of height `t_m = Z/(2·k·e)` (a panel of A
//!   plus streaming room must fit in cache); all of B is re-streamed for
//!   every panel, i.e. `⌈m/t_m⌉` times. The symmetric column-panel schedule
//!   is also evaluated and the cheaper of the two is charged.

use cgraph::{Graph, NumericStats, Op, OpKind};
use symath::{Bindings, UnboundSymbol};

use crate::accel::Accelerator;
use crate::timing::{roofline_time, RooflineTime};

/// Which memory-traffic model to charge matmuls with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheModel {
    /// Paper §2.1 algorithmic bytes (no cache effects).
    Algorithmic,
    /// Optimal square tiling (optimistic bound).
    SquareTile,
    /// Common panel-streaming GEMM (the paper's §6.1 model).
    PanelStream,
}

/// Algorithmic element traffic of an `m×k · k×n` matmul.
fn algorithmic_elems(m: f64, k: f64, n: f64) -> f64 {
    m * k + k * n + 2.0 * m * n
}

/// Square-tile traffic in bytes: `t = √(Z/3e)`; A re-streamed per output
/// tile column, B per output tile row.
pub fn matmul_traffic_square(m: f64, k: f64, n: f64, cache_bytes: f64, e: f64) -> f64 {
    assert!(m >= 1.0 && k >= 1.0 && n >= 1.0 && cache_bytes > 0.0 && e > 0.0);
    let t = (cache_bytes / (3.0 * e)).sqrt().max(1.0);
    let tiled = 2.0 * m * n + m * k * (n / t).ceil() + k * n * (m / t).ceil();
    e * tiled.max(algorithmic_elems(m, k, n))
}

/// Panel-streaming traffic in bytes (the paper's model): the GEMM runs over
/// contraction blocks of depth `k_c = min(k, √(Z/e))` (the depth that
/// balances stationary-panel re-streaming against output revisits); within a
/// block, resident panels of height `t = Z/(2·k_c·e)` hold one operand while
/// the other streams. The cheaper of the row-panel and column-panel
/// schedules is charged:
///
/// ```text
/// row: m·k + ⌈m/t⌉·k·n + 2·m·n·⌈k/k_c⌉
/// col: k·n + ⌈n/t⌉·m·k + 2·m·n·⌈k/k_c⌉
/// ```
pub fn matmul_traffic_panel(m: f64, k: f64, n: f64, cache_bytes: f64, e: f64) -> f64 {
    assert!(m >= 1.0 && k >= 1.0 && n >= 1.0 && cache_bytes > 0.0 && e > 0.0);
    let k_c = k.min((cache_bytes / e).sqrt()).max(1.0);
    let panel = (cache_bytes / (2.0 * k_c * e)).floor().max(1.0);
    let out_revisits = 2.0 * m * n * (k / k_c).ceil();
    let row_schedule = m * k + (m / panel).ceil() * k * n + out_revisits;
    let col_schedule = k * n + (n / panel).ceil() * m * k + out_revisits;
    e * row_schedule
        .min(col_schedule)
        .max(algorithmic_elems(m, k, n))
}

/// Traffic under the selected model.
pub fn matmul_traffic(m: f64, k: f64, n: f64, cache_bytes: f64, e: f64, model: CacheModel) -> f64 {
    match model {
        CacheModel::Algorithmic => e * algorithmic_elems(m, k, n),
        CacheModel::SquareTile => matmul_traffic_square(m, k, n, cache_bytes, e),
        CacheModel::PanelStream => matmul_traffic_panel(m, k, n, cache_bytes, e),
    }
}

/// Extract `(m, k, n)` of a matmul-like op under `bindings` (batch dims
/// folded into `m`); `None` for non-matmul ops.
fn matmul_dims(
    graph: &Graph,
    op: &Op,
    bindings: &Bindings,
) -> Result<Option<(f64, f64, f64)>, UnboundSymbol> {
    let (ta, tb, batched) = match op.kind {
        OpKind::MatMul { ta, tb } => (ta, tb, false),
        OpKind::BatchMatMul { ta, tb } => (ta, tb, true),
        _ => return Ok(None),
    };
    let a = &graph.tensor(op.inputs[0]).shape;
    let b = &graph.tensor(op.inputs[1]).shape;
    let r = a.rank();
    let dim = |s: &cgraph::Shape, i: usize| s.dim(i).eval(bindings);
    let (mut m, k) = if ta {
        (dim(a, r - 1)?, dim(a, r - 2)?)
    } else {
        (dim(a, r - 2)?, dim(a, r - 1)?)
    };
    let rb = b.rank();
    let n = if tb { dim(b, rb - 2)? } else { dim(b, rb - 1)? };
    if batched {
        for i in 0..r - 2 {
            m *= dim(a, i)?;
        }
    }
    Ok(Some((m, k, n)))
}

/// Bytes accessed by `op`, with matmuls charged under `model`.
pub fn op_bytes_with_cache(
    graph: &Graph,
    op: &Op,
    bindings: &Bindings,
    accel: &Accelerator,
    model: CacheModel,
) -> Result<f64, UnboundSymbol> {
    let (r, w) = graph.op_bytes(op);
    let algorithmic = r.eval(bindings)? + w.eval(bindings)?;
    if model == CacheModel::Algorithmic {
        return Ok(algorithmic);
    }
    if let Some((m, k, n)) = matmul_dims(graph, op, bindings)? {
        let e = graph.tensor(op.outputs[0]).dtype.size_bytes() as f64;
        let modeled = matmul_traffic(m, k, n, accel.cache_bytes, e, model);
        Ok(modeled.max(algorithmic))
    } else {
        Ok(algorithmic)
    }
}

/// Whole-graph cost summary with matmul bytes charged under `model`.
pub fn cache_aware_stats(
    graph: &Graph,
    bindings: &Bindings,
    accel: &Accelerator,
    model: CacheModel,
) -> Result<NumericStats, UnboundSymbol> {
    let mut stats = graph.stats().eval(bindings)?;
    let mut extra = 0.0;
    for op in graph.ops() {
        let (r, w) = graph.op_bytes(op);
        let algorithmic = r.eval(bindings)? + w.eval(bindings)?;
        let modeled = op_bytes_with_cache(graph, op, bindings, accel, model)?;
        extra += modeled - algorithmic;
    }
    stats.bytes += extra;
    stats.bytes_read += extra; // re-streaming is read traffic
    Ok(stats)
}

/// Per-op roofline execution time of a training step: each op is bounded by
/// compute or memory individually and the times are summed (sequential
/// execution). This is the paper's "cache-hierarchy-aware" timing when
/// `model = PanelStream` (Table 5 row 2).
pub fn per_op_step_time(
    graph: &Graph,
    bindings: &Bindings,
    accel: &Accelerator,
    model: CacheModel,
) -> Result<RooflineTime, UnboundSymbol> {
    let _span = obs::span("roofline.per_op_step_time")
        .with_arg("graph", graph.name.as_str())
        .with_arg("ops", graph.ops().len())
        .with_arg("cache_model", format!("{model:?}"));
    let mut seconds = 0.0;
    let mut total_flops = 0.0;
    for op in graph.ops() {
        let flops = graph.op_flops(op).eval(bindings)?;
        let bytes = op_bytes_with_cache(graph, op, bindings, accel, model)?;
        let t = roofline_time(flops, bytes, accel);
        seconds += t.seconds;
        total_flops += flops;
    }
    let flop_utilization = if seconds > 0.0 {
        total_flops / (seconds * accel.peak_flops)
    } else {
        0.0
    };
    let bound = if flop_utilization >= 0.5 * accel.achievable_flops_frac {
        crate::timing::Bound::Compute
    } else {
        crate::timing::Bound::Memory
    };
    Ok(RooflineTime {
        seconds,
        bound,
        flop_utilization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matmul_pays_only_algorithmic_traffic() {
        // Everything fits in a 6MB cache: 100×100 matrices are 40KB each.
        for model in [CacheModel::SquareTile, CacheModel::PanelStream] {
            let bytes = matmul_traffic(100.0, 100.0, 100.0, 6e6, 4.0, model);
            assert_eq!(bytes, 4.0 * (100.0 * 100.0 * 4.0), "{model:?}");
        }
    }

    #[test]
    fn large_square_matmul_restreams_under_both_models() {
        let m = 16384.0;
        let algorithmic = 4.0 * m * m * 4.0;
        for model in [CacheModel::SquareTile, CacheModel::PanelStream] {
            let bytes = matmul_traffic(m, m, m, 6e6, 4.0, model);
            assert!(bytes > 5.0 * algorithmic, "{model:?}: {bytes}");
        }
    }

    #[test]
    fn all_models_bounded_below_by_algorithmic() {
        for &(m, k, n) in &[
            (128.0, 8192.0, 32768.0),
            (128.0, 32768.0, 8192.0),
            (8192.0, 8192.0, 8192.0),
            (10240.0, 1024.0, 793471.0),
            (1.0, 1.0, 1.0),
        ] {
            let alg = 4.0 * algorithmic_elems(m, k, n);
            let sq = matmul_traffic_square(m, k, n, 6e6, 4.0);
            let pn = matmul_traffic_panel(m, k, n, 6e6, 4.0);
            assert!(sq >= alg, "({m},{k},{n}): square {sq} < algorithmic {alg}");
            assert!(pn >= alg, "({m},{k},{n}): panel {pn} < algorithmic {alg}");
        }
    }

    #[test]
    fn frontier_square_matmul_pays_order_of_magnitude_restreaming() {
        // A 16384³ matmul (frontier hidden-dim scale at large batch): the
        // working set exceeds the 6MB cache by ~500×, and the panel model
        // charges >10× the algorithmic traffic (the paper's "streaming
        // inputs from memory multiple times", §6.2.3).
        let a = Accelerator::v100_like();
        let m = 16384.0;
        let alg = 4.0 * algorithmic_elems(m, m, m);
        let panel = matmul_traffic_panel(m, m, m, a.cache_bytes, 4.0);
        assert!(panel > 10.0 * alg, "panel {panel} vs algorithmic {alg}");
        // Doubling the cache proportionally reduces re-streaming (§6.2.3's
        // argument for larger on-chip caches).
        let bigger = matmul_traffic_panel(m, m, m, 2.0 * a.cache_bytes, 4.0);
        assert!(
            bigger < 0.8 * panel,
            "2× cache: {bigger} should be well below {panel}"
        );
    }

    #[test]
    fn skinny_batch_matmuls_stay_near_algorithmic() {
        // [128 × 8192]·[8192 × 32768] — a subbatch-128 LSTM gate matmul.
        // With contraction blocking the resident panel covers all 128 rows,
        // so no operand is re-streamed (CNN/small-batch regime).
        let (m, k, n) = (128.0, 8192.0, 32768.0);
        let alg = 4.0 * algorithmic_elems(m, k, n);
        let panel = matmul_traffic_panel(m, k, n, 6e6, 4.0);
        assert!(
            panel < 1.5 * alg,
            "panel {panel} should stay near algorithmic {alg}"
        );
    }

    #[test]
    fn traffic_decreases_with_cache_size() {
        let m = 8192.0;
        for model in [CacheModel::SquareTile, CacheModel::PanelStream] {
            let small = matmul_traffic(m, m, m, 1e6, 4.0, model);
            let big = matmul_traffic(m, m, m, 64e6, 4.0, model);
            assert!(big < small, "{model:?}");
        }
    }

    #[test]
    fn per_op_time_ordering_across_models() {
        use modelzoo::{Domain, ModelConfig};
        let m = ModelConfig::default_for(Domain::WordLm)
            .with_target_params(30_000_000)
            .build_training();
        let a = Accelerator::v100_like();
        let bindings = m.bindings_with_batch(32);
        let alg = per_op_step_time(&m.graph, &bindings, &a, CacheModel::Algorithmic).unwrap();
        let sq = per_op_step_time(&m.graph, &bindings, &a, CacheModel::SquareTile).unwrap();
        let pn = per_op_step_time(&m.graph, &bindings, &a, CacheModel::PanelStream).unwrap();
        // Both cache-aware models only ever add traffic over algorithmic.
        assert!(alg.seconds <= sq.seconds + 1e-12);
        assert!(alg.seconds <= pn.seconds + 1e-12);
        assert!(pn.flop_utilization <= alg.flop_utilization + 1e-12);
    }

    #[test]
    fn cache_aware_stats_only_add_traffic() {
        use modelzoo::{Domain, ModelConfig};
        let m = ModelConfig::default_for(Domain::WordLm)
            .with_target_params(20_000_000)
            .build_training();
        let a = Accelerator::v100_like();
        let bindings = m.bindings_with_batch(32);
        let plain = m.graph.stats().eval(&bindings).unwrap();
        let aware = cache_aware_stats(&m.graph, &bindings, &a, CacheModel::PanelStream).unwrap();
        assert!(aware.bytes >= plain.bytes);
        assert_eq!(aware.flops, plain.flops);
    }
}
