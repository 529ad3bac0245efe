//! Property-based tests over randomly generated compute graphs: builder,
//! autodiff, cost-model, and footprint invariants that must hold for *any*
//! well-formed DAG, not just the model zoo's.

use cgraph::{
    build_training_step, footprint, footprint_peak, footprint_reference, tensor_sizes, DType,
    FootprintPlan, Graph, PointwiseFn, Scheduler, TensorId,
};
use proptest::prelude::*;
use symath::{Bindings, Expr};

/// One randomly chosen layer appended to a growing chain.
#[derive(Clone, Copy, Debug)]
enum LayerChoice {
    Dense { width: u64 },
    Pointwise(u8),
    ResidualPair { width: u64 },
    SplitJoin,
}

fn arb_layer() -> impl Strategy<Value = LayerChoice> {
    prop_oneof![
        (4u64..64).prop_map(|w| LayerChoice::Dense { width: w * 2 }),
        (0u8..4).prop_map(LayerChoice::Pointwise),
        (4u64..32).prop_map(|w| LayerChoice::ResidualPair { width: w * 2 }),
        Just(LayerChoice::SplitJoin),
    ]
}

fn pointwise_of(i: u8) -> PointwiseFn {
    match i % 4 {
        0 => PointwiseFn::Relu,
        1 => PointwiseFn::Tanh,
        2 => PointwiseFn::Sigmoid,
        _ => PointwiseFn::Exp,
    }
}

/// Build a random feed-forward graph ending in a cross-entropy loss.
fn build_random_graph(layers: &[LayerChoice], in_width: u64) -> (Graph, TensorId) {
    build_random_graph_with_side(layers, in_width, None)
}

/// [`build_random_graph`], optionally with a side branch built after the
/// layers and added in just before the loss: `side·proj`, two inputs of
/// inner width `k`. Program order runs it last; greedy may run it first and
/// hold its full-width output through the whole chain, which is what lets
/// program order win on some of these graphs.
fn build_random_graph_with_side(
    layers: &[LayerChoice],
    in_width: u64,
    side: Option<u64>,
) -> (Graph, TensorId) {
    let mut g = Graph::new("prop_graph");
    let b = Expr::sym("prop_b");
    let mut t = g
        .input("x", [b.clone(), Expr::from(in_width)], DType::F32)
        .expect("input");
    let mut width = in_width;
    for (i, layer) in layers.iter().enumerate() {
        match layer {
            LayerChoice::Dense { width: out } => {
                let w = g
                    .weight(format!("w{i}"), [Expr::from(width), Expr::from(*out)])
                    .expect("weight");
                t = g
                    .matmul(&format!("fc{i}"), t, w, false, false)
                    .expect("matmul");
                width = *out;
            }
            LayerChoice::Pointwise(f) => {
                t = g
                    .unary(&format!("pw{i}"), pointwise_of(*f), t)
                    .expect("pointwise");
            }
            LayerChoice::ResidualPair { width: mid } => {
                let w1 = g
                    .weight(format!("rw{i}a"), [Expr::from(width), Expr::from(*mid)])
                    .expect("weight");
                let w2 = g
                    .weight(format!("rw{i}b"), [Expr::from(*mid), Expr::from(width)])
                    .expect("weight");
                let h = g
                    .matmul(&format!("res{i}a"), t, w1, false, false)
                    .expect("mm");
                let h = g
                    .unary(&format!("res{i}r"), PointwiseFn::Relu, h)
                    .expect("relu");
                let h = g
                    .matmul(&format!("res{i}b"), h, w2, false, false)
                    .expect("mm");
                t = g
                    .binary(&format!("res{i}add"), PointwiseFn::Add, h, t)
                    .expect("residual");
            }
            LayerChoice::SplitJoin => {
                if !width.is_multiple_of(2) {
                    continue;
                }
                let parts = g.split(&format!("sp{i}"), t, 1, 2).expect("split");
                let a = g
                    .unary(&format!("sp{i}a"), PointwiseFn::Tanh, parts[0])
                    .expect("pw");
                let c = g
                    .binary(&format!("sp{i}m"), PointwiseFn::Mul, a, parts[1])
                    .expect("mul");
                t = g
                    .concat(&format!("sp{i}cat"), &[c, parts[1]], 1)
                    .expect("cat");
            }
        }
    }
    if let Some(k) = side {
        let s = g
            .input("side", [b.clone(), Expr::from(k)], DType::F32)
            .expect("side");
        let proj = g
            .input("side_proj", [Expr::from(k), Expr::from(width)], DType::F32)
            .expect("side_proj");
        let p = g.matmul("side_mm", s, proj, false, false).expect("mm");
        t = g
            .binary("side_add", PointwiseFn::Add, t, p)
            .expect("side add");
    }
    let labels = g.input("labels", [b], DType::I32).expect("labels");
    let loss = g.cross_entropy("loss", t, labels).expect("loss");
    (g, loss)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every random forward graph validates, differentiates, and still
    /// validates afterwards.
    #[test]
    fn random_graphs_differentiate(
        layers in prop::collection::vec(arb_layer(), 1..10),
        in_width in (4u64..32).prop_map(|w| w * 2),
    ) {
        let (mut g, loss) = build_random_graph(&layers, in_width);
        prop_assert!(g.validate().is_ok());
        let step = build_training_step(&mut g, loss).expect("differentiable");
        prop_assert!(g.validate().is_ok());
        // Every weight got exactly one update.
        let weights = g
            .tensors()
            .iter()
            .filter(|t| t.kind == cgraph::TensorKind::Weight)
            .count();
        prop_assert_eq!(step.update_ops, weights);
    }

    /// Backward FLOPs never exceed 2× forward plus pointwise slack, and the
    /// total cost summary is internally consistent.
    #[test]
    fn cost_invariants(
        layers in prop::collection::vec(arb_layer(), 1..8),
        batch in 1u64..32,
    ) {
        let (mut g, loss) = build_random_graph(&layers, 16);
        build_training_step(&mut g, loss).expect("diff");
        let n = g
            .stats()
            .eval(&Bindings::new().with("prop_b", batch as f64))
            .expect("bound");
        prop_assert!(n.flops >= 0.0 && n.bytes > 0.0);
        prop_assert!(n.bytes_read + n.bytes_written == n.bytes);
        prop_assert!(n.flops_forward > 0.0);
        // Backward ≤ ~2.6× forward: 2× for matmuls plus pointwise-grad and
        // accumulation overheads.
        prop_assert!(
            n.flops_backward <= 2.6 * n.flops_forward + 1.0,
            "bwd {} vs fwd {}",
            n.flops_backward,
            n.flops_forward
        );
    }

    /// Footprint invariants: Best ≤ ProgramOrder; the peak covers the
    /// persistent set; footprint is monotone in batch.
    #[test]
    fn footprint_invariants(
        layers in prop::collection::vec(arb_layer(), 1..8),
        batch in 1u64..16,
    ) {
        let (mut g, loss) = build_random_graph(&layers, 16);
        build_training_step(&mut g, loss).expect("diff");
        let bind = |b: u64| Bindings::new().with("prop_b", b as f64);
        let po = footprint(&g, &bind(batch), Scheduler::ProgramOrder).expect("bound");
        let best = footprint(&g, &bind(batch), Scheduler::Best).expect("bound");
        prop_assert!(best.peak_bytes <= po.peak_bytes);
        prop_assert!(best.peak_bytes >= best.persistent_bytes);
        // Monotonicity in batch holds per *fixed* schedule (every live set
        // only grows). The Best estimate can dip when the greedy heuristic
        // finds a different schedule at the larger batch, so the guarantee
        // is stated for program order.
        let po_bigger = footprint(&g, &bind(batch + 1), Scheduler::ProgramOrder).expect("bound");
        prop_assert!(po_bigger.peak_bytes >= po.peak_bytes);
        // And Best at the larger batch still beats nothing: it is bounded by
        // its own program-order run.
        let bigger = footprint(&g, &bind(batch + 1), Scheduler::Best).expect("bound");
        prop_assert!(bigger.peak_bytes <= po_bigger.peak_bytes);
        // The peak is at least the largest single tensor.
        let largest = g
            .tensors()
            .iter()
            .map(|t| t.bytes_u64(&bind(batch)).expect("bound"))
            .max()
            .unwrap_or(0);
        prop_assert!(best.peak_bytes >= largest);
    }

    /// The peak-only `Best` pass (shared set-up, greedy cut-off at the
    /// program-order peak) equals the full graph-walking `Best` simulation.
    /// Forward-only graphs with a side branch are where program order wins
    /// and the cut-off fires; training graphs mostly tie or go to greedy.
    #[test]
    fn footprint_peak_matches_reference(
        layers in prop::collection::vec(arb_layer(), 1..10),
        in_width in (4u64..32).prop_map(|w| w * 2),
        side in 0u64..8,
        train in proptest::bool::ANY,
        batch in 1u64..64,
    ) {
        // Side width 0 means no side branch.
        let side = (side > 0).then_some(side);
        let (mut g, loss) = build_random_graph_with_side(&layers, in_width, side);
        if train {
            build_training_step(&mut g, loss).expect("diff");
        }
        let b = Bindings::new().with("prop_b", batch as f64);
        let sizes = tensor_sizes(&g, &b).expect("bound");
        let reference = footprint_reference(&g, &b, Scheduler::Best).expect("bound");
        prop_assert_eq!(footprint_peak(&FootprintPlan::new(&g), &sizes), reference.peak_bytes);
    }

    /// Costs are affine in the batch symbol for these feed-forward graphs.
    #[test]
    fn costs_affine_in_batch(layers in prop::collection::vec(arb_layer(), 1..8)) {
        let (mut g, loss) = build_random_graph(&layers, 16);
        build_training_step(&mut g, loss).expect("diff");
        let stats = g.stats();
        let at = |b: f64| stats.flops.eval(&Bindings::new().with("prop_b", b)).expect("bound");
        let (f1, f2, f9) = (at(1.0), at(2.0), at(9.0));
        let predicted = f1 + 8.0 * (f2 - f1);
        prop_assert!((f9 - predicted).abs() <= 1e-6 * f9.max(1.0));
    }

    /// The DOT export stays structurally consistent on arbitrary graphs.
    #[test]
    fn dot_export_consistent(layers in prop::collection::vec(arb_layer(), 1..6)) {
        let (mut g, loss) = build_random_graph(&layers, 16);
        build_training_step(&mut g, loss).expect("diff");
        let dot = g.to_dot();
        let expected_edges: usize = g.ops().iter().map(|o| o.inputs.len() + o.outputs.len()).sum();
        prop_assert_eq!(dot.matches(" -> ").count(), expected_edges);
        let census = g.op_census();
        prop_assert_eq!(census.total(), g.ops().len());
    }
}
