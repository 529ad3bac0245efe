//! Per-op profiling integration tests: the TFprof-style attribution in
//! `cgraph::profile` must sum to `Graph::stats` totals on every modelzoo
//! workload and on randomized graphs under randomized bindings.

use frontier::obs::Json;
use frontier::prelude::*;
use frontier::symath::{Bindings, Expr};
use proptest::prelude::*;

/// Acceptance criterion: per-op attribution sums (within 1e-6 relative) to
/// the `GraphStats` totals for all five modelzoo workloads.
#[test]
fn per_op_profile_sums_match_stats_for_all_workloads() {
    for domain in [
        Domain::WordLm,
        Domain::CharLm,
        Domain::Nmt,
        Domain::Speech,
        Domain::ImageClassification,
    ] {
        let cfg = ModelConfig::default_for(domain);
        let model = cfg.build_training();
        let bindings = model.bindings_with_batch(domain.default_subbatch());
        let profile = model.graph.profile(&bindings).expect("all symbols bound");
        profile
            .check_consistency(1e-6)
            .unwrap_or_else(|e| panic!("{domain:?}: {e}"));
        // The attribution is total: every op appears, and grouping reshuffles
        // but never loses cost.
        assert_eq!(profile.ops.len(), model.graph.ops().len());
        let by_layer: f64 = profile.by_layer().iter().map(|g| g.flops).sum();
        assert!(
            (by_layer - profile.totals.flops).abs() <= 1e-6 * profile.totals.flops,
            "{domain:?}: layer groups lost FLOPs"
        );
    }
}

/// Trace spans from a profile run land in the global recorder and export as
/// one JSON object per line, each of which parses.
#[test]
fn profile_emits_parseable_jsonl_trace() {
    let cfg = ModelConfig::default_for(Domain::Nmt);
    let model = cfg.build_training();
    let bindings = model.bindings_with_batch(16);
    model.graph.profile(&bindings).expect("bound");
    let rec = obs::recorder();
    assert!(!rec.is_empty(), "profiling should record spans");
    let mut buf = Vec::new();
    rec.write_jsonl_to(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let events: Vec<Json> = text
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    for event in &events {
        assert!(event.get("name").and_then(Json::as_str).is_some());
        assert!(event.get("ts_us").and_then(Json::as_f64).is_some());
        assert!(event.get("dur_us").and_then(Json::as_f64).is_some());
    }
    let ops = model.graph.ops().len() as f64;
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("cgraph.profile")
                && e.path("args.graph").and_then(Json::as_str) == Some(model.graph.name.as_str())
                && e.path("args.ops").and_then(Json::as_f64) == Some(ops)
        }),
        "no cgraph.profile span for {} with {ops} ops",
        model.graph.name
    );
}

/// A random MLP: `depth` hidden layers of random widths, optionally trained
/// (autodiff + SGD), under a random batch binding.
fn random_mlp(depth: usize, widths: &[u64], classes: u64, train: bool) -> Graph {
    let mut g = Graph::new("random_mlp");
    let b = Expr::sym("rb");
    let mut dim = widths[0];
    let mut h = g
        .input("x", [b.clone(), Expr::int(dim as i128)], DType::F32)
        .unwrap();
    for (i, &w) in widths.iter().take(depth).enumerate() {
        let weight = g
            .weight(
                format!("l{i}.w"),
                [Expr::int(dim as i128), Expr::int(w as i128)],
            )
            .unwrap();
        h = g
            .matmul(&format!("l{i}.fc"), h, weight, false, false)
            .unwrap();
        h = g
            .unary(&format!("l{i}.relu"), PointwiseFn::Relu, h)
            .unwrap();
        dim = w;
    }
    let out = g
        .weight(
            "head.w",
            [Expr::int(dim as i128), Expr::int(classes as i128)],
        )
        .unwrap();
    let logits = g.matmul("head.fc", h, out, false, false).unwrap();
    if train {
        let labels = g.input("labels", [b], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", logits, labels).unwrap();
        build_training_step(&mut g, loss).unwrap();
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-op FLOPs/bytes sum to the `GraphStats` totals for random graphs
    /// under random bindings — forward-only and full training steps alike.
    #[test]
    fn profile_consistent_on_random_graphs(
        depth in 1usize..4,
        widths in proptest::collection::vec(8u64..256, 4),
        classes in 2u64..64,
        batch in 1u64..128,
        train in proptest::bool::ANY,
    ) {
        let g = random_mlp(depth, &widths, classes, train);
        let bindings = Bindings::new().with("rb", batch as f64);
        let profile = g.profile(&bindings).unwrap();
        prop_assert!(profile.check_consistency(1e-6).is_ok());
        // Spot-check the raw sums, independent of check_consistency.
        let flops: f64 = profile.ops.iter().map(|o| o.flops).sum();
        let bytes: f64 = profile.ops.iter().map(|o| o.bytes()).sum();
        prop_assert!((flops - profile.totals.flops).abs() <= 1e-6 * profile.totals.flops.max(1.0));
        prop_assert!((bytes - profile.totals.bytes).abs() <= 1e-6 * profile.totals.bytes.max(1.0));
    }

    /// Random modelzoo configurations profile consistently too.
    #[test]
    fn profile_consistent_on_random_workloads(
        target in 1_000_000u64..20_000_000,
        batch in 1u64..32,
    ) {
        let cfg = ModelConfig::default_for(Domain::CharLm).with_target_params(target);
        let model = cfg.build_training();
        let bindings = model.bindings_with_batch(batch);
        let profile = model.graph.profile(&bindings).unwrap();
        prop_assert!(profile.check_consistency(1e-6).is_ok());
    }
}
