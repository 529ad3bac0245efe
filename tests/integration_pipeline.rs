//! End-to-end integration: scaling projection → model construction →
//! cost analysis → roofline timing → parallelism simulation, spanning every
//! crate in the workspace.

use frontier::prelude::*;
use frontier::Study;

#[test]
fn full_pipeline_word_lm_frontier() {
    // 1. Projection (scaling): word LMs need ~100× data, ~23× params.
    let row = scaling_for(Domain::WordLm);
    let projection = row.project();
    assert!(projection.data_scale > 90.0 && projection.data_scale < 120.0);
    assert!(projection.target_params > 20e9);

    // 2. Model construction (modelzoo) at the projected scale.
    let cfg = ModelConfig::default_for(Domain::WordLm)
        .with_target_params(projection.target_params as u64);
    let model = cfg.build_training();
    model
        .graph
        .validate()
        .expect("frontier graph is well-formed");
    let rel =
        (model.param_count() as f64 - projection.target_params).abs() / projection.target_params;
    assert!(rel < 0.05, "built params off projection by {rel}");

    // 3. Cost analysis (cgraph): Table 3 word-LM row bands.
    let stats = model
        .graph
        .stats()
        .eval(&model.bindings_with_batch(128))
        .expect("bound");
    assert!(
        stats.flops > 0.9e15 && stats.flops < 2.2e15,
        "flops {:.3e}",
        stats.flops
    );

    // 4. Roofline (roofline): ~115 s/step, compute-bound.
    let accel = Accelerator::v100_like();
    let t = roofline_time(stats.flops, stats.bytes, &accel);
    assert!(t.seconds > 70.0 && t.seconds < 180.0, "step {}", t.seconds);

    // 5. Parallelism (parsim): 1024 data-parallel workers cut the epoch to
    //    single-digit days even for this heavyweight model.
    let worker = WorkerStep {
        compute_seconds: t.seconds,
        alg_flops: stats.flops,
        gradient_bytes: 4.0 * stats.params,
        samples_per_step: model.samples_per_step(128),
    };
    let sweep = data_parallel_sweep(
        &worker,
        &[1, 64, 1024],
        projection.target_data_samples,
        &accel,
        &CommConfig::default(),
    );
    assert!(
        sweep[0].epoch_days > 1_000.0,
        "single-accel epoch {}",
        sweep[0].epoch_days
    );
    assert!(
        sweep[2].epoch_days < sweep[0].epoch_days / 500.0,
        "1024 workers should give near-linear speedup here"
    );
}

#[test]
fn study_facade_matches_manual_pipeline() {
    let report = Study::new(Domain::Speech).frontier_report();
    let manual = scaling_for(Domain::Speech).project();
    assert_eq!(report.projection.data_scale, manual.data_scale);
    assert!(report.requirements.built_params > 0.0);
    assert!(report.requirements.epoch_days > 0.0);
}

#[test]
fn characterization_feeds_trend_fits_that_predict_frontier_costs() {
    // Fit Table 2 trends on mid-size models, then extrapolate to the
    // frontier and compare against a direct measurement — the paper's core
    // methodological claim (first-order models project well).
    let trends = fit_trends(&analysis::sweep_domain_batches(
        Domain::CharLm,
        50_000_000,
        500_000_000,
        3,
        &[16, 96],
    ));
    let target = 2_000_000_000u64;
    let cfg = ModelConfig::default_for(Domain::CharLm).with_target_params(target);
    let direct = characterize(&cfg, 96);
    let predicted_flops = trends.flops(direct.params, 96.0);
    let rel = (predicted_flops - direct.flops_per_step).abs() / direct.flops_per_step;
    assert!(rel < 0.15, "4× extrapolation error {rel}");
    let predicted_bytes = trends.bytes(direct.params, 96.0);
    let rel_b = (predicted_bytes - direct.bytes_per_step).abs() / direct.bytes_per_step;
    assert!(rel_b < 0.30, "bytes extrapolation error {rel_b}");
}

#[test]
fn cache_model_and_parallelism_compose_in_case_study() {
    let study = word_lm_case_study(&Accelerator::v100_like(), &CommConfig::default());
    assert_eq!(study.rows.len(), 6);
    // Monotone narrative: every stage after the baselines reduces epoch days.
    let days: Vec<f64> = study.rows.iter().map(|r| r.days_per_epoch).collect();
    assert!(days[1] > days[0], "cache model must slow the baseline");
    assert!(days[2] < days[1] / 100.0, "data parallelism dominates");
    assert!(days[4] <= days[3], "layer parallelism helps");
    // Sharding strictly reduces the per-accelerator peak toward capacity
    // (paper: 60 → 32 GB; our model carries a larger activation share, so
    // the final figure is somewhat higher but the trend is the same).
    let last = study.rows.last().expect("rows");
    let before = &study.rows[study.rows.len() - 2];
    assert!(last.mem_per_accel_gb < before.mem_per_accel_gb);
    assert!(
        last.mem_per_accel_gb < 60.0,
        "sharded footprint {} GB should approach capacity",
        last.mem_per_accel_gb
    );
}

#[test]
fn subbatch_selection_consistent_with_frontier_rows() {
    // The subbatch chosen by the §5.2.1 rule for the word LM is the one
    // Table 3 profiles with (128), and using it reproduces the Table 3 row.
    let accel = Accelerator::v100_like();
    let cfg = Study::new(Domain::WordLm).frontier_config();
    let sel = subbatch_analysis(&cfg, &[16, 32, 64, 128, 256, 512], &accel);
    assert!(
        sel.chosen >= 64 && sel.chosen <= 256,
        "chosen {}",
        sel.chosen
    );
    let point = sel
        .points
        .iter()
        .find(|p| p.batch == sel.chosen)
        .expect("chosen point in sweep");
    // Near-peak throughput at the chosen point (paper: 79%).
    let asymptote = sel.points.last().expect("points").sec_per_sample;
    assert!(point.sec_per_sample <= 1.06 * asymptote);
}

#[test]
fn symbolic_and_numeric_paths_agree() {
    // Evaluating the symbolic stats at b and building bindings directly must
    // agree exactly — the symath/cgraph contract the whole pipeline rests on.
    let cfg = ModelConfig::default_for(Domain::Nmt).with_target_params(30_000_000);
    let model = cfg.build_training();
    let stats = model.graph.stats();
    for b in [1u64, 7, 64] {
        let n = stats.eval(&model.bindings_with_batch(b)).expect("bound");
        // Recompute flops by summing per-op evaluations.
        let mut total = 0.0;
        for op in model.graph.ops() {
            total += model
                .graph
                .op_flops(op)
                .eval(&model.bindings_with_batch(b))
                .expect("bound");
        }
        assert!((total - n.flops).abs() < 1e-6 * n.flops.max(1.0));
    }
}
