//! Criterion benches that regenerate the paper's figure series (one bench
//! per figure). Figure 6 is a pure function sweep; 7–10 share the
//! characterization machinery; 11 and 12 exercise the subbatch and
//! data-parallel analyses.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use analysis::{fig11_batches, subbatch_analysis, sweep_domain};
use modelzoo::{Domain, ModelConfig};
use parsim::{data_parallel_sweep, CommConfig, WorkerStep};
use roofline::Accelerator;
use scaling::{LearningCurve, SketchCurve};

fn fig6_learning_curve(c: &mut Criterion) {
    let sketch = SketchCurve {
        power_law: LearningCurve::new(12.0, -0.25),
        best_guess_error: 4.0,
        irreducible_error: 0.08,
    };
    c.bench_function("fig6_learning_curve", |b| {
        b.iter(|| {
            let pts: Vec<f64> = (0..400)
                .map(|i| sketch.error_at(10f64.powf(i as f64 / 33.0)))
                .collect();
            black_box(pts)
        })
    });
}

fn sweep_bench(
    c: &mut Criterion,
    name: &str,
    extract: fn(&analysis::CharacterizationPoint) -> f64,
) {
    let mut g = c.benchmark_group(name);
    g.sample_size(10).measurement_time(Duration::from_secs(15));
    for domain in [Domain::WordLm, Domain::ImageClassification] {
        g.bench_function(domain.key(), |b| {
            b.iter(|| {
                let pts = sweep_domain(black_box(domain), 20_000_000, 200_000_000, 4);
                let series: Vec<(f64, f64)> = pts.iter().map(|p| (p.params, extract(p))).collect();
                black_box(series)
            })
        });
    }
    g.finish();
}

fn fig7_flops_scaling(c: &mut Criterion) {
    sweep_bench(c, "fig7_flops_scaling", |p| p.flops_per_sample);
}

fn fig8_bytes_scaling(c: &mut Criterion) {
    sweep_bench(c, "fig8_bytes_scaling", |p| p.bytes_per_step);
}

fn fig9_intensity_scaling(c: &mut Criterion) {
    sweep_bench(c, "fig9_intensity_scaling", |p| p.op_intensity);
}

fn fig10_footprint(c: &mut Criterion) {
    sweep_bench(c, "fig10_footprint", |p| p.footprint_bytes);
}

fn fig11_subbatch(c: &mut Criterion) {
    let accel = Accelerator::v100_like();
    let cfg = ModelConfig::default_for(Domain::WordLm).with_target_params(23_800_000_000);
    let mut g = c.benchmark_group("fig11_subbatch");
    g.sample_size(10).measurement_time(Duration::from_secs(15));
    g.bench_function("wordlm_frontier", |b| {
        b.iter(|| black_box(subbatch_analysis(&cfg, &fig11_batches(), &accel)))
    });
    g.finish();
}

fn fig12_data_parallel(c: &mut Criterion) {
    let accel = Accelerator::v100_like();
    let comm = CommConfig::default();
    let worker = WorkerStep {
        compute_seconds: 17.0,
        alg_flops: 123e12,
        gradient_bytes: 33.6e9,
        samples_per_step: 128.0 * 80.0,
    };
    let counts: Vec<u64> = (0..=14).map(|i| 1u64 << i).collect();
    c.bench_function("fig12_data_parallel", |b| {
        b.iter(|| {
            black_box(data_parallel_sweep(
                &worker,
                black_box(&counts),
                77e9,
                &accel,
                &comm,
            ))
        })
    });
}

criterion_group!(
    figures,
    fig6_learning_curve,
    fig7_flops_scaling,
    fig8_bytes_scaling,
    fig9_intensity_scaling,
    fig10_footprint,
    fig11_subbatch,
    fig12_data_parallel
);
criterion_main!(figures);
