//! Regenerate the paper's Figures 6–12 as data series.
//!
//! ```sh
//! cargo run --release -p bench --bin figures              # all figures
//! cargo run --release -p bench --bin figures -- --figure 9
//! ```

use analysis::{fig11_batches, subbatch_analysis, sweep_domain};
use bench::{check_known_flags, eng, finish_trace, parse_selector, section, Table};
use modelzoo::{Domain, ModelConfig};
use parsim::{data_parallel_sweep, CommConfig, WorkerStep};
use roofline::{per_op_step_time, Accelerator, CacheModel};
use scaling::{scaling_for, LearningCurve, SketchCurve};

const SWEEP_LO: u64 = 10_000_000;
const SWEEP_HI: u64 = 600_000_000;
const SWEEP_N: usize = 6;

fn fig6() {
    section("Figure 6: Sketch of power-law learning curves");
    let sketch = SketchCurve {
        power_law: LearningCurve::new(12.0, -0.25),
        best_guess_error: 4.0,
        irreducible_error: 0.08,
    };
    println!(
        "small-data boundary: {:.1e} samples; irreducible boundary: {:.1e} samples\n",
        sketch.small_data_boundary(),
        sketch.irreducible_boundary()
    );
    let mut t = Table::new(["samples", "generalization error", "region"]);
    for exp in 0..=12 {
        let m = 10f64.powi(exp);
        let e = sketch.error_at(m);
        let region = if m < sketch.small_data_boundary() {
            "small data"
        } else if m < sketch.irreducible_boundary() {
            "power-law"
        } else {
            "irreducible"
        };
        t.row([format!("1e{exp}"), format!("{e:.4}"), region.to_string()]);
    }
    println!("{}", t.render());
}

fn domain_sweep_figure(
    title: &str,
    value: fn(&analysis::CharacterizationPoint) -> f64,
    unit: &str,
) {
    section(title);
    println!("model-size sweep per domain at the paper's profiling subbatch\n");
    let mut t = Table::new(["domain", "params", unit]);
    for domain in Domain::ALL {
        let points = sweep_domain(domain, SWEEP_LO, SWEEP_HI, SWEEP_N);
        for p in &points {
            t.row([domain.key().to_string(), eng(p.params, 2), eng(value(p), 3)]);
        }
    }
    println!("{}", t.render());
}

fn fig7() {
    domain_sweep_figure(
        "Figure 7: per-sample FLOPs vs model size",
        |p| p.flops_per_sample / 1e9,
        "GFLOPs/step/sample",
    );
}

fn fig8() {
    domain_sweep_figure(
        "Figure 8: algorithmic GB accessed per step vs model size",
        |p| p.bytes_per_step / 1e9,
        "GB/step",
    );
}

fn fig9() {
    domain_sweep_figure(
        "Figure 9: operational intensity vs model size",
        |p| p.op_intensity,
        "FLOP/B",
    );
}

fn fig10() {
    domain_sweep_figure(
        "Figure 10: minimal memory footprint vs model size",
        |p| p.footprint_bytes / 1e9,
        "footprint GB",
    );
}

fn fig11() {
    section("Figure 11: subbatch size vs op intensity and step time per sample");
    let accel = Accelerator::v100_like();
    let projection = scaling_for(Domain::WordLm).project();
    let cfg = ModelConfig::default_for(Domain::WordLm)
        .with_target_params(projection.target_params as u64);
    let r = subbatch_analysis(&cfg, &fig11_batches(), &accel);
    let mut t = Table::new(["subbatch", "FLOP/B", "step time/sample (s)"]);
    for p in &r.points {
        t.row([
            format!("{}", p.batch),
            format!("{:.1}", p.op_intensity),
            format!("{:.4}", p.sec_per_sample),
        ]);
    }
    println!("{}", t.render());
    println!(
        "accelerator ridge point: {:.1} FLOP/B",
        accel.achievable_ridge_point()
    );
    match r.ridge_match {
        Some(b) => println!(
            "ridge match at b = {b:.0}; chosen b = {} (paper: 128)",
            r.chosen
        ),
        None => println!("chosen b = {}", r.chosen),
    }
}

fn fig12() {
    section("Figure 12: data-parallel scaling of the frontier word LM");
    let accel = Accelerator::v100_like();
    let comm = CommConfig::default();
    let study = analysis::word_lm_case_study(&accel, &comm);
    let aware = &study.rows[1];
    let steps_per_epoch = study.dataset_words / (128.0 * study.config.seq_len as f64);
    let compute_seconds = aware.days_per_epoch * 86_400.0 / steps_per_epoch;
    let worker = WorkerStep {
        compute_seconds,
        alg_flops: compute_seconds * accel.peak_flops * aware.flop_utilization,
        gradient_bytes: 4.0 * study.params,
        samples_per_step: 128.0 * study.config.seq_len as f64,
    };
    let counts: Vec<u64> = (0..=14).map(|i| 1u64 << i).collect();
    let mut t = Table::new(["workers", "days/epoch", "FLOP util"]);
    for p in data_parallel_sweep(&worker, &counts, study.dataset_words, &accel, &comm) {
        t.row([
            format!("{}", p.workers),
            format!("{:.2}", p.epoch_days),
            format!("{:.1}%", 100.0 * p.flop_utilization),
        ]);
    }
    println!("{}", t.render());
    println!("paper anchors: 512 workers -> 11.1 days @38%; 1024 -> 6.2 days @34%");
    let _ = per_op_step_time; // (re-exported for parity with the case study)
    let _ = CacheModel::PanelStream;
}

fn main() {
    let usage = |e: String| -> ! {
        eprintln!("{e}");
        eprintln!("usage: figures [--figure N] [--trace PATH]");
        std::process::exit(2);
    };
    if let Err(e) = check_known_flags(&["--figure", "--trace"]) {
        usage(e);
    }
    let selector = parse_selector("--figure").unwrap_or_else(|e| usage(e));
    match selector {
        Some(6) => fig6(),
        Some(7) => fig7(),
        Some(8) => fig8(),
        Some(9) => fig9(),
        Some(10) => fig10(),
        Some(11) => fig11(),
        Some(12) => fig12(),
        Some(n) => {
            eprintln!("unknown figure {n}; reproducible figures are 6-12");
            std::process::exit(2);
        }
        None => {
            fig6();
            fig7();
            fig8();
            fig9();
            fig10();
            fig11();
            fig12();
        }
    }
    finish_trace();
}
