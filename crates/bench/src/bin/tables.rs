//! Regenerate the paper's Tables 1–5.
//!
//! ```sh
//! cargo run --release -p bench --bin tables             # all tables
//! cargo run --release -p bench --bin tables -- --table 3
//! ```

use analysis::{fit_domain_trends, table3, word_lm_case_study};
use bench::{eng, finish_trace, section, times, Table};
use modelzoo::{Domain, ModelConfig};
use parsim::CommConfig;
use roofline::Accelerator;
use scaling::table1 as table1_rows;
use serve::flags::Flags;
use std::path::PathBuf;

/// Print a TFprof-style per-op breakdown for one workload's training step
/// and emit the top ops into the trace recorder.
fn profile_workload(domain: Domain) {
    let cfg = ModelConfig::default_for(domain);
    let model = cfg.build_training();
    let bindings = model.bindings_with_batch(domain.default_subbatch());
    let prof = model.graph.profile(&bindings).expect("all symbols bound");
    prof.check_consistency(1e-6)
        .expect("per-op attribution sums to graph totals");
    println!(
        "-- {} per-op profile ({} ops, subbatch {}) --",
        domain.label(),
        prof.ops.len(),
        domain.default_subbatch()
    );
    println!("{}", prof.render_top(8));
    println!("{}", prof.render_groups("by phase", &prof.by_phase()));
    let rec = obs::recorder();
    for op in prof.top_by_flops(8) {
        rec.instant(
            "profile.op",
            vec![
                ("workload".into(), obs::Json::from(domain.key())),
                ("op".into(), obs::Json::from(op.name.as_str())),
                ("kind".into(), obs::Json::from(op.kind)),
                ("flops".into(), obs::Json::from(op.flops)),
                ("bytes".into(), obs::Json::from(op.bytes())),
            ],
        );
    }
}

fn table1() {
    section("Table 1: Learning Curve and Model Size Scaling Relationships");
    let mut t = Table::new([
        "Domain (model)",
        "Current SOTA",
        "Desired SOTA",
        "alpha",
        "beta_g",
        "sigma",
        "beta_p",
        "Data scale",
        "Model scale",
    ]);
    for row in table1_rows() {
        let p = row.project();
        t.row([
            row.domain.label().to_string(),
            format!("{} {}", row.current_sota, row.metric),
            format!("{}", row.desired_sota),
            format!("{}", row.learning.alpha),
            format!("{}", row.learning.beta_g),
            format!("{:e}", row.model.sigma),
            format!("{}", row.model.beta_p),
            times(p.data_scale),
            times(p.model_scale),
        ]);
    }
    println!("{}", t.render());
    println!("paper: data 33-971x, model 6.6-456x (speech computes to ~19x from the");
    println!("published constants; all other rows match — see EXPERIMENTS.md)");
}

fn table2() {
    section("Table 2: Asymptotic Application-Level Compute Requirements (fitted)");
    println!("fitting per-domain trends from model-size x subbatch sweeps ...\n");
    let mut t = Table::new([
        "Domain (model)",
        "FLOPs/param (gamma)",
        "bytes/param (lambda)",
        "bytes/(b*sqrt(p)) (mu)",
        "footprint B/param (delta)",
    ]);
    let paper = [
        (Domain::WordLm, 481.0, 1755.0, 30784.0, 11.94),
        (Domain::CharLm, 900.0, 3510.0, 102980.0, 12.47),
        (Domain::Nmt, 149.0, 533.0, 22653.0, 10.32),
        (Domain::Speech, 775.0, 3100.0, 162750.0, 32.94),
        (Domain::ImageClassification, 1111.0, 66.7, 268862.0, 42.57),
    ];
    for (domain, g_p, l_p, m_p, d_p) in paper {
        // Fit in the large-model regime where the asymptotic forms hold.
        let (lo, hi) = match domain {
            Domain::ImageClassification => (100_000_000, 800_000_000),
            _ => (300_000_000, 3_000_000_000),
        };
        let tr = fit_domain_trends(domain, lo, hi, 3, &[16, 64, 128]);
        t.row([
            domain.label().to_string(),
            format!("{:.0} (paper {g_p:.0})", tr.gamma),
            format!("{:.0} (paper {l_p:.0})", tr.lambda),
            format!("{:.0} (paper {m_p:.0})", tr.mu),
            format!("{:.1} (paper {d_p})", tr.delta),
        ]);
    }
    println!("{}", t.render());
    for (domain, ..) in paper {
        profile_workload(domain);
    }
}

fn table3_print() {
    section("Table 3: Application-Level Training Requirements at Target Accuracy");
    let accel = Accelerator::v100_like();
    let rows = table3(&accel);
    let mut t = Table::new([
        "Domain (model)",
        "Data",
        "Params",
        "Subbatch",
        "TFLOPs/step",
        "TB/step",
        "MinMem GB",
        "Step (s)",
        "Epoch (days)",
    ]);
    for r in rows {
        t.row([
            r.domain_label.to_string(),
            eng(r.data_samples, 1),
            eng(r.built_params, 2),
            format!("{}", r.subbatch),
            format!("{:.0}", r.tflops_per_step),
            format!("{:.1}", r.mem_tb_per_step),
            format!("{:.0}", r.min_mem_gb),
            format!("{:.1}", r.step.seconds),
            eng(r.epoch_days, 1),
        ]);
    }
    println!("{}", t.render());
    println!("paper rows: wordlm 1444 TF / 41.5 TB / 272 GB / 115 s / 31k days;");
    println!("charlm 12618/488/1703/1007/3.5M; nmt 499/18.4/185/39.8/16k;");
    println!("speech 72/2.8/30/5.8/93; resnet 28/0.4/34/2.3/84.");
    println!("note: epoch accounting counts b*q tokens per step (see EXPERIMENTS.md).");
}

fn table4() {
    section("Table 4: Target Accelerator Configuration");
    let a = Accelerator::v100_like();
    let mut t = Table::new(["Component", "Configuration"]);
    t.row([
        "Compute throughput, 32-bit",
        &format!("{:.2} TFLOP/s", a.peak_flops / 1e12),
    ]);
    t.row([
        "On-chip cache",
        &format!("{:.0} MB", a.cache_bytes / 1048576.0),
    ]);
    t.row([
        "Memory bandwidth",
        &format!("{:.0} GB/s", a.peak_mem_bw / 1e9),
    ]);
    t.row([
        "Memory capacity (off-chip)",
        &format!("{:.0} GB", a.mem_capacity / 1073741824.0),
    ]);
    t.row([
        "Inter-device bandwidth",
        &format!("{:.0} GB/s", a.interconnect_bw / 1e9),
    ]);
    t.row(["Ridge point", &format!("{:.1} FLOP/B", a.ridge_point())]);
    t.row([
        "Ridge point (achievable)",
        &format!("{:.1} FLOP/B", a.achievable_ridge_point()),
    ]);
    println!("{}", t.render());
}

fn table5() {
    section("Table 5: Step-by-Step Word LM Parallelization Case Study");
    let study = word_lm_case_study(&Accelerator::v100_like(), &CommConfig::default());
    println!(
        "LSTM-p: v={} h={} proj={:?} -> {:.2e} params; dataset {:.1e} words\n",
        study.config.vocab,
        study.config.hidden,
        study.config.projection,
        study.params,
        study.dataset_words
    );
    let mut t = Table::new([
        "Optimization stage",
        "Accels",
        "Batch",
        "Mem/accel GB",
        "Days/epoch",
        "FLOP util",
    ]);
    for r in &study.rows {
        t.row([
            r.stage.to_string(),
            format!("{}", r.accelerators),
            format!("{}", r.global_batch),
            format!("{:.1}", r.mem_per_accel_gb),
            format!("{:.1}", r.days_per_epoch),
            format!("{:.1}%", 100.0 * r.flop_utilization),
        ]);
    }
    println!("{}", t.render());
    println!("paper stages: 2707 d @80% -> 4671 d @46% -> 6.2 d @34% (1024) ->");
    println!("11.1 d @38% (512) -> 7.2 d @14.5% (2048, {{60,17,17,32}} GB) ->");
    println!("7.2 d @14.5% ({{32,31,31,32}} GB).");
}

fn main() {
    let flags = Flags::from_env();
    let parsed = (|| -> Result<(Option<u32>, Option<PathBuf>), String> {
        flags.check_known(&["--table", "--trace"])?;
        Ok((flags.get("--table")?, flags.get("--trace")?))
    })();
    let (selector, trace) = parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("usage: tables [--table N] [--trace PATH]");
        std::process::exit(2);
    });
    match selector {
        Some(1) => table1(),
        Some(2) => table2(),
        Some(3) => table3_print(),
        Some(4) => table4(),
        Some(5) => table5(),
        Some(n) => {
            eprintln!("unknown table {n}; the paper has tables 1-5");
            std::process::exit(2);
        }
        None => {
            table1();
            table2();
            table3_print();
            table4();
            table5();
        }
    }
    finish_trace(trace.as_deref());
}
