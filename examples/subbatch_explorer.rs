//! Subbatch-size exploration (paper §5.2.1, Figure 11): how operational
//! intensity and per-sample step time trade off as the per-accelerator
//! batch grows.
//!
//! ```sh
//! cargo run --release --example subbatch_explorer [domain]
//! ```
//! where `domain` is one of `wordlm`, `charlm`, `nmt`, `speech`, `resnet`
//! (default `wordlm`).

use frontier::prelude::*;

fn main() {
    let key = std::env::args().nth(1).unwrap_or_else(|| "wordlm".into());
    let domain = Domain::ALL
        .into_iter()
        .find(|d| d.key() == key)
        .unwrap_or_else(|| {
            eprintln!("unknown domain `{key}`; use wordlm|charlm|nmt|speech|resnet");
            std::process::exit(2);
        });

    let accel = Accelerator::v100_like();
    let cfg = analysis::frontier_config(domain);
    println!(
        "{} at frontier scale ({:.2e} params) on {}\n",
        domain.label(),
        cfg.param_formula() as f64,
        accel.name
    );

    let batches: Vec<u64> = (0..=16).map(|i| 1u64 << i).collect();
    let r = subbatch_analysis(&cfg, &batches, &accel);

    println!(
        "{:>8} {:>14} {:>16} {:>14}",
        "batch", "FLOP/B", "step/sample (s)", "note"
    );
    for p in &r.points {
        let mut note = String::new();
        if let Some(ridge) = r.ridge_match {
            if (p.batch as f64) >= ridge && (p.batch as f64) < 2.0 * ridge {
                note = "≈ ridge-point match".into();
            }
        }
        if p.batch == r.chosen {
            note = "← chosen (min time/sample)".into();
        } else if p.batch == r.saturation {
            note = "intensity saturated".into();
        }
        println!(
            "{:>8} {:>14.1} {:>16.5} {:>14}",
            p.batch, p.op_intensity, p.sec_per_sample, note
        );
    }

    println!(
        "\naccelerator ridge point: {:.1} FLOP/B (achievable)",
        accel.achievable_ridge_point()
    );
    println!("graph intensity limit:   {:.1} FLOP/B", r.intensity_limit);
    match r.ridge_match {
        Some(b) => println!(
            "ridge-matched at b ≈ {b:.0}; chosen b = {} (≈{:.1}×)",
            r.chosen,
            r.chosen as f64 / b
        ),
        None => println!(
            "compute-bound at every subbatch (CNN-like regime); chosen b = {}",
            r.chosen
        ),
    }
}
