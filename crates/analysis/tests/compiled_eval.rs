//! Golden bit-identity: compiled evaluation vs the tree walk on every
//! expression reachable from the five Figure 7–10 model families.
//!
//! The sweep engine answers characterization queries through `symath`'s
//! batched register VM, the only compiled evaluator; a single point
//! ([`symath::ExprId::eval`]) is a one-wide grid. This suite pins the
//! whole reachable expression surface — the nine [`cgraph`] stats totals,
//! their width-bound instances, and every tensor's element count — to the
//! reference tree evaluator, comparing `f64::to_bits` so a drift of even one
//! ULP fails.

use cgraph::InternedGraphStats;
use modelzoo::{Domain, ModelConfig};
use symath::{Bindings, ExprId};

/// Down-scaled structures (as in `modelzoo`'s family tests) so the training
/// graphs build quickly under the debug profile.
fn small(domain: Domain) -> ModelConfig {
    match domain {
        Domain::WordLm => ModelConfig::WordLm(modelzoo::WordLmConfig {
            vocab: 500,
            hidden: 48,
            layers: 2,
            seq_len: 5,
            projection: None,
            tied_embedding: true,
        }),
        Domain::CharLm => ModelConfig::CharLm(modelzoo::CharLmConfig {
            vocab: 60,
            hidden: 40,
            depth: 3,
            seq_len: 4,
        }),
        Domain::Nmt => ModelConfig::Nmt(modelzoo::NmtConfig {
            vocab: 400,
            hidden: 32,
            decoder_layers: 2,
            src_len: 4,
            tgt_len: 3,
        }),
        Domain::Speech => ModelConfig::Speech(modelzoo::SpeechConfig {
            features: 8,
            vocab: 20,
            hidden: 24,
            encoder_layers: 2,
            audio_len: 8,
            tgt_len: 3,
        }),
        Domain::ImageClassification => ModelConfig::Resnet(modelzoo::ResNetConfig {
            depth: modelzoo::ResNetDepth::D18,
            width: 16,
            image: 32,
            classes: 10,
        }),
    }
}

fn stats_ids(s: &InternedGraphStats) -> [(&'static str, ExprId); 9] {
    [
        ("flops", s.flops),
        ("flops_forward", s.flops_forward),
        ("flops_backward", s.flops_backward),
        ("flops_update", s.flops_update),
        ("bytes", s.bytes),
        ("bytes_read", s.bytes_read),
        ("bytes_written", s.bytes_written),
        ("params", s.params),
        ("io", s.io),
    ]
}

/// Assert compiled and tree evaluation of `id` agree to the bit under `env`.
fn assert_bit_identical(domain: Domain, what: &str, id: ExprId, env: &Bindings) {
    let compiled = id
        .eval(env)
        .unwrap_or_else(|e| panic!("{domain:?}/{what}: compiled eval failed: {e}"));
    let tree = id
        .expr()
        .eval(env)
        .unwrap_or_else(|e| panic!("{domain:?}/{what}: tree eval failed: {e}"));
    assert_eq!(
        compiled.to_bits(),
        tree.to_bits(),
        "{domain:?}/{what}: compiled {compiled:e} != tree {tree:e}"
    );
}

#[test]
fn compiled_eval_bit_identical_across_all_family_expressions() {
    for domain in Domain::ALL {
        let cfg = small(domain);
        let fam = cfg.build_family_training();
        let widths = cfg.family_widths();
        let mut env = widths.clone();
        env.set(modelzoo::BATCH_SYM, 7.0);

        // The nine family stats totals, width-symbolic.
        let stats = fam.graph.stats_interned();
        for (what, id) in stats_ids(&stats) {
            assert_bit_identical(domain, what, id, &env);
        }

        // The width-bound instance the engine caches per configuration.
        let bound = stats.bind_all(&widths);
        for (what, id) in stats_ids(&bound) {
            assert_bit_identical(domain, &format!("bound.{what}"), id, &env);
        }

        // Every tensor's element count — the expressions behind footprint
        // and working-set sizing.
        for t in fam.graph.tensors() {
            let elems = t.shape.elements_id();
            assert_bit_identical(domain, &format!("elems[{}]", t.name), elems, &env);
        }
    }
}

#[test]
fn batched_grid_eval_bit_identical_across_family_stats() {
    // The nine width-bound stats roots of every family, priced over a
    // subbatch grid (with a duplicate point) in one batched register-VM
    // pass, against the tree walk per (root, point).
    for domain in Domain::ALL {
        let cfg = small(domain);
        let fam = cfg.build_family_training();
        let bound = fam.graph.stats_interned().bind_all(&cfg.family_widths());
        let ids = stats_ids(&bound);
        let roots: Vec<ExprId> = ids.iter().map(|&(_, id)| id).collect();
        let prog = symath::batch_program(&roots);
        // A zero-width grid is a structured error, not a panic or an empty
        // table silently mistaken for success.
        assert!(matches!(
            prog.eval_grid(&[]),
            Err(symath::BatchError::EmptyGrid)
        ));
        let points: Vec<Bindings> = [1u64, 7, 32, 7]
            .iter()
            .map(|&b| Bindings::new().with(modelzoo::BATCH_SYM, b as f64))
            .collect();
        let grid = prog.eval_grid(&points).expect("non-empty grid");
        for (r, (what, id)) in ids.iter().enumerate() {
            for (p, env) in points.iter().enumerate() {
                let tree = id
                    .expr()
                    .eval(env)
                    .unwrap_or_else(|e| panic!("{domain:?}/{what}: tree eval failed: {e}"));
                let batched = *grid[r][p]
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{domain:?}/{what}: batched eval failed: {e}"));
                assert_eq!(
                    batched.to_bits(),
                    tree.to_bits(),
                    "{domain:?}/{what} point {p}: batched {batched:e} != tree {tree:e}"
                );
            }
        }
        // The duplicated subbatch must get a bitwise-duplicated column.
        for (r, (what, _)) in ids.iter().enumerate() {
            assert_eq!(grid[r][1], grid[r][3], "{domain:?}/{what} duplicate point");
        }
    }
}

#[test]
fn engine_points_match_brute_characterization_exactly() {
    // End-to-end: the engine's compiled path must reproduce the direct
    // per-config pipeline bit for bit (same fields the golden sweep pins).
    let engine = analysis::FamilyEngine::new();
    for domain in Domain::ALL {
        let cfg = small(domain);
        let b = domain.default_subbatch();
        let fast = engine.characterize(&cfg, b);
        let brute = analysis::characterize(&cfg, b);
        assert_eq!(fast.params.to_bits(), brute.params.to_bits(), "{domain:?}");
        assert_eq!(
            fast.flops_per_step.to_bits(),
            brute.flops_per_step.to_bits(),
            "{domain:?}"
        );
        assert_eq!(
            fast.flops_per_sample.to_bits(),
            brute.flops_per_sample.to_bits(),
            "{domain:?}"
        );
        assert_eq!(
            fast.bytes_per_step.to_bits(),
            brute.bytes_per_step.to_bits(),
            "{domain:?}"
        );
        assert_eq!(
            fast.op_intensity.to_bits(),
            brute.op_intensity.to_bits(),
            "{domain:?}"
        );
        assert_eq!(
            fast.footprint_bytes, brute.footprint_bytes,
            "{domain:?} footprint"
        );
        assert_eq!(fast.seq_len, brute.seq_len, "{domain:?} seq_len");
    }
}
