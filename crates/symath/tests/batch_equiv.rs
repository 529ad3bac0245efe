//! Differential harness for the two evaluators: the tree walk
//! ([`Expr::eval`], the oracle) and the batched register VM
//! ([`batch_program`] + `eval_grid`, the only compiled evaluator).
//!
//! Every test generates random expression sets and random grids and asserts
//! **bitwise** agreement via `f64::to_bits` — not approximate closeness —
//! including NaN payloads (negative bases under fractional powers produce
//! NaNs, and both evaluators must produce the *same* NaN) and the error
//! path (a partially-unbound point must name the same first-unbound symbol
//! from both evaluators, without contaminating bound points in the same
//! grid).

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use symath::{batch_program, Bindings, Expr, ExprId, Rat, UnboundSymbol};

const SYMS: [&str; 4] = ["bq_a", "bq_b", "bq_c", "bq_d"];

/// Random expressions over four symbols, covering every opcode the VMs
/// implement: sums, products, integer and fractional powers, `max`, `min`,
/// and `ceil`.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i128..=20).prop_map(Expr::int),
        ((-9i128..=9), (1i128..=4)).prop_map(|(n, d)| Expr::rat(n, d)),
        (0usize..SYMS.len()).prop_map(|i| Expr::sym(SYMS[i])),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), 2i128..=3).prop_map(|(a, k)| a.pow(Rat::int(k))),
            // `pow` refuses fractional powers of exactly-negative constants
            // (a canonicalization invariant), so sqrt only shapes that are
            // safe to *build*: a bare symbol (whose runtime binding may
            // still be negative — that's the NaN path) or a max-clamped
            // subexpression.
            (0usize..SYMS.len()).prop_map(|i| Expr::sym(SYMS[i]).sqrt()),
            inner
                .clone()
                .prop_map(|a| Expr::max(vec![a, Expr::int(2)]).sqrt()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::max(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::min(vec![a, b])),
            inner.prop_map(Expr::ceil),
        ]
    })
}

/// A root set of 1–4 expressions. Duplicates are likely at this size, which
/// is the point: duplicate roots share one result register in the batched
/// program and must still report per-root results.
fn arb_roots() -> impl Strategy<Value = Vec<Expr>> {
    pvec(arb_expr(), 1..=4)
}

/// One grid point binding every symbol. Negative values feed fractional
/// powers and produce NaNs — deliberately: NaN bit patterns must survive
/// both evaluators identically.
fn arb_full_point() -> impl Strategy<Value = Vec<f64>> {
    pvec(prop_oneof![-8.0f64..8.0, 0.25f64..64.0], SYMS.len())
}

/// One grid point that may leave symbols unbound.
fn arb_partial_point() -> impl Strategy<Value = Vec<Option<f64>>> {
    pvec(
        prop_oneof![
            (0.25f64..64.0).prop_map(Some),
            (-8.0f64..8.0).prop_map(Some),
            Just(None),
        ],
        SYMS.len(),
    )
}

fn to_bindings(vals: &[Option<f64>]) -> Bindings {
    let mut b = Bindings::new();
    for (i, v) in vals.iter().enumerate() {
        if let Some(v) = v {
            b = b.with(SYMS[i], *v);
        }
    }
    b
}

/// Bitwise comparison of evaluator outcomes: `Ok` values must share their
/// exact bit pattern (NaN payloads included), errors must name the same
/// symbol.
fn same_outcome(a: &Result<f64, UnboundSymbol>, b: &Result<f64, UnboundSymbol>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.to_bits() == y.to_bits(),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Evaluate `roots` over `points` through both evaluators and assert
/// agreement per (root, point).
fn assert_agreement(roots: &[Expr], points: &[Bindings]) {
    let ids: Vec<ExprId> = roots.iter().map(|e| e.interned()).collect();
    let batched = batch_program(&ids)
        .eval_grid(points)
        .expect("non-empty grid");
    prop_assert_eq!(batched.len(), roots.len());
    for (r, root) in roots.iter().enumerate() {
        prop_assert_eq!(batched[r].len(), points.len());
        for (p, b) in points.iter().enumerate() {
            let tree = root.eval(b);
            prop_assert!(
                same_outcome(&tree, &batched[r][p]),
                "root {r} point {p}: tree {tree:?} vs batched {:?} for {root}",
                batched[r][p]
            );
        }
    }
}

proptest! {
    /// Fully-bound grids: every (root, point) value is bit-identical between
    /// the tree walk and the batched VM — including NaNs from negative bases
    /// under sqrt.
    #[test]
    fn bound_grids_agree_bitwise(roots in arb_roots(), grid in pvec(arb_full_point(), 1..=6)) {
        let points: Vec<Bindings> = grid
            .iter()
            .map(|vals| {
                let mut b = Bindings::new();
                for (i, v) in vals.iter().enumerate() {
                    b = b.with(SYMS[i], *v);
                }
                b
            })
            .collect();
        assert_agreement(&roots, &points);
    }

    /// Partially-unbound grids: unbound points error with the same
    /// first-encountered symbol from both evaluators, and bound points in
    /// the same grid still evaluate bit-identically (no contamination from
    /// the masked placeholder columns).
    #[test]
    fn partially_unbound_grids_agree(roots in arb_roots(), grid in pvec(arb_partial_point(), 1..=6)) {
        let points: Vec<Bindings> = grid.iter().map(|v| to_bindings(v)).collect();
        assert_agreement(&roots, &points);
    }

    /// A grid of duplicated points must yield identical outcomes at every
    /// copy — the SoA evaluation has no positional effects.
    #[test]
    fn duplicate_points_yield_identical_results(roots in arb_roots(), vals in arb_partial_point(), copies in 2usize..=5) {
        let points: Vec<Bindings> = (0..copies).map(|_| to_bindings(&vals)).collect();
        let ids: Vec<ExprId> = roots.iter().map(|e| e.interned()).collect();
        let batched = batch_program(&ids).eval_grid(&points).expect("non-empty grid");
        for row in &batched {
            for w in row.windows(2) {
                prop_assert!(same_outcome(&w[0], &w[1]), "{:?} vs {:?}", w[0], w[1]);
            }
        }
        assert_agreement(&roots, &points);
    }
}

#[test]
fn empty_grid_is_a_structured_error() {
    let e = Expr::sym("bq_a") + Expr::int(1);
    let prog = batch_program(&[e.interned()]);
    assert!(matches!(
        prog.eval_grid(&[]),
        Err(symath::BatchError::EmptyGrid)
    ));
}

#[test]
fn nan_payloads_survive_batching() {
    // sqrt of a negative binding: the tree walk computes (-4)^0.5 = NaN via
    // powf; the batched VM must produce the identical NaN bits.
    let e = Expr::sym("bq_a").sqrt() * Expr::int(3) + Expr::sym("bq_b");
    let b = Bindings::new().with("bq_a", -4.0).with("bq_b", 1.5);
    let tree = e.eval(&b).unwrap();
    assert!(tree.is_nan());
    let grid = batch_program(&[e.interned()])
        .eval_grid(std::slice::from_ref(&b))
        .unwrap();
    let batched = *grid[0][0].as_ref().unwrap();
    assert!(batched.is_nan());
    assert_eq!(tree.to_bits(), batched.to_bits());
}
