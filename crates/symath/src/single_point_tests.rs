//! Single-expression compiled evaluation: [`ExprId::eval`] compiles one
//! root (a cached one-root [`BatchProgram`]) and prices it at one point.
//! Each case pins that path bitwise against the tree walk
//! ([`Expr::eval`]), unbound-symbol errors included.
//!
//! [`ExprId::eval`]: crate::ExprId::eval
//! [`BatchProgram`]: crate::BatchProgram
//! [`Expr::eval`]: crate::Expr::eval

mod tests {
    use crate::batch::grid_eval_lock;
    use crate::{Bindings, Expr};

    fn bits(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn polynomial_matches_tree_eval_bitwise() {
        let _guard = grid_eval_lock();
        let h = Expr::sym("cmp_h");
        let e = h.pow(2) * Expr::int(3) + &h + Expr::rat(1, 3);
        let b = Bindings::new().with("cmp_h", 17.0);
        let id = e.interned();
        assert_eq!(bits(id.eval(&b).unwrap()), bits(e.eval(&b).unwrap()));
    }

    #[test]
    fn fractional_powers_match_tree_eval_bitwise() {
        let _guard = grid_eval_lock();
        let p_sym = Expr::sym("cmp_p");
        let e = p_sym.sqrt() * Expr::int(5) + (p_sym.clone() + Expr::int(1)).recip();
        let b = Bindings::new().with("cmp_p", 77.0);
        let id = e.interned();
        assert_eq!(bits(id.eval(&b).unwrap()), bits(e.eval(&b).unwrap()));
    }

    #[test]
    fn unbound_symbol_error_names_first_encountered() {
        let _guard = grid_eval_lock();
        let e = Expr::sym("cmp_u1") + Expr::sym("cmp_u2");
        let tree_err = e.eval(&Bindings::new()).unwrap_err();
        let compiled_err = e.interned().eval(&Bindings::new()).unwrap_err();
        assert_eq!(tree_err, compiled_err);
        assert_eq!(compiled_err.0.to_string(), "cmp_u1");
    }
}
