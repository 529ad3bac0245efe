//! Canonical symbolic expressions.
//!
//! An [`Expr`] is kept in a normal form: a sum of [`Term`]s, each term a
//! rational coefficient times a sorted product of [`Atom`]s raised to exact
//! rational powers. This makes like-term collection, substitution, and
//! equality structural rather than heuristic, which is all the algebra the
//! compute-graph analyses need (polynomials in dimensions plus `√p`-style
//! fractional powers and `max`/`ceil` for shape arithmetic).
//!
//! All symbols are assumed to denote **positive** reals (see
//! [`crate::Symbol`]), so exponent distribution over products is sound.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use crate::rat::Rat;
use crate::symbol::Symbol;

/// Uninterpreted functions that participate in expressions.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Func {
    /// Pointwise maximum of the arguments.
    Max(Vec<Expr>),
    /// Pointwise minimum of the arguments.
    Min(Vec<Expr>),
    /// Ceiling of the argument.
    Ceil(Box<Expr>),
}

/// A multiplicative base: a symbol, a composite sub-expression (kept for
/// non-polynomial structure such as `(a+b)^(-1)`), or a function application.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Atom {
    /// A bare symbol.
    Sym(Symbol),
    /// A parenthesized sub-expression used as a base, e.g. `(a+b)^(-1)`.
    Expr(Box<Expr>),
    /// A function application.
    Func(Func),
}

/// One product term: `coeff · Π atomᵢ^expᵢ` with factors sorted by atom and
/// no zero exponents.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Term {
    pub(crate) coeff: Rat,
    pub(crate) factors: Vec<(Atom, Rat)>,
}

impl Term {
    fn constant(coeff: Rat) -> Term {
        Term {
            coeff,
            factors: Vec::new(),
        }
    }

    fn is_constant(&self) -> bool {
        self.factors.is_empty()
    }

    fn mul(&self, other: &Term) -> Term {
        let coeff = self.coeff * other.coeff;
        // Constants are the overwhelmingly common operands in builder
        // arithmetic: multiplying by one costs a factor-list clone, nothing
        // more.
        if other.factors.is_empty() {
            let mut factors = self.factors.clone();
            combine_equal_atoms(&mut factors);
            return Term { coeff, factors };
        }
        if self.factors.is_empty() {
            let mut factors = other.factors.clone();
            combine_equal_atoms(&mut factors);
            return Term { coeff, factors };
        }
        // Factor lists are invariantly sorted by atom with unique atoms (the
        // canonical form), so a linear merge-join replaces the former
        // `BTreeMap` rebuild and yields the identical sorted result.
        let (mut i, mut j) = (0, 0);
        let mut factors = Vec::with_capacity(self.factors.len() + other.factors.len());
        while i < self.factors.len() && j < other.factors.len() {
            let (a, ea) = &self.factors[i];
            let (b, eb) = &other.factors[j];
            match a.cmp(b) {
                Ordering::Less => {
                    factors.push((a.clone(), *ea));
                    i += 1;
                }
                Ordering::Greater => {
                    factors.push((b.clone(), *eb));
                    j += 1;
                }
                Ordering::Equal => {
                    let e = *ea + *eb;
                    if !e.is_zero() {
                        factors.push((a.clone(), e));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        factors.extend_from_slice(&self.factors[i..]);
        factors.extend_from_slice(&other.factors[j..]);
        combine_equal_atoms(&mut factors);
        Term { coeff, factors }
    }
}

/// Merge runs of equal atoms in a sorted factor list, summing exponents and
/// dropping zeros — what the former `BTreeMap` rebuild did implicitly. A
/// single operand can carry duplicate atoms only through fractional powers of
/// non-square rational coefficients, so in practice this is a no-op scan.
fn combine_equal_atoms(factors: &mut Vec<(Atom, Rat)>) {
    if factors.windows(2).all(|w| w[0].0 != w[1].0) {
        return;
    }
    let mut merged: Vec<(Atom, Rat)> = Vec::with_capacity(factors.len());
    for (a, e) in factors.drain(..) {
        match merged.last_mut() {
            Some((last, le)) if *last == a => *le = *le + e,
            _ => merged.push((a, e)),
        }
    }
    merged.retain(|(_, e)| !e.is_zero());
    *factors = merged;
}

/// A symbolic expression in canonical sum-of-terms form.
///
/// The empty sum is zero. Terms are sorted by their factor lists, and no two
/// terms share the same factor list, so `PartialEq` is semantic equality for
/// the polynomial fragment.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Expr {
    pub(crate) terms: Vec<Term>,
}

/// Exact square root of a non-negative rational, when both numerator and
/// denominator are perfect squares.
fn exact_sqrt(r: Rat) -> Option<Rat> {
    fn isqrt(n: i128) -> Option<i128> {
        if n < 0 {
            return None;
        }
        let root = (n as f64).sqrt().round() as i128;
        (root.saturating_sub(1)..=root + 1).find(|&cand| cand >= 0 && cand * cand == n)
    }
    Some(Rat::new(isqrt(r.num())?, isqrt(r.den())?))
}

fn normalize(mut terms: Vec<Term>) -> Expr {
    // Single-term sums (the pow/composite constructors) need no collection
    // pass, only the zero filter.
    if terms.len() <= 1 {
        terms.retain(|t| !t.coeff.is_zero());
        return Expr { terms };
    }
    let mut map: BTreeMap<Vec<(Atom, Rat)>, Rat> = BTreeMap::new();
    for t in terms {
        if t.coeff.is_zero() {
            continue;
        }
        let entry = map.entry(t.factors).or_insert(Rat::ZERO);
        *entry = *entry + t.coeff;
    }
    Expr {
        terms: map
            .into_iter()
            .filter(|(_, c)| !c.is_zero())
            .map(|(factors, coeff)| Term { coeff, factors })
            .collect(),
    }
}

impl Expr {
    /// The zero expression.
    pub fn zero() -> Expr {
        Expr { terms: Vec::new() }
    }

    /// The unit expression.
    pub fn one() -> Expr {
        Expr::from(Rat::ONE)
    }

    /// An integer constant.
    pub fn int(n: i128) -> Expr {
        Expr::from(Rat::int(n))
    }

    /// A rational constant `n/d`.
    pub fn rat(n: i128, d: i128) -> Expr {
        Expr::from(Rat::new(n, d))
    }

    /// A (freshly interned) symbol expression.
    pub fn sym(name: &str) -> Expr {
        Expr::from(Symbol::new(name))
    }

    /// True for the empty sum.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// True for the constant one.
    pub fn is_one(&self) -> bool {
        self.as_const().map(|c| c.is_one()).unwrap_or(false)
    }

    /// Returns the constant value if this expression has no symbolic part.
    pub fn as_const(&self) -> Option<Rat> {
        match self.terms.as_slice() {
            [] => Some(Rat::ZERO),
            [t] if t.is_constant() => Some(t.coeff),
            _ => None,
        }
    }

    /// Returns the symbol if this expression is exactly one symbol.
    pub fn as_symbol(&self) -> Option<Symbol> {
        match self.terms.as_slice() {
            [t] if t.coeff.is_one() && t.factors.len() == 1 => match &t.factors[0] {
                (Atom::Sym(s), e) if e.is_one() => Some(*s),
                _ => None,
            },
            _ => None,
        }
    }

    /// Number of terms in the canonical sum.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// All free symbols, including those nested inside composite atoms.
    pub fn free_symbols(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols(&self, out: &mut BTreeSet<Symbol>) {
        for t in &self.terms {
            for (a, _) in &t.factors {
                match a {
                    Atom::Sym(s) => {
                        out.insert(*s);
                    }
                    Atom::Expr(e) => e.collect_symbols(out),
                    Atom::Func(f) => match f {
                        Func::Max(args) | Func::Min(args) => {
                            for e in args {
                                e.collect_symbols(out);
                            }
                        }
                        Func::Ceil(e) => e.collect_symbols(out),
                    },
                }
            }
        }
    }

    fn add_expr(&self, other: &Expr) -> Expr {
        if self.terms.is_empty() {
            return other.clone();
        }
        if other.terms.is_empty() {
            return self.clone();
        }
        // Both operands are canonical — terms sorted by factor list, no
        // duplicates, no zero coefficients — so addition is a linear
        // merge-join producing the same canonical result as re-normalizing
        // the concatenation, without the `BTreeMap` pass.
        let (mut i, mut j) = (0, 0);
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        while i < self.terms.len() && j < other.terms.len() {
            let a = &self.terms[i];
            let b = &other.terms[j];
            match a.factors.cmp(&b.factors) {
                Ordering::Less => {
                    terms.push(a.clone());
                    i += 1;
                }
                Ordering::Greater => {
                    terms.push(b.clone());
                    j += 1;
                }
                Ordering::Equal => {
                    let coeff = a.coeff + b.coeff;
                    if !coeff.is_zero() {
                        terms.push(Term {
                            coeff,
                            factors: a.factors.clone(),
                        });
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend_from_slice(&self.terms[i..]);
        terms.extend_from_slice(&other.terms[j..]);
        Expr { terms }
    }

    fn mul_expr(&self, other: &Expr) -> Expr {
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for a in &self.terms {
            for b in &other.terms {
                terms.push(a.mul(b));
            }
        }
        normalize(terms)
    }

    fn neg_expr(&self) -> Expr {
        Expr {
            terms: self
                .terms
                .iter()
                .map(|t| Term {
                    coeff: -t.coeff,
                    factors: t.factors.clone(),
                })
                .collect(),
        }
    }

    /// Raise to an exact rational power.
    ///
    /// Sound under the positivity convention for symbols. Multi-term bases
    /// with small positive integer exponents are expanded; otherwise the base
    /// is kept as a composite atom.
    ///
    /// # Panics
    /// Panics on `0^e` with `e ≤ 0` or fractional exponents of negative
    /// constants.
    pub fn pow(&self, exp: impl Into<Rat>) -> Expr {
        let exp = exp.into();
        if exp.is_zero() {
            assert!(!self.is_zero(), "0^0 is undefined");
            return Expr::one();
        }
        if exp.is_one() {
            return self.clone();
        }
        if self.is_zero() {
            assert!(!exp.is_negative(), "0 raised to a negative power");
            return Expr::zero();
        }
        if let Some(c) = self.as_const() {
            if let Some(i) = exp.as_integer() {
                return Expr::from(c.powi(i as i64));
            }
            assert!(!c.is_negative(), "fractional power of a negative constant");
            if c.is_one() {
                return Expr::one();
            }
            // Pull out exact square roots of integer constants when possible.
            if exp == Rat::HALF {
                if let Some(n) = c.as_integer() {
                    let r = (n as f64).sqrt().round() as i128;
                    if r * r == n {
                        return Expr::int(r);
                    }
                }
            }
            return Expr::composite_pow(self.clone(), exp);
        }
        if self.terms.len() == 1 {
            // Distribute the exponent across the factors of the single term.
            let t = &self.terms[0];
            let mut factors: Vec<(Atom, Rat)> = t
                .factors
                .iter()
                .map(|(a, e)| (a.clone(), *e * exp))
                .collect();
            let coeff_part = if t.coeff.is_one() {
                Rat::ONE
            } else if let Some(i) = exp.as_integer() {
                t.coeff.powi(i as i64)
            } else {
                assert!(
                    !t.coeff.is_negative(),
                    "fractional power of a negative coefficient"
                );
                if exp == Rat::HALF {
                    if let Some(root) = exact_sqrt(t.coeff) {
                        root
                    } else {
                        factors.push((Atom::Expr(Box::new(Expr::from(t.coeff))), exp));
                        Rat::ONE
                    }
                } else {
                    factors.push((Atom::Expr(Box::new(Expr::from(t.coeff))), exp));
                    Rat::ONE
                }
            };
            factors.sort();
            return normalize(vec![Term {
                coeff: coeff_part,
                factors,
            }]);
        }
        // Multi-term base.
        if let Some(i) = exp.as_integer() {
            if (2..=8).contains(&i) {
                let mut acc = self.clone();
                for _ in 1..i {
                    acc = acc.mul_expr(self);
                }
                return acc;
            }
        }
        Expr::composite_pow(self.clone(), exp)
    }

    fn composite_pow(base: Expr, exp: Rat) -> Expr {
        normalize(vec![Term {
            coeff: Rat::ONE,
            factors: vec![(Atom::Expr(Box::new(base)), exp)],
        }])
    }

    /// `self^(1/2)`.
    pub fn sqrt(&self) -> Expr {
        self.pow(Rat::HALF)
    }

    /// `self^(-1)`.
    pub fn recip(&self) -> Expr {
        self.pow(Rat::int(-1))
    }

    /// Symbolic maximum; folds when all arguments are constants and drops
    /// duplicates.
    pub fn max(args: Vec<Expr>) -> Expr {
        Expr::extremum(args, true)
    }

    /// Symbolic minimum; folds when all arguments are constants and drops
    /// duplicates.
    pub fn min(args: Vec<Expr>) -> Expr {
        Expr::extremum(args, false)
    }

    fn extremum(args: Vec<Expr>, is_max: bool) -> Expr {
        assert!(!args.is_empty(), "max/min of no arguments");
        let mut uniq: Vec<Expr> = Vec::new();
        for a in args {
            if !uniq.contains(&a) {
                uniq.push(a);
            }
        }
        if uniq.len() == 1 {
            return uniq.pop().expect("one element");
        }
        if uniq.iter().all(|e| e.as_const().is_some()) {
            let consts = uniq.iter().map(|e| e.as_const().expect("const"));
            let best = if is_max {
                consts.max().expect("nonempty")
            } else {
                consts.min().expect("nonempty")
            };
            return Expr::from(best);
        }
        uniq.sort();
        let f = if is_max {
            Func::Max(uniq)
        } else {
            Func::Min(uniq)
        };
        normalize(vec![Term {
            coeff: Rat::ONE,
            factors: vec![(Atom::Func(f), Rat::ONE)],
        }])
    }

    /// Symbolic ceiling; folds for constants.
    pub fn ceil(arg: Expr) -> Expr {
        if let Some(c) = arg.as_const() {
            let n = c.num();
            let d = c.den();
            let q = n.div_euclid(d);
            let ceiled = if n.rem_euclid(d) == 0 { q } else { q + 1 };
            return Expr::int(ceiled);
        }
        normalize(vec![Term {
            coeff: Rat::ONE,
            factors: vec![(Atom::Func(Func::Ceil(Box::new(arg))), Rat::ONE)],
        }])
    }

    /// Substitute `replacement` for every occurrence of `sym`.
    pub fn subst(&self, sym: Symbol, replacement: &Expr) -> Expr {
        let mut out = Expr::zero();
        for t in &self.terms {
            let mut term_expr = Expr::from(t.coeff);
            for (a, e) in &t.factors {
                let base = match a {
                    Atom::Sym(s) if *s == sym => replacement.clone(),
                    Atom::Sym(s) => Expr::from(*s),
                    Atom::Expr(inner) => inner.subst(sym, replacement),
                    Atom::Func(f) => {
                        let f = match f {
                            Func::Max(args) => {
                                Func::Max(args.iter().map(|x| x.subst(sym, replacement)).collect())
                            }
                            Func::Min(args) => {
                                Func::Min(args.iter().map(|x| x.subst(sym, replacement)).collect())
                            }
                            Func::Ceil(x) => Func::Ceil(Box::new(x.subst(sym, replacement))),
                        };
                        match f {
                            Func::Max(args) => Expr::max(args),
                            Func::Min(args) => Expr::min(args),
                            Func::Ceil(x) => Expr::ceil(*x),
                        }
                    }
                };
                term_expr = term_expr.mul_expr(&base.pow(*e));
            }
            out = out.add_expr(&term_expr);
        }
        out
    }

    /// Decompose the expression as a polynomial in `sym`: a map from the
    /// exponent of `sym` to the coefficient expression (which no longer
    /// mentions `sym`). Returns `None` when `sym` occurs inside a composite
    /// atom or function argument (non-polynomial occurrence).
    ///
    /// ```
    /// use symath::{Expr, Rat, Symbol};
    /// let b = Expr::sym("doc_b");
    /// let h = Expr::sym("doc_h");
    /// let e = Expr::int(16) * h.pow(Rat::TWO) * &b + Expr::int(3) * &h;
    /// let coeffs = e.coefficients_in(Symbol::new("doc_b")).unwrap();
    /// assert_eq!(coeffs[&Rat::ONE], Expr::int(16) * h.pow(Rat::TWO));
    /// assert_eq!(coeffs[&Rat::ZERO], Expr::int(3) * h);
    /// ```
    pub fn coefficients_in(&self, sym: Symbol) -> Option<std::collections::BTreeMap<Rat, Expr>> {
        let mut out: std::collections::BTreeMap<Rat, Expr> = std::collections::BTreeMap::new();
        for t in &self.terms {
            let mut power = Rat::ZERO;
            let mut rest = Term {
                coeff: t.coeff,
                factors: Vec::new(),
            };
            for (a, e) in &t.factors {
                match a {
                    Atom::Sym(s) if *s == sym => power = power + *e,
                    Atom::Sym(_) => rest.factors.push((a.clone(), *e)),
                    Atom::Expr(inner) => {
                        if inner.free_symbols().contains(&sym) {
                            return None;
                        }
                        rest.factors.push((a.clone(), *e));
                    }
                    Atom::Func(f) => {
                        let args: Vec<&Expr> = match f {
                            Func::Max(v) | Func::Min(v) => v.iter().collect(),
                            Func::Ceil(x) => vec![x.as_ref()],
                        };
                        if args.iter().any(|x| x.free_symbols().contains(&sym)) {
                            return None;
                        }
                        rest.factors.push((a.clone(), *e));
                    }
                }
            }
            let coeff_expr = normalize(vec![rest]);
            let entry = out.entry(power).or_insert_with(Expr::zero);
            *entry = entry.clone() + coeff_expr;
        }
        out.retain(|_, c| !c.is_zero());
        Some(out)
    }

    /// The total degree in `sym` of the highest-degree term mentioning it,
    /// restricted to polynomial occurrences. Returns `Rat::ZERO` when the
    /// symbol does not occur polynomially.
    pub fn degree_in(&self, sym: Symbol) -> Rat {
        let mut best = Rat::ZERO;
        for t in &self.terms {
            for (a, e) in &t.factors {
                if let Atom::Sym(s) = a {
                    if *s == sym && *e > best {
                        best = *e;
                    }
                }
            }
        }
        best
    }

    pub(crate) fn terms(&self) -> &[Term] {
        &self.terms
    }
}

impl From<Rat> for Expr {
    fn from(c: Rat) -> Expr {
        if c.is_zero() {
            Expr::zero()
        } else {
            Expr {
                terms: vec![Term::constant(c)],
            }
        }
    }
}

impl From<Symbol> for Expr {
    fn from(s: Symbol) -> Expr {
        Expr {
            terms: vec![Term {
                coeff: Rat::ONE,
                factors: vec![(Atom::Sym(s), Rat::ONE)],
            }],
        }
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Expr {
            fn from(n: $t) -> Expr {
                Expr::int(n as i128)
            }
        }
    )*};
}
from_int!(i32, i64, u32, u64, usize);

macro_rules! binop {
    ($trait:ident, $method:ident, $imp:ident) => {
        impl std::ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                (&self).$imp(&rhs)
            }
        }
        impl std::ops::$trait<&Expr> for Expr {
            type Output = Expr;
            fn $method(self, rhs: &Expr) -> Expr {
                (&self).$imp(rhs)
            }
        }
        impl std::ops::$trait<Expr> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                self.$imp(&rhs)
            }
        }
        impl std::ops::$trait<&Expr> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: &Expr) -> Expr {
                self.$imp(rhs)
            }
        }
    };
}

binop!(Add, add, add_expr);
binop!(Mul, mul, mul_expr);

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        self.add_expr(&rhs.neg_expr())
    }
}
impl std::ops::Sub<&Expr> for &Expr {
    type Output = Expr;
    fn sub(self, rhs: &Expr) -> Expr {
        self.add_expr(&rhs.neg_expr())
    }
}
impl std::ops::Sub<&Expr> for Expr {
    type Output = Expr;
    fn sub(self, rhs: &Expr) -> Expr {
        self.add_expr(&rhs.neg_expr())
    }
}
impl std::ops::Sub<Expr> for &Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        self.add_expr(&rhs.neg_expr())
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        self.mul_expr(&rhs.recip())
    }
}
impl std::ops::Div<&Expr> for &Expr {
    type Output = Expr;
    fn div(self, rhs: &Expr) -> Expr {
        self.mul_expr(&rhs.recip())
    }
}
impl std::ops::Div<&Expr> for Expr {
    type Output = Expr;
    fn div(self, rhs: &Expr) -> Expr {
        self.mul_expr(&rhs.recip())
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        self.neg_expr()
    }
}
impl std::ops::Neg for &Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        self.neg_expr()
    }
}

impl std::iter::Sum for Expr {
    fn sum<I: Iterator<Item = Expr>>(iter: I) -> Expr {
        iter.fold(Expr::zero(), |acc, e| acc + e)
    }
}

/// Deterministic structural ordering helper used by the canonical form.
#[allow(dead_code)]
fn atom_cmp(a: &Atom, b: &Atom) -> Ordering {
    a.cmp(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Expr {
        Expr::sym("test_h")
    }
    fn v() -> Expr {
        Expr::sym("test_v")
    }

    #[test]
    fn like_terms_collect() {
        let e = h() * Expr::int(3) + h() * Expr::int(5);
        assert_eq!(e, Expr::int(8) * h());
        assert_eq!(e.term_count(), 1);
    }

    #[test]
    fn subtraction_cancels() {
        let e = h() * v() - v() * h();
        assert!(e.is_zero());
    }

    #[test]
    fn distributes_products_over_sums() {
        let e = (h() + Expr::int(1)) * (h() - Expr::int(1));
        assert_eq!(e, h().pow(2) - Expr::one());
    }

    #[test]
    fn pow_distributes_over_single_term() {
        let e = (h() * v()).sqrt();
        assert_eq!(e, h().sqrt() * v().sqrt());
    }

    #[test]
    fn sqrt_of_square_roundtrips() {
        let e = h().pow(2).sqrt();
        assert_eq!(e, h());
    }

    #[test]
    fn integer_sqrt_folds() {
        assert_eq!(Expr::int(144).sqrt(), Expr::int(12));
    }

    #[test]
    fn multi_term_small_power_expands() {
        let e = (h() + v()).pow(2);
        assert_eq!(e, h().pow(2) + Expr::int(2) * h() * v() + v().pow(2));
    }

    #[test]
    fn multi_term_negative_power_stays_composite() {
        let e = (h() + v()).recip();
        assert_eq!(e.term_count(), 1);
        assert!(e.as_const().is_none());
        // (h+v)^-1 * (h+v) does not auto-cancel (kept composite), but its
        // free symbols are tracked.
        let syms = e.free_symbols();
        assert!(syms.contains(&Symbol::new("test_h")));
        assert!(syms.contains(&Symbol::new("test_v")));
    }

    #[test]
    fn subst_replaces_everywhere() {
        let e = h().pow(2) * v() + h();
        let r = e.subst(Symbol::new("test_h"), &Expr::int(3));
        assert_eq!(r, Expr::int(9) * v() + Expr::int(3));
    }

    #[test]
    fn subst_inside_composite_atoms() {
        let e = (h() + v()).recip();
        let r = e.subst(Symbol::new("test_h"), &Expr::int(1));
        let expected = (Expr::int(1) + v()).recip();
        assert_eq!(r, expected);
    }

    #[test]
    fn max_folds_constants_and_dedups() {
        assert_eq!(
            Expr::max(vec![Expr::int(3), Expr::int(7), Expr::int(7)]),
            Expr::int(7)
        );
        assert_eq!(Expr::max(vec![h(), h()]), h());
    }

    #[test]
    fn min_folds_constants() {
        assert_eq!(Expr::min(vec![Expr::int(3), Expr::int(7)]), Expr::int(3));
    }

    #[test]
    fn ceil_folds_constants() {
        assert_eq!(Expr::ceil(Expr::rat(7, 2)), Expr::int(4));
        assert_eq!(Expr::ceil(Expr::rat(-7, 2)), Expr::int(-3));
        assert_eq!(Expr::ceil(Expr::int(5)), Expr::int(5));
    }

    #[test]
    fn degree_in_reports_highest_power() {
        let e = h().pow(3) * v() + h() + Expr::one();
        assert_eq!(e.degree_in(Symbol::new("test_h")), Rat::int(3));
        assert_eq!(e.degree_in(Symbol::new("test_v")), Rat::ONE);
        assert_eq!(e.degree_in(Symbol::new("test_absent")), Rat::ZERO);
    }

    #[test]
    fn division_by_symbol() {
        let e = (h().pow(2) * v()) / h();
        assert_eq!(e, h() * v());
    }

    #[test]
    fn sum_iterator() {
        let total: Expr = vec![h(), v(), h()].into_iter().sum();
        assert_eq!(total, Expr::int(2) * h() + v());
    }

    #[test]
    fn as_symbol_detects_bare_symbols() {
        assert_eq!(h().as_symbol(), Some(Symbol::new("test_h")));
        assert_eq!((h() * Expr::int(2)).as_symbol(), None);
        assert_eq!((h() + v()).as_symbol(), None);
    }

    #[test]
    #[should_panic(expected = "0^0")]
    fn zero_pow_zero_panics() {
        let _ = Expr::zero().pow(Rat::ZERO);
    }
}
