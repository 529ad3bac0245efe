//! Exact rational arithmetic over `i128`.
//!
//! Coefficients and exponents in [`crate::Expr`] are exact rationals so that
//! algebraic simplification (like-term collection, exponent arithmetic) never
//! loses precision. Magnitudes stay small in practice — they are op-level
//! constants such as `2·kh·kw` — so `i128` with checked arithmetic suffices.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num / den`, always stored in lowest terms with
/// `den > 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// The rational 0.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational 1.
    pub const ONE: Rat = Rat { num: 1, den: 1 };
    /// The rational 2.
    pub const TWO: Rat = Rat { num: 2, den: 1 };
    /// One half — the exponent used for square roots.
    pub const HALF: Rat = Rat { num: 1, den: 2 };

    /// Construct a rational, normalizing sign and reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        if num == 0 {
            return Rat::ZERO;
        }
        let g = gcd(num, den);
        let sign = if den < 0 { -1 } else { 1 };
        Rat {
            num: sign * (num / g),
            den: sign * (den / g),
        }
    }

    /// An integer as a rational.
    pub const fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// True when the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True when the value is exactly one.
    pub fn is_one(&self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// True when the denominator is one.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// True when the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns the integer value if this rational is an integer.
    pub fn as_integer(&self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn recip(&self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Nearest `f64` value.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Integer power with a checked exponent; negative exponents invert.
    ///
    /// # Panics
    /// Panics on `0^negative` or on `i128` overflow.
    pub fn powi(&self, exp: i64) -> Rat {
        if exp == 0 {
            return Rat::ONE;
        }
        let (base, e) = if exp < 0 {
            (self.recip(), exp.unsigned_abs())
        } else {
            (*self, exp as u64)
        };
        let mut acc = Rat::ONE;
        let mut b = base;
        let mut e = e;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * b;
            }
            e >>= 1;
            if e > 0 {
                b = b * b;
            }
        }
        acc
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        let num = self
            .num
            .checked_mul(rhs.den)
            .and_then(|a| rhs.num.checked_mul(self.den).and_then(|b| a.checked_add(b)))
            .expect("rational addition overflow");
        let den = self
            .den
            .checked_mul(rhs.den)
            .expect("rational addition overflow");
        Rat::new(num, den)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        // Cross-reduce before multiplying to keep magnitudes small.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        let num = (self.num / g1)
            .checked_mul(rhs.num / g2)
            .expect("rational multiplication overflow");
        let den = (self.den / g2)
            .checked_mul(rhs.den / g1)
            .expect("rational multiplication overflow");
        Rat::new(num, den)
    }
}

impl Div for Rat {
    type Output = Rat;
    // a/b as a·b⁻¹ is the intended exact-arithmetic formulation.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b  (b, d > 0)
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational compare overflow");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational compare overflow");
        lhs.cmp(&rhs)
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::int(n)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n as i128)
    }
}

impl From<u64> for Rat {
    fn from(n: u64) -> Rat {
        Rat::int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Rat {
        Rat::int(n as i128)
    }
}

impl From<usize> for Rat {
    fn from(n: usize) -> Rat {
        Rat::int(n as i128)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_sign_and_reduces() {
        let r = Rat::new(4, -6);
        assert_eq!(r.num(), -2);
        assert_eq!(r.den(), 3);
    }

    #[test]
    fn zero_collapses() {
        assert_eq!(Rat::new(0, -17), Rat::ZERO);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::int(2));
    }

    #[test]
    fn powi_handles_negative_exponents() {
        let a = Rat::new(2, 3);
        assert_eq!(a.powi(2), Rat::new(4, 9));
        assert_eq!(a.powi(-2), Rat::new(9, 4));
        assert_eq!(a.powi(0), Rat::ONE);
    }

    #[test]
    fn ordering_matches_f64() {
        let a = Rat::new(7, 8);
        let b = Rat::new(8, 9);
        assert!(a < b);
        assert!(a.to_f64() < b.to_f64());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn comparison_is_exact_near_ties() {
        // 1/3 vs 333333/1000000 differ only in the 7th decimal digit.
        assert!(Rat::new(333_333, 1_000_000) < Rat::new(1, 3));
    }
}
