//! Hash-consed expressions: intern once, compare and hash by id, memoize
//! the algebra.
//!
//! The tree [`Expr`] representation deep-clones boxed sub-expressions and
//! re-hashes whole trees on every map lookup. An [`ExprId`] is a 32-bit
//! handle into a global append-only table holding each *distinct* canonical
//! expression exactly once, so:
//!
//! * structural equality is id equality (`u32 ==`),
//! * clones are copies,
//! * hashing is O(1),
//! * and every algebraic operation can be **memoized** by operand ids: the
//!   thousands of repeated per-timestep/per-block cost combinations in the
//!   model builders and graph folding are computed once per distinct operand
//!   pair instead of once per occurrence.
//!
//! Memo keys are the exact operand ids (plus the exact exponent / binding
//! list), never lossy fingerprints, so a memo hit returns precisely the
//! expression the tree algebra would have built — the proptest suite
//! (`tests/intern_equiv.rs`) asserts interned ≡ tree on every operation.
//! Numeric evaluation prices the id as a one-wide grid of its cached
//! [`BatchProgram`] and is bit-identical to [`Expr::eval`].
//!
//! The table is append-only and never evicts: the workspace's expression
//! universe is bounded by the model families (a few thousand distinct
//! expressions), and stable ids are what make the memo tables sound.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::batch::{BatchProgram, BATCH_CACHE_HITS, BATCH_PROGRAMS_COMPILED};
use crate::eval::{Bindings, UnboundSymbol};
use crate::expr::Expr;
use crate::rat::Rat;
use crate::symbol::Symbol;

/// A 32-bit handle to an interned expression. Two `ExprId`s are equal iff
/// the expressions they denote are structurally equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ExprId(u32);

/// Snapshot of the interner's counters (see [`intern_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Interning requests answered from the table.
    pub intern_hits: u64,
    /// Interning requests that inserted a new expression.
    pub intern_misses: u64,
    /// Memoized operations (`add`/`mul`/`pow`/`bind_all`) answered from cache.
    pub memo_hits: u64,
    /// Memoized operations that ran the tree algebra.
    pub memo_misses: u64,
    /// Distinct expressions in the table.
    pub table_len: u64,
    /// Distinct root sets with a compiled batch program.
    pub batch_programs: u64,
    /// Entries across the add/mul/pow/bind operation memo tables.
    pub memo_entries: u64,
}

impl InternStats {
    /// Fraction of intern requests answered from the table.
    pub fn intern_hit_rate(&self) -> f64 {
        rate(self.intern_hits, self.intern_misses)
    }

    /// Fraction of memoized operations answered from cache.
    pub fn memo_hit_rate(&self) -> f64 {
        rate(self.memo_hits, self.memo_misses)
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// `bind_all` memo key: the operand id plus the exact sorted integer
/// bindings (never a hashed fingerprint — collisions must be impossible).
type BindKey = (u32, Vec<(Symbol, i128)>);

struct Interner {
    /// id → expression. Append-only; `Arc` so views are O(1).
    exprs: RwLock<Vec<Arc<Expr>>>,
    /// expression → id (the hash-consing table).
    ids: RwLock<HashMap<Arc<Expr>, u32>>,
    /// Lazily compiled batch program per root-id list (order-sensitive:
    /// the list *is* the program's output layout).
    batch_programs: RwLock<HashMap<Vec<u32>, Arc<BatchProgram>>>,
    add_memo: RwLock<HashMap<(u32, u32), u32>>,
    mul_memo: RwLock<HashMap<(u32, u32), u32>>,
    pow_memo: RwLock<HashMap<(u32, Rat), u32>>,
    bind_memo: RwLock<HashMap<BindKey, u32>>,
    intern_hits: AtomicU64,
    intern_misses: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(|| Interner {
        exprs: RwLock::new(Vec::new()),
        ids: RwLock::new(HashMap::new()),
        batch_programs: RwLock::new(HashMap::new()),
        add_memo: RwLock::new(HashMap::new()),
        mul_memo: RwLock::new(HashMap::new()),
        pow_memo: RwLock::new(HashMap::new()),
        bind_memo: RwLock::new(HashMap::new()),
        intern_hits: AtomicU64::new(0),
        intern_misses: AtomicU64::new(0),
        memo_hits: AtomicU64::new(0),
        memo_misses: AtomicU64::new(0),
    })
}

/// Counter snapshot for benchmarks and `/v1/metrics`.
pub fn intern_stats() -> InternStats {
    let it = global();
    InternStats {
        intern_hits: it.intern_hits.load(Ordering::Relaxed),
        intern_misses: it.intern_misses.load(Ordering::Relaxed),
        memo_hits: it.memo_hits.load(Ordering::Relaxed),
        memo_misses: it.memo_misses.load(Ordering::Relaxed),
        table_len: it.exprs.read().len() as u64,
        batch_programs: it.batch_programs.read().len() as u64,
        memo_entries: (it.add_memo.read().len()
            + it.mul_memo.read().len()
            + it.pow_memo.read().len()
            + it.bind_memo.read().len()) as u64,
    }
}

impl ExprId {
    /// Intern `e`, returning the existing id if the expression is already in
    /// the table.
    pub fn intern(e: &Expr) -> ExprId {
        let it = global();
        if let Some(&id) = it.ids.read().get(e) {
            it.intern_hits.fetch_add(1, Ordering::Relaxed);
            return ExprId(id);
        }
        let mut ids = it.ids.write();
        // Re-check under the write lock: another thread may have interned it.
        if let Some(&id) = ids.get(e) {
            it.intern_hits.fetch_add(1, Ordering::Relaxed);
            return ExprId(id);
        }
        it.intern_misses.fetch_add(1, Ordering::Relaxed);
        let mut exprs = it.exprs.write();
        let id = u32::try_from(exprs.len()).expect("expression table overflow");
        let arc = Arc::new(e.clone());
        exprs.push(Arc::clone(&arc));
        ids.insert(arc, id);
        ExprId(id)
    }

    /// The interned expression (shared, O(1) — no tree clone).
    pub fn expr(self) -> Arc<Expr> {
        Arc::clone(&global().exprs.read()[self.0 as usize])
    }

    /// The raw table index.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Interned zero.
    pub fn zero() -> ExprId {
        ExprId::intern(&Expr::zero())
    }

    /// Interned one.
    pub fn one() -> ExprId {
        ExprId::intern(&Expr::one())
    }

    /// Interned integer constant.
    pub fn int(n: i128) -> ExprId {
        ExprId::intern(&Expr::int(n))
    }

    /// Interned symbol expression.
    pub fn sym(name: &str) -> ExprId {
        ExprId::intern(&Expr::sym(name))
    }

    /// True iff this is the zero expression.
    pub fn is_zero(self) -> bool {
        self.expr().is_zero()
    }

    /// Memoized addition. Keyed on the unordered id pair — tree addition is
    /// structurally commutative (`normalize` sorts terms), so `(a, b)` and
    /// `(b, a)` produce the same canonical result.
    #[allow(clippy::should_implement_trait)] // `+` sugar is also provided
    pub fn add(self, rhs: ExprId) -> ExprId {
        let key = (self.0.min(rhs.0), self.0.max(rhs.0));
        memo_op(&global().add_memo, key, || {
            let (a, b) = (self.expr(), rhs.expr());
            ExprId::intern(&(&*a + &*b))
        })
    }

    /// Memoized multiplication; commutative like [`ExprId::add`].
    #[allow(clippy::should_implement_trait)] // `*` sugar is also provided
    pub fn mul(self, rhs: ExprId) -> ExprId {
        let key = (self.0.min(rhs.0), self.0.max(rhs.0));
        memo_op(&global().mul_memo, key, || {
            let (a, b) = (self.expr(), rhs.expr());
            ExprId::intern(&(&*a * &*b))
        })
    }

    /// Memoized exponentiation by an exact rational.
    pub fn pow(self, exp: impl Into<Rat>) -> ExprId {
        let exp = exp.into();
        memo_op(&global().pow_memo, (self.0, exp), || {
            ExprId::intern(&self.expr().pow(exp))
        })
    }

    /// Memoized [`Expr::bind_all`]: substitute every binding as an exact
    /// integer constant. Keyed on the exact `(symbol, value)` list in symbol
    /// order, so distinct bindings can never alias.
    pub fn bind_all(self, bindings: &Bindings) -> ExprId {
        let key: Vec<(Symbol, i128)> = bindings
            .iter()
            .map(|(s, v)| {
                assert!(
                    v.fract() == 0.0 && v.abs() < 2f64.powi(96),
                    "bind_all requires integer-valued bindings, got {s}={v}"
                );
                (s, v as i128)
            })
            .collect();
        memo_op(&global().bind_memo, (self.0, key), || {
            ExprId::intern(&self.expr().bind_all(bindings))
        })
    }

    /// Evaluate as a one-wide grid of this id's cached [`BatchProgram`].
    /// Bit-identical to [`Expr::eval`] on the interned expression,
    /// including which unbound symbol an error names.
    pub fn eval(self, bindings: &Bindings) -> Result<f64, UnboundSymbol> {
        batch_program(&[self])
            .eval_grid(std::slice::from_ref(bindings))
            .expect("a one-wide grid is not empty")[0][0]
            .clone()
    }

    /// Evaluate and round to the nearest unsigned integer, with the same
    /// contract as [`Expr::eval_u64`].
    ///
    /// # Panics
    /// Panics if the value is negative or not finite.
    pub fn eval_u64(self, bindings: &Bindings) -> Result<u64, UnboundSymbol> {
        let v = self.eval(bindings)?;
        assert!(
            v.is_finite() && v >= -0.5,
            "expression evaluated to non-representable u64: {v}"
        );
        Ok(v.round().max(0.0) as u64)
    }
}

/// The cached [`BatchProgram`] for a root-id list, compiled on first
/// request. The key is the exact ordered list — it determines the program's
/// per-root output layout — so a sweep that prices the same stats + element
/// table compiles once and replays for every grid.
pub fn batch_program(roots: &[ExprId]) -> Arc<BatchProgram> {
    let it = global();
    let key: Vec<u32> = roots.iter().map(|r| r.0).collect();
    if let Some(p) = it.batch_programs.read().get(&key) {
        BATCH_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(p);
    }
    // Compile outside the lock (same discipline as `memo_op`): concurrent
    // misses may compile twice, but the programs are identical and the
    // first insert wins.
    let prog = Arc::new(BatchProgram::new(roots));
    let mut cache = it.batch_programs.write();
    if let Some(p) = cache.get(&key) {
        BATCH_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(p);
    }
    BATCH_PROGRAMS_COMPILED.fetch_add(1, Ordering::Relaxed);
    Arc::clone(cache.entry(key).or_insert(prog))
}

/// Memo-cache lookup with the compute step outside any lock: concurrent
/// misses may compute twice, but the results are identical canonical
/// expressions and the first insert wins.
fn memo_op<K: std::hash::Hash + Eq>(
    cache: &RwLock<HashMap<K, u32>>,
    key: K,
    compute: impl FnOnce() -> ExprId,
) -> ExprId {
    let it = global();
    if let Some(&id) = cache.read().get(&key) {
        it.memo_hits.fetch_add(1, Ordering::Relaxed);
        return ExprId(id);
    }
    it.memo_misses.fetch_add(1, Ordering::Relaxed);
    let result = compute();
    ExprId(*cache.write().entry(key).or_insert(result.0))
}

impl Expr {
    /// Intern this expression (see [`ExprId::intern`]).
    pub fn interned(&self) -> ExprId {
        ExprId::intern(self)
    }
}

impl From<ExprId> for Expr {
    /// Materialize the tree view, so any `impl Into<Expr>` API (shape
    /// constructors, the model builders) accepts a hash-consed id directly.
    fn from(id: ExprId) -> Expr {
        (*id.expr()).clone()
    }
}

impl std::ops::Add for ExprId {
    type Output = ExprId;
    fn add(self, rhs: ExprId) -> ExprId {
        ExprId::add(self, rhs)
    }
}

impl std::ops::Mul for ExprId {
    type Output = ExprId;
    fn mul(self, rhs: ExprId) -> ExprId {
        ExprId::mul(self, rhs)
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_expressions_intern_to_equal_ids() {
        let a = (Expr::sym("in_a") + Expr::int(1)) * Expr::sym("in_b");
        let b = Expr::sym("in_b") * (Expr::int(1) + Expr::sym("in_a"));
        assert_eq!(a.interned(), b.interned());
        assert_ne!(a.interned(), Expr::sym("in_a").interned());
    }

    #[test]
    fn view_roundtrips_to_the_same_id() {
        let e = Expr::sym("in_h").pow(2) * Expr::int(3) + Expr::int(7);
        let id = e.interned();
        assert_eq!(*id.expr(), e);
        assert_eq!(ExprId::intern(&id.expr()), id);
    }

    #[test]
    fn memoized_ops_match_tree_algebra() {
        let a = Expr::sym("in_x") + Expr::int(2);
        let b = Expr::sym("in_y") * Expr::int(3);
        assert_eq!(*(a.interned() + b.interned()).expr(), &a + &b);
        assert_eq!(*(a.interned() * b.interned()).expr(), &a * &b);
        assert_eq!(*a.interned().pow(Rat::TWO).expr(), a.pow(Rat::TWO));
    }

    #[test]
    fn add_memo_is_commutative_on_key() {
        let a = Expr::sym("in_p").interned();
        let b = Expr::sym("in_q").interned();
        assert_eq!(a + b, b + a);
    }

    #[test]
    fn bind_all_matches_tree_and_caches() {
        let e = Expr::sym("in_w") * Expr::sym("in_v") + Expr::sym("in_w");
        let bind = Bindings::new().with("in_w", 3.0);
        let id = e.interned().bind_all(&bind);
        assert_eq!(*id.expr(), e.bind_all(&bind));
        // Second call must hit the memo (same id back).
        assert_eq!(e.interned().bind_all(&bind), id);
    }

    #[test]
    fn compiled_eval_is_bit_identical_to_tree_eval() {
        let _guard = crate::batch::grid_eval_lock();
        let e = Expr::sym("in_e").pow(Rat::HALF) * Expr::int(12) + Expr::rat(5, 7);
        let b = Bindings::new().with("in_e", 1234.0);
        assert_eq!(
            e.interned().eval(&b).unwrap().to_bits(),
            e.eval(&b).unwrap().to_bits()
        );
    }

    #[test]
    fn batch_program_is_cached_per_root_list() {
        let a = (Expr::sym("in_bp") + Expr::int(1)).interned();
        let b = (Expr::sym("in_bp") * Expr::int(2)).interned();
        let p1 = batch_program(&[a, b]);
        let p2 = batch_program(&[a, b]);
        assert!(Arc::ptr_eq(&p1, &p2), "same root list must hit the cache");
        // A different order is a different output layout → distinct program.
        let p3 = batch_program(&[b, a]);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert!(intern_stats().batch_programs >= 2);
    }

    #[test]
    fn stats_counters_advance() {
        let before = intern_stats();
        let fresh = Expr::sym("in_ctr") + Expr::int(917);
        let _ = fresh.interned();
        let _ = fresh.interned();
        let after = intern_stats();
        assert!(after.intern_misses > before.intern_misses);
        assert!(after.intern_hits > before.intern_hits);
        assert!(after.table_len > 0);
    }
}
