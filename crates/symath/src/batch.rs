//! Depth-batched register-VM evaluation: one compiled program, any number
//! of grid points, structure-of-arrays.
//!
//! This is the crate's only compiled evaluator. Sweep grids evaluate the
//! same handful of expressions at hundreds of points, and a single point is
//! just a one-wide grid ([`ExprId::eval`](crate::ExprId::eval) is the first
//! cell of one). A [`BatchProgram`] compiles a whole *set* of root
//! expressions once into a single register program and runs each opcode as
//! a tight loop over the point axis: every register is a flat `Vec<f64>`
//! column of length `points`, so dispatch is paid once per instruction and
//! the inner loops are plain slice arithmetic the compiler can vectorize.
//!
//! # Register discipline
//!
//! The builder walks each canonical expression in the tree evaluator's
//! order ([`Expr::eval`]) as if it ran on a value stack, and maps every
//! stack position to a register: a push at depth `d` becomes a write to
//! register `d`, and a binary stack op at depth `d` becomes
//! `reg[d-1] ∘= reg[d]`. The mapping mirrors `Expr::eval` statement by
//! statement:
//!
//! * an expression starts `total = 0.0` → `Splat(0.0)`, and each term ends
//!   with `total += val` → `Add`;
//! * a term starts `val = coeff` → `Splat(coeff)` and each factor performs
//!   `val *= base.powf(e)` → *atom code* (writes `base`) then `PowMul(e)`;
//! * `max` folds from `NEG_INFINITY` → `Splat(NEG_INFINITY)` then per
//!   argument *expr code* + `Max` (symmetrically `min` from `INFINITY`);
//! * `ceil` rounds the top register in place.
//!
//! The operation sequence *per point* is therefore identical to the tree
//! walk's, so results are **bit-identical** (IEEE-754 arithmetic is
//! deterministic).
//!
//! # Cross-expression CSE
//!
//! Every nested sub-expression unit (an `Atom::Expr` body, a `max`/`min`
//! argument, a `ceil` argument) is interned during compilation; the
//! interner's structural sharing makes "have I seen this subtree?" an id
//! lookup. A unit that occurs more than once across the root set is
//! computed the first time it is encountered, copied into a dedicated cache
//! register, and every later occurrence becomes a single [`Copy`]
//! instruction. Reuse is bit-identity-safe: the tree walk would recompute
//! the unit with the same deterministic operation sequence on the same
//! inputs, producing exactly the bits already sitting in the cache
//! register, and `Copy` moves bits without arithmetic.
//!
//! # Error semantics
//!
//! `Expr::eval` fails with the *first* unbound symbol in tree-walk
//! encounter order. The batch VM preserves this per `(root, point)` pair:
//! unbound slots are filled with a placeholder and masked, all columns are
//! computed anyway (every opcode is pointwise across the point axis, so a
//! masked point can never contaminate a bound one), and each affected
//! result is overwritten with the error naming the first unbound symbol in
//! that root's own tree-walk encounter order (see `encounter_order`).
//!
//! [`Copy`]: BatchInstr::Copy

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::eval::{Bindings, UnboundSymbol};
use crate::expr::{Atom, Expr, Func};
use crate::intern::ExprId;
use crate::symbol::Symbol;

/// One register-VM operation. `dst`/`src` index register columns; every
/// arithmetic variant applies the tree walk's operation pointwise across
/// the point axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchInstr {
    /// `reg[dst][·] = val` (a pushed constant, broadcast to every point).
    Splat {
        /// Destination register.
        dst: u32,
        /// The constant.
        val: f64,
    },
    /// `reg[dst][·] = column of symbol slot` (a pushed symbol load).
    Load {
        /// Destination register.
        dst: u32,
        /// Symbol slot (indexes [`BatchProgram::symbols`]).
        slot: u32,
    },
    /// `reg[dst][i] *= reg[src][i].powf(exp)` — one factor of a term
    /// (`val *= base.powf(e)` in the tree walk).
    PowMul {
        /// Accumulator register (the term value).
        dst: u32,
        /// Base register (the factor atom).
        src: u32,
        /// The factor's exponent.
        exp: f64,
    },
    /// `reg[dst][i] += reg[src][i]`.
    Add {
        /// Accumulator register.
        dst: u32,
        /// Addend register.
        src: u32,
    },
    /// `reg[dst][i] = reg[dst][i].max(reg[src][i])`.
    Max {
        /// Fold register.
        dst: u32,
        /// Argument register.
        src: u32,
    },
    /// `reg[dst][i] = reg[dst][i].min(reg[src][i])`.
    Min {
        /// Fold register.
        dst: u32,
        /// Argument register.
        src: u32,
    },
    /// `reg[dst][i] = reg[dst][i].ceil()`.
    Ceil {
        /// Register rounded in place.
        dst: u32,
    },
    /// `reg[dst][i] = reg[src][i]` — pure data movement (CSE reuse and
    /// root-result capture); never changes bits.
    Copy {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
}

/// A degenerate grid handed to [`BatchProgram::eval_grid`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// The point axis has zero width: an empty grid prices nothing and is
    /// almost always a caller bug, so it is rejected rather than answered
    /// with an empty table.
    EmptyGrid,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::EmptyGrid => write!(f, "batch grid has a zero-width point axis"),
        }
    }
}

impl std::error::Error for BatchError {}

/// A set of root expressions compiled into one register program with
/// cross-expression CSE (see the module docs).
#[derive(Clone, Debug)]
pub struct BatchProgram {
    instrs: Vec<BatchInstr>,
    /// Global load-slot table (union over roots, first-emission order).
    syms: Vec<Symbol>,
    /// Per requested root: the register its result lands in.
    result_reg: Vec<u32>,
    /// Per requested root: its symbols as global slot indices, in the
    /// root's own tree-walk encounter order (drives error reporting).
    root_syms: Vec<Vec<u32>>,
    /// Total register columns (stack bank + cache bank).
    regs: u32,
    /// `Copy` instructions that replaced a recomputation (CSE reuse).
    cse_reuses: u64,
}

/// Aggregate counters for every [`BatchProgram`] compiled or evaluated in
/// this process (reported by `symbench` and `/v1/metrics`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batch programs compiled (cache misses of
    /// [`batch_program`](crate::batch_program)).
    pub programs_compiled: u64,
    /// [`batch_program`](crate::batch_program) requests answered from the
    /// cache.
    pub program_cache_hits: u64,
    /// Instructions across all compiled programs.
    pub instructions: u64,
    /// Register columns across all compiled programs.
    pub registers: u64,
    /// Sub-expression reuses: `Copy`s that replaced a recomputation.
    pub cse_reuses: u64,
    /// `eval_grid` calls.
    pub evals: u64,
    /// Grid points evaluated, summed over all `eval_grid` calls.
    pub points: u64,
}

pub(crate) static BATCH_PROGRAMS_COMPILED: AtomicU64 = AtomicU64::new(0);
pub(crate) static BATCH_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static BATCH_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);
static BATCH_REGISTERS: AtomicU64 = AtomicU64::new(0);
static BATCH_CSE_REUSES: AtomicU64 = AtomicU64::new(0);
static BATCH_EVALS: AtomicU64 = AtomicU64::new(0);
static BATCH_POINTS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide batch-VM counters.
pub fn batch_stats() -> BatchStats {
    BatchStats {
        programs_compiled: BATCH_PROGRAMS_COMPILED.load(Ordering::Relaxed),
        program_cache_hits: BATCH_CACHE_HITS.load(Ordering::Relaxed),
        instructions: BATCH_INSTRUCTIONS.load(Ordering::Relaxed),
        registers: BATCH_REGISTERS.load(Ordering::Relaxed),
        cse_reuses: BATCH_CSE_REUSES.load(Ordering::Relaxed),
        evals: BATCH_EVALS.load(Ordering::Relaxed),
        points: BATCH_POINTS.load(Ordering::Relaxed),
    }
}

/// A register reference during compilation, before the two banks are laid
/// out: stack registers mirror the value-stack depth, cache registers
/// hold CSE'd values and root results.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reg {
    Stack(u32),
    Cache(u32),
}

/// [`BatchInstr`] with unresolved [`Reg`] operands.
enum RawInstr {
    Splat(Reg, f64),
    Load(Reg, u32),
    PowMul(Reg, Reg, f64),
    Add(Reg, Reg),
    Max(Reg, Reg),
    Min(Reg, Reg),
    Ceil(Reg),
    Copy(Reg, Reg),
}

struct BatchCompiler {
    /// Occurrence count per interned sub-expression unit across all roots.
    counts: HashMap<ExprId, u32>,
    /// Cache register holding each already-computed unit's value.
    cached: HashMap<ExprId, Reg>,
    instrs: Vec<RawInstr>,
    syms: Vec<Symbol>,
    slot_of: HashMap<Symbol, u32>,
    depth: u32,
    stack_max: u32,
    cache_next: u32,
    cse_reuses: u64,
}

impl BatchCompiler {
    /// Pass 1: intern and count every sub-expression unit under `e`.
    fn count_expr(&mut self, e: &Expr) {
        for t in e.terms() {
            for (a, _) in &t.factors {
                match a {
                    Atom::Sym(_) => {}
                    Atom::Expr(inner) => self.count_unit(inner),
                    Atom::Func(Func::Max(args)) | Atom::Func(Func::Min(args)) => {
                        for x in args {
                            self.count_unit(x);
                        }
                    }
                    Atom::Func(Func::Ceil(x)) => self.count_unit(x),
                }
            }
        }
    }

    fn count_unit(&mut self, e: &Expr) {
        let id = ExprId::intern(e);
        *self.counts.entry(id).or_insert(0) += 1;
        self.count_expr(e);
    }

    fn slot(&mut self, s: Symbol) -> u32 {
        if let Some(&i) = self.slot_of.get(&s) {
            return i;
        }
        let i = self.syms.len() as u32;
        self.syms.push(s);
        self.slot_of.insert(s, i);
        i
    }

    /// Push a value-producing instruction writing the next stack register.
    fn push(&mut self, f: impl FnOnce(Reg) -> RawInstr) -> Reg {
        let dst = Reg::Stack(self.depth);
        self.depth += 1;
        self.stack_max = self.stack_max.max(self.depth);
        self.instrs.push(f(dst));
        dst
    }

    /// Pop the top stack register and fold it into the one beneath.
    fn fold(&mut self, f: impl FnOnce(Reg, Reg) -> RawInstr) {
        debug_assert!(self.depth >= 2);
        let src = Reg::Stack(self.depth - 1);
        let dst = Reg::Stack(self.depth - 2);
        self.depth -= 1;
        self.instrs.push(f(dst, src));
    }

    fn alloc_cache(&mut self) -> Reg {
        let r = Reg::Cache(self.cache_next);
        self.cache_next += 1;
        r
    }

    /// Mirror of `Expr::eval`: same per-point operation order.
    fn expr(&mut self, e: &Expr) {
        self.push(|d| RawInstr::Splat(d, 0.0));
        for t in e.terms() {
            let coeff = t.coeff.to_f64();
            self.push(|d| RawInstr::Splat(d, coeff));
            for (a, exp) in &t.factors {
                self.atom(a);
                let exp = exp.to_f64();
                self.fold(|d, s| RawInstr::PowMul(d, s, exp));
            }
            self.fold(RawInstr::Add);
        }
    }

    fn atom(&mut self, a: &Atom) {
        match a {
            Atom::Sym(s) => {
                let slot = self.slot(*s);
                self.push(|d| RawInstr::Load(d, slot));
            }
            Atom::Expr(inner) => self.unit(inner),
            Atom::Func(Func::Max(args)) => {
                self.push(|d| RawInstr::Splat(d, f64::NEG_INFINITY));
                for x in args {
                    self.unit(x);
                    self.fold(RawInstr::Max);
                }
            }
            Atom::Func(Func::Min(args)) => {
                self.push(|d| RawInstr::Splat(d, f64::INFINITY));
                for x in args {
                    self.unit(x);
                    self.fold(RawInstr::Min);
                }
            }
            Atom::Func(Func::Ceil(x)) => {
                self.unit(x);
                let top = Reg::Stack(self.depth - 1);
                self.instrs.push(RawInstr::Ceil(top));
            }
        }
    }

    /// A CSE unit: reuse the cached column if this subtree was computed
    /// before, otherwise compute it (and cache it if it recurs).
    fn unit(&mut self, e: &Expr) {
        let id = ExprId::intern(e);
        if let Some(&reg) = self.cached.get(&id) {
            self.cse_reuses += 1;
            self.push(|d| RawInstr::Copy(d, reg));
            return;
        }
        self.expr(e);
        if self.counts.get(&id).copied().unwrap_or(0) >= 2 {
            let cache = self.alloc_cache();
            let top = Reg::Stack(self.depth - 1);
            self.instrs.push(RawInstr::Copy(cache, top));
            self.cached.insert(id, cache);
        }
    }

    /// Compile one root to a dedicated cache register (which doubles as its
    /// CSE entry, so duplicate roots and roots-as-subexpressions are free).
    fn root(&mut self, id: ExprId) -> Reg {
        if let Some(&reg) = self.cached.get(&id) {
            self.cse_reuses += 1;
            return reg;
        }
        debug_assert_eq!(self.depth, 0);
        self.expr(&id.expr());
        let result = self.alloc_cache();
        let top = Reg::Stack(self.depth - 1);
        self.instrs.push(RawInstr::Copy(result, top));
        self.depth -= 1;
        self.cached.insert(id, result);
        result
    }
}

impl BatchProgram {
    /// Compile `roots` into one register program with cross-expression CSE.
    /// Duplicate root ids share a result register.
    pub fn new(roots: &[ExprId]) -> BatchProgram {
        let mut c = BatchCompiler {
            counts: HashMap::new(),
            cached: HashMap::new(),
            instrs: Vec::new(),
            syms: Vec::new(),
            slot_of: HashMap::new(),
            depth: 0,
            stack_max: 0,
            cache_next: 0,
            cse_reuses: 0,
        };
        for &r in roots {
            *c.counts.entry(r).or_insert(0) += 1;
            c.count_expr(&r.expr());
        }
        let result_regs: Vec<Reg> = roots.iter().map(|&r| c.root(r)).collect();
        debug_assert_eq!(c.depth, 0);

        // Lay out the banks: stack registers first, cache registers after.
        let stack_max = c.stack_max;
        let flat = |r: Reg| match r {
            Reg::Stack(i) => i,
            Reg::Cache(i) => stack_max + i,
        };
        let instrs: Vec<BatchInstr> = c
            .instrs
            .iter()
            .map(|i| match *i {
                RawInstr::Splat(d, v) => BatchInstr::Splat {
                    dst: flat(d),
                    val: v,
                },
                RawInstr::Load(d, slot) => BatchInstr::Load { dst: flat(d), slot },
                RawInstr::PowMul(d, s, e) => BatchInstr::PowMul {
                    dst: flat(d),
                    src: flat(s),
                    exp: e,
                },
                RawInstr::Add(d, s) => BatchInstr::Add {
                    dst: flat(d),
                    src: flat(s),
                },
                RawInstr::Max(d, s) => BatchInstr::Max {
                    dst: flat(d),
                    src: flat(s),
                },
                RawInstr::Min(d, s) => BatchInstr::Min {
                    dst: flat(d),
                    src: flat(s),
                },
                RawInstr::Ceil(d) => BatchInstr::Ceil { dst: flat(d) },
                RawInstr::Copy(d, s) => BatchInstr::Copy {
                    dst: flat(d),
                    src: flat(s),
                },
            })
            .collect();

        // Per-root symbol order for error reporting. Every symbol of every
        // root is loaded somewhere in the batch program (at its unit's first
        // computation), so `slot` only looks up the global table.
        let root_syms: Vec<Vec<u32>> = roots
            .iter()
            .map(|r| {
                let mut order = Vec::new();
                encounter_order(&r.expr(), &mut order);
                order.into_iter().map(|s| c.slot(s)).collect()
            })
            .collect();

        let prog = BatchProgram {
            instrs,
            syms: c.syms,
            result_reg: result_regs.into_iter().map(flat).collect(),
            root_syms,
            regs: stack_max + c.cache_next,
            cse_reuses: c.cse_reuses,
        };
        BATCH_INSTRUCTIONS.fetch_add(prog.instrs.len() as u64, Ordering::Relaxed);
        BATCH_REGISTERS.fetch_add(prog.regs as u64, Ordering::Relaxed);
        BATCH_CSE_REUSES.fetch_add(prog.cse_reuses, Ordering::Relaxed);
        prog
    }

    /// Evaluate every root at every point in one pass.
    ///
    /// Returns, per root, one `Result` per point: bit-identical to running
    /// [`Expr::eval`] on that root with that point's bindings — including
    /// which unbound symbol an error names. A zero-width point axis is
    /// rejected with [`BatchError::EmptyGrid`].
    #[allow(clippy::type_complexity)]
    pub fn eval_grid(
        &self,
        points: &[Bindings],
    ) -> Result<Vec<Vec<Result<f64, UnboundSymbol>>>, BatchError> {
        if points.is_empty() {
            return Err(BatchError::EmptyGrid);
        }
        BATCH_EVALS.fetch_add(1, Ordering::Relaxed);
        BATCH_POINTS.fetch_add(points.len() as u64, Ordering::Relaxed);
        let n = points.len();

        // Symbol columns, with unbound entries masked and placeholder-filled.
        // Every opcode is pointwise across the point axis, so a placeholder
        // can only ever flow into results of its own (masked) point.
        let n_syms = self.syms.len();
        let mut cols = vec![0.0f64; n_syms * n];
        let mut unbound = vec![false; n_syms * n];
        let mut any_unbound = false;
        for (si, &s) in self.syms.iter().enumerate() {
            for (p, b) in points.iter().enumerate() {
                match b.get(s) {
                    Some(v) => cols[si * n + p] = v,
                    None => {
                        unbound[si * n + p] = true;
                        any_unbound = true;
                    }
                }
            }
        }

        let mut regs = vec![0.0f64; self.regs as usize * n];
        for instr in &self.instrs {
            match *instr {
                BatchInstr::Splat { dst, val } => {
                    let d = dst as usize * n;
                    for v in &mut regs[d..d + n] {
                        *v = val;
                    }
                }
                BatchInstr::Load { dst, slot } => {
                    let d = dst as usize * n;
                    let s = slot as usize * n;
                    regs[d..d + n].copy_from_slice(&cols[s..s + n]);
                }
                BatchInstr::PowMul { dst, src, exp } => {
                    let (d, s) = split_regs(&mut regs, n, dst, src);
                    for i in 0..n {
                        d[i] *= s[i].powf(exp);
                    }
                }
                BatchInstr::Add { dst, src } => {
                    let (d, s) = split_regs(&mut regs, n, dst, src);
                    for i in 0..n {
                        d[i] += s[i];
                    }
                }
                BatchInstr::Max { dst, src } => {
                    let (d, s) = split_regs(&mut regs, n, dst, src);
                    for i in 0..n {
                        d[i] = d[i].max(s[i]);
                    }
                }
                BatchInstr::Min { dst, src } => {
                    let (d, s) = split_regs(&mut regs, n, dst, src);
                    for i in 0..n {
                        d[i] = d[i].min(s[i]);
                    }
                }
                BatchInstr::Ceil { dst } => {
                    let d = dst as usize * n;
                    for v in &mut regs[d..d + n] {
                        *v = v.ceil();
                    }
                }
                BatchInstr::Copy { dst, src } => {
                    let (d, s) = split_regs(&mut regs, n, dst, src);
                    d.copy_from_slice(s);
                }
            }
        }

        let results = self
            .result_reg
            .iter()
            .zip(&self.root_syms)
            .map(|(&reg, syms)| {
                let col = &regs[reg as usize * n..reg as usize * n + n];
                (0..n)
                    .map(|p| {
                        if any_unbound {
                            // First unbound symbol in this root's tree-walk
                            // encounter order: the one `Expr::eval` fails on.
                            for &slot in syms {
                                if unbound[slot as usize * n + p] {
                                    return Err(UnboundSymbol(self.syms[slot as usize]));
                                }
                            }
                        }
                        Ok(col[p])
                    })
                    .collect()
            })
            .collect();
        Ok(results)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True for an empty root set.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Register columns the VM allocates per evaluation.
    pub fn registers(&self) -> u32 {
        self.regs
    }

    /// `Copy` instructions that replaced a recomputation (CSE reuses).
    pub fn cse_reuses(&self) -> u64 {
        self.cse_reuses
    }

    /// Union of all roots' symbols (global slot order).
    pub fn symbols(&self) -> &[Symbol] {
        &self.syms
    }

    /// Number of root expressions (equals the compile input length).
    pub fn roots(&self) -> usize {
        self.result_reg.len()
    }
}

/// Held by every unit test that evaluates a grid, a single [`ExprId::eval`]
/// included: the eval counters are process-wide, and
/// `counters_advance_on_compile_and_eval` asserts their exact advance, which
/// a grid evaluated on another test thread between its two reads would
/// break.
#[cfg(test)]
pub(crate) fn grid_eval_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Append the symbols of `e` not yet in `out`, in the order the tree walk
/// first reads them. `Expr::eval` fails on the first unbound symbol it
/// reads, so the first unbound entry of this list names the same symbol.
fn encounter_order(e: &Expr, out: &mut Vec<Symbol>) {
    for t in e.terms() {
        for (a, _) in &t.factors {
            match a {
                Atom::Sym(s) => {
                    if !out.contains(s) {
                        out.push(*s);
                    }
                }
                Atom::Expr(x) | Atom::Func(Func::Ceil(x)) => encounter_order(x, out),
                Atom::Func(Func::Max(args)) | Atom::Func(Func::Min(args)) => {
                    for x in args {
                        encounter_order(x, out);
                    }
                }
            }
        }
    }
}

/// Disjoint `(dst, src)` column views into the register file.
fn split_regs(regs: &mut [f64], n: usize, dst: u32, src: u32) -> (&mut [f64], &[f64]) {
    debug_assert_ne!(dst, src, "stack discipline keeps operands disjoint");
    let (d, s) = (dst as usize * n, src as usize * n);
    if d < s {
        let (lo, hi) = regs.split_at_mut(s);
        (&mut lo[d..d + n], &hi[..n])
    } else {
        let (lo, hi) = regs.split_at_mut(d);
        let dst_slice = &mut hi[..n];
        (dst_slice, &lo[s..s + n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat::Rat;

    fn ids(exprs: &[Expr]) -> Vec<ExprId> {
        exprs.iter().map(|e| e.interned()).collect()
    }

    fn assert_grid_matches_tree(roots: &[Expr], points: &[Bindings]) {
        let _guard = grid_eval_lock();
        let prog = BatchProgram::new(&ids(roots));
        let grid = prog.eval_grid(points).expect("nonempty grid");
        for (r, e) in roots.iter().enumerate() {
            for (p, b) in points.iter().enumerate() {
                let tree = e.eval(b);
                match (&grid[r][p], &tree) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.to_bits(), want.to_bits(), "root {r} point {p}")
                    }
                    (got, want) => assert_eq!(got, want, "root {r} point {p}"),
                }
            }
        }
    }

    #[test]
    fn polynomial_grid_matches_tree_bitwise() {
        let h = Expr::sym("bt_h");
        let q = Expr::sym("bt_q");
        let roots = [
            h.pow(2) * Expr::int(3) + &q + Expr::rat(1, 3),
            q.clone() * h.sqrt() + Expr::int(7),
        ];
        let points: Vec<Bindings> = [(1.0, 2.0), (17.0, 0.5), (1e9, 3.25)]
            .iter()
            .map(|&(a, b)| Bindings::new().with("bt_h", a).with("bt_q", b))
            .collect();
        assert_grid_matches_tree(&roots, &points);
    }

    #[test]
    fn shared_subexpressions_are_reused_not_recomputed() {
        let x = Expr::sym("bt_x");
        let shared = Expr::ceil((x.clone() + Expr::int(3)) / Expr::int(4));
        let a = shared.clone() * Expr::int(2);
        let b = shared.clone() + Expr::int(1);
        let prog = BatchProgram::new(&ids(&[a.clone(), b.clone()]));
        assert!(prog.cse_reuses() > 0, "ceil unit must be CSE'd");
        let points = vec![
            Bindings::new().with("bt_x", 5.0),
            Bindings::new().with("bt_x", 1234.0),
        ];
        assert_grid_matches_tree(&[a, b], &points);
    }

    #[test]
    fn duplicate_roots_share_a_result_register() {
        let _guard = grid_eval_lock();
        let e = Expr::sym("bt_d") * Expr::int(3);
        let prog = BatchProgram::new(&ids(&[e.clone(), e.clone()]));
        assert_eq!(prog.roots(), 2);
        let grid = prog
            .eval_grid(&[Bindings::new().with("bt_d", 9.0)])
            .unwrap();
        assert_eq!(grid[0][0], grid[1][0]);
        assert_eq!(grid[0][0], Ok(27.0));
    }

    #[test]
    fn unbound_points_error_without_contaminating_bound_ones() {
        let x = Expr::sym("bt_u");
        let y = Expr::sym("bt_v");
        let e = x.clone() * y.clone() + x.clone();
        let points = vec![
            Bindings::new().with("bt_u", 2.0).with("bt_v", 3.0),
            Bindings::new().with("bt_u", 2.0), // bt_v unbound
            Bindings::new(),                   // both unbound
        ];
        assert_grid_matches_tree(&[e], &points);
    }

    #[test]
    fn empty_grid_is_a_structured_error() {
        let _guard = grid_eval_lock();
        let e = Expr::sym("bt_e") + Expr::int(1);
        let prog = BatchProgram::new(&ids(&[e]));
        assert_eq!(prog.eval_grid(&[]), Err(BatchError::EmptyGrid));
        assert!(BatchError::EmptyGrid.to_string().contains("zero-width"));
    }

    #[test]
    fn one_point_grid_degenerates_to_per_point_eval() {
        let _guard = grid_eval_lock();
        let e = Expr::max(vec![Expr::sym("bt_one"), Expr::int(4)]) * Expr::rat(7, 2);
        let b = Bindings::new().with("bt_one", 9.5);
        let prog = BatchProgram::new(&ids(std::slice::from_ref(&e)));
        let grid = prog.eval_grid(std::slice::from_ref(&b)).unwrap();
        assert_eq!(
            grid[0][0].as_ref().unwrap().to_bits(),
            e.eval(&b).unwrap().to_bits()
        );
    }

    #[test]
    fn fractional_powers_match_stack_vm_bitwise() {
        // Checked against the per-point path (`ExprId::eval`, a one-wide
        // grid) and the tree walk.
        let _guard = grid_eval_lock();
        let p = Expr::sym("bt_p");
        let e = p.pow(Rat::HALF) * Expr::int(5) + (p.clone() + Expr::int(1)).recip();
        let id = e.interned();
        let prog = BatchProgram::new(&[id]);
        let b = Bindings::new().with("bt_p", 77.0);
        let grid = prog.eval_grid(std::slice::from_ref(&b)).unwrap();
        let got = grid[0][0].as_ref().unwrap().to_bits();
        assert_eq!(got, id.eval(&b).unwrap().to_bits());
        assert_eq!(got, e.eval(&b).unwrap().to_bits());
    }

    #[test]
    fn min_max_branches_report_symbols_in_first_encounter_order() {
        // The canonical form is max(5, z)·min(a, z): `bt_mm_z` is first
        // encountered inside the `max` branch, `bt_mm_a` only later inside
        // `min`. Error order must follow encounter order, not name order,
        // so an all-unbound point names `bt_mm_z`, exactly like the tree
        // walk.
        let z = Expr::sym("bt_mm_z");
        let a = Expr::sym("bt_mm_a");
        let e = Expr::max(vec![z.clone(), Expr::int(5)]) * Expr::min(vec![a.clone(), z.clone()]);
        let mut order = Vec::new();
        encounter_order(&e, &mut order);
        let names: Vec<String> = order.iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ["bt_mm_z", "bt_mm_a"]);
        let none = Bindings::new();
        assert_grid_matches_tree(std::slice::from_ref(&e), std::slice::from_ref(&none));
        let _guard = grid_eval_lock();
        let prog = BatchProgram::new(&[e.interned()]);
        let err = prog.eval_grid(std::slice::from_ref(&none)).unwrap()[0][0].clone();
        assert_eq!(err.unwrap_err().0.to_string(), "bt_mm_z");
        // With `bt_mm_z` bound, the next symbol in encounter order errors.
        let half = Bindings::new().with("bt_mm_z", 3.0);
        let err = prog.eval_grid(std::slice::from_ref(&half)).unwrap()[0][0].clone();
        assert_eq!(err, e.eval(&half));
        assert_eq!(err.unwrap_err().0.to_string(), "bt_mm_a");
    }

    #[test]
    fn max_min_ceil_match_tree_eval_bitwise() {
        let x = Expr::sym("bt_mx");
        let y = Expr::sym("bt_my");
        let e = Expr::ceil(Expr::max(vec![x.clone() * Expr::rat(7, 3), y.clone()]))
            * Expr::min(vec![x.clone(), y.clone() + Expr::int(1)]);
        let b = Bindings::new().with("bt_mx", 2.75).with("bt_my", 6.5);
        assert_grid_matches_tree(&[e], &[b]);
    }

    #[test]
    fn repeated_symbols_share_one_slot() {
        let h = Expr::sym("bt_slot");
        let e = h.pow(2) + h.clone() * Expr::int(4) + h.pow(Rat::int(3));
        let prog = BatchProgram::new(&ids(&[e]));
        assert_eq!(prog.symbols().len(), 1);
    }

    #[test]
    fn zero_expression_evaluates_to_zero() {
        let _guard = grid_eval_lock();
        let prog = BatchProgram::new(&[ExprId::zero()]);
        let grid = prog.eval_grid(&[Bindings::new()]).unwrap();
        assert_eq!(grid[0][0], Ok(0.0));
    }

    #[test]
    fn counters_advance_on_compile_and_eval() {
        let _guard = grid_eval_lock();
        let before = batch_stats();
        let e = Expr::sym("bt_ctr") + Expr::int(41);
        let prog = BatchProgram::new(&ids(&[e]));
        let pts = vec![Bindings::new().with("bt_ctr", 1.0); 4];
        prog.eval_grid(&pts).unwrap();
        let after = batch_stats();
        assert!(after.instructions > before.instructions);
        assert!(after.registers > before.registers);
        assert_eq!(after.evals, before.evals + 1);
        assert_eq!(after.points, before.points + 4);
    }
}
