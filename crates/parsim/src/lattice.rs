//! The lattice-search core of the training plan search
//! ([`search`](crate::search::search)) and the serving plan search
//! ([`infer_search`](crate::infersearch::infer_search)). Each search keeps
//! its pricing and its prunes, and walks its profiles sequentially into one
//! feasible `Vec`. This module is the one home of what they share: Pareto
//! dominance, the sorted frontier sweep and its all-pairs reference, the
//! argmin, the overflow-checked fleet-cap cut of an ascending ladder, and
//! the result type [`LatticeResult`].
//!
//! A point type opts in through [`Ranked`]. Its objective tuple is the
//! sweep's sort key, so each search keeps its own axis order: (epoch days,
//! accelerators, GB) for training, (accelerators, p99, GB) for serving. An
//! integer [`Axis`] compares as an integer, a float one by `total_cmp`.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

/// One minimized objective axis.
pub trait Axis: Copy + PartialOrd {
    /// The total order the Pareto sweep sorts by.
    fn sort_cmp(self, other: Self) -> Ordering;
}

impl Axis for u64 {
    fn sort_cmp(self, other: Self) -> Ordering {
        self.cmp(&other)
    }
}

impl Axis for f64 {
    fn sort_cmp(self, other: Self) -> Ordering {
        self.total_cmp(&other)
    }
}

/// A tuple of minimized [`Axis`] values.
pub trait Objectives {
    /// Lexicographic order on the axes, in tuple order.
    fn lex_cmp(&self, other: &Self) -> Ordering;
    /// `self` is `<=` `other` on every axis and `<` on at least one.
    fn dominates(&self, other: &Self) -> bool;
}

impl<A: Axis, B: Axis, C: Axis> Objectives for (A, B, C) {
    fn lex_cmp(&self, other: &Self) -> Ordering {
        self.0
            .sort_cmp(other.0)
            .then(self.1.sort_cmp(other.1))
            .then(self.2.sort_cmp(other.2))
    }

    fn dominates(&self, other: &Self) -> bool {
        self.0 <= other.0
            && self.1 <= other.1
            && self.2 <= other.2
            && (self.0 < other.0 || self.1 < other.1 || self.2 < other.2)
    }
}

/// A lattice point the core can rank.
pub trait Ranked: Clone {
    /// The minimized objectives, in the order the Pareto sweep sorts by.
    type Objectives: Objectives;
    /// This point's objective values.
    fn objectives(&self) -> Self::Objectives;
    /// Fleet size, the argmin's primary key.
    fn total_accelerators(&self) -> u64;
    /// The argmin's tie-break among equal fleets; higher wins.
    fn tie_break(&self) -> f64;
}

/// Does `p` dominate `q` under minimizing their objectives?
pub(crate) fn dominates<P: Ranked>(p: &P, q: &P) -> bool {
    p.objectives().dominates(&q.objectives())
}

/// The non-dominated subset of `points` by definition: compare every pair.
/// Quadratic; kept as the oracle for [`pareto_frontier`] (the differential
/// suites and the `plansearch` and `inferbench` gates compare the two
/// bit-for-bit).
pub fn pareto_frontier_reference<P: Ranked>(points: &[P]) -> Vec<P> {
    points
        .iter()
        .filter(|p| !points.iter().any(|q| dominates(q, p)))
        .cloned()
        .collect()
}

/// The non-dominated subset of `points`, preserving order. Exact ties
/// survive (neither point dominates the other).
///
/// Single sorted sweep instead of the all-pairs scan: lexicographic order
/// on the objective tuple puts every dominator strictly before anything it
/// dominates (domination is `<=` on every axis and `<` on one), and
/// domination is transitive, so a point is dominated iff some member of the
/// growing frontier dominates it. `O(n log n + n·h)` for a frontier of size
/// `h`, against the reference's `O(n²)`; output identical.
pub fn pareto_frontier<P: Ranked>(points: &[P]) -> Vec<P> {
    let keys: Vec<P::Objectives> = points.iter().map(Ranked::objectives).collect();
    let mut order: Vec<u32> = (0..points.len() as u32).collect();
    order.sort_by(|&i, &j| keys[i as usize].lex_cmp(&keys[j as usize]));
    let mut frontier: Vec<u32> = Vec::new();
    let mut on_frontier = vec![false; points.len()];
    for &i in &order {
        let p = &keys[i as usize];
        if !frontier.iter().any(|&f| keys[f as usize].dominates(p)) {
            frontier.push(i);
            on_frontier[i as usize] = true;
        }
    }
    points
        .iter()
        .zip(&on_frontier)
        .filter(|(_, &keep)| keep)
        .map(|(p, _)| p.clone())
        .collect()
}

/// The selection criterion over an arbitrary point set: fewest total
/// accelerators, ties broken by the higher [`Ranked::tie_break`], remaining
/// ties by enumeration order.
pub fn argmin_point<P: Ranked>(points: &[P]) -> Option<P> {
    let mut best: Option<&P> = None;
    for p in points {
        let better = best.is_none_or(|b| {
            let (pt, bt) = (p.total_accelerators(), b.total_accelerators());
            pt < bt || (pt == bt && p.tie_break() > b.tie_break())
        });
        if better {
            best = Some(p);
        }
    }
    best.cloned()
}

/// Does a fleet of `rung · ways` accelerators fit under `cap`? Exact: a
/// product that overflows `u64` is over every cap.
pub(crate) fn fits_cap(rung: u64, ways: u64, cap: u64) -> bool {
    rung.checked_mul(ways).is_some_and(|total| total <= cap)
}

/// Panics unless `ladder` ascends strictly, the precondition of
/// [`cap_cut`].
pub(crate) fn assert_ascending(ladder: &[u64], what: &str) {
    assert!(
        ladder.windows(2).all(|w| w[0] < w[1]),
        "{what} candidates must ascend strictly"
    );
}

/// The in-cap prefix of a strictly ascending ladder: once `rung · ways`
/// passes the cap, every later rung is over it too, so the cut is exact.
/// The rungs past the cut are the ladder's `pruned_over_cap` count.
pub(crate) fn cap_cut(ladder: &[u64], ways: u64, cap: u64) -> &[u64] {
    &ladder[..ladder.partition_point(|&rung| fits_cap(rung, ways, cap))]
}

/// Everything a lattice search returns.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatticeResult<P, S> {
    /// Every feasible point, in canonical enumeration order (profile by
    /// profile, each ladder ascending).
    pub feasible: Vec<P>,
    /// Non-dominated subset of `feasible` under minimizing the points'
    /// [`Ranked::objectives`], in canonical order.
    pub pareto: Vec<P>,
    /// [`argmin_point`] of `feasible`.
    pub best: Option<P>,
    /// Enumeration counters.
    pub stats: S,
}

impl<P: Ranked, S> LatticeResult<P, S> {
    /// Rank a feasible set: its frontier and its argmin.
    pub fn new(feasible: Vec<P>, stats: S) -> Self {
        let pareto = pareto_frontier(&feasible);
        let best = argmin_point(&feasible);
        LatticeResult {
            feasible,
            pareto,
            best,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_cut_is_exact_at_overflow() {
        let ladder = [1, 2, 4, 1 << 62, 1 << 63];
        assert_eq!(cap_cut(&ladder, 2, u64::MAX), &[1, 2, 4, 1 << 62]);
        assert_eq!(cap_cut(&ladder, 1, u64::MAX), &ladder);
        assert_eq!(cap_cut(&ladder, 4, 8), &[1, 2]);
        assert!(cap_cut(&ladder, 4, 3).is_empty());
        assert!(!fits_cap(u64::MAX, 2, u64::MAX));
    }

    #[test]
    fn integer_axes_sort_as_integers() {
        // 2^53 + 1 is not an f64; the u64 axis must still order it.
        let (a, b) = ((1u64 << 53) + 1, 1u64 << 53);
        assert_eq!((a, 0.0, 0.0).lex_cmp(&(b, 0.0, 0.0)), Ordering::Greater);
        assert!((b, 0.0, 0.0).dominates(&(a, 0.0, 0.0)));
        assert!(!(a, 0.0, 0.0).dominates(&(a, 0.0, 0.0)));
    }
}
