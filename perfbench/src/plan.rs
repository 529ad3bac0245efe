//! `plan`: a capacity planner's what-if loop over `parsim`, in process.
//!
//! Set-up builds one plan-search space per domain (registry accelerators ×
//! four subbatches × microbatch {1,2,4,8}) and one serving search space.
//! One op runs `parsim::search` on all five spaces and
//! `parsim::infer_search` once, each under fresh seeded constraints that
//! are written into the spaces in place before the timed region.

use analysis::{
    infer_search_space, plan_search_space, InferConfig, InferPlanRequest, PlanSearchRequest,
};
use modelzoo::Domain;
use parsim::{
    argmin_point, enumerate_infer_naive, enumerate_naive, infer_argmin_point, pow2_candidates,
    InferSearchResult, InferSearchSpace, SearchResult, SearchSpace, SloTarget,
};

use crate::ledger::Ledger;
use crate::runner::{ratio, Metrics, Workload};
use crate::stats::Rng;

/// Subbatch candidates, as multiples of the domain's default subbatch.
const SUBBATCH_SCALES: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
const MICROBATCHES: [u64; 4] = [1, 2, 4, 8];
/// Epoch deadlines are drawn log-uniformly from this range, days.
const DAYS_RANGE: (f64, f64) = (0.5, 90.0);
/// Fleet caps are drawn uniformly from this range.
const CAP_RANGE: (u64, u64) = (64, 65_536);
/// A sampled op is checked against the naive enumerations with this
/// probability, up to a cap per run.
const ORACLE_ONE_IN: u64 = 64;
const ORACLE_CAP: usize = 24;

pub struct Plan {
    rng: Rng,
    spaces: Vec<SearchSpace>,
    infer: InferSearchSpace,
    results: Vec<SearchResult>,
    infer_result: Option<InferSearchResult>,
    oracle: Vec<(SearchSpace, SearchResult)>,
    infer_oracle: Vec<(InferSearchSpace, InferSearchResult)>,
    traced: bool,
    considered: u64,
    evaluated: u64,
    pruned: u64,
}

impl Plan {
    /// Set-up: build the five plan-search spaces and the serving space
    /// (this builds the frontier-scale model families).
    pub fn setup(seed: u64) -> Plan {
        let spaces = Domain::ALL
            .iter()
            .map(|&domain| {
                let base = domain.default_subbatch() as f64;
                let mut req = PlanSearchRequest::registry_default(domain, 7.0, 16_384);
                req.subbatches = SUBBATCH_SCALES.iter().map(|s| (base * s) as u64).collect();
                req.microbatches = MICROBATCHES.to_vec();
                plan_search_space(&req)
            })
            .collect();
        let slo = SloTarget {
            p99_token_seconds: 0.05,
            ttft_seconds: 0.5,
        };
        let req = InferPlanRequest::registry_default(
            InferConfig::default(),
            512,
            1024,
            slo,
            20_000.0,
            4_096,
        );
        Plan {
            rng: Rng::new(seed, 2),
            spaces,
            infer: infer_search_space(&req),
            results: Vec::new(),
            infer_result: None,
            oracle: Vec::new(),
            infer_oracle: Vec::new(),
            traced: false,
            considered: 0,
            evaluated: 0,
            pruned: 0,
        }
    }
}

impl Workload for Plan {
    fn prepare(&mut self) {
        for space in &mut self.spaces {
            let cap = self.rng.range(CAP_RANGE.0, CAP_RANGE.1);
            space.target_epoch_days = self.rng.log_uniform(DAYS_RANGE.0, DAYS_RANGE.1);
            space.max_total_accelerators = cap;
            space.worker_candidates = pow2_candidates(cap);
        }
        self.infer.slo = SloTarget {
            p99_token_seconds: self.rng.log_uniform(0.005, 0.2),
            ttft_seconds: self.rng.log_uniform(0.05, 2.0),
        };
        self.infer.target_tokens_per_s = self.rng.log_uniform(1e3, 1e6);
    }

    fn execute(&mut self) {
        if self.traced {
            self.results = self
                .spaces
                .iter()
                .map(|s| obs::time("perfbench.parsim.search", || parsim::search(s)))
                .collect();
            self.infer_result = Some(obs::time("perfbench.parsim.infer_search", || {
                parsim::infer_search(&self.infer)
            }));
        } else {
            self.results = self.spaces.iter().map(parsim::search).collect();
            self.infer_result = Some(parsim::infer_search(&self.infer));
        }
    }

    fn check(&mut self) -> bool {
        let infer = self.infer_result.as_ref().expect("executed");
        let plans_ok = self.spaces.iter().zip(&self.results).all(|(s, r)| {
            r.best.as_ref().is_none_or(|b| {
                b.plan.epoch_days <= s.target_epoch_days
                    && b.plan.total_accelerators <= s.max_total_accelerators
            })
        });
        let infer_ok = infer.best.as_ref().is_none_or(|b| {
            b.p99_token_seconds <= self.infer.slo.p99_token_seconds
                && b.ttft_seconds <= self.infer.slo.ttft_seconds
                && b.tokens_per_s >= self.infer.target_tokens_per_s
        });
        if self.traced {
            for r in &self.results {
                let s = r.stats;
                self.considered += s.considered;
                self.evaluated += s.evaluated;
                self.pruned += s.pruned_memory + s.pruned_over_cap + s.pruned_comm_bound;
            }
            let s = infer.stats;
            self.considered += s.considered;
            self.evaluated += s.evaluated;
            self.pruned += s.pruned_memory + s.pruned_latency + s.pruned_over_cap;
        }
        if self.oracle.len() < ORACLE_CAP && self.rng.one_in(ORACLE_ONE_IN) {
            let k = self.rng.range(0, self.spaces.len() as u64 - 1) as usize;
            self.oracle
                .push((self.spaces[k].clone(), self.results[k].clone()));
            self.infer_oracle.push((self.infer.clone(), infer.clone()));
        }
        plans_ok && infer_ok
    }

    fn verify(&mut self) -> u64 {
        let mut failed = 0;
        for ((space, result), (ispace, iresult)) in self.oracle.iter().zip(&self.infer_oracle) {
            let naive = enumerate_naive(space);
            let plan_ok = naive == result.feasible && argmin_point(&naive) == result.best;
            let inaive = enumerate_infer_naive(ispace);
            let infer_ok =
                inaive == iresult.feasible && infer_argmin_point(&inaive) == iresult.best;
            if !(plan_ok && infer_ok) {
                eprintln!("perfbench: plan search differs from naive enumeration");
                failed += 1;
            }
        }
        failed
    }

    fn set_traced(&mut self) {
        self.traced = true;
    }

    fn rss_after_ops(&self) -> u64 {
        4_096
    }

    fn layers(&self, ledger: &Ledger, ops: u64, m: &mut Metrics) {
        let per_op = |v: f64| v / ops as f64;
        m.layer(
            "parsim.search_ms",
            per_op(ledger.outer_ms("perfbench.parsim.search")),
        );
        m.layer(
            "parsim.infer_search_ms",
            per_op(ledger.outer_ms("perfbench.parsim.infer_search")),
        );
        m.layer("parsim.considered", per_op(self.considered as f64));
        m.layer("parsim.evaluated", per_op(self.evaluated as f64));
        m.layer("parsim.pruned", per_op(self.pruned as f64));
        m.layer(
            "parsim.evaluated_ratio",
            ratio(self.evaluated as f64, self.considered as f64),
        );
        m.layer(
            "analysis.instances_cached",
            analysis::FamilyEngine::global().instances_cached() as f64,
        );
    }

    fn info(&self) -> Vec<(String, String)> {
        let profiles: usize = self.spaces.iter().map(|s| s.profiles.len()).sum();
        vec![
            ("oracle_searches".into(), self.oracle.len().to_string()),
            ("plan_profiles".into(), profiles.to_string()),
            (
                "infer_profiles".into(),
                self.infer.profiles.len().to_string(),
            ),
        ]
    }
}
