//! Discrete-event simulation of the layer-parallel pipeline schedule —
//! cross-checks the closed form `(M + K − 1)/M · C/K` used by
//! [`crate::layer_parallel_plan`], and prices *imbalanced* stages, which
//! the closed form cannot.
//!
//! The schedule is GPipe-style: microbatch `m` may start on stage `k` once
//! (a) stage `k` finished microbatch `m − 1` and (b) stage `k − 1` finished
//! microbatch `m`.

/// Result of simulating one training step through the pipeline.
#[derive(Clone, Copy, Debug)]
pub struct PipelineSim {
    /// Wall-clock time for all microbatches to drain, seconds.
    pub makespan_seconds: f64,
    /// Mean fraction of time a stage spent busy.
    pub stage_utilization: f64,
}

/// One stage × microbatch occupancy interval from a traced simulation.
#[derive(Clone, Copy, Debug)]
pub struct PipelineEvent {
    /// Pipeline stage index.
    pub stage: usize,
    /// Microbatch index.
    pub microbatch: u64,
    /// Simulated start time, seconds.
    pub start_seconds: f64,
    /// Simulated end time, seconds.
    pub end_seconds: f64,
}

fn simulate(
    stage_seconds: &[f64],
    microbatches: u64,
    mut events: Option<&mut Vec<PipelineEvent>>,
) -> PipelineSim {
    assert!(!stage_seconds.is_empty() && microbatches >= 1);
    let k = stage_seconds.len();
    let m = microbatches as usize;
    // finish[k] = when stage k finished the previous microbatch.
    let mut stage_free = vec![0.0f64; k];
    let mut busy = vec![0.0f64; k];
    for mb in 0..m {
        let mut ready = 0.0f64; // when this microbatch leaves the previous stage
        for (s, &dur) in stage_seconds.iter().enumerate() {
            let start = ready.max(stage_free[s]);
            let end = start + dur;
            busy[s] += dur;
            stage_free[s] = end;
            ready = end;
            if let Some(events) = events.as_deref_mut() {
                events.push(PipelineEvent {
                    stage: s,
                    microbatch: mb as u64,
                    start_seconds: start,
                    end_seconds: end,
                });
            }
        }
    }
    let makespan = stage_free.iter().fold(0.0f64, |a, &b| a.max(b));
    let utilization = busy.iter().sum::<f64>() / (k as f64 * makespan.max(f64::MIN_POSITIVE));
    PipelineSim {
        makespan_seconds: makespan,
        stage_utilization: utilization,
    }
}

/// Simulate `microbatches` microbatches flowing through stages whose
/// per-microbatch compute times are `stage_seconds` (already divided by the
/// microbatch count).
pub fn simulate_pipeline(stage_seconds: &[f64], microbatches: u64) -> PipelineSim {
    simulate(stage_seconds, microbatches, None)
}

/// [`simulate_pipeline`], also returning every stage × microbatch occupancy
/// interval for timeline export (see [`crate::pipeline_trace_events`]).
pub fn simulate_pipeline_traced(
    stage_seconds: &[f64],
    microbatches: u64,
) -> (PipelineSim, Vec<PipelineEvent>) {
    let mut events = Vec::with_capacity(stage_seconds.len() * microbatches as usize);
    let sim = simulate(stage_seconds, microbatches, Some(&mut events));
    (sim, events)
}

/// Convenience: simulate a *balanced* split of total step compute `c` over
/// `stages` stages and `microbatches` microbatches (the closed form's
/// setting).
pub fn simulate_balanced_pipeline(c: f64, stages: usize, microbatches: u64) -> PipelineSim {
    let per = c / stages as f64 / microbatches as f64;
    simulate_pipeline(&vec![per; stages], microbatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modelparallel::{layer_parallel_plan, Stage};

    #[test]
    fn balanced_pipeline_matches_closed_form() {
        for (k, m) in [(4usize, 2u64), (4, 4), (2, 8), (8, 1), (3, 7)] {
            let c = 17.07;
            let sim = simulate_balanced_pipeline(c, k, m);
            let closed = c / k as f64 * ((m as f64 + k as f64 - 1.0) / m as f64);
            assert!(
                (sim.makespan_seconds - closed).abs() < 1e-9 * closed,
                "K={k} M={m}: sim {} vs closed {closed}",
                sim.makespan_seconds
            );
        }
    }

    #[test]
    fn closed_form_and_des_agree_with_layer_parallel_plan() {
        let stages: Vec<Stage> = (0..4)
            .map(|i| Stage {
                name: format!("s{i}"),
                weight_bytes: 1e9,
                activation_bytes: 1e9,
            })
            .collect();
        let plan = layer_parallel_plan(&stages, 16.0, 2);
        let sim = simulate_balanced_pipeline(16.0, 4, 2);
        assert!((plan.step_compute_seconds - sim.makespan_seconds).abs() < 1e-9);
    }

    #[test]
    fn imbalanced_stages_bound_by_slowest() {
        // One stage 4× slower: throughput is set by it, so many microbatches
        // approach makespan ≈ M · slowest.
        let stages = [1.0, 4.0, 1.0, 1.0];
        let m = 64;
        let sim = simulate_pipeline(&stages, m);
        let lower = m as f64 * 4.0;
        assert!(sim.makespan_seconds >= lower);
        assert!(sim.makespan_seconds < lower + 10.0);
        // Utilization suffers: the fast stages idle.
        assert!(sim.stage_utilization < 0.5);
    }

    #[test]
    fn traced_simulation_matches_untraced() {
        let stages = [1.0, 4.0, 1.0, 1.0];
        let (sim, events) = simulate_pipeline_traced(&stages, 8);
        let plain = simulate_pipeline(&stages, 8);
        assert_eq!(sim.makespan_seconds, plain.makespan_seconds);
        assert_eq!(events.len(), stages.len() * 8);
        // Events respect both pipeline dependencies.
        for e in &events {
            assert!(e.end_seconds > e.start_seconds);
            if e.stage > 0 {
                let upstream = events
                    .iter()
                    .find(|u| u.stage == e.stage - 1 && u.microbatch == e.microbatch)
                    .unwrap();
                assert!(e.start_seconds >= upstream.end_seconds);
            }
            if e.microbatch > 0 {
                let prev = events
                    .iter()
                    .find(|u| u.stage == e.stage && u.microbatch == e.microbatch - 1)
                    .unwrap();
                assert!(e.start_seconds >= prev.end_seconds);
            }
        }
        let last_end = events.iter().fold(0.0f64, |a, e| a.max(e.end_seconds));
        assert_eq!(last_end, sim.makespan_seconds);
    }

    #[test]
    fn single_stage_is_sequential() {
        let sim = simulate_pipeline(&[2.5], 10);
        assert!((sim.makespan_seconds - 25.0).abs() < 1e-12);
        assert!((sim.stage_utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_improves_with_microbatches() {
        let per = |m: u64| simulate_balanced_pipeline(16.0, 4, m).stage_utilization;
        assert!(per(1) < per(2));
        assert!(per(2) < per(8));
        assert!(per(64) > 0.9);
    }
}
