//! Minimal memory-footprint estimation (paper §2.1, §4.5).
//!
//! The paper defines *algorithmic memory footprint* as the minimum over all
//! correct topological traversals of the maximum memory needed for all
//! active tensors at any point of the traversal. Finding the true minimum is
//! NP-hard in general; like the Catamount artifact we estimate it by
//! simulating traversals:
//!
//! * [`Scheduler::ProgramOrder`] replays the construction order (what an
//!   eager framework would do), and
//! * [`Scheduler::GreedyMinPeak`] at each step runs the ready op that
//!   minimizes the net change in live memory — a strong practical baseline
//!   that `integration_models::best_scheduler_never_exceeds_program_order_footprint`
//!   and the peak-pass unit tests below hold against program order.
//!
//! [`Scheduler::Best`] keeps whichever of the two peaks lower, greedy on a
//! tie. Both traversals start from one shared set-up (reference counts, the
//! live source tensors, the starting memory). [`footprint_peak`] prices
//! `Best` in one pass without building a schedule: program order runs first,
//! then greedy stops as soon as its running peak exceeds the program-order
//! peak. The cut-off is exact because a running peak never decreases, so a
//! greedy traversal that has passed the program-order peak can only end
//! above it, and `Best` would discard it.
//!
//! Weights and weight-gradients are persistent for the whole step;
//! activations and gradients are freed once their last consumer has run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use symath::{Bindings, UnboundSymbol};

use crate::graph::Graph;
use crate::op::{OpId, OpKind, PointwiseFn};

/// Whether ops may overwrite a dying input instead of allocating a fresh
/// output (paper §4.5: "Tensorflow optimizes to perform some ops on tensors
/// in-place rather than allocating separate output tensors", which is why
/// the paper's topological estimates slightly overestimate TF).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InPlacePolicy {
    /// Every op allocates fresh outputs (the paper's conservative default).
    #[default]
    Never,
    /// Elementwise ops whose output matches a same-sized input that dies at
    /// this op reuse its allocation.
    Elementwise,
}

/// Traversal policy for the footprint simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheduler {
    /// Execute ops in construction order.
    ProgramOrder,
    /// Greedily execute the ready op with the smallest net memory delta.
    /// Strong on graphs with reclaimable fan-out, but short-sighted
    /// schedules can lose to program order (see
    /// `tests::peak_pass_cuts_greedy_off_when_program_order_wins`).
    GreedyMinPeak,
    /// Run every heuristic and report the best (smallest-peak) traversal —
    /// the closest estimate of the paper's minimum-over-traversals
    /// definition.
    Best,
}

/// Result of a footprint simulation.
#[derive(Clone, Debug)]
pub struct FootprintReport {
    /// Peak bytes live at any point of the traversal.
    pub peak_bytes: u64,
    /// Bytes that stay allocated for the entire step (weights + weight
    /// gradients).
    pub persistent_bytes: u64,
    /// The op order that achieved `peak_bytes`.
    pub schedule: Vec<OpId>,
}

struct Sim<'g> {
    graph: &'g Graph,
    size: Vec<u64>,
    refcount: Vec<usize>,
    live: Vec<bool>,
    mem: u64,
    peak: u64,
    in_place: InPlacePolicy,
}

/// Elementwise op kinds eligible for in-place execution: output overwrites
/// an input of identical element count.
fn in_place_eligible(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Pointwise(
            PointwiseFn::Add
                | PointwiseFn::Sub
                | PointwiseFn::Mul
                | PointwiseFn::Relu
                | PointwiseFn::Sigmoid
                | PointwiseFn::Tanh
                | PointwiseFn::Exp
                | PointwiseFn::Scale
                | PointwiseFn::Copy
        ) | OpKind::BiasAdd
            | OpKind::PointwiseGrad(_)
            | OpKind::SoftmaxGrad
            | OpKind::Softmax
    )
}

impl<'g> Sim<'g> {
    fn new(
        graph: &'g Graph,
        bindings: &Bindings,
        in_place: InPlacePolicy,
    ) -> Result<Sim<'g>, UnboundSymbol> {
        Ok(Sim::with_sizes(
            graph,
            tensor_sizes(graph, bindings)?,
            in_place,
        ))
    }

    /// Build a simulation from precomputed per-tensor byte sizes (indexed by
    /// [`TensorId::index`](crate::tensor::TensorId)). Lets callers evaluate
    /// sizes once and share them across schedulers or sweep points.
    fn with_sizes(graph: &'g Graph, size: Vec<u64>, in_place: InPlacePolicy) -> Sim<'g> {
        let n = graph.tensors().len();
        debug_assert_eq!(size.len(), n);
        let refcount: Vec<usize> = graph
            .tensors()
            .iter()
            .map(|t| graph.consumers(t.id()).len())
            .collect();
        let mut sim = Sim {
            graph,
            size,
            refcount,
            live: vec![false; n],
            mem: 0,
            peak: 0,
            in_place,
        };
        // Source tensors (no producer) are live from the start: weights are
        // persistent, inputs are freed after their last consumer.
        for t in graph.tensors() {
            if graph.producer(t.id()).is_none() {
                sim.alloc(t.id().index());
            }
        }
        sim.peak = sim.mem;
        sim
    }

    fn alloc(&mut self, idx: usize) {
        debug_assert!(!self.live[idx]);
        self.live[idx] = true;
        self.mem += self.size[idx];
    }

    fn free(&mut self, idx: usize) {
        debug_assert!(self.live[idx]);
        self.live[idx] = false;
        self.mem -= self.size[idx];
    }

    fn persistent(&self, idx: usize) -> bool {
        self.graph.tensors()[idx].kind.is_persistent()
    }

    /// Whether `op` executes in place under the active policy: a single
    /// output whose bytes match a dying, non-persistent input.
    fn runs_in_place(&self, op: OpId) -> bool {
        if self.in_place != InPlacePolicy::Elementwise {
            return false;
        }
        let op = self.graph.op(op);
        if op.outputs.len() != 1 || !in_place_eligible(&op.kind) {
            return false;
        }
        let out_size = self.size[op.outputs[0].index()];
        op.inputs.iter().any(|&i| {
            let idx = i.index();
            self.size[idx] == out_size
                && self.refcount[idx] == 1
                && self.live[idx]
                && !self.persistent(idx)
        })
    }

    /// Bytes the op must allocate on execution (zero transient growth for
    /// in-place ops).
    fn alloc_bytes(&self, op_id: OpId) -> u64 {
        if self.runs_in_place(op_id) {
            return 0;
        }
        let op = self.graph.op(op_id);
        op.outputs.iter().map(|&o| self.size[o.index()]).sum()
    }

    /// Net memory delta of running `op` now (allocations minus frees),
    /// without mutating state.
    fn delta(&self, op: OpId) -> i128 {
        let alloc = self.alloc_bytes(op) as i128;
        let op_ref = self.graph.op(op);
        let mut d: i128 = alloc;
        for &o in &op_ref.outputs {
            // Outputs nobody consumes are freed right away unless persistent.
            if self.graph.consumers(o).is_empty() && !self.persistent(o.index()) {
                d -= self.size[o.index()] as i128;
            }
        }
        let in_place = self.runs_in_place(op);
        let mut reused = false;
        let out_size = op_ref
            .outputs
            .first()
            .map(|&o| self.size[o.index()])
            .unwrap_or(0);
        for &i in &op_ref.inputs {
            let idx = i.index();
            if self.refcount[idx] == 1 && !self.persistent(idx) && self.live[idx] {
                // The reused input's storage becomes the output's: it is not
                // freed (once).
                if in_place && !reused && self.size[idx] == out_size {
                    reused = true;
                    continue;
                }
                d -= self.size[idx] as i128;
            }
        }
        d
    }

    /// Peak memory reached *during* `op` (outputs allocated before inputs
    /// can be released).
    fn transient_peak(&self, op: OpId) -> u64 {
        self.mem + self.alloc_bytes(op)
    }

    fn run(&mut self, op_id: OpId) {
        self.peak = self.peak.max(self.transient_peak(op_id));
        let in_place = self.runs_in_place(op_id);
        // Borrow the op through the graph reference (not `self`) so the
        // &mut self bookkeeping below needs no per-op clone of the op.
        let graph = self.graph;
        let op = graph.op(op_id);
        let out_size = op
            .outputs
            .first()
            .map(|&o| self.size[o.index()])
            .unwrap_or(0);
        for &o in &op.outputs {
            self.alloc(o.index());
        }
        if in_place {
            // The output storage is the reused input's: cancel the growth.
            self.mem -= out_size;
        }
        let mut reused = false;
        for &i in &op.inputs {
            let idx = i.index();
            debug_assert!(self.refcount[idx] > 0);
            self.refcount[idx] -= 1;
            if self.refcount[idx] == 0 && !self.persistent(idx) && self.live[idx] {
                if in_place && !reused && self.size[idx] == out_size {
                    // Its bytes live on as the output; mark dead without
                    // releasing memory (already accounted above).
                    reused = true;
                    self.live[idx] = false;
                    continue;
                }
                self.free(idx);
            }
        }
        for &o in &op.outputs {
            let idx = o.index();
            if self.refcount[idx] == 0 && !self.persistent(idx) {
                self.free(idx);
            }
        }
        self.peak = self.peak.max(self.mem);
    }
}

/// A graph compiled once into flat, size-independent adjacency tables for
/// footprint simulation.
///
/// The simulation itself only ever needs operand/consumer index lists and a
/// few per-tensor flags, but walking them through [`Graph`] costs a pointer
/// chase into large `Tensor`/`Op` structs (symbolic shapes, names) per
/// access — cache-hostile at sweep scale, where the same family graph is
/// re-simulated at every grid point with nothing changing but the size
/// table. A `FootprintPlan` extracts the traversal structure once into
/// packed CSR arrays; [`footprint_with_plan`] then prices any number of
/// size vectors against it with tight index arithmetic. Results are
/// identical to simulating the graph directly (the plan is a lossless
/// projection of what the simulation reads — asserted against
/// [`footprint_reference`], which still walks the real graph).
#[derive(Clone, Debug)]
pub struct FootprintPlan {
    name: String,
    /// CSR: input tensor indices per op (occurrences preserved).
    in_off: Vec<u32>,
    in_ids: Vec<u32>,
    /// CSR: output tensor indices per op.
    out_off: Vec<u32>,
    out_ids: Vec<u32>,
    /// CSR: consumer op indices per tensor (one entry per consuming edge).
    cons_off: Vec<u32>,
    cons_ids: Vec<u32>,
    /// Tensor lives for the whole step (weights, optimizer state).
    persistent: Vec<bool>,
    /// Tensor has no producer op (graph input / weight): live from start.
    source: Vec<bool>,
    /// Producer-backed input occurrences per op (initial dependency count).
    init_deps: Vec<u32>,
    /// Op is single-output and of an in-place-eligible kind.
    in_place_ok: Vec<bool>,
}

impl FootprintPlan {
    /// Extract the traversal structure of `graph`.
    pub fn new(graph: &Graph) -> FootprintPlan {
        let tensors = graph.tensors();
        let ops = graph.ops();
        let mut plan = FootprintPlan {
            name: graph.name.clone(),
            in_off: Vec::with_capacity(ops.len() + 1),
            in_ids: Vec::new(),
            out_off: Vec::with_capacity(ops.len() + 1),
            out_ids: Vec::new(),
            cons_off: Vec::with_capacity(tensors.len() + 1),
            cons_ids: Vec::new(),
            persistent: tensors.iter().map(|t| t.kind.is_persistent()).collect(),
            source: tensors
                .iter()
                .map(|t| graph.producer(t.id()).is_none())
                .collect(),
            init_deps: Vec::with_capacity(ops.len()),
            in_place_ok: Vec::with_capacity(ops.len()),
        };
        for op in ops {
            plan.in_off.push(plan.in_ids.len() as u32);
            plan.out_off.push(plan.out_ids.len() as u32);
            plan.in_ids
                .extend(op.inputs.iter().map(|i| i.index() as u32));
            plan.out_ids
                .extend(op.outputs.iter().map(|o| o.index() as u32));
            plan.init_deps.push(
                op.inputs
                    .iter()
                    .filter(|&&i| graph.producer(i).is_some())
                    .count() as u32,
            );
            plan.in_place_ok
                .push(op.outputs.len() == 1 && in_place_eligible(&op.kind));
        }
        plan.in_off.push(plan.in_ids.len() as u32);
        plan.out_off.push(plan.out_ids.len() as u32);
        for t in tensors {
            plan.cons_off.push(plan.cons_ids.len() as u32);
            plan.cons_ids
                .extend(graph.consumers(t.id()).iter().map(|c| c.index() as u32));
        }
        plan.cons_off.push(plan.cons_ids.len() as u32);
        plan
    }

    /// Number of ops in the planned graph.
    pub fn ops(&self) -> usize {
        self.in_off.len() - 1
    }

    /// Number of tensors in the planned graph (the expected size-table
    /// length).
    pub fn tensors(&self) -> usize {
        self.cons_off.len() - 1
    }

    fn inputs(&self, op: usize) -> &[u32] {
        &self.in_ids[self.in_off[op] as usize..self.in_off[op + 1] as usize]
    }

    fn outputs(&self, op: usize) -> &[u32] {
        &self.out_ids[self.out_off[op] as usize..self.out_off[op + 1] as usize]
    }

    fn consumers(&self, t: usize) -> &[u32] {
        &self.cons_ids[self.cons_off[t] as usize..self.cons_off[t + 1] as usize]
    }
}

/// [`Sim`] over a [`FootprintPlan`]: the same simulation semantics, but
/// reading packed index tables instead of graph structs.
#[derive(Clone)]
struct PlanSim<'p> {
    plan: &'p FootprintPlan,
    size: &'p [u64],
    refcount: Vec<u32>,
    live: Vec<bool>,
    mem: u64,
    peak: u64,
    in_place: InPlacePolicy,
}

impl<'p> PlanSim<'p> {
    fn new(plan: &'p FootprintPlan, size: &'p [u64], in_place: InPlacePolicy) -> PlanSim<'p> {
        let n = plan.tensors();
        debug_assert_eq!(size.len(), n);
        let refcount: Vec<u32> = (0..n)
            .map(|t| plan.cons_off[t + 1] - plan.cons_off[t])
            .collect();
        let mut sim = PlanSim {
            plan,
            size,
            refcount,
            live: vec![false; n],
            mem: 0,
            peak: 0,
            in_place,
        };
        for t in 0..n {
            if plan.source[t] {
                sim.alloc(t);
            }
        }
        sim.peak = sim.mem;
        sim
    }

    fn alloc(&mut self, idx: usize) {
        debug_assert!(!self.live[idx]);
        self.live[idx] = true;
        self.mem += self.size[idx];
    }

    fn free(&mut self, idx: usize) {
        debug_assert!(self.live[idx]);
        self.live[idx] = false;
        self.mem -= self.size[idx];
    }

    fn runs_in_place(&self, op: usize) -> bool {
        if self.in_place != InPlacePolicy::Elementwise || !self.plan.in_place_ok[op] {
            return false;
        }
        let out_size = self.size[self.plan.outputs(op)[0] as usize];
        self.plan.inputs(op).iter().any(|&i| {
            let idx = i as usize;
            self.size[idx] == out_size
                && self.refcount[idx] == 1
                && self.live[idx]
                && !self.plan.persistent[idx]
        })
    }

    fn alloc_bytes(&self, op: usize) -> u64 {
        if self.runs_in_place(op) {
            return 0;
        }
        self.plan
            .outputs(op)
            .iter()
            .map(|&o| self.size[o as usize])
            .sum()
    }

    /// `(delta, alloc_bytes)` of running `op` now, without mutating state.
    fn delta_alloc(&self, op: usize) -> (i128, u64) {
        let in_place = self.runs_in_place(op);
        let outputs = self.plan.outputs(op);
        let mut alloc = 0;
        let mut d: i128 = 0;
        for &o in outputs {
            let oi = o as usize;
            alloc += self.size[oi];
            if self.plan.consumers(oi).is_empty() && !self.plan.persistent[oi] {
                d -= self.size[oi] as i128;
            }
        }
        if in_place {
            alloc = 0;
        }
        d += alloc as i128;
        let mut reused = false;
        let out_size = outputs.first().map(|&o| self.size[o as usize]).unwrap_or(0);
        for &i in self.plan.inputs(op) {
            let idx = i as usize;
            if self.refcount[idx] == 1 && !self.plan.persistent[idx] && self.live[idx] {
                if in_place && !reused && self.size[idx] == out_size {
                    reused = true;
                    continue;
                }
                d -= self.size[idx] as i128;
            }
        }
        (d, alloc)
    }

    fn run(&mut self, op: usize) {
        self.peak = self.peak.max(self.mem + self.alloc_bytes(op));
        let in_place = self.runs_in_place(op);
        let out_size = self
            .plan
            .outputs(op)
            .first()
            .map(|&o| self.size[o as usize])
            .unwrap_or(0);
        for &o in self.plan.outputs(op) {
            self.alloc(o as usize);
        }
        if in_place {
            self.mem -= out_size;
        }
        let mut reused = false;
        for &i in self.plan.inputs(op) {
            let idx = i as usize;
            debug_assert!(self.refcount[idx] > 0);
            self.refcount[idx] -= 1;
            if self.refcount[idx] == 0 && !self.plan.persistent[idx] && self.live[idx] {
                if in_place && !reused && self.size[idx] == out_size {
                    reused = true;
                    self.live[idx] = false;
                    continue;
                }
                self.free(idx);
            }
        }
        for &o in self.plan.outputs(op) {
            let oi = o as usize;
            if self.refcount[oi] == 0 && !self.plan.persistent[oi] {
                self.free(oi);
            }
        }
        self.peak = self.peak.max(self.mem);
    }
}

/// Simulate a traversal of `graph` under `bindings` and report the footprint
/// (conservative: every op allocates fresh outputs).
pub fn footprint(
    graph: &Graph,
    bindings: &Bindings,
    scheduler: Scheduler,
) -> Result<FootprintReport, UnboundSymbol> {
    footprint_with(graph, bindings, scheduler, InPlacePolicy::Never)
}

/// [`footprint`] with an explicit in-place policy.
pub fn footprint_with(
    graph: &Graph,
    bindings: &Bindings,
    scheduler: Scheduler,
    in_place: InPlacePolicy,
) -> Result<FootprintReport, UnboundSymbol> {
    let sizes = tensor_sizes(graph, bindings)?;
    Ok(footprint_with_sizes(graph, &sizes, scheduler, in_place))
}

/// Evaluate every tensor's byte size under `bindings`, indexed by
/// [`TensorId::index`](crate::tensor::TensorId). The exact per-tensor
/// rounding the simulation uses; precompute once to share across schedulers
/// or sweep points.
pub fn tensor_sizes(graph: &Graph, bindings: &Bindings) -> Result<Vec<u64>, UnboundSymbol> {
    graph
        .tensors()
        .iter()
        .map(|t| t.bytes_u64(bindings))
        .collect()
}

/// [`footprint_with`] over precomputed tensor sizes (no symbolic
/// evaluation). `Scheduler::Best` runs both heuristics against the same size
/// table instead of re-evaluating it.
///
/// Builds a throwaway [`FootprintPlan`]; callers pricing many size vectors
/// against one graph should build the plan once and use
/// [`footprint_with_plan`].
pub fn footprint_with_sizes(
    graph: &Graph,
    sizes: &[u64],
    scheduler: Scheduler,
    in_place: InPlacePolicy,
) -> FootprintReport {
    footprint_with_plan(&FootprintPlan::new(graph), sizes, scheduler, in_place)
}

/// Simulate a traversal of a precompiled plan against one size table.
/// Identical results to [`footprint_with_sizes`] on the planned graph.
///
/// `Scheduler::Best` runs both traversals to the end from one shared set-up
/// and reports the winner's schedule; callers that only need the peak should
/// use [`footprint_peak`], which stops the greedy traversal early.
pub fn footprint_with_plan(
    plan: &FootprintPlan,
    sizes: &[u64],
    scheduler: Scheduler,
    in_place: InPlacePolicy,
) -> FootprintReport {
    let _span = footprint_span(plan, scheduler);
    let start = PlanSim::new(plan, sizes, in_place);
    let persistent_bytes: u64 = (0..plan.tensors())
        .filter(|&t| plan.persistent[t])
        .map(|t| sizes[t])
        .sum();
    let program_order = || (0..plan.ops() as u32).map(OpId).collect::<Vec<_>>();
    let full_greedy = |mut sim: PlanSim<'_>| {
        let mut schedule = Vec::with_capacity(plan.ops());
        greedy_traversal(plan, &mut sim, Some(&mut schedule), u64::MAX);
        (sim.peak, schedule)
    };

    let (peak_bytes, schedule) = match scheduler {
        Scheduler::ProgramOrder => (program_order_peak(start), program_order()),
        Scheduler::GreedyMinPeak => full_greedy(start),
        Scheduler::Best => {
            let program = program_order_peak(start.clone());
            let (greedy, schedule) = full_greedy(start);
            if greedy <= program {
                (greedy, schedule)
            } else {
                (program, program_order())
            }
        }
    };

    FootprintReport {
        peak_bytes,
        persistent_bytes,
        schedule,
    }
}

/// The peak of [`footprint_with_plan`] under `Scheduler::Best` and
/// `InPlacePolicy::Never`, without building a schedule.
///
/// Program order runs first; the greedy traversal then stops as soon as its
/// running peak exceeds the program-order peak. That is exact: a running
/// peak never decreases, and `Best` keeps the greedy traversal only when its
/// final peak is at most the program-order one.
pub fn footprint_peak(plan: &FootprintPlan, sizes: &[u64]) -> u64 {
    let _span = footprint_span(plan, Scheduler::Best);
    let start = PlanSim::new(plan, sizes, InPlacePolicy::Never);
    let program = program_order_peak(start.clone());
    let mut greedy = start;
    greedy_traversal(plan, &mut greedy, None, program);
    greedy.peak.min(program)
}

/// One `cgraph.footprint` span per priced size table.
fn footprint_span(plan: &FootprintPlan, scheduler: Scheduler) -> obs::Span {
    obs::span("cgraph.footprint")
        .with_arg("graph", plan.name.as_str())
        .with_arg("scheduler", format!("{scheduler:?}"))
        .with_arg("ops", plan.ops())
}

/// Run every op in construction order and return the peak.
fn program_order_peak(mut sim: PlanSim<'_>) -> u64 {
    for op in 0..sim.plan.ops() {
        sim.run(op);
    }
    sim.peak
}

/// The pre-optimization reference simulation: the naive greedy selection
/// loop that rescans every ready op per step. Kept as the brute-force
/// oracle for the scheduler-equivalence tests and the sweep benchmark
/// baseline; [`footprint`] produces the identical schedule faster.
pub fn footprint_reference(
    graph: &Graph,
    bindings: &Bindings,
    scheduler: Scheduler,
) -> Result<FootprintReport, UnboundSymbol> {
    let in_place = InPlacePolicy::Never;
    if scheduler == Scheduler::Best {
        let program = footprint_reference(graph, bindings, Scheduler::ProgramOrder)?;
        let greedy = footprint_reference(graph, bindings, Scheduler::GreedyMinPeak)?;
        return Ok(if greedy.peak_bytes <= program.peak_bytes {
            greedy
        } else {
            program
        });
    }
    let mut sim = Sim::new(graph, bindings, in_place)?;
    let persistent_bytes: u64 = graph
        .tensors()
        .iter()
        .filter(|t| t.kind.is_persistent())
        .map(|t| sim.size[t.id().index()])
        .sum();
    let schedule = match scheduler {
        Scheduler::ProgramOrder => {
            let order: Vec<OpId> = graph.ops().iter().map(|o| o.id()).collect();
            for &op in &order {
                sim.run(op);
            }
            order
        }
        Scheduler::GreedyMinPeak => greedy_schedule_reference(graph, &mut sim),
        Scheduler::Best => unreachable!("handled above"),
    };
    Ok(FootprintReport {
        peak_bytes: sim.peak,
        persistent_bytes,
        schedule,
    })
}

/// A ready op's selection key: orders ready ops by
/// `(delta, alloc_bytes, id)`.
///
/// The reference loop minimizes `(delta, transient_peak, id)` where
/// `transient_peak = mem + alloc_bytes`; `mem` is shared by every candidate
/// within one selection step, so minimizing `(delta, alloc_bytes, id)` picks
/// the same op — and unlike `transient_peak`, this key only changes when the
/// state of the op's own input tensors changes, making it incrementally
/// maintainable.
trait ReadyKey: Copy + Ord {
    /// `cur_key` sentinel for "not ready"; never equal to a real key.
    const NOT_READY: Self;
    fn new(delta: i128, alloc: u64, op: u32) -> Self;
    fn op(self) -> usize;
    /// The same key with `ds` added to its delta component.
    fn patched(self, ds: i128) -> Self;
}

/// The general key: exact for any size table.
impl ReadyKey for (i128, u64, u32) {
    /// Unreachable: `delta` is bounded by a sum of `u64` sizes.
    const NOT_READY: Self = (i128::MAX, u64::MAX, u32::MAX);

    fn new(delta: i128, alloc: u64, op: u32) -> Self {
        (delta, alloc, op)
    }

    fn op(self) -> usize {
        self.2 as usize
    }

    fn patched(self, ds: i128) -> Self {
        (self.0 + ds, self.1, self.2)
    }
}

/// Bias making the packed delta field non-negative; also the size-sum bound
/// under which packing is exact.
const PACK_BIAS: u64 = 1 << 47;

/// The packed key: `(delta, alloc, id)` in one `u128`, preserving
/// lexicographic order — biased delta in bits 127..80 (48 bits), alloc in
/// bits 79..32 (48 bits), op id in bits 31..0. Exact whenever the total size
/// table sums below [`PACK_BIAS`] bytes, which bounds both `|delta|` and
/// `alloc`. Heap sift compares are then one wide integer compare instead of a
/// three-field tuple walk, and a delta patch is a single wrapping add into
/// the top field (the addend's low 80 bits are zero).
impl ReadyKey for u128 {
    /// Unreachable: the alloc field is never all-ones under the size bound.
    const NOT_READY: Self = u128::MAX;

    fn new(delta: i128, alloc: u64, op: u32) -> Self {
        debug_assert!((-(PACK_BIAS as i128)..PACK_BIAS as i128).contains(&delta));
        debug_assert!(alloc < PACK_BIAS);
        (((delta + PACK_BIAS as i128) as u128) << 80) | ((alloc as u128) << 32) | op as u128
    }

    fn op(self) -> usize {
        (self & u32::MAX as u128) as usize
    }

    fn patched(self, ds: i128) -> Self {
        self.wrapping_add((ds << 80) as u128)
    }
}

/// Greedy min-peak traversal of `sim`, recording the op order into
/// `schedule` when one is given, and stopping as soon as the running peak
/// exceeds `cutoff` (`u64::MAX` never stops). Returns whether every op ran.
///
/// Keys go into a single `u128` when every tensor size fits the packed-key
/// bound (the common case for every real model grid) and into tuples
/// otherwise; both run [`greedy_loop`].
fn greedy_traversal(
    plan: &FootprintPlan,
    sim: &mut PlanSim<'_>,
    schedule: Option<&mut Vec<OpId>>,
    cutoff: u64,
) -> bool {
    let incremental = sim.in_place == InPlacePolicy::Never;
    if incremental {
        let total: u128 = sim.size.iter().map(|&s| s as u128).sum();
        if total < PACK_BIAS as u128 {
            return greedy_loop::<u128>(plan, sim, true, schedule, cutoff);
        }
    }
    greedy_loop::<(i128, u64, u32)>(plan, sim, incremental, schedule, cutoff)
}

/// Push `k` onto the ready heap, overwriting the executed op's entry at the
/// top while it is still there (`top_dead`): one sift instead of a pop and a
/// push, and none at all when `k` is the new minimum.
fn push<K: Ord>(ready: &mut BinaryHeap<Reverse<K>>, top_dead: &mut bool, k: K) {
    if std::mem::take(top_dead) {
        *ready.peek_mut().expect("the executed op's entry") = Reverse(k);
    } else {
        ready.push(Reverse(k));
    }
}

/// Greedy min-peak traversal with an incrementally maintained ready set.
///
/// Produces exactly the schedule of [`greedy_schedule_reference`]: same
/// selection key ordering (see [`ReadyKey`]), and keys are refreshed for
/// precisely the ready ops whose key inputs changed. A key reads an input
/// only through whether it is *dying* (`refcount == 1 && live &&
/// !persistent`), and an input turns dying exactly when an op leaves it
/// with one pending consumer edge; only that consumer's key is refreshed.
/// Persistent tensors (weights, optimizer state) never turn dying, so their
/// high-fanout consumer lists are never walked, which is what removes the
/// O(ready²) rescan cost.
///
/// The ready set is a min-heap with **lazy deletion**: a key refresh pushes
/// the new key and leaves the old entry in place, and selection pops until
/// the entry matches the op's current key (`cur_key`), discarding stale
/// ones. Keys embed the op id, so an entry is current iff it equals
/// `cur_key[op]` exactly; the minimum *current* entry popped this way is the
/// same op a `BTreeSet` of current keys would yield, but without paying a
/// tree rebalance on every refresh.
///
/// With `incremental` (only sound under [`InPlacePolicy::Never`]) the keys
/// themselves are maintained **incrementally**: `alloc_bytes` is then
/// state-independent, and `delta` depends on the simulation only through the
/// dying-input sum, so an input turning dying changes its consumer's key by
/// `-size` per edge: a constant-time patch instead of recomputing `delta`
/// (a walk over every operand). The `Elementwise` policy keeps the full
/// recompute: in-place reuse makes `alloc_bytes` state-dependent too, and
/// that policy is off the sweep hot path.
fn greedy_loop<K: ReadyKey>(
    plan: &FootprintPlan,
    sim: &mut PlanSim<'_>,
    incremental: bool,
    mut schedule: Option<&mut Vec<OpId>>,
    cutoff: u64,
) -> bool {
    let n_ops = plan.ops();
    // deps[o] = not-yet-executed producer-backed input occurrences.
    let mut deps: Vec<u32> = plan.init_deps.clone();
    let key = |sim: &PlanSim<'_>, op: usize| {
        let (delta, alloc) = sim.delta_alloc(op);
        K::new(delta, alloc, op as u32)
    };
    let mut ready: BinaryHeap<Reverse<K>> = BinaryHeap::with_capacity(n_ops);
    let mut cur_key: Vec<K> = vec![K::NOT_READY; n_ops];
    for op in 0..n_ops {
        if deps[op] == 0 {
            let k = key(sim, op);
            ready.push(Reverse(k));
            cur_key[op] = k;
        }
    }
    let mut ran = 0;

    while let Some(&Reverse(k)) = ready.peek() {
        let op = k.op();
        if cur_key[op] != k {
            ready.pop();
            continue; // stale entry superseded by a key refresh
        }
        cur_key[op] = K::NOT_READY;
        let mut top_dead = true;
        sim.run(op);
        ran += 1;
        if let Some(schedule) = schedule.as_deref_mut() {
            schedule.push(OpId(op as u32));
        }
        if sim.peak > cutoff {
            return false;
        }
        // Refresh ready keys. A key reads only whether each input is dying
        // (live, not persistent, one pending consumer edge left), so the one
        // change this op can make to a ready key is an input it left with
        // exactly one pending edge: that input is now dying. Inputs it left
        // with none have no ready consumer, and its outputs' consumers are
        // not ready until unlocked below, with keys computed from the
        // post-run state. Runs before the unlock so those keys are never
        // patched twice.
        let inputs = plan.inputs(op);
        for (j, &t) in inputs.iter().enumerate() {
            let ti = t as usize;
            if sim.refcount[ti] != 1
                || !sim.live[ti]
                || plan.persistent[ti]
                || inputs[..j].contains(&t)
            {
                continue;
            }
            for &c in plan.consumers(ti) {
                let ci = c as usize;
                if cur_key[ci] == K::NOT_READY {
                    continue;
                }
                // A dying input is subtracted from its consumer's `delta`.
                let new = if incremental {
                    cur_key[ci].patched(-(sim.size[ti] as i128))
                } else {
                    key(sim, ci)
                };
                if new != cur_key[ci] {
                    push(&mut ready, &mut top_dead, new);
                    cur_key[ci] = new;
                }
            }
        }
        // Unlock dependents: one decrement per consumer edge matches the
        // per-occurrence count in `deps`.
        for &out in plan.outputs(op) {
            for &c in plan.consumers(out as usize) {
                let ci = c as usize;
                deps[ci] -= 1;
                if deps[ci] == 0 {
                    let k = key(sim, ci);
                    push(&mut ready, &mut top_dead, k);
                    cur_key[ci] = k;
                }
            }
        }
        if top_dead {
            ready.pop();
        }
    }
    assert_eq!(
        ran, n_ops,
        "greedy scheduler failed to schedule every op (cycle?)"
    );
    true
}

/// The original greedy loop: full rescan of the ready list per step.
fn greedy_schedule_reference(graph: &Graph, sim: &mut Sim<'_>) -> Vec<OpId> {
    let n_ops = graph.ops().len();
    // Dependency counts: number of producer ops that must run first.
    let mut deps = vec![0usize; n_ops];
    for op in graph.ops() {
        let mut count = 0;
        for &i in &op.inputs {
            if graph.producer(i).is_some() {
                count += 1;
            }
        }
        deps[op.id().index()] = count;
    }
    // dependents[o] = ops consuming any output of o (with multiplicity of
    // distinct producer edges handled via dedup below).
    let mut ready: Vec<OpId> = graph
        .ops()
        .iter()
        .filter(|o| deps[o.id().index()] == 0)
        .map(|o| o.id())
        .collect();
    let mut schedule = Vec::with_capacity(n_ops);
    let mut done = vec![false; n_ops];

    while !ready.is_empty() {
        // Pick the ready op with the smallest net delta; break ties by the
        // smaller transient peak, then by program order (stability).
        let mut best = 0;
        let mut best_key = (i128::MAX, u64::MAX, u32::MAX);
        for (pos, &op) in ready.iter().enumerate() {
            let key = (sim.delta(op), sim.transient_peak(op), op.0);
            if key < best_key {
                best_key = key;
                best = pos;
            }
        }
        let op = ready.swap_remove(best);
        sim.run(op);
        done[op.index()] = true;
        schedule.push(op);
        // Unlock dependents: an op becomes ready when all producer-backed
        // inputs are done.
        for &out in &graph.op(op).outputs {
            for &consumer in graph.consumers(out) {
                if done[consumer.index()] {
                    continue;
                }
                let c = graph.op(consumer);
                let all_ready = c.inputs.iter().all(|&i| match graph.producer(i) {
                    None => true,
                    Some(p) => done[p.index()],
                });
                if all_ready && !ready.contains(&consumer) {
                    ready.push(consumer);
                }
            }
        }
    }
    assert_eq!(
        schedule.len(),
        n_ops,
        "greedy scheduler failed to schedule every op (cycle?)"
    );
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autodiff::build_training_step;
    use crate::graph::Graph;
    use crate::op::PointwiseFn;
    use crate::tensor::DType;
    use symath::Expr;

    fn chain_graph() -> Graph {
        // x(1MB) -> relu -> relu -> relu ; all activations 1MB
        let mut g = Graph::new("chain");
        let x = g
            .input("x", [Expr::int(256), Expr::int(1024)], DType::F32)
            .unwrap();
        let mut t = x;
        for i in 0..3 {
            t = g.unary(&format!("relu{i}"), PointwiseFn::Relu, t).unwrap();
        }
        g
    }

    const MB: u64 = 256 * 1024 * 4;

    #[test]
    fn chain_peak_is_two_tensors() {
        let g = chain_graph();
        let r = footprint(&g, &Bindings::new(), Scheduler::ProgramOrder).unwrap();
        // At any point: one live input + one output being produced.
        assert_eq!(r.peak_bytes, 2 * MB);
        assert_eq!(r.persistent_bytes, 0);
        assert_eq!(r.schedule.len(), 3);
    }

    #[test]
    fn weights_are_persistent() {
        let mut g = Graph::new("wp");
        let x = g
            .input("x", [Expr::int(4), Expr::int(8)], DType::F32)
            .unwrap();
        let w = g.weight("w", [Expr::int(8), Expr::int(8)]).unwrap();
        let _y = g.matmul("mm", x, w, false, false).unwrap();
        let r = footprint(&g, &Bindings::new(), Scheduler::ProgramOrder).unwrap();
        assert_eq!(r.persistent_bytes, 8 * 8 * 4);
        // Peak: w (persistent) + x + y live simultaneously.
        assert_eq!(r.peak_bytes, (8 * 8 + 4 * 8 + 4 * 8) * 4);
    }

    #[test]
    fn greedy_never_beats_validity_and_not_worse_than_double() {
        // Diamond: x -> (a, b) -> join. Greedy and program order both valid.
        let mut g = Graph::new("diamond");
        let x = g
            .input("x", [Expr::int(128), Expr::int(128)], DType::F32)
            .unwrap();
        let a = g.unary("a", PointwiseFn::Relu, x).unwrap();
        let b = g.unary("b", PointwiseFn::Tanh, x).unwrap();
        let _j = g.binary("join", PointwiseFn::Add, a, b).unwrap();
        let po = footprint(&g, &Bindings::new(), Scheduler::ProgramOrder).unwrap();
        let gr = footprint(&g, &Bindings::new(), Scheduler::GreedyMinPeak).unwrap();
        assert!(gr.peak_bytes <= po.peak_bytes);
        assert_eq!(gr.schedule.len(), 3);
    }

    #[test]
    fn activations_held_for_backward_raise_footprint() {
        // Training graph must keep forward activations live until backward.
        let mut g = Graph::new("train");
        let bsym = Expr::int(32);
        let x = g
            .input("x", [bsym.clone(), Expr::int(64)], DType::F32)
            .unwrap();
        let mut t = x;
        for i in 0..4 {
            let w = g
                .weight(format!("w{i}"), [Expr::int(64), Expr::int(64)])
                .unwrap();
            t = g.matmul(&format!("fc{i}"), t, w, false, false).unwrap();
            t = g.unary(&format!("relu{i}"), PointwiseFn::Relu, t).unwrap();
        }
        let labels = g.input("labels", [bsym], DType::I32).unwrap();
        let fwd_only = footprint(&g, &Bindings::new(), Scheduler::ProgramOrder).unwrap();
        let loss = g.cross_entropy("loss", t, labels).unwrap();
        build_training_step(&mut g, loss).unwrap();
        let train = footprint(&g, &Bindings::new(), Scheduler::ProgramOrder).unwrap();
        assert!(
            train.peak_bytes > fwd_only.peak_bytes,
            "training footprint {} must exceed inference footprint {}",
            train.peak_bytes,
            fwd_only.peak_bytes
        );
        // Weight gradients are freed after their updates, so they do not add
        // to the persistent set — only the weights persist.
        assert_eq!(train.persistent_bytes, fwd_only.persistent_bytes);
        // But the peak must cover weights plus at least one full gradient.
        assert!(train.peak_bytes > 2 * train.persistent_bytes);
    }

    #[test]
    fn greedy_schedules_all_ops_of_training_graph() {
        let mut g = Graph::new("train2");
        let x = g
            .input("x", [Expr::int(8), Expr::int(16)], DType::F32)
            .unwrap();
        let w1 = g.weight("w1", [Expr::int(16), Expr::int(16)]).unwrap();
        let h = g.matmul("fc1", x, w1, false, false).unwrap();
        let h = g.unary("tanh", PointwiseFn::Tanh, h).unwrap();
        let labels = g.input("labels", [Expr::int(8)], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", h, labels).unwrap();
        build_training_step(&mut g, loss).unwrap();
        let r = footprint(&g, &Bindings::new(), Scheduler::GreedyMinPeak).unwrap();
        assert_eq!(r.schedule.len(), g.ops().len());
    }

    #[test]
    fn best_scheduler_dominates_both_heuristics() {
        let mut g = Graph::new("best");
        let x = g
            .input("x", [Expr::int(64), Expr::int(64)], DType::F32)
            .unwrap();
        let a = g.unary("a", PointwiseFn::Relu, x).unwrap();
        let b = g.unary("b", PointwiseFn::Tanh, x).unwrap();
        let _j = g.binary("join", PointwiseFn::Add, a, b).unwrap();
        let po = footprint(&g, &Bindings::new(), Scheduler::ProgramOrder).unwrap();
        let gr = footprint(&g, &Bindings::new(), Scheduler::GreedyMinPeak).unwrap();
        let best = footprint(&g, &Bindings::new(), Scheduler::Best).unwrap();
        assert_eq!(best.peak_bytes, po.peak_bytes.min(gr.peak_bytes));
    }

    /// A training graph with enough fan-out and reclaimable tensors to make
    /// the greedy ready-set nontrivial.
    fn equivalence_graph() -> Graph {
        let mut g = Graph::new("equiv");
        let b = Expr::sym("eq_b");
        let mut t = g
            .input("x", [b.clone(), Expr::int(48)], DType::F32)
            .unwrap();
        let w_shared = g
            .weight("w_shared", [Expr::int(48), Expr::int(48)])
            .unwrap();
        for i in 0..6 {
            let u = g
                .matmul(&format!("fc{i}"), t, w_shared, false, false)
                .unwrap();
            let v = g.unary(&format!("act{i}"), PointwiseFn::Tanh, u).unwrap();
            t = g
                .binary(&format!("res{i}"), PointwiseFn::Add, v, t)
                .unwrap();
        }
        let labels = g.input("labels", [b], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", t, labels).unwrap();
        build_training_step(&mut g, loss).unwrap();
        g
    }

    #[test]
    fn incremental_greedy_matches_reference_schedule() {
        let g = equivalence_graph();
        let bind = Bindings::new().with("eq_b", 16.0);
        let fast = footprint(&g, &bind, Scheduler::GreedyMinPeak).unwrap();
        let reference = footprint_reference(&g, &bind, Scheduler::GreedyMinPeak).unwrap();
        assert_eq!(fast.schedule, reference.schedule);
        assert_eq!(fast.peak_bytes, reference.peak_bytes);
        assert_eq!(fast.persistent_bytes, reference.persistent_bytes);
    }

    #[test]
    fn incremental_greedy_matches_reference_in_place() {
        let g = equivalence_graph();
        let bind = Bindings::new().with("eq_b", 16.0);
        let sizes = tensor_sizes(&g, &bind).unwrap();
        let fast = footprint_with_sizes(
            &g,
            &sizes,
            Scheduler::GreedyMinPeak,
            InPlacePolicy::Elementwise,
        );
        let mut sim = Sim::with_sizes(&g, sizes.clone(), InPlacePolicy::Elementwise);
        let reference = greedy_schedule_reference(&g, &mut sim);
        assert_eq!(fast.schedule, reference);
        assert_eq!(fast.peak_bytes, sim.peak);
    }

    #[test]
    fn huge_sizes_fall_back_to_tuple_keys_and_match_reference() {
        // Inflate every size by 2^30 so the table sums past the packed-key
        // bound: the greedy pass must take the tuple-key path and still
        // reproduce the reference schedule exactly.
        let g = equivalence_graph();
        let bind = Bindings::new().with("eq_b", 16.0);
        let huge: Vec<u64> = tensor_sizes(&g, &bind)
            .unwrap()
            .iter()
            .map(|s| s << 30)
            .collect();
        assert!(huge.iter().map(|&s| s as u128).sum::<u128>() >= 1 << 47);
        let fast = footprint_with_sizes(&g, &huge, Scheduler::GreedyMinPeak, InPlacePolicy::Never);
        let mut sim = Sim::with_sizes(&g, huge.clone(), InPlacePolicy::Never);
        let reference = greedy_schedule_reference(&g, &mut sim);
        assert_eq!(fast.schedule, reference);
        assert_eq!(fast.peak_bytes, sim.peak);
    }

    /// Two branches joined at the end, the wide one built first: `c = x2·w2`
    /// (100 floats) narrowed to `d = c·w3` (5 floats), then `a = x1·w1`
    /// (`x1` is `k` floats, `a` 5) which `join` adds to `d`. Greedy runs the
    /// cheap `a` first and holds it through `c` and `d`, where program order
    /// still holds only `x1`. With `k = 1` that costs greedy 4 floats at the
    /// peak and program order wins; with `k = 5` the two hold the same bytes,
    /// so the peaks tie under different schedules.
    fn held_branch_graph(k: u64) -> Graph {
        let mut g = Graph::new("held_branch");
        let x2 = g
            .input("x2", [Expr::int(1), Expr::int(1)], DType::F32)
            .unwrap();
        let w2 = g.weight("w2", [Expr::int(1), Expr::int(100)]).unwrap();
        let c = g.matmul("c", x2, w2, false, false).unwrap();
        let w3 = g.weight("w3", [Expr::int(100), Expr::int(5)]).unwrap();
        let d = g.matmul("d", c, w3, false, false).unwrap();
        let x1 = g
            .input("x1", [Expr::int(1), Expr::from(k)], DType::F32)
            .unwrap();
        let w1 = g.weight("w1", [Expr::from(k), Expr::int(5)]).unwrap();
        let a = g.matmul("a", x1, w1, false, false).unwrap();
        let _join = g.binary("join", PointwiseFn::Add, a, d).unwrap();
        g
    }

    #[test]
    fn peak_pass_cuts_greedy_off_when_program_order_wins() {
        let g = held_branch_graph(1);
        let bind = Bindings::new();
        let po = footprint_reference(&g, &bind, Scheduler::ProgramOrder).unwrap();
        let gr = footprint_reference(&g, &bind, Scheduler::GreedyMinPeak).unwrap();
        assert_eq!(gr.peak_bytes, po.peak_bytes + 4 * 4);
        let plan = FootprintPlan::new(&g);
        let sizes = tensor_sizes(&g, &bind).unwrap();
        // Greedy stops at the first op that lifts its peak past program
        // order's, before every op has run.
        let mut sim = PlanSim::new(&plan, &sizes, InPlacePolicy::Never);
        let mut ran = Vec::new();
        assert!(!greedy_traversal(
            &plan,
            &mut sim,
            Some(&mut ran),
            po.peak_bytes
        ));
        assert!(ran.len() < plan.ops());
        assert_eq!(ran, gr.schedule[..ran.len()]);
        assert_eq!(footprint_peak(&plan, &sizes), po.peak_bytes);
        let best = footprint_with_plan(&plan, &sizes, Scheduler::Best, InPlacePolicy::Never);
        assert_eq!(best.peak_bytes, po.peak_bytes);
        assert_eq!(best.schedule, po.schedule);
    }

    #[test]
    fn peak_pass_runs_greedy_to_the_end_on_a_tie() {
        let g = held_branch_graph(5);
        let bind = Bindings::new();
        let po = footprint_reference(&g, &bind, Scheduler::ProgramOrder).unwrap();
        let gr = footprint_reference(&g, &bind, Scheduler::GreedyMinPeak).unwrap();
        assert_eq!(gr.peak_bytes, po.peak_bytes);
        assert_ne!(gr.schedule, po.schedule);
        let plan = FootprintPlan::new(&g);
        let sizes = tensor_sizes(&g, &bind).unwrap();
        // Reaching the cut-off is not passing it: greedy completes.
        let mut sim = PlanSim::new(&plan, &sizes, InPlacePolicy::Never);
        assert!(greedy_traversal(&plan, &mut sim, None, po.peak_bytes));
        assert_eq!(footprint_peak(&plan, &sizes), po.peak_bytes);
        // `Best` keeps greedy on a tie.
        let best = footprint_with_plan(&plan, &sizes, Scheduler::Best, InPlacePolicy::Never);
        assert_eq!(best.schedule, gr.schedule);
    }

    #[test]
    fn huge_sizes_take_tuple_keys_in_the_peak_pass_and_match_reference() {
        // Sizes past the packed-key bound: the peak pass must take the
        // tuple-key path, cut-off included, and still match the reference.
        for g in [equivalence_graph(), held_branch_graph(1)] {
            let bind = Bindings::new().with("eq_b", 16.0);
            let huge: Vec<u64> = tensor_sizes(&g, &bind)
                .unwrap()
                .iter()
                .map(|s| s << 36)
                .collect();
            assert!(huge.iter().map(|&s| s as u128).sum::<u128>() >= 1 << 47);
            let mut po = Sim::with_sizes(&g, huge.clone(), InPlacePolicy::Never);
            for op in g.ops() {
                po.run(op.id());
            }
            let mut gr = Sim::with_sizes(&g, huge.clone(), InPlacePolicy::Never);
            greedy_schedule_reference(&g, &mut gr);
            let plan = FootprintPlan::new(&g);
            assert_eq!(footprint_peak(&plan, &huge), po.peak.min(gr.peak));
        }
    }

    #[test]
    fn plan_reuse_matches_per_call_simulation() {
        // One plan priced against several size tables must agree with the
        // graph-walking reference at every point.
        let g = equivalence_graph();
        let plan = FootprintPlan::new(&g);
        assert_eq!(plan.ops(), g.ops().len());
        assert_eq!(plan.tensors(), g.tensors().len());
        for b in [4.0, 16.0, 64.0] {
            let bind = Bindings::new().with("eq_b", b);
            let sizes = tensor_sizes(&g, &bind).unwrap();
            let via_plan =
                footprint_with_plan(&plan, &sizes, Scheduler::Best, InPlacePolicy::Never);
            let direct = footprint_reference(&g, &bind, Scheduler::Best).unwrap();
            assert_eq!(via_plan.peak_bytes, direct.peak_bytes);
            assert_eq!(via_plan.schedule, direct.schedule);
            assert_eq!(via_plan.persistent_bytes, direct.persistent_bytes);
        }
    }

    #[test]
    fn best_shares_sizes_and_matches_reference() {
        let g = equivalence_graph();
        let bind = Bindings::new().with("eq_b", 8.0);
        let fast = footprint(&g, &bind, Scheduler::Best).unwrap();
        let reference = footprint_reference(&g, &bind, Scheduler::Best).unwrap();
        assert_eq!(fast.peak_bytes, reference.peak_bytes);
        assert_eq!(fast.schedule, reference.schedule);
    }

    #[test]
    fn footprint_scales_with_batch_binding() {
        let mut g = Graph::new("scale");
        let b = Expr::sym("fp_b");
        let x = g.input("x", [b, Expr::int(1024)], DType::F32).unwrap();
        let _y = g.unary("relu", PointwiseFn::Relu, x).unwrap();
        let r1 = footprint(
            &g,
            &Bindings::new().with("fp_b", 1.0),
            Scheduler::ProgramOrder,
        )
        .unwrap();
        let r4 = footprint(
            &g,
            &Bindings::new().with("fp_b", 4.0),
            Scheduler::ProgramOrder,
        )
        .unwrap();
        assert_eq!(r4.peak_bytes, 4 * r1.peak_bytes);
    }
}

#[cfg(test)]
mod in_place_tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::PointwiseFn;
    use crate::tensor::DType;
    use symath::Expr;

    const MB: u64 = 256 * 1024 * 4;

    #[test]
    fn relu_chain_runs_in_one_buffer() {
        // x -> relu -> relu -> relu: with in-place execution the whole chain
        // needs a single 1 MB buffer; the conservative model needs two.
        let mut g = Graph::new("ipchain");
        let x = g
            .input("x", [Expr::int(256), Expr::int(1024)], DType::F32)
            .unwrap();
        let mut t = x;
        for i in 0..3 {
            t = g.unary(&format!("relu{i}"), PointwiseFn::Relu, t).unwrap();
        }
        let never = footprint_with(
            &g,
            &Bindings::new(),
            Scheduler::ProgramOrder,
            InPlacePolicy::Never,
        )
        .unwrap();
        let ip = footprint_with(
            &g,
            &Bindings::new(),
            Scheduler::ProgramOrder,
            InPlacePolicy::Elementwise,
        )
        .unwrap();
        assert_eq!(never.peak_bytes, 2 * MB);
        assert_eq!(ip.peak_bytes, MB);
    }

    #[test]
    fn fanout_blocks_in_place_reuse() {
        // x feeds two consumers: the first cannot overwrite it.
        let mut g = Graph::new("ipfan");
        let x = g
            .input("x", [Expr::int(256), Expr::int(1024)], DType::F32)
            .unwrap();
        let a = g.unary("a", PointwiseFn::Relu, x).unwrap();
        let _b = g.binary("join", PointwiseFn::Add, a, x).unwrap();
        let ip = footprint_with(
            &g,
            &Bindings::new(),
            Scheduler::ProgramOrder,
            InPlacePolicy::Elementwise,
        )
        .unwrap();
        // `a` must allocate (x still live for join); join may reuse.
        assert_eq!(ip.peak_bytes, 2 * MB);
    }

    #[test]
    fn matmul_never_runs_in_place() {
        let mut g = Graph::new("ipmm");
        let x = g
            .input("x", [Expr::int(512), Expr::int(512)], DType::F32)
            .unwrap();
        let w = g.weight("w", [Expr::int(512), Expr::int(512)]).unwrap();
        let _y = g.matmul("mm", x, w, false, false).unwrap();
        let never = footprint_with(
            &g,
            &Bindings::new(),
            Scheduler::ProgramOrder,
            InPlacePolicy::Never,
        )
        .unwrap();
        let ip = footprint_with(
            &g,
            &Bindings::new(),
            Scheduler::ProgramOrder,
            InPlacePolicy::Elementwise,
        )
        .unwrap();
        assert_eq!(never.peak_bytes, ip.peak_bytes);
    }

    #[test]
    fn in_place_never_exceeds_conservative_on_training_graphs() {
        use crate::autodiff::build_training_step;
        let mut g = Graph::new("iptrain");
        let b = Expr::sym("ip_b");
        let mut t = g
            .input("x", [b.clone(), Expr::int(64)], DType::F32)
            .unwrap();
        for i in 0..3 {
            let w = g
                .weight(format!("w{i}"), [Expr::int(64), Expr::int(64)])
                .unwrap();
            t = g.matmul(&format!("fc{i}"), t, w, false, false).unwrap();
            t = g.unary(&format!("act{i}"), PointwiseFn::Tanh, t).unwrap();
        }
        let labels = g.input("y", [b], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", t, labels).unwrap();
        build_training_step(&mut g, loss).unwrap();
        let bind = Bindings::new().with("ip_b", 32.0);
        let never = footprint_with(&g, &bind, Scheduler::Best, InPlacePolicy::Never).unwrap();
        let ip = footprint_with(&g, &bind, Scheduler::Best, InPlacePolicy::Elementwise).unwrap();
        assert!(ip.peak_bytes <= never.peak_bytes);
        assert!(ip.peak_bytes > 0);
    }
}
