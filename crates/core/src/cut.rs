//! `GetNextPareto` (paper Algorithm 2 + Appendix D): shorten every critical
//! path by (up to) the unit time `τ` with the minimum possible energy
//! increase, via a minimum cut on the Capacity DAG.

use std::time::Instant;

use perseus_dag::{Dag, NodeId, TimingAnalysis};
use perseus_flow::{BoundedFlowProblem, BoundedFlowSolution, WarmStart};
use perseus_pipeline::PipelineDag;
use perseus_telemetry::{span, Telemetry};

use crate::context::PlanContext;

/// Payload of an edge of the edge-centric computation DAG.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EcEdge {
    /// A frequency-controllable computation (pipeline DAG node).
    Comp(NodeId),
    /// A constant-time operation: fixed duration, single frequency choice.
    Fixed(f64),
    /// A pure dependency (zero duration).
    Dep,
}

/// Result of one `GetNextPareto` step.
#[derive(Debug, Clone, PartialEq)]
pub enum CutOutcome {
    /// Durations were modified; the makespan shrank by the applied step.
    Reduced {
        /// New makespan after the modification.
        new_makespan: f64,
    },
    /// Every s-t cut crosses an unmodifiable (already-fastest or fixed)
    /// edge: the iteration time cannot be reduced further.
    AtMinimumTime,
}

/// The reusable edge-centric view of a pipeline DAG (Algorithm 2, step ②):
/// each pipeline node `v` splits into `v_in → v_out` carrying the
/// computation, and each dependency becomes a zero-duration edge. The
/// structure (and hence the topological order) never changes across
/// frontier iterations — only durations do — so
/// [`characterize`](crate::characterize) builds it once.
#[derive(Debug, Clone)]
pub struct CutSolver {
    ec: Dag<(), EcEdge>,
    halves: Vec<(NodeId, NodeId)>,
    order: Vec<NodeId>,
}

impl EcEdge {
    /// Current duration of this edge under the planned pipeline durations.
    #[inline]
    fn duration(&self, planned: &[f64]) -> f64 {
        match self {
            EcEdge::Comp(n) => planned[n.index()],
            EcEdge::Fixed(t) => *t,
            EcEdge::Dep => 0.0,
        }
    }
}

impl CutSolver {
    /// Builds the edge-centric DAG for `pipe`.
    pub fn new(pipe: &PipelineDag) -> CutSolver {
        let (ec, halves) = edge_centric(pipe);
        let order = ec.topo_order().expect("pipeline DAGs are acyclic");
        CutSolver { ec, halves, order }
    }
}

fn edge_centric(pipe: &PipelineDag) -> (Dag<(), EcEdge>, Vec<(NodeId, NodeId)>) {
    let mut ec: Dag<(), EcEdge> = Dag::with_capacity(
        2 * pipe.dag.node_count(),
        pipe.dag.node_count() + pipe.dag.edge_count(),
    );
    let mut halves = Vec::with_capacity(pipe.dag.node_count());
    for id in pipe.dag.node_ids() {
        let v_in = ec.add_node(());
        let v_out = ec.add_node(());
        let payload = match pipe.dag.node(id) {
            perseus_pipeline::PipeNode::Comp(_) => EcEdge::Comp(id),
            perseus_pipeline::PipeNode::Fixed { time_s, .. } => EcEdge::Fixed(*time_s),
            _ => EcEdge::Dep,
        };
        ec.add_edge_unchecked(v_in, v_out, payload);
        halves.push((v_in, v_out));
    }
    for e in pipe.dag.edge_refs() {
        let (_, u_out) = halves[e.src.index()];
        let (v_in, _) = halves[e.dst.index()];
        ec.add_edge_unchecked(u_out, v_in, EcEdge::Dep);
    }
    (ec, halves)
}

/// Counters accumulated by a [`SolverArena`] across Phillips–Dessouky
/// iterations. `augmenting_paths_saved` estimates the searches a warm hit
/// avoided as the path count of the most recent cold solve minus the hit's
/// own count (the honest measurement — actual cold vs warm full-frontier
/// totals — is what the `solver_suite` bench gates on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bounded min-cut solves performed.
    pub solves: u64,
    /// Solves that reused the previous iteration's flow.
    pub warm_start_hits: u64,
    /// Augmenting paths actually searched, warm and cold combined.
    pub augmenting_paths: u64,
    /// Estimated paths avoided by warm starts (see type docs).
    pub augmenting_paths_saved: u64,
    /// Forward/backward critical-path passes over the edge-centric DAG
    /// (exactly one per step).
    pub full_timing_passes: u64,
    /// Forward-only makespan passes of the post-cut re-check (one or two
    /// per step that applies a cut).
    pub forward_timing_passes: u64,
}

/// A phase of one characterization, for wall-time attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Forward/backward timing pass (and the sweep's own bookkeeping).
    Timing,
    /// Critical-edge mask and per-node critical degrees.
    Critical,
    /// Capacities and series contraction into the flow problem.
    Contract,
    /// Max-flow solve and min-cut extraction.
    CutSolve,
    /// Applying the cut and the forward-only makespan re-check.
    Recheck,
    /// Stretch-into-slack pass and recording the step's durations.
    Stretch,
    /// Lowering the kept points to frequencies after the sweep.
    Realize,
}

/// `phase` label of each [`Phase`], indexed by discriminant.
const PHASE_LABELS: [&str; 7] = [
    "timing",
    "critical",
    "contract",
    "cut_solve",
    "recheck",
    "stretch",
    "realize",
];

/// Lap timer attributing a characterization's wall time to [`Phase`]s:
/// each [`PhaseClock::lap`] charges the time since the previous lap to the
/// named phase. It reads the clock only once started on enabled
/// telemetry, so disabled telemetry never pays for it.
#[derive(Debug, Default)]
pub(crate) struct PhaseClock {
    last: Option<Instant>,
    secs: [f64; PHASE_LABELS.len()],
}

impl PhaseClock {
    /// Starts the clock if `telemetry` records and it is not running yet.
    pub(crate) fn start(&mut self, telemetry: &Telemetry) {
        if self.last.is_none() {
            self.last = telemetry.now();
        }
    }

    /// Charges the time since the previous lap to `phase`.
    #[inline]
    pub(crate) fn lap(&mut self, phase: Phase) {
        if let Some(last) = self.last {
            let now = Instant::now();
            self.secs[phase as usize] += now.duration_since(last).as_secs_f64();
            self.last = Some(now);
        }
    }

    /// Adds the accumulated seconds to
    /// `perseus_characterize_phase_seconds_total{phase}`.
    pub(crate) fn emit(&self, telemetry: &Telemetry) {
        for (label, secs) in PHASE_LABELS.iter().zip(self.secs) {
            telemetry
                .float_counter_with(
                    "perseus_characterize_phase_seconds_total",
                    &[("phase", label)],
                )
                .add(secs);
        }
    }
}

/// Preallocated workspace for the Phillips–Dessouky iteration: every
/// buffer `get_next_pareto_arena` needs — the timing passes, the
/// critical-edge mask over the fixed edge-centric DAG, the per-node
/// capacity cache, the compacted [`BoundedFlowProblem`] and its solution,
/// the contraction maps, cut scratch — plus the [`WarmStart`] handle that
/// carries the previous iteration's max flow forward. Build one per
/// pipeline characterization and reuse it across all frontier steps;
/// consecutive steps patch capacities into the same buffers instead of
/// reallocating, and (while the critical topology is stable) re-augment
/// instead of re-solving. An arena serves one [`PlanContext`]: its
/// capacity cache is keyed by planned durations and τ only.
#[derive(Debug)]
pub struct SolverArena {
    warm: WarmStart,
    warm_enabled: bool,
    problem: BoundedFlowProblem,
    sol: BoundedFlowSolution,
    /// Duration of every edge-centric edge at the current step.
    edge_dur: Vec<f64>,
    /// Event times of the step's full pass; the re-check overwrites
    /// `earliest` once the critical mask is built.
    timing: TimingAnalysis,
    /// Critical-edge mask over the edge-centric DAG.
    critical: Vec<bool>,
    /// Critical in/out degree of every edge-centric node.
    crit_in: Vec<u32>,
    crit_out: Vec<u32>,
    /// Per pipeline node: the capacity annotation last computed for it,
    /// keyed by the planned duration's bits.
    cap_cache: Vec<Option<(u64, EdgeCap)>>,
    /// τ bits the cache was filled under.
    cap_tau: u64,
    contractible: Vec<bool>,
    compact: Vec<Option<usize>>,
    edge_meta: Vec<(Option<NodeId>, Option<NodeId>)>,
    cut_scratch: Vec<usize>,
    speed_targets: Vec<NodeId>,
    backup: Vec<(NodeId, f64)>,
    /// Path count of the most recent cold solve (the per-hit savings
    /// baseline).
    last_cold_paths: u64,
    stats: ArenaStats,
    pub(crate) clock: PhaseClock,
}

impl Default for SolverArena {
    fn default() -> SolverArena {
        SolverArena::new()
    }
}

impl SolverArena {
    /// A fresh arena with warm starting enabled.
    pub fn new() -> SolverArena {
        SolverArena {
            warm: WarmStart::new(),
            warm_enabled: true,
            problem: BoundedFlowProblem::default(),
            sol: BoundedFlowSolution::default(),
            edge_dur: Vec::new(),
            timing: TimingAnalysis::default(),
            critical: Vec::new(),
            crit_in: Vec::new(),
            crit_out: Vec::new(),
            cap_cache: Vec::new(),
            cap_tau: 0,
            contractible: Vec::new(),
            compact: Vec::new(),
            edge_meta: Vec::new(),
            cut_scratch: Vec::new(),
            speed_targets: Vec::new(),
            backup: Vec::new(),
            last_cold_paths: 0,
            stats: ArenaStats::default(),
            clock: PhaseClock::default(),
        }
    }

    /// Enables or disables warm starting. Disabled, every solve first
    /// invalidates the [`WarmStart`] handle, so the same solve call
    /// rebuilds the flow network from scratch — the cold baseline the
    /// `solver_suite` bench compares against. Outputs are identical either
    /// way; only the work differs.
    pub fn set_warm(&mut self, enabled: bool) {
        self.warm_enabled = enabled;
        if !enabled {
            self.warm.invalidate();
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

/// Capacity-DAG annotation of one critical edge before contraction.
#[derive(Debug, Clone, Copy)]
struct EdgeCap {
    upper: f64,
    /// Node to speed up if a forward cut selects this edge.
    speed: Option<NodeId>,
    /// Node to slow down if a backward cut crosses this edge.
    slow: Option<NodeId>,
    /// Energy reclaimed per τ of slowing `slow` (tie-break for chains).
    slow_gain: f64,
}

impl EdgeCap {
    /// An unmodifiable edge: unbounded capacity, nothing to speed or slow.
    fn fixed() -> EdgeCap {
        EdgeCap {
            upper: BoundedFlowProblem::unbounded(),
            speed: None,
            slow: None,
            slow_gain: 0.0,
        }
    }

    /// Appendix D Eq. 8 capacity of computation `n` at planned duration
    /// `tcur` — a pure function of `(n, tcur, τ)`, which is what lets the
    /// arena cache it per node.
    fn of_comp(ctx: &PlanContext<'_>, n: NodeId, tcur: f64, tau: f64) -> EdgeCap {
        let info = ctx.info(n).expect("comp node has plan info");
        let tiny = tau * 1e-9;
        let can_speed = tcur > info.t_min + tiny;
        let can_slow = tcur < info.t_max - tiny;
        // Price the capacities over steps CLAMPED to the measured range,
        // normalized back to a per-τ rate so edges stay comparable.
        // Evaluating the exponential below t_min (or above t_max)
        // extrapolates where it was never fitted and can blow capacities
        // up by orders of magnitude, which both misprices the cut and
        // poisons the flow solver's relative epsilon.
        let e_plus = if can_speed {
            let t_to = (tcur - tau).max(info.t_min);
            (info.fit.energy(t_to) - info.fit.energy(tcur)).max(0.0) * (tau / (tcur - t_to))
        } else {
            0.0
        };
        let e_minus = if can_slow {
            let t_to = (tcur + tau).min(info.t_max);
            (info.fit.energy(tcur) - info.fit.energy(t_to)).max(0.0) * (tau / (t_to - tcur))
        } else {
            0.0
        };
        // The Eq. 8 slowdown rewards e⁻ are not lower bounds here: the
        // post-step stretch pass (see `characterize`) reclaims every gap a
        // backward-crossing slowdown would have exploited, because the
        // fitted energy is decreasing on [t_min, t_max] — zero-slack
        // schedules dominate. e⁻ only breaks ties for which chain member
        // to slow when a backward cut edge does appear. A computation
        // that cannot speed up (already fastest) is uncuttable.
        EdgeCap {
            upper: if can_speed {
                e_plus
            } else {
                BoundedFlowProblem::unbounded()
            },
            speed: can_speed.then_some(n),
            slow: can_slow.then_some(n),
            slow_gain: if can_slow { e_minus } else { 0.0 },
        }
    }
}

/// One step along the frontier: reduce the DAG's execution time with
/// minimal energy increase, against a prebuilt [`CutSolver`] and a
/// reusable [`SolverArena`].
///
/// `planned` holds the current planned duration of every pipeline DAG node
/// (by node index) and is modified in place on success.
///
/// The speed-up capacity of each critical computation follows Appendix D
/// Eq. 8: `e⁺ = e(t−τ) − e(t)`, read off the fitted exponential of the
/// *measured computation energy*; as in the paper, `P_blocking` stays out
/// of the capacities.
///
/// Engineering refinements over the paper's pseudocode (all standard in
/// the time–cost tradeoff literature — Phillips–Dessouky / Hochbaum
/// repeated cuts; end states are unchanged, see the inline notes):
///
/// * **Adaptive steps** — the applied step is `min(τ, smallest headroom on
///   the cut)`, so sub-τ duration crumbs never wedge the sweep.
/// * **Zero lower bounds + stretch pass** — Eq. 8's slowdown rewards `e⁻`
///   would be edge lower bounds, needing Algorithm 3's feasibility phase
///   (and a fallback when Hoffman's condition fails). They are set to
///   zero instead, so each step is a plain capacity-only min cut;
///   [`characterize`](crate::characterize) stretches every computation
///   into its schedule gap after each step, which dominates any
///   backward-crossing slowdown because fitted energy decreases on
///   `[t_min, t_max]`.
/// * **Critical-edge mask** — the Critical DAG is never materialized: one
///   timing pass marks the zero-slack edges of the fixed edge-centric DAG
///   in an arena mask, with per-node critical degrees, and contraction
///   walks that mask (nodes by ascending id, out-edges in insertion
///   order — the order a filtered copy of the graph would have).
/// * **Series contraction** — chains of degree-(1,1) nodes in the Critical
///   DAG compose as `upper = min`; a cut crosses a chain at its cheapest
///   edge.
/// * **Cached capacities** — a computation's Eq. 8 annotation is a pure
///   function of its planned duration, and a step changes only a handful
///   of durations, so the arena recomputes it only when those bits change.
/// * **Warm starts** — the compacted problem, solution, and cut buffers
///   live in the arena (capacity patches instead of rebuilds), and when
///   consecutive calls produce the same compacted topology — the common
///   case along a frontier, where only durations drift — the max flow is
///   re-augmented from the previous iteration's flow instead of re-derived
///   from zero. Output is bit-identical to the cold path: the solver
///   extracts the minimal source-side min cut, which is unique across all
///   maximum flows.
pub fn get_next_pareto_arena(
    ctx: &PlanContext<'_>,
    solver: &CutSolver,
    planned: &mut [f64],
    tau: f64,
    arena: &mut SolverArena,
    telemetry: &Telemetry,
) -> CutOutcome {
    if telemetry.is_enabled() {
        telemetry.counter("perseus_cut_solves_total").inc();
    }
    // Disjoint borrows of every arena buffer; the construction below fills
    // them in place instead of allocating.
    let SolverArena {
        warm,
        warm_enabled,
        problem,
        sol,
        edge_dur,
        timing,
        critical,
        crit_in,
        crit_out,
        cap_cache,
        cap_tau,
        contractible,
        compact,
        edge_meta,
        cut_scratch,
        speed_targets,
        backup,
        last_cold_paths,
        stats,
        clock,
    } = arena;
    clock.start(telemetry);
    let (ec, halves, order) = (&solver.ec, &solver.halves, &solver.order);

    edge_dur.clear();
    edge_dur.extend(ec.edge_refs().map(|r| r.payload.duration(planned)));
    timing.recompute(ec, order, edge_dur);
    let makespan = timing.makespan;
    stats.full_timing_passes += 1;
    clock.lap(Phase::Timing);

    // Slack below τ/2 counts as critical: folding near-critical paths into
    // the cut guarantees each iteration advances by at least ~τ/2 (instead
    // of crawling from one microscopic slack event to the next) while
    // keeping every step overshoot-free. The price is a slightly
    // conservative cut — a few more edges constrained than strictly
    // necessary — which costs marginal energy, not correctness.
    let tol = (tau * 0.5).max(makespan * 1e-12);
    critical.clear();
    crit_in.clear();
    crit_in.resize(ec.node_count(), 0);
    crit_out.clear();
    crit_out.resize(ec.node_count(), 0);
    for r in ec.edge_refs() {
        let is_critical = timing.slack(r.src, r.dst, edge_dur[r.id.index()]) <= tol;
        critical.push(is_critical);
        if is_critical {
            crit_out[r.src.index()] += 1;
            crit_in[r.dst.index()] += 1;
        }
    }
    clock.lap(Phase::Critical);

    // The split edges of the pipeline source/sink are always critical.
    let (s, _) = halves[ctx.pipe.source.index()];
    let (_, t) = halves[ctx.pipe.sink.index()];
    let on_critical = |v: NodeId| crit_in[v.index()] + crit_out[v.index()] > 0;
    if !on_critical(s) || !on_critical(t) {
        return CutOutcome::AtMinimumTime;
    }

    // Series contraction: a critical node (other than s/t) with exactly
    // one critical in-edge and one critical out-edge is a pass-through;
    // flow through a chain equals flow through each of its edges, so the
    // chain behaves like one edge with `upper = min(upper_i)` (a forward
    // cut picks the cheapest edge to speed; a backward cut slows the edge
    // with the largest reclaim). Nodes are numbered by ascending id and
    // edges emitted in insertion order, so the compacted problem — and
    // with it the warm-start topology signature — is exactly what a
    // materialized Critical DAG would produce.
    contractible.clear();
    contractible.extend(
        ec.node_ids()
            .map(|v| v != s && v != t && crit_in[v.index()] == 1 && crit_out[v.index()] == 1),
    );
    compact.clear();
    let mut n_compact = 0usize;
    compact.extend(ec.node_ids().map(|v| {
        (on_critical(v) && !contractible[v.index()]).then(|| {
            n_compact += 1;
            n_compact - 1
        })
    }));
    if cap_cache.len() != ctx.pipe.dag.node_count() || *cap_tau != tau.to_bits() {
        cap_cache.clear();
        cap_cache.resize(ctx.pipe.dag.node_count(), None);
        *cap_tau = tau.to_bits();
    }
    let mut cap_of = |e: &EcEdge| match *e {
        EcEdge::Comp(n) => {
            let key = planned[n.index()].to_bits();
            match cap_cache[n.index()] {
                Some((k, cap)) if k == key => cap,
                _ => {
                    let cap = EdgeCap::of_comp(ctx, n, planned[n.index()], tau);
                    cap_cache[n.index()] = Some((key, cap));
                    cap
                }
            }
        }
        EcEdge::Fixed(_) | EcEdge::Dep => EdgeCap::fixed(),
    };
    problem.reset(n_compact);
    // Per contracted edge: (speed target, slow target).
    edge_meta.clear();
    for u in ec.node_ids() {
        let Some(cu) = compact[u.index()] else {
            continue;
        };
        for first in ec.out_edges(u).filter(|r| critical[r.id.index()]) {
            let mut cap = cap_of(first.payload);
            let mut head = first.dst;
            while contractible[head.index()] {
                let next = ec
                    .out_edges(head)
                    .find(|r| critical[r.id.index()])
                    .expect("critical out-degree 1");
                let c = cap_of(next.payload);
                if c.upper < cap.upper {
                    cap.upper = c.upper;
                    cap.speed = c.speed;
                }
                // A backward cut slows ONE chain member; pick the one with
                // the largest reclaim.
                if c.slow_gain > cap.slow_gain {
                    cap.slow_gain = c.slow_gain;
                    cap.slow = c.slow;
                }
                head = next.dst;
            }
            problem.add_edge(
                cu,
                compact[head.index()].expect("non-contractible"),
                cap.upper,
            );
            edge_meta.push((cap.speed, cap.slow));
        }
    }
    let (s, t) = (
        compact[s.index()].expect("terminal"),
        compact[t.index()].expect("terminal"),
    );
    clock.lap(Phase::Contract);

    if !*warm_enabled {
        warm.invalidate();
    }
    stats.solves += 1;
    let solved = {
        let _span = span!(telemetry, "cut_solve");
        problem.solve(s, t, warm, sol, telemetry)
    };
    let Ok(hit) = solved else {
        clock.lap(Phase::CutSolve);
        return CutOutcome::AtMinimumTime;
    };
    let paths = sol.augmenting_paths;
    stats.augmenting_paths += paths;
    if hit {
        stats.warm_start_hits += 1;
        let saved = last_cold_paths.saturating_sub(paths);
        stats.augmenting_paths_saved += saved;
        if telemetry.is_enabled() {
            telemetry.counter("perseus_cut_warm_start_hits_total").inc();
            telemetry
                .counter("perseus_cut_augmenting_paths_saved_total")
                .add(saved);
        }
    } else {
        *last_cold_paths = paths;
    }
    if problem.cut_capacity(&sol.source_side).is_infinite() {
        clock.lap(Phase::CutSolve);
        return CutOutcome::AtMinimumTime;
    }

    // Apply: forward cut edges speed up (at their cheapest chain member),
    // backward cut edges slow down.
    sol.forward_cut_edges_into(problem, cut_scratch);
    speed_targets.clear();
    speed_targets.extend(cut_scratch.iter().filter_map(|&idx| edge_meta[idx].0));
    clock.lap(Phase::CutSolve);
    if speed_targets.is_empty() {
        // The only way to "cut" was through unmodifiable edges that the
        // capacity check let through numerically; treat as converged.
        return CutOutcome::AtMinimumTime;
    }

    // Step: τ, shrunk to the smallest headroom on the cut (Phillips–
    // Dessouky repeated cuts) so no computation is pushed below t_min.
    // Overshooting a non-critical path's slack is fine here — the stretch
    // pass that follows each step reclaims it.
    let headroom = speed_targets
        .iter()
        .map(|n| planned[n.index()] - ctx.info(*n).expect("comp").t_min)
        .fold(f64::INFINITY, f64::min);
    let delta = headroom.min(tau);
    if delta <= 0.0 {
        return CutOutcome::AtMinimumTime;
    }
    for &n in speed_targets.iter() {
        let info = ctx.info(n).expect("comp");
        planned[n.index()] = (planned[n.index()] - delta).max(info.t_min);
    }
    sol.backward_cut_edges_into(problem, cut_scratch);
    backup.clear();
    backup.extend(
        cut_scratch
            .iter()
            .filter_map(|&idx| edge_meta[idx].1)
            .map(|n| (n, planned[n.index()])),
    );
    for &(n, t_old) in backup.iter() {
        let info = ctx.info(n).expect("comp");
        planned[n.index()] = (t_old + delta).min(info.t_max);
    }

    // Defensive re-check: the theory says the makespan shrinks by δ; if a
    // numerically marginal slowdown ever lengthened it instead, revert the
    // slowdowns (keeping the speedups, which can only help). Only the
    // makespan is read, so a forward pass suffices.
    let mut recheck = |planned: &[f64]| {
        stats.forward_timing_passes += 1;
        edge_dur.clear();
        edge_dur.extend(ec.edge_refs().map(|r| r.payload.duration(planned)));
        TimingAnalysis::forward(ec, order, edge_dur, &mut timing.earliest)
    };
    let mut new_makespan = recheck(planned);
    if new_makespan > makespan - tau * 1e-6 {
        for &(n, t_old) in backup.iter() {
            planned[n.index()] = t_old;
        }
        new_makespan = recheck(planned);
    }
    clock.lap(Phase::Recheck);
    CutOutcome::Reduced { new_makespan }
}
