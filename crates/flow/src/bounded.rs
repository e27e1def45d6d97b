//! Capacity-bounded minimum cut with warm starts.
//!
//! The Capacity DAG of `GetNextPareto` gives every critical computation an
//! upper flow bound (its speed-up cost `e⁺`, or "unbounded" when it cannot
//! be sped up). [`BoundedFlowProblem`] describes such a network,
//! [`BoundedFlowProblem::solve`] finds its maximum flow and the minimal
//! source-side minimum cut, and a [`WarmStart`] handle lets consecutive
//! Phillips–Dessouky iterations re-augment from the previous flow instead
//! of solving from zero.
//!
//! Paper Eq. 8 also gives each edge a *lower* bound (the slowdown reward
//! `e⁻`), solved by Algorithm 3's feasibility phase. This crate does not
//! implement that phase: the planner relaxes every lower bound to zero and
//! reclaims the slowdowns with a stretch pass instead (see the
//! `perseus-core` cut docs).

use std::fmt;

use perseus_telemetry::Telemetry;

use crate::graph::FlowGraph;

/// One edge of a bounded flow problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedEdge {
    /// Tail node.
    pub src: usize,
    /// Head node.
    pub dst: usize,
    /// Maximum flow this edge admits. Use [`BoundedFlowProblem::unbounded`]
    /// as a stand-in for infinity; the solver substitutes a capacity that
    /// can never bind.
    pub upper: f64,
}

/// Errors from the bounded max-flow solver.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// An edge endpoint is out of range, or its bound is negative/NaN.
    InvalidBounds { edge: usize },
    /// Source or sink index out of range, or `s == t`.
    InvalidTerminals,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidBounds { edge } => write!(f, "edge {edge} has invalid bounds"),
            FlowError::InvalidTerminals => write!(f, "invalid source/sink"),
        }
    }
}

impl std::error::Error for FlowError {}

/// A max-flow problem over nodes `0..n` whose edges carry an upper flow
/// bound (capacity).
#[derive(Debug, Clone, Default)]
pub struct BoundedFlowProblem {
    n: usize,
    edges: Vec<BoundedEdge>,
}

/// Solution of a [`BoundedFlowProblem`].
#[derive(Debug, Clone, Default)]
pub struct BoundedFlowSolution {
    /// Value of the maximum `s -> t` flow.
    pub value: f64,
    /// `source_side[v]` is true iff `v` lies on the source side of the
    /// minimum cut (reachable from `s` in the final residual network).
    pub source_side: Vec<bool>,
    /// Augmenting paths the solve pushed.
    pub augmenting_paths: u64,
}

impl BoundedFlowSolution {
    /// Edges crossing the cut forward (source side -> sink side), written
    /// into a caller-owned scratch buffer. In the Capacity DAG these are
    /// the computations to **speed up** by `τ`.
    pub fn forward_cut_edges_into(&self, problem: &BoundedFlowProblem, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            problem
                .edges
                .iter()
                .enumerate()
                .filter(|(_, e)| self.source_side[e.src] && !self.source_side[e.dst])
                .map(|(i, _)| i),
        );
    }

    /// Edges crossing the cut backward (sink side -> source side), written
    /// into a caller-owned scratch buffer. In the Capacity DAG these are
    /// the computations to **slow down** by `τ`.
    pub fn backward_cut_edges_into(&self, problem: &BoundedFlowProblem, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            problem
                .edges
                .iter()
                .enumerate()
                .filter(|(_, e)| !self.source_side[e.src] && self.source_side[e.dst])
                .map(|(i, _)| i),
        );
    }
}

/// Reusable state for [`BoundedFlowProblem::solve`]: the [`FlowGraph`] of
/// the previous solve plus its topology signature. When consecutive
/// problems share a topology (same node count, same edge endpoints in the
/// same order) and differ only in capacities — exactly the shape of
/// consecutive Phillips–Dessouky iterations — the cached graph is retuned
/// in place and re-augmented from the previous flow instead of rebuilt and
/// solved from zero.
#[derive(Debug, Default)]
pub struct WarmStart {
    graph: Option<FlowGraph>,
    sig_n: usize,
    /// `(src, dst)` of every edge the cached graph was built for.
    sig: Vec<(usize, usize)>,
    seen: Vec<bool>,
    stack: Vec<usize>,
    /// Solves that reused the cached flow.
    pub hits: u64,
    /// Solves that (re)built the graph from scratch.
    pub misses: u64,
}

impl WarmStart {
    /// An empty handle; the first solve through it is always cold.
    pub fn new() -> WarmStart {
        WarmStart::default()
    }

    /// Drops the cached graph so the next solve rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.graph = None;
        self.sig.clear();
        self.sig_n = 0;
    }

    fn matches(&self, problem: &BoundedFlowProblem) -> bool {
        self.graph.is_some()
            && self.sig_n == problem.n
            && self.sig.len() == problem.edges.len()
            && self
                .sig
                .iter()
                .zip(&problem.edges)
                .all(|(sig, e)| *sig == (e.src, e.dst))
    }
}

impl BoundedFlowProblem {
    /// Creates an empty problem over `n` nodes.
    pub fn new(n: usize) -> Self {
        BoundedFlowProblem {
            n,
            edges: Vec::new(),
        }
    }

    /// Sentinel upper bound meaning "unconstrained". The solver replaces it
    /// with a finite capacity exceeding any possible flow, so min-cut sides
    /// never include such an edge in a finite cut.
    pub fn unbounded() -> f64 {
        f64::INFINITY
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Edges added so far.
    pub fn edges(&self) -> &[BoundedEdge] {
        &self.edges
    }

    /// Clears the problem for reuse over `n` nodes, keeping the edge
    /// allocation (arena-style rebuilds in the Phillips–Dessouky loop).
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.edges.clear();
    }

    /// Adds an edge with capacity `upper`; returns its index.
    pub fn add_edge(&mut self, src: usize, dst: usize, upper: f64) -> usize {
        self.edges.push(BoundedEdge { src, dst, upper });
        self.edges.len() - 1
    }

    fn validate(&self, s: usize, t: usize) -> Result<(), FlowError> {
        if s >= self.n || t >= self.n || s == t {
            return Err(FlowError::InvalidTerminals);
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.src >= self.n || e.dst >= self.n || e.upper.is_nan() || e.upper < 0.0 {
                return Err(FlowError::InvalidBounds { edge: i });
            }
        }
        Ok(())
    }

    /// Finite stand-in for infinite capacity: larger than any flow that the
    /// finite edges can carry, but small enough to keep `f64` arithmetic
    /// accurate at the problem's own scale.
    fn big(&self) -> f64 {
        let mut total = 1.0;
        for e in &self.edges {
            if e.upper.is_finite() {
                total += e.upper;
            }
        }
        total * 4.0
    }

    /// Solves max `s -> t` flow subject to the edge capacities, writing the
    /// minimum cut into `out`. Returns `Ok(true)` when `warm`'s cached flow
    /// was reused ([`FlowGraph::retune_edge`] +
    /// [`FlowGraph::max_flow_incremental_with`]), `Ok(false)` on a cold
    /// (re)build. Call [`WarmStart::invalidate`] first to force a cold
    /// solve.
    ///
    /// The minimal source-side min cut is unique across all maximum flows,
    /// so `out.source_side` (and everything derived from it) is identical
    /// on the warm and cold paths; `out.value` agrees up to the rounding of
    /// a different augmentation order.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidBounds`] / [`FlowError::InvalidTerminals`] on
    /// malformed input.
    pub fn solve(
        &self,
        s: usize,
        t: usize,
        warm: &mut WarmStart,
        out: &mut BoundedFlowSolution,
        telemetry: &Telemetry,
    ) -> Result<bool, FlowError> {
        if telemetry.is_enabled() {
            telemetry.counter("perseus_flow_bounded_solves_total").inc();
        }
        self.validate(s, t)?;
        let big = self.big();
        let cap = |u: f64| if u.is_finite() { u } else { big };

        let hit = warm.matches(self);
        if hit {
            warm.hits += 1;
            let g = warm
                .graph
                .as_mut()
                .expect("matches() implies a cached graph");
            for (i, e) in self.edges.iter().enumerate() {
                g.retune_edge(i, cap(e.upper));
            }
            g.max_flow_incremental_with(s, t, telemetry);
        } else {
            warm.misses += 1;
            let mut g = FlowGraph::new(self.n);
            for e in &self.edges {
                g.add_edge(e.src, e.dst, cap(e.upper));
            }
            g.max_flow_with(s, t, telemetry);
            warm.sig_n = self.n;
            warm.sig.clear();
            warm.sig.extend(self.edges.iter().map(|e| (e.src, e.dst)));
            warm.graph = Some(g);
        }

        let WarmStart {
            graph, seen, stack, ..
        } = warm;
        let g = graph.as_ref().expect("graph cached just above");
        g.residual_reachable_into(s, seen, stack);
        out.source_side.clear();
        out.source_side.extend_from_slice(seen);
        out.value = g.flow_value(s);
        out.augmenting_paths = g.last_augmentations();
        Ok(hit)
    }

    /// Capacity of the cut described by `source_side`: the sum of the
    /// upper bounds of forward-crossing edges. Infinite if a forward edge
    /// is unbounded.
    pub fn cut_capacity(&self, source_side: &[bool]) -> f64 {
        self.edges
            .iter()
            .filter(|e| source_side[e.src] && !source_side[e.dst])
            .map(|e| e.upper)
            .sum()
    }
}
