//! Schedule timing analysis: earliest/latest event times, slack, and the
//! *Critical DAG* extraction used by `GetNextPareto` (paper Algorithm 2,
//! steps ② and ③).
//!
//! The analysis operates on an **edge-centric** DAG: nodes are dependency
//! events, and each edge carries a duration (a computation, or a
//! zero-duration pure dependency). Earliest event times double as the
//! execution start times of the schedule, because pipeline DAGs encode
//! per-stage serialization as explicit edges.

use crate::graph::{Dag, DagError, EdgeId, NodeId};

/// Result of a forward/backward pass over an edge-weighted DAG.
#[derive(Debug, Clone, Default)]
pub struct TimingAnalysis {
    /// Earliest time each node (event) can occur.
    pub earliest: Vec<f64>,
    /// Latest time each node can occur without extending the makespan.
    pub latest: Vec<f64>,
    /// Total schedule length (`earliest` of the latest sink).
    pub makespan: f64,
}

impl TimingAnalysis {
    /// Runs the critical-path-method pass over `dag`, reading each edge's
    /// duration through `dur`.
    ///
    /// All sources are pinned to time 0 and all sinks to the makespan.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Cyclic`] if the graph is not acyclic.
    pub fn compute<N, E>(
        dag: &Dag<N, E>,
        dur: impl FnMut(EdgeId, &E) -> f64,
    ) -> Result<TimingAnalysis, DagError> {
        let order = dag.topo_order()?;
        Ok(Self::compute_with_order(dag, &order, dur))
    }

    /// [`TimingAnalysis::compute`] with a precomputed topological order —
    /// the fast path for repeated passes over a structurally static graph.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `order` covers every node exactly once.
    pub fn compute_with_order<N, E>(
        dag: &Dag<N, E>,
        order: &[NodeId],
        mut dur: impl FnMut(EdgeId, &E) -> f64,
    ) -> TimingAnalysis {
        // Cache durations so the closure runs once per edge.
        let durations: Vec<f64> = dag.edge_refs().map(|r| dur(r.id, r.payload)).collect();
        let mut timing = TimingAnalysis::default();
        timing.recompute(dag, order, &durations);
        timing
    }

    /// [`TimingAnalysis::compute_with_order`] in place, reading each edge's
    /// duration from `durations` (indexed by edge id) and reusing this
    /// analysis's buffers — the allocation-free form for a pass per
    /// iteration over a structurally static graph.
    pub fn recompute<N, E>(&mut self, dag: &Dag<N, E>, order: &[NodeId], durations: &[f64]) {
        self.makespan = Self::forward(dag, order, durations, &mut self.earliest);
        self.latest.clear();
        self.latest.resize(dag.node_count(), self.makespan);
        for &u in order.iter().rev() {
            for e in dag.out_edges(u) {
                let cand = self.latest[e.dst.index()] - durations[e.id.index()];
                if cand < self.latest[u.index()] {
                    self.latest[u.index()] = cand;
                }
            }
        }
    }

    /// The forward half alone: writes earliest event times into
    /// `earliest` and returns the makespan, for callers that need only
    /// the schedule length.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `order` covers every node exactly once.
    pub fn forward<N, E>(
        dag: &Dag<N, E>,
        order: &[NodeId],
        durations: &[f64],
        earliest: &mut Vec<f64>,
    ) -> f64 {
        debug_assert_eq!(order.len(), dag.node_count());
        earliest.clear();
        earliest.resize(dag.node_count(), 0.0);
        for &u in order {
            for e in dag.out_edges(u) {
                let cand = earliest[u.index()] + durations[e.id.index()];
                if cand > earliest[e.dst.index()] {
                    earliest[e.dst.index()] = cand;
                }
            }
        }
        earliest.iter().copied().fold(0.0, f64::max)
    }

    /// Slack of edge `e = (u, v)` with duration `d`:
    /// `latest[v] - earliest[u] - d`. Zero (within tolerance) means the edge
    /// lies on a critical path.
    pub fn slack(&self, src: NodeId, dst: NodeId, duration: f64) -> f64 {
        self.latest[dst.index()] - self.earliest[src.index()] - duration
    }

    /// True iff the node's occurrence time is fixed (it lies on every
    /// timing-feasible schedule at the same instant).
    pub fn node_is_critical(&self, n: NodeId, tol: f64) -> bool {
        (self.latest[n.index()] - self.earliest[n.index()]).abs() <= tol
    }
}

/// The critical sub-DAG of an edge-centric computation DAG: every edge with
/// zero slack, i.e. every computation that lies on some critical path.
///
/// Reducing the makespan of the full DAG by `τ` is exactly reducing the
/// length of *all* critical paths by `τ` (paper §4.3), so the cut search
/// only needs this subgraph.
#[derive(Debug, Clone)]
pub struct CriticalDag<N, E> {
    /// The filtered graph containing only critical edges.
    pub graph: Dag<N, E>,
    /// Old node id -> new node id (None if dropped).
    pub node_map: Vec<Option<NodeId>>,
    /// For each edge in `graph`, the id of the originating edge in the
    /// full DAG.
    pub edge_origin: Vec<EdgeId>,
}

impl<N: Clone, E: Clone> CriticalDag<N, E> {
    /// Extracts the critical sub-DAG.
    ///
    /// `timing` must come from [`TimingAnalysis::compute`] over the same
    /// graph with the same durations; `tol` is the absolute slack tolerance
    /// below which an edge counts as critical (pick a small fraction of the
    /// unit time `τ`).
    pub fn extract<F>(
        dag: &Dag<N, E>,
        timing: &TimingAnalysis,
        mut dur: F,
        tol: f64,
    ) -> CriticalDag<N, E>
    where
        F: FnMut(EdgeId, &E) -> f64,
    {
        let mut critical = vec![false; dag.edge_count()];
        for r in dag.edge_refs() {
            let d = dur(r.id, r.payload);
            critical[r.id.index()] = timing.slack(r.src, r.dst, d) <= tol;
        }
        let (graph, node_map) = dag.filter_edges(|r| critical[r.id.index()], |_| false);
        // Recover edge origins: filter_edges preserves edge insertion order.
        let mut edge_origin = Vec::with_capacity(graph.edge_count());
        for r in dag.edge_refs() {
            if critical[r.id.index()] {
                edge_origin.push(r.id);
            }
        }
        debug_assert_eq!(edge_origin.len(), graph.edge_count());
        CriticalDag {
            graph,
            node_map,
            edge_origin,
        }
    }
}
