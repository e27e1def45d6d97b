//! Input generation and output checks shared by the workloads. Inputs go
//! through the public model → partition → pipeline → profile path a user
//! of the library takes; checks compare outputs bit for bit.

use std::hint::black_box;
use std::time::Instant;

use perseus_baselines::AllMaxFreq;
use perseus_core::{EnergySchedule, ParetoFrontier, PlanContext, Planner};
use perseus_dag::{CriticalDag, Dag, EdgeId, NodeId, TimingAnalysis};
use perseus_gpu::GpuSpec;
use perseus_models::{min_imbalance_partition, ModelSpec, StageWorkloads};
use perseus_pipeline::{CompKind, OpKey, PipeNode, PipelineBuilder, PipelineDag, ScheduleKind};
use perseus_profiler::{OpProfile, ProfileDb};

use crate::trace::Tracer;
use crate::util::{Digest, Rng};

/// One job structure: a model split over `stages` stages and run as a
/// 1F1B pipeline of `microbatches` microbatches on `gpu`.
pub struct Job {
    pub pipe: PipelineDag,
    pub stages: Vec<StageWorkloads>,
    pub gpu: GpuSpec,
}

impl Job {
    /// Partitions `model` (the `models` layer) and builds the pipeline DAG
    /// (the `pipeline` layer), each under its own span.
    pub fn build(
        tr: &Tracer,
        parent: Option<u32>,
        model: &ModelSpec,
        gpu: &GpuSpec,
        stages: usize,
        microbatches: usize,
    ) -> Job {
        let stage_loads = tr.span("models.partition", 0, parent, |_| {
            let weights = model.fwd_latency_weights(gpu);
            let partition = min_imbalance_partition(&weights, stages).expect("partition");
            model
                .stage_workloads(&partition, gpu)
                .expect("stage workloads")
        });
        let pipe = tr.span("pipeline.build", 0, parent, |_| {
            PipelineBuilder::new(ScheduleKind::OneFOneB, stages, microbatches)
                .build()
                .expect("pipeline")
        });
        Job {
            pipe,
            stages: stage_loads,
            gpu: gpu.clone(),
        }
    }

    /// The job's profile database, with profiles inserted in an order
    /// drawn from `rng` (a user's profiler reports them in no fixed
    /// order). The insertion order is fed to `digest`.
    pub fn profiles(&self, rng: &mut Rng, digest: &mut Digest) -> ProfileDb<OpKey> {
        let kinds = [CompKind::Forward, CompKind::Backward, CompKind::Recompute];
        let mut order: Vec<(usize, usize)> = (0..self.stages.len())
            .flat_map(|s| (0..kinds.len()).map(move |k| (s, k)))
            .collect();
        rng.shuffle(&mut order);
        let mut db = ProfileDb::new();
        for (stage, k) in order {
            digest.feed_u64((stage * kinds.len() + k) as u64);
            let sw = &self.stages[stage];
            let work = if kinds[k] == CompKind::Backward {
                &sw.bwd
            } else {
                &sw.fwd
            };
            db.insert(
                OpKey {
                    stage,
                    chunk: 0,
                    kind: kinds[k],
                },
                OpProfile::from_model(&self.gpu, work),
            );
        }
        db
    }
}

/// The all-max-frequency schedule: the baseline every savings figure is
/// measured against.
pub fn all_max(ctx: &PlanContext<'_>) -> EnergySchedule {
    AllMaxFreq
        .plan(ctx)
        .expect("all-max-frequency plan")
        .select(None)
        .clone()
}

/// Energy savings of `schedule` over the `all_max` baseline at the same
/// straggler iteration time `t_prime` (`None` = intrinsic savings), in %.
pub fn savings_pct(
    ctx: &PlanContext<'_>,
    all_max: &EnergySchedule,
    schedule: &EnergySchedule,
    t_prime: Option<f64>,
) -> f64 {
    let base_j = all_max.energy_report(ctx, t_prime).total_j();
    let ours_j = schedule.energy_report(ctx, t_prime).total_j();
    100.0 * (1.0 - ours_j / base_j)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two schedules are bit-identical in every field.
pub fn same_schedule(a: &EnergySchedule, b: &EnergySchedule) -> bool {
    a.time_s.to_bits() == b.time_s.to_bits()
        && a.compute_j.to_bits() == b.compute_j.to_bits()
        && a.freqs == b.freqs
        && same_bits(&a.planned, &b.planned)
        && same_bits(&a.realized_dur, &b.realized_dur)
        && same_bits(&a.realized_energy, &b.realized_energy)
}

/// Whether two frontiers are bit-identical, point by point.
pub fn same_frontier(a: &ParetoFrontier, b: &ParetoFrontier) -> bool {
    a.len() == b.len()
        && a.points().iter().zip(b.points()).all(|(p, q)| {
            p.planned_time_s.to_bits() == q.planned_time_s.to_bits()
                && p.planned_energy_j.to_bits() == q.planned_energy_j.to_bits()
                && same_schedule(&p.schedule, &q.schedule)
        })
}

/// Whether the frontier ascends strictly in time and descends strictly in
/// planned energy.
pub fn is_pareto(f: &ParetoFrontier) -> bool {
    f.points().windows(2).all(|w| {
        w[0].planned_time_s < w[1].planned_time_s && w[0].planned_energy_j > w[1].planned_energy_j
    })
}

/// Dense in-memory size of a frontier's schedules, in MB: every per-node
/// vector of every point, from public fields.
pub fn frontier_mb(f: &ParetoFrontier) -> f64 {
    let bytes: usize = f
        .points()
        .iter()
        .map(|p| {
            let s = &p.schedule;
            8 * (s.planned.len() + s.realized_dur.len() + s.realized_energy.len())
                + std::mem::size_of_val(s.freqs.as_slice())
        })
        .sum();
    bytes as f64 / 1e6
}

/// The edge-centric view of a pipeline DAG that the solver's timing passes
/// run over: node `v` becomes `v_in -> v_out` carrying `v`'s duration, and
/// each dependency a zero-length edge. Built here from public `dag` types
/// so the `dag` layer can be timed on its own.
pub struct EdgeCentric {
    pub graph: Dag<(), f64>,
}

impl EdgeCentric {
    pub fn new(pipe: &PipelineDag, durations: &[f64]) -> EdgeCentric {
        let n = pipe.dag.node_count();
        let mut graph: Dag<(), f64> = Dag::with_capacity(2 * n, n + pipe.dag.edge_count());
        let mut halves: Vec<(NodeId, NodeId)> = Vec::with_capacity(n);
        for id in pipe.dag.node_ids() {
            let (v_in, v_out) = (graph.add_node(()), graph.add_node(()));
            let d = match pipe.dag.node(id) {
                PipeNode::Comp(_) => durations[id.index()],
                PipeNode::Fixed { time_s, .. } => *time_s,
                _ => 0.0,
            };
            graph.add_edge_unchecked(v_in, v_out, d);
            halves.push((v_in, v_out));
        }
        for e in pipe.dag.edge_refs() {
            graph.add_edge_unchecked(halves[e.src.index()].1, halves[e.dst.index()].0, 0.0);
        }
        EdgeCentric { graph }
    }

    /// One full forward/backward timing pass.
    pub fn timing(&self) -> TimingAnalysis {
        TimingAnalysis::compute(&self.graph, |_: EdgeId, d: &f64| *d).expect("acyclic")
    }

    /// One critical sub-DAG extraction at slack tolerance `tol`.
    pub fn critical(&self, timing: &TimingAnalysis, tol: f64) -> CriticalDag<(), f64> {
        CriticalDag::extract(&self.graph, timing, |_: EdgeId, d: &f64| *d, tol)
    }
}

/// Per-call cost of the two steps every deployment takes on the serving
/// path: the frontier `lookup_index` (µs per call, median over batches of
/// 1000 straggler times) and one clone of a deployed schedule (µs per
/// clone, median over batches of 100).
pub fn lookup_and_clone_us(tr: &Tracer, f: &ParetoFrontier) -> (f64, f64) {
    let (t_min, t_star) = (f.t_min(), f.t_star());
    let mut lookup_us = Vec::new();
    let mut clone_us = Vec::new();
    for batch in 0..21usize {
        let t0 = Instant::now();
        tr.span("core.lookup", 0, None, |_| {
            let mut acc = 0usize;
            for k in 0..1000usize {
                let frac = ((batch * 1000 + k) % 997) as f64 / 997.0;
                acc += f.lookup_index(black_box(t_min + (t_star - t_min) * 1.2 * frac));
            }
            black_box(acc);
        });
        lookup_us.push(t0.elapsed().as_secs_f64() * 1e6 / 1000.0);
        let t0 = Instant::now();
        tr.span("core.schedule_clone", 0, None, |_| {
            for _ in 0..100 {
                black_box(black_box(&f.fastest().schedule).clone());
            }
        });
        clone_us.push(t0.elapsed().as_secs_f64() * 1e6 / 100.0);
    }
    (
        crate::util::quantile(&lookup_us, 0.5),
        crate::util::quantile(&clone_us, 0.5),
    )
}
