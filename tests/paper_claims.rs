//! Cross-crate checks of the paper's headline claims, on scaled-down
//! configurations so they run quickly in debug builds.

use perseus::baselines::{AllMaxFreq, EnvPipe, EnvPipeOptions, ZeusGlobal};
use perseus::cluster::{ClusterConfig, Emulator, Policy};
use perseus::core::{characterize, FrontierOptions, PlanContext, Planner};
use perseus::gpu::{GpuSpec, Workload};
use perseus::models::zoo;
use perseus::pipeline::{PipelineBuilder, ScheduleKind};
use proptest::prelude::*;

fn emulator(model: perseus::models::ModelSpec, gpu: GpuSpec, m: usize) -> Emulator {
    Emulator::new(ClusterConfig {
        model,
        gpu,
        n_stages: 4,
        n_microbatches: m,
        n_pipelines: 2,
        tensor_parallel: 1,
        schedule: ScheduleKind::OneFOneB,
        frontier: FrontierOptions::default(),
    })
    .expect("emulator")
}

#[test]
fn headline_intrinsic_savings_with_negligible_slowdown() {
    // §6.2.1: double-digit percentage savings at ~zero slowdown.
    let emu = emulator(zoo::gpt3_xl(4), GpuSpec::a100_pcie(), 8);
    let s = emu.savings(Policy::Perseus, None).expect("savings");
    assert!(
        s.savings_pct > 8.0,
        "GPT-3 1.3B intrinsic savings: {:.1}%",
        s.savings_pct
    );
    assert!(s.slowdown_pct < 0.5, "slowdown: {:.2}%", s.slowdown_pct);
}

#[test]
fn a40_saves_more_than_a100() {
    // §6.2.1: the wider A40 clock range yields larger savings.
    let a100 = emulator(zoo::bloom_3b(4), GpuSpec::a100_pcie(), 8)
        .savings(Policy::Perseus, None)
        .expect("savings");
    let a40 = emulator(zoo::bloom_3b(4), GpuSpec::a40(), 8)
        .savings(Policy::Perseus, None)
        .expect("savings");
    assert!(
        a40.savings_pct > a100.savings_pct,
        "A40 {:.1}% should beat A100 {:.1}%",
        a40.savings_pct,
        a100.savings_pct
    );
}

#[test]
fn savings_peak_near_t_star_then_wane() {
    // §6.2.2 / Figure 8 shape.
    let emu = emulator(zoo::bert_huge(8), GpuSpec::a100_pcie(), 6);
    let t_star_ratio = emu.frontier().t_star() / emu.frontier().t_min();
    let before = emu
        .savings(Policy::Perseus, Some(1.0 + (t_star_ratio - 1.0) * 0.3))
        .unwrap();
    let near = emu.savings(Policy::Perseus, Some(t_star_ratio)).unwrap();
    let far = emu
        .savings(Policy::Perseus, Some(t_star_ratio * 1.8))
        .unwrap();
    assert!(
        near.savings_pct > before.savings_pct * 0.9,
        "savings grow toward T*"
    );
    assert!(far.savings_pct < near.savings_pct, "savings wane past T*");
}

#[test]
fn table6_trend_fewer_microbatches_more_savings() {
    // §6.3 / Table 6: for (near-)balanced models like GPT-3 175B, intrinsic
    // savings come from the warmup/flush microbatches, whose share shrinks
    // as microbatches grow — so strong scaling (fewer microbatches per
    // pipeline) raises the savings percentage. A perfectly balanced
    // synthetic model isolates exactly that mechanism.
    let balanced = perseus::models::ModelSpec {
        name: "balanced-16".into(),
        params_b: 1.0,
        microbatch: 4,
        layers: (0..16)
            .map(|i| perseus::models::LayerCost {
                name: format!("layer.{i}"),
                kind: perseus::models::LayerKind::TransformerDecoder,
                fwd_tflops: 5.0e12,
                bwd_tflops: 1.0e13,
                fwd_mem_frac: 0.1,
                bwd_mem_frac: 0.12,
                fwd_util: 0.85,
                bwd_util: 0.92,
            })
            .collect(),
    };
    let s4 = emulator(balanced.clone(), GpuSpec::a100_pcie(), 4)
        .savings(Policy::Perseus, None)
        .unwrap()
        .savings_pct;
    let s16 = emulator(balanced, GpuSpec::a100_pcie(), 16)
        .savings(Policy::Perseus, None)
        .unwrap()
        .savings_pct;
    assert!(s4 > s16, "M=4 {:.1}% should beat M=16 {:.1}%", s4, s16);
}

#[test]
fn perseus_pareto_dominates_zeus_global_everywhere() {
    // §6.4 / Figure 9.
    let gpu = GpuSpec::a100_pcie();
    let model = zoo::gpt3_xl(4);
    let weights = model.fwd_latency_weights(&gpu);
    let partition = perseus::models::min_imbalance_partition(&weights, 4).unwrap();
    let stages = model.stage_workloads(&partition, &gpu).unwrap();
    let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 4, 6)
        .build()
        .unwrap();
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
    for z in ZeusGlobal
        .plan(&ctx)
        .unwrap()
        .into_sweep()
        .expect("sweep planner")
    {
        let zr = z.energy_report(&ctx, None);
        let pr = frontier
            .lookup(zr.iter_time_s)
            .schedule
            .energy_report(&ctx, None);
        assert!(
            pr.total_j() <= zr.total_j() * 1.01,
            "at {:.3}s: perseus {:.0} J vs zeus {:.0} J",
            zr.iter_time_s,
            pr.total_j(),
            zr.total_j()
        );
    }
}

#[test]
fn envpipe_cannot_exploit_stragglers() {
    // Figure 7: EnvPipe has no frontier, so extrinsic slack is wasted.
    let emu = emulator(zoo::gpt3_xl(4), GpuSpec::a40(), 8);
    let p = emu
        .savings(Policy::Perseus, Some(1.25))
        .unwrap()
        .savings_pct;
    let e = emu
        .savings(Policy::EnvPipe, Some(1.25))
        .unwrap()
        .savings_pct;
    assert!(
        p > e,
        "Perseus {p:.1}% must beat EnvPipe {e:.1}% under stragglers"
    );
}

#[test]
fn envpipe_respects_its_slowdown_budget() {
    let gpu = GpuSpec::a100_pcie();
    let model = zoo::gpt3_xl(4);
    let weights = model.fwd_latency_weights(&gpu);
    let partition = perseus::models::min_imbalance_partition(&weights, 4).unwrap();
    let stages = model.stage_workloads(&partition, &gpu).unwrap();
    let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 4, 6)
        .build()
        .unwrap();
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let base = AllMaxFreq
        .plan(&ctx)
        .unwrap()
        .select(None)
        .energy_report(&ctx, None);
    let opts = EnvPipeOptions { tolerance: 0.01 };
    let ep = EnvPipe::new(opts)
        .plan(&ctx)
        .unwrap()
        .select(None)
        .energy_report(&ctx, None);
    assert!(ep.iter_time_s <= base.iter_time_s * 1.011);
    assert!(ep.total_j() < base.total_j());
}

// ---- exhaustive frontier oracle ----
//
// On tiny pipelines with a coarse clock table, enumerate EVERY frequency
// assignment, build the true Pareto front of realized (time, total
// energy), and check that the characterized frontier tracks it. This
// validates the whole chain (continuous relaxation, graph-cut sweep,
// stretch pass, frequency quantization) against ground truth rather than
// against a previous implementation.

/// The oracle's GPU: pure linear DVFS (`cap_knee: 1.0`) keeps the ground
/// truth clean, and the clock table steps down from 1000 MHz by 100 MHz,
/// `n_freqs` entries deep.
fn oracle_gpu(n_freqs: u32) -> GpuSpec {
    GpuSpec {
        name: "oracle-gpu",
        min_freq_mhz: 1000 - 100 * (n_freqs - 1),
        max_freq_mhz: 1000,
        step_mhz: 100,
        tdp_w: 300.0,
        static_w: 80.0,
        blocking_w: 70.0,
        alpha: 2.2,
        flops_per_mhz_s: 1.0e11,
        cap_knee: 1.0,
    }
}

/// Checks the characterized frontier against the true Pareto front found
/// by enumerating every frequency assignment of every computation:
///
/// * the fastest frontier point hits the true minimum time (within 1e-9);
/// * for every true Pareto point, the frontier offers a schedule that is
///   no slower and uses at most 5% more energy (continuous relaxation and
///   τ quantization account for the gap).
///
/// Returns the largest relative energy gap seen, or a description of the
/// first violated claim.
fn check_frontier_against_oracle(
    kind: ScheduleKind,
    n_microbatches: usize,
    n_freqs: u32,
    stages: &[perseus::models::StageWorkloads],
) -> Result<f64, String> {
    use perseus::pipeline::PipeNode;

    let gpu = oracle_gpu(n_freqs);
    let pipe = PipelineBuilder::new(kind, stages.len(), n_microbatches)
        .build()
        .unwrap();
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, stages).unwrap();
    let comps: Vec<_> = pipe.computations().map(|(id, _)| id).collect();
    let freqs = gpu.frequencies();
    // (time, energy) of every computation at every clock, by slot.
    let table: Vec<Vec<(f64, f64)>> = comps
        .iter()
        .map(|&id| {
            let profile = ctx.profile_of(id).unwrap();
            freqs
                .iter()
                .map(|&f| {
                    let e = profile.entry_at(f).unwrap();
                    (e.time_s, e.energy_j)
                })
                .collect()
        })
        .collect();

    let mut dur = vec![0.0f64; pipe.dag.node_count()];
    let mut energy = vec![0.0f64; pipe.dag.node_count()];
    let mut assignment = vec![0usize; comps.len()];
    let mut brute = Vec::with_capacity(freqs.len().pow(comps.len() as u32));
    'odometer: loop {
        for (slot, &id) in comps.iter().enumerate() {
            (dur[id.index()], energy[id.index()]) = table[slot][assignment[slot]];
        }
        let report = perseus::core::pipeline_energy(
            &pipe,
            |id, _: &PipeNode| dur[id.index()],
            |id, _: &PipeNode| energy[id.index()],
            gpu.blocking_w,
            None,
        );
        brute.push((report.iter_time_s, report.total_j()));
        for digit in assignment.iter_mut() {
            *digit += 1;
            if *digit < freqs.len() {
                continue 'odometer;
            }
            *digit = 0;
        }
        break;
    }
    // True Pareto front: ascending time, strictly descending energy.
    brute.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut front: Vec<(f64, f64)> = Vec::new();
    let mut best = f64::INFINITY;
    for (t, e) in brute {
        if e < best {
            best = e;
            front.push((t, e));
        }
    }

    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
    let t_floor = front[0].0;
    let fastest = frontier.fastest().schedule.time_s;
    if (fastest - t_floor).abs() >= 1e-9 {
        return Err(format!(
            "fastest point {fastest} s vs true minimum {t_floor} s"
        ));
    }
    let mut worst_gap = 0.0f64;
    for &(t_b, e_b) in &front {
        let candidate = frontier
            .points()
            .iter()
            .filter(|p| p.schedule.time_s <= t_b + 1e-9)
            .map(|p| p.schedule.energy_report(&ctx, None).total_j())
            .fold(f64::INFINITY, f64::min);
        if candidate > e_b * 1.05 {
            return Err(format!(
                "at T={t_b:.4}: perseus best {candidate:.2} J vs brute optimum {e_b:.2} J"
            ));
        }
        worst_gap = worst_gap.max(candidate / e_b - 1.0);
    }
    Ok(worst_gap)
}

#[test]
fn frontier_matches_brute_force_on_fixed_2x2_instance() {
    let stages = [
        perseus::models::StageWorkloads {
            fwd: Workload::new(50.0, 0.004, 0.85),
            bwd: Workload::new(100.0, 0.008, 0.92),
        },
        perseus::models::StageWorkloads {
            fwd: Workload::new(65.0, 0.005, 0.85),
            bwd: Workload::new(130.0, 0.010, 0.92),
        },
    ];
    if let Err(msg) = check_frontier_against_oracle(ScheduleKind::OneFOneB, 2, 5, &stages) {
        panic!("{msg}");
    }
}

/// `(stages, microbatches, clock steps)`: every shape keeps the
/// enumeration at ≤ 3^12 = 531,441 assignments.
const ORACLE_SHAPES: [(usize, usize, u32); 4] = [(2, 2, 5), (2, 2, 4), (2, 3, 3), (3, 2, 3)];

fn arb_stage() -> impl Strategy<Value = perseus::models::StageWorkloads> {
    (
        30.0f64..150.0,
        0.001f64..0.012,
        0.75f64..0.95,
        1.5f64..2.5,
        0.75f64..0.95,
    )
        .prop_map(|(compute, mem, fwd_util, bwd_ratio, bwd_util)| {
            perseus::models::StageWorkloads {
                fwd: Workload::new(compute, mem, fwd_util),
                bwd: Workload::new(compute * bwd_ratio, mem * bwd_ratio, bwd_util),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn frontier_matches_brute_force_oracle(
        shape in 0usize..ORACLE_SHAPES.len(),
        gpipe in any::<bool>(),
        stages in proptest::collection::vec(arb_stage(), 3..4),
    ) {
        let (n_stages, n_microbatches, n_freqs) = ORACLE_SHAPES[shape];
        let kind = if gpipe { ScheduleKind::GPipe } else { ScheduleKind::OneFOneB };
        let outcome =
            check_frontier_against_oracle(kind, n_microbatches, n_freqs, &stages[..n_stages]);
        prop_assert!(
            outcome.is_ok(),
            "{kind:?} {n_stages}x{n_microbatches}, {n_freqs} clocks, {stages:?}: {}",
            outcome.unwrap_err()
        );
    }
}

/// Bitwise equality of two realized schedules, field by field.
fn same_schedule(a: &perseus::core::EnergySchedule, b: &perseus::core::EnergySchedule) -> bool {
    let bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
    };
    bits(&a.planned, &b.planned)
        && bits(&a.realized_dur, &b.realized_dur)
        && bits(&a.realized_energy, &b.realized_energy)
        && a.freqs == b.freqs
        && a.time_s.to_bits() == b.time_s.to_bits()
        && a.compute_j.to_bits() == b.compute_j.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The frontier lowers each point incrementally against the previous
    // one; every point must still equal a from-scratch lowering, and the
    // frequency-capped frontier must equal per-point `realize_with_cap`
    // under the same Pareto filter.
    #[test]
    fn incremental_lowering_matches_from_scratch_realization(
        gpipe in any::<bool>(),
        n_microbatches in 2usize..6,
        stages in proptest::collection::vec(arb_stage(), 2..5),
        cap_frac in 0.0f64..1.0,
    ) {
        use perseus::core::EnergySchedule;
        use perseus::gpu::FreqMHz;

        let gpu = GpuSpec::a40();
        let kind = if gpipe { ScheduleKind::GPipe } else { ScheduleKind::OneFOneB };
        let pipe = PipelineBuilder::new(kind, stages.len(), n_microbatches)
            .build()
            .unwrap();
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
        for (i, p) in frontier.points().iter().enumerate() {
            let scratch = EnergySchedule::realize(&ctx, p.schedule.planned.clone()).unwrap();
            prop_assert!(same_schedule(&p.schedule, &scratch), "point {i} differs from realize");
            let mut planned_energy = 0.0;
            for id in pipe.dag.node_ids() {
                if let Some(info) = ctx.info(id) {
                    planned_energy += info.fit.energy(p.schedule.planned[id.index()]);
                }
            }
            prop_assert_eq!(p.planned_energy_j.to_bits(), planned_energy.to_bits());
        }

        let span = f64::from(gpu.max_freq_mhz - gpu.min_freq_mhz);
        let raw = gpu.min_freq_mhz + (cap_frac * span) as u32;
        let cap = FreqMHz(raw - (raw - gpu.min_freq_mhz) % gpu.step_mhz);
        let clamped = frontier.clamp_to_freq_cap(&ctx, cap).unwrap();
        let mut expected: Vec<(f64, EnergySchedule)> = Vec::new();
        let mut best_energy = f64::INFINITY;
        for p in frontier.points() {
            let s = EnergySchedule::realize_with_cap(&ctx, p.schedule.planned.clone(), Some(cap))
                .unwrap();
            let planned_time_s = p.planned_time_s.max(s.time_s);
            let ascends = match expected.last() {
                Some((t, _)) => planned_time_s > t + 1e-12,
                None => true,
            };
            if ascends && s.compute_j < best_energy {
                best_energy = s.compute_j;
                expected.push((planned_time_s, s));
            }
        }
        prop_assert_eq!(clamped.len(), expected.len());
        for (i, (p, (t, s))) in clamped.points().iter().zip(&expected).enumerate() {
            prop_assert_eq!(p.planned_time_s.to_bits(), t.to_bits());
            prop_assert_eq!(p.planned_energy_j.to_bits(), s.compute_j.to_bits());
            prop_assert!(same_schedule(&p.schedule, s), "clamped point {i} differs");
        }
    }
}
