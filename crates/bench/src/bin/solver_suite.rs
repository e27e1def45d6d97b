//! Solver suite: the claim gate for the incremental warm-started max-flow
//! solver and the parallel frontier path.
//!
//! Characterizes a deep pipeline — GPT-3 6.7B split across **32 stages**
//! (one per decoder layer), 32 microbatches, A40 — twice with fresh
//! solvers: once cold (`warm_start: false`, every Phillips–Dessouky cut
//! solved from scratch) and once warm (`warm_start: true`, each cut
//! re-augments the previous iteration's flow after capacity retuning).
//! The process exits nonzero unless
//!
//!   1. the cold run searched **at least 3x** as many augmenting paths as
//!      the warm run (the headline claim of the incremental solver),
//!   2. the warm and cold frontiers are **bit-identical**, field by field
//!      (`f64::to_bits` on every time, energy, and duration; exact
//!      equality on every assigned frequency), and
//!   3. `FrontierSolver::characterize_all` (the parallel fan-out used by
//!      the cluster emulator and the planning server's worker pool)
//!      produces frontiers bit-identical to fresh sequential solves over
//!      a mixed bag of pipeline shapes.
//!
//! Stdout is deterministic: path counts, hit counts, timing-pass counts,
//! and gate verdicts only. Wall-clock timings — including the per-phase
//! split of each deep characterization (timing, critical, contract,
//! cut_solve, recheck, stretch, realize) — go to **stderr** and, with
//! `--bench-json <path>`, into the machine-readable artifact alongside
//! the counter extras. With `--metrics`, the telemetry snapshot is
//! printed to stderr; stdout stays byte-identical to the metrics-free
//! run.
//!
//! Run: `cargo run --release -p perseus-bench --bin solver_suite -- \
//!        [--tau-ms 1.0] [--microbatches 32] [--metrics] \
//!        [--bench-json BENCH_solver.json]`

use std::time::Instant;

use perseus_bench::SuiteTelemetry;
use perseus_core::{FrontierOptions, FrontierSolver, ParetoFrontier, PlanContext, SolverStats};
use perseus_gpu::GpuSpec;
use perseus_models::{min_imbalance_partition, zoo};
use perseus_pipeline::{PipelineBuilder, PipelineDag, ScheduleKind};
use perseus_telemetry::Telemetry;

/// The `phase` labels of `perseus_characterize_phase_seconds_total`.
const PHASES: [&str; 7] = [
    "timing",
    "critical",
    "contract",
    "cut_solve",
    "recheck",
    "stretch",
    "realize",
];

/// What one deep characterization recorded: seconds per phase, then the
/// full and forward-only timing-pass counts.
#[derive(Clone, Copy)]
struct Profile {
    phases: [f64; 7],
    full_passes: f64,
    forward_passes: f64,
}

impl Profile {
    /// Totals recorded in `tel` so far.
    fn read(tel: &Telemetry) -> Profile {
        let snap = tel.snapshot();
        let passes = |kind| {
            snap.value_of("perseus_timing_passes_total", &[("kind", kind)])
                .unwrap_or(0.0)
        };
        Profile {
            phases: PHASES.map(|phase| {
                snap.value_of(
                    "perseus_characterize_phase_seconds_total",
                    &[("phase", phase)],
                )
                .unwrap_or(0.0)
            }),
            full_passes: passes("full"),
            forward_passes: passes("forward"),
        }
    }

    /// What was recorded between `before` and `self`.
    fn since(self, before: Profile) -> Profile {
        Profile {
            phases: std::array::from_fn(|i| self.phases[i] - before.phases[i]),
            full_passes: self.full_passes - before.full_passes,
            forward_passes: self.forward_passes - before.forward_passes,
        }
    }
}

fn arg_str(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_f64(args: &[String], flag: &str) -> Option<f64> {
    arg_str(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{flag} wants a number, got {v:?}"))
    })
}

/// Field-by-field bitwise comparison of two frontiers; returns a
/// description of the first divergence, if any.
fn frontier_divergence(a: &ParetoFrontier, b: &ParetoFrontier) -> Option<String> {
    if a.points().len() != b.points().len() {
        return Some(format!(
            "point counts differ: {} vs {}",
            a.points().len(),
            b.points().len()
        ));
    }
    for (i, (pa, pb)) in a.points().iter().zip(b.points().iter()).enumerate() {
        if pa.planned_time_s.to_bits() != pb.planned_time_s.to_bits()
            || pa.planned_energy_j.to_bits() != pb.planned_energy_j.to_bits()
        {
            return Some(format!("point {i}: planned time/energy bits differ"));
        }
        let (sa, sb) = (&pa.schedule, &pb.schedule);
        if sa.time_s.to_bits() != sb.time_s.to_bits()
            || sa.compute_j.to_bits() != sb.compute_j.to_bits()
            || sa.freqs != sb.freqs
        {
            return Some(format!("point {i}: schedule time/energy/freqs differ"));
        }
        let same = |x: &[f64], y: &[f64]| {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        };
        if !same(&sa.planned, &sb.planned)
            || !same(&sa.realized_dur, &sb.realized_dur)
            || !same(&sa.realized_energy, &sb.realized_energy)
        {
            return Some(format!("point {i}: per-node schedule vectors differ"));
        }
    }
    None
}

/// Builds the pipeline + stage workloads for a model shape.
struct Workbench {
    pipe: PipelineDag,
    stages: Vec<perseus_models::StageWorkloads>,
    gpu: GpuSpec,
}

impl Workbench {
    fn build(
        model: &perseus_models::ModelSpec,
        gpu: &GpuSpec,
        n_stages: usize,
        n_microbatches: usize,
    ) -> Workbench {
        let weights = model.fwd_latency_weights(gpu);
        let partition = min_imbalance_partition(&weights, n_stages).expect("partition");
        let stages = model.stage_workloads(&partition, gpu).expect("stages");
        let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, n_stages, n_microbatches)
            .build()
            .expect("pipe");
        Workbench {
            pipe,
            stages,
            gpu: gpu.clone(),
        }
    }

    fn ctx(&self) -> PlanContext<'_> {
        PlanContext::from_model_profiles(&self.pipe, &self.gpu, &self.stages).expect("ctx")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = SuiteTelemetry::from_args(&args);
    let bench_json = arg_str(&args, "--bench-json");
    // Unit time in milliseconds; defaults to the paper's 1 ms testbed
    // setting. Fine steps are exactly the regime the incremental solver
    // targets: consecutive cuts then differ by tiny duration drifts, so
    // the critical topology is stable and the previous flow re-augments
    // in a couple of paths. (Coarser τ churns the critical DAG more and
    // the advantage shrinks — measurable via this flag.)
    let tau_s = Some(arg_f64(&args, "--tau-ms").map_or(1e-3, |ms| ms * 1e-3));
    let n_microbatches = arg_f64(&args, "--microbatches").map_or(32, |m| m as usize);
    let tel = suite.telemetry().clone();

    // The headline workload: GPT-3 6.7B has exactly 32 decoder layers, so
    // a 32-stage split puts one layer per stage — the deepest pipeline the
    // model supports and the regime where repeated min cuts dominate.
    let model = zoo::gpt3_6_7b(4);
    let gpu = GpuSpec::a40();
    let deep = Workbench::build(&model, &gpu, 32, n_microbatches);
    let ctx = deep.ctx();

    // Phase seconds and timing passes are recorded only on enabled
    // telemetry, so the deep runs always record into one (the suite's
    // own under --metrics).
    let deep_tel = if tel.is_enabled() {
        tel.clone()
    } else {
        Telemetry::enabled()
    };
    let run = |warm_start: bool| -> (ParetoFrontier, SolverStats, f64, Profile) {
        let solver = FrontierSolver::with_telemetry(&deep.pipe, deep_tel.clone());
        let opts = FrontierOptions {
            warm_start,
            tau_s,
            ..FrontierOptions::default()
        };
        let before = Profile::read(&deep_tel);
        let t0 = Instant::now();
        let frontier = solver.characterize(&ctx, &opts).expect("characterize");
        let wall_s = t0.elapsed().as_secs_f64();
        let profile = Profile::read(&deep_tel).since(before);
        (frontier, solver.stats(), wall_s, profile)
    };
    let (cold_frontier, cold, cold_s, cold_profile) = run(false);
    let (warm_frontier, warm, warm_s, warm_profile) = run(true);

    println!("== Solver suite: GPT-3 6.7B, 32 stages x 32 microbatches, A40 ==");
    println!(
        "frontier points              {:>12}",
        warm_frontier.points().len()
    );
    println!("cold augmenting paths        {:>12}", cold.augmenting_paths);
    println!("warm augmenting paths        {:>12}", warm.augmenting_paths);
    println!("warm-start hits              {:>12}", warm.warm_start_hits);
    println!(
        "augmenting paths saved       {:>12}",
        warm.augmenting_paths_saved
    );
    let ratio = cold.augmenting_paths as f64 / warm.augmenting_paths.max(1) as f64;
    println!("cold/warm path ratio         {:>12.2}x", ratio);
    println!(
        "full timing passes           {:>12}",
        warm_profile.full_passes
    );
    println!(
        "forward timing passes        {:>12}",
        warm_profile.forward_passes
    );
    eprintln!("cold characterize: {cold_s:.3} s, warm characterize: {warm_s:.3} s");
    for (name, profile) in [("cold", cold_profile), ("warm", warm_profile)] {
        let split: Vec<String> = PHASES
            .iter()
            .zip(profile.phases)
            .map(|(phase, secs)| format!("{phase} {secs:.3}"))
            .collect();
        eprintln!("{name} phases (s): {}", split.join(", "));
    }

    let mut failed = false;

    // Gate 1: the incremental solver saves >= 3x the path searches.
    if cold.augmenting_paths < 3 * warm.augmenting_paths {
        println!("GATE warm>=3x: FAIL ({ratio:.2}x < 3x)");
        failed = true;
    } else {
        println!("GATE warm>=3x: PASS");
    }
    if warm.warm_start_hits == 0 {
        println!("GATE warm-hits: FAIL (no solve reused the previous flow)");
        failed = true;
    } else {
        println!("GATE warm-hits: PASS");
    }

    // Gate 2: warm starts are an optimization, never a behavior change.
    match frontier_divergence(&cold_frontier, &warm_frontier) {
        None => println!("GATE bit-identical: PASS"),
        Some(d) => {
            println!("GATE bit-identical: FAIL ({d})");
            failed = true;
        }
    }

    // Gate 3: the parallel fan-out matches fresh sequential solves across
    // a mixed bag of shallower shapes (kept small so the suite stays
    // fast; the deep shape above already covered the 32-stage regime).
    let shapes = [(4usize, 8usize), (8, 8), (16, 8)];
    let benches: Vec<Workbench> = shapes
        .iter()
        .map(|&(s, m)| Workbench::build(&model, &gpu, s, m))
        .collect();
    let ctxs: Vec<PlanContext<'_>> = benches.iter().map(Workbench::ctx).collect();
    let solvers: Vec<FrontierSolver> = benches
        .iter()
        .map(|b| FrontierSolver::with_telemetry(&b.pipe, tel.clone()))
        .collect();
    let opts = FrontierOptions::default();
    let jobs: Vec<(&FrontierSolver, &PlanContext<'_>, &FrontierOptions)> = solvers
        .iter()
        .zip(ctxs.iter())
        .map(|(s, c)| (s, c, &opts))
        .collect();
    let t0 = Instant::now();
    let parallel: Vec<ParetoFrontier> = FrontierSolver::characterize_all(&jobs)
        .into_iter()
        .map(|r| r.expect("parallel characterize"))
        .collect();
    let par_s = t0.elapsed().as_secs_f64();
    let sequential: Vec<ParetoFrontier> = benches
        .iter()
        .zip(ctxs.iter())
        .map(|(b, c)| {
            FrontierSolver::with_telemetry(&b.pipe, tel.clone())
                .characterize(c, &opts)
                .expect("sequential characterize")
        })
        .collect();
    eprintln!(
        "parallel fan-out over {} shapes: {par_s:.3} s",
        shapes.len()
    );
    let mut parallel_ok = true;
    for (((s, m), p), q) in shapes.iter().zip(parallel.iter()).zip(sequential.iter()) {
        if let Some(d) = frontier_divergence(p, q) {
            println!("GATE parallel==sequential: FAIL ({s} stages, {m} microbatches: {d})");
            parallel_ok = false;
            failed = true;
        }
    }
    if parallel_ok {
        println!("GATE parallel==sequential: PASS");
    }

    if let Some(path) = bench_json {
        let report = warm_frontier.fastest().schedule.energy_report(&ctx, None);
        let mut entry = perseus_bench::BenchEntry {
            name: "solver_suite/gpt3_6_7b_32stage".into(),
            wall_time_s: cold_s + warm_s + par_s,
            total_energy_j: report.total_j(),
            useful_j: report.compute_j + report.fixed_j,
            intrinsic_j: report.blocking_j,
            extrinsic_j: 0.0,
            extras: Vec::new(),
        }
        .with_extra("cold_augmenting_paths", cold.augmenting_paths as f64)
        .with_extra("warm_augmenting_paths", warm.augmenting_paths as f64)
        .with_extra("warm_start_hits", warm.warm_start_hits as f64)
        .with_extra("augmenting_paths_saved", warm.augmenting_paths_saved as f64)
        .with_extra("cold_warm_path_ratio", ratio)
        .with_extra("frontier_points", warm_frontier.points().len() as f64)
        .with_extra("full_timing_passes", warm_profile.full_passes)
        .with_extra("forward_timing_passes", warm_profile.forward_passes)
        .with_extra("cold_characterize_s", cold_s)
        .with_extra("warm_characterize_s", warm_s);
        for (phase, secs) in PHASES.iter().zip(warm_profile.phases) {
            entry = entry.with_extra(format!("warm_phase_{phase}_s"), secs);
        }
        perseus_bench::write_bench_json(path.as_ref(), &[entry]).expect("write bench json");
    }
    if failed {
        suite.finish();
        std::process::exit(1);
    }
    suite.finish();
}
