//! `deep-characterize`: GPT-3 6.7B, one decoder layer per stage, 32 stages
//! × 8 microbatches, 1F1B on A40, τ = 1 ms, served by an in-memory
//! `PerseusServer` with one worker. One client re-submits the same
//! profiles in a closed loop and waits for each `Deployment`. The solver
//! layers (`profiler` fit, `dag` timing, `flow`, `core` sweep and realize)
//! do nearly all the work; `store` and the plan cache do none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use perseus_core::{EnergySchedule, FrontierOptions, FrontierSolver, ParetoFrontier, PlanContext};
use perseus_gpu::GpuSpec;
use perseus_models::zoo;
use perseus_pipeline::OpKey;
use perseus_profiler::ProfileDb;
use perseus_server::{JobSpec, PerseusServer};

use crate::inputs::{self, EdgeCentric, Job};
use crate::util::{self, ms_since, Digest, Rng};
use crate::{metric_sum, Ctx, Outcome};

const NAME: &str = "gpt3-6.7b-32x8";
const STAGES: usize = 32;
const MICROBATCHES: usize = 8;
const TAU_S: f64 = 1e-3;

struct Setup {
    job: Job,
    profiles: ProfileDb<OpKey>,
    server: PerseusServer,
    reference: Arc<ParetoFrontier>,
}

fn setup(cx: &Ctx, rng: &mut Rng, digest: &mut Digest, opts: &FrontierOptions) -> Setup {
    let tr = &cx.tr;
    tr.span("loadgen.setup", 0, None, |sp| {
        let job = Job::build(
            tr,
            sp,
            &zoo::gpt3_6_7b(4),
            &GpuSpec::a40(),
            STAGES,
            MICROBATCHES,
        );
        let profiles = job.profiles(rng, digest);
        let server = tr.span("server.open", 0, sp, |_| {
            PerseusServer::with_telemetry(1, cx.tel.clone())
        });
        tr.span("server.register", 0, sp, |_| {
            server.register_job(JobSpec {
                name: NAME.to_string(),
                pipe: job.pipe.clone(),
                gpu: job.gpu.clone(),
                power_states: None,
            })
        })
        .expect("register");
        // Untimed warm-up: the first solve fills the solver's reusable
        // artifacts and the allocator's pools.
        tr.span("server.submit", 0, sp, |_| {
            server.submit_profiles(NAME, profiles.clone(), opts)
        })
        .and_then(|t| tr.span("server.wait", 0, sp, |_| t.wait()))
        .expect("warm-up characterization");
        let reference = server.frontier(NAME).expect("characterized");
        Setup {
            job,
            profiles,
            server,
            reference,
        }
    })
}

pub fn run(cx: &Ctx) -> Outcome {
    let tr = &cx.tr;
    let opts = FrontierOptions {
        tau_s: Some(TAU_S),
        ..FrontierOptions::default()
    };
    let mut out = Outcome::default();
    let mut rng = Rng::new(cx.seed, 1);
    let mut digest = Digest::new();
    let Setup {
        job,
        profiles,
        server,
        reference,
    } = cx.repeat_setup(&mut out, |_| setup(cx, &mut rng, &mut digest, &opts));
    out.digest = digest.hex();
    let ctx = tr
        .span("profiler.fit", 0, None, |_| {
            PlanContext::new(&job.pipe, &job.gpu, profiles.clone())
        })
        .expect("planning context");
    out.check(
        inputs::is_pareto(&reference),
        "reference frontier is not Pareto",
    );
    out.savings_pct = inputs::savings_pct(
        &ctx,
        &inputs::all_max(&ctx),
        &reference.fastest().schedule,
        None,
    );

    // Closed loop: the next submission goes out when the previous
    // deployment arrives, so every request is due when it is sent.
    let mut service_ms = Vec::new();
    let mut submit_ms = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(cx.seconds);
    let mut req = 0u64;
    while Instant::now() < end {
        req += 1;
        let t0 = Instant::now();
        let result = tr.span("loadgen.request", req, None, |sp| {
            let p = profiles.clone();
            let ticket = tr.span("server.submit", req, sp, |_| {
                server.submit_profiles(NAME, p, &opts)
            });
            submit_ms.push(ms_since(t0));
            ticket.and_then(|t| tr.span("server.wait", req, sp, |_| t.wait()))
        });
        service_ms.push(ms_since(t0));
        let ok = tr.span("check.deployment", req, None, |_| {
            let Ok(dep) = result else { return false };
            let Some(frontier) = server.frontier(NAME) else {
                return false;
            };
            let fastest = frontier.fastest();
            inputs::same_frontier(&frontier, &reference)
                && dep.t_prime.to_bits() == frontier.t_min().to_bits()
                && dep.planned_time_s.to_bits() == fastest.planned_time_s.to_bits()
                && inputs::same_schedule(&dep.schedule, &fastest.schedule)
        });
        out.check(
            ok,
            "deployment differs from the first frontier's fastest point",
        );
    }
    out.service_p50_ms = util::quantile(&service_ms, 0.5);
    out.service_ms = util::quantile(&service_ms, 0.9);
    out.latency_tail_ms = util::max(&service_ms);
    eprintln!(
        "deep-characterize: {} solves, p50 {:.1} ms, p90 {:.1} ms, max {:.1} ms",
        service_ms.len(),
        util::quantile(&service_ms, 0.5),
        out.service_ms,
        out.latency_tail_ms
    );
    if cx.traced() {
        let l = &mut out.layer;
        l.insert("loadgen.requests", service_ms.len() as f64);
        l.insert("loadgen.latency_p50_ms", util::quantile(&service_ms, 0.5));
        l.insert("server.submit_ms", util::quantile(&submit_ms, 0.5));
        l.insert("core.cold_solves", service_ms.len() as f64);
        l.insert(
            "server.peak_inflight",
            server.peak_inflight_characterizations() as f64,
        );
        solver_counters(cx, &mut out);
        probes(cx, &mut out, &job, &ctx, &reference, &opts);
    }
    out
}

/// Per-characterization averages of the program's own solver counters.
fn solver_counters(cx: &Ctx, out: &mut Outcome) {
    let snap = cx.tel.snapshot();
    let all = |_: &[(String, String)]| true;
    let runs = metric_sum(&snap, "perseus_solver_runs_total", all).max(1.0);
    let cut_s = metric_sum(&snap, "perseus_span_seconds_total", |labels| {
        labels
            .iter()
            .any(|(k, v)| k == "span" && v.ends_with("cut_solve"))
    });
    let queue_sum = metric_sum(&snap, "perseus_server_queue_seconds_sum", all);
    let queue_n = metric_sum(&snap, "perseus_server_queue_seconds_count", all).max(1.0);
    let l = &mut out.layer;
    l.insert("core.cut_solve_ms", cut_s * 1e3 / runs);
    l.insert(
        "core.pd_iterations",
        metric_sum(&snap, "perseus_pd_iterations_total", all) / runs,
    );
    l.insert(
        "flow.max_flow_calls",
        metric_sum(&snap, "perseus_flow_max_flow_calls_total", all) / runs,
    );
    l.insert(
        "flow.augmenting_paths",
        metric_sum(&snap, "perseus_flow_augmenting_paths_total", all) / runs,
    );
    l.insert("server.queue_ms", queue_sum * 1e3 / queue_n);
}

/// Times single layers directly on the workload's own inputs.
fn probes(
    cx: &Ctx,
    out: &mut Outcome,
    job: &Job,
    ctx: &PlanContext<'_>,
    reference: &ParetoFrontier,
    opts: &FrontierOptions,
) {
    let tr = &cx.tr;
    let l = &mut out.layer;
    l.insert("models.partition_ms", tr.median_ms("models.partition"));
    l.insert("pipeline.build_ms", tr.median_ms("pipeline.build"));
    l.insert("server.register_ms", tr.median_ms("server.register"));
    for _ in 0..4 {
        tr.span("profiler.fit", 0, None, |_| {
            PlanContext::new(&job.pipe, &job.gpu, ctx.profiles.clone())
        })
        .expect("planning context");
    }
    l.insert("profiler.fit_ms", tr.median_ms("profiler.fit"));

    let ec = EdgeCentric::new(&job.pipe, &ctx.fastest_durations());
    let mut timing = None;
    for _ in 0..20 {
        timing = Some(tr.span("dag.timing_pass", 0, None, |_| ec.timing()));
    }
    let timing = timing.expect("timed");
    for _ in 0..20 {
        tr.span("dag.critical_extract", 0, None, |_| {
            ec.critical(&timing, TAU_S * 0.5)
        });
    }
    l.insert("dag.timing_pass_ms", tr.median_ms("dag.timing_pass"));
    l.insert(
        "dag.critical_extract_ms",
        tr.median_ms("dag.critical_extract"),
    );

    let solver = FrontierSolver::new(&job.pipe);
    let mut solve_ms = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let f = tr.span("core.characterize", 0, None, |_| {
            solver.characterize(ctx, opts)
        });
        solve_ms.push(ms_since(t0));
        let same = f.is_ok_and(|f| inputs::same_frontier(&f, reference));
        out.check(same, "direct characterization differs from the server's");
    }
    let l = &mut out.layer;
    l.insert("core.characterize_ms", util::quantile(&solve_ms, 0.9));

    let t0 = Instant::now();
    let realized_same = tr.span("core.realize", 0, None, |_| {
        reference.points().iter().all(|p| {
            EnergySchedule::realize(ctx, p.schedule.planned.clone())
                .is_ok_and(|s| inputs::same_schedule(&s, &p.schedule))
        })
    });
    l.insert("core.realize_ms", ms_since(t0));
    out.check(
        realized_same,
        "re-realized schedules differ from the frontier's",
    );

    let l = &mut out.layer;
    l.insert("core.frontier_points", reference.len() as f64);
    l.insert("core.frontier_mb", inputs::frontier_mb(reference));
    let (lookup_us, clone_us) = inputs::lookup_and_clone_us(tr, reference);
    l.insert("core.lookup_us", lookup_us);
    l.insert("core.schedule_clone_us", clone_us);
}
