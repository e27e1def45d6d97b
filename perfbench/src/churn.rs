//! `straggler-churn`: a durable `PerseusServer` with one worker holds four
//! characterized jobs (GPT-3 2.7B, Bloom 3B, BERT 1.3B, T5 3B; 8 stages ×
//! 32 microbatches on A40, default options). One thread drives an open
//! loop of 100 ops/s: half are writes (`set_straggler`, some delayed and
//! later fired by `advance_time`), half are `job_status` reads. Lookup,
//! the deployment clone, the journal and snapshots do all the work; the
//! solver does none. Reads and writes share job state, so a gain for one
//! that costs the other shows.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perseus_core::{EnergySchedule, FrontierOptions, ParetoFrontier, PlanContext};
use perseus_gpu::GpuSpec;
use perseus_models::{zoo, ModelSpec};
use perseus_pipeline::OpKey;
use perseus_profiler::ProfileDb;
use perseus_server::{Deployment, JobSpec, PerseusServer, ServerError};
use perseus_telemetry::Telemetry;

use crate::inputs::{self, Job};
use crate::util::{self, ms_since, Digest, Rng};
use crate::{Ctx, Outcome};

const OPS_PER_S: f64 = 100.0;
const STAGES: usize = 8;
const MICROBATCHES: usize = 32;

fn models() -> [(&'static str, ModelSpec); 4] {
    [
        ("gpt3-2.7b", zoo::gpt3_2_7b(4)),
        ("bloom-3b", zoo::bloom_3b(4)),
        ("bert-1.3b", zoo::bert_huge(4)),
        ("t5-3b", zoo::t5_3b(4)),
    ]
}

#[derive(Clone, Copy)]
enum Op {
    Read {
        job: usize,
    },
    /// `set_straggler` with `delay_s == 0` applies at once; a positive
    /// delay fires at a later `advance_time`.
    Straggle {
        job: usize,
        gpu: usize,
        delay_s: f64,
        degree: f64,
    },
    Advance {
        job: usize,
        dt_s: f64,
    },
}

/// The seeded op stream: 50% reads; of the writes, 70% stragglers (40% of
/// them delayed by 0.5–4 simulated seconds) and 30% clock advances of
/// 0.5–2 s. Degrees are 1.00–1.50 in steps of 0.01 (1.00 clears a GPU).
fn stream(seed: u64, n: usize, digest: &mut Digest) -> Vec<Op> {
    let mut rng = Rng::new(seed, 4);
    (0..n)
        .map(|_| {
            let job = rng.below(4);
            let op = if rng.below(2) == 0 {
                Op::Read { job }
            } else if rng.below(10) < 7 {
                let delayed = rng.below(10) < 4;
                Op::Straggle {
                    job,
                    gpu: rng.below(STAGES),
                    delay_s: if delayed {
                        0.5 * (1 + rng.below(8)) as f64
                    } else {
                        0.0
                    },
                    degree: 1.0 + rng.below(51) as f64 / 100.0,
                }
            } else {
                Op::Advance {
                    job,
                    dt_s: 0.5 * (1 + rng.below(4)) as f64,
                }
            };
            match op {
                Op::Read { job } => digest.feed_u64(job as u64),
                Op::Straggle {
                    job,
                    gpu,
                    delay_s,
                    degree,
                } => {
                    for x in [
                        job as u64 + 4,
                        gpu as u64,
                        delay_s.to_bits(),
                        degree.to_bits(),
                    ] {
                        digest.feed_u64(x);
                    }
                }
                Op::Advance { job, dt_s } => {
                    digest.feed_u64(job as u64 + 8);
                    digest.feed_u64(dt_s.to_bits());
                }
            }
            op
        })
        .collect()
}

/// The benchmark's own model of one job's straggler state, mirroring the
/// documented server semantics: `T' = T_min × max(active degrees)`, a
/// degree of 1.0 clears a GPU, and delayed notifications fire in deadline
/// order once the job's clock passes them.
struct Model {
    frontier: Arc<ParetoFrontier>,
    active: BTreeMap<usize, f64>,
    pending: Vec<(f64, usize, f64)>,
    clock_s: f64,
    version: u64,
    t_prime: f64,
}

impl Model {
    fn apply(&mut self, gpu: usize, degree: f64) -> (u64, f64) {
        if degree > 1.0 {
            self.active.insert(gpu, degree);
        } else {
            self.active.remove(&gpu);
        }
        let worst = self.active.values().copied().fold(1.0, f64::max);
        self.version += 1;
        self.t_prime = self.frontier.t_min() * worst;
        (self.version, self.t_prime)
    }

    fn advance(&mut self, dt_s: f64) -> Vec<(u64, f64)> {
        self.clock_s += dt_s.max(0.0);
        let now = self.clock_s;
        let mut due: Vec<(f64, usize, f64)> = self
            .pending
            .iter()
            .copied()
            .filter(|p| p.0 <= now)
            .collect();
        self.pending.retain(|p| p.0 > now);
        due.sort_by(|a, b| a.0.total_cmp(&b.0));
        due.into_iter().map(|(_, g, d)| self.apply(g, d)).collect()
    }

    /// Whether `dep` is the deployment the model expects: same version and
    /// `T'`, and the frontier point `lookup_index(T')` selects.
    fn matches(&self, dep: &Deployment, version: u64, t_prime: f64) -> bool {
        let point = &self.frontier.points()[self.frontier.lookup_index(t_prime)];
        dep.version == version
            && dep.t_prime.to_bits() == t_prime.to_bits()
            && dep.planned_time_s.to_bits() == point.planned_time_s.to_bits()
            && inputs::same_schedule(&dep.schedule, &point.schedule)
    }
}

struct Setup {
    server: PerseusServer,
    jobs: Vec<(String, Job, ProfileDb<OpKey>)>,
    digest: String,
    ops: Vec<Op>,
}

fn setup(cx: &Ctx, k: usize, n: usize) -> Setup {
    let tr = &cx.tr;
    tr.span("loadgen.setup", 0, None, |sp| {
        let mut rng = Rng::new(cx.seed, 5);
        let mut digest = Digest::new();
        let dir = cx.setup_dir(k);
        let server = tr
            .span("server.open", 0, sp, |_| {
                PerseusServer::open_with(&dir, 1, cx.tel.clone())
            })
            .expect("open server");
        let gpu = GpuSpec::a40();
        let opts = FrontierOptions::default();
        let mut jobs = Vec::new();
        for (name, model) in models() {
            let job = Job::build(tr, sp, &model, &gpu, STAGES, MICROBATCHES);
            let profiles = job.profiles(&mut rng, &mut digest);
            tr.span("server.register", 0, sp, |_| {
                server.register_job(JobSpec {
                    name: name.to_string(),
                    pipe: job.pipe.clone(),
                    gpu: gpu.clone(),
                    power_states: None,
                })
            })
            .expect("register");
            tr.span("server.submit", 0, sp, |_| {
                server.submit_profiles(name, profiles.clone(), &opts)
            })
            .and_then(|t| tr.span("server.wait", 0, sp, |_| t.wait()))
            .expect("characterize");
            jobs.push((name.to_string(), job, profiles));
        }
        let ops = stream(cx.seed, n, &mut digest);
        Setup {
            server,
            jobs,
            digest: digest.hex(),
            ops,
        }
    })
}

pub fn run(cx: &Ctx) -> Outcome {
    let tr = &cx.tr;
    let n = (OPS_PER_S * cx.seconds).ceil() as usize;
    let mut out = Outcome::default();
    let Setup {
        server,
        jobs,
        digest,
        ops,
    } = cx.repeat_setup(&mut out, |k| setup(cx, k, n));
    let dir = cx.last_setup_dir();
    out.digest = digest;
    let mut models: Vec<Model> = jobs
        .iter()
        .map(|(name, ..)| {
            let frontier = server.frontier(name).expect("characterized");
            Model {
                t_prime: frontier.t_min(),
                frontier,
                active: BTreeMap::new(),
                pending: Vec::new(),
                clock_s: 0.0,
                version: 1,
            }
        })
        .collect();
    let durability_before = server.durability();

    // Per op: service and latency, in ms.
    let mut timings: Vec<(f64, f64)> = Vec::with_capacity(n);
    let mut late_ms = Vec::with_capacity(n);
    let mut stall_ms = 0.0;
    // Every deployment the loop produced: (job, T').
    let mut deployed: Vec<(usize, f64)> = Vec::new();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / OPS_PER_S);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let req = i as u64 + 1;
        let snaps = server.durability().snapshots_written;
        let call = Instant::now();
        late_ms.push(call.duration_since(due).as_secs_f64() * 1e3);
        let ok = match *op {
            Op::Read { job } => {
                let status = tr.span("server.job_status", req, None, |_| {
                    server.job_status(&jobs[job].0)
                });
                timings.push((ms_since(call), ms_since(due)));
                let m = &models[job];
                tr.span("check.read", req, None, |_| {
                    status.is_ok_and(|s| {
                        s.deployment
                            .is_some_and(|d| m.matches(&d, m.version, m.t_prime))
                    })
                })
            }
            Op::Straggle {
                job,
                gpu,
                delay_s,
                degree,
            } => {
                let result = tr.span("server.set_straggler", req, None, |_| {
                    server.set_straggler(&jobs[job].0, gpu, delay_s, degree)
                });
                timings.push((ms_since(call), ms_since(due)));
                let m = &mut models[job];
                tr.span("check.write", req, None, |_| match result {
                    Ok(None) if delay_s > 0.0 => {
                        m.pending.push((m.clock_s + delay_s, gpu, degree));
                        true
                    }
                    Ok(Some(dep)) if delay_s <= 0.0 => {
                        let (version, t_prime) = m.apply(gpu, degree);
                        deployed.push((job, t_prime));
                        m.matches(&dep, version, t_prime)
                    }
                    _ => false,
                })
            }
            Op::Advance { job, dt_s } => {
                let result: Result<Vec<Deployment>, ServerError> =
                    tr.span("server.advance_time", req, None, |_| {
                        server.advance_time(&jobs[job].0, dt_s)
                    });
                timings.push((ms_since(call), ms_since(due)));
                let m = &mut models[job];
                tr.span("check.write", req, None, |_| {
                    let expected = m.advance(dt_s);
                    deployed.extend(expected.iter().map(|&(_, t)| (job, t)));
                    result.is_ok_and(|deps| {
                        deps.len() == expected.len()
                            && deps
                                .iter()
                                .zip(&expected)
                                .all(|(d, &(v, t))| m.matches(d, v, t))
                    })
                })
            }
        };
        if server.durability().snapshots_written > snaps {
            stall_ms += timings[i].0;
        }
        out.check(ok, &format!("op {i} disagrees with the straggler model"));
    }

    let service: Vec<f64> = timings.iter().map(|t| t.0).collect();
    let latency: Vec<f64> = timings.iter().map(|t| t.1).collect();
    out.service_p50_ms = util::quantile(&service, 0.5);
    out.service_ms = util::mean(&service);
    out.latency_tail_ms = util::quantile(&latency, 0.99);
    out.savings_pct = tr.span("check.savings", 0, None, |_| {
        savings(&jobs, &models, &deployed)
    });
    eprintln!(
        "straggler-churn: {} ops, {} deployments, service mean {:.3} ms, p50 {:.3} ms; latency p99 {:.2} ms; snapshots {}",
        n,
        deployed.len(),
        out.service_ms,
        util::quantile(&service, 0.5),
        out.latency_tail_ms,
        server.durability().snapshots_written - durability_before.snapshots_written
    );

    if cx.traced() {
        let d = server.durability();
        let per_call_us = |keep: fn(&Op) -> bool| -> Vec<f64> {
            ops.iter()
                .zip(&timings)
                .filter(|(op, _)| keep(op))
                .map(|(_, t)| t.0 * 1e3)
                .collect()
        };
        let job_status_us = per_call_us(|op| matches!(op, Op::Read { .. }));
        let set_straggler_us = per_call_us(|op| matches!(op, Op::Straggle { .. }));
        let l = &mut out.layer;
        l.insert("models.partition_ms", tr.median_ms("models.partition"));
        l.insert("pipeline.build_ms", tr.median_ms("pipeline.build"));
        l.insert("server.register_ms", tr.median_ms("server.register"));
        l.insert("server.job_status_us", util::quantile(&job_status_us, 0.5));
        l.insert(
            "server.set_straggler_us",
            util::quantile(&set_straggler_us, 0.5),
        );
        l.insert(
            "store.journal_appends",
            (d.journal_appends - durability_before.journal_appends) as f64,
        );
        l.insert(
            "store.snapshots",
            (d.snapshots_written - durability_before.snapshots_written) as f64,
        );
        l.insert("store.snapshot_mb", util::files_mb(&dir, ".snap"));
        l.insert("store.journal_mb", util::files_mb(&dir, ".journal"));
        l.insert("store.snapshot_stall_ms", stall_ms);
        l.insert("loadgen.requests", n as f64);
        l.insert("loadgen.late_p99_ms", util::quantile(&late_ms, 0.99));
        l.insert("loadgen.latency_p50_ms", util::quantile(&latency, 0.5));
        let frontier = &models[0].frontier;
        l.insert("core.frontier_points", frontier.len() as f64);
        l.insert("core.frontier_mb", inputs::frontier_mb(frontier));
        let (lookup_us, clone_us) = inputs::lookup_and_clone_us(tr, frontier);
        l.insert("core.lookup_us", lookup_us);
        l.insert("core.schedule_clone_us", clone_us);
    }

    // Recovery: a restarted server must come back with identical state.
    let before = server.state_fingerprint();
    drop(server);
    let t0 = Instant::now();
    let reopened = tr.span("server.recover", 0, None, |_| {
        PerseusServer::open_with(&dir, 1, Telemetry::disabled())
    });
    let recover_s = t0.elapsed().as_secs_f64();
    out.check(
        reopened.is_ok_and(|s| s.state_fingerprint() == before),
        "recovered server state differs",
    );
    out.layer.insert("store.recover_s", recover_s);
    out
}

/// Mean extrinsic savings over every deployment of the loop: each
/// deployed schedule against all-max-frequency, both at the deployment's
/// `T'`.
fn savings(
    jobs: &[(String, Job, ProfileDb<OpKey>)],
    models: &[Model],
    deployed: &[(usize, f64)],
) -> f64 {
    let ctxs: Vec<PlanContext<'_>> = jobs
        .iter()
        .map(|(_, job, profiles)| {
            PlanContext::new(&job.pipe, &job.gpu, profiles.clone()).expect("planning context")
        })
        .collect();
    let all_max: Vec<EnergySchedule> = ctxs.iter().map(inputs::all_max).collect();
    let pct: Vec<f64> = deployed
        .iter()
        .map(|&(job, t_prime)| {
            let (ctx, f) = (&ctxs[job], &models[job].frontier);
            inputs::savings_pct(
                ctx,
                &all_max[job],
                &f.lookup(t_prime).schedule,
                Some(t_prime),
            )
        })
        .collect();
    util::mean(&pct)
}
