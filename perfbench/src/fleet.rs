//! `fleet-admission`: a durable `FleetServer` (2 shards × 1 worker) in a
//! fresh directory admits jobs drawn from 20 GPT-3 XL structures (A100
//! PCIe, τ = 5 ms, `max_iters` 50 000) across 10 tenants, in an open loop
//! of 20 jobs/s of `register_job` + `submit_profiles`. Set-up solves each
//! structure once, so every timed admission is a plan-cache hit: the
//! solver does no work, while admission, queueing, the journal, the
//! plan-cache WAL and snapshots do all of it.

use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::time::{Duration, Instant};

use perseus_core::{FrontierOptions, PlanContext};
use perseus_gpu::GpuSpec;
use perseus_models::zoo;
use perseus_server::{
    CharacterizeTicket, Deployment, FleetConfig, FleetServer, JobSpec, ServerError, TenantId,
};
use perseus_telemetry::MetricsSnapshot;

use crate::inputs::{self, Job};
use crate::util::{self, ms_since, Digest, Rng};
use crate::{metric_sum, Ctx, Outcome};

const SHARDS: usize = 2;
const JOBS_PER_S: f64 = 20.0;
const TENANTS: usize = 10;
const DEPTHS: [usize; 4] = [2, 3, 4, 6];
const WIDTHS: [usize; 5] = [4, 6, 8, 10, 12];
/// An admission that waited longer than one arrival gap counts as queued.
const GAP_MS: f64 = 1e3 / JOBS_PER_S;

fn config() -> FleetConfig {
    FleetConfig::default().shards(SHARDS).workers_per_shard(1)
}

fn options() -> FrontierOptions {
    FrontierOptions {
        tau_s: Some(5e-3),
        max_iters: 50_000,
        ..FrontierOptions::default()
    }
}

struct Structure {
    job: Job,
    /// The deployment of the set-up's cold solve: every later admission of
    /// this structure must deploy exactly this.
    cold: Deployment,
    savings_pct: f64,
}

/// One timed admission of the generated stream.
struct Arrival {
    name: String,
    tenant: TenantId,
    structure: usize,
    /// Seeds the job's profile insertion order.
    order_seed: u64,
}

struct Setup {
    fleet: FleetServer,
    structures: Vec<Structure>,
    stream: Vec<Arrival>,
    digest: String,
}

/// The seeded job stream. Arrivals alternate between the two shards in a
/// seeded order within each pair, and each shard admits the 20 structures
/// in a fixed rotation, so a shard's journal and snapshot volume after its
/// m-th admission is the same for every seed. The seed picks the job
/// names, the shard order within each pair, the tenants and every job's
/// profile insertion order.
fn stream(fleet: &FleetServer, seed: u64, n: usize, digest: &mut Digest) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 2);
    let tag = rng.next_u64() as u32;
    let mut per_shard = [0usize; SHARDS];
    let mut out = Vec::with_capacity(n);
    let mut flip = false;
    for i in 0..n {
        if i % 2 == 0 {
            flip = rng.below(2) == 1;
        }
        let shard = (i % 2) ^ usize::from(flip);
        let structure = (per_shard[shard] + 10 * shard) % (DEPTHS.len() * WIDTHS.len());
        per_shard[shard] += 1;
        let name = (0u32..)
            .map(|k| format!("job-{tag:08x}-{i:05}-{k}"))
            .find(|name| fleet.shard_of(name) == shard)
            .expect("some suffix lands on every shard");
        let tenant = rng.below(TENANTS);
        let order_seed = rng.next_u64();
        digest.feed(name.as_bytes());
        for x in [structure as u64, tenant as u64, order_seed] {
            digest.feed_u64(x);
        }
        out.push(Arrival {
            name,
            tenant: TenantId(format!("tenant-{tenant:02}")),
            structure,
            order_seed,
        });
    }
    out
}

fn setup(cx: &Ctx, k: usize, n: usize) -> Setup {
    let tr = &cx.tr;
    tr.span("loadgen.setup", 0, None, |sp| {
        let dir = cx.setup_dir(k);
        let fleet = tr
            .span("server.open", 0, sp, |_| {
                FleetServer::open_with(&dir, config(), cx.tel.clone())
            })
            .expect("open fleet");
        let gpu = GpuSpec::a100_pcie();
        let model = zoo::gpt3_xl(4);
        let opts = options();
        let mut rng = Rng::new(cx.seed, 3);
        let mut digest = Digest::new();
        let mut structures = Vec::new();
        for (s, (&d, &w)) in DEPTHS
            .iter()
            .flat_map(|d| WIDTHS.iter().map(move |w| (d, w)))
            .enumerate()
        {
            let job = Job::build(tr, sp, &model, &gpu, d, w);
            let profiles = job.profiles(&mut rng, &mut digest);
            let name = format!("warm-{s:02}");
            tr.span("server.register", 0, sp, |_| {
                fleet.register_job(JobSpec {
                    name: name.clone(),
                    pipe: job.pipe.clone(),
                    gpu: gpu.clone(),
                    power_states: None,
                })
            })
            .expect("register warm job");
            let tenant = TenantId(format!("tenant-{:02}", s % TENANTS));
            let cold = tr
                .span("server.submit", 0, sp, |_| {
                    fleet.submit_profiles(&tenant, &name, profiles.clone(), &opts)
                })
                .and_then(|t| tr.span("server.wait", 0, sp, |_| t.wait()))
                .expect("cold solve");
            let ctx = tr
                .span("profiler.fit", 0, sp, |_| {
                    PlanContext::new(&job.pipe, &gpu, profiles)
                })
                .expect("planning context");
            let savings_pct =
                inputs::savings_pct(&ctx, &inputs::all_max(&ctx), &cold.schedule, None);
            drop(ctx);
            structures.push(Structure {
                job,
                cold,
                savings_pct,
            });
        }
        let stream = stream(&fleet, cx.seed, n, &mut digest);
        Setup {
            fleet,
            structures,
            stream,
            digest: digest.hex(),
        }
    })
}

/// A finished admission: arrival index, call start, completion, result.
type Done = (usize, Instant, Instant, Result<Deployment, ServerError>);

/// Waits for tickets on the load generator's second thread, polling so
/// each completion is stamped within ~0.1 ms whichever shard finishes
/// first.
fn poll(rx: Receiver<(usize, Instant, CharacterizeTicket)>) -> Vec<Done> {
    let mut pending: Vec<(usize, Instant, CharacterizeTicket)> = Vec::new();
    let mut done = Vec::new();
    let mut open = true;
    loop {
        if pending.is_empty() {
            match rx.recv() {
                Ok(x) => pending.push(x),
                Err(_) => break,
            }
        }
        while open {
            match rx.try_recv() {
                Ok(x) => pending.push(x),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        pending.retain(|(i, call, ticket)| match ticket.try_wait() {
            Some(result) => {
                done.push((*i, *call, Instant::now(), result));
                false
            }
            None if call.elapsed() > Duration::from_secs(60) => {
                done.push((
                    *i,
                    *call,
                    Instant::now(),
                    Err(ServerError::WorkerLost(String::new())),
                ));
                false
            }
            None => true,
        });
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_micros(100));
        } else if !open {
            break;
        }
    }
    done
}

fn snapshots_written(fleet: &FleetServer) -> u64 {
    fleet
        .shards()
        .iter()
        .map(|s| s.durability().snapshots_written)
        .sum()
}

pub fn run(cx: &Ctx) -> Outcome {
    let tr = &cx.tr;
    let n = (JOBS_PER_S * cx.seconds).ceil() as usize;
    let mut out = Outcome::default();
    let Setup {
        fleet,
        structures,
        stream,
        digest,
    } = cx.repeat_setup(&mut out, |k| setup(cx, k, n));
    let dir = cx.last_setup_dir();
    out.digest = digest;
    let opts = options();
    let cache_before = fleet.plan_cache().stats();
    let appends_before: u64 = fleet
        .shards()
        .iter()
        .map(|s| s.durability().journal_appends)
        .sum();
    let snaps_before = snapshots_written(&fleet);
    let tel_before = cx.tel.snapshot();

    // Open loop: arrival i is due at i / 20 s, whatever the fleet is doing.
    // Per arrival: due time, call start, register ms, submit ms, and
    // whether a snapshot was written during the call.
    let mut calls: Vec<(Instant, Instant, f64, f64, bool)> = Vec::with_capacity(n);
    let start = Instant::now();
    let done = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let poller = scope.spawn(move || poll(rx));
        for (i, a) in stream.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / JOBS_PER_S);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let req = i as u64 + 1;
            let s = &structures[a.structure];
            let (spec, profiles) = tr.span("loadgen.request", req, None, |_| {
                let spec = JobSpec {
                    name: a.name.clone(),
                    pipe: s.job.pipe.clone(),
                    gpu: s.job.gpu.clone(),
                    power_states: None,
                };
                let profiles = s
                    .job
                    .profiles(&mut Rng::new(a.order_seed, 0), &mut Digest::new());
                (spec, profiles)
            });
            let snaps = snapshots_written(&fleet);
            let call = Instant::now();
            let registered = tr.span("server.register", req, None, |_| fleet.register_job(spec));
            let register_ms = ms_since(call);
            let t_submit = Instant::now();
            let ticket = registered.and_then(|()| {
                tr.span("server.submit", req, None, |_| {
                    fleet.submit_profiles(&a.tenant, &a.name, profiles, &opts)
                })
            });
            let submit_ms = ms_since(t_submit);
            calls.push((
                due,
                call,
                register_ms,
                submit_ms,
                snapshots_written(&fleet) > snaps,
            ));
            match ticket {
                Ok(t) => tx.send((i, call, t)).expect("poller alive"),
                Err(e) => eprintln!("admission {i} refused: {e}"),
            }
        }
        drop(tx);
        poller.join().expect("poller thread")
    });
    let late_ms = col(&calls, |c| c.1.duration_since(c.0).as_secs_f64() * 1e3);

    let mut service = Vec::new();
    let mut latency = Vec::new();
    let mut stall_ms = 0.0;
    let mut savings = Vec::new();
    let mut deployed = vec![false; n];
    tr.span("check.admissions", 0, None, |_| {
        for (i, call, finished, result) in &done {
            let s = &structures[stream[*i].structure];
            let ok = result.as_ref().is_ok_and(|d| {
                d.t_prime.to_bits() == s.cold.t_prime.to_bits()
                    && d.planned_time_s.to_bits() == s.cold.planned_time_s.to_bits()
                    && inputs::same_schedule(&d.schedule, &s.cold.schedule)
            });
            deployed[*i] = ok;
            if ok {
                let svc = finished.duration_since(*call).as_secs_f64() * 1e3;
                service.push(svc);
                latency.push(finished.duration_since(calls[*i].0).as_secs_f64() * 1e3);
                savings.push(s.savings_pct);
                if calls[*i].4 {
                    stall_ms += svc;
                }
            }
        }
    });
    for (i, ok) in deployed.iter().enumerate() {
        out.check(
            *ok,
            &format!("admission {i} did not deploy its structure's plan"),
        );
    }
    let stats = fleet.stats();
    out.check(
        stats.submitted
            == stats.admitted
                + stats.rejected_quota
                + stats.rejected_overloaded
                + stats.rejected_other,
        "fleet stats do not add up",
    );
    out.check(
        stats.admitted == (structures.len() + n) as u64,
        "not every submission was admitted",
    );

    out.service_p50_ms = util::quantile(&service, 0.5);
    out.service_ms = util::mean(&service);
    let queued: Vec<f64> = latency.iter().copied().filter(|l| *l > GAP_MS).collect();
    out.latency_tail_ms = if queued.is_empty() {
        util::max(&latency)
    } else {
        util::mean(&queued)
    };
    out.savings_pct = util::mean(&savings);
    eprintln!(
        "fleet-admission: {} admissions, service mean {:.2} ms, p50 {:.2} ms; {} queued > {GAP_MS} ms, mean {:.1} ms; max {:.1} ms",
        service.len(),
        out.service_ms,
        util::quantile(&service, 0.5),
        queued.len(),
        util::mean(&queued),
        util::max(&latency)
    );

    if cx.traced() {
        let cache = fleet.plan_cache().stats();
        let (hits, misses) = (
            cache.hits - cache_before.hits,
            cache.misses - cache_before.misses,
        );
        let appends: u64 = fleet
            .shards()
            .iter()
            .map(|s| s.durability().journal_appends)
            .sum();
        let tel_after = cx.tel.snapshot();
        let delta = |name: &str, snap: &MetricsSnapshot| metric_sum(snap, name, |_| true);
        let queue_s = delta("perseus_server_queue_seconds_sum", &tel_after)
            - delta("perseus_server_queue_seconds_sum", &tel_before);
        let queue_n = delta("perseus_server_queue_seconds_count", &tel_after)
            - delta("perseus_server_queue_seconds_count", &tel_before);
        let l = &mut out.layer;
        l.insert("models.partition_ms", tr.median_ms("models.partition"));
        l.insert("pipeline.build_ms", tr.median_ms("pipeline.build"));
        l.insert(
            "core.plan_cache_hit_pct",
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
        );
        l.insert("core.cold_solves", misses as f64);
        l.insert(
            "server.register_ms",
            util::quantile(&col(&calls, |c| c.2), 0.5),
        );
        l.insert(
            "server.submit_ms",
            util::quantile(&col(&calls, |c| c.3), 0.5),
        );
        l.insert("server.queue_ms", queue_s * 1e3 / queue_n.max(1.0));
        l.insert(
            "server.peak_inflight",
            fleet
                .shards()
                .iter()
                .map(|s| s.peak_inflight_characterizations())
                .max()
                .unwrap_or(0) as f64,
        );
        l.insert("store.journal_appends", (appends - appends_before) as f64);
        l.insert(
            "store.snapshots",
            (snapshots_written(&fleet) - snaps_before) as f64,
        );
        l.insert("store.snapshot_mb", util::files_mb(&dir, ".snap"));
        l.insert(
            "store.journal_mb",
            util::files_mb(&dir, ".journal") + util::files_mb(&dir, ".wal"),
        );
        l.insert("store.snapshot_stall_ms", stall_ms);
        l.insert("loadgen.requests", n as f64);
        l.insert("loadgen.late_p99_ms", util::quantile(&late_ms, 0.99));
        l.insert("loadgen.latency_p50_ms", util::quantile(&latency, 0.5));
        let frontier = fleet
            .shard(fleet.shard_of("warm-00"))
            .frontier("warm-00")
            .expect("warm job characterized");
        l.insert("core.frontier_points", frontier.len() as f64);
        l.insert("core.frontier_mb", inputs::frontier_mb(&frontier));
        let (lookup_us, clone_us) = inputs::lookup_and_clone_us(tr, &frontier);
        l.insert("core.lookup_us", lookup_us);
        l.insert("core.schedule_clone_us", clone_us);
    }

    // Recovery: a restarted fleet must come back with identical state.
    let before = fingerprint_digests(&fleet);
    drop(fleet);
    let t0 = Instant::now();
    let reopened = tr.span("server.recover", 0, None, |_| {
        FleetServer::open(&dir, config())
    });
    let recover_s = t0.elapsed().as_secs_f64();
    let same = reopened.is_ok_and(|f| fingerprint_digests(&f) == before);
    out.check(same, "recovered fleet state differs");
    out.layer.insert("store.recover_s", recover_s);
    out
}

/// Digests of each shard's `state_fingerprint()`, taken one shard at a
/// time so that only one shard's serialized state is in memory at once.
fn fingerprint_digests(fleet: &FleetServer) -> Vec<String> {
    fleet
        .shards()
        .iter()
        .map(|s| {
            let mut d = Digest::new();
            d.feed(&s.state_fingerprint());
            d.hex()
        })
        .collect()
}

fn col<T>(rows: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    rows.iter().map(f).collect()
}
