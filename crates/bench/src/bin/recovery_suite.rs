//! Recovery suite: proves the server's crash-recovery contract and
//! reports the re-characterization work the durability layer saves.
//!
//! Three claims, each gating the exit code:
//!
//! 1. **Bit-identical recovery** — a durable server driven through a
//!    scripted history (register, characterize, straggler, frequency
//!    cap, pending-straggler timer), killed, and reopened must carry a
//!    state fingerprint equal to an uninterrupted in-memory server
//!    driven through the identical history.
//! 2. **Work saved** — recovering from a snapshot restores the solved
//!    Pareto frontier without re-running the solver
//!    (`recharacterizations_avoided`), while a journal-only recovery
//!    must re-solve (`recharacterizations_replayed`). The difference is
//!    the frontier solves a crash no longer costs.
//! 3. **Durable chaos replay** — a chaos run whose plan schedules
//!    `CrashRestart` and `CorruptJournalTail` completes, recovers once
//!    per crash, and reproduces bit-identical energy totals when run
//!    again from a fresh directory.
//! 4. **Fleet cache survives the crash** — a durable [`FleetServer`]
//!    whose plan cache was filled by one job and hit by another, killed
//!    and reopened, must (a) recover the cache entry from its WAL,
//!    (b) replay both jobs *without* re-running the solver
//!    (`recharacterizations_avoided`), (c) carry shard state
//!    fingerprints bit-identical to the pre-crash server, and (d) serve
//!    a brand-new job of the same structure as a pure hit.
//!
//! Stdout is deterministic (claim lines only); wall-clock recovery
//! timings go to stderr.
//!
//! Run: `cargo run --release -p perseus-bench --bin recovery_suite`

use perseus_chaos::{model_profiles, run_chaos, ChaosConfig, FaultKind, FaultPlan};
use perseus_cluster::{ClusterConfig, Emulator, Policy};
use perseus_core::FrontierOptions;
use perseus_gpu::{FreqMHz, GpuSpec};
use perseus_models::zoo;
use perseus_pipeline::{OpKey, PipelineDag, ScheduleKind};
use perseus_profiler::ProfileDb;
use perseus_server::{FleetConfig, FleetServer, JobSpec, PerseusServer, TenantId};
use perseus_telemetry::Telemetry;

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        model: zoo::gpt3_xl(4),
        gpu: GpuSpec::a100_pcie(),
        n_stages: 4,
        n_microbatches: 8,
        n_pipelines: 4,
        tensor_parallel: 1,
        schedule: ScheduleKind::OneFOneB,
        frontier: FrontierOptions::default(),
    }
}

/// Drives one scripted history covering every journaled event kind.
fn drive_history(server: &PerseusServer, pipe: &PipelineDag, profiles: &ProfileDb<OpKey>) {
    let gpu = GpuSpec::a100_pcie();
    server
        .register_job(JobSpec {
            name: "recovery".into(),
            pipe: pipe.clone(),
            gpu: gpu.clone(),
            power_states: None,
        })
        .expect("register");
    server
        .submit_profiles("recovery", profiles.clone(), &FrontierOptions::default())
        .expect("submit")
        .wait()
        .expect("characterize");
    server
        .set_straggler("recovery", 0, 0.0, 1.25)
        .expect("straggler");
    let cap = FreqMHz((gpu.min_freq_mhz + gpu.max_freq_mhz) / 2);
    server.apply_freq_cap("recovery", cap).expect("freq cap");
    // A pending timer that recovery must keep armed across the crash.
    server
        .set_straggler("recovery", 2, 60.0, 1.4)
        .expect("pending straggler");
    server.advance_time("recovery", 10.0).expect("advance");
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("perseus-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// First seed whose durable plan schedules both durability faults.
fn seed_with_durability_faults(iterations: usize, n_pipelines: usize, gpu: &GpuSpec) -> u64 {
    (1..500)
        .find(|&seed| {
            let plan = FaultPlan::from_seed_durable(seed, iterations, n_pipelines, gpu);
            plan.events()
                .iter()
                .any(|e| matches!(e.kind, FaultKind::CrashRestart))
                && plan
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::CorruptJournalTail { .. }))
        })
        .expect("some seed below 500 schedules both durability faults")
}

fn claim(name: &str, holds: bool, failed: &mut bool) {
    println!("{name}: {}", if holds { "HOLDS" } else { "FAILED" });
    if !holds {
        *failed = true;
    }
}

fn main() {
    let config = cluster_config();
    let emu = Emulator::new(config.clone()).expect("emulator builds");
    let pipe = emu.pipe().clone();
    let profiles = model_profiles(&pipe, &config.gpu, emu.stages());
    drop(emu);
    let mut failed = false;

    println!("== Recovery suite: crash recovery + re-characterization savings ==");

    // [1] Bit-identical recovery, snapshot path: snapshot + journal tail.
    let baseline = PerseusServer::with_workers(1);
    drive_history(&baseline, &pipe, &profiles);
    let baseline_fp = baseline.state_fingerprint();
    drop(baseline);

    let snap_dir = unique_dir("snap");
    let durable =
        PerseusServer::open_with(&snap_dir, 1, Telemetry::disabled()).expect("open durable");
    drive_history(&durable, &pipe, &profiles);
    durable.snapshot_now().expect("snapshot");
    drop(durable); // crash

    let t0 = std::time::Instant::now();
    let recovered = PerseusServer::open(&snap_dir).expect("recover from snapshot");
    let snap_recovery = t0.elapsed();
    claim(
        "post-recovery state bit-identical to uninterrupted run (snapshot)",
        recovered.state_fingerprint() == baseline_fp,
        &mut failed,
    );
    let snap_stats = recovered.durability();
    drop(recovered);

    // [1b] Bit-identical recovery, journal-only path: snapshots disabled,
    // so recovery replays every event and re-solves the frontier.
    let wal_dir = unique_dir("wal");
    let durable =
        PerseusServer::open_with(&wal_dir, 1, Telemetry::disabled()).expect("open durable");
    durable.set_snapshot_every(u64::MAX);
    drive_history(&durable, &pipe, &profiles);
    drop(durable); // crash before any snapshot

    let t0 = std::time::Instant::now();
    let recovered = PerseusServer::open(&wal_dir).expect("recover from journal");
    let wal_recovery = t0.elapsed();
    claim(
        "post-recovery state bit-identical to uninterrupted run (journal-only)",
        recovered.state_fingerprint() == baseline_fp,
        &mut failed,
    );
    let wal_stats = recovered.durability();
    drop(recovered);

    // [2] Work saved: the snapshot recovery avoided the solve the
    // journal-only recovery had to repeat.
    println!(
        "snapshot recovery       {} re-characterizations avoided, {} replayed",
        snap_stats.recharacterizations_avoided, snap_stats.recharacterizations_replayed
    );
    println!(
        "journal-only recovery   {} re-characterizations avoided, {} replayed",
        wal_stats.recharacterizations_avoided, wal_stats.recharacterizations_replayed
    );
    println!(
        "frontier solves saved by snapshotting: {}",
        snap_stats.recharacterizations_avoided
    );
    claim(
        "snapshot recovery skips the solver; journal-only replays it",
        snap_stats.recharacterizations_avoided == 1
            && snap_stats.recharacterizations_replayed == 0
            && wal_stats.recharacterizations_avoided == 0
            && wal_stats.recharacterizations_replayed == 1,
        &mut failed,
    );
    eprintln!(
        "recovery wall time: snapshot {:.3} ms, journal-only (re-solve) {:.3} ms",
        snap_recovery.as_secs_f64() * 1e3,
        wal_recovery.as_secs_f64() * 1e3
    );

    // [3] Durable chaos with CrashRestart/CorruptJournalTail, replayed.
    let iterations = 40;
    let seed = seed_with_durability_faults(iterations, config.n_pipelines, &config.gpu);
    let chaos = |tag: &str| {
        let dir = unique_dir(tag);
        let mut emu = Emulator::new(cluster_config()).expect("emulator builds");
        let cfg = ChaosConfig {
            seed,
            iterations,
            policy: Policy::Perseus,
            durable_dir: Some(dir.clone()),
            ..Default::default()
        };
        let report = run_chaos(&mut emu, &cfg).expect("chaos run completes");
        let _ = std::fs::remove_dir_all(&dir);
        report
    };
    let a = chaos("chaos-a");
    println!(
        "durable chaos seed {seed}: {} crashes survived, {} recoveries, {} journal scribbles",
        a.crashes_survived, a.durability.recoveries, a.journal_corruptions
    );
    claim(
        "every crash recovered from disk",
        a.crashes_survived > 0 && a.durability.recoveries == a.crashes_survived,
        &mut failed,
    );
    let b = chaos("chaos-b");
    claim(
        "durable chaos replay is bit-identical (energy, time, crashes)",
        a.total_energy_j.to_bits() == b.total_energy_j.to_bits()
            && a.total_time_s.to_bits() == b.total_time_s.to_bits()
            && a.crashes_survived == b.crashes_survived,
        &mut failed,
    );

    // [4] Fleet cache durability: one solve feeds two jobs, the server
    // dies, and recovery replays both from the WAL-journaled cache
    // entry instead of the solver.
    let fleet_dir = unique_dir("fleet");
    let fleet_cfg = || FleetConfig::default().shards(2).workers_per_shard(1);
    let tenant = TenantId::from("recovery-tenant");
    let gpu = GpuSpec::a100_pcie();
    let opts = FrontierOptions::default();
    let pre_crash_fps;
    {
        let fleet = FleetServer::open(&fleet_dir, fleet_cfg()).expect("open fleet");
        for name in ["fleet-a", "fleet-b"] {
            fleet
                .register_job(JobSpec {
                    name: name.into(),
                    pipe: pipe.clone(),
                    gpu: gpu.clone(),
                    power_states: None,
                })
                .expect("register fleet job");
            fleet
                .submit_profiles(&tenant, name, profiles.clone(), &opts)
                .expect("fleet submit")
                .wait()
                .expect("fleet characterize");
        }
        let cache = fleet.plan_cache().stats();
        claim(
            "one solve feeds the whole fleet before the crash",
            cache.inserts == 1 && cache.hits >= 1 && cache.entries == 1,
            &mut failed,
        );
        pre_crash_fps = fleet.state_fingerprints();
        // Dropped without any shutdown handshake — a crash.
    }
    let t0 = std::time::Instant::now();
    let fleet = FleetServer::open(&fleet_dir, fleet_cfg()).expect("reopen fleet");
    let fleet_recovery = t0.elapsed();
    let avoided: u64 = (0..2)
        .map(|i| fleet.shard(i).durability().recharacterizations_avoided)
        .sum();
    println!(
        "fleet recovery          {} re-characterizations avoided, {} cache entries recovered",
        avoided,
        fleet.plan_cache().stats().recovered_entries
    );
    claim(
        "fleet cache survives the crash and replay skips the solver",
        fleet.plan_cache().stats().recovered_entries == 1 && avoided >= 1,
        &mut failed,
    );
    claim(
        "post-recovery fleet state bit-identical to pre-crash server",
        fleet.state_fingerprints() == pre_crash_fps,
        &mut failed,
    );
    let inserts_before = fleet.plan_cache().stats().inserts;
    fleet
        .register_job(JobSpec {
            name: "fleet-c".into(),
            pipe: pipe.clone(),
            gpu: gpu.clone(),
            power_states: None,
        })
        .expect("register post-recovery job");
    fleet
        .submit_profiles(&tenant, "fleet-c", profiles.clone(), &opts)
        .expect("post-recovery submit")
        .wait()
        .expect("post-recovery characterize");
    claim(
        "a new job after recovery is a pure cache hit",
        fleet.plan_cache().stats().inserts == inserts_before
            && fleet.plan_cache().stats().hits >= 1,
        &mut failed,
    );
    eprintln!(
        "fleet recovery wall time: {:.3} ms (2 shards, 1 cache entry)",
        fleet_recovery.as_secs_f64() * 1e3
    );
    drop(fleet);

    let _ = std::fs::remove_dir_all(&snap_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&fleet_dir);
    if failed {
        std::process::exit(1);
    }
}
