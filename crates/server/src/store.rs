//! Durable server state: the journal event vocabulary, the snapshot
//! schema, and the [`Store`] handle gluing the server to `perseus-store`.
//!
//! # What gets journaled
//!
//! One [`JournalEvent`] per state *mutation*. Every event kind has one
//! transition, `Core::apply` in the server module: check (may fail,
//! changes nothing) → append (live calls on a durable server only) →
//! mutate and deploy (cannot fail). The append happens inside the same
//! critical section as the mutation (lock order is always journal → jobs
//! map → job state), so journal order equals mutation order per job, and
//! a failed append leaves the state untouched. Recovery and replication
//! run the same transitions without appending, which reconstructs
//! bit-identical state — including the monotonically increasing
//! deployment `version` counters, which is what makes post-recovery
//! deployments byte-comparable against an uninterrupted run.
//!
//! [`JournalEvent::Characterized`] is recorded at *deploy* time (after
//! the submission won epoch supersession), carrying the full profile
//! database and solver options; replay re-runs the deterministic solver.
//! Superseded, lost, and panicked characterizations never mutate the
//! frontier and are never journaled (a lost/panicked attempt journals
//! only the [`JournalEvent::Degraded`] flag flip).
//!
//! # What gets snapshotted
//!
//! A [`ServerSnapshot`] is a compacted serialization of every job's full
//! state — frontier, profiles, straggler/clock state, deployment — plus
//! the `applied_seq` watermark of the last journal record it covers.
//! Recovery loads the snapshot (falling back to journal-only replay if
//! it is corrupt) and replays only the journal tail past the watermark,
//! skipping the expensive re-characterizations the snapshot already
//! embodies. Snapshots are written atomically and followed by journal
//! compaction below the watermark.
//!
//! Volatile observability counters (degraded lookups, faults absorbed)
//! are *not* persisted — like any process-local Prometheus counter they
//! reset on restart; the durability counters in [`DurabilityStats`]
//! record that a restart happened.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use perseus_core::{EnergySchedule, FrontierOptions, ParetoFrontier, SleepPlan};
use perseus_gpu::{FreqMHz, GpuSpec, PowerStateModel};
use perseus_pipeline::{OpKey, PipelineDag};
use perseus_profiler::ProfileDb;
use perseus_store::{ByteReader, ByteWriter, Journal, Persist, StoreError};
use perseus_telemetry::Telemetry;

use crate::server::Deployment;

/// File name of the write-ahead journal inside the store directory.
pub(crate) const JOURNAL_FILE: &str = "server.journal";
/// File name of the state snapshot inside the store directory.
pub(crate) const SNAPSHOT_FILE: &str = "server.snap";
/// Default journal appends between automatic snapshots.
pub(crate) const DEFAULT_SNAPSHOT_EVERY: u64 = 64;

/// One state-mutating server event, as recorded in the write-ahead
/// journal.
#[derive(Debug, Clone)]
pub(crate) enum JournalEvent {
    /// A job was registered.
    RegisterJob {
        /// Job name.
        name: String,
        /// The job's pipeline DAG.
        pipe: PipelineDag,
        /// The job's GPU model.
        gpu: GpuSpec,
        /// Sleep states available to the job's accelerators, if any.
        power: Option<PowerStateModel>,
    },
    /// A profile submission won epoch supersession and deployed: replay
    /// re-runs the (deterministic) characterization with these inputs.
    Characterized {
        /// Job name.
        name: String,
        /// Submission epoch that won.
        epoch: u64,
        /// The submitted profile database.
        profiles: ProfileDb<OpKey>,
        /// Solver options of the submission.
        opts: FrontierOptions,
    },
    /// A straggler notification was accepted (immediate or scheduled).
    SetStraggler {
        /// Job name.
        name: String,
        /// Accelerator id of the straggler.
        gpu_id: usize,
        /// Seconds until the notification fires (<= 0 fires immediately).
        delay_s: f64,
        /// Iteration-time inflation (1.0 = back to normal).
        degree: f64,
    },
    /// The job's simulated clock advanced.
    AdvanceTime {
        /// Job name.
        name: String,
        /// Seconds advanced.
        dt_s: f64,
    },
    /// The job's simulated clock was skewed (chaos fault).
    SkewClock {
        /// Job name.
        name: String,
        /// Skew in seconds (may be negative).
        skew_s: f64,
    },
    /// A datacenter frequency cap was applied.
    FreqCap {
        /// Job name.
        name: String,
        /// The cap.
        cap: FreqMHz,
    },
    /// The job's last characterization attempt died (lost or panicked)
    /// while a previous frontier existed; the job is serving degraded.
    Degraded {
        /// Job name.
        name: String,
    },
}

impl JournalEvent {
    /// The job the event belongs to.
    pub fn name(&self) -> &str {
        match self {
            JournalEvent::RegisterJob { name, .. }
            | JournalEvent::Characterized { name, .. }
            | JournalEvent::SetStraggler { name, .. }
            | JournalEvent::AdvanceTime { name, .. }
            | JournalEvent::SkewClock { name, .. }
            | JournalEvent::FreqCap { name, .. }
            | JournalEvent::Degraded { name } => name,
        }
    }
}

impl Persist for JournalEvent {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            JournalEvent::RegisterJob {
                name,
                pipe,
                gpu,
                power,
            } => {
                w.put_u8(0);
                w.put_str(name);
                pipe.encode(w);
                gpu.encode(w);
                power.encode(w);
            }
            JournalEvent::Characterized {
                name,
                epoch,
                profiles,
                opts,
            } => {
                w.put_u8(1);
                w.put_str(name);
                w.put_u64(*epoch);
                profiles.encode(w);
                opts.encode(w);
            }
            JournalEvent::SetStraggler {
                name,
                gpu_id,
                delay_s,
                degree,
            } => {
                w.put_u8(2);
                w.put_str(name);
                w.put_usize(*gpu_id);
                w.put_f64(*delay_s);
                w.put_f64(*degree);
            }
            JournalEvent::AdvanceTime { name, dt_s } => {
                w.put_u8(3);
                w.put_str(name);
                w.put_f64(*dt_s);
            }
            JournalEvent::SkewClock { name, skew_s } => {
                w.put_u8(4);
                w.put_str(name);
                w.put_f64(*skew_s);
            }
            JournalEvent::FreqCap { name, cap } => {
                w.put_u8(5);
                w.put_str(name);
                cap.encode(w);
            }
            JournalEvent::Degraded { name } => {
                w.put_u8(6);
                w.put_str(name);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(JournalEvent::RegisterJob {
                name: r.get_str()?,
                pipe: PipelineDag::decode(r)?,
                gpu: GpuSpec::decode(r)?,
                power: Persist::decode(r)?,
            }),
            1 => Ok(JournalEvent::Characterized {
                name: r.get_str()?,
                epoch: r.get_u64()?,
                profiles: ProfileDb::<OpKey>::decode(r)?,
                opts: FrontierOptions::decode(r)?,
            }),
            2 => Ok(JournalEvent::SetStraggler {
                name: r.get_str()?,
                gpu_id: r.get_usize()?,
                delay_s: r.get_f64()?,
                degree: r.get_f64()?,
            }),
            3 => Ok(JournalEvent::AdvanceTime {
                name: r.get_str()?,
                dt_s: r.get_f64()?,
            }),
            4 => Ok(JournalEvent::SkewClock {
                name: r.get_str()?,
                skew_s: r.get_f64()?,
            }),
            5 => Ok(JournalEvent::FreqCap {
                name: r.get_str()?,
                cap: Persist::decode(r)?,
            }),
            6 => Ok(JournalEvent::Degraded { name: r.get_str()? }),
            t => Err(StoreError::corrupt(format!("invalid JournalEvent tag {t}"))),
        }
    }
}

impl Persist for Deployment {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.version);
        w.put_f64(self.t_prime);
        w.put_f64(self.planned_time_s);
        self.schedule.encode(w);
        self.sleep.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(Deployment {
            version: r.get_u64()?,
            t_prime: r.get_f64()?,
            planned_time_s: r.get_f64()?,
            schedule: EnergySchedule::decode(r)?,
            sleep: Persist::decode(r)?,
        })
    }
}

/// Serialized state of one job inside a [`ServerSnapshot`].
#[derive(Debug, Clone)]
pub(crate) struct JobSnapshot {
    /// Job name.
    pub name: String,
    /// The job's pipeline DAG.
    pub pipe: PipelineDag,
    /// The job's GPU model.
    pub gpu: GpuSpec,
    /// Sleep states available to the job's accelerators, if any.
    pub power: Option<PowerStateModel>,
    /// Next submission epoch counter.
    pub next_epoch: u64,
    /// Epoch of the deployed frontier (0 = none).
    pub characterized_epoch: u64,
    /// The characterized frontier, if any.
    pub frontier: Option<ParetoFrontier>,
    /// Profiles behind the frontier, if any.
    pub profiles: Option<ProfileDb<OpKey>>,
    /// One sleep plan per frontier point, for Kareus jobs.
    pub sleep: Option<Vec<SleepPlan>>,
    /// Degradation flag.
    pub degraded: bool,
    /// Active stragglers, sorted by accelerator id for deterministic
    /// bytes.
    pub stragglers: Vec<(usize, f64)>,
    /// Pending straggler notifications as `(fire_at, gpu_id, degree)`, in
    /// insertion order.
    pub pending: Vec<(f64, usize, f64)>,
    /// Simulated clock, seconds.
    pub clock_s: f64,
    /// Deployment version counter.
    pub version: u64,
    /// Last deployment pushed to clients.
    pub deployed: Option<Deployment>,
}

impl Persist for JobSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.name);
        self.pipe.encode(w);
        self.gpu.encode(w);
        self.power.encode(w);
        w.put_u64(self.next_epoch);
        w.put_u64(self.characterized_epoch);
        self.frontier.encode(w);
        self.profiles.encode(w);
        self.sleep.encode(w);
        w.put_bool(self.degraded);
        self.stragglers.encode(w);
        self.pending.encode(w);
        w.put_f64(self.clock_s);
        w.put_u64(self.version);
        self.deployed.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(JobSnapshot {
            name: r.get_str()?,
            pipe: PipelineDag::decode(r)?,
            gpu: GpuSpec::decode(r)?,
            power: Persist::decode(r)?,
            next_epoch: r.get_u64()?,
            characterized_epoch: r.get_u64()?,
            frontier: Persist::decode(r)?,
            profiles: Persist::decode(r)?,
            sleep: Persist::decode(r)?,
            degraded: r.get_bool()?,
            stragglers: Persist::decode(r)?,
            pending: Persist::decode(r)?,
            clock_s: r.get_f64()?,
            version: r.get_u64()?,
            deployed: Persist::decode(r)?,
        })
    }
}

/// A full server snapshot: every job's state plus the journal watermark
/// it covers.
#[derive(Debug, Clone)]
pub(crate) struct ServerSnapshot {
    /// Journal records with `seq <= applied_seq` are reflected in this
    /// snapshot and skipped during replay.
    pub applied_seq: u64,
    /// Per-job state, sorted by name for deterministic bytes.
    pub jobs: Vec<JobSnapshot>,
}

impl Persist for ServerSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.applied_seq);
        self.jobs.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(ServerSnapshot {
            applied_seq: r.get_u64()?,
            jobs: Persist::decode(r)?,
        })
    }
}

/// Durability counters of a durable server, surfaced in
/// [`crate::JobStatus`] and as telemetry
/// (`perseus_store_journal_appends_total`,
/// `perseus_store_recoveries_total`,
/// `perseus_store_truncated_records_total`). All zero for a server
/// without a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Journal records appended since this process opened the store.
    pub journal_appends: u64,
    /// Recoveries performed (1 if this server was opened over existing
    /// state, 0 for a fresh directory or a non-durable server).
    pub recoveries: u64,
    /// Unreadable journal tail segments truncated at open.
    pub truncated_records: u64,
    /// Bytes discarded by open-time journal truncation.
    pub truncated_bytes: u64,
    /// Journal events replayed during recovery.
    pub replayed_events: u64,
    /// Characterizations re-run during replay (journal tail past the
    /// snapshot). Each one is solver work a fresher snapshot would have
    /// saved.
    pub recharacterizations_replayed: u64,
    /// Characterizations restored directly from the snapshot — solver
    /// work recovery did *not* redo.
    pub recharacterizations_avoided: u64,
    /// Snapshots written by this process.
    pub snapshots_written: u64,
    /// 1 if recovery found the snapshot corrupt and fell back to
    /// journal-only replay.
    pub corrupt_snapshots: u64,
}

/// The server's handle on its durable backing: the open journal plus
/// snapshot bookkeeping. Lock order is journal → jobs map → job state;
/// every mutating server path acquires the journal mutex *first*, so a
/// snapshot (which holds the journal lock throughout) observes a frozen,
/// consistent state.
pub(crate) struct Store {
    /// The write-ahead journal. Guards all mutating critical sections.
    pub journal: Mutex<Journal>,
    /// Path of the snapshot file.
    pub snapshot_path: PathBuf,
    /// Appends between automatic snapshots.
    pub snapshot_every: AtomicU64,
    /// Appends since the last snapshot (triggers auto-snapshot).
    pub appends_since_snapshot: AtomicU64,
    /// Counters: see [`DurabilityStats`].
    pub journal_appends: AtomicU64,
    pub recoveries: AtomicU64,
    pub truncated_records: AtomicU64,
    pub truncated_bytes: AtomicU64,
    pub replayed_events: AtomicU64,
    pub recharacterizations_replayed: AtomicU64,
    pub recharacterizations_avoided: AtomicU64,
    pub snapshots_written: AtomicU64,
    pub corrupt_snapshots: AtomicU64,
    telemetry: Telemetry,
}

impl Store {
    /// Wraps an opened journal.
    pub fn new(journal: Journal, snapshot_path: PathBuf, telemetry: Telemetry) -> Store {
        let stats = journal.stats();
        let store = Store {
            journal: Mutex::new(journal),
            snapshot_path,
            snapshot_every: AtomicU64::new(DEFAULT_SNAPSHOT_EVERY),
            appends_since_snapshot: AtomicU64::new(0),
            journal_appends: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            truncated_records: AtomicU64::new(stats.truncated_records),
            truncated_bytes: AtomicU64::new(stats.truncated_bytes),
            replayed_events: AtomicU64::new(0),
            recharacterizations_replayed: AtomicU64::new(0),
            recharacterizations_avoided: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            corrupt_snapshots: AtomicU64::new(0),
            telemetry,
        };
        if stats.truncated_records > 0 && store.telemetry.is_enabled() {
            store
                .telemetry
                .counter("perseus_store_truncated_records_total")
                .add(stats.truncated_records);
        }
        store
    }

    /// Appends an already-encoded event to the journal the caller holds
    /// locked. The caller has not mutated anything yet: on failure it
    /// returns the error and leaves state untouched, so an acknowledged
    /// mutation is always one the journal holds.
    ///
    /// # Errors
    ///
    /// The journal's write error; no counter moves.
    pub fn append_locked(&self, journal: &mut Journal, payload: &[u8]) -> Result<(), StoreError> {
        journal.append(payload)?;
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
        self.appends_since_snapshot.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("perseus_store_journal_appends_total")
                .inc();
        }
        Ok(())
    }

    /// Adds what a recovery found and replayed (see
    /// `PerseusServer::recover_from`) to the counters; `recoveries` is 1
    /// when there was existing state to restore.
    pub fn record_recovery(&self, found: &DurabilityStats) {
        for (counter, n) in [
            (&self.recoveries, found.recoveries),
            (&self.truncated_records, found.truncated_records),
            (&self.replayed_events, found.replayed_events),
            (
                &self.recharacterizations_replayed,
                found.recharacterizations_replayed,
            ),
            (
                &self.recharacterizations_avoided,
                found.recharacterizations_avoided,
            ),
            (&self.corrupt_snapshots, found.corrupt_snapshots),
        ] {
            counter.fetch_add(n, Ordering::Relaxed);
        }
        if found.recoveries > 0 && self.telemetry.is_enabled() {
            self.telemetry
                .counter("perseus_store_recoveries_total")
                .inc();
        }
    }

    /// Current durability counters.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            journal_appends: self.journal_appends.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            truncated_records: self.truncated_records.load(Ordering::Relaxed),
            truncated_bytes: self.truncated_bytes.load(Ordering::Relaxed),
            replayed_events: self.replayed_events.load(Ordering::Relaxed),
            recharacterizations_replayed: self.recharacterizations_replayed.load(Ordering::Relaxed),
            recharacterizations_avoided: self.recharacterizations_avoided.load(Ordering::Relaxed),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            corrupt_snapshots: self.corrupt_snapshots.load(Ordering::Relaxed),
        }
    }
}
