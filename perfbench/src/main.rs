//! End-to-end and per-layer benchmark of the Perseus planning service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <deep-characterize|fleet-admission|straggler-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process and prints, as its
//! last stdout line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics (see `README.md` next to this crate for
//! what each one means and which end-to-end metric it should move). The
//! process exits non-zero when any output check fails.

mod churn;
mod deep;
mod fleet;
mod inputs;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perseus_telemetry::{MetricsSnapshot, Telemetry};

use crate::trace::{Tracer, LAYERS};

/// Everything a workload needs to run once.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Set-ups to repeat (and time) before the loop.
    pub setups: usize,
    /// Program telemetry: enabled only in the traced phase.
    pub tel: Telemetry,
    pub tr: Tracer,
    /// Private scratch directory for durable state.
    pub dir: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tel.is_enabled()
    }

    /// Directory of set-up `k`, for workloads with durable state.
    pub fn setup_dir(&self, k: usize) -> PathBuf {
        self.dir.join(format!("setup-{k}"))
    }

    /// Runs `setup` `self.setups` times, timing each into `out.setup_s`,
    /// and returns the last. Each set-up's state and directory are dropped
    /// before the next one starts.
    pub fn repeat_setup<S>(&self, out: &mut Outcome, mut setup: impl FnMut(usize) -> S) -> S {
        let mut last = None;
        for k in 0..self.setups {
            if last.take().is_some() {
                let _ = std::fs::remove_dir_all(self.setup_dir(k - 1));
            }
            let t0 = Instant::now();
            last = Some(setup(k));
            out.setup_s.push(t0.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up")
    }

    /// Directory of the set-up the timed loop runs on.
    pub fn last_setup_dir(&self) -> PathBuf {
        self.setup_dir(self.setups - 1)
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub setup_s: Vec<f64>,
    pub savings_pct: f64,
    pub service_ms: f64,
    /// Median service time; the traced run's overhead is measured on it,
    /// because the mean and the tail carry snapshot stalls of their own.
    pub service_p50_ms: f64,
    pub latency_tail_ms: f64,
    /// Per-layer metrics this workload measured; the rest read 0.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {what}");
            }
        }
    }
}

/// Per-layer metrics reported by `--trace 1`, with units.
const PER_LAYER: [(&str, &str); 45] = [
    ("models.partition_ms", "ms"),
    ("pipeline.build_ms", "ms"),
    ("profiler.fit_ms", "ms"),
    ("dag.timing_pass_ms", "ms"),
    ("dag.critical_extract_ms", "ms"),
    ("core.characterize_ms", "ms"),
    ("core.cut_solve_ms", "ms"),
    ("core.realize_ms", "ms"),
    ("core.pd_iterations", "count"),
    ("flow.max_flow_calls", "count"),
    ("flow.augmenting_paths", "count"),
    ("core.frontier_points", "count"),
    ("core.frontier_mb", "MB"),
    ("core.plan_cache_hit_pct", "%"),
    ("core.cold_solves", "count"),
    ("core.lookup_us", "us"),
    ("core.schedule_clone_us", "us"),
    ("server.register_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("server.peak_inflight", "count"),
    ("server.set_straggler_us", "us"),
    ("server.job_status_us", "us"),
    ("store.journal_appends", "count"),
    ("store.snapshots", "count"),
    ("store.snapshot_mb", "MB"),
    ("store.journal_mb", "MB"),
    ("store.snapshot_stall_ms", "ms"),
    ("store.recover_s", "s"),
    ("loadgen.requests", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.service_p50_ms", "ms"),
    ("loadgen.latency_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("self.loadgen_s", "s"),
    ("self.models_s", "s"),
    ("self.pipeline_s", "s"),
    ("self.profiler_s", "s"),
    ("self.dag_s", "s"),
    ("self.core_s", "s"),
    ("self.server_s", "s"),
    ("self.check_s", "s"),
    ("host.alu_ms", "ms"),
    ("host.cache_ms", "ms"),
];

/// Set-ups timed per untraced run; `setup_s` is their 80th percentile.
const SETUPS: usize = 5;

/// Sum of every sample of `name` across label sets whose labels satisfy
/// `keep`.
pub fn metric_sum(
    snap: &MetricsSnapshot,
    name: &str,
    keep: impl Fn(&[(String, String)]) -> bool,
) -> f64 {
    snap.iter()
        .filter(|(n, labels, _)| *n == name && keep(labels))
        .map(|(_, _, v)| v)
        .sum()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !["deep-characterize", "fleet-admission", "straggler-churn"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, cx: &Ctx) -> Outcome {
    match name {
        "deep-characterize" => deep::run(cx),
        "fleet-admission" => fleet::run(cx),
        _ => churn::run(cx),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let host_start = (util::host_alu_ms(), util::host_cache_ms());

    let ctx = |phase: &str, seconds: f64, setups: usize, traced: bool| Ctx {
        seed: args.seed,
        seconds,
        setups,
        tel: if traced {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        },
        tr: Tracer::new(traced),
        dir: root.join(phase),
    };
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let out = if args.trace {
        // The untraced half gives the reference for the tracing overhead.
        let plain = run_workload(&args.workload, &ctx("plain", args.seconds / 2.0, 1, false));
        let cx = ctx("traced", args.seconds / 2.0, 1, true);
        let mut out = run_workload(&args.workload, &cx);
        out.attempted += plain.attempted;
        out.failed += plain.failed;
        let overhead = 100.0 * (out.service_p50_ms / plain.service_p50_ms - 1.0);
        let selfs = cx.tr.self_seconds();
        let trace_path = PathBuf::from(".perfbench")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = cx.tr.write_chrome_trace(&trace_path) {
            eprintln!("perfbench: writing {}: {e}", trace_path.display());
        }
        let host_end = (util::host_alu_ms(), util::host_cache_ms());
        let mut layer = std::mem::take(&mut out.layer);
        layer.insert("trace.overhead_pct", overhead);
        layer.insert("loadgen.service_p50_ms", out.service_p50_ms);
        layer.insert("trace.spans", cx.tr.span_count() as f64);
        for (l, metric) in LAYERS {
            layer.insert(metric, selfs[l]);
        }
        layer.insert("host.alu_ms", (host_start.0 + host_end.0) / 2.0);
        layer.insert("host.cache_ms", (host_start.1 + host_end.1) / 2.0);
        for (name, unit) in PER_LAYER {
            metrics.push((name, layer.get(name).copied().unwrap_or(0.0), unit));
        }
        out
    } else {
        let out = run_workload(&args.workload, &ctx("run", args.seconds, SETUPS, false));
        let host_end = (util::host_alu_ms(), util::host_cache_ms());
        eprintln!(
            "host reference: alu {:.1} / {:.1} ms, cache {:.1} / {:.1} ms (start / end)",
            host_start.0, host_end.0, host_start.1, host_end.1
        );
        eprintln!("set-ups (s): {:?}", out.setup_s);
        let ok_pct = 100.0 * (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
        metrics.push(("setup_s", util::quantile(&out.setup_s, 0.8), "s"));
        metrics.push(("peak_rss_mb", util::peak_rss_mb(), "MB"));
        metrics.push(("ok_ops_pct", ok_pct, "%"));
        metrics.push(("savings_pct", out.savings_pct, "%"));
        metrics.push(("service_ms", out.service_ms, "ms"));
        metrics.push(("latency_tail_ms", out.latency_tail_ms, "ms"));
        out
    };
    let _ = std::fs::remove_dir_all(&root);

    println!("stream digest {} (seed {})", out.digest, args.seed);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
