//! Golden-trace regression tests: the committed fixtures under
//! `tests/golden/` are the byte-exact outputs of the experiment report
//! generators. Any change to the planning stack that shifts a single
//! digit of a published table fails here — numerical drift must be
//! reviewed (and the fixture regenerated) deliberately, never absorbed
//! silently.
//!
//! Regenerate after an intended change:
//!
//! ```text
//! cargo run --release -p perseus-bench --bin table3_intrinsic > tests/golden/table3_intrinsic.txt
//! cargo run --release -p perseus-bench --bin fig9_frontier    > tests/golden/fig9_frontier.txt
//! ```

/// Byte-for-byte comparison with a readable first-divergence report
/// (a full `assert_eq!` dump of a 400-line table helps no one).
fn assert_matches_golden(got: &str, golden: &str, fixture: &str) {
    if got == golden {
        return;
    }
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "first divergence from tests/golden/{fixture} at line {}",
            i + 1
        );
    }
    panic!(
        "output length diverged from tests/golden/{fixture}: got {} lines, fixture has {}",
        got.lines().count(),
        golden.lines().count()
    );
}

#[test]
fn table3_intrinsic_matches_golden_fixture() {
    let mut buf = Vec::new();
    perseus_bench::table3_report(&mut buf).expect("render table 3");
    assert_matches_golden(
        &String::from_utf8(buf).expect("utf-8 output"),
        include_str!("golden/table3_intrinsic.txt"),
        "table3_intrinsic.txt",
    );
}

#[test]
fn fig9_frontier_matches_golden_fixture() {
    let mut buf = Vec::new();
    perseus_bench::fig9_report(&mut buf, false).expect("render figure 9");
    assert_matches_golden(
        &String::from_utf8(buf).expect("utf-8 output"),
        include_str!("golden/fig9_frontier.txt"),
        "fig9_frontier.txt",
    );
}

/// Figure 7/8 attribution breakdowns, rendered from one shared emulator
/// cache. Beyond byte-identity, the embedded claim lines are the
/// acceptance gates of the ledger: intrinsic AND extrinsic bloat both
/// nonzero at slowdown 1.2 (fig7), extrinsic share monotone in the
/// straggler slowdown (fig8). Regenerate deliberately:
///
/// ```text
/// cargo run --release -p perseus-bench --bin fig7_breakdown > tests/golden/fig7_breakdown.txt
/// cargo run --release -p perseus-bench --bin fig8_scaling   > tests/golden/fig8_scaling.txt
/// ```
#[test]
fn breakdown_reports_match_golden_fixtures() {
    let (mut f7, mut f8) = (Vec::new(), Vec::new());
    let rows = perseus_bench::breakdown_reports_with(
        &mut f7,
        &mut f8,
        &perseus_telemetry::Telemetry::disabled(),
    )
    .expect("render breakdown reports");
    let f7 = String::from_utf8(f7).expect("utf-8 output");
    let f8 = String::from_utf8(f8).expect("utf-8 output");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        std::fs::write(format!("{dir}/fig7_breakdown.txt"), &f7).expect("write fixture");
        std::fs::write(format!("{dir}/fig8_scaling.txt"), &f8).expect("write fixture");
    }
    assert_matches_golden(
        &f7,
        include_str!("golden/fig7_breakdown.txt"),
        "fig7_breakdown.txt",
    );
    assert_matches_golden(
        &f8,
        include_str!("golden/fig8_scaling.txt"),
        "fig8_scaling.txt",
    );
    // The claim lines gate the qualitative shape, not just the digits.
    assert!(f7.contains("intrinsic and extrinsic bloat both nonzero at slowdown 1.2: HOLDS"));
    assert!(f8.contains("grows with straggler slowdown in every config: HOLDS"));
    assert!(!f7.contains("VIOLATED") && !f8.contains("VIOLATED"));
    // Four bars (2 models x 2 policies), all with positive energy, and
    // perseus never bloatier than all-max.
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().all(|r| r.breakdown.total_j() > 0.0));
    for pair in rows.chunks(2) {
        let (allmax, perseus) = (&pair[0].breakdown, &pair[1].breakdown);
        assert!(
            perseus.intrinsic_j + perseus.extrinsic_j < allmax.intrinsic_j + allmax.extrinsic_j
        );
    }
}

// ---- Telemetry neutrality: enabling metrics may never move a digit ----

#[test]
fn table3_with_telemetry_enabled_is_byte_identical() {
    let tel = perseus_telemetry::Telemetry::enabled();
    let mut buf = Vec::new();
    perseus_bench::table3_report_with(&mut buf, &tel).expect("render table 3");
    assert_matches_golden(
        &String::from_utf8(buf).expect("utf-8 output"),
        include_str!("golden/table3_intrinsic.txt"),
        "table3_intrinsic.txt",
    );
    // The run did record something — neutrality is not vacuous.
    assert!(!tel.snapshot().is_empty());
}

#[test]
fn fig9_with_telemetry_enabled_is_byte_identical() {
    let tel = perseus_telemetry::Telemetry::enabled();
    let mut buf = Vec::new();
    perseus_bench::fig9_report_with(&mut buf, false, &tel).expect("render figure 9");
    assert_matches_golden(
        &String::from_utf8(buf).expect("utf-8 output"),
        include_str!("golden/fig9_frontier.txt"),
        "fig9_frontier.txt",
    );
    assert!(!tel.snapshot().is_empty());
}

/// The metrics text format itself is a stable interface: a fixed metric
/// program (explicit values only — no wall-clock anywhere) must render to
/// the committed fixture byte for byte. Regenerate deliberately after an
/// intended format change:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --test golden metrics_snapshot
/// ```
#[test]
fn metrics_snapshot_matches_golden_fixture() {
    let tel = perseus_telemetry::Telemetry::enabled();
    tel.counter("perseus_flow_max_flow_calls_total").add(3);
    tel.counter_with(
        "perseus_server_degraded_lookups_total",
        &[("job", "gpt3-xl")],
    )
    .inc();
    tel.counter_with(
        "perseus_server_degraded_lookups_total",
        &[("job", "bloom-176b")],
    )
    .add(2);
    tel.float_counter_with(
        "perseus_emulator_stage_busy_seconds_total",
        &[("policy", "perseus"), ("stage", "0")],
    )
    .add(1.5);
    tel.gauge("perseus_server_workers_busy").set(2);
    let lookups = tel.histogram_with("perseus_server_lookup_seconds", &[("job", "gpt3-xl")]);
    lookups.observe(5e-7);
    lookups.observe(2e-6);
    lookups.observe(0.25);
    let got = tel.snapshot().render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/metrics_snapshot.txt"
            ),
            &got,
        )
        .expect("write fixture");
    }
    assert_matches_golden(
        &got,
        include_str!("golden/metrics_snapshot.txt"),
        "metrics_snapshot.txt",
    );
}

// ---- Frontier digests: every bit of every characterized frontier ----

/// FNV-1a 64 over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Digest of every bit a frontier carries: per point the planned and
/// realized time/energy scalars, then every planned duration, realized
/// duration, realized energy and assigned frequency (`u64::MAX` for
/// nodes without one).
fn frontier_digest(frontier: &perseus::core::ParetoFrontier) -> u64 {
    let mut h = Fnv::new();
    for p in frontier.points() {
        let s = &p.schedule;
        h.floats(&[p.planned_time_s, p.planned_energy_j, s.time_s, s.compute_j]);
        h.floats(&s.planned);
        h.floats(&s.realized_dur);
        h.floats(&s.realized_energy);
        for f in &s.freqs {
            h.word(f.map_or(u64::MAX, |f| u64::from(f.0)));
        }
    }
    h.0
}

/// Stage workloads of `model` split `n_stages` ways on `gpu`, the way
/// `solver_suite` builds its pipelines.
fn stage_workloads(
    model: &perseus::models::ModelSpec,
    gpu: &perseus::gpu::GpuSpec,
    n_stages: usize,
) -> Vec<perseus::models::StageWorkloads> {
    let weights = model.fwd_latency_weights(gpu);
    let partition = perseus::models::min_imbalance_partition(&weights, n_stages).expect("split");
    model.stage_workloads(&partition, gpu).expect("stages")
}

/// Frontier digests, one line per case: `name points digest`. Any change
/// to the solver that moves a single bit of any frontier point fails
/// here, which the warm-vs-cold gates of `solver_suite` (both sides run
/// the same binary) cannot see. Regenerate deliberately:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --release --test golden frontier_digests
/// ```
#[test]
fn frontier_digests_match_golden_fixture() {
    use perseus::core::{FrontierOptions, FrontierSolver, PlanContext};
    use perseus::gpu::{FreqMHz, GpuSpec};
    use perseus::models::zoo;
    use perseus::pipeline::{PipelineBuilder, ScheduleKind};

    let mut lines = Vec::new();
    let mut record = |name: &str, frontier: &perseus::core::ParetoFrontier| {
        lines.push(format!(
            "{name} {} {:016x}",
            frontier.len(),
            frontier_digest(frontier)
        ));
    };

    let a40 = GpuSpec::a40();
    let stages = stage_workloads(&zoo::gpt3_6_7b(4), &a40, 32);
    let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 32, 8)
        .build()
        .expect("pipe");
    let ctx = PlanContext::from_model_profiles(&pipe, &a40, &stages).expect("ctx");
    let opts = FrontierOptions {
        tau_s: Some(1e-3),
        ..FrontierOptions::default()
    };
    let deep = FrontierSolver::new(&pipe)
        .characterize(&ctx, &opts)
        .expect("characterize");
    record("gpt3-6.7b/a40/1f1b-32x8/tau1ms", &deep);
    let clamped = deep.clamp_to_freq_cap(&ctx, FreqMHz(1200)).expect("clamp");
    record("gpt3-6.7b/a40/1f1b-32x8/tau1ms/cap1200", &clamped);

    let a100 = GpuSpec::a100_pcie();
    let stages = stage_workloads(&zoo::gpt3_xl(4), &a100, 4);
    let pipe = PipelineBuilder::new(ScheduleKind::GPipe, 4, 6)
        .build()
        .expect("pipe");
    let ctx = PlanContext::from_model_profiles(&pipe, &a100, &stages).expect("ctx");
    for (name, opts) in [
        ("default", FrontierOptions::default()),
        (
            "no-stretch",
            FrontierOptions {
                stretch: false,
                ..FrontierOptions::default()
            },
        ),
        (
            "cold",
            FrontierOptions {
                warm_start: false,
                ..FrontierOptions::default()
            },
        ),
    ] {
        let frontier = FrontierSolver::new(&pipe)
            .characterize(&ctx, &opts)
            .expect("characterize");
        record(&format!("gpt3-xl/a100/gpipe-4x6/{name}"), &frontier);
    }

    let got = lines.join("\n") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/frontier_digests.txt"
            ),
            &got,
        )
        .expect("write fixture");
    }
    assert_matches_golden(
        &got,
        include_str!("golden/frontier_digests.txt"),
        "frontier_digests.txt",
    );
}
