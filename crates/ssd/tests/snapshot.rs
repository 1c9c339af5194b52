//! Differential snapshot invariant (ISSUE 9): a simulator restored from a
//! snapshot must continue *byte-for-bit* identically to the one that kept
//! running — same report JSON, same trace event stream — across randomized
//! configurations, fault plans (including power-loss crash points), aging
//! models and snapshot points (before and after arming).

use ida_faults::{AgingConfig, FaultConfig};
use ida_flash::geometry::Geometry;
use ida_ftl::config::FtlConfig;
use ida_obs::rng::Rng64;
use ida_obs::trace::{SinkHandle, TraceSink, VecSink};
use ida_ssd::config::{SsdConfig, WarmStage};
use ida_ssd::request::{HostOp, HostOpKind};
use ida_ssd::retry::RetryConfig;
use ida_ssd::sim::Simulator;
use std::sync::{Arc, Mutex};

/// A randomized tiny-geometry configuration.
fn random_cfg(rng: &mut Rng64) -> SsdConfig {
    let mut cfg = SsdConfig::tiny_test();
    cfg.ftl.geometry = Geometry::tiny().with_bits_per_cell(2 + rng.gen_below(2) as u32);
    cfg.ftl.refresh_mode = if rng.gen_bool(0.5) {
        ida_core::refresh::RefreshMode::Ida
    } else {
        ida_core::refresh::RefreshMode::Baseline
    };
    cfg.ftl.adjust_error_rate = rng.gen_range_f64(0.0, 0.4);
    cfg.ftl.seed = rng.next_u64();
    // Spares so injected retirements do not immediately degrade the device.
    cfg.ftl.spare_blocks_per_plane = rng.gen_below(3) as u32;
    if rng.gen_bool(0.3) {
        cfg.retry = ida_ssd::retry::RetryConfig::late_lifetime(0.2, rng.next_u64());
    }
    // Draw ΔtR too, so state that a restore derives from the timing is
    // checked under timings other than the paper's.
    cfg.timing = cfg.timing.with_delta_tr_us(rng.gen_range_u64(30, 71));
    cfg
}

/// A sorted random host trace over the exported LPN space.
fn random_trace(rng: &mut Rng64, cfg: &FtlConfig, requests: usize, write_frac: f64) -> Vec<HostOp> {
    let exported = cfg.exported_pages();
    let mut at = 0;
    (0..requests)
        .map(|_| {
            at += rng.gen_range_u64(1_000, 400_000);
            let kind = if rng.gen_bool(write_frac) {
                HostOpKind::Write
            } else {
                HostOpKind::Read
            };
            let pages = 1 + rng.gen_below(3) as u32;
            let lpn = rng.gen_below(exported.saturating_sub(pages as u64).max(1));
            HostOp {
                at,
                kind,
                lpn,
                pages,
            }
        })
        .collect()
}

fn attach_vec_sink(sim: &mut Simulator) -> Arc<Mutex<VecSink>> {
    let sink = Arc::new(Mutex::new(VecSink::default()));
    let dynamic: Arc<Mutex<dyn TraceSink + Send>> = sink.clone();
    sim.set_trace(SinkHandle::from_shared(dynamic));
    sink
}

fn trace_lines(sink: &Arc<Mutex<VecSink>>) -> Vec<String> {
    sink.lock()
        .unwrap()
        .events
        .iter()
        .map(|e| e.to_json_line())
        .collect()
}

/// Warm a simulator the way the bench runner does: prefill, age, refresh.
fn warm(sim: &mut Simulator, rng: &mut Rng64) {
    let cfg = sim.config().ftl.clone();
    let exported = cfg.exported_pages();
    sim.prefill(0..exported / 2);
    let aging = random_trace(rng, &cfg, 300, 0.8);
    sim.age(&aging);
    let span = aging.last().map(|op| op.at).unwrap_or(1).max(1);
    sim.set_refresh_period(span * 4);
    sim.force_refresh_all(span / 2);
}

/// Continue both simulators identically past the snapshot point and demand
/// byte-equal reports and traces.
fn assert_identical_continuation(
    mut cold: Simulator,
    mut restored: Simulator,
    measured: Vec<HostOp>,
    spans: bool,
) {
    cold.set_spans(spans);
    restored.set_spans(spans);
    let cold_sink = attach_vec_sink(&mut cold);
    let restored_sink = attach_vec_sink(&mut restored);
    let cold_report = cold.run(measured.clone());
    let restored_report = restored.run(measured);
    assert_eq!(
        cold_report.to_json(),
        restored_report.to_json(),
        "restored run diverged from cold run (report)"
    );
    assert_eq!(
        trace_lines(&cold_sink),
        trace_lines(&restored_sink),
        "restored run diverged from cold run (trace)"
    );
    // And the post-run states are still interchangeable.
    assert_eq!(cold.snapshot(), restored.snapshot());
}

#[test]
fn restore_then_run_byte_equals_cold_run() {
    let mut rng = Rng64::seed_from_u64(0x5AAF_0001);
    for iter in 0..6 {
        let cfg = random_cfg(&mut rng);
        let mut cold = Simulator::new(cfg.clone());
        warm(&mut cold, &mut rng);

        let snap = cold.snapshot();
        let restored = Simulator::from_snapshot(&snap)
            .unwrap_or_else(|e| panic!("iteration {iter}: restore failed: {e}"));
        // Canonical form: re-encoding the restored state reproduces the
        // exact snapshot bytes.
        assert_eq!(restored.snapshot(), snap, "iteration {iter}: not canonical");

        let measured = random_trace(&mut rng, &cfg.ftl, 400, 0.5);
        assert_identical_continuation(cold, restored, measured, iter % 2 == 0);
    }
}

#[test]
fn restore_under_armed_faults_and_aging_is_identical() {
    let mut rng = Rng64::seed_from_u64(0x5AAF_0002);
    let levels = ["low", "mid", "high"];
    for (iter, level) in levels.iter().enumerate() {
        let cfg = random_cfg(&mut rng);
        let mut cold = Simulator::new(cfg.clone());
        warm(&mut cold, &mut rng);

        // Arm faults (the "high" level schedules power-loss crash points
        // mid-run) and aging *before* the snapshot: the injector's armed
        // RNG/counter state must survive the round-trip.
        let fault_seed = rng.next_u64();
        let aging_seed = rng.next_u64();
        cold.arm_faults(FaultConfig::preset(level, fault_seed).unwrap());
        cold.arm_aging(AgingConfig::preset(level, aging_seed).unwrap());

        let snap = cold.snapshot();
        let restored = Simulator::from_snapshot(&snap)
            .unwrap_or_else(|e| panic!("level {level}: restore failed: {e}"));
        assert_eq!(restored.snapshot(), snap, "level {level}: not canonical");

        let measured = random_trace(&mut rng, &cfg.ftl, 500, 0.5);
        assert_identical_continuation(cold, restored, measured, iter % 2 == 1);
    }
}

#[test]
fn snapshot_mid_crash_schedule_resumes_pending_losses() {
    // Snapshot *between* two power-loss events: the restored injector must
    // fire the remaining crash point at the same operation index.
    let mut rng = Rng64::seed_from_u64(0x5AAF_0003);
    let cfg = random_cfg(&mut rng);
    let mut cold = Simulator::new(cfg.clone());
    warm(&mut cold, &mut rng);

    let mut faults = FaultConfig::preset("mid", rng.next_u64()).unwrap();
    faults.power_loss_ops = vec![200, 900];
    cold.arm_faults(faults);
    // Drive past the first crash point only.
    let first = random_trace(&mut rng, &cfg.ftl, 150, 0.8);
    cold.run(first);

    let snap = cold.snapshot();
    let restored = Simulator::from_snapshot(&snap).expect("restore");
    assert_eq!(restored.snapshot(), snap);

    let measured = random_trace(&mut rng, &cfg.ftl, 600, 0.6);
    assert_identical_continuation(cold, restored, measured, true);
}

#[test]
fn fork_runs_like_a_restore_and_like_the_original() {
    // `Simulator::fork`, the warm cache's in-memory copy, under armed
    // faults and aging, taken between two scheduled power losses: it
    // encodes to the original's image, continues like a restore and like
    // the original kept running, and leaves the original's sink alone.
    let mut rng = Rng64::seed_from_u64(0x5AAF_0006);
    for (iter, level) in ["low", "mid", "high"].iter().enumerate() {
        let mut cfg = random_cfg(&mut rng);
        // A live retry stream, which a fork must carry, not reseed.
        cfg.retry = RetryConfig::late_lifetime(0.3, rng.next_u64());
        let mut cold = Simulator::new(cfg.clone());
        let sink = attach_vec_sink(&mut cold);
        warm(&mut cold, &mut rng);
        let mut faults = FaultConfig::preset(level, rng.next_u64()).unwrap();
        faults.power_loss_ops = vec![200, 900];
        cold.arm_faults(faults);
        cold.arm_aging(AgingConfig::preset(level, rng.next_u64()).unwrap());
        cold.run(random_trace(&mut rng, &cfg.ftl, 150, 0.8));

        let seen = trace_lines(&sink);
        let snap = cold.snapshot();
        assert!(
            cold.fork().snapshot() == snap,
            "level {level}: fork differs"
        );
        let mut quiet = cold.fork();
        quiet.run(random_trace(&mut rng, &cfg.ftl, 100, 0.5));
        assert_eq!(
            trace_lines(&sink),
            seen,
            "level {level}: a fork wrote to the sink"
        );

        let restored = Simulator::from_snapshot(&snap).unwrap();
        let measured = random_trace(&mut rng, &cfg.ftl, 500, 0.5);
        let fork = cold.fork();
        assert_identical_continuation(cold.fork(), restored, measured.clone(), iter % 2 == 0);
        assert_identical_continuation(cold, fork, measured, iter % 2 == 0);
    }
}

#[test]
fn rearmed_prefix_continues_like_one_built_under_the_policy() {
    // The staged warm cache's soundness condition on random configs. The
    // prefix view drops the refresh policy, ΔtR and the retry model; the
    // full view only ΔtR and the retry model. A prefill + age prefix built
    // under a config differing in all of them, forked and armed, equals
    // the prefix built under the cell's own config; a warm state (prefix +
    // refresh tail) built under one differing in timing and retry, forked
    // and armed, equals the cell's own; both keep running identically.
    let mut rng = Rng64::seed_from_u64(0x5AAF_0005);
    for iter in 0..6 {
        let cfg = random_cfg(&mut rng);
        let mut full = cfg.clone();
        full.timing = cfg.timing.with_delta_tr_us(rng.gen_range_u64(30, 71));
        full.retry = RetryConfig::late_lifetime(rng.gen_range_f64(0.0, 0.5), rng.next_u64());
        let mut other = full.clone();
        other.ftl.refresh_mode = match cfg.ftl.refresh_mode {
            ida_core::refresh::RefreshMode::Ida => ida_core::refresh::RefreshMode::Baseline,
            ida_core::refresh::RefreshMode::Baseline => ida_core::refresh::RefreshMode::Ida,
        };
        other.ftl.adjust_error_rate = rng.gen_range_f64(0.0, 0.4);
        other.ftl.seed = rng.next_u64();
        assert_eq!(
            other.warm_view(WarmStage::Prefix),
            cfg.warm_view(WarmStage::Prefix)
        );
        assert_eq!(
            full.warm_view(WarmStage::Full),
            cfg.warm_view(WarmStage::Full)
        );
        assert_ne!(
            other.warm_view(WarmStage::Full),
            cfg.warm_view(WarmStage::Full)
        );

        let exported = cfg.ftl.exported_pages();
        let aging = random_trace(&mut rng, &cfg.ftl, 300, 0.8);
        let span = aging.last().map_or(1, |op| op.at).max(1);
        let prefix = |c: &SsdConfig| {
            let mut sim = Simulator::new(c.clone());
            sim.prefill(0..exported / 2);
            sim.age(&aging);
            sim
        };
        let tail = |sim: &mut Simulator| {
            sim.set_refresh_period(span * 4);
            sim.force_refresh_all(span / 2);
        };
        let fork = |sim: &Simulator| {
            let mut fork = Simulator::from_snapshot(&sim.snapshot()).unwrap();
            fork.arm(&cfg);
            fork
        };
        let mut own = prefix(&cfg);
        let mut prefix_fork = fork(&prefix(&other));
        assert!(
            prefix_fork.snapshot() == own.snapshot(),
            "iteration {iter}: armed prefix differs"
        );
        tail(&mut own);
        tail(&mut prefix_fork);
        let mut warm = prefix(&full);
        tail(&mut warm);
        let warm_fork = fork(&warm);
        assert!(
            warm_fork.snapshot() == own.snapshot(),
            "iteration {iter}: armed warm state differs"
        );
        let measured = random_trace(&mut rng, &cfg.ftl, 400, 0.5);
        let own_copy = Simulator::from_snapshot(&own.snapshot()).unwrap();
        assert_identical_continuation(own, prefix_fork, measured.clone(), iter % 2 == 0);
        assert_identical_continuation(own_copy, warm_fork, measured, iter % 2 == 1);
    }
}

#[test]
fn corrupt_snapshots_are_rejected() {
    let mut rng = Rng64::seed_from_u64(0x5AAF_0004);
    let cfg = random_cfg(&mut rng);
    let mut sim = Simulator::new(cfg);
    warm(&mut sim, &mut rng);
    let snap = sim.snapshot();

    assert!(Simulator::from_snapshot(&snap[..snap.len() - 1]).is_err());
    let mut flipped = snap.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(Simulator::from_snapshot(&flipped).is_err());
    let mut nomagic = snap;
    nomagic[0] = b'Z';
    assert!(Simulator::from_snapshot(&nomagic).is_err());
}
