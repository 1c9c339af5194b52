//! Whole-lifetime soak harness: drive one system from fresh to rated
//! endurance through accelerated epochs and check the FTL's safety
//! invariants after every epoch.
//!
//! One soak run warms a simulator to steady state exactly like every
//! other experiment, arms the device-aging model, then alternates
//!
//! 1. an **idle gap** ([`ida_ssd::Simulator::advance_time`], one patrol
//!    period long) so retention clocks age and background scrub falls
//!    due, and
//! 2. a **wear step** ([`ida_ssd::Simulator::advance_wear`]) that walks
//!    uniform background P/E from 0 at epoch 0 to the rated endurance
//!    at the final epoch, and
//! 3. a **measured epoch**: the workload's timed trace replayed on the
//!    (persisting) FTL state.
//!
//! Epoch 0 runs before any wear or gap, so the first row of every soak
//! is the fresh-device baseline the aged epochs are compared against.
//!
//! After each epoch the harness verifies:
//!
//! - **Mapping consistency** — the FTL's full l2p/p2l cross-check
//!   ([`ida_ftl::Ftl::check_consistency`]);
//! - **No acked-data loss** — every prefilled LPN still translates;
//! - **Victim-index consistency** — the O(1) GC victim index agrees
//!   with the linear reference scan on every plane;
//! - **Counter monotonicity** — cumulative FTL counters never move
//!   backwards across epochs;
//! - **Span conservation** — per-phase attribution accounts for exactly
//!   as many reads and writes as the latency histograms.
//!
//! Violations are collected, not panicked on: a soak that trips an
//! invariant still reports its waterfall, and the caller (CLI, CI)
//! decides how loudly to fail. Degrading to read-only when spares drain
//! is a *legal* terminal state — it ends the soak early and is reported
//! separately from violations.

use crate::runner::{
    footprint, system_config, to_host_ops, warmed_simulator, ExperimentScale, SystemUnderTest,
};
use crate::table::{f, TextTable};
use ida_faults::AgingConfig;
use ida_flash::addr::PlaneAddr;
use ida_flash::timing::FlashTiming;
use ida_ftl::{gc, FtlStats, Lpn};
use ida_obs::json::{array, JsonObj};
use ida_ssd::retry::RetryConfig;
use ida_ssd::{Report, Simulator};
use ida_sweep::derive_stream_seed;
use ida_workloads::suite::WorkloadPreset;
use ida_workloads::trace::Trace;

/// Accelerated-lifetime epochs in a full soak (epoch 0 is fresh, the
/// last epoch is at rated endurance).
pub const SOAK_EPOCHS: usize = 6;

/// Spare blocks reserved per plane so ECC-uncorrectable relocations and
/// grown bad blocks can be remapped before read-only degradation.
pub const SOAK_SPARES_PER_PLANE: u32 = 2;

/// One measured epoch of a soak: latencies from this epoch's replay and
/// the *delta* of the cumulative FTL counters attributable to it.
#[derive(Debug, Clone, Default)]
pub struct EpochStats {
    /// Epoch index (0 = fresh device).
    pub epoch: usize,
    /// Uniform background P/E cycles applied before this epoch ran.
    pub wear_pe: u32,
    /// Host reads completed this epoch.
    pub reads: u64,
    /// Mean read response this epoch (ns).
    pub mean_read_ns: f64,
    /// p99 read response this epoch (ns).
    pub p99_read_ns: u64,
    /// Mean write response this epoch (ns).
    pub mean_write_ns: f64,
    /// Extra sense attempts taken by the retry ladder this epoch.
    pub ladder_retries: u64,
    /// Reads whose ladder exhausted (recovered by relocation) this epoch.
    pub ecc_uncorrectables: u64,
    /// Patrol-scrub passes completed this epoch.
    pub scrub_passes: u64,
    /// Pages relocated by patrol scrub this epoch.
    pub scrub_relocations: u64,
    /// Pages migrated by the wear-leveler this epoch.
    pub wear_level_moves: u64,
    /// Pages moved by refresh this epoch.
    pub refresh_moves: u64,
    /// Pages copied by GC this epoch.
    pub gc_copies: u64,
    /// Mean modeled RBER over this epoch's host reads.
    pub mean_rber: f64,
}

/// The outcome of one whole-lifetime soak of one system.
#[derive(Debug, Clone)]
pub struct SoakRun {
    /// Workload name.
    pub workload: String,
    /// System label (`Baseline`, `IDA-E20`).
    pub system: String,
    /// Aging level the device was soaked under.
    pub level: String,
    /// Per-epoch stats, epoch 0 first. Shorter than requested when the
    /// device degraded to read-only mid-soak.
    pub epochs: Vec<EpochStats>,
    /// Invariant violations detected (empty on a healthy soak).
    pub violations: Vec<String>,
    /// Why the device went read-only, when it did.
    pub read_only: Option<String>,
}

impl SoakRun {
    /// Render the per-epoch waterfall as a text table.
    pub fn render_table(&self) -> String {
        let mut t = TextTable::new(vec![
            "Epoch", "P/E", "Reads", "Mean us", "p99 us", "RBER", "Retry", "UECC", "Scrub",
            "WearLv", "Refresh",
        ]);
        for e in &self.epochs {
            t.row(vec![
                e.epoch.to_string(),
                e.wear_pe.to_string(),
                e.reads.to_string(),
                f(e.mean_read_ns / 1e3, 1),
                f(e.p99_read_ns as f64 / 1e3, 1),
                format!("{:.2e}", e.mean_rber),
                e.ladder_retries.to_string(),
                e.ecc_uncorrectables.to_string(),
                e.scrub_relocations.to_string(),
                e.wear_level_moves.to_string(),
                e.refresh_moves.to_string(),
            ]);
        }
        let mut out = format!(
            "{} / {} — lifetime soak at aging level {:?}\n\n",
            self.workload, self.system, self.level
        );
        out.push_str(&t.render());
        if let Some(reason) = &self.read_only {
            out.push_str(&format!("\ndevice degraded to read-only: {reason}\n"));
        }
        if self.violations.is_empty() {
            out.push_str("\ninvariants: all epochs clean\n");
        } else {
            out.push_str(&format!(
                "\nINVARIANT VIOLATIONS ({}):\n",
                self.violations.len()
            ));
            for v in &self.violations {
                out.push_str(&format!("  {v}\n"));
            }
        }
        out
    }
}

/// All cumulative [`FtlStats`] counters, named, for the monotonicity
/// check.
fn counters(s: &FtlStats) -> [(&'static str, u64); 22] {
    [
        ("host_writes", s.host_writes),
        ("host_reads", s.host_reads),
        ("gc_copies", s.gc_copies),
        ("gc_runs", s.gc_runs),
        ("erases", s.erases),
        ("refreshes", s.refreshes),
        ("refresh_moves", s.refresh_moves),
        ("voltage_adjusts", s.voltage_adjusts),
        ("ida_conversions", s.ida_conversions),
        ("ida_reads", s.ida_reads),
        ("injected_program_fails", s.injected_program_fails),
        ("injected_erase_fails", s.injected_erase_fails),
        ("transient_read_faults", s.transient_read_faults),
        ("write_redirects", s.write_redirects),
        ("retired_blocks", s.retired_blocks),
        ("power_losses", s.power_losses),
        ("recoveries", s.recoveries),
        ("rejected_writes", s.rejected_writes),
        ("scrub_passes", s.scrub_passes),
        ("scrub_relocations", s.scrub_relocations),
        ("wear_level_moves", s.wear_level_moves),
        ("ladder_retries", s.ladder_retries),
    ]
}

/// Run the post-epoch invariant battery, appending findings to
/// `violations`.
fn check_epoch(
    sim: &ida_ssd::Simulator,
    report: &Report,
    prev: &FtlStats,
    footprint: u64,
    epoch: usize,
    violations: &mut Vec<String>,
) {
    let ftl = sim.ftl();
    // 1. Full mapping cross-check.
    if let Err(e) = ftl.check_consistency() {
        violations.push(format!("epoch {epoch}: mapping consistency: {e}"));
    }
    // 2. No acked-data loss: every prefilled LPN still translates. Host
    //    writes only ever remap LPNs inside this footprint, so a missing
    //    translation means relocation (scrub, wear-level, GC, refresh,
    //    uncorrectable recovery) dropped committed data.
    let lost = (0..footprint).filter(|&l| !ftl.is_mapped(Lpn(l))).count();
    if lost > 0 {
        violations.push(format!(
            "epoch {epoch}: {lost} acked LPN(s) lost their mapping"
        ));
    }
    // 3. The O(1) victim index agrees with the linear reference scan.
    let blocks = ftl.blocks();
    for p in 0..blocks.geometry().total_planes() {
        let plane = PlaneAddr(p);
        let fast = blocks.victim_in_plane(plane, None);
        let slow = gc::select_victim_scan(blocks, plane, None);
        if fast != slow {
            violations.push(format!(
                "epoch {epoch}: victim index disagrees with scan on plane {p}: {fast:?} vs {slow:?}"
            ));
        }
    }
    // 4. Cumulative counters never move backwards.
    let cur = ftl.stats();
    for ((name, c), (_, p)) in counters(cur).iter().zip(counters(prev).iter()) {
        if c < p {
            violations.push(format!(
                "epoch {epoch}: counter {name} went backwards ({p} -> {c})"
            ));
        }
    }
    if cur.rber_e9_sum < prev.rber_e9_sum {
        violations.push(format!(
            "epoch {epoch}: counter rber_e9_sum went backwards ({} -> {})",
            prev.rber_e9_sum, cur.rber_e9_sum
        ));
    }
    // 5. Span conservation: attribution saw exactly the histogram counts.
    if report.read_attribution.count() != report.reads.count {
        violations.push(format!(
            "epoch {epoch}: read spans ({}) != read latencies ({})",
            report.read_attribution.count(),
            report.reads.count
        ));
    }
    if report.write_attribution.count() != report.writes.count {
        violations.push(format!(
            "epoch {epoch}: write spans ({}) != write latencies ({})",
            report.write_attribution.count(),
            report.writes.count
        ));
    }
}

/// The per-epoch delta of the cumulative FTL counters.
fn epoch_stats(epoch: usize, wear_pe: u32, report: &Report, prev: &FtlStats) -> EpochStats {
    let cur = &report.ftl;
    let d = |c: u64, p: u64| c.saturating_sub(p);
    let reads = d(cur.host_reads, prev.host_reads);
    let rber_e9 = d(cur.rber_e9_sum, prev.rber_e9_sum);
    EpochStats {
        epoch,
        wear_pe,
        reads: report.reads.count,
        mean_read_ns: report.reads.mean(),
        p99_read_ns: report.reads.percentile(99.0),
        mean_write_ns: report.writes.mean(),
        ladder_retries: d(cur.ladder_retries, prev.ladder_retries),
        ecc_uncorrectables: d(cur.ecc_uncorrectables, prev.ecc_uncorrectables),
        scrub_passes: d(cur.scrub_passes, prev.scrub_passes),
        scrub_relocations: d(cur.scrub_relocations, prev.scrub_relocations),
        wear_level_moves: d(cur.wear_level_moves, prev.wear_level_moves),
        refresh_moves: d(cur.refresh_moves, prev.refresh_moves),
        gc_copies: d(cur.gc_copies, prev.gc_copies),
        mean_rber: if reads > 0 {
            rber_e9 as f64 / 1e9 / reads as f64
        } else {
            0.0
        },
    }
}

/// Soak one system through a whole accelerated lifetime: warm a fresh
/// simulator under `seed`, then `soak_warmed`.
///
/// `seed` is the run's deterministic stream seed (a sweep cell passes
/// its `stream_seed`); the aging model's ladder stream is derived from
/// it, so the same inputs produce byte-identical outcomes on any worker
/// count.
///
/// # Panics
///
/// Panics on an unknown aging `level` — sweep cells rely on the engine
/// catching this as a per-cell failure.
pub fn run_soak(
    preset: &WorkloadPreset,
    system: SystemUnderTest,
    level: &str,
    epochs: usize,
    seed: u64,
    scale: &ExperimentScale,
) -> SoakRun {
    let timing = FlashTiming::paper_tlc();
    let mut cfg = system_config(system, scale.geometry, timing, RetryConfig::disabled());
    cfg.ftl.seed = seed;
    cfg.ftl.spare_blocks_per_plane = SOAK_SPARES_PER_PLANE;
    let (sim, trace) = warmed_simulator(preset, cfg, scale);
    soak_warmed(sim, &trace, preset, system, level, epochs, seed)
}

/// The soak epochs on a warmed simulator: arm the aging model of `level`
/// only now, so the warm-up stays byte-identical to every other
/// experiment, like a device that ages in service; then walk wear from
/// fresh to rated across `epochs` measured replays of `trace`, checking
/// the invariants after each. The model's ladder stream derives from
/// `seed`: a sweep cell warms under its shared warm seed and ages under
/// its own stream seed, so aging-level siblings share a warm-up yet age
/// through independent streams.
///
/// # Panics
///
/// On an unknown aging `level`.
pub(crate) fn soak_warmed(
    mut sim: Simulator,
    trace: &Trace,
    preset: &WorkloadPreset,
    system: SystemUnderTest,
    level: &str,
    epochs: usize,
    seed: u64,
) -> SoakRun {
    let aging = AgingConfig::preset(level, derive_stream_seed(seed, "aging"))
        .unwrap_or_else(|| panic!("unknown aging level {level:?}"));
    let footprint = footprint(preset, sim.ftl().exported_pages());
    sim.arm_aging(aging.clone());
    sim.set_spans(true);
    let ops = to_host_ops(trace);

    // Walk wear 0 → rated across the epochs (all before the last one).
    let epochs = epochs.max(1);
    let wear_step = if epochs > 1 {
        aging.rated_pe_cycles / (epochs as u32 - 1)
    } else {
        0
    };

    let mut run = SoakRun {
        workload: preset.spec.name.clone(),
        system: system.label(),
        level: level.to_string(),
        epochs: Vec::with_capacity(epochs),
        violations: Vec::new(),
        read_only: None,
    };
    let mut prev = *sim.ftl().stats();
    for epoch in 0..epochs {
        if epoch > 0 {
            // Idle gap: retention ages, the next patrol pass falls due.
            sim.advance_time(aging.scrub_period);
            sim.advance_wear(wear_step);
        }
        let report = sim.run(ops.clone());
        check_epoch(&sim, &report, &prev, footprint, epoch, &mut run.violations);
        run.epochs
            .push(epoch_stats(epoch, wear_step * epoch as u32, &report, &prev));
        prev = report.ftl;
        if let Some(reason) = sim.ftl().read_only_reason() {
            run.read_only = Some(reason.to_string());
            break;
        }
    }
    run
}

/// Serialize a [`SoakRun`] as the deterministic JSON payload a sweep
/// cell returns: headline fresh-vs-aged numbers flat (for renderers),
/// the full per-epoch waterfall nested under `epoch_stats`.
pub fn soak_metrics_json(run: &SoakRun) -> String {
    let fresh = run.epochs.first().cloned().unwrap_or_default();
    let aged = run.epochs.last().cloned().unwrap_or_default();
    let sum = |get: fn(&EpochStats) -> u64| run.epochs.iter().map(get).sum::<u64>();
    let epoch_json = array(run.epochs.iter().map(|e| {
        JsonObj::new()
            .u64("epoch", e.epoch as u64)
            .u64("wear_pe", e.wear_pe as u64)
            .u64("reads", e.reads)
            .f64("mean_read_ns", e.mean_read_ns)
            .u64("p99_read_ns", e.p99_read_ns)
            .f64("mean_write_ns", e.mean_write_ns)
            .u64("ladder_retries", e.ladder_retries)
            .u64("ecc_uncorrectables", e.ecc_uncorrectables)
            .u64("scrub_passes", e.scrub_passes)
            .u64("scrub_relocations", e.scrub_relocations)
            .u64("wear_level_moves", e.wear_level_moves)
            .u64("refresh_moves", e.refresh_moves)
            .u64("gc_copies", e.gc_copies)
            .f64("mean_rber", e.mean_rber)
            .finish()
    }));
    JsonObj::new()
        .str("level", &run.level)
        .u64("epochs", run.epochs.len() as u64)
        .u64("violations", run.violations.len() as u64)
        .str("violation_notes", &run.violations.join("; "))
        .bool("read_only", run.read_only.is_some())
        .str("read_only_reason", run.read_only.as_deref().unwrap_or(""))
        .f64("fresh_mean_read_ns", fresh.mean_read_ns)
        .u64("fresh_p99_read_ns", fresh.p99_read_ns)
        .f64("aged_mean_read_ns", aged.mean_read_ns)
        .u64("aged_p99_read_ns", aged.p99_read_ns)
        .f64("aged_mean_rber", aged.mean_rber)
        .u64("ladder_retries", sum(|e| e.ladder_retries))
        .u64("ecc_uncorrectables", sum(|e| e.ecc_uncorrectables))
        .u64("scrub_relocations", sum(|e| e.scrub_relocations))
        .u64("wear_level_moves", sum(|e| e.wear_level_moves))
        .raw("epoch_stats", &epoch_json)
        .finish()
}

/// Rebuild a renderable [`SoakRun`] view from a sweep cell's JSON
/// payload — the inverse of [`soak_metrics_json`], used by the CLI so
/// its tables are a pure function of the engine's deterministic
/// aggregation (and therefore byte-identical for any worker count).
///
/// # Errors
///
/// Returns a message when the payload is not valid soak JSON.
pub fn soak_run_from_json(workload: &str, system: &str, payload: &str) -> Result<SoakRun, String> {
    use ida_sweep::jsonv::{self, JsonValue};
    let v = jsonv::parse(payload).map_err(|e| format!("bad soak payload: {e}"))?;
    let get_str = |key: &str| {
        v.get(key)
            .and_then(|x| x.as_str())
            .unwrap_or("")
            .to_string()
    };
    let level = get_str("level");
    let notes = get_str("violation_notes");
    let violations = if notes.is_empty() {
        Vec::new()
    } else {
        notes.split("; ").map(String::from).collect()
    };
    let read_only = Some(get_str("read_only_reason")).filter(|s| !s.is_empty());
    let mut epochs = Vec::new();
    if let Some(JsonValue::Arr(items)) = v.get("epoch_stats") {
        for e in items {
            let u = |key: &str| e.get(key).and_then(|x| x.as_u64()).unwrap_or(0);
            let fl = |key: &str| e.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0);
            epochs.push(EpochStats {
                epoch: u("epoch") as usize,
                wear_pe: u("wear_pe") as u32,
                reads: u("reads"),
                mean_read_ns: fl("mean_read_ns"),
                p99_read_ns: u("p99_read_ns"),
                mean_write_ns: fl("mean_write_ns"),
                ladder_retries: u("ladder_retries"),
                ecc_uncorrectables: u("ecc_uncorrectables"),
                scrub_passes: u("scrub_passes"),
                scrub_relocations: u("scrub_relocations"),
                wear_level_moves: u("wear_level_moves"),
                refresh_moves: u("refresh_moves"),
                gc_copies: u("gc_copies"),
                mean_rber: fl("mean_rber"),
            });
        }
    }
    Ok(SoakRun {
        workload: workload.to_string(),
        system: system.to_string(),
        level,
        epochs,
        violations,
        read_only,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ida_sweep::jsonv;
    use ida_workloads::suite::paper_workload;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale::smoke().with_requests(1_200)
    }

    #[test]
    fn soak_runs_a_lifetime_with_clean_invariants_and_aging_effects() {
        let preset = paper_workload("hm_1").expect("hm_1 exists");
        let run = run_soak(
            &preset,
            SystemUnderTest::Baseline,
            "high",
            3,
            derive_stream_seed(42, "soak-test"),
            &tiny_scale(),
        );
        assert_eq!(run.violations, Vec::<String>::new());
        assert_eq!(run.epochs.len(), 3, "no early read-only at this scale");
        // Wear walks 0 → rated.
        assert_eq!(run.epochs[0].wear_pe, 0);
        assert!(run.epochs[2].wear_pe >= 2_000, "last epoch near rated P/E");
        // Aging bites: the aged device senses a higher RBER and pays for
        // it in retries and mean read latency.
        let fresh = &run.epochs[0];
        let aged = run.epochs.last().unwrap();
        assert!(aged.mean_rber > fresh.mean_rber);
        assert!(aged.ladder_retries > fresh.ladder_retries);
        assert!(
            aged.mean_read_ns > fresh.mean_read_ns,
            "aged epoch mean read {} should exceed fresh {}",
            aged.mean_read_ns,
            fresh.mean_read_ns
        );
        // The table renders every epoch plus the clean-invariant note.
        let table = run.render_table();
        assert!(table.contains("invariants: all epochs clean"));
    }

    #[test]
    fn soak_is_deterministic_for_a_fixed_seed() {
        let preset = paper_workload("proj_3").expect("proj_3 exists");
        let scale = ExperimentScale::smoke().with_requests(600);
        let go = || {
            soak_metrics_json(&run_soak(
                &preset,
                SystemUnderTest::Ida { error_rate: 0.2 },
                "mid",
                2,
                derive_stream_seed(7, "soak-det"),
                &scale,
            ))
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn soak_json_has_the_renderer_keys() {
        let run = SoakRun {
            workload: "hm_0".into(),
            system: "Baseline".into(),
            level: "mid".into(),
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    mean_read_ns: 100_000.0,
                    ..EpochStats::default()
                },
                EpochStats {
                    epoch: 1,
                    wear_pe: 3_000,
                    mean_read_ns: 140_000.0,
                    ladder_retries: 9,
                    ..EpochStats::default()
                },
            ],
            violations: vec![],
            read_only: None,
        };
        let v = jsonv::parse(&soak_metrics_json(&run)).expect("valid json");
        assert_eq!(v.get("epochs").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("violations").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("read_only").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("fresh_mean_read_ns").unwrap().as_f64(),
            Some(100_000.0)
        );
        assert_eq!(
            v.get("aged_mean_read_ns").unwrap().as_f64(),
            Some(140_000.0)
        );
        assert_eq!(v.get("ladder_retries").unwrap().as_u64(), Some(9));

        // The payload round-trips into a renderable view.
        let back =
            soak_run_from_json("hm_1", "Baseline", &soak_metrics_json(&run)).expect("round trip");
        assert_eq!(back.level, "mid");
        assert_eq!(back.epochs.len(), 2);
        assert_eq!(back.epochs[1].wear_pe, 3_000);
        assert_eq!(back.epochs[1].ladder_retries, 9);
        assert!(back.violations.is_empty());
        assert!(back.read_only.is_none());
        assert!(back.render_table().contains("lifetime soak"));
    }

    #[test]
    fn unknown_level_panics_for_the_engine_to_catch() {
        let preset = paper_workload("proj_4").expect("proj_4 exists");
        let res = std::panic::catch_unwind(|| {
            run_soak(
                &preset,
                SystemUnderTest::Baseline,
                "molten",
                2,
                1,
                &tiny_scale(),
            )
        });
        assert!(res.is_err());
    }
}
