//! The soundness condition of the staged warm cache: a warm-up prefix
//! (prefill + age) built under the prefix view of one column's config
//! (`SsdConfig::warm_view`), forked and armed with another column's
//! (`Simulator::arm`), is byte-identical to the prefix that column builds
//! under its own configuration. Every fig8 system column, and every ΔtR
//! and lifetime-phase column of fig9 and fig11, can then fork one prefix
//! per workload.

use ida_bench::runner::{
    prefix_cache_key, system_config, to_host_ops, warm_prefix, warm_tail, ExperimentScale,
    SystemUnderTest,
};
use ida_bench::soak::SOAK_SPARES_PER_PLANE;
use ida_bench::sweep::{builtin_grid, cell_config, metrics_json, FAULT_SPARES_PER_PLANE};
use ida_flash::timing::FlashTiming;
use ida_ssd::retry::RetryConfig;
use ida_ssd::{HostOp, Simulator, SsdConfig, WarmStage};
use ida_sweep::{derive_stream_seed, SweepSpec};
use ida_workloads::suite::paper_workload;

const BASELINE: SystemUnderTest = SystemUnderTest::Baseline;
const E0: SystemUnderTest = SystemUnderTest::Ida { error_rate: 0.0 };
const E20: SystemUnderTest = SystemUnderTest::Ida { error_rate: 0.2 };
const E80: SystemUnderTest = SystemUnderTest::Ida { error_rate: 0.8 };

/// A cell's warm-up configuration: `system` with ΔtR `dtr_us` (the
/// paper's TLC timing when `None`), `spares` spare blocks per plane, and
/// a per-system seed, as the sweep's warm seeds differ per column.
fn column(system: SystemUnderTest, dtr_us: Option<u64>, spares: u32) -> SsdConfig {
    let mut timing = FlashTiming::paper_tlc();
    if let Some(d) = dtr_us {
        timing = timing.with_delta_tr_us(d);
    }
    let mut cfg = system_config(
        system,
        ExperimentScale::smoke().geometry,
        timing,
        RetryConfig::disabled(),
    );
    cfg.ftl.seed = derive_stream_seed(0x5EED, &system.label());
    cfg.ftl.spare_blocks_per_plane = spares;
    cfg
}

/// Build one shared prefix for the variant, fork it into every system,
/// and compare each fork with the system's own prefix, byte for byte.
fn assert_forks_equal_own_prefixes(dtr_us: Option<u64>, spares: u32, systems: &[SystemUnderTest]) {
    let columns: Vec<(String, SsdConfig)> = systems
        .iter()
        .map(|&s| (s.label(), column(s, dtr_us, spares)))
        .collect();
    assert_columns_fork_one_prefix(&format!("dtr {dtr_us:?}, {spares} spares"), &columns);
}

/// Build one shared prefix under the first column's prefix view, fork
/// it into every `(label, config)` column, and compare each fork with the
/// prefix the column builds under its own config, byte for byte.
fn assert_columns_fork_one_prefix(what: &str, columns: &[(String, SsdConfig)]) {
    let preset = paper_workload("proj_3").unwrap();
    let scale = ExperimentScale::smoke();
    let first = &columns[0].1;
    let mut shared = Simulator::new(first.warm_view(WarmStage::Prefix));
    warm_prefix(&mut shared, &preset);
    let image = shared.snapshot();
    for (label, cfg) in columns {
        assert_eq!(
            prefix_cache_key("proj_3", cfg, &scale),
            prefix_cache_key("proj_3", first, &scale),
            "{label} ({what}) must share the prefix key"
        );
        let mut own = Simulator::new(cfg.clone());
        warm_prefix(&mut own, &preset);
        let mut fork = Simulator::from_snapshot(&image).unwrap();
        fork.arm(cfg);
        assert!(
            fork.snapshot() == own.snapshot(),
            "{label} ({what}): forked prefix differs from its own"
        );
    }
}

#[test]
fn fig8_systems_fork_one_prefix() {
    assert_forks_equal_own_prefixes(None, 0, &[BASELINE, E0, E20, E80]);
}

#[test]
fn faults_config_forks_one_prefix() {
    assert_forks_equal_own_prefixes(None, FAULT_SPARES_PER_PLANE, &[BASELINE, E20]);
}

#[test]
fn soak_config_forks_one_prefix() {
    assert_forks_equal_own_prefixes(None, SOAK_SPARES_PER_PLANE, &[BASELINE, E20]);
}

#[test]
fn dtr_variants_fork_one_prefix_each() {
    assert_forks_equal_own_prefixes(Some(30), 0, &[BASELINE, E20]);
    assert_forks_equal_own_prefixes(Some(70), 0, &[BASELINE, E20]);
}

/// The columns of `cells`, labelled by cell ID, with the warm configs
/// and seeds the sweep gives them.
fn cell_columns(cells: &[ida_sweep::Cell]) -> Vec<(String, SsdConfig)> {
    let scale = ExperimentScale::smoke();
    cells
        .iter()
        .map(|c| (c.id(), cell_config(c, &scale).unwrap().1))
        .collect()
}

#[test]
fn device_variants_fork_one_prefix_each() {
    // The `variant` axis of the table5, fig6 and ablation grids, with the
    // warm configs and seeds their Baseline and IDA-E20 cells use.
    for variant in ["mlc", "qlc", "tlc232", "noplace"] {
        let cells = SweepSpec::new(
            "variants",
            vec!["proj_3".into()],
            vec![BASELINE.label(), E20.label()],
        )
        .with_axis("variant", vec![variant.into()])
        .cells();
        assert_columns_fork_one_prefix(variant, &cell_columns(&cells));
    }
}

#[test]
fn fig9_and_fig11_columns_fork_one_prefix_per_workload() {
    // Every ΔtR column of fig9 and every lifetime-phase column of fig11
    // (each with its own warm seed, timing or retry model) forks the one
    // prefix of its workload.
    for grid in ["fig9", "fig11"] {
        let mut cells = builtin_grid(grid).unwrap().cells();
        cells.retain(|c| c.workload == "proj_3");
        assert_eq!(cells.len(), if grid == "fig9" { 10 } else { 4 });
        assert_columns_fork_one_prefix(grid, &cell_columns(&cells));
    }
}

#[test]
fn warm_relevant_fields_split_the_prefix_key() {
    let scale = ExperimentScale::smoke();
    let key = |dtr, spares| prefix_cache_key("proj_3", &column(E20, dtr, spares), &scale);
    let plain = key(None, 0);
    // Prefill and age read neither the timing nor the retry model.
    assert_eq!(plain, key(Some(30), 0), "timing does not shape the prefix");
    let mut late = column(E20, None, 0);
    late.retry = RetryConfig::late_lifetime(0.4, 7);
    assert_eq!(
        plain,
        prefix_cache_key("proj_3", &late, &scale),
        "the retry model does not shape the prefix"
    );
    assert_ne!(
        plain,
        key(None, FAULT_SPARES_PER_PLANE),
        "spares shape the prefix"
    );
    assert_ne!(
        plain,
        prefix_cache_key("hm_1", &column(E20, None, 0), &scale),
        "the workload shapes the prefix"
    );
}

/// Replay `trace` on `sim` with spans on and return the sweep cell's
/// payload.
fn replay(mut sim: Simulator, trace: &[HostOp]) -> String {
    sim.set_spans(true);
    metrics_json(&sim.run(trace.to_vec()))
}

/// The simulator's timing-derived state (its sense-latency table) is set
/// wherever the timing is: `Simulator::new`, snapshot decode and
/// `Simulator::arm`. `cfg` built under its own config, `cfg` forked from
/// the prefix of `shared` and armed, and each of those restored from its
/// own snapshot must replay a short trace to one payload. Returns it.
fn assert_derived_state_replays_alike(what: &str, shared: &SsdConfig, cfg: &SsdConfig) -> String {
    let preset = paper_workload("proj_3").unwrap();
    let scale = ExperimentScale::smoke().with_requests(1_500);
    let mut prefix = Simulator::new(shared.warm_view(WarmStage::Prefix));
    warm_prefix(&mut prefix, &preset);
    let mut fork = Simulator::from_snapshot(&prefix.snapshot()).unwrap();
    fork.arm(cfg);
    let trace = to_host_ops(&warm_tail(&mut fork, &preset, &scale));
    let mut own = Simulator::new(cfg.clone());
    warm_prefix(&mut own, &preset);
    warm_tail(&mut own, &preset, &scale);
    let restored = |sim: &Simulator| Simulator::from_snapshot(&sim.snapshot()).unwrap();
    let (own_copy, fork_copy) = (restored(&own), restored(&fork));
    let expected = replay(own, &trace);
    for (path, sim) in [
        ("forked and armed", fork),
        ("restored", own_copy),
        ("forked, armed and restored", fork_copy),
    ] {
        assert_eq!(
            replay(sim, &trace),
            expected,
            "{what}: {path} replays differently from a simulator built under its config"
        );
    }
    expected
}

#[test]
fn timing_derived_state_follows_arm_restore_and_device() {
    // A ΔtR 50 µs prefix armed to 30 and to 70 µs: the fork's sense
    // latencies must follow the armed timing.
    let at_30 = assert_derived_state_replays_alike(
        "ΔtR 30",
        &column(BASELINE, None, 0),
        &column(E20, Some(30), 0),
    );
    let at_70 = assert_derived_state_replays_alike(
        "ΔtR 70",
        &column(BASELINE, None, 0),
        &column(E20, Some(70), 0),
    );
    assert_ne!(at_30, at_70, "the replay must see the armed ΔtR");
    // The 2-3-2 TLC coding's 3-sense CSB and QLC's 8-sense top pages,
    // forked from the variant's Baseline prefix into its IDA-E20 column.
    for variant in ["tlc232", "qlc"] {
        let cells = SweepSpec::new(
            "variants",
            vec!["proj_3".into()],
            vec![BASELINE.label(), E20.label()],
        )
        .with_axis("variant", vec![variant.into()])
        .cells();
        let columns = cell_columns(&cells);
        assert_derived_state_replays_alike(variant, &columns[0].1, &columns[1].1);
    }
}
