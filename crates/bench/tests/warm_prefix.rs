//! The soundness condition of the staged warm cache: a warm-up prefix
//! (prefill + age) built under the normalised `prefix_config`, forked
//! and re-armed with a system's refresh policy, is byte-identical to the
//! prefix that system builds under its own configuration. Every fig8
//! system column can then fork one prefix per workload.

use ida_bench::runner::{
    prefix_cache_key, prefix_config, system_config, warm_prefix, ExperimentScale, SystemUnderTest,
};
use ida_bench::soak::SOAK_SPARES_PER_PLANE;
use ida_bench::sweep::{warm_config, FAULT_SPARES_PER_PLANE};
use ida_flash::timing::FlashTiming;
use ida_ssd::retry::RetryConfig;
use ida_ssd::{Simulator, SsdConfig};
use ida_sweep::{derive_stream_seed, SweepSpec};
use ida_workloads::suite::paper_workload;

const BASELINE: SystemUnderTest = SystemUnderTest::Baseline;
const E0: SystemUnderTest = SystemUnderTest::Ida { error_rate: 0.0 };
const E20: SystemUnderTest = SystemUnderTest::Ida { error_rate: 0.2 };
const E80: SystemUnderTest = SystemUnderTest::Ida { error_rate: 0.8 };

/// A cell's warm-up configuration: `system` with ΔtR `dtr_us` (the
/// paper's TLC timing when `None`), `spares` spare blocks per plane, and
/// a per-system seed, as the sweep's warm seeds differ per column.
fn cell_config(system: SystemUnderTest, dtr_us: Option<u64>, spares: u32) -> SsdConfig {
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
        .map(|&s| (s.label(), cell_config(s, dtr_us, spares)))
        .collect();
    assert_columns_fork_one_prefix(&format!("dtr {dtr_us:?}, {spares} spares"), &columns);
}

/// Build one shared prefix under the first column's `prefix_config`,
/// fork it into every `(label, config)` column, and compare each fork
/// with the prefix the column builds under its own config, byte for byte.
fn assert_columns_fork_one_prefix(what: &str, columns: &[(String, SsdConfig)]) {
    let preset = paper_workload("proj_3").unwrap();
    let scale = ExperimentScale::smoke();
    let first = &columns[0].1;
    let mut shared = Simulator::new(prefix_config(first));
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
        let f = &cfg.ftl;
        fork.arm_refresh(f.refresh_mode, f.adjust_error_rate, f.seed);
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

#[test]
fn device_variants_fork_one_prefix_each() {
    // The `variant` axis of the table5, fig6 and ablation grids, with the
    // warm configs and seeds their Baseline and IDA-E20 cells use.
    let scale = ExperimentScale::smoke();
    for variant in ["mlc", "qlc", "tlc232", "noplace"] {
        let cells = SweepSpec::new(
            "variants",
            vec!["proj_3".into()],
            vec![BASELINE.label(), E20.label()],
        )
        .with_axis("variant", vec![variant.into()])
        .cells();
        let columns: Vec<(String, SsdConfig)> = cells
            .iter()
            .map(|c| (c.system.clone(), warm_config(c, &scale).unwrap().1))
            .collect();
        assert_columns_fork_one_prefix(variant, &columns);
    }
}

#[test]
fn warm_relevant_fields_split_the_prefix_key() {
    let scale = ExperimentScale::smoke();
    let key = |dtr, spares| prefix_cache_key("proj_3", &cell_config(E20, dtr, spares), &scale);
    let plain = key(None, 0);
    assert_ne!(plain, key(Some(30), 0), "timing shapes the prefix");
    assert_ne!(
        plain,
        key(None, FAULT_SPARES_PER_PLANE),
        "spares shape the prefix"
    );
    assert_ne!(
        plain,
        prefix_cache_key("hm_1", &cell_config(E20, None, 0), &scale),
        "the workload shapes the prefix"
    );
}
