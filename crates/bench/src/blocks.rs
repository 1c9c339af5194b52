//! Section III-C — the space-side costs of IDA coding, as the cells of the
//! `blocks` grid. **A** (`blocks=growth`): IDA keeps refresh target blocks
//! alive instead of letting GC reclaim them; the paper reports the in-use
//! block increase as 2–4 % of the device, 14–30 % of the workloads' own
//! footprints. **B** (`blocks=gc`): on a fully utilized device,
//! write-intensive traffic after the IDA workloads changes erases by only
//! a few percent (paper: up to 3 %), shrinking as IDA blocks get reclaimed.
//!
//! Both warm up with their own protocol under the system's plain TLC
//! configuration and the FTL's default seed, outside the warm cache.

use crate::runner::{footprint, tlc_config, ExperimentScale, SystemUnderTest};
use ida_flash::addr::BlockAddr;
use ida_ftl::block::BlockState;
use ida_obs::json::JsonObj;
use ida_ssd::Simulator;
use ida_workloads::suite::WorkloadPreset;
use ida_workloads::synth::WorkloadSpec;

/// Blocks that hold at least one valid page (plus open blocks): the blocks
/// GC cannot reclaim for free.
fn data_holding_blocks(sim: &Simulator) -> u64 {
    let blocks = sim.ftl().blocks();
    let with_data = blocks
        .reclaimable_blocks()
        .filter(|&(_, valid, _)| valid > 0);
    let open = (0..blocks.geometry().total_blocks())
        .filter(|&b| blocks.state(BlockAddr(b)) == BlockState::Open);
    (with_data.count() + open.count()) as u64
}

/// Run one `blocks` cell: scenario `part` (`growth` or `gc`) of `preset`
/// on `system`, returning its payload: the device's `device_blocks` and
/// `pages_per_block`, the warmed `footprint_pages`, and for `growth` the
/// `data_blocks` left holding data, for `gc` the `early_erases` and
/// `late_erases` of the two follow-on write windows.
///
/// # Errors
///
/// An unknown `part`.
pub fn run_blocks(
    preset: &WorkloadPreset,
    system: SystemUnderTest,
    part: &str,
    scale: &ExperimentScale,
) -> Result<String, String> {
    let cfg = tlc_config(system, scale);
    let exported = cfg.ftl.exported_pages();
    let pages = match part {
        "growth" => footprint(preset, exported),
        // "User space fully utilized": fill 70% of exported space so the
        // follow-on writes run the device at GC steady state.
        "gc" => (exported as f64 * 0.70) as u64,
        other => return Err(format!("unknown blocks part {other:?}")),
    };
    // Prefill, age by a quarter of the footprint, refresh every block once.
    let mut sim = Simulator::new(cfg);
    sim.prefill(0..pages);
    sim.age(&preset.spec.scaled_writes(pages, 0.25, 0xA61).records);
    sim.set_refresh_period(u64::MAX / 4);
    sim.force_refresh_all(1);
    let json = JsonObj::new()
        .u64("device_blocks", scale.geometry.total_blocks().into())
        .u64("pages_per_block", scale.geometry.pages_per_block().into())
        .u64("footprint_pages", pages);
    if part == "growth" {
        return Ok(json.u64("data_blocks", data_holding_blocks(&sim)).finish());
    }
    let writer = WorkloadSpec {
        read_ratio: 0.0,
        name: format!("{}-writer", preset.spec.name),
        seed: preset.spec.seed ^ 0xBEEF,
        write_size_pages: 4.0,
        ..preset.spec.clone()
    };
    // Two windows: the transient right after the IDA conversions, and a
    // later window where IDA blocks have been reclaimed.
    let mut erases_during = |fraction, seed| {
        let writes = writer.scaled_writes(pages, fraction, seed);
        let before = sim.ftl().stats().erases;
        sim.age(&writes.records);
        sim.ftl().stats().erases - before
    };
    let early = erases_during(0.3, 0xBEEF);
    let late = erases_during(0.5, 0xBEF0);
    Ok(json
        .u64("early_erases", early)
        .u64("late_erases", late)
        .finish())
}
