//! The untimed warm-up path builds no flash ops, yet must change device
//! state exactly as the op-building path does. Two FTLs built from one
//! config are driven over the same inputs — a prefill, an aging write
//! stream, then two refresh passes over every closed block with update
//! traffic between, as the simulator's warm-up runs them — one through
//! `write` and `refresh_block` into a collecting list, the other through
//! `write_untimed` and `refresh_block_untimed`. Their images and
//! statistics must agree byte for byte.

use ida_core::refresh::RefreshMode;
use ida_faults::FaultConfig;
use ida_flash::addr::BlockAddr;
use ida_flash::geometry::Geometry;
use ida_ftl::block::BlockState;
use ida_ftl::{Ftl, FtlConfig, FtlError, FtlStats, Lpn};
use ida_obs::rng::Rng64;

/// Which entry points a warm-up drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// `write` and `refresh_block`, every op collected.
    Timed,
    /// `write_untimed` and `refresh_block_untimed`.
    Untimed,
}

/// A warm-up run: the device it leaves and the flash ops it built.
struct Run {
    ftl: Ftl,
    ops: usize,
    path: Path,
}

impl Run {
    fn write(&mut self, lpn: u64, now: u64) -> Result<(), FtlError> {
        match self.path {
            Path::Timed => self
                .ftl
                .write(Lpn(lpn), now)
                .map(|ops| self.ops += ops.len()),
            Path::Untimed => self.ftl.write_untimed(Lpn(lpn), now),
        }
    }

    /// One warm-up write as the simulator issues it: after a power loss
    /// the device recovers and the write is retried once; a read-only
    /// rejection is dropped.
    fn warm_write(&mut self, lpn: u64, now: u64) {
        if self.write(lpn, now) == Err(FtlError::PowerLoss) {
            self.ftl.recover(now);
            let _ = self.write(lpn, now);
        }
    }

    /// Refresh every closed block that holds valid pages, staggered from
    /// `now`, recovering from a power loss between blocks.
    fn refresh_pass(&mut self, now: u64) {
        let blocks = self.ftl.blocks();
        let closed: Vec<BlockAddr> = blocks
            .reclaimable_blocks()
            .filter(|&(b, valid, _)| valid > 0 && blocks.state(b) == BlockState::Closed)
            .map(|(b, _, _)| b)
            .collect();
        for (i, b) in closed.into_iter().enumerate() {
            let when = now + i as u64 * 1_000;
            match self.path {
                Path::Timed => {
                    let mut ops = Vec::new();
                    self.ftl.refresh_block(b, when, &mut ops);
                    self.ops += ops.len();
                }
                Path::Untimed => self.ftl.refresh_block_untimed(b, when),
            }
            if self.ftl.power_lost() {
                self.ftl.recover(when);
            }
        }
    }

    /// `writes` skewed updates: four in five hit the hottest fifth of the
    /// exported space.
    fn age(&mut self, rng: &mut Rng64, writes: u64, now: u64) {
        let exported = self.ftl.exported_pages();
        for _ in 0..writes {
            let lpn = if rng.gen_below(5) < 4 {
                rng.gen_below(exported / 5)
            } else {
                rng.gen_below(exported)
            };
            self.warm_write(lpn, now);
        }
    }
}

fn warm_up(cfg: &FtlConfig, path: Path) -> Run {
    let mut run = Run {
        ftl: Ftl::new(cfg.clone()),
        ops: 0,
        path,
    };
    let mut rng = Rng64::seed_from_u64(0x0A6E_D00D);
    let exported = run.ftl.exported_pages();
    for lpn in 0..exported {
        run.warm_write(lpn, 0);
    }
    run.age(&mut rng, 3 * exported, 1);
    run.refresh_pass(1_000_000);
    run.age(&mut rng, exported / 2, 2_000_000);
    run.refresh_pass(3_000_000);
    run.age(&mut rng, exported / 2, 4_000_000);
    run
}

fn image(ftl: &Ftl) -> Vec<u8> {
    let mut w = ida_snap::Writer::new();
    ida_snap::Snap::encode(ftl, &mut w);
    w.into_bytes()
}

/// Warm up both ways and compare; returns the statistics both reached.
fn assert_paths_agree(cfg: FtlConfig) -> FtlStats {
    let timed = warm_up(&cfg, Path::Timed);
    let untimed = warm_up(&cfg, Path::Untimed);
    let stats = *timed.ftl.stats();
    assert!(timed.ops > 0, "the timed path built no ops");
    assert!(
        stats.gc_runs > 0 && stats.refreshes > 0,
        "the warm-up must reach GC and refresh: {stats:?}"
    );
    assert_eq!(stats, *untimed.ftl.stats(), "statistics diverged");
    assert!(
        image(&timed.ftl) == image(&untimed.ftl),
        "the untimed path left a different device image"
    );
    stats
}

/// Four planes, so relocations choose among planes (LSB placement).
fn config(mode: RefreshMode, adjust_error_rate: f64) -> FtlConfig {
    FtlConfig {
        geometry: Geometry {
            planes_per_die: 2,
            blocks_per_plane: 32,
            ..Geometry::tiny()
        },
        refresh_mode: mode,
        adjust_error_rate,
        refresh_period: 1_000_000,
        ..FtlConfig::default()
    }
}

#[test]
fn baseline_warm_up_builds_no_ops_and_the_same_device() {
    assert_paths_agree(config(RefreshMode::Baseline, 0.0));
}

#[test]
fn ida_e20_warm_up_builds_no_ops_and_the_same_device() {
    let stats = assert_paths_agree(config(RefreshMode::Ida, 0.2));
    assert!(stats.ida_conversions > 0, "no block took IDA coding");
}

/// Power fails in the prefill, the aging stream and the first refresh
/// pass, and programs fail now and then: the recover-and-retry branch and
/// the redirect path run on both sides.
#[test]
fn warm_up_through_power_losses_builds_the_same_device() {
    let mut cfg = config(RefreshMode::Ida, 0.2);
    cfg.faults = FaultConfig {
        program_fail_prob: 0.002,
        power_loss_ops: vec![1_500, 60_000, 128_000],
        seed: 7,
        ..FaultConfig::none()
    };
    let stats = assert_paths_agree(cfg);
    assert_eq!(stats.power_losses, 3);
    assert_eq!(stats.recoveries, 3);
    assert!(stats.injected_program_fails > 0);
}
