//! Differential property tests for the per-plane GC victim index.
//!
//! [`BlockTable`] answers victim queries and occupancy counters from
//! incrementally maintained structures; `gc::select_victim_scan` is the
//! retained linear-scan reference (the executable specification of the
//! `(valid_pages, erase_count, BlockAddr)` ordering). These tests drive
//! random block-lifecycle sequences — including the PR 3 fault paths:
//! retirement of worn blocks and spare promotion via `mark_bad`, plus
//! post-crash `restore` reconstruction — and assert that index and scan
//! never diverge, on any plane, with or without an excluded block.
//!
//! The index is built by the first victim query, from the block records,
//! and maintained from then on; so some sequences run thousands of
//! transitions before their first query, and an image must carry the
//! same bytes whether or not its index was ever built.
//!
//! Randomness comes from the workspace's seeded deterministic RNG, so
//! every run exercises the same (large) set of cases.

use ida_flash::addr::{BlockAddr, PlaneAddr};
use ida_flash::geometry::Geometry;
use ida_ftl::block::{BlockState, BlockTable};
use ida_ftl::gc::{select_victim, select_victim_scan};
use ida_obs::rng::Rng64;
use ida_snap::Snap;

/// Pick a random block satisfying `pred`, if any (uniformly via
/// reservoir sampling over the table).
fn pick_block(
    t: &BlockTable,
    rng: &mut Rng64,
    pred: impl Fn(&BlockTable, BlockAddr) -> bool,
) -> Option<BlockAddr> {
    let total = t.geometry().total_blocks();
    let mut chosen = None;
    let mut seen = 0u64;
    for i in 0..total {
        let b = BlockAddr(i);
        if pred(t, b) {
            seen += 1;
            if rng.gen_below(seen) == 0 {
                chosen = Some(b);
            }
        }
    }
    chosen
}

/// One random legal lifecycle action. Mirrors what the FTL actually does:
/// blocks are drained (fully invalidated) before erase or retirement, and
/// `mark_bad` also fires on Free blocks (spare promotion bookkeeping).
/// Never erases a Bad block — the FTL never does.
fn step(t: &mut BlockTable, rng: &mut Rng64, now: u64) {
    let g = *t.geometry();
    match rng.gen_below(100) {
        // Open a free block.
        0..=14 => {
            if let Some(b) = pick_block(t, rng, |t, b| t.state(b) == BlockState::Free) {
                t.open(b);
            }
        }
        // Program into an open block (closes it when full).
        15..=54 => {
            if let Some(b) = pick_block(t, rng, |t, b| t.has_room(b)) {
                // A burst, so blocks actually reach Closed.
                let burst = rng.gen_below(g.pages_per_block() as u64) + 1;
                for _ in 0..burst {
                    if !t.has_room(b) {
                        break;
                    }
                    t.allocate_page(b, now);
                }
            }
        }
        // Invalidate a page anywhere one is valid.
        55..=79 => {
            if let Some(b) = pick_block(t, rng, |t, b| {
                t.valid_pages(b) > 0 && t.state(b) != BlockState::Bad
            }) {
                t.invalidate_page(b);
            }
        }
        // GC-style collection: drain a reclaimable block, then erase it.
        80..=89 => {
            if let Some(b) = pick_block(t, rng, |t, b| {
                matches!(t.state(b), BlockState::Closed | BlockState::Ida)
            }) {
                for _ in 0..t.valid_pages(b) {
                    t.invalidate_page(b);
                }
                t.erase(b);
            }
        }
        // IDA conversion of a closed block.
        90..=94 => {
            if let Some(b) = pick_block(t, rng, |t, b| t.state(b) == BlockState::Closed) {
                let wl = rng.gen_below(g.wordlines_per_block as u64) as u32;
                let mask = (rng.gen_below(7) + 1) as u8;
                t.mark_ida(b, &[(wl, mask)], now);
            }
        }
        // Fault path: retire a drained block (program/erase failure)...
        95..=97 => {
            if let Some(b) = pick_block(t, rng, |t, b| {
                matches!(t.state(b), BlockState::Closed | BlockState::Ida)
            }) {
                for _ in 0..t.valid_pages(b) {
                    t.invalidate_page(b);
                }
                t.mark_bad(b);
            }
        }
        // ...or promote a spare: a Free block retires into the in-use set.
        _ => {
            if let Some(b) = pick_block(t, rng, |t, b| t.state(b) == BlockState::Free) {
                t.mark_bad(b);
            }
        }
    }
}

/// Global victim reference: the scan minimum across every plane.
fn global_scan(t: &BlockTable, exclude: Option<BlockAddr>) -> Option<BlockAddr> {
    let g = t.geometry();
    (0..g.total_planes())
        .filter_map(|p| select_victim_scan(t, PlaneAddr(p), exclude))
        .min_by_key(|&b| (t.valid_pages(b), t.erase_count(b), b))
}

/// Assert every index-backed answer matches its full-scan recomputation.
fn check_against_scan(t: &BlockTable, rng: &mut Rng64) {
    let g = t.geometry();
    let total = g.total_blocks();
    // A random excluded block plus the scan's own pick (the case that
    // actually matters: excluding the current minimum must surface the
    // runner-up, i.e. the second-smallest entry of some bucket).
    let mut excludes = vec![None, Some(BlockAddr(rng.gen_below(total as u64) as u32))];
    if let Some(b) = global_scan(t, None) {
        excludes.push(Some(b));
    }
    for plane in 0..g.total_planes() {
        let plane = PlaneAddr(plane);
        for &exclude in &excludes {
            assert_eq!(
                select_victim(t, plane, exclude),
                select_victim_scan(t, plane, exclude),
                "victim index diverged from scan on {plane:?} excluding {exclude:?}"
            );
        }
    }
    for &exclude in &excludes {
        assert_eq!(
            t.victim_global(exclude),
            global_scan(t, exclude),
            "global victim diverged from scan excluding {exclude:?}"
        );
    }
    // Occupancy counters against their O(blocks) recomputations.
    let in_use_scan = (0..total)
        .filter(|&i| t.state(BlockAddr(i)) != BlockState::Free)
        .count() as u32;
    assert_eq!(t.in_use_blocks(), in_use_scan, "in_use_blocks diverged");
    let erases_scan: u64 = (0..total).map(|i| t.erase_count(BlockAddr(i)) as u64).sum();
    assert_eq!(t.total_erases(), erases_scan, "total_erases diverged");
}

fn run_differential(geometry: Geometry, seed: u64, steps: u64, check_every: u64) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut t = BlockTable::new(geometry);
    check_against_scan(&t, &mut rng); // empty table
    for now in 0..steps {
        step(&mut t, &mut rng, now);
        if now % check_every == 0 {
            check_against_scan(&t, &mut rng);
        }
    }
    check_against_scan(&t, &mut rng);
}

#[test]
fn index_matches_scan_on_tiny_geometry() {
    run_differential(Geometry::tiny(), 0x71C_0001, 1500, 1);
}

/// A micro geometry with 4 planes and 8-page blocks: state transitions
/// (close, drain, erase, retire) fire constantly, and with only 6 blocks
/// per plane the exclusion runner-up path is exercised often.
#[test]
fn index_matches_scan_on_micro_multi_plane_geometry() {
    let g = Geometry {
        channels: 1,
        chips_per_channel: 1,
        dies_per_chip: 1,
        planes_per_die: 4,
        blocks_per_plane: 6,
        wordlines_per_block: 4,
        bits_per_cell: 2,
        page_size_bytes: 4 * 1024,
    };
    for seed in 0..4u64 {
        run_differential(g, 0x71C_0100 + seed, 1200, 1);
    }
}

/// The experiment-scale geometry (64 planes, 5504 blocks): checks are
/// sampled since each scan is O(total blocks).
#[test]
fn index_matches_scan_on_scaled_geometry() {
    run_differential(Geometry::scaled_8gb(), 0x71C_0200, 1200, 31);
}

/// Post-crash reconstruction: `restore` must rebuild the index and
/// counters to exactly the state a scan of the restored records implies.
#[test]
fn restore_rebuilds_index_and_counters() {
    let g = Geometry::tiny();
    let mut rng = Rng64::seed_from_u64(0x71C_0300);
    let mut t = BlockTable::new(g);
    for now in 0..600 {
        step(&mut t, &mut rng, now);
    }
    // Rebuild a fresh table from the survivor's per-block records, the way
    // the recovery scan replays OOB metadata.
    let mut rebuilt = BlockTable::new(g);
    for i in 0..g.total_blocks() {
        let b = BlockAddr(i);
        let masks: Vec<u8> = (0..g.wordlines_per_block)
            .map(|wl| t.wl_keep_mask(b, wl))
            .collect();
        if t.state(b) != BlockState::Free {
            rebuilt.restore(
                b,
                t.state(b),
                t.next_offset(b),
                t.valid_pages(b),
                t.erase_count(b),
                t.closed_at(b),
                &masks,
            );
        }
    }
    for plane in 0..g.total_planes() {
        let plane = PlaneAddr(plane);
        for exclude in [None, global_scan(&t, None)] {
            assert_eq!(
                select_victim(&rebuilt, plane, exclude),
                select_victim_scan(&t, plane, exclude),
                "restored index diverged on {plane:?}"
            );
        }
    }
    assert_eq!(rebuilt.in_use_blocks(), t.in_use_blocks());
    assert_eq!(rebuilt.ida_blocks(), t.ida_blocks());
    assert_eq!(rebuilt.adjusted_wordlines(), t.adjusted_wordlines());
    assert_eq!(rebuilt.bad_blocks(), t.bad_blocks());
}

/// Like [`run_differential`], but the first query comes only after
/// `unqueried` transitions, so the index is built from the block records.
fn run_lazy_differential(geometry: Geometry, seed: u64, unqueried: u64, checked: u64) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut t = BlockTable::new(geometry);
    for now in 0..unqueried {
        step(&mut t, &mut rng, now);
    }
    for now in unqueried..unqueried + checked {
        check_against_scan(&t, &mut rng);
        step(&mut t, &mut rng, now);
    }
    check_against_scan(&t, &mut rng);
}

/// A second small geometry: 2 planes of 5 TLC blocks with 9 pages each,
/// so blocks close, drain and tie often.
fn small_tlc() -> Geometry {
    Geometry {
        channels: 2,
        chips_per_channel: 1,
        dies_per_chip: 1,
        planes_per_die: 1,
        blocks_per_plane: 5,
        wordlines_per_block: 3,
        bits_per_cell: 3,
        page_size_bytes: 4 * 1024,
    }
}

fn encode(t: &BlockTable) -> Vec<u8> {
    let mut w = ida_snap::Writer::new();
    t.encode(&mut w);
    w.into_bytes()
}

fn decode(bytes: &[u8]) -> BlockTable {
    BlockTable::decode(&mut ida_snap::Reader::new(bytes)).expect("a table's own image decodes")
}

/// The first query builds the index from whatever 1–5,000 transitions
/// left behind; it must then agree with the scan through every later
/// transition, with and without exclusions.
#[test]
fn index_built_on_first_query_matches_scan() {
    let mut rng = Rng64::seed_from_u64(0x71C_0400);
    for (i, g) in [Geometry::tiny(), small_tlc()].into_iter().enumerate() {
        for run in 0..12u64 {
            let unqueried = match run {
                0 => 1,
                1 => 5_000,
                _ => rng.gen_range_u64(1, 5_001),
            };
            run_lazy_differential(g, 0x71C_0500 + 16 * i as u64 + run, unqueried, 200);
        }
    }
    run_lazy_differential(Geometry::scaled_8gb(), 0x71C_0600, 3_000, 60);
}

/// The index is derived state: a table encodes the index its block
/// records imply, so the bytes are the same before and after the first
/// query, a decoded table (index unbuilt) re-encodes to the same bytes,
/// and an index maintained through later transitions encodes like the
/// one a decoded table rebuilds.
#[test]
fn image_bytes_do_not_depend_on_when_the_index_was_built() {
    for (i, g) in [Geometry::tiny(), small_tlc()].into_iter().enumerate() {
        for (j, unqueried) in [0u64, 1, 37, 600, 3_000].into_iter().enumerate() {
            let mut rng = Rng64::seed_from_u64(0x71C_0700 + 8 * i as u64 + j as u64);
            let mut t = BlockTable::new(g);
            for now in 0..unqueried {
                step(&mut t, &mut rng, now);
            }
            let before = encode(&t);
            let mut decoded = decode(&before);
            assert_eq!(
                encode(&decoded),
                before,
                "decode → encode changed the bytes"
            );
            let _ = t.victim_global(None);
            assert_eq!(encode(&t), before, "the first query changed the image");
            check_against_scan(&decoded, &mut rng);
            // Both tables maintain an index from here on.
            let mut rng_decoded = rng.clone();
            for now in unqueried..unqueried + 400 {
                step(&mut t, &mut rng, now);
                step(&mut decoded, &mut rng_decoded, now);
            }
            let maintained = encode(&t);
            assert_eq!(encode(&decoded), maintained, "the two tables diverged");
            assert_eq!(
                encode(&decode(&maintained)),
                maintained,
                "a maintained index encodes unlike the rebuilt one"
            );
            check_against_scan(&t, &mut rng);
        }
    }
}
