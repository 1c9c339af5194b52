//! Pins the generated warm-up and measured traces byte for byte. Every
//! warm image and every simulated output is a function of these traces,
//! so a change to the generator that moves one record — or one draw of
//! its RNG stream — shows up here by name, before it shows up as a
//! changed aggregate. Each trace is hashed with FNV-1a over its CSV form
//! at the smoke footprint.

use ida_bench::runner::{footprint, ExperimentScale};
use ida_workloads::suite::paper_workload;
use ida_workloads::trace::Trace;

/// Pages the smoke geometry exports.
const SMOKE_EXPORTED: u64 = 898_252;

fn fingerprint(trace: &Trace) -> (u64, usize) {
    let mut csv = Vec::new();
    trace.write_csv(&mut csv).expect("writing to memory");
    (ida_snap::fnv1a(&csv), trace.records.len())
}

/// `(aging, reage, reage2, measured)` fingerprints of `workload`'s traces
/// at `footprint` pages, with the measured trace at the smoke request
/// count.
fn assert_traces(workload: &str, footprint_pages: u64, want: [(u64, usize); 4]) {
    let preset = paper_workload(workload).unwrap();
    assert_eq!(footprint(&preset, SMOKE_EXPORTED), footprint_pages);
    let requests = ExperimentScale::smoke().requests;
    let got = [
        preset.aging_trace(footprint_pages),
        preset.reage_trace(footprint_pages),
        preset.reage_trace2(footprint_pages),
        preset.generate(footprint_pages, requests),
    ]
    .map(|t| fingerprint(&t));
    for (i, name) in ["aging", "reage", "reage2", "measured"].iter().enumerate() {
        assert_eq!(
            got[i], want[i],
            "{workload} {name} trace moved: (fnv1a, records) {:016x?} != {:016x?}",
            got[i], want[i]
        );
    }
}

#[test]
fn hm_1_traces_are_pinned() {
    assert_traces(
        "hm_1",
        44_912,
        [
            (0x0ce4_ec41_857b_6d75, 21_466),
            (0xef00_e6af_3632_9e55, 4_274),
            (0x6417_2fce_3324_c246, 4_274),
            (0xdce5_3d03_0333_7f31, 6_000),
        ],
    );
}

#[test]
fn src1_0_traces_are_pinned() {
    assert_traces(
        "src1_0",
        125_755,
        [
            (0x1c69_df25_8def_cc9b, 23_051),
            (0xa7df_1847_8a64_ecc0, 7_749),
            (0xa14a_c8f8_129d_a081, 7_749),
            (0x0493_d2fe_bfee_facf, 6_000),
        ],
    );
}
