//! End-to-end integration tests: full warm-up → measure runs across the
//! crates, asserting the paper's qualitative results hold.

use ida_bench::runner::{
    normalized_read_response, run_config, system_config, ExperimentScale, SystemUnderTest,
};
use ida_flash::timing::FlashTiming;
use ida_ssd::retry::RetryConfig;
use ida_ssd::SsdConfig;
use ida_workloads::suite::paper_workload;

fn small_scale() -> ExperimentScale {
    ExperimentScale::smoke().with_requests(2_500)
}

/// The paper's TLC configuration of `system` at `scale`.
fn tlc(system: SystemUnderTest, scale: &ExperimentScale) -> SsdConfig {
    system_config(
        system,
        scale.geometry,
        FlashTiming::paper_tlc(),
        RetryConfig::disabled(),
    )
}

#[test]
fn ida_improves_read_response_on_read_heavy_workloads() {
    let scale = small_scale();
    for name in ["proj_1", "hm_1"] {
        let preset = paper_workload(name).unwrap();
        let base = run_config(&preset, tlc(SystemUnderTest::Baseline, &scale), &scale);
        let ida = run_config(
            &preset,
            tlc(SystemUnderTest::Ida { error_rate: 0.2 }, &scale),
            &scale,
        );
        let norm = normalized_read_response(&ida, &base);
        assert!(
            norm < 0.92,
            "{name}: expected a clear IDA-E20 improvement, got {norm}"
        );
        assert!(ida.breakdown.ida > 0);
    }
}

#[test]
fn benefit_decays_with_adjustment_error_rate() {
    let scale = small_scale();
    let preset = paper_workload("proj_2").unwrap();
    let base = run_config(&preset, tlc(SystemUnderTest::Baseline, &scale), &scale);
    let norm_at = |e: f64| {
        let ida = run_config(
            &preset,
            tlc(SystemUnderTest::Ida { error_rate: e }, &scale),
            &scale,
        );
        normalized_read_response(&ida, &base)
    };
    let e0 = norm_at(0.0);
    let e40 = norm_at(0.4);
    let e80 = norm_at(0.8);
    assert!(
        e0 < e40 && e40 < e80,
        "decay violated: E0={e0} E40={e40} E80={e80}"
    );
    assert!(e80 < 1.02, "even E80 should not clearly hurt, got {e80}");
}

#[test]
fn wider_latency_gap_gives_bigger_benefit() {
    // Figure 9's trend: ΔtR 30 µs vs 70 µs.
    let scale = small_scale();
    let preset = paper_workload("src2_0").unwrap();
    let norm_at = |delta: u64| {
        let timing = FlashTiming::paper_tlc().with_delta_tr_us(delta);
        let base = run_config(
            &preset,
            system_config(
                SystemUnderTest::Baseline,
                scale.geometry,
                timing,
                RetryConfig::disabled(),
            ),
            &scale,
        );
        let ida = run_config(
            &preset,
            system_config(
                SystemUnderTest::Ida { error_rate: 0.2 },
                scale.geometry,
                timing,
                RetryConfig::disabled(),
            ),
            &scale,
        );
        normalized_read_response(&ida, &base)
    };
    let narrow = norm_at(30);
    let wide = norm_at(70);
    assert!(
        wide < narrow,
        "ΔtR=70µs should beat ΔtR=30µs: narrow={narrow} wide={wide}"
    );
}

#[test]
fn mlc_benefit_is_smaller_than_tlc_benefit() {
    let scale = small_scale();
    let preset = paper_workload("proj_1").unwrap();
    let tlc_base = run_config(&preset, tlc(SystemUnderTest::Baseline, &scale), &scale);
    let tlc_ida = run_config(
        &preset,
        tlc(SystemUnderTest::Ida { error_rate: 0.2 }, &scale),
        &scale,
    );
    let tlc_norm = normalized_read_response(&tlc_ida, &tlc_base);

    let geometry = scale.geometry.with_bits_per_cell(2);
    let mlc_base = run_config(
        &preset,
        system_config(
            SystemUnderTest::Baseline,
            geometry,
            FlashTiming::paper_mlc(),
            RetryConfig::disabled(),
        ),
        &scale,
    );
    let mlc_ida = run_config(
        &preset,
        system_config(
            SystemUnderTest::Ida { error_rate: 0.2 },
            geometry,
            FlashTiming::paper_mlc(),
            RetryConfig::disabled(),
        ),
        &scale,
    );
    let mlc_norm = normalized_read_response(&mlc_ida, &mlc_base);
    assert!(mlc_norm < 1.0, "MLC should still benefit, got {mlc_norm}");
    assert!(
        tlc_norm < mlc_norm,
        "TLC benefit ({tlc_norm}) should exceed MLC benefit ({mlc_norm})"
    );
}

#[test]
fn read_retry_phase_amplifies_the_benefit() {
    // Figure 11's trend: late lifetime (retries) benefits more.
    let scale = small_scale();
    let preset = paper_workload("usr_2").unwrap();
    let norm_with = |retry: RetryConfig| {
        let base = run_config(
            &preset,
            system_config(
                SystemUnderTest::Baseline,
                scale.geometry,
                FlashTiming::paper_tlc(),
                retry,
            ),
            &scale,
        );
        let ida = run_config(
            &preset,
            system_config(
                SystemUnderTest::Ida { error_rate: 0.2 },
                scale.geometry,
                FlashTiming::paper_tlc(),
                retry,
            ),
            &scale,
        );
        normalized_read_response(&ida, &base)
    };
    let early = norm_with(RetryConfig::disabled());
    let late = norm_with(RetryConfig::late_lifetime(0.4, 0xEE77));
    assert!(
        late < early,
        "late lifetime should benefit more: early={early} late={late}"
    );
}

#[test]
fn ida_does_not_increase_wear_on_read_heavy_workloads() {
    // Section III-B: IDA recharges cells within an erase cycle instead of
    // adding cycles, so erase counts stay in line with the baseline.
    let scale = small_scale();
    let preset = paper_workload("proj_3").unwrap();
    let base = run_config(&preset, tlc(SystemUnderTest::Baseline, &scale), &scale);
    let ida = run_config(
        &preset,
        tlc(SystemUnderTest::Ida { error_rate: 0.2 }, &scale),
        &scale,
    );
    let base_erases = base.ftl.erases.max(1);
    let ida_erases = ida.ftl.erases;
    assert!(
        (ida_erases as f64) < base_erases as f64 * 1.10,
        "IDA erases ({ida_erases}) should track baseline ({base_erases})"
    );
    // And IDA writes strictly fewer refresh pages (survivors stay put).
    assert!(ida.ftl.refresh_moves < base.ftl.refresh_moves);
}

#[test]
fn every_host_request_completes_and_data_stays_readable() {
    let scale = small_scale();
    let preset = paper_workload("stg_1").unwrap();
    let run = run_config(
        &preset,
        tlc(SystemUnderTest::Ida { error_rate: 0.3 }, &scale),
        &scale,
    );
    let total = run.reads.count + run.writes.count;
    assert_eq!(total as usize, scale.requests, "all requests must complete");
    // No read was lost to an unmapped page *after warm-up prefill*: the
    // breakdown counts only flash-served reads; at least 95% of read pages
    // must have hit flash.
    assert!(run.breakdown.total() > 0);
}
