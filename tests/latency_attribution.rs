//! The latency-attribution conservation invariant, end to end.
//!
//! Three layers of the same contract:
//!
//! 1. **Exact micro case** — two reads racing for one die decompose into
//!    the timing model's literal constants (Table II), with the second
//!    read's queue wait charged to the host class holding the die.
//! 2. **Conservation under chaos** — a realistic workload with the
//!    `mid` fault level injected: for each class the attribution grand
//!    total equals the summed response time byte-exactly, per request
//!    counts match, and fault phases absorb the injected delays.
//! 3. **Replay** — a JSONL trace written by the observability layer
//!    replays through the offline analyzer into byte-identical
//!    attribution JSON, with zero conservation violations.

use ida_bench::analyze;
use ida_bench::runner::{
    run_system_obs, run_warmed, system_config, warmed_simulator, ExperimentScale, ObsOptions,
    ReplayMode, SystemUnderTest,
};
use ida_faults::FaultConfig;
use ida_flash::timing::FlashTiming;
use ida_obs::span::Phase;
use ida_obs::trace::{SinkHandle, TraceEvent, VecSink};
use ida_ssd::retry::RetryConfig;
use ida_ssd::{HostOp, HostOpKind, Simulator, SsdConfig};
use ida_workloads::suite::paper_workload;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

#[test]
fn two_reads_on_one_die_decompose_to_table2_constants() {
    let mut sim = Simulator::new(SsdConfig::tiny_test());
    sim.set_spans(true);
    let sink = Arc::new(Mutex::new(VecSink::new()));
    sim.set_trace(SinkHandle::from_shared(sink.clone()));
    sim.prefill(0..64);
    let report = sim.run(vec![
        HostOp {
            at: 0,
            kind: HostOpKind::Read,
            lpn: 0,
            pages: 1,
        },
        HostOp {
            at: 0,
            kind: HostOpKind::Read,
            lpn: 0,
            pages: 1,
        },
    ]);
    assert_eq!(report.reads.count, 2);

    let spans: Vec<(u64, u64, _)> = sink
        .lock()
        .unwrap()
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span {
                req,
                total_ns,
                phases,
                ..
            } => Some((*req, *total_ns, *phases)),
            _ => None,
        })
        .collect();
    assert_eq!(spans.len(), 2, "one span per completed request");

    // First read of an LSB page: 50us sense + 48us transfer + 20us ECC.
    let (_, t0, p0) = spans[0];
    assert_eq!(t0, 118_000);
    assert_eq!(p0.get(Phase::QueueHost), 0);
    assert_eq!(p0.get(Phase::Sense), 50_000);
    assert_eq!(p0.get(Phase::Transfer), 48_000);
    assert_eq!(p0.get(Phase::Ecc), 20_000);
    assert_eq!(p0.total(), t0);

    // The second read targets the same die and waits out the first's
    // sense + transfer hold (98us), charged to the host queue class; its
    // own service then repeats the same constants.
    let (_, t1, p1) = spans[1];
    assert_eq!(t1, 216_000);
    assert_eq!(p1.get(Phase::QueueHost), 98_000);
    assert_eq!(p1.get(Phase::Sense), 50_000);
    assert_eq!(p1.get(Phase::Transfer), 48_000);
    assert_eq!(p1.get(Phase::Ecc), 20_000);
    assert_eq!(p1.get(Phase::Channel), 0, "channel frees with the bus");
    assert_eq!(p1.total(), t1);

    // The in-sim aggregates fold exactly the same numbers.
    assert_eq!(report.read_attribution.count(), 2);
    assert_eq!(report.read_attribution.grand_total(), u128::from(t0 + t1));
    assert_eq!(report.read_attribution.grand_total(), report.reads.total_ns);
}

#[test]
fn conservation_holds_under_mid_level_faults() {
    let preset = paper_workload("hm_1").expect("workload");
    let scale = ExperimentScale::smoke().with_requests(1_500);
    let cfg = system_config(
        SystemUnderTest::Ida { error_rate: 0.2 },
        scale.geometry,
        FlashTiming::paper_tlc(),
        RetryConfig::disabled(),
    );
    let faults = FaultConfig::preset("mid", 41).expect("mid preset");
    let (sim, trace) = warmed_simulator(&preset, cfg, &scale, None);
    let report = run_warmed(sim, trace, ReplayMode::OpenLoop, Some(faults));

    assert!(report.reads.count > 0 && report.writes.count > 0);
    assert!(
        report.ftl.transient_read_faults > 0,
        "mid preset must inject transient read faults"
    );
    // Exact conservation: the waterfalls partition every response time,
    // so the per-class grand totals equal the latency totals.
    assert_eq!(report.read_attribution.count(), report.reads.count);
    assert_eq!(report.write_attribution.count(), report.writes.count);
    assert_eq!(report.read_attribution.grand_total(), report.reads.total_ns);
    assert_eq!(
        report.write_attribution.grand_total(),
        report.writes.total_ns
    );
    // Injected transient faults surface as retry re-senses and backoff.
    assert!(report.read_attribution.total(Phase::Retry) > 0);
    assert!(report.read_attribution.total(Phase::Backoff) > 0);
    // Utilization gauges cover the run: every die and channel saw work.
    assert!(!report.die_busy_ns.is_empty() && !report.channel_busy_ns.is_empty());
    assert!(report.die_busy_ns.iter().any(|&b| b > 0));
    assert!(report.channel_busy_ns.iter().any(|&b| b > 0));
}

#[test]
fn trace_replays_to_byte_identical_attribution() {
    let preset = paper_workload("hm_1").expect("workload");
    let scale = ExperimentScale::smoke().with_requests(800);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let obs = ObsOptions {
        trace_out: Some(dir.join("attr_replay.jsonl")),
        metrics_json: None,
        progress: false,
        trace_filter: None,
    };
    let report = run_system_obs(
        &preset,
        SystemUnderTest::Ida { error_rate: 0.2 },
        &scale,
        &obs,
    )
    .expect("run with obs");
    let path = obs.trace_out.expect("trace path");

    let stats = analyze::load(&path, 5).expect("trace loads");
    assert_eq!(stats.conservation_violations, 0);
    assert_eq!(stats.latency_mismatches, 0);
    assert_eq!(stats.reads.count(), report.reads.count);
    assert_eq!(
        stats.attribution_json(),
        report.attribution_json(),
        "offline replay must rebuild the in-sim aggregate byte-for-byte"
    );
    // The full toolchain runs clean on a real trace.
    let ok = analyze::validate(&path).expect("validates");
    assert!(ok.contains("conservation exact"), "summary: {ok}");
    let text = analyze::report(&path, 3).expect("reports");
    assert!(text.contains("read attribution"), "report: {text}");
    assert!(text.contains("utilization"), "report: {text}");
    let d = analyze::diff(&path, &path).expect("self-diff");
    assert!(
        d.contains("conservation violations: 0 vs 0"),
        "self-diff: {d}"
    );
}
