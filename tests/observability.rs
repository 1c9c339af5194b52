//! Integration tests for the observability layer: trace determinism,
//! timestamp monotonicity, and the trace ↔ report replay contract.

use ida_bench::analyze;
use ida_bench::load::{load_metrics_json, run_load, LoadSpec};
use ida_bench::runner::{
    run_system_obs, system_config, to_host_ops, warmed_simulator, ExperimentScale, ObsOptions,
    SystemUnderTest,
};
use ida_core::refresh::RefreshMode;
use ida_flash::timing::FlashTiming;
use ida_host::ArrivalSpec;
use ida_obs::span::{Phase, PhaseNs};
use ida_obs::trace::{SinkHandle, TraceEvent, VecSink, TRACE_CLASSES};
use ida_ssd::retry::RetryConfig;
use ida_ssd::{HostOp, HostOpKind, Simulator, SsdConfig};
use ida_workloads::suite::paper_workload;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A simulator with a shared in-memory sink attached at creation, so the
/// trace covers every FTL event the run's cumulative stats count.
fn traced_sim(cfg: SsdConfig) -> (Simulator, Arc<Mutex<VecSink>>) {
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let mut sim = Simulator::new(cfg);
    sim.set_trace(SinkHandle::from_shared(sink.clone()));
    (sim, sink)
}

fn mixed_trace(n: u64) -> Vec<HostOp> {
    let mut t = Vec::new();
    for i in 0..n {
        t.push(HostOp {
            at: i * 10_000,
            kind: if i % 3 == 0 {
                HostOpKind::Write
            } else {
                HostOpKind::Read
            },
            lpn: i % 64,
            pages: 1,
        });
    }
    t
}

#[test]
fn same_seed_produces_byte_identical_jsonl() {
    let preset = paper_workload("hm_1").expect("workload");
    let scale = ExperimentScale::smoke().with_requests(600);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let mut outputs = Vec::new();
    for i in 0..2 {
        let obs = ObsOptions {
            trace_out: Some(dir.join(format!("det_{i}.jsonl"))),
            metrics_json: Some(dir.join(format!("det_{i}.json"))),
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
        let trace = std::fs::read(obs.trace_out.as_ref().unwrap()).expect("trace file");
        let metrics = std::fs::read(obs.metrics_json.as_ref().unwrap()).expect("metrics file");
        outputs.push((trace, metrics, report));
    }
    let (t0, m0, r0) = &outputs[0];
    let (t1, m1, r1) = &outputs[1];
    assert!(!t0.is_empty(), "trace must not be empty");
    assert_eq!(t0, t1, "same-seed traces must be byte-identical");
    assert_eq!(m0, m1, "same-seed metrics must be byte-identical");
    assert_eq!(r0, r1, "same-seed reports must be equal");
    // The `compare` path's files, pinned byte for byte.
    assert_eq!(
        ida_snap::fnv1a(t0),
        15_212_305_144_169_885_672,
        "the compare trace moved"
    );
    assert_eq!(
        ida_snap::fnv1a(m0),
        6_952_264_973_653_042_957,
        "the compare metrics moved"
    );
    let text = String::from_utf8(t0.clone()).expect("utf8");
    let first = text.lines().next().expect("at least one line");
    assert!(
        first.starts_with("{\"ev\":\"run_start\""),
        "trace opens with run_start: {first}"
    );
    assert!(text
        .lines()
        .all(|l| l.starts_with("{\"ev\":\"") && l.ends_with('}')));
}

#[test]
fn measured_run_timestamps_are_monotone() {
    let (mut sim, sink) = traced_sim(SsdConfig::tiny_test());
    sim.prefill(0..64);
    let report = sim.run(mixed_trace(256));
    assert!(report.reads.count > 0 && report.writes.count > 0);
    let events = &sink.lock().unwrap().events;
    assert!(!events.is_empty());
    let stamps: Vec<u64> = events.iter().map(TraceEvent::timestamp).collect();
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "timestamps must be non-decreasing"
    );
}

#[test]
fn trace_counts_replay_to_report_aggregates() {
    // IDA refresh inside the measured window, like the simulator's own
    // refresh test, so GC/refresh/conversion events all occur.
    let mut cfg = SsdConfig::tiny_test();
    cfg.ftl.refresh_mode = RefreshMode::Ida;
    cfg.ftl.adjust_error_rate = 0.0;
    cfg.ftl.refresh_period = 1_000_000;
    let (mut sim, sink) = traced_sim(cfg);
    let g = sim.config().ftl.geometry;
    let to_write = g.pages_per_block() as u64 * g.total_planes() as u64;
    sim.prefill(0..to_write);
    let mut trace = mixed_trace(200);
    trace.push(HostOp {
        at: 50_000_000,
        kind: HostOpKind::Read,
        lpn: 1,
        pages: 1,
    });
    let report = sim.run(trace);

    let events = sink.lock().unwrap().events.clone();
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
    assert_eq!(count("host_arrival"), 201);
    assert_eq!(
        count("host_complete"),
        report.reads.count + report.writes.count
    );
    assert_eq!(count("gc_run"), report.ftl.gc_runs);
    assert_eq!(count("refresh_block"), report.ftl.refreshes);
    assert_eq!(count("ida_conversion"), report.ftl.ida_conversions);
    assert!(report.ftl.refreshes > 0, "refresh must fire in the window");
    assert!(report.ftl.ida_conversions > 0, "IDA conversions must occur");

    // Per-scenario read classification replays exactly (Figure 4 data).
    let scenario_count = |label: &str| {
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ReadIssued { scenario, .. } if *scenario == label))
            .count() as u64
    };
    let b = report.breakdown;
    for (label, expected) in [
        ("lsb", b.lsb),
        ("csb_lower_valid", b.csb_lower_valid),
        ("csb_lower_invalid", b.csb_lower_invalid),
        ("msb_lower_valid", b.msb_lower_valid),
        ("msb_lower_invalid", b.msb_lower_invalid),
        ("ida_coded", b.ida),
    ] {
        assert_eq!(scenario_count(label), expected, "scenario {label}");
    }
    assert_eq!(count("read_issued"), b.total());

    // Completion latencies replay the latency statistics exactly.
    let mut read_total = 0u128;
    let mut read_max = 0u64;
    for e in &events {
        if let TraceEvent::HostComplete {
            class: HostOpKind::Read,
            latency_ns,
            ..
        } = e
        {
            read_total += *latency_ns as u128;
            read_max = read_max.max(*latency_ns);
        }
    }
    assert_eq!(read_total, report.reads.total_ns);
    assert_eq!(read_max, report.reads.max());
}

#[test]
fn null_sink_records_nothing_and_vec_sink_everything() {
    let mut plain = Simulator::new(SsdConfig::tiny_test());
    plain.prefill(0..64);
    let r_plain = plain.run(mixed_trace(128));

    let (mut traced, sink) = traced_sim(SsdConfig::tiny_test());
    traced.prefill(0..64);
    let r_traced = traced.run(mixed_trace(128));

    // Tracing must not change simulation results.
    assert_eq!(r_plain, r_traced);
    assert!(sink.lock().unwrap().events.len() as u64 >= 2 * 128);
}

/// The JSONL event stream of an open-loop hm_1 replay with spans on and a
/// retry model that re-senses 30 % of attempts, traced from the start of
/// the measured run. Returns the stream and the number of retried reads
/// and multi-page reads in it.
fn replay_stream(system: SystemUnderTest) -> (String, usize, usize) {
    let preset = paper_workload("hm_1").expect("workload");
    let scale = ExperimentScale::smoke().with_requests(600);
    let retry = RetryConfig::late_lifetime(0.3, 0x5EED);
    let cfg = system_config(system, scale.geometry, FlashTiming::paper_tlc(), retry);
    let (mut sim, trace) = warmed_simulator(&preset, cfg, &scale, None);
    let sink = Arc::new(Mutex::new(VecSink::new()));
    sim.set_trace(SinkHandle::from_shared(sink.clone()));
    sim.set_spans(true);
    sim.run(to_host_ops(&trace));
    let sink = sink.lock().unwrap();
    let retried = sink
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ReadRetry { .. }))
        .count();
    let multi_page = sink
        .events
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::HostArrival { class: HostOpKind::Read, pages, .. } if *pages > 1)
        })
        .count();
    (sink.to_jsonl(), retried, multi_page)
}

/// Request bookkeeping must not move a byte of the event stream: the
/// `req` of every arrival, completion, span and retry event is the
/// request's issue index, whatever table holds it in flight.
#[test]
fn replay_event_streams_are_pinned() {
    for (system, want) in [
        (SystemUnderTest::Baseline, 7_163_780_628_788_636_347),
        (
            SystemUnderTest::Ida { error_rate: 0.2 },
            3_493_160_269_040_864_225,
        ),
    ] {
        let (jsonl, retried, multi_page) = replay_stream(system);
        assert!(retried > 0, "{}: no read_retry events", system.label());
        assert!(multi_page > 0, "{}: no multi-page reads", system.label());
        assert_eq!(
            ida_snap::fnv1a(jsonl.as_bytes()),
            want,
            "{}: the replay event stream moved",
            system.label()
        );
    }
}

/// The same pin through the host frontend: three Poisson tenants
/// overloading proj_3, so requests queue, shed and complete out of
/// dispatch order, with the frontend's trace bound.
#[test]
fn load_event_stream_is_pinned() {
    let preset = paper_workload("proj_3").expect("workload");
    let scale = ExperimentScale::smoke().with_requests(1_500);
    let spec = LoadSpec {
        tenants: 3,
        ..LoadSpec::new(
            SystemUnderTest::Ida { error_rate: 0.2 },
            ArrivalSpec::Poisson,
            120_000,
            11,
        )
    };
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pin_load.jsonl");
    let obs = ObsOptions {
        trace_out: Some(path.clone()),
        ..ObsOptions::default()
    };
    let run = run_load(&preset, &spec, &scale, &obs).expect("load run");
    assert!(run.shed() > 0, "the load must overload the frontend");
    let jsonl = std::fs::read(&path).expect("trace file");
    assert_eq!(
        ida_snap::fnv1a(&jsonl),
        1_541_620_060_616_976_141,
        "the load event stream moved"
    );
    assert_eq!(
        ida_snap::fnv1a(load_metrics_json(&run).as_bytes()),
        16_290_746_014_319_750_063,
        "the load metrics payload moved"
    );
}

/// One event of every kind, in declaration order, each field a distinct
/// value and the stamps rising, with its class and its exact JSONL line.
fn every_event() -> Vec<(TraceEvent, &'static str, &'static str)> {
    let mut phases = PhaseNs::zero();
    phases.add(Phase::QueueGc, 7);
    phases.add(Phase::Sense, 8);
    phases.add(Phase::Ecc, 9);
    phases.add(Phase::Program, 10);
    vec![
        (
            TraceEvent::RunStart {
                t: 10,
                label: "hm_1 \"IDA\"".into(),
            },
            "host",
            r#"{"ev":"run_start","t":10,"label":"hm_1 \"IDA\""}"#,
        ),
        (
            TraceEvent::HostArrival {
                t: 20,
                req: 21,
                class: HostOpKind::Read,
                lpn: 22,
                pages: 23,
            },
            "host",
            r#"{"ev":"host_arrival","t":20,"req":21,"class":"read","lpn":22,"pages":23}"#,
        ),
        (
            TraceEvent::HostComplete {
                t: 30,
                req: 31,
                class: HostOpKind::Write,
                latency_ns: 32,
            },
            "host",
            r#"{"ev":"host_complete","t":30,"req":31,"class":"write","latency_ns":32}"#,
        ),
        (
            TraceEvent::ReadIssued {
                t: 40,
                lpn: 41,
                page: 42,
                page_type: "csb",
                senses: 43,
                scenario: "case3",
            },
            "host",
            r#"{"ev":"read_issued","t":40,"lpn":41,"page":42,"page_type":"csb","senses":43,"scenario":"case3"}"#,
        ),
        (
            TraceEvent::FlashSense {
                t: 50,
                die: 1,
                channel: 2,
                block: 53,
                page: 54,
                senses: 55,
                retries: u32::MAX,
                background: true,
                bus_start: 57,
                bus_end: 58,
                end: 59,
            },
            "ftl",
            r#"{"ev":"sense","t":50,"die":1,"channel":2,"block":53,"page":54,"senses":55,"retries":4294967295,"background":true,"bus_start":57,"bus_end":58,"end":59}"#,
        ),
        (
            TraceEvent::FlashProgram {
                t: 60,
                die: 3,
                channel: 4,
                block: 63,
                page: 64,
                background: false,
                bus_start: 65,
                bus_end: 66,
                end: 67,
            },
            "ftl",
            r#"{"ev":"program","t":60,"die":3,"channel":4,"block":63,"page":64,"background":false,"bus_start":65,"bus_end":66,"end":67}"#,
        ),
        (
            TraceEvent::FlashErase {
                t: 70,
                die: 5,
                block: 73,
                end: 74,
            },
            "ftl",
            r#"{"ev":"erase","t":70,"die":5,"block":73,"end":74}"#,
        ),
        (
            TraceEvent::VoltageAdjust {
                t: 80,
                die: 6,
                block: 83,
                end: 84,
            },
            "ftl",
            r#"{"ev":"voltage_adjust","t":80,"die":6,"block":83,"end":84}"#,
        ),
        (
            TraceEvent::ReadRetry {
                t: 90,
                die: 7,
                req: 91,
                extra: 92,
                attempt_ns: 93,
            },
            "ftl",
            r#"{"ev":"read_retry","t":90,"die":7,"req":91,"extra":92,"attempt_ns":93}"#,
        ),
        (
            TraceEvent::EccUncorrectable {
                t: 100,
                lpn: 101,
                page: 102,
                block: 103,
                attempts: 104,
            },
            "fault",
            r#"{"ev":"ecc_uncorrectable","t":100,"lpn":101,"page":102,"block":103,"attempts":104}"#,
        ),
        (
            TraceEvent::ScrubPass {
                t: 110,
                scanned: 111,
                relocated: 112,
                wear_moves: 113,
            },
            "refresh",
            r#"{"ev":"scrub_pass","t":110,"scanned":111,"relocated":112,"wear_moves":113}"#,
        ),
        (
            TraceEvent::WearLevel {
                t: 120,
                block: 121,
                moves: 122,
                spread: 123,
            },
            "refresh",
            r#"{"ev":"wear_level","t":120,"block":121,"moves":122,"spread":123}"#,
        ),
        (
            TraceEvent::GcRun {
                t: 130,
                block: 131,
                copies: 132,
            },
            "gc",
            r#"{"ev":"gc_run","t":130,"block":131,"copies":132}"#,
        ),
        (
            TraceEvent::RefreshBlock {
                t: 140,
                block: 141,
                moves: 142,
                adjusted_wordlines: 143,
                ida: true,
            },
            "refresh",
            r#"{"ev":"refresh_block","t":140,"block":141,"moves":142,"adjusted_wordlines":143,"ida":true}"#,
        ),
        (
            TraceEvent::IdaConversion {
                t: 150,
                block: 151,
                wordlines: 152,
            },
            "refresh",
            r#"{"ev":"ida_conversion","t":150,"block":151,"wordlines":152}"#,
        ),
        (
            TraceEvent::FaultProgramFail {
                t: 160,
                block: 161,
                page: 162,
            },
            "fault",
            r#"{"ev":"fault_program_fail","t":160,"block":161,"page":162}"#,
        ),
        (
            TraceEvent::WriteRedirect {
                t: 170,
                lpn: 171,
                page: 172,
                attempts: 173,
            },
            "fault",
            r#"{"ev":"write_redirect","t":170,"lpn":171,"page":172,"attempts":173}"#,
        ),
        (
            TraceEvent::FaultEraseFail { t: 180, block: 181 },
            "fault",
            r#"{"ev":"fault_erase_fail","t":180,"block":181}"#,
        ),
        (
            TraceEvent::BlockRetired {
                t: 190,
                block: 191,
                reason: "erase_failure",
                spare_used: false,
            },
            "fault",
            r#"{"ev":"block_retired","t":190,"block":191,"reason":"erase_failure","spare_used":false}"#,
        ),
        (
            TraceEvent::FaultReadTransient {
                t: 200,
                lpn: 201,
                attempts: 202,
            },
            "fault",
            r#"{"ev":"fault_read_transient","t":200,"lpn":201,"attempts":202}"#,
        ),
        (
            TraceEvent::ReadRecovered {
                t: 210,
                lpn: 211,
                attempts: 212,
                backoff_ns: 213,
            },
            "fault",
            r#"{"ev":"read_recovered","t":210,"lpn":211,"attempts":212,"backoff_ns":213}"#,
        ),
        (
            TraceEvent::FaultPowerLoss {
                t: 220,
                op_index: 1 << 40,
            },
            "fault",
            r#"{"ev":"fault_power_loss","t":220,"op_index":1099511627776}"#,
        ),
        (
            TraceEvent::RecoveryScan {
                t: 230,
                rebuilt_mappings: 231,
                rolled_forward: 232,
                scrubbed: 233,
                bad_blocks: 234,
            },
            "fault",
            r#"{"ev":"recovery_scan","t":230,"rebuilt_mappings":231,"rolled_forward":232,"scrubbed":233,"bad_blocks":234}"#,
        ),
        (
            TraceEvent::ReadOnlyMode {
                t: 240,
                reason: "spares_exhausted",
            },
            "fault",
            r#"{"ev":"read_only_mode","t":240,"reason":"spares_exhausted"}"#,
        ),
        (
            TraceEvent::WriteRejected { t: 250, lpn: 251 },
            "fault",
            r#"{"ev":"write_rejected","t":250,"lpn":251}"#,
        ),
        (
            TraceEvent::Span {
                t: 260,
                req: 261,
                class: HostOpKind::Read,
                total_ns: 34,
                phases,
            },
            "span",
            r#"{"ev":"span","t":260,"req":261,"class":"read","total_ns":34,"queue_gc":7,"sense":8,"ecc":9,"program":10}"#,
        ),
        (
            TraceEvent::HostShed {
                t: 270,
                tenant: 271,
                at: 265,
                lpn: 272,
                pages: 273,
            },
            "host",
            r#"{"ev":"host_shed","t":270,"tenant":271,"at":265,"lpn":272,"pages":273}"#,
        ),
        (
            TraceEvent::SloStatus {
                t: 280,
                tenant: 281,
                p99_ns: 282,
                target_ns: 283,
                met: true,
            },
            "host",
            r#"{"ev":"slo_status","t":280,"tenant":281,"p99_ns":282,"target_ns":283,"met":true}"#,
        ),
    ]
}

/// The trace schema, one row per event kind: each kind's class,
/// timestamp and exact JSONL line are pinned, and the analyzer reads a
/// line of every kind back while still rejecting an unknown one.
#[test]
fn every_trace_event_kind_is_pinned() {
    let table = every_event();
    let mut kinds = HashSet::new();
    let mut jsonl = String::new();
    for (ev, class, line) in &table {
        assert_eq!(ev.to_json_line(), *line);
        let head = format!("{{\"ev\":\"{}\",\"t\":{},", ev.kind(), ev.timestamp());
        assert!(line.starts_with(&head), "{line} does not open with {head}");
        assert_eq!(ev.class(), *class, "{line}");
        assert!(TRACE_CLASSES.contains(class), "{line}");
        assert!(kinds.insert(ev.kind()), "kind {} appears twice", ev.kind());
        jsonl.push_str(line);
        jsonl.push('\n');
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let every = dir.join("every_kind.jsonl");
    std::fs::write(&every, &jsonl).expect("write trace");
    let stats = analyze::load(&every, 1).expect("the analyzer reads every kind");
    assert_eq!(stats.lines, table.len());
    let unknown = dir.join("unknown_kind.jsonl");
    std::fs::write(&unknown, jsonl + "{\"ev\":\"frobnicate\",\"t\":290}\n").expect("write trace");
    assert_eq!(
        analyze::load(&unknown, 1).unwrap_err(),
        format!("line {}: unknown event kind `frobnicate`", table.len() + 1)
    );
}

/// The table above covers every variant: its kinds are
/// `TraceEvent::KINDS`, in declaration order.
#[test]
fn the_pinned_table_names_every_kind() {
    let kinds: Vec<&str> = every_event().iter().map(|(ev, ..)| ev.kind()).collect();
    assert_eq!(kinds, TraceEvent::KINDS);
}
