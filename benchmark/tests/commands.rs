//! The commands, driven in-process at small sizes through a runner that
//! executes passes in this process instead of in child processes.

use ida_sweep::jsonv;
use idabench::cli::{cmd_drive, cmd_run, gated_per_layer, peak_rss_mib, structural_checks};
use idabench::metrics::{Check, PassResult, Workload, GATED_END_TO_END};
use idabench::suite::{run_pass, Sizes};

fn tiny() -> Sizes {
    Sizes {
        grid_workloads: 1,
        grid_requests: 200,
        replay_requests: 2_000,
        load_requests: 2_000,
        setup_repeats: 1,
    }
}

fn in_process(workload: Workload, seed: u64, traced: bool) -> Result<PassResult, String> {
    let (mut res, _) = run_pass(workload, seed, &tiny(), traced);
    res.set("peak_rss_mib", peak_rss_mib().unwrap_or(1.0));
    Ok(res)
}

#[test]
fn run_passes_every_check_and_prints_the_end_to_end_metrics() {
    let mut out = Vec::new();
    let (code, doc) =
        cmd_run(&[Workload::ReplayRead], 1, 2, &mut in_process, &mut out).expect("run");
    let text = String::from_utf8(out).unwrap();
    assert_eq!(code, 0, "{text}");
    for line in [
        "replay_read wall_s ",
        "replay_read setup_s ",
        "replay_read sim_events_per_s ",
        "replay_read ops 4000 requests",
        "replay_read ops_failed 0 requests",
        "check replay_read digest_stable ok",
        "idabench run: all checks passed",
    ] {
        assert!(text.contains(line), "missing {line:?} in\n{text}");
    }
    assert!(
        text.contains("(median; q1 "),
        "two passes print quartiles:\n{text}"
    );
    let doc = jsonv::parse(&doc).expect("run document is JSON");
    assert_eq!(doc.get("ok").and_then(|v| v.as_bool()), Some(true));
}

#[test]
fn a_failing_check_makes_run_exit_non_zero() {
    let mut broken = |w, seed, traced| {
        let mut res = in_process(w, seed, traced)?;
        res.checks
            .push(Check::new("span_conservation", false, "injected failure"));
        Ok(res)
    };
    let mut out = Vec::new();
    let (code, _) = cmd_run(&[Workload::ReplayRead], 1, 1, &mut broken, &mut out).expect("run");
    let text = String::from_utf8(out).unwrap();
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("check replay_read span_conservation FAIL (injected failure)"));
    assert!(text.contains("check(s) FAILED"));
}

#[test]
fn run_fails_when_repeated_passes_disagree() {
    let mut calls = 0;
    let mut drifting = |w, seed, traced| {
        let mut res = in_process(w, seed, traced)?;
        calls += 1;
        res.digest ^= calls;
        Ok(res)
    };
    let mut out = Vec::new();
    let (code, _) = cmd_run(&[Workload::LoadWrite], 1, 2, &mut drifting, &mut out).expect("run");
    let text = String::from_utf8(out).unwrap();
    assert_eq!(code, 1, "{text}");
    assert!(
        text.contains("check load_write digest_stable FAIL"),
        "{text}"
    );
}

#[test]
fn drive_prints_one_json_line_with_the_gated_metrics() {
    for (trace, names) in [
        (false, GATED_END_TO_END.to_vec()),
        (true, gated_per_layer().iter().map(|d| d.name).collect()),
    ] {
        let mut out = Vec::new();
        cmd_drive(Workload::LoadWrite, 3, 0, trace, &mut in_process, &mut out).expect("drive");
        let text = String::from_utf8(out).unwrap();
        let last = jsonv::parse(text.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = match &last {
            jsonv::JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("failed").and_then(|v| v.as_u64()), Some(0));
        assert!(last.get("attempted").and_then(|v| v.as_u64()) >= Some(4_000));
        let metrics = last.get("metrics").unwrap();
        let got: Vec<&str> = match metrics {
            jsonv::JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("metrics not an object: {other:?}"),
        };
        assert_eq!(got, names, "trace {trace}");
        for name in names {
            let m = metrics.get(name).unwrap();
            assert!(
                m.get("value").and_then(|v| v.as_f64()).is_some(),
                "{name} has no value"
            );
            assert!(m.get("unit").and_then(|v| v.as_str()).is_some());
        }
        // At tiny sizes load_write may not reach GC; the structural check
        // is the only one allowed to fail here.
        let correct = last.get("correct").and_then(|v| v.as_bool());
        assert!(
            correct == Some(true) || (trace && text.contains("gc_in_window FAIL")),
            "{text}"
        );
    }
}

#[test]
fn structural_checks_encode_the_warm_cache_shape() {
    let mut fig8 = PassResult::new(Workload::Fig8Grid, 1, true);
    fig8.ops = 110;
    fig8.set("sweep.warm_misses", 110.0);
    fig8.set("sweep.warm_hits", 0.0);
    assert!(structural_checks(&fig8).iter().all(|c| c.ok));
    let mut faults = PassResult::new(Workload::FaultsGrid, 1, true);
    faults.ops = 88;
    faults.set("sweep.warm_misses", 22.0);
    faults.set("sweep.warm_hits", 66.0);
    assert!(structural_checks(&faults).iter().all(|c| c.ok));
    faults.set("sweep.warm_hits", 65.0);
    assert!(!structural_checks(&faults).iter().all(|c| c.ok));
}

#[test]
fn pass_results_round_trip_through_json() {
    let (res, _) = run_pass(Workload::ReplayRead, 4, &tiny(), false);
    assert_eq!(PassResult::from_json(&res.to_json()), Ok(res));
}
