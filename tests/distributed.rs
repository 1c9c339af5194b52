//! Integration tests for the distributed sweep fabric at the
//! `ida-bench` boundary — real experiment cells, not synthetic
//! payloads (the protocol-level matrix lives in `ida_sweep::net`'s
//! unit tests):
//!
//! (a) a coordinator plus an in-process worker produce the exact bytes
//!     a local serial `run_grid` emits, with each of the worker's two
//!     connections leasing one workload and planning its warm cache;
//! (b) resuming a journaled distributed run returns every cell cached,
//!     without needing a single worker, and still emits the same bytes;
//!     a local sweep resumes the serve journal and the other way round,
//!     but only at the scale the journal ran at;
//! (c) the coordinator→worker setup payload reconstructs the
//!     experiment scale exactly.

use ida_bench::runner::ExperimentScale;
use ida_bench::sweep::{
    run_grid, run_grid_on, run_grid_worker, scale_from_setup, setup_json, Backend,
};
use ida_sweep::{SweepConfig, SweepSpec};
use ida_workloads::suite::paper_workloads;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

const CONNECT_WAIT: Duration = Duration::from_secs(30);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ida-dist-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Two real workloads, both systems — the smallest grid that still
/// exercises warm-up, simulation, and aggregation end to end, and gives
/// each of two worker connections a workload of its own to lease.
fn tiny_spec() -> SweepSpec {
    let workloads = paper_workloads().into_iter().take(2);
    SweepSpec::new(
        "dist-tiny",
        workloads.map(|w| w.spec.name).collect(),
        vec!["Baseline".into(), "IDA-E20".into()],
    )
}

#[test]
fn distributed_run_matches_local_serial_bytes_and_resumes_cached() {
    let spec = tiny_spec();
    let scale = ExperimentScale::smoke().with_requests(400);

    // Ground truth: the local serial engine.
    let local = run_grid(&spec, &scale, &SweepConfig::serial())
        .unwrap()
        .aggregate_json();

    // Distributed: this thread coordinates (journaled), a worker thread
    // executes the cells through the real `idasim worker` code path.
    let journal = tmp("dist.journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let cfg = SweepConfig::serial().with_journal(journal.clone());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || run_grid_worker(&addr, 2, CONNECT_WAIT));
    let distributed = run_grid_on(&spec, &scale, &cfg, Backend::Distributed { listener }).unwrap();
    let report = worker.join().unwrap().unwrap();

    assert_eq!(report.sweep, "dist-tiny");
    assert_eq!(report.ran, spec.len());
    assert_eq!(report.failed, 0);
    assert!(distributed.outcomes.iter().all(|o| !o.cached));
    assert_eq!(
        local,
        distributed.aggregate_json(),
        "distributed aggregate diverged from the local serial run"
    );

    // Resume: every cell is journaled, so a fresh coordinator settles
    // the whole grid from the journal — no worker launched at all.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let resumed = run_grid_on(&spec, &scale, &cfg, Backend::Distributed { listener }).unwrap();
    assert!(
        resumed.outcomes.iter().all(|o| o.cached),
        "resume recomputed completed cells"
    );
    assert_eq!(local, resumed.aggregate_json());

    // A local sweep resumes the serve journal at the same scale...
    let local_resumed = run_grid(&spec, &scale, &cfg).unwrap();
    assert!(local_resumed.outcomes.iter().all(|o| o.cached));
    assert_eq!(local, local_resumed.aggregate_json());
    // ...but at another request count every cell runs again, equal to a
    // fresh run there, and is journaled under its own scale...
    let other = ExperimentScale::smoke().with_requests(300);
    let fresh = run_grid(&spec, &other, &SweepConfig::serial())
        .unwrap()
        .aggregate_json();
    assert_ne!(fresh, local);
    let rerun = run_grid(&spec, &other, &cfg).unwrap();
    assert!(
        rerun.outcomes.iter().all(|o| !o.cached),
        "stale cells reused"
    );
    assert_eq!(fresh, rerun.aggregate_json());
    // ...which a coordinator then resumes with no worker.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let served = run_grid_on(&spec, &other, &cfg, Backend::Distributed { listener }).unwrap();
    assert!(served.outcomes.iter().all(|o| o.cached));
    assert_eq!(fresh, served.aggregate_json());
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn setup_payload_reconstructs_the_scale() {
    for scale in [
        ExperimentScale::smoke(),
        ExperimentScale::smoke().with_requests(12_345),
        ExperimentScale::default_scale(),
    ] {
        let rebuilt = scale_from_setup(&setup_json(&scale)).unwrap();
        assert_eq!(rebuilt.requests, scale.requests);
        assert!((rebuilt.refresh_period_frac - scale.refresh_period_frac).abs() < 1e-12);
        assert_eq!(rebuilt.geometry, scale.geometry);
    }
    assert!(scale_from_setup("{}").unwrap_err().contains("requests"));
    assert!(scale_from_setup("not json").is_err());
}
