//! Trace replay: generate (or load) a block trace, replay it on a baseline
//! SSD and on an IDA-coded SSD, and compare read response times.
//!
//! Run with:
//!   cargo run --release --example trace_replay                  # synthetic hm_1
//!   cargo run --release --example trace_replay -- my.csv        # replay our CSV
//!   cargo run --release --example trace_replay -- --msr hm_1.csv # an MSR Cambridge trace
//!
//! The synthetic run also writes the generated trace to
//! `target/trace_replay_sample.csv` so you can inspect the format.

use ida_bench::runner::{self, ExperimentScale, SystemUnderTest};
use ida_ssd::{Simulator, SsdConfig};
use ida_workloads::msr;
use ida_workloads::suite::paper_workload;
use ida_workloads::trace::Trace;
use std::fs::File;
use std::io::BufReader;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--msr") => {
            let path = args.get(1).expect("--msr needs a file path");
            replay(&load_msr(path), path);
        }
        Some(path) => replay(&load_csv(path), path),
        None => synthetic(),
    }
}

fn load_msr(path: &str) -> Trace {
    let file = File::open(path).unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
    let mut trace = msr::parse_msr(BufReader::new(file), 8 * 1024)
        .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
    // Fold the volume onto the scaled device's exported space.
    let exported = Simulator::new(SsdConfig::paper_baseline())
        .ftl()
        .exported_pages();
    msr::fold_to_footprint(&mut trace, exported / 2);
    trace
}

fn load_csv(path: &str) -> Trace {
    let file = File::open(path).unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
    Trace::read_csv(BufReader::new(file)).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn replay(trace: &Trace, path: &str) {
    println!(
        "loaded {} records from {path}, spanning {:.2}s",
        trace.records.len(),
        trace.span() as f64 / 1e9
    );

    let scale = ExperimentScale::default_scale();
    for system in [
        SystemUnderTest::Baseline,
        SystemUnderTest::Ida { error_rate: 0.2 },
    ] {
        let mut sim = Simulator::new(runner::tlc_config(system, &scale));
        sim.prefill(0..trace.footprint_pages());
        let report = sim.run(trace.records.clone());
        println!(
            "{:8}: mean read response {:8.1} us over {} reads",
            system.label(),
            report.reads.mean_us(),
            report.reads.count
        );
    }
}

fn synthetic() {
    let preset = paper_workload("hm_1").expect("known workload");
    let scale = ExperimentScale::smoke();

    // Save a sample of the trace for inspection.
    let sample = preset.generate(10_000, 1_000);
    let path = "target/trace_replay_sample.csv";
    if let Ok(f) = File::create(path) {
        let _ = sample.write_csv(f);
        println!("wrote a sample trace to {path}\n");
    }

    let run = |system| runner::run_config(&preset, runner::tlc_config(system, &scale), &scale);
    let base = run(SystemUnderTest::Baseline);
    let ida = run(SystemUnderTest::Ida { error_rate: 0.2 });
    let norm = runner::normalized_read_response(&ida, &base);
    println!(
        "hm_1: baseline {:.1} us, IDA-E20 {:.1} us -> normalized {:.3} ({:.1}% faster reads)",
        base.reads.mean_us(),
        ida.reads.mean_us(),
        norm,
        (1.0 - norm) * 100.0
    );
    let b = ida.breakdown;
    println!(
        "IDA-system read mix: {} LSB, {} conventional CSB/MSB, {} IDA-coded",
        b.lsb,
        b.csb_lower_valid + b.csb_lower_invalid + b.msb_lower_valid + b.msb_lower_invalid,
        b.ida
    );
}
