//! Span self times: a span's duration minus the union of its children,
//! with overlapping and overhanging children counted once.

use idabench::span::{layer_self_ns, self_times, subtree, Span, Tracer};

fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        workload: "w".into(),
        name: name.into(),
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(1, None, "bench.pass", 0, 100),
        // Two children overlapping on [30, 40]: covered once.
        span(2, Some(1), "ssd.replay", 10, 40),
        span(3, Some(1), "host.source", 30, 60),
        // A child overhanging its parent's end is clipped to [90, 100].
        span(4, Some(1), "ftl.warm_write", 90, 120),
        // A grandchild takes time from its own parent only.
        span(5, Some(2), "core.refresh", 15, 25),
    ];
    assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
}

#[test]
fn a_childless_span_is_all_self_time() {
    assert_eq!(self_times(&[span(1, None, "ssd.replay", 5, 9)]), vec![4]);
}

#[test]
fn layer_self_times_of_a_tree_add_up_to_its_root() {
    let spans = vec![
        span(1, None, "bench.pass", 0, 1_000),
        span(2, Some(1), "bench.warm_up", 0, 400),
        span(3, Some(2), "ssd.construct", 0, 50),
        span(4, Some(2), "ftl.warm_write", 50, 300),
        span(5, Some(1), "ssd.replay", 400, 950),
        // A second root outside the tree.
        span(6, None, "obs.probe", 1_000, 1_500),
    ];
    let tree = subtree(&spans, 1);
    assert_eq!(tree.len(), 5);
    let layers = layer_self_ns(&tree);
    assert_eq!(layers.values().sum::<u64>(), 1_000);
    assert_eq!(layers["ssd"], 50 + 550);
    assert_eq!(layers["ftl"], 250);
    assert_eq!(layers["bench"], 100 + 50);
}

#[test]
fn the_tracer_nests_spans_and_closes_them_on_panic() {
    let tr = Tracer::new("replay_read");
    tr.span("bench.pass", || {
        tr.span("ssd.replay", || tr.record_aggregate("host.source", 7));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.span("bench.cell", || panic!("cell failed"));
        }));
        assert!(caught.is_err());
        tr.span("bench.metrics", || {});
    });
    let spans = tr.spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "bench.pass",
            "ssd.replay",
            "host.source",
            "bench.cell",
            "bench.metrics"
        ]
    );
    let parents: Vec<Option<u64>> = spans.iter().map(|s| s.parent).collect();
    // The span after the panicking one still nests under the pass.
    assert_eq!(parents, [None, Some(1), Some(2), Some(1), Some(1)]);
    assert_eq!(spans[2].start_ns, spans[1].start_ns);
    assert_eq!(spans[2].duration_ns(), 7);
    assert!(spans
        .iter()
        .all(|s| s.end_ns >= s.start_ns && s.workload == "replay_read"));
    assert!(spans[0]
        .to_json()
        .starts_with(r#"{"id":1,"parent":null,"workload":"replay_read""#));
}
