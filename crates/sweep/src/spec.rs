//! Grid specification: named axes expanded into [`Cell`]s in a fixed
//! nesting order.
//!
//! The expansion order *is* the aggregation order, so it is part of the
//! determinism contract: workloads outermost (matching how the paper's
//! tables are rendered, one row per workload), then each parameter axis
//! in declaration order, then systems, then replicates innermost.

use crate::cell::{derive_stream_seed, Cell};

/// A sweep grid: the cartesian product of its axes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Sweep name — tags the journal and the aggregated output.
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<String>,
    /// System axis (labels such as `Baseline`, `IDA-E20`).
    pub systems: Vec<String>,
    /// Extra parameter axes, each `(key, values)`, expanded in order.
    pub param_axes: Vec<(String, Vec<String>)>,
    /// Replicate axis (seed numbers). Use `vec![1]` for a single run.
    pub replicates: Vec<u64>,
    /// Base seed mixed into every cell's stream seed.
    pub base_seed: u64,
}

impl SweepSpec {
    /// A single-replicate spec with no extra parameter axes.
    pub fn new(name: &str, workloads: Vec<String>, systems: Vec<String>) -> Self {
        SweepSpec {
            name: name.to_string(),
            workloads,
            systems,
            param_axes: Vec::new(),
            replicates: vec![1],
            base_seed: 0x1DA_5EED,
        }
    }

    /// Add a parameter axis (expanded between workloads and systems).
    pub fn with_axis(mut self, key: &str, values: Vec<String>) -> Self {
        self.param_axes.push((key.to_string(), values));
        self
    }

    /// Replace the replicate axis.
    pub fn with_replicates(mut self, replicates: Vec<u64>) -> Self {
        self.replicates = replicates;
        self
    }

    /// Number of cells the spec expands to.
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.systems.len()
            * self.replicates.len()
            * self
                .param_axes
                .iter()
                .map(|(_, vs)| vs.len())
                .product::<usize>()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the grid into cells, assigning indices in nesting order
    /// and deriving each cell's stream seed from its ID.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.len());
        let mut combo: Vec<(String, String)> = Vec::new();
        for workload in &self.workloads {
            self.expand_params(workload, 0, &mut combo, &mut cells);
        }
        cells
    }

    fn expand_params(
        &self,
        workload: &str,
        axis: usize,
        combo: &mut Vec<(String, String)>,
        out: &mut Vec<Cell>,
    ) {
        if axis == self.param_axes.len() {
            for system in &self.systems {
                for &replicate in &self.replicates {
                    let mut cell = Cell {
                        index: out.len(),
                        workload: workload.to_string(),
                        system: system.clone(),
                        params: combo.clone(),
                        replicate,
                        stream_seed: 0,
                    };
                    cell.stream_seed = derive_stream_seed(self.base_seed, &cell.id());
                    out.push(cell);
                }
            }
            return;
        }
        let (key, values) = &self.param_axes[axis];
        for v in values {
            combo.push((key.clone(), v.clone()));
            self.expand_params(workload, axis + 1, combo, out);
            combo.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec::new(
            "t",
            vec!["w1".into(), "w2".into()],
            vec!["Baseline".into(), "IDA-E20".into()],
        )
        .with_axis("dtr_us", vec!["30".into(), "50".into()])
    }

    #[test]
    fn expansion_order_is_workload_param_system_replicate() {
        let cells = spec().cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(spec().len(), 8);
        let ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(
            ids,
            vec![
                "w1/Baseline/dtr_us=30/r1",
                "w1/IDA-E20/dtr_us=30/r1",
                "w1/Baseline/dtr_us=50/r1",
                "w1/IDA-E20/dtr_us=50/r1",
                "w2/Baseline/dtr_us=30/r1",
                "w2/IDA-E20/dtr_us=30/r1",
                "w2/Baseline/dtr_us=50/r1",
                "w2/IDA-E20/dtr_us=50/r1",
            ]
        );
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn replicates_expand_innermost_with_distinct_seeds() {
        let cells = SweepSpec::new("t", vec!["w".into()], vec!["s".into()])
            .with_replicates(vec![1, 2, 3])
            .cells();
        assert_eq!(cells.len(), 3);
        let seeds: Vec<u64> = cells.iter().map(|c| c.stream_seed).collect();
        assert!(seeds[0] != seeds[1] && seeds[1] != seeds[2]);
    }

    #[test]
    fn expansion_is_reproducible() {
        assert_eq!(spec().cells(), spec().cells());
    }
}
