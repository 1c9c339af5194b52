//! The typed job model: one [`Cell`] per experiment point.
//!
//! A cell's identity is its coordinates — workload, system, ordered
//! parameter pairs, and a replicate number — rendered into a stable
//! string ID. Everything downstream keys off that ID: the checkpoint
//! journal uses it to recognise finished work across restarts, and the
//! per-cell RNG stream seed is derived from it, so a cell draws the same
//! random sequence whether it runs first on a single worker or last on
//! sixteen.

use ida_obs::rng::Rng64;
use ida_snap::fnv1a;

/// One experiment point in a sweep grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Position in the spec's expansion order (the aggregation order).
    pub index: usize,
    /// Workload name, e.g. `proj_1`.
    pub workload: String,
    /// System label, e.g. `Baseline` or `IDA-E20`.
    pub system: String,
    /// Ordered extra parameters, e.g. `[("dtr_us", "50")]`.
    pub params: Vec<(String, String)>,
    /// Replicate number (the seed axis of the grid).
    pub replicate: u64,
    /// Derived per-cell RNG stream seed (a pure function of the ID and
    /// the spec's base seed).
    pub stream_seed: u64,
}

// Cells travel over the distributed-sweep fabric inside Assign
// messages; the coordinator ships the fully derived cell (including
// the stream seed), so a worker never needs the spec.
ida_snap::snap_struct!(Cell {
    index,
    workload,
    system,
    params,
    replicate,
    stream_seed
});

impl Cell {
    /// The stable cell ID: `workload/system[/k=v...]/r<replicate>`.
    pub fn id(&self) -> String {
        let mut id = format!("{}/{}", self.workload, self.system);
        for (k, v) in &self.params {
            id.push('/');
            id.push_str(k);
            id.push('=');
            id.push_str(v);
        }
        id.push_str(&format!("/r{}", self.replicate));
        id
    }

    /// The value of parameter `key`, if the cell carries it.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A fresh deterministic RNG on this cell's private stream.
    pub fn rng(&self) -> Rng64 {
        Rng64::seed_from_u64(self.stream_seed)
    }
}

/// One SplitMix64 round — decorrelates similar hash/base combinations.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a cell's RNG stream seed from the sweep's base seed and the
/// cell ID. Scheduling-independent by construction: the inputs are the
/// cell's coordinates, nothing else.
pub fn derive_stream_seed(base_seed: u64, cell_id: &str) -> u64 {
    splitmix(base_seed ^ fnv1a(cell_id.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> Cell {
        let workload = "proj_1".to_string();
        let system = "IDA-E20".to_string();
        let params = vec![("dtr_us".to_string(), "50".to_string())];
        Cell {
            index: 3,
            workload,
            system,
            params,
            replicate: 1,
            stream_seed: 0,
        }
    }

    #[test]
    fn id_renders_all_coordinates_in_order() {
        assert_eq!(cell().id(), "proj_1/IDA-E20/dtr_us=50/r1");
        let mut plain = cell();
        plain.params.clear();
        assert_eq!(plain.id(), "proj_1/IDA-E20/r1");
    }

    #[test]
    fn param_lookup() {
        assert_eq!(cell().param("dtr_us"), Some("50"));
        assert_eq!(cell().param("nope"), None);
    }

    #[test]
    fn stream_seed_is_a_function_of_id_and_base() {
        let a = derive_stream_seed(7, "proj_1/Baseline/r1");
        let b = derive_stream_seed(7, "proj_1/Baseline/r1");
        let c = derive_stream_seed(7, "proj_1/Baseline/r2");
        let d = derive_stream_seed(8, "proj_1/Baseline/r1");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn sibling_cells_draw_unrelated_streams() {
        let mut a = Rng64::seed_from_u64(derive_stream_seed(1, "w/x/r1"));
        let mut b = Rng64::seed_from_u64(derive_stream_seed(1, "w/x/r2"));
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams look correlated ({same}/64 equal)");
    }
}
