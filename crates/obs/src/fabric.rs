//! Fabric events: worker membership and cell-lease traffic in the
//! distributed sweep coordinator.
//!
//! Unlike [`crate::trace::TraceEvent`]s, these describe the *schedule*,
//! not the experiment: they carry no simulated timestamp (fabric time is
//! wall-clock, which must never leak into deterministic output) and are
//! emitted to stderr-style diagnostic logs only — the aggregated sweep
//! JSON stays byte-identical whatever these report.

use crate::json::JsonObj;

/// One coordinator-side fabric observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricEvent {
    /// A worker connection completed the handshake.
    WorkerConnect {
        /// Peer address (`ip:port`), best-effort.
        peer: String,
    },
    /// A worker connection closed (cleanly or not).
    WorkerDisconnect {
        /// Peer address (`ip:port`), best-effort.
        peer: String,
        /// The cell the worker was running when it vanished — the first
        /// unsettled cell of its lease — if any.
        mid_cell: Option<String>,
    },
    /// A leased cell went back on the queue (worker lost or cell
    /// attempt failed) for another worker to claim.
    CellRequeue {
        /// Cell ID.
        cell: String,
        /// Attempts consumed so far (the requeued run will be
        /// `attempts + 1`).
        attempts: u32,
    },
}

impl FabricEvent {
    /// Stable event-kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            FabricEvent::WorkerConnect { .. } => "worker_connect",
            FabricEvent::WorkerDisconnect { .. } => "worker_disconnect",
            FabricEvent::CellRequeue { .. } => "cell_requeue",
        }
    }

    /// One JSON object (no trailing newline) describing the event.
    pub fn to_json_line(&self) -> String {
        let obj = JsonObj::new().str("event", self.kind());
        match self {
            FabricEvent::WorkerConnect { peer } => obj.str("peer", peer).finish(),
            FabricEvent::WorkerDisconnect { peer, mid_cell } => {
                let obj = obj.str("peer", peer);
                match mid_cell {
                    Some(cell) => obj.str("mid_cell", cell).finish(),
                    None => obj.finish(),
                }
            }
            FabricEvent::CellRequeue { cell, attempts } => obj
                .str("cell", cell)
                .u64("attempts", u64::from(*attempts))
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_stable_kinds() {
        assert_eq!(
            FabricEvent::WorkerConnect {
                peer: "127.0.0.1:9".into()
            }
            .to_json_line(),
            r#"{"event":"worker_connect","peer":"127.0.0.1:9"}"#
        );
        assert_eq!(
            FabricEvent::WorkerDisconnect {
                peer: "p".into(),
                mid_cell: Some("w/a/r1".into())
            }
            .to_json_line(),
            r#"{"event":"worker_disconnect","peer":"p","mid_cell":"w/a/r1"}"#
        );
        assert_eq!(
            FabricEvent::WorkerDisconnect {
                peer: "p".into(),
                mid_cell: None
            }
            .to_json_line(),
            r#"{"event":"worker_disconnect","peer":"p"}"#
        );
        let requeue = FabricEvent::CellRequeue {
            cell: "w/a/r1".into(),
            attempts: 1,
        };
        assert_eq!(requeue.kind(), "cell_requeue");
        assert_eq!(
            requeue.to_json_line(),
            r#"{"event":"cell_requeue","cell":"w/a/r1","attempts":1}"#
        );
    }
}
