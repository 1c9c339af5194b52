//! Pull-based host arrival sources.
//!
//! [`Simulator::run`](crate::Simulator::run) replays a pre-baked
//! `Vec<HostOp>`, which forecloses any in-simulation admission decision:
//! the whole trace is committed before the first event fires. An
//! [`ArrivalSource`] inverts the control flow — the simulator *pulls* the
//! next host op when it is ready for one, and learns of request
//! completions through [`ArrivalSource::on_complete`], so a source can
//! rate-limit, shed, reorder across tenants, or keep a bounded number of
//! requests in flight.
//!
//! All times crossing this interface are **relative to the run base**
//! (the simulator clock when `run_source` was entered): `now` arguments
//! count from 0, and a returned [`HostOp::at`] is an offset from the same
//! origin. An op whose `at` is already in the past is dispatched
//! immediately.

use crate::request::{HostOp, HostOpKind};
use ida_flash::timing::SimTime;

/// A host op handed to the simulator, tagged with a source-private token
/// that comes back verbatim in [`ArrivalSource::on_complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourcedOp {
    /// The op to dispatch; `op.at` is an offset from the run base.
    pub op: HostOp,
    /// Opaque correlation token (e.g. a tenant/request index).
    pub token: u64,
}

/// The source's answer to "what arrives next?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pull {
    /// The next op (its `at` may be now or in the future).
    Op(SourcedOp),
    /// Nothing can be dispatched until some in-flight request completes
    /// (e.g. a full dispatch window). The simulator pulls again after the
    /// next completion; `Blocked` with nothing in flight is a stall and
    /// aborts the run with [`SimError::StalledSource`](crate::SimError).
    Blocked,
    /// The source is exhausted; the run ends once in-flight requests
    /// drain.
    Done,
}

/// A pull-based generator of host traffic driving
/// [`Simulator::run_source`](crate::Simulator::run_source).
pub trait ArrivalSource {
    /// Produce the next arrival. `now` is relative to the run base.
    fn next(&mut self, now: SimTime) -> Pull;

    /// A previously pulled request completed. `now` and `latency_ns` are
    /// in nanoseconds; `token` is the [`SourcedOp::token`] it was pulled
    /// with. Default: ignore.
    fn on_complete(&mut self, now: SimTime, token: u64, kind: HostOpKind, latency_ns: SimTime) {
        let _ = (now, token, kind, latency_ns);
    }

    /// How many ops this source expects to yield in total, if known —
    /// feeds the run's progress heartbeat. Default: unknown.
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

/// Replays a pre-listed trace open-loop through the pull interface — the
/// source behind [`Simulator::run`](crate::Simulator::run). Tokens are
/// trace indices.
#[derive(Debug, Clone)]
pub struct ListSource {
    trace: Vec<HostOp>,
    next: usize,
}

impl ListSource {
    /// Wrap a trace sorted by arrival time.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsortedTrace`](crate::sim::SimError::UnsortedTrace)
    /// naming the first entry that arrives earlier than its predecessor.
    pub fn new(trace: Vec<HostOp>) -> Result<Self, crate::sim::SimError> {
        if let Some(i) = trace.windows(2).position(|w| w[0].at > w[1].at) {
            return Err(crate::sim::SimError::UnsortedTrace {
                index: i + 1,
                at: trace[i + 1].at,
                prev: trace[i].at,
            });
        }
        Ok(ListSource { trace, next: 0 })
    }
}

impl ArrivalSource for ListSource {
    fn next(&mut self, _now: SimTime) -> Pull {
        match self.trace.get(self.next) {
            Some(&op) => {
                let token = self.next as u64;
                self.next += 1;
                Pull::Op(SourcedOp { op, token })
            }
            None => Pull::Done,
        }
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.trace.len() as u64)
    }
}

/// Replays a pre-listed trace closed-loop: arrival timestamps are
/// ignored and exactly `depth` requests are kept outstanding — the
/// saturation replay behind Figure 10's device-throughput comparison.
/// Tokens are trace indices.
#[derive(Debug, Clone)]
pub struct ClosedLoopSource {
    trace: Vec<HostOp>,
    depth: usize,
    next: usize,
    in_flight: usize,
}

impl ClosedLoopSource {
    /// Wrap a trace, keeping `depth` requests in flight.
    ///
    /// # Errors
    ///
    /// Rejects `depth == 0` (no request could ever be admitted).
    pub fn new(trace: Vec<HostOp>, depth: usize) -> Result<Self, crate::sim::SimError> {
        if depth == 0 {
            return Err(crate::sim::SimError::ZeroQueueDepth);
        }
        Ok(ClosedLoopSource {
            trace,
            depth,
            next: 0,
            in_flight: 0,
        })
    }
}

impl ArrivalSource for ClosedLoopSource {
    fn next(&mut self, _now: SimTime) -> Pull {
        let Some(&op) = self.trace.get(self.next) else {
            return Pull::Done;
        };
        if self.in_flight >= self.depth {
            return Pull::Blocked;
        }
        let token = self.next as u64;
        self.next += 1;
        self.in_flight += 1;
        Pull::Op(SourcedOp {
            // The closed loop dispatches as soon as a slot frees: the
            // trace's own timestamps are ignored.
            op: HostOp { at: 0, ..op },
            token,
        })
    }

    fn on_complete(&mut self, _now: SimTime, _token: u64, _kind: HostOpKind, _latency_ns: SimTime) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.trace.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_source_yields_in_order_then_done() {
        let ops = vec![
            HostOp {
                at: 0,
                kind: HostOpKind::Write,
                lpn: 1,
                pages: 1,
            },
            HostOp {
                at: 5,
                kind: HostOpKind::Read,
                lpn: 1,
                pages: 1,
            },
        ];
        let mut src = ListSource::new(ops.clone()).expect("sorted");
        match src.next(0) {
            Pull::Op(s) => {
                assert_eq!(s.op, ops[0]);
                assert_eq!(s.token, 0);
            }
            other => panic!("expected op, got {other:?}"),
        }
        match src.next(0) {
            Pull::Op(s) => {
                assert_eq!(s.op, ops[1]);
                assert_eq!(s.token, 1);
            }
            other => panic!("expected op, got {other:?}"),
        }
        assert_eq!(src.next(10), Pull::Done);
        assert_eq!(src.next(20), Pull::Done);
    }
}
