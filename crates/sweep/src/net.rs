//! The distributed sweep fabric: a TCP coordinator/worker protocol
//! over [`ida_snap::frame`]d messages.
//!
//! One process runs [`serve`]: it drives the same lease queue as the
//! in-process pool (`pool::Leases`: claim, retry, settle, journal) from
//! one handler per connection, and adds only what is TCP — the
//! handshake and fabric events. Any number of processes run
//! [`run_worker`]: each opens one connection per worker thread, and each
//! claim leases a *group* — every queued cell of one workload. The
//! worker plans its warm cache over the group, runs the cells in order
//! through the same panic-to-record helper a local thread uses, and
//! reports each as it finishes. The cells of a workload share their
//! warm-up prefix and no two workloads share a warm state, so warm
//! states never leave the worker that built them.
//!
//! Wire format: every message is one [`frame`]-sealed [`Snap`] payload,
//! so torn, bit-flipped, or version-skewed frames are rejected by the
//! same magic/version/length/hash checks that guard snapshot files, and
//! a protocol-version handshake ([`PROTO_VERSION`]) rejects skewed
//! peers before any work is assigned.
//!
//! Fault tolerance is lease-based: a claim leases a group to one
//! connection, and results must arrive in group order. If the connection
//! dies (or breaks the protocol) with cells unsettled, the cell it was
//! running loses its lease — it goes back to the front of the queue
//! (bounded by `max_attempts`, exactly as a local panic is) for another
//! worker to claim — and the cells it had not started go back with
//! their attempt refunded. A worker-side panic is reported as a failed
//! attempt and retried by *reassignment*, so a deterministically
//! panicking cell exhausts the same budget and records the same
//! `panicked: ...` error a serial run would.
//!
//! Determinism: cell payloads are pure functions of the cell, outcomes
//! are settled into cell-index order, and the aggregate excludes
//! scheduling facts (attempts, cache hits) — so the aggregate is
//! byte-identical to a serial [`crate::pool::run_cells`] run for any
//! worker count, join/leave order, or kill point.

use crate::cell::Cell;
use crate::pool::{run_attempt, CellOutcome, Leases, SweepConfig};
use ida_obs::fabric::FabricEvent;
use ida_snap::{frame, Reader, Snap, SnapError, Writer};
use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Fabric protocol version, checked in the `Hello`/`Welcome` handshake.
/// Bump on any wire-visible change to [`Msg`].
pub const PROTO_VERSION: u32 = 2;

/// One fabric message. The wire form is a [`frame`]-sealed [`Snap`]
/// encoding: a `u8` tag followed by the variant's fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → coordinator: opens every connection.
    Hello {
        /// The worker's [`PROTO_VERSION`].
        proto: u32,
    },
    /// Coordinator → worker: handshake accepted; here is the job.
    Welcome {
        /// Sweep name (journal scope, report labels).
        sweep: String,
        /// Experiment-setup payload (JSON), interpreted by the job
        /// closure — the fabric itself never reads it.
        setup: String,
    },
    /// Coordinator → worker: handshake refused (version skew).
    Reject {
        /// Human-readable refusal.
        reason: String,
    },
    /// Worker → coordinator: give me work. Blocks server-side until a
    /// cell is claimable or the sweep is finished. Only valid once every
    /// cell of the previous lease has its `Result`.
    Claim,
    /// Coordinator → worker: a group lease — every queued cell of one
    /// workload, in the order their results must come back.
    Assign {
        /// The fully derived cells (seeds included).
        cells: Vec<Cell>,
    },
    /// Coordinator → worker: no work left, ever; disconnect.
    Done,
    /// Worker → coordinator: the outcome of the lease's next cell.
    Result {
        /// [`Cell::index`] of the leased cell.
        index: u64,
        /// Whether the job closure returned (vs panicked).
        ok: bool,
        /// Payload JSON on success, panic message on failure.
        body: String,
    },
}

impl Snap for Msg {
    fn encode(&self, w: &mut Writer) {
        match self {
            Msg::Hello { proto } => {
                0u8.encode(w);
                proto.encode(w);
            }
            Msg::Welcome { sweep, setup } => {
                1u8.encode(w);
                sweep.encode(w);
                setup.encode(w);
            }
            Msg::Reject { reason } => {
                2u8.encode(w);
                reason.encode(w);
            }
            Msg::Claim => 3u8.encode(w),
            Msg::Assign { cells } => {
                4u8.encode(w);
                cells.encode(w);
            }
            Msg::Done => 5u8.encode(w),
            Msg::Result { index, ok, body } => {
                6u8.encode(w);
                index.encode(w);
                ok.encode(w);
                body.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match u8::decode(r)? {
            0 => Msg::Hello {
                proto: u32::decode(r)?,
            },
            1 => Msg::Welcome {
                sweep: String::decode(r)?,
                setup: String::decode(r)?,
            },
            2 => Msg::Reject {
                reason: String::decode(r)?,
            },
            3 => Msg::Claim,
            4 => Msg::Assign {
                cells: Vec::<Cell>::decode(r)?,
            },
            5 => Msg::Done,
            6 => Msg::Result {
                index: u64::decode(r)?,
                ok: bool::decode(r)?,
                body: String::decode(r)?,
            },
            tag => return Err(SnapError::new(format!("unknown fabric message tag {tag}"))),
        })
    }
}

/// Send one message as a sealed frame and flush it.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn send_msg<W: io::Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    frame::write_frame(w, &msg.to_snap_bytes())
}

/// Receive one message. `Ok(None)` means the peer closed cleanly at a
/// frame boundary.
///
/// # Errors
///
/// Socket errors, torn/corrupt/oversized frames, and undecodable
/// payloads (all as `InvalidData` with the frame/codec detail).
pub fn recv_msg<R: io::Read>(r: &mut R) -> io::Result<Option<Msg>> {
    match frame::read_frame(r)? {
        None => Ok(None),
        Some(payload) => Msg::from_snap_bytes(&payload)
            .map(Some)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e)),
    }
}

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

/// The coordinator: the shared lease queue plus what only the fabric
/// needs — the handshake facts and the event sink.
struct Coordinator<'a, E: Fn(FabricEvent) + Sync> {
    sweep: &'a str,
    setup: &'a str,
    leases: Leases<'a>,
    on_event: E,
}

impl<E: Fn(FabricEvent) + Sync> Coordinator<'_, E> {
    /// Settle the lease on cell `idx` (`None`: its connection died before
    /// reporting) and report a requeue.
    fn settle(&self, idx: usize, result: Option<Result<String, String>>) {
        if let Some(attempts) = self.leases.settle(idx, result) {
            (self.on_event)(FabricEvent::CellRequeue {
                cell: self.leases.cells[idx].id(),
                attempts,
            });
        }
    }

    /// One connection, handshake to EOF. Any exit with cells still
    /// leased charges the one it was running (the first unsettled, since
    /// results arrive in order) a lost lease, gives the rest back
    /// unstarted, and emits the disconnect event.
    fn handle(&self, mut stream: TcpStream) {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".into());
        let mut lease = VecDeque::new();
        let mut greeted = false;
        let _ = self.converse(&mut stream, &peer, &mut lease, &mut greeted);
        if let Some(running) = lease.pop_front() {
            (self.on_event)(FabricEvent::WorkerDisconnect {
                peer,
                mid_cell: Some(self.leases.cells[running].id()),
            });
            self.leases.release(lease.make_contiguous());
            self.settle(running, None);
        } else if greeted {
            (self.on_event)(FabricEvent::WorkerDisconnect {
                peer,
                mid_cell: None,
            });
        }
    }

    fn converse(
        &self,
        stream: &mut TcpStream,
        peer: &str,
        lease: &mut VecDeque<usize>,
        greeted: &mut bool,
    ) -> io::Result<()> {
        match recv_msg(stream)? {
            Some(Msg::Hello { proto }) if proto == PROTO_VERSION => {}
            Some(Msg::Hello { proto }) => {
                let reason = format!(
                    "protocol version mismatch: worker speaks v{proto}, coordinator v{PROTO_VERSION}"
                );
                send_msg(
                    stream,
                    &Msg::Reject {
                        reason: reason.clone(),
                    },
                )?;
                return Err(proto_err(reason));
            }
            other => return Err(proto_err(format!("expected Hello, got {other:?}"))),
        }
        send_msg(
            stream,
            &Msg::Welcome {
                sweep: self.sweep.to_string(),
                setup: self.setup.to_string(),
            },
        )?;
        *greeted = true;
        (self.on_event)(FabricEvent::WorkerConnect { peer: peer.into() });
        loop {
            let Some(msg) = recv_msg(stream)? else {
                return Ok(()); // Clean close.
            };
            match msg {
                Msg::Claim if lease.is_empty() => match self.leases.claim(true) {
                    Some((front, rest)) => {
                        lease.push_back(front);
                        lease.extend(rest);
                        let cells = lease
                            .iter()
                            .map(|&i| self.leases.cells[i].clone())
                            .collect();
                        send_msg(stream, &Msg::Assign { cells })?;
                    }
                    None => send_msg(stream, &Msg::Done)?,
                },
                Msg::Result { index, ok, body }
                    if lease.front().map(|&i| i as u64) == Some(index) =>
                {
                    lease.pop_front();
                    let result = if ok { Ok(body) } else { Err(body) };
                    self.settle(index as usize, Some(result));
                }
                other => {
                    return Err(proto_err(format!(
                        "unexpected {other:?} holding {} leased cell(s)",
                        lease.len()
                    )))
                }
            }
        }
    }
}

/// Run a sweep as the fabric coordinator: resume from the journal,
/// serve cells to workers over `listener`, and return the settled
/// outcomes in cell-index order — byte-compatible with
/// [`crate::pool::run_cells`] on the same inputs, whose lease queue it
/// shares.
///
/// `cfg.setup` (opaque to the fabric) is handed to every worker in the
/// `Welcome` message. `on_event` receives fabric diagnostics (connects,
/// disconnects, requeues); it must never influence results.
///
/// Returns immediately (without accepting a single connection) when the
/// journal already covers every cell. Otherwise blocks until every cell
/// settles and every accepted connection closes.
///
/// # Errors
///
/// Journal I/O errors and listener failures. Worker panics and
/// disconnects never surface as `Err` — they become per-cell failure
/// records, exactly like local pool panics.
pub fn serve<E>(
    sweep: &str,
    cells: &[Cell],
    cfg: &SweepConfig,
    listener: TcpListener,
    on_event: E,
) -> io::Result<Vec<CellOutcome>>
where
    E: Fn(FabricEvent) + Sync,
{
    let leases = Leases::open(sweep, cells, cfg)?;
    if leases.remaining() == 0 {
        return leases.finish();
    }
    let coord = Coordinator {
        sweep,
        setup: &cfg.setup,
        leases,
        on_event,
    };
    let unblock_addr = listener.local_addr()?;

    std::thread::scope(|scope| {
        let coord = &coord;
        // Watcher: once every cell settles, poke the accept loop awake
        // with a throwaway self-connection.
        scope.spawn(move || {
            coord.leases.wait_settled();
            let _ = TcpStream::connect(unblock_addr);
        });
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            if coord.leases.remaining() == 0 {
                break; // The poke (or a late joiner); sweep is over.
            }
            scope.spawn(move || coord.handle(stream));
        }
        // Scope exit joins every handler: open connections drain their
        // final Claim→Done exchanges before we aggregate.
    });
    coord.leases.finish()
}

/// What one worker process did, summed over its connections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Sweep name from the coordinator's `Welcome`.
    pub sweep: String,
    /// Cells executed (attempts, not unique cells).
    pub ran: usize,
    /// Attempts whose job closure returned a payload.
    pub ok: usize,
    /// Attempts that panicked (reported, possibly retried elsewhere).
    pub failed: usize,
}

/// Connect with retry until `wait` elapses — workers may legitimately
/// start before the coordinator binds its listener.
fn connect_retry(addr: &str, wait: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + wait;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// The `Hello` → `Welcome` handshake. `Ok(None)` means the coordinator
/// closed before greeting (sweep already finished): nothing to do.
fn handshake(stream: &mut TcpStream) -> io::Result<Option<(String, String)>> {
    send_msg(
        stream,
        &Msg::Hello {
            proto: PROTO_VERSION,
        },
    )?;
    match recv_msg(stream)? {
        Some(Msg::Welcome { sweep, setup }) => Ok(Some((sweep, setup))),
        Some(Msg::Reject { reason }) => Err(proto_err(reason)),
        None => Ok(None),
        other => Err(proto_err(format!("expected Welcome, got {other:?}"))),
    }
}

/// One claim→plan→run→report connection loop.
fn worker_conn<P, F>(addr: &str, wait: Duration, plan: &P, run: &F) -> io::Result<WorkerReport>
where
    P: Fn(&[Cell], &str) + Sync,
    F: Fn(&Cell, &str) -> String + Sync,
{
    let mut stream = connect_retry(addr, wait)?;
    let Some((sweep, setup)) = handshake(&mut stream)? else {
        return Ok(WorkerReport::default());
    };
    let mut report = WorkerReport {
        sweep,
        ..WorkerReport::default()
    };
    loop {
        send_msg(&mut stream, &Msg::Claim)?;
        let cells = match recv_msg(&mut stream)? {
            Some(Msg::Assign { cells }) => cells,
            Some(Msg::Done) | None => return Ok(report),
            other => return Err(proto_err(format!("expected Assign/Done, got {other:?}"))),
        };
        plan(&cells, &setup);
        for cell in &cells {
            let result = run_attempt(|| run(cell, &setup));
            let ok = result.is_ok();
            report.ran += 1;
            if ok {
                report.ok += 1;
            } else {
                report.failed += 1;
            }
            let (Ok(body) | Err(body)) = result;
            let index = cell.index as u64;
            send_msg(&mut stream, &Msg::Result { index, ok, body })?;
        }
    }
}

/// Run a fabric worker: `threads` connections to the coordinator at
/// `addr`, each claiming and executing group leases until the
/// coordinator says `Done`. `plan(cells, setup)` sees each group before
/// its first cell runs (to plan a warm cache, say). `run(cell, setup)`
/// is the job closure — it must be deterministic in the cell (same
/// contract as [`crate::pool::run_cells`]); panics are caught per cell
/// and reported to the coordinator as failed attempts.
///
/// # Errors
///
/// Returns the first connection error only when *every* connection
/// failed; if any connection completed its loop, their summed
/// [`WorkerReport`] is returned (the coordinator requeues whatever the
/// failed connections held).
pub fn run_worker<P, F>(
    addr: &str,
    threads: usize,
    wait: Duration,
    plan: P,
    run: F,
) -> io::Result<WorkerReport>
where
    P: Fn(&[Cell], &str) + Sync,
    F: Fn(&Cell, &str) -> String + Sync,
{
    let threads = threads.max(1);
    let results: Vec<io::Result<WorkerReport>> = std::thread::scope(|scope| {
        let (plan, run) = (&plan, &run);
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(move || worker_conn(addr, wait, plan, run)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker connection thread panicked"))
            .collect()
    });
    let mut merged = WorkerReport::default();
    let mut first_err = None;
    let mut any_ok = false;
    for r in results {
        match r {
            Ok(part) => {
                any_ok = true;
                if merged.sweep.is_empty() {
                    merged.sweep = part.sweep;
                }
                merged.ran += part.ran;
                merged.ok += part.ok;
                merged.failed += part.failed;
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    match (any_ok, first_err) {
        (false, Some(e)) => Err(e),
        _ => Ok(merged),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::SweepOutcome;
    use crate::journal;
    use crate::pool::{run_cells, CellStatus};
    use crate::spec::SweepSpec;
    use ida_obs::json::JsonObj;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    fn grid(n_workloads: usize) -> Vec<Cell> {
        SweepSpec::new(
            "net-t",
            (0..n_workloads).map(|i| format!("w{i}")).collect(),
            vec!["a".into(), "b".into()],
        )
        .cells()
    }

    fn payload_of(cell: &Cell) -> String {
        let mut rng = cell.rng();
        JsonObj::new()
            .str("cell", &cell.id())
            .u64("draw", rng.next_u64())
            .finish()
    }

    fn aggregate(outcomes: Vec<CellOutcome>) -> String {
        SweepOutcome {
            sweep: "net-t".into(),
            outcomes,
        }
        .aggregate_json()
    }

    /// Bind a loopback listener, run `serve` on a thread, and hand the
    /// address back for workers/raw clients.
    fn spawn_serve(
        cells: Vec<Cell>,
        cfg: SweepConfig,
        events: Arc<Mutex<Vec<FabricEvent>>>,
    ) -> (
        String,
        std::thread::JoinHandle<io::Result<Vec<CellOutcome>>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            serve("net-t", &cells, &cfg, listener, |ev| {
                events.lock().unwrap().push(ev)
            })
        });
        (addr, handle)
    }

    const WAIT: Duration = Duration::from_secs(10);

    /// A `run_worker` plan hook that plans nothing.
    fn no_plan(_: &[Cell], _: &str) {}

    /// Connect a raw client, handshake, and claim one lease.
    fn raw_claim(addr: &str) -> (TcpStream, Vec<Cell>) {
        let mut s = TcpStream::connect(addr).unwrap();
        handshake(&mut s).unwrap().expect("greeted");
        send_msg(&mut s, &Msg::Claim).unwrap();
        match recv_msg(&mut s).unwrap() {
            Some(Msg::Assign { cells }) => (s, cells),
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    #[test]
    fn messages_round_trip_and_reject_corruption() {
        let msgs = [
            Msg::Hello { proto: 1 },
            Msg::Welcome {
                sweep: "s".into(),
                setup: "{}".into(),
            },
            Msg::Reject {
                reason: "no".into(),
            },
            Msg::Claim,
            Msg::Assign { cells: grid(1) },
            Msg::Done,
            Msg::Result {
                index: 7,
                ok: false,
                body: "panicked: x".into(),
            },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            send_msg(&mut wire, m).unwrap();
        }
        let mut r = &wire[..];
        for m in &msgs {
            assert_eq!(recv_msg(&mut r).unwrap().as_ref(), Some(m));
        }
        assert_eq!(recv_msg(&mut r).unwrap(), None, "clean EOF after last");

        // A flipped payload bit is caught by the frame hash.
        let mut torn = wire.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x01;
        let mut r = &torn[..];
        let err = loop {
            match recv_msg(&mut r) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("corruption not detected"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), ErrorKind::InvalidData);

        // An unknown tag is rejected by the codec even with a valid frame.
        let mut bogus = Vec::new();
        frame::write_frame(&mut bogus, &[42u8]).unwrap();
        let err = recv_msg(&mut &bogus[..]).unwrap_err();
        assert!(err.to_string().contains("unknown fabric message tag 42"));
    }

    #[test]
    fn loopback_workers_match_serial_bytes_for_any_count() {
        let cells = grid(4);
        let serial = run_cells("net-t", &cells, &SweepConfig::serial(), payload_of).unwrap();
        for workers in [1usize, 2] {
            let events = Arc::new(Mutex::new(Vec::new()));
            let cfg = SweepConfig {
                setup: r#"{"kind":"test"}"#.into(),
                ..SweepConfig::serial()
            };
            let (addr, handle) = spawn_serve(cells.clone(), cfg, events);
            let groups = Mutex::new(Vec::new());
            let plan = |group: &[Cell], _: &str| {
                let ids = group.iter().map(Cell::id).collect::<Vec<_>>();
                groups.lock().unwrap().push(ids);
            };
            let report = run_worker(&addr, workers, WAIT, plan, |cell, setup| {
                assert_eq!(setup, r#"{"kind":"test"}"#);
                payload_of(cell)
            })
            .unwrap();
            let distributed = handle.join().unwrap().unwrap();
            assert_eq!(report.sweep, "net-t");
            assert_eq!(report.ran, cells.len());
            assert_eq!(report.failed, 0);
            assert_eq!(
                aggregate(serial.clone()),
                aggregate(distributed),
                "aggregate diverged at {workers} worker connections"
            );
            // Each lease was one workload's cells, in cell order.
            let mut groups = groups.into_inner().unwrap();
            groups.sort();
            let expected: Vec<Vec<String>> = (0..4)
                .map(|w| vec![format!("w{w}/a/r1"), format!("w{w}/b/r1")])
                .collect();
            assert_eq!(groups, expected);
        }
    }

    #[test]
    fn a_panicking_cell_fails_with_serial_identical_bytes() {
        let cells = grid(3);
        let job = |cell: &Cell| {
            assert!(cell.workload != "w1", "w1 always fails");
            payload_of(cell)
        };
        let serial = run_cells("net-t", &cells, &SweepConfig::serial(), job).unwrap();

        let events = Arc::new(Mutex::new(Vec::new()));
        let (addr, handle) = spawn_serve(cells.clone(), SweepConfig::serial(), events.clone());
        let report = run_worker(&addr, 2, WAIT, no_plan, |cell, _| job(cell)).unwrap();
        let distributed = handle.join().unwrap().unwrap();

        // Workload w1 spans two cells (systems a and b); each burns the
        // shared max_attempts budget of 2, then records the same
        // failure a serial run produces.
        assert_eq!(report.failed, 4);
        assert_eq!(aggregate(serial), aggregate(distributed));
        let requeues: Vec<_> = events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.kind() == "cell_requeue")
            .cloned()
            .collect();
        assert_eq!(requeues.len(), 2, "one requeue per failing workload cell");
    }

    #[test]
    fn a_killed_worker_mid_cell_requeues_and_the_bytes_still_match() {
        let cells = grid(3);
        let serial = run_cells("net-t", &cells, &SweepConfig::serial(), payload_of).unwrap();

        let events = Arc::new(Mutex::new(Vec::new()));
        let (addr, handle) = spawn_serve(cells.clone(), SweepConfig::serial(), events.clone());

        // A raw client claims a lease and dies holding it, mid-way
        // through its first cell.
        let killed_cell = raw_claim(&addr).1[0].id();

        // A real worker joins afterwards and finishes everything,
        // including the abandoned cells.
        run_worker(&addr, 1, WAIT, no_plan, |cell, _| payload_of(cell)).unwrap();
        let distributed = handle.join().unwrap().unwrap();
        assert_eq!(aggregate(serial), aggregate(distributed));

        let events = events.lock().unwrap();
        assert!(
            events.iter().any(|e| matches!(
                e,
                FabricEvent::WorkerDisconnect { mid_cell: Some(c), .. } if *c == killed_cell
            )),
            "no mid-cell disconnect recorded: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                FabricEvent::CellRequeue { cell, .. } if *cell == killed_cell
            )),
            "killed cell never requeued: {events:?}"
        );
    }

    #[test]
    fn version_skew_is_rejected_at_the_handshake() {
        let cells = grid(1);
        let events = Arc::new(Mutex::new(Vec::new()));
        let (addr, handle) = spawn_serve(cells, SweepConfig::serial(), events);

        let mut s = TcpStream::connect(&addr).unwrap();
        send_msg(&mut s, &Msg::Hello { proto: 99 }).unwrap();
        match recv_msg(&mut s).unwrap() {
            Some(Msg::Reject { reason }) => {
                assert!(reason.contains("v99"), "unhelpful reject: {reason}")
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        drop(s);

        // The sweep is unharmed: a current-version worker finishes it.
        run_worker(&addr, 1, WAIT, no_plan, |cell, _| payload_of(cell)).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn a_journaled_serve_resumes_without_accepting_any_connection() {
        let dir = std::env::temp_dir().join(format!("ida-net-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);

        let cells = grid(2);
        let cfg = SweepConfig::serial().with_journal(journal.clone());
        let events = Arc::new(Mutex::new(Vec::new()));
        let (addr, handle) = spawn_serve(cells.clone(), cfg.clone(), events);
        run_worker(&addr, 2, WAIT, no_plan, |cell, _| payload_of(cell)).unwrap();
        let first = handle.join().unwrap().unwrap();
        assert!(first.iter().all(|o| !o.cached));

        // Second serve: every cell is journaled, so it returns without
        // a listener interaction (no worker is even started).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let resumed = serve("net-t", &cells, &cfg, listener, |_| ()).unwrap();
        assert!(resumed.iter().all(|o| o.cached), "cells were recomputed");
        assert_eq!(aggregate(first), aggregate(resumed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The job of the interchange test: workload `w1` always panics, and
    /// cell `w0/b/r1` panics on its first attempt only (`flaked` records
    /// that it has).
    fn flaky_job(cell: &Cell, flaked: &AtomicBool) -> String {
        assert!(cell.workload != "w1", "w1 always fails");
        if cell.id() == "w0/b/r1" && !flaked.swap(true, Ordering::SeqCst) {
            panic!("flaked once");
        }
        payload_of(cell)
    }

    #[test]
    fn both_backends_retry_settle_and_journal_interchangeably() {
        let dir = std::env::temp_dir().join(format!("ida-net-interchange-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cells = grid(3);
        // One run of the grid with its own journal, on `jobs` local
        // threads or (`fabric`) `jobs` worker connections: the aggregate,
        // and the IDs of the cells the job ran.
        let run = |fabric: bool, jobs: usize, journal: &str| {
            let cfg = SweepConfig::serial()
                .with_jobs(jobs)
                .with_journal(dir.join(journal));
            let (flaked, ran) = (AtomicBool::new(false), Mutex::new(BTreeSet::new()));
            let job = |cell: &Cell| {
                ran.lock().unwrap().insert(cell.id());
                flaky_job(cell, &flaked)
            };
            let outcomes = if fabric {
                let (addr, handle) = spawn_serve(cells.clone(), cfg, Arc::default());
                run_worker(&addr, jobs, WAIT, no_plan, |cell, _| job(cell)).unwrap();
                handle.join().unwrap().unwrap()
            } else {
                run_cells("net-t", &cells, &cfg, job).unwrap()
            };
            (aggregate(outcomes), ran.into_inner().unwrap())
        };
        let (serial, _) = run(false, 1, "j1.jsonl");
        assert_eq!(run(false, 3, "j3.jsonl").0, serial);
        assert_eq!(run(true, 2, "fabric.jsonl").0, serial);

        // Every journal holds the same final record per cell: the flaky
        // cell succeeded on its retry, both w1 cells spent the budget.
        let load = |name: &str| journal::load(&dir.join(name), "net-t", "{}").unwrap();
        let reference = load("j1.jsonl");
        assert_eq!(reference.len(), cells.len());
        assert_eq!(reference["w0/b/r1"].attempts, 2);
        assert!(reference["w0/b/r1"].result.is_ok());
        for id in ["w1/a/r1", "w1/b/r1"] {
            assert_eq!(reference[id].attempts, 2);
            assert_eq!(
                reference[id].result,
                Err("panicked: w1 always fails".into())
            );
        }
        assert_eq!(load("j3.jsonl"), reference);
        assert_eq!(load("fabric.jsonl"), reference);
        // A retry goes to the front of the queue, so one thread runs it
        // at once and the serial journal stays in cell order.
        let text = std::fs::read_to_string(dir.join("j1.jsonl")).unwrap();
        let order: Vec<String> = text
            .lines()
            .map(|line| {
                crate::jsonv::parse(line)
                    .unwrap()
                    .get("cell")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(order, cells.iter().map(Cell::id).collect::<Vec<_>>());

        // Each journal resumes under the other backend: only the two
        // failed w1 cells run again, and the bytes still match.
        let w1: BTreeSet<String> = ["w1/a/r1".into(), "w1/b/r1".into()].into();
        for (fabric, journal) in [
            (true, "j1.jsonl"),
            (true, "j3.jsonl"),
            (false, "fabric.jsonl"),
        ] {
            let (resumed, ran) = run(fabric, 2, journal);
            assert_eq!(resumed, serial, "{journal} resumed to other bytes");
            assert_eq!(ran, w1, "{journal} re-ran more than the failed cells");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lease_lost_at_the_budget_settles_as_a_disconnect_failure() {
        let cells = SweepSpec::new("net-t", vec!["w0".into()], vec!["a".into()]).cells();
        let events = Arc::new(Mutex::new(Vec::new()));
        let (addr, handle) = spawn_serve(cells, SweepConfig::serial(), events.clone());

        // Two raw clients in turn claim the one cell and die holding the
        // lease; the second claim waits until the first lease is lost.
        for _ in 0..2 {
            assert_eq!(raw_claim(&addr).1.len(), 1);
        }
        let outcomes = handle.join().unwrap().unwrap();
        assert_eq!(outcomes[0].attempts, 2);
        assert_eq!(
            outcomes[0].status,
            CellStatus::Failed {
                error: "worker disconnected mid-cell (attempt 2 of 2)".into()
            }
        );

        let events = events.lock().unwrap();
        let requeues = events.iter().filter(|e| e.kind() == "cell_requeue");
        assert_eq!(requeues.count(), 1, "{events:?}");
        let lost = events.iter().filter(|e| {
            matches!(
                e,
                FabricEvent::WorkerDisconnect {
                    mid_cell: Some(_),
                    ..
                }
            )
        });
        assert_eq!(lost.count(), 2, "{events:?}");
    }

    /// `serve`'s outcomes, failing the test instead of hanging when a
    /// `run_worker` on a side thread does not finish within `limit`.
    fn finish_with_worker(
        addr: String,
        handle: std::thread::JoinHandle<io::Result<Vec<CellOutcome>>>,
        limit: Duration,
    ) -> Vec<CellOutcome> {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let report = run_worker(&addr, 1, WAIT, no_plan, |cell, _| payload_of(cell));
            tx.send(()).unwrap();
            report
        });
        rx.recv_timeout(limit)
            .expect("the worker hung: a lease was never settled");
        worker.join().unwrap().unwrap();
        handle.join().unwrap().unwrap()
    }

    #[test]
    fn a_lost_group_charges_the_running_cell_and_refunds_the_rest() {
        let cells = SweepSpec::new(
            "net-t",
            vec!["w0".into(), "w1".into()],
            vec!["a".into(), "b".into(), "c".into()],
        )
        .cells();
        let serial = run_cells("net-t", &cells, &SweepConfig::serial(), payload_of).unwrap();
        let events = Arc::new(Mutex::new(Vec::new()));
        let (addr, handle) = spawn_serve(cells.clone(), SweepConfig::serial(), events.clone());

        // A raw client leases workload w0 whole, reports its first cell,
        // and dies while running the second.
        let (mut s, group) = raw_claim(&addr);
        let ids: Vec<String> = group.iter().map(Cell::id).collect();
        assert_eq!(ids, ["w0/a/r1", "w0/b/r1", "w0/c/r1"]);
        let result = Msg::Result {
            index: group[0].index as u64,
            ok: true,
            body: payload_of(&group[0]),
        };
        send_msg(&mut s, &result).unwrap();
        drop(s);

        let distributed = finish_with_worker(addr, handle, Duration::from_secs(20));
        let attempts: Vec<u32> = distributed[..3].iter().map(|o| o.attempts).collect();
        assert_eq!(attempts, [1, 2, 1], "a settled, b charged, c refunded");
        assert_eq!(aggregate(serial), aggregate(distributed));

        let events = events.lock().unwrap();
        let requeues = events.iter().filter(|e| e.kind() == "cell_requeue");
        assert_eq!(requeues.count(), 1, "{events:?}");
        let lost: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                FabricEvent::WorkerDisconnect {
                    mid_cell: Some(c), ..
                } => Some(c.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lost, ["w0/b/r1"], "{events:?}");
    }

    #[test]
    fn a_second_claim_on_an_unsettled_lease_drops_the_connection() {
        let cells = grid(2);
        let serial = run_cells("net-t", &cells, &SweepConfig::serial(), payload_of).unwrap();
        let (addr, handle) = spawn_serve(cells, SweepConfig::serial(), Arc::default());

        // A raw client claims again before reporting its lease: the
        // coordinator treats that as a protocol error and hangs up.
        let (mut s, group) = raw_claim(&addr);
        assert_eq!(group.len(), 2);
        send_msg(&mut s, &Msg::Claim).unwrap();
        assert!(!matches!(recv_msg(&mut s), Ok(Some(_))), "no second lease");
        drop(s);

        // Its lease comes back, so a real worker can finish the grid.
        let distributed = finish_with_worker(addr, handle, Duration::from_secs(20));
        let attempts: Vec<u32> = distributed.iter().map(|o| o.attempts).collect();
        assert_eq!(attempts, [2, 1, 1, 1], "w0/a lost a lease, w0/b refunded");
        assert_eq!(aggregate(serial), aggregate(distributed));
    }
}
