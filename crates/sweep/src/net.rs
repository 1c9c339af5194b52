//! The distributed sweep fabric: a TCP coordinator/worker protocol
//! over [`ida_snap::frame`]d messages.
//!
//! One process runs [`serve`]: it drives the same lease queue as the
//! in-process pool (`pool::Leases`: claim, retry, settle, journal) from
//! one handler per connection, and adds only what is TCP — the
//! handshake, the warm-image rendezvous, and fabric events. Any number
//! of processes run [`run_worker`]: each opens one connection per worker
//! thread, claims cells one at a time, runs each through the same
//! panic-to-record helper a local thread uses, and streams results back.
//!
//! Wire format: every message is one [`frame`]-sealed [`Snap`] payload,
//! so torn, bit-flipped, or version-skewed frames are rejected by the
//! same magic/version/length/hash checks that guard snapshot files, and
//! a protocol-version handshake ([`PROTO_VERSION`]) rejects skewed
//! peers before any work is assigned.
//!
//! Fault tolerance is lease-based: a claim leases exactly one cell to
//! one connection. If the connection dies before its `Result` arrives,
//! the lease is lost — the cell goes back to the front of the queue
//! (bounded by `max_attempts`, exactly as a local panic is) for another
//! worker to claim. A worker-side panic is reported as a failed attempt
//! and retried by *reassignment*, so a deterministically panicking cell
//! exhausts the same budget and records the same `panicked: ...` error a
//! serial run would.
//!
//! Determinism: cell payloads are pure functions of the cell, outcomes
//! are settled into cell-index order, and the aggregate excludes
//! scheduling facts (attempts, cache hits) — so the aggregate is
//! byte-identical to a serial [`crate::pool::run_cells`] run for any
//! worker count, join/leave order, or kill point.

use crate::cell::Cell;
use crate::pool::{run_attempt, CellOutcome, Leases, SweepConfig};
use crate::warm::WarmRemote;
use ida_obs::fabric::FabricEvent;
use ida_snap::{frame, Reader, Snap, SnapError, Writer};
use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Fabric protocol version, checked in the `Hello`/`Welcome` handshake.
/// Bump on any wire-visible change to [`Msg`].
pub const PROTO_VERSION: u32 = 1;

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
    /// Worker → coordinator: give me a cell. Blocks server-side until
    /// a cell is claimable or the sweep is finished.
    Claim,
    /// Coordinator → worker: a cell lease.
    Assign {
        /// The fully derived cell (seed included).
        cell: Cell,
        /// Which attempt this lease is (1 = first).
        attempt: u32,
    },
    /// Coordinator → worker: no work left, ever; disconnect.
    Done,
    /// Worker → coordinator: the leased cell's outcome.
    Result {
        /// [`Cell::index`] of the leased cell.
        index: u64,
        /// Whether the job closure returned (vs panicked).
        ok: bool,
        /// Payload JSON on success, panic message on failure.
        body: String,
    },
    /// Worker → coordinator: fetch a warm image.
    WarmGet {
        /// Warm-identity fingerprint.
        key: u64,
    },
    /// Coordinator → worker: the warm image, if any worker published it.
    WarmImage {
        /// Frame-sealed snapshot bytes.
        bytes: Option<Vec<u8>>,
    },
    /// Worker → coordinator: publish a freshly built warm image.
    WarmPut {
        /// Warm-identity fingerprint.
        key: u64,
        /// Frame-sealed snapshot bytes.
        bytes: Vec<u8>,
    },
    /// Coordinator → worker: `Result`/`WarmPut` acknowledged.
    Ack,
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
            Msg::Assign { cell, attempt } => {
                4u8.encode(w);
                cell.encode(w);
                attempt.encode(w);
            }
            Msg::Done => 5u8.encode(w),
            Msg::Result { index, ok, body } => {
                6u8.encode(w);
                index.encode(w);
                ok.encode(w);
                body.encode(w);
            }
            Msg::WarmGet { key } => {
                7u8.encode(w);
                key.encode(w);
            }
            Msg::WarmImage { bytes } => {
                8u8.encode(w);
                bytes.encode(w);
            }
            Msg::WarmPut { key, bytes } => {
                9u8.encode(w);
                key.encode(w);
                bytes.encode(w);
            }
            Msg::Ack => 10u8.encode(w),
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
                cell: Cell::decode(r)?,
                attempt: u32::decode(r)?,
            },
            5 => Msg::Done,
            6 => Msg::Result {
                index: u64::decode(r)?,
                ok: bool::decode(r)?,
                body: String::decode(r)?,
            },
            7 => Msg::WarmGet {
                key: u64::decode(r)?,
            },
            8 => Msg::WarmImage {
                bytes: Option::<Vec<u8>>::decode(r)?,
            },
            9 => Msg::WarmPut {
                key: u64::decode(r)?,
                bytes: Vec::<u8>::decode(r)?,
            },
            10 => Msg::Ack,
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
/// needs — the handshake facts, the warm-image rendezvous, and the
/// event sink.
struct Coordinator<'a, E: Fn(FabricEvent) + Sync> {
    sweep: &'a str,
    setup: &'a str,
    leases: Leases<'a>,
    /// Warm images published by workers, by warm-identity key.
    warm: Mutex<HashMap<u64, Vec<u8>>>,
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

    /// The warm-image map. Handlers hold it only for one lookup or
    /// insert, so it cannot be poisoned mid-update.
    fn warm(&self) -> MutexGuard<'_, HashMap<u64, Vec<u8>>> {
        self.warm.lock().expect("warm map poisoned")
    }

    /// One connection, handshake to EOF. Any exit releases an open
    /// lease and emits the disconnect event.
    fn handle(&self, mut stream: TcpStream) {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".into());
        let mut lease: Option<usize> = None;
        let mut greeted = false;
        let _ = self.converse(&mut stream, &peer, &mut lease, &mut greeted);
        if let Some(idx) = lease {
            (self.on_event)(FabricEvent::WorkerDisconnect {
                peer,
                mid_cell: Some(self.leases.cells[idx].id()),
            });
            self.settle(idx, None);
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
        lease: &mut Option<usize>,
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
                Msg::Claim => match self.leases.claim() {
                    Some((idx, attempt)) => {
                        *lease = Some(idx);
                        let cell = self.leases.cells[idx].clone();
                        send_msg(stream, &Msg::Assign { cell, attempt })?;
                    }
                    None => send_msg(stream, &Msg::Done)?,
                },
                Msg::Result { index, ok, body } => {
                    let idx = index as usize;
                    if *lease != Some(idx) {
                        return Err(proto_err(format!(
                            "result for cell {index} without a lease"
                        )));
                    }
                    *lease = None;
                    self.settle(idx, Some(if ok { Ok(body) } else { Err(body) }));
                    send_msg(stream, &Msg::Ack)?;
                }
                Msg::WarmGet { key } => {
                    let bytes = self.warm().get(&key).cloned();
                    send_msg(stream, &Msg::WarmImage { bytes })?;
                }
                Msg::WarmPut { key, bytes } => {
                    // First publisher wins; images for one key are
                    // byte-identical by the warm cache's determinism
                    // contract, so this is a pure dedup.
                    self.warm().entry(key).or_insert(bytes);
                    send_msg(stream, &Msg::Ack)?;
                }
                other => return Err(proto_err(format!("unexpected message {other:?}"))),
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
/// `setup` is an opaque experiment-setup payload (JSON by convention)
/// handed to every worker in the `Welcome` message. `on_event` receives
/// fabric diagnostics (connects, disconnects, requeues); it must never
/// influence results.
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
    setup: &str,
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
        setup,
        leases,
        warm: Mutex::default(),
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

/// One claim→run→report connection loop.
fn worker_conn<F>(addr: &str, wait: Duration, run: &F) -> io::Result<WorkerReport>
where
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
        match recv_msg(&mut stream)? {
            Some(Msg::Assign { cell, attempt: _ }) => {
                let result = run_attempt(|| run(&cell, &setup));
                let ok = result.is_ok();
                report.ran += 1;
                if ok {
                    report.ok += 1;
                } else {
                    report.failed += 1;
                }
                let (Ok(body) | Err(body)) = result;
                send_msg(
                    &mut stream,
                    &Msg::Result {
                        index: cell.index as u64,
                        ok,
                        body,
                    },
                )?;
                match recv_msg(&mut stream)? {
                    Some(Msg::Ack) => {}
                    other => return Err(proto_err(format!("expected Ack, got {other:?}"))),
                }
            }
            Some(Msg::Done) | None => return Ok(report),
            other => return Err(proto_err(format!("expected Assign/Done, got {other:?}"))),
        }
    }
}

/// Run a fabric worker: `threads` connections to the coordinator at
/// `addr`, each claiming and executing cells until the coordinator says
/// `Done`. `run(cell, setup)` is the job closure — it must be
/// deterministic in the cell (same contract as
/// [`crate::pool::run_cells`]); panics are caught per cell and reported
/// to the coordinator as failed attempts.
///
/// # Errors
///
/// Returns the first connection error only when *every* connection
/// failed; if any connection completed its loop, their summed
/// [`WorkerReport`] is returned (the coordinator requeues whatever the
/// failed connections held).
pub fn run_worker<F>(addr: &str, threads: usize, wait: Duration, run: F) -> io::Result<WorkerReport>
where
    F: Fn(&Cell, &str) -> String + Sync,
{
    let threads = threads.max(1);
    let results: Vec<io::Result<WorkerReport>> = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(move || worker_conn(addr, wait, run)))
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

/// A [`WarmRemote`] over a dedicated fabric connection: worker threads
/// fetch warm images other workers already built, and publish their own
/// builds, through the coordinator's rendezvous map. All failures
/// degrade to `None`/no-op — the warm cache then simply builds locally.
#[derive(Debug)]
pub struct WarmPort {
    stream: TcpStream,
    broken: bool,
}

impl WarmPort {
    /// Connect and handshake a dedicated warm-exchange connection.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures (including version skew).
    pub fn connect(addr: &str, wait: Duration) -> io::Result<WarmPort> {
        let mut stream = connect_retry(addr, wait)?;
        // The Welcome content is redundant here (the cell connections
        // carry it); the handshake is still required so version skew is
        // rejected on every connection.
        handshake(&mut stream)?;
        Ok(WarmPort {
            stream,
            broken: false,
        })
    }

    fn exchange(&mut self, msg: &Msg) -> Option<Msg> {
        if self.broken {
            return None;
        }
        let ok = send_msg(&mut self.stream, msg)
            .and_then(|()| recv_msg(&mut self.stream))
            .ok()
            .flatten();
        if ok.is_none() {
            self.broken = true;
        }
        ok
    }
}

impl WarmRemote for WarmPort {
    fn fetch(&mut self, key: u64) -> Option<Vec<u8>> {
        match self.exchange(&Msg::WarmGet { key })? {
            Msg::WarmImage { bytes } => bytes,
            _ => {
                self.broken = true;
                None
            }
        }
    }

    fn publish(&mut self, key: u64, bytes: &[u8]) {
        let sent = self.exchange(&Msg::WarmPut {
            key,
            bytes: bytes.to_vec(),
        });
        if !matches!(sent, Some(Msg::Ack)) {
            self.broken = true;
        }
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
    use std::sync::Arc;

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
            serve(
                "net-t",
                &cells,
                &cfg,
                r#"{"kind":"test"}"#,
                listener,
                |ev| events.lock().unwrap().push(ev),
            )
        });
        (addr, handle)
    }

    const WAIT: Duration = Duration::from_secs(10);

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
            Msg::Assign {
                cell: grid(1).remove(0),
                attempt: 2,
            },
            Msg::Done,
            Msg::Result {
                index: 7,
                ok: false,
                body: "panicked: x".into(),
            },
            Msg::WarmGet { key: 9 },
            Msg::WarmImage { bytes: None },
            Msg::WarmImage {
                bytes: Some(vec![1, 2, 3]),
            },
            Msg::WarmPut {
                key: 9,
                bytes: vec![4, 5],
            },
            Msg::Ack,
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
            let (addr, handle) = spawn_serve(cells.clone(), SweepConfig::serial(), events);
            let report = run_worker(&addr, workers, WAIT, |cell, setup| {
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
        let report = run_worker(&addr, 2, WAIT, |cell, _| job(cell)).unwrap();
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

        // A raw client claims a cell and dies holding the lease.
        let killed_cell = {
            let mut s = TcpStream::connect(&addr).unwrap();
            let (_, _) = handshake(&mut s).unwrap().expect("greeted");
            send_msg(&mut s, &Msg::Claim).unwrap();
            match recv_msg(&mut s).unwrap() {
                Some(Msg::Assign { cell, attempt }) => {
                    assert_eq!(attempt, 1);
                    cell.id()
                }
                other => panic!("expected a lease, got {other:?}"),
            }
            // Drop: connection dies mid-cell.
        };

        // A real worker joins afterwards and finishes everything,
        // including the abandoned cell.
        run_worker(&addr, 1, WAIT, |cell, _| payload_of(cell)).unwrap();
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
        run_worker(&addr, 1, WAIT, |cell, _| payload_of(cell)).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn warm_images_rendezvous_through_the_coordinator() {
        let cells = grid(1);
        let events = Arc::new(Mutex::new(Vec::new()));
        let (addr, handle) = spawn_serve(cells.clone(), SweepConfig::serial(), events);

        let mut port = WarmPort::connect(&addr, WAIT).unwrap();
        assert_eq!(port.fetch(5), None, "nothing published yet");
        let image = frame::seal(&[7u8; 32]);
        port.publish(5, &image);
        assert_eq!(port.fetch(5), Some(image.clone()));

        // A second worker's port sees the first worker's image.
        let mut other = WarmPort::connect(&addr, WAIT).unwrap();
        assert_eq!(other.fetch(5), Some(image));

        // Finish the sweep so serve returns; ports must be dropped or
        // serve would (correctly) wait for their connections to close.
        drop(port);
        drop(other);
        run_worker(&addr, 1, WAIT, |cell, _| payload_of(cell)).unwrap();
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
        run_worker(&addr, 2, WAIT, |cell, _| payload_of(cell)).unwrap();
        let first = handle.join().unwrap().unwrap();
        assert!(first.iter().all(|o| !o.cached));

        // Second serve: every cell is journaled, so it returns without
        // a listener interaction (no worker is even started).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let resumed = serve("net-t", &cells, &cfg, "{}", listener, |_| ()).unwrap();
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
                run_worker(&addr, jobs, WAIT, |cell, _| job(cell)).unwrap();
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
        let load = |name: &str| journal::load(&dir.join(name), "net-t").unwrap();
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
        for expected in 1..=2 {
            let mut s = TcpStream::connect(&addr).unwrap();
            handshake(&mut s).unwrap().expect("greeted");
            send_msg(&mut s, &Msg::Claim).unwrap();
            match recv_msg(&mut s).unwrap() {
                Some(Msg::Assign { attempt, .. }) => assert_eq!(attempt, expected),
                other => panic!("expected a lease, got {other:?}"),
            }
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
}
