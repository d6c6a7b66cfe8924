//! The multi-process socket transport: one OS process per place,
//! connected by a full TCP mesh on localhost (or any reachable
//! addresses).
//!
//! Where the in-process [`LocalTransport`](crate::transport::LocalTransport)
//! *models* a network, this backend has a real one: every message is
//! encoded with [`crate::Codec`], wrapped in a length-prefixed [`frame`], and
//! written to a socket. The [`StatsBoard`] consequently records the bytes
//! actually framed, with zero simulated network time.
//!
//! # Mesh formation
//!
//! Place 0 is the *coordinator* of the handshake (and, in DPX10, of the
//! whole run — Resilient X10's immortal place). Startup:
//!
//! 1. every worker binds its own listener, dials the coordinator and
//!    sends `Hello { place, places, addr }`;
//! 2. the coordinator, having heard all `places - 1` hellos, replies to
//!    each with a `PeerMap` of every listen address;
//! 3. each worker dials every *lower-numbered* worker (and accepts a
//!    connection from every higher-numbered one), sends `Ready` to the
//!    coordinator, and waits for `Go`.
//!
//! The coordinator's address comes either from the in-process launcher
//! ([`launch::launch_places`]) via `DPX10_COORD`, or from a static
//! `DPX10_PEERS` list (in which case each place binds its listed
//! address).
//!
//! # Steady state
//!
//! Each connection gets a *writer thread* and a *reader thread*, and a
//! frame crosses one thread hand-off on each side. A sender encodes its
//! payload straight behind a reserved `Data` header and queues that one
//! buffer on the link's bounded outbox. The writer wakes for the first
//! queued frame, copies every frame already queued behind it into one
//! batch of up to 64 KiB, and hands the batch to the kernel in a
//! single `write` (when idle it writes a `Heartbeat` instead). The reader
//! reads through a buffer of the same size, so one `read` returns every
//! frame of a batch, and calls the node's [`Inbound`] handler with each
//! payload on its own thread — no further queue or thread stands between
//! a link and the code the payload is for. A read that sees EOF, a
//! protocol violation, or silence longer than the peer timeout marks the
//! peer dead on the shared [`LivenessBoard`] — from there the engine's
//! ordinary [`DeadPlaceError`] machinery takes over, exactly as with an
//! injected fault.
//!
//! What batching buys, on a 2-vCPU host running a 2-place in-process
//! mesh shaped like dpxbench's `swlag-sockets-pull` (one 57-byte frame
//! per vertex event): a median of 0.25 `send`/`recv` calls per frame
//! (0.16–0.60 over 16 runs), against 3.0 with one `write` and two
//! unbuffered `read`s per frame
//! (`results/BENCH_socket_path.json`).

pub mod frame;
pub mod launch;

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};
use dpx10_sync::channel::{self, Receiver, RecvTimeoutError, Sender};
use dpx10_sync::Mutex;

use crate::chaos::ChaosRng;
use crate::fault::{DeadPlaceError, LivenessBoard};
use crate::membership::{MemberState, RosterBoard};
use crate::place::PlaceId;
use crate::stats::StatsBoard;
use frame::{Frame, FrameError};

/// Frames a writer queues before senders block (bounds memory if a peer
/// reads slowly).
const OUTBOX_CAP: usize = 4096;

/// Bytes a writer gathers from its outbox into one `write`, and the size
/// of a reader's buffer. A frame this large or larger is written whole,
/// on its own, rather than copied into the batch.
const BATCH_BYTES: usize = 64 * 1024;

/// Where a node's payloads go: called with each [`Frame::Data`] payload
/// and its source place, on the reader thread of the link it arrived on
/// (a loopback send calls it on the sending thread). One link's payloads
/// reach it one at a time, in the order they were sent; a handler that
/// blocks stalls that link, so it should only hand the payload on.
///
/// It is part of the node's config, so it is in place before any reader
/// starts: no payload is ever read by another path.
#[derive(Clone)]
pub struct Inbound(Arc<dyn Fn(PlaceId, Vec<u8>) + Send + Sync>);

impl Inbound {
    /// A handler that calls `route` with every payload.
    pub fn new(route: impl Fn(PlaceId, Vec<u8>) + Send + Sync + 'static) -> Self {
        Inbound(Arc::new(route))
    }

    /// A handler that drops every payload: the default, for a node that
    /// only joins the mesh (a connect probe, `dpx10 join`).
    pub fn discard() -> Self {
        Inbound::new(|_, _| {})
    }
}

impl std::fmt::Debug for Inbound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Inbound(..)")
    }
}

/// How this process joins the mesh.
#[derive(Debug)]
pub enum ConnectMode {
    /// Place 0 with a pre-bound listener the workers will dial.
    Coordinator(TcpListener),
    /// A worker place: dial `coordinator`, optionally binding a fixed
    /// listen address (static `DPX10_PEERS` deployments).
    Worker {
        /// The coordinator's address.
        coordinator: String,
        /// Fixed listen address, or `None` for an ephemeral port.
        bind: Option<String>,
    },
}

/// Seeded frame-level perturbation of the socket mesh, applied by the
/// writer threads (`DPX10_CHAOS`, see [`SocketConfig::from_env`]).
///
/// Delay stalls a frame (and, FIFO link, everything queued behind it) a
/// few milliseconds before writing. `dup_prob`/`drop_prob` act on *whole
/// frames* — including the engines' control-plane messages, which are
/// not idempotent — so they stay at zero in differential runs and exist
/// for targeted robustness tests. `flap` suppresses idle heartbeats for
/// a window starting [`SocketChaos::FLAP_DELAY`] after connect: shorter
/// than the peer timeout and the link rides it out, longer and the peer
/// is declared dead — either way the detection path runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SocketChaos {
    /// Root seed; each link derives its own decision stream from it.
    pub seed: u64,
    /// Probability a frame's write is delayed.
    pub delay_prob: f64,
    /// Maximum per-frame write delay.
    pub max_delay: Duration,
    /// Probability a frame is written twice.
    pub dup_prob: f64,
    /// Probability a frame is not written at all.
    pub drop_prob: f64,
    /// Heartbeat-suppression window length, if flapping.
    pub flap: Option<Duration>,
}

impl SocketChaos {
    /// How long after connect the heartbeat flap window opens.
    pub const FLAP_DELAY: Duration = Duration::from_millis(500);

    /// Delay-only chaos — the perturbation that is always safe on the
    /// engines' control plane.
    pub fn delay_only(seed: u64, delay_prob: f64, max_delay: Duration) -> Self {
        SocketChaos {
            seed,
            delay_prob,
            max_delay,
            dup_prob: 0.0,
            drop_prob: 0.0,
            flap: None,
        }
    }
}

/// Everything needed to bring one place onto the socket mesh.
#[derive(Debug)]
pub struct SocketConfig {
    /// This process's place.
    pub place: PlaceId,
    /// Total places in the computation.
    pub places: u16,
    /// Mesh capacity: the maximum place count this mesh may ever grow
    /// to (`DPX10_MAX_PLACES`, default `places`). Every per-peer table
    /// is sized to this, and a listener is kept open after the
    /// handshake — only when `max_places > places` — so joiners can
    /// dial into the running mesh.
    pub max_places: u16,
    /// Handshake role.
    pub mode: ConnectMode,
    /// Idle-writer keep-alive interval (`DPX10_HB_MS`, default 250 ms).
    pub heartbeat: Duration,
    /// Silence after which a peer is declared dead (`DPX10_TIMEOUT_MS`,
    /// default 5 s).
    pub peer_timeout: Duration,
    /// Budget for the whole handshake (`DPX10_CONNECT_MS`, default 30 s).
    pub connect_timeout: Duration,
    /// Frame-level chaos injection, off by default.
    pub chaos: Option<SocketChaos>,
    /// Flight recorder for frame-level events ([`EventKind::FrameSend`]
    /// / [`EventKind::FrameRecv`]); disabled by default.
    pub recorder: Recorder,
    /// Where this node's payloads go; dropped by default.
    pub inbound: Inbound,
}

fn env_ms(name: &str, default: u64) -> Duration {
    let ms = std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    Duration::from_millis(ms.max(1))
}

fn bad_input<T>(msg: impl Into<String>) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidInput, msg.into()))
}

impl SocketConfig {
    /// Coordinator config over an already-bound listener.
    pub fn coordinator(listener: TcpListener, places: u16) -> Self {
        SocketConfig {
            place: PlaceId::ZERO,
            places,
            max_places: places,
            mode: ConnectMode::Coordinator(listener),
            heartbeat: env_ms("DPX10_HB_MS", 250),
            peer_timeout: env_ms("DPX10_TIMEOUT_MS", 5_000),
            connect_timeout: env_ms("DPX10_CONNECT_MS", 30_000),
            chaos: chaos_from_env(),
            recorder: Recorder::disabled(),
            inbound: Inbound::discard(),
        }
    }

    /// Worker config dialing `coordinator` from an ephemeral port.
    pub fn worker(place: PlaceId, places: u16, coordinator: String) -> Self {
        SocketConfig {
            place,
            places,
            max_places: places,
            mode: ConnectMode::Worker {
                coordinator,
                bind: None,
            },
            heartbeat: env_ms("DPX10_HB_MS", 250),
            peer_timeout: env_ms("DPX10_TIMEOUT_MS", 5_000),
            connect_timeout: env_ms("DPX10_CONNECT_MS", 30_000),
            chaos: chaos_from_env(),
            recorder: Recorder::disabled(),
            inbound: Inbound::discard(),
        }
    }

    /// Reads the launcher environment (`DPX10_PLACE`, `DPX10_PLACES`,
    /// `DPX10_COORD` / `DPX10_PEERS`).
    ///
    /// Returns `Ok(None)` when `DPX10_PLACE` is unset — the process is
    /// not a spawned place and should act as launcher/coordinator.
    pub fn from_env() -> io::Result<Option<SocketConfig>> {
        let Ok(place_raw) = std::env::var("DPX10_PLACE") else {
            return Ok(None);
        };
        let Ok(place) = place_raw.parse::<u16>() else {
            return bad_input(format!("bad DPX10_PLACE {place_raw:?}"));
        };
        let places: u16 = match std::env::var("DPX10_PLACES") {
            Ok(v) => match v.parse() {
                Ok(n) if n > place => n,
                _ => return bad_input(format!("bad DPX10_PLACES {v:?} for place {place}")),
            },
            Err(_) => return bad_input("DPX10_PLACE set but DPX10_PLACES missing"),
        };
        let mode = if let Ok(peers) = std::env::var("DPX10_PEERS") {
            let addrs: Vec<String> = peers.split(',').map(str::trim).map(String::from).collect();
            if addrs.len() != places as usize {
                return bad_input(format!(
                    "DPX10_PEERS lists {} addresses for {places} places",
                    addrs.len()
                ));
            }
            if place == 0 {
                ConnectMode::Coordinator(TcpListener::bind(addrs[0].as_str())?)
            } else {
                ConnectMode::Worker {
                    coordinator: addrs[0].clone(),
                    bind: Some(addrs[place as usize].clone()),
                }
            }
        } else {
            let Ok(coordinator) = std::env::var("DPX10_COORD") else {
                return bad_input("DPX10_PLACE set but neither DPX10_COORD nor DPX10_PEERS is");
            };
            if place == 0 {
                return bad_input("place 0 needs DPX10_PEERS, not DPX10_COORD");
            }
            ConnectMode::Worker {
                coordinator,
                bind: None,
            }
        };
        let max_places = std::env::var("DPX10_MAX_PLACES")
            .ok()
            .and_then(|v| v.parse::<u16>().ok())
            .unwrap_or(places)
            .max(places);
        Ok(Some(SocketConfig {
            place: PlaceId(place),
            places,
            max_places,
            mode,
            heartbeat: env_ms("DPX10_HB_MS", 250),
            peer_timeout: env_ms("DPX10_TIMEOUT_MS", 5_000),
            connect_timeout: env_ms("DPX10_CONNECT_MS", 30_000),
            chaos: chaos_from_env(),
            recorder: Recorder::disabled(),
            inbound: Inbound::discard(),
        }))
    }
}

/// Parses `DPX10_CHAOS`, a comma-separated `key=value` list:
/// `seed=7,delay=0.1,delay_ms=3,dup=0,drop=0,flap_ms=400`. Every key is
/// optional; an unset or malformed variable means no chaos. Exposed so
/// the launcher environment reaches spawned places unchanged.
pub fn chaos_from_env() -> Option<SocketChaos> {
    parse_chaos(&std::env::var("DPX10_CHAOS").ok()?)
}

/// The parser behind [`chaos_from_env`].
pub fn parse_chaos(raw: &str) -> Option<SocketChaos> {
    let mut chaos = SocketChaos {
        seed: 0,
        delay_prob: 0.0,
        max_delay: Duration::from_millis(2),
        dup_prob: 0.0,
        drop_prob: 0.0,
        flap: None,
    };
    for part in raw.split(',') {
        let (key, value) = part.split_once('=')?;
        match (key.trim(), value.trim()) {
            ("seed", v) => chaos.seed = v.parse().ok()?,
            ("delay", v) => chaos.delay_prob = v.parse().ok()?,
            ("delay_ms", v) => chaos.max_delay = Duration::from_millis(v.parse().ok()?),
            ("dup", v) => chaos.dup_prob = v.parse().ok()?,
            ("drop", v) => chaos.drop_prob = v.parse().ok()?,
            ("flap_ms", v) => chaos.flap = Some(Duration::from_millis(v.parse().ok()?)),
            _ => return None,
        }
    }
    Some(chaos)
}

/// State shared by every per-link thread, the acceptor thread, and the
/// node facade: the per-peer tables a link registers itself into, plus
/// the knobs readers and writers run with.
///
/// All tables are sized to `capacity` (not the founding place count) so
/// [`register_link`] can attach a joiner's link to a *running* mesh
/// without resizing anything — the heartbeat/writer table is driven by
/// link registration, not by a `0..places` loop at startup.
struct LinkFabric {
    me: PlaceId,
    capacity: u16,
    liveness: LivenessBoard,
    roster: RosterBoard,
    outboxes: Mutex<Vec<Option<Sender<Vec<u8>>>>>,
    /// One extra clone of each peer stream, kept so [`SocketNode::crash`]
    /// can tear the sockets down underneath the reader/writer threads.
    streams: Mutex<Vec<Option<TcpStream>>>,
    writer_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    inbound: Inbound,
    shutting_down: AtomicBool,
    crashed: AtomicBool,
    heartbeat: Duration,
    peer_timeout: Duration,
    connect_timeout: Duration,
    chaos: Option<SocketChaos>,
    recorder: Recorder,
}

/// Sets up one live peer link on the fabric: stores the stream, creates
/// the bounded outbox, and spawns the writer/reader thread pair. Safe to
/// call at any time — this is how both the startup handshake and a
/// mid-run join attach links.
fn register_link(fabric: &Arc<LinkFabric>, peer: PlaceId, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(fabric.peer_timeout))?;
    stream.set_nodelay(true)?;
    let wstream = stream.try_clone()?;
    fabric.streams.lock()[peer.index()] = Some(stream.try_clone()?);
    let (tx, rx) = channel::bounded(OUTBOX_CAP);
    let chaos = fabric.chaos.map(|ch| LinkChaos::new(ch, fabric.me, peer));
    let writer = {
        let fab = fabric.clone();
        std::thread::Builder::new()
            .name(format!("sock-w{}-{}", fabric.me.0, peer.0))
            .spawn(move || writer_loop(wstream, peer, rx, fab, chaos))?
    };
    // Readers are detached: on shutdown they exit on the peer's `Bye` or
    // its closed socket, and must not delay process teardown by a full
    // peer timeout.
    {
        let fab = fabric.clone();
        std::thread::Builder::new()
            .name(format!("sock-r{}-{}", fabric.me.0, peer.0))
            .spawn(move || reader_loop(stream, peer, fab))?;
    }
    fabric.writer_handles.lock().push(writer);
    // Publish the outbox last: once `send_bytes` can see it, the link's
    // threads are already running.
    fabric.outboxes.lock()[peer.index()] = Some(tx);
    Ok(())
}

/// One place's end of the byte-level socket mesh: it moves opaque
/// payload bytes and owns the liveness/stats/roster boards of the
/// process.
pub struct SocketNode {
    fabric: Arc<LinkFabric>,
    places: u16,
    stats: StatsBoard,
}

impl SocketNode {
    /// Performs the handshake of `cfg` and starts the per-peer reader and
    /// writer threads, the readers handing every payload to
    /// `cfg.inbound`. Blocks until the whole mesh is up (`Go` received /
    /// sent) or the connect timeout expires.
    ///
    /// When `cfg.max_places > cfg.places` the node keeps its listener
    /// open after the handshake and spawns an *acceptor* thread, so the
    /// mesh can grow: joiners dial the coordinator with a `JoinReq` and
    /// every existing member with a `JoinHello` (see [`SocketNode::join`]).
    pub fn connect(cfg: SocketConfig) -> io::Result<SocketNode> {
        let places = cfg.places;
        let capacity = cfg.max_places.max(places);
        if cfg.place.index() >= places as usize {
            return bad_input(format!("place {} out of range 0..{places}", cfg.place.0));
        }
        let me = cfg.place;
        let (links, listener, mut addrs) = match cfg.mode {
            ConnectMode::Coordinator(listener) => {
                let (links, mut addrs) =
                    handshake_coordinator(&listener, places, cfg.connect_timeout)?;
                addrs[0] = listener.local_addr()?.to_string();
                (links, listener, addrs)
            }
            ConnectMode::Worker { coordinator, bind } => {
                let (links, listener, mut addrs) = handshake_worker(
                    me,
                    places,
                    &coordinator,
                    bind.as_deref(),
                    cfg.connect_timeout,
                )?;
                addrs[0] = coordinator;
                (links, listener, addrs)
            }
        };
        addrs.resize(capacity as usize, String::new());

        let roster = RosterBoard::new(places, capacity);
        for (i, a) in addrs.iter().enumerate() {
            if !a.is_empty() {
                roster.set_addr(PlaceId(i as u16), a.clone());
            }
        }
        let fabric = Arc::new(LinkFabric {
            me,
            capacity,
            liveness: LivenessBoard::new(capacity),
            roster,
            outboxes: Mutex::new((0..capacity).map(|_| None).collect()),
            streams: Mutex::new((0..capacity).map(|_| None).collect()),
            writer_handles: Mutex::new(Vec::new()),
            inbound: cfg.inbound,
            shutting_down: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            heartbeat: cfg.heartbeat,
            peer_timeout: cfg.peer_timeout,
            connect_timeout: cfg.connect_timeout,
            chaos: cfg.chaos,
            recorder: cfg.recorder,
        });
        for (peer_idx, link) in links.into_iter().enumerate() {
            let Some(stream) = link else { continue };
            register_link(&fabric, PlaceId(peer_idx as u16), stream)?;
        }
        if capacity > places {
            let fab = fabric.clone();
            std::thread::Builder::new()
                .name(format!("sock-a{}", me.0))
                .spawn(move || acceptor_loop(listener, fab))
                .expect("spawn acceptor");
        }
        Ok(SocketNode {
            fabric,
            places,
            stats: StatsBoard::new(capacity),
        })
    }

    /// Joins a *running* elastic mesh post-launch, handing every payload
    /// to `cfg.inbound`: dials the coordinator with a `JoinReq`, receives
    /// the assigned place id, mesh capacity and member address map in the
    /// `JoinAccept`, dials every member with a `JoinHello`, and starts
    /// its own acceptor so later joiners can reach it. Fails with an error containing the coordinator's
    /// reason if the mesh is at capacity.
    pub fn join(cfg: JoinConfig) -> io::Result<SocketNode> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let my_addr = listener.local_addr()?.to_string();
        let mut coord =
            TcpStream::connect_timeout(&resolve(&cfg.coordinator)?, cfg.connect_timeout)?;
        prepare(&coord, cfg.connect_timeout)?;
        frame::write_frame(
            &mut coord,
            &Frame::JoinReq {
                addr: my_addr.clone(),
            },
        )?;
        let (place, capacity, addrs) = match read_hs(&mut coord)? {
            Frame::JoinAccept {
                place,
                capacity,
                addrs,
            } => (place, capacity, addrs),
            Frame::JoinReject { reason } => {
                return Err(io::Error::other(format!("join rejected: {reason}")))
            }
            other => return hs_err(format!("expected join-accept, got {other:?}")),
        };
        if place >= capacity || addrs.len() != capacity as usize {
            return hs_err(format!(
                "malformed join-accept: place {place} of {capacity} with {} addrs",
                addrs.len()
            ));
        }
        let me = PlaceId(place);
        let roster = RosterBoard::new(0, capacity);
        for (i, a) in addrs.iter().enumerate() {
            if a.is_empty() {
                continue;
            }
            let p = PlaceId(i as u16);
            let _ = roster.observe_join(p);
            roster.set_addr(p, a.clone());
        }
        let _ = roster.observe_join(me);
        roster.set_addr(me, my_addr);
        let fabric = Arc::new(LinkFabric {
            me,
            capacity,
            liveness: LivenessBoard::new(capacity),
            roster,
            outboxes: Mutex::new((0..capacity).map(|_| None).collect()),
            streams: Mutex::new((0..capacity).map(|_| None).collect()),
            writer_handles: Mutex::new(Vec::new()),
            inbound: cfg.inbound,
            shutting_down: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            heartbeat: cfg.heartbeat,
            peer_timeout: cfg.peer_timeout,
            connect_timeout: cfg.connect_timeout,
            chaos: cfg.chaos,
            recorder: cfg.recorder,
        });
        register_link(&fabric, PlaceId(0), coord)?;
        for (i, a) in addrs.iter().enumerate() {
            let p = PlaceId(i as u16);
            if p == me || i == 0 || a.is_empty() {
                continue;
            }
            let mut stream = TcpStream::connect_timeout(&resolve(a)?, cfg.connect_timeout)?;
            prepare(&stream, cfg.connect_timeout)?;
            frame::write_frame(&mut stream, &Frame::JoinHello { place: me.0 })?;
            register_link(&fabric, p, stream)?;
        }
        {
            let fab = fabric.clone();
            std::thread::Builder::new()
                .name(format!("sock-a{}", me.0))
                .spawn(move || acceptor_loop(listener, fab))
                .expect("spawn acceptor");
        }
        Ok(SocketNode {
            fabric,
            places: capacity,
            stats: StatsBoard::new(capacity),
        })
    }

    /// This process's place.
    pub fn me(&self) -> PlaceId {
        self.fabric.me
    }

    /// Founding place count of the mesh (for a node that joined
    /// post-launch, the mesh capacity). The *live* place set is on
    /// [`roster`](SocketNode::roster).
    pub fn places(&self) -> u16 {
        self.places
    }

    /// Maximum place count this mesh may grow to; every table is sized
    /// to it.
    pub fn capacity(&self) -> u16 {
        self.fabric.capacity
    }

    /// The membership roster: which slots are active, joining, draining,
    /// left, or dead — and at which version.
    pub fn roster(&self) -> &RosterBoard {
        &self.fabric.roster
    }

    /// The liveness board fed by the reader threads.
    pub fn liveness(&self) -> &LivenessBoard {
        &self.fabric.liveness
    }

    /// The stats board; `place(me)` carries this process's real framed
    /// bytes.
    pub fn stats(&self) -> &StatsBoard {
        &self.stats
    }

    /// Sends `payload` to `dst` and returns the framed byte count
    /// written to the wire (0 for the loopback `dst == me`, which never
    /// touches a socket and is not accounted — matching the in-process
    /// transport, where local sends are free).
    pub fn send_bytes(&self, dst: PlaceId, payload: Vec<u8>) -> Result<usize, DeadPlaceError> {
        self.send_with(dst, payload.len(), |buf| buf.extend_from_slice(&payload))
    }

    /// [`send_bytes`](SocketNode::send_bytes) for a payload that `encode`
    /// appends to a buffer (`len` bytes, a capacity hint). The buffer
    /// already holds the `Data` frame's reserved header, so the payload
    /// is encoded straight into the frame that goes on the wire. A loopback
    /// payload gets a buffer of its own and reaches this node's
    /// [`Inbound`] handler on the calling thread.
    pub fn send_with(
        &self,
        dst: PlaceId,
        len: usize,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<usize, DeadPlaceError> {
        if dst.index() >= self.fabric.capacity as usize {
            return Err(DeadPlaceError { place: dst });
        }
        self.fabric.liveness.check(dst)?;
        if dst == self.fabric.me {
            let mut payload = Vec::with_capacity(len);
            encode(&mut payload);
            (self.fabric.inbound.0)(dst, payload);
            return Ok(0);
        }
        let mut wire = Vec::with_capacity(frame::DATA_HEADER + len);
        wire.resize(frame::DATA_HEADER, 0);
        encode(&mut wire);
        frame::seal_data(&mut wire, self.fabric.me.0);
        let n = wire.len();
        let tx = {
            let outboxes = self.fabric.outboxes.lock();
            match &outboxes[dst.index()] {
                Some(tx) => tx.clone(),
                None => return Err(DeadPlaceError { place: dst }),
            }
        };
        // A writer that hit a socket error drops its receiver, so a
        // blocked (outbox-full) send unblocks with an error instead of
        // hanging on a dead peer.
        tx.send(wire).map_err(|_| DeadPlaceError { place: dst })?;
        self.stats.place(self.fabric.me).on_send(n, Duration::ZERO);
        self.fabric.recorder.instant_now(
            self.fabric.me.0,
            RUNTIME_WORKER,
            EventKind::FrameSend,
            n as u64,
        );
        Ok(n)
    }

    /// Gracefully *drains out of the mesh*: announces `Leave` on every
    /// live link (peers move this place to `Left` on their rosters —
    /// not `Dead`; no recovery fires), then performs an ordinary
    /// [`shutdown`](SocketNode::shutdown). The engine above must have
    /// handed this place's state over first — the socket layer moves
    /// bytes, not state.
    pub fn drain(&self) {
        let _ = self.fabric.roster.start_drain(self.fabric.me);
        let leave = Frame::Leave {
            place: self.fabric.me.0,
        }
        .to_wire();
        {
            let outboxes = self.fabric.outboxes.lock();
            for tx in outboxes.iter().flatten() {
                let _ = tx.send(leave.clone());
            }
        }
        let _ = self.fabric.roster.leave(self.fabric.me);
        self.shutdown();
    }

    /// Flushes and closes every connection: queued frames drain, each
    /// writer signs off with `Bye`, writers are joined. Idempotent.
    pub fn shutdown(&self) {
        self.fabric.shutting_down.store(true, Ordering::Release);
        self.fabric.outboxes.lock().iter_mut().for_each(|tx| {
            tx.take();
        });
        let handles: Vec<_> = self.fabric.writer_handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Simulates this process being SIGKILLed mid-run: every connection
    /// closes *without* the `Bye` sign-off, so peers see an abrupt EOF
    /// and mark this place dead — the same detection path as a real
    /// process death, but usable when places are in-process threads
    /// (the chaos harness). Idempotent; a later [`shutdown`] is a no-op.
    ///
    /// [`shutdown`]: SocketNode::shutdown
    pub fn crash(&self) {
        self.fabric.crashed.store(true, Ordering::Release);
        self.fabric.shutting_down.store(true, Ordering::Release);
        // Tear the sockets down under every thread cloned onto them —
        // readers (ours and the peers') see EOF immediately, like the
        // kernel closing a killed process's descriptors.
        for stream in self.fabric.streams.lock().iter().flatten() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        self.shutdown();
    }
}

impl Drop for SocketNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for SocketNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketNode")
            .field("me", &self.fabric.me)
            .field("places", &self.places)
            .field("capacity", &self.fabric.capacity)
            .finish_non_exhaustive()
    }
}

/// Everything needed to dial into a *running* elastic mesh (contrast
/// [`SocketConfig`], which describes a founding member of the startup
/// handshake). The timing knobs read the same environment variables.
#[derive(Debug)]
pub struct JoinConfig {
    /// The coordinator's (place 0's) listen address.
    pub coordinator: String,
    /// Idle-writer keep-alive interval (`DPX10_HB_MS`, default 250 ms).
    pub heartbeat: Duration,
    /// Silence after which a peer is declared dead (`DPX10_TIMEOUT_MS`,
    /// default 5 s).
    pub peer_timeout: Duration,
    /// Budget for the whole join handshake (`DPX10_CONNECT_MS`,
    /// default 30 s).
    pub connect_timeout: Duration,
    /// Frame-level chaos injection, off by default.
    pub chaos: Option<SocketChaos>,
    /// Flight recorder for frame-level events; disabled by default.
    pub recorder: Recorder,
    /// Where this node's payloads go; dropped by default.
    pub inbound: Inbound,
}

impl JoinConfig {
    /// A join config with environment-default timing, dialing
    /// `coordinator`.
    pub fn new(coordinator: impl Into<String>) -> Self {
        JoinConfig {
            coordinator: coordinator.into(),
            heartbeat: env_ms("DPX10_HB_MS", 250),
            peer_timeout: env_ms("DPX10_TIMEOUT_MS", 5_000),
            connect_timeout: env_ms("DPX10_CONNECT_MS", 30_000),
            chaos: chaos_from_env(),
            recorder: Recorder::disabled(),
            inbound: Inbound::discard(),
        }
    }
}

fn mark_peer(fabric: &LinkFabric, peer: PlaceId) {
    if fabric.shutting_down.load(Ordering::Acquire) {
        return;
    }
    // A drained place signed off through the roster; its links closing
    // afterwards is a goodbye, not a death.
    if fabric.roster.state(peer) == MemberState::Left {
        return;
    }
    fabric.roster.mark_dead(peer);
    fabric.liveness.mark_dead(peer);
}

/// Per-link chaos state for one writer thread: a decision stream forked
/// from the plan seed by `(me, peer)`, and the heartbeat-flap window.
struct LinkChaos {
    cfg: SocketChaos,
    rng: ChaosRng,
    flap_from: Instant,
}

impl LinkChaos {
    fn new(cfg: SocketChaos, me: PlaceId, peer: PlaceId) -> Self {
        LinkChaos {
            cfg,
            rng: ChaosRng::new(cfg.seed)
                .fork(u64::from(me.0))
                .fork(u64::from(peer.0)),
            flap_from: Instant::now() + SocketChaos::FLAP_DELAY,
        }
    }

    fn heartbeat_suppressed(&self) -> bool {
        let Some(pause) = self.cfg.flap else {
            return false;
        };
        let now = Instant::now();
        now >= self.flap_from && now < self.flap_from + pause
    }

    /// Rolls the per-frame dice: `None` drops the frame, otherwise how
    /// long to stall before writing and whether to write it twice.
    fn frame_verdict(&mut self) -> Option<(Duration, bool)> {
        if self.rng.chance(self.cfg.drop_prob) {
            return None;
        }
        let delay = if self.rng.chance(self.cfg.delay_prob) {
            let ms = self.cfg.max_delay.as_millis().max(1) as u64;
            Duration::from_millis(1 + self.rng.below(ms))
        } else {
            Duration::ZERO
        };
        Some((delay, self.rng.chance(self.cfg.dup_prob)))
    }
}

/// Writes what `batch` holds, if anything, and empties it.
fn flush(stream: &mut TcpStream, batch: &mut Vec<u8>) -> io::Result<()> {
    if !batch.is_empty() {
        stream.write_all(batch)?;
        batch.clear();
    }
    Ok(())
}

/// Adds one outbound frame to `batch` as its chaos verdict says: dropped,
/// appended once or twice, or appended after writing what is already
/// batched and stalling (a delay holds up everything behind it on the
/// link, as it would on a wire). A frame of [`BATCH_BYTES`] or more is
/// written whole, after the batch, instead of being copied into it.
fn stage(
    stream: &mut TcpStream,
    batch: &mut Vec<u8>,
    wire: &[u8],
    chaos: Option<&mut LinkChaos>,
) -> io::Result<()> {
    let copies = match chaos.map(LinkChaos::frame_verdict) {
        None => 1,
        Some(None) => return Ok(()), // dropped on the (chaos) floor
        Some(Some((delay, dup))) => {
            if !delay.is_zero() {
                flush(stream, batch)?;
                std::thread::sleep(delay);
            }
            1 + usize::from(dup)
        }
    };
    for _ in 0..copies {
        if wire.len() >= BATCH_BYTES {
            flush(stream, batch)?;
            stream.write_all(wire)?;
        } else {
            batch.extend_from_slice(wire);
        }
    }
    Ok(())
}

/// Writes `first` and every frame already queued behind it, up to the
/// batch budget, in one `write` (more only where chaos delays a frame or
/// a frame is too large to batch).
fn write_batch(
    stream: &mut TcpStream,
    batch: &mut Vec<u8>,
    first: Vec<u8>,
    rx: &Receiver<Vec<u8>>,
    mut chaos: Option<&mut LinkChaos>,
) -> io::Result<()> {
    let mut wire = first;
    loop {
        stage(stream, batch, &wire, chaos.as_deref_mut())?;
        if batch.len() >= BATCH_BYTES {
            break;
        }
        match rx.try_recv() {
            Ok(next) => wire = next,
            Err(_) => break,
        }
    }
    flush(stream, batch)
}

fn writer_loop(
    mut stream: TcpStream,
    peer: PlaceId,
    rx: Receiver<Vec<u8>>,
    fabric: Arc<LinkFabric>,
    mut chaos: Option<LinkChaos>,
) {
    let hb = Frame::Heartbeat.to_wire();
    let mut batch = Vec::with_capacity(BATCH_BYTES);
    loop {
        match rx.recv_timeout(fabric.heartbeat) {
            Ok(first) => {
                if write_batch(&mut stream, &mut batch, first, &rx, chaos.as_mut()).is_err() {
                    mark_peer(&fabric, peer);
                    return; // dropping rx unblocks senders with an error
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if chaos.as_ref().is_some_and(LinkChaos::heartbeat_suppressed) {
                    continue;
                }
                if stream.write_all(&hb).is_err() {
                    mark_peer(&fabric, peer);
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // A crashed node dies silently: no Bye, just the FIN the
                // kernel sends when the stream drops — peers must detect
                // the death, exactly as after a SIGKILL.
                if !fabric.crashed.load(Ordering::Acquire) {
                    let _ = frame::write_frame(&mut stream, &Frame::Bye);
                    let _ = stream.flush();
                }
                return;
            }
        }
    }
}

/// Reads `stream` until the peer says `Bye` or is gone. The handshake
/// read its frames exactly from the bare stream, so the buffer starts on
/// a frame boundary; the stream's read timeout still applies to every
/// refill, so a silent peer is still caught.
fn reader_loop(stream: TcpStream, peer: PlaceId, fabric: Arc<LinkFabric>) {
    let mut stream = BufReader::with_capacity(BATCH_BYTES, stream);
    loop {
        match frame::read_frame(&mut stream) {
            Ok(Frame::Data { src, payload }) if src < fabric.capacity => {
                fabric.recorder.instant_now(
                    fabric.me.0,
                    RUNTIME_WORKER,
                    EventKind::FrameRecv,
                    payload.len() as u64,
                );
                (fabric.inbound.0)(PlaceId(src), payload);
            }
            Ok(Frame::Heartbeat) => {}
            // A graceful departure: the peer drained its chunks and is
            // leaving. Move it to `Left` (so the EOF that follows is not
            // read as a death) and retire our outbox toward it — the
            // writer sees the dropped channel and signs off with `Bye`.
            Ok(Frame::Leave { place }) if place == peer.0 => {
                let _ = fabric.roster.leave(peer);
                fabric.outboxes.lock()[peer.index()].take();
            }
            Ok(Frame::Bye) => return,
            // A handshake frame (or out-of-range src) after `Go`, EOF,
            // a read timeout, or any decode error: the peer is gone or
            // talking garbage either way.
            Ok(_) | Err(_) => {
                mark_peer(&fabric, peer);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Elastic membership: the acceptor
// ---------------------------------------------------------------------

/// Post-handshake listener thread of an elastic mesh member. Dial-ins
/// are either a `JoinReq` (a fresh place asking the *coordinator* for
/// admission) or a `JoinHello` (an admitted joiner introducing itself
/// to an existing member). Anything else is dropped on the floor.
fn acceptor_loop(listener: TcpListener, fabric: Arc<LinkFabric>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if fabric.shutting_down.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => handle_dial_in(stream, &fabric),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// The address map a `JoinAccept` carries: one entry per slot, blank
/// unless the slot holds a member (or an in-flight joiner) whose listen
/// address the coordinator knows — exactly the places the new joiner
/// must dial.
fn join_addrs(roster: &RosterBoard, capacity: u16) -> Vec<String> {
    (0..capacity)
        .map(PlaceId)
        .map(|p| match roster.state(p) {
            MemberState::Joining | MemberState::Active | MemberState::Draining => roster.addr(p),
            _ => String::new(),
        })
        .collect()
}

fn handle_dial_in(stream: TcpStream, fabric: &Arc<LinkFabric>) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    if prepare(&stream, fabric.connect_timeout).is_err() {
        return;
    }
    let mut stream = stream;
    match frame::read_frame(&mut stream) {
        // An admitted joiner introducing itself. Register the link
        // *before* flipping the roster, so a poller that sees the new
        // member can immediately send to it.
        Ok(Frame::JoinHello { place })
            if place < fabric.capacity && PlaceId(place) != fabric.me =>
        {
            let peer = PlaceId(place);
            if register_link(fabric, peer, stream).is_ok() {
                let _ = fabric.roster.observe_join(peer);
            }
        }
        // Admission: coordinator only. Grant the lowest vacant slot,
        // hand back the roster snapshot, and bring the link up.
        Ok(Frame::JoinReq { addr }) if fabric.me == PlaceId::ZERO => {
            match fabric.roster.admit(addr) {
                Some(place) => {
                    let accept = Frame::JoinAccept {
                        place: place.0,
                        capacity: fabric.capacity,
                        addrs: join_addrs(&fabric.roster, fabric.capacity),
                    };
                    if frame::write_frame(&mut stream, &accept).is_err() {
                        fabric.roster.mark_dead(place);
                        return;
                    }
                    if register_link(fabric, place, stream).is_ok() {
                        let _ = fabric.roster.activate(place);
                    } else {
                        fabric.roster.mark_dead(place);
                    }
                }
                None => {
                    let _ = frame::write_frame(
                        &mut stream,
                        &Frame::JoinReject {
                            reason: "mesh at capacity".into(),
                        },
                    );
                }
            }
        }
        _ => {} // garbage dial-in: drop the stream
    }
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

fn hs_err<T>(what: impl Into<String>) -> io::Result<T> {
    Err(io::Error::other(format!("handshake: {}", what.into())))
}

fn read_hs(stream: &mut TcpStream) -> io::Result<Frame> {
    frame::read_frame(stream).map_err(|e| match e {
        FrameError::Io(io) => io,
        other => io::Error::other(format!("handshake: {other}")),
    })
}

fn accept_deadline(listener: &TcpListener, deadline: Instant) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                listener.set_nonblocking(false)?;
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "handshake: timed out waiting for a place to dial in",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn prepare(stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))
}

/// Coordinator side: collect hellos, publish the peer map, collect
/// readies, fire `Go`. Returns `links[p] = Some(stream)` for `p >= 1`
/// plus the collected listen addresses (slot 0 left blank — the caller
/// knows its own listener).
fn handshake_coordinator(
    listener: &TcpListener,
    places: u16,
    timeout: Duration,
) -> io::Result<(Vec<Option<TcpStream>>, Vec<String>)> {
    let deadline = Instant::now() + timeout;
    let mut links: Vec<Option<TcpStream>> = (0..places).map(|_| None).collect();
    let mut addrs = vec![String::new(); places as usize];
    for _ in 1..places {
        let mut stream = accept_deadline(listener, deadline)?;
        prepare(&stream, timeout)?;
        match read_hs(&mut stream)? {
            Frame::Hello {
                place,
                places: claimed,
                addr,
            } => {
                if claimed != places {
                    return hs_err(format!(
                        "place {place} expects {claimed} places, not {places}"
                    ));
                }
                if place == 0 || place >= places {
                    return hs_err(format!("hello from out-of-range place {place}"));
                }
                if links[place as usize].is_some() {
                    return hs_err(format!("duplicate hello from place {place}"));
                }
                if addr.is_empty() {
                    return hs_err(format!("place {place} sent no listen address"));
                }
                addrs[place as usize] = addr;
                links[place as usize] = Some(stream);
            }
            other => return hs_err(format!("expected hello, got {other:?}")),
        }
    }
    let map = Frame::PeerMap {
        addrs: addrs.clone(),
    };
    for stream in links.iter_mut().flatten() {
        frame::write_frame(stream, &map)?;
    }
    for (p, stream) in links.iter_mut().enumerate() {
        let Some(stream) = stream else { continue };
        match read_hs(stream)? {
            Frame::Ready => {}
            other => return hs_err(format!("expected ready from place {p}, got {other:?}")),
        }
    }
    for stream in links.iter_mut().flatten() {
        frame::write_frame(stream, &Frame::Go)?;
    }
    Ok((links, addrs))
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, format!("unresolvable {addr}")))
}

/// Worker side of the handshake; see the module docs for the sequence.
/// Returns the links, this worker's (still-bound) listener — kept so an
/// elastic mesh can accept joiner dial-ins after the handshake — and
/// the peer address map (slot 0 left blank).
fn handshake_worker(
    me: PlaceId,
    places: u16,
    coordinator: &str,
    bind: Option<&str>,
    timeout: Duration,
) -> io::Result<(Vec<Option<TcpStream>>, TcpListener, Vec<String>)> {
    let deadline = Instant::now() + timeout;
    let listener = match bind {
        Some(addr) => TcpListener::bind(addr)?,
        None => TcpListener::bind("127.0.0.1:0")?,
    };
    let my_addr = listener.local_addr()?.to_string();

    let mut coord = TcpStream::connect_timeout(&resolve(coordinator)?, timeout)?;
    prepare(&coord, timeout)?;
    frame::write_frame(
        &mut coord,
        &Frame::Hello {
            place: me.0,
            places,
            addr: my_addr.clone(),
        },
    )?;
    let addrs = match read_hs(&mut coord)? {
        Frame::PeerMap { addrs } if addrs.len() == places as usize => addrs,
        Frame::PeerMap { addrs } => {
            return hs_err(format!("peer map of {} for {places} places", addrs.len()))
        }
        other => return hs_err(format!("expected peer map, got {other:?}")),
    };

    let mut links: Vec<Option<TcpStream>> = (0..places).map(|_| None).collect();
    // Dial every lower-numbered worker; their listeners are bound before
    // they dial the coordinator, so the connections queue in the backlog
    // even if the peer has not reached `accept` yet.
    for p in 1..me.0 {
        let mut stream = TcpStream::connect_timeout(&resolve(&addrs[p as usize])?, timeout)?;
        prepare(&stream, timeout)?;
        frame::write_frame(
            &mut stream,
            &Frame::Hello {
                place: me.0,
                places,
                addr: String::new(),
            },
        )?;
        links[p as usize] = Some(stream);
    }
    // Accept the higher-numbered workers dialing us.
    for _ in me.0 + 1..places {
        let mut stream = accept_deadline(&listener, deadline)?;
        prepare(&stream, timeout)?;
        match read_hs(&mut stream)? {
            Frame::Hello { place, .. } => {
                if place <= me.0 || place >= places {
                    return hs_err(format!("unexpected dial-in from place {place}"));
                }
                if links[place as usize].is_some() {
                    return hs_err(format!("duplicate dial-in from place {place}"));
                }
                links[place as usize] = Some(stream);
            }
            other => return hs_err(format!("expected hello, got {other:?}")),
        }
    }
    frame::write_frame(&mut coord, &Frame::Ready)?;
    match read_hs(&mut coord)? {
        Frame::Go => {}
        other => return hs_err(format!("expected go, got {other:?}")),
    }
    links[0] = Some(coord);
    let mut addrs = addrs;
    addrs[0] = String::new();
    addrs[me.index()] = my_addr;
    Ok((links, listener, addrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Deref;

    /// A node whose handler collects its payloads, for a test to wait on.
    struct Node {
        node: SocketNode,
        inbox: Receiver<(PlaceId, Vec<u8>)>,
    }

    impl Deref for Node {
        type Target = SocketNode;
        fn deref(&self) -> &SocketNode {
            &self.node
        }
    }

    impl std::fmt::Debug for Node {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.node.fmt(f)
        }
    }

    impl Node {
        fn recv_bytes_timeout(&self, timeout: Duration) -> Option<(PlaceId, Vec<u8>)> {
            self.inbox.recv_timeout(timeout).ok()
        }
    }

    fn collector() -> (Inbound, Receiver<(PlaceId, Vec<u8>)>) {
        let (tx, rx) = channel::unbounded();
        let inbound = Inbound::new(move |src, payload| {
            let _ = tx.send((src, payload));
        });
        (inbound, rx)
    }

    fn connect(mut cfg: SocketConfig) -> io::Result<Node> {
        let (inbound, inbox) = collector();
        cfg.inbound = inbound;
        Ok(Node {
            node: SocketNode::connect(cfg)?,
            inbox,
        })
    }

    fn join(coordinator: &str) -> io::Result<Node> {
        let (inbound, inbox) = collector();
        let mut cfg = JoinConfig::new(coordinator);
        cfg.inbound = inbound;
        Ok(Node {
            node: SocketNode::join(cfg)?,
            inbox,
        })
    }

    fn mesh(n: u16) -> Vec<Node> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut handles = Vec::new();
        for p in 1..n {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                connect(SocketConfig::worker(PlaceId(p), n, addr)).unwrap()
            }));
        }
        let mut nodes = vec![connect(SocketConfig::coordinator(listener, n)).unwrap()];
        for h in handles {
            nodes.push(h.join().unwrap());
        }
        nodes.sort_by_key(|nd| nd.me().0);
        nodes
    }

    #[test]
    fn four_place_mesh_delivers_everywhere() {
        let nodes = mesh(4);
        for src in 0..4u16 {
            for dst in 0..4u16 {
                nodes[src as usize]
                    .send_bytes(PlaceId(dst), vec![src as u8, dst as u8])
                    .unwrap();
            }
        }
        for dst in 0..4u16 {
            let mut seen = Vec::new();
            while seen.len() < 4 {
                let (src, payload) = nodes[dst as usize]
                    .recv_bytes_timeout(Duration::from_secs(5))
                    .expect("payload arrives");
                assert_eq!(payload, vec![src.0 as u8, dst as u8]);
                seen.push(src.0);
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn framed_bytes_are_accounted_loopback_is_not() {
        let nodes = mesh(2);
        let n = nodes[0].send_bytes(PlaceId(1), vec![7; 10]).unwrap();
        assert_eq!(n, frame::framed_len(2 + 10)); // u16 src + payload
        assert_eq!(nodes[0].send_bytes(PlaceId(0), vec![7; 10]).unwrap(), 0);
        let snap = nodes[0].stats().snapshot();
        assert_eq!(snap.messages_sent, 1);
        assert_eq!(snap.bytes_sent, n as u64);
        assert_eq!(snap.net_time, Duration::ZERO);
    }

    #[test]
    fn abrupt_peer_death_is_detected_and_sends_fail() {
        // A 2-place mesh where place 1 is a hand-rolled impostor that
        // completes the handshake and then vanishes without `Bye` —
        // the coordinator's reader must see the closed stream and mark
        // place 1 dead, exactly as if the process had been SIGKILLed.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let impostor = std::thread::spawn(move || {
            let own = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut coord = TcpStream::connect(addr).unwrap();
            frame::write_frame(
                &mut coord,
                &Frame::Hello {
                    place: 1,
                    places: 2,
                    addr: own.local_addr().unwrap().to_string(),
                },
            )
            .unwrap();
            assert!(matches!(
                frame::read_frame(&mut coord).unwrap(),
                Frame::PeerMap { .. }
            ));
            frame::write_frame(&mut coord, &Frame::Ready).unwrap();
            assert!(matches!(frame::read_frame(&mut coord).unwrap(), Frame::Go));
            // Die abruptly: stream drops, kernel sends FIN, no Bye.
        });
        let node = connect(SocketConfig::coordinator(listener, 2)).unwrap();
        impostor.join().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while node.liveness().is_alive(PlaceId(1)) {
            assert!(Instant::now() < deadline, "death never detected");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            node.send_bytes(PlaceId(1), vec![1]).unwrap_err().place,
            PlaceId(1)
        );
    }

    #[test]
    fn graceful_shutdown_is_not_a_death() {
        let mut nodes = mesh(3);
        let victim = nodes.remove(2);
        victim.shutdown(); // sends Bye on every link
        drop(victim);
        // Give the survivors' readers a moment to consume the Bye.
        std::thread::sleep(Duration::from_millis(100));
        assert!(nodes[0].liveness().is_alive(PlaceId(2)));
        // The other two places still talk.
        nodes[0].send_bytes(PlaceId(1), vec![9]).unwrap();
        let (src, payload) = nodes[1].recv_bytes_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((src, payload), (PlaceId(0), vec![9]));
    }

    #[test]
    fn from_env_absent_is_none() {
        // DPX10_PLACE is not set in the test environment.
        assert!(SocketConfig::from_env().unwrap().is_none());
    }

    #[test]
    fn parse_chaos_round_trips_and_rejects_garbage() {
        let ch = parse_chaos("seed=7,delay=0.25,delay_ms=3,dup=0.1,drop=0.05,flap_ms=400").unwrap();
        assert_eq!(ch.seed, 7);
        assert_eq!(ch.delay_prob, 0.25);
        assert_eq!(ch.max_delay, Duration::from_millis(3));
        assert_eq!(ch.dup_prob, 0.1);
        assert_eq!(ch.drop_prob, 0.05);
        assert_eq!(ch.flap, Some(Duration::from_millis(400)));
        assert_eq!(parse_chaos("seed=9").unwrap().delay_prob, 0.0);
        assert!(parse_chaos("bogus").is_none());
        assert!(parse_chaos("seed=notanumber").is_none());
    }

    /// Satellite of the chaos PR: a static `DPX10_PEERS`-style worker
    /// may list `127.0.0.1:0` — the handshake's `Hello` carries the
    /// actually-bound ephemeral address, so parallel meshes can never
    /// collide on a fixed port.
    #[test]
    fn static_worker_bind_may_be_an_ephemeral_port() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut handles = Vec::new();
        for p in 1..3u16 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let mut cfg = SocketConfig::worker(PlaceId(p), 3, addr);
                cfg.mode = match cfg.mode {
                    ConnectMode::Worker { coordinator, .. } => ConnectMode::Worker {
                        coordinator,
                        bind: Some("127.0.0.1:0".into()),
                    },
                    other => other,
                };
                connect(cfg).unwrap()
            }));
        }
        let n0 = connect(SocketConfig::coordinator(listener, 3)).unwrap();
        let nodes: Vec<Node> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The mesh is fully connected, workers included.
        nodes[0].send_bytes(PlaceId(2), vec![1]).unwrap();
        let (src, payload) = nodes[1].recv_bytes_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((src, payload), (PlaceId(1), vec![1]));
        drop(n0);
    }

    #[test]
    fn crash_is_detected_as_a_death_not_a_goodbye() {
        let mut nodes = mesh(3);
        let victim = nodes.remove(2);
        victim.crash(); // closes every link with no Bye
        drop(victim);
        let deadline = Instant::now() + Duration::from_secs(10);
        while nodes[0].liveness().is_alive(PlaceId(2)) || nodes[1].liveness().is_alive(PlaceId(2)) {
            assert!(Instant::now() < deadline, "crash never detected");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Survivors keep talking.
        nodes[0].send_bytes(PlaceId(1), vec![3]).unwrap();
        let (src, payload) = nodes[1].recv_bytes_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((src, payload), (PlaceId(0), vec![3]));
    }

    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Tentpole: a place joins a *running* mesh (no relaunch), talks in
    /// both directions, then drains back out — and the departure is a
    /// `Left`, never a death.
    #[test]
    fn join_grows_a_live_mesh_and_drain_leaves_without_death() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let elastic = |mut cfg: SocketConfig| {
            cfg.max_places = 4;
            cfg
        };
        let worker = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                connect(elastic(SocketConfig::worker(PlaceId(1), 2, addr))).unwrap()
            })
        };
        let n0 = connect(elastic(SocketConfig::coordinator(listener, 2))).unwrap();
        let n1 = worker.join().unwrap();
        assert_eq!(n0.capacity(), 4);
        assert_eq!(n0.roster().member_count(), 2);

        let n2 = join(&addr).unwrap();
        assert_eq!(n2.me(), PlaceId(2));
        assert_eq!(n2.capacity(), 4);
        assert_eq!(n2.roster().member_count(), 3);

        // The joiner reaches both founders immediately...
        n2.send_bytes(PlaceId(0), vec![20]).unwrap();
        n2.send_bytes(PlaceId(1), vec![21]).unwrap();
        let (src, payload) = n0.recv_bytes_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((src, payload), (PlaceId(2), vec![20]));
        let (src, payload) = n1.recv_bytes_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((src, payload), (PlaceId(2), vec![21]));
        // ...and the founders learn of it (place 0 from the JoinReq,
        // place 1 from the JoinHello dial-in) and reach it back.
        wait_for("founders to see the joiner", || {
            n0.roster().is_member(PlaceId(2)) && n1.roster().is_member(PlaceId(2))
        });
        n0.send_bytes(PlaceId(2), vec![2]).unwrap();
        n1.send_bytes(PlaceId(2), vec![12]).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            let (src, payload) = n2.recv_bytes_timeout(Duration::from_secs(5)).unwrap();
            got.push((src, payload));
        }
        got.sort();
        assert_eq!(got, vec![(PlaceId(0), vec![2]), (PlaceId(1), vec![12])]);

        // Drain back out: peers see `Left`, not `Dead` — no recovery.
        n2.drain();
        wait_for("drain to propagate", || {
            n0.roster().state(PlaceId(2)) == MemberState::Left
                && n1.roster().state(PlaceId(2)) == MemberState::Left
        });
        assert!(n0.liveness().is_alive(PlaceId(2)), "a drain is not a death");
        assert!(n1.liveness().is_alive(PlaceId(2)), "a drain is not a death");
        assert_eq!(n0.roster().member_count(), 2);
        // The surviving mesh keeps working.
        n0.send_bytes(PlaceId(1), vec![9]).unwrap();
        let (src, payload) = n1.recv_bytes_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((src, payload), (PlaceId(0), vec![9]));
    }

    #[test]
    fn join_is_rejected_at_capacity_and_ids_are_not_reused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let worker = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut cfg = SocketConfig::worker(PlaceId(1), 2, addr);
                cfg.max_places = 3;
                connect(cfg).unwrap()
            })
        };
        let mut cfg = SocketConfig::coordinator(listener, 2);
        cfg.max_places = 3;
        let n0 = connect(cfg).unwrap();
        let n1 = worker.join().unwrap();
        let n2 = join(&addr).unwrap();
        assert_eq!(n2.me(), PlaceId(2));
        // Slot 3 does not exist: the mesh is full.
        let err = join(&addr).unwrap_err();
        assert!(
            err.to_string().contains("mesh at capacity"),
            "unexpected error: {err}"
        );
        // Even after place 2 drains, its id is never handed out again —
        // the roster guarantees id freshness for the epoch fence.
        n2.drain();
        let deadline = Instant::now() + Duration::from_secs(10);
        while n0.roster().state(PlaceId(2)) != MemberState::Left {
            assert!(Instant::now() < deadline, "drain never propagated");
            std::thread::sleep(Duration::from_millis(5));
        }
        let err = join(&addr).unwrap_err();
        assert!(err.to_string().contains("mesh at capacity"));
        drop(n1);
    }

    fn chaos_mesh(n: u16, chaos: SocketChaos) -> Vec<Node> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut handles = Vec::new();
        for p in 1..n {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let mut cfg = SocketConfig::worker(PlaceId(p), n, addr);
                cfg.chaos = Some(chaos);
                connect(cfg).unwrap()
            }));
        }
        let mut cfg = SocketConfig::coordinator(listener, n);
        cfg.chaos = Some(chaos);
        let mut nodes = vec![connect(cfg).unwrap()];
        for h in handles {
            nodes.push(h.join().unwrap());
        }
        nodes.sort_by_key(|nd| nd.me().0);
        nodes
    }

    #[test]
    fn delay_chaos_perturbs_but_loses_nothing() {
        let nodes = chaos_mesh(
            2,
            SocketChaos::delay_only(11, 0.5, Duration::from_millis(2)),
        );
        for v in 0..40u8 {
            nodes[0].send_bytes(PlaceId(1), vec![v]).unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 40 {
            let (_, payload) = nodes[1]
                .recv_bytes_timeout(Duration::from_secs(5))
                .expect("delayed frames still arrive");
            got.push(payload[0]);
        }
        // Writer-side delay stalls the FIFO link, so order holds; the
        // point is that nothing is lost or damaged under delay chaos.
        assert_eq!(got, (0..40).collect::<Vec<u8>>());
    }

    /// Payload `i` of the exactness test: mostly small, every 997th
    /// larger than a writer's batch, each byte a function of `i`.
    fn numbered_payload(i: usize) -> Vec<u8> {
        let len = if i % 997 == 0 {
            BATCH_BYTES + i % (32 * 1024)
        } else {
            1 + (i * 7919) % 2048
        };
        (0..len).map(|j| (i.wrapping_mul(31) + j) as u8).collect()
    }

    /// Batched writes and buffered reads move bytes, not frames: 20 000
    /// payloads of 1 B to 96 KiB, sent as fast as the outbox takes them
    /// (so writers batch, and some payloads exceed the batch), reach the
    /// peer's handler all, in order, byte for byte; a loopback send
    /// reaches the same handler.
    #[test]
    fn a_link_delivers_its_frames_exactly() {
        const COUNT: usize = 20_000;
        let nodes = mesh(2);
        assert!((0..COUNT).any(|i| numbered_payload(i).len() > BATCH_BYTES));
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..COUNT {
                    nodes[0]
                        .send_bytes(PlaceId(1), numbered_payload(i))
                        .unwrap();
                }
            });
            for i in 0..COUNT {
                let (src, payload) = nodes[1]
                    .recv_bytes_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|| panic!("payload {i} never arrived"));
                assert_eq!(src, PlaceId(0));
                assert!(payload == numbered_payload(i), "payload {i} damaged");
            }
        });
        assert_eq!(nodes[1].send_bytes(PlaceId(1), vec![4, 2]).unwrap(), 0);
        let looped = nodes[1].recv_bytes_timeout(Duration::from_secs(5));
        assert_eq!(looped, Some((PlaceId(1), vec![4, 2])));
        assert!(nodes[1].recv_bytes_timeout(Duration::ZERO).is_none());
    }

    #[test]
    fn heartbeat_flap_longer_than_the_peer_timeout_kills_the_link() {
        // Tight timings so the test is fast: 30 ms heartbeats, 150 ms
        // peer timeout, and a flap window (0.5 s after connect) longer
        // than the timeout. The links fall silent, both sides declare
        // the other dead — the detection path the flap exists to test.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let chaos = SocketChaos {
            seed: 1,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            dup_prob: 0.0,
            drop_prob: 0.0,
            flap: Some(Duration::from_secs(2)),
        };
        let tighten = move |mut cfg: SocketConfig| {
            cfg.heartbeat = Duration::from_millis(30);
            cfg.peer_timeout = Duration::from_millis(150);
            cfg.chaos = Some(chaos);
            cfg
        };
        let worker = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                connect(tighten(SocketConfig::worker(PlaceId(1), 2, addr))).unwrap()
            })
        };
        let n0 = connect(tighten(SocketConfig::coordinator(listener, 2))).unwrap();
        let n1 = worker.join().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while n0.liveness().is_alive(PlaceId(1)) {
            assert!(Instant::now() < deadline, "flap never killed the link");
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(n1);
    }
}
