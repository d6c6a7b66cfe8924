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
//! Place 0 is the *coordinator* of membership (and, in DPX10, of the
//! whole run — Resilient X10's immortal place). Every other place enters
//! the mesh the same way, whether it founds the mesh or joins it mid-run:
//!
//! 1. it binds its own listener, dials place 0 and asks for admission
//!    (`JoinReq`) with its listen address. A founding place names the id
//!    and the founding place count its launcher (`DPX10_COORD`) or a
//!    static `DPX10_PEERS` list gave it; a probe (`dpx10 join`) names
//!    neither and never takes a founder's slot;
//! 2. place 0 checks the request and answers `JoinAccept` — the place's
//!    id, the mesh capacity and the listen address of every member
//!    admitted so far — or `JoinReject` with the reason;
//! 3. the new member dials each member its accept names with a
//!    `JoinHello` intro; members admitted after it dial it the same way.
//!
//! [`SocketNode::connect`] returns once this node has a link to every
//! founding place, so no barrier is needed and arrival order does not
//! matter. A founder that place 0 refuses (wrong place count, id out of
//! range or already linked, no listen address) fails formation at once,
//! on place 0 and on the founder. Every member's listener takes
//! dial-ins on one acceptor thread; it closes once the founders are
//! linked, unless the mesh capacity (`DPX10_MAX_PLACES`) leaves room for
//! joiners, in which case it stays open for the life of the node.
//!
//! # Steady state
//!
//! Each link — the admission stream to place 0, or a member intro in
//! either direction — gets a *writer thread* and a *reader thread*, and
//! a frame crosses one thread hand-off on each side. A sender encodes its
//! payload straight behind a reserved `Data` header and queues that one
//! buffer on the link's bounded outbox. The writer wakes for the first
//! queued frame, copies every frame already queued behind it into one
//! batch of up to 64 KiB, and hands the batch to the kernel in a
//! single `write` (when idle it writes a `Heartbeat` instead). The reader
//! reads through a buffer of the same size, so one `read` returns every
//! frame of a batch, and calls the node's [`Inbound`] handler with each
//! payload on its own thread — no further queue or thread stands between
//! a link and the code the payload is for. A `Leave` moves the peer to
//! `Left` on the roster; a read that sees EOF, a protocol violation, or
//! silence longer than the peer timeout marks the peer dead on the
//! shared [`LivenessBoard`] — from there the engine's ordinary
//! [`DeadPlaceError`] machinery takes over, exactly as with an injected
//! fault.
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
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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

/// How this process enters the mesh.
#[derive(Debug)]
pub enum ConnectMode {
    /// Place 0 with a pre-bound listener every other place will dial.
    Coordinator(TcpListener),
    /// Any other place: ask `coordinator` for admission, optionally
    /// binding a fixed listen address (static `DPX10_PEERS` deployments).
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
    /// This process's place (ignored for a probe).
    pub place: PlaceId,
    /// Founding places of the computation; 0 makes a worker a *probe*
    /// (`dpx10 join`), which names no id and is given a free slot past
    /// the founders.
    pub places: u16,
    /// Mesh capacity: the maximum place count this mesh may ever grow
    /// to (`DPX10_MAX_PLACES`, default `places`). Place 0's is the
    /// mesh's, and every other place takes it from its accept. Every
    /// per-peer table is sized to it, and only when it exceeds `places`
    /// do listeners stay open after formation, for joiners.
    pub max_places: u16,
    /// How this node enters the mesh.
    pub mode: ConnectMode,
    /// Idle-writer keep-alive interval (`DPX10_HB_MS`, default 250 ms).
    pub heartbeat: Duration,
    /// Silence after which a peer is declared dead (`DPX10_TIMEOUT_MS`,
    /// default 5 s).
    pub peer_timeout: Duration,
    /// Budget for mesh formation (`DPX10_CONNECT_MS`, default 30 s).
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
    /// A config with the environment's timing and chaos.
    fn new(place: PlaceId, places: u16, max_places: u16, mode: ConnectMode) -> Self {
        SocketConfig {
            place,
            places,
            max_places,
            mode,
            heartbeat: env_ms("DPX10_HB_MS", 250),
            peer_timeout: env_ms("DPX10_TIMEOUT_MS", 5_000),
            connect_timeout: env_ms("DPX10_CONNECT_MS", 30_000),
            chaos: chaos_from_env(),
            recorder: Recorder::disabled(),
            inbound: Inbound::discard(),
        }
    }

    /// Coordinator config over an already-bound listener.
    pub fn coordinator(listener: TcpListener, places: u16) -> Self {
        let mode = ConnectMode::Coordinator(listener);
        SocketConfig::new(PlaceId::ZERO, places, places, mode)
    }

    /// Worker config dialing `coordinator` from an ephemeral port; with
    /// `places == 0`, a probe.
    pub fn worker(place: PlaceId, places: u16, coordinator: String) -> Self {
        let mode = ConnectMode::Worker {
            coordinator,
            bind: None,
        };
        SocketConfig::new(place, places, places, mode)
    }

    /// Reads the launcher environment (`DPX10_PLACE`, `DPX10_PLACES`,
    /// `DPX10_COORD` / `DPX10_PEERS`, `DPX10_MAX_PLACES`).
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
        let max_places = capacity_from_env(places)?;
        Ok(Some(SocketConfig::new(
            PlaceId(place),
            places,
            max_places,
            mode,
        )))
    }
}

/// The mesh capacity `DPX10_MAX_PLACES` asks for, at least `places`.
pub(crate) fn capacity_from_env(places: u16) -> io::Result<u16> {
    parse_capacity(std::env::var("DPX10_MAX_PLACES").ok().as_deref(), places)
}

/// The parser behind [`capacity_from_env`]: unset is `places`, and a
/// value that is not a place count is refused.
fn parse_capacity(raw: Option<&str>, places: u16) -> io::Result<u16> {
    let Some(raw) = raw else {
        return Ok(places);
    };
    match raw.parse::<u16>() {
        Ok(n) => Ok(n.max(places)),
        Err(_) => bad_input(format!("bad DPX10_MAX_PLACES {raw:?}")),
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
    /// Founding place count (0 on a probe).
    places: u16,
    capacity: u16,
    liveness: LivenessBoard,
    roster: RosterBoard,
    outboxes: Mutex<Vec<Option<Sender<Vec<u8>>>>>,
    /// One extra clone of each peer stream, kept so [`SocketNode::crash`]
    /// can tear the sockets down underneath the reader/writer threads.
    /// A slot is filled once per mesh lifetime (ids are never reused),
    /// under this lock together with the slot's outbox.
    streams: Mutex<Vec<Option<TcpStream>>>,
    writer_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    inbound: Inbound,
    /// Tells [`SocketNode::connect`], while it waits for the founders,
    /// that a link came up or went down (`Ok`) or that place 0 refused
    /// a founder (`Err`). Sends fail harmlessly once the mesh is formed.
    forming: Sender<Result<(), String>>,
    /// Whether the acceptor still takes dial-ins.
    accepting: AtomicBool,
    /// Where to dial the listener to wake its acceptor.
    listen: SocketAddr,
    shutting_down: AtomicBool,
    crashed: AtomicBool,
    heartbeat: Duration,
    peer_timeout: Duration,
    connect_timeout: Duration,
    chaos: Option<SocketChaos>,
    recorder: Recorder,
}

impl LinkFabric {
    /// Closes the listener: the acceptor, woken by a dial of its own,
    /// exits before handling it.
    fn stop_accepting(&self) {
        if self.accepting.swap(false, Ordering::AcqRel) {
            let _ = TcpStream::connect_timeout(&self.listen, self.connect_timeout);
        }
    }

    /// See [`SocketNode::shutdown`].
    fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        self.stop_accepting();
        self.outboxes.lock().iter_mut().for_each(|tx| {
            tx.take();
        });
        let handles: Vec<_> = self.writer_handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// See [`SocketNode::crash`].
    fn crash(&self) {
        self.crashed.store(true, Ordering::Release);
        self.shutting_down.store(true, Ordering::Release);
        // Tear the sockets down under every thread cloned onto them —
        // readers (ours and the peers') see EOF immediately, like the
        // kernel closing a killed process's descriptors.
        for stream in self.streams.lock().iter().flatten() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        self.shutdown();
    }
}

/// Sets up one live peer link on the fabric: stores the stream, creates
/// the bounded outbox, and spawns the writer/reader thread pair. Safe to
/// call at any time — this is how every link, founding or joining, is
/// attached. Refuses this node's own id and a peer whose link is (or
/// was) up: ids are never reused, so a second link naming one is an
/// impostor.
fn register_link(fabric: &Arc<LinkFabric>, peer: PlaceId, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(fabric.peer_timeout))?;
    stream.set_nodelay(true)?;
    let (wstream, kept) = (stream.try_clone()?, stream.try_clone()?);
    let mut streams = fabric.streams.lock();
    if peer == fabric.me || streams[peer.index()].is_some() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("place {} is already linked", peer.0),
        ));
    }
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
    streams[peer.index()] = Some(kept);
    drop(streams);
    let _ = fabric.forming.send(Ok(()));
    Ok(())
}

/// One place's end of the byte-level socket mesh: it moves opaque
/// payload bytes and owns the liveness/stats/roster boards of the
/// process.
pub struct SocketNode {
    fabric: Arc<LinkFabric>,
    stats: StatsBoard,
}

impl SocketNode {
    /// Brings this node into the mesh `cfg` describes (see the module
    /// docs) and starts the per-peer reader and writer threads, the
    /// readers handing every payload to `cfg.inbound`. Blocks until this
    /// node has a link to every founding place — a probe, to every
    /// member its accept names — or formation fails or the connect
    /// timeout expires.
    pub fn connect(cfg: SocketConfig) -> io::Result<SocketNode> {
        let places = cfg.places;
        let probe = places == 0 && matches!(cfg.mode, ConnectMode::Worker { .. });
        if !probe && cfg.place.index() >= places as usize {
            return bad_input(format!("place {} out of range 0..{places}", cfg.place.0));
        }
        let deadline = Instant::now() + cfg.connect_timeout;
        let (listener, admitted) = match cfg.mode {
            ConnectMode::Coordinator(listener) => {
                let me = Admission {
                    me: PlaceId::ZERO,
                    capacity: cfg.max_places.max(places),
                    addrs: vec![listener.local_addr()?.to_string()],
                    stream: None,
                };
                (listener, me)
            }
            ConnectMode::Worker { coordinator, bind } => {
                let listener = TcpListener::bind(bind.as_deref().unwrap_or("127.0.0.1:0"))?;
                let addr = listener.local_addr()?.to_string();
                let admission =
                    request_admission(&coordinator, cfg.place, places, addr, cfg.connect_timeout)?;
                (listener, admission)
            }
        };
        let (me, capacity) = (admitted.me, admitted.capacity);
        listener.set_nonblocking(false)?;
        let mut listen = listener.local_addr()?;
        if listen.ip().is_unspecified() {
            listen.set_ip(match listen {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let roster = RosterBoard::new(places, capacity);
        for (i, addr) in admitted
            .addrs
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.is_empty())
        {
            let p = PlaceId(i as u16);
            let _ = roster.observe_join(p); // a founder is active already
            roster.set_addr(p, addr.clone());
        }
        let (forming, events) = channel::unbounded();
        let fabric = Arc::new(LinkFabric {
            me,
            places,
            capacity,
            liveness: LivenessBoard::new(capacity),
            roster,
            outboxes: Mutex::new((0..capacity).map(|_| None).collect()),
            streams: Mutex::new((0..capacity).map(|_| None).collect()),
            writer_handles: Mutex::new(Vec::new()),
            inbound: cfg.inbound,
            forming,
            accepting: AtomicBool::new(true),
            listen,
            shutting_down: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            heartbeat: cfg.heartbeat,
            peer_timeout: cfg.peer_timeout,
            connect_timeout: cfg.connect_timeout,
            chaos: cfg.chaos,
            recorder: cfg.recorder,
        });
        if let Err(e) = form(&fabric, listener, admitted, &events, deadline) {
            fabric.crash();
            return Err(e);
        }
        if capacity == places {
            fabric.stop_accepting();
        }
        Ok(SocketNode {
            fabric,
            stats: StatsBoard::new(capacity),
        })
    }

    /// This process's place.
    pub fn me(&self) -> PlaceId {
        self.fabric.me
    }

    /// Founding place count of the mesh (for a probe, the mesh
    /// capacity). The *live* place set is on
    /// [`roster`](SocketNode::roster).
    pub fn places(&self) -> u16 {
        let founders = self.fabric.places;
        if founders == 0 {
            self.fabric.capacity
        } else {
            founders
        }
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
    /// writer signs off with `Bye`, writers are joined, the listener
    /// closes. Idempotent.
    pub fn shutdown(&self) {
        self.fabric.shutdown();
    }

    /// Simulates this process being SIGKILLed mid-run: every connection
    /// closes *without* the `Bye` sign-off, so peers see an abrupt EOF
    /// and mark this place dead — the same detection path as a real
    /// process death, but usable when places are in-process threads
    /// (the chaos harness). Idempotent; a later [`shutdown`] is a no-op.
    ///
    /// [`shutdown`]: SocketNode::shutdown
    pub fn crash(&self) {
        self.fabric.crash();
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
            .field("places", &self.places())
            .field("capacity", &self.fabric.capacity)
            .finish_non_exhaustive()
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
    let _ = fabric.forming.send(Ok(()));
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

/// Reads `stream` until the peer says `Bye` or is gone. Admission read
/// its frames exactly from the bare stream, so the buffer starts on
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
            // An admission frame (or out-of-range src) on a live link,
            // EOF, a read timeout, or any decode error: the peer is gone
            // or talking garbage either way.
            Ok(_) | Err(_) => {
                mark_peer(&fabric, peer);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Formation and admission
// ---------------------------------------------------------------------

fn hs_err<T>(what: impl Into<String>) -> io::Result<T> {
    Err(io::Error::other(format!("handshake: {}", what.into())))
}

fn prepare(stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))
}

fn dial(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("unresolvable {addr}"))
    })?;
    let stream = TcpStream::connect_timeout(&resolved, timeout)?;
    prepare(&stream, timeout)?;
    Ok(stream)
}

/// What place 0 granted a place (itself included): its id, the mesh
/// capacity, every member's listen address, and the admission stream.
struct Admission {
    me: PlaceId,
    capacity: u16,
    addrs: Vec<String>,
    stream: Option<TcpStream>,
}

/// Asks place 0 at `coordinator` to admit this node: as founder `place`
/// of `places`, or as a probe when `places` is 0.
fn request_admission(
    coordinator: &str,
    place: PlaceId,
    places: u16,
    addr: String,
    timeout: Duration,
) -> io::Result<Admission> {
    let mut stream = dial(coordinator, timeout)?;
    let request = Frame::JoinReq {
        place: place.0,
        places,
        addr: addr.clone(),
    };
    frame::write_frame(&mut stream, &request)?;
    let answer = frame::read_frame(&mut stream).map_err(|e| match e {
        FrameError::Io(io) => io,
        other => io::Error::other(format!("handshake: {other}")),
    })?;
    match answer {
        Frame::JoinAccept {
            place: granted,
            capacity,
            mut addrs,
        } => {
            let fits = 0 < granted && granted < capacity && addrs.len() == capacity as usize;
            if !fits || capacity < places || (places > 0 && granted != place.0) {
                return hs_err(format!(
                    "malformed join-accept: place {granted} of {capacity} with {} addrs",
                    addrs.len()
                ));
            }
            addrs[granted as usize] = addr;
            Ok(Admission {
                me: PlaceId(granted),
                capacity,
                addrs,
                stream: Some(stream),
            })
        }
        Frame::JoinReject { reason } => hs_err(format!("refused by place 0: {reason}")),
        other => hs_err(format!("expected join-accept, got {other:?}")),
    }
}

/// Brings a new node's links up — an acceptor for members that dial in,
/// the admission stream to place 0, a dial to every other member it was
/// admitted after — then waits, on `events`, for a link to every founder.
fn form(
    fabric: &Arc<LinkFabric>,
    listener: TcpListener,
    admitted: Admission,
    events: &Receiver<Result<(), String>>,
    deadline: Instant,
) -> io::Result<()> {
    {
        let fab = fabric.clone();
        std::thread::Builder::new()
            .name(format!("sock-a{}", fabric.me.0))
            .spawn(move || acceptor_loop(listener, fab))?;
    }
    if let Some(stream) = admitted.stream {
        register_link(fabric, PlaceId::ZERO, stream)?;
    }
    for (i, addr) in admitted.addrs.iter().enumerate().skip(1) {
        let p = PlaceId(i as u16);
        if p == fabric.me || addr.is_empty() {
            continue;
        }
        let mut stream = dial(addr, fabric.connect_timeout)?;
        frame::write_frame(&mut stream, &Frame::JoinHello { place: fabric.me.0 })?;
        register_link(fabric, p, stream)?;
    }
    // A founder that dies once linked is the engine's to recover, like
    // any death; place 0, which must never die, ends formation.
    let linked = |p: u16| p == fabric.me.0 || fabric.streams.lock()[p as usize].is_some();
    loop {
        if (0..fabric.places).all(linked) {
            return Ok(());
        }
        if fabric.me != PlaceId::ZERO && !fabric.liveness.is_alive(PlaceId::ZERO) {
            return hs_err("place 0 went away during formation");
        }
        match events.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Ok(())) => {}
            Ok(Err(reason)) => return hs_err(reason),
            Err(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "handshake: timed out waiting for a place to dial in",
                ))
            }
        }
    }
}

/// A member's listener thread: takes dial-ins one at a time until the
/// node stops accepting.
fn acceptor_loop(listener: TcpListener, fabric: Arc<LinkFabric>) {
    for stream in listener.incoming() {
        if !fabric.accepting.load(Ordering::Acquire) {
            return;
        }
        match stream {
            Ok(stream) => handle_dial_in(stream, &fabric),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// The one dial-in handler: a member's intro (on any member) or an
/// admission request (on place 0). An intro naming this node or a place
/// whose link is already up is refused — an impostor must not take over
/// a live link — and any other dial-in is dropped.
fn handle_dial_in(mut stream: TcpStream, fabric: &Arc<LinkFabric>) {
    if prepare(&stream, fabric.connect_timeout).is_err() {
        return;
    }
    match frame::read_frame(&mut stream) {
        // Register the link *before* flipping the roster, so a poller
        // that sees the new member can immediately send to it.
        Ok(Frame::JoinHello { place }) if place < fabric.capacity => {
            let peer = PlaceId(place);
            if register_link(fabric, peer, stream).is_ok() {
                let _ = fabric.roster.observe_join(peer);
            }
        }
        Ok(Frame::JoinReq {
            place,
            places,
            addr,
        }) if fabric.me == PlaceId::ZERO => admit(fabric, stream, place, places, addr),
        _ => {}
    }
}

/// Place 0's one admission path, for founders and probes alike: grant a
/// slot, answer with the members admitted so far, bring the link up. A
/// refused founder fails formation.
fn admit(fabric: &Arc<LinkFabric>, mut stream: TcpStream, place: u16, places: u16, addr: String) {
    let slot = match grant(fabric, place, places, addr) {
        Ok(slot) => slot,
        Err(reason) => {
            let reject = Frame::JoinReject {
                reason: reason.clone(),
            };
            let _ = frame::write_frame(&mut stream, &reject);
            if places > 0 {
                let _ = fabric.forming.send(Err(reason));
            }
            return;
        }
    };
    let accept = Frame::JoinAccept {
        place: slot.0,
        capacity: fabric.capacity,
        addrs: join_addrs(&fabric.roster, fabric.capacity),
    };
    if frame::write_frame(&mut stream, &accept).is_err()
        || register_link(fabric, slot, stream).is_err()
    {
        mark_peer(fabric, slot);
        return;
    }
    let _ = fabric.roster.activate(slot); // a probe; a founder is active
}

/// The slot place 0 grants an admission request, or why it refuses. A
/// founder gets the id it names; a probe (`places == 0`) the lowest
/// slot never held, which is past every founder's.
fn grant(fabric: &LinkFabric, place: u16, places: u16, addr: String) -> Result<PlaceId, String> {
    let founders = fabric.places;
    if places == 0 {
        if addr.is_empty() {
            return Err("joiner sent no listen address".into());
        }
        return fabric.roster.admit(addr).ok_or("mesh at capacity".into());
    }
    if places != founders {
        return Err(format!(
            "place {place} expects {places} places, not {founders}"
        ));
    }
    if place == 0 || place >= founders {
        return Err(format!("hello from out-of-range place {place}"));
    }
    if fabric.streams.lock()[place as usize].is_some() {
        return Err(format!("duplicate hello from place {place}"));
    }
    if addr.is_empty() {
        return Err(format!("place {place} sent no listen address"));
    }
    fabric.roster.set_addr(PlaceId(place), addr);
    Ok(PlaceId(place))
}

/// The address map a `JoinAccept` carries: one entry per slot, blank
/// unless the slot holds a member (or an in-flight joiner) whose listen
/// address place 0 knows — exactly the places the new member must dial.
fn join_addrs(roster: &RosterBoard, capacity: u16) -> Vec<String> {
    (0..capacity)
        .map(PlaceId)
        .map(|p| match roster.state(p) {
            MemberState::Joining | MemberState::Active | MemberState::Draining => roster.addr(p),
            _ => String::new(),
        })
        .collect()
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

    /// A probe dialing `coordinator`, as `dpx10 join` does.
    fn join(coordinator: &str) -> io::Result<Node> {
        connect(SocketConfig::worker(PlaceId::ZERO, 0, coordinator.into()))
    }

    fn mesh(n: u16) -> Vec<Node> {
        elastic_mesh(n, n)
    }

    /// An `n`-place mesh that may grow to `capacity`.
    fn elastic_mesh(n: u16, capacity: u16) -> Vec<Node> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut handles = Vec::new();
        for p in 1..n {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                connect(SocketConfig::worker(PlaceId(p), n, addr)).unwrap()
            }));
        }
        let mut cfg = SocketConfig::coordinator(listener, n);
        cfg.max_places = capacity;
        let mut nodes = vec![connect(cfg).unwrap()];
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
        // is admitted and then vanishes without `Bye` —
        // the coordinator's reader must see the closed stream and mark
        // place 1 dead, exactly as if the process had been SIGKILLed.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let impostor = std::thread::spawn(move || {
            let own = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut coord = TcpStream::connect(addr).unwrap();
            frame::write_frame(
                &mut coord,
                &Frame::JoinReq {
                    place: 1,
                    places: 2,
                    addr: own.local_addr().unwrap().to_string(),
                },
            )
            .unwrap();
            assert!(matches!(
                frame::read_frame(&mut coord).unwrap(),
                Frame::JoinAccept { place: 1, .. }
            ));
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
    fn a_malformed_max_places_is_refused() {
        assert_eq!(parse_capacity(None, 4).unwrap(), 4);
        assert_eq!(parse_capacity(Some("6"), 4).unwrap(), 6);
        assert_eq!(
            parse_capacity(Some("2"), 4).unwrap(),
            4,
            "never below places"
        );
        for bad in ["6x", "", "-1", "70000"] {
            let err = parse_capacity(Some(bad), 4).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert_eq!(err.to_string(), format!("bad DPX10_MAX_PLACES {bad:?}"));
        }
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

    /// A static `DPX10_PEERS`-style worker may list `127.0.0.1:0` — its
    /// admission request carries the actually-bound ephemeral address, so parallel meshes can never
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
        // ...and the founders learn of it (place 0 from its admission,
        // place 1 from its intro) and reach it back.
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

    /// Reads `stream` until place 0 or a member hangs up on it, skipping
    /// heartbeats for up to 10 s; what it read instead of a hang-up.
    fn hung_up(stream: &mut TcpStream) -> Result<(), Frame> {
        let deadline = Instant::now() + Duration::from_secs(10);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loop {
            match frame::read_frame(stream) {
                Ok(Frame::Heartbeat) if Instant::now() < deadline => {}
                Ok(other) => return Err(other),
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    panic!("still linked after 10 s")
                }
                Err(_) => return Ok(()),
            }
        }
    }

    /// An intro naming a live member (or the member itself) is refused:
    /// the impostor is hung up on without a heartbeat, what it sends
    /// never reaches the handler, and the real links keep delivering in
    /// order. Place 0 likewise refuses an admission request naming a
    /// live founder.
    #[test]
    fn an_impostor_cannot_take_over_a_live_link() {
        let nodes = elastic_mesh(3, 4);
        let member = nodes[1].roster().addr(PlaceId(1));
        for victim in [2u16, 0, 1] {
            let mut impostor = TcpStream::connect(&member).unwrap();
            frame::write_frame(&mut impostor, &Frame::JoinHello { place: victim }).unwrap();
            let data = Frame::Data {
                src: victim,
                payload: vec![0xEE],
            };
            let _ = frame::write_frame(&mut impostor, &data);
            assert_eq!(hung_up(&mut impostor), Ok(()), "impostor of place {victim}");
        }
        let mut impostor = TcpStream::connect(nodes[0].roster().addr(PlaceId(0))).unwrap();
        let request = Frame::JoinReq {
            place: 2,
            places: 3,
            addr: "127.0.0.1:9".into(),
        };
        frame::write_frame(&mut impostor, &request).unwrap();
        let refusal = Frame::JoinReject {
            reason: "duplicate hello from place 2".into(),
        };
        assert_eq!(hung_up(&mut impostor), Err(refusal));
        assert_eq!(hung_up(&mut impostor), Ok(()));

        for v in 0..100u8 {
            nodes[0].send_bytes(PlaceId(1), vec![v]).unwrap();
            nodes[2].send_bytes(PlaceId(1), vec![v]).unwrap();
        }
        let mut got = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..200 {
            let (src, payload) = nodes[1]
                .recv_bytes_timeout(Duration::from_secs(5))
                .expect("the real member's payloads arrive");
            got[src.index()].extend(payload);
        }
        let sent: Vec<u8> = (0..100).collect();
        assert_eq!(got, [sent.clone(), Vec::new(), sent]);
        assert!(nodes[1].recv_bytes_timeout(Duration::ZERO).is_none());
        for p in [PlaceId(0), PlaceId(2)] {
            assert!(nodes[1].liveness().is_alive(p));
            assert_eq!(nodes[1].roster().state(p), MemberState::Active);
        }
    }

    /// Place 0 of four founders refuses `bad`, which arrives once founder
    /// 2 (by hand) and founder 1 (a real worker, still waiting for
    /// founder 3) are admitted. Place 0 fails with `why`; the refused
    /// dialer reads a `JoinReject` naming it and is hung up on — no link
    /// is kept for it — and so is founder 2; the worker's connect fails
    /// well within its timeout instead of waiting it out.
    fn formation_refuses(bad: Frame, why: &str) {
        const TIMEOUT: Duration = Duration::from_secs(20);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let coordinator = std::thread::spawn(move || {
            let mut cfg = SocketConfig::coordinator(listener, 4);
            cfg.connect_timeout = TIMEOUT;
            SocketNode::connect(cfg).map(drop)
        });
        let own = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut founder = TcpStream::connect(&addr).unwrap();
        let request = Frame::JoinReq {
            place: 2,
            places: 4,
            addr: own.local_addr().unwrap().to_string(),
        };
        frame::write_frame(&mut founder, &request).unwrap();
        let accept = frame::read_frame(&mut founder).unwrap();
        assert!(matches!(accept, Frame::JoinAccept { place: 2, .. }));

        let started = Instant::now();
        let worker = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut cfg = SocketConfig::worker(PlaceId(1), 4, addr);
                cfg.connect_timeout = TIMEOUT;
                SocketNode::connect(cfg).map(drop)
            })
        };
        // Admitted after founder 2, the worker dials it.
        let (mut intro, _) = own.accept().unwrap();
        let hello = frame::read_frame(&mut intro).unwrap();
        assert_eq!(hello, Frame::JoinHello { place: 1 });

        let mut refused = TcpStream::connect(&addr).unwrap();
        frame::write_frame(&mut refused, &bad).unwrap();
        let reject = Frame::JoinReject { reason: why.into() };
        assert_eq!(hung_up(&mut refused), Err(reject));
        assert_eq!(
            hung_up(&mut refused),
            Ok(()),
            "no link for a refused dialer"
        );

        let err = coordinator.join().unwrap().unwrap_err();
        assert_eq!(err.to_string(), format!("handshake: {why}"));
        assert_eq!(hung_up(&mut founder), Ok(()), "place 0 keeps no link");
        let err = worker.join().unwrap().unwrap_err();
        assert!(
            started.elapsed() < TIMEOUT / 2,
            "worker waited {:?}",
            started.elapsed()
        );
        assert_eq!(
            err.to_string(),
            "handshake: place 0 went away during formation"
        );
    }

    #[test]
    fn formation_refuses_a_founder_expecting_other_places() {
        let bad = Frame::JoinReq {
            place: 3,
            places: 5,
            addr: "127.0.0.1:9".into(),
        };
        formation_refuses(bad, "place 3 expects 5 places, not 4");
    }

    #[test]
    fn formation_refuses_an_out_of_range_id() {
        let bad = Frame::JoinReq {
            place: 4,
            places: 4,
            addr: "127.0.0.1:9".into(),
        };
        formation_refuses(bad, "hello from out-of-range place 4");
    }

    #[test]
    fn formation_refuses_a_duplicate_id() {
        let bad = Frame::JoinReq {
            place: 2,
            places: 4,
            addr: "127.0.0.1:9".into(),
        };
        formation_refuses(bad, "duplicate hello from place 2");
    }

    #[test]
    fn formation_refuses_a_founder_without_a_listen_address() {
        let bad = Frame::JoinReq {
            place: 3,
            places: 4,
            addr: String::new(),
        };
        formation_refuses(bad, "place 3 sent no listen address");
    }

    /// A founder that dies once linked does not fail the formation of a
    /// founder still waiting for another dial-in: the death is the
    /// engine's to recover, as in `chaos` seeds that kill a place at the
    /// start of the run. Founders 2 and 3 are by hand, founder 1 real.
    #[test]
    fn a_founder_lost_after_linking_is_left_to_recovery() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let coordinator =
            std::thread::spawn(move || connect(SocketConfig::coordinator(listener, 4)).unwrap());
        let admit = |place: u16, own: &TcpListener| {
            let mut stream = TcpStream::connect(&addr).unwrap();
            let request = Frame::JoinReq {
                place,
                places: 4,
                addr: own.local_addr().unwrap().to_string(),
            };
            frame::write_frame(&mut stream, &request).unwrap();
            match frame::read_frame(&mut stream).unwrap() {
                Frame::JoinAccept { addrs, .. } => (stream, addrs),
                other => panic!("{other:?}"),
            }
        };
        let own3 = TcpListener::bind("127.0.0.1:0").unwrap();
        let (link3, _) = admit(3, &own3);
        let worker = {
            let addr = addr.clone();
            std::thread::spawn(move || connect(SocketConfig::worker(PlaceId(1), 4, addr)))
        };
        let (intro, _) = own3.accept().unwrap();
        let own2 = TcpListener::bind("127.0.0.1:0").unwrap();
        let (_link2, addrs) = admit(2, &own2);
        // Founder 3 dies while founder 1 waits for founder 2's intro.
        drop((link3, intro, own3));
        let n0 = coordinator.join().unwrap();
        wait_for("place 0 to see place 3 die", || {
            !n0.liveness().is_alive(PlaceId(3))
        });
        // Place 1's view is not observable before its connect returns;
        // a pause makes "death before the intro" the likely order there
        // (the assertions hold in either order).
        std::thread::sleep(Duration::from_millis(50));
        let mut to1 = TcpStream::connect(&addrs[1]).unwrap();
        frame::write_frame(&mut to1, &Frame::JoinHello { place: 2 }).unwrap();
        let n1 = worker
            .join()
            .unwrap()
            .expect("formation outlives a linked founder");
        wait_for("place 1 to see place 3 die", || {
            !n1.liveness().is_alive(PlaceId(3))
        });
        assert!(n1.liveness().is_alive(PlaceId(2)));
    }

    /// A probe that dials while the mesh forms is given the first slot
    /// past the founders, the founders are admitted after it under their
    /// own ids, and they dial it like any earlier member.
    #[test]
    fn a_probe_during_formation_takes_no_founders_slot() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let coordinator = std::thread::spawn(move || {
            let mut cfg = SocketConfig::coordinator(listener, 3);
            cfg.max_places = 4;
            connect(cfg).unwrap()
        });
        let probe = join(&addr).unwrap();
        assert_eq!(probe.me(), PlaceId(3));
        let workers: Vec<_> = (1..3u16)
            .map(|p| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    connect(SocketConfig::worker(PlaceId(p), 3, addr)).unwrap()
                })
            })
            .collect();
        let n0 = coordinator.join().unwrap();
        let founders: Vec<Node> = workers.into_iter().map(|h| h.join().unwrap()).collect();
        for (p, node) in (1..3u16).zip(&founders) {
            assert_eq!(
                (node.me(), node.places(), node.capacity()),
                (PlaceId(p), 3, 4)
            );
            node.send_bytes(PlaceId(3), vec![p as u8]).unwrap();
        }
        let mut got: Vec<_> = (0..2)
            .map(|_| probe.recv_bytes_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort();
        assert_eq!(got, vec![(PlaceId(1), vec![1]), (PlaceId(2), vec![2])]);
        assert_eq!(n0.roster().members().len(), 4);
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
