//! One place's session on a socket mesh, and the frames it carries.
//!
//! A [`Session`] is everything between joining the TCP mesh of
//! [`dpx10_apgas::socket`] and leaving it: [`Session::open`] builds each
//! DAG run's end of the mesh ([`Session::links`]) and connects the
//! [`SocketNode`] with a `Router` as its inbound handler, so every
//! socket reader routes each payload it reads to its run itself (no
//! thread stands between a link and a run); [`Session::close`] says (or
//! awaits) the goodbye and tears down. [`crate::SocketEngine::run`] is a
//! session of one run, [`crate::JobServer::serve`] one of `jobs.len()`
//! runs plus admission.
//!
//! The frame grammar has two levels, is flat, and is known to this
//! module only: a payload is a session frame (`Die`, `Goodbye`) or one
//! run's [`RunFrame`], laid out as `[tag u8][job u32][fields]`. No frame
//! contains a frame and none is relayed — control is a star around
//! place 0 — so the decoder never calls itself and a peer's bytes cannot
//! pick its stack depth.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use dpx10_apgas::mailbox::Envelope;
use dpx10_apgas::socket::Inbound;
use dpx10_apgas::stats::STAT_COUNTERS;
use dpx10_apgas::{
    Codec, DeadPlaceError, LivenessBoard, PlaceId, SocketConfig, SocketNode, Transport,
};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};
use dpx10_sync::channel::{unbounded, Receiver, Sender};

use crate::app::VertexValue;
use crate::error::EngineError;
use crate::msg::Msg;

/// How long a place waits on a peer that owes it something — place 0 on
/// a survivor's snapshot, a follower on its release, a finished place on
/// the goodbye — before writing the peer off (generous: the transport's
/// own heartbeat timeout fires much earlier for real failures).
pub(crate) const SNAPSHOT_DEADLINE: Duration = Duration::from_secs(60);

/// Everything one DAG run puts on the mesh: vertex traffic
/// ([`RunFrame::App`]) and the control protocol (see
/// [`crate::socket_engine`]), all epoch-tagged.
pub(crate) enum RunFrame<V> {
    /// A vertex-protocol message of the given epoch.
    App(u32, Msg<V>),
    /// Place 0 → each follower: how the epoch ended; snapshot your slot.
    Verdict {
        /// Epoch being concluded.
        epoch: u32,
        /// `None`: every vertex is finished. `Some`: these places were
        /// detected dead, and the snapshot is for recovery.
        dead: Option<Vec<u16>>,
    },
    /// Worker → place 0: my slot's finished cells plus local counters.
    Snapshot {
        /// Epoch the snapshot concludes.
        epoch: u32,
        /// `(packed vertex id, value)` for every finished owned cell.
        cells: Vec<(u64, V)>,
        /// Vertices this place computed during the epoch.
        computed: u64,
        /// Cumulative place counters, in
        /// [`dpx10_apgas::PlaceStats::to_counters`] order; a frame with
        /// any other count is malformed.
        stats: [u64; STAT_COUNTERS],
    },
    /// Place 0 → each survivor: recovery done, start the next epoch.
    Resume {
        /// The epoch being resumed *into* (old + 1).
        epoch: u32,
        /// Surviving places, in slot order.
        alive: Vec<u16>,
        /// The restored finished cells the receiver owns under the new
        /// distribution.
        cells: Vec<(u64, V)>,
        /// Packed ids of *every* restored finished cell — the global
        /// metadata that unblocks dependencies on cells whose values
        /// went to another survivor (pulls go to the owner, which holds
        /// the value).
        meta: Vec<u64>,
    },
    /// Place 0 → the run's followers: this run is over, whatever its
    /// outcome; stop following it.
    Release,
    /// Worker → place 0: its slot's finished count. Max-merged on
    /// receipt, so a duplicated frame is harmless.
    Progress {
        /// Epoch the count belongs to.
        epoch: u32,
        /// Vertices of the sender's slot finished so far.
        finished: u64,
    },
}

impl<V: Codec> RunFrame<V> {
    /// The bytes the frame encodes to as a payload: exact for vertex
    /// traffic, a floor for a control frame (which grows its buffer).
    fn size_hint(&self) -> usize {
        match self {
            RunFrame::App(_, msg) => 9 + Codec::wire_size(msg),
            _ => 9,
        }
    }

    /// The frame as run `job`'s payload: `[tag][job][fields]`.
    fn encode_as(&self, job: u32) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.size_hint());
        self.encode_into(job, &mut payload);
        payload
    }

    /// Appends the frame as run `job`'s payload to `buf`.
    fn encode_into(&self, job: u32, buf: &mut Vec<u8>) {
        let tag: u8 = match self {
            RunFrame::App(..) => 0,
            RunFrame::Verdict { .. } => 2,
            RunFrame::Snapshot { .. } => 4,
            RunFrame::Resume { .. } => 5,
            RunFrame::Release => 8,
            RunFrame::Progress { .. } => 10,
        };
        buf.push(tag);
        job.encode(buf);
        match self {
            RunFrame::App(epoch, msg) => {
                epoch.encode(buf);
                msg.encode(buf);
            }
            RunFrame::Verdict { epoch, dead } => {
                epoch.encode(buf);
                dead.encode(buf);
            }
            RunFrame::Snapshot {
                epoch,
                cells,
                computed,
                stats,
            } => {
                epoch.encode(buf);
                cells.encode(buf);
                computed.encode(buf);
                stats.to_vec().encode(buf);
            }
            RunFrame::Resume {
                epoch,
                alive,
                cells,
                meta,
            } => {
                epoch.encode(buf);
                alive.encode(buf);
                cells.encode(buf);
                meta.encode(buf);
            }
            RunFrame::Release => {}
            RunFrame::Progress { epoch, finished } => {
                epoch.encode(buf);
                finished.encode(buf);
            }
        }
    }

    /// The frame `tag` announces, from the fields behind its job id.
    fn decode_fields(tag: u8, src: &mut &[u8]) -> Option<Self> {
        Some(match tag {
            0 => RunFrame::App(u32::decode(src)?, Msg::decode(src)?),
            2 => RunFrame::Verdict {
                epoch: u32::decode(src)?,
                dead: Option::decode(src)?,
            },
            4 => RunFrame::Snapshot {
                epoch: u32::decode(src)?,
                cells: Vec::decode(src)?,
                computed: u64::decode(src)?,
                stats: Vec::decode(src)?.try_into().ok()?,
            },
            5 => RunFrame::Resume {
                epoch: u32::decode(src)?,
                alive: Vec::decode(src)?,
                cells: Vec::decode(src)?,
                meta: Vec::decode(src)?,
            },
            8 => RunFrame::Release,
            10 => RunFrame::Progress {
                epoch: u32::decode(src)?,
                finished: u64::decode(src)?,
            },
            _ => return None,
        })
    }
}

/// Everything that crosses a socket during a session.
pub(crate) enum Wire<V> {
    /// Place 0 → a worker: abort the process immediately (planned fault
    /// injection — dies without a goodbye so peers *detect* the death).
    /// Addresses the place, not a run: the reader that reads it obeys it.
    Die,
    /// Place 0 → everyone: every run is over; leave the mesh.
    Goodbye,
    /// A frame of run `job` (its index in the session; a solo run is
    /// job 0), routed to that run's link.
    Run(u32, RunFrame<V>),
}

impl<V: Codec> Wire<V> {
    /// The frame as a payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        match self {
            Wire::Die => vec![6],
            Wire::Goodbye => vec![7],
            Wire::Run(job, frame) => frame.encode_as(*job),
        }
    }

    /// The frame `payload` is, whole; `None` if it is malformed,
    /// truncated or followed by anything.
    pub(crate) fn decode(mut payload: &[u8]) -> Option<Self> {
        let src = &mut payload;
        let tag = u8::decode(src)?;
        let wire = match tag {
            6 => Wire::Die,
            7 => Wire::Goodbye,
            _ => Wire::Run(u32::decode(src)?, RunFrame::decode_fields(tag, src)?),
        };
        payload.is_empty().then_some(wire)
    }
}

/// What every thread of a session shares: this place's seat on the mesh.
pub(crate) struct Member {
    pub(crate) node: Arc<SocketNode>,
    /// The session's recorder: the caller's, or the trace alias's.
    pub(crate) recorder: Recorder,
    /// Raised once this place is crashing — by the reader of a planned
    /// `Die`, a kill watchdog or a panicked worker.
    pub(crate) dying: AtomicBool,
    /// Raised once the session is over — by the reader of the goodbye, or
    /// by [`Session::close`]: any watchdog's cue to return.
    pub(crate) over: AtomicBool,
    soft_die: bool,
    /// Whether the session carries one run only, which makes the
    /// substrate's mesh-level counters that run's own.
    pub(crate) sole: bool,
}

impl Member {
    /// Obeys a payload that addresses the place rather than a run.
    fn obey(&self, src: PlaceId, order: Order) {
        match order {
            Order::Die => self.die(),
            Order::Goodbye => self.over.store(true, Ordering::Release),
            Order::Corrupt => {
                self.node.liveness().mark_dead(src);
            }
        }
    }

    /// A planned fault landed on this place: die the way a crashed
    /// process dies — no goodbye frame, so the peers must *detect* it.
    /// `dying` tells this place's drivers to stop. In soft-die mode only
    /// the sockets die (the place is a thread of a test process that
    /// must survive).
    pub(crate) fn die(&self) {
        let me = self.node.me().0;
        self.recorder
            .instant_now(me, RUNTIME_WORKER, EventKind::CtlDie, me.into());
        self.dying.store(true, Ordering::Release);
        if self.soft_die {
            self.node.crash();
        } else {
            std::process::abort();
        }
    }
}

/// One run's end of the mesh: sends every outbound frame of the run,
/// receives its control frames, and implements [`Transport`] for the
/// worker loop — filtering out messages from *past* epochs at
/// consumption time (so a message that raced past an epoch change on
/// its way through a socket reader is still discarded). Messages from a
/// *future* epoch are parked, not dropped: after a recovery the places
/// enter the new epoch at different moments, and a fast peer's vertex
/// traffic can arrive while this place is still resuming — discarding
/// it would starve this place's share of the DAG and stall the run.
pub(crate) struct AppPlane<V> {
    pub(crate) member: Arc<Member>,
    epoch: AtomicU32,
    app_rx: Receiver<(u32, Envelope<Msg<V>>)>,
    /// The run's control frames, with their senders: its driver's.
    pub(crate) ctl_rx: Receiver<(PlaceId, RunFrame<V>)>,
    early: dpx10_sync::Mutex<Vec<(u32, Envelope<Msg<V>>)>>,
    /// The run's index in the session, stamped on every outbound frame
    /// so the remote readers route it to the same run's link.
    job: u32,
}

impl<V: VertexValue> AppPlane<V> {
    /// Advances the plane to `epoch` (done between epochs, with the
    /// workers quiesced).
    pub(crate) fn set_epoch(&self, epoch: u32) {
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Sends `frame` to `dst` as this plane's run's, encoded straight
    /// into the socket frame that carries it. Every outbound frame of a
    /// run, data or control, goes through here.
    pub(crate) fn send_frame(
        &self,
        dst: PlaceId,
        frame: &RunFrame<V>,
    ) -> Result<(), DeadPlaceError> {
        let encode = |buf: &mut Vec<u8>| frame.encode_into(self.job, buf);
        let node = &self.member.node;
        node.send_with(dst, frame.size_hint(), encode).map(|_| ())
    }

    /// Classifies one routed frame against `current`: deliver, park for
    /// a later epoch, or drop as stale.
    fn admit(&self, epoch: u32, env: Envelope<Msg<V>>, current: u32) -> Option<Envelope<Msg<V>>> {
        use std::cmp::Ordering as O;
        match epoch.cmp(&current) {
            O::Equal => Some(env),
            O::Greater => {
                self.early.lock().push((epoch, env));
                None
            }
            O::Less => None, // stale epoch: state was recovered, drop
        }
    }

    /// Pops one parked message of the current epoch, pruning any that
    /// went stale since they were parked.
    fn pop_early(&self, current: u32) -> Option<Envelope<Msg<V>>> {
        let mut early = self.early.lock();
        early.retain(|(e, _)| *e >= current);
        let k = early.iter().position(|(e, _)| *e == current)?;
        Some(early.swap_remove(k).1)
    }
}

impl<V: VertexValue> Transport<Msg<V>> for AppPlane<V> {
    fn num_places(&self) -> u16 {
        self.member.node.places()
    }

    fn liveness(&self) -> &LivenessBoard {
        self.member.node.liveness()
    }

    fn send(
        &self,
        src: PlaceId,
        dst: PlaceId,
        msg: Msg<V>,
        _wire_bytes: usize,
    ) -> Result<(), DeadPlaceError> {
        debug_assert_eq!(src, self.member.node.me(), "places only send as themselves");
        self.send_frame(dst, &RunFrame::App(self.epoch.load(Ordering::Acquire), msg))
    }

    fn try_recv(&self, _at: PlaceId) -> Option<Envelope<Msg<V>>> {
        let current = self.epoch.load(Ordering::Acquire);
        if let Some(env) = self.pop_early(current) {
            return Some(env);
        }
        while let Ok((epoch, env)) = self.app_rx.try_recv() {
            if let Some(env) = self.admit(epoch, env, current) {
                return Some(env);
            }
        }
        None
    }

    fn recv_timeout(&self, at: PlaceId, timeout: Duration) -> Option<Envelope<Msg<V>>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(env) = self.try_recv(at) {
                return Some(env);
            }
            // Wait for anything to arrive, then re-filter.
            let left = deadline.checked_duration_since(Instant::now())?;
            let (epoch, env) = self.app_rx.recv_timeout(left).ok()?;
            let current = self.epoch.load(Ordering::Acquire);
            if let Some(env) = self.admit(epoch, env, current) {
                return Some(env);
            }
        }
    }
}

/// A reader's end of a run's link. Both channels are unbounded, so a
/// reader never waits on a run.
struct Route<V> {
    app: Sender<(u32, Envelope<Msg<V>>)>,
    ctl: Sender<(PlaceId, RunFrame<V>)>,
}

/// A payload that addresses the place, not a run.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// A planned fault: [`Member::die`].
    Die,
    /// Every run is over: raise [`Member::over`].
    Goodbye,
    /// The payload did not decode: its sender's stream is corrupt.
    Corrupt,
}

/// Where the member stands for the router: not built yet (with the
/// orders read in the meantime, in arrival order), or built.
enum Seat {
    Empty(Vec<(PlaceId, Order)>),
    Taken(Weak<Member>),
}

/// The session's [`Inbound`] handler: every socket reader (and a
/// loopback send) calls [`Router::route`] with each payload it reads,
/// so one link's payloads are routed in order and never wait on another
/// link's. A run's vertex traffic goes to its plane's channel and its
/// control frames to its control channel — whether or not this place
/// has started the run yet — and an unknown job id is dropped. `Die`,
/// `Goodbye` and a payload that fails to decode address the place and
/// are obeyed by the member.
///
/// The member owns the node, which owns the router, so the router holds
/// the member weakly. The node connects — and its readers start — before
/// the member exists: an order read in that window waits in the seat
/// until [`Router::seat`] obeys it, before any run can read a frame.
struct Router<V> {
    routes: Vec<Route<V>>,
    seat: dpx10_sync::Mutex<Seat>,
}

impl<V: VertexValue> Router<V> {
    fn route(&self, src: PlaceId, bytes: Vec<u8>) {
        let order = match Wire::<V>::decode(&bytes) {
            Some(Wire::Run(job, frame)) => {
                match (self.routes.get(job as usize), frame) {
                    (Some(route), RunFrame::App(epoch, msg)) => {
                        let _ = route.app.send((epoch, Envelope { src, msg }));
                    }
                    (Some(route), frame) => {
                        let _ = route.ctl.send((src, frame));
                    }
                    (None, _) => {}
                }
                return;
            }
            Some(Wire::Die) => Order::Die,
            Some(Wire::Goodbye) => Order::Goodbye,
            None => Order::Corrupt,
        };
        let member = match &mut *self.seat.lock() {
            Seat::Empty(early) => return early.push((src, order)),
            Seat::Taken(member) => member.upgrade(),
        };
        if let Some(member) = member {
            member.obey(src, order);
        }
    }

    /// Seats `member` and obeys the orders read before it existed.
    fn seat(&self, member: &Arc<Member>) {
        let taken = Seat::Taken(Arc::downgrade(member));
        let early = match std::mem::replace(&mut *self.seat.lock(), taken) {
            Seat::Empty(early) => early,
            Seat::Taken(_) => Vec::new(),
        };
        for (src, order) in early {
            member.obey(src, order);
        }
    }
}

/// One place's membership of a socket mesh, from connect to goodbye.
pub(crate) struct Session<V> {
    pub(crate) member: Arc<Member>,
    /// Each run's end of the mesh, by job id.
    pub(crate) links: Vec<Arc<AppPlane<V>>>,
}

impl<V: VertexValue> Session<V> {
    /// Joins the mesh as `socket` describes, for `runs` DAG runs, with
    /// the socket readers routing their frames. `soft_die` makes a
    /// planned `Die` crash the sockets only.
    pub(crate) fn open(
        mut socket: SocketConfig,
        recorder: &Recorder,
        soft_die: bool,
        runs: usize,
    ) -> Result<Self, EngineError> {
        // `DPX10_SOCKET_TRACE=1` is an alias for "record and echo every
        // event to stderr".
        let mut recorder = recorder.clone();
        if std::env::var_os("DPX10_SOCKET_TRACE").is_some() {
            if !recorder.enabled() {
                let slots = socket.max_places.max(socket.places);
                recorder = Recorder::with_capacity(slots as usize, 1 << 12);
            }
            recorder.set_echo(true);
        }
        if !socket.recorder.enabled() {
            socket.recorder = recorder.clone();
        }
        // Every run's channels exist before any reader starts, so frames
        // from a place that started a run earlier than this one wait in
        // the run's own channels instead of being lost (or worse, read
        // by another run).
        let (routes, channels): (Vec<_>, Vec<_>) = (0..runs)
            .map(|_| {
                let (app, app_rx) = unbounded();
                let (ctl, ctl_rx) = unbounded();
                (Route { app, ctl }, (app_rx, ctl_rx))
            })
            .unzip();
        let router = Arc::new(Router {
            routes,
            seat: dpx10_sync::Mutex::new(Seat::Empty(Vec::new())),
        });
        socket.inbound = {
            let router = router.clone();
            Inbound::new(move |src, bytes| router.route(src, bytes))
        };
        let node = SocketNode::connect(socket)
            .map_err(|e| EngineError::Socket(format!("mesh formation failed: {e}")))?;
        let member = Arc::new(Member {
            node: Arc::new(node),
            recorder,
            dying: AtomicBool::new(false),
            over: AtomicBool::new(false),
            soft_die,
            sole: runs == 1,
        });
        router.seat(&member);
        let links = (0u32..)
            .zip(channels)
            .map(|(job, (app_rx, ctl_rx))| {
                Arc::new(AppPlane {
                    member: member.clone(),
                    epoch: AtomicU32::new(0),
                    app_rx,
                    ctl_rx,
                    early: dpx10_sync::Mutex::new(Vec::new()),
                    job,
                })
            })
            .collect();
        Ok(Session { member, links })
    }

    /// Leaves the mesh once every run is over here. Place 0 coordinates
    /// every run, so all of them are over: it says goodbye to the live
    /// roster (not `1..places`, which would address drained slots).
    /// Another place's connections must outlive the runs it is *not*
    /// in — tearing down early would read as a crash to any peer still
    /// mid-epoch — so it waits for the goodbye unless `leave_now`; with
    /// an orphan deadline, because a place the coordinator falsely
    /// wrote off can no longer be addressed and would wait forever.
    pub(crate) fn close(self, leave_now: bool) {
        let (member, node) = (&self.member, &self.member.node);
        if node.me() == PlaceId::ZERO {
            for p in node.roster().members() {
                if p != node.me() {
                    let _ = node.send_bytes(p, Wire::<V>::Goodbye.encode());
                }
            }
        } else if !leave_now {
            let orphan_deadline = Instant::now() + SNAPSHOT_DEADLINE;
            while !member.over.load(Ordering::Acquire)
                && !member.dying.load(Ordering::Acquire)
                && node.liveness().is_alive(PlaceId::ZERO)
                && Instant::now() < orphan_deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        member.over.store(true, Ordering::Release);
        node.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_dag::VertexId;

    /// The router's whole policy, one row each: a one-place mesh sends
    /// itself the payloads (a loopback send reaches the router like a
    /// peer's bytes reach it on a socket reader) on a two-run session
    /// nobody drives, until the check holds.
    #[test]
    fn the_router_obeys_one_policy() {
        /// Takes one control frame off `job`'s link, if one is there.
        fn ctl(s: &Session<u64>, job: usize) -> bool {
            s.links[job].ctl_rx.try_recv().is_ok()
        }
        /// Takes one vertex message off `job`'s link, if one is there.
        fn app(s: &Session<u64>, job: usize) -> bool {
            s.links[job].try_recv(PlaceId::ZERO).is_some()
        }
        fn alive(s: &Session<u64>) -> bool {
            s.member.node.liveness().is_alive(PlaceId::ZERO)
        }
        let run = |job, frame| Wire::<u64>::Run(job, frame).encode();
        let id = VertexId::new(0, 0);
        type Check = fn(&Session<u64>) -> bool;
        let rows: Vec<(&str, Vec<Vec<u8>>, Check)> = vec![
            (
                "a vertex message goes to its run's plane",
                vec![run(0, RunFrame::App(0, Msg::Pull { id }))],
                |s| app(s, 0) && !app(s, 1) && !ctl(s, 0),
            ),
            (
                "a control frame goes to its run's control channel",
                vec![run(0, RunFrame::Release)],
                |s| ctl(s, 0) && !ctl(s, 1) && !app(s, 0),
            ),
            (
                "a frame of an unknown job is dropped, its sender stays alive",
                vec![run(2, RunFrame::Release), run(1, RunFrame::Release)],
                // Job 1's arrived behind it, so the router is past both.
                |s| ctl(s, 1) && !ctl(s, 0) && alive(s),
            ),
            (
                "Die raises `dying` before anything behind it is forwarded",
                vec![Wire::<u64>::Die.encode(), run(0, RunFrame::Release)],
                |s| {
                    let forwarded = ctl(s, 0);
                    let dying = s.member.dying.load(Ordering::Acquire);
                    assert!(dying || !forwarded);
                    dying
                },
            ),
            (
                "the goodbye ends the session",
                vec![Wire::<u64>::Goodbye.encode()],
                |s| s.member.over.load(Ordering::Acquire),
            ),
            (
                "undecodable bytes mark their sender dead",
                vec![vec![99]],
                |s| !alive(s),
            ),
            (
                "frames of a run this place has not started wait in its channels",
                vec![
                    run(1, RunFrame::App(0, Msg::Pull { id })),
                    run(1, RunFrame::Release),
                ],
                |s| app(s, 1) && ctl(s, 1) && !app(s, 0) && !ctl(s, 0),
            ),
        ];
        for (what, payloads, check) in rows {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let socket = SocketConfig::coordinator(listener, 1);
            let session = Session::<u64>::open(socket, &Recorder::disabled(), true, 2).expect(what);
            for payload in payloads {
                // (After a `Die` the node no longer sends, even to itself.)
                let _ = session.member.node.send_bytes(PlaceId::ZERO, payload);
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while !check(&session) {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(1));
            }
            session.close(true);
        }
    }

    /// A reader may route payloads before the member it obeys exists:
    /// run frames reach their channels at once, and the orders wait in
    /// the seat, in order, until the member is seated.
    #[test]
    fn orders_read_before_the_member_exists_wait_for_it() {
        let (app, app_rx) = unbounded();
        let (ctl, _ctl_rx) = unbounded();
        let router = Router::<u64> {
            routes: vec![Route { app, ctl }],
            seat: dpx10_sync::Mutex::new(Seat::Empty(Vec::new())),
        };
        let id = VertexId::new(0, 0);
        let msg = Wire::<u64>::Run(0, RunFrame::App(0, Msg::Pull { id }));
        router.route(PlaceId::ZERO, Wire::<u64>::Goodbye.encode());
        router.route(PlaceId::ZERO, vec![99]);
        router.route(PlaceId::ZERO, msg.encode());
        assert!(app_rx.try_recv().is_ok(), "run frames do not wait");
        assert!(matches!(
            &*router.seat.lock(),
            Seat::Empty(early) if matches!(early[..], [(_, Order::Goodbye), (_, Order::Corrupt)])
        ));

        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let node = SocketNode::connect(SocketConfig::coordinator(listener, 1)).expect("mesh");
        let member = Arc::new(Member {
            node: Arc::new(node),
            recorder: Recorder::disabled(),
            dying: AtomicBool::new(false),
            over: AtomicBool::new(false),
            soft_die: true,
            sole: true,
        });
        router.seat(&member);
        assert!(member.over.load(Ordering::Acquire));
        assert!(!member.node.liveness().is_alive(PlaceId::ZERO));
        member.node.shutdown();
    }
}
