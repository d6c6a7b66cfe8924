//! Seeded chaos injection: fault plans, network perturbation and the
//! deterministic RNG that drives both.
//!
//! The paper's recovery claims (§VI-D) are only as strong as the
//! schedules they were tested under, so this module provides the
//! building blocks for *systematic* schedule exploration:
//!
//! * [`ChaosRng`] — a SplitMix64 generator; every chaos decision in the
//!   repo derives from one `u64` seed through it, so a failing run is
//!   reproducible from the seed alone.
//! * [`ChaosPlan`] — the fault-plan DSL: kill place *P* at progress
//!   fraction *F* or after wall/virtual time *T*, perturb transport
//!   messages (delay/reorder/duplicate/drop), flap heartbeats, and
//!   shake the threaded engine's ready-queue order. Plans are plain
//!   data: they can be generated from a seed, printed, and *shrunk* to
//!   a minimal counterexample.
//! * [`ChaosTransport`] — a [`Transport`] decorator that applies the
//!   plan's [`NetChaos`] to a real transport. Duplication is gated by a
//!   caller-supplied classifier because not every message type is
//!   idempotent (the engines' `Done` decrements are not).
//!
//! Delay is implemented on the *receive* side: a delayed envelope is
//! parked in a per-place held queue and released a few `try_recv` ticks
//! later, which both delays it and reorders it past later messages —
//! one mechanism covers the paper-relevant perturbations while keeping
//! the send path (and its byte accounting) untouched.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::fault::{DeadPlaceError, LivenessBoard};
use crate::mailbox::Envelope;
use crate::place::PlaceId;
use crate::transport::Transport;

/// SplitMix64: tiny, fast, and statistically fine for fault injection.
/// The same algorithm as the proptest stand-in's `TestRng`, so one seed
/// convention covers the whole repo.
#[derive(Clone, Debug)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosRng { state: seed }
    }

    /// A statistically independent generator for substream `stream`
    /// (per-worker, per-link, …) of the same root seed.
    pub fn fork(&self, stream: u64) -> Self {
        ChaosRng::new(mix(self.state ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform value in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.unit() < p
    }
}

/// Finalizer from SplitMix64 — full avalanche, so nearby seeds give
/// unrelated streams.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// When a planned kill fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KillTrigger {
    /// After this fraction of the DAG's vertices have finished
    /// (clamped to `[0, 1]`; progress-based kills are comparable across
    /// backends, so differential plans use these).
    Progress(f64),
    /// After this much engine time — virtual time in the simulator,
    /// wall-clock time in the threaded engine.
    After(Duration),
}

/// Kill one place at a trigger point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KillSpec {
    /// The victim (never place 0 — Resilient X10's documented limit).
    pub place: PlaceId,
    /// When to kill it.
    pub trigger: KillTrigger,
}

/// Message-level perturbation probabilities for [`ChaosTransport`].
///
/// All probabilities are per message. `drop_prob` is OFF in generated
/// plans: a silently dropped engine message stalls the run (the stall
/// watchdog converts it into an error), so drops only make sense in
/// targeted tests that expect the stall.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetChaos {
    /// Probability a received message is parked for a few ticks.
    pub delay_prob: f64,
    /// Maximum parking duration, in receive ticks.
    pub max_delay_ticks: u64,
    /// Probability a sent message is sent twice (only applied when the
    /// transport's `dup_safe` classifier approves the message).
    pub dup_prob: f64,
    /// Probability a sent message is silently discarded.
    pub drop_prob: f64,
}

impl NetChaos {
    /// No perturbation at all.
    pub fn off() -> Self {
        NetChaos {
            delay_prob: 0.0,
            max_delay_ticks: 0,
            dup_prob: 0.0,
            drop_prob: 0.0,
        }
    }

    /// Whether every probability is zero.
    pub fn is_off(&self) -> bool {
        self.delay_prob <= 0.0 && self.dup_prob <= 0.0 && self.drop_prob <= 0.0
    }
}

impl Default for NetChaos {
    fn default() -> Self {
        NetChaos::off()
    }
}

/// Suppress heartbeats on the socket mesh for `pause` — long enough and
/// peers declare the flapping place dead; shorter and the run must ride
/// it out. Either way the detection path gets exercised.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeartbeatFlap {
    /// How long outgoing heartbeats stay suppressed.
    pub pause: Duration,
}

/// A complete seeded chaos plan: what to kill, when, and how to perturb
/// the transport underneath the run.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPlan {
    /// Root seed every in-plan random decision derives from.
    pub seed: u64,
    /// Places to kill, in trigger order of declaration.
    pub kills: Vec<KillSpec>,
    /// Transport perturbation.
    pub net: NetChaos,
    /// Heartbeat suppression on the socket mesh.
    pub flap: Option<HeartbeatFlap>,
    /// Shake the threaded engine's worker schedules (ready-pop order,
    /// drain budgets, yield injection) from `seed`.
    pub shake: bool,
}

impl ChaosPlan {
    /// A plan that perturbs nothing — the differential baseline.
    pub fn quiet(seed: u64) -> Self {
        ChaosPlan {
            seed,
            kills: Vec::new(),
            net: NetChaos::off(),
            flap: None,
            shake: false,
        }
    }

    /// Derives a random plan for a run over `places` places,
    /// deterministically from `seed`. Generated kills use
    /// [`KillTrigger::Progress`] so the plan means the same thing on
    /// every backend; `drop_prob` stays zero (see [`NetChaos`]).
    pub fn generate(seed: u64, places: u16) -> Self {
        let mut rng = ChaosRng::new(seed).fork(0x504C_414E); // "PLAN"
        let mut kills = Vec::new();
        if places > 1 {
            let max_kills = u64::from(places - 1).min(2);
            let n_kills = rng.below(max_kills + 1);
            let mut victims: Vec<u16> = (1..places).collect();
            for _ in 0..n_kills {
                let pick = rng.below(victims.len() as u64) as usize;
                let victim = victims.swap_remove(pick);
                // Quantized so the plan prints round and reproduces exactly.
                let frac = 0.05 + (rng.below(19) as f64) * 0.05;
                kills.push(KillSpec {
                    place: PlaceId(victim),
                    trigger: KillTrigger::Progress(frac),
                });
            }
        }
        let net = if rng.chance(0.6) {
            NetChaos {
                delay_prob: 0.05 + rng.unit() * 0.25,
                max_delay_ticks: 1 + rng.below(8),
                dup_prob: if rng.chance(0.5) {
                    rng.unit() * 0.1
                } else {
                    0.0
                },
                drop_prob: 0.0,
            }
        } else {
            NetChaos::off()
        };
        let flap = rng.chance(0.3).then(|| HeartbeatFlap {
            pause: Duration::from_millis(200 + rng.below(400)),
        });
        ChaosPlan {
            seed,
            kills,
            net,
            flap,
            shake: rng.chance(0.8),
        }
    }

    /// Whether the plan perturbs anything at all.
    pub fn is_quiet(&self) -> bool {
        self.kills.is_empty() && self.net.is_off() && self.flap.is_none() && !self.shake
    }

    /// One-step-simpler candidate plans, most aggressive simplification
    /// first. A shrinking loop re-runs each candidate and recurses into
    /// the first one that still fails, ending at a (locally) minimal
    /// counterexample.
    pub fn shrink(&self) -> Vec<ChaosPlan> {
        let mut out = Vec::new();
        if !self.net.is_off() {
            let mut p = self.clone();
            p.net = NetChaos::off();
            out.push(p);
        }
        if self.flap.is_some() {
            let mut p = self.clone();
            p.flap = None;
            out.push(p);
        }
        if self.shake {
            let mut p = self.clone();
            p.shake = false;
            out.push(p);
        }
        for k in (0..self.kills.len()).rev() {
            let mut p = self.clone();
            p.kills.remove(k);
            out.push(p);
        }
        out
    }
}

/// One elastic-mesh verb, fired at a progress fraction of the run. The
/// engine applies it at a planned epoch boundary: the epoch ends and the
/// next one is distributed over the new membership. A verb naming a
/// non-member, place 0 or the last member besides place 0 is a no-op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ElasticVerb {
    /// The next fresh place id joins the mesh (ignored at capacity).
    Join,
    /// `place` drains gracefully: it leaves, and its finished cells go
    /// to the places that stay — nothing is recomputed.
    Drain {
        /// The draining place.
        place: PlaceId,
    },
    /// `place` dies abruptly: its finished cells are lost and computed
    /// again, every other place's are kept.
    Kill {
        /// The victim.
        place: PlaceId,
    },
}

/// An [`ElasticVerb`] with its trigger point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElasticEvent {
    /// Progress fraction (finished vertices / total) at which the verb
    /// fires, in `[0, 1]`.
    pub at: f64,
    /// What happens.
    pub verb: ElasticVerb,
}

/// A seeded schedule of membership churn for an elastic-mesh run:
/// joins, graceful drains and abrupt kills, each pinned to a progress
/// fraction. The elastic differential oracle runs the same workload with
/// and without the plan and demands identical results.
#[derive(Clone, Debug, PartialEq)]
pub struct ElasticPlan {
    /// Root seed the plan was generated from.
    pub seed: u64,
    /// Events in firing order (ascending `at`).
    pub events: Vec<ElasticEvent>,
}

impl ElasticPlan {
    /// A plan with no membership churn at all.
    pub fn quiet(seed: u64) -> Self {
        ElasticPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Derives a random elastic plan for a mesh founded with `founding`
    /// places and capped at `capacity` slots, deterministically from
    /// `seed`. The generator tracks simulated membership so every drain
    /// and kill names a place that is actually a member when the event
    /// fires, the mesh never shrinks below two members, and place 0 is
    /// never drained or killed.
    pub fn generate(seed: u64, founding: u16, capacity: u16) -> Self {
        let capacity = capacity.max(founding);
        let mut rng = ChaosRng::new(seed).fork(0x454C_5354); // "ELST"
        let mut members: Vec<u16> = (0..founding).collect();
        let mut next_id = founding;
        let mut events = Vec::new();
        let n_events = rng.below(6);
        for k in 0..n_events {
            // Events fire in generated order: quantized, strictly
            // increasing fractions.
            let at = ((k + 1) as f64) * 0.9 / (n_events + 1) as f64;
            let at = (at * 20.0).round() / 20.0;
            let can_join = next_id < capacity;
            let removable: Vec<u16> = members.iter().copied().filter(|p| *p != 0).collect();
            let can_remove = members.len() > 2 && !removable.is_empty();
            let verb = match rng.below(3) {
                0 if can_join => {
                    members.push(next_id);
                    next_id += 1;
                    ElasticVerb::Join
                }
                1 if can_remove => {
                    let victim = removable[rng.below(removable.len() as u64) as usize];
                    members.retain(|p| *p != victim);
                    ElasticVerb::Drain {
                        place: PlaceId(victim),
                    }
                }
                2 if can_remove => {
                    let victim = removable[rng.below(removable.len() as u64) as usize];
                    members.retain(|p| *p != victim);
                    ElasticVerb::Kill {
                        place: PlaceId(victim),
                    }
                }
                // The drawn verb is impossible right now: no event.
                _ => continue,
            };
            events.push(ElasticEvent { at, verb });
        }
        ElasticPlan { seed, events }
    }

    /// Whether the plan does nothing.
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty()
    }

    /// One-step-simpler candidates: each drops one event (later events
    /// first). Dropping a `Join` can leave a later drain or kill naming
    /// a place that never joins; elastic engines treat verbs naming
    /// non-members as no-ops, so every candidate stays runnable.
    pub fn shrink(&self) -> Vec<ElasticPlan> {
        (0..self.events.len())
            .rev()
            .map(|k| {
                let mut p = self.clone();
                p.events.remove(k);
                p
            })
            .collect()
    }
}

impl fmt::Display for ElasticPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={:#018x}", self.seed)?;
        for ev in &self.events {
            match ev.verb {
                ElasticVerb::Join => write!(f, " join@{:.0}%", ev.at * 100.0)?,
                ElasticVerb::Drain { place } => {
                    write!(f, " drain(p{}@{:.0}%)", place.0, ev.at * 100.0)?
                }
                ElasticVerb::Kill { place } => {
                    write!(f, " kill(p{}@{:.0}%)", place.0, ev.at * 100.0)?
                }
            }
        }
        if self.is_quiet() {
            write!(f, " quiet")?;
        }
        Ok(())
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={:#018x}", self.seed)?;
        for k in &self.kills {
            match k.trigger {
                KillTrigger::Progress(frac) => {
                    write!(f, " kill(p{}@{:.0}%)", k.place.0, frac * 100.0)?
                }
                KillTrigger::After(t) => write!(f, " kill(p{}@{:?})", k.place.0, t)?,
            }
        }
        if !self.net.is_off() {
            write!(
                f,
                " net(delay={:.2}x{} dup={:.2} drop={:.2})",
                self.net.delay_prob,
                self.net.max_delay_ticks,
                self.net.dup_prob,
                self.net.drop_prob
            )?;
        }
        if let Some(flap) = &self.flap {
            write!(f, " flap({:?})", flap.pause)?;
        }
        if self.shake {
            write!(f, " shake")?;
        }
        if self.is_quiet() {
            write!(f, " quiet")?;
        }
        Ok(())
    }
}

/// Decides whether duplicating a given message is semantically safe.
/// The engines' indegree decrements are not idempotent, so `dpx10-core`
/// passes `|m| !m.carries_decrements()`.
pub type DupSafe<M> = Arc<dyn Fn(&M) -> bool + Send + Sync>;

/// Counters of perturbations actually applied — lets tests assert the
/// chaos was live, and failure reports say what the run endured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Messages parked on the receive side.
    pub delayed: u64,
    /// Messages sent twice.
    pub duplicated: u64,
    /// Messages silently discarded.
    pub dropped: u64,
}

struct Held<M> {
    due: u64,
    seq: u64,
    env: Envelope<M>,
}

/// A [`Transport`] decorator applying [`NetChaos`] to an inner
/// transport. Every perturbation decision is a pure function of
/// `(plan seed, place, per-place sequence number)`, so a fixed message
/// order replays the exact same perturbations.
pub struct ChaosTransport<M: Send> {
    inner: Arc<dyn Transport<M>>,
    net: NetChaos,
    seed: u64,
    dup_safe: DupSafe<M>,
    /// Per-destination receive tick (each `try_recv` advances it).
    ticks: Vec<AtomicU64>,
    /// Per-destination receive sequence (counts delivered envelopes).
    recv_seq: Vec<AtomicU64>,
    /// Per-source send sequence.
    send_seq: Vec<AtomicU64>,
    held: Vec<Mutex<Vec<Held<M>>>>,
    delayed: AtomicU64,
    duplicated: AtomicU64,
    dropped: AtomicU64,
}

impl<M: Send + Clone> ChaosTransport<M> {
    /// Wraps `inner`, perturbing per `net` with decisions derived from
    /// `seed`. `dup_safe` vetoes duplication of non-idempotent messages.
    pub fn new(
        inner: Arc<dyn Transport<M>>,
        net: NetChaos,
        seed: u64,
        dup_safe: DupSafe<M>,
    ) -> Self {
        let places = inner.num_places() as usize;
        ChaosTransport {
            inner,
            net,
            seed,
            dup_safe,
            ticks: (0..places).map(|_| AtomicU64::new(0)).collect(),
            recv_seq: (0..places).map(|_| AtomicU64::new(0)).collect(),
            send_seq: (0..places).map(|_| AtomicU64::new(0)).collect(),
            held: (0..places).map(|_| Mutex::new(Vec::new())).collect(),
            delayed: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// How many perturbations fired so far.
    pub fn counters(&self) -> ChaosCounters {
        ChaosCounters {
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    fn decision_rng(&self, stream: u64, place: PlaceId, seq: u64) -> ChaosRng {
        ChaosRng::new(self.seed)
            .fork(stream)
            .fork(u64::from(place.0))
            .fork(seq)
    }

    /// Pops the most-overdue held envelope whose due tick has passed
    /// (or, with `force`, the earliest held envelope regardless).
    fn pop_held(&self, at: PlaceId, tick: u64, force: bool) -> Option<Envelope<M>> {
        let mut held = self.held[at.index()].lock().unwrap();
        let idx = held
            .iter()
            .enumerate()
            .filter(|(_, h)| force || h.due <= tick)
            .min_by_key(|(_, h)| (h.due, h.seq))
            .map(|(i, _)| i)?;
        Some(held.swap_remove(idx).env)
    }

    /// Applies the receive-side delay decision to a fresh envelope:
    /// either parks it (returning `None`) or passes it through.
    fn admit(&self, at: PlaceId, tick: u64, env: Envelope<M>) -> Option<Envelope<M>> {
        if self.net.delay_prob <= 0.0 {
            return Some(env);
        }
        let seq = self.recv_seq[at.index()].fetch_add(1, Ordering::Relaxed);
        let mut rng = self.decision_rng(0x4445_4C41, at, seq); // "DELA"
        if rng.chance(self.net.delay_prob) {
            let due = tick + 1 + rng.below(self.net.max_delay_ticks.max(1));
            self.delayed.fetch_add(1, Ordering::Relaxed);
            self.held[at.index()]
                .lock()
                .unwrap()
                .push(Held { due, seq, env });
            None
        } else {
            Some(env)
        }
    }
}

impl<M: Send + Clone> Transport<M> for ChaosTransport<M> {
    fn num_places(&self) -> u16 {
        self.inner.num_places()
    }

    fn liveness(&self) -> &LivenessBoard {
        self.inner.liveness()
    }

    fn send(
        &self,
        src: PlaceId,
        dst: PlaceId,
        msg: M,
        wire_bytes: usize,
    ) -> Result<(), DeadPlaceError> {
        let seq = self.send_seq[src.index()].fetch_add(1, Ordering::Relaxed);
        let mut rng = self.decision_rng(0x5345_4E44, src, seq); // "SEND"
        if rng.chance(self.net.drop_prob) {
            // A drop still honours liveness, like a real lossy link to a
            // live peer.
            self.inner.liveness().check(dst)?;
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let dup = rng.chance(self.net.dup_prob) && (self.dup_safe)(&msg);
        if dup {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            self.inner.send(src, dst, msg.clone(), wire_bytes)?;
        }
        self.inner.send(src, dst, msg, wire_bytes)
    }

    fn try_recv(&self, at: PlaceId) -> Option<Envelope<M>> {
        let tick = self.ticks[at.index()].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(env) = self.pop_held(at, tick, false) {
            return Some(env);
        }
        loop {
            let env = self.inner.try_recv(at)?;
            if let Some(env) = self.admit(at, tick, env) {
                return Some(env);
            }
        }
    }

    fn recv_timeout(&self, at: PlaceId, timeout: Duration) -> Option<Envelope<M>> {
        if let Some(env) = self.try_recv(at) {
            return Some(env);
        }
        match self.inner.recv_timeout(at, timeout) {
            Some(env) => {
                let tick = self.ticks[at.index()].load(Ordering::Relaxed);
                match self.admit(at, tick, env) {
                    Some(env) => Some(env),
                    // The fresh envelope was parked; waiting out the
                    // timeout counts as time passing, so release the
                    // earliest held message instead of stalling.
                    None => self.pop_held(at, tick, true),
                }
            }
            // Nothing arrived within the timeout — any parked message is
            // overdue by now.
            None => self.pop_held(at, u64::MAX, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use crate::place::Topology;
    use crate::stats::StatsBoard;
    use crate::transport::LocalTransport;

    fn inner(places: u16) -> Arc<dyn Transport<u32>> {
        Arc::new(LocalTransport::new(
            Topology::flat(places),
            NetworkModel::free(),
            LivenessBoard::new(places),
            StatsBoard::new(places),
        ))
    }

    fn all_dup_safe() -> DupSafe<u32> {
        Arc::new(|_| true)
    }

    #[test]
    fn rng_is_deterministic_and_fork_streams_diverge() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        let run: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(run, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        let mut f0 = ChaosRng::new(42).fork(0);
        let mut f1 = ChaosRng::new(42).fork(1);
        assert_ne!(f0.next_u64(), f1.next_u64());
    }

    #[test]
    fn generated_plans_reproduce_and_respect_place_zero() {
        for seed in 0..200u64 {
            let p1 = ChaosPlan::generate(seed, 4);
            let p2 = ChaosPlan::generate(seed, 4);
            assert_eq!(p1, p2, "seed {seed} must reproduce");
            for k in &p1.kills {
                assert_ne!(k.place, PlaceId(0), "never kill place 0");
                assert!(k.place.0 < 4);
                match k.trigger {
                    KillTrigger::Progress(f) => assert!((0.0..=1.0).contains(&f)),
                    KillTrigger::After(_) => {}
                }
            }
            assert_eq!(p1.net.drop_prob, 0.0, "generated plans never drop");
            let victims: Vec<_> = p1.kills.iter().map(|k| k.place).collect();
            let mut dedup = victims.clone();
            dedup.dedup();
            assert_eq!(victims.len(), dedup.len(), "victims are distinct");
        }
    }

    #[test]
    fn single_place_plans_never_kill() {
        for seed in 0..50u64 {
            assert!(ChaosPlan::generate(seed, 1).kills.is_empty());
        }
    }

    #[test]
    fn shrink_strictly_simplifies() {
        let plan = ChaosPlan::generate(7, 4);
        for simpler in plan.shrink() {
            let fewer_kills = simpler.kills.len() < plan.kills.len();
            let less_net = plan.net != simpler.net && simpler.net.is_off();
            let less_flap = plan.flap.is_some() && simpler.flap.is_none();
            let less_shake = plan.shake && !simpler.shake;
            assert!(fewer_kills || less_net || less_flap || less_shake);
            assert_eq!(simpler.seed, plan.seed);
        }
        assert!(ChaosPlan::quiet(7).shrink().is_empty());
    }

    #[test]
    fn delay_reorders_but_loses_nothing() {
        let chaos = ChaosTransport::new(
            inner(2),
            NetChaos {
                delay_prob: 0.5,
                max_delay_ticks: 4,
                dup_prob: 0.0,
                drop_prob: 0.0,
            },
            99,
            all_dup_safe(),
        );
        for v in 0..100u32 {
            chaos.send(PlaceId(0), PlaceId(1), v, 4).unwrap();
        }
        let mut got = Vec::new();
        // Generous tick budget: every held message matures eventually.
        for _ in 0..10_000 {
            if let Some(env) = chaos.try_recv(PlaceId(1)) {
                got.push(env.msg);
                if got.len() == 100 {
                    break;
                }
            }
        }
        assert!(chaos.counters().delayed > 0, "chaos must have fired");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "nothing lost");
        assert_ne!(got, sorted, "some pair must arrive out of order");
    }

    #[test]
    fn recv_timeout_releases_parked_messages() {
        let chaos = ChaosTransport::new(
            inner(2),
            NetChaos {
                delay_prob: 1.0,
                max_delay_ticks: 1_000_000,
                dup_prob: 0.0,
                drop_prob: 0.0,
            },
            3,
            all_dup_safe(),
        );
        chaos.send(PlaceId(0), PlaceId(1), 42, 4).unwrap();
        // try_recv parks it (delay_prob = 1) with an absurd due tick...
        assert!(chaos.try_recv(PlaceId(1)).is_none());
        // ...but a blocking wait counts as time passing and frees it.
        let env = chaos
            .recv_timeout(PlaceId(1), Duration::from_millis(10))
            .expect("parked message released after timeout");
        assert_eq!(env.msg, 42);
    }

    #[test]
    fn duplication_respects_the_classifier() {
        let only_even: DupSafe<u32> = Arc::new(|m| m % 2 == 0);
        let chaos = ChaosTransport::new(
            inner(2),
            NetChaos {
                delay_prob: 0.0,
                max_delay_ticks: 0,
                dup_prob: 1.0,
                drop_prob: 0.0,
            },
            5,
            only_even,
        );
        chaos.send(PlaceId(0), PlaceId(1), 1, 4).unwrap(); // odd: no dup
        chaos.send(PlaceId(0), PlaceId(1), 2, 4).unwrap(); // even: dup
        let mut got = Vec::new();
        while let Some(env) = chaos.try_recv(PlaceId(1)) {
            got.push(env.msg);
        }
        assert_eq!(got, vec![1, 2, 2]);
        assert_eq!(chaos.counters().duplicated, 1);
    }

    #[test]
    fn drops_discard_but_honour_liveness() {
        let chaos = ChaosTransport::new(
            inner(2),
            NetChaos {
                delay_prob: 0.0,
                max_delay_ticks: 0,
                dup_prob: 0.0,
                drop_prob: 1.0,
            },
            5,
            all_dup_safe(),
        );
        chaos.send(PlaceId(0), PlaceId(1), 7, 4).unwrap();
        assert!(chaos.try_recv(PlaceId(1)).is_none());
        assert_eq!(chaos.counters().dropped, 1);
        chaos.liveness().kill(PlaceId(1));
        assert_eq!(
            chaos.send(PlaceId(0), PlaceId(1), 8, 4),
            Err(DeadPlaceError { place: PlaceId(1) })
        );
    }

    #[test]
    fn decisions_depend_only_on_seed_and_sequence() {
        let make = || {
            ChaosTransport::new(
                inner(2),
                NetChaos {
                    delay_prob: 0.4,
                    max_delay_ticks: 3,
                    dup_prob: 0.3,
                    drop_prob: 0.0,
                },
                1234,
                all_dup_safe(),
            )
        };
        let run = |t: &ChaosTransport<u32>| {
            for v in 0..50u32 {
                t.send(PlaceId(0), PlaceId(1), v, 4).unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..5_000 {
                if let Some(env) = t.try_recv(PlaceId(1)) {
                    got.push(env.msg);
                }
            }
            (got, t.counters())
        };
        let (a, ca) = run(&make());
        let (b, cb) = run(&make());
        assert_eq!(a, b, "same seed + same order = same perturbations");
        assert_eq!(ca, cb);
    }

    #[test]
    fn elastic_plans_reproduce_and_stay_well_formed() {
        for seed in 0..200u64 {
            let p1 = ElasticPlan::generate(seed, 3, 5);
            let p2 = ElasticPlan::generate(seed, 3, 5);
            assert_eq!(p1, p2, "seed {seed} must reproduce");
            // Replay the membership the generator claims to track.
            let mut members: Vec<u16> = vec![0, 1, 2];
            let mut next_id = 3u16;
            let mut last_at = 0.0f64;
            for ev in &p1.events {
                assert!((0.0..=1.0).contains(&ev.at), "seed {seed}");
                assert!(ev.at >= last_at, "seed {seed}: events fire in order");
                last_at = ev.at;
                match ev.verb {
                    ElasticVerb::Join => {
                        assert!(next_id < 5, "seed {seed}: join past capacity");
                        members.push(next_id);
                        next_id += 1;
                    }
                    ElasticVerb::Drain { place } | ElasticVerb::Kill { place } => {
                        assert_ne!(place.0, 0, "seed {seed}: never remove place 0");
                        assert!(members.contains(&place.0), "seed {seed}: non-member");
                        assert!(members.len() > 2, "seed {seed}: mesh too small");
                        members.retain(|p| *p != place.0);
                    }
                }
            }
        }
    }

    #[test]
    fn elastic_seed_space_covers_every_verb() {
        let (mut join, mut drain, mut kill) = (0, 0, 0);
        for seed in 0..300u64 {
            for ev in ElasticPlan::generate(seed, 3, 6).events {
                match ev.verb {
                    ElasticVerb::Join => join += 1,
                    ElasticVerb::Drain { .. } => drain += 1,
                    ElasticVerb::Kill { .. } => kill += 1,
                }
            }
        }
        assert!(
            join > 0 && drain > 0 && kill > 0,
            "verb mix too narrow: join={join} drain={drain} kill={kill}"
        );
    }

    #[test]
    fn elastic_shrink_strictly_simplifies_and_displays() {
        let plan = ElasticPlan {
            seed: 0xEE,
            events: vec![
                ElasticEvent {
                    at: 0.15,
                    verb: ElasticVerb::Join,
                },
                ElasticEvent {
                    at: 0.6,
                    verb: ElasticVerb::Drain { place: PlaceId(2) },
                },
                ElasticEvent {
                    at: 0.8,
                    verb: ElasticVerb::Kill { place: PlaceId(1) },
                },
            ],
        };
        for simpler in plan.shrink() {
            assert_eq!(simpler.events.len(), plan.events.len() - 1);
            assert_eq!(simpler.seed, plan.seed);
        }
        assert_eq!(
            plan.to_string(),
            "seed=0x00000000000000ee join@15% drain(p2@60%) kill(p1@80%)"
        );
        assert!(ElasticPlan::quiet(1).shrink().is_empty());
        assert!(ElasticPlan::quiet(1).to_string().ends_with("quiet"));
    }

    #[test]
    fn display_is_compact_and_stable() {
        let plan = ChaosPlan {
            seed: 0xABCD,
            kills: vec![KillSpec {
                place: PlaceId(2),
                trigger: KillTrigger::Progress(0.5),
            }],
            net: NetChaos::off(),
            flap: None,
            shake: true,
        };
        assert_eq!(
            plan.to_string(),
            "seed=0x000000000000abcd kill(p2@50%) shake"
        );
        assert!(ChaosPlan::quiet(1).to_string().ends_with("quiet"));
    }
}
