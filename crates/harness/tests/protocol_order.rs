//! Deterministic delivery-order driver of the vertex protocol.
//!
//! A third [`Sink`] beside the real-time workers and the simulator: it
//! holds every in-flight [`Msg`] itself and lets a seeded [`ChaosRng`]
//! decide, step by step, whether some message is delivered or some
//! ready vertex executes — so the protocol handlers in
//! [`dpx10_core::protocol`] meet interleavings that wall-clock chaos
//! only samples, and a failure replays from its seed alone.
//!
//! Which orders are explored:
//!
//! * **Across `(src, dst)` pairs: every interleaving.** Each step picks
//!   uniformly among the non-empty pairs and the places with ready
//!   work, so a message may wait arbitrarily long behind other pairs'
//!   traffic and behind computation.
//! * **Within a pair: bounded overtaking**, the one reordering
//!   `ChaosTransport`'s receive-side delay produces. It parks an
//!   envelope for at most `max_delay_ticks` (≤ 8) receive ticks of its
//!   destination, so a message is overtaken by at most [`OVERTAKE`]
//!   later messages of its own pair; nothing is ever lost.
//! * **Duplicates** only of the messages `ChaosTransport` may duplicate:
//!   every one but those that [`Msg::carries_decrements`] (`Done`,
//!   `DoneBatch`) — indegree decrements are not idempotent.
//!
//! Every run must end with each cell equal to the serial oracle, every
//! indegree at zero, no parked vertex and no outstanding pull — and, in
//! push mode, without a single pull having been sent.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dpx10_apgas::{ChaosRng, NetworkModel, PlaceId, StatsBoard, Topology};
use dpx10_core::msg::Msg;
use dpx10_core::protocol::{handle_msg, prepare, publish, Ctx, Sink, WorkerBufs};
use dpx10_core::state::{Shard, Start};
use dpx10_core::{CommsMode, DepView, DistKind, DpApp, ScheduleStrategy};
use dpx10_dag::builtin::{FullPrevRowCol, Grid3, IntervalUpper};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_distarray::{Dist, Region2D};
use dpx10_harness::{oracle, MixApp};
use dpx10_obs::EventKind;

/// How many later messages of its own pair may overtake a message.
const OVERTAKE: u8 = 8;

/// The test sink: in-flight messages per `(src, dst)` pair, ready
/// vertices per slot, and the seeded scheduler's duplicate decisions.
struct Pool<'a> {
    ctx: &'a Ctx<MixApp>,
    rng: ChaosRng,
    /// `flight[src * n + dst]`: messages in send order, each with the
    /// number of later same-pair messages that already overtook it.
    flight: Vec<VecDeque<(Msg<u64>, u8)>>,
    ready: Vec<Vec<u32>>,
    published: u64,
}

impl Sink<u64> for Pool<'_> {
    fn send(&mut self, src: PlaceId, dst: PlaceId, msg: Msg<u64>) {
        let n = self.ctx.dist.num_slots();
        let pair = &mut self.flight[src.index() * n + dst.index()];
        if !msg.carries_decrements() && self.rng.chance(0.15) {
            pair.push_back((msg.clone(), 0));
        }
        pair.push_back((msg, 0));
    }

    fn ready(&mut self, shard: &mut Shard<u64>, li: u32) {
        self.ready[shard.slot].push(li);
    }

    fn stamp(&mut self, _place: PlaceId, _kind: EventKind, _arg: u64) {}

    fn exec(
        &mut self,
        shard: &mut Shard<u64>,
        src: PlaceId,
        id: VertexId,
        dep_ids: Vec<VertexId>,
        dep_values: Vec<u64>,
    ) {
        let value = MixApp.compute(id, &DepView::new(&dep_ids, &dep_values));
        let me = self.ctx.dist.places()[shard.slot];
        self.send(me, src, Msg::ExecResult { id, value });
    }

    fn finished(&mut self, _slot: usize, _id: VertexId, _value: &u64) {
        self.published += 1;
    }
}

impl Pool<'_> {
    /// Takes the next message of pair `k`: any of the first entries, as
    /// long as nothing before it has been overtaken [`OVERTAKE`] times.
    fn take(&mut self, k: usize) -> Msg<u64> {
        let pair = &mut self.flight[k];
        let window = pair
            .iter()
            .position(|(_, overtaken)| *overtaken >= OVERTAKE)
            .map_or(pair.len(), |stuck| stuck + 1);
        let pick = self.rng.below(window as u64) as usize;
        for (_, overtaken) in pair.iter_mut().take(pick) {
            *overtaken += 1;
        }
        pair.remove(pick).expect("picked inside the pair").0
    }

    /// Executes ready vertex `li` of `shard`: the owner-side path every
    /// driver runs (gather, maybe ship, compute, publish).
    fn execute(&mut self, shard: &mut Shard<u64>, li: u32, bufs: &mut WorkerBufs) {
        let ctx = self.ctx;
        if shard.finished(li) {
            return;
        }
        let (i, j) = shard.points.get(li);
        let id = VertexId::new(i, j);
        let me = ctx.dist.places()[shard.slot];
        let Some((target, values)) = prepare(ctx, shard, self, li, id, bufs) else {
            return; // parked awaiting pulls
        };
        if target != me {
            let dep_ids = bufs.deps.clone();
            self.send(
                me,
                target,
                Msg::Exec {
                    id,
                    dep_ids,
                    dep_values: values.into_owned(),
                },
            );
            return;
        }
        let value = MixApp.compute(id, &values.view(&bufs.deps));
        publish(ctx, shard, self, li, id, value, bufs);
    }
}

/// One point of the sweep; `Display`s as (and parses from) the repro
/// line a failure prints.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Case {
    seed: u64,
    comms: CommsMode,
    cache: usize,
    pattern: &'static str,
    places: u16,
}

const PATTERNS: [&str; 3] = ["grid3-5x5", "interval-6", "fullprev-4x4"];

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let comms = match self.comms {
            CommsMode::Pull => "pull",
            CommsMode::Push => "push",
        };
        write!(
            f,
            "seed={:#x} comms={comms} cache={} pattern={} places={}",
            self.seed, self.cache, self.pattern, self.places
        )
    }
}

impl Case {
    fn parse(line: &str) -> Case {
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .unwrap_or_else(|| panic!("repro line lacks {key}="))
        };
        let seed = field("seed");
        Case {
            seed: u64::from_str_radix(seed.trim_start_matches("0x"), 16).expect("hex seed"),
            comms: match field("comms") {
                "pull" => CommsMode::Pull,
                "push" => CommsMode::Push,
                other => panic!("unknown comms {other}"),
            },
            cache: field("cache").parse().expect("cache entries"),
            pattern: PATTERNS
                .into_iter()
                .find(|p| *p == field("pattern"))
                .expect("known pattern"),
            places: field("places").parse().expect("place count"),
        }
    }

    /// Runs the case to quiescence and checks every invariant.
    fn run(&self) -> Result<(), String> {
        let pattern: Arc<dyn DagPattern> = match self.pattern {
            "grid3-5x5" => Arc::new(Grid3::new(5, 5)),
            "interval-6" => Arc::new(IntervalUpper::new(6)),
            _ => Arc::new(FullPrevRowCol::new(4, 4)),
        };
        // Distribution and scheduler are the seed's to choose, so remote
        // execution (`Exec`/`ExecResult`) is part of the sweep.
        let mut rng = ChaosRng::new(self.seed);
        let dist_kind = [
            DistKind::BlockRow,
            DistKind::BlockCol,
            DistKind::CyclicRow,
            DistKind::CyclicCol,
        ][rng.below(4) as usize]
            .clone();
        let schedule = [
            ScheduleStrategy::Local,
            ScheduleStrategy::Random,
            ScheduleStrategy::MinComm,
        ][rng.below(3) as usize];
        let dist = Arc::new(Dist::new(
            Region2D::new(pattern.height(), pattern.width()),
            dist_kind,
            (0..self.places).map(PlaceId).collect(),
        ));
        let ctx = Ctx {
            app: Arc::new(MixApp),
            pattern: pattern.clone(),
            dist,
            stats: StatsBoard::new(self.places),
            topo: Topology::flat(self.places),
            net: NetworkModel::tianhe_like(),
            schedule,
            comms: self.comms,
            agg: None,
        };
        let start = Start {
            prior: None,
            meta: None,
            init: None,
            cache_capacity: self.cache,
            cursors: false,
        };
        let mut shards = start.build_all(&ctx);
        let n = ctx.dist.num_slots();
        let mut pool = Pool {
            ctx: &ctx,
            rng,
            flight: (0..n * n).map(|_| VecDeque::new()).collect(),
            ready: shards
                .iter_mut()
                .map(|s| std::iter::from_fn(|| s.pop_ready()).collect())
                .collect(),
            published: 0,
        };
        let mut bufs = WorkerBufs::default();
        loop {
            // One step: a non-empty pair delivers, or a place with ready
            // work executes — each candidate equally likely.
            let pairs: Vec<usize> = (0..n * n).filter(|k| !pool.flight[*k].is_empty()).collect();
            let busy: Vec<usize> = (0..n).filter(|s| !pool.ready[*s].is_empty()).collect();
            if pairs.is_empty() && busy.is_empty() {
                break;
            }
            let pick = pool.rng.below((pairs.len() + busy.len()) as u64) as usize;
            if let Some(&k) = pairs.get(pick) {
                let msg = pool.take(k);
                let src = ctx.dist.places()[k / n];
                handle_msg(&ctx, &mut shards[k % n], &mut pool, src, msg, &mut bufs);
            } else {
                let slot = busy[pick - pairs.len()];
                let at = pool.rng.below(pool.ready[slot].len() as u64) as usize;
                let li = pool.ready[slot].swap_remove(at);
                pool.execute(&mut shards[slot], li, &mut bufs);
            }
        }

        let total = pattern.vertex_count();
        if pool.published != total {
            return Err(format!(
                "quiescent with {} of {total} published",
                pool.published
            ));
        }
        let expect = oracle(pattern.as_ref());
        for (slot, shard) in shards.iter().enumerate() {
            for (li, (i, j)) in (0..).zip(shard.points.iter()) {
                if !shard.is_vertex(li) {
                    continue;
                }
                let id = VertexId::new(i, j);
                if !shard.finished(li) || Some(shard.value(li)) != expect.get(&id) {
                    return Err(format!("{id} differs from the oracle"));
                }
                if shard.indegree[li as usize] != 0 {
                    return Err(format!("{id} ends with a non-zero indegree"));
                }
            }
            // Every pinned value's readers have gathered it.
            let pending = &shard.pending;
            let open = [
                pending.parked.len(),
                pending.waiters.len(),
                pending.pins.len(),
            ];
            if open != [0; 3] {
                return Err(format!(
                    "slot {slot} ends with {} parked, {} awaited, {} pinned",
                    open[0], open[1], open[2]
                ));
            }
        }
        let pulls = ctx.stats.snapshot().pulls_sent;
        if self.comms == CommsMode::Push && pulls != 0 {
            return Err(format!("push mode sent {pulls} pulls"));
        }
        Ok(())
    }

    /// Runs the case; a violated invariant or a panic inside the
    /// protocol fails the test with the line that replays it.
    fn check(&self) {
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run()))
            .unwrap_or_else(|_| Err("the protocol panicked".into()));
        if let Err(reason) = outcome {
            panic!("protocol_order FAIL {self} | {reason} | replay: paste the line into REPRO");
        }
    }
}

#[test]
fn every_delivery_order_reaches_the_oracle() {
    for comms in [CommsMode::Pull, CommsMode::Push] {
        for cache in [0, 2, 4096] {
            for pattern in PATTERNS {
                for places in [2, 3] {
                    for seed in 0..500 {
                        let case = Case {
                            seed,
                            comms,
                            cache,
                            pattern,
                            places,
                        };
                        case.check();
                    }
                }
            }
        }
    }
}

/// Replays one repro line (edit it to the line a failure printed).
#[test]
fn replays_a_repro_line() {
    const REPRO: &str = "seed=0x1f3 comms=push cache=2 pattern=interval-6 places=3";
    let case = Case::parse(REPRO);
    assert_eq!(case.to_string(), REPRO, "the line round-trips");
    case.check();
}
