//! The per-place vertex protocol (paper §VI-A/§VI-C), implemented once.
//!
//! What a place does with each [`Msg`], how a ready vertex gathers its
//! dependency values (local reads, FIFO cache, pinned pushes, then
//! park-and-pull with dedup), where it executes, and how a computed
//! value is published and its dependents decremented — for every
//! backend. The handlers own all protocol *state* ([`Place`] and its
//! [`Shard`]s); everything that differs between the drivers goes
//! through the five methods of [`Sink`]:
//!
//! | | threads / elastic mesh / socket places / served jobs | simulator |
//! |---|---|---|
//! | `send` | the epoch's `Transport` | a priced arrival event |
//! | `ready` | the shard's FIFO ready list | the policy ready queue |
//! | `stamp` | recorder, wall clock | recorder, virtual clock |
//! | `exec` | compute now, reply `ExecResult` | queue for a worker slot |
//! | `finished` | checkpoint, `tasks_run`, exact kills and boundaries (global count only while one is armed) | finish count, fault time |
//!
//! Values are copied only where a second owner needs them. A gather
//! whose dependencies all live in the gathering shard lends references
//! into the slab ([`Gathered::Lent`]); `publish` moves the result into
//! the slab and reads it back by reference. What still clones: a
//! message (`Done`, `PullVal`, `Exec`), a cache entry, a pinned or
//! pulled fill, and the values of a gather that had to look past its
//! own shard ([`Gathered::Owned`]).
//!
//! Doc-hidden like [`crate::state`]: public so `dpx10-sim` and the
//! delivery-order test driver can drive it, not a user-facing API.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dpx10_apgas::{Codec, NetworkModel, PlaceId, StatsBoard, Topology};
use dpx10_dag::{AggSpec, DagPattern, VertexId};
use dpx10_distarray::Dist;
use dpx10_obs::EventKind;

use crate::app::{DepView, DpApp};
use crate::config::CommsMode;
use crate::msg::Msg;
use crate::schedule::{min_comm_choice, random_choice, ScheduleStrategy};
use crate::state::{local_index, Fill, Shard};

/// Everything the protocol reads and mutates during one epoch: the
/// application, the DAG, who owns what, and every place's shard.
pub struct Place<A: DpApp> {
    /// The application (`compute` runs in the drivers; the protocol
    /// only asks it for aggregation keys).
    pub app: Arc<A>,
    /// The DAG pattern.
    pub pattern: Arc<dyn DagPattern>,
    /// The epoch's distribution over the live places.
    pub dist: Arc<Dist>,
    /// One shard per distribution slot.
    pub shards: Vec<Shard<A::Value>>,
    /// Per-place cache/pull/push counters.
    pub stats: StatsBoard,
    /// Cluster shape (min-comm pricing).
    pub topo: Topology,
    /// Interconnect model (min-comm pricing).
    pub net: NetworkModel,
    /// Where ready vertices execute.
    pub schedule: ScheduleStrategy,
    /// How remote values travel: pull round-trips or eager pushes.
    pub comms: CommsMode,
    /// `Some(spec)` iff interval dependencies run through the
    /// prefix-aggregation lanes.
    pub agg: Option<AggSpec>,
}

/// What differs between the drivers of the protocol. Statically
/// dispatched: every handler is generic over its sink.
pub trait Sink<V> {
    /// `msg` leaves `src` for `dst`.
    fn send(&mut self, src: PlaceId, dst: PlaceId, msg: Msg<V>);
    /// Local vertex `li` of `slot` became runnable.
    fn ready(&mut self, slot: usize, li: u32);
    /// A flight-recorder instant at `place`, on the driver's clock.
    fn stamp(&mut self, place: PlaceId, kind: EventKind, arg: u64);
    /// `src` shipped vertex `id` here with its gathered dependencies
    /// ([`Msg::Exec`]); the result must go back as [`Msg::ExecResult`].
    fn exec(
        &mut self,
        slot: usize,
        src: PlaceId,
        id: VertexId,
        dep_ids: Vec<VertexId>,
        dep_values: Vec<V>,
    );
    /// `id` was published at `slot` for the first time; called before
    /// its dependents are decremented.
    fn finished(&mut self, slot: usize, id: VertexId, value: &V);
}

/// Reusable scratch buffers (hot path: no fresh allocations per vertex).
pub struct WorkerBufs {
    /// The dependencies of the vertex last handed to [`prepare`].
    pub deps: Vec<VertexId>,
    anti: Vec<VertexId>,
    /// Remote dependents by owning place, ascending.
    groups: Vec<(u16, Vec<VertexId>)>,
}

impl Default for WorkerBufs {
    fn default() -> Self {
        WorkerBufs {
            deps: Vec::with_capacity(8),
            anti: Vec::with_capacity(8),
            groups: Vec::new(),
        }
    }
}

/// A ready vertex's dependency values, in dependency order, as
/// [`gather`] found them.
pub enum Gathered<'p, V> {
    /// Every dependency lives in the gathering shard: references into
    /// its slab, borrowed for as long as the epoch's [`Place`].
    Lent(Vec<&'p V>),
    /// Some dependency came from the cache, a fill or another shard:
    /// copies.
    Owned(Vec<V>),
}

impl<V: Clone> Gathered<'_, V> {
    /// The first `ids.len()` values under `ids`, for `compute`.
    pub fn view<'a>(&'a self, ids: &'a [VertexId]) -> DepView<'a, V> {
        match self {
            Gathered::Lent(values) => DepView::lent(ids, &values[..ids.len()]),
            Gathered::Owned(values) => DepView::new(ids, &values[..ids.len()]),
        }
    }

    /// The values as owned copies, for a message ([`Msg::Exec`]).
    pub fn into_owned(self) -> Vec<V> {
        match self {
            Gathered::Lent(values) => values.into_iter().cloned().collect(),
            Gathered::Owned(values) => values,
        }
    }
}

/// Folds a finished cell's aggregation keys into the receiving place's
/// lanes. Called from every value-delivery path (local publish, `Done`,
/// `PullVal`); the lanes are idempotent per cell, so overlapping
/// deliveries are harmless.
#[inline]
pub fn agg_record<A: DpApp>(place: &Place<A>, slot: usize, id: VertexId, value: &A::Value) {
    if place.agg.is_some() {
        if let Some(table) = &place.shards[slot].aggs {
            table.record(id, |axis| place.app.agg_key(axis, id, value));
        }
    }
}

/// Handles one message from `src` arriving at `slot`.
pub fn handle_msg<A: DpApp, S: Sink<A::Value>>(
    place: &Place<A>,
    sink: &mut S,
    slot: usize,
    src: PlaceId,
    msg: Msg<A::Value>,
    bufs: &mut WorkerBufs,
) {
    match msg {
        Msg::Done {
            from,
            value,
            targets,
        } => handle_done(place, sink, slot, from, value, targets),
        Msg::Pull { id } => handle_pull(place, sink, slot, src, id),
        Msg::PullVal { id, value } => handle_pull_val(place, sink, slot, id, value),
        Msg::Exec {
            id,
            dep_ids,
            dep_values,
        } => sink.exec(slot, src, id, dep_ids, dep_values),
        Msg::ExecResult { id, value } => {
            let li = local_index(&place.dist, id);
            publish(place, sink, slot, li, id, value, bufs);
        }
        // The batch variants replay the per-message handlers in send
        // order, so a coalesced run takes exactly the uncoalesced code
        // paths (the equivalence the differential oracle checks).
        Msg::DoneBatch { entries } => {
            for (from, value, targets) in entries {
                handle_done(place, sink, slot, from, value, targets);
            }
        }
        Msg::PullBatch { ids } => {
            for id in ids {
                handle_pull(place, sink, slot, src, id);
            }
        }
        Msg::PullValBatch { entries } => {
            for (id, value) in entries {
                handle_pull_val(place, sink, slot, id, value);
            }
        }
    }
}

/// [`Msg::Done`]: land the value in the consumer cache, decrement the
/// receiver-owned dependents. A place in push mode also *pins* the value
/// for every unfinished target, so the target's later gather finds it
/// even after cache eviction — the pull round-trip never happens. A
/// target whose parked slot already has a pull in flight (the consumer
/// raced ahead) is filled right here; the eventual `PullVal` reply then
/// finds the slot occupied and is a no-op for it.
fn handle_done<A: DpApp, S: Sink<A::Value>>(
    place: &Place<A>,
    sink: &mut S,
    slot: usize,
    from: VertexId,
    value: A::Value,
    targets: Vec<VertexId>,
) {
    let shard = &place.shards[slot];
    // Fold before decrementing: when a target's indegree hits zero its
    // interval lanes must already cover this cell.
    agg_record(place, slot, from, &value);
    let pinned = (place.comms == CommsMode::Push).then(|| value.clone());
    shard.cache.lock().insert(from.pack(), value);
    if let Some(value) = pinned {
        let mut pending = shard.pending.lock();
        for t in &targets {
            let tli = local_index(&place.dist, *t);
            if shard.finished[tli as usize].load(Ordering::Acquire) {
                continue;
            }
            let entry = pending.parked.entry(tli).or_default();
            match entry.fills.get_mut(&from.pack()) {
                // Already parked with a pull outstanding: fill the slot
                // now; re-ready when it was the last missing dep (the
                // decrement below is a no-op then — the vertex parked
                // *after* its indegree hit zero).
                Some(fill @ Fill::Missing) => {
                    *fill = Fill::Pushed(value.clone());
                    entry.remaining -= 1;
                    if entry.remaining == 0 {
                        sink.ready(slot, tli);
                    }
                }
                // A pull or an earlier push beat us; keep the first.
                Some(_) => {}
                // Not yet gathered: pin for the upcoming gather.
                None => {
                    entry.fills.insert(from.pack(), Fill::Pushed(value.clone()));
                }
            }
        }
    }
    for t in targets {
        decrement(place, sink, slot, t);
    }
}

/// [`Msg::Pull`]: reply with the finished value of `id`.
fn handle_pull<A: DpApp, S: Sink<A::Value>>(
    place: &Place<A>,
    sink: &mut S,
    slot: usize,
    src: PlaceId,
    id: VertexId,
) {
    let shard = &place.shards[slot];
    let li = local_index(&place.dist, id);
    debug_assert!(
        shard.finished[li as usize].load(Ordering::Acquire),
        "pull of unfinished vertex {id}"
    );
    let value = shard.value(li).clone();
    sink.send(place.dist.places()[slot], src, Msg::PullVal { id, value });
}

/// [`Msg::PullVal`]: cache the value and fill every parked waiter.
fn handle_pull_val<A: DpApp, S: Sink<A::Value>>(
    place: &Place<A>,
    sink: &mut S,
    slot: usize,
    id: VertexId,
    value: A::Value,
) {
    let shard = &place.shards[slot];
    sink.stamp(place.dist.places()[slot], EventKind::PullFill, id.pack());
    agg_record(place, slot, id, &value);
    shard.cache.lock().insert(id.pack(), value.clone());
    let mut pending = shard.pending.lock();
    if let Some(waiters) = pending.waiters.remove(&id.pack()) {
        for wli in waiters {
            if let Some(p) = pending.parked.get_mut(&wli) {
                // A slot already filled (e.g. by a racing push) keeps
                // its value; the reply only lands on Missing slots.
                if let Some(fill @ Fill::Missing) = p.fills.get_mut(&id.pack()) {
                    *fill = Fill::Pulled(value.clone());
                    p.remaining -= 1;
                    if p.remaining == 0 {
                        sink.ready(slot, wli);
                    }
                }
            }
        }
    }
}

/// Decrements the indegree of locally-owned `t`; readies it at zero.
///
/// Targets already finished are skipped: after a recovery, a recomputed
/// vertex publishes again and would otherwise decrement dependents that
/// were restored as finished (whose epoch-start indegree is zero).
#[inline]
fn decrement<A: DpApp, S: Sink<A::Value>>(
    place: &Place<A>,
    sink: &mut S,
    slot: usize,
    t: VertexId,
) {
    let shard = &place.shards[slot];
    let li = local_index(&place.dist, t);
    if shard.finished[li as usize].load(Ordering::Acquire) {
        return;
    }
    let old = shard.indegree[li as usize].fetch_sub(1, Ordering::AcqRel);
    debug_assert!(old >= 1, "indegree underflow at {t}");
    if old == 1 {
        sink.ready(slot, li);
    }
}

/// The owner-side half of executing ready vertex `li`: enumerate its
/// dependencies into `bufs.deps`, gather their values, and choose where
/// it runs. `None` means the vertex parked awaiting pulls. Shipping to a
/// remote target ([`Msg::Exec`]) and `compute` itself are the driver's.
pub fn prepare<'p, A: DpApp, S: Sink<A::Value>>(
    place: &'p Place<A>,
    sink: &mut S,
    slot: usize,
    li: u32,
    bufs: &mut WorkerBufs,
) -> Option<(PlaceId, Gathered<'p, A::Value>)> {
    let (i, j) = place.shards[slot].points[li as usize];
    bufs.deps.clear();
    place.pattern.dependencies(i, j, &mut bufs.deps);
    let values = gather(place, sink, slot, li, &bufs.deps)?;

    let me = place.dist.places()[slot];
    let target = match place.schedule {
        ScheduleStrategy::Local | ScheduleStrategy::WorkStealing => me,
        ScheduleStrategy::Random => random_choice(VertexId::new(i, j), place.dist.places()),
        ScheduleStrategy::MinComm => {
            let homes: Vec<PlaceId> = bufs
                .deps
                .iter()
                .map(|d| place.dist.place_of(d.i, d.j))
                .collect();
            let view = values.view(&bufs.deps);
            let bytes: Vec<usize> = view.values().map(Codec::wire_size).collect();
            let result_bytes = view.values().next().map_or(8, Codec::wire_size);
            min_comm_choice(
                me,
                place.dist.places(),
                &homes,
                &bytes,
                result_bytes,
                &place.topo,
                &place.net,
            )
        }
    };
    Some((target, values))
}

/// Gathers dependency values: local reads, then cache, then previously
/// pulled fills; parks the vertex and issues pulls for anything missing.
///
/// A vertex whose dependencies all live in its own shard borrows them
/// from the slab and takes no lock: it can never have parked (parking
/// needs a value missing from both slab and cache, and a push pins only
/// vertices with a remote dependency), and it touches neither cache nor
/// counters. Any other vertex gets copies.
pub fn gather<'p, A: DpApp, S: Sink<A::Value>>(
    place: &'p Place<A>,
    sink: &mut S,
    slot: usize,
    li: u32,
    deps: &[VertexId],
) -> Option<Gathered<'p, A::Value>> {
    let shard = &place.shards[slot];
    let mut local = Vec::with_capacity(deps.len());
    for d in deps {
        if place.dist.slot_of(d.i, d.j) != slot {
            break;
        }
        local.push(shard.value(local_index(&place.dist, *d)));
    }
    if local.len() == deps.len() {
        return Some(Gathered::Lent(local));
    }
    let me = place.dist.places()[slot];

    // The local prefix is already read; the rest may need the cache.
    let mut vals: Vec<Option<A::Value>> = Vec::with_capacity(deps.len());
    vals.extend(local.into_iter().map(|v| Some(v.clone())));
    {
        let cache = shard.cache.lock();
        for d in &deps[vals.len()..] {
            if place.dist.slot_of(d.i, d.j) == slot {
                let dli = local_index(&place.dist, *d);
                vals.push(Some(shard.value(dli).clone()));
            } else if let Some(v) = cache.get(d.pack()) {
                place.stats.place(me).on_cache_hit();
                sink.stamp(me, EventKind::CacheHit, d.pack());
                vals.push(Some(v.clone()));
            } else {
                vals.push(None);
            }
        }
    }

    if vals.iter().all(Option::is_some) {
        shard.pending.lock().parked.remove(&li);
        return Some(Gathered::Owned(
            vals.into_iter().map(Option::unwrap).collect(),
        ));
    }

    // Try previously pulled (or eagerly pushed) fills, then park for the
    // rest. Consuming a pushed fill is the round-trip the push saved; it
    // demotes to Pulled so a later re-gather of a still-parked vertex
    // doesn't count it twice.
    let mut pending = shard.pending.lock();
    if let Some(p) = pending.parked.get_mut(&li) {
        for (k, d) in deps.iter().enumerate() {
            if vals[k].is_none() {
                if let Some(fill) = p.fills.get_mut(&d.pack()) {
                    if let Fill::Pushed(v) = fill {
                        let v = v.clone();
                        place.stats.place(me).on_pull_roundtrip_avoided();
                        vals[k] = Some(v.clone());
                        *fill = Fill::Pulled(v);
                    } else if let Some(v) = fill.value() {
                        vals[k] = Some(v.clone());
                    }
                }
            }
        }
    }
    if vals.iter().all(Option::is_some) {
        pending.parked.remove(&li);
        return Some(Gathered::Owned(
            vals.into_iter().map(Option::unwrap).collect(),
        ));
    }

    let mut newly_missing: Vec<VertexId> = Vec::new();
    {
        let entry = pending.parked.entry(li).or_default();
        for (k, d) in deps.iter().enumerate() {
            if vals[k].is_none() && !entry.fills.contains_key(&d.pack()) {
                entry.fills.insert(d.pack(), Fill::Missing);
                entry.remaining += 1;
                newly_missing.push(*d);
            }
        }
    }
    let mut to_pull: Vec<VertexId> = Vec::new();
    for d in newly_missing {
        let waiters = pending.waiters.entry(d.pack()).or_default();
        if waiters.is_empty() {
            to_pull.push(d);
        } else {
            // The dedup hub: an identical pull is already in flight, so
            // this waiter rides it instead of re-asking the owner.
            place.stats.place(me).on_pull_deduped();
        }
        waiters.push(li);
    }
    drop(pending);

    for d in &to_pull {
        place.stats.place(me).on_cache_miss();
        place.stats.place(me).on_pull_sent();
        sink.stamp(me, EventKind::CacheMiss, d.pack());
        sink.stamp(me, EventKind::PullIssue, d.pack());
        sink.send(me, place.dist.place_of(d.i, d.j), Msg::Pull { id: *d });
    }
    None
}

/// Publishes a computed value: store, flag, tell the driver, then
/// decrement anti-dependencies (locally or by message). The value moves
/// into the slab; everything after reads it there, and only a `Done`
/// to another place copies it.
pub fn publish<A: DpApp, S: Sink<A::Value>>(
    place: &Place<A>,
    sink: &mut S,
    slot: usize,
    li: u32,
    id: VertexId,
    value: A::Value,
    bufs: &mut WorkerBufs,
) {
    let shard = &place.shards[slot];
    // A second publication of a deterministic vertex carries the same
    // value; the first one stays.
    shard.values[li as usize].set(value).ok();
    if shard.finished[li as usize].swap(true, Ordering::AcqRel) {
        return; // double publication guard
    }
    let value = shard.value(li);
    // Fold the local cell before any dependent can become ready.
    agg_record(place, slot, id, value);
    shard.finished_local.fetch_add(1, Ordering::Relaxed);
    sink.finished(slot, id, value);

    bufs.anti.clear();
    place.pattern.anti_dependencies(id.i, id.j, &mut bufs.anti);

    let me = place.dist.places()[slot];
    for t in &bufs.anti {
        let tslot = place.dist.slot_of(t.i, t.j);
        if tslot == slot {
            decrement(place, sink, slot, *t);
            continue;
        }
        // Grouped in ascending place order, so the sends below leave in
        // an order that does not depend on a hasher: the simulator's
        // virtual clock is a function of it.
        let q = place.dist.places()[tslot].0;
        let k = match bufs.groups.binary_search_by_key(&q, |g| g.0) {
            Ok(k) => k,
            Err(k) => {
                bufs.groups.insert(k, (q, Vec::new()));
                k
            }
        };
        bufs.groups[k].1.push(*t);
    }
    for (q, targets) in bufs.groups.drain(..) {
        // Push mode sends the same `Done`: the receiver, in push mode
        // too, pins the value for its parked dependents.
        if place.comms == CommsMode::Push {
            place.stats.place(me).on_push_sent();
        }
        let msg = Msg::Done {
            from: id,
            value: value.clone(),
            targets,
        };
        sink.send(me, PlaceId(q), msg);
    }
}
