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
//! | `ready` | one worker per place: its own FIFO; several workers, or another slot's vertex: the shard's queue | the policy ready queue |
//! | `stamp` | recorder, wall clock | recorder, virtual clock |
//! | `exec` | compute now, reply `ExecResult` | queue for a worker slot |
//! | `finished` | checkpoint, `tasks_run`, exact kills and boundaries (global count only while one is armed) | finish count, fault time |
//!
//! A stencil pattern on a block distribution addresses a cell's local
//! edges by slab offset ([`crate::state::SlabStencil`]): inside its
//! chunk, `prepare` fills the ids from the offsets and lends the values
//! at `li + delta` ([`Gathered::Slab`]), and `publish` decrements at
//! `li + delta` in `anti_dependencies` order — no pattern query,
//! `slot_of` or `local_index`. Every other cell asks the pattern.
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

use crate::app::{DepView, DpApp, VertexValue};
use crate::config::CommsMode;
use crate::msg::Msg;
use crate::schedule::{min_comm_choice, random_choice, ScheduleStrategy};
use crate::state::{local_index, Fill, Shard, LENT};

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
    /// Every dependency is a stencil neighbour in the gathering shard:
    /// the first `n` references, read at fixed slab offsets.
    Slab([&'p V; LENT], usize),
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
            Gathered::Slab(values, _) => DepView::lent(ids, &values[..ids.len()]),
            Gathered::Lent(values) => DepView::lent(ids, &values[..ids.len()]),
            Gathered::Owned(values) => DepView::new(ids, &values[..ids.len()]),
        }
    }

    /// The values as owned copies, for a message ([`Msg::Exec`]).
    pub fn into_owned(self) -> Vec<V> {
        match self {
            Gathered::Slab(values, n) => values[..n].iter().map(|&v| v.clone()).collect(),
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
    decrement_at(&place.shards[slot], sink, slot, local_index(&place.dist, t));
}

/// [`decrement`] of the shard's local vertex `li`.
#[inline]
fn decrement_at<V, S: Sink<V>>(shard: &Shard<V>, sink: &mut S, slot: usize, li: u32) {
    if shard.finished[li as usize].load(Ordering::Acquire) {
        return;
    }
    let old = shard.indegree[li as usize].fetch_sub(1, Ordering::AcqRel);
    debug_assert!(
        old >= 1,
        "indegree underflow at {:?}",
        shard.points[li as usize]
    );
    if old == 1 {
        sink.ready(slot, li);
    }
}

/// Local index `li` moved by a slab delta of the shard's
/// [`SlabStencil`](crate::state::SlabStencil).
#[inline]
fn at(li: u32, delta: isize) -> u32 {
    (li as usize).wrapping_add_signed(delta) as u32
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
    let shard = &place.shards[slot];
    let (i, j) = shard.points[li as usize];
    bufs.deps.clear();
    let values = match lend(shard, li, VertexId::new(i, j), &mut bufs.deps) {
        Some(values) => {
            debug_assert!(
                {
                    let mut deps = Vec::new();
                    place.pattern.dependencies(i, j, &mut deps);
                    deps == bufs.deps
                },
                "the stencil of ({i}, {j}) is not its dependencies"
            );
            values
        }
        None => {
            place.pattern.dependencies(i, j, &mut bufs.deps);
            gather(place, sink, slot, li, &bufs.deps)?
        }
    };

    let me = place.dist.places()[slot];
    let target = match place.schedule {
        ScheduleStrategy::Local => me,
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

/// The stencil path of [`prepare`]: when every dependency of `id` is a
/// stencil neighbour in the shard's chunk and a DAG vertex, fills `deps`
/// from the offsets and lends the values at their slab deltas — no
/// `dependencies` call, no `slot_of` or `local_index`, no allocation.
/// `None` sends the vertex down the general path.
#[inline]
fn lend<'p, V: VertexValue>(
    shard: &'p Shard<V>,
    li: u32,
    id: VertexId,
    deps: &mut Vec<VertexId>,
) -> Option<Gathered<'p, V>> {
    let st = shard.stencil.as_ref()?;
    let deltas = st.dep_deltas(id.i, id.j)?;
    if !deltas.iter().all(|&d| shard.in_pattern[at(li, d) as usize]) {
        return None;
    }
    let inside = |o| {
        id.shifted(o)
            .expect("an interior cell's neighbours are on the matrix")
    };
    deps.extend(st.offsets().iter().map(|&o| inside(o)));
    debug_assert!(
        deps.iter()
            .zip(deltas)
            .all(|(d, &delta)| shard.points[at(li, delta) as usize] == (d.i, d.j)),
        "the slab deltas of {id} miss its stencil neighbours"
    );
    let mut values = [shard.value(at(li, deltas[0])); LENT];
    for (v, &d) in values.iter_mut().zip(deltas).skip(1) {
        *v = shard.value(at(li, d));
    }
    Some(Gathered::Slab(values, deltas.len()))
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

    // A stencil cell whose dependents all sit in this chunk decrements
    // them at their slab deltas, in `anti_dependencies` order.
    if let Some(deltas) = shard
        .stencil
        .as_ref()
        .and_then(|st| st.anti_deltas(id.i, id.j))
    {
        if deltas.iter().all(|&d| shard.in_pattern[at(li, d) as usize]) {
            debug_assert!(
                {
                    bufs.anti.clear();
                    place.pattern.anti_dependencies(id.i, id.j, &mut bufs.anti);
                    let slab = deltas.iter().map(|&d| shard.points[at(li, d) as usize]);
                    bufs.anti.iter().map(|t| (t.i, t.j)).eq(slab)
                },
                "the slab deltas of {id} are not its anti-dependencies in order"
            );
            for &d in deltas {
                decrement_at(shard, sink, slot, at(li, d));
            }
            return;
        }
    }

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

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use dpx10_apgas::{NetworkModel, StatsBoard, Topology};
    use dpx10_dag::{topological_order, BandedGrid3, BuiltinKind};
    use dpx10_distarray::{DistKind, Region2D};

    use super::*;
    use crate::state::build_shards;

    struct Zero;

    impl DpApp for Zero {
        type Value = u64;
        fn compute(&self, _id: VertexId, _deps: &DepView<'_, u64>) -> u64 {
            0
        }
    }

    /// Every vertex a publication decrements to zero: local `ready`s as
    /// `(slot, li)`, remote `Done` targets by id.
    #[derive(Default)]
    struct Log {
        ready: Vec<(usize, u32)>,
        sent: Vec<VertexId>,
    }

    impl Sink<u64> for Log {
        fn send(&mut self, _src: PlaceId, _dst: PlaceId, msg: Msg<u64>) {
            if let Msg::Done { targets, .. } = msg {
                self.sent.extend(targets);
            }
        }
        fn ready(&mut self, slot: usize, li: u32) {
            self.ready.push((slot, li));
        }
        fn stamp(&mut self, _place: PlaceId, _kind: EventKind, _arg: u64) {}
        fn exec(&mut self, _: usize, _: PlaceId, _: VertexId, _: Vec<VertexId>, _: Vec<u64>) {}
        fn finished(&mut self, _slot: usize, _id: VertexId, _value: &u64) {}
    }

    /// Publishes every vertex of `pattern` distributed by `kind` over
    /// `places`, in a topological order, with each open vertex one
    /// decrement from ready, and checks what each publication readied
    /// against `anti_dependencies`: the local ones in its order, the
    /// remote ones as a set. Returns how many cells decrement by slab
    /// offset.
    fn check_publish_order(pattern: &Arc<dyn DagPattern>, kind: DistKind, places: u16) -> usize {
        let what = format!("{} {kind:?} on {places}", pattern.name());
        let region = Region2D::new(pattern.height(), pattern.width());
        let dist = Arc::new(Dist::new(region, kind, (0..places).map(PlaceId).collect()));
        let (shards, _) = build_shards::<u64>(pattern.as_ref(), &dist, None, None, None, 4, None);
        let slab_cells = shards
            .iter()
            .map(|s| {
                let st = s.stencil.as_ref().expect("a stencil on a block kind");
                let slab = |&&(i, j): &&(u32, u32)| st.anti_deltas(i, j).is_some();
                s.points.iter().filter(slab).count()
            })
            .sum();
        let place = Place {
            app: Arc::new(Zero),
            pattern: pattern.clone(),
            dist: dist.clone(),
            shards,
            stats: StatsBoard::new(places),
            topo: Topology::flat(places),
            net: NetworkModel::tianhe_like(),
            schedule: ScheduleStrategy::Local,
            comms: CommsMode::Pull,
            agg: None,
        };
        let mut bufs = WorkerBufs::default();
        let mut anti = Vec::new();
        for id in topological_order(pattern.as_ref()).expect("acyclic") {
            for open in place.shards.iter().flat_map(|s| &s.indegree) {
                open.store(1, Ordering::Relaxed);
            }
            let (slot, li) = (dist.slot_of(id.i, id.j), local_index(&dist, id));
            let mut log = Log::default();
            publish(&place, &mut log, slot, li, id, 0, &mut bufs);
            anti.clear();
            pattern.anti_dependencies(id.i, id.j, &mut anti);
            let (local, mut remote): (Vec<_>, Vec<_>) =
                anti.iter().partition(|t| dist.slot_of(t.i, t.j) == slot);
            let point =
                |&(s, li): &(usize, u32)| VertexId::from(place.shards[s].points[li as usize]);
            let readied: Vec<_> = log.ready.iter().map(point).collect();
            assert_eq!(readied, local, "{what}: local decrements of {id}");
            log.sent.sort_unstable();
            remote.sort_unstable();
            assert_eq!(log.sent, remote, "{what}: remote decrements of {id}");
        }
        slab_cells
    }

    #[test]
    fn publish_decrements_in_anti_dependency_order() {
        // 9 × 7 leaves every chunk an interior on one place; 4 × 3 on
        // 2–4 places gives chunks no wider than a stencil's reach.
        for (height, width) in [(9, 7), (4, 3)] {
            let mut patterns: Vec<Arc<dyn DagPattern>> = BuiltinKind::ALL
                .into_iter()
                .filter(|kind| kind.instantiate(1, 1).stencil().is_some())
                .map(|kind| kind.instantiate(height, width).into())
                .collect();
            patterns.push(Arc::new(BandedGrid3::new(height.max(width), 2)));
            for pattern in &patterns {
                for kind in [DistKind::BlockRow, DistKind::BlockCol] {
                    for places in 1..=4 {
                        let slab_cells = check_publish_order(pattern, kind.clone(), places);
                        if (height, width, places) == (9, 7, 1) {
                            let name = pattern.name();
                            assert!(slab_cells > 0, "{name}: no cell decrements by offset");
                        }
                    }
                }
            }
        }
    }
}
