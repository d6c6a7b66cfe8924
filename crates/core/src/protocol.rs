//! The per-place vertex protocol (paper §VI-A/§VI-C), implemented once.
//!
//! What a place does with each [`Msg`], how a ready vertex gathers its
//! dependency values (local reads, FIFO cache, pinned pushes, then
//! park-and-pull with dedup), where it executes, and how a computed
//! value is published and its dependents decremented — for every
//! backend. Every handler takes the epoch's read-only [`Ctx`], the
//! [`Shard`] of the slot it acts for by `&mut` (its one owner's), and a
//! [`Sink`]: `(ctx, shard, sink, …)`. The handlers own all protocol
//! *state*; everything that differs between the drivers goes through the
//! five methods of [`Sink`]. Every host's `ready` is the same: it pushes
//! onto the shard's [`ReadyList`](crate::state::ReadyList), which on a
//! `BlockCol` chunk of a stencil with a sweep is a
//! [cursor](crate::state::ReadyList::Cursor) that runs rows up or down
//! per its `TileSweep` (a masked chunk's row spans too) and heeds only
//! its held cell, and FIFO elsewhere; the simulator runs no cursors. The
//! other four differ:
//!
//! | | threads / elastic mesh / socket places / served jobs | simulator |
//! |---|---|---|
//! | `send` | the epoch's `Transport` | a priced arrival event |
//! | `stamp` | recorder, wall clock | recorder, virtual clock |
//! | `exec` | compute now, reply `ExecResult` | queue for a worker slot |
//! | `finished` | checkpoint, exact kills and boundaries (global count only while one is armed) | `tasks_run`, finish count, fault time |
//!
//! A stencil pattern on a block distribution addresses a cell's local
//! edges by slab offset ([`crate::state::SlabStencil`]): inside its
//! chunk, `prepare` fills the ids from the offsets and lends the values
//! at `li + delta` ([`Gathered::Slab`]), and `publish` decrements at
//! `li + delta` in `anti_dependencies` order — no pattern query,
//! `slot_of` or `local_index`. Every other cell asks the pattern. On a
//! cursor shard `publish` decrements nothing in the chunk.
//!
//! Values are copied only where a second owner needs them. A gather
//! whose dependencies all live in the gathering shard lends references
//! into the slab ([`Gathered::Lent`]); `publish` moves the result into
//! the slab and reads it back by reference. What still clones: a
//! message (`Done`, `PullVal`, `Exec`), a pulled value's cache entry,
//! a pushed value's one pin, a pulled fill, and the values of a gather
//! that looked past its own shard ([`Gathered::Owned`], inline). What
//! still allocates per vertex: a [`Gathered::Lent`] list, a pull's
//! waiter list, and what outgrows an inline array; per message, a
//! batch, a frame and its decode.
//!
//! Doc-hidden like [`crate::state`]: public so `dpx10-sim` and the
//! delivery-order test driver can drive it, not a user-facing API.

use std::sync::Arc;

use dpx10_apgas::{Codec, NetworkModel, PlaceId, StatsBoard, Topology};
use dpx10_dag::{AggSpec, DagPattern, VertexId};
use dpx10_distarray::Dist;
use dpx10_obs::EventKind;

use crate::app::{DepView, DpApp, VertexValue};
use crate::config::CommsMode;
use crate::inline::InlineVec;
use crate::msg::{Msg, Targets};
use crate::schedule::{min_comm_choice, random_choice, ScheduleStrategy};
use crate::state::{at, lend, local_index, Fill, Shard, LENT};

/// What the protocol reads during one epoch and never mutates: the
/// application, the DAG, who owns what, and how values travel. The
/// shards are their owners'.
pub struct Ctx<A: DpApp> {
    /// The application (`compute` runs in the drivers; the protocol
    /// only asks it for aggregation keys).
    pub app: Arc<A>,
    /// The DAG pattern.
    pub pattern: Arc<dyn DagPattern>,
    /// The epoch's distribution over the live places.
    pub dist: Arc<Dist>,
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
    /// Local vertex `li` of `shard` became runnable.
    fn ready(&mut self, shard: &mut Shard<V>, li: u32);
    /// A flight-recorder instant at `place`, on the driver's clock.
    fn stamp(&mut self, place: PlaceId, kind: EventKind, arg: u64);
    /// `src` shipped vertex `id` here with its gathered dependencies
    /// ([`Msg::Exec`]) to run on `shard`'s place; the result must go back
    /// as [`Msg::ExecResult`].
    fn exec(
        &mut self,
        shard: &mut Shard<V>,
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
#[derive(Default)]
pub struct WorkerBufs {
    /// The dependencies of the vertex last handed to [`prepare`].
    pub deps: Vec<VertexId>,
    anti: Vec<VertexId>,
    /// Remote dependents by owning place, ascending.
    groups: Vec<(u16, Targets)>,
}

/// A ready vertex's dependency values, in dependency order, as
/// [`gather`] found them.
pub enum Gathered<'p, V> {
    /// Every dependency is a stencil neighbour in the gathering shard:
    /// the first `n` references, read at fixed slab offsets.
    Slab([&'p V; LENT], usize),
    /// Every dependency lives in the gathering shard: references into
    /// its slab.
    Lent(Vec<&'p V>),
    /// Some dependency came from the cache, a pin, a fill or another
    /// shard: copies, inline up to [`LENT`].
    Owned(InlineVec<V, LENT>),
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
            Gathered::Owned(values) => values.into_vec(),
        }
    }
}

/// Folds a finished cell's aggregation keys into the receiving shard's
/// lanes. Called from every value-delivery path (local publish, `Done`,
/// `PullVal`); the lanes are idempotent per cell, so overlapping
/// deliveries are harmless.
#[inline]
pub fn agg_record<A: DpApp>(
    ctx: &Ctx<A>,
    shard: &mut Shard<A::Value>,
    id: VertexId,
    value: &A::Value,
) {
    if let Some(table) = shard.aggs.as_mut() {
        table.record(id, |axis| ctx.app.agg_key(axis, id, value));
    }
}

/// Handles one message from `src` arriving at `shard`.
pub fn handle_msg<A: DpApp, S: Sink<A::Value>>(
    ctx: &Ctx<A>,
    shard: &mut Shard<A::Value>,
    sink: &mut S,
    src: PlaceId,
    msg: Msg<A::Value>,
    bufs: &mut WorkerBufs,
) {
    match msg {
        Msg::Done {
            from,
            value,
            targets,
        } => handle_done(ctx, shard, sink, from, value, targets),
        Msg::Pull { id } => handle_pull(ctx, shard, sink, src, id),
        Msg::PullVal { id, value } => handle_pull_val(ctx, shard, sink, id, value),
        Msg::Exec {
            id,
            dep_ids,
            dep_values,
        } => sink.exec(shard, src, id, dep_ids, dep_values),
        Msg::ExecResult { id, value } => {
            let li = local_index(&ctx.dist, id);
            publish(ctx, shard, sink, li, id, value, bufs);
        }
        // The batch variants replay the per-message handlers in send
        // order, so a coalesced run takes exactly the uncoalesced code
        // paths (the equivalence the differential oracle checks).
        Msg::DoneBatch { entries } => {
            for (from, value, targets) in entries {
                handle_done(ctx, shard, sink, from, value, targets);
            }
        }
        Msg::PullBatch { ids } => {
            for id in ids {
                handle_pull(ctx, shard, sink, src, id);
            }
        }
        Msg::PullValBatch { entries } => {
            for (id, value) in entries {
                handle_pull_val(ctx, shard, sink, id, value);
            }
        }
    }
}

/// [`Msg::Done`]: land the value in the consumer cache, decrement the
/// receiver-owned dependents. A place in push mode also *pins* the value,
/// once for all of its unfinished targets that have not parked: each
/// one's gather takes a share, so it finds the value even after cache
/// eviction (the pull round-trip never happens), and the last removes
/// the pin. A target parked with a pull in flight for the value (the
/// consumer raced ahead) is filled right here; the eventual `PullVal`
/// reply then finds the slot occupied and is a no-op for it.
fn handle_done<A: DpApp, S: Sink<A::Value>>(
    ctx: &Ctx<A>,
    shard: &mut Shard<A::Value>,
    sink: &mut S,
    from: VertexId,
    value: A::Value,
    targets: Targets,
) {
    // Fold before decrementing: when a target's indegree hits zero its
    // interval lanes must already cover this cell.
    agg_record(ctx, shard, from, &value);
    let key = from.pack();
    if ctx.comms == CommsMode::Push {
        let mut readers = 0;
        for t in targets.iter() {
            let tli = local_index(&ctx.dist, *t);
            if shard.finished(tli) {
                continue;
            }
            let parked = shard.pending.parked.get_mut(&tli);
            match parked.and_then(|p| p.supply(key, || Fill::Pushed(value.clone()))) {
                // Parked with a pull outstanding and now complete: ready
                // it (the decrement below is a no-op then — the vertex
                // parked *after* its indegree hit zero).
                Some(true) => sink.ready(shard, tli),
                // Filled, or a pull or an earlier push beat us.
                Some(false) => {}
                // Not yet gathered: a reader of the pin.
                None => readers += 1,
            }
        }
        if readers > 0 {
            let pin = shard.pending.pins.entry(key);
            pin.or_insert_with(|| (value.clone(), 0)).1 += readers;
        }
    }
    shard.cache.insert(key, value);
    for t in targets.iter() {
        decrement_at(shard, sink, local_index(&ctx.dist, *t));
    }
}

/// [`Msg::Pull`]: reply with the finished value of `id`.
fn handle_pull<A: DpApp, S: Sink<A::Value>>(
    ctx: &Ctx<A>,
    shard: &Shard<A::Value>,
    sink: &mut S,
    src: PlaceId,
    id: VertexId,
) {
    let li = local_index(&ctx.dist, id);
    debug_assert!(shard.finished(li), "pull of unfinished vertex {id}");
    let value = shard.value(li).clone();
    let me = ctx.dist.places()[shard.slot];
    sink.send(me, src, Msg::PullVal { id, value });
}

/// [`Msg::PullVal`]: cache the value and fill every parked waiter.
fn handle_pull_val<A: DpApp, S: Sink<A::Value>>(
    ctx: &Ctx<A>,
    shard: &mut Shard<A::Value>,
    sink: &mut S,
    id: VertexId,
    value: A::Value,
) {
    let me = ctx.dist.places()[shard.slot];
    sink.stamp(me, EventKind::PullFill, id.pack());
    agg_record(ctx, shard, id, &value);
    shard.cache.insert(id.pack(), value.clone());
    let Some(waiters) = shard.pending.waiters.remove(&id.pack()) else {
        return;
    };
    for wli in waiters {
        // A slot already filled (e.g. by a racing push) keeps its value;
        // the reply only lands on Missing slots.
        let parked = shard.pending.parked.get_mut(&wli);
        if parked.and_then(|p| p.supply(id.pack(), || Fill::Pulled(value.clone()))) == Some(true) {
            sink.ready(shard, wli);
        }
    }
}

/// Decrements the indegree of the shard's local vertex `li`; readies it
/// at zero.
///
/// Targets already finished are skipped: after a recovery, a recomputed
/// vertex publishes again and would otherwise decrement dependents that
/// were restored as finished (whose epoch-start indegree is zero).
#[inline]
fn decrement_at<V: VertexValue, S: Sink<V>>(shard: &mut Shard<V>, sink: &mut S, li: u32) {
    if shard.finished(li) {
        return;
    }
    let open = &mut shard.indegree[li as usize];
    debug_assert!(
        *open >= 1,
        "indegree underflow at {:?}",
        shard.points.get(li)
    );
    *open -= 1;
    if *open == 0 {
        sink.ready(shard, li);
    }
}

/// The owner-side half of executing ready vertex `li`, cell `id`:
/// enumerate its dependencies into `bufs.deps`, gather their values,
/// and choose where it runs. `None` means the vertex parked awaiting pulls. Shipping to a
/// remote target ([`Msg::Exec`]) and `compute` itself are the driver's.
///
/// The stencil path: when every dependency is a stencil neighbour in
/// the shard's chunk and a DAG vertex, the ids come from the offsets
/// and the values are lent at their slab deltas — no `dependencies`
/// call, no `slot_of` or `local_index`, no allocation.
pub fn prepare<'s, A: DpApp, S: Sink<A::Value>>(
    ctx: &Ctx<A>,
    shard: &'s mut Shard<A::Value>,
    sink: &mut S,
    li: u32,
    id: VertexId,
    bufs: &mut WorkerBufs,
) -> Option<(PlaceId, Gathered<'s, A::Value>)> {
    let (i, j) = (id.i, id.j);
    let me = ctx.dist.places()[shard.slot];
    bufs.deps.clear();
    let stencil = shard.stencil.as_ref();
    let values = match shard.slab(li, stencil.and_then(|st| st.dep_deltas(i, j))) {
        Some((deltas, n)) => {
            let shard: &'s Shard<A::Value> = shard;
            let st = shard.stencil.as_ref().expect("a slab path has a stencil");
            bufs.deps.extend(st.neighbours(id));
            debug_assert!(
                {
                    let mut deps = Vec::new();
                    ctx.pattern.dependencies(i, j, &mut deps);
                    deps == bufs.deps
                },
                "the stencil of ({i}, {j}) is not its dependencies"
            );
            debug_assert!(
                bufs.deps
                    .iter()
                    .zip(&deltas[..n])
                    .all(|(d, &delta)| shard.points.get(at(li, delta)) == (d.i, d.j)),
                "the slab deltas of {id} miss its stencil neighbours"
            );
            debug_assert!(deltas[..n].iter().all(|&d| shard.finished(at(li, d))));
            Gathered::Slab(lend(&shard.values, li as usize, &deltas[..n]), n)
        }
        None => {
            ctx.pattern.dependencies(i, j, &mut bufs.deps);
            gather(ctx, shard, sink, li, &bufs.deps)?
        }
    };

    let target = match ctx.schedule {
        ScheduleStrategy::Local => me,
        ScheduleStrategy::Random => random_choice(id, ctx.dist.places()),
        ScheduleStrategy::MinComm => {
            let homes: Vec<PlaceId> = bufs
                .deps
                .iter()
                .map(|d| ctx.dist.place_of(d.i, d.j))
                .collect();
            let view = values.view(&bufs.deps);
            let bytes: Vec<usize> = view.values().map(Codec::wire_size).collect();
            let result_bytes = view.values().next().map_or(8, Codec::wire_size);
            min_comm_choice(
                me,
                ctx.dist.places(),
                &homes,
                &bytes,
                result_bytes,
                &ctx.topo,
                &ctx.net,
            )
        }
    };
    Some((target, values))
}

/// Gathers dependency values: local reads, then cache, then a pushed
/// value's pin, then previously pulled fills; parks the vertex and
/// issues pulls for anything missing.
///
/// A vertex whose dependencies all live in its own shard borrows them
/// from the slab: it can never have parked (parking needs a value
/// missing from both slab and cache, and a push pins only vertices with
/// a remote dependency), and it touches neither cache nor counters. Any
/// other vertex gets copies, inline up to [`LENT`] of them.
pub fn gather<'s, A: DpApp, S: Sink<A::Value>>(
    ctx: &Ctx<A>,
    shard: &'s mut Shard<A::Value>,
    sink: &mut S,
    li: u32,
    deps: &[VertexId],
) -> Option<Gathered<'s, A::Value>> {
    let (dist, slot) = (&ctx.dist, shard.slot);
    let local = deps.iter().take_while(|d| dist.slot_of(d.i, d.j) == slot);
    let local = local.count();
    if local == deps.len() {
        let shard: &'s Shard<A::Value> = shard;
        let lent = deps.iter().map(|d| shard.value(local_index(dist, *d)));
        return Some(Gathered::Lent(lent.collect()));
    }
    let me = dist.places()[slot];

    // The local prefix is known; the rest may need the cache or a pin.
    // Each gather takes its share of a pin once, and counts the pull
    // round-trip it saved only when the pin supplied the value.
    let mut vals: InlineVec<Option<A::Value>, LENT> = InlineVec::with_capacity(deps.len());
    let mut took: InlineVec<(usize, bool), LENT> = InlineVec::default();
    for (k, d) in deps.iter().enumerate() {
        let key = d.pack();
        let value = if k < local || dist.slot_of(d.i, d.j) == slot {
            Some(shard.value(local_index(dist, *d)).clone())
        } else if let Some(v) = shard.cache.get(key) {
            ctx.stats.place(me).on_cache_hit();
            sink.stamp(me, EventKind::CacheHit, key);
            if shard.pending.unpin(key, false).is_some() {
                took.push((k, false));
            }
            Some(v.clone())
        } else if let Some(Some(v)) = shard.pending.unpin(key, true) {
            ctx.stats.place(me).on_pull_roundtrip_avoided();
            took.push((k, true));
            Some(v)
        } else {
            None
        };
        vals.push(value);
    }

    // A re-gather reads its fills. Consuming a pushed fill is the
    // round-trip the push saved; it demotes to Pulled so a later
    // re-gather of a still-parked vertex doesn't count it twice.
    let pending = &mut shard.pending;
    if let Some(p) = pending.parked.get_mut(&li) {
        for (k, d) in deps.iter().enumerate() {
            let Some(fill) = p.fills.get_mut(&d.pack()).filter(|_| vals[k].is_none()) else {
                continue;
            };
            if let Fill::Pushed(v) = fill {
                ctx.stats.place(me).on_pull_roundtrip_avoided();
                *fill = Fill::Pulled(std::mem::take(v));
            }
            vals[k] = fill.value().cloned();
        }
    }
    if vals.iter().all(Option::is_some) {
        pending.parked.remove(&li);
        let vals = vals.iter_mut().map(|v| v.take().expect("all found"));
        return Some(Gathered::Owned(vals.collect()));
    }

    // Park. A pin this gather took is the vertex's now, as a fill: a
    // re-gather does not take it again, and counts it only if this one
    // did not (the cache supplied the value).
    let entry = pending.parked.entry(li).or_default();
    for &(k, counted) in took.iter() {
        entry.fills.entry(deps[k].pack()).or_insert_with(|| {
            let value = vals[k].take().expect("a taken pin has a value");
            match counted {
                true => Fill::Pulled(value),
                false => Fill::Pushed(value),
            }
        });
    }
    for (k, d) in deps.iter().enumerate() {
        let key = d.pack();
        if vals[k].is_some() || entry.fills.contains_key(&key) {
            continue;
        }
        entry.fills.insert(key, Fill::Missing);
        entry.remaining += 1;
        let waiters = pending.waiters.entry(key).or_default();
        waiters.push(li);
        if waiters.len() > 1 {
            // The dedup hub: an identical pull is already in flight, so
            // this waiter rides it instead of re-asking the owner.
            ctx.stats.place(me).on_pull_deduped();
            continue;
        }
        ctx.stats.place(me).on_cache_miss();
        ctx.stats.place(me).on_pull_sent();
        sink.stamp(me, EventKind::CacheMiss, key);
        sink.stamp(me, EventKind::PullIssue, key);
        sink.send(me, dist.place_of(d.i, d.j), Msg::Pull { id: *d });
    }
    None
}

/// Publishes a computed value: store, flag, tell the driver, then
/// decrement anti-dependencies (locally or by message). The value moves
/// into the slab; everything after reads it there, and only a `Done`
/// to another place copies it.
pub fn publish<A: DpApp, S: Sink<A::Value>>(
    ctx: &Ctx<A>,
    shard: &mut Shard<A::Value>,
    sink: &mut S,
    li: u32,
    id: VertexId,
    value: A::Value,
    bufs: &mut WorkerBufs,
) {
    if !shard.finish(li, value) {
        return; // double publication guard
    }
    // Fold the local cell before any dependent can become ready; the
    // table is out of the shard while the value borrows the slab.
    if let Some(mut table) = shard.aggs.take() {
        table.record(id, |axis| ctx.app.agg_key(axis, id, shard.value(li)));
        shard.aggs = Some(table);
    }
    let value = shard.value(li);
    sink.finished(shard.slot, id, value);

    // A stencil cell whose dependents all sit in this chunk decrements
    // them at their slab deltas, in `anti_dependencies` order. A cursor
    // shard counts no in-chunk edge: it decrements nothing here.
    let counts_local = !shard.ready.is_cursor();
    let stencil = shard.stencil.as_ref();
    if let Some((deltas, n)) = shard.slab(li, stencil.and_then(|st| st.anti_deltas(id.i, id.j))) {
        debug_assert!(
            {
                bufs.anti.clear();
                ctx.pattern.anti_dependencies(id.i, id.j, &mut bufs.anti);
                let slab = deltas[..n].iter().map(|&d| shard.points.get(at(li, d)));
                bufs.anti.iter().map(|t| (t.i, t.j)).eq(slab)
            },
            "the slab deltas of {id} are not its anti-dependencies in order"
        );
        for &d in deltas[..n].iter().filter(|_| counts_local) {
            decrement_at(shard, sink, at(li, d));
        }
        return;
    }

    bufs.anti.clear();
    ctx.pattern.anti_dependencies(id.i, id.j, &mut bufs.anti);

    let (dist, slot) = (&ctx.dist, shard.slot);
    for t in &bufs.anti {
        let tslot = dist.slot_of(t.i, t.j);
        if tslot == slot {
            if counts_local {
                decrement_at(shard, sink, local_index(dist, *t));
            }
            continue;
        }
        // Grouped in ascending place order, so the sends below leave in
        // an order that does not depend on a hasher: the simulator's
        // virtual clock is a function of it.
        let q = dist.places()[tslot].0;
        let k = match bufs.groups.binary_search_by_key(&q, |g| g.0) {
            Ok(k) => k,
            Err(k) => {
                bufs.groups.insert(k, (q, Targets::default()));
                k
            }
        };
        bufs.groups[k].1.push(*t);
    }
    let me = dist.places()[slot];
    let value = shard.value(li);
    for (q, targets) in bufs.groups.drain(..) {
        // Push mode sends the same `Done`: the receiver, in push mode
        // too, pins the value for its parked dependents.
        if ctx.comms == CommsMode::Push {
            ctx.stats.place(me).on_push_sent();
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
pub(crate) mod tests {
    use dpx10_apgas::{NetworkModel, StatsBoard, Topology};
    use dpx10_dag::{topological_order, BandedGrid3, BuiltinKind};
    use dpx10_distarray::{DistKind, Region2D};

    use super::*;
    use crate::state::Start;

    pub(crate) struct Zero;

    impl DpApp for Zero {
        type Value = u64;
        fn compute(&self, _id: VertexId, _deps: &DepView<'_, u64>) -> u64 {
            0
        }
    }

    /// The pull-mode, local-schedule context of `pattern` distributed
    /// by `kind` over `places`.
    pub(crate) fn ctx_of(pattern: Arc<dyn DagPattern>, kind: DistKind, places: u16) -> Ctx<Zero> {
        let region = Region2D::new(pattern.height(), pattern.width());
        let dist = Dist::new(region, kind, (0..places).map(PlaceId).collect());
        Ctx {
            app: Arc::new(Zero),
            pattern,
            dist: Arc::new(dist),
            stats: StatsBoard::new(places),
            topo: Topology::flat(places),
            net: NetworkModel::tianhe_like(),
            schedule: ScheduleStrategy::Local,
            comms: CommsMode::Pull,
            agg: None,
        }
    }

    /// [`ctx_of`] over block columns.
    pub(crate) fn ctx(pattern: Arc<dyn DagPattern>, places: u16) -> Ctx<Zero> {
        ctx_of(pattern, DistKind::BlockCol, places)
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
                self.sent.extend(targets.iter());
            }
        }
        fn ready(&mut self, shard: &mut Shard<u64>, li: u32) {
            self.ready.push((shard.slot, li));
        }
        fn stamp(&mut self, _place: PlaceId, _kind: EventKind, _arg: u64) {}
        fn exec(
            &mut self,
            _: &mut Shard<u64>,
            _: PlaceId,
            _: VertexId,
            _: Vec<VertexId>,
            _: Vec<u64>,
        ) {
        }
        fn finished(&mut self, _slot: usize, _id: VertexId, _value: &u64) {}
    }

    /// Publishes every vertex of `pattern` distributed by `kind` over
    /// `places`, in a topological order, with each open vertex one
    /// decrement from ready, and checks what each publication readied
    /// against `anti_dependencies`: the local ones in its order, the
    /// remote ones as a set. On a cursor shard (Grid3, IntervalUpper
    /// and the other stencils with a sweep, on `BlockCol`) the same
    /// publication readies no local vertex and sends the same remote
    /// targets.
    /// Returns how many cells decrement by slab offset.
    fn check_publish_order(pattern: &Arc<dyn DagPattern>, kind: DistKind, places: u16) -> usize {
        let what = format!("{} {kind:?} on {places}", pattern.name());
        let ctx = ctx_of(pattern.clone(), kind, places);
        let dist = ctx.dist.clone();
        let mut start = Start {
            prior: None,
            meta: None,
            init: None,
            cache_capacity: 4,
            cursors: false,
        };
        let mut shards = start.build_all(&ctx);
        start.cursors = true;
        let mut cursors = start.build_all(&ctx);
        let slab_cells = shards
            .iter()
            .map(|s| {
                let st = s.stencil.as_ref().expect("a stencil on a block kind");
                let slab = |&(i, j): &(u32, u32)| st.anti_deltas(i, j).is_some();
                s.points.iter().filter(slab).count()
            })
            .sum();
        let mut bufs = WorkerBufs::default();
        let mut anti = Vec::new();
        for id in topological_order(pattern.as_ref()).expect("acyclic") {
            for open in shards.iter_mut().flat_map(|s| &mut s.indegree) {
                *open = 1;
            }
            let (slot, li) = (dist.slot_of(id.i, id.j), local_index(&dist, id));
            let mut log = Log::default();
            publish(&ctx, &mut shards[slot], &mut log, li, id, 0, &mut bufs);
            anti.clear();
            pattern.anti_dependencies(id.i, id.j, &mut anti);
            let (local, mut remote): (Vec<_>, Vec<_>) =
                anti.iter().partition(|t| dist.slot_of(t.i, t.j) == slot);
            let point = |&(s, li): &(usize, u32)| VertexId::from(shards[s].points.get(li));
            let readied: Vec<_> = log.ready.iter().map(point).collect();
            assert_eq!(readied, local, "{what}: local decrements of {id}");
            log.sent.sort_unstable();
            remote.sort_unstable();
            assert_eq!(log.sent, remote, "{what}: remote decrements of {id}");

            let mut log = Log::default();
            if cursors[slot].ready.is_cursor() {
                cursors[slot].indegree.fill(1);
                publish(&ctx, &mut cursors[slot], &mut log, li, id, 0, &mut bufs);
                log.sent.sort_unstable();
                assert_eq!(
                    (log.ready, log.sent),
                    (vec![], remote),
                    "{what}: cursor, {id}"
                );
            }
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
