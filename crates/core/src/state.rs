//! Per-place runtime state of an epoch, shared by every driver of
//! [`crate::protocol`]: the [`Shard`] one worker owns, the [`Progress`]
//! it publishes, and the [`Start`] every shard is built from.
//! A shard's ready list is FIFO, or a cursor that sweeps its chunk's
//! rows up or down, per its stencil's [`TileSweep`], and whose shard
//! counts only cross-chunk edges ([`ReadyList::Cursor`]).
//!
//! A block chunk is a rectangle ([`Points::Rect`]): a local index maps to
//! its cell by a divide and a multiply-add, and only a masked pattern
//! keeps a per-cell hole map. A fresh cursor shard writes counters only
//! on its border, the cells outside the stencil's `dep_inner`; every
//! interior counter is zero by construction.

use std::collections::hash_map::Entry;
use std::collections::{HashSet, VecDeque};
use std::ops::Range;
use std::sync::atomic::AtomicU64;

use dpx10_dag::tiled::{stencil_anti_order, Reach, TileSweep};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_distarray::{AggTable, Dist, DistArray, DistKind};

use crate::app::{DpApp, VertexValue};
use crate::cache::{FifoCache, IdMap};
use crate::config::InitOverride;
use crate::protocol::Ctx;

/// One dependency slot of a [`Parked`] vertex.
#[derive(Debug)]
pub enum Fill<V> {
    /// No value yet; a pull round-trip is (or is about to be) in flight.
    Missing,
    /// Filled by a `PullVal` reply, or by a pin whose saved round-trip
    /// the vertex counted before it parked.
    Pulled(V),
    /// Filled by a push (a producer's `Done` while the pull was in
    /// flight, or a pin taken on a cache hit) and not yet counted:
    /// consuming it on re-gather counts as an avoided pull round-trip.
    Pushed(V),
}

impl<V> Fill<V> {
    /// The slot's value, if any mode delivered one.
    pub fn value(&self) -> Option<&V> {
        match self {
            Fill::Missing => None,
            Fill::Pulled(v) | Fill::Pushed(v) => Some(v),
        }
    }
}

/// A vertex parked because some remote dependency values were missing
/// from the cache; pull replies (or eager pushes) fill the slots and
/// re-ready the vertex.
#[derive(Debug, Default)]
pub struct Parked<V> {
    /// Missing dependency (packed id) -> its fill slot.
    pub fills: IdMap<u64, Fill<V>>,
    /// Number of still-[`Fill::Missing`] entries.
    pub remaining: usize,
}

impl<V> Parked<V> {
    /// Fills the slot of dependency `key` with `fill()` if it is still
    /// [`Fill::Missing`]: `None` when the vertex has no slot for `key`,
    /// else whether it was the vertex's last missing one.
    pub fn supply(&mut self, key: u64, fill: impl FnOnce() -> Fill<V>) -> Option<bool> {
        let slot = self.fills.get_mut(&key)?;
        if !matches!(slot, Fill::Missing) {
            return Some(false);
        }
        *slot = fill();
        self.remaining -= 1;
        Some(self.remaining == 0)
    }
}

/// Pull and push bookkeeping of one place.
#[derive(Debug, Default)]
pub struct Pending<V> {
    /// Parked vertices by local index.
    pub parked: IdMap<u32, Parked<V>>,
    /// Outstanding pulls: packed dep id -> parked local indices waiting.
    pub waiters: IdMap<u64, Vec<u32>>,
    /// Pushed values by packed id, with the number of unfinished local
    /// targets yet to gather them (push mode): one pin per value.
    pub pins: IdMap<u64, (V, u32)>,
}

impl<V: Clone> Pending<V> {
    /// Takes one reader's share of the value pinned under `key`: `None`
    /// without a pin, else the value if `want` — a copy, or the value
    /// itself for the last reader, which removes the pin.
    pub fn unpin(&mut self, key: u64, want: bool) -> Option<Option<V>> {
        let Entry::Occupied(mut pin) = self.pins.entry(key) else {
            return None;
        };
        pin.get_mut().1 -= 1;
        Some(match pin.get().1 {
            0 => Some(pin.remove().0).filter(|_| want),
            _ => want.then(|| pin.get().0.clone()),
        })
    }
}

/// The most stencil offsets a cell's dependencies are lent for, by the
/// tile kernel and by [`SlabStencil`]; a pattern with a longer stencil
/// takes the general path.
pub const LENT: usize = 8;

/// A stencil pattern's edges inside one block chunk, as slab offsets.
///
/// A block chunk is a rectangle stored row-major, so the neighbour at
/// stencil offset `(di, dj)` of local index `li` sits at
/// `li + di * width + dj` whenever it is in the chunk. Two insets of the
/// chunk say where that holds for every offset: the stencil's reach for
/// dependencies, the mirrored reach for anti-dependencies. A cell in
/// one of them whose neighbours there are all DAG vertices addresses
/// those edges by an add, without `slot_of` or `local_index`.
pub struct SlabStencil {
    /// The dependency offsets, in declared (`dependencies`) order.
    offsets: [(i32, i32); LENT],
    /// Number of offsets.
    len: usize,
    /// Slab deltas of `offsets`.
    dep_deltas: [isize; LENT],
    /// Slab deltas of the mirrored offsets, in `anti_dependencies`
    /// order — which need not be `offsets`' order (Pyramid's is not).
    anti_deltas: [isize; LENT],
    /// Cells whose every dependency offset lands in the chunk.
    dep_inner: (Range<u32>, Range<u32>),
    /// Cells whose every anti-dependency offset lands in the chunk;
    /// empty when no cell showed the anti order.
    anti_inner: (Range<u32>, Range<u32>),
}

impl SlabStencil {
    /// The stencil addressing of `slot`'s chunk: `Some` when `pattern`
    /// declares a stencil of 1 to [`LENT`] offsets and `dist` is a block
    /// kind. The anti order is read off the first cell of the chunk
    /// whose anti-dependencies are all in it and in the pattern (the
    /// stencil contract makes every such cell agree).
    fn of(
        pattern: &dyn DagPattern,
        dist: &Dist,
        slot: usize,
        in_pattern: Option<&[bool]>,
    ) -> Option<Self> {
        let stencil = pattern
            .stencil()
            .filter(|s| (1..=LENT).contains(&s.len()))?;
        let chunk = dist.block_bounds(slot)?;
        let (row0, col0, width) = (chunk.0.start, chunk.1.start, chunk.1.len());
        let delta = |(di, dj): (i32, i32)| di as isize * width as isize + dj as isize;
        let reach = Reach::of(stencil);
        let mut st = SlabStencil {
            offsets: [(0, 0); LENT],
            len: stencil.len(),
            dep_deltas: [0; LENT],
            anti_deltas: [0; LENT],
            dep_inner: reach.inset(chunk.clone()),
            anti_inner: (row0..row0, col0..col0),
        };
        st.offsets[..st.len].copy_from_slice(stencil);
        for (d, &o) in st.dep_deltas.iter_mut().zip(stencil) {
            *d = delta(o);
        }

        let (rows, cols) = reach.mirrored().inset(chunk);
        let li = |c: VertexId| (c.i - row0) as usize * width + (c.j - col0) as usize;
        let vertex = |li: usize| in_pattern.map_or(true, |mask| mask[li]);
        let open = |c: VertexId| {
            let dependent = |&o: &(i32, i32)| vertex(li(c).wrapping_add_signed(-delta(o)));
            vertex(li(c)) && stencil.iter().all(dependent)
        };
        let mut cells = rows
            .clone()
            .flat_map(|i| cols.clone().map(move |j| VertexId::new(i, j)));
        if let Some(order) = cells
            .find(|&c| open(c))
            .and_then(|c| stencil_anti_order(pattern, c))
        {
            for (d, k) in st.anti_deltas.iter_mut().zip(order) {
                *d = -delta(stencil[k]);
            }
            st.anti_inner = (rows, cols);
        }
        Some(st)
    }

    /// The dependency offsets, in `dependencies` order.
    #[inline]
    pub fn offsets(&self) -> &[(i32, i32)] {
        &self.offsets[..self.len]
    }

    /// The dependencies of a cell whose offsets all land in the chunk,
    /// in `dependencies` order.
    pub(crate) fn neighbours(&self, id: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let on_matrix = "an interior cell's neighbours are on the matrix";
        (self.offsets().iter()).map(move |&o| id.shifted(o).expect(on_matrix))
    }

    /// The row order, columns ascending, that is a topological order of
    /// the chunk: rows up when every dependency offset points into
    /// earlier storage (`di < 0`, or `di == 0 && dj < 0`), else rows
    /// down when every one points to a later row or left in its own
    /// (`di > 0`, or `di == 0 && dj < 0`).
    fn sweep(&self) -> Option<TileSweep> {
        let all = |row: fn(i32) -> bool| {
            (self.offsets().iter()).all(|&(di, dj)| row(di) || (di == 0 && dj < 0))
        };
        if all(|di| di < 0) {
            Some(TileSweep::RowsUpColsUp)
        } else if all(|di| di > 0) {
            Some(TileSweep::RowsDownColsUp)
        } else {
            None
        }
    }

    /// One past the last column of row cells whose dependencies and
    /// anti-dependencies all land in the chunk.
    #[inline]
    pub(crate) fn interior_end(&self) -> u32 {
        self.dep_inner.1.end.min(self.anti_inner.1.end)
    }

    /// The slab deltas of `(i, j)`'s dependencies, in `dependencies`
    /// order, if they all land in the chunk.
    #[inline]
    pub fn dep_deltas(&self, i: u32, j: u32) -> Option<&[isize]> {
        let (rows, cols) = &self.dep_inner;
        (rows.contains(&i) && cols.contains(&j)).then(|| &self.dep_deltas[..self.len])
    }

    /// The slab deltas of `(i, j)`'s anti-dependencies, in
    /// `anti_dependencies` order, if they all land in the chunk.
    #[inline]
    pub fn anti_deltas(&self, i: u32, j: u32) -> Option<&[isize]> {
        let (rows, cols) = &self.anti_inner;
        (rows.contains(&i) && cols.contains(&j)).then(|| &self.anti_deltas[..self.len])
    }
}

/// The values at slab `deltas` from `idx`, lent for a `compute` (the
/// stencil gather, the cursor and the tile kernel read them so).
#[inline]
pub(crate) fn lend<'s, V>(slab: &'s [V], idx: usize, deltas: &[isize]) -> [&'s V; LENT] {
    let mut refs = [&slab[idx]; LENT];
    for (r, &d) in refs.iter_mut().zip(deltas) {
        *r = &slab[idx.wrapping_add_signed(d)];
    }
    refs
}

/// Local index `li` moved by a slab delta of a [`SlabStencil`].
#[inline]
pub(crate) fn at(li: u32, delta: isize) -> u32 {
    (li as usize).wrapping_add_signed(delta) as u32
}

/// A shard's ready list: "contains the schedulable and uncompleted
/// vertices" (§VI-C). The paper gives it no order; [`Start::build`]
/// picks one per shard, from its stencil, its distribution's kind and
/// its host.
#[derive(Clone)]
pub enum ReadyList {
    /// Oldest first. Seeds are pushed in ascending local index.
    Fifo(VecDeque<u32>),
    /// A sweep of the chunk, where the host runs cursors
    /// ([`Start::cursors`]), on a `BlockCol` chunk whose stencil has a
    /// [`TileSweep`] ([`SlabStencil::sweep`]): row by row like the
    /// hand-written loop, rows up for the wavefront stencils, rows down
    /// for the interval ones, columns ascending. The sweep is
    /// topological for every in-chunk edge, so the shard counts only
    /// cross-chunk ones.
    Cursor(Cursor),
}

/// Where a [`ReadyList::Cursor`] stands in its chunk's sweep.
#[derive(Clone)]
pub struct Cursor {
    /// The cell it stands on: every cell it has passed is finished or
    /// a hole.
    pub(crate) next: u32,
    /// `next` was popped and is unfinished: it parked or was shipped,
    /// and waits to be named ready or published.
    pub(crate) held: bool,
    /// One past the last cell of `next`'s row.
    row_end: u32,
    /// The chunk's row length.
    width: u32,
    /// Rows up or down; columns always ascend.
    sweep: TileSweep,
}

impl Cursor {
    /// A cursor on the first cell `sweep` visits of a `rows × width`
    /// chunk: its first row's, or its last row's.
    fn new(sweep: TileSweep, rows: u32, width: u32) -> Self {
        let row_end = match sweep {
            TileSweep::RowsUpColsUp => width,
            TileSweep::RowsDownColsUp => rows * width,
        };
        Cursor {
            next: row_end.wrapping_sub(width),
            held: false,
            row_end,
            width,
            sweep,
        }
    }

    /// Moves `k` cells on along `next`'s row (never past its end), and
    /// from its end to the start of the next row of the sweep. Past the
    /// sweep's last row `next` indexes no cell: rows down, it wraps.
    #[inline]
    pub(crate) fn pass(&mut self, k: u32) {
        (self.next, self.held) = (self.next + k, false);
        if self.next == self.row_end {
            self.row_end = match self.sweep {
                TileSweep::RowsUpColsUp => self.row_end + self.width,
                TileSweep::RowsDownColsUp => self.row_end.wrapping_sub(self.width),
            };
            self.next = self.row_end.wrapping_sub(self.width);
        }
    }
}

impl ReadyList {
    /// The order `dist`'s kind, the shard's `stencil` and the host call
    /// for, over the chunk's `points`.
    fn for_shard(
        dist: &Dist,
        points: &Points,
        stencil: Option<&SlabStencil>,
        cursors: bool,
    ) -> Self {
        let block_col = matches!(dist.kind(), DistKind::BlockCol);
        match (points, stencil.and_then(SlabStencil::sweep)) {
            (Points::Rect(rows, cols), Some(sweep)) if cursors && block_col => {
                ReadyList::Cursor(Cursor::new(sweep, rows.len() as u32, cols.len() as u32))
            }
            _ => ReadyList::Fifo(VecDeque::new()),
        }
    }

    /// Whether this is a cursor: the shard counts no in-chunk edge.
    #[inline]
    pub(crate) fn is_cursor(&self) -> bool {
        matches!(self, ReadyList::Cursor(_))
    }

    /// Local vertex `li` became runnable. A cursor heeds only the news
    /// of the cell it holds.
    #[inline]
    pub fn push(&mut self, li: u32) {
        match self {
            ReadyList::Fifo(q) => q.push_back(li),
            ReadyList::Cursor(c) => c.held &= li != c.next,
        }
    }
}

/// Whether a cell is finished, and whether its value is in the slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// Not finished.
    Open,
    /// Finished per a `Resume`'s metadata; the value lives with its
    /// owner, which serves pulls for it.
    Elsewhere,
    /// Finished, its value in the slab.
    Done,
}

/// A shard's cells in chunk order: local index -> global coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Points {
    /// A block chunk: the rectangle `rows × cols`, stored row-major.
    Rect(Range<u32>, Range<u32>),
    /// Any other chunk (the cyclic and custom kinds), listed.
    List(Vec<(u32, u32)>),
}

impl Points {
    /// Slot `slot`'s cells: its rectangle on the block kinds.
    fn of(dist: &Dist, slot: usize) -> Self {
        match dist.block_bounds(slot) {
            Some((rows, cols)) => Points::Rect(rows, cols),
            None => Points::List(dist.iter_slot(slot).collect()),
        }
    }

    /// The coordinates of local index `li`.
    #[inline]
    pub fn get(&self, li: u32) -> (u32, u32) {
        match self {
            Points::Rect(rows, cols) => {
                let width = cols.end - cols.start;
                debug_assert!(li < (rows.end - rows.start) * width, "{li} past the chunk");
                (rows.start + li / width, cols.start + li % width)
            }
            Points::List(points) => points[li as usize],
        }
    }

    /// Every cell, in local-index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (len, mut next) = match self {
            Points::Rect(rows, cols) => (rows.len() * cols.len(), (rows.start, cols.start)),
            Points::List(points) => (points.len(), (0, 0)),
        };
        // Row-major steps, not a nested iterator: this walk is a
        // shard build's per-cell loop.
        (0..len).map(move |li| match self {
            Points::Rect(_, cols) => {
                let at = next;
                next = match at.1 + 1 < cols.end {
                    true => (at.0, at.1 + 1),
                    false => (at.0 + 1, cols.start),
                };
                at
            }
            Points::List(points) => points[li],
        })
    }
}

/// The runtime state of one place (one distribution slot) during an
/// epoch: the paper's per-place vertex partition, ready list, finish
/// flags, finished counter and cache (§VI-C). One worker owns it: it
/// builds the shard on its own thread, mutates it through `&mut` and
/// hands it back when joined, so nothing in it is atomic or locked.
/// Other threads read only its slot's [`Progress`].
pub struct Shard<V> {
    /// The distribution slot this shard holds.
    pub slot: usize,
    /// Local index -> global coordinates, in chunk order.
    pub points: Points,
    /// Whether the cell is a DAG vertex: `Some` only for a masked
    /// pattern, whose holes it marks; on a full rectangle every cell is.
    pub in_pattern: Option<Vec<bool>>,
    /// Slab addressing of a stencil's local edges (`None` off the block
    /// kinds, for other patterns, and on nested-dataflow runs).
    pub stencil: Option<SlabStencil>,
    /// Unfinished-dependency counters: of cross-chunk dependencies only
    /// on a cursor shard.
    pub indegree: Vec<u32>,
    /// Finish flags ("a finish flag is kept for each vertex"), and
    /// whether the value is here.
    pub cells: Vec<Cell>,
    /// Results: `V::default()` until the cell is [`Cell::Done`].
    pub values: Vec<V>,
    /// Ready list: "contains the schedulable and uncompleted vertices",
    /// the epoch's seeds first; a cursor that sweeps rows up or down on
    /// a `BlockCol` chunk of a stencil with a [`TileSweep`], FIFO
    /// everywhere else.
    pub ready: ReadyList,
    /// Remote-value FIFO cache.
    pub cache: FifoCache<V>,
    /// Parked vertices and outstanding pulls.
    pub pending: Pending<V>,
    /// Local finished counter ("a finished vertices counter is used to
    /// determine the termination of the worker").
    pub finished_local: u64,
    /// What `finished_local` read when the shard was built: the cells
    /// that started finished (restored, init-overridden, or
    /// finished elsewhere per a scatter's metadata).
    pub finished_at_start: u64,
    /// Nanoseconds the slot's threads spent inside `compute`; feeds
    /// `RunReport::place_busy` on the real backends. Exact while a
    /// flight recorder is on; otherwise each thread times one compute in
    /// 16, less the clock's own cost, and charges it for all 16, so this
    /// is an estimate.
    pub busy_ns: u64,
    /// Prefix-aggregation lanes for interval dependencies (`Some` only
    /// on nested-dataflow runs). Lanes are residents, not cache entries:
    /// the FIFO cache may evict the raw values whose keys they folded.
    pub aggs: Option<AggTable>,
}

impl<V: VertexValue> Shard<V> {
    /// Whether local cell `li` is a DAG vertex (not a masked hole).
    #[inline]
    pub fn is_vertex(&self, li: u32) -> bool {
        (self.in_pattern.as_ref()).map_or(true, |mask| mask[li as usize])
    }

    /// Whether local vertex `li` is finished (here or elsewhere).
    #[inline]
    pub fn finished(&self, li: u32) -> bool {
        self.cells[li as usize] != Cell::Open
    }

    /// Reads the published value of a finished local vertex.
    #[inline]
    pub fn value(&self, li: u32) -> &V {
        let point = || self.points.get(li);
        let li = li as usize;
        debug_assert!(self.cells[li] == Cell::Done, "{:?} unpublished", point());
        &self.values[li]
    }

    /// Stores `value` as unfinished local vertex `li`'s result; whether
    /// it was unfinished. A second publication of a deterministic vertex
    /// carries the same value, and the first one stays.
    #[inline]
    pub fn finish(&mut self, li: u32, value: V) -> bool {
        if self.finished(li) {
            return false;
        }
        let li = li as usize;
        (self.values[li], self.cells[li]) = (value, Cell::Done);
        self.finished_local += 1;
        true
    }

    /// Takes the next vertex to run. A cursor steps over finished cells
    /// and holes, and returns its cell once its counter reads zero and
    /// it is not held.
    #[inline]
    pub fn pop_ready(&mut self) -> Option<u32> {
        let cursor = match &mut self.ready {
            ReadyList::Fifo(q) => return q.pop_front(),
            ReadyList::Cursor(cursor) => cursor,
        };
        while let Some(&cell) = self.cells.get(cursor.next as usize) {
            let next = cursor.next as usize;
            let hole = (self.in_pattern.as_ref()).is_some_and(|mask| !mask[next]);
            if cell != Cell::Open || hole {
                cursor.pass(1);
            } else if cursor.held || self.indegree[next] != 0 {
                return None;
            } else {
                cursor.held = true;
                return Some(cursor.next);
            }
        }
        None
    }

    /// Whether every cell `deltas` reach from `li` is a DAG vertex.
    #[inline]
    pub(crate) fn vertices_at(&self, li: u32, deltas: &[isize]) -> bool {
        deltas.iter().all(|&d| self.is_vertex(at(li, d)))
    }

    /// A copy of `deltas` when every cell they reach from `li` is a DAG
    /// vertex: the slab path applies.
    #[inline]
    pub(crate) fn slab(&self, li: u32, deltas: Option<&[isize]>) -> Option<([isize; LENT], usize)> {
        let deltas = deltas?;
        if !self.vertices_at(li, deltas) {
            return None;
        }
        let mut copy = [0; LENT];
        copy[..deltas.len()].copy_from_slice(deltas);
        Some((copy, deltas.len()))
    }

    /// The slab deltas of `li`'s dependencies when it is interior: its
    /// dependencies and dependents are all DAG vertices at stencil
    /// offsets inside the chunk, so on a cursor shard it publishes to
    /// no one.
    #[inline]
    pub(crate) fn interior(&self, li: u32) -> Option<([isize; LENT], usize)> {
        let st = self.stencil.as_ref()?;
        let (i, j) = self.points.get(li);
        self.slab(li, st.anti_deltas(i, j))?;
        self.slab(li, st.dep_deltas(i, j))
    }

    /// Vertices this shard has published since it was built — its share
    /// of the epoch's `vertices_computed`.
    pub fn computed(&self) -> u64 {
        self.finished_local - self.finished_at_start
    }

    /// Consumes the shard into its slot's values and finished flags.
    fn into_chunk(self) -> (Vec<V>, Vec<bool>) {
        let cells = 0..self.cells.len() as u32;
        let finished = cells
            .map(|li| self.finished(li) && self.is_vertex(li))
            .collect();
        (self.values, finished)
    }
}

/// One slot's finished count as its owner last stored it, for the
/// coordinator's poll and a socket follower's report. The owner stores
/// it (never read-modify-writes) at the start of every round of its
/// loop, so it lags the shard by at most one round. Two cache lines of
/// its own: in a slice of them, no slot's stores invalidate a line
/// another slot's owner reads.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Progress(pub AtomicU64);

/// What an epoch's shards are built from: the recovered array of the
/// previous epoch, a socket place's `Resume` metadata, the user's init
/// override and the cache size. Each worker builds its own slot's shard
/// from it, on its own thread.
///
/// A cell starts *finished* when `prior` has it, or when the init
/// override pre-finishes it (§VI-E). Indegrees count only unfinished
/// dependencies, and zero-indegree unfinished vertices seed the ready
/// lists — stage 1 of the execution overview (§VI-A).
///
/// `meta` supports the socket engine's `Resume`: a place that received
/// only its own slot's restored values still needs the global
/// finished-set to compute indegrees deterministically, so the frame
/// carries every finished cell's packed id as metadata. Cells in `meta`
/// that `prior`/`init` have no value for are marked finished *without*
/// a value ([`Cell::Elsewhere`]) — legal only for cells this place never
/// serves (pulls go to the owner, which always holds its own chunk's
/// values). In-process engines pass `None`: they always hold the full
/// prior array.
pub struct Start<V> {
    /// The recovered array of the previous epoch.
    pub prior: Option<DistArray<V>>,
    /// A `Resume`'s packed ids of every finished cell.
    pub meta: Option<HashSet<u64>>,
    /// The user's init override.
    pub init: Option<InitOverride<V>>,
    /// FIFO cache entries per shard.
    pub cache_capacity: usize,
    /// Whether the host runs cursors ([`ReadyList::Cursor`]): every real
    /// host does; the simulator and `protocol_order.rs` pop FIFO.
    pub cursors: bool,
}

impl<V: VertexValue> Start<V> {
    /// A first epoch with nothing prefinished anywhere.
    fn fresh(&self) -> bool {
        self.prior.is_none() && self.meta.is_none() && self.init.is_none()
    }

    /// The value `(i, j)` starts finished with, if any.
    fn value(&self, i: u32, j: u32) -> Option<V> {
        if let Some(v) = self.prior.as_ref().and_then(|arr| arr.get_finished(i, j)) {
            return Some(v.clone());
        }
        self.init.as_ref().and_then(|f| f(i, j))
    }

    /// Whether `(i, j)` starts finished without a value here.
    fn elsewhere(&self, i: u32, j: u32) -> bool {
        let meta = self.meta.as_ref();
        meta.is_some_and(|m| m.contains(&VertexId::new(i, j).pack()))
    }

    /// The DAG vertices that start finished, with their values here (on
    /// every slot; none in a fresh epoch).
    fn restored<'a>(
        &'a self,
        pattern: &'a dyn DagPattern,
    ) -> impl Iterator<Item = (u32, u32, Option<V>)> + 'a {
        let rows = if self.fresh() { 0 } else { pattern.height() };
        let cells = (0..rows).flat_map(move |i| (0..pattern.width()).map(move |j| (i, j)));
        let cells = cells.filter(move |&(i, j)| pattern.contains(i, j));
        cells.filter_map(move |(i, j)| match self.value(i, j) {
            Some(v) => Some((i, j, Some(v))),
            None => self.elsewhere(i, j).then_some((i, j, None)),
        })
    }

    /// How many DAG vertices start finished, on every slot.
    pub fn prefinished(&self, pattern: &dyn DagPattern) -> u64 {
        self.restored(pattern).count() as u64
    }

    /// Builds slot `slot`'s shard.
    pub fn build<A: DpApp<Value = V>>(&self, ctx: &Ctx<A>, slot: usize) -> Shard<V> {
        let (pattern, dist) = (ctx.pattern.as_ref(), &ctx.dist);
        let len = dist.chunk_len(slot);
        let points = Points::of(dist, slot);
        // The validated contract makes `vertex_count` exact: a pattern
        // with as many vertices as cells has no hole to mark.
        let cells = u64::from(pattern.height()) * u64::from(pattern.width());
        let in_pattern = (pattern.vertex_count() != cells).then(|| {
            let mask = points.iter().map(|(i, j)| pattern.contains(i, j));
            mask.collect::<Vec<bool>>()
        });
        let stencil = match ctx.agg {
            None => SlabStencil::of(pattern, dist, slot, in_pattern.as_deref()),
            Some(_) => None,
        };
        let mut shard = Shard {
            slot,
            ready: ReadyList::for_shard(dist, &points, stencil.as_ref(), self.cursors),
            stencil,
            points,
            in_pattern,
            indegree: vec![0; len],
            cells: vec![Cell::Open; len],
            // Not `vec![..; len]`, which clones.
            values: (0..len).map(|_| V::default()).collect(),
            cache: FifoCache::new(self.cache_capacity),
            pending: Pending::default(),
            finished_local: 0,
            finished_at_start: 0,
            busy_ns: 0,
            aggs: (ctx.agg).map(|spec| AggTable::new(pattern.height(), pattern.width(), spec)),
        };
        let (fresh, cursor) = (self.fresh(), shard.ready.is_cursor());
        let mask = shard.in_pattern.as_deref();
        let hole = |li: usize| mask.is_some_and(|m| !m[li]);
        let mut deps = Vec::new();
        if fresh && cursor {
            // A cursor shard counts only cross-chunk edges. Nothing has
            // started, and a cell inside `dep_inner` has no cross-chunk
            // edge: only the border outside it is asked.
            let mut cross = |i, j| {
                deps.clear();
                pattern.dependencies(i, j, &mut deps);
                deps.iter()
                    .filter(|d| dist.slot_of(d.i, d.j) != slot)
                    .count() as u32
            };
            let (Points::Rect(rows, cols), Some(st)) = (&shard.points, &shard.stencil) else {
                unreachable!("a cursor runs on a block chunk with a stencil");
            };
            let (inner_rows, inner_cols) = &st.dep_inner;
            for i in rows.clone() {
                let skip = match inner_rows.contains(&i) {
                    true => inner_cols.clone(),
                    false => cols.end..cols.end,
                };
                let row = (i - rows.start) as usize * cols.len();
                for j in (cols.start..skip.start).chain(skip.end..cols.end) {
                    let li = row + (j - cols.start) as usize;
                    if !hole(li) {
                        shard.indegree[li] = cross(i, j);
                    }
                }
            }
        } else {
            // A fresh build can take the pattern's closed-form indegree
            // instead of enumerating edges — O(1) per cell where an
            // interval pattern's edge list is O(n).
            let stencil = shard.stencil.as_ref();
            let inside = |i, j| cursor && stencil.is_some_and(|st| st.dep_deltas(i, j).is_some());
            // The predicate that finished this shard's own cells, so
            // cross-shard indegrees stay local and deterministic.
            let started = |d: &VertexId| self.value(d.i, d.j).is_some() || self.elsewhere(d.i, d.j);
            for (li, (i, j)) in shard.points.iter().enumerate() {
                let open = if hole(li) {
                    continue;
                } else if fresh {
                    pattern.indegree(i, j)
                } else if let Some(v) = self.value(i, j) {
                    (shard.values[li], shard.cells[li]) = (v, Cell::Done);
                    shard.finished_local += 1;
                    continue;
                } else if self.elsewhere(i, j) {
                    shard.cells[li] = Cell::Elsewhere;
                    shard.finished_local += 1;
                    continue;
                } else if inside(i, j) {
                    continue;
                } else {
                    deps.clear();
                    pattern.dependencies(i, j, &mut deps);
                    let counted = |d: &&VertexId| !(cursor && dist.slot_of(d.i, d.j) == slot);
                    deps.iter().filter(counted).filter(|d| !started(d)).count() as u32
                };
                shard.indegree[li] = open;
                if open == 0 {
                    shard.ready.push(li as u32);
                }
            }
        }
        shard.finished_at_start = shard.finished_local;
        if let Some(table) = &mut shard.aggs {
            // Prefinished cells never publish again: fold every one with
            // a value here, on any slot, into this shard's lanes. Cells
            // finished without a value (a socket place's meta-only
            // restores) stay out; the consumer-side pull fallback covers
            // them.
            for (i, j, v) in self.restored(pattern) {
                let (Some(v), id) = (v, VertexId::new(i, j)) else {
                    continue;
                };
                table.record(id, |axis| ctx.app.agg_key(axis, id, &v));
            }
        }
        shard
    }

    /// Builds every slot's shard, in slot order, on this thread: the
    /// simulator's and the protocol tests' epoch.
    pub fn build_all<A: DpApp<Value = V>>(&self, ctx: &Ctx<A>) -> Vec<Shard<V>> {
        (0..ctx.dist.num_slots())
            .map(|slot| self.build(ctx, slot))
            .collect()
    }

    /// Consumes an epoch's shards — in slot order, any subset — into the
    /// [`DistArray`] they computed: the final result, or the surviving
    /// finished values the paper's recovery routine starts from. Every
    /// shard value moves; none is cloned. A slot without a shard (one
    /// another process hosts) holds what it started the epoch with: a
    /// shard is built for it.
    /// Unfinished cells read `V::default()`.
    pub fn into_array<A: DpApp<Value = V>>(
        &self,
        ctx: &Ctx<A>,
        shards: Vec<Shard<V>>,
    ) -> DistArray<V> {
        let mut shards = shards.into_iter().peekable();
        let chunks = (0..ctx.dist.num_slots())
            .map(|slot| match shards.next_if(|s| s.slot == slot) {
                Some(shard) => shard.into_chunk(),
                None => self.build(ctx, slot).into_chunk(),
            })
            .collect();
        assert!(shards.next().is_none(), "shards out of slot order");
        DistArray::from_chunks(ctx.dist.clone(), chunks)
    }
}

/// Looks up the local index of `id` inside its owning shard.
#[inline]
pub fn local_index(dist: &Dist, id: VertexId) -> u32 {
    dist.local_index(id.i, id.j) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_dag::builtin::{Grid2, IntervalUpper};
    use std::sync::Arc;

    use crate::protocol::tests::{ctx, ctx_of};

    fn start(prior: Option<DistArray<u64>>, init: Option<InitOverride<u64>>) -> Start<u64> {
        Start {
            prior,
            meta: None,
            init,
            cache_capacity: 16,
            cursors: false,
        }
    }

    /// A fresh start on a host that runs cursors.
    fn cursors() -> Start<u64> {
        let mut start = start(None, None);
        start.cursors = true;
        start
    }

    /// The points of the FIFO shard's ready list, in order.
    fn ready(shard: &Shard<u64>) -> Vec<(u32, u32)> {
        let ReadyList::Fifo(ready) = &shard.ready else {
            panic!("slot {} is not FIFO", shard.slot);
        };
        ready.iter().map(|&li| shard.points.get(li)).collect()
    }

    #[test]
    fn fresh_shards_seed_sources() {
        let ctx = ctx(Arc::new(Grid2::new(3, 4)), 2);
        let start = start(None, None);
        assert_eq!(start.prefinished(ctx.pattern.as_ref()), 0);
        let shards = start.build_all(&ctx);
        // Grid2 has a single source (0,0), owned by slot 0.
        assert_eq!(
            (ready(&shards[0]), ready(&shards[1])),
            (vec![(0, 0)], vec![])
        );
        assert_eq!(shards.iter().map(|s| s.cells.len()).sum::<usize>(), 12);
    }

    #[test]
    fn init_override_prefinishes_and_unblocks() {
        let ctx = ctx(Arc::new(Grid2::new(2, 2)), 1);
        // Pre-finish the whole first row.
        let start = start(None, Some(Arc::new(|i, _j| (i == 0).then_some(0))));
        assert_eq!(start.prefinished(ctx.pattern.as_ref()), 2);
        let shard = start.build(&ctx, 0);
        assert_eq!(shard.finished_at_start, 2);
        // (1,0) now has zero open deps; (1,1) depends on unfinished (1,0).
        assert_eq!(ready(&shard), vec![(1, 0)]);
    }

    #[test]
    fn prior_array_restores_progress() {
        let ctx = ctx(Arc::new(Grid2::new(2, 2)), 1);
        let mut prior: DistArray<u64> = DistArray::new(ctx.dist.clone());
        prior.set(0, 0, 5);
        let start = start(Some(prior), None);
        assert_eq!(start.prefinished(ctx.pattern.as_ref()), 1);
        let shard = start.build(&ctx, 0);
        assert_eq!(shard.value(ctx.dist.local_index(0, 0) as u32), &5);
        // (0,1) and (1,0) are unblocked.
        assert_eq!(ready(&shard).len(), 2);
    }

    #[test]
    fn meta_finished_cells_unblock_without_values() {
        // A worker after a Resume scatter: it holds values only for its
        // own chunk, but the finished-set metadata covers everything.
        let ctx = ctx(Arc::new(Grid2::new(2, 2)), 2); // BlockCol: slot 0 owns column 0
        let mut prior: DistArray<u64> = DistArray::new(ctx.dist.clone());
        prior.set(0, 0, 5); // own chunk value
        let mut start = start(Some(prior), None);
        let meta = [VertexId::new(0, 0), VertexId::new(0, 1)];
        start.meta = Some(meta.iter().map(|id| id.pack()).collect());
        let pre = start.prefinished(ctx.pattern.as_ref());
        assert_eq!(pre, 2, "value-backed and meta-only cells both count");
        let shards = start.build_all(&ctx);
        let li01 = ctx.dist.local_index(0, 1);
        assert_eq!(
            shards[1].cells[li01],
            Cell::Elsewhere,
            "meta-only cells are finished but carry no value; pulls go to the owner"
        );
        // (1,0) depends only on the finished (0,0): ready. (1,1) depends
        // on the meta-finished (0,1) plus the unfinished (1,0): parked.
        assert_eq!((ready(&shards[0]).len(), ready(&shards[1]).len()), (1, 0));
        assert_eq!(shards[1].indegree[ctx.dist.local_index(1, 1)], 1);
    }

    #[test]
    fn collect_round_trips() {
        let ctx = ctx(Arc::new(Grid2::new(2, 3)), 2);
        let mut prior: DistArray<u64> = DistArray::new(ctx.dist.clone());
        prior.set(0, 0, 1);
        prior.set(1, 2, 9);
        let start = start(Some(prior), None);
        let collected = start.into_array(&ctx, start.build_all(&ctx));
        assert_eq!(collected.get_finished(0, 0), Some(&1));
        assert_eq!(collected.get_finished(1, 2), Some(&9));
        assert_eq!(collected.finished_count(), 2);
        // A slot without a shard holds what it started with.
        let only0 = start.into_array(&ctx, vec![start.build(&ctx, 0)]);
        assert_eq!(only0.to_dense(), collected.to_dense());
    }

    #[test]
    fn moved_result_equals_the_copied_one() {
        // The lower triangle is masked out; the init override pre-finishes
        // the diagonal, and (0, 1) finishes as if a worker published it.
        let ctx = ctx(Arc::new(IntervalUpper::new(5)), 2);
        let init: InitOverride<u64> = Arc::new(|i, j| (i == j).then_some(100 + u64::from(i)));
        let start = start(None, Some(init));
        assert_eq!(start.prefinished(ctx.pattern.as_ref()), 5);
        let mut shards = start.build_all(&ctx);
        let (s, li) = (ctx.dist.slot_of(0, 1), ctx.dist.local_index(0, 1) as u32);
        assert_eq!(shards[s].computed(), 0, "init cells are not computed");
        assert!(shards[s].finish(li, 42));
        assert!(!shards[s].finish(li, 43), "the first publication stays");
        assert_eq!(shards[s].computed(), 1);

        // The reference: a default-filled array with a clone of every
        // finished in-pattern cell set into it.
        let mut expected = DistArray::new(ctx.dist.clone());
        for shard in &shards {
            for (li, (i, j)) in (0..).zip(shard.points.iter()) {
                if shard.is_vertex(li) && shard.finished(li) {
                    expected.set(i, j, *shard.value(li));
                }
            }
        }
        let moved = start.into_array(&ctx, shards);
        assert_eq!(moved.finished_count(), 6);
        // Every cell's value and finished flag, masked cells included.
        assert_eq!(moved.to_dense(), expected.to_dense());
    }

    #[test]
    fn block_col_sweeps_only_storage_ordered_stencils() {
        use dpx10_dag::{AggSpec, BuiltinKind, Reduction};
        // The stencils some sweep orders: every offset points into
        // earlier storage (rows up), or into a later row or left in its
        // own (rows down: IntervalUpper).
        let ordered = [
            BuiltinKind::Grid2,
            BuiltinKind::Grid3,
            BuiltinKind::Diagonal,
            BuiltinKind::IntervalUpper,
            BuiltinKind::RowWave,
            BuiltinKind::ColWave,
            BuiltinKind::Pyramid,
        ];
        let kinds = [DistKind::BlockRow, DistKind::BlockCol, DistKind::CyclicCol];
        for pattern in BuiltinKind::ALL {
            for kind in kinds.clone() {
                let sweep = matches!(kind, DistKind::BlockCol) && ordered.contains(&pattern);
                let ctx = ctx_of(pattern.instantiate(8, 8).into(), kind.clone(), 2);
                for (start, on) in [(start(None, None), false), (cursors(), true)] {
                    for shard in start.build_all(&ctx) {
                        let cursor = shard.ready.is_cursor();
                        assert_eq!(cursor, sweep && on, "{pattern:?} on {kind:?}");
                    }
                }
            }
        }
        // A nested-dataflow run has no slab stencil: FIFO.
        let mut ctx = ctx(Arc::new(Grid2::new(8, 8)), 2);
        ctx.agg = Some(AggSpec::rows(Reduction::Max));
        assert!(!cursors().build(&ctx, 0).ready.is_cursor());
    }

    #[test]
    fn a_cursor_shard_counts_only_cross_chunk_edges() {
        // Grid3 (left, top, diagonal) over two column blocks: only slot
        // 1's first column, j = 3, has dependencies in slot 0.
        let ctx = ctx(Arc::new(dpx10_dag::builtin::Grid3::new(5, 6)), 2);
        for shard in cursors().build_all(&ctx) {
            for (li, (i, j)) in shard.points.iter().enumerate() {
                let cross = u32::from((shard.slot, j) == (1, 3)) * (1 + u32::from(i > 0));
                assert_eq!(shard.indegree[li], cross, "({i}, {j})");
            }
        }
    }

    #[test]
    fn a_cursor_pops_in_storage_order_and_holds_its_cell() {
        // Grid2 over two column blocks of 3 × 2 cells.
        let ctx = ctx(Arc::new(Grid2::new(3, 4)), 2);
        let mut shards = cursors().build_all(&ctx);
        assert_eq!(shards[1].pop_ready(), None, "(0, 2) waits on (0, 1)");
        let zero = &mut shards[0];
        assert_eq!(zero.pop_ready(), Some(0));
        zero.ready.push(1);
        assert_eq!(zero.pop_ready(), None, "held: only its own cell frees it");
        zero.ready.push(0);
        assert_eq!(zero.pop_ready(), Some(0), "a parked cell named ready");
        for li in 0..6 {
            assert!(zero.finish(li, 0));
            assert_eq!(zero.pop_ready(), (li < 5).then_some(li + 1));
        }
    }

    #[test]
    fn a_rows_down_cursor_starts_on_the_last_row_and_steps_over_holes() {
        // IntervalUpper over two column blocks of 4 × 2 cells: slot 1
        // holds columns 2 and 3, whose row 3 opens on a hole, and only
        // its column 2 above the diagonal reads slot 0.
        let ctx = ctx(Arc::new(IntervalUpper::new(4)), 2);
        let mut shards = cursors().build_all(&ctx);
        let one = &mut shards[1];
        let mut order = Vec::new();
        while let Some(li) = one.pop_ready() {
            order.push(one.points.get(li));
            assert!(one.finish(li, 0));
        }
        assert_eq!(order, [(3, 3), (2, 2), (2, 3)], "(1, 2) waits on (1, 1)");
        let ReadyList::Cursor(cursor) = &one.ready else {
            panic!("slot 1 is a cursor");
        };
        assert_eq!(one.points.get(cursor.next), (1, 2));
        one.indegree[cursor.next as usize] = 0;
        let mut rest = Vec::new();
        while let Some(li) = one.pop_ready() {
            rest.push(one.points.get(li));
            assert!(one.finish(li, 0));
            one.indegree.fill(0);
        }
        assert_eq!(rest, [(1, 2), (1, 3), (0, 2), (0, 3)]);
        assert_eq!(one.pop_ready(), None, "past row 0 nothing is left");
    }

    #[test]
    fn progress_cells_never_share_a_line_pair() {
        assert!(std::mem::align_of::<Progress>() >= 128);
    }
}
