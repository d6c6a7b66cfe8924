//! Layer probes: every layer measured from outside, by wall-clocking
//! calls into its public functions in isolation.
//!
//! A probe times a closure that makes a known number of calls, at least
//! three sweeps after a warm one, and reports the median nanoseconds
//! per call. Each sweep is a benchmark-side span. Probes are shaped by
//! the workload they serve — its pattern, distribution, cache capacity
//! and value type — because those decide what a call costs.

use std::hint::black_box;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use dpx10_apgas::codec::{decode_exact, encode_to_vec};
use dpx10_apgas::mailbox::{post_office, Envelope};
use dpx10_apgas::socket::frame::{read_frame, write_frame, Frame};
use dpx10_apgas::{
    CoalesceConfig, CoalescingTransport, DeadPlaceError, LivenessBoard, PlaceId, SocketConfig,
    SocketNode, StatsBoard, Topology, Transport,
};
use dpx10_core::msg::Msg;
use dpx10_core::{DepView, DpApp, EngineConfig, FifoCache, VertexValue};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_distarray::{Dist, Region2D};
use dpx10_obs::{EventKind, Recorder};
use dpx10_sync::channel::unbounded;
use dpx10_sync::{Mutex, SegQueue};

use crate::ledger::LedgerRow;
use crate::spans::Spans;
use crate::stats::median;

/// Timed sweeps per probe (after one untimed warm sweep).
const SWEEPS: usize = 3;

/// Vertices the edge census and the lookup probes visit at most; larger
/// DAGs are sampled by a row-major prefix.
const CENSUS_LIMIT: u64 = 4_000_000;

/// Collects probe results of one workload.
pub struct Probe<'a> {
    spans: &'a mut Spans,
    /// `(metric name, value)` in probe order.
    pub values: Vec<(&'static str, f64)>,
    /// Ledger rows, filled by the workload once its probes ran.
    pub ledger: Vec<LedgerRow>,
}

impl<'a> Probe<'a> {
    /// A collector recording its sweeps into `spans`.
    pub fn new(spans: &'a mut Spans) -> Self {
        Probe {
            spans,
            values: Vec::new(),
            ledger: Vec::new(),
        }
    }

    /// Records a value that needs no timing (an exact count or share).
    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.values.push((metric, value));
    }

    /// The value a probe recorded, or 0 when it did not run.
    pub fn get(&self, metric: &str) -> f64 {
        self.values
            .iter()
            .find(|(m, _)| *m == metric)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Runs `f` once inside a probe span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
        self.spans.time(name, |_| f())
    }

    /// Median nanoseconds per call of `sweep`, which makes `calls` calls:
    /// `refill` (untimed) then `sweep` (one span), once to warm and
    /// [`SWEEPS`] times for the record.
    fn median_ns<S>(
        &mut self,
        metric: &str,
        calls: u64,
        state: &mut S,
        mut refill: impl FnMut(&mut S),
        mut sweep: impl FnMut(&mut S),
    ) -> f64 {
        let mut ns = Vec::with_capacity(SWEEPS);
        for round in 0..=SWEEPS {
            refill(state);
            let ((), took) = self
                .spans
                .time(&format!("probe:{metric}"), |_| sweep(state));
            if round > 0 {
                ns.push(took.as_nanos() as f64 / calls as f64);
            }
        }
        median(&ns)
    }

    /// Times `sweep`, which makes `calls` calls, and records the median
    /// nanoseconds per call under `metric`.
    pub fn per_call(&mut self, metric: &'static str, calls: u64, mut sweep: impl FnMut()) {
        let ns = self.median_ns(metric, calls, &mut (), |()| (), |()| sweep());
        self.set(metric, ns);
    }

    /// Like [`per_call`](Probe::per_call), with `refill` run untimed
    /// before every sweep to rebuild in `state` what the sweep consumes.
    pub fn per_call_refilled<S>(
        &mut self,
        metric: &'static str,
        calls: u64,
        state: &mut S,
        refill: impl FnMut(&mut S),
        sweep: impl FnMut(&mut S),
    ) {
        let ns = self.median_ns(metric, calls, state, refill, sweep);
        self.set(metric, ns);
    }

    /// Times `call` as one operation and records the median in
    /// milliseconds under `metric`.
    pub fn per_op_ms(&mut self, metric: &'static str, mut call: impl FnMut()) {
        let ns = self.median_ns(metric, 1, &mut (), |()| (), |()| call());
        self.set(metric, ns / 1e6);
    }

    /// Adds a ledger row for `metric` at `calls` calls per vertex.
    pub fn charge(&mut self, metric: &'static str, calls: f64) {
        let ns = self.get(metric);
        self.ledger.push(LedgerRow::new(metric, calls, ns));
    }
}

/// What a pattern × distribution pair implies per vertex, counted
/// exactly (or over the first [`CENSUS_LIMIT`] vertices of a larger DAG).
#[derive(Clone, Copy, Debug, Default)]
pub struct Edges {
    /// Dependencies per vertex.
    pub deps: f64,
    /// Anti-dependencies per vertex.
    pub antis: f64,
    /// Share of dependency edges whose ends live on different places.
    pub remote_frac: f64,
    /// `Done`/`PushVal` messages a vertex sends (one per remote place
    /// owning a dependent).
    pub msgs: f64,
    /// Median dependents named in one such message.
    pub targets_per_msg: usize,
}

/// The distribution the engines build for `pattern` under `config`.
pub fn dist_of(pattern: &dyn DagPattern, config: &EngineConfig) -> Dist {
    Dist::new(
        Region2D::new(pattern.height(), pattern.width()),
        config.dist_kind.clone(),
        config.topology.places().collect(),
    )
}

/// The first `limit` vertices of `pattern` in row-major order.
pub fn vertices(pattern: &dyn DagPattern, limit: u64) -> Vec<VertexId> {
    let mut out = Vec::new();
    'rows: for i in 0..pattern.height() {
        for j in 0..pattern.width() {
            if pattern.contains(i, j) {
                if out.len() as u64 == limit {
                    break 'rows;
                }
                out.push(VertexId::new(i, j));
            }
        }
    }
    out
}

/// Counts edges and the messages they imply; records
/// `dag.deps_per_vertex` and `distarray.remote_edge_frac`.
pub fn census(p: &mut Probe<'_>, pattern: &dyn DagPattern, dist: &Dist) -> Edges {
    let ids = vertices(pattern, CENSUS_LIMIT);
    let (mut deps, mut antis, mut remote, mut msgs) = (0u64, 0u64, 0u64, 0u64);
    let mut targets: Vec<f64> = Vec::new();
    let mut buf = Vec::new();
    let mut per_place = vec![0usize; dist.num_slots()];
    for id in &ids {
        let home = dist.slot_of(id.i, id.j);
        buf.clear();
        pattern.dependencies(id.i, id.j, &mut buf);
        deps += buf.len() as u64;
        remote += buf
            .iter()
            .filter(|d| dist.slot_of(d.i, d.j) != home)
            .count() as u64;
        buf.clear();
        pattern.anti_dependencies(id.i, id.j, &mut buf);
        antis += buf.len() as u64;
        per_place.iter_mut().for_each(|c| *c = 0);
        for t in &buf {
            per_place[dist.slot_of(t.i, t.j)] += 1;
        }
        for (slot, &count) in per_place.iter().enumerate() {
            if slot != home && count > 0 {
                msgs += 1;
                targets.push(count as f64);
            }
        }
    }
    let n = ids.len().max(1) as f64;
    let edges = Edges {
        deps: deps as f64 / n,
        antis: antis as f64 / n,
        remote_frac: if deps == 0 {
            0.0
        } else {
            remote as f64 / deps as f64
        },
        msgs: msgs as f64 / n,
        targets_per_msg: if targets.is_empty() {
            1
        } else {
            median(&targets) as usize
        },
    };
    p.set("dag.deps_per_vertex", edges.deps);
    p.set("distarray.remote_edge_frac", edges.remote_frac);
    edges
}

/// `dag.dependencies_ns` and `dag.anti_dependencies_ns`: the pattern
/// queries, into a reused buffer as the engines call them.
pub fn pattern_queries(p: &mut Probe<'_>, pattern: &dyn DagPattern) {
    dependency_queries(p, "dag.dependencies_ns", pattern);
    let ids = vertices(pattern, 500_000);
    let mut buf = Vec::with_capacity(8);
    p.per_call("dag.anti_dependencies_ns", ids.len() as u64, || {
        for id in &ids {
            buf.clear();
            pattern.anti_dependencies(id.i, id.j, &mut buf);
            black_box(&buf);
        }
    });
}

/// `dag.tile_dependencies_ns`: the tile-level query of a `TiledDag`.
pub fn tile_queries(p: &mut Probe<'_>, tiles: &dyn DagPattern) {
    dependency_queries(p, "dag.tile_dependencies_ns", tiles);
}

fn dependency_queries(p: &mut Probe<'_>, metric: &'static str, pattern: &dyn DagPattern) {
    let ids = vertices(pattern, 500_000);
    let mut buf = Vec::with_capacity(8);
    p.per_call(metric, ids.len() as u64, || {
        for id in &ids {
            buf.clear();
            pattern.dependencies(id.i, id.j, &mut buf);
            black_box(&buf);
        }
    });
}

/// `distarray.slot_of_ns` and `distarray.local_index_ns` over the
/// workload's distribution.
pub fn dist_lookups(p: &mut Probe<'_>, pattern: &dyn DagPattern, dist: &Dist) {
    let ids = vertices(pattern, 500_000);
    p.per_call("distarray.slot_of_ns", ids.len() as u64, || {
        for id in &ids {
            black_box(dist.slot_of(id.i, id.j));
        }
    });
    p.per_call("distarray.local_index_ns", ids.len() as u64, || {
        for id in &ids {
            black_box(dist.local_index(id.i, id.j));
        }
    });
}

/// Dependency ids and values of a run of vertices, laid out flat so the
/// compute probe builds a `DepView` without touching an engine.
pub struct KernelSample<V> {
    ids: Vec<VertexId>,
    offsets: Vec<u32>,
    dep_ids: Vec<VertexId>,
    dep_vals: Vec<V>,
}

impl<V> KernelSample<V> {
    /// Gathers the first `limit` vertices of `pattern`, reading each
    /// dependency's value through `value_of` (an oracle-checked result).
    pub fn gather(pattern: &dyn DagPattern, limit: u64, value_of: impl Fn(u32, u32) -> V) -> Self {
        let ids = vertices(pattern, limit);
        let mut offsets = Vec::with_capacity(ids.len() + 1);
        let mut dep_ids = Vec::new();
        for id in &ids {
            offsets.push(dep_ids.len() as u32);
            pattern.dependencies(id.i, id.j, &mut dep_ids);
        }
        offsets.push(dep_ids.len() as u32);
        let dep_vals = dep_ids.iter().map(|d| value_of(d.i, d.j)).collect();
        KernelSample {
            ids,
            offsets,
            dep_ids,
            dep_vals,
        }
    }
}

/// `apps.compute_ns`: `DpApp::compute` over the sample's vertices with
/// pre-built dependency views.
pub fn compute<A: DpApp>(p: &mut Probe<'_>, app: &A, sample: &KernelSample<A::Value>) {
    p.per_call("apps.compute_ns", sample.ids.len() as u64, || {
        for (k, &id) in sample.ids.iter().enumerate() {
            let (lo, hi) = (sample.offsets[k] as usize, sample.offsets[k + 1] as usize);
            let view = DepView::new(&sample.dep_ids[lo..hi], &sample.dep_vals[lo..hi]);
            black_box(app.compute(id, &view));
        }
    });
}

/// Everything a pattern × distribution × value type decides: the edge
/// census, the distribution lookups and the per-message protocol costs.
pub fn shape<V: VertexValue>(
    p: &mut Probe<'_>,
    pattern: &dyn DagPattern,
    config: &EngineConfig,
    value: &V,
) -> Edges {
    let dist = dist_of(pattern, config);
    let edges = census(p, pattern, &dist);
    dist_lookups(p, pattern, &dist);
    protocol(p, config, value, edges.targets_per_msg);
    edges
}

/// A transport that accepts and drops everything: what is left when it
/// sits under a `CoalescingTransport` is the coalescer's own cost.
struct NullTransport {
    liveness: LivenessBoard,
}

impl<M: Send> Transport<M> for NullTransport {
    fn num_places(&self) -> u16 {
        self.liveness.num_places()
    }

    fn liveness(&self) -> &LivenessBoard {
        &self.liveness
    }

    fn send(&self, _: PlaceId, _: PlaceId, msg: M, _: usize) -> Result<(), DeadPlaceError> {
        black_box(msg);
        Ok(())
    }

    fn try_recv(&self, _: PlaceId) -> Option<Envelope<M>> {
        None
    }

    fn recv_timeout(&self, _: PlaceId, _: Duration) -> Option<Envelope<M>> {
        None
    }
}

/// How many `value`s a probe keeps ready so that building them stays
/// outside the timed sweep without holding more than ~4 MiB.
fn pool_len<V: VertexValue>(value: &V) -> usize {
    ((4 << 20) / value.wire_size().max(1)).clamp(256, 100_000)
}

/// The per-message protocol costs for the workload's value type:
/// `core.cache_*_ns`, `core.msg_*_ns`, `apgas.mailbox*_ns` and
/// `apgas.coalesce_send_ns`.
pub fn protocol<V: VertexValue>(
    p: &mut Probe<'_>,
    config: &EngineConfig,
    value: &V,
    targets_per_msg: usize,
) {
    let n = pool_len(value);
    let capacity = config.cache_capacity;

    // FIFO cache at the workload's capacity, full, as in steady state.
    let mut cache: FifoCache<V> = FifoCache::new(capacity);
    for key in 0..capacity as u64 {
        cache.insert(key, value.clone());
    }
    let resident = capacity.max(1) as u64;
    p.per_call("core.cache_hit_ns", n as u64, || {
        for k in 0..n as u64 {
            black_box(cache.get(k % resident));
        }
    });
    let mut next_key = capacity as u64;
    p.per_call_refilled(
        "core.cache_insert_ns",
        n as u64,
        &mut Vec::with_capacity(n),
        |pool: &mut Vec<V>| pool.resize(n, value.clone()),
        |pool| {
            for v in pool.drain(..) {
                cache.insert(next_key, v);
                next_key += 1;
            }
        },
    );

    let done = |k: u64| Msg::Done {
        from: VertexId::unpack(k),
        value: value.clone(),
        targets: (0..targets_per_msg as u64)
            .map(|t| VertexId::unpack(k + t + 1))
            .collect(),
    };
    let msg = done(7);
    let wire = encode_to_vec(&msg);
    let calls = n as u64;
    p.per_call("core.msg_encode_ns", calls, || {
        for _ in 0..calls {
            black_box(encode_to_vec(black_box(&msg)));
        }
    });
    p.per_call("core.msg_decode_ns", calls, || {
        for _ in 0..calls {
            black_box(decode_exact::<Msg<V>>(black_box(&wire)));
        }
    });
    let entries = 128usize.min(n);
    let batch = Msg::DoneBatch {
        entries: (0..entries as u64)
            .map(|k| match done(k) {
                Msg::Done {
                    from,
                    value,
                    targets,
                } => (from, value, targets),
                _ => unreachable!("done() builds Msg::Done"),
            })
            .collect(),
    };
    let rounds = (n / entries).max(1) as u64;
    p.per_call("core.msg_batch_entry_ns", rounds * entries as u64, || {
        for _ in 0..rounds {
            let wire = encode_to_vec(black_box(&batch));
            black_box(decode_exact::<Msg<V>>(&wire));
        }
    });

    // Mailbox: one `post_office` send plus the matching `try_recv`.
    let topo = Topology::flat(2);
    let (boxes, sender) = post_office::<Msg<V>>(
        topo,
        config.network,
        LivenessBoard::new(2),
        StatsBoard::new(2),
    );
    let pull = || Msg::Pull {
        id: VertexId::new(1, 1),
    };
    let pings = 200_000u64;
    p.per_call("apgas.mailbox_ns", pings, || {
        for _ in 0..pings {
            sender
                .send(PlaceId(0), PlaceId(1), pull(), 8)
                .expect("place 1 is alive");
            black_box(boxes[1].try_recv());
        }
    });
    p.per_call("apgas.mailbox_contended_ns", pings, || {
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                for _ in 0..pings {
                    sender
                        .send(PlaceId(0), PlaceId(1), pull(), 8)
                        .expect("place 1 is alive");
                }
            });
            let mut got = 0;
            while got < pings {
                match boxes[1].recv_timeout(Duration::from_millis(100)) {
                    Some(env) => {
                        black_box(env);
                        got += 1;
                    }
                    None => assert!(!producer.is_finished(), "mailbox lost messages"),
                }
            }
            producer.join().expect("producer thread");
        });
    });

    // Coalescer over a null transport, at the workload's byte budget
    // (4 KiB, the push workload's, where the workload does not coalesce).
    let budget = config.coalesce.unwrap_or(4096);
    let stats = StatsBoard::new(2);
    let coalescer = CoalescingTransport::new(
        Arc::new(NullTransport {
            liveness: LivenessBoard::new(2),
        }) as Arc<dyn Transport<Msg<V>>>,
        CoalesceConfig::bytes(budget),
        stats,
        Recorder::disabled(),
    );
    p.per_call_refilled(
        "apgas.coalesce_send_ns",
        n as u64,
        &mut Vec::with_capacity(n),
        |outbox: &mut Vec<Msg<V>>| outbox.extend((0..n as u64).map(&done)),
        |outbox| {
            for m in outbox.drain(..) {
                let bytes = m.wire_size();
                coalescer
                    .send(PlaceId(0), PlaceId(1), m, bytes)
                    .expect("place 1 is alive");
            }
            coalescer.flush(PlaceId(0));
        },
    );
}

/// `sync.*_ns`: the workspace's own lock and queue primitives.
pub fn sync_primitives(p: &mut Probe<'_>) {
    let calls = 500_000u64;
    let lock = Mutex::new(0u64);
    p.per_call("sync.mutex_ns", calls, || {
        for _ in 0..calls {
            *lock.lock() += 1;
        }
        black_box(*lock.lock());
    });
    let queue = SegQueue::new();
    p.per_call("sync.segqueue_ns", calls, || {
        for k in 0..calls {
            queue.push(k as u32);
            black_box(queue.pop());
        }
    });
    let (tx, rx) = unbounded::<u64>();
    p.per_call("sync.channel_ns", calls, || {
        for k in 0..calls {
            tx.send(k).expect("receiver is alive");
            black_box(rx.try_recv().ok());
        }
    });
    let contended = 200_000u64;
    p.per_call("sync.channel_contended_ns", contended, || {
        std::thread::scope(|s| {
            let tx = &tx;
            s.spawn(move || {
                for k in 0..contended {
                    tx.send(k).expect("receiver is alive");
                }
            });
            for _ in 0..contended {
                black_box(rx.recv().expect("sender is alive"));
            }
        });
    });
}

/// `apgas.frame_*_ns`: framing a `Data` payload of `payload` bytes into
/// memory, and over a loopback TCP pair with one frame per write.
pub fn frames(p: &mut Probe<'_>, payload: usize) -> Result<(), String> {
    let frame = Frame::Data {
        src: 1,
        payload: vec![0xA5; payload],
    };
    let calls = (((8usize << 20) / (payload + 16)).clamp(500, 100_000)) as u64;
    let mut wire = Vec::new();
    p.per_call("apgas.frame_encode_ns", calls, || {
        for _ in 0..calls {
            wire.clear();
            write_frame(&mut wire, black_box(&frame)).expect("write to a Vec");
        }
    });
    p.per_call("apgas.frame_decode_ns", calls, || {
        for _ in 0..calls {
            black_box(read_frame(&mut &wire[..]).expect("frame just written"));
        }
    });

    let io = |e: std::io::Error| format!("loopback probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let mut tx = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (mut rx, _) = listener.accept().map_err(io)?;
    tx.set_nodelay(true).map_err(io)?;
    let calls = calls.min(20_000);
    p.per_call("apgas.frame_loopback_ns", calls, || {
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                for _ in 0..calls {
                    black_box(read_frame(&mut rx).expect("loopback frame"));
                }
            });
            for _ in 0..calls {
                write_frame(&mut tx, &frame).expect("loopback write");
            }
            tx.flush().expect("loopback flush");
            reader.join().expect("reader thread");
        });
    });
    Ok(())
}

/// `apgas.mesh_connect_ms`: forming (and closing) a 2-place mesh.
pub fn mesh_connect(p: &mut Probe<'_>) -> Result<(), String> {
    let mut failure = None;
    p.per_op_ms("apgas.mesh_connect_ms", || {
        if let Err(e) = connect_once() {
            failure = Some(e);
        }
    });
    failure.map_or(Ok(()), Err)
}

fn connect_once() -> Result<(), String> {
    let io = |e: std::io::Error| format!("mesh probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?.to_string();
    std::thread::scope(|s| {
        let worker = s.spawn(move || {
            SocketNode::connect(SocketConfig::worker(PlaceId(1), 2, addr)).map(|n| n.shutdown())
        });
        let node = SocketNode::connect(SocketConfig::coordinator(listener, 2)).map_err(io);
        let worker = worker.join().expect("worker thread").map_err(io);
        let node = node?;
        node.shutdown();
        worker
    })
}

/// `obs.recorder_disabled_ns` and `obs.recorder_span_ns`: what one
/// recording call costs with the recorder off and on.
pub fn recorder(p: &mut Probe<'_>) {
    let calls = 1_000_000u64;
    let off = Recorder::disabled();
    p.per_call("obs.recorder_disabled_ns", calls, || {
        for k in 0..calls {
            black_box(&off).instant_now(0, 0, EventKind::ReadyPop, k);
        }
    });
    let on = Recorder::new(1);
    p.per_call("obs.recorder_span_ns", calls, || {
        for k in 0..calls {
            let start = on.now_ns();
            on.span(0, 0, EventKind::VertexCompute, start, on.now_ns(), k);
        }
    });
}
