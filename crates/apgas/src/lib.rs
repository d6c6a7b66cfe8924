//! A miniature APGAS (Asynchronous Partitioned Global Address Space)
//! runtime — the substrate the DPX10 framework runs on.
//!
//! The paper's framework is written in X10, whose runtime provides
//! *places* (OS processes owning a partition of the data, paper §II),
//! *activities* (`async S`), the `finish` termination construct, remote
//! execution (`at (p) S`) and failure reporting (`DeadPlaceException` from
//! Resilient X10). None of that exists in Rust, so this crate rebuilds the
//! subset DPX10 needs:
//!
//! * [`PlaceId`]/[`Topology`] — places grouped into *nodes* exactly like
//!   the paper's deployment (2 places per node, 6 worker threads per
//!   place on Tianhe-1A). The worker threads themselves — the paper's
//!   `finish { at (p) async worker }` — are started and joined per epoch
//!   by `dpx10-core`'s epoch loop; this crate has no thread pool.
//! * [`Mailbox`] — typed inter-place channels with byte accounting; every
//!   transfer is priced by a [`NetworkModel`] so experiments can report
//!   communication volume and (simulated) communication time honestly.
//! * [`Codec`] — a small hand-rolled wire format: the byte count a value
//!   occupies on the interconnect, and the actual encoding the socket
//!   backend puts on the wire.
//! * [`Transport`] — the seam between engines and substrates, over two
//!   of them: [`LocalTransport`] (places as threads, transfers priced by
//!   the cost model) and the [`socket`] byte mesh (one OS process per
//!   place over real TCP, transfers counted as framed bytes).
//! * [`fault`] — per-place liveness flags and [`DeadPlaceError`],
//!   mirroring Resilient X10's failure reporting, including its documented
//!   limitation that place 0 must survive. The socket transport feeds the
//!   same board when it *detects* a dead peer (closed connection, missed
//!   heartbeats), so injected and real failures follow one code path.
//!
//! The single-machine substitution is deliberate and documented in
//! DESIGN.md §3: this container has one CPU core, so cluster-scale
//! behaviour is reproduced by the deterministic simulator in `dpx10-sim`,
//! while this crate provides real concurrent execution (threads or
//! processes) for functional and fault-tolerance correctness.

#![warn(missing_docs)]

pub mod chaos;
pub mod coalesce;
pub mod codec;
pub mod fault;
pub mod mailbox;
pub mod membership;
pub mod network;
pub mod place;
pub mod socket;
pub mod stats;
pub mod transport;

pub use chaos::{
    ChaosCounters, ChaosPlan, ChaosRng, ChaosTransport, ElasticEvent, ElasticPlan, ElasticVerb,
    HeartbeatFlap, KillSpec, KillTrigger, NetChaos,
};
pub use coalesce::{CoalesceConfig, Coalescible, CoalescingTransport};
pub use codec::Codec;
pub use fault::{DeadPlaceError, LivenessBoard};
pub use mailbox::{Mailbox, MailboxSender};
pub use membership::{MemberState, MembershipError, RosterBoard};
pub use network::NetworkModel;
pub use place::{PlaceId, Topology};
pub use socket::launch::{launch_places, local_mesh, PlaceChildren};
pub use socket::{SocketChaos, SocketConfig, SocketNode};
pub use stats::{PlaceStats, StatsBoard, StatsSnapshot};
pub use transport::{LocalTransport, Transport};
