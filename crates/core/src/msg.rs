//! The vertex protocol's messages, the same on every backend.

use dpx10_apgas::{Coalescible, Codec};
use dpx10_dag::VertexId;

use crate::inline::InlineVec;

/// A [`Msg::Done`]'s receiver-owned dependents: four inline (a Grid3 cell has three).
pub type Targets = InlineVec<VertexId, 4>;

/// Messages exchanged between places while executing a DAG.
///
/// The protocol is push-based with a pull fallback, matching §VI-C: a
/// completing vertex *pushes* its value alongside the indegree decrements
/// of its remote dependents (`Done`), landing it in the consumer's FIFO
/// cache; if the value was evicted before use, the consumer *pulls* it
/// (`Pull`/`PullVal`). `Exec`/`ExecResult` carry remotely scheduled
/// vertices under the random and min-comm strategies. This is the whole
/// vocabulary (codec tags 0–7): push mode sends the same `Done`, and
/// membership changes happen between epochs, never on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg<V> {
    /// `from` finished with `value`; decrement the indegree of `targets`
    /// (all owned by the receiver). A receiver in push mode also pins the
    /// value for its unfinished targets, so no pull round-trip is needed.
    Done {
        /// The finished vertex.
        from: VertexId,
        /// Its result, for the receiver's cache.
        value: V,
        /// Receiver-owned dependents to decrement.
        targets: Targets,
    },
    /// Request the finished value of receiver-owned `id`.
    Pull {
        /// The wanted vertex.
        id: VertexId,
    },
    /// Reply to [`Msg::Pull`].
    PullVal {
        /// The pulled vertex.
        id: VertexId,
        /// Its result.
        value: V,
    },
    /// Execute `id` here on behalf of its owner (random / min-comm
    /// scheduling); dependencies come pre-gathered.
    Exec {
        /// The vertex to compute.
        id: VertexId,
        /// Its dependency ids, in pattern order.
        dep_ids: Vec<VertexId>,
        /// The matching dependency values.
        dep_values: Vec<V>,
    },
    /// Result of an [`Msg::Exec`], returning home to the owner.
    ExecResult {
        /// The computed vertex.
        id: VertexId,
        /// Its result.
        value: V,
    },
    /// Several [`Msg::Done`]s to the same place, coalesced into one
    /// message (and one wire frame on the socket backend).
    DoneBatch {
        /// `(from, value, targets)` of each folded `Done`, in send order.
        entries: Vec<(VertexId, V, Targets)>,
    },
    /// Several [`Msg::Pull`]s to the same owner, coalesced.
    PullBatch {
        /// The wanted vertices, in send order.
        ids: Vec<VertexId>,
    },
    /// Several [`Msg::PullVal`]s to the same consumer, coalesced.
    PullValBatch {
        /// `(id, value)` of each folded reply, in send order.
        entries: Vec<(VertexId, V)>,
    },
}

impl<V: Codec> Msg<V> {
    /// Bytes this message occupies on the wire (8 per vertex id plus the
    /// value payloads), used to price the transfer.
    pub fn wire_size(&self) -> usize {
        match self {
            Msg::Done { value, targets, .. } => 8 + value.wire_size() + 8 * targets.len(),
            Msg::Pull { .. } => 8,
            Msg::PullVal { value, .. } => 8 + value.wire_size(),
            Msg::Exec {
                dep_ids,
                dep_values,
                ..
            } => 8 + 8 * dep_ids.len() + dep_values.iter().map(Codec::wire_size).sum::<usize>(),
            Msg::ExecResult { value, .. } => 8 + value.wire_size(),
            // Batches are priced as the sum of the messages they carry,
            // so coalescing never changes modelled byte totals.
            Msg::DoneBatch { entries } => entries
                .iter()
                .map(|(_, v, ts)| 8 + v.wire_size() + 8 * ts.len())
                .sum(),
            Msg::PullBatch { ids } => 8 * ids.len(),
            Msg::PullValBatch { entries } => entries.iter().map(|(_, v)| 8 + v.wire_size()).sum(),
        }
    }

    /// Whether the message carries indegree decrements. They are not
    /// idempotent, so such a message must never be delivered twice;
    /// every other message may be (the chaos transport's `DupSafe`).
    pub fn carries_decrements(&self) -> bool {
        matches!(self, Msg::Done { .. } | Msg::DoneBatch { .. })
    }
}

/// Per-destination aggregation buffer of [`Msg`]s, used by
/// [`dpx10_apgas::CoalescingTransport`]. Keeps the three batchable
/// families apart so a drain emits at most one batch message per family.
pub struct MsgBatch<V> {
    done: Vec<(VertexId, V, Targets)>,
    pulls: Vec<VertexId>,
    pull_vals: Vec<(VertexId, V)>,
    /// Priced bytes of everything absorbed (sum of the folded messages'
    /// inherent [`Msg::wire_size`]s).
    bytes: usize,
}

impl<V> Default for MsgBatch<V> {
    fn default() -> Self {
        MsgBatch {
            done: Vec::new(),
            pulls: Vec::new(),
            pull_vals: Vec::new(),
            bytes: 0,
        }
    }
}

impl<V: Codec + Send> Coalescible for Msg<V> {
    type Batch = MsgBatch<V>;

    fn absorb(self, batch: &mut MsgBatch<V>) -> Result<(), Self> {
        batch.bytes += self.wire_size();
        match self {
            Msg::Done {
                from,
                value,
                targets,
            } => {
                batch.done.push((from, value, targets));
                Ok(())
            }
            Msg::Pull { id } => {
                batch.pulls.push(id);
                Ok(())
            }
            Msg::PullVal { id, value } => {
                batch.pull_vals.push((id, value));
                Ok(())
            }
            // Exec verbs pair requests with replies and the batch
            // variants themselves never re-fold: both travel alone.
            other => {
                batch.bytes -= other.wire_size();
                Err(other)
            }
        }
    }

    fn batch_entries(batch: &MsgBatch<V>) -> usize {
        batch.done.len() + batch.pulls.len() + batch.pull_vals.len()
    }

    fn batch_bytes(batch: &MsgBatch<V>) -> usize {
        batch.bytes
    }

    fn drain(batch: &mut MsgBatch<V>) -> Vec<(Self, usize)> {
        let mut out = Vec::new();
        if !batch.done.is_empty() {
            let msg = Msg::DoneBatch {
                entries: std::mem::take(&mut batch.done),
            };
            let bytes = msg.wire_size();
            out.push((msg, bytes));
        }
        if !batch.pulls.is_empty() {
            let msg = Msg::PullBatch {
                ids: std::mem::take(&mut batch.pulls),
            };
            let bytes = msg.wire_size();
            out.push((msg, bytes));
        }
        if !batch.pull_vals.is_empty() {
            let msg = Msg::PullValBatch {
                entries: std::mem::take(&mut batch.pull_vals),
            };
            let bytes = msg.wire_size();
            out.push((msg, bytes));
        }
        batch.bytes = 0;
        out
    }
}

/// Encodes a list of vertex ids as packed `u64`s.
fn encode_ids(ids: &[VertexId], buf: &mut Vec<u8>) {
    (ids.len() as u64).encode(buf);
    for id in ids {
        id.pack().encode(buf);
    }
}

/// Decodes a list of packed vertex ids. A count the rest of the frame
/// cannot hold is refused before anything is pushed.
fn decode_ids<C: FromIterator<VertexId>>(src: &mut &[u8]) -> Option<C> {
    let n = u64::decode(src)?;
    if n > src.len() as u64 / 8 {
        return None;
    }
    (0..n)
        .map(|_| u64::decode(src).map(VertexId::unpack))
        .collect()
}

/// Real wire format of [`Msg`] for the socket backend: one tag byte,
/// vertex ids as packed `u64`s, vectors length-prefixed.
///
/// Note the inherent [`Msg::wire_size`] above is the *priced* size the
/// network model charges (it mirrors the paper's per-vertex byte
/// accounting and skips tags and length prefixes); `Codec::wire_size` is
/// the exact byte count `Codec::encode` produces. Call sites get the
/// inherent method unless they go through the trait, which is the
/// intended split: pricing for the simulator, encoding for sockets.
impl<V: Codec> Codec for Msg<V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Msg::Done {
                from,
                value,
                targets,
            } => {
                buf.push(0);
                from.pack().encode(buf);
                value.encode(buf);
                encode_ids(targets, buf);
            }
            Msg::Pull { id } => {
                buf.push(1);
                id.pack().encode(buf);
            }
            Msg::PullVal { id, value } => {
                buf.push(2);
                id.pack().encode(buf);
                value.encode(buf);
            }
            Msg::Exec {
                id,
                dep_ids,
                dep_values,
            } => {
                buf.push(3);
                id.pack().encode(buf);
                encode_ids(dep_ids, buf);
                dep_values.encode(buf);
            }
            Msg::ExecResult { id, value } => {
                buf.push(4);
                id.pack().encode(buf);
                value.encode(buf);
            }
            Msg::DoneBatch { entries } => {
                buf.push(5);
                (entries.len() as u64).encode(buf);
                for (from, value, targets) in entries {
                    from.pack().encode(buf);
                    value.encode(buf);
                    encode_ids(targets, buf);
                }
            }
            Msg::PullBatch { ids } => {
                buf.push(6);
                encode_ids(ids, buf);
            }
            Msg::PullValBatch { entries } => {
                buf.push(7);
                (entries.len() as u64).encode(buf);
                for (id, value) in entries {
                    id.pack().encode(buf);
                    value.encode(buf);
                }
            }
        }
    }

    fn decode(src: &mut &[u8]) -> Option<Self> {
        match u8::decode(src)? {
            0 => Some(Msg::Done {
                from: VertexId::unpack(u64::decode(src)?),
                value: V::decode(src)?,
                targets: decode_ids(src)?,
            }),
            1 => Some(Msg::Pull {
                id: VertexId::unpack(u64::decode(src)?),
            }),
            2 => Some(Msg::PullVal {
                id: VertexId::unpack(u64::decode(src)?),
                value: V::decode(src)?,
            }),
            3 => Some(Msg::Exec {
                id: VertexId::unpack(u64::decode(src)?),
                dep_ids: decode_ids(src)?,
                dep_values: Vec::<V>::decode(src)?,
            }),
            4 => Some(Msg::ExecResult {
                id: VertexId::unpack(u64::decode(src)?),
                value: V::decode(src)?,
            }),
            5 => {
                let n = u64::decode(src)?;
                // Hostile-length guard: every entry costs at least 16
                // bytes (packed id + target count) beyond this point.
                if n > (src.len() as u64) {
                    return None;
                }
                let mut entries = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    entries.push((
                        VertexId::unpack(u64::decode(src)?),
                        V::decode(src)?,
                        decode_ids(src)?,
                    ));
                }
                Some(Msg::DoneBatch { entries })
            }
            6 => Some(Msg::PullBatch {
                ids: decode_ids(src)?,
            }),
            7 => {
                let n = u64::decode(src)?;
                if n > (src.len() as u64) {
                    return None;
                }
                let mut entries = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    entries.push((VertexId::unpack(u64::decode(src)?), V::decode(src)?));
                }
                Some(Msg::PullValBatch { entries })
            }
            _ => None,
        }
    }

    fn wire_size(&self) -> usize {
        1 + match self {
            Msg::Done { value, targets, .. } => 8 + Codec::wire_size(value) + 8 + 8 * targets.len(),
            Msg::Pull { .. } => 8,
            Msg::PullVal { value, .. } => 8 + Codec::wire_size(value),
            Msg::Exec {
                dep_ids,
                dep_values,
                ..
            } => 8 + 8 + 8 * dep_ids.len() + Codec::wire_size(dep_values),
            Msg::ExecResult { value, .. } => 8 + Codec::wire_size(value),
            Msg::DoneBatch { entries } => {
                8 + entries
                    .iter()
                    .map(|(_, v, ts)| 8 + Codec::wire_size(v) + 8 + 8 * ts.len())
                    .sum::<usize>()
            }
            Msg::PullBatch { ids } => 8 + 8 * ids.len(),
            Msg::PullValBatch { entries } => {
                8 + entries
                    .iter()
                    .map(|(_, v)| 8 + Codec::wire_size(v))
                    .sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_apgas::codec::{decode_exact, encode_to_vec};

    #[test]
    fn wire_sizes() {
        let done = Msg::Done {
            from: VertexId::new(0, 0),
            value: 7i64,
            targets: vec![VertexId::new(0, 1), VertexId::new(1, 0)].into(),
        };
        assert_eq!(done.wire_size(), 8 + 8 + 16);
        assert_eq!(
            Msg::<i64>::Pull {
                id: VertexId::new(0, 0)
            }
            .wire_size(),
            8
        );
        let exec = Msg::Exec {
            id: VertexId::new(2, 2),
            dep_ids: vec![VertexId::new(1, 2)],
            dep_values: vec![3i64],
        };
        assert_eq!(exec.wire_size(), 8 + 8 + 8);
    }

    #[test]
    fn codec_round_trips_every_variant() {
        let msgs: Vec<Msg<i64>> = vec![
            Msg::Done {
                from: VertexId::new(3, 4),
                value: -9,
                targets: vec![VertexId::new(3, 5), VertexId::new(4, 4)].into(),
            },
            Msg::Pull {
                id: VertexId::new(0, u32::MAX),
            },
            Msg::PullVal {
                id: VertexId::new(7, 7),
                value: i64::MIN,
            },
            Msg::Exec {
                id: VertexId::new(2, 2),
                dep_ids: vec![VertexId::new(1, 2), VertexId::new(2, 1)],
                dep_values: vec![10, 20],
            },
            Msg::ExecResult {
                id: VertexId::new(9, 1),
                value: 0,
            },
        ];
        msgs.iter().for_each(assert_round_trip);
    }

    #[test]
    fn codec_rejects_unknown_tag_and_truncation() {
        // Tags 8–12 were the push and relocation messages: behind any tag
        // outside 0–7, a body shaped like one of them is refused.
        let id = VertexId::new(1, 2);
        let done = encode_to_vec(&Msg::Done {
            from: id,
            value: 7i64,
            targets: vec![VertexId::new(1, 3)].into(),
        });
        let batch = encode_to_vec(&Msg::DoneBatch {
            entries: vec![(id, 7i64, vec![id].into())],
        });
        let mut ack = Vec::new();
        (4u16, 17u64).encode(&mut ack);
        let mut data = ack.clone();
        vec![9u8, 8, 7].encode(&mut data);
        let mut offer = ack.clone();
        (1000u32, 65_536u64).encode(&mut offer);
        for body in [&done[1..], &batch[1..], &ack, &data, &offer] {
            for tag in 8..=u8::MAX {
                let bytes = [&[tag][..], body].concat();
                assert!(decode_exact::<Msg<i64>>(&bytes).is_none(), "tag {tag}");
            }
        }
        for cut in 0..done.len() {
            assert!(
                decode_exact::<Msg<i64>>(&done[..cut]).is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn only_done_and_its_batch_carry_decrements() {
        let id = VertexId::new(1, 1);
        let every: [(Msg<i64>, bool); 8] = [
            (
                Msg::Done {
                    from: id,
                    value: 1,
                    targets: vec![id].into(),
                },
                true,
            ),
            (Msg::Pull { id }, false),
            (Msg::PullVal { id, value: 1 }, false),
            (
                Msg::Exec {
                    id,
                    dep_ids: vec![],
                    dep_values: vec![],
                },
                false,
            ),
            (Msg::ExecResult { id, value: 1 }, false),
            (
                Msg::DoneBatch {
                    entries: vec![(id, 1, vec![id].into())],
                },
                true,
            ),
            (Msg::PullBatch { ids: vec![id] }, false),
            (
                Msg::PullValBatch {
                    entries: vec![(id, 1)],
                },
                false,
            ),
        ];
        for (tag, (msg, decrements)) in every.iter().enumerate() {
            assert_eq!(encode_to_vec(msg)[0], tag as u8, "one row per tag 0–7");
            assert_eq!(msg.carries_decrements(), *decrements, "{msg:?}");
        }
    }

    /// Encodes to exactly `Codec::wire_size` bytes and decodes back to
    /// an equal message.
    fn assert_round_trip(msg: &Msg<i64>) {
        let buf = encode_to_vec(msg);
        assert_eq!(buf.len(), Codec::wire_size(msg), "{msg:?}");
        assert_eq!(&decode_exact::<Msg<i64>>(&buf).expect("decodes"), msg);
    }

    #[test]
    fn batch_codec_round_trips_including_empty() {
        assert_round_trip(&Msg::DoneBatch {
            entries: vec![
                (VertexId::new(0, 1), -3, vec![VertexId::new(1, 1)].into()),
                (VertexId::new(2, 2), 9, vec![].into()),
            ],
        });
        assert_round_trip(&Msg::DoneBatch { entries: vec![] });
        assert_round_trip(&Msg::PullBatch {
            ids: vec![VertexId::new(0, u32::MAX), VertexId::new(5, 0)],
        });
        assert_round_trip(&Msg::PullBatch { ids: vec![] });
        assert_round_trip(&Msg::PullValBatch {
            entries: vec![(VertexId::new(3, 3), i64::MIN)],
        });
        assert_round_trip(&Msg::PullValBatch { entries: vec![] });
    }

    #[test]
    fn batch_codec_rejects_hostile_length_and_truncation() {
        // A DoneBatch claiming u64::MAX entries with no payload.
        let mut buf = vec![5u8];
        u64::MAX.encode(&mut buf);
        assert!(decode_exact::<Msg<i64>>(&buf).is_none());
        let full = encode_to_vec(&Msg::PullValBatch {
            entries: vec![(VertexId::new(1, 2), 7i64), (VertexId::new(3, 4), 8)],
        });
        assert!(decode_exact::<Msg<i64>>(&full[..full.len() - 1]).is_none());
    }

    #[test]
    fn priced_size_is_invariant_under_batching() {
        let singles: Vec<Msg<i64>> = vec![
            Msg::Done {
                from: VertexId::new(0, 0),
                value: 1,
                targets: vec![VertexId::new(0, 1), VertexId::new(1, 0)].into(),
            },
            Msg::Done {
                from: VertexId::new(2, 0),
                value: 2,
                targets: vec![VertexId::new(2, 1)].into(),
            },
            Msg::Pull {
                id: VertexId::new(4, 4),
            },
            Msg::PullVal {
                id: VertexId::new(5, 5),
                value: 3,
            },
        ];
        let priced: usize = singles.iter().map(Msg::wire_size).sum();
        let mut batch = MsgBatch::default();
        for m in singles {
            m.absorb(&mut batch).expect("all batchable");
        }
        assert_eq!(Msg::<i64>::batch_bytes(&batch), priced);
        assert_eq!(Msg::<i64>::batch_entries(&batch), 4);
        let drained = Msg::<i64>::drain(&mut batch);
        assert_eq!(drained.len(), 3, "one message per non-empty family");
        assert_eq!(drained.iter().map(|(_, b)| b).sum::<usize>(), priced);
        assert_eq!(Msg::<i64>::batch_entries(&batch), 0);
        assert_eq!(Msg::<i64>::batch_bytes(&batch), 0);
    }

    #[test]
    fn exec_and_batch_variants_refuse_to_fold() {
        let mut batch = MsgBatch::<i64>::default();
        let exec = Msg::Exec {
            id: VertexId::new(1, 1),
            dep_ids: vec![],
            dep_values: vec![],
        };
        assert!(exec.absorb(&mut batch).is_err());
        let nested = Msg::PullBatch {
            ids: vec![VertexId::new(0, 0)],
        };
        assert!(nested.absorb(&mut batch).is_err());
        assert_eq!(
            Msg::<i64>::batch_bytes(&batch),
            0,
            "rejects leave no residue"
        );
    }
}
