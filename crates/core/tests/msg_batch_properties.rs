//! Property tests of the coalesced batch wire variants
//! (`DoneBatch`/`PullBatch`/`PullValBatch`): round-trips at every size
//! from empty to the flush-policy entry cap, codec size contracts, and
//! decoder totality on arbitrary bytes — mirroring the frame-fuzz tests
//! of the base protocol in `dpx10-apgas`. `Done` targets are kept inline
//! up to four, on the wire they keep the length-prefixed layout of a
//! `Vec`, and a hostile target count is refused before any allocation
//! (a thread-local counting allocator watches the decode).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpx10_apgas::codec::{decode_exact, encode_to_vec};
use dpx10_apgas::{CoalesceConfig, Codec};
use dpx10_core::msg::{Msg, Targets};
use dpx10_dag::VertexId;
use proptest::prelude::*;

/// Counts this thread's allocations, then defers to `System`.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialised thread-local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Round-trips one message: exact codec size, decodes to an equal
/// message, and the decoded value re-encodes to identical bytes.
fn round_trip(msg: &Msg<u64>) -> Result<(), TestCaseError> {
    let buf = encode_to_vec(msg);
    prop_assert_eq!(buf.len(), Codec::wire_size(msg), "codec size contract");
    let back: Msg<u64> = decode_exact(&buf).expect("well-formed bytes decode");
    prop_assert_eq!(&back, msg, "decodes to an equal message");
    prop_assert_eq!(encode_to_vec(&back), buf, "decode/encode is stable");
    Ok(())
}

fn vids(coords: &[(u32, u32)]) -> Vec<VertexId> {
    coords.iter().map(|&(i, j)| VertexId::new(i, j)).collect()
}

proptest! {
    #[test]
    fn done_batches_round_trip(
        entries in proptest::collection::vec(
            ((any::<u32>(), any::<u32>()), any::<u64>()), 0..24),
        targets in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..6),
    ) {
        let targets = vids(&targets);
        let entries: Vec<(VertexId, u64, Targets)> = entries
            .into_iter()
            .map(|((i, j), v)| (VertexId::new(i, j), v, targets.clone().into()))
            .collect();
        round_trip(&Msg::DoneBatch { entries })?;
    }

    #[test]
    fn pull_batches_round_trip(
        ids in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..64),
    ) {
        round_trip(&Msg::PullBatch { ids: vids(&ids) })?;
    }

    #[test]
    fn pull_val_batches_round_trip(
        entries in proptest::collection::vec(
            ((any::<u32>(), any::<u32>()), any::<u64>()), 0..64),
    ) {
        let entries: Vec<(VertexId, u64)> = entries
            .into_iter()
            .map(|((i, j), v)| (VertexId::new(i, j), v))
            .collect();
        round_trip(&Msg::PullValBatch { entries })?;
    }

    /// Arbitrary bytes never panic the protocol decoder, and anything
    /// that does decode re-encodes to exactly the consumed prefix.
    #[test]
    fn batch_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let mut src = bytes.as_slice();
        if let Some(msg) = Msg::<u64>::decode(&mut src) {
            let consumed = bytes.len() - src.len();
            let again = encode_to_vec(&msg);
            prop_assert_eq!(again.as_slice(), &bytes[..consumed]);
        }
    }
}

/// Boundary sizes the flush policy actually produces: the empty batch
/// (legal on the wire even though the coalescer never sends one) and a
/// batch at exactly `CoalesceConfig::MAX_ENTRIES`, the entry-cap
/// trigger.
#[test]
fn empty_and_entry_cap_boundaries_round_trip() {
    let empty_ok = |m: &Msg<u64>| {
        let buf = encode_to_vec(m);
        assert_eq!(buf.len(), Codec::wire_size(m));
        let back: Msg<u64> = decode_exact(&buf).expect("decodes");
        assert_eq!(encode_to_vec(&back), buf);
    };
    empty_ok(&Msg::DoneBatch { entries: vec![] });
    empty_ok(&Msg::PullBatch { ids: vec![] });
    empty_ok(&Msg::PullValBatch { entries: vec![] });

    let cap = CoalesceConfig::MAX_ENTRIES;
    empty_ok(&Msg::DoneBatch {
        entries: (0..cap as u32)
            .map(|k| {
                (
                    VertexId::new(k, k + 1),
                    u64::from(k) << 17,
                    vec![VertexId::new(k + 1, k)].into(),
                )
            })
            .collect(),
    });
    empty_ok(&Msg::PullBatch {
        ids: (0..cap as u32).map(|k| VertexId::new(k, !k)).collect(),
    });
    empty_ok(&Msg::PullValBatch {
        entries: (0..cap as u32)
            .map(|k| (VertexId::new(!k, k), u64::MAX - u64::from(k)))
            .collect(),
    });
}

/// `[from][value][count u64][ids…]`, little-endian: one `Done` body as
/// it was laid out when its targets were a `Vec`.
fn done_body(from: VertexId, value: u64, targets: &[VertexId]) -> Vec<u8> {
    let mut body = [from.pack().to_le_bytes(), value.to_le_bytes()].concat();
    body.extend((targets.len() as u64).to_le_bytes());
    targets
        .iter()
        .for_each(|t| body.extend(t.pack().to_le_bytes()));
    body
}

#[test]
fn done_and_its_batch_keep_the_vec_wire_layout() {
    let (from, value) = (VertexId::new(3, 1), 0xDEAD_BEEF_u64);
    // 9 targets spill past the inline four.
    for n in [0u32, 4, 9] {
        let ids: Vec<VertexId> = (0..n).map(|k| VertexId::new(k, k + 7)).collect();
        let targets: Targets = ids.iter().copied().collect();
        assert_eq!(
            (&targets[..], format!("{targets:?}")),
            (&ids[..], format!("{ids:?}"))
        );
        let body = done_body(from, value, &ids);

        let done = Msg::Done {
            from,
            value,
            targets: targets.clone(),
        };
        let bytes = [&[0u8][..], &body].concat();
        assert_eq!(encode_to_vec(&done), bytes, "Done with {n} targets");
        let Some(Msg::Done { targets: back, .. }) = decode_exact::<Msg<u64>>(&bytes) else {
            panic!("Done with {n} targets decodes");
        };
        assert_eq!(back, targets);

        let batch = Msg::DoneBatch {
            entries: vec![(from, value, targets.clone()), (from, value, targets)],
        };
        let bytes = [&[5u8][..], &2u64.to_le_bytes(), &body, &body].concat();
        assert_eq!(encode_to_vec(&batch), bytes, "DoneBatch of {n} targets");
        assert_eq!(
            encode_to_vec(&decode_exact::<Msg<u64>>(&bytes).unwrap()),
            bytes
        );
    }
}

#[test]
fn a_hostile_target_count_is_refused_before_any_allocation() {
    let from = VertexId::new(1, 1);
    let ids: Vec<VertexId> = (0..8).map(|k| VertexId::new(k, 2)).collect();
    // A count of 9 over 8 ids' bytes: decoding item by item would have
    // spilled to the heap at the fifth before running out at the ninth.
    let mut bytes = [&[0u8][..], &done_body(from, 7, &ids)].concat();
    bytes[17..25].copy_from_slice(&9u64.to_le_bytes());
    let mut huge = bytes.clone();
    huge[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
    for hostile in [&bytes, &huge] {
        let before = ALLOCS.with(Cell::get);
        let decoded = Msg::<u64>::decode(&mut hostile.as_slice());
        let allocs = ALLOCS.with(Cell::get) - before;
        assert!(decoded.is_none());
        assert_eq!(allocs, 0, "allocations before the count was refused");
    }
}
