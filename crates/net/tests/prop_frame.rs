//! Property coverage for the reactor's incremental frame decoder.
//!
//! A nonblocking socket hands `FrameBuf` whatever bytes the kernel has —
//! a read can end mid-length-word, mid-payload, or hand back three frames
//! and half of a fourth.  These properties drive the decoder with
//! arbitrary frame sequences cut at arbitrary points and pin the one
//! contract the reactor depends on: every frame comes out exactly once,
//! in order, byte-identical, no matter where the reads land.

use mra_core::LassMsg;
use mra_net::frame::{
    write_frame, FrameBuf, WriteBuf, MAX_FRAME, READ_CHUNK, RETAIN_LIMIT, TAG_MSG,
};
use mra_protocol::wire::MAX_LISTED_ID;
use mra_protocol::WireCodec;
use mra_types::NodeSet;
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{self, Read};

/// A `Read` that returns at most the next scheduled chunk size per call —
/// the adversarial kernel.  The schedule cycles so any split list covers
/// any wire length.
struct Dribble<'a> {
    wire: &'a [u8],
    pos: usize,
    splits: &'a [usize],
    turn: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let chunk = self.splits[self.turn % self.splits.len()];
        self.turn += 1;
        let n = chunk.min(out.len()).min(self.wire.len() - self.pos);
        out[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// One legal frame: any tag the wire format allows room for, payload from
/// empty through a few KiB (`write_frame` caps body size at `MAX_FRAME`).
fn any_frame() -> impl Strategy<Value = (u8, Vec<u8>)> {
    let payload = prop_oneof![
        vec(any::<u8>(), 0..64),
        vec(any::<u8>(), 64..600),
        vec(any::<u8>(), 4000..5000),
    ];
    (any::<u8>(), payload)
}

/// Decode everything `fb` can yield right now, appending to `got`.
fn drain(fb: &mut FrameBuf, scratch: &mut Vec<u8>, got: &mut Vec<(u8, Vec<u8>)>) {
    while let Some(tag) = fb.next_frame_into(scratch).expect("legal wire stream") {
        got.push((tag, scratch[1..].to_vec()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The load-bearing property: frames survive arbitrary read splits.
    #[test]
    fn frames_survive_arbitrary_read_splits(
        frames in vec(any_frame(), 1..16),
        splits in vec(1usize..700, 1..64),
    ) {
        let mut wire = Vec::new();
        for (tag, payload) in &frames {
            write_frame(&mut wire, *tag, payload).unwrap();
        }
        let mut r = Dribble { wire: &wire, pos: 0, splits: &splits, turn: 0 };
        let mut fb = FrameBuf::new();
        let mut scratch = Vec::new();
        let mut got = Vec::new();
        loop {
            let n = fb.read_from(&mut r).unwrap();
            // Decode after *every* read, like the reactor does, so partial
            // frames are observed at every possible boundary.
            drain(&mut fb, &mut scratch, &mut got);
            if n == 0 {
                break;
            }
        }
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(fb.pending(), 0, "undecoded tail after a whole stream");
    }

    /// Byte-at-a-time is the worst dribble; also checks `pending()` only
    /// ever holds a partial frame (less than header + max body).  Small
    /// payloads: one `read_from` call per *byte* makes big frames
    /// needlessly slow, and the split-position coverage is identical.
    #[test]
    fn single_byte_reads_decode_identically(
        frames in vec((any::<u8>(), vec(any::<u8>(), 0..80)), 1..6),
    ) {
        let mut wire = Vec::new();
        for (tag, payload) in &frames {
            write_frame(&mut wire, *tag, payload).unwrap();
        }
        let splits = [1usize];
        let mut r = Dribble { wire: &wire, pos: 0, splits: &splits, turn: 0 };
        let mut fb = FrameBuf::new();
        let mut scratch = Vec::new();
        let mut got = Vec::new();
        loop {
            let n = fb.read_from(&mut r).unwrap();
            drain(&mut fb, &mut scratch, &mut got);
            prop_assert!(fb.pending() < 4 + MAX_FRAME);
            if n == 0 {
                break;
            }
        }
        prop_assert_eq!(&got, &frames);
    }

    /// Totality on garbage: random bytes never panic and never loop — the
    /// decoder either yields (possibly nonsense-tagged) frames, reports
    /// "need more", or errors out, and consumed progress is monotonic.
    #[test]
    fn arbitrary_bytes_never_panic(
        junk in vec(any::<u8>(), 0..2000),
        splits in vec(1usize..257, 1..16),
    ) {
        let mut r = Dribble { wire: &junk, pos: 0, splits: &splits, turn: 0 };
        let mut fb = FrameBuf::new();
        let mut scratch = Vec::new();
        loop {
            let n = fb.read_from(&mut r).unwrap();
            loop {
                match fb.next_frame_into(&mut scratch) {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    // A poisoned length word: the reactor kills the link.
                    Err(_) => return Ok(()),
                }
            }
            if n == 0 {
                break;
            }
        }
    }

    /// Storage stays bounded on a long-lived connection: whatever backlog
    /// a slow consumer builds up (reads outpacing decodes by an arbitrary
    /// factor, cut at arbitrary points), once the decoder catches up the
    /// backing store returns to the [`RETAIN_LIMIT`] envelope instead of
    /// pinning its high-water allocation forever.
    #[test]
    fn burst_storage_returns_to_bound_after_drain(
        frames in vec((any::<u8>(), 1usize..MAX_FRAME), 4..10),
        splits in vec(1usize..20_000, 1..16),
        drain_every in 2usize..9,
    ) {
        // Payload bytes are derived, not generated: multi-hundred-KiB
        // random vectors would dominate the test's runtime without
        // adding split coverage.
        let frames: Vec<(u8, Vec<u8>)> = frames
            .into_iter()
            .map(|(tag, len)| (tag, vec![(len % 251) as u8; len]))
            .collect();
        let mut wire = Vec::new();
        for (tag, payload) in &frames {
            write_frame(&mut wire, *tag, payload).unwrap();
        }
        let mut r = Dribble { wire: &wire, pos: 0, splits: &splits, turn: 0 };
        let mut fb = FrameBuf::new();
        let mut scratch = Vec::new();
        let mut got = Vec::new();
        let mut reads = 0usize;
        loop {
            let n = fb.read_from(&mut r).unwrap();
            reads += 1;
            // The slow consumer: only every `drain_every`-th read gets a
            // decode pass, so undecoded backlog genuinely accumulates.
            if reads % drain_every == 0 {
                drain(&mut fb, &mut scratch, &mut got);
            }
            if n == 0 {
                break;
            }
        }
        drain(&mut fb, &mut scratch, &mut got);
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(fb.pending(), 0);
        // The next read cycle after the catch-up releases burst storage.
        fb.read_from(&mut io::empty()).unwrap();
        prop_assert!(
            fb.capacity() <= RETAIN_LIMIT + READ_CHUNK,
            "high-water allocation pinned: {} bytes held, bound {}",
            fb.capacity(),
            RETAIN_LIMIT + READ_CHUNK
        );
    }

    /// The write-side twin: arbitrary queue/consume interleaves (a kernel
    /// accepting arbitrary partial writes) never lose or reorder bytes,
    /// and a fully drained queue returns burst storage to the
    /// [`RETAIN_LIMIT`] envelope.
    #[test]
    fn writebuf_survives_arbitrary_partial_writes(
        chunks in vec(1usize..5_000, 1..40),
        accepts in vec(1usize..3_000, 1..32),
    ) {
        let mut wb = WriteBuf::new();
        let mut expect: Vec<u8> = Vec::new();
        let mut fed = 0usize;
        for (turn, len) in chunks.iter().enumerate() {
            let bytes: Vec<u8> = (0..*len).map(|i| ((fed + i) % 251) as u8).collect();
            expect.extend_from_slice(&bytes);
            fed += len;
            wb.queue(&bytes);
            // The adversarial kernel accepts some prefix of what's owed.
            let k = accepts[turn % accepts.len()].min(wb.pending());
            prop_assert_eq!(wb.unwritten(), &expect[expect.len() - wb.pending()..]);
            wb.consume(k);
            prop_assert_eq!(wb.unwritten(), &expect[expect.len() - wb.pending()..]);
        }
        // Drain to empty: the backlog spike must not stay resident.
        let owed = wb.pending();
        prop_assert_eq!(wb.unwritten(), &expect[expect.len() - owed..]);
        wb.consume(owed);
        prop_assert!(wb.is_empty());
        prop_assert!(
            wb.capacity() <= RETAIN_LIMIT,
            "drained write queue holds {} bytes, bound {}",
            wb.capacity(),
            RETAIN_LIMIT
        );
    }

    /// Hostile id-list sets inside framed messages: a `Requests` message
    /// whose visited set carries the id-list tag with any count (past the
    /// cap, past the bytes present) and any ids (repeated, descending,
    /// past [`MAX_LISTED_ID`]).  The frame layer delivers each payload intact and the codec
    /// either rejects it or decodes a message that re-encodes stably;
    /// nothing panics, and a well-formed list always decodes.
    #[test]
    fn hostile_sparse_set_payloads_never_panic(
        msgs in vec(
            (
                prop_oneof![0u32..12, any::<u32>()],
                vec(prop_oneof![0u32..300, 99_000u32..100_000, any::<u32>()], 0..12),
                any::<bool>(),
            ),
            1..8,
        ),
        splits in vec(1usize..97, 1..16),
    ) {
        let mut wire = Vec::new();
        let mut well_formed = Vec::new();
        for (count, ids, sorted) in &msgs {
            let mut ids = ids.clone();
            if *sorted {
                ids.sort_unstable();
                ids.dedup();
            }
            let mut payload = vec![0u8]; // LassMsg::Requests
            payload.extend_from_slice(&((1u32 << 31) | count).to_le_bytes());
            for i in &ids {
                payload.extend_from_slice(&i.to_le_bytes());
            }
            payload.extend_from_slice(&0u32.to_le_bytes()); // no requests
            let exact = *count as usize == ids.len() && ids.len() <= NodeSet::MAX_INLINE_IDS;
            let in_range = ids.iter().all(|&i| i <= MAX_LISTED_ID);
            well_formed.push(exact && in_range && ids.windows(2).all(|w| w[0] < w[1]));
            write_frame(&mut wire, TAG_MSG, &payload).unwrap();
        }
        let mut r = Dribble { wire: &wire, pos: 0, splits: &splits, turn: 0 };
        let mut fb = FrameBuf::new();
        let mut scratch = Vec::new();
        let mut got = Vec::new();
        loop {
            let n = fb.read_from(&mut r).unwrap();
            drain(&mut fb, &mut scratch, &mut got);
            if n == 0 {
                break;
            }
        }
        prop_assert_eq!(got.len(), msgs.len());
        for ((_, payload), ok) in got.iter().zip(&well_formed) {
            match LassMsg::from_bytes(payload) {
                Ok(m) => {
                    prop_assert!(*ok, "a malformed id list decoded");
                    let again = LassMsg::from_bytes(&m.to_bytes()).expect("re-encoding decodes");
                    prop_assert_eq!(format!("{again:?}"), format!("{m:?}"));
                }
                Err(_) => prop_assert!(!ok, "a well-formed id list was rejected"),
            }
        }
    }

    /// A frame decoded through the incremental path is byte-identical to
    /// the blocking `read_frame` decode of the same wire image.
    #[test]
    fn incremental_matches_blocking_decoder(payload in vec(any::<u8>(), 0..600)) {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_MSG, &payload).unwrap();

        let mut blocking = Vec::new();
        let tag = mra_net::frame::read_frame(&mut io::Cursor::new(&wire), &mut blocking).unwrap();
        prop_assert_eq!(tag, TAG_MSG);

        let mut fb = FrameBuf::new();
        fb.read_from(&mut io::Cursor::new(&wire)).unwrap();
        let mut incremental = Vec::new();
        prop_assert_eq!(fb.next_frame_into(&mut incremental).unwrap(), Some(TAG_MSG));
        prop_assert_eq!(incremental, blocking);
    }
}
