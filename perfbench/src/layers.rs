//! Probes of single layers on inputs taken from the running workload, and
//! the ledger rows every traced run prints.
//!
//! The probes call public API only: `ResourceSet` algebra on the request
//! sets the workload drew (`types`), `WireCodec` on the messages the
//! protocol handled (`protocol`), and `FrameBuf` on those messages framed
//! the way the reactor frames them (`net`).

use crate::probe::{count_allocations, NodeLedger, Span};
use crate::stats::{median, Report};
use mra_net::frame::{begin_frame, end_frame, split_rdata, FrameBuf, MAX_FRAME, TAG_RDATA};
use mra_protocol::{WireCodec, WireMsg, WireReader};
use mra_types::ResourceSet;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// The LASS message kinds the ledger reports one by one.
pub const KINDS: [&str; 6] = ["ReqCnt", "ReqCnt1", "ReqRes", "ReqLoan", "Counter", "Token"];

/// Repeats of each probe; the reported figure is their median.
const PROBE_REPEATS: usize = 5;
/// Minimum wall time of one probe repeat, so timer resolution is noise.
const PROBE_MIN_NS: u128 = 2_000_000;

/// Mean nanoseconds per item of `op` over `items`, median of
/// [`PROBE_REPEATS`] repeats that each loop until [`PROBE_MIN_NS`].
fn time_per_item<T>(items: &[T], mut op: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let reps: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let mut done = 0u64;
            while t0.elapsed().as_nanos() < PROBE_MIN_NS {
                for it in items {
                    op(it);
                }
                done += items.len() as u64;
            }
            t0.elapsed().as_nanos() as f64 / done as f64
        })
        .collect();
    median(&reps)
}

/// `types`: set algebra on pairs of consecutive request sets.
pub fn types_rows(sets: &[ResourceSet], r: &mut Report) {
    let pairs: Vec<(ResourceSet, ResourceSet, ResourceSet)> = (0..sets.len())
        .map(|i| {
            let a = sets[i].clone();
            let b = sets[(i + 1) % sets.len()].clone();
            let u = a.union(&b);
            (a, b, u)
        })
        .collect();
    r.value(
        "types.union_ns",
        "ns",
        time_per_item(&pairs, |(a, b, _)| {
            black_box(black_box(a).union(black_box(b)));
        }),
    );
    r.value(
        "types.is_disjoint_ns",
        "ns",
        time_per_item(&pairs, |(a, b, _)| {
            black_box(black_box(a).is_disjoint(black_box(b)));
        }),
    );
    // Against the pair's union the answer is always `true`, so the
    // check cannot stop early.
    r.value(
        "types.is_subset_ns",
        "ns",
        time_per_item(&pairs, |(a, _, u)| {
            black_box(black_box(a).is_subset(black_box(u)));
        }),
    );
    r.value(
        "types.clone_ns",
        "ns",
        time_per_item(&pairs, |(a, _, _)| {
            black_box(black_box(a).clone());
        }),
    );
    let (clones, bytes) = count_allocations(|| sets.to_vec());
    drop(clones);
    // The clones' Vec itself is one allocation of `len` sets; only the
    // sets' own heap storage is the figure.
    let vec_bytes = std::mem::size_of_val(sets) as u64;
    let per_set = if sets.is_empty() {
        0.0
    } else {
        bytes.saturating_sub(vec_bytes) as f64 / sets.len() as f64
    };
    r.value("types.set_heap_bytes", "B", per_set);
}

/// Encode `msg` as the reactor's reliable-session data frame.
fn rdata_frame<M: WireCodec>(msg: &M, out: &mut Vec<u8>) -> bool {
    begin_frame(out);
    out.extend_from_slice(&1u64.to_le_bytes()); // seq
    out.extend_from_slice(&0u64.to_le_bytes()); // piggybacked ack
    msg.encode(out);
    if out.len() - 4 > MAX_FRAME {
        return false;
    }
    end_frame(out, TAG_RDATA);
    true
}

/// `protocol` and `net.frame_decode_ns`: the codec and the frame decoder
/// on the messages the protocol handled.
pub fn codec_rows<M: WireCodec + WireMsg>(msgs: &[M], r: &mut Report) {
    let encoded: Vec<Vec<u8>> = msgs.iter().map(|m| m.to_bytes()).collect();
    for m in msgs.iter().zip(&encoded) {
        let back = M::from_bytes(m.1).expect("a message the protocol handled must decode");
        assert_eq!(
            back.to_bytes(),
            *m.1,
            "codec round trip changed a {}",
            m.0.kind()
        );
    }
    let mut buf = Vec::new();
    r.value(
        "protocol.encode_ns",
        "ns",
        time_per_item(msgs, |m| {
            buf.clear();
            black_box(m).encode(&mut buf);
            black_box(&buf);
        }),
    );
    r.value(
        "protocol.decode_ns",
        "ns",
        time_per_item(&encoded, |b| {
            let mut rd = WireReader::new(black_box(b));
            black_box(M::decode(&mut rd).expect("decodes"));
        }),
    );
    for kind in KINDS {
        let sizes: Vec<f64> = msgs
            .iter()
            .zip(&encoded)
            .filter(|(m, _)| m.kind() == kind)
            .map(|(_, b)| b.len() as f64)
            .collect();
        let mean = if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<f64>() / sizes.len() as f64
        };
        r.value(&format!("protocol.bytes_per_msg.{kind}"), "B", mean);
    }

    // One byte stream of every message that fits a frame, decoded through
    // FrameBuf in the reactor's read-chunk steps.
    let mut stream = Vec::new();
    let mut frame = Vec::new();
    let mut frames = 0u64;
    let mut oversize = 0u64;
    for m in msgs {
        if rdata_frame(m, &mut frame) {
            stream.extend_from_slice(&frame);
            frames += 1;
        } else {
            oversize += 1;
        }
    }
    r.value("net.oversize_frames", "count", oversize as f64);
    let per_frame = if frames == 0 {
        0.0
    } else {
        let mut scratch = Vec::new();
        time_per_item(&[()], |_| {
            let mut fb = FrameBuf::new();
            let mut src: &[u8] = &stream;
            let mut got = 0u64;
            loop {
                while let Some(tag) = fb.next_frame_into(&mut scratch).expect("well-formed frame") {
                    debug_assert_eq!(tag, TAG_RDATA);
                    black_box(split_rdata(&scratch[1..]).expect("rdata header"));
                    got += 1;
                }
                if fb.read_from(&mut src).expect("slice read") == 0 {
                    break;
                }
            }
            assert_eq!(got, frames, "FrameBuf lost frames");
        }) / frames as f64
    };
    r.value("net.frame_decode_ns", "ns", per_frame);
}

/// `core`: handler cost per message kind and per call.
pub fn core_rows<M>(l: &NodeLedger<M>, cs: u64, r: &mut Report) {
    for kind in KINDS {
        r.value(
            &format!("core.on_message_ns.{kind}"),
            "ns",
            l.kind(kind).mean_ns(),
        );
    }
    r.value("core.request_ns", "ns", l.request.mean_ns());
    r.value("core.release_ns", "ns", l.release.mean_ns());
    r.value(
        "core.calls_per_cs",
        "count",
        l.protocol_calls().calls as f64 / cs.max(1) as f64,
    );
}

/// Write the traced run's spans (kept in memory until now) as JSON lines.
/// Every span's parent is the run's loop span, written first.
pub fn write_spans(path: &std::path::Path, workload: &str, loop_ns: u64, spans: &[Span]) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "{{\"id\": 0, \"name\": \"loop\", \"workload\": \"{workload}\", \"start_ns\": 0, \"dur_ns\": {loop_ns}, \"parent\": null}}"
        )?;
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\": {}, \"name\": \"{}\", \"node\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"parent\": 0}}",
                i + 1,
                s.name,
                s.node,
                s.start_ns,
                s.dur_ns
            )?;
        }
        f.flush()
    };
    if let Err(e) = write() {
        eprintln!("perfbench: writing spans to {} failed: {e}", path.display());
    }
}
