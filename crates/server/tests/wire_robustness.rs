//! Bytes off the network can neither panic the message decoder nor
//! make it hold more memory than a small multiple of what was actually
//! received — whatever element counts they claim. Under the frame CRC
//! sits `Msg::decode`; handed damaged payloads directly, under a
//! counting allocator, it must refuse them or produce a well-formed
//! value that re-encodes to exactly the bytes it came from. (Before the
//! one bounded sequence read in `srpq_common::wire`, a `MapLabels`
//! frame reserved 24 bytes per *claimed* string up front: six times its
//! payload, 384 MiB for one maximal frame.)

mod common;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_common::wire::TUPLE_WIRE_SIZE;
use srpq_server::protocol::Msg;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// A pass-through over the system allocator that tracks this thread's
/// live heap bytes and their high-water mark.
struct PeakAlloc;

fn grow(by: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(by: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(by)));
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new blocks may coexist while the contents move.
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Decodes `payload`, returning the outcome and the heap high-water
/// mark of the attempt (the decoded value included).
fn decode_peak(kind: u8, payload: &[u8]) -> (Option<Msg>, usize) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    let msg = Msg::decode(kind, payload).ok();
    (msg, PEAK.with(Cell::get))
}

/// Four times the payload — elements are wider in memory than on the
/// wire, and a vector being regrown holds its old and new block — plus
/// the sequence reader's fixed up-front reservation ceiling.
fn bound(payload: &[u8]) -> usize {
    4 * payload.len() + (64 << 10)
}

/// One decode under the allocation bound. What does decode must be
/// well-formed: it re-encodes to the very bytes it came from.
fn check(what: &str, kind: u8, payload: &[u8]) -> Option<Msg> {
    let (msg, peak) = decode_peak(kind, payload);
    assert!(
        peak <= bound(payload),
        "{what}: decoding {} bytes of kind 0x{kind:02x} held {peak} heap bytes",
        payload.len()
    );
    if let Some(msg) = &msg {
        let (rekind, bytes) = msg.encode();
        assert!(
            (rekind, bytes.as_slice()) == (kind, payload),
            "{what}: {} bytes of kind 0x{kind:02x} decoded to a value that re-encodes differently",
            payload.len()
        );
    }
    msg
}

#[test]
fn damaged_payloads_are_refused_or_round_trip_within_the_allocation_bound() {
    let samples = common::samples();

    // Every kind that carries a sequence: zeroed fields up to its first
    // count, the largest count there is, nothing behind it.
    for (kind, prefix) in [
        (0x02u8, 0usize), // MapLabels
        (0x07, 0),        // Subscribe
        (0x82, 0),        // LabelIds
        (0x86, 0),        // QueryList
        (0x88, 0),        // Results
        (0x8D, 76),       // ServerStats, `worker_ns` behind twelve counters
        (0x90, 8),        // EventList, behind `dropped`
        (0x91, 0),        // TraceList
        (0x92, 21),       // ExplainReport, `dfa_accepting` behind six fields
    ] {
        let mut payload = vec![0u8; prefix];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            check("max count, empty body", kind, &payload).is_none(),
            "kind 0x{kind:02x}: a count of u32::MAX over an empty body decoded"
        );
    }

    // Every kind, every offset a count could sit at (nested sequences
    // included): overwrite four bytes with a count, replace what follows
    // with filler no element parses from. The counts are the largest the
    // byte-plausibility check admits for element sizes 1..=52 — exactly
    // the claims that used to be reserved up front — and u32::MAX.
    const FILLER: usize = 128 << 10;
    for msg in &samples {
        let (kind, body) = msg.encode();
        for at in 0..=body.len() {
            let mut payload = body[..at].to_vec();
            payload.resize(at + 4 + FILLER, 0xFF);
            for elem in [0usize, 1, 4, 8, 12, 16, 21, 41, 52] {
                let count = match elem {
                    0 => u32::MAX,
                    n => (FILLER / n) as u32,
                };
                payload[at..at + 4].copy_from_slice(&count.to_le_bytes());
                check("hostile count", kind, &payload);
            }
        }
    }

    // The corruption sweep: every truncation and every single-bit flip
    // of every bare payload, then seeded multi-bit damage.
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for msg in &samples {
        let (kind, body) = msg.encode();
        assert_eq!(check("intact", kind, &body).as_ref(), Some(msg));
        for len in 0..body.len() {
            // A tuple batch carries no count: its whole-tuple prefixes
            // are the shorter batches. Every other prefix, of any kind,
            // is an error.
            let whole_tuples = matches!(msg, Msg::Ingest { .. }) && len % TUPLE_WIRE_SIZE == 0;
            assert_eq!(
                check("truncation", kind, &body[..len]).is_some(),
                whole_tuples,
                "{msg:?}: prefix of {len} bytes"
            );
        }
        for bit in 0..body.len() * 8 {
            let mut flipped = body.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(check("bit flip", kind, &flipped).as_ref(), Some(msg));
        }
        for _ in 0..if body.is_empty() { 0 } else { 200 } {
            let mut damaged = body.clone();
            for _ in 0..rng.gen_range(2..=6usize) {
                let bit = rng.gen_range(0..damaged.len() * 8);
                damaged[bit / 8] ^= 1 << (bit % 8);
            }
            check("seeded damage", kind, &damaged);
        }
    }
}

#[test]
fn hello_refuses_a_revision_beyond_u16() {
    // 0x1_0006 must not be accepted as revision 6 by truncation.
    let (kind, _) = Msg::Hello { proto: 6 }.encode();
    assert_eq!(
        Msg::decode(kind, &6u32.to_le_bytes()).ok(),
        Some(Msg::Hello { proto: 6 })
    );
    assert!(Msg::decode(kind, &0x1_0006u32.to_le_bytes()).is_err());
    let (kind, mut ack) = Msg::HelloAck {
        proto: 6,
        seq: 1,
        durable: true,
    }
    .encode();
    ack[2] = 1;
    assert!(Msg::decode(kind, &ack).is_err());
}
