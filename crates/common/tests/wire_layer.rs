//! The wire layer's own contract, over its public surface: one list
//! drives both directions of a record, out-of-range tags and trailing
//! bytes are refused, a sequence's reservation follows the bytes that
//! are there rather than the count that is claimed, sealed blobs detect
//! every bit flip, and the label-table section refuses torn entries.

use srpq_common::crc32;
use srpq_common::wire::{unseal, Reader, Wide, Wire, WireError, Writer};
use srpq_common::{wire_fields, wire_struct, wire_tags, Label, LabelInterner};

wire_struct! {
    #[derive(Debug, PartialEq, Default)]
    struct Record {
        id: u32,
        name: String,
        live: bool,
        pairs: Vec<(u32, u64)>,
        budget: Option<u64>,
    }
}

#[test]
fn declared_order_is_wire_order_in_both_directions() {
    let rec = Record {
        id: 7,
        name: "δ".into(),
        live: true,
        pairs: vec![(1, 2)],
        budget: Some(9),
    };
    assert_eq!(Record::MIN_SIZE, 4 + 4 + 1 + 4 + 1);
    let mut w = Writer::new();
    rec.put(&mut w);
    let mut expect = vec![7, 0, 0, 0, 2, 0, 0, 0];
    expect.extend_from_slice("δ".as_bytes());
    expect.extend_from_slice(&[1, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
    expect.extend_from_slice(&[1, 9, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(w.as_bytes(), expect);
    let mut r = Reader::new(w.as_bytes());
    assert_eq!(r.get::<Record>(), Ok(rec));
    assert_eq!(r.finish(), Ok(()));
    // Every strict prefix is refused, never mis-decoded.
    for len in 0..expect.len() {
        assert!(Reader::new(&expect[..len]).get::<Record>().is_err());
    }
}

/// A struct and an enum this file cannot implement [`Wire`] for in the
/// way a foreign crate's cannot: laid out through adapters instead.
#[derive(Debug, PartialEq)]
struct Foreign {
    mode: Mode,
    revision: u16,
    seq: u64,
}

#[derive(Debug, PartialEq)]
enum Mode {
    Off,
    On,
}

wire_tags!(ModeTag for Mode as "mode" { Off = 0, On = 3 });
wire_fields!(ForeignWire for Foreign { mode as ModeTag, revision as Wide, seq });

#[test]
fn adapters_lay_out_foreign_records_and_refuse_unknown_tags() {
    let v = Foreign {
        mode: Mode::On,
        revision: 6,
        seq: 9,
    };
    let mut w = Writer::new();
    ForeignWire::put(&v, &mut w);
    assert_eq!(w.as_bytes(), [3, 6, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(ForeignWire::get(&mut Reader::new(w.as_bytes())), Ok(v));
    assert_eq!(
        ModeTag::get(&mut Reader::new(&[1])),
        Err(WireError::Tag {
            what: "mode",
            value: 1
        })
    );
}

#[test]
fn out_of_range_tags_are_refused() {
    assert!(Reader::new(&[2]).get::<bool>().is_err());
    assert!(Reader::new(&[2, 0]).get::<Option<u8>>().is_err());
    assert_eq!(Wide::get(&mut Reader::new(&[6, 0, 0, 0])), Ok(6));
    assert!(Wide::get(&mut Reader::new(&[6, 0, 1, 0])).is_err());
    assert_eq!(
        Reader::new(&[1, 2, 3]).finish(),
        Err(WireError::Trailing(3))
    );
}

#[test]
fn sequence_reservation_is_capped_not_claimed() {
    // A count the byte bound admits but whose elements are garbage is
    // refused at the first element (what that costs in memory is pinned
    // under a counting allocator in `srpq_server`'s `wire_robustness`).
    let claimed = 1 << 20;
    let mut w = Writer::new();
    (claimed as u32).put(&mut w);
    w.bytes(&vec![0xFF; claimed * 4]);
    assert_eq!(
        Reader::new(w.as_bytes()).get::<Vec<String>>(),
        Err(WireError::Truncated {
            wanted: u32::MAX as usize,
            left: claimed * 4 - 4
        })
    );
    // Past the byte bound the count itself is refused.
    let mut r = Reader::new(&[0xFF; 4]);
    assert!(matches!(r.count(1), Err(WireError::Count { .. })));
    // Honest sequences longer than any up-front reservation decode whole.
    let long: Vec<(u32, u64)> = (0..100_000).map(|i| (i, u64::from(i))).collect();
    let mut w = Writer::new();
    long.put(&mut w);
    assert_eq!(Reader::new(w.as_bytes()).get::<Vec<(u32, u64)>>(), Ok(long));
}

#[test]
fn seal_round_trips_and_detects_every_bit_flip() {
    for tag in [b"".as_slice(), b"SQCR"] {
        let mut w = Writer::new();
        w.bytes(b"sealed body");
        w.seal(tag);
        let sealed = w.into_bytes();
        assert_eq!(unseal(&sealed, tag), Ok(b"sealed body".as_slice()));
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut mutated = sealed.clone();
                mutated[byte] ^= 1 << bit;
                assert!(unseal(&mutated, tag).is_err(), "byte {byte} bit {bit}");
            }
        }
        for len in 0..sealed.len() {
            assert!(unseal(&sealed[..len], tag).is_err(), "prefix {len}");
        }
    }
}

#[test]
fn label_table_round_trips_and_refuses_torn_entries() {
    let mut labels = LabelInterner::new();
    for name in ["knows", "", "αβγ"] {
        labels.intern(name);
    }
    let mut w = Writer::new();
    labels.put(&mut w);
    assert_eq!(
        w.as_bytes(),
        b"\x03\0\0\0knows\n\n\xce\xb1\xce\xb2\xce\xb3\n"
    );
    let back: LabelInterner = Reader::new(w.as_bytes()).get().unwrap();
    assert_eq!(back.len(), 3);
    assert_eq!(back.resolve(Label(2)), Some("αβγ"));
    for len in 0..w.len() {
        assert!(Reader::new(&w.as_bytes()[..len])
            .get::<LabelInterner>()
            .is_err());
    }
    assert!(Reader::new(b"\x01\0\0\0\xff\n")
        .get::<LabelInterner>()
        .is_err());
}

#[test]
fn patch_fills_a_placeholder_in_place() {
    let mut w = Writer::new();
    w.bytes(b"ab");
    0u32.put(&mut w);
    w.bytes(b"payload");
    w.patch_u32(2, 7);
    assert_eq!(w.as_bytes(), b"ab\x07\0\0\0payload");
    assert_eq!(w.crc_since(6), crc32(b"payload"));
}
