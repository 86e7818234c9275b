//! Formats pinned by bytes: the frames of one value of every message
//! kind and a label table, generated by the commit *before* the codecs
//! moved onto `srpq_common::wire` and committed under `tests/data/`.
//! Encoding must reproduce the files exactly; decoding them must return
//! the original values. A deliberate format change regenerates the
//! files (and bumps the version the format carries).

mod common;

use srpq_common::frame;
use srpq_common::LabelInterner;
use srpq_server::labels;
use srpq_server::protocol::{Msg, PROTO_VERSION};
use std::path::PathBuf;

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_message_kind_matches_its_golden_frame() {
    assert_eq!(PROTO_VERSION, 6, "a new revision needs new golden frames");
    let msgs = common::samples();
    assert_eq!(msgs.len(), 33, "one sample per message kind");
    let bytes = golden("messages.frames");

    // Encode: the stream writer and the buffer encoder both reproduce
    // the committed bytes.
    let mut written = Vec::new();
    let mut encoded = Vec::new();
    for m in &msgs {
        m.write_to(&mut written).unwrap();
        let (kind, payload) = m.encode();
        frame::encode_frame(&mut encoded, kind, &payload);
    }
    assert!(
        written == bytes,
        "Msg::write_to drifted from the golden frames"
    );
    assert!(
        encoded == bytes,
        "Msg::encode drifted from the golden frames"
    );

    // Decode: the stream reader and the buffer decoder both return the
    // original values, and every kind byte is distinct.
    let mut cursor = std::io::Cursor::new(&bytes);
    let mut rest = bytes.as_slice();
    let mut kinds = std::collections::BTreeSet::new();
    for expect in &msgs {
        let got = Msg::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(&got, expect);
        let (kind, payload, total) = frame::decode_frame(rest).unwrap();
        assert_eq!(&Msg::decode(kind, payload).unwrap(), expect);
        assert!(kinds.insert(kind), "kind 0x{kind:02x} appears twice");
        rest = &rest[total..];
    }
    assert!(rest.is_empty());
    assert!(Msg::read_from(&mut cursor).unwrap().is_none());
}

#[test]
fn label_table_matches_its_golden_file() {
    let mut table = LabelInterner::new();
    for name in ["knows", "likes", "αβγ", "a2q"] {
        table.intern(name);
    }
    let dir = std::env::temp_dir().join(format!("srpq-golden-labels-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    labels::save(&table, &dir).unwrap();
    let written = std::fs::read(labels::label_path(&dir)).unwrap();
    assert!(
        written == golden("labels.srpq"),
        "labels::save drifted from the golden file"
    );

    std::fs::write(labels::label_path(&dir), golden("labels.srpq")).unwrap();
    let back = labels::load(&dir).unwrap();
    assert_eq!(back.len(), table.len());
    for i in 0..table.len() as u32 {
        let id = srpq_common::Label(i);
        assert_eq!(back.resolve(id), table.resolve(id));
    }
    std::fs::remove_dir_all(&dir).ok();
}
