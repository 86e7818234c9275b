//! Checkpoint files: periodic durable snapshots of engine state.
//!
//! A checkpoint at WAL sequence `p` captures everything the engine
//! needs to continue as if it had processed tuples `0..p` — recovery
//! loads the newest valid checkpoint and replays only the WAL suffix
//! `p..`. Two strategies mirror the classic log-vs-snapshot tradeoff:
//!
//! * [`CheckpointStrategy::Logical`] — serialize only the live window
//!   content (the graph's edge set) plus the engine cursor (clock,
//!   result-deduplication set, statistics). Small and fast to write;
//!   recovery rebuilds the Δ spanning forest by replaying the window
//!   content through the engine. Because the live window is a bounded
//!   log suffix, the rebuild cost is bounded by window size, never
//!   stream length (§5.6 setting + Wu et al.'s recovery recipe).
//! * [`CheckpointStrategy::Full`] — serialize the window graph with the
//!   order of every posting list and of the expiry queue
//!   ([`WindowGraph::layout`]) and the Δ-forest arenas
//!   ([`srpq_core::delta::TreeSnap`]) exactly: slot assignment, free
//!   lists, occurrence order, and RSPQ markings all survive, so recovery
//!   skips the rebuild, restarts near-instantly and continues exactly as
//!   the crashed run would have, at the cost of larger checkpoint files.
//!
//! `ckpt-{seq:016x}.ck` is published atomically
//! ([`srpq_common::wire::publish`]) and older checkpoints are pruned
//! after a successful write. The file and payload layouts are section 4
//! of the format reference in [`srpq_common::wire`].

use crate::codec::{corrupt, PersistError, Result};
use srpq_common::wire::{self, Reader, Wire, WireError, Writer};
use srpq_common::{wire_fields, wire_struct, Label, Timestamp, VertexId};
use srpq_core::delta::{NodeSnap, TreeSnap};
use srpq_core::{EngineConfig, EngineStats};
use srpq_graph::{WindowGraph, WindowPolicy};
use std::fs;
use std::path::{Path, PathBuf};

const CKPT_MAGIC: [u8; 8] = *b"SRPQCKP1";
/// Checked by exact equality; both binaries come from this repository.
const CKPT_VERSION: u32 = 7;

wire_struct! {
    /// Everything in a checkpoint file ahead of the payload.
    struct FileHeader {
        magic: [u8; 8],
        version: u32,
        strategy: u8,
        seq: u64,
    }
}

/// What a checkpoint stores beyond the engine cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointStrategy {
    /// Live window tuples + engine cursor; Δ is rebuilt by replay on
    /// recovery. Default.
    #[default]
    Logical,
    /// Additionally the exact Δ-forest arenas and result sets, for
    /// near-instant restart.
    Full,
}

impl CheckpointStrategy {
    /// Parses the CLI spelling (`logical` | `full`).
    pub fn parse(s: &str) -> Option<CheckpointStrategy> {
        match s {
            "logical" => Some(CheckpointStrategy::Logical),
            "full" => Some(CheckpointStrategy::Full),
            _ => None,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            CheckpointStrategy::Logical => 0,
            CheckpointStrategy::Full => 1,
        }
    }

    fn from_u8(v: u8) -> Result<CheckpointStrategy> {
        match v {
            0 => Ok(CheckpointStrategy::Logical),
            1 => Ok(CheckpointStrategy::Full),
            other => Err(corrupt(format!("unknown checkpoint strategy {other}"))),
        }
    }
}

impl std::fmt::Display for CheckpointStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointStrategy::Logical => write!(f, "logical"),
            CheckpointStrategy::Full => write!(f, "full"),
        }
    }
}

/// Parsed checkpoint header.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointHeader {
    /// Strategy the payload was written under.
    pub strategy: CheckpointStrategy,
    /// WAL sequence number the checkpoint covers (tuples `0..seq` are
    /// reflected in the payload).
    pub seq: u64,
}

/// Starts the checkpoint file for `seq`: a buffer holding its header.
/// The caller writes the payload into the same buffer and hands it to
/// [`publish`], so the payload is built once and never copied.
pub fn begin(strategy: CheckpointStrategy, seq: u64) -> Writer {
    let mut w = Writer::new();
    FileHeader {
        magic: CKPT_MAGIC,
        version: CKPT_VERSION,
        strategy: strategy.to_u8(),
        seq,
    }
    .put(&mut w);
    w
}

/// Seals the checkpoint file `w` holds (from [`begin`] for `seq`),
/// writes it atomically, and prunes older checkpoint files on success.
/// Returns the final path.
pub fn publish(dir: &Path, seq: u64, mut w: Writer) -> Result<PathBuf> {
    fs::create_dir_all(dir)?;
    w.seal(b"");
    // Older checkpoints are pruned and WAL segments truncated against
    // this file, so it must be whole and on disk before it is visible.
    let final_path = dir.join(format!("ckpt-{seq:016x}.ck"));
    wire::publish(&final_path, w.as_bytes())?;
    for old in list_checkpoints(dir)? {
        if old != final_path {
            let _ = fs::remove_file(old);
        }
    }
    Ok(final_path)
}

/// Checkpoint files under `dir`, sorted ascending by sequence.
fn list_checkpoints(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().and_then(|e| e.to_str()) == Some("ck")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-"))
        })
        .collect();
    out.sort();
    Ok(out)
}

/// Loads the newest *valid* checkpoint under `dir`, falling back to
/// older ones if the newest is torn or corrupt. Returns `None` when no
/// checkpoint exists at all.
pub fn load_latest(dir: &Path) -> Result<Option<(CheckpointHeader, Vec<u8>)>> {
    let paths = match list_checkpoints(dir) {
        Ok(p) => p,
        Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut last_err: Option<PersistError> = None;
    for path in paths.iter().rev() {
        match load_one(path) {
            Ok(found) => return Ok(Some(found)),
            Err(e) => last_err = Some(e),
        }
    }
    match last_err {
        // Every present checkpoint is corrupt: that is an error, not a
        // fresh start — silently ignoring it would replay from nothing.
        Some(e) => Err(e),
        None => Ok(None),
    }
}

fn load_one(path: &Path) -> Result<(CheckpointHeader, Vec<u8>)> {
    let data = fs::read(path)?;
    let name = path.display();
    let open = || -> std::result::Result<(FileHeader, &[u8]), WireError> {
        let mut r = Reader::new(wire::unseal(&data, b"")?);
        Ok((r.get()?, r.rest()))
    };
    let (header, payload) = open().map_err(|e| corrupt(format!("checkpoint {name}: {e}")))?;
    if header.magic != CKPT_MAGIC {
        return Err(corrupt(format!("checkpoint {name}: bad magic")));
    }
    if header.version != CKPT_VERSION {
        return Err(PersistError::Incompatible(format!(
            "checkpoint {name}: unknown version {}",
            header.version
        )));
    }
    let strategy = CheckpointStrategy::from_u8(header.strategy)?;
    let seq = header.seq;
    Ok((CheckpointHeader { strategy, seq }, payload.to_vec()))
}

// ---------------------------------------------------------------------
// Sub-structure layouts used by the engine-state codec in `durable`.
// ---------------------------------------------------------------------

/// `i64 window_size | i64 slide`, both positive.
struct Window;

impl Window {
    fn put(p: &WindowPolicy, w: &mut Writer) {
        (p.window_size, p.slide).put(w);
    }

    fn get(r: &mut Reader<'_>) -> std::result::Result<WindowPolicy, WireError> {
        let (window_size, slide): (i64, i64) = r.get()?;
        if window_size <= 0 || slide <= 0 {
            return Err(WireError::Invalid("non-positive window policy"));
        }
        Ok(WindowPolicy::new(window_size, slide))
    }
}

wire_fields!(pub(crate) ConfigWire for EngineConfig {
    window as Window,
    rspq_extend_budget,
});

// The wall-clock `expiry_nanos` and `eval_ns` stay off the wire, so a
// checkpoint is a function of the stream alone; a recovered engine
// starts them at 0.
wire_fields!(pub(crate) StatsWire for EngineStats {
    tuples_processed,
    deletions_processed,
    insert_calls,
    results_emitted,
    results_invalidated,
    expiry_runs,
    nodes_expired,
    conflicts_detected,
    nodes_unmarked,
    budget_exhausted,
    tuples_routed,
    delta_nodes_live,
    delta_capacity,
    compactions,
    ..
});

/// A window graph's edge list, `(ts, u, v, l)`-ascending.
pub(crate) type EdgeList = Vec<(VertexId, VertexId, Label, Timestamp)>;

/// Encodes a window graph's full edge set, sorted by `(ts, u, v, l)` so
/// logical recovery replays edges in stream-time order.
pub(crate) fn encode_graph(w: &mut Writer, g: &WindowGraph) {
    let mut edges = g.edges(Timestamp::NEG_INFINITY);
    edges.sort_unstable_by_key(|&(u, v, l, ts)| (ts, u, v, l));
    edges.put(w);
}

/// Decodes the edge list written by [`encode_graph`].
pub(crate) fn decode_graph(r: &mut Reader<'_>) -> Result<EdgeList> {
    let edges: EdgeList = r.get()?;
    if !edges.is_sorted_by_key(|&(_, _, _, ts)| ts) {
        return Err(corrupt("graph edges out of timestamp order"));
    }
    Ok(edges)
}

/// A window graph's [`WindowGraph::layout`]: its edges in expiry-queue
/// order with their posting-list positions (the graph section of a
/// `Full` checkpoint).
pub(crate) type Layout = Vec<(VertexId, VertexId, Label, Timestamp, u32, u32)>;

/// `u32 parent`, all-ones for the root's `None`.
struct ParentSlot;

impl ParentSlot {
    fn put(p: &Option<u32>, w: &mut Writer) {
        p.unwrap_or(u32::MAX).put(w);
    }

    fn get(r: &mut Reader<'_>) -> std::result::Result<Option<u32>, WireError> {
        Ok(Some(r.get::<u32>()?).filter(|&p| p != u32::MAX))
    }
}

wire_fields!(NodeWire for NodeSnap { id, vertex, state, parent as ParentSlot, via_label, ts, children });

/// `seq<node>`.
struct Nodes;

impl Nodes {
    /// The fixed-width fields plus an empty `children`.
    const MIN_NODE: usize = 5 * 4 + 8 + 4;

    fn put(nodes: &[NodeSnap], w: &mut Writer) {
        w.seq(nodes, |w, n| NodeWire::put(n, w));
    }

    fn get(r: &mut Reader<'_>) -> std::result::Result<Vec<NodeSnap>, WireError> {
        r.seq(Self::MIN_NODE, NodeWire::get)
    }
}

wire_fields!(TreeWire for TreeSnap {
    root,
    root_state,
    root_id,
    arena_len,
    free,
    nodes as Nodes,
    occurrences,
    marks,
    dead_marks,
});

/// Encodes a Δ forest exactly (see [`srpq_core::delta::TreeSnap`]).
pub(crate) fn encode_forest(w: &mut Writer, snaps: &[TreeSnap]) {
    w.seq(snaps, |w, s| TreeWire::put(s, w));
}

/// Decodes a Δ forest written by [`encode_forest`]; structural
/// validation runs when the engine restores it
/// (`Engine::restore_delta`).
pub(crate) fn decode_forest(r: &mut Reader<'_>) -> Result<Vec<TreeSnap>> {
    // Four fixed-width fields plus five empty sequences.
    Ok(r.seq(9 * 4, TreeWire::get)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srpq-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn write(
        dir: &Path,
        strategy: CheckpointStrategy,
        seq: u64,
        payload: &[u8],
    ) -> Result<PathBuf> {
        let mut w = begin(strategy, seq);
        w.bytes(payload);
        publish(dir, seq, w)
    }

    #[test]
    fn write_load_prune_round_trip() {
        let dir = tmpdir("roundtrip");
        write(&dir, CheckpointStrategy::Logical, 10, b"alpha").unwrap();
        write(&dir, CheckpointStrategy::Full, 20, b"beta").unwrap();
        let (hdr, payload) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(hdr.seq, 20);
        assert_eq!(hdr.strategy, CheckpointStrategy::Full);
        assert_eq!(payload, b"beta");
        // The older checkpoint was pruned.
        assert_eq!(list_checkpoints(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_detected() {
        let dir = tmpdir("corrupt");
        let path = write(&dir, CheckpointStrategy::Logical, 5, b"payload").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[30] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(load_latest(&dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_is_empty_not_error() {
        let dir = tmpdir("missing");
        assert!(load_latest(&dir).unwrap().is_none());
    }

    #[test]
    fn config_and_stats_round_trip() {
        let mut c = EngineConfig::with_window(WindowPolicy::new(100, 7));
        c.rspq_extend_budget = Some(42);
        let mut w = Writer::new();
        ConfigWire::put(&c, &mut w);
        let s = EngineStats {
            tuples_processed: 9,
            eval_ns: 3,
            delta_nodes_live: 4,
            delta_capacity: 6,
            compactions: 2,
            ..Default::default()
        };
        StatsWire::put(&s, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let c2 = ConfigWire::get(&mut r).unwrap();
        assert_eq!(c2.window, c.window);
        assert_eq!(c2.rspq_extend_budget, Some(42));
        let s2 = StatsWire::get(&mut r).unwrap();
        assert_eq!(s2.tuples_processed, 9);
        assert_eq!(s2.eval_ns, 0, "wall-clock fields are not persisted");
        assert_eq!(s2.delta_nodes_live, 4);
        assert_eq!(s2.delta_capacity, 6);
        assert_eq!(s2.compactions, 2);
        assert!(r.is_exhausted());
    }

    #[test]
    fn compacted_forest_round_trips_through_codec() {
        use srpq_common::StateId;
        use srpq_core::delta::Forest;
        use srpq_core::rspq::markings::Markings;

        // Build a forest whose tree has been through batch removal and
        // arena compaction, then push it through the Full-checkpoint
        // forest codec: the canonical children-list form must restore
        // the compacted arena exactly.
        let mut forest: Forest<Markings> = Forest::new();
        forest.ensure_tree(VertexId(0), StateId(0));
        {
            let (tree, idx) = forest.tree_with_index(VertexId(0)).unwrap();
            let root_id = tree.root_id();
            let ids: Vec<u32> = (0..100u32)
                .map(|i| {
                    idx.add_child(
                        tree,
                        root_id,
                        VertexId(i + 1),
                        StateId(1),
                        Label(0),
                        Timestamp(10),
                    )
                })
                .collect();
            for &id in &ids[..90] {
                let v = tree.node(id).unwrap().vertex;
                tree.remove(id);
                idx.note_removed(VertexId(0), v);
            }
            // Leave one unmark + dead-mark so extension state is
            // non-trivial.
            tree.unmark((VertexId(100), StateId(1)));
            let mut remap = Vec::new();
            assert!(idx.maybe_compact(tree, &mut remap), "fixture must compact");
        }
        forest.validate().unwrap();

        let mut w = Writer::new();
        encode_forest(&mut w, &forest.to_snapshot());
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let restored: Forest<Markings> =
            Forest::from_snapshot(decode_forest(&mut r).unwrap()).unwrap();
        assert!(r.is_exhausted());
        restored.validate().unwrap();
        assert_eq!(restored.to_snapshot(), forest.to_snapshot());
        // Slot assignment survives: the next insertion lands identically
        // on both sides.
        let mut restored = restored;
        let t1 = forest.tree_mut(VertexId(0)).unwrap();
        let a = t1.add_child(
            t1.root_id(),
            VertexId(200),
            StateId(1),
            Label(0),
            Timestamp(9),
        );
        let t2 = restored.tree_mut(VertexId(0)).unwrap();
        let b = t2.add_child(
            t2.root_id(),
            VertexId(200),
            StateId(1),
            Label(0),
            Timestamp(9),
        );
        assert_eq!(a, b, "slot assignment diverged after recovery");
    }
}
