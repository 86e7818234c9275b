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
//! * [`CheckpointStrategy::Full`] — additionally serialize the Δ-forest
//!   arenas ([`srpq_core::delta::TreeSnap`]) exactly: slot assignment,
//!   free lists, occurrence order, and RSPQ markings all survive, so
//!   recovery skips the rebuild and restarts near-instantly at the cost
//!   of larger checkpoint files.
//!
//! # On-disk format
//!
//! `ckpt-{seq:016x}.ck`, written to a temporary name and renamed into
//! place (atomic on POSIX), older checkpoints pruned after a successful
//! write:
//!
//! ```text
//! file   := body crc32(body)
//! body   := magic "SRPQCKP1" | u32 version = 5 | u8 strategy | u64 seq
//!           | payload (durability counters, then the engine's logical
//!           state; see `srpq_persist::durable`)
//! ```

use crate::codec::{corrupt, ByteReader, ByteWriter, PersistError, Result};
use srpq_common::{crc32, Label, ResultPair, Timestamp, VertexId};
use srpq_core::config::RefreshPolicy;
use srpq_core::delta::{NodeSnap, TreeSnap};
use srpq_core::{EngineConfig, EngineStats};
use srpq_graph::{WindowGraph, WindowPolicy};
use std::fs;
use std::path::{Path, PathBuf};

const CKPT_MAGIC: &[u8; 8] = b"SRPQCKP1";
// v5: one layout — no engine-kind byte, `Durable`'s counters lead the
// payload instead of riding in every `EngineStats`. Any other version
// is refused rather than misdecoded.
const CKPT_VERSION: u32 = 5;

/// Bytes of `body` ahead of the payload: magic, version, strategy, seq.
const HEADER_LEN: usize = 8 + 4 + 1 + 8;

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

/// Writes a checkpoint file for `seq`, atomically, and prunes older
/// checkpoint files on success. Returns the final path.
pub fn write(
    dir: &Path,
    strategy: CheckpointStrategy,
    seq: u64,
    payload: &[u8],
) -> Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let mut body = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    body.extend_from_slice(CKPT_MAGIC);
    body.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    body.push(strategy.to_u8());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(payload);
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());

    let final_path = dir.join(format!("ckpt-{seq:016x}.ck"));
    let tmp_path = dir.join(format!("ckpt-{seq:016x}.ck.tmp"));
    {
        use std::io::Write as _;
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(&body)?;
        // The data must be on disk *before* the rename publishes it —
        // older checkpoints are pruned and WAL segments truncated
        // against this file, so a torn new checkpoint after power loss
        // would otherwise destroy the only recovery anchor.
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // Best-effort directory sync so the rename itself is durable.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
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
    if data.len() < HEADER_LEN + 4 {
        return Err(corrupt(format!("checkpoint {name}: truncated")));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored {
        return Err(corrupt(format!("checkpoint {name}: checksum mismatch")));
    }
    if &body[..8] != CKPT_MAGIC {
        return Err(corrupt(format!("checkpoint {name}: bad magic")));
    }
    let version = u32::from_le_bytes(body[8..12].try_into().unwrap());
    if version != CKPT_VERSION {
        return Err(PersistError::Incompatible(format!(
            "checkpoint {name}: unknown version {version}"
        )));
    }
    let strategy = CheckpointStrategy::from_u8(body[12])?;
    let seq = u64::from_le_bytes(body[13..HEADER_LEN].try_into().unwrap());
    Ok((
        CheckpointHeader { strategy, seq },
        body[HEADER_LEN..].to_vec(),
    ))
}

// ---------------------------------------------------------------------
// Sub-structure codecs used by the engine-state encoder in `durable`.
// ---------------------------------------------------------------------

/// Encodes an [`EngineConfig`].
pub(crate) fn encode_config(w: &mut ByteWriter, c: &EngineConfig) {
    w.i64(c.window.window_size);
    w.i64(c.window.slide);
    w.u8(c.dedup_results as u8);
    w.u8(c.report_invalidations as u8);
    w.u8(match c.refresh {
        RefreshPolicy::None => 0,
        RefreshPolicy::Node => 1,
        RefreshPolicy::Subtree => 2,
    });
    match c.rspq_extend_budget {
        None => w.u8(0),
        Some(b) => {
            w.u8(1);
            w.u64(b);
        }
    }
    w.u8(c.shared_groups as u8);
}

/// Decodes an [`EngineConfig`].
pub(crate) fn decode_config(r: &mut ByteReader) -> Result<EngineConfig> {
    let window_size = r.i64()?;
    let slide = r.i64()?;
    if window_size <= 0 || slide <= 0 {
        return Err(corrupt("non-positive window policy"));
    }
    let dedup_results = r.u8()? != 0;
    let report_invalidations = r.u8()? != 0;
    let refresh = match r.u8()? {
        0 => RefreshPolicy::None,
        1 => RefreshPolicy::Node,
        2 => RefreshPolicy::Subtree,
        other => return Err(corrupt(format!("unknown refresh policy {other}"))),
    };
    let rspq_extend_budget = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        other => return Err(corrupt(format!("bad budget tag {other}"))),
    };
    let shared_groups = r.u8()? != 0;
    Ok(EngineConfig {
        window: WindowPolicy::new(window_size, slide),
        dedup_results,
        report_invalidations,
        refresh,
        rspq_extend_budget,
        shared_groups,
    })
}

/// Encodes [`EngineStats`] (all counters, declaration order).
pub(crate) fn encode_stats(w: &mut ByteWriter, s: &EngineStats) {
    for v in [
        s.tuples_processed,
        s.tuples_discarded,
        s.deletions_processed,
        s.insert_calls,
        s.results_emitted,
        s.results_invalidated,
        s.expiry_runs,
        s.nodes_expired,
        s.expiry_nanos,
        s.conflicts_detected,
        s.nodes_unmarked,
        s.budget_exhausted,
        s.tuples_routed,
        s.eval_ns,
        s.delta_nodes_live,
        s.delta_capacity,
        s.compactions,
    ] {
        w.u64(v);
    }
}

/// Decodes [`EngineStats`].
pub(crate) fn decode_stats(r: &mut ByteReader) -> Result<EngineStats> {
    Ok(EngineStats {
        tuples_processed: r.u64()?,
        tuples_discarded: r.u64()?,
        deletions_processed: r.u64()?,
        insert_calls: r.u64()?,
        results_emitted: r.u64()?,
        results_invalidated: r.u64()?,
        expiry_runs: r.u64()?,
        nodes_expired: r.u64()?,
        expiry_nanos: r.u64()?,
        conflicts_detected: r.u64()?,
        nodes_unmarked: r.u64()?,
        budget_exhausted: r.u64()?,
        tuples_routed: r.u64()?,
        eval_ns: r.u64()?,
        delta_nodes_live: r.u64()?,
        delta_capacity: r.u64()?,
        compactions: r.u64()?,
    })
}

/// Encodes a sorted result-pair list.
pub(crate) fn encode_pairs(w: &mut ByteWriter, pairs: &[ResultPair]) {
    w.u32(pairs.len() as u32);
    for p in pairs {
        w.u32(p.src.0);
        w.u32(p.dst.0);
    }
}

/// Decodes a result-pair list.
pub(crate) fn decode_pairs(r: &mut ByteReader) -> Result<Vec<ResultPair>> {
    let n = r.count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(ResultPair::new(VertexId(r.u32()?), VertexId(r.u32()?)));
    }
    Ok(out)
}

/// Encodes a window graph's full edge set, sorted by `(ts, u, v, l)` so
/// logical recovery replays edges in stream-time order.
pub(crate) fn encode_graph(w: &mut ByteWriter, g: &WindowGraph) {
    let mut edges = g.edges(Timestamp::NEG_INFINITY);
    edges.sort_unstable_by_key(|&(u, v, l, ts)| (ts, u, v, l));
    w.u32(edges.len() as u32);
    for (u, v, l, ts) in edges {
        w.u32(u.0);
        w.u32(v.0);
        w.u32(l.0);
        w.i64(ts.0);
    }
}

/// Decodes a graph edge list (ts-ascending).
pub(crate) type EdgeList = Vec<(VertexId, VertexId, Label, Timestamp)>;

/// Decodes the edge list written by [`encode_graph`].
pub(crate) fn decode_graph(r: &mut ByteReader) -> Result<EdgeList> {
    let n = r.count(20)?;
    let mut out: EdgeList = Vec::with_capacity(n);
    let mut prev = Timestamp::NEG_INFINITY;
    for _ in 0..n {
        let u = VertexId(r.u32()?);
        let v = VertexId(r.u32()?);
        let l = Label(r.u32()?);
        let ts = Timestamp(r.i64()?);
        if ts < prev {
            return Err(corrupt("graph edges out of timestamp order"));
        }
        prev = ts;
        out.push((u, v, l, ts));
    }
    Ok(out)
}

/// Encodes a Δ forest exactly (see [`srpq_core::delta::TreeSnap`]).
pub(crate) fn encode_forest(w: &mut ByteWriter, snaps: &[TreeSnap]) {
    w.u32(snaps.len() as u32);
    for s in snaps {
        w.u32(s.root.0);
        w.u32(s.root_state.0);
        w.u32(s.root_id);
        w.u32(s.arena_len);
        w.u32(s.free.len() as u32);
        for &f in &s.free {
            w.u32(f);
        }
        w.u32(s.nodes.len() as u32);
        for n in &s.nodes {
            w.u32(n.id);
            w.u32(n.vertex.0);
            w.u32(n.state.0);
            w.u32(n.parent.unwrap_or(u32::MAX));
            w.u32(n.via_label.0);
            w.i64(n.ts.0);
            w.u32(n.children.len() as u32);
            for &c in &n.children {
                w.u32(c);
            }
        }
        w.u32(s.occurrences.len() as u32);
        for ((v, st), ids) in &s.occurrences {
            w.u32(v.0);
            w.u32(st.0);
            w.u32(ids.len() as u32);
            for &id in ids {
                w.u32(id);
            }
        }
        w.u32(s.marks.len() as u32);
        for ((v, st), id) in &s.marks {
            w.u32(v.0);
            w.u32(st.0);
            w.u32(*id);
        }
        w.u32(s.dead_marks.len() as u32);
        for (v, st) in &s.dead_marks {
            w.u32(v.0);
            w.u32(st.0);
        }
    }
}

/// Decodes a Δ forest written by [`encode_forest`]; structural
/// validation runs when the engine restores it
/// (`Engine::restore_delta`).
pub(crate) fn decode_forest(r: &mut ByteReader) -> Result<Vec<TreeSnap>> {
    let n_trees = r.count(16)?;
    let mut snaps = Vec::with_capacity(n_trees);
    for _ in 0..n_trees {
        let root = VertexId(r.u32()?);
        let root_state = srpq_common::StateId(r.u32()?);
        let root_id = r.u32()?;
        let arena_len = r.u32()?;
        let n_free = r.count(4)?;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free.push(r.u32()?);
        }
        let n_nodes = r.count(28)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let id = r.u32()?;
            let vertex = VertexId(r.u32()?);
            let state = srpq_common::StateId(r.u32()?);
            let parent = match r.u32()? {
                u32::MAX => None,
                p => Some(p),
            };
            let via_label = Label(r.u32()?);
            let ts = Timestamp(r.i64()?);
            let n_children = r.count(4)?;
            let mut children = Vec::with_capacity(n_children);
            for _ in 0..n_children {
                children.push(r.u32()?);
            }
            nodes.push(NodeSnap {
                id,
                vertex,
                state,
                parent,
                via_label,
                ts,
                children,
            });
        }
        let n_occ = r.count(12)?;
        let mut occurrences = Vec::with_capacity(n_occ);
        for _ in 0..n_occ {
            let key = (VertexId(r.u32()?), srpq_common::StateId(r.u32()?));
            let n_ids = r.count(4)?;
            let mut ids = Vec::with_capacity(n_ids);
            for _ in 0..n_ids {
                ids.push(r.u32()?);
            }
            occurrences.push((key, ids));
        }
        let n_marks = r.count(12)?;
        let mut marks = Vec::with_capacity(n_marks);
        for _ in 0..n_marks {
            marks.push((
                (VertexId(r.u32()?), srpq_common::StateId(r.u32()?)),
                r.u32()?,
            ));
        }
        let n_dead = r.count(8)?;
        let mut dead_marks = Vec::with_capacity(n_dead);
        for _ in 0..n_dead {
            dead_marks.push((VertexId(r.u32()?), srpq_common::StateId(r.u32()?)));
        }
        snaps.push(TreeSnap {
            root,
            root_state,
            root_id,
            arena_len,
            free,
            nodes,
            occurrences,
            marks,
            dead_marks,
        });
    }
    Ok(snaps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srpq-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
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
        c.refresh = RefreshPolicy::Subtree;
        c.rspq_extend_budget = Some(42);
        c.dedup_results = false;
        let mut w = ByteWriter::new();
        encode_config(&mut w, &c);
        let s = EngineStats {
            tuples_processed: 9,
            eval_ns: 3,
            delta_nodes_live: 4,
            delta_capacity: 6,
            compactions: 2,
            ..Default::default()
        };
        encode_stats(&mut w, &s);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let c2 = decode_config(&mut r).unwrap();
        assert_eq!(c2.window, c.window);
        assert_eq!(c2.refresh, RefreshPolicy::Subtree);
        assert_eq!(c2.rspq_extend_budget, Some(42));
        assert!(!c2.dedup_results);
        let s2 = decode_stats(&mut r).unwrap();
        assert_eq!(s2.tuples_processed, 9);
        assert_eq!(s2.eval_ns, 3);
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
                    let id = tree.add_child(
                        root_id,
                        VertexId(i + 1),
                        StateId(1),
                        Label(0),
                        Timestamp(10),
                    );
                    idx.note_added(VertexId(0), VertexId(i + 1));
                    id
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
            assert!(tree.maybe_compact(&mut remap), "fixture must compact");
        }
        forest.validate().unwrap();

        let mut w = ByteWriter::new();
        encode_forest(&mut w, &forest.to_snapshot());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
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
