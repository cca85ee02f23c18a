//! An in-memory stand-in for HDFS.
//!
//! The paper's datasets live in HDFS as plain text — one point per line,
//! coordinates as decimal strings (§3.2 budgets "approximatively 15
//! characters" per coordinate). Files are stored as a sequence of
//! *blocks*; each map task processes one block ("a single split, 64MB on
//! a default Hadoop installation").
//!
//! This DFS reproduces the two properties the algorithms depend on:
//!
//! * **split granularity** — files are cut into blocks of a configured
//!   size, *aligned to line boundaries* (like Hadoop's logical splits),
//!   and each block becomes one map task;
//! * **read accounting** — every byte handed to a map task is counted,
//!   so "number of dataset reads", the quantity §4 bounds by
//!   `O(4·log₂ k)`, is measurable.
//!
//! Blocks are reference-counted [`Bytes`], so handing a block to a task
//! thread is a pointer copy, not a data copy.
//!
//! A DFS created with [`Dfs::with_compression`] stores each block in
//! block-compressed form ([`crate::compress`]) behind the same
//! `GMRBLK1` integrity frame: the frame is computed over the **raw**
//! bytes at publish time, reads decompress and then verify, and a
//! stored block that fails to decompress surfaces as the same
//! [`Error::Corrupt`] a frame mismatch does. Replication, rebalancing
//! and decommission drains act on replica placements only, so they are
//! oblivious to how blocks are stored.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::compress;
use crate::error::{Error, Result};
use crate::faults::FaultPlan;
use crate::shuffle::CommitFence;

/// Default block (and therefore split) size: 4 MiB.
///
/// Hadoop's default is 64 MB; our datasets are scaled down by roughly
/// the same factor as the point counts, so a smaller default keeps the
/// number of map tasks per job in the same range as the paper's setup
/// (tens of tasks per job).
pub const DEFAULT_BLOCK_SIZE: usize = 4 * 1024 * 1024;

/// Magic tag of the per-block integrity frame, mirroring the
/// `GMRCKPT1` header of the checkpoint journal
/// ([`crate::checkpoint`]): same FNV-1a length/CRC discipline, one
/// frame per stored block instead of per checkpoint.
pub const BLOCK_MAGIC: &str = "GMRBLK1";

/// FNV-1a over a block's bytes — the checksum stored in its frame
/// header and verified on every read.
pub fn block_crc(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Renders the integrity frame header of one block.
fn frame_header(len: usize, crc: u64) -> String {
    format!("{BLOCK_MAGIC} len={len} crc={crc:016x}")
}

/// Checks every block that decompressed against its integrity frame,
/// fanned out over `available_parallelism().min(blocks)` scoped threads
/// in contiguous shares, the calling thread taking the first share (a
/// file of one block spawns no thread). Returns one verdict per block;
/// a block that did not decompress passes here, its caller reports it.
fn verify_frames(path: &str, blocks: &[Result<Bytes>], frames: &[String]) -> Vec<Result<()>> {
    let verify = |index: usize| -> Result<()> {
        let Ok(block) = &blocks[index] else {
            return Ok(());
        };
        let frame = &frames[index];
        let expect = frame_header(block.len(), block_crc(block));
        if *frame != expect {
            return Err(Error::Corrupt(format!(
                "{path} block {index}: frame {frame:?} does not match data ({expect})"
            )));
        }
        Ok(())
    };
    let fill = |first: usize, out: &mut [Result<()>]| {
        for (j, verdict) in out.iter_mut().enumerate() {
            *verdict = verify(first + j);
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(blocks.len())
        .max(1);
    let share = blocks.len().div_ceil(threads).max(1);
    let mut verdicts = vec![Ok(()); blocks.len()];
    std::thread::scope(|scope| {
        let mut shares = verdicts.chunks_mut(share).enumerate();
        let own = shares.next();
        for (k, out) in shares {
            scope.spawn(move || fill(k * share, out));
        }
        if let Some((_, out)) = own {
            fill(0, out);
        }
    });
    verdicts
}

/// One block as the DFS holds it: either the raw bytes, or their
/// block-compressed form. The integrity frame always covers the raw
/// form.
#[derive(Clone, Debug)]
struct StoredBlock {
    /// Stored bytes — raw, or a [`crate::compress`] block.
    data: Bytes,
    compressed: bool,
}

impl StoredBlock {
    /// Recovers the raw bytes, decompressing if needed. A stored block
    /// that no longer decompresses is corrupt.
    fn raw(&self) -> Result<Bytes> {
        if self.compressed {
            Ok(Bytes::from(compress::decompress(&self.data)?))
        } else {
            Ok(self.data.clone())
        }
    }
}

/// A stored file: line-aligned blocks plus summary metadata. Every
/// block carries an FNV-1a frame header computed over its **raw** form
/// at publish time; reads (decompress and) verify it.
#[derive(Clone, Debug)]
struct DfsFile {
    blocks: Vec<StoredBlock>,
    /// Per-block integrity frames, parallel to `blocks`.
    frames: Vec<String>,
    len: u64,
    lines: u64,
}

impl DfsFile {
    fn framed(raw_blocks: Vec<Bytes>, len: u64, lines: u64, compressed: bool) -> Self {
        let frames = raw_blocks
            .iter()
            .map(|b| frame_header(b.len(), block_crc(b)))
            .collect();
        let blocks = raw_blocks
            .into_iter()
            .map(|b| {
                if compressed {
                    StoredBlock {
                        data: Bytes::from(compress::compress(&b)),
                        compressed: true,
                    }
                } else {
                    StoredBlock {
                        data: b,
                        compressed: false,
                    }
                }
            })
            .collect();
        Self {
            blocks,
            frames,
            len,
            lines,
        }
    }

    /// Physical bytes occupied by the stored blocks.
    fn stored_len(&self) -> u64 {
        self.blocks.iter().map(|b| b.data.len() as u64).sum()
    }
}

/// One input split: a line-aligned slice of a file, processed by exactly
/// one map task.
#[derive(Clone, Debug)]
pub struct InputSplit {
    /// Path of the file this split belongs to.
    pub path: String,
    /// Index of the split within the file.
    pub index: usize,
    /// Byte offset of the split's first byte within the file.
    pub offset: u64,
    /// The split's data (whole lines).
    pub data: Bytes,
}

impl InputSplit {
    /// Length of the split in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the split holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterates `(byte_offset_in_file, line)` pairs, mirroring Hadoop's
    /// `TextInputFormat` (key = offset, value = line without the
    /// terminator). Lines that are not valid UTF-8 are left out;
    /// [`InputSplit::records`] yields them too.
    pub fn lines(&self) -> impl Iterator<Item = (u64, &str)> {
        self.records()
            .filter_map(|(offset, line)| Some((offset, line.ok()?)))
    }

    /// Like [`InputSplit::lines`], but yields every line: as `Ok(text)`,
    /// or as `Err(raw_bytes)` when it is not valid UTF-8, so a reader
    /// can skip and count the bad line while the rest of the split
    /// still reads.
    pub fn records(&self) -> impl Iterator<Item = (u64, std::result::Result<&str, &[u8]>)> {
        // An all-UTF-8 split, the common case, is validated once and cut
        // with str's fast newline search; a split holding a bad byte is
        // cut bytewise and validated line by line.
        let (text, bytes) = match std::str::from_utf8(&self.data) {
            Ok(text) => (text, &[][..]),
            Err(_) => ("", &self.data[..]),
        };
        let valid = text
            .split_inclusive('\n')
            .map(|raw| (raw.len(), Ok(raw.trim_end_matches(['\n', '\r']))));
        let checked = bytes.split_inclusive(|&b| b == b'\n').map(|raw| {
            let end = raw
                .iter()
                .rposition(|&b| b != b'\n' && b != b'\r')
                .map_or(0, |i| i + 1);
            let line = &raw[..end];
            (raw.len(), std::str::from_utf8(line).map_err(|_| line))
        });
        let mut offset = self.offset;
        valid.chain(checked).map(move |(len, line)| {
            let at = offset;
            offset += len as u64;
            (at, line)
        })
    }
}

/// Aggregate I/O statistics of a [`Dfs`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DfsStats {
    /// Total bytes handed to map tasks.
    pub bytes_read: u64,
    /// Total (raw) bytes stored through writers.
    pub bytes_written: u64,
    /// Total physical bytes occupied by published blocks (cumulative,
    /// like `bytes_written`). Equal to `bytes_written` on an
    /// uncompressed DFS; smaller when block compression bites.
    pub bytes_stored: u64,
    /// Number of full-file scans (jobs) started.
    pub dataset_reads: u64,
    /// Blocks copied to a new node after a crash cost them a replica.
    pub blocks_rereplicated: u64,
    /// Blocks whose last replica was destroyed (now unreadable).
    pub blocks_lost: u64,
    /// Blocks proactively copied toward a new topology by a node join
    /// or a graceful decommission.
    pub blocks_rebalanced: u64,
    /// Block replicas that failed checksum verification on read (the
    /// read fell back to the next replica).
    pub corrupt_blocks_detected: u64,
}

/// Node topology the DFS places block replicas on; attached by the
/// simulated runtime ([`crate::runtime::JobRunner`]) from its cluster
/// configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Topology {
    nodes: usize,
    replication: usize,
}

/// What one node crash did to the DFS: blocks copied to restore their
/// replica count, and blocks destroyed outright.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockLossReport {
    /// Blocks re-replicated onto a surviving node.
    pub rereplicated: u64,
    /// Blocks whose last replica died with the node.
    pub lost: u64,
}

/// Per-block replica node lists of one file, parallel to its blocks.
type ReplicaMap = Vec<Vec<usize>>;

/// The in-memory distributed file system.
///
/// Thread-safe; shared across the driver and all task threads as
/// `Arc<Dfs>`.
pub struct Dfs {
    files: RwLock<BTreeMap<String, Arc<DfsFile>>>,
    block_size: usize,
    /// Store new blocks compressed.
    compress: bool,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    bytes_stored: AtomicU64,
    dataset_reads: AtomicU64,
    /// Node topology, once a runtime attaches one. Without it the DFS
    /// behaves as before: single-copy files that cannot be lost.
    topology: RwLock<Option<Topology>>,
    /// Per-block replica node lists, parallel to each file's blocks.
    /// Files written before a topology was attached are placed lazily
    /// when it is.
    replicas: RwLock<BTreeMap<String, Vec<Vec<usize>>>>,
    /// Nodes currently unable to hold replicas (blacklisted).
    down: RwLock<BTreeSet<usize>>,
    /// Crashes already processed, keyed by `(job_epoch, node)` with the
    /// report each produced — a resumed driver replaying an epoch gets
    /// the recorded outcome instead of double-stripping replicas.
    crash_log: Mutex<BTreeMap<(u64, usize), BlockLossReport>>,
    /// Submission-time replica snapshots, keyed by `(job_epoch, path)` —
    /// a resumed driver replaying an epoch places its maps over the
    /// replica map the original run saw, not the one later crash
    /// processing has since reshaped.
    replica_log: Mutex<BTreeMap<(u64, String), ReplicaMap>>,
    /// Membership rebalances already processed, keyed by
    /// `(job_epoch, node)` with the number of blocks each moved — like
    /// `crash_log`, a resumed driver replaying a join or decommission
    /// epoch gets the recorded outcome instead of re-moving blocks.
    membership_log: Mutex<BTreeMap<(u64, usize), u64>>,
    blocks_rereplicated: AtomicU64,
    blocks_lost: AtomicU64,
    blocks_rebalanced: AtomicU64,
    corrupt_blocks_detected: AtomicU64,
}

impl std::fmt::Debug for Dfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dfs")
            .field("files", &self.files.read().len())
            .field("block_size", &self.block_size)
            .finish()
    }
}

impl Default for Dfs {
    fn default() -> Self {
        Self::new(DEFAULT_BLOCK_SIZE)
    }
}

impl Dfs {
    /// Creates an empty DFS with the given block size, storing blocks
    /// raw.
    ///
    /// # Panics
    /// Panics if `block_size == 0`.
    pub fn new(block_size: usize) -> Self {
        Self::with_compression(block_size, false)
    }

    /// Creates an empty DFS with the given block size; with `compress`
    /// set, published blocks are stored block-compressed behind their
    /// integrity frames and transparently decompressed on read.
    ///
    /// # Panics
    /// Panics if `block_size == 0`.
    pub fn with_compression(block_size: usize, compress: bool) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            files: RwLock::new(BTreeMap::new()),
            block_size,
            compress,
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_stored: AtomicU64::new(0),
            dataset_reads: AtomicU64::new(0),
            topology: RwLock::new(None),
            replicas: RwLock::new(BTreeMap::new()),
            down: RwLock::new(BTreeSet::new()),
            crash_log: Mutex::new(BTreeMap::new()),
            replica_log: Mutex::new(BTreeMap::new()),
            membership_log: Mutex::new(BTreeMap::new()),
            blocks_rereplicated: AtomicU64::new(0),
            blocks_lost: AtomicU64::new(0),
            blocks_rebalanced: AtomicU64::new(0),
            corrupt_blocks_detected: AtomicU64::new(0),
        }
    }

    /// Configured block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// True when published blocks are stored compressed.
    pub fn compression(&self) -> bool {
        self.compress
    }

    /// Physical bytes a file's stored blocks occupy (after compression,
    /// when enabled). [`Dfs::len`] reports the raw size.
    pub fn stored_len(&self, path: &str) -> Result<u64> {
        Ok(self.file(path)?.stored_len())
    }

    /// Attaches the cluster's node topology so blocks get replica
    /// placements (HDFS `dfs.replication` semantics; the factor is
    /// capped at the node count). Called by the runtime when a
    /// [`crate::runtime::JobRunner`] is created; idempotent for
    /// identical parameters. Changing the topology re-places every file
    /// from scratch, but only while no crash has been processed —
    /// blocks already lost to a crash cannot be resurrected by
    /// reconfiguration.
    pub fn attach_topology(&self, nodes: usize, replication: usize) {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(replication > 0, "replication factor must be positive");
        let wanted = Topology {
            nodes,
            replication: replication.min(nodes),
        };
        {
            let mut topo = self.topology.write();
            let changed = *topo != Some(wanted);
            *topo = Some(wanted);
            if changed && self.crash_log.lock().is_empty() {
                self.replicas.write().clear();
            }
        }
        // Place every file that has no assignment yet.
        let paths: Vec<(String, usize)> = {
            let files = self.files.read();
            files
                .iter()
                .map(|(p, f)| (p.clone(), f.blocks.len()))
                .collect()
        };
        let mut reps = self.replicas.write();
        for (path, nblocks) in paths {
            if let std::collections::btree_map::Entry::Vacant(e) = reps.entry(path) {
                let placed = self.place_blocks(e.key(), nblocks);
                e.insert(placed);
            }
        }
    }

    /// Marks the given nodes as unable to hold replicas (the runtime
    /// passes its blacklist); new writes and re-replication avoid them.
    pub fn set_down_nodes(&self, nodes: &[usize]) {
        *self.down.write() = nodes.iter().copied().collect();
    }

    /// Deterministic replica placement for a file's blocks: each block
    /// starts at a hash-derived node and takes the next `replication`
    /// up nodes in rotation.
    fn place_blocks(&self, path: &str, nblocks: usize) -> Vec<Vec<usize>> {
        let Some(topo) = *self.topology.read() else {
            return Vec::new();
        };
        let down = self.down.read();
        let up: Vec<usize> = (0..topo.nodes).filter(|n| !down.contains(n)).collect();
        // With every node down the write itself could not happen; the
        // runtime degrades before that, so fall back to all nodes.
        let domain: Vec<usize> = if up.is_empty() {
            (0..topo.nodes).collect()
        } else {
            up
        };
        let r = topo.replication.min(domain.len());
        (0..nblocks)
            .map(|block| {
                let start = block_hash(path, block) as usize % domain.len();
                (0..r).map(|j| domain[(start + j) % domain.len()]).collect()
            })
            .collect()
    }

    /// Records a replica placement for a newly published file.
    fn assign_replicas(&self, path: &str, nblocks: usize) {
        if self.topology.read().is_some() {
            let placed = self.place_blocks(path, nblocks);
            self.replicas.write().insert(path.to_string(), placed);
        }
    }

    /// Processes the loss of `node` during job epoch `epoch`: strips
    /// the node from every block's replica list, re-replicates each
    /// surviving block onto an eligible node (up, not in `exclude`, not
    /// already holding a copy), and records blocks whose last replica
    /// died. Idempotent per `(epoch, node)`: a resumed driver replaying
    /// the epoch gets the recorded report back unchanged.
    pub fn node_lost(&self, epoch: u64, node: usize, exclude: &[usize]) -> BlockLossReport {
        let mut log = self.crash_log.lock();
        if let Some(report) = log.get(&(epoch, node)) {
            return *report;
        }
        let mut report = BlockLossReport::default();
        if let Some(topo) = *self.topology.read() {
            let down = self.down.read();
            let eligible: Vec<usize> = (0..topo.nodes)
                .filter(|n| *n != node && !down.contains(n) && !exclude.contains(n))
                .collect();
            drop(down);
            let mut reps = self.replicas.write();
            for (path, blocks) in reps.iter_mut() {
                for (block, replicas) in blocks.iter_mut().enumerate() {
                    let Some(pos) = replicas.iter().position(|&n| n == node) else {
                        continue;
                    };
                    replicas.swap_remove(pos);
                    if replicas.is_empty() {
                        report.lost += 1;
                        continue;
                    }
                    // Restore the replica count from a surviving copy,
                    // walking the same rotation as initial placement.
                    if !eligible.is_empty() {
                        let start = block_hash(path, block) as usize % eligible.len();
                        if let Some(target) = (0..eligible.len())
                            .map(|j| eligible[(start + j) % eligible.len()])
                            .find(|t| !replicas.contains(t))
                        {
                            replicas.push(target);
                            report.rereplicated += 1;
                        }
                    }
                }
            }
        }
        self.blocks_rereplicated
            .fetch_add(report.rereplicated, Ordering::Relaxed);
        self.blocks_lost.fetch_add(report.lost, Ordering::Relaxed);
        log.insert((epoch, node), report);
        report
    }

    /// Processes a node *joining* the cluster at job epoch `epoch`:
    /// every block whose ideal hash placement under the current up-set
    /// includes the newcomer gets a copy moved onto it (the surplus
    /// replica that the new topology no longer wants is dropped), so
    /// the joined node carries its share of data and locality-first
    /// scheduling can place maps on it. Returns the number of blocks
    /// rebalanced; journaled per `(epoch, node)` like [`Dfs::node_lost`]
    /// so a resumed driver replaying the epoch re-moves nothing.
    ///
    /// Callers must refresh [`Dfs::set_down_nodes`] *before* this so
    /// the newcomer is no longer in the down set.
    pub fn node_joined(&self, epoch: u64, node: usize) -> u64 {
        let mut log = self.membership_log.lock();
        if let Some(&moved) = log.get(&(epoch, node)) {
            return moved;
        }
        let mut moved = 0u64;
        if self.topology.read().is_some() {
            let paths: Vec<(String, usize)> = self
                .replicas
                .read()
                .iter()
                .map(|(p, b)| (p.clone(), b.len()))
                .collect();
            for (path, nblocks) in paths {
                let ideal = self.place_blocks(&path, nblocks);
                let mut reps = self.replicas.write();
                let Some(blocks) = reps.get_mut(&path) else {
                    continue;
                };
                for (block, replicas) in blocks.iter_mut().enumerate() {
                    let Some(want) = ideal.get(block) else {
                        continue;
                    };
                    if !want.contains(&node) || replicas.contains(&node) || replicas.is_empty() {
                        continue;
                    }
                    replicas.push(node);
                    if replicas.len() > want.len() {
                        if let Some(pos) = replicas.iter().position(|n| !want.contains(n)) {
                            replicas.swap_remove(pos);
                        }
                    }
                    moved += 1;
                }
            }
        }
        self.blocks_rebalanced.fetch_add(moved, Ordering::Relaxed);
        log.insert((epoch, node), moved);
        moved
    }

    /// Processes a *graceful decommission* of `node` at job epoch
    /// `epoch`: each block replica it holds is copied onto an eligible
    /// node **before** the drained node is stripped from the replica
    /// list — the copy-then-remove order is what makes decommission
    /// lose nothing even at `dfs_replication = 1` (contrast
    /// [`Dfs::node_lost`], where the data is already gone). If no
    /// eligible target exists the replica stays on the drained node
    /// rather than being destroyed. Returns the number of blocks
    /// rebalanced; journaled per `(epoch, node)`.
    pub fn node_decommissioned(&self, epoch: u64, node: usize) -> u64 {
        let mut log = self.membership_log.lock();
        if let Some(&moved) = log.get(&(epoch, node)) {
            return moved;
        }
        let mut moved = 0u64;
        if let Some(topo) = *self.topology.read() {
            let down = self.down.read();
            let eligible: Vec<usize> = (0..topo.nodes)
                .filter(|n| *n != node && !down.contains(n))
                .collect();
            drop(down);
            let mut reps = self.replicas.write();
            for (path, blocks) in reps.iter_mut() {
                for (block, replicas) in blocks.iter_mut().enumerate() {
                    if !replicas.contains(&node) {
                        continue;
                    }
                    // Copy off first (same rotation as initial
                    // placement), then drop the drained copy.
                    if !eligible.is_empty() {
                        let start = block_hash(path, block) as usize % eligible.len();
                        if let Some(target) = (0..eligible.len())
                            .map(|j| eligible[(start + j) % eligible.len()])
                            .find(|t| !replicas.contains(t))
                        {
                            replicas.push(target);
                            moved += 1;
                        }
                    }
                    if replicas.len() > 1 {
                        if let Some(pos) = replicas.iter().position(|&n| n == node) {
                            replicas.swap_remove(pos);
                        }
                    }
                }
            }
        }
        self.blocks_rebalanced.fetch_add(moved, Ordering::Relaxed);
        log.insert((epoch, node), moved);
        moved
    }

    /// Simulates checksum verification of a job's input under a fault
    /// plan with [`crate::faults::FaultPlan::with_dfs_corruption`]
    /// enabled: for each block, replicas are read in snapshot order and
    /// every leading corrupt copy (a deterministic per-`(path, block,
    /// node)` draw) is detected and skipped until a good replica
    /// serves the read. Returns the number of corrupt replicas
    /// detected; errors with [`Error::ReplicasLost`] when **every**
    /// replica of some block fails verification. Because corruption is
    /// simulated as a placement predicate — the stored bytes are never
    /// touched — the surviving replica is bit-identical to a fault-free
    /// read.
    pub fn scan_replicas_for_corruption(
        &self,
        path: &str,
        replicas: &[Vec<usize>],
        plan: &FaultPlan,
    ) -> Result<u64> {
        if plan.dfs_corruption_prob <= 0.0 || replicas.is_empty() {
            return Ok(0);
        }
        let mut detected = 0u64;
        for (block, nodes) in replicas.iter().enumerate() {
            // A block with no placement is handled by the availability
            // check, not the checksum path.
            let mut served = nodes.is_empty();
            for &node in nodes {
                if plan.dfs_replica_corrupt(path, block, node) {
                    detected += 1;
                } else {
                    served = true;
                    break;
                }
            }
            if !served {
                return Err(Error::ReplicasLost {
                    path: path.to_string(),
                    block,
                });
            }
        }
        self.corrupt_blocks_detected
            .fetch_add(detected, Ordering::Relaxed);
        Ok(detected)
    }

    /// The replica node lists of a file's blocks (empty when no
    /// topology is attached or the file predates it).
    pub fn block_replicas(&self, path: &str) -> Vec<Vec<usize>> {
        self.replicas.read().get(path).cloned().unwrap_or_default()
    }

    /// The replica map a job submitted at `epoch` sees for `path`,
    /// journaled like [`Dfs::node_lost`]: the first call at a given
    /// `(epoch, path)` records the live map, and a resumed driver
    /// re-running the epoch reads the record back — so locality
    /// preferences (and every placement draw downstream of them)
    /// replay bit-identically even though later crash processing has
    /// since reshaped the live replica map.
    pub fn block_replicas_at(&self, epoch: u64, path: &str) -> Vec<Vec<usize>> {
        let mut log = self.replica_log.lock();
        if let Some(snapshot) = log.get(&(epoch, path.to_string())) {
            return snapshot.clone();
        }
        let snapshot = self.block_replicas(path);
        log.insert((epoch, path.to_string()), snapshot.clone());
        snapshot
    }

    /// Errors with [`Error::ReplicasLost`] when any block of the file
    /// has lost all its replicas.
    fn check_available(&self, path: &str) -> Result<()> {
        let reps = self.replicas.read();
        let Some(blocks) = reps.get(path) else {
            return Ok(());
        };
        for (block, replicas) in blocks.iter().enumerate() {
            if replicas.is_empty() {
                return Err(Error::ReplicasLost {
                    path: path.to_string(),
                    block,
                });
            }
        }
        Ok(())
    }

    /// Opens a writer for a new text file.
    ///
    /// Fails with [`Error::FileExists`] if the path is taken and
    /// `overwrite` is false.
    pub fn create(self: &Arc<Self>, path: &str, overwrite: bool) -> Result<TextWriter> {
        let files = self.files.read();
        if !overwrite && files.contains_key(path) {
            return Err(Error::FileExists(path.to_string()));
        }
        drop(files);
        Ok(TextWriter {
            dfs: Arc::clone(self),
            path: path.to_string(),
            blocks: Vec::new(),
            current: Vec::with_capacity(self.block_size.min(1 << 20)),
            len: 0,
            lines: 0,
        })
    }

    /// Writes a whole file from an iterator of lines (convenience over
    /// [`Dfs::create`]).
    pub fn put_lines<I, S>(self: &Arc<Self>, path: &str, lines: I) -> Result<()>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut w = self.create(path, false)?;
        for line in lines {
            w.write_line(line.as_ref());
        }
        w.close();
        Ok(())
    }

    fn file(&self, path: &str) -> Result<Arc<DfsFile>> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| Error::FileNotFound(path.to_string()))
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// Removes a file; succeeds silently when absent.
    pub fn remove(&self, path: &str) {
        self.files.write().remove(path);
        self.replicas.write().remove(path);
    }

    /// Atomically renames `from` to `to`, replacing any file at `to`
    /// (HDFS `rename` semantics). Readers see either the old file at
    /// `from` or the complete file at `to`, never a partial state —
    /// this is the commit primitive of the checkpoint journal. The
    /// physical blocks do not move, so their replica placement follows
    /// the file to its new name.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut files = self.files.write();
        let file = files
            .remove(from)
            .ok_or_else(|| Error::FileNotFound(from.to_string()))?;
        files.insert(to.to_string(), file);
        let mut reps = self.replicas.write();
        match reps.remove(from) {
            Some(placement) => {
                reps.insert(to.to_string(), placement);
            }
            None => {
                reps.remove(to);
            }
        }
        Ok(())
    }

    /// Fenced variant of [`Dfs::rename`] — the output-committer path a
    /// task attempt publishes its result file through. The rename
    /// happens, and the output becomes visible at `to`, only while
    /// `attempt` still holds the task's commit fence; a zombie attempt
    /// (falsely declared dead and already replaced) instead has its
    /// temporary file deleted, so exactly one attempt's output is ever
    /// visible whichever order commits land in. Returns whether the
    /// commit won.
    pub fn publish_fenced(
        &self,
        from: &str,
        to: &str,
        fence: &CommitFence,
        attempt: u32,
    ) -> Result<bool> {
        if !fence.try_commit(attempt) {
            self.remove(from);
            return Ok(false);
        }
        self.rename(from, to)?;
        Ok(true)
    }

    /// All stored paths, sorted.
    pub fn list(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }

    /// Size of a file in bytes.
    pub fn len(&self, path: &str) -> Result<u64> {
        Ok(self.file(path)?.len)
    }

    /// Number of lines in a file.
    pub fn line_count(&self, path: &str) -> Result<u64> {
        Ok(self.file(path)?.lines)
    }

    /// The input splits of a file, one per block. Charges nothing; reads
    /// are counted when a split is *consumed* via
    /// [`Dfs::charge_split_read`]. Every block is (decompressed, on a
    /// compressed DFS, and) verified against the integrity frame
    /// computed when it was published ([`Error::Corrupt`] on a frame
    /// mismatch or an undecompressable stored block); errors with
    /// [`Error::ReplicasLost`] when node crashes destroyed the last
    /// replica of any block.
    pub fn splits(&self, path: &str) -> Result<Vec<InputSplit>> {
        let file = self.file(path)?;
        self.check_available(path)?;
        // Decompression stays on this thread: decompressing in the
        // checksum workers cut the spilling benchmark's wall time but
        // raised its peak RSS past the benchmark's bound (DESIGN.md
        // §20).
        let raw: Vec<Result<Bytes>> = file
            .blocks
            .iter()
            .enumerate()
            .map(|(index, stored)| {
                stored.raw().map_err(|e| {
                    Error::Corrupt(format!(
                        "{path} block {index}: stored block does not decompress ({e})"
                    ))
                })
            })
            .collect();
        let verdicts = verify_frames(path, &raw, &file.frames);
        let mut offset = 0u64;
        raw.into_iter()
            .zip(verdicts)
            .enumerate()
            .map(|(index, (block, verdict))| {
                let data = block?;
                verdict?;
                let split = InputSplit {
                    path: path.to_string(),
                    index,
                    offset,
                    data,
                };
                offset += split.len() as u64;
                Ok(split)
            })
            .collect()
    }

    /// The stored integrity frame of one block, e.g.
    /// `"GMRBLK1 len=4096 crc=9e3779b97f4a7c15"`.
    pub fn block_frame_header(&self, path: &str, block: usize) -> Result<String> {
        let file = self.file(path)?;
        file.frames
            .get(block)
            .cloned()
            .ok_or_else(|| Error::Corrupt(format!("{path} has no block {block}")))
    }

    /// Marks the start of one full scan of the dataset (one MapReduce
    /// job reading it). §4 counts these as "dataset reads".
    pub fn begin_dataset_read(&self) {
        self.dataset_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Charges the bytes of one consumed split to the read counter.
    pub fn charge_split_read(&self, split: &InputSplit) {
        self.bytes_read
            .fetch_add(split.data.len() as u64, Ordering::Relaxed);
    }

    /// Reads all lines of a file (driver-side convenience; charges the
    /// read counters like a full scan).
    pub fn read_lines(&self, path: &str) -> Result<Vec<String>> {
        let splits = self.splits(path)?;
        self.begin_dataset_read();
        let mut out = Vec::new();
        for split in &splits {
            self.charge_split_read(split);
            out.extend(split.lines().map(|(_, l)| l.to_string()));
        }
        Ok(out)
    }

    /// Snapshot of the I/O statistics.
    pub fn stats(&self) -> DfsStats {
        DfsStats {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_stored: self.bytes_stored.load(Ordering::Relaxed),
            dataset_reads: self.dataset_reads.load(Ordering::Relaxed),
            blocks_rereplicated: self.blocks_rereplicated.load(Ordering::Relaxed),
            blocks_lost: self.blocks_lost.load(Ordering::Relaxed),
            blocks_rebalanced: self.blocks_rebalanced.load(Ordering::Relaxed),
            corrupt_blocks_detected: self.corrupt_blocks_detected.load(Ordering::Relaxed),
        }
    }
}

/// FNV-1a over a path plus block index — the deterministic spread that
/// places block replicas across nodes.
fn block_hash(path: &str, block: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for b in (block as u64).to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Buffered line writer that cuts blocks at line boundaries.
pub struct TextWriter {
    dfs: Arc<Dfs>,
    path: String,
    blocks: Vec<Bytes>,
    current: Vec<u8>,
    len: u64,
    lines: u64,
}

impl TextWriter {
    /// Appends one line (the terminator is added by the writer). The
    /// bytes need not be UTF-8, as in HDFS; readers skip such a line
    /// ([`InputSplit::records`]).
    pub fn write_line(&mut self, line: impl AsRef<[u8]>) {
        let line = line.as_ref();
        self.current.extend_from_slice(line);
        self.current.push(b'\n');
        self.len += line.len() as u64 + 1;
        self.lines += 1;
        if self.current.len() >= self.dfs.block_size {
            let block = Bytes::from(std::mem::take(&mut self.current));
            self.blocks.push(block);
        }
    }

    /// Number of lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Finishes the file and publishes it into the DFS.
    pub fn close(mut self) {
        if !self.current.is_empty() {
            self.blocks
                .push(Bytes::from(std::mem::take(&mut self.current)));
        }
        self.dfs
            .bytes_written
            .fetch_add(self.len, Ordering::Relaxed);
        let file = Arc::new(DfsFile::framed(
            std::mem::take(&mut self.blocks),
            self.len,
            self.lines,
            self.dfs.compress,
        ));
        self.dfs
            .bytes_stored
            .fetch_add(file.stored_len(), Ordering::Relaxed);
        let nblocks = file.blocks.len();
        self.dfs.files.write().insert(self.path.clone(), file);
        self.dfs.assign_replicas(&self.path, nblocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfs(block: usize) -> Arc<Dfs> {
        Arc::new(Dfs::new(block))
    }

    #[test]
    fn write_then_read_round_trip() {
        let fs = dfs(1024);
        fs.put_lines("data/points.txt", ["1.0 2.0", "3.0 4.0", "5.0 6.0"])
            .unwrap();
        assert!(fs.exists("data/points.txt"));
        assert_eq!(fs.line_count("data/points.txt").unwrap(), 3);
        let lines = fs.read_lines("data/points.txt").unwrap();
        assert_eq!(lines, vec!["1.0 2.0", "3.0 4.0", "5.0 6.0"]);
    }

    #[test]
    fn missing_file_errors() {
        let fs = dfs(1024);
        assert!(matches!(fs.read_lines("nope"), Err(Error::FileNotFound(_))));
        assert!(matches!(fs.splits("nope"), Err(Error::FileNotFound(_))));
    }

    #[test]
    fn duplicate_create_without_overwrite_errors() {
        let fs = dfs(1024);
        fs.put_lines("f", ["a"]).unwrap();
        assert!(matches!(
            fs.put_lines("f", ["b"]),
            Err(Error::FileExists(_))
        ));
        // Overwrite succeeds.
        let mut w = fs.create("f", true).unwrap();
        w.write_line("c");
        w.close();
        assert_eq!(fs.read_lines("f").unwrap(), vec!["c"]);
    }

    #[test]
    fn blocks_are_line_aligned() {
        // Tiny block size: every line longer than the block still lands
        // whole in a single block.
        let fs = dfs(8);
        let lines: Vec<String> = (0..50).map(|i| format!("point-{i:04}")).collect();
        fs.put_lines("f", &lines).unwrap();
        let splits = fs.splits("f").unwrap();
        assert!(splits.len() > 1, "expected multiple splits");
        for s in &splits {
            let text = std::str::from_utf8(&s.data).unwrap();
            assert!(text.ends_with('\n'), "split must end at a line boundary");
        }
        // Reassembling the splits yields the original lines in order.
        let all: Vec<String> = splits
            .iter()
            .flat_map(|s| s.lines().map(|(_, l)| l.to_string()).collect::<Vec<_>>())
            .collect();
        assert_eq!(all, lines);
    }

    #[test]
    fn split_offsets_are_contiguous() {
        let fs = dfs(16);
        fs.put_lines("f", (0..100).map(|i| format!("{i}"))).unwrap();
        let splits = fs.splits("f").unwrap();
        let mut expected = 0u64;
        for s in &splits {
            assert_eq!(s.offset, expected);
            expected += s.len() as u64;
        }
        assert_eq!(expected, fs.len("f").unwrap());
    }

    #[test]
    fn line_offsets_match_file_positions() {
        let fs = dfs(10);
        fs.put_lines("f", ["ab", "cdef", "g"]).unwrap();
        let splits = fs.splits("f").unwrap();
        let offsets: Vec<(u64, String)> = splits
            .iter()
            .flat_map(|s| {
                s.lines()
                    .map(|(o, l)| (o, l.to_string()))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(
            offsets,
            vec![(0, "ab".into()), (3, "cdef".into()), (8, "g".into())]
        );
    }

    #[test]
    fn read_accounting() {
        let fs = dfs(1024);
        fs.put_lines("f", ["hello", "world"]).unwrap();
        let before = fs.stats();
        assert_eq!(before.dataset_reads, 0);
        assert_eq!(before.bytes_written, 12);
        fs.read_lines("f").unwrap();
        let after = fs.stats();
        assert_eq!(after.dataset_reads, 1);
        assert_eq!(after.bytes_read, 12);
    }

    #[test]
    fn remove_and_list() {
        let fs = dfs(64);
        fs.put_lines("b", ["1"]).unwrap();
        fs.put_lines("a", ["1"]).unwrap();
        assert_eq!(fs.list(), vec!["a".to_string(), "b".to_string()]);
        fs.remove("a");
        assert!(!fs.exists("a"));
        fs.remove("a"); // idempotent
    }

    #[test]
    fn rename_moves_and_replaces() {
        let fs = dfs(64);
        fs.put_lines("tmp", ["new"]).unwrap();
        fs.put_lines("final", ["old"]).unwrap();
        fs.rename("tmp", "final").unwrap();
        assert!(!fs.exists("tmp"));
        assert_eq!(fs.read_lines("final").unwrap(), vec!["new"]);
        assert!(matches!(fs.rename("tmp", "x"), Err(Error::FileNotFound(_))));
    }

    #[test]
    fn fenced_publish_makes_exactly_one_output_visible() {
        let fs = dfs(64);
        let fence = CommitFence::new();
        // Attempt 0 stages its output, is falsely declared dead, and a
        // duplicate (attempt 1) stages its own copy and is granted the
        // fence.
        fs.put_lines("task0/_tmp.a0", ["from attempt 0"]).unwrap();
        fs.put_lines("task0/_tmp.a1", ["from attempt 1"]).unwrap();
        fence.grant(1);
        // The duplicate commits first; the zombie's late commit is
        // rejected and its staging file cleaned up.
        assert!(fs
            .publish_fenced("task0/_tmp.a1", "task0/out", &fence, 1)
            .unwrap());
        assert!(!fs
            .publish_fenced("task0/_tmp.a0", "task0/out", &fence, 0)
            .unwrap());
        assert!(!fs.exists("task0/_tmp.a0"), "zombie staging file removed");
        assert_eq!(fs.read_lines("task0/out").unwrap(), vec!["from attempt 1"]);
    }

    #[test]
    fn fenced_publish_rejects_the_zombie_even_when_it_commits_first() {
        let fs = dfs(64);
        let fence = CommitFence::new();
        fs.put_lines("task1/_tmp.a0", ["stale"]).unwrap();
        fs.put_lines("task1/_tmp.a1", ["fresh"]).unwrap();
        // The fence was re-granted before the zombie reached its commit,
        // so even a zombie racing ahead of its replacement loses.
        fence.grant(1);
        assert!(!fs
            .publish_fenced("task1/_tmp.a0", "task1/out", &fence, 0)
            .unwrap());
        assert!(!fs.exists("task1/out"), "no output visible yet");
        assert!(fs
            .publish_fenced("task1/_tmp.a1", "task1/out", &fence, 1)
            .unwrap());
        assert_eq!(fs.read_lines("task1/out").unwrap(), vec!["fresh"]);
    }

    #[test]
    fn empty_file_has_no_splits() {
        let fs = dfs(64);
        let w = fs.create("empty", false).unwrap();
        w.close();
        assert_eq!(fs.splits("empty").unwrap().len(), 0);
        assert_eq!(fs.line_count("empty").unwrap(), 0);
    }

    #[test]
    fn topology_places_replicas_on_distinct_nodes() {
        let fs = dfs(16);
        fs.put_lines("f", (0..40).map(|i| format!("{i}"))).unwrap();
        fs.attach_topology(4, 3);
        let placement = fs.block_replicas("f");
        assert_eq!(placement.len(), fs.splits("f").unwrap().len());
        for replicas in &placement {
            assert_eq!(replicas.len(), 3);
            let set: BTreeSet<usize> = replicas.iter().copied().collect();
            assert_eq!(set.len(), 3, "replicas must land on distinct nodes");
            assert!(replicas.iter().all(|&n| n < 4));
        }
        // Files written after attach are placed too.
        fs.put_lines("g", ["x"]).unwrap();
        assert_eq!(fs.block_replicas("g").len(), 1);
        // Replication factor is capped at the node count.
        let fs2 = dfs(16);
        fs2.put_lines("f", ["a"]).unwrap();
        fs2.attach_topology(2, 3);
        assert_eq!(fs2.block_replicas("f")[0].len(), 2);
    }

    #[test]
    fn node_loss_rereplicates_and_reads_survive() {
        let fs = dfs(16);
        fs.put_lines("f", (0..60).map(|i| format!("{i}"))).unwrap();
        fs.attach_topology(4, 3);
        let before = fs.read_lines("f").unwrap();
        let report = fs.node_lost(1, 2, &[2]);
        assert_eq!(report.lost, 0, "triple replication survives one crash");
        // Every block held by node 2 was copied somewhere else.
        let placement = fs.block_replicas("f");
        for replicas in &placement {
            assert_eq!(replicas.len(), 3);
            assert!(!replicas.contains(&2));
        }
        assert_eq!(fs.read_lines("f").unwrap(), before);
        assert_eq!(fs.stats().blocks_rereplicated, report.rereplicated);
        // Replaying the same crash (a resumed driver) is a no-op.
        let replay = fs.node_lost(1, 2, &[2]);
        assert_eq!(replay, report);
        assert_eq!(fs.stats().blocks_rereplicated, report.rereplicated);
    }

    #[test]
    fn last_replica_loss_makes_reads_fail() {
        let fs = dfs(16);
        fs.put_lines("f", (0..60).map(|i| format!("{i}"))).unwrap();
        fs.attach_topology(4, 1);
        // Single replication: kill the nodes until some block is gone.
        let placement = fs.block_replicas("f");
        let victim = placement[0][0];
        let report = fs.node_lost(1, victim, &[victim]);
        // With replication 1 there is no surviving copy to re-replicate.
        assert!(report.lost > 0);
        assert_eq!(report.rereplicated, 0);
        let err = fs.splits("f").unwrap_err();
        assert!(
            matches!(err, Error::ReplicasLost { ref path, .. } if path == "f"),
            "{err}"
        );
        assert!(matches!(
            fs.read_lines("f"),
            Err(Error::ReplicasLost { .. })
        ));
        assert_eq!(fs.stats().blocks_lost, report.lost);
        // Metadata stays readable; other files are unaffected.
        assert!(fs.len("f").is_ok());
        fs.put_lines("g", ["ok"]).unwrap();
        assert!(fs.read_lines("g").is_ok());
    }

    #[test]
    fn rename_carries_replica_placement() {
        let fs = dfs(16);
        fs.attach_topology(4, 2);
        fs.put_lines("tmp", (0..40).map(|i| format!("{i}")))
            .unwrap();
        let placement = fs.block_replicas("tmp");
        fs.rename("tmp", "final").unwrap();
        assert_eq!(fs.block_replicas("final"), placement);
        assert!(fs.block_replicas("tmp").is_empty());
    }

    #[test]
    fn down_nodes_receive_no_new_replicas() {
        let fs = dfs(16);
        fs.attach_topology(4, 2);
        fs.set_down_nodes(&[0]);
        fs.put_lines("f", (0..60).map(|i| format!("{i}"))).unwrap();
        for replicas in fs.block_replicas("f") {
            assert!(!replicas.contains(&0), "down node must not hold replicas");
        }
    }

    #[test]
    fn blocks_carry_integrity_frames() {
        let fs = dfs(16);
        fs.put_lines("f", (0..40).map(|i| format!("{i}"))).unwrap();
        let splits = fs.splits("f").unwrap();
        assert!(!splits.is_empty());
        for s in &splits {
            let frame = fs.block_frame_header("f", s.index).unwrap();
            let expect = format!(
                "{BLOCK_MAGIC} len={} crc={:016x}",
                s.data.len(),
                block_crc(&s.data)
            );
            assert_eq!(frame, expect);
        }
        assert!(fs.block_frame_header("f", splits.len()).is_err());
        // The frame discipline matches the checkpoint journal's: same
        // FNV-1a, same `len=… crc=…` shape, different magic.
        assert!(fs
            .block_frame_header("f", 0)
            .unwrap()
            .starts_with("GMRBLK1 "));
    }

    #[test]
    fn corruption_scan_falls_back_and_detects() {
        let fs = dfs(16);
        fs.put_lines("f", (0..60).map(|i| format!("{i}"))).unwrap();
        fs.attach_topology(4, 3);
        let replicas = fs.block_replicas("f");
        let plan = FaultPlan::none().with_seed(5).with_dfs_corruption(0.4);
        let detected = fs
            .scan_replicas_for_corruption("f", &replicas, &plan)
            .unwrap();
        assert!(detected > 0, "p=0.4 over many replicas must hit something");
        assert_eq!(fs.stats().corrupt_blocks_detected, detected);
        // The scan is a pure function of (path, snapshot, plan): a
        // replayed epoch detects the identical count.
        let again = fs
            .scan_replicas_for_corruption("f", &replicas, &plan)
            .unwrap();
        assert_eq!(again, detected);
        // An inert plan detects nothing and charges nothing.
        assert_eq!(
            fs.scan_replicas_for_corruption("f", &replicas, &FaultPlan::none())
                .unwrap(),
            0
        );
        // Certain corruption kills every replica of block 0.
        let all_bad = FaultPlan::none().with_dfs_corruption(1.0);
        let err = fs
            .scan_replicas_for_corruption("f", &replicas, &all_bad)
            .unwrap_err();
        assert!(matches!(err, Error::ReplicasLost { ref path, block: 0 } if path == "f"));
    }

    #[test]
    fn node_join_rebalances_blocks_onto_newcomer() {
        let fs = dfs(16);
        fs.put_lines("f", (0..200).map(|i| format!("{i}"))).unwrap();
        // Universe of 5 nodes; node 4 hasn't joined yet, so it starts
        // down and holds nothing.
        fs.attach_topology(5, 2);
        fs.set_down_nodes(&[4]);
        fs.remove("f");
        fs.put_lines("f", (0..200).map(|i| format!("{i}"))).unwrap();
        assert!(fs.block_replicas("f").iter().all(|r| !r.contains(&4)));
        // The join lifts the down marker, then rebalancing moves every
        // block whose ideal placement wants node 4.
        fs.set_down_nodes(&[]);
        let moved = fs.node_joined(3, 4);
        assert!(moved > 0, "hash placement over 5 nodes must want node 4");
        let placement = fs.block_replicas("f");
        assert!(placement.iter().any(|r| r.contains(&4)));
        // Replication factor is preserved: the surplus copy was dropped.
        assert!(placement.iter().all(|r| r.len() == 2));
        assert_eq!(fs.stats().blocks_rebalanced, moved);
        // Replaying the join (a resumed driver) is a no-op.
        assert_eq!(fs.node_joined(3, 4), moved);
        assert_eq!(fs.stats().blocks_rebalanced, moved);
        // Reads still verify and serve the same data.
        assert_eq!(fs.line_count("f").unwrap(), 200);
        assert!(fs.read_lines("f").is_ok());
    }

    #[test]
    fn graceful_decommission_loses_nothing_at_replication_one() {
        let fs = dfs(16);
        fs.put_lines("f", (0..120).map(|i| format!("{i}"))).unwrap();
        fs.attach_topology(4, 1);
        let before = fs.read_lines("f").unwrap();
        let victim = fs.block_replicas("f")[0][0];
        fs.set_down_nodes(&[victim]);
        let moved = fs.node_decommissioned(2, victim);
        assert!(moved > 0, "the drained node held at least block 0");
        let placement = fs.block_replicas("f");
        assert!(placement.iter().all(|r| !r.contains(&victim)));
        assert!(placement.iter().all(|r| r.len() == 1));
        // Copy-then-remove: unlike a crash at replication 1, nothing is
        // lost and every read still succeeds bit-identically.
        assert_eq!(fs.read_lines("f").unwrap(), before);
        assert_eq!(fs.stats().blocks_lost, 0);
        assert_eq!(fs.stats().blocks_rebalanced, moved);
        // Journaled: replaying the decommission epoch re-moves nothing.
        assert_eq!(fs.node_decommissioned(2, victim), moved);
        assert_eq!(fs.stats().blocks_rebalanced, moved);
    }

    #[test]
    fn compressed_dfs_round_trips_and_stores_fewer_bytes() {
        let raw = dfs(1024);
        let packed = Arc::new(Dfs::with_compression(1024, true));
        assert!(packed.compression() && !raw.compression());
        // Repetitive decimal text — the kind of payload the paper's
        // datasets are made of — compresses well.
        let lines: Vec<String> = (0..400)
            .map(|i| format!("1.25 -3.5 {}.0", i % 10))
            .collect();
        raw.put_lines("f", &lines).unwrap();
        packed.put_lines("f", &lines).unwrap();
        // Reads are bit-identical to the uncompressed DFS.
        assert_eq!(
            packed.read_lines("f").unwrap(),
            raw.read_lines("f").unwrap()
        );
        assert_eq!(packed.len("f").unwrap(), raw.len("f").unwrap());
        // Splits decompress to the raw form: same offsets, same frames.
        let rs = raw.splits("f").unwrap();
        let ps = packed.splits("f").unwrap();
        assert_eq!(rs.len(), ps.len());
        for (a, b) in rs.iter().zip(&ps) {
            assert_eq!(a.offset, b.offset);
            assert_eq!(a.data, b.data);
        }
        for i in 0..rs.len() {
            assert_eq!(
                packed.block_frame_header("f", i).unwrap(),
                raw.block_frame_header("f", i).unwrap(),
                "frames cover the raw bytes on both"
            );
        }
        // The physical footprint shrank; the logical counters did not.
        let stats = packed.stats();
        assert_eq!(stats.bytes_written, raw.stats().bytes_written);
        assert!(
            stats.bytes_stored < stats.bytes_written / 2,
            "expected >2x compression on repetitive text, got {} of {}",
            stats.bytes_stored,
            stats.bytes_written
        );
        assert_eq!(packed.stored_len("f").unwrap(), stats.bytes_stored);
        assert_eq!(raw.stats().bytes_stored, raw.stats().bytes_written);
    }

    #[test]
    fn tampered_compressed_block_is_corrupt() {
        let fs = Arc::new(Dfs::with_compression(64, true));
        fs.put_lines("f", (0..80).map(|i| format!("row {i} {i} {i}")))
            .unwrap();
        assert!(fs.read_lines("f").is_ok());
        // Truncate one stored block behind the DFS's back: the read
        // must fail decompression (or the frame check) as Corrupt, the
        // same way a frame mismatch surfaces.
        {
            let mut files = fs.files.write();
            let file = files.get("f").unwrap().as_ref().clone();
            let mut blocks = file.blocks.clone();
            let cut = blocks[0].data.len() / 2;
            blocks[0].data = Bytes::from(blocks[0].data[..cut].to_vec());
            files.insert(
                "f".into(),
                Arc::new(DfsFile {
                    blocks,
                    frames: file.frames.clone(),
                    len: file.len,
                    lines: file.lines,
                }),
            );
        }
        let err = fs.splits("f").unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    /// `splits` as one serial pass over the blocks, each decompressed
    /// and then checked against its frame before the next: the order
    /// the parallel verification must reproduce.
    fn serial_splits(fs: &Dfs, path: &str) -> Result<Vec<(usize, u64, Bytes)>> {
        let file = fs.file(path)?;
        let mut offset = 0u64;
        let mut out = Vec::new();
        for (index, (stored, frame)) in file.blocks.iter().zip(&file.frames).enumerate() {
            let block = stored.raw().map_err(|e| {
                Error::Corrupt(format!(
                    "{path} block {index}: stored block does not decompress ({e})"
                ))
            })?;
            let expect = frame_header(block.len(), block_crc(&block));
            if *frame != expect {
                return Err(Error::Corrupt(format!(
                    "{path} block {index}: frame {frame:?} does not match data ({expect})"
                )));
            }
            let len = block.len() as u64;
            out.push((index, offset, block));
            offset += len;
        }
        Ok(out)
    }

    fn parallel_splits(fs: &Dfs, path: &str) -> Result<Vec<(usize, u64, Bytes)>> {
        Ok(fs
            .splits(path)?
            .into_iter()
            .map(|s| (s.index, s.offset, s.data))
            .collect())
    }

    /// Rewrites the stored file behind the DFS's back.
    fn tamper(fs: &Dfs, path: &str, edit: impl FnOnce(&mut Vec<StoredBlock>, &mut Vec<String>)) {
        let mut files = fs.files.write();
        let mut file = files.get(path).unwrap().as_ref().clone();
        edit(&mut file.blocks, &mut file.frames);
        files.insert(path.into(), Arc::new(file));
    }

    /// Flips one bit of a stored block: a frame mismatch on a raw block,
    /// a decompression failure or a mismatch on a compressed one.
    fn flip(blocks: &mut [StoredBlock], j: usize) {
        let mut data = blocks[j].data.to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0x20;
        blocks[j].data = Bytes::from(data);
    }

    fn many_blocks(compress: bool) -> Arc<Dfs> {
        let fs = Arc::new(Dfs::with_compression(64, compress));
        fs.put_lines(
            "f",
            (0..120).map(|i| format!("row {i} {} {}", i * 7, i % 13)),
        )
        .unwrap();
        fs
    }

    #[test]
    fn parallel_verification_matches_serial_on_clean_files() {
        for compress in [false, true] {
            let fs = many_blocks(compress);
            let serial = serial_splits(&fs, "f").unwrap();
            assert!(serial.len() > 8, "{} blocks", serial.len());
            assert_eq!(parallel_splits(&fs, "f").unwrap(), serial);
        }
        // A one-block file (the checkpoint journal's shape) verifies on
        // the calling thread alone.
        let fs = dfs(1 << 20);
        fs.put_lines("journal", ["GMRCKPT1 seq=1", "state"])
            .unwrap();
        let one = parallel_splits(&fs, "journal").unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one, serial_splits(&fs, "journal").unwrap());
    }

    #[test]
    fn parallel_verification_reports_the_serial_error_for_every_block() {
        for compress in [false, true] {
            let nblocks = many_blocks(compress).file("f").unwrap().blocks.len();
            for j in 0..nblocks {
                let fs = many_blocks(compress);
                tamper(&fs, "f", |blocks, _| flip(blocks, j));
                let want = serial_splits(&fs, "f").unwrap_err();
                assert!(want.to_string().contains(&format!("block {j}:")), "{want}");
                assert_eq!(
                    fs.splits("f").unwrap_err(),
                    want,
                    "compress={compress} j={j}"
                );

                let fs = many_blocks(compress);
                tamper(&fs, "f", |_, frames| frames[j].push('!'));
                let want = serial_splits(&fs, "f").unwrap_err();
                assert_eq!(
                    fs.splits("f").unwrap_err(),
                    want,
                    "compress={compress} j={j}"
                );
            }
        }
    }

    #[test]
    fn parallel_verification_names_the_lowest_bad_block() {
        for compress in [false, true] {
            let nblocks = many_blocks(compress).file("f").unwrap().blocks.len();
            for (lo, hi) in [(0, 1), (0, nblocks - 1), (3, 7), (nblocks - 2, nblocks - 1)] {
                // Bad data in one block and a bad frame in the other,
                // both ways round: the lower index wins either way.
                for data_first in [true, false] {
                    let fs = many_blocks(compress);
                    tamper(&fs, "f", |blocks, frames| {
                        let (data, frame) = if data_first { (lo, hi) } else { (hi, lo) };
                        flip(blocks, data);
                        frames[frame].push('!');
                    });
                    let err = fs.splits("f").unwrap_err();
                    assert_eq!(err, serial_splits(&fs, "f").unwrap_err());
                    assert!(err.to_string().contains(&format!("f block {lo}:")), "{err}");
                }
            }
        }
    }

    #[test]
    fn one_invalid_byte_drops_only_its_line() {
        let split = InputSplit {
            path: "f".into(),
            index: 0,
            offset: 100,
            data: Bytes::from(b"1 2\r\n3 \xff 4\n5 6\n7 8".to_vec()),
        };
        let records: Vec<_> = split.records().collect();
        assert_eq!(
            records,
            vec![
                (100, Ok("1 2")),
                (105, Err(&b"3 \xff 4"[..])),
                (111, Ok("5 6")),
                (115, Ok("7 8")),
            ]
        );
        let lines: Vec<_> = split.lines().collect();
        assert_eq!(lines, vec![(100, "1 2"), (111, "5 6"), (115, "7 8")]);
    }

    #[test]
    fn compressed_dfs_survives_node_loss_and_rename() {
        let fs = Arc::new(Dfs::with_compression(64, true));
        fs.put_lines("tmp", (0..120).map(|i| format!("p {i} {i}")))
            .unwrap();
        fs.attach_topology(4, 3);
        let before = fs.read_lines("tmp").unwrap();
        // Replica operations act on placements, never on stored bytes:
        // a crash plus re-replication leaves reads bit-identical.
        let report = fs.node_lost(1, 1, &[1]);
        assert_eq!(report.lost, 0);
        assert_eq!(fs.read_lines("tmp").unwrap(), before);
        fs.rename("tmp", "final").unwrap();
        assert_eq!(fs.read_lines("final").unwrap(), before);
    }

    #[test]
    fn concurrent_writers_to_distinct_paths() {
        let fs = dfs(256);
        std::thread::scope(|s| {
            for t in 0..8 {
                let fs = Arc::clone(&fs);
                s.spawn(move || {
                    fs.put_lines(&format!("f{t}"), (0..100).map(|i| format!("{t}-{i}")))
                        .unwrap();
                });
            }
        });
        assert_eq!(fs.list().len(), 8);
        for t in 0..8 {
            assert_eq!(fs.line_count(&format!("f{t}")).unwrap(), 100);
        }
    }
}
