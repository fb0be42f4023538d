//! Write-ahead log: append-only redo log with crash recovery.
//!
//! The log lives beside the database file (`<db>.wal`) — or in an
//! anonymous byte vector for in-memory databases, so both modes run the
//! identical commit path. It holds *page-image redo and undo* records
//! framed by transaction control records:
//!
//! ```text
//! file:   [magic u32][version u32]  frame*
//! frame:  [payload length u32][crc32 of payload u32]  payload
//! payload: tag u8, then
//!   1 Begin     { txn u64 }
//!   2 Update    { txn u64, page id u32, page image (PAGE_SIZE bytes) }
//!   3 Commit    { txn u64 }
//!   4 Abort     { txn u64 }
//!   5 UndoImage { txn u64, page id u32, page image (PAGE_SIZE bytes) }
//! ```
//!
//! Every frame is assigned a monotonically increasing LSN; Update
//! frames carry the page image *already stamped* with that LSN in its
//! header, so the stamp survives both in the log and in the buffer
//! pool. The protocol (see [`crate::buffer::BufferPool`]):
//!
//! * **steal with undo logging** — the buffer pool may evict a page an
//!   open transaction dirtied, writing its *uncommitted* content to the
//!   database file, but only after an `UndoImage` frame carrying the
//!   page's pre-transaction image has been appended *and forced* (the
//!   write-ahead rule for undo). A transaction's write set is therefore
//!   bounded by disk, not by buffer-pool frames;
//! * **force the log, not the pages** — commit appends
//!   `Begin, Update…, Commit` (including a fresh image of every page it
//!   stole, so redo never depends on unsynced data-file writes) and
//!   syncs the log; data pages are written back lazily (eviction,
//!   flush, checkpoint);
//! * **undo/redo recovery** — [`Wal::recover`] first walks the log
//!   *backwards* applying the `UndoImage` frames of every loser
//!   transaction (no Commit frame, or an explicit Abort), rolling
//!   stolen uncommitted writes out of the database file, then replays
//!   the `Update` images of every *committed* transaction forward in
//!   LSN order. Undo-before-redo makes the two phases compose: an undo
//!   image captured at steal time always embeds every earlier committed
//!   write of its page, and any *later* committed rewrite replays over
//!   the undo in the forward pass. The torn tail a crash mid-append
//!   leaves behind is detected (short or checksum-mismatched frame)
//!   and discarded;
//! * **in-flight abort** — [`Wal::undo_image_at`] seek-reads single
//!   undo frames by the byte offsets the buffer pool recorded at steal
//!   time, so a live abort restores stolen pages (whose before-images
//!   are no longer in memory) at a cost proportional to its stolen
//!   set, not to the log;
//! * **checkpoint** — after all dirty pages are written back and
//!   synced, [`Wal::reset`] truncates the log to its header. The pool
//!   refuses checkpoints while any transaction is open, so undo images
//!   a live abort may still need are never truncated away.
//!
//! Full page images are idempotent, so replaying a log whose pages were
//! already partially flushed is safe.

use crate::metrics::{add, bump, StorageMetrics};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pager::{Fault, Pager};
use crate::{StorageError, StorageResult};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

const WAL_MAGIC: u32 = 0x4C57_5152; // "RQWL" little-endian
const WAL_VERSION: u32 = 1;
const FILE_HEADER_LEN: u64 = 8;
const FRAME_HEADER_LEN: usize = 8;
/// Largest legal payload: an Update or UndoImage frame. Anything
/// claiming more is a torn or corrupt length field.
const MAX_PAYLOAD_LEN: usize = 1 + 8 + 4 + PAGE_SIZE;

const TAG_BEGIN: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_UNDO: u8 = 5;

/// Cumulative logging counters, folded into
/// [`crate::buffer::PoolStats`] so `rqs::QueryMetrics` can report the
/// cost of durability next to page I/O.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Frames appended (Begin/Update/Commit/Abort).
    pub appends: u64,
    /// Bytes appended, frame headers included.
    pub bytes: u64,
}

/// One decoded log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    Begin {
        txn: u64,
    },
    Update {
        txn: u64,
        page: PageId,
        image: Box<[u8; PAGE_SIZE]>,
    },
    Commit {
        txn: u64,
    },
    Abort {
        txn: u64,
    },
    /// The pre-transaction image of a page the buffer pool is about to
    /// steal (evict while its transaction is still open). Forced before
    /// the uncommitted page content may reach the database file;
    /// recovery applies it — in reverse log order — for every
    /// transaction that never committed.
    UndoImage {
        txn: u64,
        page: PageId,
        image: Box<[u8; PAGE_SIZE]>,
    },
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Begin { txn } => {
                let mut out = Vec::with_capacity(9);
                out.push(TAG_BEGIN);
                out.extend_from_slice(&txn.to_le_bytes());
                out
            }
            WalRecord::Update { txn, page, image } => {
                let mut out = Vec::with_capacity(13 + PAGE_SIZE);
                out.push(TAG_UPDATE);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&image[..]);
                out
            }
            WalRecord::Commit { txn } => {
                let mut out = Vec::with_capacity(9);
                out.push(TAG_COMMIT);
                out.extend_from_slice(&txn.to_le_bytes());
                out
            }
            WalRecord::Abort { txn } => {
                let mut out = Vec::with_capacity(9);
                out.push(TAG_ABORT);
                out.extend_from_slice(&txn.to_le_bytes());
                out
            }
            WalRecord::UndoImage { txn, page, image } => {
                let mut out = Vec::with_capacity(13 + PAGE_SIZE);
                out.push(TAG_UNDO);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&image[..]);
                out
            }
        }
    }

    fn decode(payload: &[u8]) -> Option<WalRecord> {
        let tag = *payload.first()?;
        let txn_bytes = payload.get(1..9)?;
        let txn = u64::from_le_bytes(txn_bytes.try_into().expect("8 bytes"));
        match tag {
            TAG_BEGIN if payload.len() == 9 => Some(WalRecord::Begin { txn }),
            TAG_COMMIT if payload.len() == 9 => Some(WalRecord::Commit { txn }),
            TAG_ABORT if payload.len() == 9 => Some(WalRecord::Abort { txn }),
            TAG_UPDATE | TAG_UNDO if payload.len() == 13 + PAGE_SIZE => {
                let page = u32::from_le_bytes(payload[9..13].try_into().expect("4 bytes"));
                let mut image = Box::new([0u8; PAGE_SIZE]);
                image.copy_from_slice(&payload[13..]);
                if tag == TAG_UPDATE {
                    Some(WalRecord::Update { txn, page, image })
                } else {
                    Some(WalRecord::UndoImage { txn, page, image })
                }
            }
            _ => None,
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected) of every byte value, built at compile
/// time by the bitwise definition.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected), a table lookup per byte. Every
/// commit checksums a full 4 KiB image of each page it touched, so a
/// bit-at-a-time loop made the checksum most of an autocommit insert's
/// cost — and that cost grows with every index the row maintains.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

enum WalBacking {
    Mem(Vec<u8>),
    File(File),
}

/// What recovery found and did; surfaced for diagnostics and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Well-formed frames scanned before the end (or torn tail) of the log.
    pub frames_scanned: u64,
    /// Committed transactions whose page images were replayed.
    pub txns_replayed: u64,
    /// Transactions discarded (no Commit frame, or explicit Abort).
    pub txns_discarded: u64,
    /// Page images written back into the database file.
    pub pages_replayed: u64,
    /// Stolen pages of loser transactions restored from undo images.
    pub pages_undone: u64,
    /// Whether a torn tail (short/corrupt frame) was cut off.
    pub torn_tail: bool,
}

/// A frame-boundary position in the log, taken at transaction begin so
/// a failed commit can be rewound out of the log entirely (see
/// [`Wal::discard_after`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalMark {
    live_bytes: u64,
    next_lsn: u64,
}

/// The write-ahead log.
pub struct Wal {
    backing: WalBacking,
    fault: Option<Fault>,
    /// LSN the next appended frame will get (LSNs start at 1).
    next_lsn: u64,
    /// Every frame with `lsn <= durable_lsn` is on stable storage.
    durable_lsn: u64,
    /// Next transaction id to hand out.
    next_txn: u64,
    /// Frame bytes currently in the log (drops to 0 at checkpoint,
    /// unlike the cumulative `stats`).
    live_bytes: u64,
    /// Set when [`Wal::discard_after`] could not physically truncate
    /// the backing (I/O error): garbage bytes sit past `live_bytes`,
    /// and appends are refused until a retried truncation succeeds.
    pending_truncate: bool,
    stats: WalStats,
    /// The pool's observability registry ([`crate::metrics`]), attached
    /// by [`crate::buffer::BufferPool`]; `None` for standalone logs
    /// (recovery runs before the pool exists, unit tests).
    metrics: Option<Arc<StorageMetrics>>,
}

impl Wal {
    /// An anonymous in-memory log (no crash durability, same code path).
    pub fn in_memory() -> Wal {
        Wal {
            backing: WalBacking::Mem(header_bytes()),
            fault: None,
            next_lsn: 1,
            durable_lsn: 0,
            next_txn: 1,
            live_bytes: 0,
            pending_truncate: false,
            stats: WalStats::default(),
            metrics: None,
        }
    }

    /// Opens (creating if missing) the log file at `path`. An existing
    /// log is validated but not replayed — call [`Wal::recover`] with
    /// the pager before building a buffer pool on top.
    pub fn open(path: &Path, fault: Option<Fault>) -> StorageResult<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len < FILE_HEADER_LEN {
            // Fresh (or torn before the header finished): write a header.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header_bytes())?;
            file.sync_all()?;
        } else {
            let mut header = [0u8; FILE_HEADER_LEN as usize];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut header)?;
            let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
            let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            if magic != WAL_MAGIC || version != WAL_VERSION {
                return Err(StorageError::Corrupt(format!(
                    "not a WAL file (magic {magic:#x}, version {version})"
                )));
            }
        }
        let live_bytes = file.seek(SeekFrom::End(0))?.saturating_sub(FILE_HEADER_LEN);
        Ok(Wal {
            backing: WalBacking::File(file),
            fault,
            next_lsn: 1,
            durable_lsn: 0,
            next_txn: 1,
            live_bytes,
            pending_truncate: false,
            stats: WalStats::default(),
            metrics: None,
        })
    }

    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Attaches the observability registry; counters below feed it in
    /// addition to the local [`WalStats`].
    pub fn set_metrics(&mut self, metrics: Arc<StorageMetrics>) {
        self.metrics = Some(metrics);
    }

    /// LSN the next appended frame will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Highest LSN known to be on stable storage.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Bytes currently in the log (frames only, header excluded); the
    /// engine checkpoints when this grows past a threshold.
    pub fn len_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Hands out a fresh transaction id.
    pub fn begin_txn_id(&mut self) -> u64 {
        let id = self.next_txn;
        self.next_txn += 1;
        id
    }

    /// The current end-of-log frame boundary. Taken at transaction
    /// begin; a failed commit passes it back to [`Wal::discard_after`].
    pub fn mark(&self) -> WalMark {
        WalMark {
            live_bytes: self.live_bytes,
            next_lsn: self.next_lsn,
        }
    }

    /// Removes every frame appended after `mark` — the Begin/Update/
    /// Commit frames of a transaction whose commit failed partway
    /// (including a partially written final frame, and including a
    /// fully written Commit frame whose sync failed: leaving it behind
    /// would let recovery resurrect a statement that was reported as
    /// failed). The logical rollback is unconditional; if the physical
    /// truncation hits an I/O error it is retried before the next
    /// append, and appends are refused until it succeeds (new commits
    /// after undiscarded garbage would be unreachable to recovery).
    pub fn discard_after(&mut self, mark: WalMark) {
        self.live_bytes = mark.live_bytes;
        self.next_lsn = mark.next_lsn;
        self.durable_lsn = self.durable_lsn.min(mark.next_lsn.saturating_sub(1));
        self.pending_truncate = true;
        self.try_truncate();
    }

    /// Retries the physical truncation that [`Wal::discard_after`]
    /// requested. Deliberately does not consume the fault budget: this
    /// is repair, not new durable state — the fault switch models
    /// failures of appends, syncs and page writes.
    fn try_truncate(&mut self) {
        if !self.pending_truncate {
            return;
        }
        let end = FILE_HEADER_LEN + self.live_bytes;
        let ok = match &mut self.backing {
            WalBacking::Mem(bytes) => {
                bytes.truncate(end as usize);
                true
            }
            WalBacking::File(file) => (|| -> std::io::Result<()> {
                // set_len may only ever shrink here: zero-extending
                // would bury real frames under padding that the next
                // recovery misreads as a torn tail.
                let physical = file.metadata()?.len();
                if physical > end {
                    file.set_len(end)?;
                }
                file.seek(SeekFrom::Start(end.min(physical)))?;
                file.sync_data()
            })()
            .is_ok(),
        };
        if ok {
            self.pending_truncate = false;
        }
    }

    /// Appends one record (unsynced) and returns its LSN.
    pub fn append(&mut self, record: &WalRecord) -> StorageResult<u64> {
        self.try_truncate();
        if self.pending_truncate {
            return Err(StorageError::Io(
                "write-ahead log still holds frames of a failed transaction".into(),
            ));
        }
        if let Some(fault) = &self.fault {
            fault.tap()?;
        }
        let payload = record.encode();
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let write_err = match &mut self.backing {
            WalBacking::Mem(bytes) => {
                bytes.extend_from_slice(&frame);
                None
            }
            WalBacking::File(file) => file.write_all(&frame).err(),
        };
        if let Some(e) = write_err {
            // A partial frame may be on disk; schedule its removal (and
            // a cursor reset) before any future append can land after it.
            self.pending_truncate = true;
            self.try_truncate();
            return Err(e.into());
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.stats.appends += 1;
        self.stats.bytes += frame.len() as u64;
        self.live_bytes += frame.len() as u64;
        if let Some(metrics) = &self.metrics {
            bump(&metrics.wal_appends);
            add(&metrics.wal_bytes, frame.len() as u64);
            if matches!(record, WalRecord::UndoImage { .. }) {
                bump(&metrics.wal_undo_images);
            }
        }
        Ok(lsn)
    }

    /// Forces every appended frame to stable storage; afterwards
    /// `durable_lsn` covers everything appended so far.
    pub fn sync(&mut self) -> StorageResult<()> {
        if let Some(fault) = &self.fault {
            fault.tap()?;
        }
        let start = std::time::Instant::now();
        if let WalBacking::File(file) = &mut self.backing {
            file.sync_data()?;
        }
        self.durable_lsn = self.next_lsn - 1;
        if let Some(metrics) = &self.metrics {
            bump(&metrics.wal_fsyncs);
            // Recorded exactly once per wal_fsyncs bump (a Mem backing
            // records ~0 ns but still counts) so histogram count and
            // counter stay equal.
            metrics
                .histograms
                .wal_fsync
                .record(start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Truncates the log to its header (checkpoint): callers must have
    /// written and synced every dirty page first. Must not run while a
    /// transaction holds a [`WalMark`] — the buffer pool enforces this.
    ///
    /// The logical state is updated first and the physical truncation
    /// goes through the same retry machinery as [`Wal::discard_after`]:
    /// if it fails partway, `live_bytes` and the file can never
    /// disagree in the dangerous direction — appends are simply refused
    /// until a retried truncation lands.
    pub fn reset(&mut self) -> StorageResult<()> {
        if let Some(fault) = &self.fault {
            fault.tap()?;
        }
        self.live_bytes = 0;
        self.durable_lsn = self.next_lsn - 1;
        self.pending_truncate = true;
        self.try_truncate();
        if self.pending_truncate {
            return Err(StorageError::Io(
                "failed to truncate the write-ahead log at checkpoint".into(),
            ));
        }
        if let Some(metrics) = &self.metrics {
            bump(&metrics.wal_checkpoints);
        }
        Ok(())
    }

    /// Reads every well-formed frame currently in the log, stopping at
    /// the first torn or corrupt one. Returns the records plus whether
    /// a tail was cut off.
    fn read_frames(&mut self) -> StorageResult<(Vec<WalRecord>, bool)> {
        let bytes = match &mut self.backing {
            WalBacking::Mem(bytes) => bytes.clone(),
            WalBacking::File(file) => {
                let mut buf = Vec::new();
                file.seek(SeekFrom::Start(0))?;
                file.read_to_end(&mut buf)?;
                file.seek(SeekFrom::End(0))?;
                buf
            }
        };
        let mut records = Vec::new();
        let mut pos = FILE_HEADER_LEN as usize;
        let mut torn = false;
        while pos < bytes.len() {
            let Some(header) = bytes.get(pos..pos + FRAME_HEADER_LEN) else {
                torn = true;
                break;
            };
            let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            if len > MAX_PAYLOAD_LEN {
                torn = true;
                break;
            }
            let Some(payload) = bytes.get(pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len)
            else {
                torn = true;
                break;
            };
            if crc32(payload) != crc {
                torn = true;
                break;
            }
            let Some(record) = WalRecord::decode(payload) else {
                torn = true;
                break;
            };
            records.push(record);
            pos += FRAME_HEADER_LEN + len;
        }
        Ok((records, torn))
    }

    /// Reads `buf.len()` bytes at frame-space offset `pos` (0 = first
    /// byte after the file header).
    fn read_exact_at(&mut self, pos: u64, buf: &mut [u8]) -> StorageResult<()> {
        match &mut self.backing {
            WalBacking::Mem(bytes) => {
                let start = (FILE_HEADER_LEN + pos) as usize;
                let src = bytes
                    .get(start..start + buf.len())
                    .ok_or_else(|| StorageError::Corrupt("log offset out of bounds".into()))?;
                buf.copy_from_slice(src);
            }
            WalBacking::File(file) => {
                file.seek(SeekFrom::Start(FILE_HEADER_LEN + pos))?;
                file.read_exact(buf)?;
            }
        }
        Ok(())
    }

    /// Reads the single frame starting at byte offset `offset` (the
    /// value [`Wal::len_bytes`] returned just before its append) and
    /// returns its undo image. The caller vouches for the offset — the
    /// buffer pool records one per forced `UndoImage` at steal time —
    /// and the frame's CRC still guards a mismatch, surfacing as
    /// [`StorageError::Corrupt`]. Unlike a full log scan, the cost is
    /// one frame, so an in-flight abort is proportional to its stolen
    /// set and not to the log size.
    pub fn undo_image_at(&mut self, offset: u64) -> StorageResult<(PageId, Box<[u8; PAGE_SIZE]>)> {
        if offset >= self.live_bytes {
            return Err(StorageError::Corrupt(format!(
                "undo frame offset {offset} past the log end ({})",
                self.live_bytes
            )));
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        self.read_exact_at(offset, &mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD_LEN {
            return Err(StorageError::Corrupt(format!(
                "undo frame at {offset} claims {len} payload bytes"
            )));
        }
        let mut payload = vec![0u8; len];
        self.read_exact_at(offset + FRAME_HEADER_LEN as u64, &mut payload)?;
        // Reposition file-backed logs for the next append.
        if let WalBacking::File(file) = &mut self.backing {
            file.seek(SeekFrom::Start(FILE_HEADER_LEN + self.live_bytes))?;
        }
        if crc32(&payload) != crc {
            return Err(StorageError::Corrupt(format!(
                "undo frame at {offset} fails its checksum"
            )));
        }
        match WalRecord::decode(&payload) {
            Some(WalRecord::UndoImage { page, image, .. }) => Ok((page, image)),
            _ => Err(StorageError::Corrupt(format!(
                "frame at {offset} is not an undo image"
            ))),
        }
    }

    /// Crash recovery, in two phases: first walk the log *backwards*
    /// restoring the undo images of every loser transaction (stolen
    /// uncommitted writes roll out of the database file), then replay
    /// the page images of every committed transaction forward in log
    /// order. Discards any torn tail; syncs the pager and truncates the
    /// log (recovery ends in a checkpoint). Also restores the LSN and
    /// transaction-id high-water marks so new log records stay
    /// monotonic.
    pub fn recover(&mut self, pager: &mut Pager) -> StorageResult<RecoveryReport> {
        let (records, torn) = self.read_frames()?;
        let mut report = RecoveryReport {
            frames_scanned: records.len() as u64,
            torn_tail: torn,
            ..RecoveryReport::default()
        };
        // LSNs are frame positions; resume numbering past what was read.
        self.next_lsn = records.len() as u64 + 1;
        let mut committed: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut aborted: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut max_txn = 0u64;
        for record in &records {
            let txn = match record {
                WalRecord::Begin { txn }
                | WalRecord::Update { txn, .. }
                | WalRecord::UndoImage { txn, .. } => {
                    seen.insert(*txn);
                    *txn
                }
                WalRecord::Abort { txn } => {
                    // Defensive: an Abort record outranks even a Commit
                    // frame. The current writer neutralizes a failed
                    // commit by physically rewinding its frames
                    // ([`Wal::discard_after`]) rather than logging an
                    // Abort, so this branch only fires on logs written
                    // by a future (or external) producer — but the rule
                    // "an aborted transaction never replays" must hold
                    // for any log this format admits.
                    seen.insert(*txn);
                    aborted.insert(*txn);
                    *txn
                }
                WalRecord::Commit { txn } => {
                    committed.insert(*txn);
                    *txn
                }
            };
            max_txn = max_txn.max(txn);
        }
        self.next_txn = max_txn + 1;
        let replayable: std::collections::HashSet<u64> =
            committed.difference(&aborted).copied().collect();
        report.txns_replayed = replayable.len() as u64;
        report.txns_discarded = seen
            .union(&committed)
            .filter(|t| !replayable.contains(t))
            .count() as u64;
        if records.is_empty() && !torn {
            return Ok(report); // pristine log: nothing to replay or cut
        }
        let mut scratch = Page::zeroed();
        // Phase 1 — undo, newest first: roll every loser's stolen pages
        // back to their pre-transaction images. Running undo *before*
        // redo is what makes a post-abort committed rewrite of the same
        // page win (its Update frame replays later, in phase 2), while a
        // steal-then-crash with no such rewrite ends on the undo image.
        for record in records.iter().rev() {
            if let WalRecord::UndoImage { txn, page, image } = record {
                if replayable.contains(txn) {
                    continue; // the thief committed: its writes stand
                }
                pager.ensure_page_count(page + 1)?;
                scratch.as_bytes_mut().copy_from_slice(&image[..]);
                pager.write(*page, &scratch)?;
                report.pages_undone += 1;
            }
        }
        // Phase 2 — redo committed transactions in LSN order.
        for record in &records {
            if let WalRecord::Update { txn, page, image } = record {
                if !replayable.contains(txn) {
                    continue;
                }
                pager.ensure_page_count(page + 1)?;
                scratch.as_bytes_mut().copy_from_slice(&image[..]);
                pager.write(*page, &scratch)?;
                report.pages_replayed += 1;
            }
        }
        pager.sync()?;
        // Even a torn-tail-only log must be reset: leaving the garbage
        // in place would strand every frame appended after it behind an
        // unreadable prefix on the next recovery.
        self.reset()?;
        Ok(report)
    }
}

fn header_bytes() -> Vec<u8> {
    let mut out = Vec::with_capacity(FILE_HEADER_LEN as usize);
    out.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    out.extend_from_slice(&WAL_VERSION.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    fn update(txn: u64, page: PageId, fill: u8) -> WalRecord {
        let mut p = Page::zeroed();
        p.init(PageKind::Heap);
        p.push_record(&[fill; 16]).unwrap();
        WalRecord::Update {
            txn,
            page,
            image: Box::new(*p.as_bytes()),
        }
    }

    fn undo(txn: u64, page: PageId, fill: u8) -> WalRecord {
        let WalRecord::Update { image, .. } = update(txn, page, fill) else {
            unreachable!()
        };
        WalRecord::UndoImage { txn, page, image }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rqs-wal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log.wal")
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_codec_round_trips() {
        for record in [
            WalRecord::Begin { txn: 7 },
            update(7, 3, 0xab),
            undo(7, 9, 0xcd),
            WalRecord::Commit { txn: 7 },
            WalRecord::Abort { txn: u64::MAX },
        ] {
            assert_eq!(WalRecord::decode(&record.encode()).unwrap(), record);
        }
        assert_eq!(WalRecord::decode(&[]), None);
        assert_eq!(WalRecord::decode(&[TAG_UPDATE, 1, 2]), None);
        assert_eq!(WalRecord::decode(&[99, 0, 0, 0, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn replay_applies_only_committed_transactions() {
        let path = temp_path("replay");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, None).unwrap();
        // txn 1 commits; txn 2 has no commit frame.
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&update(1, 0, 0x11)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.append(&WalRecord::Begin { txn: 2 }).unwrap();
        wal.append(&update(2, 1, 0x22)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let mut wal = Wal::open(&path, None).unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert_eq!(report.frames_scanned, 5);
        assert_eq!(report.txns_replayed, 1);
        assert_eq!(report.txns_discarded, 1);
        assert_eq!(report.pages_replayed, 1);
        assert!(!report.torn_tail);
        // Page 0 replayed; page 1 only ever held txn 2's image, so it
        // exists (ensure_page_count is not run for discarded txns) only
        // if some committed image forced allocation — here it does not.
        assert_eq!(pager.page_count(), 1);
        let mut out = Page::zeroed();
        pager.read(0, &mut out).unwrap();
        assert_eq!(out.record(0), [0x11; 16]);
        // Recovery checkpointed: log is empty, ids resume past the old ones.
        assert_eq!(wal.len_bytes(), 0);
        assert!(wal.begin_txn_id() > 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, None).unwrap();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&update(1, 0, 0x33)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.append(&WalRecord::Begin { txn: 2 }).unwrap();
        wal.append(&update(2, 1, 0x44)).unwrap();
        wal.append(&WalRecord::Commit { txn: 2 }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Tear the file mid-way through txn 2's update frame (cutting
        // its commit frame and the image's tail): only txn 1 survives.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 2017).unwrap();
        drop(file);

        let mut wal = Wal::open(&path, None).unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.txns_replayed, 1);
        assert_eq!(report.pages_replayed, 1);
        let mut out = Page::zeroed();
        pager.read(0, &mut out).unwrap();
        assert_eq!(out.record(0), [0x33; 16]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_frame_stops_the_scan() {
        let path = temp_path("crc");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, None).unwrap();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&update(1, 0, 0x55)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Flip a byte inside the update frame's payload: its CRC fails,
        // the scan stops there, and txn 1 loses its commit — recovery
        // yields an empty database rather than corrupt pages.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let mut wal = Wal::open(&path, None).unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.txns_replayed, 0);
        assert_eq!(report.pages_replayed, 0);
        assert_eq!(pager.page_count(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aborted_transactions_are_not_replayed() {
        let mut wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&update(1, 0, 0x66)).unwrap();
        wal.append(&WalRecord::Abort { txn: 1 }).unwrap();
        wal.sync().unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert_eq!(report.txns_discarded, 1);
        assert_eq!(report.pages_replayed, 0);
    }

    #[test]
    fn abort_record_outranks_a_commit_frame() {
        // A commit whose sync failed can leave a complete Commit frame
        // behind; the Abort logged afterwards must win, or a statement
        // the caller saw fail would resurrect on recovery.
        let mut wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&update(1, 0, 0x77)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.append(&WalRecord::Abort { txn: 1 }).unwrap();
        wal.sync().unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert_eq!(report.txns_replayed, 0);
        assert_eq!(report.txns_discarded, 1);
        assert_eq!(report.pages_replayed, 0);
        assert_eq!(pager.page_count(), 0);
    }

    #[test]
    fn discard_after_rewinds_a_failed_commit_out_of_the_log() {
        let path = temp_path("discard");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, None).unwrap();
        // txn 1 commits cleanly.
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&update(1, 0, 0x11)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.sync().unwrap();
        let after_txn1 = wal.len_bytes();
        // txn 2 writes everything including its Commit frame, but the
        // caller treats the commit as failed (e.g. the sync errored) and
        // discards it.
        let mark = wal.mark();
        wal.append(&WalRecord::Begin { txn: 2 }).unwrap();
        wal.append(&update(2, 0, 0x22)).unwrap();
        wal.append(&WalRecord::Commit { txn: 2 }).unwrap();
        wal.discard_after(mark);
        assert_eq!(wal.len_bytes(), after_txn1, "txn 2 physically removed");
        // txn 3 commits after the rewind; LSNs/offsets stay consistent.
        wal.append(&WalRecord::Begin { txn: 3 }).unwrap();
        wal.append(&update(3, 1, 0x33)).unwrap();
        wal.append(&WalRecord::Commit { txn: 3 }).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let mut wal = Wal::open(&path, None).unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert!(!report.torn_tail, "rewind must land on a frame boundary");
        assert_eq!(report.txns_replayed, 2, "txns 1 and 3");
        let mut out = Page::zeroed();
        pager.read(0, &mut out).unwrap();
        assert_eq!(out.record(0), [0x11; 16], "txn 2's image must not land");
        pager.read(1, &mut out).unwrap();
        assert_eq!(out.record(0), [0x33; 16]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_only_log_is_truncated_so_later_commits_survive() {
        // Regression: a log holding nothing but garbage (power cut mid-
        // append of the very first frame) used to be left in place, so
        // every commit appended afterwards sat behind an unreadable
        // prefix and was silently discarded by the *next* recovery.
        let path = temp_path("tornonly");
        let _ = std::fs::remove_file(&path);
        drop(Wal::open(&path, None).unwrap()); // writes the header
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x5a; 5]); // torn partial frame
        std::fs::write(&path, &bytes).unwrap();

        let mut wal = Wal::open(&path, None).unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert!(report.torn_tail);
        // The garbage is gone; a new commit lands on a clean boundary.
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&update(1, 0, 0x44)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let mut wal = Wal::open(&path, None).unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert!(!report.torn_tail, "garbage must have been cut");
        assert_eq!(report.txns_replayed, 1, "the later commit must survive");
        let mut out = Page::zeroed();
        pager.read(0, &mut out).unwrap();
        assert_eq!(out.record(0), [0x44; 16]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn undo_images_of_losers_roll_stolen_pages_back() {
        // Loser txn 1 stole page 0 (undo image W, uncommitted content Y
        // already in the pager); committed txn 2 owns page 1. Recovery
        // must restore page 0 from the undo image and replay page 1.
        let mut wal = Wal::in_memory();
        let mut pager = Pager::in_memory();
        // Pre-steal disk state: page 0 holds Y (the stolen write).
        pager.ensure_page_count(1).unwrap();
        let mut stolen = Page::zeroed();
        stolen.init(PageKind::Heap);
        stolen.push_record(&[0x99u8; 16]).unwrap();
        pager.write(0, &stolen).unwrap();

        wal.append(&undo(1, 0, 0x11)).unwrap();
        wal.append(&WalRecord::Begin { txn: 2 }).unwrap();
        wal.append(&update(2, 1, 0x22)).unwrap();
        wal.append(&WalRecord::Commit { txn: 2 }).unwrap();
        wal.sync().unwrap();

        let report = wal.recover(&mut pager).unwrap();
        assert_eq!(report.pages_undone, 1);
        assert_eq!(report.txns_replayed, 1);
        let mut out = Page::zeroed();
        pager.read(0, &mut out).unwrap();
        assert_eq!(out.record(0), [0x11; 16], "stolen write rolled back");
        pager.read(1, &mut out).unwrap();
        assert_eq!(out.record(0), [0x22; 16], "committed write replayed");
    }

    #[test]
    fn committed_thief_keeps_its_writes() {
        // Txn 1 stole page 0 but then committed (logging a fresh image
        // of the stolen page): the undo image must NOT be applied.
        let mut wal = Wal::in_memory();
        wal.append(&undo(1, 0, 0x11)).unwrap();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&update(1, 0, 0x77)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.sync().unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert_eq!(report.pages_undone, 0);
        let mut out = Page::zeroed();
        pager.read(0, &mut out).unwrap();
        assert_eq!(out.record(0), [0x77; 16]);
    }

    #[test]
    fn layered_undo_images_apply_in_reverse_to_the_oldest() {
        // A page stolen twice by the same loser logs two undo images:
        // first the true pre-transaction state, then the mid-transaction
        // state of the second steal. Reverse application must end on the
        // oldest.
        let mut wal = Wal::in_memory();
        wal.append(&undo(1, 0, 0xaa)).unwrap(); // pre-txn state
        wal.append(&undo(1, 0, 0xbb)).unwrap(); // mid-txn state
        wal.sync().unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert_eq!(report.pages_undone, 2);
        let mut out = Page::zeroed();
        pager.read(0, &mut out).unwrap();
        assert_eq!(out.record(0), [0xaa; 16], "must end on the oldest image");
    }

    #[test]
    fn committed_rewrite_after_an_aborted_steal_wins() {
        // Loser txn 1 stole page 0 (was aborted in flight and restored
        // in memory); txn 2 then rewrote the page and committed. Redo
        // runs after undo, so txn 2's image must be the final state.
        let mut wal = Wal::in_memory();
        wal.append(&undo(1, 0, 0x11)).unwrap();
        wal.append(&WalRecord::Begin { txn: 2 }).unwrap();
        wal.append(&update(2, 0, 0x55)).unwrap();
        wal.append(&WalRecord::Commit { txn: 2 }).unwrap();
        wal.sync().unwrap();
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert_eq!((report.pages_undone, report.pages_replayed), (1, 1));
        let mut out = Page::zeroed();
        pager.read(0, &mut out).unwrap();
        assert_eq!(out.record(0), [0x55; 16]);
    }

    #[test]
    fn undo_image_at_seek_reads_one_frame_amid_appends() {
        // File-backed: the seek-read must not derail subsequent appends
        // (the append cursor is repositioned to the log end).
        let path = temp_path("undo-at");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, None).unwrap();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        let off_a = wal.len_bytes();
        wal.append(&undo(1, 5, 0x5a)).unwrap();
        let off_b = wal.len_bytes();
        wal.append(&undo(1, 6, 0x6b)).unwrap();
        wal.sync().unwrap();
        let (page, image) = wal.undo_image_at(off_a).unwrap();
        assert_eq!(page, 5);
        let mut p = Page::zeroed();
        p.as_bytes_mut().copy_from_slice(&image[..]);
        assert_eq!(p.record(0), [0x5a; 16]);
        // Appends after the seek-read land on clean frame boundaries.
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.sync().unwrap();
        let (page, _) = wal.undo_image_at(off_b).unwrap();
        assert_eq!(page, 6);
        // A non-undo frame (offset 0 is the Begin) and an out-of-range
        // offset both error instead of returning garbage.
        assert!(wal.undo_image_at(0).is_err());
        assert!(wal.undo_image_at(1 << 40).is_err());
        let mut pager = Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert!(
            !report.torn_tail,
            "appends after seek-reads stay well-formed"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_advances_durable_lsn_and_reset_truncates() {
        let mut wal = Wal::in_memory();
        assert_eq!(wal.durable_lsn(), 0);
        let lsn = wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        assert_eq!(lsn, 1);
        assert_eq!(wal.durable_lsn(), 0);
        wal.sync().unwrap();
        assert_eq!(wal.durable_lsn(), 1);
        assert!(wal.len_bytes() > 0);
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        assert_eq!(wal.durable_lsn(), 1);
        assert_eq!(wal.next_lsn(), 2);
        let stats = wal.stats();
        assert_eq!(stats.appends, 1);
    }

    #[test]
    fn fault_injection_fails_appends() {
        let path = temp_path("fault");
        let _ = std::fs::remove_file(&path);
        let fault = Fault::new();
        let mut wal = Wal::open(&path, Some(fault.clone())).unwrap();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        fault.fail_after_writes(0);
        assert!(matches!(
            wal.append(&WalRecord::Commit { txn: 1 }),
            Err(StorageError::Io(_))
        ));
        assert!(matches!(wal.sync(), Err(StorageError::Io(_))));
        fault.heal();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.sync().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
