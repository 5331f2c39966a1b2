//! Crash-safe persistence for the route server: a write-ahead journal
//! plus compacting snapshots.
//!
//! The paper's route server is the single coordination point of the
//! whole lab cloud, yet a restart forgets every reservation, deployment
//! and matrix entry. This module gives it a durable spine without any
//! external dependency: every state mutation is appended to a journal as
//! a length-prefixed, checksummed JSON record, and the durable state is
//! periodically compacted into a snapshot — the records that rebuild it,
//! framed the same way. Recovery replays the snapshot's records, then
//! the tail's; a torn final record (the crash landed mid `write`) is
//! detected by its checksum and truncated — never a panic.
//!
//! ## Record framing
//!
//! ```text
//! [ version : u8 ][ len : u32 BE ][ fnv1a64(payload) : u64 BE ][ payload : len bytes ]
//! ```
//!
//! The version byte leads every record so a future format bump fails
//! loudly at the *first* record instead of misparsing silently; a wrong
//! version mid-file is indistinguishable from tail corruption and is
//! truncated like one.
//!
//! Version 2 is the first format whose snapshot is a record sequence;
//! a version-1 store is refused with [`JournalError::Version`].
//!
//! Two backends implement [`Durability`]: [`MemJournal`] (an
//! `Arc`-shared byte store — virtual-clock tests crash and recover a
//! server without touching disk) and [`FileJournal`] (a `--state-dir`
//! with `journal.rnl` + `snapshot.rnl`; snapshots are written to a temp
//! file and atomically renamed, and the journal is truncated only after
//! the snapshot is safely in place).

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

// FNV-1a is small, dependency-free, and plenty to catch a torn write.
use rnl_obs::fnv1a64;

/// Journal format version; bumping it invalidates existing stores
/// loudly (see [`JournalError::Version`]).
pub const JOURNAL_VERSION: u8 = 2;

/// Bytes of framing before each record's payload.
pub const RECORD_HEADER_LEN: usize = 1 + 4 + 8;

/// Sanity cap on a single record's payload; anything larger is treated
/// as corruption rather than an allocation request.
pub const MAX_RECORD_LEN: usize = 64 << 20;

/// Deterministic crash-injection points for kill-and-recover tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die before the record reaches the journal: the mutation is
    /// applied in memory but absent after recovery.
    BeforeAppend,
    /// Die after the record is fully written: the mutation survives
    /// recovery.
    AfterAppend,
    /// Die halfway through writing a snapshot: the old snapshot and the
    /// untruncated journal must still recover the full state.
    MidSnapshot,
}

/// Durability-layer failure.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying storage failed.
    Io(String),
    /// A simulated crash fired (test injection); the process is
    /// considered dead from this point on.
    Crash(CrashPoint),
    /// The store was written by an incompatible format version.
    Version { found: u8 },
    /// The snapshot failed its checksum. Unlike a torn journal tail
    /// (which a crash explains), the snapshot is written atomically, so
    /// this is disk corruption and recovery refuses to guess.
    CorruptSnapshot,
    /// A replayed record or snapshot did not decode into valid state.
    Decode(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(m) => write!(f, "journal I/O: {m}"),
            JournalError::Crash(p) => write!(f, "injected crash at {p:?}"),
            JournalError::Version { found } => write!(
                f,
                "journal format version {found} (this build reads {JOURNAL_VERSION})"
            ),
            JournalError::CorruptSnapshot => write!(f, "snapshot failed its checksum"),
            JournalError::Decode(m) => write!(f, "journal decode: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Everything a backend hands back at recovery time.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Record payloads in replay order: the latest snapshot's records,
    /// then the journal records appended after it.
    pub records: Vec<Vec<u8>>,
    /// How many leading `records` came from the snapshot.
    pub snapshot_records: usize,
    /// Torn trailing records detected by checksum and truncated.
    pub torn: u64,
}

/// A write-ahead journal + snapshot store the route server persists
/// through. Implementations must make [`Durability::write_snapshot`]
/// atomic: a crash mid-snapshot leaves the previous snapshot and the
/// untruncated journal intact.
pub trait Durability: Send {
    /// Append one record payload. Returns the framed size in bytes.
    fn append(&mut self, payload: &[u8]) -> Result<usize, JournalError>;

    /// Atomically replace the snapshot with `records` and truncate the
    /// journal (the snapshot now subsumes it).
    fn write_snapshot(&mut self, records: &[Vec<u8>]) -> Result<(), JournalError>;

    /// Read the store back: the snapshot's records, then the journal's.
    /// Torn trailing journal records are truncated (and counted), so a
    /// crashed store self-heals on first load.
    fn load(&mut self) -> Result<Recovered, JournalError>;

    /// Arm (or disarm with `None`) a crash-injection point. The next
    /// operation that reaches the armed point fails with
    /// [`JournalError::Crash`] and the point disarms.
    fn arm_crash(&mut self, point: Option<CrashPoint>);

    /// Make everything appended since the last flush durable (group
    /// commit). The default is a no-op: backends that sync on every
    /// append have nothing left to flush. The route server calls this
    /// once per poll, so under [`FsyncPolicy::GroupCommit`] the loss
    /// window is bounded by one poll interval.
    fn flush(&mut self) -> Result<(), JournalError> {
        Ok(())
    }
}

/// When a [`FileJournal`] pushes appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append (the default): a committed op is
    /// durable before the caller sees the result.
    #[default]
    EveryAppend,
    /// Batch appends and `fsync` once per [`Durability::flush`] — one
    /// sync per server poll instead of one per op. Crashing between
    /// flushes can lose at most the ops of the current poll interval.
    GroupCommit,
}

/// Frame one payload: version, length, checksum, payload.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.push(JOURNAL_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Frame a record sequence back to back: a snapshot's bytes.
fn frame_records(records: &[Vec<u8>]) -> Vec<u8> {
    records.iter().flat_map(|r| frame_record(r)).collect()
}

/// Decode a snapshot's bytes; a torn record anywhere in them is
/// [`JournalError::CorruptSnapshot`].
fn decode_snapshot(bytes: &[u8]) -> Result<Vec<Vec<u8>>, JournalError> {
    match decode_records(bytes)? {
        (records, 0, _) => Ok(records),
        _ => Err(JournalError::CorruptSnapshot),
    }
}

/// The snapshot's records followed by the journal tail's.
fn replay_order(mut snapshot: Vec<Vec<u8>>, tail: Vec<Vec<u8>>, torn: u64) -> Recovered {
    let snapshot_records = snapshot.len();
    snapshot.extend(tail);
    Recovered {
        records: snapshot,
        snapshot_records,
        torn,
    }
}

/// Walk a byte buffer of framed records. Returns the decoded payloads,
/// the number of torn trailing records dropped, and the byte length of
/// the valid prefix (callers truncate the store to it). A wrong version
/// byte on the *first* record is a format mismatch and errors; further
/// in, it is indistinguishable from a torn tail and is truncated.
pub fn decode_records(buf: &[u8]) -> Result<(Vec<Vec<u8>>, u64, usize), JournalError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let rest = &buf[pos..];
        if rest.len() < RECORD_HEADER_LEN {
            return Ok((records, 1, pos));
        }
        if rest[0] != JOURNAL_VERSION {
            if pos == 0 {
                return Err(JournalError::Version { found: rest[0] });
            }
            return Ok((records, 1, pos));
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&rest[1..5]);
        let len = u32::from_be_bytes(len_bytes) as usize;
        let mut sum_bytes = [0u8; 8];
        sum_bytes.copy_from_slice(&rest[5..13]);
        let want = u64::from_be_bytes(sum_bytes);
        if len > MAX_RECORD_LEN || rest.len() < RECORD_HEADER_LEN + len {
            return Ok((records, 1, pos));
        }
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        if fnv1a64(payload) != want {
            return Ok((records, 1, pos));
        }
        records.push(payload.to_vec());
        pos += RECORD_HEADER_LEN + len;
    }
    Ok((records, 0, pos))
}

/// The backing bytes of a [`MemJournal`] — shared between the journal
/// installed in a server and the test harness that will "restart" it.
#[derive(Debug, Default)]
pub struct MemStore {
    snapshot: Vec<u8>,
    log: Vec<u8>,
}

/// Handle to a shared in-memory store.
pub type SharedStore = Arc<Mutex<MemStore>>;

/// An in-memory [`Durability`] backend for virtual-clock tests: the
/// store outlives the server, so `crash_server`/`recover_server` replay
/// exactly what a process restart would read from disk.
pub struct MemJournal {
    store: SharedStore,
    crash: Option<CrashPoint>,
}

impl MemJournal {
    /// A fresh journal over a fresh store.
    pub fn new() -> MemJournal {
        MemJournal::attached(Arc::new(Mutex::new(MemStore::default())))
    }

    /// A journal over an existing store (the "restarted process" side).
    pub fn attached(store: SharedStore) -> MemJournal {
        MemJournal { store, crash: None }
    }

    /// The shared store, for keeping across a simulated crash.
    pub fn store(&self) -> SharedStore {
        Arc::clone(&self.store)
    }

    /// Test helper: chop `n` bytes off the journal tail, simulating a
    /// crash mid-`write` that tore the final record.
    pub fn chop_log_tail(&self, n: usize) {
        if let Ok(mut store) = self.store.lock() {
            let keep = store.log.len().saturating_sub(n);
            store.log.truncate(keep);
        }
    }

    /// Test helper: raw journal length in bytes.
    pub fn log_len(&self) -> usize {
        self.store.lock().map(|s| s.log.len()).unwrap_or(0)
    }

    fn take_crash(&mut self, at: CrashPoint) -> bool {
        if self.crash == Some(at) {
            self.crash = None;
            true
        } else {
            false
        }
    }
}

impl Default for MemJournal {
    fn default() -> MemJournal {
        MemJournal::new()
    }
}

fn poisoned() -> JournalError {
    JournalError::Io("journal store lock poisoned".to_string())
}

impl Durability for MemJournal {
    fn append(&mut self, payload: &[u8]) -> Result<usize, JournalError> {
        if self.take_crash(CrashPoint::BeforeAppend) {
            return Err(JournalError::Crash(CrashPoint::BeforeAppend));
        }
        let framed = frame_record(payload);
        let n = framed.len();
        self.store
            .lock()
            .map_err(|_| poisoned())?
            .log
            .extend(framed);
        if self.take_crash(CrashPoint::AfterAppend) {
            return Err(JournalError::Crash(CrashPoint::AfterAppend));
        }
        Ok(n)
    }

    fn write_snapshot(&mut self, records: &[Vec<u8>]) -> Result<(), JournalError> {
        if self.take_crash(CrashPoint::MidSnapshot) {
            // Half the framed bytes went to the scratch area and are
            // lost with the crash; the committed snapshot and the
            // journal are untouched — the atomicity contract.
            return Err(JournalError::Crash(CrashPoint::MidSnapshot));
        }
        let framed = frame_records(records);
        let mut store = self.store.lock().map_err(|_| poisoned())?;
        store.snapshot = framed;
        store.log.clear();
        Ok(())
    }

    fn load(&mut self) -> Result<Recovered, JournalError> {
        let (snapshot_bytes, log_bytes) = {
            let store = self.store.lock().map_err(|_| poisoned())?;
            (store.snapshot.clone(), store.log.clone())
        };
        let snapshot = decode_snapshot(&snapshot_bytes)?;
        let (records, torn, valid_len) = decode_records(&log_bytes)?;
        if torn > 0 {
            self.store
                .lock()
                .map_err(|_| poisoned())?
                .log
                .truncate(valid_len);
        }
        Ok(replay_order(snapshot, records, torn))
    }

    fn arm_crash(&mut self, point: Option<CrashPoint>) {
        self.crash = point;
    }
}

/// An on-disk [`Durability`] backend for the `routeserver` binary:
/// `<state-dir>/journal.rnl` (append-only) and `<state-dir>/snapshot.rnl`
/// (temp-file + atomic rename).
pub struct FileJournal {
    dir: PathBuf,
    /// Kept open across appends; reopened after truncation.
    log: Option<fs::File>,
    crash: Option<CrashPoint>,
    fsync: FsyncPolicy,
    /// Appended-but-not-synced bytes outstanding (group commit only).
    dirty: bool,
}

impl FileJournal {
    /// Open (creating if needed) a state directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileJournal, JournalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| JournalError::Io(e.to_string()))?;
        Ok(FileJournal {
            dir,
            log: None,
            crash: None,
            fsync: FsyncPolicy::default(),
            dirty: false,
        })
    }

    /// Choose when appends reach stable storage (`--fsync-every`).
    pub fn set_fsync_policy(&mut self, policy: FsyncPolicy) {
        self.fsync = policy;
    }

    /// The active fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.rnl")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.rnl")
    }

    fn snapshot_tmp_path(&self) -> PathBuf {
        self.dir.join("snapshot.tmp")
    }

    fn log_file(&mut self) -> Result<&mut fs::File, JournalError> {
        if self.log.is_none() {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.journal_path())
                .map_err(|e| JournalError::Io(e.to_string()))?;
            self.log = Some(file);
        }
        match self.log.as_mut() {
            Some(file) => Ok(file),
            None => Err(JournalError::Io("journal file unavailable".to_string())),
        }
    }

    fn take_crash(&mut self, at: CrashPoint) -> bool {
        if self.crash == Some(at) {
            self.crash = None;
            true
        } else {
            false
        }
    }
}

impl Durability for FileJournal {
    fn append(&mut self, payload: &[u8]) -> Result<usize, JournalError> {
        if self.take_crash(CrashPoint::BeforeAppend) {
            return Err(JournalError::Crash(CrashPoint::BeforeAppend));
        }
        let framed = frame_record(payload);
        let n = framed.len();
        let policy = self.fsync;
        let file = self.log_file()?;
        file.write_all(&framed)
            .map_err(|e| JournalError::Io(e.to_string()))?;
        match policy {
            FsyncPolicy::EveryAppend => {
                file.sync_data()
                    .map_err(|e| JournalError::Io(e.to_string()))?;
            }
            FsyncPolicy::GroupCommit => {
                self.dirty = true;
            }
        }
        if self.take_crash(CrashPoint::AfterAppend) {
            return Err(JournalError::Crash(CrashPoint::AfterAppend));
        }
        Ok(n)
    }

    fn write_snapshot(&mut self, records: &[Vec<u8>]) -> Result<(), JournalError> {
        let framed = frame_records(records);
        let tmp = self.snapshot_tmp_path();
        if self.take_crash(CrashPoint::MidSnapshot) {
            // Simulate dying half-way through the temp write: a partial
            // temp file exists, but the committed snapshot and journal
            // are untouched. `load` ignores the temp file.
            let _ = fs::write(&tmp, &framed[..framed.len() / 2]);
            return Err(JournalError::Crash(CrashPoint::MidSnapshot));
        }
        fs::write(&tmp, &framed).map_err(|e| JournalError::Io(e.to_string()))?;
        fs::rename(&tmp, self.snapshot_path()).map_err(|e| JournalError::Io(e.to_string()))?;
        // The snapshot is durable; the journal restarts empty. Unsynced
        // appends were just subsumed by the snapshot.
        self.log = None;
        self.dirty = false;
        fs::File::create(self.journal_path()).map_err(|e| JournalError::Io(e.to_string()))?;
        Ok(())
    }

    fn load(&mut self) -> Result<Recovered, JournalError> {
        let snapshot = match fs::read(self.snapshot_path()) {
            Ok(bytes) => decode_snapshot(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(JournalError::Io(e.to_string())),
        };
        let log_bytes = match fs::read(self.journal_path()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(JournalError::Io(e.to_string())),
        };
        let (records, torn, valid_len) = decode_records(&log_bytes)?;
        if torn > 0 {
            // Self-heal: drop the torn tail so the next append starts
            // on a record boundary.
            self.log = None;
            let file = fs::OpenOptions::new()
                .write(true)
                .open(self.journal_path())
                .map_err(|e| JournalError::Io(e.to_string()))?;
            file.set_len(valid_len as u64)
                .map_err(|e| JournalError::Io(e.to_string()))?;
        }
        Ok(replay_order(snapshot, records, torn))
    }

    fn arm_crash(&mut self, point: Option<CrashPoint>) {
        self.crash = point;
    }

    fn flush(&mut self) -> Result<(), JournalError> {
        if !self.dirty {
            return Ok(());
        }
        if let Some(file) = self.log.as_mut() {
            file.sync_data()
                .map_err(|e| JournalError::Io(e.to_string()))?;
        }
        self.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_byte_is_checked() {
        // Future format bumps must fail loudly, not misparse: a store
        // whose first record carries a different version byte is
        // rejected outright.
        assert_eq!(JOURNAL_VERSION, 2);
        let mut framed = frame_record(b"{}");
        framed[0] = JOURNAL_VERSION + 1;
        assert!(matches!(
            decode_records(&framed),
            Err(JournalError::Version { found }) if found == JOURNAL_VERSION + 1
        ));
    }

    #[test]
    fn records_roundtrip_in_order() {
        let mut j = MemJournal::new();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        j.append(b"three").unwrap();
        let rec = j.load().unwrap();
        assert_eq!(rec.snapshot_records, 0);
        assert_eq!(rec.torn, 0);
        assert_eq!(
            rec.records,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut j = MemJournal::new();
        j.append(b"kept").unwrap();
        j.append(b"torn-away").unwrap();
        j.chop_log_tail(3);
        let rec = j.load().unwrap();
        assert_eq!(rec.records, vec![b"kept".to_vec()]);
        assert_eq!(rec.torn, 1);
        // The load healed the store: a second load sees a clean tail.
        let rec = j.load().unwrap();
        assert_eq!(rec.torn, 0);
        assert_eq!(rec.records, vec![b"kept".to_vec()]);
    }

    #[test]
    fn corrupted_checksum_truncates_the_tail() {
        let mut j = MemJournal::new();
        j.append(b"good").unwrap();
        j.append(b"flipped").unwrap();
        {
            let store = j.store();
            let mut s = store.lock().unwrap();
            let end = s.log.len() - 1;
            s.log[end] ^= 0xff;
        }
        let rec = j.load().unwrap();
        assert_eq!(rec.records, vec![b"good".to_vec()]);
        assert_eq!(rec.torn, 1);
    }

    fn recs(records: &[&[u8]]) -> Vec<Vec<u8>> {
        records.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn snapshot_subsumes_the_journal() {
        let mut j = MemJournal::new();
        j.append(b"a").unwrap();
        j.write_snapshot(&recs(&[b"state-1", b"state-2"])).unwrap();
        j.append(b"b").unwrap();
        let rec = j.load().unwrap();
        assert_eq!(rec.records, recs(&[b"state-1", b"state-2", b"b"]));
        assert_eq!(rec.snapshot_records, 2);
    }

    #[test]
    fn torn_snapshot_is_corruption_not_a_tail() {
        let mut j = MemJournal::new();
        j.write_snapshot(&recs(&[b"one", b"two"])).unwrap();
        {
            let store = j.store();
            let mut s = store.lock().unwrap();
            s.snapshot.pop();
        }
        assert!(matches!(j.load(), Err(JournalError::CorruptSnapshot)));
    }

    #[test]
    fn crash_points_fire_once_and_honor_atomicity() {
        let mut j = MemJournal::new();
        j.write_snapshot(&recs(&[b"base"])).unwrap();
        j.append(b"op").unwrap();

        j.arm_crash(Some(CrashPoint::BeforeAppend));
        assert!(matches!(
            j.append(b"lost"),
            Err(JournalError::Crash(CrashPoint::BeforeAppend))
        ));
        j.arm_crash(Some(CrashPoint::MidSnapshot));
        assert!(matches!(
            j.write_snapshot(&recs(&[b"never"])),
            Err(JournalError::Crash(CrashPoint::MidSnapshot))
        ));
        // The store still reads exactly as before both crashes.
        let rec = j.load().unwrap();
        assert_eq!(rec.records, recs(&[b"base", b"op"]));
        assert_eq!(rec.snapshot_records, 1);

        j.arm_crash(Some(CrashPoint::AfterAppend));
        assert!(matches!(
            j.append(b"written"),
            Err(JournalError::Crash(CrashPoint::AfterAppend))
        ));
        // AfterAppend crashes *after* the bytes landed.
        let rec = j.load().unwrap();
        assert_eq!(rec.records, recs(&[b"base", b"op", b"written"]));
    }

    #[test]
    fn file_journal_roundtrips_and_heals_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "rnl-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut j = FileJournal::open(&dir).unwrap();
            j.append(b"one").unwrap();
            j.write_snapshot(&recs(&[b"snap"])).unwrap();
            j.append(b"two").unwrap();
            j.append(b"torn").unwrap();
        }
        // Tear the final record the way a crash mid-write would.
        let log_path = dir.join("journal.rnl");
        let bytes = fs::read(&log_path).unwrap();
        fs::write(&log_path, &bytes[..bytes.len() - 2]).unwrap();
        {
            let mut j = FileJournal::open(&dir).unwrap();
            let rec = j.load().unwrap();
            assert_eq!(rec.records, recs(&[b"snap", b"two"]));
            assert_eq!(rec.snapshot_records, 1);
            assert_eq!(rec.torn, 1);
            // Appends continue on the healed boundary.
            j.append(b"three").unwrap();
            let rec = j.load().unwrap();
            assert_eq!(rec.records, recs(&[b"snap", b"two", b"three"]));
            assert_eq!(rec.torn, 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_syncs_and_flush_bounds_the_loss_window() {
        let dir = std::env::temp_dir().join(format!(
            "rnl-groupcommit-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut j = FileJournal::open(&dir).unwrap();
            assert_eq!(j.fsync_policy(), FsyncPolicy::EveryAppend);
            j.set_fsync_policy(FsyncPolicy::GroupCommit);
            // Appends within a poll interval batch into one sync at
            // flush(): the loss window is whatever sits between two
            // flush calls, never more.
            j.append(b"one").unwrap();
            j.append(b"two").unwrap();
            j.flush().unwrap();
            // Nothing dirty: flush again is a no-op.
            j.flush().unwrap();
            // A snapshot subsumes unsynced appends, so it also clears
            // the dirty window.
            j.append(b"three").unwrap();
            j.write_snapshot(&recs(&[b"snap"])).unwrap();
            j.append(b"four").unwrap();
            j.flush().unwrap();
        }
        let mut j = FileJournal::open(&dir).unwrap();
        let rec = j.load().unwrap();
        assert_eq!(rec.records, recs(&[b"snap", b"four"]));
        assert_eq!(rec.snapshot_records, 1);
        assert_eq!(rec.torn, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_snapshot_crash_leaves_previous_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "rnl-snapcrash-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut j = FileJournal::open(&dir).unwrap();
        j.write_snapshot(&recs(&[b"old"])).unwrap();
        j.append(b"tail").unwrap();
        j.arm_crash(Some(CrashPoint::MidSnapshot));
        assert!(j.write_snapshot(&recs(&[b"new"])).is_err());
        let rec = j.load().unwrap();
        assert_eq!(rec.records, recs(&[b"old", b"tail"]));
        assert_eq!(rec.snapshot_records, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
