//! The durable audit log: group-commit writer, segment rotation,
//! retention, and the bounded streaming tail.
//!
//! ## Group-commit protocol
//!
//! `append` never blocks and never touches the disk: it `try_send`s the
//! record into a bounded channel (a full channel *drops* the record and
//! counts it — durability pressure must not stall the serve path). A
//! dedicated writer thread drains the channel in groups of up to
//! `group_max`, serializes each record into one buffer of CRC frames,
//! issues **one `write` + one `fsync`** for the whole group, and only
//! then advances the shared `committed` watermark and publishes the
//! group to the in-memory tail ring. On crash the log therefore loses
//! at most the channel contents plus one partially-written group — and
//! the torn group is truncated, never misparsed (see `recover`).
//!
//! ## Rotation and retention
//!
//! When the active segment exceeds `segment_max_bytes` the writer
//! rotates: new segment named by its first record offset, directory
//! fsync, checkpoint update, and deletion of the oldest segments beyond
//! `max_segments`. Offsets are *commit order* across the whole log —
//! retention deletes files but never renumbers.

use crate::record::{encode_frame, encode_record, AuditRecord, RecordSummary};
use crate::recover::{
    recover_with, segment_file_name, segment_header, sync_dir, write_checkpoint, RecoveryReport,
    SegmentInfo,
};
use cm_obs::{MetricsRegistry, StreamBatch, TailStream};
use cm_rest::Json;
use std::collections::VecDeque;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Lock recovering from poisoning — the tail ring is observational.
fn plock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for [`AuditLog::open`].
#[derive(Debug, Clone)]
pub struct AuditLogOptions {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// Keep at most this many segments (oldest deleted on rotation).
    pub max_segments: usize,
    /// Capacity of the bounded append channel.
    pub channel_capacity: usize,
    /// Maximum records per group commit.
    pub group_max: usize,
    /// Records kept in the in-memory streaming tail.
    pub tail_capacity: usize,
    /// fsync after each group (disable only in tests that measure
    /// logic, never in production — the durability contract needs it).
    pub fsync: bool,
    /// Also expire sealed segments older than this at each rotation
    /// (`None` keeps the count-based retention alone). Age is the
    /// segment file's last write; the active segment never expires.
    pub max_age: Option<Duration>,
}

impl Default for AuditLogOptions {
    fn default() -> Self {
        AuditLogOptions {
            segment_max_bytes: 32 * 1024 * 1024,
            max_segments: 8,
            channel_capacity: 4096,
            group_max: 256,
            tail_capacity: 1024,
            fsync: true,
            max_age: None,
        }
    }
}

/// Commands crossing from the serve path to the writer thread.
enum Cmd {
    Record(Box<AuditRecord>),
    /// Durability barrier: answered once everything sent before it was
    /// committed or failed to commit, with whether all of it committed.
    Flush(mpsc::SyncSender<bool>),
}

/// State shared between appenders, the writer, and streaming readers.
#[derive(Debug)]
struct Shared {
    /// Next offset to be committed == total committed records.
    committed: AtomicU64,
    /// Records accepted into the channel.
    appended: AtomicU64,
    /// Records dropped because the channel was full.
    dropped: AtomicU64,
    /// Group-commit write errors.
    write_errors: AtomicU64,
    /// Bounded ring of committed `(offset, summary)` pairs; the JSON is
    /// rendered when a reader asks.
    tail: Mutex<VecDeque<(u64, RecordSummary)>>,
    /// Signalled after every commit.
    commit_signal: Condvar,
    metrics: Option<Arc<MetricsRegistry>>,
}

/// Handle to a durable audit log. Cloneable via `Arc`; dropping the
/// last handle flushes and joins the writer.
#[derive(Debug)]
pub struct AuditLog {
    shared: Arc<Shared>,
    tx: SyncSender<Cmd>,
    writer: Mutex<Option<thread::JoinHandle<()>>>,
    dir: PathBuf,
}

impl AuditLog {
    /// Open (recovering if necessary) the log in `dir` and start the
    /// writer thread. Returns the handle and the recovery report.
    ///
    /// # Errors
    ///
    /// Genuine I/O failures only; corruption is recovered from.
    pub fn open(
        dir: &Path,
        options: AuditLogOptions,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> io::Result<(Self, RecoveryReport)> {
        let recovered = recover_with(dir, |_| {})?;
        let report = recovered.report.clone();
        let next_offset = report.next_offset;

        // Reuse the last surviving segment if it still has room,
        // otherwise start a fresh one at the current offset.
        let (active_path, active_len, segments) = match recovered.segments.last() {
            Some(last) if last.len < options.segment_max_bytes => {
                (last.path.clone(), last.len, recovered.segments.clone())
            }
            _ => {
                let path = dir.join(segment_file_name(next_offset));
                let header = segment_header(next_offset);
                let mut file = fs::File::create(&path)?;
                file.write_all(&header)?;
                if options.fsync {
                    file.sync_data()?;
                    sync_dir(dir)?;
                }
                let mut segments = recovered.segments.clone();
                segments.push(SegmentInfo {
                    path: path.clone(),
                    first_offset: next_offset,
                    records: 0,
                    len: header.len() as u64,
                });
                (path, header.len() as u64, segments)
            }
        };
        let active = fs::OpenOptions::new().append(true).open(&active_path)?;
        // The checkpoint already says `next_offset` after a clean close
        // (and a fresh directory has none, which reads as 0): rewriting
        // it would change nothing. It moves only when recovery found
        // more or fewer records than it claims, so a loss is reported at
        // this open and not again at the next.
        if report.checkpoint.unwrap_or(0) != next_offset {
            write_checkpoint(dir, next_offset)?;
        }
        let writer = Writer {
            dir: dir.to_path_buf(),
            active,
            active_len,
            segments,
            next_offset,
            lost: 0,
            shared: Arc::new(Shared {
                committed: AtomicU64::new(next_offset),
                appended: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                write_errors: AtomicU64::new(0),
                tail: Mutex::new(VecDeque::with_capacity(options.tail_capacity)),
                commit_signal: Condvar::new(),
                metrics,
            }),
            options,
        };
        Ok((Self::start(writer)?, report))
    }

    /// Start the writer thread over `writer`'s active segment.
    fn start(writer: Writer) -> io::Result<Self> {
        let shared = Arc::clone(&writer.shared);
        let dir = writer.dir.clone();
        let (tx, rx) = mpsc::sync_channel(writer.options.channel_capacity.max(1));
        let handle = thread::Builder::new()
            .name("cm-audit-writer".into())
            .spawn(move || writer.run(rx))
            .map_err(|e| io::Error::other(format!("spawn audit writer: {e}")))?;
        Ok(AuditLog {
            shared,
            tx,
            writer: Mutex::new(Some(handle)),
            dir,
        })
    }

    /// Queue one record for durable append. Never blocks: a full
    /// channel drops the record and counts it under `audit.dropped`.
    pub fn append(&self, record: AuditRecord) {
        match self.tx.try_send(Cmd::Record(Box::new(record))) {
            Ok(()) => {
                self.shared.appended.fetch_add(1, Ordering::Relaxed);
                if let Some(metrics) = &self.shared.metrics {
                    metrics.audit.increment("appended");
                }
            }
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                if let Some(metrics) = &self.shared.metrics {
                    metrics.audit.increment("dropped");
                }
            }
        }
    }

    /// Durability barrier: block until every record appended before
    /// this call is fsynced (or was dropped at the channel).
    ///
    /// # Errors
    ///
    /// If a record appended before this call failed to commit (its
    /// group's write or fsync failed), or the writer thread is gone.
    pub fn flush(&self) -> io::Result<()> {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        self.tx
            .send(Cmd::Flush(ack_tx))
            .map_err(|_| io::Error::other("audit writer is gone"))?;
        match ack_rx.recv() {
            Ok(true) => Ok(()),
            Ok(false) => Err(io::Error::other(
                "audit records appended before this flush failed to commit",
            )),
            Err(_) => Err(io::Error::other("audit writer died before ack")),
        }
    }

    /// Offset of the next record to commit == records committed so far
    /// (including those recovered at open).
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.shared.committed.load(Ordering::Acquire)
    }

    /// Records accepted into the append channel by this handle's log.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.shared.appended.load(Ordering::Relaxed)
    }

    /// Records dropped because the channel was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Group-commit write errors.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.shared.write_errors.load(Ordering::Relaxed)
    }

    /// The log directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Flush everything queued, stop the writer thread, and write the
    /// final checkpoint. Idempotent; also runs on drop. After close,
    /// `append` counts every record as dropped.
    pub fn close(&mut self) {
        if let Some(handle) = plock(&self.writer).take() {
            let (ack_tx, ack_rx) = mpsc::sync_channel(1);
            if self.tx.send(Cmd::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
            // Disconnect the channel so the writer's recv() returns
            // Err and it exits; then join for the final checkpoint.
            let (dummy_tx, _) = mpsc::sync_channel(1);
            drop(std::mem::replace(&mut self.tx, dummy_tx));
            let _ = handle.join();
        }
    }
}

impl Drop for AuditLog {
    fn drop(&mut self) {
        self.close();
    }
}

/// The writer thread's exclusive state.
struct Writer {
    dir: PathBuf,
    active: fs::File,
    active_len: u64,
    segments: Vec<SegmentInfo>,
    next_offset: u64,
    /// Records whose group failed to commit.
    lost: u64,
    options: AuditLogOptions,
    shared: Arc<Shared>,
}

impl Writer {
    fn run(mut self, rx: Receiver<Cmd>) {
        let mut batch: Vec<AuditRecord> = Vec::with_capacity(self.options.group_max);
        // Each barrier with the number of this group's records before it.
        let mut acks: Vec<(mpsc::SyncSender<bool>, usize)> = Vec::new();
        loop {
            // Block for the first command of the group…
            let first = match rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => break,
            };
            match first {
                Cmd::Record(record) => batch.push(*record),
                Cmd::Flush(ack) => acks.push((ack, 0)),
            }
            // …then opportunistically drain up to group_max records.
            while batch.len() < self.options.group_max {
                match rx.try_recv() {
                    Ok(Cmd::Record(record)) => batch.push(*record),
                    Ok(Cmd::Flush(ack)) => acks.push((ack, batch.len())),
                    Err(_) => break,
                }
            }
            let lost_before = self.lost;
            let committed = self.commit_group(&mut batch);
            for (ack, behind) in acks.drain(..) {
                // A barrier answers for every earlier group and for the
                // records of this one sent before it.
                let _ = ack.send(lost_before == 0 && (committed || behind == 0));
            }
        }
        // Channel closed: final checkpoint for a clean shutdown.
        let _ = self.active.sync_data();
        let _ = write_checkpoint(&self.dir, self.next_offset);
    }

    /// One group commit: serialize, single write, single fsync, then
    /// publish (draining `batch` into the tail ring). Returns whether the
    /// group committed.
    fn commit_group(&mut self, batch: &mut Vec<AuditRecord>) -> bool {
        if batch.is_empty() {
            return true;
        }
        let started = Instant::now();
        let mut buf = Vec::with_capacity(batch.len() * 256);
        for record in batch.iter() {
            encode_frame(&encode_record(record), &mut buf);
        }
        let written = self
            .active
            .write_all(&buf)
            .and_then(|()| {
                if self.options.fsync {
                    self.active.sync_data()
                } else {
                    Ok(())
                }
            })
            .is_ok();
        if !written {
            // The group may be torn on disk: cut it off, so a later
            // group does not land behind bytes recovery would stop at.
            // Surface the failure and carry on — the monitor's serve
            // path must survive a full disk.
            let _ = self.active.set_len(self.active_len);
            self.lost += batch.len() as u64;
            batch.clear();
            self.shared.write_errors.fetch_add(1, Ordering::Relaxed);
            if let Some(metrics) = &self.shared.metrics {
                metrics.audit.increment("write_errors");
            }
            return false;
        }
        self.active_len += buf.len() as u64;
        if let Some(last) = self.segments.last_mut() {
            last.records += batch.len() as u64;
            last.len = self.active_len;
        }

        // Publish: watermark, tail ring, commit signal, metrics.
        {
            let mut tail = plock(&self.shared.tail);
            for record in batch.drain(..) {
                let offset = self.next_offset;
                self.next_offset += 1;
                if tail.len() == self.options.tail_capacity.max(1) {
                    tail.pop_front();
                }
                tail.push_back((offset, RecordSummary::from(record)));
            }
            self.shared
                .committed
                .store(self.next_offset, Ordering::Release);
        }
        self.shared.commit_signal.notify_all();
        if let Some(metrics) = &self.shared.metrics {
            metrics.audit.increment("commits");
            metrics.audit_commit.record(started.elapsed());
        }

        if self.active_len >= self.options.segment_max_bytes {
            if let Err(err) = self.rotate() {
                self.shared.write_errors.fetch_add(1, Ordering::Relaxed);
                if let Some(metrics) = &self.shared.metrics {
                    metrics.audit.increment("write_errors");
                }
                let _ = err;
            }
        }
        true
    }

    /// Seal the active segment, start a new one, checkpoint, and apply
    /// retention.
    fn rotate(&mut self) -> io::Result<()> {
        self.active.sync_data()?;
        let path = self.dir.join(segment_file_name(self.next_offset));
        let header = segment_header(self.next_offset);
        let mut file = fs::File::create(&path)?;
        file.write_all(&header)?;
        if self.options.fsync {
            file.sync_data()?;
            sync_dir(&self.dir)?;
        }
        write_checkpoint(&self.dir, self.next_offset)?;
        self.active = fs::OpenOptions::new().append(true).open(&path)?;
        self.active_len = header.len() as u64;
        self.segments.push(SegmentInfo {
            path,
            first_offset: self.next_offset,
            records: 0,
            len: self.active_len,
        });
        if let Some(metrics) = &self.shared.metrics {
            metrics.audit.increment("rotations");
        }
        while self.segments.len() > self.options.max_segments.max(1) {
            let oldest = self.segments.remove(0);
            fs::remove_file(&oldest.path)?;
        }
        // Age-based retention: drop sealed segments whose last write is
        // older than `max_age`. The just-created active segment is
        // `segments.last()` and is never considered.
        if let Some(max_age) = self.options.max_age {
            let mut expired = 0_u64;
            while self.segments.len() > 1 && segment_expired(&self.segments[0].path, max_age) {
                let oldest = self.segments.remove(0);
                fs::remove_file(&oldest.path)?;
                expired += 1;
            }
            if expired > 0 {
                if let Some(metrics) = &self.shared.metrics {
                    metrics
                        .audit
                        .counter("expired_segments")
                        .fetch_add(expired, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }
}

/// Whether the (sealed) segment at `path` is older than `max_age`,
/// judged by its file modification time — i.e. its final write before
/// sealing. Unreadable metadata reads as *not* expired: retention must
/// never delete what it cannot date.
fn segment_expired(path: &Path, max_age: Duration) -> bool {
    fs::metadata(path)
        .and_then(|meta| meta.modified())
        .ok()
        .and_then(|sealed| sealed.elapsed().ok())
        .is_some_and(|age| age > max_age)
}

impl TailStream for AuditLog {
    fn tail_from(&self, from: u64, max: usize, wait_ms: u64) -> StreamBatch {
        let deadline = Instant::now() + Duration::from_millis(wait_ms);
        let mut tail = plock(&self.shared.tail);
        loop {
            let end = self.shared.committed.load(Ordering::Acquire);
            if from < end || wait_ms == 0 {
                let tail_base = end - tail.len() as u64;
                let from = from.min(end);
                let start = from.max(tail_base);
                let lagged = start - from;
                let skip = usize::try_from(start - tail_base).unwrap_or(usize::MAX);
                let records: Vec<Json> = tail
                    .iter()
                    .skip(skip)
                    .take(max)
                    .map(|(offset, summary)| summary.to_json(*offset))
                    .collect();
                if lagged > 0 {
                    if let Some(metrics) = &self.shared.metrics {
                        metrics
                            .audit
                            .counter("stream_lagged")
                            .fetch_add(lagged, Ordering::Relaxed);
                    }
                }
                return StreamBatch {
                    start,
                    next: start + records.len() as u64,
                    lagged,
                    end,
                    records,
                };
            }
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                return StreamBatch {
                    start: from.min(end),
                    next: from.min(end),
                    lagged: 0,
                    end,
                    records: Vec::new(),
                };
            }
            let (guard, _) = self
                .shared
                .commit_signal
                .wait_timeout(tail, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            tail = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EnvProvenance, EnvSnapshot, MonitorMode, ReplayContext, VerdictCode};
    use crate::recover::{read_records, recover, segment_file_name};

    fn record(i: u64) -> AuditRecord {
        AuditRecord {
            seq: i,
            ts_nanos: i,
            method: "PUT".into(),
            path: format!("/v3/1/volumes/{i}"),
            route: Some("/v3/{project_id}/volumes/{volume_id}".into()),
            trigger: Some(("PUT".into(), "volume".into())),
            mode: MonitorMode::Enforce,
            degraded_policy: "fail-closed".into(),
            verdict: VerdictCode::Pass,
            requirements: vec!["1.1".into()],
            status: 200,
            diagnostics: String::new(),
            context: ReplayContext::Checked {
                pre_env: EnvSnapshot::default(),
                post_env: None,
                post_partial: false,
                probe_denials: vec![],
                forwarded: true,
                cloud_status: Some(200),
                provenance: EnvProvenance::default(),
            },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cm-audit-log-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_options() -> AuditLogOptions {
        AuditLogOptions {
            segment_max_bytes: 4096,
            max_segments: 3,
            channel_capacity: 64,
            group_max: 8,
            tail_capacity: 16,
            fsync: true,
            ..AuditLogOptions::default()
        }
    }

    #[test]
    fn append_flush_reopen_round_trips() {
        let dir = tmp("roundtrip");
        {
            let (log, report) = AuditLog::open(&dir, small_options(), None).unwrap();
            assert_eq!(report.next_offset, 0);
            for i in 0..20 {
                log.append(record(i));
            }
            log.flush().unwrap();
            assert_eq!(log.committed(), 20);
            assert_eq!(log.dropped(), 0);
        }
        // Reopen: recovery sees all 20, watermark continues.
        let (log, report) = AuditLog::open(&dir, small_options(), None).unwrap();
        assert_eq!(report.records, 20);
        assert_eq!(report.next_offset, 20);
        assert_eq!(report.lost_committed, 0);
        log.append(record(20));
        log.flush().unwrap();
        assert_eq!(log.committed(), 21);
        drop(log);
        let records = read_records(&dir).unwrap();
        assert_eq!(records.len(), 21);
        assert_eq!(records.last().unwrap().seq, 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_retention_bound_disk() {
        let dir = tmp("rotate");
        let options = AuditLogOptions {
            segment_max_bytes: 600,
            max_segments: 2,
            ..small_options()
        };
        let (log, _) = AuditLog::open(&dir, options, None).unwrap();
        for i in 0..60 {
            log.append(record(i));
            // Flush per record to force many small groups → rotations.
            log.flush().unwrap();
        }
        drop(log);
        let segment_count = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("segment-") && name.ends_with(".log")
            })
            .count();
        assert!(
            segment_count <= 3,
            "retention kept {segment_count} segments"
        );
        // The retained suffix recovers cleanly with the right offsets.
        let (records, recovered) = recover(&dir).unwrap();
        assert_eq!(recovered.report.next_offset, 60);
        let last = records.last().unwrap();
        assert_eq!(last.seq, 59);
        // Checkpoint may predate the final records (it advances on
        // rotation), so no loss is reported.
        assert_eq!(recovered.report.lost_committed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_channel_drops_instead_of_blocking() {
        let dir = tmp("drops");
        let options = AuditLogOptions {
            channel_capacity: 2,
            group_max: 2,
            ..small_options()
        };
        let (log, _) = AuditLog::open(&dir, options, None).unwrap();
        // Flood far beyond capacity without flushing; some must drop,
        // none may block (the test completing at all checks that).
        for i in 0..500 {
            log.append(record(i));
        }
        log.flush().unwrap();
        assert_eq!(log.appended() + log.dropped(), 500);
        assert_eq!(log.committed(), log.appended());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_stream_serves_and_reports_lag() {
        let dir = tmp("tail");
        let options = AuditLogOptions {
            tail_capacity: 4,
            ..small_options()
        };
        let (log, _) = AuditLog::open(&dir, options, None).unwrap();
        for i in 0..10 {
            log.append(record(i));
        }
        log.flush().unwrap();
        // From 0, but only the last 4 are in the ring: lag reported.
        let batch = log.tail_from(0, 100, 0);
        assert_eq!(batch.end, 10);
        assert_eq!(batch.start, 6);
        assert_eq!(batch.lagged, 6);
        assert_eq!(batch.records.len(), 4);
        assert_eq!(batch.next, 10);
        // Caught-up consumer with zero wait: empty batch, no lag.
        let batch = log.tail_from(10, 100, 0);
        assert!(batch.records.is_empty());
        assert_eq!(batch.lagged, 0);
        // A caught-up consumer with a wait budget times out cleanly
        // when nothing commits (wake-on-commit is covered by the
        // streaming integration test).
        let started = Instant::now();
        let batch = log.tail_from(10, 100, 50);
        assert!(batch.records.is_empty());
        assert!(started.elapsed() >= Duration::from_millis(45));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn summaries_in_tail_match_offsets() {
        let dir = tmp("summaries");
        let (log, _) = AuditLog::open(&dir, small_options(), None).unwrap();
        for i in 0..5 {
            log.append(record(i));
        }
        log.flush().unwrap();
        let batch = log.tail_from(2, 2, 0);
        assert_eq!(batch.start, 2);
        assert_eq!(batch.records.len(), 2);
        assert_eq!(batch.records[0].get("offset").unwrap().as_int(), Some(2));
        assert_eq!(batch.records[1].get("seq").unwrap().as_int(), Some(3));
        assert_eq!(batch.next, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A writer whose active segment rejects every write.
    #[cfg(target_os = "linux")]
    fn writer_over_a_full_disk(dir: &Path) -> Writer {
        fs::create_dir_all(dir).unwrap();
        let options = small_options();
        Writer {
            dir: dir.to_path_buf(),
            active: fs::OpenOptions::new()
                .append(true)
                .open("/dev/full")
                .unwrap(),
            active_len: 0,
            segments: Vec::new(),
            next_offset: 0,
            lost: 0,
            shared: Arc::new(Shared {
                committed: AtomicU64::new(0),
                appended: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                write_errors: AtomicU64::new(0),
                tail: Mutex::new(VecDeque::new()),
                commit_signal: Condvar::new(),
                metrics: None,
            }),
            options,
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn flush_fails_when_a_record_before_it_failed_to_commit() {
        let dir = tmp("full-disk");
        let log = AuditLog::start(writer_over_a_full_disk(&dir)).unwrap();
        // Nothing appended yet: the barrier holds.
        log.flush().unwrap();
        log.append(record(0));
        let err = log.flush().unwrap_err();
        assert!(err.to_string().contains("failed to commit"), "{err}");
        assert_eq!(log.committed(), 0);
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.write_errors(), 1);
        // The lost record stays lost for every later barrier.
        assert!(log.flush().is_err());
        drop(log);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_reports_a_loss_once() {
        let dir = tmp("loss-once");
        {
            let (log, _) = AuditLog::open(&dir, small_options(), None).unwrap();
            for i in 0..5 {
                log.append(record(i));
            }
            log.flush().unwrap();
        }
        // Cut into the last frame: the checkpoint (5) now claims one
        // committed record more than the scan recovers.
        let segment = dir.join(segment_file_name(0));
        let len = fs::metadata(&segment).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (log, report) = AuditLog::open(&dir, small_options(), None).unwrap();
        assert_eq!(report.lost_committed, 1);
        // Open moved the checkpoint to what recovery found.
        assert_eq!(crate::recover::read_checkpoint(&dir), Some(4));
        drop(log);
        let (_, report) = AuditLog::open(&dir, small_options(), None).unwrap();
        assert_eq!(report.lost_committed, 0);
        assert_eq!(report.checkpoint, Some(4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn open_leaves_an_unchanged_checkpoint_alone() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp("checkpoint-kept");
        let checkpoint = dir.join(crate::recover::CHECKPOINT_FILE);
        // A fresh directory: no checkpoint is written at open (none
        // reads as 0); the clean close writes one.
        let (log, _) = AuditLog::open(&dir, small_options(), None).unwrap();
        assert!(!checkpoint.exists());
        log.append(record(0));
        log.flush().unwrap();
        drop(log);
        let inode = fs::metadata(&checkpoint).unwrap().ino();
        // Reopening after a clean close finds it current and keeps it.
        let (log, report) = AuditLog::open(&dir, small_options(), None).unwrap();
        assert_eq!(report.checkpoint, Some(1));
        assert_eq!(fs::metadata(&checkpoint).unwrap().ino(), inode);
        drop(log);
        let _ = fs::remove_dir_all(&dir);
    }

    fn segment_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("segment-") && name.ends_with(".log"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn max_age_retention_expires_old_segments_at_rotation() {
        let dir = tmp("max-age");
        let options = AuditLogOptions {
            segment_max_bytes: 600,
            max_segments: 64, // count-based retention out of the way
            max_age: Some(Duration::from_millis(80)),
            ..small_options()
        };
        let (log, _) = AuditLog::open(&dir, options, None).unwrap();
        // First burst seals a few segments…
        for i in 0..20 {
            log.append(record(i));
            log.flush().unwrap();
        }
        let before = segment_files(&dir).len();
        assert!(before >= 3, "need several sealed segments, got {before}");
        // …which age past max_age while the log idles…
        thread::sleep(Duration::from_millis(120));
        // …so the rotations driven by a second burst expire them.
        for i in 20..40 {
            log.append(record(i));
            log.flush().unwrap();
        }
        drop(log);
        let after = segment_files(&dir);
        // Everything left on disk is younger than the idle gap: the
        // aged first-burst segments are gone, and the survivors still
        // recover cleanly to the full offset.
        assert!(
            after.len() < before + 4,
            "expected first-burst segments expired, kept {after:?}"
        );
        assert!(
            !after.contains(&"segment-00000000000000000000.log".to_string()),
            "the oldest segment must have expired"
        );
        let (_, recovered) = recover(&dir).unwrap();
        assert_eq!(recovered.report.next_offset, 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn huge_max_age_keeps_every_segment() {
        let dir = tmp("max-age-keep");
        let options = AuditLogOptions {
            segment_max_bytes: 600,
            max_segments: 64,
            max_age: Some(Duration::from_secs(3600)),
            ..small_options()
        };
        let (log, _) = AuditLog::open(&dir, options, None).unwrap();
        for i in 0..40 {
            log.append(record(i));
            log.flush().unwrap();
        }
        drop(log);
        // Nothing is old enough: only count-based retention (idle here)
        // may delete, so the first segment is still present.
        assert!(segment_files(&dir).contains(&"segment-00000000000000000000.log".to_string()));
        let (records, _) = recover(&dir).unwrap();
        assert_eq!(records.len(), 40);
        let _ = fs::remove_dir_all(&dir);
    }
}
