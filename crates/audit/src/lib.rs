//! # cm-audit — durable audit trail for the generated cloud monitor
//!
//! The monitor's verdicts are *evidence* (the paper's Figure-2 verdict
//! stream; ISO/IEC TR 3445's audit-trail semantics) and evidence must
//! outlive the process that produced it. This crate provides:
//!
//! * [`AuditRecord`] — one self-contained record per monitored request,
//!   carrying verdict, requirement ids, degraded-policy context, and
//!   the observed pre/post state environments so the trace can later be
//!   **re-evaluated** against an updated contract set (`cmcli audit
//!   replay`);
//! * a deterministic CRC32-framed binary codec
//!   ([`encode_record`] / [`decode_record`] / [`encode_frame`]);
//! * [`AuditLog`] — an append-only segmented log with group-commit
//!   batching off the serve path (bounded channel + dedicated writer
//!   thread, one fsync per group), rotation, retention, checkpoints,
//!   and a bounded in-memory tail implementing `cm_obs::TailStream`
//!   for `/-/events/stream`;
//! * crash-safe recovery ([`recover()`]) that truncates a torn tail
//!   instead of refusing to start, quarantines untrustworthy segments,
//!   and reports any loss against the checkpoint.
//!
//! ## Durability contract
//!
//! `append` is fire-and-forget: on crash, the log loses at most the
//! records still in the bounded channel plus **one** partially-written
//! group (which recovery truncates). Everything before the last
//! group fsync is recovered exactly once, in commit order. A full
//! channel drops records (counted under `audit.dropped` in
//! `/-/metrics`) rather than stalling the monitor.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crc;
pub mod log;
pub mod record;
pub mod recover;

pub use crc::crc32;
pub use log::{AuditLog, AuditLogOptions};
pub use record::{
    decode_record, encode_frame, encode_record, next_frame, AuditRecord, DecodeError,
    EnvProvenance, EnvSnapshot, FrameEnd, MonitorMode, RecordSummary, ReplayContext, VerdictCode,
    FRAME_HEADER, MAX_PAYLOAD, MIN_RECORD_VERSION, RECORD_VERSION,
};
pub use recover::{
    read_records, recover, recover_with, write_checkpoint, Recovered, RecoveryReport, SegmentInfo,
};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Destination for audit records, implemented by [`AuditLog`] (durable)
/// and [`MemoryRecorder`] (tests). Must never block the caller.
pub trait AuditRecorder: Send + Sync + std::fmt::Debug {
    /// Accept one record.
    fn record(&self, record: AuditRecord);
}

impl AuditRecorder for AuditLog {
    fn record(&self, record: AuditRecord) {
        self.append(record);
    }
}

/// In-memory recorder for tests and replay capture.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    records: Mutex<Vec<AuditRecord>>,
}

fn plock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MemoryRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything recorded so far, in order.
    #[must_use]
    pub fn records(&self) -> Vec<AuditRecord> {
        plock(&self.records).clone()
    }

    /// Number of records taken.
    #[must_use]
    pub fn len(&self) -> usize {
        plock(&self.records).len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl AuditRecorder for MemoryRecorder {
    fn record(&self, record: AuditRecord) {
        plock(&self.records).push(record);
    }
}
