//! The durable verdict record and its binary codec.
//!
//! One [`AuditRecord`] is written per monitored request. Beyond what the
//! in-memory `MonitorEvent` carries, a record captures everything replay
//! needs to *re-evaluate* the request against a different (updated)
//! contract set without a live cloud: the observed pre-/post-state
//! environments, the cloud's raw status code (before any enforce-mode
//! rewrite), the probe denials, and the degraded-policy context that
//! explains unchecked or refused forwards.
//!
//! ## Encoding
//!
//! Records are encoded with a deterministic, versioned, little-endian
//! binary codec (`encode_record` / `decode_record`): encoding the same
//! record twice yields identical bytes, and decoding then re-encoding a
//! current-version payload is byte-identical — the property the
//! corruption battery pins down. Older-version payloads still decode
//! (re-encoding upgrades them to the current version). On disk each payload travels in a CRC frame
//! ([`encode_frame`]): `len: u32 | crc32(payload): u32 | payload`.

use crate::crc::crc32;
use cm_ocl::{CollectionKind, MapNavigator, ObjRef, Value};
use cm_rest::Json;
use std::fmt;

/// Codec version written as the first payload byte. Version 2 added the
/// [`VerdictCode::Drift`] verdict, the [`ReplayContext::Drift`] context,
/// and the environment-provenance byte on [`ReplayContext::Checked`];
/// version-1 payloads still decode (provenance defaults to
/// [`EnvProvenance::Probe`]).
pub const RECORD_VERSION: u8 = 2;

/// Oldest codec version [`decode_record`] still accepts.
pub const MIN_RECORD_VERSION: u8 = 1;

/// Upper bound on one frame's payload, rejecting corrupt length headers
/// before any allocation happens.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Bytes of frame overhead in front of every payload (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// The monitoring mode (the paper's user stories, Section III-B), as the
/// monitor runs under it and as each record carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorMode {
    /// Block contract-violating requests (Figure 2 proxy).
    #[default]
    Enforce,
    /// Forward everything and classify (test oracle).
    Observe,
}

impl MonitorMode {
    fn tag(self) -> u8 {
        match self {
            MonitorMode::Enforce => 0,
            MonitorMode::Observe => 1,
        }
    }
}

/// The monitor's judgement of one request. cm-core re-exports it as
/// `cm_core::Verdict`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictCode {
    /// Contract satisfied (or correctly denied request).
    Pass,
    /// The URI/method is not part of the behavioural model; forwarded
    /// unchecked.
    NotModelled,
    /// Enforce mode: pre-condition failed, request blocked before the
    /// cloud saw it.
    PreBlocked,
    /// The pre-condition was false yet the cloud accepted — a wrong
    /// authorization (privilege escalation) or missing functional check.
    WrongAcceptance,
    /// The pre-condition was true yet the cloud denied — an authorized
    /// user was prevented from accessing the resource.
    WrongDenial,
    /// Pre passed and the cloud accepted, but the post-condition failed
    /// (state not updated as specified).
    PostViolation,
    /// The cloud answered with an unexpected success code.
    WrongStatus {
        /// Code the uniform interface specifies for this method.
        expected: u16,
        /// Code the cloud actually sent.
        actual: u16,
    },
    /// Contract evaluation itself failed (modelling/environment error).
    ContractError,
    /// The monitor could not *check* the request: the transport to the
    /// cloud failed (snapshot probes undeliverable, or the forward
    /// itself came back as a marked gateway fault), or the transport
    /// shed it under overload. Explicitly not a violation — the cloud's
    /// contract compliance was never observed. The untestable
    /// security-requirement ids travel with the verdict, preserving
    /// Table-I traceability.
    Degraded,
    /// An anti-entropy reconciliation pass found the cloud's state
    /// diverged from the shadow replica: something mutated the cloud
    /// **out of band**, bypassing the monitored path. Not a request
    /// violation (the request it piggybacked on was judged separately)
    /// but a detection the paper's probing monitor cannot make explicit.
    Drift,
}

impl VerdictCode {
    /// The stable label `Display` renders; `/-/metrics` and the event
    /// stream count verdicts by it.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            VerdictCode::Pass => "pass".into(),
            VerdictCode::NotModelled => "not-modelled".into(),
            VerdictCode::PreBlocked => "pre-blocked".into(),
            VerdictCode::WrongAcceptance => "wrong-acceptance".into(),
            VerdictCode::WrongDenial => "wrong-denial".into(),
            VerdictCode::PostViolation => "post-violation".into(),
            VerdictCode::WrongStatus { expected, actual } => {
                format!("wrong-status(expected {expected}, got {actual})")
            }
            VerdictCode::ContractError => "contract-error".into(),
            VerdictCode::Degraded => "degraded".into(),
            VerdictCode::Drift => "drift".into(),
        }
    }

    /// True for verdicts that indicate a fault in the cloud.
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            VerdictCode::WrongAcceptance
                | VerdictCode::WrongDenial
                | VerdictCode::PostViolation
                | VerdictCode::WrongStatus { .. }
        )
    }
}

impl fmt::Display for VerdictCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A serialized OCL evaluation environment: the flattened, *sorted*
/// bindings of a `MapNavigator` snapshot. Sorting makes the encoding
/// deterministic regardless of hash-map iteration order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnvSnapshot {
    /// Root variable bindings, sorted by name.
    pub vars: Vec<(String, Value)>,
    /// Attribute bindings, sorted by (class, id, property).
    pub attrs: Vec<(ObjRef, String, Value)>,
}

impl EnvSnapshot {
    /// Capture a navigator's bindings.
    #[must_use]
    pub fn capture(nav: &MapNavigator) -> Self {
        let mut vars: Vec<(String, Value)> = nav
            .variables()
            .map(|(name, value)| (name.to_string(), value.clone()))
            .collect();
        vars.sort_by(|a, b| a.0.cmp(&b.0));
        let mut attrs: Vec<(ObjRef, String, Value)> = nav
            .attributes()
            .map(|(obj, prop, value)| (obj.clone(), prop.to_string(), value.clone()))
            .collect();
        attrs.sort_by(|a, b| (&a.0.class, a.0.id, &a.1).cmp(&(&b.0.class, b.0.id, &b.1)));
        EnvSnapshot { vars, attrs }
    }

    /// Rebuild the navigator for re-evaluation.
    #[must_use]
    pub fn to_navigator(&self) -> MapNavigator {
        let mut nav = MapNavigator::new();
        for (name, value) in &self.vars {
            nav.set_variable(name.clone(), value.clone());
        }
        for (obj, prop, value) in &self.attrs {
            nav.set_attribute(obj.clone(), prop.clone(), value.clone());
        }
        nav
    }
}

/// Where the environments in a [`ReplayContext::Checked`] record came
/// from: live probe round-trips against the cloud, or the monitor's
/// shadow replica (zero probes). Replay uses this to re-judge
/// replica-mode traces with the same trust model they were taken under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnvProvenance {
    /// Environments observed by probing the cloud (version-1 default).
    #[default]
    Probe,
    /// Environments served from the model-derived shadow replica.
    Replica,
}

impl EnvProvenance {
    fn tag(self) -> u8 {
        match self {
            EnvProvenance::Probe => 0,
            EnvProvenance::Replica => 1,
        }
    }

    /// The label rendered in summaries and replay reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EnvProvenance::Probe => "probe",
            EnvProvenance::Replica => "replica",
        }
    }
}

/// The branch `CloudMonitor::process` took, capturing the transport-level
/// facts replay cannot re-derive from a contract set alone.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayContext {
    /// No modelled route / no contract for the trigger.
    Unmodelled,
    /// Method outside the model-derived interface.
    MethodNotAllowed {
        /// Enforce blocked it; observe forwarded it.
        enforced: bool,
        /// Status the cloud answered when forwarded.
        cloud_status: Option<u16>,
    },
    /// The URI parameters did not identify a probe target.
    BadTarget,
    /// Pre-snapshot was partial (transport faults); the degraded policy
    /// decided what happened next.
    DegradedPre {
        /// Whether the request was forwarded unchecked.
        forwarded: bool,
        /// The probes the transport failed to deliver.
        faults: Vec<String>,
    },
    /// The forward itself came back as a marked transport fault.
    DegradedForward,
    /// The contract-checked path: full pre-state observed.
    Checked {
        /// The pre-state environment (doubles as the post phase's
        /// `pre()` snapshot).
        pre_env: EnvSnapshot,
        /// The post-state environment, when a post snapshot was taken
        /// and complete.
        post_env: Option<EnvSnapshot>,
        /// A post snapshot was attempted but came back partial.
        post_partial: bool,
        /// Denied admin-authority probes (the wrong-denial signal).
        probe_denials: Vec<String>,
        /// Whether the request reached the cloud.
        forwarded: bool,
        /// The status the *cloud* answered with, before any
        /// enforce-mode rewrite of violation responses.
        cloud_status: Option<u16>,
        /// Where the environments came from (probe vs shadow replica).
        provenance: EnvProvenance,
    },
    /// An anti-entropy pass found replica/cloud divergence. The record's
    /// requirements list carries the contracts whose scopes touch the
    /// drifted attributes.
    Drift {
        /// `root.attr` pairs that diverged, e.g. `volume.size`.
        attributes: Vec<String>,
    },
}

/// One durable verdict record.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// The monitor's global admission sequence number (causal order).
    pub seq: u64,
    /// Wall-clock nanoseconds since the Unix epoch at emission.
    pub ts_nanos: u64,
    /// HTTP method of the monitored request.
    pub method: String,
    /// Request path (including any query string).
    pub path: String,
    /// Resolved route template, if modelled.
    pub route: Option<String>,
    /// The behavioural trigger as `(method, resource)`, if resolved.
    pub trigger: Option<(String, String)>,
    /// The monitoring mode in force.
    pub mode: MonitorMode,
    /// The degraded policy in force, e.g. `fail-closed`, `fail-open:16`.
    pub degraded_policy: String,
    /// The verdict.
    pub verdict: VerdictCode,
    /// Security-requirement ids exercised (or untestable, for Degraded).
    pub requirements: Vec<String>,
    /// Status returned to the monitor's client.
    pub status: u16,
    /// Free-form diagnostics.
    pub diagnostics: String,
    /// The replay context; see [`ReplayContext`].
    pub context: ReplayContext,
}

/// The fields of a record its compact JSON summary shows, moved out of
/// the record (the replay environments are dropped with it): what the
/// streaming tail keeps per committed record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSummary {
    seq: u64,
    ts_nanos: u64,
    method: String,
    path: String,
    route: Option<String>,
    verdict: VerdictCode,
    status: u16,
    requirements: Vec<String>,
    diagnostics: String,
}

impl From<AuditRecord> for RecordSummary {
    fn from(record: AuditRecord) -> Self {
        RecordSummary {
            seq: record.seq,
            ts_nanos: record.ts_nanos,
            method: record.method,
            path: record.path,
            route: record.route,
            verdict: record.verdict,
            status: record.status,
            requirements: record.requirements,
            diagnostics: record.diagnostics,
        }
    }
}

impl RecordSummary {
    /// The compact JSON summary of the record at log `offset`, as
    /// `/-/events/stream` serves it.
    #[must_use]
    pub fn to_json(&self, offset: u64) -> Json {
        let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
        Json::object(vec![
            ("offset", int(offset)),
            ("seq", int(self.seq)),
            ("ts_nanos", int(self.ts_nanos)),
            ("method", Json::Str(self.method.clone())),
            ("path", Json::Str(self.path.clone())),
            ("route", self.route.clone().map_or(Json::Null, Json::Str)),
            ("verdict", Json::Str(self.verdict.label())),
            ("violation", Json::Bool(self.verdict.is_violation())),
            ("status", Json::Int(i64::from(self.status))),
            (
                "requirements",
                Json::Array(self.requirements.iter().cloned().map(Json::Str).collect()),
            ),
            ("diagnostics", Json::Str(self.diagnostics.clone())),
        ])
    }
}

/// A codec failure: the payload is not a valid record of any known
/// version. During recovery this terminates the scan (torn tail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub message: String,
}

impl DecodeError {
    fn new(message: impl Into<String>) -> Self {
        DecodeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit record decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// Primitive writers / readers
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => put_u8(out, 0),
        Some(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
    }
}

fn put_strs(out: &mut Vec<u8>, items: &[String]) {
    put_u32(out, u32::try_from(items.len()).unwrap_or(u32::MAX));
    for item in items {
        put_str(out, item);
    }
}

/// Cursor over a payload being decoded.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| DecodeError::new("payload truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        if len > self.bytes.len().saturating_sub(self.pos) {
            return Err(DecodeError::new("string length exceeds payload"));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| DecodeError::new("string is not UTF-8"))
    }

    fn opt_str(&mut self) -> Result<Option<String>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            t => Err(DecodeError::new(format!("bad option tag {t}"))),
        }
    }

    fn strs(&mut self) -> Result<Vec<String>, DecodeError> {
        let count = self.u32()? as usize;
        if count > self.bytes.len().saturating_sub(self.pos) {
            return Err(DecodeError::new("list count exceeds payload"));
        }
        (0..count).map(|_| self.str()).collect()
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError::new("trailing bytes after record"))
        }
    }
}

// ---------------------------------------------------------------------
// Value / environment codec
// ---------------------------------------------------------------------

fn collection_tag(kind: CollectionKind) -> u8 {
    match kind {
        CollectionKind::Set => 0,
        CollectionKind::Bag => 1,
        CollectionKind::Sequence => 2,
        CollectionKind::OrderedSet => 3,
    }
}

fn collection_kind(tag: u8) -> Result<CollectionKind, DecodeError> {
    match tag {
        0 => Ok(CollectionKind::Set),
        1 => Ok(CollectionKind::Bag),
        2 => Ok(CollectionKind::Sequence),
        3 => Ok(CollectionKind::OrderedSet),
        t => Err(DecodeError::new(format!("bad collection kind {t}"))),
    }
}

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Undefined => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_u64(out, *i as u64);
        }
        Value::Real(r) => {
            put_u8(out, 3);
            put_u64(out, r.to_bits());
        }
        Value::Str(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
        Value::Obj(obj) => {
            put_u8(out, 5);
            put_str(out, &obj.class);
            put_u64(out, obj.id);
        }
        Value::Coll(kind, elements) => {
            put_u8(out, 6);
            put_u8(out, collection_tag(*kind));
            put_u32(out, u32::try_from(elements.len()).unwrap_or(u32::MAX));
            for element in elements {
                put_value(out, element);
            }
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
    match r.u8()? {
        0 => Ok(Value::Undefined),
        1 => Ok(Value::Bool(r.u8()? != 0)),
        2 => Ok(Value::Int(r.u64()? as i64)),
        3 => Ok(Value::Real(f64::from_bits(r.u64()?))),
        4 => Ok(Value::Str(r.str()?)),
        5 => {
            let class = r.str()?;
            let id = r.u64()?;
            Ok(Value::Obj(ObjRef::new(class, id)))
        }
        6 => {
            let kind = collection_kind(r.u8()?)?;
            let count = r.u32()? as usize;
            if count > r.bytes.len().saturating_sub(r.pos) {
                return Err(DecodeError::new("collection count exceeds payload"));
            }
            let elements = (0..count)
                .map(|_| read_value(r))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Value::Coll(kind, elements))
        }
        t => Err(DecodeError::new(format!("bad value tag {t}"))),
    }
}

fn put_env(out: &mut Vec<u8>, env: &EnvSnapshot) {
    put_u32(out, u32::try_from(env.vars.len()).unwrap_or(u32::MAX));
    for (name, value) in &env.vars {
        put_str(out, name);
        put_value(out, value);
    }
    put_u32(out, u32::try_from(env.attrs.len()).unwrap_or(u32::MAX));
    for (obj, prop, value) in &env.attrs {
        put_str(out, &obj.class);
        put_u64(out, obj.id);
        put_str(out, prop);
        put_value(out, value);
    }
}

fn read_env(r: &mut Reader<'_>) -> Result<EnvSnapshot, DecodeError> {
    let var_count = r.u32()? as usize;
    if var_count > r.bytes.len().saturating_sub(r.pos) {
        return Err(DecodeError::new("variable count exceeds payload"));
    }
    let mut vars = Vec::with_capacity(var_count);
    for _ in 0..var_count {
        let name = r.str()?;
        let value = read_value(r)?;
        vars.push((name, value));
    }
    let attr_count = r.u32()? as usize;
    if attr_count > r.bytes.len().saturating_sub(r.pos) {
        return Err(DecodeError::new("attribute count exceeds payload"));
    }
    let mut attrs = Vec::with_capacity(attr_count);
    for _ in 0..attr_count {
        let class = r.str()?;
        let id = r.u64()?;
        let prop = r.str()?;
        let value = read_value(r)?;
        attrs.push((ObjRef::new(class, id), prop, value));
    }
    Ok(EnvSnapshot { vars, attrs })
}

// ---------------------------------------------------------------------
// Verdict / context / record codec
// ---------------------------------------------------------------------

fn put_verdict(out: &mut Vec<u8>, verdict: &VerdictCode) {
    match verdict {
        VerdictCode::Pass => put_u8(out, 0),
        VerdictCode::NotModelled => put_u8(out, 1),
        VerdictCode::PreBlocked => put_u8(out, 2),
        VerdictCode::WrongAcceptance => put_u8(out, 3),
        VerdictCode::WrongDenial => put_u8(out, 4),
        VerdictCode::PostViolation => put_u8(out, 5),
        VerdictCode::WrongStatus { expected, actual } => {
            put_u8(out, 6);
            put_u16(out, *expected);
            put_u16(out, *actual);
        }
        VerdictCode::ContractError => put_u8(out, 7),
        VerdictCode::Degraded => put_u8(out, 8),
        VerdictCode::Drift => put_u8(out, 9),
    }
}

fn read_verdict(r: &mut Reader<'_>, version: u8) -> Result<VerdictCode, DecodeError> {
    Ok(match r.u8()? {
        0 => VerdictCode::Pass,
        1 => VerdictCode::NotModelled,
        2 => VerdictCode::PreBlocked,
        3 => VerdictCode::WrongAcceptance,
        4 => VerdictCode::WrongDenial,
        5 => VerdictCode::PostViolation,
        6 => VerdictCode::WrongStatus {
            expected: r.u16()?,
            actual: r.u16()?,
        },
        7 => VerdictCode::ContractError,
        8 => VerdictCode::Degraded,
        9 if version >= 2 => VerdictCode::Drift,
        t => return Err(DecodeError::new(format!("bad verdict tag {t}"))),
    })
}

fn put_opt_u16(out: &mut Vec<u8>, v: Option<u16>) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            put_u16(out, v);
        }
    }
}

fn read_opt_u16(r: &mut Reader<'_>) -> Result<Option<u16>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u16()?)),
        t => Err(DecodeError::new(format!("bad option tag {t}"))),
    }
}

fn put_context(out: &mut Vec<u8>, context: &ReplayContext) {
    match context {
        ReplayContext::Unmodelled => put_u8(out, 0),
        ReplayContext::MethodNotAllowed {
            enforced,
            cloud_status,
        } => {
            put_u8(out, 1);
            put_u8(out, u8::from(*enforced));
            put_opt_u16(out, *cloud_status);
        }
        ReplayContext::BadTarget => put_u8(out, 2),
        ReplayContext::DegradedPre { forwarded, faults } => {
            put_u8(out, 3);
            put_u8(out, u8::from(*forwarded));
            put_strs(out, faults);
        }
        ReplayContext::DegradedForward => put_u8(out, 4),
        ReplayContext::Checked {
            pre_env,
            post_env,
            post_partial,
            probe_denials,
            forwarded,
            cloud_status,
            provenance,
        } => {
            put_u8(out, 5);
            put_env(out, pre_env);
            match post_env {
                None => put_u8(out, 0),
                Some(env) => {
                    put_u8(out, 1);
                    put_env(out, env);
                }
            }
            put_u8(out, u8::from(*post_partial));
            put_strs(out, probe_denials);
            put_u8(out, u8::from(*forwarded));
            put_opt_u16(out, *cloud_status);
            put_u8(out, provenance.tag());
        }
        ReplayContext::Drift { attributes } => {
            put_u8(out, 6);
            put_strs(out, attributes);
        }
    }
}

fn read_context(r: &mut Reader<'_>, version: u8) -> Result<ReplayContext, DecodeError> {
    Ok(match r.u8()? {
        0 => ReplayContext::Unmodelled,
        1 => ReplayContext::MethodNotAllowed {
            enforced: r.u8()? != 0,
            cloud_status: read_opt_u16(r)?,
        },
        2 => ReplayContext::BadTarget,
        3 => ReplayContext::DegradedPre {
            forwarded: r.u8()? != 0,
            faults: r.strs()?,
        },
        4 => ReplayContext::DegradedForward,
        5 => {
            let pre_env = read_env(r)?;
            let post_env = match r.u8()? {
                0 => None,
                1 => Some(read_env(r)?),
                t => return Err(DecodeError::new(format!("bad option tag {t}"))),
            };
            let post_partial = r.u8()? != 0;
            let probe_denials = r.strs()?;
            let forwarded = r.u8()? != 0;
            let cloud_status = read_opt_u16(r)?;
            // Version 1 predates the provenance byte: every checked
            // record was probe-observed.
            let provenance = if version >= 2 {
                match r.u8()? {
                    0 => EnvProvenance::Probe,
                    1 => EnvProvenance::Replica,
                    t => return Err(DecodeError::new(format!("bad provenance tag {t}"))),
                }
            } else {
                EnvProvenance::Probe
            };
            ReplayContext::Checked {
                pre_env,
                post_env,
                post_partial,
                probe_denials,
                forwarded,
                cloud_status,
                provenance,
            }
        }
        6 if version >= 2 => ReplayContext::Drift {
            attributes: r.strs()?,
        },
        t => return Err(DecodeError::new(format!("bad context tag {t}"))),
    })
}

/// Encode one record as a versioned payload (no frame).
#[must_use]
pub fn encode_record(record: &AuditRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_u8(&mut out, RECORD_VERSION);
    put_u64(&mut out, record.seq);
    put_u64(&mut out, record.ts_nanos);
    put_str(&mut out, &record.method);
    put_str(&mut out, &record.path);
    put_opt_str(&mut out, record.route.as_deref());
    match &record.trigger {
        None => put_u8(&mut out, 0),
        Some((method, resource)) => {
            put_u8(&mut out, 1);
            put_str(&mut out, method);
            put_str(&mut out, resource);
        }
    }
    put_u8(&mut out, record.mode.tag());
    put_str(&mut out, &record.degraded_policy);
    put_verdict(&mut out, &record.verdict);
    put_strs(&mut out, &record.requirements);
    put_u16(&mut out, record.status);
    put_str(&mut out, &record.diagnostics);
    put_context(&mut out, &record.context);
    out
}

/// Decode one payload produced by [`encode_record`].
///
/// # Errors
///
/// [`DecodeError`] on any malformed, truncated, or trailing bytes —
/// recovery treats that as the torn tail.
pub fn decode_record(payload: &[u8]) -> Result<AuditRecord, DecodeError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if !(MIN_RECORD_VERSION..=RECORD_VERSION).contains(&version) {
        return Err(DecodeError::new(format!(
            "unsupported record version {version}"
        )));
    }
    let seq = r.u64()?;
    let ts_nanos = r.u64()?;
    let method = r.str()?;
    let path = r.str()?;
    let route = r.opt_str()?;
    let trigger = match r.u8()? {
        0 => None,
        1 => Some((r.str()?, r.str()?)),
        t => return Err(DecodeError::new(format!("bad option tag {t}"))),
    };
    let mode = match r.u8()? {
        0 => MonitorMode::Enforce,
        1 => MonitorMode::Observe,
        t => return Err(DecodeError::new(format!("bad mode tag {t}"))),
    };
    let degraded_policy = r.str()?;
    let verdict = read_verdict(&mut r, version)?;
    let requirements = r.strs()?;
    let status = r.u16()?;
    let diagnostics = r.str()?;
    let context = read_context(&mut r, version)?;
    r.done()?;
    Ok(AuditRecord {
        seq,
        ts_nanos,
        method,
        path,
        route,
        trigger,
        mode,
        degraded_policy,
        verdict,
        requirements,
        status,
        diagnostics,
        context,
    })
}

/// Append `payload` to `out` as a CRC frame:
/// `len: u32 LE | crc32(payload): u32 LE | payload`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why a frame scan stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEnd {
    /// Clean end exactly at the end of input.
    Clean,
    /// Input ended inside a header or payload (torn write).
    Torn,
    /// The length header exceeds [`MAX_PAYLOAD`] (corruption).
    BadLength,
    /// The payload's checksum did not match (corruption / bit flip).
    BadChecksum,
}

/// Parse the next frame starting at `bytes[offset..]`.
///
/// Returns `Ok((payload, next_offset))` or the [`FrameEnd`] that stops
/// the scan at `offset` — the last good byte of the log.
pub fn next_frame(bytes: &[u8], offset: usize) -> Result<(&[u8], usize), FrameEnd> {
    let rest = match bytes.get(offset..) {
        Some(rest) => rest,
        None => return Err(FrameEnd::Torn),
    };
    if rest.is_empty() {
        return Err(FrameEnd::Clean);
    }
    if rest.len() < FRAME_HEADER {
        return Err(FrameEnd::Torn);
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(FrameEnd::BadLength);
    }
    let expected_crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let end = FRAME_HEADER + len as usize;
    if rest.len() < end {
        return Err(FrameEnd::Torn);
    }
    let payload = &rest[FRAME_HEADER..end];
    if crc32(payload) != expected_crc {
        return Err(FrameEnd::BadChecksum);
    }
    Ok((payload, offset + end))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record(i: u64) -> AuditRecord {
        let mut nav = MapNavigator::new();
        nav.set_variable("project", Value::Obj(ObjRef::new("Project", i)));
        nav.set_attribute(
            ObjRef::new("Project", i),
            "volumes",
            Value::set(vec![Value::Obj(ObjRef::new("Volume", i + 1))]),
        );
        nav.set_attribute(ObjRef::new("Volume", i + 1), "size", Value::Int(5));
        AuditRecord {
            seq: i,
            ts_nanos: 1_700_000_000_000_000_000 + i,
            method: "DELETE".into(),
            path: format!("/v3/1/volumes/{i}"),
            route: Some("/v3/{project_id}/volumes/{volume_id}".into()),
            trigger: Some(("DELETE".into(), "volume".into())),
            mode: MonitorMode::Observe,
            degraded_policy: "fail-closed".into(),
            verdict: if i.is_multiple_of(3) {
                VerdictCode::Pass
            } else {
                VerdictCode::WrongStatus {
                    expected: 204,
                    actual: 200,
                }
            },
            requirements: vec!["1.4".into(), "2.1".into()],
            status: 204,
            diagnostics: "state: Created".into(),
            context: ReplayContext::Checked {
                pre_env: EnvSnapshot::capture(&nav),
                post_env: (i.is_multiple_of(2)).then(|| EnvSnapshot::capture(&nav)),
                post_partial: false,
                probe_denials: Vec::new(),
                forwarded: true,
                cloud_status: Some(204),
                provenance: if i.is_multiple_of(2) {
                    EnvProvenance::Probe
                } else {
                    EnvProvenance::Replica
                },
            },
        }
    }

    #[test]
    fn record_round_trips() {
        for i in 0..8 {
            let record = sample_record(i);
            let bytes = encode_record(&record);
            let decoded = decode_record(&bytes).unwrap();
            assert_eq!(decoded, record);
            // Byte-identical re-encoding.
            assert_eq!(encode_record(&decoded), bytes);
        }
    }

    #[test]
    fn every_context_variant_round_trips() {
        let contexts = vec![
            ReplayContext::Unmodelled,
            ReplayContext::MethodNotAllowed {
                enforced: false,
                cloud_status: Some(200),
            },
            ReplayContext::BadTarget,
            ReplayContext::DegradedPre {
                forwarded: true,
                faults: vec!["GET /v3/1 -> 504 (deadline)".into()],
            },
            ReplayContext::DegradedForward,
            ReplayContext::Drift {
                attributes: vec!["volume.size".into(), "project.volumes".into()],
            },
        ];
        for context in contexts {
            let mut record = sample_record(1);
            record.context = context;
            let bytes = encode_record(&record);
            assert_eq!(decode_record(&bytes).unwrap(), record);
        }
    }

    #[test]
    fn drift_verdict_round_trips_and_is_not_a_violation() {
        let mut record = sample_record(4);
        record.verdict = VerdictCode::Drift;
        record.context = ReplayContext::Drift {
            attributes: vec!["volume.status".into()],
        };
        assert_eq!(record.verdict.label(), "drift");
        assert!(!record.verdict.is_violation());
        let bytes = encode_record(&record);
        let decoded = decode_record(&bytes).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(encode_record(&decoded), bytes);
    }

    /// Hand-encode a version-1 payload (no provenance byte, no Drift
    /// tags) with the in-file putters and assert it still decodes, with
    /// provenance defaulting to `Probe`.
    #[test]
    fn version_one_payloads_still_decode() {
        let record = sample_record(6); // even i -> Probe provenance
        let (pre_env, post_env, post_partial, probe_denials, forwarded, cloud_status) =
            match &record.context {
                ReplayContext::Checked {
                    pre_env,
                    post_env,
                    post_partial,
                    probe_denials,
                    forwarded,
                    cloud_status,
                    ..
                } => (
                    pre_env,
                    post_env,
                    *post_partial,
                    probe_denials,
                    *forwarded,
                    *cloud_status,
                ),
                other => panic!("sample_record changed shape: {other:?}"),
            };
        let mut v1 = Vec::new();
        put_u8(&mut v1, 1); // version 1
        put_u64(&mut v1, record.seq);
        put_u64(&mut v1, record.ts_nanos);
        put_str(&mut v1, &record.method);
        put_str(&mut v1, &record.path);
        put_opt_str(&mut v1, record.route.as_deref());
        let (tm, tr) = record.trigger.as_ref().unwrap();
        put_u8(&mut v1, 1);
        put_str(&mut v1, tm);
        put_str(&mut v1, tr);
        put_u8(&mut v1, record.mode.tag());
        put_str(&mut v1, &record.degraded_policy);
        put_verdict(&mut v1, &record.verdict);
        put_strs(&mut v1, &record.requirements);
        put_u16(&mut v1, record.status);
        put_str(&mut v1, &record.diagnostics);
        // Version-1 Checked context: ends at cloud_status.
        put_u8(&mut v1, 5);
        put_env(&mut v1, pre_env);
        match post_env {
            None => put_u8(&mut v1, 0),
            Some(env) => {
                put_u8(&mut v1, 1);
                put_env(&mut v1, env);
            }
        }
        put_u8(&mut v1, u8::from(post_partial));
        put_strs(&mut v1, probe_denials);
        put_u8(&mut v1, u8::from(forwarded));
        put_opt_u16(&mut v1, cloud_status);

        let decoded = decode_record(&v1).unwrap();
        assert_eq!(decoded, record);

        // Version-1 payloads must reject version-2-only tags: a Drift
        // verdict tag (9) is a codec error under version 1.
        let mut bad = v1.clone();
        // The verdict tag for sample_record(6) is Pass (0), one byte.
        // Rather than hunt the offset, re-encode with the Drift tag.
        let mut record9 = record.clone();
        record9.verdict = VerdictCode::Drift;
        let mut v1_drift = encode_record(&record9);
        v1_drift[0] = 1; // claim version 1
        assert!(decode_record(&v1_drift).is_err());
        bad[0] = 3; // unknown future version
        assert!(decode_record(&bad).is_err());
    }

    #[test]
    fn env_snapshot_capture_is_sorted_and_rebuilds() {
        let mut nav = MapNavigator::new();
        nav.set_variable("zeta", Value::Int(1));
        nav.set_variable("alpha", Value::Bool(true));
        nav.set_attribute(ObjRef::new("B", 2), "y", Value::Int(2));
        nav.set_attribute(ObjRef::new("A", 9), "x", Value::Undefined);
        let env = EnvSnapshot::capture(&nav);
        assert_eq!(env.vars[0].0, "alpha");
        assert_eq!(&*env.attrs[0].0.class, "A");
        let rebuilt = env.to_navigator();
        assert_eq!(rebuilt, nav);
        // Deterministic: capturing twice encodes identically.
        let mut a = Vec::new();
        let mut b = Vec::new();
        put_env(&mut a, &env);
        put_env(&mut b, &EnvSnapshot::capture(&nav));
        assert_eq!(a, b);
    }

    #[test]
    fn frame_scan_stops_at_corruption() {
        let mut bytes = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..3).map(|i| encode_record(&sample_record(i))).collect();
        for p in &payloads {
            encode_frame(p, &mut bytes);
        }
        // Clean scan sees all three.
        let mut offset = 0;
        let mut seen = 0;
        loop {
            match next_frame(&bytes, offset) {
                Ok((payload, next)) => {
                    assert_eq!(payload, payloads[seen].as_slice());
                    seen += 1;
                    offset = next;
                }
                Err(end) => {
                    assert_eq!(end, FrameEnd::Clean);
                    break;
                }
            }
        }
        assert_eq!(seen, 3);

        // A bit flip in the middle frame stops the scan there.
        let first_len = FRAME_HEADER + payloads[0].len();
        let mut flipped = bytes.clone();
        flipped[first_len + FRAME_HEADER + 3] ^= 0x40;
        let (_, after_first) = next_frame(&flipped, 0).unwrap();
        assert_eq!(
            next_frame(&flipped, after_first),
            Err(FrameEnd::BadChecksum)
        );

        // Truncation mid-payload is a torn tail.
        let torn = &bytes[..first_len + 5];
        assert_eq!(next_frame(torn, first_len), Err(FrameEnd::Torn));

        // An absurd length header is rejected before allocation.
        let mut bad_len = bytes.clone();
        bad_len[first_len..first_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(next_frame(&bad_len, first_len), Err(FrameEnd::BadLength));
    }

    #[test]
    fn decode_rejects_trailing_and_truncated() {
        let record = sample_record(2);
        let mut bytes = encode_record(&record);
        bytes.push(0);
        assert!(decode_record(&bytes).is_err());
        bytes.pop();
        bytes.truncate(bytes.len() - 1);
        assert!(decode_record(&bytes).is_err());
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[99]).is_err());
    }
}
