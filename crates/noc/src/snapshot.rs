//! Crash-safe checkpoint/restore: versioned, checksummed serialization of
//! the complete simulator state with bit-identical resume.
//!
//! # Format
//!
//! A snapshot file is `magic ‖ crc64 ‖ body` where the body is
//! `version ‖ config_hash ‖ cycle ‖ payload ‖ user_data`. The CRC-64
//! (ECMA-182, reflected — the CRC-64/XZ parameterisation) covers the
//! entire body and is verified *before* the version field is even looked
//! at, so any bit flip or truncation anywhere in the file surfaces as
//! [`SnapshotError::Corrupt`] rather than a bogus version diagnosis. A
//! CRC-clean body whose version differs from [`SNAPSHOT_VERSION`] is
//! rejected with [`SnapshotError::VersionMismatch`]; the payload encoding
//! is only ever interpreted under its own version.
//!
//! # Exactness
//!
//! The payload serialises every field of [`Simulator`] that influences
//! future cycles: router pipeline state (input VCs, detectors, descramble
//! holding areas, arbiter pointers, crossbar moves), output retransmission
//! buffers with credit and L-Ob state, link word-caches and in-flight
//! wires, per-link fault layers including trojan runtime and RNG streams,
//! quarantine and watchdog state, statistics, events, metrics, and the
//! trace ring. A restored simulator therefore continues bit-identically —
//! same golden fingerprints, same trace stream, same stats — at every
//! thread count (the parallel engine is stateless between cycles and is
//! re-planned after restore).
//!
//! Deliberately *not* serialised: the attached [`crate::trace::TraceSink`]
//! (an open file handle cannot be checkpointed — restore preserves the
//! simulator's current sink, or leaves none), and transient per-cycle
//! scratch buffers, which are empty at every cycle boundary.
//!
//! # Atomicity and rotation
//!
//! [`SimSnapshot::write_atomic`] writes to a temporary sibling, fsyncs,
//! and renames into place, so a crash mid-write never leaves a truncated
//! file under the final name. [`Checkpointer`] keeps a rotation of the K
//! most recent checkpoints and, on load, falls back across the rotation
//! past any file that fails validation.

use crate::config::{SimConfig, TraceConfig};
use crate::error::SimError;
use crate::input::{DelayedEntry, InputUnit, PendingScramble, VcState};
use crate::invariants::Violation;
use crate::message::{AckKind, AckMsg, LinkFlit, ObfWire, SimEvent, TraceEvent, TraceOutcome};
use crate::output::{OutputUnit, RetxEntry, SlotState};
use crate::router::{Router, StMove};
use crate::routing::{RouteTables, Routing};
use crate::sim::Simulator;
use crate::stats::{SimStats, Snapshot as StatsSnapshot};
use crate::trace::{Record, TraceRecorder};
use crate::watchdog::{StallKind, StallReport};
use noc_ecc::Codeword;
use noc_mitigation::{DetectorState, FaultClass, FaultRecordState, LobPlan};
use noc_trojan::{FieldMatch, TargetSpec, TaspConfig, TaspHt, TaspState, TaspStats};
use noc_types::{Direction, Flit, FlitId, FlitKind, Header, LinkId, NodeId, PacketId, Port, VcId};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// Version of the snapshot payload encoding this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;

/// File magic: identifies a snapshot before any other byte is trusted.
const MAGIC: [u8; 8] = *b"NOCSNAP\0";

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a snapshot could not be loaded or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes fail structural validation: bad magic, CRC mismatch,
    /// truncation, trailing garbage, or an impossible field value.
    Corrupt(String),
    /// The CRC-clean file was written by a different payload version.
    VersionMismatch {
        /// Version recorded in the file.
        found: u32,
        /// Version this build understands ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The snapshot was taken under a different simulator configuration
    /// (config hashes differ — restoring would silently corrupt state).
    ConfigMismatch {
        /// Config hash recorded in the snapshot.
        found: u64,
        /// Config hash of the simulator being restored.
        expected: u64,
    },
    /// An I/O error while reading or writing the snapshot file.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found}, this build reads {expected}")
            }
            SnapshotError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot config hash {found:#018x} != simulator config hash {expected:#018x}"
            ),
            SnapshotError::Io(what) => write!(f, "snapshot io: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------
// Byte cursors (shared with traffic-source cursor implementations)
// ---------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u128`.
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a bool as one byte (0 or 1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Append an `f64` as its IEEE-754 bit pattern (exact round trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Take a `u8` off the front of `input`, advancing it.
pub fn take_u8(input: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = input.split_first()?;
    *input = rest;
    Some(b)
}

/// Take a little-endian `u16`.
pub fn take_u16(input: &mut &[u8]) -> Option<u16> {
    let (head, rest) = input.split_at_checked(2)?;
    *input = rest;
    Some(u16::from_le_bytes(head.try_into().ok()?))
}

/// Take a little-endian `u32`.
pub fn take_u32(input: &mut &[u8]) -> Option<u32> {
    let (head, rest) = input.split_at_checked(4)?;
    *input = rest;
    Some(u32::from_le_bytes(head.try_into().ok()?))
}

/// Take a little-endian `u64`.
pub fn take_u64(input: &mut &[u8]) -> Option<u64> {
    let (head, rest) = input.split_at_checked(8)?;
    *input = rest;
    Some(u64::from_le_bytes(head.try_into().ok()?))
}

/// Take a little-endian `u128`.
pub fn take_u128(input: &mut &[u8]) -> Option<u128> {
    let (head, rest) = input.split_at_checked(16)?;
    *input = rest;
    Some(u128::from_le_bytes(head.try_into().ok()?))
}

/// Take a bool (rejects bytes other than 0/1).
pub fn take_bool(input: &mut &[u8]) -> Option<bool> {
    match take_u8(input)? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// Take an `f64` from its bit pattern.
pub fn take_f64(input: &mut &[u8]) -> Option<f64> {
    take_u64(input).map(f64::from_bits)
}

/// Take a length-prefixed byte string.
pub fn take_bytes(input: &mut &[u8]) -> Option<Vec<u8>> {
    let len = take_u64(input)? as usize;
    let (head, rest) = input.split_at_checked(len)?;
    *input = rest;
    Some(head.to_vec())
}

/// Take a length-prefixed UTF-8 string.
pub fn take_str(input: &mut &[u8]) -> Option<String> {
    String::from_utf8(take_bytes(input)?).ok()
}

/// Cursor over a payload that converts underruns and malformed values
/// into [`SnapshotError::Corrupt`].
struct Reader<'a> {
    buf: &'a [u8],
}

macro_rules! reader_take {
    ($name:ident, $ty:ty, $take:ident) => {
        fn $name(&mut self) -> Result<$ty, SnapshotError> {
            $take(&mut self.buf).ok_or_else(|| {
                SnapshotError::Corrupt(concat!("short read: ", stringify!($name)).into())
            })
        }
    };
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    reader_take!(u8, u8, take_u8);
    reader_take!(u16, u16, take_u16);
    reader_take!(u32, u32, take_u32);
    reader_take!(u64, u64, take_u64);
    reader_take!(u128, u128, take_u128);
    reader_take!(bool, bool, take_bool);
    reader_take!(f64, f64, take_f64);
    reader_take!(bytes, Vec<u8>, take_bytes);
    reader_take!(str, String, take_str);

    fn len(&mut self) -> Result<usize, SnapshotError> {
        Ok(self.u64()? as usize)
    }

    /// Present/absent flag for `Option` fields.
    fn flag(&mut self) -> Result<bool, SnapshotError> {
        self.bool()
    }

    /// Reject trailing bytes once decoding claims to be done.
    fn finish(&self) -> Result<(), SnapshotError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing payload bytes",
                self.buf.len()
            )))
        }
    }
}

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(what.into())
}

// ---------------------------------------------------------------------
// Hashes
// ---------------------------------------------------------------------

/// FNV-1a 64-bit hash (the repo's golden-fingerprint hash).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of a simulator configuration, for snapshot compatibility checks.
///
/// The thread count is masked out first: it selects an execution strategy,
/// not a semantic configuration — a snapshot taken at 8 threads restores
/// bit-identically at 1, and vice versa.
pub fn config_hash(cfg: &SimConfig) -> u64 {
    let mut c = cfg.clone();
    c.threads = None;
    fnv64(format!("{c:?}").as_bytes())
}

const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slice-by-8 lookup tables: `tables[0]` is the classic byte-at-a-time
/// table; `tables[k]` advances a byte through `k` further zero bytes so
/// eight input bytes fold into the CRC with eight independent lookups.
const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

/// CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout all-ones),
/// slice-by-8: checksumming must stay a rounding error next to the
/// simulation itself (the bench gate bounds checkpointing at < 1% of
/// sim time), and the byte-at-a-time loop was the dominant cost of
/// `SimSnapshot::to_bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let v = crc ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        crc = CRC64_TABLES[7][(v & 0xff) as usize]
            ^ CRC64_TABLES[6][((v >> 8) & 0xff) as usize]
            ^ CRC64_TABLES[5][((v >> 16) & 0xff) as usize]
            ^ CRC64_TABLES[4][((v >> 24) & 0xff) as usize]
            ^ CRC64_TABLES[3][((v >> 32) & 0xff) as usize]
            ^ CRC64_TABLES[2][((v >> 40) & 0xff) as usize]
            ^ CRC64_TABLES[1][((v >> 48) & 0xff) as usize]
            ^ CRC64_TABLES[0][(v >> 56) as usize];
    }
    for &b in chunks.remainder() {
        crc = CRC64_TABLES[0][((crc ^ b as u64) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------
// SimSnapshot
// ---------------------------------------------------------------------

/// A complete simulator state capture.
///
/// Produced by [`Simulator::snapshot`], consumed by
/// [`Simulator::restore`]. The `user_data` section is an opaque blob for
/// the campaign/fuzz drivers (traffic-source cursors, progress records);
/// the simulator itself never interprets it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSnapshot {
    pub(crate) payload: Vec<u8>,
    pub(crate) config_hash: u64,
    pub(crate) cycle: u64,
    pub(crate) user_data: Vec<u8>,
}

impl SimSnapshot {
    /// Simulation cycle the snapshot was taken at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Hash of the configuration the snapshot was taken under.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// The driver-owned opaque section.
    pub fn user_data(&self) -> &[u8] {
        &self.user_data
    }

    /// The encoded simulator state. Two snapshots of bit-identical
    /// simulators have equal payloads, which is what the determinism
    /// tests compare.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Replace the driver-owned opaque section (traffic cursors, progress
    /// bookkeeping — anything the *driver* needs to resume alongside the
    /// simulator).
    pub fn set_user_data(&mut self, data: Vec<u8>) {
        self.user_data = data;
    }

    /// Serialise to the on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.payload.len() + self.user_data.len() + 64);
        put_u32(&mut body, SNAPSHOT_VERSION);
        put_u64(&mut body, self.config_hash);
        put_u64(&mut body, self.cycle);
        put_bytes(&mut body, &self.payload);
        put_bytes(&mut body, &self.user_data);
        let mut out = Vec::with_capacity(body.len() + 16);
        out.extend_from_slice(&MAGIC);
        put_u64(&mut out, crc64(&body));
        out.extend_from_slice(&body);
        out
    }

    /// Parse the on-disk format. The CRC is verified before anything else
    /// is interpreted: any flip or truncation anywhere in the file is
    /// [`SnapshotError::Corrupt`], and only a CRC-clean body can be
    /// diagnosed as a version mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(corrupt("file shorter than header"));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let mut header = &bytes[MAGIC.len()..MAGIC.len() + 8];
        let stored = take_u64(&mut header).expect("8 bytes sliced");
        let body = &bytes[MAGIC.len() + 8..];
        let computed = crc64(body);
        if stored != computed {
            return Err(corrupt(format!(
                "crc mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let mut r = Reader::new(body);
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let config_hash = r.u64()?;
        let cycle = r.u64()?;
        let payload = r.bytes()?;
        let user_data = r.bytes()?;
        r.finish()?;
        Ok(Self {
            payload,
            config_hash,
            cycle,
            user_data,
        })
    }

    /// Write atomically: temp sibling → `sync_all` → rename, plus a
    /// best-effort fsync of the parent directory, so a crash at any point
    /// leaves either the previous file or the complete new one.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
        let tmp = path.with_extension("tmp");
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp).map_err(io)?;
            f.write_all(&self.to_bytes()).map_err(io)?;
            f.sync_all().map_err(io)?;
        }
        std::fs::rename(&tmp, path).map_err(io)?;
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Read and validate a snapshot file.
    pub fn read(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------
// Checkpointer
// ---------------------------------------------------------------------

/// Rotating on-disk checkpoint store: keeps the `keep` most recent
/// `ckpt-<cycle>.snap` files in a directory and loads the newest one that
/// validates, falling back across the rotation past corrupt files.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
    keep: usize,
}

impl Checkpointer {
    /// A checkpointer writing into `dir`, keeping the `keep` (≥ 1) most
    /// recent checkpoints.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        Self {
            dir: dir.into(),
            keep: keep.max(1),
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write `snap` as `ckpt-<cycle>.snap` (atomically) and prune the
    /// oldest checkpoints beyond the rotation size. Returns the path
    /// written.
    pub fn save(&self, snap: &SimSnapshot) -> Result<PathBuf, SnapshotError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", self.dir.display())))?;
        let path = self.dir.join(format!("ckpt-{:012}.snap", snap.cycle()));
        snap.write_atomic(&path)?;
        let mut files = self.checkpoint_files()?;
        files.sort();
        while files.len() > self.keep {
            let victim = files.remove(0);
            let _ = std::fs::remove_file(victim);
        }
        Ok(path)
    }

    /// Load the most recent checkpoint that validates. Skips (but leaves
    /// in place) any file that fails CRC/version/parse checks — the
    /// fallback rotation. Returns `Ok(None)` when the directory is
    /// missing or holds no valid checkpoint.
    pub fn load_latest(&self) -> Result<Option<(PathBuf, SimSnapshot)>, SnapshotError> {
        let mut files = match self.checkpoint_files() {
            Ok(files) => files,
            Err(_) if !self.dir.exists() => return Ok(None),
            Err(e) => return Err(e),
        };
        files.sort();
        for path in files.into_iter().rev() {
            if let Ok(snap) = SimSnapshot::read(&path) {
                return Ok(Some((path, snap)));
            }
        }
        Ok(None)
    }

    fn checkpoint_files(&self) -> Result<Vec<PathBuf>, SnapshotError> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", self.dir.display())))?;
        let mut files = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("ckpt-") && name.ends_with(".snap") {
                files.push(path);
            }
        }
        // Zero-padded cycle numbers make lexicographic order the cycle
        // order: the last entry is always the newest checkpoint.
        files.sort();
        Ok(files)
    }
}

// ---------------------------------------------------------------------
// StallReport codec (post-mortem user_data for campaign drivers)
// ---------------------------------------------------------------------

/// Append a [`StallReport`] to `out` in the snapshot byte format (the
/// campaign driver stores stall diagnoses in snapshot `user_data`).
pub fn encode_stall_report(out: &mut Vec<u8>, report: &StallReport) {
    put_u64(out, report.cycle);
    match report.kind {
        StallKind::GlobalDeadlock { idle_cycles } => {
            put_u8(out, 0);
            put_u64(out, idle_cycles);
        }
        StallKind::CreditStall {
            router,
            dir,
            oldest_age,
        } => {
            put_u8(out, 1);
            put_u16(out, router.0);
            put_u8(out, dir.index() as u8);
            put_u64(out, oldest_age);
        }
        StallKind::RetxLivelock {
            router,
            dir,
            flit,
            attempts,
        } => {
            put_u8(out, 2);
            put_u16(out, router.0);
            put_u8(out, dir.index() as u8);
            put_u64(out, flit.0);
            put_u32(out, attempts);
        }
    }
    put_u64(out, report.resident_flits as u64);
    put_u64(out, report.queued_flits as u64);
    put_u64(out, report.delivered_flits);
}

/// Take a [`StallReport`] off the front of `input` (inverse of
/// [`encode_stall_report`]). `None` on any malformed byte.
pub fn decode_stall_report(input: &mut &[u8]) -> Option<StallReport> {
    let cycle = take_u64(input)?;
    let kind = match take_u8(input)? {
        0 => StallKind::GlobalDeadlock {
            idle_cycles: take_u64(input)?,
        },
        1 => StallKind::CreditStall {
            router: NodeId(take_u16(input)?),
            dir: direction_from_u8(take_u8(input)?)?,
            oldest_age: take_u64(input)?,
        },
        2 => StallKind::RetxLivelock {
            router: NodeId(take_u16(input)?),
            dir: direction_from_u8(take_u8(input)?)?,
            flit: FlitId(take_u64(input)?),
            attempts: take_u32(input)?,
        },
        _ => return None,
    };
    Some(StallReport {
        cycle,
        kind,
        resident_flits: take_u64(input)? as usize,
        queued_flits: take_u64(input)? as usize,
        delivered_flits: take_u64(input)?,
        // Wall-clock telemetry is not simulation state: a restored run
        // re-arms (or not) its own telemetry plane.
        heartbeat: None,
    })
}

fn direction_from_u8(i: u8) -> Option<Direction> {
    Direction::ALL.get(i as usize).copied()
}

// ---------------------------------------------------------------------
// Payload codec: leaf encoders
// ---------------------------------------------------------------------

fn put_header_fields(out: &mut Vec<u8>, h: &Header) {
    // Field-by-field, not `Header::pack()`: the packed wire form aliases
    // coordinates mod 16 and would not round-trip large meshes.
    put_u16(out, h.src.0);
    put_u16(out, h.dest.0);
    put_u8(out, h.vc.0);
    put_u32(out, h.mem_addr);
    put_u8(out, h.thread);
    put_u8(out, h.len);
}

fn flit_kind_tag(kind: FlitKind) -> u8 {
    match kind {
        FlitKind::Head => 0,
        FlitKind::Body => 1,
        FlitKind::Tail => 2,
        FlitKind::Single => 3,
    }
}

fn put_flit(out: &mut Vec<u8>, f: &Flit) {
    put_u64(out, f.id.0);
    put_u64(out, f.packet.0);
    put_u8(out, flit_kind_tag(f.kind));
    put_u8(out, f.seq);
    put_header_fields(out, &f.header);
    put_u64(out, f.word);
}

fn put_plan(out: &mut Vec<u8>, plan: &LobPlan) {
    put_str(out, &plan.label());
}

fn put_opt_plan(out: &mut Vec<u8>, plan: Option<LobPlan>) {
    match plan {
        None => put_bool(out, false),
        Some(p) => {
            put_bool(out, true);
            put_plan(out, &p);
        }
    }
}

fn put_obf_wire(out: &mut Vec<u8>, o: &ObfWire) {
    put_plan(out, &o.plan);
    put_u32(out, o.attempt);
    match o.partner {
        None => put_bool(out, false),
        Some(p) => {
            put_bool(out, true);
            put_u64(out, p.0);
        }
    }
}

fn put_opt_obf(out: &mut Vec<u8>, o: Option<&ObfWire>) {
    match o {
        None => put_bool(out, false),
        Some(w) => {
            put_bool(out, true);
            put_obf_wire(out, w);
        }
    }
}

fn fault_class_tag(class: FaultClass) -> u8 {
    match class {
        FaultClass::None => 0,
        FaultClass::Transient => 1,
        FaultClass::Permanent => 2,
        FaultClass::HardwareTrojan => 3,
    }
}

fn put_stall_kind_fields(out: &mut Vec<u8>, report: &StallReport) {
    encode_stall_report(out, report);
}

fn put_sim_event(out: &mut Vec<u8>, e: &SimEvent) {
    match e {
        SimEvent::PacketDelivered {
            packet,
            src,
            dest,
            injected_at,
            delivered_at,
        } => {
            put_u8(out, 0);
            put_u64(out, packet.0);
            put_u16(out, src.0);
            put_u16(out, dest.0);
            put_u64(out, *injected_at);
            put_u64(out, *delivered_at);
        }
        SimEvent::BistRan {
            link,
            passed,
            cycle,
        } => {
            put_u8(out, 1);
            put_u16(out, link.0);
            put_bool(out, *passed);
            put_u64(out, *cycle);
        }
        SimEvent::LinkClassified { link, class, cycle } => {
            put_u8(out, 2);
            put_u16(out, link.0);
            put_u8(out, fault_class_tag(*class));
            put_u64(out, *cycle);
        }
        SimEvent::ObfuscationSucceeded { link, plan, cycle } => {
            put_u8(out, 3);
            put_u16(out, link.0);
            put_plan(out, plan);
            put_u64(out, *cycle);
        }
        SimEvent::RetryBudgetEscalated {
            link,
            flit,
            attempts,
            cycle,
        } => {
            put_u8(out, 4);
            put_u16(out, link.0);
            put_u64(out, flit.0);
            put_u32(out, *attempts);
            put_u64(out, *cycle);
        }
        SimEvent::LinkQuarantined {
            link,
            dropped_packets,
            dropped_flits,
            cycle,
        } => {
            put_u8(out, 5);
            put_u16(out, link.0);
            put_u64(out, *dropped_packets);
            put_u64(out, *dropped_flits);
            put_u64(out, *cycle);
        }
        SimEvent::WatchdogTripped { report } => {
            put_u8(out, 6);
            put_stall_kind_fields(out, report);
        }
    }
}

fn put_trace_event(out: &mut Vec<u8>, e: &TraceEvent) {
    match e {
        TraceEvent::Injected { cycle, flit, core } => {
            put_u8(out, 0);
            put_u64(out, *cycle);
            put_u64(out, flit.0);
            put_u16(out, *core);
        }
        TraceEvent::Launched {
            cycle,
            flit,
            link,
            obfuscated,
            attempt,
        } => {
            put_u8(out, 1);
            put_u64(out, *cycle);
            put_u64(out, flit.0);
            put_u16(out, link.0);
            put_opt_plan(out, *obfuscated);
            put_u32(out, *attempt);
        }
        TraceEvent::Delivered {
            cycle,
            flit,
            link,
            outcome,
        } => {
            put_u8(out, 2);
            put_u64(out, *cycle);
            put_u64(out, flit.0);
            put_u16(out, link.0);
            match outcome {
                TraceOutcome::Clean => put_u8(out, 0),
                TraceOutcome::CorrectedSingleBit => put_u8(out, 1),
                TraceOutcome::Nacked { lob_requested } => {
                    put_u8(out, 2);
                    put_bool(out, *lob_requested);
                }
            }
        }
        TraceEvent::Ejected {
            cycle,
            flit,
            router,
        } => {
            put_u8(out, 3);
            put_u64(out, *cycle);
            put_u64(out, flit.0);
            put_u16(out, router.0);
        }
    }
}

fn put_sim_error(out: &mut Vec<u8>, e: Option<&SimError>) {
    match e {
        None => put_u8(out, 0),
        Some(SimError::Stalled(report)) => {
            put_u8(out, 1);
            encode_stall_report(out, report);
        }
        Some(SimError::MeshDisconnected { cycle, dead }) => {
            put_u8(out, 2);
            put_u64(out, *cycle);
            put_u64(out, dead.len() as u64);
            for l in dead {
                put_u16(out, l.0);
            }
        }
        Some(SimError::InvariantViolations { cycle, violations }) => {
            put_u8(out, 3);
            put_u64(out, *cycle);
            put_u64(out, violations.len() as u64);
            for v in violations {
                put_u16(out, v.router);
                put_str(out, &v.what);
            }
        }
    }
}

fn put_stats(out: &mut Vec<u8>, s: &SimStats) {
    put_u64(out, s.snapshots.len() as u64);
    for snap in &s.snapshots {
        put_u64(out, snap.cycle);
        put_u64(out, snap.input_util as u64);
        put_u64(out, snap.output_util as u64);
        put_u64(out, snap.injection_util as u64);
        put_u64(out, snap.routers_all_cores_full as u64);
        put_u64(out, snap.routers_half_cores_full as u64);
        put_u64(out, snap.routers_blocked_port as u64);
        put_u64(out, snap.delivered_flits);
        put_u64(out, snap.retransmissions);
        put_u64(out, snap.uncorrectable_faults);
    }
    put_u64(out, s.injected_packets);
    put_u64(out, s.delivered_packets);
    put_u64(out, s.injected_flits);
    put_u64(out, s.delivered_flits);
    put_u64(out, s.latency_sum);
    put_u64(out, s.latency_samples);
    put_u64(out, s.latency_max);
    for b in &s.latency_histogram {
        put_u64(out, *b);
    }
    put_u64(out, s.retransmissions);
    put_u64(out, s.corrected_faults);
    put_u64(out, s.uncorrectable_faults);
    put_u64(out, s.bist_scans);
    put_u64(out, s.dropped_flits);
    put_u64(out, s.dropped_packets);
    put_u64(out, s.quarantined_links);
    put_u64(out, s.budget_escalations);
}

fn put_routing(out: &mut Vec<u8>, routing: &Routing) {
    match routing {
        Routing::Xy => put_u8(out, 0),
        Routing::Table(tables) => {
            put_u8(out, 1);
            put_u64(out, tables.next.len() as u64);
            for row in &tables.next {
                put_u64(out, row.len() as u64);
                for entry in row {
                    match entry {
                        None => put_bool(out, false),
                        Some(d) => {
                            put_bool(out, true);
                            put_u8(out, d.index() as u8);
                        }
                    }
                }
            }
        }
        Routing::OddEven => put_u8(out, 2),
        Routing::Topo(t) => {
            put_u8(out, 3);
            put_u64(out, t.next.len() as u64);
            for (row, classes) in t.next.iter().zip(&t.class) {
                put_u64(out, row.len() as u64);
                for (entry, class) in row.iter().zip(classes) {
                    match entry {
                        None => put_bool(out, false),
                        Some(d) => {
                            put_bool(out, true);
                            put_u8(out, d.index() as u8);
                        }
                    }
                    put_u8(out, *class);
                }
            }
        }
    }
}

fn put_detector_state(out: &mut Vec<u8>, st: &DetectorState) {
    put_u64(out, st.records.len() as u64);
    for ((packet, seq), rec) in &st.records {
        put_u64(out, packet.0);
        put_u8(out, *seq);
        put_u32(out, rec.faults);
        put_bytes(out, &rec.syndromes);
        put_u32(out, rec.obf_attempts);
        put_bool(out, rec.clean_after_obf);
    }
    put_u64(out, st.total_faults);
    put_u64(out, st.total_retransmissions);
    put_u64(out, st.bist_requests);
    put_u64(out, st.lob_escalations);
    match st.bist_passed {
        None => put_bool(out, false),
        Some(p) => {
            put_bool(out, true);
            put_bool(out, p);
        }
    }
}

fn put_input_unit(out: &mut Vec<u8>, unit: &InputUnit) {
    put_u64(out, unit.vcs.len() as u64);
    for vc in &unit.vcs {
        put_u64(out, vc.fifo.len() as u64);
        for f in &vc.fifo {
            put_flit(out, f);
        }
        put_u8(
            out,
            match vc.state {
                VcState::Idle => 0,
                VcState::Routing => 1,
                VcState::VcAlloc => 2,
                VcState::Active => 3,
            },
        );
        match vc.route {
            None => put_bool(out, false),
            Some(p) => {
                put_bool(out, true);
                put_u8(out, p.index() as u8);
            }
        }
        match vc.out_vc {
            None => put_bool(out, false),
            Some(v) => {
                put_bool(out, true);
                put_u8(out, v.0);
            }
        }
        match vc.packet {
            None => put_bool(out, false),
            Some(p) => {
                put_bool(out, true);
                put_u64(out, p.0);
            }
        }
        match vc.wire_packet {
            None => put_bool(out, false),
            Some(p) => {
                put_bool(out, true);
                put_u64(out, p.0);
            }
        }
        put_u8(out, vc.expected_seq);
        put_u64(out, vc.since);
    }
    put_detector_state(out, &unit.detector.export_state());
    put_u64(out, unit.delayed.len() as u64);
    for d in &unit.delayed {
        put_u64(out, d.ready);
        put_u8(out, d.vc.0);
        put_flit(out, &d.flit);
        put_u64(out, d.order);
    }
    put_u64(out, unit.pending_scrambles.len() as u64);
    for s in &unit.pending_scrambles {
        put_flit(out, &s.flit);
        put_u8(out, s.vc.0);
        put_u64(out, s.partner.0);
        put_u64(out, s.arrived);
        put_u32(out, s.penalty);
        put_u64(out, s.order);
    }
    put_u64(out, unit.seen_words.len() as u64);
    for (id, word) in &unit.seen_words {
        put_u64(out, id.0);
        put_u64(out, *word);
    }
    put_u64(out, unit.seen_head as u64);
    put_u64(out, unit.next_order);
    put_u8(out, fault_class_tag(unit.reported_class));
    put_u64(out, unit.occupancy_high_water);
}

fn put_output_unit(out: &mut Vec<u8>, unit: &OutputUnit) {
    put_u64(out, unit.entries.len() as u64);
    for e in &unit.entries {
        put_flit(out, &e.flit);
        put_u8(out, e.vc.0);
        put_u8(
            out,
            match e.state {
                SlotState::NeedSend => 0,
                SlotState::AwaitAck => 1,
            },
        );
        put_u32(out, e.attempts);
        put_u32(out, e.nacks);
        put_opt_obf(out, e.obf.as_ref());
        put_u64(out, e.sent_at);
        put_u64(out, e.entered_at);
    }
    put_u64(out, unit.vc_owner.len() as u64);
    for owner in &unit.vc_owner {
        match owner {
            None => put_bool(out, false),
            Some(p) => {
                put_bool(out, true);
                put_u64(out, p.0);
            }
        }
    }
    put_u64(out, unit.credits.len() as u64);
    for c in &unit.credits {
        put_u8(out, *c);
    }
    put_opt_plan(out, unit.lob.logged_plan());
    put_u64(out, unit.lob.attempts());
    put_u64(out, unit.lob.successes());
    // Both arbiter fields: `select_send` lazily rebuilds the arbiter
    // (resetting the pointer) whenever its width differs from
    // `total_capacity()`, so the width must survive the round trip too.
    put_u64(out, unit.send_rr.next as u64);
    put_u64(out, unit.send_rr.n as u64);
    put_u64(out, unit.last_progress);
    put_u64(out, unit.protected_dests.len() as u64);
    for d in &unit.protected_dests {
        put_u16(out, *d);
    }
    put_u64(out, unit.flits_sent);
    put_u64(out, unit.retransmissions);
    put_u64(out, unit.sab_credit_seen);
}

fn put_router(out: &mut Vec<u8>, r: &Router) {
    put_u64(out, r.inputs.len() as u64);
    for unit in &r.inputs {
        put_input_unit(out, unit);
    }
    for unit in &r.outputs {
        match unit {
            None => put_bool(out, false),
            Some(u) => {
                put_bool(out, true);
                put_output_unit(out, u);
            }
        }
    }
    for arb in &r.va_arb {
        put_u64(out, arb.next as u64);
    }
    put_u64(out, r.sa_arb.len() as u64);
    for arb in &r.sa_arb {
        put_u64(out, arb.next as u64);
    }
    put_u64(out, r.st_pending.len() as u64);
    for m in &r.st_pending {
        put_flit(out, &m.flit);
        put_u8(out, m.out_port.index() as u8);
        match m.out_vc {
            None => put_bool(out, false),
            Some(v) => {
                put_bool(out, true);
                put_u8(out, v.0);
            }
        }
        put_u64(out, m.granted_at);
    }
    for p in &r.pending_to_output {
        put_u8(out, *p);
    }
}

fn put_field_match_u8(out: &mut Vec<u8>, m: &Option<FieldMatch<u8>>) {
    match m {
        None => put_u8(out, 0),
        Some(FieldMatch::Exact(v)) => {
            put_u8(out, 1);
            put_u8(out, *v);
        }
        Some(FieldMatch::Range(r)) => {
            put_u8(out, 2);
            put_u8(out, *r.start());
            put_u8(out, *r.end());
        }
    }
}

fn put_field_match_u32(out: &mut Vec<u8>, m: &Option<FieldMatch<u32>>) {
    match m {
        None => put_u8(out, 0),
        Some(FieldMatch::Exact(v)) => {
            put_u8(out, 1);
            put_u32(out, *v);
        }
        Some(FieldMatch::Range(r)) => {
            put_u8(out, 2);
            put_u32(out, *r.start());
            put_u32(out, *r.end());
        }
    }
}

/// Encode link `i` of the SoA pool. Field order is identical to the old
/// per-struct layout, so the wire format is unchanged.
fn put_link(out: &mut Vec<u8>, lanes: &crate::link::LinkLanes, i: usize) {
    match &lanes.flits[i] {
        None => put_bool(out, false),
        Some(lf) => {
            put_bool(out, true);
            put_u64(out, lanes.arrive_at[i]);
            put_flit(out, &lf.flit);
            put_u128(out, lf.codeword.0);
            put_u64(out, lf.wire_word);
            put_u8(out, lf.vc.0);
            put_opt_obf(out, lf.obf.as_ref());
        }
    }
    put_u64(out, lanes.acks[i].len() as u64);
    for (at, msg) in &lanes.acks[i] {
        put_u64(out, *at);
        put_u64(out, msg.flit.0);
        match msg.kind {
            AckKind::Ack { obf_success } => {
                put_u8(out, 0);
                put_opt_plan(out, obf_success);
            }
            AckKind::Nack { lob_attempt } => {
                put_u8(out, 1);
                match lob_attempt {
                    None => put_bool(out, false),
                    Some(a) => {
                        put_bool(out, true);
                        put_u32(out, a);
                    }
                }
            }
        }
    }
    put_u64(out, lanes.credits[i].len() as u64);
    for (at, vc) in &lanes.credits[i] {
        put_u64(out, *at);
        put_u8(out, vc.0);
    }
    // Fault layer.
    let faults = &lanes.faults[i];
    put_f64(out, faults.transient_bit_prob);
    put_u128(out, faults.stuck.stuck_one);
    put_u128(out, faults.stuck.stuck_zero);
    match &faults.trojan {
        None => put_bool(out, false),
        Some(ht) => {
            put_bool(out, true);
            let cfg = ht.config();
            put_field_match_u8(out, &cfg.target.src);
            put_field_match_u8(out, &cfg.target.dest);
            put_field_match_u8(out, &cfg.target.vc);
            put_field_match_u32(out, &cfg.target.mem);
            put_u8(out, cfg.y_bits);
            put_u8(out, cfg.wire_bits);
            put_u32(out, cfg.cooldown);
            put_bool(out, ht.kill_switch());
            put_u8(
                out,
                match ht.state() {
                    TaspState::Idle => 0,
                    TaspState::Active => 1,
                    TaspState::Attacking => 2,
                },
            );
            match ht.last_injection() {
                None => put_bool(out, false),
                Some(c) => {
                    put_bool(out, true);
                    put_u64(out, c);
                }
            }
            let stats = ht.stats();
            put_u64(out, stats.inspections);
            put_u64(out, stats.sightings);
            put_u64(out, stats.injections);
            put_u16(out, ht.payload_state());
            put_u64(out, ht.payload_injections());
        }
    }
    for s in faults.rng.state() {
        put_u64(out, s);
    }
    put_u64(out, faults.transient_flips);
    put_u64(out, faults.trojan_injections);
    put_u64(out, lanes.flits_carried[i]);
}

fn put_tracer(out: &mut Vec<u8>, tracer: Option<&TraceRecorder>) {
    match tracer {
        None => put_bool(out, false),
        Some(t) => {
            put_bool(out, true);
            put_u64(out, t.capacity as u64);
            put_u64(out, t.emitted);
            put_u64(out, t.dropped);
            put_u64(out, t.buf.len() as u64);
            for rec in &t.buf {
                put_str(out, &rec.to_jsonl());
            }
        }
    }
}

fn encode_sim(sim: &Simulator) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 * 1024);
    put_u64(&mut p, sim.cycle);
    put_u64(&mut p, sim.next_flit_id);
    let mut birth: Vec<(u64, u64)> = sim.birth.iter().map(|(k, v)| (k.0, *v)).collect();
    birth.sort_unstable();
    put_u64(&mut p, birth.len() as u64);
    for (packet, at) in birth {
        put_u64(&mut p, packet);
        put_u64(&mut p, at);
    }
    put_stats(&mut p, &sim.stats);
    put_u64(&mut p, sim.events.len() as u64);
    for e in &sim.events {
        put_sim_event(&mut p, e);
    }
    put_u64(&mut p, sim.trace.len() as u64);
    for e in &sim.trace {
        put_trace_event(&mut p, e);
    }
    put_u64(&mut p, sim.last_progress_cycle);
    put_u64(&mut p, sim.pending_quarantine.len() as u64);
    for l in &sim.pending_quarantine {
        put_u16(&mut p, l.0);
    }
    put_sim_error(&mut p, sim.poisoned.as_ref());
    put_u64(&mut p, sim.watchdog_armed_at);
    put_u64(&mut p, sim.snap_base.0);
    put_u64(&mut p, sim.snap_base.1);
    put_u64(&mut p, sim.snap_base.2);
    put_u64(&mut p, sim.router_active.len() as u64);
    for b in &sim.router_active {
        put_bool(&mut p, *b);
    }
    put_u64(&mut p, sim.link_dead.len() as u64);
    for b in &sim.link_dead {
        put_bool(&mut p, *b);
    }
    put_u64(&mut p, sim.sabotage_eject_seen);
    put_u64(&mut p, sim.inj_rr.len() as u64);
    for r in &sim.inj_rr {
        put_u8(&mut p, *r);
    }
    put_u64(&mut p, sim.inj_queues.len() as u64);
    for q in &sim.inj_queues {
        put_u64(&mut p, q.len() as u64);
        for f in q {
            put_flit(&mut p, f);
        }
    }
    put_u64(&mut p, sim.dead_links.len() as u64);
    for l in &sim.dead_links {
        put_u16(&mut p, l.0);
    }
    put_routing(&mut p, &sim.routing);
    // Metrics registry.
    put_u64(&mut p, sim.metrics.links.len() as u64);
    for l in &sim.metrics.links {
        put_u64(&mut p, l.flits.get());
        put_u64(&mut p, l.retransmissions.get());
        put_u64(&mut p, l.ecc_corrected.get());
        put_u64(&mut p, l.ecc_uncorrectable.get());
        put_u64(&mut p, l.nacks.get());
        put_u64(&mut p, l.bist_scans.get());
        put_u64(&mut p, l.lob_selections.get());
        for b in l.delivery_attempts.buckets() {
            put_u64(&mut p, *b);
        }
        put_u64(&mut p, l.delivery_attempts.count());
        put_u64(&mut p, l.delivery_attempts.max());
    }
    put_u64(&mut p, sim.metrics.routers.len() as u64);
    for r in &sim.metrics.routers {
        put_u64(&mut p, r.ejected_flits.get());
        put_u64(&mut p, r.injection_stalls.get());
        put_u64(&mut p, r.input_occupancy.current);
        put_u64(&mut p, r.input_occupancy.high_water);
        put_u64(&mut p, r.retx_occupancy.current);
        put_u64(&mut p, r.retx_occupancy.high_water);
        put_u64(&mut p, r.buffer_high_water);
    }
    put_tracer(&mut p, sim.tracer.as_ref());
    put_u64(&mut p, sim.routers.len() as u64);
    for r in &sim.routers {
        put_router(&mut p, r);
    }
    put_u64(&mut p, sim.links.len() as u64);
    for i in 0..sim.links.len() {
        put_link(&mut p, &sim.links, i);
    }
    p
}

// ---------------------------------------------------------------------
// Payload codec: leaf decoders
// ---------------------------------------------------------------------

fn get_header(r: &mut Reader) -> Result<Header, SnapshotError> {
    Ok(Header {
        src: NodeId(r.u16()?),
        dest: NodeId(r.u16()?),
        vc: VcId(r.u8()?),
        mem_addr: r.u32()?,
        thread: r.u8()?,
        len: r.u8()?,
    })
}

fn get_flit(r: &mut Reader) -> Result<Flit, SnapshotError> {
    let id = FlitId(r.u64()?);
    let packet = PacketId(r.u64()?);
    let kind = match r.u8()? {
        0 => FlitKind::Head,
        1 => FlitKind::Body,
        2 => FlitKind::Tail,
        3 => FlitKind::Single,
        t => return Err(corrupt(format!("flit kind tag {t}"))),
    };
    let seq = r.u8()?;
    let header = get_header(r)?;
    let word = r.u64()?;
    Ok(Flit {
        id,
        packet,
        kind,
        seq,
        header,
        word,
    })
}

fn get_plan(r: &mut Reader) -> Result<LobPlan, SnapshotError> {
    let label = r.str()?;
    LobPlan::from_label(&label).ok_or_else(|| corrupt(format!("lob plan label {label:?}")))
}

fn get_opt_plan(r: &mut Reader) -> Result<Option<LobPlan>, SnapshotError> {
    Ok(if r.flag()? { Some(get_plan(r)?) } else { None })
}

fn get_obf_wire(r: &mut Reader) -> Result<ObfWire, SnapshotError> {
    let plan = get_plan(r)?;
    let attempt = r.u32()?;
    let partner = if r.flag()? {
        Some(FlitId(r.u64()?))
    } else {
        None
    };
    Ok(ObfWire {
        plan,
        attempt,
        partner,
    })
}

fn get_opt_obf(r: &mut Reader) -> Result<Option<ObfWire>, SnapshotError> {
    Ok(if r.flag()? {
        Some(get_obf_wire(r)?)
    } else {
        None
    })
}

fn get_fault_class(r: &mut Reader) -> Result<FaultClass, SnapshotError> {
    Ok(match r.u8()? {
        0 => FaultClass::None,
        1 => FaultClass::Transient,
        2 => FaultClass::Permanent,
        3 => FaultClass::HardwareTrojan,
        t => return Err(corrupt(format!("fault class tag {t}"))),
    })
}

fn get_port(r: &mut Reader, ports: usize) -> Result<Port, SnapshotError> {
    let i = r.u8()? as usize;
    if i >= ports {
        return Err(corrupt(format!("port index {i} >= {ports}")));
    }
    Ok(Port::from_index(i))
}

fn get_stall_report(r: &mut Reader) -> Result<StallReport, SnapshotError> {
    decode_stall_report(&mut r.buf).ok_or_else(|| corrupt("stall report"))
}

fn get_sim_event(r: &mut Reader) -> Result<SimEvent, SnapshotError> {
    Ok(match r.u8()? {
        0 => SimEvent::PacketDelivered {
            packet: PacketId(r.u64()?),
            src: NodeId(r.u16()?),
            dest: NodeId(r.u16()?),
            injected_at: r.u64()?,
            delivered_at: r.u64()?,
        },
        1 => SimEvent::BistRan {
            link: LinkId(r.u16()?),
            passed: r.bool()?,
            cycle: r.u64()?,
        },
        2 => SimEvent::LinkClassified {
            link: LinkId(r.u16()?),
            class: get_fault_class(r)?,
            cycle: r.u64()?,
        },
        3 => SimEvent::ObfuscationSucceeded {
            link: LinkId(r.u16()?),
            plan: get_plan(r)?,
            cycle: r.u64()?,
        },
        4 => SimEvent::RetryBudgetEscalated {
            link: LinkId(r.u16()?),
            flit: FlitId(r.u64()?),
            attempts: r.u32()?,
            cycle: r.u64()?,
        },
        5 => SimEvent::LinkQuarantined {
            link: LinkId(r.u16()?),
            dropped_packets: r.u64()?,
            dropped_flits: r.u64()?,
            cycle: r.u64()?,
        },
        6 => SimEvent::WatchdogTripped {
            report: get_stall_report(r)?,
        },
        t => return Err(corrupt(format!("sim event tag {t}"))),
    })
}

fn get_trace_event(r: &mut Reader) -> Result<TraceEvent, SnapshotError> {
    Ok(match r.u8()? {
        0 => TraceEvent::Injected {
            cycle: r.u64()?,
            flit: FlitId(r.u64()?),
            core: r.u16()?,
        },
        1 => TraceEvent::Launched {
            cycle: r.u64()?,
            flit: FlitId(r.u64()?),
            link: LinkId(r.u16()?),
            obfuscated: get_opt_plan(r)?,
            attempt: r.u32()?,
        },
        2 => TraceEvent::Delivered {
            cycle: r.u64()?,
            flit: FlitId(r.u64()?),
            link: LinkId(r.u16()?),
            outcome: match r.u8()? {
                0 => TraceOutcome::Clean,
                1 => TraceOutcome::CorrectedSingleBit,
                2 => TraceOutcome::Nacked {
                    lob_requested: r.bool()?,
                },
                t => return Err(corrupt(format!("trace outcome tag {t}"))),
            },
        },
        3 => TraceEvent::Ejected {
            cycle: r.u64()?,
            flit: FlitId(r.u64()?),
            router: NodeId(r.u16()?),
        },
        t => return Err(corrupt(format!("trace event tag {t}"))),
    })
}

fn get_sim_error(r: &mut Reader) -> Result<Option<SimError>, SnapshotError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(SimError::Stalled(Box::new(get_stall_report(r)?))),
        2 => {
            let cycle = r.u64()?;
            let n = r.len()?;
            let mut dead = Vec::with_capacity(n);
            for _ in 0..n {
                dead.push(LinkId(r.u16()?));
            }
            Some(SimError::MeshDisconnected { cycle, dead })
        }
        3 => {
            let cycle = r.u64()?;
            let n = r.len()?;
            let mut violations = Vec::with_capacity(n);
            for _ in 0..n {
                violations.push(Violation {
                    router: r.u16()?,
                    what: r.str()?,
                });
            }
            Some(SimError::InvariantViolations { cycle, violations })
        }
        t => return Err(corrupt(format!("sim error tag {t}"))),
    })
}

fn get_stats(r: &mut Reader) -> Result<SimStats, SnapshotError> {
    let n = r.len()?;
    let mut snapshots = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        snapshots.push(StatsSnapshot {
            cycle: r.u64()?,
            input_util: r.u64()? as usize,
            output_util: r.u64()? as usize,
            injection_util: r.u64()? as usize,
            routers_all_cores_full: r.u64()? as usize,
            routers_half_cores_full: r.u64()? as usize,
            routers_blocked_port: r.u64()? as usize,
            delivered_flits: r.u64()?,
            retransmissions: r.u64()?,
            uncorrectable_faults: r.u64()?,
        });
    }
    let mut s = SimStats {
        snapshots,
        injected_packets: r.u64()?,
        delivered_packets: r.u64()?,
        injected_flits: r.u64()?,
        delivered_flits: r.u64()?,
        latency_sum: r.u64()?,
        latency_samples: r.u64()?,
        latency_max: r.u64()?,
        ..SimStats::default()
    };
    for b in s.latency_histogram.iter_mut() {
        *b = r.u64()?;
    }
    s.retransmissions = r.u64()?;
    s.corrected_faults = r.u64()?;
    s.uncorrectable_faults = r.u64()?;
    s.bist_scans = r.u64()?;
    s.dropped_flits = r.u64()?;
    s.dropped_packets = r.u64()?;
    s.quarantined_links = r.u64()?;
    s.budget_escalations = r.u64()?;
    Ok(s)
}

fn get_routing(r: &mut Reader, n_routers: usize) -> Result<Routing, SnapshotError> {
    Ok(match r.u8()? {
        0 => Routing::Xy,
        1 => {
            let rows = r.len()?;
            if rows != n_routers {
                return Err(corrupt(format!("route table rows {rows} != {n_routers}")));
            }
            let mut next = Vec::with_capacity(rows);
            for _ in 0..rows {
                let cols = r.len()?;
                if cols != n_routers {
                    return Err(corrupt(format!("route table cols {cols} != {n_routers}")));
                }
                let mut row = Vec::with_capacity(cols);
                for _ in 0..cols {
                    row.push(if r.flag()? {
                        Some(
                            direction_from_u8(r.u8()?)
                                .ok_or_else(|| corrupt("route table direction"))?,
                        )
                    } else {
                        None
                    });
                }
                next.push(row);
            }
            Routing::Table(RouteTables { next })
        }
        2 => Routing::OddEven,
        3 => {
            let rows = r.len()?;
            if rows != n_routers {
                return Err(corrupt(format!("topo table rows {rows} != {n_routers}")));
            }
            let mut next = Vec::with_capacity(rows);
            let mut class = Vec::with_capacity(rows);
            for _ in 0..rows {
                let cols = r.len()?;
                if cols != n_routers {
                    return Err(corrupt(format!("topo table cols {cols} != {n_routers}")));
                }
                let mut row = Vec::with_capacity(cols);
                let mut crow = Vec::with_capacity(cols);
                for _ in 0..cols {
                    row.push(if r.flag()? {
                        Some(
                            direction_from_u8(r.u8()?)
                                .ok_or_else(|| corrupt("topo table direction"))?,
                        )
                    } else {
                        None
                    });
                    let c = r.u8()?;
                    if c > 2 {
                        return Err(corrupt(format!("topo table vc class {c}")));
                    }
                    crow.push(c);
                }
                next.push(row);
                class.push(crow);
            }
            Routing::Topo(crate::routing::TopoRoutes::from_parts(next, class))
        }
        t => return Err(corrupt(format!("routing tag {t}"))),
    })
}

fn get_detector_state(r: &mut Reader) -> Result<DetectorState, SnapshotError> {
    let n = r.len()?;
    let mut records = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let key = (PacketId(r.u64()?), r.u8()?);
        records.push((
            key,
            FaultRecordState {
                faults: r.u32()?,
                syndromes: r.bytes()?,
                obf_attempts: r.u32()?,
                clean_after_obf: r.bool()?,
            },
        ));
    }
    Ok(DetectorState {
        records,
        total_faults: r.u64()?,
        total_retransmissions: r.u64()?,
        bist_requests: r.u64()?,
        lob_escalations: r.u64()?,
        bist_passed: if r.flag()? { Some(r.bool()?) } else { None },
    })
}

fn restore_input_unit(
    r: &mut Reader,
    unit: &mut InputUnit,
    ports: usize,
) -> Result<(), SnapshotError> {
    let vcs = r.len()?;
    if vcs != unit.vcs.len() {
        return Err(corrupt(format!("input vcs {vcs} != {}", unit.vcs.len())));
    }
    for vc in unit.vcs.iter_mut() {
        let depth = r.len()?;
        vc.fifo.clear();
        for _ in 0..depth {
            vc.fifo.push_back(get_flit(r)?);
        }
        vc.state = match r.u8()? {
            0 => VcState::Idle,
            1 => VcState::Routing,
            2 => VcState::VcAlloc,
            3 => VcState::Active,
            t => return Err(corrupt(format!("vc state tag {t}"))),
        };
        vc.route = if r.flag()? {
            Some(get_port(r, ports)?)
        } else {
            None
        };
        vc.out_vc = if r.flag()? { Some(VcId(r.u8()?)) } else { None };
        vc.packet = if r.flag()? {
            Some(PacketId(r.u64()?))
        } else {
            None
        };
        vc.wire_packet = if r.flag()? {
            Some(PacketId(r.u64()?))
        } else {
            None
        };
        vc.expected_seq = r.u8()?;
        vc.since = r.u64()?;
    }
    unit.detector.import_state(get_detector_state(r)?);
    let n = r.len()?;
    unit.delayed.clear();
    for _ in 0..n {
        unit.delayed.push(DelayedEntry {
            ready: r.u64()?,
            vc: VcId(r.u8()?),
            flit: get_flit(r)?,
            order: r.u64()?,
        });
    }
    let n = r.len()?;
    unit.pending_scrambles.clear();
    for _ in 0..n {
        unit.pending_scrambles.push(PendingScramble {
            flit: get_flit(r)?,
            vc: VcId(r.u8()?),
            partner: FlitId(r.u64()?),
            arrived: r.u64()?,
            penalty: r.u32()?,
            order: r.u64()?,
        });
    }
    let n = r.len()?;
    unit.seen_words.clear();
    for _ in 0..n {
        unit.seen_words.push((FlitId(r.u64()?), r.u64()?));
    }
    unit.seen_head = r.len()?;
    if unit.seen_head > unit.seen_words.len() {
        return Err(corrupt("seen_head beyond ring"));
    }
    unit.next_order = r.u64()?;
    unit.reported_class = get_fault_class(r)?;
    unit.occupancy_high_water = r.u64()?;
    Ok(())
}

fn restore_output_unit(r: &mut Reader, unit: &mut OutputUnit) -> Result<(), SnapshotError> {
    let n = r.len()?;
    unit.entries.clear();
    for _ in 0..n {
        unit.entries.push(RetxEntry {
            flit: get_flit(r)?,
            vc: VcId(r.u8()?),
            state: match r.u8()? {
                0 => SlotState::NeedSend,
                1 => SlotState::AwaitAck,
                t => return Err(corrupt(format!("slot state tag {t}"))),
            },
            attempts: r.u32()?,
            nacks: r.u32()?,
            obf: get_opt_obf(r)?,
            sent_at: r.u64()?,
            entered_at: r.u64()?,
        });
    }
    let n = r.len()?;
    if n != unit.vc_owner.len() {
        return Err(corrupt(format!(
            "vc_owner len {n} != {}",
            unit.vc_owner.len()
        )));
    }
    for owner in unit.vc_owner.iter_mut() {
        *owner = if r.flag()? {
            Some(PacketId(r.u64()?))
        } else {
            None
        };
    }
    let n = r.len()?;
    if n != unit.credits.len() {
        return Err(corrupt(format!(
            "credits len {n} != {}",
            unit.credits.len()
        )));
    }
    for c in unit.credits.iter_mut() {
        *c = r.u8()?;
    }
    let logged = get_opt_plan(r)?;
    let attempts = r.u64()?;
    let successes = r.u64()?;
    unit.lob.restore(logged, attempts, successes);
    let next = r.len()?;
    let n = r.len()?;
    if n == 0 || next >= n {
        return Err(corrupt(format!("send_rr pointer {next}/{n}")));
    }
    unit.send_rr = crate::arbiter::RoundRobin { next, n };
    unit.last_progress = r.u64()?;
    let n = r.len()?;
    unit.protected_dests.clear();
    for _ in 0..n {
        unit.protected_dests.push(r.u16()?);
    }
    unit.flits_sent = r.u64()?;
    unit.retransmissions = r.u64()?;
    unit.sab_credit_seen = r.u64()?;
    Ok(())
}

fn restore_router(r: &mut Reader, router: &mut Router, ports: usize) -> Result<(), SnapshotError> {
    let n = r.len()?;
    if n != router.inputs.len() {
        return Err(corrupt(format!("inputs {n} != {}", router.inputs.len())));
    }
    for unit in router.inputs.iter_mut() {
        restore_input_unit(r, unit, ports)?;
    }
    for unit in router.outputs.iter_mut() {
        let present = r.flag()?;
        match (present, unit.as_mut()) {
            (true, Some(u)) => restore_output_unit(r, u)?,
            (false, None) => {}
            (got, _) => {
                return Err(corrupt(format!(
                    "output presence {got} disagrees with mesh topology"
                )))
            }
        }
    }
    for arb in router.va_arb.iter_mut() {
        let next = r.len()?;
        if next >= arb.n {
            return Err(corrupt(format!("va_arb pointer {next}/{}", arb.n)));
        }
        arb.next = next;
    }
    let n = r.len()?;
    if n != router.sa_arb.len() {
        return Err(corrupt(format!("sa_arb {n} != {}", router.sa_arb.len())));
    }
    for arb in router.sa_arb.iter_mut() {
        let next = r.len()?;
        if next >= arb.n {
            return Err(corrupt(format!("sa_arb pointer {next}/{}", arb.n)));
        }
        arb.next = next;
    }
    let n = r.len()?;
    router.st_pending.clear();
    for _ in 0..n {
        router.st_pending.push(StMove {
            flit: get_flit(r)?,
            out_port: get_port(r, ports)?,
            out_vc: if r.flag()? { Some(VcId(r.u8()?)) } else { None },
            granted_at: r.u64()?,
        });
    }
    for p in router.pending_to_output.iter_mut() {
        *p = r.u8()?;
    }
    Ok(())
}

fn get_field_match_u8(r: &mut Reader) -> Result<Option<FieldMatch<u8>>, SnapshotError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(FieldMatch::Exact(r.u8()?)),
        2 => {
            let start = r.u8()?;
            let end = r.u8()?;
            Some(FieldMatch::Range(start..=end))
        }
        t => return Err(corrupt(format!("field match tag {t}"))),
    })
}

fn get_field_match_u32(r: &mut Reader) -> Result<Option<FieldMatch<u32>>, SnapshotError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(FieldMatch::Exact(r.u32()?)),
        2 => {
            let start = r.u32()?;
            let end = r.u32()?;
            Some(FieldMatch::Range(start..=end))
        }
        t => return Err(corrupt(format!("field match tag {t}"))),
    })
}

/// Restore link `i` of the SoA pool (the mirror of [`put_link`]).
fn restore_link(
    r: &mut Reader,
    lanes: &mut crate::link::LinkLanes,
    i: usize,
) -> Result<(), SnapshotError> {
    if r.flag()? {
        let at = r.u64()?;
        let flit = get_flit(r)?;
        let codeword = Codeword(r.u128()?);
        let wire_word = r.u64()?;
        let vc = VcId(r.u8()?);
        let obf = get_opt_obf(r)?;
        lanes.arrive_at[i] = at;
        lanes.flits[i] = Some(LinkFlit {
            flit,
            codeword,
            wire_word,
            vc,
            obf,
        });
    } else {
        lanes.arrive_at[i] = u64::MAX;
        lanes.flits[i] = None;
    }
    let n = r.len()?;
    lanes.acks[i] = VecDeque::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let at = r.u64()?;
        let flit = FlitId(r.u64()?);
        let kind = match r.u8()? {
            0 => AckKind::Ack {
                obf_success: get_opt_plan(r)?,
            },
            1 => AckKind::Nack {
                lob_attempt: if r.flag()? { Some(r.u32()?) } else { None },
            },
            t => return Err(corrupt(format!("ack kind tag {t}"))),
        };
        lanes.acks[i].push_back((at, AckMsg { flit, kind }));
    }
    let n = r.len()?;
    lanes.credits[i] = VecDeque::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let at = r.u64()?;
        lanes.credits[i].push_back((at, VcId(r.u8()?)));
    }
    let faults = &mut lanes.faults[i];
    faults.transient_bit_prob = r.f64()?;
    let stuck_one = r.u128()?;
    let stuck_zero = r.u128()?;
    faults.stuck = crate::fault::StuckWires {
        stuck_one,
        stuck_zero,
    };
    faults.trojan = if r.flag()? {
        let target = TargetSpec {
            src: get_field_match_u8(r)?,
            dest: get_field_match_u8(r)?,
            vc: get_field_match_u8(r)?,
            mem: get_field_match_u32(r)?,
        };
        let mut cfg = TaspConfig::new(target);
        cfg.y_bits = r.u8()?;
        cfg.wire_bits = r.u8()?;
        cfg.cooldown = r.u32()?;
        let killsw = r.bool()?;
        let state = match r.u8()? {
            0 => TaspState::Idle,
            1 => TaspState::Active,
            2 => TaspState::Attacking,
            t => return Err(corrupt(format!("tasp state tag {t}"))),
        };
        let last_injection = if r.flag()? { Some(r.u64()?) } else { None };
        let stats = TaspStats {
            inspections: r.u64()?,
            sightings: r.u64()?,
            injections: r.u64()?,
        };
        let payload_state = r.u16()?;
        let payload_injections = r.u64()?;
        let mut ht = TaspHt::new(cfg);
        ht.restore_runtime(
            killsw,
            state,
            last_injection,
            stats,
            payload_state,
            payload_injections,
        );
        Some(ht)
    } else {
        None
    };
    let mut rng_state = [0u64; 4];
    for s in rng_state.iter_mut() {
        *s = r.u64()?;
    }
    faults.rng = StdRng::from_state(rng_state);
    faults.transient_flips = r.u64()?;
    faults.trojan_injections = r.u64()?;
    lanes.flits_carried[i] = r.u64()?;
    Ok(())
}

struct TracerState {
    capacity: usize,
    emitted: u64,
    dropped: u64,
    records: Vec<Record>,
}

fn get_tracer(r: &mut Reader) -> Result<Option<TracerState>, SnapshotError> {
    if !r.flag()? {
        return Ok(None);
    }
    let capacity = r.len()?;
    let emitted = r.u64()?;
    let dropped = r.u64()?;
    let n = r.len()?;
    let mut records = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let line = r.str()?;
        records.push(Record::from_jsonl(&line).ok_or_else(|| corrupt("trace record jsonl"))?);
    }
    Ok(Some(TracerState {
        capacity,
        emitted,
        dropped,
        records,
    }))
}

fn decode_sim(sim: &mut Simulator, payload: &[u8]) -> Result<(), SnapshotError> {
    let ports = sim.cfg.ports();
    let mut r = Reader::new(payload);
    sim.cycle = r.u64()?;
    sim.next_flit_id = r.u64()?;
    let n = r.len()?;
    sim.birth.clear();
    for _ in 0..n {
        let packet = PacketId(r.u64()?);
        let at = r.u64()?;
        sim.birth.insert(packet, at);
    }
    sim.stats = get_stats(&mut r)?;
    let n = r.len()?;
    sim.events.clear();
    for _ in 0..n {
        let e = get_sim_event(&mut r)?;
        sim.events.push(e);
    }
    let n = r.len()?;
    sim.trace.clear();
    for _ in 0..n {
        let e = get_trace_event(&mut r)?;
        sim.trace.push(e);
    }
    sim.last_progress_cycle = r.u64()?;
    let n = r.len()?;
    sim.pending_quarantine.clear();
    for _ in 0..n {
        sim.pending_quarantine.push(LinkId(r.u16()?));
    }
    sim.poisoned = get_sim_error(&mut r)?;
    sim.watchdog_armed_at = r.u64()?;
    sim.snap_base = (r.u64()?, r.u64()?, r.u64()?);
    let n = r.len()?;
    if n != sim.router_active.len() {
        return Err(corrupt(format!(
            "router_active {n} != {}",
            sim.router_active.len()
        )));
    }
    for b in sim.router_active.iter_mut() {
        *b = r.bool()?;
    }
    let n = r.len()?;
    if n != sim.link_dead.len() {
        return Err(corrupt(format!("link_dead {n} != {}", sim.link_dead.len())));
    }
    for b in sim.link_dead.iter_mut() {
        *b = r.bool()?;
    }
    sim.sabotage_eject_seen = r.u64()?;
    let n = r.len()?;
    if n != sim.inj_rr.len() {
        return Err(corrupt(format!("inj_rr {n} != {}", sim.inj_rr.len())));
    }
    for p in sim.inj_rr.iter_mut() {
        *p = r.u8()?;
    }
    let n = r.len()?;
    if n != sim.inj_queues.len() {
        return Err(corrupt(format!(
            "inj_queues {n} != {}",
            sim.inj_queues.len()
        )));
    }
    for q in sim.inj_queues.iter_mut() {
        let depth = r.len()?;
        q.clear();
        for _ in 0..depth {
            q.push_back(get_flit(&mut r)?);
        }
    }
    let n = r.len()?;
    sim.dead_links.clear();
    for _ in 0..n {
        let l = LinkId(r.u16()?);
        if l.index() >= sim.link_dead.len() {
            return Err(corrupt(format!("dead link {} out of range", l.0)));
        }
        sim.dead_links.push(l);
    }
    // `link_dead` is the O(1) mirror of `dead_links`; both are serialised,
    // so their agreement doubles as an end-to-end decode check.
    let marked = sim.link_dead.iter().filter(|d| **d).count();
    if marked != sim.dead_links.len() || sim.dead_links.iter().any(|l| !sim.link_dead[l.index()]) {
        return Err(corrupt("dead_links / link_dead mirror disagree"));
    }
    sim.routing = get_routing(&mut r, sim.mesh.routers())?;
    let n = r.len()?;
    if n != sim.metrics.links.len() {
        return Err(corrupt(format!(
            "link metrics {n} != {}",
            sim.metrics.links.len()
        )));
    }
    for l in sim.metrics.links.iter_mut() {
        l.flits = crate::metrics::Counter(r.u64()?);
        l.retransmissions = crate::metrics::Counter(r.u64()?);
        l.ecc_corrected = crate::metrics::Counter(r.u64()?);
        l.ecc_uncorrectable = crate::metrics::Counter(r.u64()?);
        l.nacks = crate::metrics::Counter(r.u64()?);
        l.bist_scans = crate::metrics::Counter(r.u64()?);
        l.lob_selections = crate::metrics::Counter(r.u64()?);
        let mut h = crate::metrics::PowHistogram::default();
        for b in h.buckets.iter_mut() {
            *b = r.u64()?;
        }
        h.count = r.u64()?;
        h.max = r.u64()?;
        l.delivery_attempts = h;
    }
    let n = r.len()?;
    if n != sim.metrics.routers.len() {
        return Err(corrupt(format!(
            "router metrics {n} != {}",
            sim.metrics.routers.len()
        )));
    }
    for m in sim.metrics.routers.iter_mut() {
        m.ejected_flits = crate::metrics::Counter(r.u64()?);
        m.injection_stalls = crate::metrics::Counter(r.u64()?);
        m.input_occupancy.current = r.u64()?;
        m.input_occupancy.high_water = r.u64()?;
        m.retx_occupancy.current = r.u64()?;
        m.retx_occupancy.high_water = r.u64()?;
        m.buffer_high_water = r.u64()?;
    }
    let tracer = get_tracer(&mut r)?;
    match (sim.tracer.as_mut(), tracer) {
        (Some(t), Some(state)) => {
            // Keep the attached sink: it is the live simulator's property,
            // not the snapshot's.
            t.capacity = state.capacity.max(1);
            t.emitted = state.emitted;
            t.dropped = state.dropped;
            t.buf = VecDeque::from(state.records);
        }
        (Some(_), None) => {
            if let Some(t) = sim.tracer.as_mut() {
                t.close_sink();
            }
            sim.tracer = None;
        }
        (None, Some(state)) => {
            let mut t = TraceRecorder::new(TraceConfig {
                capacity: state.capacity.max(1),
            });
            t.emitted = state.emitted;
            t.dropped = state.dropped;
            t.buf = VecDeque::from(state.records);
            sim.tracer = Some(t);
        }
        (None, None) => {}
    }
    let n = r.len()?;
    if n != sim.routers.len() {
        return Err(corrupt(format!("routers {n} != {}", sim.routers.len())));
    }
    for router in sim.routers.iter_mut() {
        restore_router(&mut r, router, ports)?;
    }
    let n = r.len()?;
    if n != sim.links.len() {
        return Err(corrupt(format!("links {n} != {}", sim.links.len())));
    }
    for i in 0..sim.links.len() {
        restore_link(&mut r, &mut sim.links, i)?;
    }
    r.finish()
}

// ---------------------------------------------------------------------
// Simulator entry points
// ---------------------------------------------------------------------

impl Simulator {
    /// Capture the complete simulator state as a [`SimSnapshot`].
    ///
    /// The capture is exact: restoring it (into this simulator or a fresh
    /// one built from an equal configuration) and stepping forward
    /// produces bit-identical cycles, statistics, events, and trace
    /// records — at every thread count. Legal at any cycle boundary.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            payload: encode_sim(self),
            config_hash: self.config_hash,
            cycle: self.cycle,
            user_data: Vec::new(),
        }
    }

    /// Restore a [`SimSnapshot`] into this simulator, replacing all
    /// runtime state. The simulator must have been built from a
    /// configuration whose [`config_hash`] matches the snapshot's.
    ///
    /// The attached trace sink (if any) is preserved; the sharding plan is
    /// kept and re-planned, so the current thread count carries over.
    ///
    /// # Errors
    ///
    /// On [`SnapshotError::ConfigMismatch`] the simulator is untouched.
    /// On any other error the simulator's state is unspecified (the
    /// decode mutates in place): discard it and rebuild — which is what
    /// [`Checkpointer::load_latest`]-driven resume loops do anyway.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<(), SnapshotError> {
        let expected = self.config_hash;
        if snap.config_hash != expected {
            return Err(SnapshotError::ConfigMismatch {
                found: snap.config_hash,
                expected,
            });
        }
        decode_sim(self, &snap.payload)?;
        if self.cycle != snap.cycle {
            return Err(corrupt("header/payload cycle disagree"));
        }
        self.poll_buf.clear();
        self.flit_scratch.clear();
        // The codec wrote the authoritative per-VC structs directly; the
        // derived SoA lanes must be re-derived, and the restored routing
        // function may differ from whatever the RC memos were filled
        // under — a fresh epoch invalidates them lazily.
        let cycle = self.cycle;
        for r in self.routers.iter_mut() {
            r.rebuild_lanes(cycle);
        }
        self.routing_epoch = self.routing_epoch.wrapping_add(1);
        let threads = self.plans.len().max(1);
        self.set_threads(threads);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::{NoTraffic, TrafficSource};
    use noc_types::Packet;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Inject a fixed list of packets at their `created_at` cycles.
    struct ListSource {
        packets: Vec<Packet>,
    }

    impl TrafficSource for ListSource {
        fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
            let mut i = 0;
            while i < self.packets.len() {
                if self.packets[i].created_at == cycle {
                    out.push(self.packets.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        fn done(&self) -> bool {
            self.packets.is_empty()
        }
    }

    fn pkt(id: u64, cycle: u64, src: u16, dest: u16, len: u8) -> Packet {
        Packet::new(
            PacketId((id << 32) | cycle),
            NodeId(src),
            NodeId(dest),
            VcId((id % 2) as u8),
            (id * 64) as u32,
            (id % 4) as u8,
            len,
            cycle,
        )
    }

    fn burst(n: u64, from_cycle: u64) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                pkt(
                    i + 1,
                    from_cycle + i,
                    (i % 16) as u16,
                    ((i * 7 + 3) % 16) as u16,
                    1 + (i % 4) as u8,
                )
            })
            .collect()
    }

    /// A unique scratch directory (no timestamps: deterministic tests).
    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("noc-snap-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc64_xz_check_vector() {
        // The CRC-64/XZ reference check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let mut sim = Simulator::new(SimConfig::paper());
        sim.run(
            200,
            &mut ListSource {
                packets: burst(24, 0),
            },
        );
        let mut snap = sim.snapshot();
        snap.set_user_data(b"cursor bytes".to_vec());
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.cycle(), snap.cycle());
        assert_eq!(back.config_hash(), snap.config_hash());
        assert_eq!(back.user_data(), b"cursor bytes");
        assert_eq!(back.payload, snap.payload);
    }

    #[test]
    fn restored_sim_resumes_bit_identically() {
        let cfg = SimConfig::paper();
        let mut reference = Simulator::new(cfg.clone());
        reference.run(
            250,
            &mut ListSource {
                packets: burst(32, 0),
            },
        );
        let snap = reference.snapshot();

        // The restored copy must re-produce the reference exactly, at
        // every thread count, with and without continued injection.
        for threads in [1usize, 2, 4, 8] {
            let mut resumed = Simulator::new(cfg.clone());
            resumed.set_threads(threads);
            resumed.restore(&snap).unwrap();
            assert_eq!(resumed.snapshot().payload, snap.payload, "t={threads}");

            let mut golden = Simulator::new(cfg.clone());
            golden.restore(&snap).unwrap();
            let mut a = ListSource {
                packets: burst(8, 260),
            };
            let mut b = ListSource {
                packets: burst(8, 260),
            };
            golden.run(300, &mut a);
            resumed.run(300, &mut b);
            assert_eq!(
                resumed.snapshot().payload,
                golden.snapshot().payload,
                "diverged at t={threads}"
            );
        }
    }

    #[test]
    fn uninterrupted_equals_checkpoint_resume() {
        let cfg = SimConfig::paper();
        let mut straight = Simulator::new(cfg.clone());
        straight.run(
            500,
            &mut ListSource {
                packets: burst(40, 0),
            },
        );

        let mut first = Simulator::new(cfg.clone());
        let mut src = ListSource {
            packets: burst(40, 0),
        };
        first.run(230, &mut src);
        let snap = snap_through_disk(&first);
        let mut second = Simulator::new(cfg);
        second.restore(&snap).unwrap();
        second.run(270, &mut src);
        assert_eq!(second.snapshot().payload, straight.snapshot().payload);
        assert_eq!(
            format!("{:?}", second.stats()),
            format!("{:?}", straight.stats())
        );
    }

    /// Round-trip a snapshot through the atomic on-disk format.
    fn snap_through_disk(sim: &Simulator) -> SimSnapshot {
        let dir = scratch_dir("disk");
        let path = dir.join("s.snap");
        sim.snapshot().write_atomic(&path).unwrap();
        let snap = SimSnapshot::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        snap
    }

    #[test]
    fn trojan_and_fault_state_survives_restore() {
        use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
        let cfg = SimConfig::paper();
        let mut sim = Simulator::new(cfg.clone());
        let link = sim.mesh().link_out(NodeId(0), Direction::East).unwrap();
        let faults = sim.link_faults_mut(link);
        faults.transient_bit_prob = 1e-3;
        faults.trojan = Some(TaspHt::new(TaspConfig::new(TargetSpec::dest(3))));
        sim.run(
            400,
            &mut ListSource {
                packets: burst(48, 0),
            },
        );
        let snap = sim.snapshot();

        let mut resumed = Simulator::new(cfg);
        let link2 = resumed.mesh().link_out(NodeId(0), Direction::East).unwrap();
        let f2 = resumed.link_faults_mut(link2);
        f2.transient_bit_prob = 1e-3;
        f2.trojan = Some(TaspHt::new(TaspConfig::new(TargetSpec::dest(3))));
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.snapshot().payload, snap.payload);

        sim.run(200, &mut NoTraffic);
        resumed.run(200, &mut NoTraffic);
        assert_eq!(resumed.snapshot().payload, sim.snapshot().payload);
    }

    #[test]
    fn corruption_is_detected_never_panics() {
        let mut sim = Simulator::new(SimConfig::paper());
        sim.run(
            120,
            &mut ListSource {
                packets: burst(12, 0),
            },
        );
        let bytes = sim.snapshot().to_bytes();

        // Truncation at every interesting boundary.
        for cut in [0, 1, 7, 8, 15, 16, 19, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncated at {cut}"
            );
        }
        // Single-bit flips across the whole file (sampled stride to keep
        // the test fast) must be caught by the CRC.
        for i in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            match SimSnapshot::from_bytes(&bad) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("flip at {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_typed_after_crc_passes() {
        let sim = Simulator::new(SimConfig::paper());
        let mut bytes = sim.snapshot().to_bytes();
        // Patch the version field inside the body, then re-seal the CRC so
        // only the version check can fire.
        let body_at = MAGIC.len() + 8;
        bytes[body_at..body_at + 4].copy_from_slice(&(SNAPSHOT_VERSION + 9).to_le_bytes());
        let crc = crc64(&bytes[body_at..]);
        let crc_at = MAGIC.len();
        bytes[crc_at..crc_at + 8].copy_from_slice(&crc.to_le_bytes());
        match SimSnapshot::from_bytes(&bytes) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!(found, SNAPSHOT_VERSION + 9);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn config_mismatch_is_rejected_and_leaves_sim_untouched() {
        let mut donor = Simulator::new(SimConfig::paper());
        donor.run(
            50,
            &mut ListSource {
                packets: burst(4, 0),
            },
        );
        let snap = donor.snapshot();

        let mut other = Simulator::new(SimConfig::paper_unprotected());
        let before = other.snapshot().payload;
        match other.restore(&snap) {
            Err(SnapshotError::ConfigMismatch { .. }) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(other.snapshot().payload, before);
    }

    #[test]
    fn thread_count_does_not_change_config_hash() {
        let mut a = SimConfig::paper();
        let mut b = SimConfig::paper();
        a.threads = Some(1);
        b.threads = Some(8);
        assert_eq!(config_hash(&a), config_hash(&b));
        assert_ne!(
            config_hash(&SimConfig::paper()),
            config_hash(&SimConfig::paper_unprotected())
        );
    }

    #[test]
    fn cached_config_hash_equals_a_recomputation() {
        let mut cfg = SimConfig::paper_unprotected();
        cfg.mesh = noc_types::Mesh::new_degraded(4, 4, 1, &[(NodeId(5), Direction::East)]);
        cfg.threads = Some(2);
        let mut sim = Simulator::new(cfg);
        assert_eq!(sim.config_hash, config_hash(&sim.cfg));
        for threads in [1, 4] {
            sim.set_threads(threads);
            assert_eq!(sim.config_hash, config_hash(&sim.cfg));
            assert_eq!(sim.snapshot().config_hash(), config_hash(&sim.cfg));
        }
    }

    #[test]
    fn checkpointer_rotates_and_falls_back_past_corrupt_files() {
        let dir = scratch_dir("rot");
        let ck = Checkpointer::new(&dir, 3);
        let mut sim = Simulator::new(SimConfig::paper());
        let mut src = ListSource {
            packets: burst(20, 0),
        };
        for _ in 0..5 {
            sim.run(40, &mut src);
            ck.save(&sim.snapshot()).unwrap();
        }
        let files = ck.checkpoint_files().unwrap();
        assert_eq!(files.len(), 3, "{files:?}");

        let (_, latest) = ck.load_latest().unwrap().unwrap();
        assert_eq!(latest.cycle(), 200);

        // Corrupt the newest checkpoint: load_latest must fall back to
        // the previous one instead of failing.
        std::fs::write(files.last().unwrap(), b"garbage").unwrap();
        let (_, fallback) = ck.load_latest().unwrap().unwrap();
        assert_eq!(fallback.cycle(), 160);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointer_empty_or_missing_dir_is_none() {
        let dir = scratch_dir("empty");
        assert!(Checkpointer::new(&dir, 2).load_latest().unwrap().is_none());
        let missing = dir.join("not-created");
        assert!(Checkpointer::new(&missing, 2)
            .load_latest()
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stall_report_codec_roundtrip() {
        let report = StallReport {
            cycle: 12345,
            kind: StallKind::RetxLivelock {
                router: NodeId(5),
                dir: Direction::East,
                flit: FlitId(99),
                attempts: 64,
            },
            resident_flits: 19,
            queued_flits: 7,
            delivered_flits: 3,
            heartbeat: None,
        };
        let mut buf = Vec::new();
        encode_stall_report(&mut buf, &report);
        let mut input = buf.as_slice();
        let back = decode_stall_report(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
    }

    #[test]
    fn post_mortem_snapshot_written_on_stall() {
        use crate::fault::LinkFaults;
        use crate::watchdog::WatchdogConfig;
        use noc_trojan::{TargetSpec, TaspConfig, TaspHt};

        let dir = scratch_dir("pm");
        let mut cfg = SimConfig::paper_unprotected();
        cfg.watchdog = Some(WatchdogConfig {
            global_stall_cycles: 200,
            credit_stall_cycles: u64::MAX,
            retx_attempt_limit: u32::MAX,
        });
        let mut sim = Simulator::new(cfg.clone());
        sim.set_post_mortem_dir(Some(dir.clone()));
        // An armed trojan with no mitigation starves the targeted flow:
        // the watchdog must trip and drop a post-mortem snapshot.
        let link = sim.mesh().link_out(NodeId(0), Direction::East).unwrap();
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(1)));
        let faults = std::mem::replace(sim.link_faults_mut(link), LinkFaults::healthy(0));
        *sim.link_faults_mut(link) = faults.with_trojan(ht);
        sim.arm_trojans(true);
        let mut src = ListSource {
            packets: vec![pkt(1, 0, 0, 1, 2)],
        };
        let result = sim.run_to_quiescence_guarded(5_000, &mut src);
        assert!(result.is_err(), "expected a stall, got {result:?}");
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(files.len(), 1, "one post-mortem snapshot");
        let snap = SimSnapshot::read(&files[0].path()).unwrap();
        let mut twin = Simulator::new(cfg);
        twin.restore(&snap).unwrap();
        assert_eq!(twin.cycle(), snap.cycle());
        assert_eq!(twin.snapshot().payload, snap.payload);
        std::fs::remove_dir_all(&dir).ok();
    }
}
