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
//! # One codec
//!
//! Each persisted layout is stated once, as a [`Persist::persist`] walk
//! that visits every field in wire order. Two [`Codec`]s drive the same
//! walk: [`Writer`] appends each field, and [`Reader`] overwrites each
//! field in place and runs the decode checks (lengths the configuration
//! fixes, enum tags, port and arbiter bounds), each failing as
//! [`SnapshotError::Corrupt`]. Adding a field is one line in its type's
//! walk; changing the bytes means bumping [`SNAPSHOT_VERSION`] and
//! re-recording the byte-format golden. Campaign drivers store their own
//! records (stall logs, traffic cursors) in `user_data` through the same
//! codec.
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

use crate::arbiter::RoundRobin;
use crate::config::{SimConfig, TraceConfig};
use crate::error::SimError;
use crate::fault::{LinkFaults, StuckWires};
use crate::input::{DelayedEntry, InputUnit, InputVc, PendingScramble, VcState};
use crate::invariants::Violation;
use crate::link::LinkLanes;
use crate::message::{AckKind, AckMsg, LinkFlit, ObfWire, SimEvent, TraceEvent, TraceOutcome};
use crate::metrics::{Counter, Gauge, LinkMetrics, PowHistogram, RouterMetrics};
use crate::output::{OutputUnit, RetxEntry, SlotState};
use crate::router::{Router, StMove};
use crate::routing::{RouteTables, Routing, TopoRoutes};
use crate::sim::Simulator;
use crate::stats::{SimStats, Snapshot as StatsSnapshot};
use crate::trace::{Record, TraceRecorder};
use crate::watchdog::{StallKind, StallReport};
use noc_ecc::Codeword;
use noc_mitigation::{DetectorState, FaultClass, FaultRecordState, LobPlan};
use noc_trojan::{FieldMatch, TargetSpec, TaspConfig, TaspHt, TaspState};
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

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(what.into())
}

// ---------------------------------------------------------------------
// The codec: one walk per layout, driven by a writer or a reader
// ---------------------------------------------------------------------

/// A value that walks its fields, in wire order, through a [`Codec`]:
/// the single statement of its snapshot layout.
pub trait Persist {
    /// Append every field to a [`Writer`], or overwrite every field from
    /// a [`Reader`]. Only reading can fail.
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError>;
}

/// The direction a [`Persist`] walk runs in: [`Writer`] or [`Reader`].
pub trait Codec {
    /// `true` for [`Reader`]: decode checks and rebuilds run only then.
    const READING: bool;

    /// Move `N` raw bytes: append them, or overwrite them from the input.
    fn raw<const N: usize>(&mut self, bytes: &mut [u8; N]) -> Result<(), SnapshotError>;

    /// Move a `u64`-length-prefixed byte string in one copy.
    fn bytes(&mut self, bytes: &mut Vec<u8>) -> Result<(), SnapshotError>;
}

/// Encodes [`Persist`] walks by appending each field.
#[derive(Debug, Default)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            out: Vec::with_capacity(capacity),
        }
    }

    /// Append `value`. The walk takes `&mut` so that one walk serves
    /// both directions; writing leaves `value` unchanged.
    pub fn put<T: Persist + ?Sized>(&mut self, value: &mut T) {
        // A walk only fails on decode checks, which run under `READING`.
        value.persist(self).expect("encoding cannot fail");
    }

    /// Append a `u64`-length-prefixed byte string.
    fn blob(&mut self, bytes: &[u8]) {
        self.out
            .extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        self.out.extend_from_slice(bytes);
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

impl Codec for Writer {
    const READING: bool = false;

    #[inline]
    fn raw<const N: usize>(&mut self, bytes: &mut [u8; N]) -> Result<(), SnapshotError> {
        self.out.extend_from_slice(bytes);
        Ok(())
    }

    #[inline]
    fn bytes(&mut self, bytes: &mut Vec<u8>) -> Result<(), SnapshotError> {
        self.blob(bytes);
        Ok(())
    }
}

/// Decodes [`Persist`] walks by overwriting each field from a byte
/// slice; malformed input fails as [`SnapshotError::Corrupt`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Decode a fresh `T`.
    pub fn get<T: Persist + Default>(&mut self) -> Result<T, SnapshotError> {
        let mut value = T::default();
        value.persist(self)?;
        Ok(value)
    }

    /// Reject trailing bytes once decoding claims to be done.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} trailing bytes"))),
        }
    }

    /// A length-prefixed byte string, borrowed from the input: the length
    /// is checked against what remains before anything is copied.
    fn blob(&mut self) -> Result<&'a [u8], SnapshotError> {
        let mut len = 0usize;
        len.persist(self)?;
        let (head, rest) = self
            .buf
            .split_at_checked(len)
            .ok_or_else(|| corrupt("input ends mid-field"))?;
        self.buf = rest;
        Ok(head)
    }
}

impl Codec for Reader<'_> {
    const READING: bool = true;

    #[inline]
    fn raw<const N: usize>(&mut self, bytes: &mut [u8; N]) -> Result<(), SnapshotError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| corrupt("input ends mid-field"))?;
        *bytes = *head;
        self.buf = rest;
        Ok(())
    }

    fn bytes(&mut self, bytes: &mut Vec<u8>) -> Result<(), SnapshotError> {
        let blob = self.blob()?;
        bytes.clear();
        bytes.extend_from_slice(blob);
        Ok(())
    }
}

/// Walk each listed place through the codec `c`, in order.
macro_rules! persist {
    ($c:ident; $($place:expr),* $(,)?) => {{
        $($place.persist($c)?;)*
        Ok(())
    }};
}

/// A `u8` tag, then the variant's fields in the order listed. Reading a
/// tag builds its variant from default fields and then overwrites them.
/// The `default` form also makes the first arm the enum's `Default`: the
/// placeholder a decoded sequence item starts from.
macro_rules! persist_enum {
    (default $ty:ident $what:literal {
        $tag0:literal => $var0:ident $({ $($f0:ident),+ })?
        $(, $tag:literal => $var:ident $({ $($f:ident),+ })?)* $(,)?
    }) => {
        impl Default for $ty {
            fn default() -> Self {
                $ty::$var0 $({ $($f0: Default::default()),+ })?
            }
        }
        persist_enum!($ty $what {
            $tag0 => $var0 $({ $($f0),+ })? $(, $tag => $var $({ $($f),+ })?)*
        });
    };
    ($ty:ident $what:literal { $($tag:literal => $var:ident $({ $($f:ident),+ })?),+ $(,)? }) => {
        impl Persist for $ty {
            fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
                let mut tag: u8 = match self {
                    $($ty::$var { .. } => $tag,)+
                };
                tag.persist(c)?;
                if C::READING {
                    *self = match tag {
                        $($tag => $ty::$var $({ $($f: Default::default()),+ })?,)+
                        t => return Err(corrupt(format!(concat!($what, " tag {}"), t))),
                    };
                }
                match self {
                    $($ty::$var $({ $($f),+ })? => persist!(c; $($($f),+)?),)+
                }
            }
        }
    };
}

/// A struct walked field by field, in the order listed.
macro_rules! persist_fields {
    ($ty:ty: $($field:ident),+ $(,)?) => {
        impl Persist for $ty {
            fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
                persist!(c; $(self.$field),+)
            }
        }
    };
}

macro_rules! persist_le {
    ($($t:ty),+) => {$(
        /// Little-endian.
        impl Persist for $t {
            #[inline]
            fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
                let mut bytes = self.to_le_bytes();
                c.raw(&mut bytes)?;
                if C::READING {
                    *self = <$t>::from_le_bytes(bytes);
                }
                Ok(())
            }
        }
    )+};
}

persist_le!(u8, u16, u32, u64, u128);

macro_rules! persist_newtype {
    ($($t:ty),+) => {$(
        impl Persist for $t {
            #[inline]
            fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
                self.0.persist(c)
            }
        }
    )+};
}

persist_newtype!(NodeId, LinkId, VcId, PacketId, FlitId, Codeword, Counter);

/// Lengths, counts and indices travel as `u64`.
impl Persist for usize {
    #[inline]
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut v = *self as u64;
        v.persist(c)?;
        if C::READING {
            *self = usize::try_from(v).map_err(|_| corrupt(format!("length {v}")))?;
        }
        Ok(())
    }
}

/// The IEEE-754 bit pattern: an exact round trip.
impl Persist for f64 {
    #[inline]
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut bits = self.to_bits();
        bits.persist(c)?;
        if C::READING {
            *self = f64::from_bits(bits);
        }
        Ok(())
    }
}

/// One byte, 0 or 1.
impl Persist for bool {
    #[inline]
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut byte = *self as u8;
        byte.persist(c)?;
        if C::READING {
            *self = match byte {
                0 => false,
                1 => true,
                b => return Err(corrupt(format!("bool byte {b}"))),
            };
        }
        Ok(())
    }
}

impl Persist for String {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut bytes = std::mem::take(self).into_bytes();
        c.bytes(&mut bytes)?;
        *self = String::from_utf8(bytes).map_err(|_| corrupt("string is not UTF-8"))?;
        Ok(())
    }
}

impl<T: Persist + ?Sized> Persist for &mut T {
    #[inline]
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        (**self).persist(c)
    }
}

/// A presence flag, then the value.
impl<T: Persist + Default> Persist for Option<T> {
    #[inline]
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut present = self.is_some();
        present.persist(c)?;
        if C::READING && present != self.is_some() {
            *self = present.then(T::default);
        }
        match self {
            Some(v) => v.persist(c),
            None => Ok(()),
        }
    }
}

/// Fixed size: the items, no count.
impl<T: Persist, const N: usize> Persist for [T; N] {
    #[inline]
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.iter_mut().try_for_each(|v| v.persist(c))
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    #[inline]
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        persist!(c; self.0, self.1)
    }
}

impl<A: Persist, B: Persist, D: Persist> Persist for (A, B, D) {
    #[inline]
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        persist!(c; self.0, self.1, self.2)
    }
}

macro_rules! persist_seq {
    ($seq:ident, $push:ident) => {
        /// A `u64` count, then the items. Decoding grows the sequence one
        /// item at a time, so a hostile count fails at the first short
        /// read instead of reserving memory.
        impl<T: Persist + Default> Persist for $seq<T> {
            fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
                let mut n = self.len();
                n.persist(c)?;
                if !C::READING {
                    return self.iter_mut().try_for_each(|v| v.persist(c));
                }
                self.clear();
                for _ in 0..n {
                    let mut v = T::default();
                    v.persist(c)?;
                    self.$push(v);
                }
                Ok(())
            }
        }
    };
}

persist_seq!(Vec, push);
persist_seq!(VecDeque, push_back);

/// A `u64` count the configuration fixes: decoding checks it instead of
/// resizing.
fn fixed_len<C: Codec>(c: &mut C, what: &str, len: usize) -> Result<(), SnapshotError> {
    let mut n = len;
    n.persist(c)?;
    if n != len {
        return Err(corrupt(format!(
            "{what}: {n} entries, configuration has {len}"
        )));
    }
    Ok(())
}

/// A sequence whose length the configuration fixes: the count, then each
/// item overwritten in place.
fn fixed<C: Codec, T: Persist>(
    c: &mut C,
    what: &str,
    items: &mut [T],
) -> Result<(), SnapshotError> {
    fixed_len(c, what, items.len())?;
    items.iter_mut().try_for_each(|v| v.persist(c))
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
        // Body first, then the frame around a copy of it. Writing the frame
        // into one buffer and patching the CRC in place saves that copy,
        // but after a 32×32 snapshot glibc then kept ~15 MB more heap
        // resident, enough to trip the `cycles_per_sec` RSS ceilings.
        let mut body = Writer::with_capacity(self.payload.len() + self.user_data.len() + 64);
        body.put(&mut (SNAPSHOT_VERSION, self.config_hash, self.cycle));
        body.blob(&self.payload);
        body.blob(&self.user_data);
        let body = body.into_bytes();
        let mut out = Vec::with_capacity(body.len() + 16);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&crc64(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parse the on-disk format. The CRC is verified before anything else
    /// is interpreted: any flip or truncation anywhere in the file is
    /// [`SnapshotError::Corrupt`], and only a CRC-clean body can be
    /// diagnosed as a version mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let Some((head, body)) = bytes.split_first_chunk::<16>() else {
            return Err(corrupt("file shorter than header"));
        };
        let (magic, stored) = head.split_at(8);
        if magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let stored = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
        let computed = crc64(body);
        if stored != computed {
            return Err(corrupt(format!(
                "crc mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let mut r = Reader::new(body);
        let version: u32 = r.get()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let (config_hash, cycle) = r.get()?;
        let mut snap = Self {
            payload: Vec::new(),
            config_hash,
            cycle,
            user_data: Vec::new(),
        };
        r.bytes(&mut snap.payload)?;
        r.bytes(&mut snap.user_data)?;
        r.finish()?;
        Ok(snap)
    }

    /// Write atomically: temp sibling → `sync_all` → rename, plus a
    /// best-effort fsync of the parent directory, so a crash at any point
    /// leaves either the previous file or the complete new one.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        crate::telemetry::write_atomic(path, &self.to_bytes())
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
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
// Payload layouts
// ---------------------------------------------------------------------

// Field by field, not `Header::pack()`: the packed wire form aliases
// coordinates mod 16 and would not round-trip large meshes.
persist_fields!(Header: src, dest, vc, mem_addr, thread, len);

persist_fields!(Flit: id, packet, kind, seq, header, word);

persist_enum!(FlitKind "flit kind" { 0 => Head, 1 => Body, 2 => Tail, 3 => Single });
persist_enum!(FaultClass "fault class" {
    0 => None,
    1 => Transient,
    2 => Permanent,
    3 => HardwareTrojan,
});

/// The plan's label, the trace schema's stable text form.
impl Persist for LobPlan {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut label = if C::READING {
            String::new()
        } else {
            self.label()
        };
        label.persist(c)?;
        if C::READING {
            *self = LobPlan::from_label(&label)
                .ok_or_else(|| corrupt(format!("lob plan label {label:?}")))?;
        }
        Ok(())
    }
}

persist_fields!(ObfWire: plan, attempt, partner);

persist_enum!(Direction "direction" { 0 => East, 1 => West, 2 => North, 3 => South });

/// [`Port::index`]; [`Router`]'s walk checks it against the port count.
impl Persist for Port {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut i = self.index() as u8;
        i.persist(c)?;
        if C::READING {
            *self = Port::from_index(i as usize);
        }
        Ok(())
    }
}

persist_enum!(default StallKind "stall kind" {
    0 => GlobalDeadlock { idle_cycles },
    1 => CreditStall { router, dir, oldest_age },
    2 => RetxLivelock { router, dir, flit, attempts },
});

/// The campaign driver also stores its stall log, a `Vec<StallReport>`,
/// in snapshot `user_data`.
impl Persist for StallReport {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        if C::READING {
            // Wall-clock telemetry is not simulation state: a restored run
            // re-arms (or not) its own telemetry plane.
            self.heartbeat = None;
        }
        persist!(c; self.cycle, self.kind, self.resident_flits, self.queued_flits)?;
        self.delivered_flits.persist(c)
    }
}

persist_enum!(default SimEvent "sim event" {
    0 => PacketDelivered { packet, src, dest, injected_at, delivered_at },
    1 => BistRan { link, passed, cycle },
    2 => LinkClassified { link, class, cycle },
    3 => ObfuscationSucceeded { link, plan, cycle },
    4 => RetryBudgetEscalated { link, flit, attempts, cycle },
    5 => LinkQuarantined { link, dropped_packets, dropped_flits, cycle },
    6 => WatchdogTripped { report },
});

persist_enum!(default TraceEvent "trace event" {
    0 => Injected { cycle, flit, core },
    1 => Launched { cycle, flit, link, obfuscated, attempt },
    2 => Delivered { cycle, flit, link, outcome },
    3 => Ejected { cycle, flit, router },
});

persist_enum!(default TraceOutcome "trace outcome" {
    0 => Clean,
    1 => CorrectedSingleBit,
    2 => Nacked { lob_requested },
});

persist_fields!(Violation: router, what);

/// A `u8` tag where 0 is "not poisoned", then the error's fields.
fn sim_error<C: Codec>(c: &mut C, err: &mut Option<SimError>) -> Result<(), SnapshotError> {
    let mut tag: u8 = match err {
        None => 0,
        Some(SimError::Stalled(_)) => 1,
        Some(SimError::MeshDisconnected { .. }) => 2,
        Some(SimError::InvariantViolations { .. }) => 3,
    };
    tag.persist(c)?;
    if C::READING {
        *err = match tag {
            0 => None,
            1 => Some(SimError::Stalled(Box::default())),
            2 => Some(SimError::MeshDisconnected {
                cycle: 0,
                dead: Vec::new(),
            }),
            3 => Some(SimError::InvariantViolations {
                cycle: 0,
                violations: Vec::new(),
            }),
            t => return Err(corrupt(format!("sim error tag {t}"))),
        };
    }
    match err {
        None => Ok(()),
        Some(SimError::Stalled(report)) => report.persist(c),
        Some(SimError::MeshDisconnected { cycle, dead }) => persist!(c; cycle, dead),
        Some(SimError::InvariantViolations { cycle, violations }) => persist!(c; cycle, violations),
    }
}

persist_fields!(StatsSnapshot:
    cycle, input_util, output_util, injection_util, routers_all_cores_full, routers_half_cores_full,
    routers_blocked_port, delivered_flits, retransmissions, uncorrectable_faults
);

persist_fields!(SimStats:
    snapshots, injected_packets, delivered_packets, injected_flits, delivered_flits, latency_sum,
    latency_samples, latency_max, latency_histogram, retransmissions, corrected_faults,
    uncorrectable_faults, bist_scans, dropped_flits, dropped_packets, quarantined_links,
    budget_escalations
);

/// A `u8` tag, then for table-driven routing the `next[router][dest]`
/// table (and the topology tables' VC class per entry), square over the
/// configuration's `routers`.
fn routing<C: Codec>(
    c: &mut C,
    routing: &mut Routing,
    routers: usize,
) -> Result<(), SnapshotError> {
    let mut tag: u8 = match routing {
        Routing::Xy => 0,
        Routing::Table(_) => 1,
        Routing::OddEven => 2,
        Routing::Topo(_) => 3,
    };
    tag.persist(c)?;
    if C::READING {
        let square = || vec![vec![None; routers]; routers];
        *routing = match tag {
            0 => Routing::Xy,
            1 => Routing::Table(RouteTables { next: square() }),
            2 => Routing::OddEven,
            3 => Routing::Topo(TopoRoutes::from_parts(
                square(),
                vec![vec![0; routers]; routers],
            )),
            t => return Err(corrupt(format!("routing tag {t}"))),
        };
    }
    match routing {
        Routing::Xy | Routing::OddEven => Ok(()),
        Routing::Table(t) => {
            fixed_len(c, "route table rows", t.next.len())?;
            t.next
                .iter_mut()
                .try_for_each(|row| fixed(c, "route table row", row))
        }
        Routing::Topo(t) => {
            fixed_len(c, "topo table rows", t.next.len())?;
            for (row, classes) in t.next.iter_mut().zip(t.class.iter_mut()) {
                fixed_len(c, "topo table row", row.len())?;
                for (next, class) in row.iter_mut().zip(classes.iter_mut()) {
                    persist!(c; next, class)?;
                    if C::READING && *class > 2 {
                        return Err(corrupt(format!("topo table vc class {class}")));
                    }
                }
            }
            Ok(())
        }
    }
}

persist_fields!(FaultRecordState: faults, syndromes, obf_attempts, clean_after_obf);

persist_fields!(DetectorState:
    records, total_faults, total_retransmissions, bist_requests, lob_escalations, bist_passed
);

persist_enum!(VcState "vc state" { 0 => Idle, 1 => Routing, 2 => VcAlloc, 3 => Active });

persist_fields!(InputVc: fifo, state, route, out_vc, packet, wire_packet, expected_seq, since);

persist_fields!(DelayedEntry: ready, vc, flit, order);

persist_fields!(PendingScramble: flit, vc, partner, arrived, penalty, order);

impl Persist for InputUnit {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        fixed(c, "input vcs", &mut self.vcs)?;
        let mut detector = if C::READING {
            DetectorState::default()
        } else {
            self.detector.export_state()
        };
        detector.persist(c)?;
        if C::READING {
            self.detector.import_state(detector);
        }
        persist!(c; self.delayed, self.pending_scrambles, self.seen_words, self.seen_head)?;
        if C::READING && self.seen_head > self.seen_words.len() {
            return Err(corrupt("seen_head beyond ring"));
        }
        persist!(c; self.next_order, self.reported_class, self.occupancy_high_water)
    }
}

persist_enum!(default SlotState "slot state" { 0 => NeedSend, 1 => AwaitAck });

persist_fields!(RetxEntry: flit, vc, state, attempts, nacks, obf, sent_at, entered_at);

impl Persist for OutputUnit {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.entries.persist(c)?;
        fixed(c, "vc_owner", &mut self.vc_owner)?;
        fixed(c, "credits", &mut self.credits)?;
        let lob = &mut self.lob;
        let (mut logged, mut attempts, mut successes) =
            (lob.logged_plan(), lob.attempts(), lob.successes());
        persist!(c; logged, attempts, successes)?;
        if C::READING {
            lob.restore(logged, attempts, successes);
        }
        // Both arbiter fields: `select_send` lazily rebuilds the arbiter
        // (resetting the pointer) whenever its width differs from
        // `total_capacity()`, so the width must survive the round trip too.
        let rr = &mut self.send_rr;
        persist!(c; rr.next, rr.n)?;
        if C::READING && (rr.n == 0 || rr.next >= rr.n) {
            return Err(corrupt(format!("send_rr pointer {}/{}", rr.next, rr.n)));
        }
        persist!(c; self.last_progress, self.protected_dests, self.flits_sent)?;
        persist!(c; self.retransmissions, self.sab_credit_seen)
    }
}

/// A round-robin pointer, checked against the arbiter's configured width.
fn pointer<C: Codec>(c: &mut C, what: &str, arb: &mut RoundRobin) -> Result<(), SnapshotError> {
    arb.next.persist(c)?;
    if C::READING && arb.next >= arb.n {
        return Err(corrupt(format!("{what} pointer {}/{}", arb.next, arb.n)));
    }
    Ok(())
}

persist_fields!(StMove: flit, out_port, out_vc, granted_at);

impl Persist for Router {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        fixed(c, "router inputs", &mut self.inputs)?;
        for unit in self.outputs.iter_mut() {
            let mut present = unit.is_some();
            present.persist(c)?;
            if present != unit.is_some() {
                return Err(corrupt(format!(
                    "output presence {present} disagrees with mesh topology"
                )));
            }
            if let Some(u) = unit {
                u.persist(c)?;
            }
        }
        for arb in self.va_arb.iter_mut() {
            pointer(c, "va_arb", arb)?;
        }
        fixed_len(c, "sa_arb", self.sa_arb.len())?;
        for arb in self.sa_arb.iter_mut() {
            pointer(c, "sa_arb", arb)?;
        }
        persist!(c; self.st_pending, self.pending_to_output)?;
        if C::READING {
            let ports = self.inputs.len();
            let routes = self
                .inputs
                .iter()
                .flat_map(|u| &u.vcs)
                .filter_map(|vc| vc.route);
            let moves = self.st_pending.iter().map(|m| m.out_port);
            if let Some(p) = routes.chain(moves).find(|p| p.index() >= ports) {
                return Err(corrupt(format!("port index {} >= {ports}", p.index())));
            }
        }
        Ok(())
    }
}

/// `None`, `Exact(v)` or `Range(start..=end)` as tags 0, 1, 2.
fn field_match<C: Codec, T>(c: &mut C, m: &mut Option<FieldMatch<T>>) -> Result<(), SnapshotError>
where
    T: Persist + Default + Copy,
{
    let (mut tag, mut a, mut b): (u8, T, T) = match m {
        None => (0, T::default(), T::default()),
        Some(FieldMatch::Exact(v)) => (1, *v, T::default()),
        Some(FieldMatch::Range(r)) => (2, *r.start(), *r.end()),
    };
    tag.persist(c)?;
    match tag {
        0 => {}
        1 => a.persist(c)?,
        2 => persist!(c; a, b)?,
        t => return Err(corrupt(format!("field match tag {t}"))),
    }
    if C::READING {
        *m = match tag {
            0 => None,
            1 => Some(FieldMatch::Exact(a)),
            _ => Some(FieldMatch::Range(a..=b)),
        };
    }
    Ok(())
}

impl Persist for TargetSpec {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        field_match(c, &mut self.src)?;
        field_match(c, &mut self.dest)?;
        field_match(c, &mut self.vc)?;
        field_match(c, &mut self.mem)
    }
}

persist_enum!(TaspState "tasp state" { 0 => Idle, 1 => Active, 2 => Attacking });

/// A presence flag, then a mounted TASP instance: its design (target,
/// counter width, reach, cooldown), then its runtime state.
fn trojan<C: Codec>(c: &mut C, slot: &mut Option<TaspHt>) -> Result<(), SnapshotError> {
    let mut present = slot.is_some();
    present.persist(c)?;
    if !present {
        *slot = None;
        return Ok(());
    }
    let ht = slot.get_or_insert_with(|| TaspHt::new(TaspConfig::new(TargetSpec::default())));
    let mut cfg = ht.config().clone();
    let mut stats = ht.stats();
    let (mut killsw, mut state, mut last) = (ht.kill_switch(), ht.state(), ht.last_injection());
    let (mut payload, mut payload_injections) = (ht.payload_state(), ht.payload_injections());
    persist!(c; cfg.target, cfg.y_bits, cfg.wire_bits, cfg.cooldown, killsw, state, last)?;
    persist!(c; stats.inspections, stats.sightings, stats.injections, payload, payload_injections)?;
    if C::READING {
        // The payload FSM asserts its design and state; hostile input
        // must fail typed instead (and the XOR mask is 128 bits wide).
        let design_ok = (1..=10).contains(&cfg.y_bits) && (2..=128).contains(&cfg.wire_bits);
        if !design_ok || payload >= 1 << cfg.y_bits {
            return Err(corrupt(format!(
                "tasp design y={} wires={} payload state {payload}",
                cfg.y_bits, cfg.wire_bits
            )));
        }
        *ht = TaspHt::new(cfg);
        ht.restore_runtime(killsw, state, last, stats, payload, payload_injections);
    }
    Ok(())
}

/// The RNG's full internal state.
impl Persist for StdRng {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut state = self.state();
        state.persist(c)?;
        if C::READING {
            *self = StdRng::from_state(state);
        }
        Ok(())
    }
}

persist_fields!(StuckWires: stuck_one, stuck_zero);

impl Persist for LinkFaults {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        persist!(c; self.transient_bit_prob, self.stuck)?;
        trojan(c, &mut self.trojan)?;
        persist!(c; self.rng, self.transient_flips, self.trojan_injections)
    }
}

persist_fields!(LinkFlit: flit, codeword, wire_word, vc, obf);

persist_enum!(default AckKind "ack kind" { 0 => Ack { obf_success }, 1 => Nack { lob_attempt } });

persist_fields!(AckMsg: flit, kind);

/// Link `i` of the SoA pool: the wire (arrival cycle and flit), the
/// reverse channels, the fault layer and the lifetime flit count.
fn link<C: Codec>(c: &mut C, lanes: &mut LinkLanes, i: usize) -> Result<(), SnapshotError> {
    let mut wire = lanes.flits[i].map(|lf| (lanes.arrive_at[i], lf));
    wire.persist(c)?;
    if C::READING {
        // `u64::MAX` marks an idle wire.
        (lanes.arrive_at[i], lanes.flits[i]) = match wire {
            Some((at, lf)) => (at, Some(lf)),
            None => (u64::MAX, None),
        };
    }
    persist!(c; lanes.acks[i], lanes.credits[i], lanes.faults[i], lanes.flits_carried[i])
}

persist_fields!(PowHistogram: buckets, count, max);

persist_fields!(Gauge: current, high_water);

persist_fields!(LinkMetrics:
    flits, retransmissions, ecc_corrected, ecc_uncorrectable, nacks, bist_scans, lob_selections,
    delivery_attempts
);

persist_fields!(RouterMetrics:
    ejected_flits, injection_stalls, input_occupancy, retx_occupancy, buffer_high_water
);

/// A presence flag, then the ring's capacity and counters and its records
/// as JSONL lines (the trace schema's round-tripping text form). Reading
/// keeps an attached sink: it belongs to the live simulator, not to the
/// snapshot.
fn tracer<C: Codec>(c: &mut C, slot: &mut Option<TraceRecorder>) -> Result<(), SnapshotError> {
    let mut present = slot.is_some();
    present.persist(c)?;
    if !present {
        if let Some(mut t) = slot.take() {
            t.close_sink();
        }
        return Ok(());
    }
    let t = slot.get_or_insert_with(|| TraceRecorder::new(TraceConfig { capacity: 1 }));
    let mut lines: Vec<String> = if C::READING {
        Vec::new()
    } else {
        t.buf.iter().map(Record::to_jsonl).collect()
    };
    persist!(c; t.capacity, t.emitted, t.dropped, lines)?;
    if C::READING {
        t.capacity = t.capacity.max(1);
        t.buf = lines
            .iter()
            .map(|line| Record::from_jsonl(line).ok_or_else(|| corrupt("trace record jsonl")))
            .collect::<Result<_, _>>()?;
    }
    Ok(())
}

impl Persist for Simulator {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        // Sorted, so the bytes do not depend on hash-map iteration order.
        let mut birth: Vec<(PacketId, u64)> = if C::READING {
            Vec::new()
        } else {
            let mut b: Vec<_> = self.birth.iter().map(|(p, at)| (*p, *at)).collect();
            b.sort_unstable();
            b
        };
        persist!(c; self.cycle, self.next_flit_id, birth)?;
        if C::READING {
            self.birth.clear();
            self.birth.extend(birth);
        }
        persist!(c; self.stats, self.events, self.trace, self.last_progress_cycle)?;
        self.pending_quarantine.persist(c)?;
        sim_error(c, &mut self.poisoned)?;
        persist!(c; self.watchdog_armed_at, self.snap_base)?;
        fixed(c, "router_active", &mut self.router_active)?;
        fixed(c, "link_dead", &mut self.link_dead)?;
        self.sabotage_eject_seen.persist(c)?;
        fixed(c, "inj_rr", &mut self.inj_rr)?;
        fixed(c, "inj_queues", &mut self.inj_queues)?;
        self.dead_links.persist(c)?;
        if C::READING {
            if let Some(l) = self
                .dead_links
                .iter()
                .find(|l| l.index() >= self.link_dead.len())
            {
                return Err(corrupt(format!("dead link {} out of range", l.0)));
            }
            // `link_dead` is the O(1) mirror of `dead_links`; both are
            // serialised, so their agreement doubles as a decode check.
            let marked = self.link_dead.iter().filter(|d| **d).count();
            if marked != self.dead_links.len()
                || self.dead_links.iter().any(|l| !self.link_dead[l.index()])
            {
                return Err(corrupt("dead_links / link_dead mirror disagree"));
            }
        }
        routing(c, &mut self.routing, self.mesh.routers())?;
        fixed(c, "link metrics", &mut self.metrics.links)?;
        fixed(c, "router metrics", &mut self.metrics.routers)?;
        tracer(c, &mut self.tracer)?;
        fixed(c, "routers", &mut self.routers)?;
        fixed_len(c, "links", self.links.len())?;
        (0..self.links.len()).try_for_each(|i| link(c, &mut self.links, i))
    }
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
    /// Takes `&mut self` because the one [`Persist`] walk that encodes
    /// also decodes in place; encoding changes nothing.
    pub fn snapshot(&mut self) -> SimSnapshot {
        let mut w = Writer::with_capacity(64 * 1024);
        w.put(self);
        SimSnapshot {
            payload: w.into_bytes(),
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
        let mut r = Reader::new(&snap.payload);
        self.persist(&mut r)?;
        r.finish()?;
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
        let snap = snap_through_disk(&mut first);
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
    fn snap_through_disk(sim: &mut Simulator) -> SimSnapshot {
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
        let mut sim = Simulator::new(SimConfig::paper());
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
        let mut w = Writer::default();
        w.put(&mut report.clone());
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back: StallReport = r.get().unwrap();
        r.finish().unwrap();
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

    // -----------------------------------------------------------------
    // The payload decoder behind the CRC
    // -----------------------------------------------------------------

    /// `snap` with its payload replaced and the frame re-sealed (fresh
    /// CRC), so only the payload decoder can reject it.
    fn reseal(snap: &SimSnapshot, payload: &[u8]) -> SimSnapshot {
        let mut s = snap.clone();
        s.payload = payload.to_vec();
        SimSnapshot::from_bytes(&s.to_bytes()).expect("a re-sealed frame is CRC-clean")
    }

    /// The paper configuration on a small fabric with two VCs, so every
    /// payload offset can be tried.
    fn small(mesh: noc_types::Mesh) -> SimConfig {
        let mut cfg = SimConfig::paper();
        cfg.mesh = mesh;
        cfg.vcs = 2;
        cfg.snapshot_interval = 40;
        cfg
    }

    fn traffic(n: u64, routers: u64) -> ListSource {
        let packets = (0..n)
            .map(|i| {
                let (src, dest) = (i % routers, (i + 1 + i / routers) % routers);
                pkt(i + 1, i, src as u16, dest as u16, 1 + (i % 4) as u8)
            })
            .filter(|p| p.src != p.dest)
            .collect();
        ListSource { packets }
    }

    /// Small snapshots whose payloads reach every section: on a 2×1 mesh
    /// trojans with exact and range targets, stuck wires, transients, a
    /// trace ring, a traced packet, a watchdog event and a poisoned
    /// simulator; table routing after a quarantine on a 2×2 mesh;
    /// topology tables on a degraded 2×2 mesh.
    fn small_cases() -> Vec<(SimConfig, SimSnapshot)> {
        use noc_trojan::{FieldMatch, TargetSpec, TaspConfig, TaspHt};
        let mut out = Vec::new();

        let mut cfg = small(noc_types::Mesh::new(2, 1, 1));
        cfg.trace = Some(TraceConfig { capacity: 6 });
        cfg.trace_packet = Some(PacketId((2 << 32) | 1));
        let mut sim = Simulator::new(cfg.clone());
        let east = sim.mesh().link_out(NodeId(0), Direction::East).unwrap();
        let west = sim.mesh().link_out(NodeId(1), Direction::West).unwrap();
        let ranged = TargetSpec {
            src: Some(FieldMatch::Range(0..=1)),
            mem: Some(FieldMatch::Exact(0x40)),
            ..TargetSpec::default()
        };
        let dest = TaspConfig::new(TargetSpec::dest(1));
        sim.link_faults_mut(east).trojan = Some(TaspHt::new(dest));
        sim.link_faults_mut(west).trojan = Some(TaspHt::new(TaspConfig::new(ranged)));
        sim.link_faults_mut(west).stuck = crate::fault::StuckWires::new(1 << 5, 1 << 66);
        sim.link_faults_mut(east).transient_bit_prob = 0.01;
        sim.arm_trojans(true);
        sim.run(30, &mut traffic(24, 2));
        let report = StallReport {
            cycle: 9,
            kind: StallKind::CreditStall {
                router: NodeId(1),
                dir: Direction::West,
                oldest_age: 7,
            },
            ..StallReport::default()
        };
        sim.events.push(SimEvent::WatchdogTripped { report });
        sim.poisoned = Some(SimError::InvariantViolations {
            cycle: 4,
            violations: vec![crate::invariants::Violation {
                router: 1,
                what: "über".into(),
            }],
        });
        out.push((cfg, sim.snapshot()));

        let cfg = small(noc_types::Mesh::new(2, 2, 1));
        let mut sim = Simulator::new(cfg.clone());
        let mut src = traffic(16, 4);
        sim.run(20, &mut src);
        sim.quarantine_link(LinkId(0)).unwrap();
        sim.run(10, &mut src);
        out.push((cfg, sim.snapshot()));

        let degraded = noc_types::Mesh::new_degraded(2, 2, 1, &[(NodeId(0), Direction::East)]);
        let cfg = small(degraded);
        let mut sim = Simulator::new(cfg.clone());
        sim.run(25, &mut traffic(12, 4));
        out.push((cfg, sim.snapshot()));
        out
    }

    /// Every payload truncation is `Corrupt`; every single-byte overwrite
    /// restores or fails typed — never a panic. The CRC is re-sealed each
    /// time, so these mutations reach the decoder the CRC shields.
    #[test]
    fn payload_mutations_are_typed_errors_never_panics() {
        for (case, (cfg, snap)) in small_cases().into_iter().enumerate() {
            let payload = snap.payload().to_vec();
            let mut sim = Simulator::new(cfg.clone());
            for cut in 0..payload.len() {
                match sim.restore(&reseal(&snap, &payload[..cut])) {
                    Err(SnapshotError::Corrupt(_)) => {}
                    other => panic!("case {case}: {cut}-byte payload gave {other:?}"),
                }
            }
            for at in 0..payload.len() {
                let mut mutated = payload.clone();
                mutated[at] ^= 0xff;
                match sim.restore(&reseal(&snap, &mutated)) {
                    Ok(()) | Err(SnapshotError::Corrupt(_)) => {}
                    Err(e) => panic!("case {case}: byte {at} inverted: {e:?}"),
                }
            }
            sim.restore(&snap)
                .expect("the intact payload still restores");
            assert_eq!(sim.snapshot().payload(), snap.payload(), "case {case}");
        }
    }

    /// `restore` of a donor whose crate-private state breaks one decode
    /// check must fail with a `Corrupt` naming that check.
    fn rejects(what: &str, mutate: impl FnOnce(&mut Simulator)) {
        let cfg = small(noc_types::Mesh::new(2, 2, 1));
        let mut donor = Simulator::new(cfg.clone());
        donor.run(20, &mut NoTraffic);
        mutate(&mut donor);
        let snap = donor.snapshot();
        match Simulator::new(cfg).restore(&snap) {
            Err(SnapshotError::Corrupt(msg)) if msg.contains(what) => {}
            other => panic!("{what}: {other:?}"),
        }
    }

    /// Decode one `T` from `bytes`; it must fail with a `Corrupt` naming
    /// `what`.
    fn rejects_bytes<T: Persist + Default + std::fmt::Debug>(what: &str, bytes: &[u8]) {
        match Reader::new(bytes).get::<T>() {
            Err(SnapshotError::Corrupt(msg)) if msg.contains(what) => {}
            other => panic!("{what}: {other:?}"),
        }
    }

    fn encoded(mut value: impl Persist) -> Vec<u8> {
        let mut w = Writer::default();
        w.put(&mut value);
        w.into_bytes()
    }

    #[test]
    fn every_value_check_rejects_its_input() {
        rejects_bytes::<u64>("ends mid-field", &[1, 2, 3]);
        rejects_bytes::<bool>("bool byte 2", &[2]);
        rejects_bytes::<String>("UTF-8", &encoded(vec![0xffu8, 0xfe]));
        rejects_bytes::<String>("ends mid-field", &encoded(u64::MAX));
        rejects_bytes::<Vec<u64>>("ends mid-field", &encoded(u64::MAX));
        rejects_bytes::<LobPlan>("lob plan label", &encoded("invert:sideways".to_string()));
        rejects_bytes::<FlitKind>("flit kind tag 4", &[4]);
        rejects_bytes::<FaultClass>("fault class tag 4", &[4]);
        rejects_bytes::<Direction>("direction tag 4", &[4]);
        rejects_bytes::<StallKind>("stall kind tag 3", &[3]);
        rejects_bytes::<SimEvent>("sim event tag 7", &[7]);
        rejects_bytes::<TraceEvent>("trace event tag 4", &[4]);
        rejects_bytes::<TraceOutcome>("trace outcome tag 3", &[3]);
        rejects_bytes::<SlotState>("slot state tag 2", &[2]);
        rejects_bytes::<AckKind>("ack kind tag 2", &[2]);
        rejects_bytes::<TargetSpec>("field match tag 3", &[3]);
        let mut state = VcState::Idle;
        assert!(
            state.persist(&mut Reader::new(&[4])).is_err(),
            "vc state tag"
        );
        let mut tasp = TaspState::Idle;
        assert!(
            tasp.persist(&mut Reader::new(&[3])).is_err(),
            "tasp state tag"
        );
        let mut err = None;
        assert!(
            sim_error(&mut Reader::new(&[4]), &mut err).is_err(),
            "sim error tag"
        );
        let mut r = Routing::Xy;
        assert!(
            routing(&mut Reader::new(&[4]), &mut r, 4).is_err(),
            "routing tag"
        );
        let jsonl = encoded((true, (3usize, 0u64), (0u64, vec!["{".to_string()])));
        assert!(
            matches!(tracer(&mut Reader::new(&jsonl), &mut None), Err(SnapshotError::Corrupt(m)) if m.contains("jsonl")),
            "trace record jsonl"
        );
        // TASP designs the payload FSM would assert on: counter width 0
        // and 11, a 1-wire and a 200-wire bundle, a payload state past 2^y.
        for (y_bits, wires, payload) in [
            (0u8, 72u8, 0u16),
            (11, 72, 0),
            (2, 1, 0),
            (2, 200, 0),
            (2, 72, 4),
        ] {
            let mut w = Writer::default();
            w.put(&mut (true, TargetSpec::default()));
            w.put(&mut (y_bits, wires, 0u32));
            w.put(&mut (false, TaspState::Idle, None::<u64>));
            w.put(&mut ([0u64; 3], payload, 0u64));
            let bytes = w.into_bytes();
            match trojan(&mut Reader::new(&bytes), &mut None) {
                Err(SnapshotError::Corrupt(m)) if m.contains("tasp design") => {}
                other => panic!("y={y_bits} wires={wires} state={payload}: {other:?}"),
            }
        }
    }

    #[test]
    fn every_shape_check_rejects_its_input() {
        use crate::routing::RouteTables;
        rejects("router_active", |s| s.router_active.push(true));
        rejects("link_dead", |s| s.link_dead.push(false));
        rejects("inj_rr", |s| s.inj_rr.push(0));
        rejects("inj_queues", |s| s.inj_queues.push(VecDeque::new()));
        rejects("link metrics", |s| s.metrics.links.push(Default::default()));
        rejects("router metrics", |s| {
            s.metrics.routers.push(Default::default())
        });
        rejects("routers", |s| {
            let extra = Router::new(NodeId(0), &s.mesh, &s.cfg);
            s.routers.push(extra);
        });
        rejects("links", |s| {
            let l = &mut s.links;
            l.arrive_at.push(u64::MAX);
            l.flits.push(None);
            l.acks.push(VecDeque::new());
            l.credits.push(VecDeque::new());
            l.faults.push(LinkFaults::healthy(0));
            l.flits_carried.push(0);
        });
        rejects("router inputs", |s| {
            let unit = InputUnit::new(s.cfg.vcs, Default::default());
            s.routers[0].inputs.push(unit);
        });
        rejects("input vcs", |s| {
            let vc = s.routers[1].inputs[0].vcs[0].clone();
            s.routers[1].inputs[0].vcs.push(vc);
        });
        rejects("seen_head beyond ring", |s| {
            s.routers[0].inputs[0].seen_head = 1
        });
        rejects("vc_owner", |s| {
            s.routers[0].outputs[0]
                .as_mut()
                .unwrap()
                .vc_owner
                .push(None)
        });
        rejects("credits", |s| {
            s.routers[0].outputs[0].as_mut().unwrap().credits.push(4)
        });
        rejects("send_rr pointer", |s| {
            let rr = &mut s.routers[0].outputs[0].as_mut().unwrap().send_rr;
            rr.next = rr.n;
        });
        rejects("output presence", |s| s.routers[0].outputs[0] = None);
        rejects("va_arb pointer", |s| s.routers[2].va_arb[3].next = 64);
        rejects("sa_arb pointer", |s| s.routers[2].sa_arb[1].next = 64);
        rejects("sa_arb", |s| s.routers[2].sa_arb.push(RoundRobin::new(1)));
        rejects("port index", |s| {
            s.routers[3].inputs[2].vcs[1].route = Some(Port::Local(1));
        });
        rejects("port index", |s| {
            let flit = Flit::default();
            s.routers[3].st_pending.push(StMove {
                flit,
                out_port: Port::Local(3),
                out_vc: None,
                granted_at: 0,
            });
        });
        rejects("dead link 99 out of range", |s| {
            s.dead_links.push(LinkId(99))
        });
        rejects("mirror disagree", |s| s.dead_links.push(LinkId(0)));
        rejects("mirror disagree", |s| s.link_dead[1] = true);
        rejects("route table rows", |s| {
            s.routing = Routing::Table(RouteTables {
                next: vec![vec![None; 4]; 3],
            })
        });
        rejects("route table row", |s| {
            let mut next = vec![vec![None; 4]; 4];
            next[2].pop();
            s.routing = Routing::Table(RouteTables { next });
        });
        let topo = |rows: usize, cols: usize, class: u8| {
            Routing::Topo(TopoRoutes::from_parts(
                vec![vec![None; cols]; rows],
                vec![vec![class; cols]; rows],
            ))
        };
        rejects("topo table rows", |s| s.routing = topo(5, 4, 0));
        rejects("topo table row", |s| s.routing = topo(4, 3, 0));
        rejects("topo table vc class 3", |s| s.routing = topo(4, 4, 3));
    }

    #[test]
    fn framing_checks_reject_their_input() {
        let (cfg, snap) = small_cases().swap_remove(0);
        let mut sim = Simulator::new(cfg);
        let mut long = snap.payload().to_vec();
        long.push(0);
        match sim.restore(&reseal(&snap, &long)) {
            Err(SnapshotError::Corrupt(m)) if m.contains("1 trailing bytes") => {}
            other => panic!("trailing payload byte: {other:?}"),
        }
        let mut late = snap.clone();
        late.cycle += 1;
        match sim.restore(&late) {
            Err(SnapshotError::Corrupt(m)) if m.contains("cycle disagree") => {}
            other => panic!("header/payload cycle: {other:?}"),
        }
    }
}
