//! Structured event tracing: a zero-cost-when-disabled event bus over the
//! whole flit lifecycle, with a bounded ring-buffer recorder, pluggable
//! sinks, and the forensics queries the paper's threat analysis reasons
//! over.
//!
//! # Event taxonomy
//!
//! [`TraceKind`] covers three layers of the stack:
//!
//! * **flit lifecycle** — inject, link launch (with any L-Ob plan on the
//!   wire), ECC correct/detect at ingress, accept/NACK verdicts,
//!   ejection, and explicit quarantine drops;
//! * **mitigation** — detector classification changes, L-Ob method
//!   selections and retry-budget escalations, BIST scans;
//! * **resilience** — watchdog verdicts and link quarantines.
//!
//! # Recording discipline
//!
//! Tracing is armed by [`TraceConfig`] on the simulator configuration.
//! When disarmed the simulator holds no recorder and every emission site
//! is a single `Option` test — no event is constructed, so statistics are
//! bit-identical with tracing on or off. When armed, records land in a
//! bounded ring buffer (oldest evicted first, evictions counted) and are
//! optionally forwarded to a [`TraceSink`] *before* buffering, so a JSONL
//! file sink sees the complete stream even when the ring wraps.
//!
//! # Sinks and formats
//!
//! * in-memory: the ring buffer itself (tests, forensics queries), or a
//!   [`ChannelSink`] for streaming assertions;
//! * [`JsonlSink`]: one flat JSON object per line. The schema is the
//!   one [`crate::json`] walk stated next to [`Record`], so the writer
//!   and the reader cannot disagree; `trace_validate` checks a file
//!   against it;
//! * [`chrome_trace`]: the Chrome `trace_event` JSON array format, so a
//!   run opens directly in `chrome://tracing` or Perfetto.

use crate::config::TraceConfig;
use crate::json::{self, json_labels, json_tagged, Blank, Codec, Fields, Json, JsonError, Value};
use crate::telemetry::AlertClass;
use crate::watchdog::StallKind;
use noc_mitigation::{FaultClass, LobPlan};
use noc_types::{CoreId, Direction, FlitId, LinkId, Mesh, NodeId, PacketId};
use std::collections::VecDeque;

/// Which watchdog detector fired (the trace-side mirror of
/// [`StallKind`], without the per-kind evidence payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallClass {
    /// Nothing ejected network-wide while flits are resident.
    GlobalDeadlock,
    /// One output port aged out without delivery progress.
    CreditStall,
    /// One flit replayed past the attempt limit without an ACK.
    RetxLivelock,
}

impl From<StallKind> for StallClass {
    fn from(k: StallKind) -> Self {
        match k {
            StallKind::GlobalDeadlock { .. } => StallClass::GlobalDeadlock,
            StallKind::CreditStall { .. } => StallClass::CreditStall,
            StallKind::RetxLivelock { .. } => StallClass::RetxLivelock,
        }
    }
}

/// One structured simulator event (the payload of a [`Record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A flit entered a core's injection queue.
    FlitInjected {
        /// The flit.
        flit: FlitId,
        /// Its packet.
        packet: PacketId,
        /// Injecting core (global core index).
        core: u16,
    },
    /// A flit was driven onto a link (first send or retransmission).
    FlitLaunched {
        /// The flit.
        flit: FlitId,
        /// Its packet.
        packet: PacketId,
        /// The link it crossed.
        link: LinkId,
        /// Launch attempts so far, including this one (1 = first send).
        attempt: u32,
        /// L-Ob plan applied to the wire word, when obfuscated.
        obf: Option<LobPlan>,
    },
    /// SECDED corrected a single-bit error at link ingress.
    EccCorrected {
        /// The flit.
        flit: FlitId,
        /// Its packet.
        packet: PacketId,
        /// The faulty link.
        link: LinkId,
    },
    /// SECDED detected an uncorrectable (multi-bit) error at ingress.
    EccDetected {
        /// The flit.
        flit: FlitId,
        /// Its packet.
        packet: PacketId,
        /// The faulty link.
        link: LinkId,
    },
    /// The receiver NACKed a flit (uncorrectable fault or ordering gap).
    FlitNacked {
        /// The flit.
        flit: FlitId,
        /// Its packet.
        packet: PacketId,
        /// The link whose upstream must replay.
        link: LinkId,
        /// Whether the detector asked the upstream to obfuscate the replay.
        lob_requested: bool,
    },
    /// The receiver accepted a flit into its input buffers.
    FlitAccepted {
        /// The flit.
        flit: FlitId,
        /// Its packet.
        packet: PacketId,
        /// The link it arrived on.
        link: LinkId,
        /// Whether the flit crossed obfuscated (undo penalty applies).
        obfuscated: bool,
    },
    /// A flit ejected to its destination core.
    FlitEjected {
        /// The flit.
        flit: FlitId,
        /// Its packet.
        packet: PacketId,
        /// The delivering router.
        router: NodeId,
    },
    /// A packet was explicitly dropped by a link quarantine purge.
    PacketDropped {
        /// The purged packet.
        packet: PacketId,
        /// The quarantined link it was committed to.
        link: LinkId,
    },
    /// The threat detector changed its belief about a link.
    LinkClassified {
        /// The classified link.
        link: LinkId,
        /// The new fault class.
        class: FaultClass,
    },
    /// The upstream L-Ob attached a plan to a NACKed flit's next send.
    LobSelected {
        /// The flit to be obfuscated.
        flit: FlitId,
        /// Its packet.
        packet: PacketId,
        /// The link the plan defends.
        link: LinkId,
        /// The selected method/granularity.
        plan: LobPlan,
        /// Position on the escalation ladder.
        attempt: u32,
    },
    /// Retry-budget exhaustion forced obfuscation onto a stuck entry.
    LobEscalated {
        /// The stuck flit.
        flit: FlitId,
        /// The link it is stuck on.
        link: LinkId,
        /// Launch attempts at escalation time.
        attempts: u32,
    },
    /// A BIST scan ran on a link.
    BistScan {
        /// The scanned link.
        link: LinkId,
        /// Whether the link passed (no stuck wires found).
        passed: bool,
    },
    /// A watchdog detector fired.
    WatchdogTripped {
        /// Which detector fired.
        class: StallClass,
        /// Blamed router, when the stall names one.
        router: Option<NodeId>,
        /// Blamed output direction, when the stall names one.
        dir: Option<Direction>,
    },
    /// A link was quarantined and its committed packets purged.
    LinkQuarantined {
        /// The quarantined link.
        link: LinkId,
        /// Flits explicitly dropped by the purge.
        dropped_flits: u64,
        /// Packets explicitly dropped by the purge.
        dropped_packets: u64,
    },
    /// A telemetry alert rule fired (`noc::telemetry`'s online DoS
    /// detector, mirrored onto the trace bus).
    Alert {
        /// Which rule class fired.
        class: AlertClass,
        /// The observed value that crossed the threshold.
        value: u64,
        /// The effective threshold it crossed.
        threshold: u64,
    },
}

// The JSONL schema, stated once: one flat object per record, `cycle`
// first, then the event name under `event` and the event's fields in
// the order listed. The writer and the reader both run this walk.
json_tagged!(TraceKind "event" {
    "flit_injected" => FlitInjected { flit, packet, core },
    "flit_launched" => FlitLaunched { flit, packet, link, attempt, obf },
    "ecc_corrected" => EccCorrected { flit, packet, link },
    "ecc_detected" => EccDetected { flit, packet, link },
    "flit_nacked" => FlitNacked { flit, packet, link, lob_requested },
    "flit_accepted" => FlitAccepted { flit, packet, link, obfuscated },
    "flit_ejected" => FlitEjected { flit, packet, router },
    "packet_dropped" => PacketDropped { packet, link },
    "link_classified" => LinkClassified { link, class },
    "lob_selected" => LobSelected { flit, packet, link, plan, attempt },
    "lob_escalated" => LobEscalated { flit, link, attempts },
    "bist_scan" => BistScan { link, passed },
    "watchdog_tripped" => WatchdogTripped { class as "kind", router, dir },
    "link_quarantined" => LinkQuarantined { link, dropped_flits, dropped_packets },
    "alert" => Alert { class, value, threshold },
});

json_labels!(StallClass {
    StallClass::GlobalDeadlock => "global_deadlock",
    StallClass::CreditStall => "credit_stall",
    StallClass::RetxLivelock => "retx_livelock",
});

json_labels!(FaultClass {
    FaultClass::None => "none",
    FaultClass::Transient => "transient",
    FaultClass::Permanent => "permanent",
    FaultClass::HardwareTrojan => "hardware_trojan",
});

json_labels!(Direction {
    Direction::East => "east",
    Direction::West => "west",
    Direction::North => "north",
    Direction::South => "south",
});

/// Types that carry their own `label`/`from_label` pair are written as
/// their label.
macro_rules! label_value {
    ($($t:ty),+) => {$(
        impl Value for $t {
            fn write(&mut self, out: &mut String) {
                json::write_str(out, &self.label());
            }

            fn read(v: &Json) -> Result<Self, JsonError> {
                let label = json::str_of(v)?;
                <$t>::from_label(label).ok_or_else(|| json::unknown_label(label))
            }
        }
    )+};
}

label_value!(LobPlan, AlertClass);

// Decode placeholders for the label-valued event fields, which have no
// natural default; the walk overwrites them.
impl Blank for StallClass {
    fn blank() -> Self {
        StallClass::GlobalDeadlock
    }
}

impl Blank for AlertClass {
    fn blank() -> Self {
        AlertClass::P99Latency
    }
}

/// One timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Simulation cycle the event happened on.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceKind,
}

impl Fields for Record {
    fn fields<C: Codec>(&mut self, c: &mut C) -> Result<(), JsonError> {
        c.field("cycle", &mut self.cycle)?;
        self.kind.fields(c)
    }
}

impl Blank for Record {
    fn blank() -> Self {
        Record {
            cycle: 0,
            kind: TraceKind::blank(),
        }
    }
}

impl Record {
    /// The packet this record concerns, when it names one.
    pub fn packet(&self) -> Option<PacketId> {
        match self.kind {
            TraceKind::FlitInjected { packet, .. }
            | TraceKind::FlitLaunched { packet, .. }
            | TraceKind::EccCorrected { packet, .. }
            | TraceKind::EccDetected { packet, .. }
            | TraceKind::FlitNacked { packet, .. }
            | TraceKind::FlitAccepted { packet, .. }
            | TraceKind::FlitEjected { packet, .. }
            | TraceKind::PacketDropped { packet, .. }
            | TraceKind::LobSelected { packet, .. } => Some(packet),
            _ => None,
        }
    }

    /// The link this record concerns, when it names one.
    pub fn link(&self) -> Option<LinkId> {
        match self.kind {
            TraceKind::FlitLaunched { link, .. }
            | TraceKind::EccCorrected { link, .. }
            | TraceKind::EccDetected { link, .. }
            | TraceKind::FlitNacked { link, .. }
            | TraceKind::FlitAccepted { link, .. }
            | TraceKind::PacketDropped { link, .. }
            | TraceKind::LinkClassified { link, .. }
            | TraceKind::LobSelected { link, .. }
            | TraceKind::LobEscalated { link, .. }
            | TraceKind::BistScan { link, .. }
            | TraceKind::LinkQuarantined { link, .. } => Some(link),
            _ => None,
        }
    }

    /// Append the record as one JSONL line, without its newline.
    pub fn write_jsonl(&self, out: &mut String) {
        let mut rec = *self;
        json::encode(&mut rec, out);
    }

    /// The record as one JSONL line, without its newline. The form is
    /// canonical: [`Record::from_jsonl`] reads it back to the same record.
    pub fn to_jsonl(&self) -> String {
        let mut line = String::with_capacity(128);
        self.write_jsonl(&mut line);
        line
    }

    /// Read one JSONL line back; the error names the member at fault.
    pub fn from_jsonl(line: &str) -> Result<Record, JsonError> {
        json::decode(line)
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// A destination records are forwarded to as they are emitted (before the
/// ring buffer, so a sink sees the complete stream even when the ring
/// wraps). Sinks must never fail the simulation: I/O errors are swallowed
/// by the implementations here.
pub trait TraceSink {
    /// Receive one record.
    fn emit(&mut self, rec: &Record);
    /// Flush any buffered output (called when the recorder is torn down).
    fn flush(&mut self) {}
}

/// Streams records as JSONL to any [`std::io::Write`] (a file, a pipe, a
/// `Vec<u8>` in tests).
pub struct JsonlSink<W: std::io::Write> {
    out: std::io::BufWriter<W>,
    /// The line being encoded, reused across records.
    line: String,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> Self {
        Self {
            out: std::io::BufWriter::new(out),
            line: String::new(),
        }
    }
}

impl<W: std::io::Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, rec: &Record) {
        use std::io::Write;
        self.line.clear();
        rec.write_jsonl(&mut self.line);
        self.line.push('\n');
        let _ = self.out.write_all(self.line.as_bytes());
    }

    fn flush(&mut self) {
        use std::io::Write;
        let _ = self.out.flush();
    }
}

/// Forwards records over an mpsc channel — the in-memory sink for tests
/// that want to observe the full stream without touching the ring buffer.
pub struct ChannelSink(pub std::sync::mpsc::Sender<Record>);

impl TraceSink for ChannelSink {
    fn emit(&mut self, rec: &Record) {
        let _ = self.0.send(*rec);
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

/// Bounded ring-buffer recorder with an optional forwarding sink and the
/// packet/link forensics queries.
pub struct TraceRecorder {
    pub(crate) capacity: usize,
    pub(crate) buf: VecDeque<Record>,
    pub(crate) emitted: u64,
    pub(crate) dropped: u64,
    pub(crate) sink: Option<Box<dyn TraceSink>>,
}

impl TraceRecorder {
    /// A recorder with the configured ring capacity and no sink.
    pub fn new(cfg: TraceConfig) -> Self {
        Self {
            capacity: cfg.capacity.max(1),
            buf: VecDeque::with_capacity(cfg.capacity.clamp(1, 4096)),
            emitted: 0,
            dropped: 0,
            sink: None,
        }
    }

    /// Record one event: forward to the sink, then ring-buffer it
    /// (evicting the oldest record when full).
    pub fn record(&mut self, cycle: u64, kind: TraceKind) {
        let rec = Record { cycle, kind };
        self.emitted += 1;
        if let Some(sink) = self.sink.as_mut() {
            sink.emit(&rec);
        }
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Attach (or replace) the forwarding sink.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Flush and drop the sink, if any.
    pub fn close_sink(&mut self) {
        if let Some(mut sink) = self.sink.take() {
            sink.flush();
        }
    }

    /// Records currently held (oldest first).
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.buf.iter()
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records emitted over the recorder's lifetime.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records evicted from the ring to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Take all buffered records (oldest first), leaving the ring empty.
    pub fn take_records(&mut self) -> Vec<Record> {
        self.buf.drain(..).collect()
    }

    /// Every buffered record naming `packet`, in order — a packet's full
    /// journey: inject → launches (with faults/NACKs/L-Ob between) →
    /// ejection or quarantine drop.
    pub fn packet_history(&self, packet: PacketId) -> Vec<Record> {
        self.buf
            .iter()
            .filter(|r| r.packet() == Some(packet))
            .copied()
            .collect()
    }

    /// Every buffered record naming `link`, in order — the fault / retx /
    /// classification / obfuscation sequence the paper's threat detector
    /// reasons over.
    pub fn link_timeline(&self, link: LinkId) -> Vec<Record> {
        self.buf
            .iter()
            .filter(|r| r.link() == Some(link))
            .copied()
            .collect()
    }

    /// Serialise the buffered records as JSONL (one record per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.buf {
            r.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }

    /// Serialise the buffered records in Chrome `trace_event` format, on
    /// the routers and links of `mesh`, the mesh the run simulated.
    pub fn to_chrome_trace(&self, mesh: &Mesh) -> String {
        chrome_trace(self.buf.iter(), mesh)
    }
}

/// Render records in the Chrome `trace_event` JSON format (open the
/// output in `chrome://tracing` or <https://ui.perfetto.dev>). Links and
/// routers are presented as two "processes" with one "thread" per link /
/// per router; one cycle maps to one microsecond of trace time. An
/// injection lands on its core's router in `mesh`.
pub fn chrome_trace<'a>(records: impl Iterator<Item = &'a Record>, mesh: &Mesh) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"links\"}},",
    );
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
         \"args\":{\"name\":\"routers\"}}",
    );
    for r in records {
        let (pid, tid) = match (r.link(), r.kind) {
            (Some(l), _) => (1, l.0 as u64),
            (None, TraceKind::FlitEjected { router, .. }) => (2, router.0 as u64),
            (None, TraceKind::FlitInjected { core, .. }) => {
                (2, mesh.router_of_core(CoreId(core)).0 as u64)
            }
            _ => (2, 0),
        };
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"noc\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\
             \"pid\":{pid},\"tid\":{tid},\"args\":{{",
            r.kind.label(),
            r.cycle
        );
        if let Some(p) = r.packet() {
            let _ = write!(out, "\"packet\":{}", p.0);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest_and_counts() {
        let mut rec = TraceRecorder::new(TraceConfig { capacity: 3 });
        for c in 0..5 {
            rec.record(
                c,
                TraceKind::BistScan {
                    link: LinkId(0),
                    passed: true,
                },
            );
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.emitted(), 5);
        assert_eq!(rec.dropped(), 2);
        let cycles: Vec<u64> = rec.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "newest records survive");
    }

    #[test]
    fn sink_sees_records_the_ring_evicts() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut rec = TraceRecorder::new(TraceConfig { capacity: 1 });
        rec.set_sink(Box::new(ChannelSink(tx)));
        for c in 0..4 {
            rec.record(
                c,
                TraceKind::BistScan {
                    link: LinkId(7),
                    passed: false,
                },
            );
        }
        rec.close_sink();
        assert_eq!(rx.iter().count(), 4, "the sink saw the full stream");
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn forensics_queries_filter_by_packet_and_link() {
        let mut rec = TraceRecorder::new(TraceConfig::default());
        rec.record(
            1,
            TraceKind::FlitInjected {
                flit: FlitId(1),
                packet: PacketId(9),
                core: 0,
            },
        );
        rec.record(
            2,
            TraceKind::FlitLaunched {
                flit: FlitId(1),
                packet: PacketId(9),
                link: LinkId(4),
                attempt: 1,
                obf: None,
            },
        );
        rec.record(
            3,
            TraceKind::BistScan {
                link: LinkId(4),
                passed: true,
            },
        );
        assert_eq!(rec.packet_history(PacketId(9)).len(), 2);
        assert_eq!(rec.packet_history(PacketId(8)).len(), 0);
        assert_eq!(rec.link_timeline(LinkId(4)).len(), 2);
    }

    #[test]
    fn malformed_lines_are_rejected_naming_the_member() {
        for bad in ["", "{}", "not json"] {
            assert!(Record::from_jsonl(bad).is_err(), "{bad:?}");
        }
        let bist = "{\"cycle\":1,\"event\":\"bist_scan\",";
        for (line, path, what) in [
            ("{\"cycle\":1}".to_string(), "event", "missing"),
            (
                "{\"cycle\":1,\"event\":\"nope\"}".to_string(),
                "event",
                "unknown value \"nope\"",
            ),
            (format!("{bist}\"link\":2}}"), "passed", "missing"),
            (
                format!("{bist}\"link\":70000,\"passed\":true}}"),
                "link",
                "70000 does not fit in u16",
            ),
            (
                format!("{bist}\"link\":1,\"passed\":true,\"flit\":3}}"),
                "flit",
                "unexpected member",
            ),
            (
                "{\"cycle\":1,\"event\":\"watchdog_tripped\",\"kind\":\"credit_stall\",\
                 \"router\":2,\"dir\":\"up\"}"
                    .to_string(),
                "dir",
                "unknown value \"up\"",
            ),
        ] {
            assert_eq!(
                Record::from_jsonl(&line),
                Err(JsonError::field(path, what)),
                "{line}"
            );
        }
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let recs = [
            Record {
                cycle: 0,
                kind: TraceKind::FlitInjected {
                    flit: FlitId(0),
                    packet: PacketId(0),
                    core: 5,
                },
            },
            Record {
                cycle: 1,
                kind: TraceKind::BistScan {
                    link: LinkId(3),
                    passed: true,
                },
            },
        ];
        // Core 5 sits on router 1 at four cores per router, on router 5
        // at one.
        for (mesh, router) in [(Mesh::paper(), 1), (Mesh::new(4, 4, 1), 5)] {
            let s = chrome_trace(recs.iter(), &mesh);
            assert!(s.starts_with('{') && s.ends_with('}'));
            let depth = s.chars().fold(0i32, |d, c| match c {
                '{' | '[' => d + 1,
                '}' | ']' => d - 1,
                _ => d,
            });
            assert_eq!(depth, 0);
            assert!(s.contains("\"pid\":1,\"tid\":3,"), "{s}");
            assert!(s.contains(&format!("\"pid\":2,\"tid\":{router},")), "{s}");
        }
    }
}
