//! The threat source detector (Fig. 6).
//!
//! One detector guards each router input port (i.e. one incoming link). For
//! every arriving flit it receives the ECC decode outcome plus the side-band
//! facts the receiving router knows (was this flit obfuscated? which plan?),
//! fingerprints faults by packet signature and syndrome, and decides:
//!
//! * first fault on a flit → plain retransmission (could be a transient);
//! * repeat fault at the **same** syndrome → ask BIST to scan for a
//!   permanent (stuck-at) fault — repeated identical transients are
//!   implausible;
//! * repeat fault on the **same flit** at shifting syndromes → the TASP
//!   signature: enable L-Ob on the upstream retransmission, escalating
//!   through the method ladder on each further failure;
//! * clean arrival of an obfuscated flit → stall to undo the obfuscation
//!   and notify the upstream router so it logs the winning method.
//!
//! The detector also maintains a per-link *classification* (transient /
//! permanent / hardware-trojan) that the routing layer uses to decide
//! between continuing with L-Ob and abandoning the link.

use noc_ecc::{Decode, Syndrome};
use noc_types::ids::PacketId;
use std::collections::HashMap;

/// Detector tuning knobs (ablation targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Identical-syndrome repeats on one flit before BIST is invoked.
    pub bist_threshold: u32,
    /// Faults on one flit before L-Ob is enabled for its retransmissions.
    /// The paper's walk-through escalates on the second targeting (Fig. 7
    /// step g), i.e. a threshold of 2.
    pub lob_threshold: u32,
    /// Cap on recorded per-flit syndromes (bounded memory).
    pub max_history: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            bist_threshold: 2,
            lob_threshold: 2,
            max_history: 8,
        }
    }
}

/// What the receiving router must do with the flit that just arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorAction {
    /// Clean, un-obfuscated: deliver normally.
    Accept,
    /// Clean and obfuscated: stall `penalty` cycles to undo, deliver, and
    /// notify the upstream L-Ob of success.
    AcceptObfuscated {
        /// Undo stall in cycles.
        penalty: u32,
    },
    /// Uncorrectable fault, first sighting: NACK for plain retransmission.
    Retransmit,
    /// Uncorrectable repeat: NACK and tell upstream to (re-)obfuscate with
    /// ladder attempt number `attempt` (0 = first obfuscated try).
    RetransmitWithLob {
        /// Ladder attempt number for the retry.
        attempt: u32,
    },
}

/// Full verdict: the action plus whether a BIST scan should be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The action the receiving router must take.
    pub action: DetectorAction,
    /// Whether a BIST scan of the link should be scheduled.
    pub run_bist: bool,
}

/// The detector's best current explanation for a link's faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultClass {
    /// No faults observed.
    #[default]
    None,
    /// Isolated faults that did not recur.
    Transient,
    /// Identical faults recurring — stuck-at wire (subject to BIST
    /// confirmation).
    Permanent,
    /// Recurring faults at shifting positions that stop under obfuscation —
    /// a data-dependent injector, i.e. a hardware trojan.
    HardwareTrojan,
}

/// Identity of a flit for fault bookkeeping: the packet signature plus the
/// flit's sequence inside it (the detector records "the packet's source,
/// destination, vc, requested memory address" — `PacketId` stands in for
/// that tuple here, with the full header retained in [`FaultRecord`]).
pub type FlitKey = (PacketId, u8);

#[derive(Debug, Clone, Default)]
struct FaultRecord {
    faults: u32,
    syndromes: Vec<u8>,
    /// Obfuscated retransmissions attempted so far.
    obf_attempts: u32,
    /// The flit eventually crossed cleanly while obfuscated.
    clean_after_obf: bool,
}

/// Externalised [`FaultRecord`] contents (checkpoint/restore support).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultRecordState {
    /// Uncorrectable faults recorded for the flit.
    pub faults: u32,
    /// Recorded syndromes, in arrival order.
    pub syndromes: Vec<u8>,
    /// Obfuscated retransmissions attempted so far.
    pub obf_attempts: u32,
    /// The flit eventually crossed cleanly while obfuscated.
    pub clean_after_obf: bool,
}

/// Externalised [`ThreatDetector`] runtime state (checkpoint/restore
/// support). Records are sorted by key so the export is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectorState {
    /// Per-flit fault records, sorted by key.
    pub records: Vec<(FlitKey, FaultRecordState)>,
    /// Total uncorrectable faults seen on the guarded link.
    pub total_faults: u64,
    /// Total retransmissions requested.
    pub total_retransmissions: u64,
    /// BIST scans requested.
    pub bist_requests: u64,
    /// Obfuscation escalations requested.
    pub lob_escalations: u64,
    /// Outcome of the most recent BIST scan of the guarded link.
    pub bist_passed: Option<bool>,
}

/// Per-input-port threat source detector.
///
/// ```
/// use noc_ecc::{Decode, Syndrome};
/// use noc_mitigation::{DetectorAction, FaultClass, ThreatDetector};
/// use noc_types::PacketId;
///
/// let mut det = ThreatDetector::default();
/// let key = (PacketId(7), 0);
/// let fault = |s| Decode::Uncorrectable { syndrome: Syndrome(s) };
///
/// // First fault: plain retransmission (could be a transient).
/// let v = det.on_flit(key, &fault(12), None);
/// assert_eq!(v.action, DetectorAction::Retransmit);
///
/// // Repeat at a *shifting* position: the TASP signature — obfuscate.
/// let v = det.on_flit(key, &fault(34), None);
/// assert_eq!(v.action, DetectorAction::RetransmitWithLob { attempt: 0 });
/// assert_eq!(det.classify(&key), FaultClass::HardwareTrojan);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThreatDetector {
    config: DetectorConfig,
    records: HashMap<FlitKey, FaultRecord>,
    // Link-level aggregates.
    total_faults: u64,
    total_retransmissions: u64,
    bist_requests: u64,
    lob_escalations: u64,
    /// Outcome of the most recent BIST scan of the guarded link.
    bist_passed: Option<bool>,
}

impl ThreatDetector {
    /// Construct a detector with the given thresholds.
    pub fn new(config: DetectorConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Process one arriving flit.
    ///
    /// * `key` — packet signature + flit sequence.
    /// * `decode` — the link ECC decode outcome.
    /// * `obf_attempt` — `Some(n)` when the upstream router sent this flit
    ///   obfuscated with ladder attempt `n`, together with the undo penalty.
    pub fn on_flit(
        &mut self,
        key: FlitKey,
        decode: &Decode,
        obf_attempt: Option<(u32, u32)>,
    ) -> Verdict {
        match decode {
            Decode::Clean { .. } | Decode::Corrected { .. } => {
                // A corrected single-bit error is logged (it still costs
                // energy and may be an HT probing) but passes through.
                if let Decode::Corrected { syndrome, .. } = decode {
                    self.note_corrected(key, *syndrome);
                }
                if let Some((_, penalty)) = obf_attempt {
                    if let Some(rec) = self.records.get_mut(&key) {
                        rec.clean_after_obf = true;
                    }
                    Verdict {
                        action: DetectorAction::AcceptObfuscated { penalty },
                        run_bist: false,
                    }
                } else {
                    Verdict {
                        action: DetectorAction::Accept,
                        run_bist: false,
                    }
                }
            }
            Decode::Uncorrectable { syndrome } => self.on_fault(key, *syndrome, obf_attempt),
        }
    }

    fn note_corrected(&mut self, key: FlitKey, syndrome: Syndrome) {
        let rec = self.records.entry(key).or_default();
        if rec.syndromes.len() < self.config.max_history {
            rec.syndromes.push(syndrome.0);
        }
    }

    fn on_fault(
        &mut self,
        key: FlitKey,
        syndrome: Syndrome,
        obf_attempt: Option<(u32, u32)>,
    ) -> Verdict {
        self.total_faults += 1;
        self.total_retransmissions += 1;
        let max_history = self.config.max_history;
        let rec = self.records.entry(key).or_default();
        rec.faults += 1;
        let repeat_same_syndrome = rec.syndromes.iter().filter(|s| **s == syndrome.0).count() + 1;
        if rec.syndromes.len() < max_history {
            rec.syndromes.push(syndrome.0);
        }
        if let Some((attempt, _)) = obf_attempt {
            rec.obf_attempts = rec.obf_attempts.max(attempt + 1);
        }

        // Repeated identical syndromes are not plausible transients: have
        // BIST look for a stuck-at wire.
        let run_bist = repeat_same_syndrome >= self.config.bist_threshold as usize;
        if run_bist {
            self.bist_requests += 1;
        }

        let action = if rec.faults >= self.config.lob_threshold {
            // Repeat offender: obfuscate the retransmission. If it was
            // already obfuscated, move to the next ladder rung.
            let attempt = rec.obf_attempts;
            self.lob_escalations += 1;
            DetectorAction::RetransmitWithLob { attempt }
        } else {
            DetectorAction::Retransmit
        };
        Verdict { action, run_bist }
    }

    /// Feed back a BIST result for the guarded link: a clean BIST rules out
    /// permanent faults and strengthens the HT hypothesis.
    pub fn on_bist_result(&mut self, passed: bool) {
        self.bist_passed = Some(passed);
    }

    /// Classify the fault source for a specific flit signature.
    pub fn classify(&self, key: &FlitKey) -> FaultClass {
        let Some(rec) = self.records.get(key) else {
            return FaultClass::None;
        };
        if rec.faults == 0 {
            return FaultClass::None;
        }
        if rec.faults == 1 {
            return FaultClass::Transient;
        }
        let all_same = rec.syndromes.windows(2).all(|w| w[0] == w[1]);
        if all_same && self.bist_passed != Some(true) {
            return FaultClass::Permanent;
        }
        if rec.clean_after_obf || self.bist_passed == Some(true) {
            return FaultClass::HardwareTrojan;
        }
        // Shifting syndromes but no obfuscation evidence yet: the best
        // guess is already "trojan-like", pending confirmation.
        FaultClass::HardwareTrojan
    }

    /// Classify the link overall: the most severe class over all records.
    pub fn link_class(&self) -> FaultClass {
        let mut best = FaultClass::None;
        for key in self.records.keys() {
            let c = self.classify(key);
            best = match (best, c) {
                (_, FaultClass::HardwareTrojan) | (FaultClass::HardwareTrojan, _) => {
                    FaultClass::HardwareTrojan
                }
                (_, FaultClass::Permanent) | (FaultClass::Permanent, _) => FaultClass::Permanent,
                (_, FaultClass::Transient) | (FaultClass::Transient, _) => FaultClass::Transient,
                _ => FaultClass::None,
            };
        }
        best
    }

    /// Total uncorrectable faults seen on the guarded link.
    pub fn total_faults(&self) -> u64 {
        self.total_faults
    }

    /// Total retransmissions requested.
    pub fn total_retransmissions(&self) -> u64 {
        self.total_retransmissions
    }

    /// BIST scans requested.
    pub fn bist_requests(&self) -> u64 {
        self.bist_requests
    }

    /// Obfuscation escalations requested.
    pub fn lob_escalations(&self) -> u64 {
        self.lob_escalations
    }

    /// Drop bookkeeping for a delivered packet (bounded memory in long runs).
    pub fn forget_packet(&mut self, packet: PacketId) {
        self.records.retain(|(p, _), _| *p != packet);
    }

    /// Export the runtime state for checkpointing. Records are sorted by
    /// key so the export is byte-stable regardless of hash-map iteration
    /// order.
    pub fn export_state(&self) -> DetectorState {
        let mut records: Vec<(FlitKey, FaultRecordState)> = self
            .records
            .iter()
            .map(|(k, r)| {
                (
                    *k,
                    FaultRecordState {
                        faults: r.faults,
                        syndromes: r.syndromes.clone(),
                        obf_attempts: r.obf_attempts,
                        clean_after_obf: r.clean_after_obf,
                    },
                )
            })
            .collect();
        records.sort_unstable_by_key(|(k, _)| *k);
        DetectorState {
            records,
            total_faults: self.total_faults,
            total_retransmissions: self.total_retransmissions,
            bist_requests: self.bist_requests,
            lob_escalations: self.lob_escalations,
            bist_passed: self.bist_passed,
        }
    }

    /// Restore runtime state captured by [`ThreatDetector::export_state`].
    /// The detector keeps its current configuration — thresholds are not
    /// part of the runtime state.
    pub fn import_state(&mut self, state: DetectorState) {
        self.records = state
            .records
            .into_iter()
            .map(|(k, r)| {
                (
                    k,
                    FaultRecord {
                        faults: r.faults,
                        syndromes: r.syndromes,
                        obf_attempts: r.obf_attempts,
                        clean_after_obf: r.clean_after_obf,
                    },
                )
            })
            .collect();
        self.total_faults = state.total_faults;
        self.total_retransmissions = state.total_retransmissions;
        self.bist_requests = state.bist_requests;
        self.lob_escalations = state.lob_escalations;
        self.bist_passed = state.bist_passed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_ecc::Syndrome;

    fn fault(s: u8) -> Decode {
        Decode::Uncorrectable {
            syndrome: Syndrome(s),
        }
    }

    fn clean() -> Decode {
        Decode::Clean { data: 0 }
    }

    const KEY: FlitKey = (PacketId(7), 0);

    #[test]
    fn first_fault_retransmits_plainly() {
        let mut d = ThreatDetector::default();
        let v = d.on_flit(KEY, &fault(12), None);
        assert_eq!(v.action, DetectorAction::Retransmit);
        assert!(!v.run_bist);
        assert_eq!(d.classify(&KEY), FaultClass::Transient);
    }

    #[test]
    fn second_fault_enables_lob() {
        let mut d = ThreatDetector::default();
        d.on_flit(KEY, &fault(12), None);
        let v = d.on_flit(KEY, &fault(34), None);
        assert_eq!(v.action, DetectorAction::RetransmitWithLob { attempt: 0 });
    }

    #[test]
    fn repeated_same_syndrome_triggers_bist_and_permanent_class() {
        let mut d = ThreatDetector::default();
        d.on_flit(KEY, &fault(12), None);
        let v = d.on_flit(KEY, &fault(12), None);
        assert!(v.run_bist, "identical repeat fault must schedule BIST");
        assert_eq!(d.classify(&KEY), FaultClass::Permanent);
    }

    #[test]
    fn shifting_syndromes_classify_as_trojan() {
        let mut d = ThreatDetector::default();
        d.on_flit(KEY, &fault(12), None);
        let v = d.on_flit(KEY, &fault(56), None);
        assert!(!v.run_bist, "shifting syndrome is not a stuck-at suspect");
        assert_eq!(d.classify(&KEY), FaultClass::HardwareTrojan);
    }

    #[test]
    fn obfuscated_fault_escalates_to_next_method() {
        let mut d = ThreatDetector::default();
        d.on_flit(KEY, &fault(1), None);
        d.on_flit(KEY, &fault(2), None); // → lob attempt 0
        let v = d.on_flit(KEY, &fault(3), Some((0, 1)));
        assert_eq!(v.action, DetectorAction::RetransmitWithLob { attempt: 1 });
    }

    #[test]
    fn clean_obfuscated_arrival_pays_undo_penalty_and_confirms_trojan() {
        let mut d = ThreatDetector::default();
        d.on_flit(KEY, &fault(1), None);
        d.on_flit(KEY, &fault(2), None);
        let v = d.on_flit(KEY, &clean(), Some((0, 2)));
        assert_eq!(v.action, DetectorAction::AcceptObfuscated { penalty: 2 });
        assert_eq!(d.classify(&KEY), FaultClass::HardwareTrojan);
        assert_eq!(d.link_class(), FaultClass::HardwareTrojan);
    }

    #[test]
    fn clean_unobfuscated_flits_pass_untouched() {
        let mut d = ThreatDetector::default();
        let v = d.on_flit(KEY, &clean(), None);
        assert_eq!(v.action, DetectorAction::Accept);
        assert_eq!(d.classify(&KEY), FaultClass::None);
    }

    #[test]
    fn bist_pass_converts_permanent_suspicion_into_trojan() {
        let mut d = ThreatDetector::default();
        d.on_flit(KEY, &fault(12), None);
        d.on_flit(KEY, &fault(12), None);
        assert_eq!(d.classify(&KEY), FaultClass::Permanent);
        d.on_bist_result(true); // link physically healthy
        assert_eq!(d.classify(&KEY), FaultClass::HardwareTrojan);
    }

    #[test]
    fn corrected_single_bit_errors_are_logged_but_accepted() {
        let mut d = ThreatDetector::default();
        let v = d.on_flit(
            KEY,
            &Decode::Corrected {
                data: 0,
                bit: 3,
                syndrome: Syndrome(3),
            },
            None,
        );
        assert_eq!(v.action, DetectorAction::Accept);
        assert_eq!(d.total_faults(), 0);
    }

    #[test]
    fn forget_packet_releases_history() {
        let mut d = ThreatDetector::default();
        d.on_flit(KEY, &fault(9), None);
        d.forget_packet(PacketId(7));
        assert_eq!(d.classify(&KEY), FaultClass::None);
    }

    #[test]
    fn counters_accumulate() {
        let mut d = ThreatDetector::default();
        d.on_flit(KEY, &fault(1), None);
        d.on_flit(KEY, &fault(2), None);
        d.on_flit(KEY, &fault(2), None);
        assert_eq!(d.total_faults(), 3);
        assert_eq!(d.total_retransmissions(), 3);
        assert!(d.lob_escalations() >= 1);
        assert!(d.bist_requests() >= 1);
    }
}
