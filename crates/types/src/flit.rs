//! Flits — the atomic units of link traversal.
//!
//! A flit carries a 64-bit wire word. For head (and single-flit) packets the
//! word is the packed [`Header`]; for body/tail flits it is payload data.
//! Every flit also keeps *logical* metadata (ids, kind, header copy) that in
//! real hardware would be reconstructed at the receiver; the simulator uses
//! it for routing, statistics, and retransmission bookkeeping. Only the wire
//! word is visible to the ECC layer and to the TASP trojan.

use crate::header::Header;
use crate::ids::{FlitId, PacketId};

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries the header on the wire.
    #[default]
    Head,
    /// Interior flit.
    Body,
    /// Last flit of a multi-flit packet.
    Tail,
    /// Entire single-flit packet (header on the wire).
    Single,
}

impl FlitKind {
    /// Head and Single flits carry the packed header as their wire word.
    #[inline]
    pub fn carries_header(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Tail and Single flits close out the packet (free the VC).
    #[inline]
    pub fn closes_packet(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }
}

/// One flit. Cheap to copy; the simulator moves these by value through
/// buffers, the crossbar, and links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flit {
    /// Globally unique flit id.
    pub id: FlitId,
    /// Owning packet.
    pub packet: PacketId,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Sequence number within the packet (head = 0).
    pub seq: u8,
    /// Header of the owning packet. On the wire only head/single flits expose
    /// it; the simulator keeps a copy on every flit for wormhole routing
    /// state and statistics.
    pub header: Header,
    /// The 64-bit word transmitted on the link. Equals `header.pack()` for
    /// header-carrying flits and payload data otherwise.
    pub word: u64,
}

impl Flit {
    /// Construct a header-carrying flit (`Head` or `Single`).
    pub fn head(id: FlitId, packet: PacketId, kind: FlitKind, header: Header) -> Self {
        debug_assert!(kind.carries_header());
        Self {
            id,
            packet,
            kind,
            seq: 0,
            header,
            word: header.pack(),
        }
    }

    /// Construct a payload flit (`Body` or `Tail`).
    pub fn payload(
        id: FlitId,
        packet: PacketId,
        kind: FlitKind,
        seq: u8,
        header: Header,
        word: u64,
    ) -> Self {
        debug_assert!(!kind.carries_header());
        debug_assert!(seq > 0, "payload flits follow the head");
        Self {
            id,
            packet,
            kind,
            seq,
            header,
            word,
        }
    }

    /// The word a deep-packet-inspection trojan sees on the wire.
    #[inline]
    pub fn wire_word(&self) -> u64 {
        self.word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, VcId};

    fn hdr() -> Header {
        Header {
            src: NodeId(1),
            dest: NodeId(9),
            vc: VcId(0),
            mem_addr: 0x1000,
            thread: 3,
            len: 4,
        }
    }

    #[test]
    fn head_flit_wire_word_is_packed_header() {
        let f = Flit::head(FlitId(0), PacketId(0), FlitKind::Head, hdr());
        assert_eq!(f.wire_word(), hdr().pack());
        assert_eq!(Header::unpack(f.wire_word()), hdr());
    }

    #[test]
    fn kind_predicates() {
        assert!(FlitKind::Head.carries_header());
        assert!(FlitKind::Single.carries_header());
        assert!(!FlitKind::Body.carries_header());
        assert!(FlitKind::Tail.closes_packet());
        assert!(FlitKind::Single.closes_packet());
        assert!(!FlitKind::Head.closes_packet());
    }

    #[test]
    fn payload_flit_carries_data_word() {
        let f = Flit::payload(FlitId(7), PacketId(2), FlitKind::Body, 1, hdr(), 0xABCD);
        assert_eq!(f.wire_word(), 0xABCD);
        assert_eq!(f.seq, 1);
    }

    #[test]
    fn flit_is_compact() {
        // Flits are moved by value through every pipeline stage; keep them
        // well under the 128-byte memcpy threshold.
        assert!(std::mem::size_of::<Flit>() <= 48);
    }
}
