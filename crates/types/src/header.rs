//! Packet header and its wire layout.
//!
//! The TASP trojan compares a *fraction of the link width* against its
//! programmed target, so the exact bit positions of each field on head flits
//! matter. We adopt the field widths the paper reports for its target
//! comparators: src 4 bits, dest 4 bits, VC 2 bits, memory address 32 bits —
//! 42 bits of "full" target material — and place them contiguously from bit 0
//! of the 64-bit flit word. The remaining bits carry the thread id and the
//! packet length, which the paper's comparator does not inspect.

use crate::ids::{NodeId, VcId};

/// Bit layout of a head flit's data word. All offsets/widths in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderLayout;

impl HeaderLayout {
    /// Bit offset of the source-router field.
    pub const SRC_OFFSET: u32 = 0;
    /// Width of the source-router field.
    pub const SRC_BITS: u32 = 4;
    /// Bit offset of the destination-router field.
    pub const DEST_OFFSET: u32 = 4;
    /// Width of the destination-router field.
    pub const DEST_BITS: u32 = 4;
    /// Bit offset of the VC-class field.
    pub const VC_OFFSET: u32 = 8;
    /// Width of the VC-class field.
    pub const VC_BITS: u32 = 2;
    /// Bit offset of the memory-address field.
    pub const MEM_OFFSET: u32 = 10;
    /// Width of the memory-address field.
    pub const MEM_BITS: u32 = 32;
    /// Total width of the paper's "full" target (src+dest+vc+mem).
    pub const FULL_BITS: u32 = 42;
    /// Bit offset of the thread-id field (outside the comparator window).
    pub const THREAD_OFFSET: u32 = 42;
    /// Width of the thread-id field.
    pub const THREAD_BITS: u32 = 6;
    /// Bit offset of the packet-length field.
    pub const LEN_OFFSET: u32 = 48;
    /// Width of the packet-length field.
    pub const LEN_BITS: u32 = 8;

    /// Mask covering `bits` starting at `offset`.
    #[inline]
    pub const fn mask(offset: u32, bits: u32) -> u64 {
        if bits == 64 {
            u64::MAX
        } else {
            ((1u64 << bits) - 1) << offset
        }
    }
}

/// Logical packet header carried by head flits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Header {
    /// Source router.
    pub src: NodeId,
    /// Destination router.
    pub dest: NodeId,
    /// Virtual-channel class requested at injection.
    pub vc: VcId,
    /// Memory address the request refers to (the trojan's widest target).
    pub mem_addr: u32,
    /// Thread/process id of the issuing context.
    pub thread: u8,
    /// Packet length in flits.
    pub len: u8,
}

impl Header {
    /// Pack into the head-flit wire word. Inverse of [`Header::unpack`] for
    /// headers whose fields fit the paper's widths.
    ///
    /// Each field is masked to its paper-mandated width: on meshes larger
    /// than 16 routers the 4-bit src/dest wire fields alias (`id mod 16`),
    /// exactly as silicon reusing the 42-bit header format would. Routing
    /// and delivery always use the logical [`crate::Flit::header`] copy, so
    /// aliasing only affects on-wire byte patterns (and thus what a TASP
    /// comparator sees), never where a packet goes.
    pub fn pack(&self) -> u64 {
        debug_assert!(self.vc.0 < 4, "vc must fit 2 bits");
        debug_assert!(self.thread < 64, "thread must fit 6 bits");
        let field = |v: u64, off: u32, bits: u32| (v & ((1u64 << bits) - 1)) << off;
        field(
            self.src.0 as u64,
            HeaderLayout::SRC_OFFSET,
            HeaderLayout::SRC_BITS,
        ) | field(
            self.dest.0 as u64,
            HeaderLayout::DEST_OFFSET,
            HeaderLayout::DEST_BITS,
        ) | field(
            self.vc.0 as u64,
            HeaderLayout::VC_OFFSET,
            HeaderLayout::VC_BITS,
        ) | field(
            self.mem_addr as u64,
            HeaderLayout::MEM_OFFSET,
            HeaderLayout::MEM_BITS,
        ) | field(
            self.thread as u64,
            HeaderLayout::THREAD_OFFSET,
            HeaderLayout::THREAD_BITS,
        ) | field(
            self.len as u64,
            HeaderLayout::LEN_OFFSET,
            HeaderLayout::LEN_BITS,
        )
    }

    /// Decode a head-flit wire word.
    pub fn unpack(word: u64) -> Header {
        let field = |off: u32, bits: u32| (word >> off) & ((1u64 << bits) - 1);
        Header {
            src: NodeId(field(HeaderLayout::SRC_OFFSET, HeaderLayout::SRC_BITS) as u16),
            dest: NodeId(field(HeaderLayout::DEST_OFFSET, HeaderLayout::DEST_BITS) as u16),
            vc: VcId(field(HeaderLayout::VC_OFFSET, HeaderLayout::VC_BITS) as u8),
            mem_addr: field(HeaderLayout::MEM_OFFSET, HeaderLayout::MEM_BITS) as u32,
            thread: field(HeaderLayout::THREAD_OFFSET, HeaderLayout::THREAD_BITS) as u8,
            len: field(HeaderLayout::LEN_OFFSET, HeaderLayout::LEN_BITS) as u8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn layout_fields_are_disjoint_and_cover_low_56_bits() {
        let fields = [
            (HeaderLayout::SRC_OFFSET, HeaderLayout::SRC_BITS),
            (HeaderLayout::DEST_OFFSET, HeaderLayout::DEST_BITS),
            (HeaderLayout::VC_OFFSET, HeaderLayout::VC_BITS),
            (HeaderLayout::MEM_OFFSET, HeaderLayout::MEM_BITS),
            (HeaderLayout::THREAD_OFFSET, HeaderLayout::THREAD_BITS),
            (HeaderLayout::LEN_OFFSET, HeaderLayout::LEN_BITS),
        ];
        let mut acc = 0u64;
        for (off, bits) in fields {
            let m = HeaderLayout::mask(off, bits);
            assert_eq!(acc & m, 0, "field at offset {off} overlaps");
            acc |= m;
        }
        assert_eq!(acc, (1u64 << 56) - 1);
    }

    #[test]
    fn full_target_is_42_bits() {
        assert_eq!(
            HeaderLayout::SRC_BITS
                + HeaderLayout::DEST_BITS
                + HeaderLayout::VC_BITS
                + HeaderLayout::MEM_BITS,
            HeaderLayout::FULL_BITS
        );
    }

    #[test]
    fn pack_unpack_example() {
        let h = Header {
            src: NodeId(5),
            dest: NodeId(12),
            vc: VcId(3),
            mem_addr: 0xDEAD_BEEF,
            thread: 17,
            len: 4,
        };
        assert_eq!(Header::unpack(h.pack()), h);
    }

    proptest! {
        #[test]
        fn pack_unpack_roundtrips(src in 0u16..16, dest in 0u16..16, vc in 0u8..4,
                                  mem in any::<u32>(), thread in 0u8..64, len in any::<u8>()) {
            let h = Header { src: NodeId(src), dest: NodeId(dest), vc: VcId(vc),
                             mem_addr: mem, thread, len };
            prop_assert_eq!(Header::unpack(h.pack()), h);
        }

        #[test]
        fn large_mesh_ids_alias_mod_16_on_the_wire(src in 0u16..4096, dest in 0u16..4096) {
            // On >16-router meshes the wire fields keep the paper's 4-bit
            // widths; ids alias mod 16 without disturbing neighbouring fields.
            let h = Header { src: NodeId(src), dest: NodeId(dest), vc: VcId(1),
                             mem_addr: 0xABCD_1234, thread: 9, len: 5 };
            let round = Header::unpack(h.pack());
            prop_assert_eq!(round.src, NodeId(src % 16));
            prop_assert_eq!(round.dest, NodeId(dest % 16));
            prop_assert_eq!(round.vc, h.vc);
            prop_assert_eq!(round.mem_addr, h.mem_addr);
            prop_assert_eq!(round.thread, h.thread);
            prop_assert_eq!(round.len, h.len);
        }

        #[test]
        fn unpack_masks_only_relevant_bits(word in any::<u64>()) {
            // Unpacking then re-packing must preserve the low 56 bits exactly.
            let h = Header::unpack(word);
            prop_assert_eq!(h.pack() & ((1u64 << 56) - 1), word & ((1u64 << 56) - 1));
        }
    }
}
