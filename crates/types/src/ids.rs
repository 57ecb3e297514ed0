//! Strongly-typed identifiers for network entities.
//!
//! All identifiers are small newtypes over integers so they pack tightly into
//! hot simulator structures (see the type-size guidance in the Rust
//! Performance Book) while remaining impossible to confuse with one another.

/// Identifies a router in the network. For the paper's 4×4 mesh this is
/// `0..16`; larger research meshes (16×16, 32×32) push it past a byte, so
/// the simulator-side id is 16 bits. The *wire* header still encodes the
/// paper's 4-bit field — see `Header::pack` for the aliasing rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Raw index, convenient for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a core (processing element). With a concentration of 4 on a
/// 16-router mesh this is `0..64`; a 32×32 mesh at the same concentration
/// reaches 4096, hence 16 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    #[inline]
    /// Raw index, convenient for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies one *unidirectional* router-to-router link. The 4×4 mesh has
/// 48 of them (24 neighbour pairs × 2 directions), matching the paper's
/// "TASP on all 48 links" worst case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u16);

impl LinkId {
    #[inline]
    /// Raw index, convenient for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A virtual-channel index within a port (`0..4` in the paper configuration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcId(pub u8);

impl VcId {
    #[inline]
    /// Raw index, convenient for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Globally unique packet identifier, assigned at injection time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Globally unique flit identifier, assigned at packetisation time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlitId(pub u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_indexable() {
        assert!(NodeId(3) < NodeId(7));
        assert_eq!(NodeId(5).index(), 5);
        assert_eq!(CoreId(63).index(), 63);
        assert_eq!(LinkId(47).index(), 47);
        assert_eq!(VcId(2).index(), 2);
    }

    #[test]
    fn ids_are_small() {
        // Hot identifiers must stay register-sized.
        assert_eq!(std::mem::size_of::<NodeId>(), 2);
        assert_eq!(std::mem::size_of::<CoreId>(), 2);
        assert_eq!(std::mem::size_of::<VcId>(), 1);
        assert_eq!(std::mem::size_of::<LinkId>(), 2);
        assert_eq!(std::mem::size_of::<PacketId>(), 8);
    }
}
