//! Typed arena indices for the topology hierarchy.
//!
//! Every level of the hierarchy is stored in a flat arena inside
//! [`Topology`](crate::Topology); these newtypes keep indices from being
//! mixed up across levels at compile time.

use sapsim_json::json_codec;
use std::fmt;

macro_rules! arena_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Construct from a raw arena index.
            pub const fn from_raw(raw: u32) -> Self {
                Self(raw)
            }

            /// The raw arena index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        json_codec!(newtype $name);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

arena_id!(
    /// Identifies a [`Region`](crate::Region).
    RegionId,
    "region-"
);
arena_id!(
    /// Identifies an `AvailabilityZone`.
    AzId,
    "az-"
);
arena_id!(
    /// Identifies a `DataCenter`.
    DcId,
    "dc-"
);
arena_id!(
    /// Identifies a [`BuildingBlock`](crate::BuildingBlock) (vSphere cluster
    /// / OpenStack compute host).
    BbId,
    "bb-"
);
arena_id!(
    /// Identifies a `ComputeNode` (ESXi hypervisor).
    NodeId,
    "node-"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let id = NodeId::from_raw(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.to_string(), "node-17");
        assert_eq!(BbId::from_raw(3).to_string(), "bb-3");
        assert_eq!(DcId::from_raw(0).to_string(), "dc-0");
        assert_eq!(AzId::from_raw(1).to_string(), "az-1");
        assert_eq!(RegionId::from_raw(2).to_string(), "region-2");
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(NodeId::from_raw(1) < NodeId::from_raw(2));
        let mut v = vec![BbId::from_raw(5), BbId::from_raw(1), BbId::from_raw(3)];
        v.sort();
        assert_eq!(v, vec![BbId::from_raw(1), BbId::from_raw(3), BbId::from_raw(5)]);
    }
}
