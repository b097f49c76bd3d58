//! Property-based tests for the core data structures.

use bgp_types::{AddressRange, ApMap, AsPath, Asn, Ipv4Prefix};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len))
}

proptest! {
    /// Construction always canonicalizes: no host bits below the mask.
    #[test]
    fn prefix_is_canonical(addr in any::<u32>(), len in 0u8..=32) {
        let p = Ipv4Prefix::new(addr, len);
        prop_assert_eq!(p.addr() & !Ipv4Prefix::mask(len), 0);
        prop_assert!(p.contains_addr(addr));
    }

    /// Display/parse round-trips.
    #[test]
    fn prefix_parse_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let q: Ipv4Prefix = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    /// first_addr/last_addr bound exactly the covered addresses.
    #[test]
    fn prefix_range_bounds(p in arb_prefix(), probe in any::<u32>()) {
        let inside = p.first_addr() <= probe && probe <= p.last_addr();
        prop_assert_eq!(p.contains_addr(probe), inside);
    }

    /// Containment is consistent with range inclusion.
    #[test]
    fn containment_matches_ranges(a in arb_prefix(), b in arb_prefix()) {
        let by_range = a.first_addr() <= b.first_addr() && b.last_addr() <= a.last_addr();
        prop_assert_eq!(a.contains(&b), by_range && a.len() <= b.len());
        // For prefixes, range inclusion implies the length condition too.
        prop_assert_eq!(a.contains(&b), by_range);
    }

    /// Uniform AP maps assign every prefix to at least one AP, and a
    /// prefix is assigned to an AP iff it overlaps the AP's range.
    #[test]
    fn ap_assignment_is_overlap(p in arb_prefix(), n in 1usize..64) {
        let m = ApMap::uniform(n);
        let aps = m.aps_for_prefix(&p);
        prop_assert!(!aps.is_empty());
        for part in m.partitions() {
            let covered = part.ranges.iter().any(|r| r.overlaps_prefix(&p));
            prop_assert_eq!(covered, aps.contains(&part.id));
        }
    }

    /// Balanced AP maps cover the whole address space (every address has
    /// an AP) and never assign a covered prefix zero APs.
    #[test]
    fn balanced_covers_space(
        firsts in prop::collection::vec(any::<u32>(), 1..100),
        n in 1usize..16,
        probe in any::<u32>()
    ) {
        let prefixes: Vec<Ipv4Prefix> =
            firsts.iter().map(|a| Ipv4Prefix::new(*a, 24)).collect();
        let m = ApMap::balanced(&prefixes, n);
        let probe_pfx = Ipv4Prefix::new(probe, 32);
        prop_assert!(!m.aps_for_prefix(&probe_pfx).is_empty());
    }

    /// AS-path prepend increases path length by one and sets first_as.
    #[test]
    fn prepend_properties(asns in prop::collection::vec(1u32..65536, 0..6), new_as in 1u32..65536) {
        let base = if asns.is_empty() {
            AsPath::empty()
        } else {
            AsPath::sequence(asns.iter().map(|a| Asn(*a)))
        };
        let p = base.prepend(Asn(new_as));
        prop_assert_eq!(p.path_len(), base.path_len() + 1);
        prop_assert_eq!(p.first_as(), Some(Asn(new_as)));
        prop_assert!(p.contains(Asn(new_as)));
    }

    /// Uniform range splitting is a partition of the address space.
    #[test]
    fn split_uniform_partitions(n in 1usize..128) {
        let ranges = AddressRange::split_uniform(n);
        let mut covered: u64 = 0;
        for r in &ranges {
            covered += r.num_addrs();
        }
        prop_assert_eq!(covered, 1u64 << 32);
        for w in ranges.windows(2) {
            prop_assert!(w[0].end() < w[1].start());
            prop_assert_eq!(w[0].end() + 1, w[1].start());
        }
    }
}
