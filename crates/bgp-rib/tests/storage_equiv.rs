//! Storage-equivalence sweep: the hash-indexed [`PrefixSlab`] and the
//! RIBs built on it must be observably identical to plain `BTreeMap`
//! layouts.
//!
//! The slab itself is checked op by op against a `BTreeMap`, including
//! its ordered walks and longest-prefix match. Each RIB reference model
//! *is* the old layout — per-peer `BTreeMap`
//! tables for Adj-RIB-In, one `BTreeMap` per group for Adj-RIB-Out, a
//! `BTreeMap` for Loc-RIB — driven through the same randomized op
//! sequences as the real structures. Equivalence covers return values
//! (change detection) and every order-observable API, because iteration
//! order reaches the decision process and the golden fingerprints.

use bgp_rib::{AdjRibIn, AdjRibOut, LocRib, PathSet, PrefixSlab};
use bgp_types::{intern, Ipv4Prefix, NextHop, PathAttributes, PathId, RouterId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A distinct attribute object per (path id, version): same-id sets
/// with different versions must register as changes.
fn attrs(id: u8, version: u8) -> Arc<PathAttributes> {
    intern(PathAttributes::local(NextHop(
        1_000 * version as u32 + id as u32,
    )))
}

fn path_set(ids: &[(u8, u8)]) -> PathSet {
    ids.iter()
        .map(|&(id, v)| (PathId(id as u32), attrs(id, v)))
        .collect()
}

/// The old `AdjRibIn`: per-peer prefix tables, peer-major iteration.
#[derive(Default)]
struct RefRibIn {
    tables: BTreeMap<RouterId, BTreeMap<Ipv4Prefix, PathSet>>,
}

impl RefRibIn {
    fn normalize(mut set: PathSet) -> PathSet {
        set.sort_by_key(|(id, _)| *id);
        set.dedup_by(|a, b| a.0 == b.0);
        set
    }

    fn set_paths(&mut self, peer: RouterId, prefix: Ipv4Prefix, paths: PathSet) -> bool {
        let paths = Self::normalize(paths);
        let table = self.tables.entry(peer).or_default();
        if paths.is_empty() {
            table.remove(&prefix).is_some()
        } else if table.get(&prefix) == Some(&paths) {
            false
        } else {
            table.insert(prefix, paths);
            true
        }
    }

    fn drop_peer(&mut self, peer: RouterId) -> Vec<Ipv4Prefix> {
        self.tables
            .remove(&peer)
            .map(|t| t.into_keys().collect())
            .unwrap_or_default()
    }

    fn known_prefixes(&self) -> Vec<Ipv4Prefix> {
        let mut v: Vec<Ipv4Prefix> = self
            .tables
            .values()
            .flat_map(|t| t.keys().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    fn all_paths(&self, prefix: &Ipv4Prefix) -> Vec<(RouterId, PathId, u32)> {
        let mut out = Vec::new();
        for (peer, table) in &self.tables {
            if let Some(set) = table.get(prefix) {
                for (id, a) in set {
                    out.push((*peer, *id, a.next_hop.0));
                }
            }
        }
        out
    }

    fn paths(&self, peer: RouterId, prefix: &Ipv4Prefix) -> Vec<(PathId, u32)> {
        self.tables
            .get(&peer)
            .and_then(|t| t.get(prefix))
            .map(|s| s.iter().map(|(id, a)| (*id, a.next_hop.0)).collect())
            .unwrap_or_default()
    }

    fn num_entries(&self) -> usize {
        self.tables
            .values()
            .flat_map(|t| t.values())
            .map(|s| s.len())
            .sum()
    }

    fn peers(&self) -> Vec<RouterId> {
        self.tables.keys().copied().collect()
    }
}

#[derive(Clone, Debug)]
enum RibOp {
    Set {
        peer: u8,
        addr: u32,
        len: u8,
        ids: Vec<(u8, u8)>,
    },
    Withdraw {
        peer: u8,
        addr: u32,
        len: u8,
    },
    DropPeer {
        peer: u8,
    },
}

fn rib_op() -> impl Strategy<Value = RibOp> {
    // A small pool of addresses/lengths so ops collide, nest, and
    // revisit prefixes; masking in `Ipv4Prefix::new` adds aliasing.
    (
        0u8..7,
        0u8..5,
        0u32..48,
        prop::sample::select(vec![8u8, 12, 16, 24, 32]),
        prop::collection::vec((0u8..4, 0u8..3), 0..4),
    )
        .prop_map(|(kind, peer, x, len, ids)| {
            let addr = x << 26;
            match kind {
                0..=3 => RibOp::Set {
                    peer,
                    addr,
                    len,
                    ids,
                },
                4 | 5 => RibOp::Withdraw { peer, addr, len },
                _ => RibOp::DropPeer { peer },
            }
        })
}

/// A prefix from a small address pool, so inserts collide with removals
/// and prefixes nest; lengths include both `/0` and `/32`.
fn slab_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (
        0u32..4,
        0u32..4,
        prop::sample::select(vec![0u8, 1, 2, 8, 16, 23, 24, 25, 31, 32]),
    )
        .prop_map(|(hi, lo, len)| Ipv4Prefix::new((hi << 30) | (lo << 7) | lo, len))
}

proptest! {
    /// The slab behaves exactly like a `BTreeMap` under random inserts,
    /// removals and lookups; its ordered walks match the map's order and
    /// a filtered full walk (including empty `start == end` and inverted
    /// `start > end` ranges); longest-prefix match agrees with a linear
    /// scan.
    #[test]
    fn prefix_slab_models_btreemap(
        ops in prop::collection::vec((slab_prefix(), 0u8..4, any::<u16>()), 1..200),
        probes in prop::collection::vec(any::<u32>(), 10),
        bounds in prop::collection::vec((any::<u32>(), any::<u32>()), 4),
    ) {
        let mut slab: PrefixSlab<u16> = PrefixSlab::new();
        let mut model: BTreeMap<Ipv4Prefix, u16> = BTreeMap::new();
        for (p, op, v) in ops {
            match op {
                0 | 1 => prop_assert_eq!(slab.insert(p, v), model.insert(p, v)),
                2 => prop_assert_eq!(slab.remove(&p), model.remove(&p)),
                _ => {
                    *slab.get_or_insert_with(p, || v) += 1;
                    *model.entry(p).or_insert(v) += 1;
                }
            }
            prop_assert_eq!(slab.len(), model.len());
            prop_assert_eq!(slab.get(&p), model.get(&p));
        }
        for (p, v) in &model {
            prop_assert_eq!(slab.get(p), Some(v));
        }
        let want: Vec<(Ipv4Prefix, u16)> = model.iter().map(|(p, v)| (*p, *v)).collect();
        let got: Vec<(Ipv4Prefix, u16)> = slab.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert_eq!(&got, &want, "iter order diverged");

        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for (a, b) in bounds {
            ranges.extend([(a, b), (b, a), (a, a)]);
        }
        ranges.extend([(0, u32::MAX), (u32::MAX, 0), (1 << 30, 1 << 30)]);
        for (start, end) in ranges {
            let got: Vec<(Ipv4Prefix, u16)> =
                slab.iter_overlapping(start, end).map(|(p, v)| (*p, *v)).collect();
            let filtered: Vec<(Ipv4Prefix, u16)> = want
                .iter()
                .filter(|(p, _)| p.first_addr() <= end && p.last_addr() >= start)
                .copied()
                .collect();
            prop_assert_eq!(got, filtered, "range {:#x}..={:#x}", start, end);
        }

        let pool = model.keys().flat_map(|p| [p.first_addr(), p.last_addr()]);
        for probe in probes.into_iter().chain(pool) {
            let brute = model
                .iter()
                .filter(|(p, _)| p.contains_addr(probe))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, *v));
            prop_assert_eq!(slab.longest_match(probe).map(|(p, v)| (p, *v)), brute);
        }

        // retain: visits in prefix order and removes exactly the rejected.
        let mut visited = Vec::new();
        let mut removed = Vec::new();
        slab.retain(
            |p, v| {
                visited.push(*p);
                *v % 2 == 0
            },
            |p, _| removed.push(p),
        );
        let keys: Vec<Ipv4Prefix> = model.keys().copied().collect();
        prop_assert_eq!(visited, keys);
        let odd: Vec<Ipv4Prefix> =
            want.iter().filter(|(_, v)| v % 2 == 1).map(|(p, _)| *p).collect();
        prop_assert_eq!(removed, odd);
        model.retain(|_, v| *v % 2 == 0);
        let got: Vec<(Ipv4Prefix, u16)> = slab.iter().map(|(p, v)| (*p, *v)).collect();
        let want: Vec<(Ipv4Prefix, u16)> = model.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn adj_rib_in_equivalent_to_per_peer_btreemaps(ops in prop::collection::vec(rib_op(), 1..80)) {
        let mut real = AdjRibIn::new();
        let mut reference = RefRibIn::default();
        for op in &ops {
            match op {
                RibOp::Set { peer, addr, len, ids } => {
                    let peer = RouterId(10 + *peer as u32);
                    let p = Ipv4Prefix::new(*addr, *len);
                    let a = real.set_paths(peer, p, path_set(ids));
                    let b = reference.set_paths(peer, p, path_set(ids));
                    prop_assert_eq!(a, b, "set_paths change bit diverged");
                }
                RibOp::Withdraw { peer, addr, len } => {
                    let peer = RouterId(10 + *peer as u32);
                    let p = Ipv4Prefix::new(*addr, *len);
                    let a = real.withdraw(peer, p);
                    let b = reference.set_paths(peer, p, Vec::new());
                    prop_assert_eq!(a, b, "withdraw change bit diverged");
                }
                RibOp::DropPeer { peer } => {
                    let peer = RouterId(10 + *peer as u32);
                    let a = real.drop_peer(peer);
                    let b = reference.drop_peer(peer);
                    prop_assert_eq!(a, b, "drop_peer affected-set diverged");
                }
            }
            // Full observable-state comparison after every op.
            prop_assert_eq!(real.known_prefixes(), reference.known_prefixes());
            prop_assert_eq!(real.num_entries(), reference.num_entries());
            for p in real.known_prefixes() {
                let got: Vec<(RouterId, PathId, u32)> = real
                    .all_paths(&p)
                    .map(|(r, id, a)| (r, id, a.next_hop.0))
                    .collect();
                prop_assert_eq!(got, reference.all_paths(&p), "all_paths order for {}", p);
                for peer in reference.peers() {
                    let got: Vec<(PathId, u32)> = real
                        .paths(peer, &p)
                        .iter()
                        .map(|(id, a)| (*id, a.next_hop.0))
                        .collect();
                    prop_assert_eq!(got, reference.paths(peer, &p));
                }
            }
            // Range queries must agree with the brute-force overlap
            // filter (what the AP-reassignment paths rely on).
            for (start, end) in [(0u32, u32::MAX), (0, 1 << 28), (3 << 28, 9 << 28), (1 << 31, u32::MAX)] {
                let brute: Vec<Ipv4Prefix> = reference
                    .known_prefixes()
                    .into_iter()
                    .filter(|p| p.first_addr() <= end && p.last_addr() >= start)
                    .collect();
                prop_assert_eq!(real.known_prefixes_in(start, end), brute);
            }
        }
        // The peer registry only diverges from the reference in one
        // documented way: no-op withdrawals register the session (the
        // old `entry(peer).or_default()`), so real peers ⊇ reference.
        let real_peers: BTreeSet<RouterId> = real.peers().collect();
        for p in reference.peers() {
            prop_assert!(real_peers.contains(&p));
        }
    }

    #[test]
    fn loc_rib_equivalent_to_btreemap(ops in prop::collection::vec(
        ((0u32..48, prop::sample::select(vec![8u8, 12, 16, 24])), prop::option::of(0u32..6)),
        1..60,
    )) {
        let mut real: LocRib<u32> = LocRib::new();
        let mut reference: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for ((x, len), val) in &ops {
            let p = Ipv4Prefix::new(*x << 26, *len);
            let a = real.set(p, *val);
            let b = match val {
                Some(v) => reference.insert(p, *v) != Some(*v),
                None => reference.remove(&p).is_some(),
            };
            prop_assert_eq!(a, b, "set change bit diverged at {}", p);
            let got: Vec<(Ipv4Prefix, u32)> = real.iter().map(|(p, v)| (*p, *v)).collect();
            let want: Vec<(Ipv4Prefix, u32)> = reference.iter().map(|(p, v)| (*p, *v)).collect();
            prop_assert_eq!(got, want, "iteration order diverged");
            // Longest-prefix match against the brute-force scan.
            for probe in [0u32, 7 << 26, 13 << 26, 40 << 26, u32::MAX] {
                let want = reference
                    .iter()
                    .filter(|(p, _)| p.first_addr() <= probe && probe <= p.last_addr())
                    .max_by_key(|(p, _)| p.len())
                    .map(|(p, v)| (*p, *v));
                prop_assert_eq!(real.lookup(probe).map(|(p, v)| (p, *v)), want);
            }
        }
    }

    #[test]
    fn adj_rib_out_export_walk_equivalent_to_per_group_maps(ops in prop::collection::vec(
        (0u8..3, (0u32..32, prop::sample::select(vec![12u8, 16, 24])), prop::collection::vec((0u8..3, 0u8..2), 0..3)),
        1..60,
    )) {
        // Three groups with overlapping memberships; RouterId(7) is in
        // groups 0 and 2, RouterId(8) in 1 and 2.
        let members = [vec![RouterId(7)], vec![RouterId(8)], vec![RouterId(7), RouterId(8)]];
        let mut real = AdjRibOut::new();
        let mut reference: BTreeMap<u32, BTreeMap<Ipv4Prefix, PathSet>> = BTreeMap::new();
        for (g, m) in members.iter().enumerate() {
            real.define_group(g as u32, m.clone());
            reference.insert(g as u32, BTreeMap::new());
        }
        for (g, (x, len), ids) in &ops {
            let g = *g as u32;
            let p = Ipv4Prefix::new(*x << 26, *len);
            let set = RefRibIn::normalize(path_set(ids));
            let a = real.set_paths(g, p, path_set(ids));
            let table = reference.get_mut(&g).unwrap();
            let b = if set.is_empty() {
                table.remove(&p).is_some()
            } else if table.get(&p) == Some(&set) {
                false
            } else {
                table.insert(p, set);
                true
            };
            prop_assert_eq!(a, b, "group set_paths change bit diverged");
        }
        // Per-group iteration order.
        for g in 0..3u32 {
            let got: Vec<Ipv4Prefix> = real.iter_group(g).map(|(p, _)| *p).collect();
            let want: Vec<Ipv4Prefix> = reference[&g].keys().copied().collect();
            prop_assert_eq!(got, want, "iter_group order for group {}", g);
        }
        prop_assert_eq!(
            real.num_entries(),
            reference.values().flat_map(|t| t.values()).map(|s| s.len()).sum::<usize>()
        );
        // Export walks: (group, prefix) ascending over the peer's groups
        // — the resync order every session cursor replays.
        for peer in [RouterId(7), RouterId(8), RouterId(9)] {
            let got: Vec<(u32, Ipv4Prefix, usize)> = real
                .export_walk(peer)
                .map(|(g, p, set)| (g, *p, set.len()))
                .collect();
            let mut want = Vec::new();
            for (g, table) in &reference {
                if !members[*g as usize].contains(&peer) {
                    continue;
                }
                for (p, set) in table {
                    want.push((*g, *p, set.len()));
                }
            }
            prop_assert_eq!(got, want, "export_walk diverged for {:?}", peer);
        }
    }
}
