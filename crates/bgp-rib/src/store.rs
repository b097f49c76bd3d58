//! Hash-indexed prefix-keyed storage: the common substrate under every
//! RIB table.
//!
//! A [`PrefixSlab`] is one hash map from prefix to value plus a bit mask
//! of the prefix lengths stored. Exact-match operations (`get`,
//! `insert`, `remove`, ...) are a single hash probe. Longest-prefix
//! match probes only the lengths in the mask, longest first — on Tier-1
//! tables, where every prefix is a /24, that is one probe. The ordered
//! APIs sort inside the store.
//!
//! # Determinism contract
//!
//! This is the single key-ordering policy for all RIB storage:
//!
//! * [`PrefixSlab::iter`], [`PrefixSlab::iter_overlapping`] and
//!   [`PrefixSlab::retain`] always visit prefixes in lexicographic
//!   `(addr, len)` order — the same total order as `Ipv4Prefix`'s `Ord`
//!   — independent of insertion history and removals. They sort the
//!   hash map's keys before yielding, so no caller needs to sort.
//! * Hash-map order is *internal*: it depends on allocation history and
//!   must never leak into observable output. Every public API is keyed
//!   by prefix or sorted.

use bgp_types::{FxHasher, Ipv4Prefix};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// [`FxHasher`] with a final rotation that moves the well-mixed high
/// bits of its last multiply into the low bits that pick a hash
/// bucket. Plain Fx leaves those low bits as a function of the key's
/// low bits alone, and a /24's low 8 address bits are always zero:
/// random /24s then crowd into a few hundred buckets and each probe
/// walks a long chain.
#[derive(Default)]
struct PrefixHasher(FxHasher);

impl Hasher for PrefixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0.write_u8(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0.write_u32(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish().rotate_left(26)
    }
}

/// A map from [`Ipv4Prefix`] to `T`: hash-indexed, with ordered
/// iteration, range queries and longest-prefix match. See the module
/// docs for the determinism contract.
#[derive(Clone)]
pub struct PrefixSlab<T> {
    map: HashMap<Ipv4Prefix, T, BuildHasherDefault<PrefixHasher>>,
    /// Bit `l` is set once a prefix of length `l` is inserted, and
    /// cleared only by [`PrefixSlab::clear`]: a superset of the lengths
    /// present, which is all longest-prefix match needs. Every router
    /// embeds several slabs, so the slab stays a map header plus one
    /// word: exact per-length counts (`[u32; 33]`) grew it from 40 to
    /// 168 bytes and slowed the RIB-free engine steps of a 5K-prefix
    /// snapshot load by about 30%.
    lens: u64,
}

impl<T> Default for PrefixSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        PrefixSlab {
            map: HashMap::default(),
            lens: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Occupancy gauge pair: (live entries, hash-table capacity).
    pub fn occupancy(&self) -> (usize, usize) {
        (self.map.len(), self.map.capacity())
    }

    /// Inserts `value` at `prefix`, returning the displaced value if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        self.lens |= 1 << prefix.len();
        self.map.insert(prefix, value)
    }

    /// Removes and returns the value at `prefix`.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<T> {
        self.map.remove(prefix)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        self.map.get(prefix)
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &Ipv4Prefix) -> Option<&mut T> {
        self.map.get_mut(prefix)
    }

    /// Returns the entry for `prefix`, inserting `default()` if absent.
    pub fn get_or_insert_with(
        &mut self,
        prefix: Ipv4Prefix,
        default: impl FnOnce() -> T,
    ) -> &mut T {
        self.lens |= 1 << prefix.len();
        self.map.entry(prefix).or_insert_with(default)
    }

    /// Longest-prefix match for a destination address: probes each
    /// length in the mask, longest first.
    pub fn longest_match(&self, addr: u32) -> Option<(Ipv4Prefix, &T)> {
        (0..=32u8)
            .rev()
            .filter(|&l| self.lens & (1 << l) != 0)
            .find_map(|l| {
                let p = Ipv4Prefix::new(addr, l);
                self.map.get(&p).map(|v| (p, v))
            })
    }

    /// Iterates `(prefix, value)` in lexicographic prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Prefix, &T)> {
        sorted(self.map.iter().collect())
    }

    /// Iterates entries overlapping the inclusive address range, in the
    /// same order as [`PrefixSlab::iter`].
    pub fn iter_overlapping(
        &self,
        range_start: u32,
        range_end: u32,
    ) -> impl Iterator<Item = (&Ipv4Prefix, &T)> {
        sorted(
            self.map
                .iter()
                .filter(|(p, _)| p.first_addr() <= range_end && p.last_addr() >= range_start)
                .collect(),
        )
    }

    /// Removes all entries, retaining the hash table's capacity.
    pub fn clear(&mut self) {
        self.map.clear();
        self.lens = 0;
    }

    /// Removes every entry for which `keep` returns `false`, passing
    /// each removed value to `on_remove`. Visits entries in
    /// lexicographic prefix order.
    pub fn retain(
        &mut self,
        mut keep: impl FnMut(&Ipv4Prefix, &mut T) -> bool,
        mut on_remove: impl FnMut(Ipv4Prefix, T),
    ) {
        let mut keys: Vec<Ipv4Prefix> = self.map.keys().copied().collect();
        keys.sort_unstable();
        for p in keys {
            let v = self.map.get_mut(&p).expect("key listed above");
            if !keep(&p, v) {
                let v = self.map.remove(&p).expect("key listed above");
                on_remove(p, v);
            }
        }
    }
}

/// Sorts borrowed entries by prefix and hands them back as an iterator.
fn sorted<'a, T>(
    mut entries: Vec<(&'a Ipv4Prefix, &'a T)>,
) -> impl Iterator<Item = (&'a Ipv4Prefix, &'a T)> {
    entries.sort_unstable_by_key(|(p, _)| **p);
    entries.into_iter()
}

impl<T: fmt::Debug> fmt::Debug for PrefixSlab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<(Ipv4Prefix, T)> for PrefixSlab<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        let mut s = PrefixSlab::new();
        for (p, v) in iter {
            s.insert(p, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut s: PrefixSlab<u32> = PrefixSlab::new();
        assert_eq!(s.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(s.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(s.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(s.get(&p("10.0.0.0/9")), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(&p("10.0.0.0/8")), Some(2));
        assert_eq!(s.remove(&p("10.0.0.0/8")), None);
        assert!(s.is_empty());
        assert_eq!(s.longest_match(0x0A000000), None);
    }

    #[test]
    fn get_or_insert_with_counts_once() {
        let mut s: PrefixSlab<Vec<u32>> = PrefixSlab::new();
        s.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(1);
        s.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(2);
        assert_eq!(s.get(&p("10.0.0.0/8")), Some(&vec![1, 2]));
        assert_eq!(s.len(), 1);
        s.remove(&p("10.0.0.0/8"));
        assert_eq!(s.longest_match(0x0A000000), None);
    }

    #[test]
    fn occupancy_reports_entries_and_capacity() {
        let mut s: PrefixSlab<u8> = PrefixSlab::new();
        assert_eq!(s.occupancy().0, 0);
        s.insert(p("10.0.0.0/8"), 1);
        s.insert(p("11.0.0.0/8"), 1);
        let (live, cap) = s.occupancy();
        assert_eq!(live, 2);
        assert!(cap >= live);
        s.clear();
        assert_eq!(s.occupancy(), (0, cap));
    }

    #[test]
    fn ordered_iteration_independent_of_insertion_order() {
        let mut s: PrefixSlab<usize> = PrefixSlab::new();
        let prefixes = ["30.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16", "20.0.0.0/8"];
        for (i, x) in prefixes.iter().enumerate() {
            s.insert(p(x), i);
        }
        s.remove(&p("20.0.0.0/8"));
        s.insert(p("20.0.0.0/8"), 9);
        let got: Vec<Ipv4Prefix> = s.iter().map(|(p, _)| *p).collect();
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn range_iteration() {
        let mut s: PrefixSlab<()> = PrefixSlab::new();
        for x in ["10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"] {
            s.insert(p(x), ());
        }
        let hits: Vec<String> = s
            .iter_overlapping(0x0A000000, 0x14FFFFFF)
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(hits, vec!["10.0.0.0/8", "20.0.0.0/8"]);
    }

    #[test]
    fn longest_match() {
        let mut s: PrefixSlab<u8> = PrefixSlab::new();
        s.insert(p("10.0.0.0/8"), 8);
        s.insert(p("10.1.0.0/16"), 16);
        s.insert(p("10.1.2.0/24"), 24);
        assert_eq!(s.longest_match(0x0A010203).map(|(_, v)| *v), Some(24));
        assert_eq!(s.longest_match(0x0A01FF00).map(|(_, v)| *v), Some(16));
        assert_eq!(s.longest_match(0x0AFF0000).map(|(_, v)| *v), Some(8));
        assert_eq!(s.longest_match(0x0B000000), None);
    }

    #[test]
    fn default_and_host_routes() {
        let mut s: PrefixSlab<&str> = PrefixSlab::new();
        s.insert(p("1.2.3.4/32"), "host");
        assert_eq!(s.longest_match(0x01020305), None);
        s.insert(Ipv4Prefix::DEFAULT, "default");
        let (pre, v) = s.longest_match(0x01020304).unwrap();
        assert_eq!((pre, *v), (p("1.2.3.4/32"), "host"));
        let (pre, v) = s.longest_match(0x01020305).unwrap();
        assert_eq!((pre, *v), (Ipv4Prefix::DEFAULT, "default"));
    }

    #[test]
    fn retain_removes_in_order() {
        let mut s: PrefixSlab<u32> = PrefixSlab::new();
        for (i, x) in ["30.0.0.0/8", "10.0.0.0/8", "20.0.0.0/8"]
            .iter()
            .enumerate()
        {
            s.insert(p(x), i as u32);
        }
        let mut visited = Vec::new();
        let mut removed = Vec::new();
        s.retain(
            |p, v| {
                visited.push(*p);
                *v != 0
            },
            |p, _| removed.push(p),
        );
        assert_eq!(
            visited,
            vec![p("10.0.0.0/8"), p("20.0.0.0/8"), p("30.0.0.0/8")]
        );
        assert_eq!(removed, vec![p("30.0.0.0/8")]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&p("30.0.0.0/8")), None);
        assert_eq!(s.longest_match(0x1E000000), None);
    }
}
