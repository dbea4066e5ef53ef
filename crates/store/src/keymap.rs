//! The shard's ordered map: sorted leaves of packed keys behind one packed
//! fence index.
//!
//! A [`KeyMap`] maps string keys to `u64` values in key order, like a
//! `BTreeMap<String, u64>`, but keeps the bytes it compares where it looks
//! for them:
//!
//! * a **leaf** holds up to `LEAF_ENTRIES` (64) consecutive entries: their key
//!   text back to back in one buffer, an offsets array beside it, and a
//!   values array — three allocations per leaf, none per key;
//! * the **fence index** holds, packed the same way, one lower-bound key per
//!   leaf after the first: every key of leaf `i + 1` is `>= fence[i]`, every
//!   key of leaf `i` is below it.
//!
//! A lookup binary-searches the fence index (12 B per leaf for 8-byte keys:
//! ~5 KB per 25 000 keys, so it stays cache-resident while the leaves do
//! not) and then one leaf — two dependent cache misses, not one per tree
//! level plus one per heap-allocated key compared. A scan walks leaves in
//! sequence. Overwriting a key touches one value slot and copies no key.
//!
//! Two levels, not a tree: inserting or freeing a leaf shifts the tail of
//! the leaf vector and of the fence index (72 B + one fence key per leaf
//! behind it), once per ~`LEAF_ENTRIES / 2` inserts. At 100 000 keys that
//! is ~3 KB moved per insert, amortised, and a shard that grows far past
//! that is what [`Store::split_shard`](crate::store::Store::split_shard)
//! is for.
//!
//! Leaves are never merged: one is freed when its last entry is removed,
//! and the sequential rebuilds ([`KeyMap::push`]: split partition, merge
//! adoption, recovery) leave every leaf full.

use std::cmp::Ordering;
use std::fmt;

use apc_progress_macros::progress;

/// Entries per leaf. 64 values are 512 B, 64 offsets 256 B, 64 eight-byte
/// keys 512 B: a leaf search is 6 probes over ~20 cache lines of which it
/// touches 4–6, and an insert shifts at most ~1.3 KB. Per stored 8-byte key
/// a full leaf costs (512 + 256 + 512 + 72 B of leaf header + 12 B of
/// fence) / 64 = 21 B, a half-full one twice that.
const LEAF_ENTRIES: usize = 64;

/// Key bytes per leaf: 64 B per entry on average before a leaf splits on
/// bytes and not on count, so a leaf's text stays within a page whatever
/// the key lengths. A key longer than this gets a leaf of its own.
const LEAF_BYTES: usize = 4096;

/// Strings stored back to back in one buffer, addressed by position.
#[derive(Clone, Default)]
struct Packed {
    text: String,
    /// Where each string starts in `text`; it ends where the next one
    /// starts, the last one at `text.len()`.
    starts: Vec<u32>,
}

impl Packed {
    fn len(&self) -> usize {
        self.starts.len()
    }

    fn get(&self, i: usize) -> Option<&str> {
        let start = *self.starts.get(i)? as usize;
        self.text.get(start..self.start(i + 1))
    }

    /// Where string `i` starts — for `i == len()`, where one appended
    /// would.
    fn start(&self, i: usize) -> usize {
        self.starts.get(i).map_or(self.text.len(), |&start| start as usize)
    }

    /// The position of `key` (`Ok`), or the position it would be inserted
    /// at to keep the strings sorted (`Err`): at most `log2(len) + 1`
    /// comparisons.
    fn search(&self, key: &str) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            // `mid < len()`: the else arm is never taken.
            let Some(probe) = self.get(mid) else { return Err(lo) };
            match probe.cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return Ok(mid),
                Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    fn insert(&mut self, i: usize, key: &str) {
        // The offsets are 32-bit: a leaf's text is bounded by `LEAF_BYTES`
        // plus one key (the codec caps a key at 1 MiB), the fence index by
        // one key per leaf.
        assert!(
            u32::try_from(self.text.len() + key.len()).is_ok(),
            "4 GiB of key text behind one offsets array"
        );
        let at = self.start(i);
        self.text.insert_str(at, key);
        for start in &mut self.starts[i..] {
            *start += key.len() as u32;
        }
        self.starts.insert(i, at as u32);
    }

    fn remove(&mut self, i: usize) {
        let (at, end) = (self.start(i), self.start(i + 1));
        self.text.replace_range(at..end, "");
        self.starts.remove(i);
        for start in &mut self.starts[i..] {
            *start -= (end - at) as u32;
        }
    }

    /// Splits off the strings from position `at` on.
    fn split_off(&mut self, at: usize) -> Packed {
        let cut = self.start(at);
        let text = self.text.split_off(cut);
        let mut starts = self.starts.split_off(at);
        for start in &mut starts {
            *start -= cut as u32;
        }
        Packed { text, starts }
    }

    fn clear(&mut self) {
        self.text.clear();
        self.starts.clear();
    }
}

/// Up to [`LEAF_ENTRIES`] consecutive entries; never empty while in a map.
#[derive(Clone)]
struct Leaf {
    keys: Packed,
    /// `values[i]` belongs to `keys.get(i)`.
    values: Vec<u64>,
}

impl Leaf {
    fn single(key: &str, value: u64) -> Leaf {
        let mut keys = Packed::default();
        keys.insert(0, key);
        Leaf { keys, values: vec![value] }
    }

    fn entry(&self, i: usize) -> Option<(&str, u64)> {
        Some((self.keys.get(i)?, *self.values.get(i)?))
    }

    /// Whether one more entry under `key` stays within both budgets.
    fn fits(&self, key: &str) -> bool {
        self.values.len() < LEAF_ENTRIES && self.keys.text.len() + key.len() <= LEAF_BYTES
    }
}

/// An ordered map from string keys to `u64` values (see the module docs for
/// the layout).
///
/// Equality is by entry sequence, not by layout: two replicas of a shard
/// that reached the same contents through different histories — one
/// replayed cell by cell, one rebuilt from a sealed state — split their
/// leaves in different places and are still the same map.
#[derive(Clone, Default)]
pub struct KeyMap {
    /// `fence.get(i)` bounds leaf `i + 1` from below and leaf `i` from
    /// above; leaf 0 has no fence. A bound need not be a stored key:
    /// removing a leaf's first entry leaves its fence where it was.
    fence: Packed,
    leaves: Vec<Leaf>,
    len: usize,
}

impl KeyMap {
    /// An empty map.
    pub fn new() -> Self {
        KeyMap::default()
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.fence.clear();
        self.leaves.clear();
        self.len = 0;
    }

    /// The index of the one leaf that may hold `key` (0 in an empty map).
    fn leaf_for(&self, key: &str) -> usize {
        match self.fence.search(key) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// The value stored under `key`. Bounded by the fence search plus one
    /// leaf search: `log2(leaves) + log2(LEAF_ENTRIES) + 2` comparisons.
    #[progress(wait_free)]
    pub fn get(&self, key: &str) -> Option<u64> {
        let leaf = self.leaves.get(self.leaf_for(key))?;
        let at = leaf.keys.search(key).ok()?;
        leaf.values.get(at).copied()
    }

    /// Stores `value` under `key`, returning the value it replaces. Over an
    /// existing key this writes one value slot and copies nothing.
    pub fn insert(&mut self, key: &str, value: u64) -> Option<u64> {
        let li = self.leaf_for(key);
        let Some(leaf) = self.leaves.get_mut(li) else {
            self.leaves.push(Leaf::single(key, value));
            self.len = 1;
            return None;
        };
        match leaf.keys.search(key) {
            Ok(at) => Some(std::mem::replace(&mut leaf.values[at], value)),
            Err(at) => {
                self.insert_at(li, at, key, value);
                None
            }
        }
    }

    /// Appends an entry whose key is above every stored key without
    /// searching for its place — the step of every sequential build (a
    /// decoded snapshot, a split's two halves, an adoption's merge). A key
    /// that is not above the last one is [`KeyMap::insert`]ed.
    pub fn push(&mut self, key: &str, value: u64) {
        let above = self
            .leaves
            .last()
            .and_then(|leaf| leaf.keys.get(leaf.keys.len() - 1))
            .is_some_and(|top| top < key);
        if above {
            let last = self.leaves.len() - 1;
            self.insert_at(last, self.leaves[last].values.len(), key, value);
        } else {
            self.insert(key, value);
        }
    }

    /// Inserts an absent `key` at position `at` of leaf `li`, splitting the
    /// leaf until the entry fits.
    fn insert_at(&mut self, mut li: usize, mut at: usize, key: &str, value: u64) {
        self.len += 1;
        loop {
            let rightmost = li + 1 == self.leaves.len();
            let leaf = &mut self.leaves[li];
            if leaf.fits(key) {
                leaf.keys.insert(at, key);
                leaf.values.insert(at, value);
                return;
            }
            let len = leaf.values.len();
            // Where to cut. At the insertion point if the entry goes past
            // the map's last key (an ascending load leaves full leaves
            // behind it, not half-full ones), if the key is too long to
            // share a leaf, or if the one resident is; in the middle
            // otherwise.
            let cut = if (rightmost && at == len) || len == 1 || key.len() > LEAF_BYTES {
                at
            } else {
                len / 2
            };
            if cut == 0 {
                // The entry's own leaf takes over this leaf's fence; this
                // leaf is fenced by its first key from now on.
                self.fence.insert(li, leaf.keys.get(0).unwrap_or_default());
                self.leaves.insert(li, Leaf::single(key, value));
                return;
            }
            if cut == len {
                self.fence.insert(li, key);
                self.leaves.insert(li + 1, Leaf::single(key, value));
                return;
            }
            let right = Leaf { keys: leaf.keys.split_off(cut), values: leaf.values.split_off(cut) };
            self.fence.insert(li, right.keys.get(0).unwrap_or_default());
            self.leaves.insert(li + 1, right);
            if at > cut {
                li += 1;
                at -= cut;
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<u64> {
        let li = self.leaf_for(key);
        let leaf = self.leaves.get_mut(li)?;
        let at = leaf.keys.search(key).ok()?;
        leaf.keys.remove(at);
        let value = leaf.values.remove(at);
        self.len -= 1;
        if leaf.values.is_empty() {
            self.leaves.remove(li);
            // Leaf 0 has no fence of its own: freeing it unfences leaf 1.
            if self.fence.len() > 0 {
                self.fence.remove(li.saturating_sub(1));
            }
        }
        Some(value)
    }

    /// Every entry, in key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { leaves: &self.leaves, at: 0, to: None }
    }

    /// The entries with `from <= key < to`, in key order; none if
    /// `from >= to`. Positioning costs what [`KeyMap::get`] costs; the
    /// walk is then sequential.
    #[progress(wait_free)]
    pub fn range<'a>(&'a self, from: &str, to: &'a str) -> Iter<'a> {
        if from >= to {
            return Iter { leaves: &[], at: 0, to: None };
        }
        let li = self.leaf_for(from);
        let leaves = self.leaves.get(li..).unwrap_or_default();
        let at = leaves.first().map_or(0, |leaf| match leaf.keys.search(from) {
            Ok(at) | Err(at) => at,
        });
        Iter { leaves, at, to: Some(to) }
    }
}

impl PartialEq for KeyMap {
    fn eq(&self, other: &KeyMap) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for KeyMap {}

impl fmt::Debug for KeyMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: AsRef<str>> Extend<(K, u64)> for KeyMap {
    fn extend<I: IntoIterator<Item = (K, u64)>>(&mut self, entries: I) {
        for (key, value) in entries {
            self.push(key.as_ref(), value);
        }
    }
}

impl<K: AsRef<str>> FromIterator<(K, u64)> for KeyMap {
    /// Builds a map from entries in any order (a later duplicate wins);
    /// entries in key order are appended, leaving every leaf full.
    fn from_iter<I: IntoIterator<Item = (K, u64)>>(entries: I) -> Self {
        let mut map = KeyMap::new();
        map.extend(entries);
        map
    }
}

/// An in-order walk over a [`KeyMap`]'s entries ([`KeyMap::iter`],
/// [`KeyMap::range`]).
#[derive(Clone)]
pub struct Iter<'a> {
    /// The leaves still to walk; the walk is at `at` in the first.
    leaves: &'a [Leaf],
    at: usize,
    /// The exclusive upper bound, if any.
    to: Option<&'a str>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, u64);

    fn next(&mut self) -> Option<(&'a str, u64)> {
        loop {
            let (leaf, rest) = self.leaves.split_first()?;
            match leaf.entry(self.at) {
                Some((key, _)) if self.to.is_some_and(|to| key >= to) => {
                    self.leaves = &[];
                    return None;
                }
                Some(entry) => {
                    self.at += 1;
                    return Some(entry);
                }
                None => {
                    self.leaves = rest;
                    self.at = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// The layout's own promises, whatever history produced it.
    fn check_layout(map: &KeyMap) {
        assert_eq!(map.fence.len(), map.leaves.len().saturating_sub(1), "one fence per later leaf");
        assert_eq!(map.leaves.iter().map(|leaf| leaf.values.len()).sum::<usize>(), map.len);
        for (li, leaf) in map.leaves.iter().enumerate() {
            let keys: Vec<&str> = (0..leaf.keys.len()).map(|i| leaf.keys.get(i).unwrap()).collect();
            assert!(!keys.is_empty(), "leaf {li} is empty");
            assert_eq!(keys.len(), leaf.values.len());
            assert!(keys.len() <= LEAF_ENTRIES);
            assert!(keys.len() == 1 || leaf.keys.text.len() <= LEAF_BYTES, "leaf {li} over budget");
            assert!(keys.windows(2).all(|pair| pair[0] < pair[1]), "leaf {li} out of order");
            if li > 0 {
                let fence = map.fence.get(li - 1).unwrap();
                assert!(fence <= keys[0], "leaf {li} starts below its fence");
                let below = &map.leaves[li - 1];
                assert!(below.keys.get(below.keys.len() - 1).unwrap() < fence);
            }
        }
    }

    fn contents(map: &KeyMap) -> Vec<(String, u64)> {
        map.iter().map(|(k, v)| (k.to_owned(), v)).collect()
    }

    fn oracle_contents(oracle: &BTreeMap<String, u64>) -> Vec<(String, u64)> {
        oracle.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// The mean leaf's share of [`LEAF_ENTRIES`].
    fn fill(map: &KeyMap) -> f64 {
        map.len() as f64 / (map.leaves.len() * LEAF_ENTRIES) as f64
    }

    /// A small key space with every shape in it: the empty key, one-byte
    /// keys, a chain of prefixes, keys a few of which fill a leaf's byte
    /// budget, and plain ones.
    fn key_of(n: u32) -> String {
        match n % 16 {
            0 if n == 0 => String::new(),
            1 => char::from(b'a' + (n / 16 % 26) as u8).to_string(),
            2 => "p".repeat(1 + (n / 16) as usize % 40),
            3 => format!("{n:0>900}"),
            _ => format!("k{n:04}"),
        }
    }

    /// A fixed-seed shuffle of `0..n` (xorshift, Fisher–Yates).
    fn shuffled(n: u64) -> Vec<u64> {
        let mut order: Vec<u64> = (0..n).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..order.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any history of inserts, removes, reads, scans, clears and clones
        /// answers exactly as `BTreeMap<String, u64>` does, holds the same
        /// contents, and leaves a clone taken mid-way untouched.
        #[test]
        fn every_answer_matches_the_btreemap_oracle(
            script in proptest::collection::vec((0u8..24, 0u32..600, 0u32..600), 1..1500),
        ) {
            let mut map = KeyMap::new();
            let mut oracle = BTreeMap::new();
            let mut cloned: Option<(KeyMap, Vec<(String, u64)>)> = None;
            for (step, &(kind, a, b)) in script.iter().enumerate() {
                let (key, value) = (key_of(a), u64::from(b));
                match kind {
                    0..=11 => prop_assert_eq!(map.insert(&key, value), oracle.insert(key, value)),
                    12..=15 => prop_assert_eq!(map.remove(&key), oracle.remove(&key)),
                    16..=18 => prop_assert_eq!(map.get(&key), oracle.get(&key).copied()),
                    19..=21 => {
                        let to = key_of(b);
                        let got: Vec<(String, u64)> =
                            map.range(&key, &to).map(|(k, v)| (k.to_owned(), v)).collect();
                        let want: Vec<(String, u64)> = if key < to {
                            oracle.range(key..to).map(|(k, v)| (k.clone(), *v)).collect()
                        } else {
                            Vec::new()
                        };
                        prop_assert_eq!(got, want);
                    }
                    22 => {
                        if let Some((clone, at_clone)) = cloned.take() {
                            prop_assert_eq!(contents(&clone), at_clone, "a clone moved with its source");
                        }
                        cloned = Some((map.clone(), oracle_contents(&oracle)));
                    }
                    // Rare, or no history grows past a leaf or two.
                    _ if step % 8 == 0 => {
                        map.clear();
                        oracle.clear();
                    }
                    _ => {}
                }
                prop_assert_eq!(map.len(), oracle.len());
            }
            check_layout(&map);
            prop_assert_eq!(contents(&map), oracle_contents(&oracle));
            prop_assert_eq!(&map, &oracle.iter().map(|(k, v)| (k, *v)).collect::<KeyMap>());
            if let Some((clone, at_clone)) = cloned {
                check_layout(&clone);
                prop_assert_eq!(contents(&clone), at_clone, "a clone moved with its source");
            }
        }
    }

    #[test]
    fn the_empty_key_and_one_byte_keys_are_keys() {
        let mut map = KeyMap::new();
        assert_eq!(map.get(""), None);
        assert_eq!(map.insert("b", 2), None);
        assert_eq!(map.insert("", 0), None);
        assert_eq!(map.insert("a", 1), None);
        assert_eq!(map.insert("", 9), Some(0), "overwriting the empty key");
        assert_eq!(contents(&map), [("".into(), 9), ("a".into(), 1), ("b".into(), 2)]);
        assert_eq!(map.range("", "b").count(), 2, "the empty key is the lowest bound there is");
        assert_eq!(map.remove(""), Some(9));
        assert_eq!(map.get(""), None);
        assert_eq!(map.len(), 2);
        check_layout(&map);
    }

    #[test]
    fn keys_that_are_prefixes_of_each_other_stay_distinct_and_ordered() {
        let mut map = KeyMap::new();
        for n in (1..=200).rev() {
            map.insert(&"x".repeat(n), n as u64);
        }
        check_layout(&map);
        assert!(map.leaves.len() > 1, "200 entries span leaves");
        for n in 1..=200 {
            assert_eq!(map.get(&"x".repeat(n)), Some(n as u64));
        }
        assert_eq!(map.get(&"x".repeat(201)), None);
        let lengths: Vec<usize> = map.iter().map(|(k, _)| k.len()).collect();
        assert_eq!(lengths, (1..=200).collect::<Vec<_>>(), "a prefix sorts before its extensions");
    }

    #[test]
    fn an_over_long_key_gets_a_leaf_of_its_own() {
        // Longer than a leaf's byte budget, and at the codec's cap (a key
        // is one wire string: `MAX_WIRE_PAYLOAD`, 1 MiB).
        for long in [LEAF_BYTES + 1, 1 << 20] {
            let mut map = KeyMap::new();
            for i in 0..10 {
                map.insert(&format!("m{i}"), i);
            }
            let huge = format!("m5{}", "y".repeat(long));
            assert_eq!(map.insert(&huge, 77), None);
            check_layout(&map);
            assert_eq!(map.leaves.len(), 3, "the leaf is cut at the insertion point");
            assert_eq!(map.leaves[1].values.len(), 1);
            assert_eq!(map.get(&huge), Some(77));
            assert_eq!(map.insert(&huge, 78), Some(77));
            // Neighbours on both sides still land, and find their own way.
            assert_eq!(map.insert("m5", 50), Some(5));
            assert_eq!(map.insert("m55", 55), None);
            assert_eq!(map.insert(&format!("{huge}z"), 79), None);
            check_layout(&map);
            let lengths: Vec<usize> = map.range("m5", "m6").map(|(k, _)| k.len()).collect();
            assert_eq!(lengths, [2, 3, long + 2, long + 3], "m5 < m55 < m5y… < m5y…z");
            assert_eq!(map.remove(&huge), Some(78));
            assert_eq!(map.get(&huge), None);
            assert_eq!(map.len(), 12);
            check_layout(&map);
            assert_eq!(map.clone(), map);
        }
    }

    #[test]
    fn range_bounds_at_and_past_the_edges() {
        let map: KeyMap = (0..300).map(|i| (format!("k{i:03}"), i)).collect();
        check_layout(&map);
        let keys = |from: &str, to: &str| map.range(from, to).map(|(_, v)| v).collect::<Vec<_>>();
        assert_eq!(keys("k100", "k100"), [] as [u64; 0], "from == to");
        assert_eq!(keys("k200", "k100"), [] as [u64; 0], "from > to");
        assert_eq!(keys("", "k003"), [0, 1, 2], "from below the first key");
        assert_eq!(keys("a", "k0005"), [0], "a bound need not be a key");
        assert_eq!(keys("k297", "zzz"), [297, 298, 299], "to past the last key");
        assert_eq!(keys("k3", "zzz"), [] as [u64; 0], "from past the last key");
        assert_eq!(keys("", "zzz").len(), 300);
        assert_eq!(keys("k063", "k066"), [63, 64, 65], "across a leaf boundary");
        assert!(KeyMap::new().range("", "z").next().is_none());
    }

    #[test]
    fn removal_down_to_empty_and_refill() {
        let mut map: KeyMap = (0..500).map(|i| (format!("k{i:03}"), i)).collect();
        for i in shuffled(500) {
            assert_eq!(map.remove(&format!("k{i:03}")), Some(i));
            assert_eq!(map.remove(&format!("k{i:03}")), None);
        }
        assert!(map.is_empty() && map.leaves.is_empty() && map.fence.len() == 0);
        assert_eq!(map, KeyMap::new());
        assert!(map.iter().next().is_none());
        for i in shuffled(500) {
            assert_eq!(map.insert(&format!("k{i:03}"), i + 1), None);
        }
        check_layout(&map);
        assert_eq!(map.iter().map(|(_, v)| v).collect::<Vec<_>>(), (1..=500).collect::<Vec<_>>());
        map.clear();
        assert_eq!(map.len(), 0);
        assert_eq!(map.insert("again", 1), None);
        check_layout(&map);
    }

    #[test]
    fn equality_is_by_entries_not_by_leaf_boundaries() {
        let ascending: KeyMap = (0..1000).map(|i| (format!("k{i:04}"), i)).collect();
        let mut churned = KeyMap::new();
        for i in shuffled(2000) {
            churned.insert(&format!("k{i:04}"), i);
        }
        for i in shuffled(2000).into_iter().filter(|i| *i >= 1000) {
            churned.remove(&format!("k{i:04}"));
        }
        check_layout(&ascending);
        check_layout(&churned);
        let cuts = |map: &KeyMap| map.leaves.iter().map(|l| l.values.len()).collect::<Vec<_>>();
        assert_ne!(cuts(&ascending), cuts(&churned), "the two histories cut their leaves apart");
        assert_eq!(ascending, churned);
        churned.insert("k0500", 0);
        assert_ne!(ascending, churned, "one value apart");
        churned.insert("k0500", 500);
        churned.remove("k0999");
        assert_ne!(ascending, churned, "one entry apart");
    }

    #[test]
    fn pushes_out_of_order_fall_back_to_inserts() {
        let mut map = KeyMap::new();
        for (k, v) in [("b", 1), ("d", 2), ("c", 3), ("d", 4), ("a", 5), ("e", 6)] {
            map.push(k, v);
        }
        let want = [("a", 5), ("b", 1), ("c", 3), ("d", 4), ("e", 6)];
        assert_eq!(map.iter().collect::<Vec<_>>(), want);
        check_layout(&map);
    }

    /// How full a load leaves the leaves is the bytes-per-key figure.
    #[test]
    fn loads_leave_their_leaves_full_enough() {
        const N: u64 = 100_000;
        let key = |i: u64| format!("k{i:07}");
        let mut ascending = KeyMap::new();
        let mut descending = KeyMap::new();
        let mut shuffle = KeyMap::new();
        for i in 0..N {
            ascending.insert(&key(i), i);
            descending.insert(&key(N - 1 - i), i);
        }
        for i in shuffled(N) {
            shuffle.insert(&key(i), i);
        }
        let pushed: KeyMap = (0..N).map(|i| (key(i), i)).collect();
        for (name, map, floor) in [
            ("ascending", &ascending, 0.90),
            ("pushed", &pushed, 0.90),
            ("descending", &descending, 0.45),
            ("shuffled", &shuffle, 0.60),
        ] {
            check_layout(map);
            assert_eq!(map.len() as u64, N);
            assert!(fill(map) >= floor, "{name}: mean leaf {:.0}% full", 100.0 * fill(map));
        }
        assert_eq!(ascending, pushed);
    }
}
