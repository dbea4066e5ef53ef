//! The shard's ordered map: sorted leaves behind one fence index, both
//! searched over one array of 8-byte key heads.
//!
//! A [`KeyMap`] maps string keys to `u64` values in key order, like a
//! `BTreeMap<String, u64>`, but keeps the bytes it compares where it looks
//! for them. Every entry has a **head**: the first 8 bytes of its key,
//! zero-padded. Read as big-endian `u64`s, two heads order as their keys
//! do, unless they are equal. Equal heads are a tie. If the stored key is
//! at most 8 bytes, it is a prefix of the other (its zero padding matches
//! the other's NUL bytes), so the lengths settle the tie; otherwise the
//! full keys are compared.
//!
//! * a **leaf** holds up to `LEAF_ENTRIES` (64) consecutive entries in two
//!   buffers: the slots and the text. A slot is 20 B: the head, a `u32`
//!   tag that holds a short key's length or a long key's text offset, and
//!   the value. The text holds the full keys longer than 8 bytes, back to
//!   back. A key of at most 8 bytes is stored in its head alone and lent
//!   from there. Nothing is allocated per key;
//! * the **fence index** is the same structure without values (12 B slots):
//!   one lower-bound key per leaf after the first. Every key of leaf
//!   `i + 1` is `>= fence[i]`, every key of leaf `i` is below it.
//!
//! A lookup binary-searches the fence index and then one leaf, with one
//! routine. A probe loads one slot from the array the search walks and
//! compares its head as one integer; a tie reads the tag in the same slot,
//! and only a tie with a key longer than 8 bytes loads text. Keys that
//! share more than their first 8 bytes would tie on every probe, so an
//! array whose keys are all long heads the bytes after their common prefix
//! instead, and the search checks that prefix once. The fence index costs
//! 12 B per leaf for 8-byte keys: ~5 KB per 25 000 keys, so it stays
//! cache-resident while the leaves do not, and a lookup is two dependent
//! cache misses, not one per tree level plus one per heap-allocated key
//! compared. A scan walks leaves in sequence. Overwriting a key touches one
//! value and copies no key.
//!
//! An 8-byte key in a full leaf costs its 20 B slot plus a 64th of its
//! leaf's 56 B header and 12 B fence slot: 21.1 B. Its leaf's text buffer
//! is never allocated. A half-full leaf costs twice as much per key. A
//! deep clone is one `memcpy` per allocated buffer: one per leaf of short
//! keys, two per leaf with long ones.
//!
//! Two levels, not a tree: inserting or freeing a leaf shifts the tail of
//! the leaf vector and of the fence index (56 B + one fence slot per leaf
//! behind it), once per ~`LEAF_ENTRIES / 2` inserts. At 100 000 keys that
//! is ~2 KB moved per insert, amortised, and a shard that grows far past
//! that is what [`Store::split_shard`](crate::store::Store::split_shard)
//! is for.
//!
//! Leaves are never merged: one is freed when its last entry is removed,
//! and the sequential rebuilds ([`KeyMap::push`]: split partition, merge
//! adoption, recovery) leave every leaf full.

use std::cmp::Ordering;
use std::fmt;

use apc_progress_macros::progress;

/// Entries per leaf. 64 slots are 1280 B: a leaf search is 6 probes over
/// 20 cache lines of slots, and an insert shifts at most ~1.3 KB.
const LEAF_ENTRIES: usize = 64;

/// Long-key text per leaf: 64 B per entry on average before a leaf splits
/// on bytes and not on count, so a leaf's text stays within a page whatever
/// the key lengths. A key longer than this gets a leaf of its own.
const LEAF_BYTES: usize = 4096;

/// The key bytes a head holds. A key of at most this many bytes is short:
/// its head is all of it.
const HEAD: usize = 8;

/// The tag bit of a long key; the other 31 bits are its offset in the text.
const LONG: u32 = 1 << 31;

/// The first [`HEAD`] bytes of `bytes`, zero-padded.
fn head_of(bytes: &[u8]) -> [u8; HEAD] {
    let n = bytes.len().min(HEAD);
    let mut head = [0; HEAD];
    head[..n].copy_from_slice(&bytes[..n]);
    head
}

/// A head as the integer the search compares.
fn rank(head: [u8; HEAD]) -> u64 {
    u64::from_be_bytes(head)
}

/// Where a long key's text starts, if `tag` is a long key's.
fn long_start(tag: u32) -> Option<usize> {
    (tag & LONG != 0).then_some((tag & !LONG) as usize)
}

/// How many leading bytes `a` and `b` share.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// One entry: its head, its tag and its value. A leaf's is 20 B, the fence
/// index's 12 B; packed, so the value does not pad the slot to 24 B.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Slot<V> {
    head: [u8; HEAD],
    /// The key's length if it is short, else [`LONG`] and the offset of its
    /// text.
    tag: u32,
    value: V,
}

// The slot sizes the module docs' bytes-per-key figure is made of.
const _: () = assert!(size_of::<Slot<u64>>() == 20 && size_of::<Slot<()>>() == 12);

/// Entries in key order, addressed by position: a leaf (`V = u64`) or the
/// fence index (`V = ()`).
///
/// Keys that share more than their first 8 bytes would tie on every probe,
/// so an array whose keys are all long heads the bytes after their common
/// prefix instead: `user:0000012345` and `user:0000012346` share 14 bytes,
/// and their heads are `5` and `6`.
#[derive(Clone, Default)]
struct Entries<V: Copy> {
    slots: Vec<Slot<V>>,
    /// The long keys' full text, back to back in entry order: a long key
    /// ends where the next long key starts, the last one at `text.len()`.
    text: String,
    /// How many leading bytes every key here shares and no head holds: a
    /// head is the [`HEAD`] bytes after them. Zero unless every key is
    /// long, so a short key's head is all of it. It shrinks when a key
    /// that shares less arrives, and widens to all the keys share when a
    /// leaf splits.
    prefix: u32,
}

/// Up to [`LEAF_ENTRIES`] consecutive entries; never empty while in a map.
type Leaf = Entries<u64>;

impl<V: Copy> Entries<V> {
    fn single(key: &str, value: V) -> Self {
        let mut entries = Entries { slots: Vec::new(), text: String::new(), prefix: 0 };
        entries.insert(0, key, value);
        entries
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Where the text of the first long key at or after position `i`
    /// starts: `text.len()` if there is none. A long key inserted at `i`
    /// goes there.
    fn text_at(&self, i: usize) -> usize {
        let slots = self.slots.get(i..).unwrap_or_default();
        slots.iter().find_map(|slot| long_start(slot.tag)).unwrap_or(self.text.len())
    }

    /// Moves the text offset of every long key in `slots` through `shift`.
    fn shift_text(slots: &mut [Slot<V>], shift: impl Fn(u32) -> u32) {
        for slot in slots {
            if slot.tag & LONG != 0 {
                slot.tag = shift(slot.tag);
            }
        }
    }

    /// The key of entry `i`.
    fn key(&self, i: usize) -> Option<&str> {
        let slot = self.slots.get(i)?;
        match long_start(slot.tag) {
            None => std::str::from_utf8(&slot.head[..(slot.tag as usize).min(HEAD)]).ok(),
            Some(start) => self.text.get(start..self.text_at(i + 1)),
        }
    }

    fn entry(&self, i: usize) -> Option<(&str, V)> {
        Some((self.key(i)?, self.slots.get(i)?.value))
    }

    /// The bytes every key here starts with and no head holds. While
    /// `prefix` is nonzero every key is long, so the text starts with the
    /// first key, which starts with them.
    fn shared(&self) -> &[u8] {
        &self.text.as_bytes()[..(self.prefix as usize).min(self.text.len())]
    }

    /// `key`'s head here; or, if `key` does not start with the shared
    /// bytes, the position it sorts at: before every entry or after them.
    fn head_here(&self, key: &str) -> Result<[u8; HEAD], usize> {
        let shared = self.shared();
        match key.as_bytes().strip_prefix(shared) {
            Some(rest) => Ok(head_of(rest)),
            None if key.as_bytes() < shared => Err(0),
            None => Err(self.len()),
        }
    }

    /// How entry `i` orders against `key`, whose head ranks `rank_of_key`.
    /// Equal heads are settled by length if the entry is short and by the
    /// full text otherwise.
    fn order(&self, i: usize, key: &str, rank_of_key: u64) -> Ordering {
        let Some(slot) = self.slots.get(i) else { return Ordering::Greater };
        match rank(slot.head).cmp(&rank_of_key) {
            Ordering::Equal => {}
            order => return order,
        }
        match long_start(slot.tag) {
            None => (slot.tag as usize).cmp(&key.len()),
            Some(_) => self.key(i).unwrap_or_default().cmp(key),
        }
    }

    /// The position of `key` (`Ok`), or the position it would be inserted
    /// at to keep the entries sorted (`Err`): at most `log2(len) + 1`
    /// probes.
    fn search(&self, key: &str) -> Result<usize, usize> {
        let rank_of_key = match self.head_here(key) {
            Ok(head) => rank(head),
            Err(at) => return Err(at),
        };
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.order(mid, key, rank_of_key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return Ok(mid),
                Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// Rewrites every head to hold the [`HEAD`] bytes after the first
    /// `prefix`, which every key here must share.
    fn set_prefix(&mut self, prefix: usize) {
        for i in 0..self.len() {
            let key = self.key(i).unwrap_or_default().as_bytes();
            self.slots[i].head = head_of(&key[prefix.min(key.len())..]);
        }
        self.prefix = prefix as u32;
    }

    /// Widens the shared prefix to the whole of what the keys share, if they
    /// are all long: the first and the last key share what all do.
    fn widen_prefix(&mut self) {
        if self.slots.iter().all(|slot| slot.tag & LONG != 0) {
            let first = self.key(0).unwrap_or_default().as_bytes();
            let last = self.key(self.len().saturating_sub(1)).unwrap_or_default().as_bytes();
            let prefix = common_prefix(first, last);
            if prefix > self.prefix as usize {
                self.set_prefix(prefix);
            }
        }
    }

    fn insert(&mut self, i: usize, key: &str, value: V) {
        // Offsets and the prefix are 31 bits: a leaf's text is bounded by
        // `LEAF_BYTES` plus one key (the codec caps a key at 1 MiB), the
        // fence index's by one key per leaf.
        assert!(
            self.text.len() + key.len() < LONG as usize,
            "2 GiB of long-key text behind one slot array"
        );
        let prefix = match self.len() {
            _ if key.len() <= HEAD => 0,
            0 => key.len(),
            _ => common_prefix(self.shared(), key.as_bytes()),
        };
        if prefix != self.prefix as usize {
            self.set_prefix(prefix);
        }
        let tag = if key.len() <= HEAD {
            key.len() as u32
        } else {
            let at = self.text_at(i);
            self.text.insert_str(at, key);
            Self::shift_text(&mut self.slots[i..], |tag| tag + key.len() as u32);
            LONG | at as u32
        };
        self.slots.insert(i, Slot { head: head_of(&key.as_bytes()[prefix..]), tag, value });
    }

    fn remove(&mut self, i: usize) -> V {
        let slot = self.slots.remove(i);
        if let Some(start) = long_start(slot.tag) {
            let end = self.text_at(i);
            self.text.replace_range(start..end, "");
            Self::shift_text(&mut self.slots[i..], |tag| tag - (end - start) as u32);
        }
        slot.value
    }

    /// Splits off the entries from position `at` on. Each half keeps the
    /// shared prefix and widens it to what its own keys share.
    fn split_off(&mut self, at: usize) -> Self {
        let cut = self.text_at(at);
        let text = self.text.split_off(cut);
        let mut slots = self.slots.split_off(at);
        Self::shift_text(&mut slots, |tag| tag - cut as u32);
        let mut right = Entries { slots, text, prefix: self.prefix };
        self.widen_prefix();
        right.widen_prefix();
        right
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.text.clear();
        self.prefix = 0;
    }

    /// Whether one more entry under `key` stays within both budgets.
    fn fits(&self, key: &str) -> bool {
        let text = if key.len() > HEAD { key.len() } else { 0 };
        self.len() < LEAF_ENTRIES && self.text.len() + text <= LEAF_BYTES
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
    /// Entry `i` bounds leaf `i + 1` from below and leaf `i` from above;
    /// leaf 0 has no fence. A bound need not be a stored key: removing a
    /// leaf's first entry leaves its fence where it was.
    fence: Entries<()>,
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
    /// leaf search: `log2(leaves) + log2(LEAF_ENTRIES) + 2` probes.
    #[progress(wait_free)]
    pub fn get(&self, key: &str) -> Option<u64> {
        let leaf = self.leaves.get(self.leaf_for(key))?;
        let at = leaf.search(key).ok()?;
        leaf.slots.get(at).map(|slot| slot.value)
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
        match leaf.search(key) {
            Ok(at) => {
                let slot = &mut leaf.slots[at];
                let old = slot.value;
                slot.value = value;
                Some(old)
            }
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
            .and_then(|leaf| leaf.key(leaf.len() - 1))
            .is_some_and(|top| top < key);
        if above {
            let last = self.leaves.len() - 1;
            self.insert_at(last, self.leaves[last].len(), key, value);
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
                leaf.insert(at, key, value);
                return;
            }
            let len = leaf.len();
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
                self.fence.insert(li, leaf.key(0).unwrap_or_default(), ());
                self.leaves.insert(li, Leaf::single(key, value));
                return;
            }
            if cut == len {
                self.fence.insert(li, key, ());
                self.leaves.insert(li + 1, Leaf::single(key, value));
                return;
            }
            let right = leaf.split_off(cut);
            self.fence.insert(li, right.key(0).unwrap_or_default(), ());
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
        let at = leaf.search(key).ok()?;
        let value = leaf.remove(at);
        self.len -= 1;
        if leaf.len() == 0 {
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
        let at = leaves.first().map_or(0, |leaf| match leaf.search(from) {
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

    /// One entry array's own promises: every key starts with the shared
    /// prefix, which only long keys have; each head is the bytes after it;
    /// a short key's tag is its exact length; and the text is the long
    /// keys' and nothing else, in order. Returns the keys.
    fn check_entries<V: Copy>(entries: &Entries<V>) -> Vec<&str> {
        let keys: Vec<&str> = (0..entries.len()).map(|i| entries.key(i).unwrap()).collect();
        let prefix = entries.prefix as usize;
        let mut text = String::new();
        for (i, key) in keys.iter().enumerate() {
            assert!(prefix == 0 || key.len() > HEAD, "entry {i} is short under a prefix");
            assert!(key.as_bytes().starts_with(entries.shared()), "entry {i} lacks the prefix");
            assert_eq!(
                entries.slots[i].head,
                head_of(&key.as_bytes()[prefix..]),
                "entry {i}'s head"
            );
            let tag = entries.slots[i].tag;
            match long_start(tag) {
                None => assert_eq!(tag as usize, key.len(), "entry {i}'s length"),
                Some(start) => {
                    assert!(key.len() > HEAD, "entry {i} is short but tagged long");
                    assert_eq!(start, text.len(), "entry {i}'s text is not where it belongs");
                    text.push_str(key);
                }
            }
        }
        assert_eq!(entries.text, text, "the text is the long keys', back to back");
        keys
    }

    /// The layout's own promises, whatever history produced it.
    fn check_layout(map: &KeyMap) {
        let fence = check_entries(&map.fence);
        assert_eq!(fence.len(), map.leaves.len().saturating_sub(1), "one fence per later leaf");
        assert_eq!(map.leaves.iter().map(Entries::len).sum::<usize>(), map.len);
        let mut below: Option<&str> = None;
        for (li, leaf) in map.leaves.iter().enumerate() {
            let keys = check_entries(leaf);
            assert!(!keys.is_empty(), "leaf {li} is empty");
            assert!(keys.len() <= LEAF_ENTRIES);
            assert!(keys.len() == 1 || leaf.text.len() <= LEAF_BYTES, "leaf {li} over budget");
            assert!(keys.windows(2).all(|pair| pair[0] < pair[1]), "leaf {li} out of order");
            if li > 0 {
                assert!(fence[li - 1] <= keys[0], "leaf {li} starts below its fence");
                assert!(below.unwrap() < fence[li - 1], "leaf {} ends at its fence", li - 1);
            }
            below = keys.last().copied();
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
    /// budget, plain ones, and the ones heads can get wrong — keys of 7, 8
    /// and 9 bytes under one head, NUL bytes against the head's zero
    /// padding, a character straddling byte 8, and long keys sharing their
    /// first 8 bytes.
    fn key_of(n: u32) -> String {
        const ONE_HEAD: [&str; 6] =
            ["headkey", "headkey\0", "headkey\0\0", "headkeys", "headkeys\0", "headkeys!"];
        const NULS: [&str; 8] =
            ["ab", "ab\0", "ab\0\0", "a\0b", "\0", "\0\0ab", "ab\0\0\0\0\0\0", "ab\0\0\0\0\0\0\0"];
        let i = (n / 16) as usize;
        match n % 16 {
            0 if n == 0 => String::new(),
            1 => char::from(b'a' + (i % 26) as u8).to_string(),
            2 => "p".repeat(1 + i % 40),
            3 => format!("{n:0>900}"),
            4 => ONE_HEAD[i % ONE_HEAD.len()].to_owned(),
            5 => NULS[i % NULS.len()].to_owned(),
            6 => format!("headkey{}{}", ['é', '€', '😀', 'ß'][i % 4], "z".repeat(i / 4 % 3)),
            7 | 8 => format!("user:000{}", &(n * 7919).to_string()[..1 + i % 6]),
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

    /// Runs `script` against `KeyMap` and `BTreeMap<String, u64>` side by
    /// side: every answer, the length after every step, the final contents
    /// and layout, and a clone taken mid-way.
    fn run_against_the_oracle(script: &[(u8, u32, u32)]) -> Result<(), TestCaseError> {
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
                        prop_assert_eq!(
                            contents(&clone),
                            at_clone,
                            "a clone moved with its source"
                        );
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
        Ok(())
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
            run_against_the_oracle(&script)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The oracle proptest at 1024 cases, for release builds.
        #[test]
        #[ignore = "1024 cases: run in release with --include-ignored"]
        fn every_answer_matches_the_btreemap_oracle_at_1024_cases(
            script in proptest::collection::vec((0u8..24, 0u32..600, 0u32..600), 1..1500),
        ) {
            run_against_the_oracle(&script)?;
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
            assert_eq!(map.leaves[1].len(), 1);
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
        let cuts = |map: &KeyMap| map.leaves.iter().map(Entries::len).collect::<Vec<_>>();
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
