//! The per-file table both cache models keep their file state in.
//!
//! The macroscopic model ([`LruLists`](crate::LruLists)) keeps each file's
//! byte totals and block chains in a [`FileTable`]; the page-granularity
//! kernel emulator keeps each file's pages and range ledgers in one. The
//! table owns everything that is the same for both:
//!
//! * the **name index**, `FileId -> key`: a public call hashes a file name
//!   once, and every step after that addresses the file by its key;
//! * the **slots**, in a [`des::Slab`]: freed slots are reused last-in
//!   first-out, and a key never reaches the slot of a file that reused it;
//! * each file's **cache group** (a memcg-style tenant), kept in its slot;
//! * each group's **byte totals** (`cached`, `dirty`), which the models
//!   keep with [`FileTable::adjust_group`] at every site where a grouped
//!   file's bytes change, so a tenant's usage is O(1) to poll;
//! * the resolution of a [`ReclaimScope`] to keys ([`SlotScope`]), so a
//!   reclaim walk checks its scope without a name lookup.
//!
//! A group assignment is configuration, not cache state: a grouped slot
//! outlives the file's data. [`FileTable::discard`] frees an ungrouped slot
//! but resets a grouped one to a fresh `T::default()`, so bytes the file
//! caches later count to its group again.
//!
//! Keys never decide an order: both models break ties by file name, which
//! is unique in the index.

use std::collections::HashMap;

use des::Slab;

use crate::block::FileId;
use crate::lru::EPSILON;

/// Which cached data a reclaim call may take: eviction and flushing in
/// [`LruLists`](crate::LruLists) and eviction and writeback in the kernel
/// emulator. Both cache models share this type, so tenant-scoped reclaim
/// runs through the same loops as host-wide reclaim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimScope<'a> {
    /// Any file of the host, except the given one (paper Algorithm 2
    /// excludes the file being read).
    Host(Option<&'a FileId>),
    /// Only the files assigned to this cache group (a memcg-style tenant),
    /// so one tenant's overflow never reclaims a neighbour's pages.
    Group(u32),
}

/// A [`ReclaimScope`] resolved against one [`FileTable`]: the excluded file
/// is its key, so [`FileTable::admits`] looks no name up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotScope {
    /// Every slot except this one (`None` excludes nothing).
    Host(Option<u64>),
    /// The slots assigned to this cache group.
    Group(u32),
}

/// Byte totals of one cache group: the memcg analogue of the per-cgroup
/// page counters the kernel keeps next to its global LRU accounting.
#[derive(Debug, Default, Clone, Copy)]
struct GroupBytes {
    cached: f64,
    dirty: f64,
}

/// One slot: the file's name, its cache group and the model's state.
#[derive(Debug, Clone)]
struct Slot<T> {
    file: FileId,
    group: Option<u32>,
    state: T,
}

/// Per-file state of one cache model behind one name index, with the cache
/// group assignment and the group byte totals. See the module docs.
#[derive(Debug, Clone)]
pub struct FileTable<T> {
    index: HashMap<FileId, u64>,
    slots: Slab<Slot<T>>,
    groups: HashMap<u32, GroupBytes>,
}

impl<T: Default> Default for FileTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> FileTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        FileTable {
            index: HashMap::new(),
            slots: Slab::new(),
            groups: HashMap::new(),
        }
    }

    /// Number of live slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no live slot.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The key of `file`, if it has a slot: the one name lookup of a call.
    pub fn key(&self, file: &FileId) -> Option<u64> {
        self.index.get(file).copied()
    }

    /// The key of `file`, with a fresh ungrouped slot created if it has
    /// none.
    pub fn key_or_insert(&mut self, file: &FileId) -> u64 {
        if let Some(key) = self.key(file) {
            return key;
        }
        let key = self.slots.insert(Slot {
            file: file.clone(),
            group: None,
            state: T::default(),
        });
        self.index.insert(file.clone(), key);
        key
    }

    fn slot(&self, key: u64) -> &Slot<T> {
        self.slots.get(key).expect("vacant file slot")
    }

    /// Whether `key` addresses a live slot.
    pub fn contains(&self, key: u64) -> bool {
        self.slots.contains(key)
    }

    /// The model's state of slot `key`.
    ///
    /// # Panics
    /// Panics if the slot was freed.
    pub fn get(&self, key: u64) -> &T {
        &self.slot(key).state
    }

    /// Mutable access to the model's state of slot `key`.
    ///
    /// # Panics
    /// Panics if the slot was freed.
    pub fn get_mut(&mut self, key: u64) -> &mut T {
        &mut self.slots.get_mut(key).expect("vacant file slot").state
    }

    /// The file of slot `key`.
    pub fn name(&self, key: u64) -> &FileId {
        &self.slot(key).file
    }

    /// The cache group of slot `key`, if any.
    pub fn group(&self, key: u64) -> Option<u32> {
        self.slot(key).group
    }

    /// Every live slot as `(key, file, state)`, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &FileId, &T)> {
        self.slots.iter().map(|(k, s)| (k, &s.file, &s.state))
    }

    /// Takes the model's state out of slot `key`. An ungrouped slot is
    /// freed and leaves the index; a grouped one keeps its key and group
    /// and holds a fresh `T::default()`. The group totals are the caller's:
    /// move the slot's bytes out first with [`FileTable::adjust_group`].
    pub fn discard(&mut self, key: u64) -> T {
        let slot = self.slots.get_mut(key).expect("vacant file slot");
        if slot.group.is_some() {
            return std::mem::take(&mut slot.state);
        }
        let slot = self.slots.remove(key).expect("vacant file slot");
        self.index.remove(&slot.file);
        slot.state
    }

    /// Discards every slot (see [`FileTable::discard`]) and zeroes every
    /// group total: the cache content is gone, the assignments stay.
    /// Returns each file's state, in no particular order.
    pub fn discard_all(&mut self) -> Vec<(FileId, T)> {
        self.groups.clear();
        let keys: Vec<u64> = self.index.values().copied().collect();
        keys.into_iter()
            .map(|k| (self.name(k).clone(), self.discard(k)))
            .collect()
    }

    /// Assigns `file` to cache group `group`, or clears its assignment with
    /// `None`. `bytes` gives the slot's `(cached, dirty)` bytes, which move
    /// from the old group's totals to the new one's, so assignment order
    /// relative to I/O does not matter. Assigning a group creates the slot
    /// if needed. Returns the slot's key, or `None` when clearing the group
    /// of a file without a slot. Never frees a slot.
    pub fn set_group(
        &mut self,
        file: &FileId,
        group: Option<u32>,
        bytes: impl FnOnce(&T) -> (f64, f64),
    ) -> Option<u64> {
        let key = match group {
            Some(_) => self.key_or_insert(file),
            None => self.key(file)?,
        };
        let slot = self.slots.get_mut(key).expect("vacant file slot");
        let (cached, dirty) = bytes(&slot.state);
        if let Some(old) = slot.group {
            if let Some(gb) = self.groups.get_mut(&old) {
                gb.cached = (gb.cached - cached).max(0.0);
                gb.dirty = (gb.dirty - dirty).max(0.0);
            }
        }
        if let Some(g) = group {
            let gb = self.groups.entry(g).or_default();
            gb.cached += cached;
            gb.dirty += dirty;
        }
        slot.group = group;
        Some(key)
    }

    /// Adds the byte deltas of slot `key` to its group's totals (a no-op
    /// for an ungrouped slot), and returns the slot's state, so the caller
    /// updates its own counters without a second lookup. Totals saturate
    /// at zero, like the models' host totals.
    pub fn adjust_group(&mut self, key: u64, d_cached: f64, d_dirty: f64) -> &mut T {
        let slot = self.slots.get_mut(key).expect("vacant file slot");
        if let Some(g) = slot.group {
            let gb = self.groups.entry(g).or_default();
            gb.cached = (gb.cached + d_cached).max(0.0);
            gb.dirty = (gb.dirty + d_dirty).max(0.0);
        }
        &mut slot.state
    }

    /// Cached bytes (clean + dirty) of cache group `group`. O(1).
    pub fn group_cached(&self, group: u32) -> f64 {
        self.groups.get(&group).map_or(0.0, |g| g.cached)
    }

    /// Dirty bytes of cache group `group`. O(1).
    pub fn group_dirty(&self, group: u32) -> f64 {
        self.groups.get(&group).map_or(0.0, |g| g.dirty)
    }

    /// Resolves `scope` against this table: the one name lookup of a
    /// reclaim call. An excluded file without a slot excludes nothing.
    pub fn resolve(&self, scope: ReclaimScope<'_>) -> SlotScope {
        match scope {
            ReclaimScope::Host(exclude) => SlotScope::Host(exclude.and_then(|f| self.key(f))),
            ReclaimScope::Group(g) => SlotScope::Group(g),
        }
    }

    /// Whether a reclaim call restricted to `scope` may take data of slot
    /// `key`.
    pub fn admits(&self, scope: SlotScope, key: u64) -> bool {
        match scope {
            SlotScope::Host(excluded) => excluded != Some(key),
            SlotScope::Group(g) => self.group(key) == Some(g),
        }
    }

    /// Scan-based oracle of the table: the name index and the live slots
    /// are inverse maps, and every group's totals equal the sum of `bytes`
    /// (each slot's `(cached, dirty)`) over the slots assigned to it, in
    /// both directions: a group with bytes needs a total, and a total needs
    /// the bytes.
    pub fn check(&self, bytes: impl Fn(&T) -> (f64, f64)) -> Result<(), String> {
        fn close(a: f64, b: f64) -> bool {
            (a - b).abs() <= EPSILON + 1e-9 * b.abs()
        }
        for (file, &key) in &self.index {
            if self.slots.get(key).map(|s| &s.file) != Some(file) {
                return Err(format!(
                    "name index maps {file} to a slot that names another file"
                ));
            }
        }
        if self.slots.len() != self.index.len() {
            return Err(format!(
                "file table has {} live slots but the name index {} names",
                self.slots.len(),
                self.index.len()
            ));
        }
        let mut scan: HashMap<u32, GroupBytes> = HashMap::new();
        for slot in self.slots.values() {
            if let Some(g) = slot.group {
                let (cached, dirty) = bytes(&slot.state);
                let gb = scan.entry(g).or_default();
                gb.cached += cached;
                gb.dirty += dirty;
            }
        }
        for (&g, expected) in &scan {
            let Some(actual) = self.groups.get(&g) else {
                if expected.cached > EPSILON || expected.dirty > EPSILON {
                    return Err(format!(
                        "group {g}: slots hold ({}, {}) bytes but the group has no total",
                        expected.cached, expected.dirty
                    ));
                }
                continue;
            };
            for (what, a, b) in [
                ("cached", actual.cached, expected.cached),
                ("dirty", actual.dirty, expected.dirty),
            ] {
                if !close(a, b) {
                    return Err(format!("group {g}: {what} total {a} != scan {b}"));
                }
            }
        }
        for (&g, gb) in &self.groups {
            if !scan.contains_key(&g) && (gb.cached > EPSILON || gb.dirty > EPSILON) {
                return Err(format!(
                    "group {g}: totals ({}, {}) but no slot in the group",
                    gb.cached, gb.dirty
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model state that is just its `(cached, dirty)` bytes.
    type Bytes = (f64, f64);

    fn bytes(b: &Bytes) -> Bytes {
        *b
    }

    #[test]
    fn insert_and_lookup() {
        let mut t: FileTable<Bytes> = FileTable::new();
        assert!(t.is_empty());
        let f = FileId::new("f");
        assert_eq!(t.key(&f), None);
        let k = t.key_or_insert(&f);
        assert_eq!(t.key_or_insert(&f), k, "an existing file keeps its key");
        assert_eq!(t.key(&f), Some(k));
        assert_eq!(t.name(k), &f);
        assert_eq!(t.group(k), None);
        assert_eq!(*t.get(k), (0.0, 0.0), "a new slot holds a fresh state");
        *t.get_mut(k) = (5.0, 1.0);
        let g = t.key_or_insert(&FileId::new("g"));
        assert_ne!(g, k);
        assert_eq!(t.len(), 2);
        let listed: Vec<_> = t.iter().map(|(k, f, s)| (k, f.clone(), *s)).collect();
        assert_eq!(
            listed,
            [(k, f, (5.0, 1.0)), (g, FileId::new("g"), (0.0, 0.0))]
        );
        t.check(bytes).unwrap();
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let keys: Vec<u64> = (0..3)
            .map(|i| t.key_or_insert(&FileId::new(format!("f{i}"))))
            .collect();
        *t.get_mut(keys[0]) = (1.0, 0.0);
        assert_eq!(t.discard(keys[0]), (1.0, 0.0));
        t.discard(keys[2]);
        assert!(!t.contains(keys[0]));
        assert_eq!(
            t.key(&FileId::new("f0")),
            None,
            "a freed file leaves the index"
        );
        assert_eq!(t.len(), 1);
        let a = t.key_or_insert(&FileId::new("a"));
        let b = t.key_or_insert(&FileId::new("b"));
        assert_eq!(a as u32, keys[2] as u32, "the last freed slot first");
        assert_eq!(b as u32, keys[0] as u32);
        assert_ne!(b, keys[0], "under a new key");
        assert_eq!(*t.get(b), (0.0, 0.0), "reused slots start fresh");
        t.check(bytes).unwrap();
    }

    #[test]
    fn a_grouped_slot_is_reset_not_freed() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let f = FileId::new("f");
        let k = t
            .set_group(&f, Some(4), bytes)
            .expect("assigning creates the slot");
        *t.get_mut(k) = (30.0, 10.0);
        t.adjust_group(k, 30.0, 10.0);
        t.adjust_group(k, -30.0, -10.0);
        assert_eq!(t.discard(k), (30.0, 10.0));
        assert_eq!(t.key(&f), Some(k), "the slot keeps its key");
        assert_eq!(t.group(k), Some(4), "and its group");
        assert_eq!(*t.get(k), (0.0, 0.0), "and holds a fresh state");
        // New bytes of the file count to the group again.
        *t.get_mut(k) = (7.0, 0.0);
        t.adjust_group(k, 7.0, 0.0);
        assert_eq!(t.group_cached(4), 7.0);
        t.check(bytes).unwrap();
        // A crash zeroes the totals and keeps the assignment.
        let mut lost = t.discard_all();
        lost.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(lost, [(f.clone(), (7.0, 0.0))]);
        assert_eq!((t.group_cached(4), t.key(&f)), (0.0, Some(k)));
        // Clearing the group frees the slot at the next discard.
        assert_eq!(t.set_group(&f, None, bytes), Some(k));
        t.discard(k);
        assert!(t.is_empty());
        assert_eq!(t.set_group(&f, None, bytes), None, "nothing to clear");
        assert!(t.is_empty(), "clearing creates no slot");
        t.check(bytes).unwrap();
    }

    #[test]
    fn reassignment_moves_the_group_bytes() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let f = FileId::new("f");
        let k = t.key_or_insert(&f);
        *t.get_mut(k) = (80.0, 20.0);
        t.adjust_group(k, 80.0, 20.0);
        assert_eq!(t.group_cached(1), 0.0, "an ungrouped slot counts nowhere");
        t.set_group(&f, Some(1), bytes);
        assert_eq!((t.group_cached(1), t.group_dirty(1)), (80.0, 20.0));
        t.set_group(&f, Some(2), bytes);
        assert_eq!((t.group_cached(1), t.group_dirty(1)), (0.0, 0.0));
        assert_eq!((t.group_cached(2), t.group_dirty(2)), (80.0, 20.0));
        t.check(bytes).unwrap();
        t.set_group(&f, None, bytes);
        assert_eq!(t.group_cached(2), 0.0);
        t.check(bytes).unwrap();
    }

    #[test]
    fn scopes_admit_by_key_and_group() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let (a, b) = (FileId::new("a"), FileId::new("b"));
        let ka = t.set_group(&a, Some(1), bytes).unwrap();
        let kb = t.key_or_insert(&b);
        let host = t.resolve(ReclaimScope::Host(None));
        assert!(t.admits(host, ka) && t.admits(host, kb));
        let exclude_a = t.resolve(ReclaimScope::Host(Some(&a)));
        assert_eq!(exclude_a, SlotScope::Host(Some(ka)));
        assert!(!t.admits(exclude_a, ka) && t.admits(exclude_a, kb));
        let unknown = FileId::new("unknown");
        let exclude_unknown = t.resolve(ReclaimScope::Host(Some(&unknown)));
        assert!(t.admits(exclude_unknown, ka) && t.admits(exclude_unknown, kb));
        let group = t.resolve(ReclaimScope::Group(1));
        assert!(t.admits(group, ka) && !t.admits(group, kb));
        assert!(!t.admits(SlotScope::Group(2), ka));
    }

    #[test]
    fn the_oracle_catches_a_swapped_index_entry() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let (a, b) = (FileId::new("a"), FileId::new("b"));
        let ka = t.key_or_insert(&a);
        let kb = t.key_or_insert(&b);
        t.index.insert(a.clone(), kb);
        let err = t.check(bytes).unwrap_err();
        assert!(err.contains("names another file"), "{err}");
        t.index.insert(a, ka);
        t.check(bytes).unwrap();
    }

    #[test]
    fn the_oracle_catches_a_drifting_group_total() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let k = t.set_group(&FileId::new("f"), Some(3), bytes).unwrap();
        *t.get_mut(k) = (50.0, 5.0);
        t.adjust_group(k, 50.0, 5.0);
        t.check(bytes).unwrap();
        t.adjust_group(k, 1.0, 0.0);
        let err = t.check(bytes).unwrap_err();
        assert!(err.contains("group 3: cached total"), "{err}");
        t.adjust_group(k, -1.0, 0.0);
        t.check(bytes).unwrap();
        // A total without any slot in its group.
        t.groups.insert(
            9,
            GroupBytes {
                cached: 1.0,
                dirty: 0.0,
            },
        );
        let err = t.check(bytes).unwrap_err();
        assert!(err.contains("no slot in the group"), "{err}");
    }

    #[test]
    fn the_oracle_catches_group_bytes_without_a_total() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let k = t.set_group(&FileId::new("f"), Some(5), bytes).unwrap();
        *t.get_mut(k) = (64.0, 0.0);
        t.adjust_group(k, 64.0, 0.0);
        t.check(bytes).unwrap();
        // The group's total entry goes missing while its slot holds bytes.
        t.groups.remove(&5);
        let err = t.check(bytes).unwrap_err();
        assert!(err.contains("has no total"), "{err}");
    }
}
