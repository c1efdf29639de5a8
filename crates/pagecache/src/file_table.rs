//! The per-file table of one host: its file namespace, and the per-file
//! state its cache model keeps.
//!
//! The macroscopic model ([`LruLists`](crate::LruLists)) keeps each file's
//! byte totals and block chains in a [`FileTable`]; the page-granularity
//! kernel emulator keeps each file's pages, range ledgers and readahead
//! stream in one; the cacheless filesystem keeps a `FileTable<()>`, and a
//! storage fleet each file's latest written version. The table owns
//! everything that is the same for all of them:
//!
//! * the **name index**, `FileId -> key`. An op (a read, a write, an
//!   `fsync`) resolves its file once, at its entry: [`FileTable::size`]
//!   returns the key with the size, and [`FileTable::create`] and
//!   [`FileTable::extend`] return it too. Every step below the entry takes
//!   the key, on both cache models, and never hashes the name again. A key
//!   stays valid across an op's `.await`s because slots are never freed.
//!   [`FileTable::name_lookups`] counts the lookups, so tests can pin one
//!   per op;
//! * the **slots**, a `Vec` indexed by key. A slot lives as long as its
//!   file: it is never freed and its key never changes. An invalidation or
//!   a crash resets the model's cache state in the slot, not the slot;
//! * each file's **size** (`inode->i_size`), kept in its slot next to the
//!   name, with the two rules that change it: [`FileTable::create`] (a
//!   duplicate is rejected before any space is allocated, and a failed
//!   allocation creates nothing) and [`FileTable::extend`] (a write extends
//!   a file, never shrinks it). A slot made by cache traffic alone, such as
//!   a client cache's copy of a remote file, has no size: its host never
//!   created the file;
//! * each file's **cache group** (a memcg-style tenant), kept in its slot;
//! * each group's **byte totals** (`cached`, `dirty`), which the models
//!   keep with [`FileTable::adjust_group`] at every site where a grouped
//!   file's bytes change, so a tenant's usage is O(1) to poll;
//! * the scope check of a reclaim walk, [`FileTable::admits`]: a
//!   [`ReclaimScope`] names its excluded file by key, so the check looks no
//!   name up.
//!
//! A file's name, size and group are file state; only the model's state
//! `T` and the group totals are cache state.
//!
//! Keys never decide an order: both models break ties by file name, which
//! is unique in the index.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use storage_model::DiskFullError;

use crate::block::FileId;
use crate::controller::check_write_range;
use crate::error::FsError;
use crate::lru::EPSILON;

/// Which cached data a reclaim call may take: eviction and flushing in
/// [`LruLists`](crate::LruLists) and eviction and writeback in the kernel
/// emulator. Both cache models share this type, so tenant-scoped reclaim
/// runs through the same loops as host-wide reclaim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimScope {
    /// Any file of the host, except the one with the given key (paper
    /// Algorithm 2 excludes the file being read; `None` excludes nothing).
    Host(Option<u64>),
    /// Only the files assigned to this cache group (a memcg-style tenant),
    /// so one tenant's overflow never reclaims a neighbour's pages.
    Group(u32),
}

/// Byte totals of one cache group: the memcg analogue of the per-cgroup
/// page counters the kernel keeps next to its global LRU accounting.
#[derive(Debug, Default, Clone, Copy)]
struct GroupBytes {
    cached: f64,
    dirty: f64,
}

/// One slot: the file's name, size and cache group, and the model's state.
#[derive(Debug, Clone)]
struct Slot<T> {
    file: FileId,
    /// The file's size in bytes; `None` until the host creates the file.
    size: Option<f64>,
    group: Option<u32>,
    state: T,
}

/// The file namespace of one host and its cache model's per-file state,
/// with the cache group assignment and the group byte totals. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct FileTable<T> {
    index: HashMap<FileId, u64>,
    slots: Vec<Slot<T>>,
    groups: HashMap<u32, GroupBytes>,
    /// Name-index lookups made so far ([`FileTable::name_lookups`]).
    lookups: Cell<u64>,
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
            slots: Vec::new(),
            groups: HashMap::new(),
            lookups: Cell::new(0),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no slot.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Name-index lookups made so far: one per call of [`FileTable::key`],
    /// [`FileTable::key_or_insert`], [`FileTable::create`],
    /// [`FileTable::extend`], [`FileTable::size`] and
    /// [`FileTable::set_group`]. A work count for tests; it takes no part in
    /// any prediction.
    pub fn name_lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// The key of `file`, if it has a slot.
    pub fn key(&self, file: &FileId) -> Option<u64> {
        self.lookups.set(self.lookups.get() + 1);
        self.index.get(file).copied()
    }

    /// The key of `file`, with a fresh slot (no size, no group) created if
    /// it has none.
    pub fn key_or_insert(&mut self, file: &FileId) -> u64 {
        match self.key(file) {
            Some(key) => key,
            None => self.insert(file),
        }
    }

    /// Makes a fresh slot (no size, no group) for `file`, which has none,
    /// and returns its key.
    fn insert(&mut self, file: &FileId) -> u64 {
        let key = self.slots.len() as u64;
        self.slots.push(Slot {
            file: file.clone(),
            size: None,
            group: None,
            state: T::default(),
        });
        self.index.insert(file.clone(), key);
        key
    }

    fn slot(&self, key: u64) -> &Slot<T> {
        &self.slots[key as usize]
    }

    fn slot_mut(&mut self, key: u64) -> &mut Slot<T> {
        &mut self.slots[key as usize]
    }

    /// The model's state of slot `key`.
    pub fn get(&self, key: u64) -> &T {
        &self.slot(key).state
    }

    /// Mutable access to the model's state of slot `key`.
    pub fn get_mut(&mut self, key: u64) -> &mut T {
        &mut self.slot_mut(key).state
    }

    /// The file of slot `key` and mutable access to its state, for a step
    /// that hands both to a policy hook.
    pub fn named_mut(&mut self, key: u64) -> (&FileId, &mut T) {
        let slot = self.slot_mut(key);
        (&slot.file, &mut slot.state)
    }

    /// The file of slot `key`.
    pub fn name(&self, key: u64) -> &FileId {
        &self.slot(key).file
    }

    /// The cache group of slot `key`, if any.
    pub fn group(&self, key: u64) -> Option<u32> {
        self.slot(key).group
    }

    /// Every slot as `(key, file, state)`, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &FileId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(k, s)| (k as u64, &s.file, &s.state))
    }

    /// Creates `file` with `size` bytes once `allocate` has reserved its
    /// space, and returns its key. Rejects the sizes [`check_write_range`]
    /// rejects as lengths, and fails with [`FsError::AlreadyExists`] before
    /// calling `allocate` if the file exists, so a duplicate takes no
    /// space. A failed allocation creates nothing.
    pub fn create(
        &mut self,
        file: &FileId,
        size: f64,
        allocate: impl FnOnce(f64) -> Result<(), DiskFullError>,
    ) -> Result<u64, FsError> {
        check_write_range(0.0, size)?;
        // One name lookup: a host creates its files in bulk at set-up.
        self.lookups.set(self.lookups.get() + 1);
        let key = match self.index.entry(file.clone()) {
            Entry::Occupied(e) if self.slots[*e.get() as usize].size.is_some() => {
                return Err(FsError::AlreadyExists(file.clone()));
            }
            Entry::Occupied(e) => {
                allocate(size)?;
                *e.get()
            }
            Entry::Vacant(e) => {
                allocate(size)?;
                let key = *e.insert(self.slots.len() as u64);
                self.slots.push(Slot {
                    file: file.clone(),
                    size: None,
                    group: None,
                    state: T::default(),
                });
                key
            }
        };
        self.slot_mut(key).size = Some(size);
        Ok(key)
    }

    /// Grows `file` so it covers a write of `len` bytes at `offset`, with
    /// `allocate` reserving the bytes it grows by, and returns its key: the
    /// one name lookup of a write. Creates the file when it does not exist;
    /// never shrinks it. Rejects the ranges [`check_write_range`] rejects.
    /// A failed allocation changes nothing.
    pub fn extend(
        &mut self,
        file: &FileId,
        offset: f64,
        len: f64,
        allocate: impl FnOnce(f64) -> Result<(), DiskFullError>,
    ) -> Result<u64, FsError> {
        check_write_range(offset, len)?;
        let end = offset + len;
        let key = self.key(file);
        let old = key.and_then(|k| self.slot(k).size);
        if let (Some(key), Some(old)) = (key, old) {
            if end <= old {
                return Ok(key);
            }
        }
        allocate(end - old.unwrap_or(0.0))?;
        let key = key.unwrap_or_else(|| self.insert(file));
        self.slot_mut(key).size = Some(end);
        Ok(key)
    }

    /// The key and the size of `file`, or [`FsError::FileNotFound`] if the
    /// host never created it: the one name lookup of a read or an `fsync`.
    pub fn size(&self, file: &FileId) -> Result<(u64, f64), FsError> {
        self.key(file)
            .and_then(|k| Some((k, self.slot(k).size?)))
            .ok_or_else(|| FsError::FileNotFound(file.clone()))
    }

    /// Every created file and its size, in key order.
    pub fn list(&self) -> Vec<(FileId, f64)> {
        self.slots
            .iter()
            .filter_map(|s| Some((s.file.clone(), s.size?)))
            .collect()
    }

    /// A crash: zeroes every group total and hands each slot's state to
    /// `reset`, in key order, to clear its cache content. Names, sizes and
    /// group assignments stay.
    pub fn reset_all(&mut self, mut reset: impl FnMut(&FileId, &mut T)) {
        self.groups.clear();
        for slot in &mut self.slots {
            reset(&slot.file, &mut slot.state);
        }
    }

    /// Assigns `file` to cache group `group`, or clears its assignment with
    /// `None`. `bytes` gives the slot's `(cached, dirty)` bytes, which move
    /// from the old group's totals to the new one's, so assignment order
    /// relative to I/O does not matter. Assigning a group creates the slot
    /// if needed. Returns the slot's key, or `None` when clearing the group
    /// of a file without a slot.
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
        let slot = &mut self.slots[key as usize];
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
        let slot = &mut self.slots[key as usize];
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

    /// Whether a reclaim call restricted to `scope` may take data of slot
    /// `key`.
    pub fn admits(&self, scope: ReclaimScope, key: u64) -> bool {
        match scope {
            ReclaimScope::Host(excluded) => excluded != Some(key),
            ReclaimScope::Group(g) => self.group(key) == Some(g),
        }
    }

    /// Scan-based oracle of the table: the name index and the slots are
    /// inverse maps, every size is finite and not negative, and every
    /// group's totals equal the sum of `bytes` (each slot's `(cached,
    /// dirty)`) over the slots assigned to it, in both directions: a group
    /// with bytes needs a total, and a total needs the bytes.
    pub fn check(&self, bytes: impl Fn(&T) -> (f64, f64)) -> Result<(), String> {
        fn close(a: f64, b: f64) -> bool {
            (a - b).abs() <= EPSILON + 1e-9 * b.abs()
        }
        for (file, &key) in &self.index {
            if self.slots.get(key as usize).map(|s| &s.file) != Some(file) {
                return Err(format!(
                    "name index maps {file} to a slot that names another file"
                ));
            }
        }
        if self.slots.len() != self.index.len() {
            return Err(format!(
                "file table has {} slots but the name index {} names",
                self.slots.len(),
                self.index.len()
            ));
        }
        let mut scan: HashMap<u32, GroupBytes> = HashMap::new();
        for slot in &self.slots {
            if let Some(size) = slot.size {
                if !size.is_finite() || size < 0.0 {
                    return Err(format!("file {}: size {size}", slot.file));
                }
            }
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

    /// An `allocate` for files that take no disk space.
    fn no_disk(_: f64) -> Result<(), DiskFullError> {
        Ok(())
    }

    /// An `allocate` on a disk with no space left.
    fn full(bytes: f64) -> Result<(), DiskFullError> {
        Err(DiskFullError {
            disk: "d".into(),
            requested: bytes,
            available: 0.0,
        })
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
    fn create_and_lookup() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let (a, b) = (FileId::new("a"), FileId::new("b"));
        let k = t.create(&a, 100.0, no_disk).unwrap();
        assert_eq!(t.key(&a), Some(k));
        assert_eq!(t.size(&a), Ok((k, 100.0)));
        assert_eq!(t.size(&b), Err(FsError::FileNotFound(b.clone())));
        // Cache traffic alone makes a slot, not a file.
        t.key_or_insert(&b);
        assert_eq!(t.size(&b), Err(FsError::FileNotFound(b.clone())));
        assert_eq!(t.create(&b, 7.0, no_disk), Ok(1), "created in its slot");
        assert_eq!(t.list(), [(a, 100.0), (b, 7.0)]);
        for size in [-1.0, f64::NAN, f64::INFINITY] {
            let c = FileId::new("c");
            assert!(matches!(
                t.create(&c, size, |_| panic!("allocated for an invalid size")),
                Err(FsError::InvalidRange { .. })
            ));
        }
        assert_eq!(t.len(), 2, "a rejected size creates nothing");
        t.check(bytes).unwrap();
    }

    #[test]
    fn duplicate_create_fails_before_allocating() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let a = FileId::new("a");
        t.create(&a, 100.0, no_disk).unwrap();
        let r = t.create(&a, 50.0, |_| panic!("allocated for a duplicate"));
        assert_eq!(r, Err(FsError::AlreadyExists(a.clone())));
        assert_eq!(t.size(&a), Ok((0, 100.0)));
    }

    #[test]
    fn a_failed_allocation_registers_nothing() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let a = FileId::new("a");
        assert!(matches!(
            t.create(&a, 10.0, full),
            Err(FsError::DiskFull(_))
        ));
        assert!(matches!(
            t.extend(&a, 0.0, 10.0, full),
            Err(FsError::DiskFull(_))
        ));
        assert!(t.is_empty());
        let k = t.create(&a, 10.0, no_disk).unwrap();
        assert!(matches!(
            t.extend(&a, 5.0, 10.0, full),
            Err(FsError::DiskFull(_))
        ));
        assert_eq!(
            t.size(&a),
            Ok((k, 10.0)),
            "a failed extension keeps the size"
        );
    }

    #[test]
    fn extend_creates_and_grows_but_never_shrinks() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let a = FileId::new("a");
        let mut allocated = Vec::new();
        let mut extend = |t: &mut FileTable<Bytes>, offset, len| {
            t.extend(&a, offset, len, |b| {
                allocated.push(b);
                Ok(())
            })
        };
        let k = extend(&mut t, 10.0, 20.0).unwrap();
        assert_eq!(t.size(&a), Ok((k, 30.0)), "a write creates the file");
        assert_eq!(extend(&mut t, 0.0, 5.0), Ok(k));
        assert_eq!(t.size(&a), Ok((k, 30.0)), "and never shrinks it");
        extend(&mut t, 25.0, 15.0).unwrap();
        assert_eq!(t.size(&a), Ok((k, 40.0)));
        assert!(matches!(
            extend(&mut t, -1.0, 5.0),
            Err(FsError::InvalidRange { .. })
        ));
        assert_eq!(allocated, [30.0, 10.0], "only the growth is allocated");
        t.check(bytes).unwrap();
    }

    #[test]
    fn a_crash_resets_the_cache_state_and_keeps_the_file() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let (f, g) = (FileId::new("f"), FileId::new("g"));
        let kf = t.create(&f, 300.0, no_disk).unwrap();
        let kg = t.set_group(&g, Some(4), bytes).unwrap();
        *t.get_mut(kf) = (30.0, 10.0);
        *t.adjust_group(kg, 7.0, 0.0) = (7.0, 0.0);
        assert_eq!(t.group_cached(4), 7.0);
        t.check(bytes).unwrap();
        let mut lost = Vec::new();
        t.reset_all(|file, state| lost.push((file.clone(), std::mem::take(state))));
        assert_eq!(lost, [(f.clone(), (30.0, 10.0)), (g.clone(), (7.0, 0.0))]);
        // Same keys, same size and group, fresh cache state.
        assert_eq!((t.key(&f), t.key(&g)), (Some(kf), Some(kg)));
        assert_eq!(t.size(&f), Ok((kf, 300.0)));
        assert_eq!(t.group(kg), Some(4));
        assert_eq!((*t.get(kf), *t.get(kg)), ((0.0, 0.0), (0.0, 0.0)));
        assert_eq!(t.group_cached(4), 0.0, "the group totals are cache state");
        // New bytes of the file count to its group again.
        *t.adjust_group(kg, 5.0, 0.0) = (5.0, 0.0);
        assert_eq!(t.group_cached(4), 5.0);
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
        let g = FileId::new("g");
        assert_eq!(t.set_group(&g, None, bytes), None, "nothing to clear");
        assert_eq!(t.key(&g), None, "clearing creates no slot");
    }

    #[test]
    fn scopes_admit_by_key_and_group() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let (a, b) = (FileId::new("a"), FileId::new("b"));
        let ka = t.set_group(&a, Some(1), bytes).unwrap();
        let kb = t.key_or_insert(&b);
        let host = ReclaimScope::Host(None);
        assert!(t.admits(host, ka) && t.admits(host, kb));
        let exclude_a = ReclaimScope::Host(Some(ka));
        assert!(!t.admits(exclude_a, ka) && t.admits(exclude_a, kb));
        let group = ReclaimScope::Group(1);
        assert!(t.admits(group, ka) && !t.admits(group, kb));
        assert!(!t.admits(ReclaimScope::Group(2), ka));
    }

    /// Runs `op` on `t` and asserts it made exactly one name lookup.
    fn one_lookup<R>(
        t: &mut FileTable<Bytes>,
        what: &str,
        op: impl FnOnce(&mut FileTable<Bytes>) -> R,
    ) -> R {
        let before = t.name_lookups();
        let r = op(t);
        assert_eq!(t.name_lookups(), before + 1, "{what}");
        r
    }

    #[test]
    fn each_resolving_call_is_one_name_lookup() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let (a, b) = (FileId::new("a"), FileId::new("b"));
        let ka = one_lookup(&mut t, "create", |t| t.create(&a, 10.0, no_disk)).unwrap();
        let size = one_lookup(&mut t, "size", |t| t.size(&a));
        assert_eq!(size, Ok((ka, 10.0)));
        let grown = one_lookup(&mut t, "extend", |t| t.extend(&a, 5.0, 10.0, no_disk));
        assert_eq!(grown, Ok(ka));
        let kb = one_lookup(&mut t, "extend that creates", |t| {
            t.extend(&b, 0.0, 10.0, no_disk)
        })
        .unwrap();
        assert_eq!(one_lookup(&mut t, "key", |t| t.key(&b)), Some(kb));
        one_lookup(&mut t, "key_or_insert", |t| t.key_or_insert(&"c".into()));
        let missing = one_lookup(&mut t, "a missing file's size", |t| t.size(&"d".into()));
        assert!(missing.is_err());
        // Steps by key look nothing up.
        let before = t.name_lookups();
        t.get_mut(ka).0 = 1.0;
        t.adjust_group(kb, 0.0, 0.0);
        assert!(t.admits(ReclaimScope::Host(Some(kb)), ka));
        assert_eq!(t.name(ka), &a);
        assert_eq!(t.name_lookups(), before);
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
    fn the_oracle_catches_a_negative_or_non_finite_size() {
        let mut t: FileTable<Bytes> = FileTable::new();
        let k = t.create(&FileId::new("a"), 10.0, no_disk).unwrap();
        t.check(bytes).unwrap();
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            t.slot_mut(k).size = Some(bad);
            let err = t.check(bytes).unwrap_err();
            assert!(err.contains("file a: size"), "{err}");
        }
        t.slot_mut(k).size = Some(0.0);
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
