//! A generational slab: values in reusable slots, addressed by keys that
//! never outlive the value they were issued for.
//!
//! The engine keeps its tasks and timers in one, and every
//! `SharedResource` keeps its flows in one. All three tables are keyed by
//! ids that used to be hashed on every lookup; a slab key indexes the slot
//! directly.
//!
//! A key is `generation << 32 | index`. Removing a value bumps its slot's
//! generation, so every key issued for it becomes stale: [`Slab::get`],
//! [`Slab::contains`] and [`Slab::remove`] on a stale key find nothing, even
//! after the slot holds a new value. A slot would have to be reused 2³²
//! times while one stale key is still held for that key to alias again.
//!
//! Vacated slots are reused last-in first-out. Nothing may depend on which
//! key a value receives: the engine orders timers by `(time, seq)` and the
//! flow heap by its own sequence number, never by key.

/// One slot: the generation of its current (or next) occupant, and the
/// occupant itself.
#[derive(Debug, Clone)]
struct Entry<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab of `T` addressed by generational `u64` keys. See the module docs.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Indices of vacated slots, reused last-in first-out.
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

fn key(index: u32, generation: u32) -> u64 {
    (generation as u64) << 32 | index as u64
}

fn split(key: u64) -> (usize, u32) {
    (key as u32 as usize, (key >> 32) as u32)
}

impl<T> Slab<T> {
    /// An empty slab. Allocates nothing until the first insert.
    pub const fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of values in the slab.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value` and returns its key.
    pub fn insert(&mut self, value: T) -> u64 {
        self.insert_with(|_| value)
    }

    /// Stores the value `make` builds from its own key, and returns the key.
    /// For values that must know their key, such as a task's waker.
    pub fn insert_with(&mut self, make: impl FnOnce(u64) -> T) -> u64 {
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                let index = u32::try_from(self.entries.len())
                    .ok()
                    .filter(|&i| i != u32::MAX)
                    .expect("slab exhausted its u32 index space");
                self.entries.push(Entry {
                    generation: 0,
                    value: None,
                });
                index
            }
        };
        let entry = &mut self.entries[index as usize];
        let key = key(index, entry.generation);
        entry.value = Some(make(key));
        self.len += 1;
        key
    }

    /// The value stored under `key`, unless it was removed since.
    pub fn get(&self, key: u64) -> Option<&T> {
        let (index, generation) = split(key);
        match self.entries.get(index) {
            Some(e) if e.generation == generation => e.value.as_ref(),
            _ => None,
        }
    }

    /// Mutable access to the value stored under `key`, unless it was removed
    /// since.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let (index, generation) = split(key);
        match self.entries.get_mut(index) {
            Some(e) if e.generation == generation => e.value.as_mut(),
            _ => None,
        }
    }

    /// Whether `key` still addresses a value.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Removes and returns the value stored under `key`. A stale key removes
    /// nothing.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let (index, generation) = split(key);
        let entry = self.entries.get_mut(index)?;
        if entry.generation != generation {
            return None;
        }
        let value = entry.value.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(index as u32);
        self.len -= 1;
        Some(value)
    }

    /// The stored values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// The stored values with their keys, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.value.as_ref().map(|v| (key(i as u32, e.generation), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut slab = Slab::new();
        assert!(slab.is_empty());
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        *slab.get_mut(b).unwrap() = "B";
        assert_eq!(slab.remove(b), Some("B"));
        assert_eq!(slab.remove(b), None, "a removed key removes nothing");
        assert!(!slab.contains(b));
        assert!(slab.contains(a));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn removed_key_never_reads_the_value_that_reused_its_slot() {
        let mut slab = Slab::new();
        let old = slab.insert(1);
        assert_eq!(slab.remove(old), Some(1));
        let new = slab.insert(2);
        assert_eq!(new as u32, old as u32, "the slot was reused");
        assert_ne!(new, old, "under a new generation");
        assert_eq!(slab.get(old), None);
        assert_eq!(slab.get_mut(old), None);
        assert!(!slab.contains(old));
        assert_eq!(slab.remove(old), None, "a stale key removes nothing");
        assert_eq!(slab.get(new), Some(&2));
    }

    #[test]
    fn vacated_slots_are_reused_before_the_slab_grows() {
        let mut slab = Slab::new();
        let keys: Vec<u64> = (0..4).map(|i| slab.insert(i)).collect();
        slab.remove(keys[1]);
        slab.remove(keys[3]);
        // Last in, first out.
        assert_eq!(slab.insert(30) as u32, 3);
        assert_eq!(slab.insert(10) as u32, 1);
        assert_eq!(slab.insert(4) as u32, 4);
        assert_eq!(
            slab.values().copied().collect::<Vec<_>>(),
            [0, 10, 2, 30, 4]
        );
        for (key, &value) in slab.iter() {
            assert_eq!(slab.get(key), Some(&value), "iter yields live keys");
        }
    }

    #[test]
    fn insert_with_sees_its_own_key() {
        let mut slab = Slab::new();
        let stale = slab.insert(0);
        slab.remove(stale);
        let key = slab.insert_with(|k| k);
        assert_eq!(slab.get(key), Some(&key));
    }

    #[test]
    fn unknown_keys_find_nothing() {
        let mut slab: Slab<u8> = Slab::new();
        assert_eq!(slab.get(7), None);
        assert_eq!(slab.remove(u64::MAX), None);
    }
}
