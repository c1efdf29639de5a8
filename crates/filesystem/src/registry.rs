//! File metadata registry shared by all handles to one filesystem.

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;

use pagecache::{FileId, FsError};
use storage_model::DiskFullError;

/// Size bookkeeping for the files of one filesystem.
#[derive(Clone, Default)]
pub struct FileRegistry {
    files: Rc<RefCell<BTreeMap<FileId, f64>>>,
}

impl FileRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a file with the given size once `allocate` has reserved
    /// its space. Fails with [`FsError::AlreadyExists`] before calling
    /// `allocate` if the file exists, so a duplicate takes no space. The
    /// size must have passed [`pagecache::check_write_range`].
    pub fn create(
        &self,
        file: &FileId,
        size: f64,
        allocate: impl FnOnce(f64) -> Result<(), DiskFullError>,
    ) -> Result<(), FsError> {
        debug_assert!(size >= 0.0, "unchecked file size {size}");
        let mut files = self.files.borrow_mut();
        let Entry::Vacant(slot) = files.entry(file.clone()) else {
            return Err(FsError::AlreadyExists(file.clone()));
        };
        allocate(size)?;
        slot.insert(size);
        Ok(())
    }

    /// Registers a file, or replaces its size if it already exists. The
    /// size must have passed [`pagecache::check_write_range`].
    pub fn create_or_replace(&self, file: &FileId, size: f64) {
        debug_assert!(size >= 0.0, "unchecked file size {size}");
        self.files.borrow_mut().insert(file.clone(), size);
    }

    /// Size of a file.
    pub fn size(&self, file: &FileId) -> Result<f64, FsError> {
        self.files
            .borrow()
            .get(file)
            .copied()
            .ok_or_else(|| FsError::FileNotFound(file.clone()))
    }

    /// Names and sizes of all registered files.
    pub fn list(&self) -> Vec<(FileId, f64)> {
        self.files
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Total bytes registered.
    pub fn total_bytes(&self) -> f64 {
        self.files.borrow().values().sum()
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.borrow().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.files.borrow().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let reg = FileRegistry::new();
        assert!(reg.is_empty());
        reg.create(&"a".into(), 100.0, no_disk).unwrap();
        assert_eq!(reg.size(&"a".into()).unwrap(), 100.0);
        assert!(reg.size(&"a".into()).is_ok());
        assert!(reg.size(&"b".into()).is_err());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.total_bytes(), 100.0);
    }

    /// An `allocate` for files that take no disk space.
    fn no_disk(_: f64) -> Result<(), DiskFullError> {
        Ok(())
    }

    #[test]
    fn duplicate_create_fails_before_allocating_but_replace_succeeds() {
        let reg = FileRegistry::new();
        reg.create(&"a".into(), 100.0, no_disk).unwrap();
        let r = reg.create(&"a".into(), 50.0, |_| panic!("allocated for a duplicate"));
        assert!(matches!(r, Err(FsError::AlreadyExists(_))));
        reg.create_or_replace(&"a".into(), 50.0);
        assert_eq!(reg.size(&"a".into()).unwrap(), 50.0);
    }

    #[test]
    fn missing_file_errors() {
        let reg = FileRegistry::new();
        assert!(matches!(
            reg.size(&"missing".into()),
            Err(FsError::FileNotFound(_))
        ));
    }

    #[test]
    fn a_failed_allocation_registers_nothing() {
        let reg = FileRegistry::new();
        let full = |bytes| {
            Err(DiskFullError {
                disk: "d".into(),
                requested: bytes,
                available: 0.0,
            })
        };
        assert!(matches!(
            reg.create(&"a".into(), 10.0, full),
            Err(FsError::DiskFull(_))
        ));
        assert!(reg.is_empty());
    }

    #[test]
    fn handles_share_state() {
        let reg = FileRegistry::new();
        let reg2 = reg.clone();
        reg.create(&"a".into(), 10.0, no_disk).unwrap();
        assert!(reg2.size(&"a".into()).is_ok());
        assert_eq!(reg2.list(), vec![("a".into(), 10.0)]);
    }
}
