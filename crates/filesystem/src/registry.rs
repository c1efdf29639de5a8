//! File metadata registry shared by all handles to one filesystem.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pagecache::{FileId, FsError};

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

    /// Registers a file with the given size. Fails if it already exists.
    pub fn create(&self, file: &FileId, size: f64) -> Result<(), FsError> {
        let mut files = self.files.borrow_mut();
        if files.contains_key(file) {
            return Err(FsError::AlreadyExists(file.clone()));
        }
        files.insert(file.clone(), size.max(0.0));
        Ok(())
    }

    /// Registers a file, or replaces its size if it already exists.
    pub fn create_or_replace(&self, file: &FileId, size: f64) {
        self.files.borrow_mut().insert(file.clone(), size.max(0.0));
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
        reg.create(&"a".into(), 100.0).unwrap();
        assert_eq!(reg.size(&"a".into()).unwrap(), 100.0);
        assert!(reg.size(&"a".into()).is_ok());
        assert!(reg.size(&"b".into()).is_err());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.total_bytes(), 100.0);
    }

    #[test]
    fn duplicate_create_fails_but_replace_succeeds() {
        let reg = FileRegistry::new();
        reg.create(&"a".into(), 100.0).unwrap();
        assert!(matches!(
            reg.create(&"a".into(), 50.0),
            Err(FsError::AlreadyExists(_))
        ));
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
    fn negative_sizes_are_clamped() {
        let reg = FileRegistry::new();
        reg.create(&"a".into(), -5.0).unwrap();
        assert_eq!(reg.size(&"a".into()).unwrap(), 0.0);
    }

    #[test]
    fn handles_share_state() {
        let reg = FileRegistry::new();
        let reg2 = reg.clone();
        reg.create(&"a".into(), 10.0).unwrap();
        assert!(reg2.size(&"a".into()).is_ok());
        assert_eq!(reg2.list(), vec![("a".into(), 10.0)]);
    }
}
