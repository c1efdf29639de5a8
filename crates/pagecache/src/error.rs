//! The filesystem error type shared by every simulated filesystem.

use std::fmt;

use storage_model::DiskFullError;

use crate::FileId;

/// Errors returned by the simulated filesystems: the page cache model's
/// [`IoController`](crate::IoController) and Memory Manager, the workflow
/// layer's cacheless filesystem, and the kernel emulator (`kernel-emu`).
#[derive(Debug, Clone, PartialEq)]
pub enum FsError {
    /// The file is not registered in the filesystem.
    FileNotFound(FileId),
    /// The backing disk has no room for the file.
    DiskFull(DiskFullError),
    /// A file with this name already exists.
    AlreadyExists(FileId),
    /// A write range, or a created file's size, that is negative or not
    /// finite (an unbounded write would never terminate).
    InvalidRange {
        /// The offset the caller passed.
        offset: f64,
        /// The length the caller passed.
        len: f64,
    },
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::FileNotFound(file) => write!(f, "file '{file}' not found"),
            FsError::DiskFull(e) => write!(f, "{e}"),
            FsError::AlreadyExists(file) => write!(f, "file '{file}' already exists"),
            FsError::InvalidRange { offset, len } => {
                write!(f, "invalid write range: offset {offset}, len {len}")
            }
        }
    }
}

impl std::error::Error for FsError {}

impl From<DiskFullError> for FsError {
    fn from(e: DiskFullError) -> Self {
        FsError::DiskFull(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = FsError::FileNotFound("missing".into());
        assert!(e.to_string().contains("missing"));
        let e = FsError::AlreadyExists("dup".into());
        assert!(e.to_string().contains("already exists"));
        let e: FsError = DiskFullError {
            disk: "d0".into(),
            requested: 10.0,
            available: 5.0,
        }
        .into();
        assert!(e.to_string().contains("full"));
    }
}
