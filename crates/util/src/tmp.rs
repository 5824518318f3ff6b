//! Unique temporary paths for tests.
//!
//! Tests in one process run on parallel threads, so a temp path keyed on
//! the process id alone is shared by every test that builds it: one test's
//! cleanup deletes the file another is still reading. [`TempPath`] adds a
//! process-wide counter, so every call names a fresh path, and removes
//! whatever was created there when it is dropped.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Next suffix handed out by [`TempPath::new`] in this process.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A path under the system temp directory that no other [`TempPath`] of
/// any live process shares: `{prefix}_{pid}_{n}{ext}`. Nothing is created;
/// the file or directory the caller puts there is deleted on drop.
#[derive(Debug)]
pub struct TempPath(PathBuf);

impl TempPath {
    /// A fresh path named `{prefix}_{pid}_{n}{ext}`; `ext` carries its own
    /// dot (`".g2g"`), or is empty for a directory.
    pub fn new(prefix: &str, ext: &str) -> Self {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("{prefix}_{}_{n}{ext}", std::process::id());
        Self(std::env::temp_dir().join(name))
    }

    /// The path as a string, for APIs and command lines that take `&str`.
    pub fn as_str(&self) -> &str {
        self.0.to_str().unwrap_or_default()
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        if self.0.is_dir() {
            let _ = std::fs::remove_dir_all(&self.0);
        } else {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_unique_and_cleaned_up() {
        let a = TempPath::new("grepair_tmp_test", ".txt");
        let b = TempPath::new("grepair_tmp_test", ".txt");
        assert_ne!(*a, *b);
        assert!(a.as_str().ends_with(".txt"));
        std::fs::write(&a, b"x").unwrap();
        let dir = TempPath::new("grepair_tmp_test", "");
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        let (file, tree) = (a.to_path_buf(), dir.to_path_buf());
        drop(a);
        drop(dir);
        assert!(!file.exists());
        assert!(!tree.exists());
    }
}
