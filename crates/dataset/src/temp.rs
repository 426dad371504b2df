//! Unique scratch paths under the system temp directory.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A path under [`std::env::temp_dir`] that no other live `TempPath`
/// shares, removed (file or directory tree) when dropped.
///
/// The name joins the process id, a process-wide counter and the
/// caller's label, so threads of one process (parallel tests, say) never
/// write the same file. Nothing is created: the caller writes whatever
/// it needs at the path, which the type derefs to.
#[derive(Debug)]
pub struct TempPath {
    path: PathBuf,
}

impl TempPath {
    /// A fresh path whose file name ends in `label`.
    pub fn new(label: &str) -> TempPath {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("tpu_{}_{n}_{label}", std::process::id());
        TempPath {
            path: std::env::temp_dir().join(name),
        }
    }
}

impl Deref for TempPath {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        // Best effort: a path never written is simply absent.
        let _ = if self.path.is_dir() {
            std::fs::remove_dir_all(&self.path)
        } else {
            std::fs::remove_file(&self.path)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_unique_and_removed_on_drop() {
        let a = TempPath::new("same");
        let b = TempPath::new("same");
        assert_ne!(*a, *b);
        std::fs::write(&a, b"x").unwrap();
        std::fs::create_dir_all(b.join("sub")).unwrap();
        let (pa, pb) = (a.to_path_buf(), b.to_path_buf());
        assert!(pa.exists() && pb.exists());
        drop(a);
        drop(b);
        assert!(!pa.exists() && !pb.exists());
    }
}
