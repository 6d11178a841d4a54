//! Benchmark document roots: files of the sizes Figure 5 sweeps.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The file sizes (bytes) served in the paper's Figure 5 sweep.
pub const PAPER_FILE_SIZES: &[usize] = &[
    64,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
];

/// Canonical resource path for a file of `size` bytes.
pub fn path_for_size(size: usize) -> String {
    format!("/file_{size}")
}

/// A temporary directory populated with benchmark files.
///
/// Files are named `file_<size>` and filled with a deterministic byte
/// pattern so response integrity can be checked cheaply.
#[derive(Debug)]
pub struct Docroot {
    dir: PathBuf,
}

impl Docroot {
    /// Creates the docroot under the system temp dir, writing one file
    /// per entry in `sizes`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(sizes: &[usize]) -> io::Result<Docroot> {
        // One directory per docroot, not per process: each `Drop`
        // removes its own, never one a sibling is still serving from.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("lp-httpd-root-{}-{unique}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        for &size in sizes {
            std::fs::write(dir.join(format!("file_{size}")), pattern(size))?;
        }
        Ok(Docroot { dir })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Resolves a request path (`/file_4096`) to a filesystem path,
    /// refusing traversal.
    pub fn resolve(&self, request_path: &str) -> Option<PathBuf> {
        let name = request_path.strip_prefix('/')?;
        if name.is_empty() || name.contains('/') || name.contains("..") {
            return None;
        }
        let p = self.dir.join(name);
        p.is_file().then_some(p)
    }
}

impl Drop for Docroot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Deterministic content for a file of `size` bytes.
pub fn pattern(size: usize) -> Vec<u8> {
    (0..size).map(|i| (i % 251) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_all_sizes() {
        let root = Docroot::create(PAPER_FILE_SIZES).unwrap();
        for &s in PAPER_FILE_SIZES {
            let p = root.resolve(&path_for_size(s)).unwrap();
            assert_eq!(std::fs::metadata(&p).unwrap().len() as usize, s);
        }
    }

    #[test]
    fn rejects_traversal_and_missing() {
        let root = Docroot::create(&[64]).unwrap();
        assert!(root.resolve("/../etc/passwd").is_none());
        assert!(root.resolve("/a/b").is_none());
        assert!(root.resolve("/nope").is_none());
        assert!(root.resolve("nope").is_none());
        assert!(root.resolve("/").is_none());
    }

    #[test]
    fn pattern_is_deterministic() {
        assert_eq!(pattern(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(pattern(0).len(), 0);
        assert_eq!(pattern(300)[251], 0);
    }

    #[test]
    fn drop_cleans_up() {
        let path;
        {
            let root = Docroot::create(&[64]).unwrap();
            path = root.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
