//! Read-only memory mapping for replay.
//!
//! Replaying a journal through `BufReader` copies every byte through a
//! heap buffer; mapping the file lets [`crate::records::RecordIter`]
//! decode straight out of the page cache via `Cursor<&[u8]>` with zero
//! per-line copies. The binding is a two-call `extern "C"` declaration
//! (`mmap`/`munmap`), the same no-dependency FFI pattern
//! [`crate::status`] uses for `signal(2)`. The crate is Unix-only (its
//! socket front end is `std::os::unix::net`), so there is no fallback.

use std::fs::File;
use std::path::Path;

/// A file mapped into memory, read-only.
pub struct MappedFile {
    ptr: *mut u8,
    len: usize,
    /// Storage of an empty file, which `mmap` rejects (a zero length).
    fallback: Option<Vec<u8>>,
}

// The mapping is immutable for its whole lifetime, so sharing it across
// threads is as safe as sharing a `&[u8]`.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl MappedFile {
    /// Map `path` read-only. Empty files (which `mmap` rejects) come
    /// back as an empty in-memory buffer.
    pub fn open(path: &Path) -> Result<Self, String> {
        use std::os::fd::AsRawFd;

        let file =
            File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let len = file
            .metadata()
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
            .len();
        let len = usize::try_from(len).map_err(|_| "file too large to map".to_string())?;
        if len == 0 {
            return Ok(Self { ptr: std::ptr::null_mut(), len: 0, fallback: Some(Vec::new()) });
        }
        // SAFETY: fd is valid for the duration of the call; a PROT_READ
        // MAP_PRIVATE mapping of a regular file has no aliasing
        // obligations beyond not outliving munmap, which Drop upholds.
        let ptr = unsafe {
            sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ, sys::MAP_PRIVATE, file.as_raw_fd(), 0)
        };
        if ptr == sys::MAP_FAILED {
            return Err(format!("mmap of {} failed", path.display()));
        }
        Ok(Self { ptr: ptr.cast(), len, fallback: None })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.fallback {
            Some(v) => v,
            // SAFETY: ptr/len came from a successful mmap that lives
            // until Drop, and the mapping is never written.
            None => unsafe { std::slice::from_raw_parts(self.ptr, self.len) },
        }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        if self.fallback.is_none() && !self.ptr.is_null() {
            // SAFETY: exactly the pointer and length mmap returned.
            unsafe { sys::munmap(self.ptr.cast(), self.len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("isel-mmap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn maps_file_contents_exactly() {
        let path = tmp("basic.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        File::create(&path).unwrap().write_all(&payload).unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = tmp("empty.bin");
        File::create(&path).unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert!(map.bytes().is_empty());
    }

    #[test]
    fn missing_file_is_an_error_not_a_panic() {
        assert!(MappedFile::open(Path::new("/nonexistent/isel")).is_err());
    }
}
