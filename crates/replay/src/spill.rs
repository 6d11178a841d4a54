//! mmap-backed chunked trace spill.
//!
//! The drain thread's job is to move records out of the rings faster
//! than producers insert them; a `write(2)` per batch makes the kernel
//! copy every byte and stalls the drainer on the page cache lock. The
//! [`MmapSink`] instead `ftruncate`s the trace file ahead in
//! [`CHUNK_SIZE`] windows and maps each window `MAP_SHARED`, so
//! spilling a batch is a plain `memcpy` into the page cache and
//! writeback happens on the kernel's schedule, entirely off the drain
//! path.
//!
//! `MmapSink` implements `Write + Seek`, so the generic
//! [`TraceWriter`](crate::TraceWriter) drives it exactly like a
//! `BufWriter<File>` — including the seek-back-and-patch of the
//! header's drop count at finalize (an out-of-window seek remaps; the
//! final drop back of the sink trims the file to the high-water mark
//! and unmaps). All file operations go through raw syscalls already in
//! the tree; nothing here allocates per record.

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::os::fd::AsRawFd;
use std::path::Path;

/// Bytes per mapped window. 4 MiB is several hundred thousand
/// LPTRACE2 records per remap — remaps are rare.
pub const CHUNK_SIZE: u64 = 4 << 20;

const PROT_READ_WRITE: u64 = 3;
const MAP_SHARED: u64 = 0x01;

fn os_err(ret: u64) -> io::Error {
    io::Error::from_raw_os_error(-(ret as i64) as i32)
}

fn syscall_failed(ret: u64) -> bool {
    (ret as i64) < 0 && (ret as i64) > -4096
}

/// A `Write + Seek` sink that spills through chunked shared mappings
/// of the output file.
pub struct MmapSink {
    file: File,
    /// Current window base (null = no window mapped).
    base: *mut u8,
    /// File offset the window starts at (CHUNK_SIZE-aligned).
    window_start: u64,
    /// Logical write position.
    pos: u64,
    /// High-water mark — the file's true length, trimmed to on drop.
    max_pos: u64,
    /// Length the file has been `ftruncate`d to (window padding).
    truncated_to: u64,
}

// SAFETY: the raw mapping pointer is not thread-affine; the sink is
// used from one thread at a time (it is moved into the drain thread).
unsafe impl Send for MmapSink {}

impl MmapSink {
    /// Creates (truncates) `path` and readies the first window.
    pub fn create(path: &Path) -> io::Result<MmapSink> {
        // Read-write: a PROT_READ|PROT_WRITE shared mapping of an
        // O_WRONLY fd is EACCES.
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(MmapSink {
            file,
            base: std::ptr::null_mut(),
            window_start: 0,
            pos: 0,
            max_pos: 0,
            truncated_to: 0,
        })
    }

    /// Remaps the window so it covers file offset `offset`.
    fn map_window(&mut self, offset: u64) -> io::Result<()> {
        self.unmap();
        let start = offset & !(CHUNK_SIZE - 1);
        let end = start + CHUNK_SIZE;
        if self.truncated_to < end {
            // SAFETY: plain ftruncate on our own open fd.
            let ret = unsafe {
                syscalls::raw::syscall2(
                    syscalls::nr::FTRUNCATE,
                    self.file.as_raw_fd() as u64,
                    end,
                )
            };
            if syscall_failed(ret) {
                return Err(os_err(ret));
            }
            self.truncated_to = end;
        }
        // SAFETY: shared file mapping at a kernel-chosen address; the
        // fd is ours and the range was just truncated into existence.
        let ret = unsafe {
            syscalls::raw::syscall6(
                syscalls::nr::MMAP,
                0,
                CHUNK_SIZE,
                PROT_READ_WRITE,
                MAP_SHARED,
                self.file.as_raw_fd() as u64,
                start,
            )
        };
        if syscall_failed(ret) {
            return Err(os_err(ret));
        }
        self.base = ret as *mut u8;
        self.window_start = start;
        Ok(())
    }

    fn unmap(&mut self) {
        if !self.base.is_null() {
            // SAFETY: unmapping exactly what map_window mapped.
            unsafe {
                syscalls::raw::syscall2(syscalls::nr::MUNMAP, self.base as u64, CHUNK_SIZE);
            }
            self.base = std::ptr::null_mut();
        }
    }
}

impl Write for MmapSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut written = 0;
        while written < buf.len() {
            let pos = self.pos;
            let in_window = !self.base.is_null()
                && pos >= self.window_start
                && pos < self.window_start + CHUNK_SIZE;
            if !in_window {
                self.map_window(pos)?;
            }
            let off = (pos - self.window_start) as usize;
            let room = CHUNK_SIZE as usize - off;
            let n = room.min(buf.len() - written);
            // SAFETY: [base+off, base+off+n) is inside the mapped
            // window; source and destination cannot overlap.
            unsafe {
                std::ptr::copy_nonoverlapping(buf.as_ptr().add(written), self.base.add(off), n);
            }
            written += n;
            self.pos += n as u64;
            self.max_pos = self.max_pos.max(self.pos);
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        // MAP_SHARED: stores are already in the page cache; writeback
        // is the kernel's. Durability (msync) is not part of the
        // flight-recorder contract.
        Ok(())
    }
}

impl Seek for MmapSink {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let new = match pos {
            SeekFrom::Start(o) => Some(o),
            SeekFrom::End(d) => self.max_pos.checked_add_signed(d),
            SeekFrom::Current(d) => self.pos.checked_add_signed(d),
        };
        match new {
            Some(p) => {
                self.pos = p;
                Ok(p)
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "seek before byte 0",
            )),
        }
    }
}

impl Drop for MmapSink {
    /// Unmaps and trims the window padding so the file's length equals
    /// exactly the bytes written.
    fn drop(&mut self) {
        self.unmap();
        if self.truncated_to != self.max_pos {
            // SAFETY: final trim of our own fd; best-effort.
            unsafe {
                syscalls::raw::syscall2(
                    syscalls::nr::FTRUNCATE,
                    self.file.as_raw_fd() as u64,
                    self.max_pos,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lp_spill_{tag}_{}.bin", std::process::id()))
    }

    #[test]
    fn write_seek_patch_roundtrip() {
        let path = temp("patch");
        {
            let mut sink = MmapSink::create(&path).unwrap();
            sink.write_all(b"headerXXpayload").unwrap();
            sink.seek(SeekFrom::Start(6)).unwrap();
            sink.write_all(b"OK").unwrap();
            sink.seek(SeekFrom::End(0)).unwrap();
            sink.write_all(b"!").unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, b"headerOKpayload!", "patched in place, then appended");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_is_trimmed_to_exact_length() {
        let path = temp("trim");
        {
            let mut sink = MmapSink::create(&path).unwrap();
            sink.write_all(&[0xa5; 1000]).unwrap();
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            1000,
            "chunk padding trimmed on drop"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writes_spanning_many_chunks() {
        let path = temp("chunks");
        let pattern: Vec<u8> = (0..=255u8).cycle().take(3 * CHUNK_SIZE as usize + 12345).collect();
        {
            let mut sink = MmapSink::create(&path).unwrap();
            // Uneven write sizes force mid-buffer window crossings.
            for chunk in pattern.chunks(70_001) {
                sink.write_all(chunk).unwrap();
            }
            // Patch far behind the current window, then keep going.
            sink.seek(SeekFrom::Start(3)).unwrap();
            sink.write_all(b"zz").unwrap();
            sink.seek(SeekFrom::End(0)).unwrap();
            sink.write_all(b"end").unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), pattern.len() + 3);
        assert_eq!(&bytes[3..5], b"zz");
        assert_eq!(&bytes[bytes.len() - 3..], b"end");
        assert_eq!(&bytes[5..100], &pattern[5..100]);
        assert_eq!(
            &bytes[100..pattern.len()],
            &pattern[100..],
            "chunk-spanning content intact"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
