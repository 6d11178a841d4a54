//! Sparse paged memory with R/W/X permissions.

use std::collections::BTreeMap;
use std::fmt;

/// Page size in bytes (mirrors x86-64).
pub const PAGE_SIZE: u64 = 4096;

/// Page protection bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Perms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Perms {
    /// `rw-` — ordinary data.
    pub const RW: Perms = Perms {
        r: true,
        w: true,
        x: false,
    };
    /// `r-x` — code.
    pub const RX: Perms = Perms {
        r: true,
        w: false,
        x: true,
    };
    /// `rwx` — JIT pages.
    pub const RWX: Perms = Perms {
        r: true,
        w: true,
        x: true,
    };
    /// `r--` — read-only data.
    pub const RO: Perms = Perms {
        r: true,
        w: false,
        x: false,
    };
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.r { 'r' } else { '-' },
            if self.w { 'w' } else { '-' },
            if self.x { 'x' } else { '-' }
        )
    }
}

/// Memory access faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemFault {
    /// No page mapped at this address.
    Unmapped {
        /// Faulting address.
        addr: u64,
    },
    /// Page mapped but the access kind is not permitted.
    Protection {
        /// Faulting address.
        addr: u64,
        /// What was attempted: 'r', 'w' or 'x'.
        access: char,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemFault::Protection { addr, access } => {
                write!(f, "permission fault ({access}) at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for MemFault {}

struct Page {
    data: Box<[u8; PAGE_SIZE as usize]>,
    perms: Perms,
}

/// Sparse paged memory.
#[derive(Default)]
pub struct Memory {
    pages: BTreeMap<u64, Page>,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Memory({} pages)", self.pages.len())
    }
}

impl Memory {
    /// An empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Maps `len` bytes (page-rounded) at `addr` (page-aligned) with
    /// the given permissions, zero-filled. Remapping an existing page
    /// replaces it.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not page-aligned or `len` is 0.
    pub fn map(&mut self, addr: u64, len: u64, perms: Perms) {
        assert_eq!(addr % PAGE_SIZE, 0, "unaligned map address {addr:#x}");
        assert!(len > 0, "zero-length map");
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            self.pages.insert(
                addr + i * PAGE_SIZE,
                Page {
                    data: Box::new([0; PAGE_SIZE as usize]),
                    perms,
                },
            );
        }
    }

    /// Unmaps the page-rounded range.
    pub fn unmap(&mut self, addr: u64, len: u64) {
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            self.pages.remove(&(addr + i * PAGE_SIZE));
        }
    }

    /// Changes the protection of the page-rounded range.
    ///
    /// # Errors
    ///
    /// Fails if any page in the range is unmapped.
    pub fn protect(&mut self, addr: u64, len: u64, perms: Perms) -> Result<(), MemFault> {
        let pages = len.div_ceil(PAGE_SIZE);
        // Validate first so a failure leaves no partial change.
        for i in 0..pages {
            let pa = (addr & !(PAGE_SIZE - 1)) + i * PAGE_SIZE;
            if !self.pages.contains_key(&pa) {
                return Err(MemFault::Unmapped { addr: pa });
            }
        }
        for i in 0..pages {
            let pa = (addr & !(PAGE_SIZE - 1)) + i * PAGE_SIZE;
            self.pages.get_mut(&pa).unwrap().perms = perms;
        }
        Ok(())
    }

    /// Permissions of the page containing `addr`, if mapped.
    pub fn perms_at(&self, addr: u64) -> Option<Perms> {
        self.pages.get(&(addr & !(PAGE_SIZE - 1))).map(|p| p.perms)
    }

    /// Whether `addr` is mapped.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.perms_at(addr).is_some()
    }

    fn page_of(&self, addr: u64) -> Result<&Page, MemFault> {
        self.pages
            .get(&(addr & !(PAGE_SIZE - 1)))
            .ok_or(MemFault::Unmapped { addr })
    }

    fn access(&self, addr: u64, len: usize, kind: char) -> Result<(), MemFault> {
        let mut a = addr;
        let end = addr + len as u64;
        while a < end {
            let page = self.page_of(a)?;
            let ok = match kind {
                'r' => page.perms.r,
                'w' => page.perms.w,
                'x' => page.perms.x,
                _ => false,
            };
            if !ok {
                return Err(MemFault::Protection {
                    addr: a,
                    access: kind,
                });
            }
            a = (a & !(PAGE_SIZE - 1)) + PAGE_SIZE;
        }
        Ok(())
    }

    /// Reads bytes with permission checking.
    ///
    /// # Errors
    ///
    /// [`MemFault`] on unmapped or non-readable pages.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.access(addr, buf.len(), 'r')?;
        self.copy_out(addr, buf);
        Ok(())
    }

    /// Fetches instruction bytes (requires X).
    ///
    /// # Errors
    ///
    /// [`MemFault`] on unmapped or non-executable pages.
    pub fn fetch(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.access(addr, buf.len(), 'x')?;
        self.copy_out(addr, buf);
        Ok(())
    }

    /// Writes bytes with permission checking.
    ///
    /// # Errors
    ///
    /// [`MemFault`] on unmapped or non-writable pages.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        self.access(addr, bytes.len(), 'w')?;
        self.copy_in(addr, bytes);
        Ok(())
    }

    /// Writes bytes ignoring permissions (kernel-privileged store, e.g.
    /// building a signal frame or loading a program image).
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] only.
    pub fn write_privileged(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let mut a = addr;
        let end = addr + bytes.len() as u64;
        while a < end {
            self.page_of(a)?;
            a = (a & !(PAGE_SIZE - 1)) + PAGE_SIZE;
        }
        self.copy_in(addr, bytes);
        Ok(())
    }

    /// Reads ignoring permissions (kernel-privileged load).
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] only.
    pub fn read_privileged(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let mut a = addr;
        let end = addr + buf.len() as u64;
        while a < end {
            self.page_of(a)?;
            a = (a & !(PAGE_SIZE - 1)) + PAGE_SIZE;
        }
        self.copy_out(addr, buf);
        Ok(())
    }

    fn copy_out(&self, addr: u64, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            let a = addr + i as u64;
            let page = &self.pages[&(a & !(PAGE_SIZE - 1))];
            *b = page.data[(a % PAGE_SIZE) as usize];
        }
    }

    fn copy_in(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr + i as u64;
            let page = self.pages.get_mut(&(a & !(PAGE_SIZE - 1))).unwrap();
            page.data[(a % PAGE_SIZE) as usize] = b;
        }
    }

    /// Convenience: read a little-endian u64.
    ///
    /// # Errors
    ///
    /// [`MemFault`] on unmapped or non-readable pages.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Convenience: write a little-endian u64.
    ///
    /// # Errors
    ///
    /// [`MemFault`] on unmapped or non-writable pages.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemFault> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_read_write_roundtrip() {
        let mut m = Memory::new();
        m.map(0x1000, 100, Perms::RW);
        // Rounds up to one page.
        assert_eq!(m.page_count(), 1);
        m.write_u64(0x1010, 0xdead_beef).unwrap();
        assert_eq!(m.read_u64(0x1010).unwrap(), 0xdead_beef);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE, Perms::RW);
        let addr = 0x2000 - 4;
        m.write_u64(addr, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.read_u64(addr).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn faults() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Perms::RO);
        assert_eq!(
            m.write(0x1000, &[1]),
            Err(MemFault::Protection {
                addr: 0x1000,
                access: 'w'
            })
        );
        let mut b = [0u8; 1];
        assert_eq!(
            m.fetch(0x1000, &mut b),
            Err(MemFault::Protection {
                addr: 0x1000,
                access: 'x'
            })
        );
        assert!(matches!(
            m.read(0x9000, &mut b),
            Err(MemFault::Unmapped { .. })
        ));
    }

    #[test]
    fn protect_changes_perms_atomically() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Perms::RX);
        // Range straddling an unmapped page fails without changes.
        assert!(m.protect(0x1000, 2 * PAGE_SIZE, Perms::RW).is_err());
        assert_eq!(m.perms_at(0x1000), Some(Perms::RX));
        m.protect(0x1000, PAGE_SIZE, Perms::RW).unwrap();
        assert_eq!(m.perms_at(0x1000), Some(Perms::RW));
        m.write(0x1000, &[1, 2]).unwrap();
    }

    #[test]
    fn privileged_access_ignores_perms() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Perms::RO);
        m.write_privileged(0x1000, &[7]).unwrap();
        let mut b = [0u8; 1];
        m.read_privileged(0x1000, &mut b).unwrap();
        assert_eq!(b[0], 7);
        assert!(m.write_privileged(0x9000, &[1]).is_err());
    }

    #[test]
    fn unmap_removes_pages() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Perms::RW);
        assert!(m.is_mapped(0x1000));
        m.unmap(0x1000, PAGE_SIZE);
        assert!(!m.is_mapped(0x1000));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn map_requires_alignment() {
        Memory::new().map(0x1001, 8, Perms::RW);
    }
}
