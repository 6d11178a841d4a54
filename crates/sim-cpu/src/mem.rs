//! Sparse paged memory. An access to an unmapped address faults,
//! which is what stops a guest that runs away; there are no page
//! permissions.

use std::collections::BTreeMap;
use std::fmt;

/// Page size in bytes (mirrors x86-64).
pub const PAGE_SIZE: u64 = 4096;

/// An access touched an unmapped address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemFault {
    /// The first unmapped address of the access.
    pub addr: u64,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unmapped address {:#x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// Sparse paged memory.
#[derive(Default)]
pub struct Memory {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Memory({} pages)", self.pages.len())
    }
}

fn page_base(addr: u64) -> u64 {
    addr & !(PAGE_SIZE - 1)
}

impl Memory {
    /// An empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Maps `len` bytes (page-rounded) at `addr` (page-aligned),
    /// zero-filled. Remapping an existing page replaces it.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not page-aligned or `len` is 0.
    pub fn map(&mut self, addr: u64, len: u64) {
        assert_eq!(addr % PAGE_SIZE, 0, "unaligned map address {addr:#x}");
        assert!(len > 0, "zero-length map");
        for i in 0..len.div_ceil(PAGE_SIZE) {
            self.pages
                .insert(addr + i * PAGE_SIZE, Box::new([0; PAGE_SIZE as usize]));
        }
    }

    /// Fails on the first page of `[addr, addr + len)` that is not
    /// mapped.
    fn check(&self, addr: u64, len: usize) -> Result<(), MemFault> {
        let mut a = addr;
        while a < addr + len as u64 {
            if !self.pages.contains_key(&page_base(a)) {
                return Err(MemFault { addr: a });
            }
            a = page_base(a) + PAGE_SIZE;
        }
        Ok(())
    }

    /// Reads bytes.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if any byte is unmapped; `buf` is then unchanged.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.check(addr, buf.len())?;
        for (a, b) in (addr..).zip(buf.iter_mut()) {
            *b = self.pages[&page_base(a)][(a % PAGE_SIZE) as usize];
        }
        Ok(())
    }

    /// Writes bytes.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if any byte is unmapped; nothing is written then.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        self.check(addr, bytes.len())?;
        for (a, &b) in (addr..).zip(bytes) {
            self.pages.get_mut(&page_base(a)).unwrap()[(a % PAGE_SIZE) as usize] = b;
        }
        Ok(())
    }

    /// Convenience: read a little-endian u64.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if any byte is unmapped.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_read_write_roundtrip() {
        let mut m = Memory::new();
        // Rounds up to one page.
        m.map(0x1000, 100);
        m.write(0x1010, &0xdead_beef_u64.to_le_bytes()).unwrap();
        assert_eq!(m.read_u64(0x1010).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u64(0x1ff8).unwrap(), 0);
        assert!(m.read_u64(0x1ff9).is_err());
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE);
        let addr = 0x2000 - 4;
        m.write(addr, &0x0102_0304_0506_0708_u64.to_le_bytes())
            .unwrap();
        assert_eq!(m.read_u64(addr).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn faults() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE);
        let mut b = [0u8; 1];
        assert_eq!(m.read(0x9000, &mut b), Err(MemFault { addr: 0x9000 }));
        // An access straddling into an unmapped page writes nothing.
        assert_eq!(m.write(0x1fff, &[1, 2]), Err(MemFault { addr: 0x2000 }));
        m.read(0x1fff, &mut b).unwrap();
        assert_eq!(b[0], 0);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn map_requires_alignment() {
        Memory::new().map(0x1001, 8);
    }
}
