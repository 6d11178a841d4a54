//! Guest memory layout shared by all mechanisms.

/// The trampoline page (virtual address 0, like zpoline).
pub const TRAMPOLINE_BASE: u64 = 0;
/// Nop-sled length = max syscall number covered (mirrors the native
/// implementation's 512).
pub const SLED_LEN: u64 = 512;
/// The entry stub starts right after the sled.
pub const STUB_BASE: u64 = TRAMPOLINE_BASE + SLED_LEN;

/// SIGSYS-handler code page.
pub const HANDLER_BASE: u64 = 0x8000;
/// Handler page length (also the SUD allowlist length in the classic
/// deployment).
pub const HANDLER_LEN: u64 = 0x1000;

/// Runtime data page.
pub const DATA_BASE: u64 = 0x9000;
/// The SUD selector byte lives at the start of the data page.
pub const SELECTOR_ADDR: u64 = DATA_BASE;
/// Trace-buffer index (u64 count of recorded entries).
pub const TRACE_IDX_ADDR: u64 = DATA_BASE + 8;
/// First trace entry (u64 syscall numbers).
pub const TRACE_ENTRIES_ADDR: u64 = DATA_BASE + 16;
/// Maximum recorded entries (buffer capacity guard).
pub const TRACE_CAP: u64 = 500;

/// Syscall-interest table: one byte per syscall number, nonzero when
/// the interposer wants that syscall delivered to its recording logic.
/// Byte-per-number (rather than a bitmap like the native
/// `InterestSet`) because the simulated ISA has no shift instructions;
/// the cost model is the same — one load and one compare on the hot
/// path.
pub const INTEREST_BASE: u64 = 0xA000;
/// Interest table length = number of covered syscall numbers.
pub const INTEREST_LEN: u64 = SLED_LEN;
