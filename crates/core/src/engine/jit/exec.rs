//! W^X executable code buffers for JIT-compiled microkernels.
//!
//! Code is staged into an anonymous read-write mapping, then flipped to
//! read-execute with `mprotect` before the entry pointer is ever handed
//! out — the pages are never writable and executable at the same time.
//! The syscalls go through the crate's raw-syscall shim
//! (`crate::syscall6`, which the serve crate's reactor shares), and
//! every failure path degrades to "no JIT" rather than panicking,
//! because the interpreted microkernel is always available.
//!
//! A process-wide counter tracks how many executable mappings were ever
//! created; the `EGEMM_JIT=0` negative test asserts it stays zero when
//! the knob is off.

use std::sync::atomic::{AtomicU64, Ordering};

/// Executable mappings ever created by this process (monotone; never
/// decremented on unmap so the gate test cannot race a drop).
static EXEC_MAPPINGS: AtomicU64 = AtomicU64::new(0);

/// How many executable mappings this process has ever created. Zero iff
/// no JIT kernel was ever published (the `EGEMM_JIT=0` contract).
pub fn exec_mappings() -> u64 {
    EXEC_MAPPINGS.load(Ordering::Relaxed)
}

/// One published, immutable, executable code buffer. Dropping it unmaps
/// the pages, so the owner must outlive every call through [`entry`].
///
/// [`entry`]: ExecBuf::entry
pub(crate) struct ExecBuf {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is immutable (read-execute) from publication to
// drop; sharing the start address across threads is plain pointer
// sharing with no interior mutation.
unsafe impl Send for ExecBuf {}
// SAFETY: `&ExecBuf` exposes only the start address and the length of
// that immutable mapping, so shared references on several threads can
// read nothing another thread writes.
unsafe impl Sync for ExecBuf {}

impl ExecBuf {
    /// Map `code` into fresh pages and seal them read-execute. `None`
    /// on any platform or syscall failure — the caller falls back to
    /// the interpreted kernel.
    pub(crate) fn publish(code: &[u8]) -> Option<ExecBuf> {
        sys::publish(code)
    }

    /// Entry point of the published code.
    pub(crate) fn entry(&self) -> *const u8 {
        self.ptr
    }

    /// Bytes resident in the mapping (whole pages).
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl Drop for ExecBuf {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sys {
    use super::{ExecBuf, EXEC_MAPPINGS};
    use crate::syscall6;
    use std::sync::atomic::Ordering;

    const SYS_MMAP: i64 = 9;
    const SYS_MPROTECT: i64 = 10;
    const SYS_MUNMAP: i64 = 11;
    const PROT_READ: i64 = 1;
    const PROT_WRITE: i64 = 2;
    const PROT_EXEC: i64 = 4;
    const MAP_PRIVATE: i64 = 0x02;
    const MAP_ANONYMOUS: i64 = 0x20;
    const PAGE: usize = 4096;

    pub(super) fn publish(code: &[u8]) -> Option<ExecBuf> {
        if code.is_empty() {
            return None;
        }
        let len = code.len().div_ceil(PAGE) * PAGE;
        // SAFETY: anonymous private mapping with no fixed address —
        // always safe to request; the result is checked before use.
        let mapped = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len as i64,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        let addr = match mapped {
            Ok(addr) if addr > 0 => addr,
            _ => return None,
        };
        let ptr = addr as *mut u8;
        // SAFETY: `ptr..ptr+len` is the fresh writable mapping above and
        // `code` fits inside it.
        unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len()) };
        // SAFETY: flips the whole mapping above from RW to RX; the
        // region was returned by mmap and is page-aligned.
        let rc = unsafe {
            syscall6(
                SYS_MPROTECT,
                addr,
                len as i64,
                PROT_READ | PROT_EXEC,
                0,
                0,
                0,
            )
        };
        if rc.is_err() {
            unmap(ptr, len);
            return None;
        }
        EXEC_MAPPINGS.fetch_add(1, Ordering::Relaxed);
        Some(ExecBuf { ptr, len })
    }

    pub(super) fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: `ptr`/`len` describe exactly one mapping created by
        // `publish`; after this call the buffer is never touched again
        // (ExecBuf is being dropped). A failure leaks the pages and
        // nothing more.
        let _ = unsafe { syscall6(SYS_MUNMAP, ptr as i64, len as i64, 0, 0, 0, 0) };
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod sys {
    use super::ExecBuf;

    /// No executable mappings off x86-64 Linux: the engine keeps using
    /// the interpreted microkernel.
    pub(super) fn publish(_code: &[u8]) -> Option<ExecBuf> {
        None
    }

    pub(super) fn unmap(_ptr: *mut u8, _len: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn publishes_and_executes_code() {
        // lea eax, [rdi + 7]; ret — a sysv64 fn(i32) -> i32.
        let before = exec_mappings();
        let buf = ExecBuf::publish(&[0x8d, 0x47, 0x07, 0xc3]).expect("mmap/mprotect");
        assert!(buf.len() >= 4 && buf.len().is_multiple_of(4096));
        assert!(exec_mappings() > before);
        // SAFETY: the buffer holds exactly the 4 bytes above — a
        // complete sysv64 function taking one i32 and returning i32.
        let f: unsafe extern "sysv64" fn(i32) -> i32 = unsafe { std::mem::transmute(buf.entry()) };
        // SAFETY: calling the function just published.
        assert_eq!(unsafe { f(35) }, 42);
    }
}
