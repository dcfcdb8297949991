//! The workspace's one raw-syscall shim, for x86-64 Linux.
//!
//! The workspace has a zero-external-dependency policy, so there is no
//! `libc` crate to lean on. Three callers issue their syscalls through
//! [`syscall6`], with the kernel ABI's numbers and struct layouts
//! rather than glibc's: the JIT's code buffers (`mmap`, `mprotect`,
//! `munmap` in `engine/jit/exec.rs`), `egemm-serve`'s reactor
//! (`epoll_*`, `eventfd2`), and the huge-page advice on fresh B planes
//! (`madvise` in `engine/pack.rs`). Each caller keeps its own typed,
//! safe wrappers; this module holds only the instruction and the
//! negative-errno return convention (glibc's `-1`/`errno` split happens
//! in userspace, so the kernel reports failure as `-errno` in `rax`).

use std::io;

/// Issue syscall `n` with six arguments (pass 0 for the ones it does
/// not take). A negative kernel return value `-errno` comes back as
/// that OS error; anything else is the syscall's result.
///
/// # Safety
/// The caller must uphold the kernel's contract for syscall `n` with
/// these arguments: every pointer argument must be valid for the reads
/// and writes that syscall makes, for the whole call, and the call must
/// not unmap or reprotect memory that this process still uses.
pub unsafe fn syscall6(
    n: i64,
    a1: i64,
    a2: i64,
    a3: i64,
    a4: i64,
    a5: i64,
    a6: i64,
) -> io::Result<i64> {
    let ret: i64;
    std::arch::asm!(
        "syscall",
        inlateout("rax") n => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        in("r9") a6,
        // The kernel clobbers rcx (return address) and r11 (rflags).
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    if ret < 0 {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret)
    }
}
